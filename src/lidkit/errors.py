"""Exception types shared across the toolkit.

Errors raised while parsing line-oriented text carry the offending line
number so callers can emit ``file:line: message`` diagnostics.
"""


class LidkitError(Exception):
    """Base class for all toolkit errors."""


class LineError(LidkitError):
    """Error tied to a specific line of a text input (1-based).

    Renders as ``file:line: message`` once a path is attached, or as
    ``file: message`` when the error belongs to no one line.
    """

    def __init__(self, message: str, line_no: int | None = None, path: str | None = None):
        super().__init__(message)
        self.line_no = line_no
        self.path = path

    def __str__(self) -> str:
        base = super().__str__()
        if self.path is None:
            return base if self.line_no is None else f"line {self.line_no}: {base}"
        if self.line_no is None:
            return f"{self.path}: {base}"
        return f"{self.path}:{self.line_no}: {base}"


# score file / trial key validation

class MalformedLine(LineError, ValueError):  # a ValueError, as before line numbers
    pass


class ArityMismatch(LineError):
    pass


class DuplicateSegment(LineError):
    pass


class NaNScore(LineError):
    pass


class UnknownLanguage(LineError):
    pass


# metrics

class EmptyTrialSet(LidkitError):
    pass


class MissingSegment(LidkitError):
    pass


class InconsistentLanguageSet(LidkitError):
    pass


# audio front end

class AudioFormatError(LidkitError):
    pass


class TooShort(LidkitError):
    pass


class InvalidConfig(LidkitError):
    pass


class AllFramesRemoved(LidkitError):
    pass


# embedding network

class TooFewFrames(LidkitError):
    pass


class NonFiniteLoss(LidkitError):
    pass


class CorruptModel(LidkitError):
    pass


class DimMismatch(LidkitError):
    pass


# back-ends

class NoUsableReferences(LidkitError):
    pass


class ZeroNormVector(LidkitError):
    pass


# synthetic harness

class InvalidSpec(LidkitError):
    pass


class InvalidPlan(LidkitError):
    pass
