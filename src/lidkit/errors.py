"""Exception types shared across the toolkit, and the reading of text files.

Errors raised while parsing line-oriented text carry the offending line
number; ``parse_file`` attaches the file, so they render as
``file:line: message``. ``data_lines`` owns the data-line rule of every
text reader but the config file's, which strips inline comments.
"""

from pathlib import Path


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


def parse_file(path, parse):
    """``parse(text)`` of the UTF-8 text file at ``path``, with ``path``
    attached to any LineError it raises. Text that is not UTF-8 is a
    MalformedLine at the first line that does not decode."""
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line_no = data.count(b"\n", 0, exc.start) + 1
        raise MalformedLine("not valid UTF-8", line_no, str(path)) from None
    try:
        return parse(text)
    except LineError as err:
        err.path = str(path)
        raise


def data_lines(text):
    """``(line_no, line)``, 1-based and stripped, for each line of ``text``
    that is neither blank nor a comment (first non-blank character ``#``)."""
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line_no, line


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


class InvalidConfig(LineError):  # tied to a line only when from a config file
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
