"""Exception types shared across the toolkit, and the reading of text files.

An error raised while parsing line-oriented text carries the offending
line number. One raised inside ``about(source)`` names that file or flag,
and renders as ``source:line: message`` (``source: message`` without a
line); ``about`` is the only place a source is attached. ``data_lines``
owns the data-line rule of every text reader but the config file's.
"""

import contextlib
from pathlib import Path


class LidkitError(Exception):
    """Base class for all toolkit errors: a message, tied to a line
    (1-based) of a text input when ``line_no`` is set, and to the file or
    flag that ``about`` names once raised inside it."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message)
        self.line_no = line_no
        self.path: str | None = None

    def __str__(self) -> str:
        base = super().__str__()
        if self.path is None:
            return base if self.line_no is None else f"line {self.line_no}: {base}"
        if self.line_no is None:
            return f"{self.path}: {base}"
        return f"{self.path}:{self.line_no}: {base}"


@contextlib.contextmanager
def about(source):
    """Name ``source`` as the origin of a LidkitError raised inside that no
    inner ``about`` named (the innermost wins); the same error propagates."""
    try:
        yield
    except LidkitError as err:
        if err.path is None:
            err.path = str(source)
        raise


class LineError(LidkitError):
    """Error of the line-oriented text formats, tied to a line when it has one."""


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
    """``parse(text)`` of the UTF-8 text file at ``path``, its errors naming
    ``path``. Text that is not UTF-8 is a MalformedLine at the first line
    that does not decode, and so is a byte-order mark, which would
    otherwise become part of the first token."""
    data = Path(path).read_bytes()
    with about(path):
        if data.startswith(b"\xef\xbb\xbf"):
            raise MalformedLine("starts with a UTF-8 byte-order mark", 1)
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise MalformedLine("not valid UTF-8", data.count(b"\n", 0, exc.start) + 1) from None
        return parse(text)


def read_back(text, parse, fields, value):
    """``text``, once ``parse(text)`` gives back ``value`` compared as
    ``fields``. Else the reader's error, or a MalformedLine when it reads
    something else (a line skipped as a comment), names ``value``."""
    try:
        back = parse(text)
    except LidkitError as err:
        raise type(err)(f"{value!r} would not read back: {err}") from None
    if fields(back) != fields(value):
        raise MalformedLine(f"{value!r} would not read back unchanged")
    return text


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
