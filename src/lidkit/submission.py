"""Score-file and trial-key reading, writing, and validation.

A score file is line-oriented text. Each data line holds a segment
identifier followed by one decimal score per hypothesis language, in the
column order fixed by the trial key:

    seg_1 0.5 -0.2 -0.3 0.1
    seg_2 -0.1 -0.3 0.5 0.3

``inf`` and ``-inf`` are legal score tokens; NaN is rejected. Score files
carry no header line; lines starting with ``#`` are skipped so tools can
stamp their outputs. The writer emits pure data lines at 9 significant
digits, which round-trips decimal text exactly.

Score files and keys run to 10^5 lines, so the readers split each line
once and check the text in bulk. The score reader converts the scores of
a block of ``BLOCK_ROWS`` lines with one ``float`` pass into a numpy
array, checks arity and NaN per block and duplicate ids over the file;
the key reader checks arity, languages and duplicates over all entries.
The writers format a block of rows with one ``%`` operation. The block
bound keeps the transient lists of Python floats small. Text that any
check would refuse is read again line by line, so every diagnostic names
the first offending line exactly as that scan finds it; the scan runs
only to report an error.

A trial key is the ground truth. Its first line declares the language
order (authoritative for score columns everywhere); each following line
maps a segment id to its true language, or to the out-of-set marker
``OOS`` for segments whose language is outside the declared set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, groupby
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    DuplicateSegment,
    MalformedLine,
    NaNScore,
    UnknownLanguage,
    parse_file,
)

OUT_OF_SET = "OOS"

SCORE_DIGITS = 9
# ``"%.9g" % x`` renders exactly as ``f"{x:.9g}"``: -0, inf, -inf, nan
SCORE_FORMAT = f"%.{SCORE_DIGITS}g"

BLOCK_ROWS = 8192


def blocks(rows: Sequence) -> Iterable:
    """Consecutive slices of ``rows``, ``BLOCK_ROWS`` long apart from the last."""
    return (rows[start:start + BLOCK_ROWS] for start in range(0, len(rows), BLOCK_ROWS))


def format_lines(line: str, cells) -> str:
    """``line % tuple(row)`` for every row of the 2-D array ``cells``,
    newline-joined, one ``%`` operation per block of rows."""
    return "\n".join(
        "\n".join([line] * len(block)) % tuple(block.ravel().tolist())
        for block in blocks(cells)
    )


@dataclass
class ScoreRecord:
    """One segment id plus its score vector over the hypothesis languages."""

    segment_id: str
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ScoreRecord):
            return NotImplemented
        return self.segment_id == other.segment_id and np.array_equal(
            self.scores, other.scores
        )


@dataclass
class TrialKey:
    """Ground truth: an ordered language list plus segment -> language entries.

    Entries may map to ``OUT_OF_SET`` for interference segments; those are
    never target trials for any hypothesis language.
    """

    language_list: list[str]
    entries: dict[str, str] = field(default_factory=dict)

    @property
    def num_languages(self) -> int:
        return len(self.language_list)


def _data_lines(text: str) -> Iterable[tuple[int, str]]:
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


def _data_rows(lines: Iterable[str]) -> list[list[str]]:
    """The tokens of each data line among ``lines``. ``str.split`` drops
    the whitespace that ``_data_lines`` strips, so a line is blank or a
    comment exactly when it has no token or its first starts with ``#``."""
    return [row for row in map(str.split, lines) if row and not row[0].startswith("#")]


def parse_scores(text: str, expected_languages: Sequence[str]) -> list[ScoreRecord]:
    """Parse score-file text against a known language order.

    Raises MalformedLine, ArityMismatch, DuplicateSegment, or NaNScore with
    the offending 1-based line number. An empty stream yields an empty list.
    """
    n = len(expected_languages)
    records = _scores_in_bulk(text, n)
    return _scores_by_line(text, n) if records is None else records


def _scores_in_bulk(text: str, n: int) -> list[ScoreRecord] | None:
    """The records of text that every check accepts, or None."""
    records: list[ScoreRecord] = []
    for block in blocks(text.splitlines()):
        rows = _data_rows(block)
        if any(len(row) != n + 1 for row in rows):
            return None
        tokens = chain.from_iterable(row[1:] for row in rows)
        try:
            values = np.fromiter(map(float, tokens), np.float64, len(rows) * n)
        except ValueError:
            return None
        if np.isnan(values).any():
            return None
        values = values.reshape(len(rows), n)
        records.extend(ScoreRecord(row[0], scores) for row, scores in zip(rows, values))
    if len({rec.segment_id for rec in records}) != len(records):
        return None
    return records


def _scores_by_line(text: str, n: int) -> list[ScoreRecord]:
    """The line scan: the first refused line raises its diagnostic."""
    records: list[ScoreRecord] = []
    seen: set[str] = set()
    for line_no, line in _data_lines(text):
        tokens = line.split()
        segment_id, raw_scores = tokens[0], tokens[1:]
        if len(raw_scores) != n:
            raise ArityMismatch(
                f"segment {segment_id!r}: expected {n} scores, got {len(raw_scores)}",
                line_no,
            )
        try:
            values = [float(tok) for tok in raw_scores]
        except ValueError as exc:
            raise MalformedLine(f"bad score token: {exc}", line_no) from None
        if any(math.isnan(v) for v in values):
            raise NaNScore(f"segment {segment_id!r} has a NaN score", line_no)
        if segment_id in seen:
            raise DuplicateSegment(f"segment {segment_id!r} appears twice", line_no)
        seen.add(segment_id)
        records.append(ScoreRecord(segment_id, np.array(values)))
    return records


def write_scores(records: Sequence[ScoreRecord]) -> str:
    """Serialize records as score-file text (empty string for no records).

    Raises NaNScore naming the first NaN segment rather than write a NaN,
    which ``parse_scores`` would reject.
    """
    texts = []
    # a block holds consecutive records with equally many scores
    for _, run in groupby(records, key=lambda rec: rec.scores.shape):
        for block in blocks(list(run)):
            ids = [rec.segment_id for rec in block]
            values = np.array([rec.scores for rec in block])
            nan_rows = np.isnan(values).any(axis=1)
            if nan_rows.any():
                raise NaNScore(f"segment {ids[int(np.argmax(nan_rows))]!r} has a NaN score")
            cells = np.empty((len(block), values.shape[1] + 1), dtype=object)
            cells[:, 0] = ids
            cells[:, 1:] = values
            texts.append(format_lines("%s " + " ".join([SCORE_FORMAT] * values.shape[1]), cells))
    return "\n".join(texts) + ("\n" if texts else "")


def parse_key(text: str) -> TrialKey:
    """Parse trial-key text: a language header line, then segment entries."""
    key = _key_in_bulk(text)
    return _key_by_line(text) if key is None else key


def _key_in_bulk(text: str) -> TrialKey | None:
    """The key of text that every check accepts, or None."""
    rows = _data_rows(text.splitlines())
    if not rows:
        return None
    languages, body = rows[0], rows[1:]
    if len(set(languages)) != len(languages) or OUT_OF_SET in languages:
        return None
    if any(len(row) != 2 for row in body):
        return None
    entries = dict(body)
    if len(entries) != len(body) or not {*languages, OUT_OF_SET}.issuperset(entries.values()):
        return None
    return TrialKey(languages, entries)


def _key_by_line(text: str) -> TrialKey:
    """The line scan: the first refused line raises its diagnostic."""
    lines = list(_data_lines(text))
    if not lines:
        raise MalformedLine("missing language header line", 1)
    header_no, header = lines[0]
    languages = header.split()
    if len(set(languages)) != len(languages):
        raise MalformedLine("duplicate language in header", header_no)
    if OUT_OF_SET in languages:
        raise MalformedLine(f"{OUT_OF_SET!r} is reserved and cannot name a language", header_no)
    known = set(languages)
    entries: dict[str, str] = {}
    for line_no, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine("expected 'segment_id language'", line_no)
        segment_id, language = tokens
        if language != OUT_OF_SET and language not in known:
            raise UnknownLanguage(f"language {language!r} not in header", line_no)
        if segment_id in entries:
            raise DuplicateSegment(f"segment {segment_id!r} appears twice", line_no)
        entries[segment_id] = language
    return TrialKey(languages, entries)


def write_key(key: TrialKey) -> str:
    lines = [" ".join(key.language_list)]
    lines.extend(f"{seg} {lang}" for seg, lang in key.entries.items())
    return "\n".join(lines) + "\n"


@dataclass
class FillResult:
    """Outcome of reconciling a score file against a trial key."""

    records: list[ScoreRecord]
    added_ids: list[str]
    dropped_ids: list[str]

    @property
    def num_filled(self) -> int:
        return len(self.added_ids)


def fill_missing(records: Sequence[ScoreRecord], key: TrialKey) -> FillResult:
    """Make the record list cover the key exactly.

    Segments missing from the records are appended with every score set to
    -inf (the lost-trial convention); segments absent from the key are
    dropped and reported. Output cardinality always equals the key's.
    """
    wanted = key.entries
    kept = [rec for rec in records if rec.segment_id in wanted]
    dropped = [rec.segment_id for rec in records if rec.segment_id not in wanted]
    present = {rec.segment_id for rec in kept}
    fill = np.full(key.num_languages, -np.inf)
    added = [seg for seg in wanted if seg not in present]
    kept.extend(ScoreRecord(seg, fill.copy()) for seg in added)
    return FillResult(kept, added, dropped)


def read_score_file(path, expected_languages: Sequence[str]) -> list[ScoreRecord]:
    return parse_file(path, lambda text: parse_scores(text, expected_languages))


def read_key_file(path) -> TrialKey:
    return parse_file(path, parse_key)
