"""Score-file and trial-key reading, writing, and validation.

A score file is line-oriented text. Each data line holds a segment
identifier followed by one decimal score per hypothesis language, in the
column order fixed by the trial key:

    seg_1 0.5 -0.2 -0.3 0.1
    seg_2 -0.1 -0.3 0.5 0.3

A score token is a decimal number in ASCII digits without ``_``, and only
``inf`` and ``-inf`` read as infinite; NaN is refused. Score files carry
no header line; lines starting with ``#`` are skipped so tools can stamp
their outputs. The writer emits pure data lines at 9 significant digits,
which round-trips decimal text exactly.

Score files and keys run to 10^5 lines, so the readers split each line
once and check it in one pass: the score reader converts a block of
``BLOCK_ROWS`` lines with one ``float`` pass into a numpy array and checks
arity, tokens, NaN and duplicate ids in that order, each on the rows the
earlier checks pass, so the first refused row fails its first check; the
key reader does the same for arity, languages and duplicates. Only a
refused row has its line number looked up. The block bound keeps the
transient lists of Python floats small. In memory a score file is one
``ScoreTable``, the ids in row order and one (N, L) float64 matrix: the
reader appends each block's ids and values array, with no per-row object;
``fill_missing`` keeps the key's rows in table order and appends one -inf
row per key segment without one; and the writer formats a block of matrix
rows with one ``%`` operation.

A trial key is the ground truth. Its first line declares the language
order (authoritative for score columns everywhere); each following line
maps a segment id to its true language, or to the out-of-set marker
``OOS`` for segments whose language is outside the declared set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress, count, islice
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    DuplicateSegment,
    InconsistentLanguageSet,
    MalformedLine,
    NaNScore,
    UnknownLanguage,
    data_lines,
    read_back,
)

OUT_OF_SET = "OOS"

SCORE_DIGITS = 9
# ``"%.9g" % x`` renders exactly as ``f"{x:.9g}"``: -0, inf, -inf, nan
SCORE_FORMAT = f"%.{SCORE_DIGITS}g"
INF_TOKENS = frozenset({"inf", "-inf"})

BLOCK_ROWS = 8192


def blocks(rows: Sequence) -> Iterable:
    """Consecutive slices of ``rows``, ``BLOCK_ROWS`` long apart from the last."""
    return (rows[start:start + BLOCK_ROWS] for start in range(0, len(rows), BLOCK_ROWS))


def format_lines(line: str, cells) -> list[str]:
    """``line % tuple(row)`` plus a newline for every row of the 2-D array
    ``cells``: one string per block of rows, made by one ``%`` operation."""
    return [(line + "\n") * len(block) % tuple(block.ravel().tolist())
            for block in blocks(cells)]


@dataclass(eq=False)
class ScoreRecord:
    """One segment id plus its score vector over the hypothesis languages."""

    segment_id: str
    scores: np.ndarray

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)


@dataclass
class ScoreTable:
    """Segment ids in row order and their (N, L) float64 score matrix."""

    ids: list[str]
    values: np.ndarray

    def __post_init__(self):
        try:
            self.values = np.asarray(self.values, dtype=np.float64)
        except ValueError:  # rows of unequal length
            self.values = np.empty(0)
        if self.values.ndim != 2 or len(self.values) != len(self.ids):
            raise InconsistentLanguageSet(
                f"a score table needs {len(self.ids)} rows of equally many scores")

    def __len__(self) -> int:
        return len(self.ids)

    @classmethod
    def of(cls, rows) -> "ScoreTable":
        """``rows`` if a table, else the table of a list of ScoreRecords."""
        if isinstance(rows, ScoreTable):
            return rows
        values = [rec.scores for rec in rows] or np.empty((0, 0))
        return cls([rec.segment_id for rec in rows], values)


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


def _data_rows(lines: Iterable[str]) -> list[list[str]]:
    """The tokens of each data line among ``lines``. ``str.split`` drops
    the whitespace that ``data_lines`` strips, so a line is blank or a
    comment exactly when it has no token or its first starts with ``#``."""
    return [row for row in map(str.split, lines) if row and not row[0].startswith("#")]


def _line_of(text: str, row: int) -> int:
    """The line number of the data row at 0-based index ``row`` of ``text``."""
    return next(islice(data_lines(text), row, None))[0]


def _first(flags: Iterable[bool], default: int) -> int:
    """The index of the first true flag, else ``default``."""
    return next(compress(count(), flags), default)


def _refuse_repeat(text: str, ids: Sequence[str], first: int) -> None:
    """Raise DuplicateSegment at the first of ``ids``, the ids of the data
    rows from index ``first`` on, that repeats an earlier one."""
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        i = next(i for i, seg in enumerate(ids) if seg in seen or seen.add(seg))
        raise DuplicateSegment(f"segment {ids[i]!r} appears twice", _line_of(text, first + i))


def bad_token(token: str) -> bool:
    """Whether a score token breaks the token rule (see the module doc);
    centroid values in an enrolled-models file follow the same rule."""
    try:
        return not token.isascii() or "_" in token or (
            math.isinf(float(token)) and token not in INF_TOKENS)
    except ValueError:
        return True


def bad_id(token: str) -> bool:
    """Whether an id or language breaks the id rule: one token, no leading
    ``#`` (which readers skip as a comment). ``write_scores`` checks it."""
    return token.split() != [token] or token.startswith("#")


def parse_scores(text: str, expected_languages: Sequence[str]) -> ScoreTable:
    """Parse score-file text against a known language order.

    Raises MalformedLine, ArityMismatch, DuplicateSegment, or NaNScore with
    the offending 1-based line number. An empty stream yields an empty table.
    """
    n = len(expected_languages)
    all_ids: list[str] = []
    matrices = [np.empty((0, n))]
    for block in blocks(text.splitlines()):
        rows = _data_rows(block)
        arity = _first((len(row) != n + 1 for row in rows), len(rows))
        tokens = list(chain.from_iterable(rows[:arity]))
        ids = tokens[::n + 1]
        del tokens[::n + 1]
        try:
            values = np.fromiter(map(float, tokens), np.float64, len(tokens))
            joined = "".join(tokens)
            strict = joined.isascii() and "_" not in joined and INF_TOKENS.issuperset(
                tokens[i] for i in np.flatnonzero(np.isinf(values)).tolist())
        except ValueError:  # from float
            strict = False
        token = arity
        if not strict:
            token = _first(map(bad_token, tokens), len(tokens)) // n
            values = np.array([float(tok) for tok in tokens[:token * n]])
        values = values.reshape(token, n)
        nan = _first(np.isnan(values).any(axis=1).tolist(), token)
        all_ids.extend(ids[:nan])
        matrices.append(values[:nan])
        if nan < len(rows):
            # a repeat among the rows before wins, then the checks in order
            _refuse_repeat(text, all_ids, 0)
            row, line_no = rows[nan], _line_of(text, len(all_ids))
            if nan < token:
                raise NaNScore(f"segment {row[0]!r} has a NaN score", line_no)
            if nan < arity:
                bad = next(filter(bad_token, row[1:]))
                raise MalformedLine(
                    f"bad score token: could not convert string to float: {bad!r}", line_no)
            raise ArityMismatch(
                f"segment {row[0]!r}: expected {n} scores, got {len(row) - 1}", line_no)
    _refuse_repeat(text, all_ids, 0)
    return ScoreTable(all_ids, np.concatenate(matrices))


def write_scores(table: ScoreTable) -> str:
    """Serialize a table as score-file text (empty string for no rows).

    Refuses a row that ``parse_scores`` would not give back, naming its
    segment: NaNScore for the first NaN segment, then, in one pass over
    the ids, DuplicateSegment for the first repeated id and MalformedLine
    for the first that breaks the id rule (``bad_id``). It skips the other
    writers' read-back, which adds about a fifth to a 10^5-row validate+evaluate.
    """
    nan_rows = np.isnan(table.values).any(axis=1)
    if nan_rows.any():
        raise NaNScore(f"segment {table.ids[int(np.argmax(nan_rows))]!r} has a NaN score")
    seen: set[str] = set()
    for seg in table.ids:
        if seg in seen:
            raise DuplicateSegment(f"segment {seg!r} appears twice")
        if bad_id(seg):
            raise MalformedLine(f"segment id {seg!r} is empty, holds whitespace or starts with '#'")
        seen.add(seg)
    width = table.values.shape[1]
    texts = []
    for ids, values in zip(blocks(table.ids), blocks(table.values)):
        cells = np.empty((len(ids), width + 1), dtype=object)
        cells[:, 0] = ids
        cells[:, 1:] = values
        texts += format_lines("%s " + " ".join([SCORE_FORMAT] * width), cells)
    return "".join(texts)


def parse_key(text: str) -> TrialKey:
    """Parse trial-key text: a language header line, then segment entries.

    Raises MalformedLine, UnknownLanguage or DuplicateSegment with the
    offending 1-based line number.
    """
    rows = _data_rows(text.splitlines())
    if not rows:
        raise MalformedLine("missing language header line", 1)
    languages, body = rows[0], rows[1:]
    if len(set(languages)) != len(languages):
        raise MalformedLine("duplicate language in header", _line_of(text, 0))
    if OUT_OF_SET in languages:
        raise MalformedLine(
            f"{OUT_OF_SET!r} is reserved and cannot name a language", _line_of(text, 0))
    bad = next(filter(bad_id, languages), None)  # only a later one can start with "#"
    if bad is not None:
        raise MalformedLine(f"header language {bad!r} starts with '#'", _line_of(text, 0))
    arity = _first((len(row) != 2 for row in body), len(body))
    known = {*languages, OUT_OF_SET}
    entries = dict(body[:arity])
    if len(entries) != len(body) or not known.issuperset(entries.values()):
        # as in parse_scores: a repeat among the rows before wins
        unknown = _first((row[1] not in known for row in body[:arity]), arity)
        _refuse_repeat(text, [row[0] for row in body[:unknown]], 1)
        line_no = _line_of(text, 1 + unknown)
        if unknown < arity:
            raise UnknownLanguage(f"language {body[unknown][1]!r} not in header", line_no)
        raise MalformedLine("expected 'segment_id language'", line_no)
    return TrialKey(languages, entries)


def write_key(key: TrialKey) -> str:
    """Key-file text, refused through ``errors.read_back`` unless
    ``parse_key`` gives back its languages, and its entries in order."""
    lines = [" ".join(key.language_list), *(f"{seg} {lang}" for seg, lang in key.entries.items())]
    return read_back("\n".join(lines) + "\n", parse_key,
                     lambda k: (k.language_list, list(k.entries.items())), key)


@dataclass
class FillResult:
    """Outcome of reconciling a score table against a trial key."""

    table: ScoreTable
    added_ids: list[str]
    dropped_ids: list[str]

    @property
    def num_filled(self) -> int:
        return len(self.added_ids)


def fill_missing(table: ScoreTable, key: TrialKey) -> FillResult:
    """Make the table cover the key exactly.

    Rows of segments absent from the key are dropped and reported; the
    kept rows stay in table order, followed by one row of -inf scores (the
    lost-trial convention) per key segment without a row, in key order.
    Output cardinality always equals the key's.
    """
    wanted = key.entries
    keep = [seg in wanted for seg in table.ids]
    kept = list(compress(table.ids, keep))
    dropped = [seg for seg, kept_row in zip(table.ids, keep) if not kept_row]
    present = set(kept)
    added = [seg for seg in wanted if seg not in present]
    values = np.full((len(kept) + len(added), key.num_languages), -np.inf)
    np.compress(keep, table.values, axis=0, out=values[:len(kept)])
    return FillResult(ScoreTable(kept + added, values), added, dropped)

