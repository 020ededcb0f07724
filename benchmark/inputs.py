"""Seeded inputs the benchmark hands to lidkit.

The large score file is made here, by the benchmark's own generator, so
that its expected contents (which segments were withheld, which are not in
the key, every score value) are known without asking the program.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

LARGE_LANGUAGES = [f"lang{i}" for i in range(10)]
LARGE_SEGMENTS = 100_000
LARGE_OOS_SHARE = 0.05  # out-of-set segments in the key
LARGE_WITHHELD = 250  # key segments left out of the score file (lost trials)
LARGE_STRAYS = 120  # score-file segments the key does not name
LARGE_TIED_ROWS = 0.05  # share of rows snapped to a 0.1 grid (many tied scores)
LARGE_INF_ENTRIES = 0.001  # share of single scores that are -inf
LARGE_INF_ROWS = 40  # rows scored -inf in every column (failed segments)


@dataclass
class LargeScoreFile:
    languages: list
    entries: dict  # segment -> language or OOS, in key order
    matrix: np.ndarray  # key order, withheld rows already -inf
    truth: np.ndarray  # key-order language column, -1 for out of set
    withheld: list
    strays: list


def write_large_score_file(seed: int, key_path, score_path) -> LargeScoreFile:
    """Write a 10-language trial key and a matching score file.

    Scores are multiples of 1e-6, written with six decimals, so the
    program's 9-digit rewrite of them is exact and every value can be
    compared bit for bit.
    """
    rng = np.random.default_rng([seed, 41])
    n, n_lang = LARGE_SEGMENTS, len(LARGE_LANGUAGES)
    truth = rng.integers(n_lang, size=n)
    truth[rng.random(n) < LARGE_OOS_SHARE] = -1
    micro = np.rint(
        (rng.standard_normal((n, n_lang)) + 2.5 * (truth[:, None] == np.arange(n_lang))) * 1e6
    )
    tied = rng.random(n) < LARGE_TIED_ROWS
    micro[tied] = np.rint(micro[tied] / 1e5) * 1e5
    values = micro / 1e6
    values[rng.random((n, n_lang)) < LARGE_INF_ENTRIES] = -np.inf
    values[rng.choice(n, LARGE_INF_ROWS, replace=False)] = -np.inf

    ids = [f"utt{i:06d}" for i in range(n)]
    entries = {seg: (LARGE_LANGUAGES[t] if t >= 0 else "OOS") for seg, t in zip(ids, truth)}
    withheld = sorted(rng.choice(n, LARGE_WITHHELD, replace=False).tolist())
    strays = [f"stray{i:04d}" for i in range(LARGE_STRAYS)]
    stray_values = np.rint(rng.standard_normal((LARGE_STRAYS, n_lang)) * 1e6) / 1e6

    keep = np.ones(n, dtype=bool)
    keep[withheld] = False
    lines = [ids[i] + " " + " ".join("%.6f" % v for v in values[i]) for i in np.flatnonzero(keep)]
    lines += [seg + " " + " ".join("%.6f" % v for v in row) for seg, row in zip(strays, stray_values)]
    order = rng.permutation(len(lines))
    with open(key_path, "w", encoding="utf-8") as fh:
        fh.write(" ".join(LARGE_LANGUAGES) + "\n")
        fh.writelines(f"{seg} {lang}\n" for seg, lang in entries.items())
    with open(score_path, "w", encoding="utf-8") as fh:
        fh.writelines(lines[i] + "\n" for i in order)

    values[withheld] = -np.inf
    return LargeScoreFile(
        LARGE_LANGUAGES, entries, values, truth, [ids[i] for i in withheld], strays
    )
