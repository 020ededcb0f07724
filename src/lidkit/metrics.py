"""Detection metrics for language-identification score files.

The headline metric is the average pair-wise detection cost. For a target
language ``L_t`` and a non-target language ``L_n`` at decision threshold
``theta``::

    cost(L_t, L_n) = p_target * p_miss(L_t) + (1 - p_target) * p_fa(L_t, L_n)

where ``p_miss(L_t)`` is the fraction of true-``L_t`` segments whose
``L_t`` score falls below ``theta`` and ``p_fa(L_t, L_n)`` the fraction of
true-``L_n`` segments whose ``L_t`` score reaches it. The average cost
over all target languages weights each false-alarm term by
``p_nontarget = (1 - p_target) / (N - 1)``::

    cavg = (1/N) * sum_{L_t} [ p_target * p_miss(L_t)
                               + sum_{L_n != L_t} p_nontarget * p_fa(L_t, L_n) ]

The equal error rate is computed on the pooled trial set: every
(segment, hypothesis language) pair is one trial, a trial being "target"
exactly when the hypothesis matches the true language.

Fixed conventions, documented rather than configurable:

* a score exactly equal to the threshold counts as a detection
  (``score >= theta`` accepts); threshold sweeps therefore cover both
  sides of every tie by evaluating at each distinct score and at +/-inf;
* out-of-set segments are non-target trials for every hypothesis
  language and never target trials; for the average cost they form one
  extra non-target group per target language, weighted ``p_nontarget``;
* the equal error rate linearly interpolates between the two DET
  points flanking the miss/false-alarm crossing.

``trials`` gathers a ``submission.ScoreTable`` (or a list of
``ScoreRecord``) into key order with one index and builds the trial set
once: per target language, its own segments' scores and each non-target
group's scores (every other language, then the out-of-set group), all in
the target's column and sorted; the distinct scores; and the pooled DET,
a (K, 2) float64 array of ``(p_miss, p_fa)`` rows, with its EER.
``compute_cavg`` takes the records or a built ``Trials``, so ``lidkit
evaluate`` builds one trial set for both policies. Every count is how
many scores ``k`` of a pool lie strictly below ``theta``: k/n of a target
pool's trials are missed and (n - k)/n of a non-target pool's are false
alarms. The pair terms and the DET read ``k = searchsorted(pool, theta,
side="left")``. ``trials`` refuses a NaN score (``NaNScore``, as the
score reader and writer do) and a set without a target or a non-target
trial (``EmptyTrialSet``), so its ``eer`` and ``det`` accept a key
language with no segment; ``compute_cavg`` needs a segment of every key
language (``EmptyTrialSet`` otherwise), and ``EvalConfig`` refuses a NaN
threshold.

The min sweep counts each column once. Its counts change only at its
distinct scores, so for ``steps``, those scores plus +/-inf, every count
is constant for thresholds in ``(steps[j-1], steps[j]]``. One
``np.unique`` over the column's pools gives the steps and each score's
step index; the exclusive ``cumsum`` of a pool's ``bincount`` over those
indices is its ``k`` at every step, the integers ``searchsorted`` gives.
The column's cost term is computed on its steps with the same float
operations in the same order as at every threshold, and read at the
number of steps below each threshold: an inclusive ``cumsum`` of the
steps' marks (``searchsorted(thetas, steps, side="right")``) among the
thresholds. The curve equals evaluating every pool at every threshold
bit for bit.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .errors import (
    EmptyTrialSet,
    InconsistentLanguageSet,
    InvalidConfig,
    MissingSegment,
    NaNScore,
)
from .submission import OUT_OF_SET, SCORE_FORMAT, ScoreTable, TrialKey, format_lines

FIXED = "fixed"
MIN_SWEEP = "min_sweep"
THRESHOLD_POLICIES = (FIXED, MIN_SWEEP)

DEFAULT_P_TARGET = 0.5


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation parameters: target prior, language count, threshold policy."""

    num_languages: int
    p_target: float = DEFAULT_P_TARGET
    threshold_policy: str = MIN_SWEEP
    threshold: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.p_target < 1.0:
            raise InvalidConfig(f"p_target: expected a value in (0, 1), got {self.p_target!r}")
        if math.isnan(self.threshold):
            raise InvalidConfig("threshold: expected a number, got nan")
        if self.num_languages < 2:  # no non-target trial
            raise EmptyTrialSet(f"need at least 2 languages, got {self.num_languages}")
        if self.threshold_policy not in THRESHOLD_POLICIES:
            raise ValueError(f"unknown threshold policy {self.threshold_policy!r}")

    @property
    def p_nontarget(self) -> float:
        return (1.0 - self.p_target) / (self.num_languages - 1)

    @classmethod
    def for_key(cls, key: TrialKey, **kwargs) -> "EvalConfig":
        return cls(num_languages=key.num_languages, **kwargs)


@dataclass(frozen=True)
class PairwiseLoss:
    """Miss/false-alarm rates and cost for one (target, nontarget) pair."""

    target: str
    nontarget: str
    p_miss: float
    p_fa: float
    cost: float


@dataclass
class EvalReport:
    """Everything one evaluation produces: cavg, eer, pair terms, DET points."""

    cavg: float
    eer: float
    pairwise: list[PairwiseLoss] = field(default_factory=list)
    det_points: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    threshold_used: float = 0.0
    threshold_policy: str = MIN_SWEEP


# ---------------------------------------------------------------------------
# score-matrix assembly

def _score_matrix(rows, key: TrialKey):
    """Gather a score table (or record list) into key order; return
    (matrix, true-language indices in key.language_list order, -1 out of set).

    Rows not named by the key are ignored (fill_missing drops and reports
    them upstream); of two rows of one segment the last counts. A NaN
    score is refused, as the score reader and writer refuse it.
    """
    table = ScoreTable.of(rows)
    if len(table) and table.values.shape[1] != key.num_languages:
        raise InconsistentLanguageSet(
            f"segment {table.ids[0]!r} has {table.values.shape[1]} scores, "
            f"expected {key.num_languages}"
        )
    # the row of each key segment, -1 for none
    position = dict(zip(table.ids, range(len(table))))
    order = np.fromiter(map(position.get, key.entries, repeat(-1)), np.intp, len(key.entries))
    missing = np.flatnonzero(order == -1)
    if missing.size:
        raise MissingSegment(
            f"{missing.size} key segment(s) absent from scores, first "
            f"{list(key.entries)[missing[0]]!r}; run fill_missing first"
        )
    matrix = table.values[order]
    nan_rows = np.isnan(matrix).any(axis=1)
    if nan_rows.any():
        raise NaNScore(f"segment {list(key.entries)[np.argmax(nan_rows)]!r} has a NaN score")
    index = {lang: i for i, lang in enumerate(key.language_list)}
    true_idx = np.fromiter(
        (index.get(lang, -1) for lang in key.entries.values()), np.int64, len(key.entries)
    )
    return matrix, true_idx


# ---------------------------------------------------------------------------
# the sorted-trial table: every count below is read from it

def _below(pool: np.ndarray, thetas):
    """The one counting rule: how many scores of the sorted ``pool`` fall
    strictly below each threshold. Of a target pool's n trials, k/n are
    missed at that threshold; of a non-target pool's, (n - k)/n are false
    alarms (a score equal to the threshold is a detection)."""
    return np.searchsorted(pool, thetas, side="left")


def _below_steps(step_of, num_steps: int):
    """The same counts at every step, from the step index of each of a
    pool's scores: the exclusive running sum of its count per step."""
    counts = np.bincount(step_of, minlength=num_steps)
    return np.cumsum(counts) - counts


@dataclass(frozen=True)
class Trials:
    """The trial set of one score file, which both policies evaluate.

    ``columns`` holds, per target language in key order, ``(target, own,
    others)``: ``own`` is the target's segments' sorted scores in its column
    and ``others`` lists ``(group, pool)``, the same for every other language
    and then the out-of-set group (if any). ``scores`` are the distinct
    scores, ``det`` the pooled DET and ``eer`` its crossing.
    """

    columns: list[tuple[str, np.ndarray, list[tuple[str, np.ndarray]]]]
    scores: np.ndarray
    det: np.ndarray
    eer: float


def trials(rows, key: TrialKey) -> Trials:
    """The trial set of a score table (or record list) against ``key``.
    Raises EmptyTrialSet without a target or a non-target trial; a key
    language with no segment leaves its pools empty."""
    matrix, true_idx = _score_matrix(rows, key)
    num = key.num_languages
    is_target = true_idx[:, None] == np.arange(matrix.shape[1])
    targets, nontargets = np.sort(matrix[is_target]), np.sort(matrix[~is_target])
    if targets.size == 0:
        raise EmptyTrialSet("no target trials")
    if nontargets.size == 0:
        raise EmptyTrialSet("no nontarget trials")
    group_of = np.where(true_idx == -1, num, true_idx)  # the out-of-set group last
    sizes = np.bincount(group_of, minlength=num + 1)
    groups = key.language_list + [OUT_OF_SET] * bool(sizes[num])
    # rows in group order, so that each column splits into its pools
    order = np.argsort(group_of, kind="stable")
    columns = []
    for t, target in enumerate(key.language_list):
        pools = np.split(matrix[order, t], np.cumsum(sizes[:num]))
        pools = [(group, np.sort(pool)) for group, pool in zip(groups, pools)]
        columns.append((target, pools.pop(t)[1], pools))
    # the DET: (0, 1), one row per distinct score in increasing order, then (1, 0)
    scores = np.unique(matrix)
    det = np.empty((scores.size + 2, 2), dtype=np.float64)
    det[0] = (0.0, 1.0)
    det[1:-1, 0] = _below(targets, scores) / targets.size
    det[1:-1, 1] = (nontargets.size - _below(nontargets, scores)) / nontargets.size
    det[-1] = (1.0, 0.0)
    return Trials(columns, scores, det, _eer(det))


def _cavg_curve(table: Trials, config: EvalConfig, thetas) -> np.ndarray:
    """Average cost at every threshold in the sorted ``thetas``, from one
    count of each pool at its column's steps (see the module docstring)."""
    total = np.zeros(thetas.shape, dtype=np.float64)
    for _, own, others in table.columns:
        pools = [own, *(pool for _, pool in others)]
        steps, step_of = np.unique(np.concatenate([*pools, (-np.inf, np.inf)]),
                                   return_inverse=True)
        # the step index of each pool's scores (a last piece holds the infinities)
        at = np.split(step_of, np.cumsum([pool.size for pool in pools]))
        term = config.p_target * (_below_steps(at[0], steps.size) / own.size)
        for pool, pool_at in zip(pools[1:], at[1:]):
            fa = (pool.size - _below_steps(pool_at, steps.size)) / pool.size
            term = term + config.p_nontarget * fa
        # steps below each threshold: an inclusive count of the steps' marks
        below = np.bincount(np.searchsorted(thetas, steps, side="right"),
                            minlength=thetas.size + 1)[:-1]
        total += term[np.cumsum(below, out=below)]
    return total / config.num_languages


def _eer(det: np.ndarray) -> float:
    """Crossing of p_miss and p_fa along the DET, linearly interpolated.

    The difference p_miss - p_fa is nondecreasing along the DET and spans
    [-1, 1] thanks to the endpoints, so the first nonnegative entry
    locates the crossing.
    """
    miss, fa = det[:, 0], det[:, 1]
    diff = miss - fa
    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0:
        return float(miss[i])
    w = diff[i - 1] / (diff[i - 1] - diff[i])
    return float(miss[i - 1] + w * (miss[i] - miss[i - 1]))


# ---------------------------------------------------------------------------
# evaluation

def compute_cavg(records, key: TrialKey, config: EvalConfig | None = None) -> EvalReport:
    """Evaluate a score file, or its ``trials``: average cost, pooled EER,
    and the DET curve.

    Under the ``fixed`` policy the cost is evaluated at ``config.threshold``.
    Under ``min_sweep`` one global threshold is swept over every distinct
    score value plus +/-inf and the minimizing cost is reported;
    ``threshold_used`` records the minimizer (first one on ties, scanning
    thresholds in increasing order). Raises EmptyTrialSet when a key
    language has no segment.
    """
    if config is None:
        config = EvalConfig.for_key(key)
    if config.num_languages != key.num_languages:
        raise InconsistentLanguageSet(
            f"config declares {config.num_languages} languages, key has {key.num_languages}"
        )
    table = records if isinstance(records, Trials) else trials(records, key)
    for target, own, _ in table.columns:
        if own.size == 0:
            raise EmptyTrialSet(f"no trials for language {target!r}")
    if config.threshold_policy == FIXED:
        theta = config.threshold
    else:
        thetas = np.union1d(table.scores, (-np.inf, np.inf))
        theta = float(thetas[int(np.argmin(_cavg_curve(table, config, thetas)))])
    pairwise = []
    total = 0.0
    for target, own, others in table.columns:
        p_miss = float(_below(own, theta) / own.size)
        fa = 0.0
        for nontarget, pool in others:
            p_fa = float((pool.size - _below(pool, theta)) / pool.size)
            fa += config.p_nontarget * p_fa
            cost = config.p_target * p_miss + (1.0 - config.p_target) * p_fa
            pairwise.append(PairwiseLoss(target, nontarget, p_miss, p_fa, cost))
        total += config.p_target * p_miss + fa
    return EvalReport(
        cavg=total / config.num_languages,
        eer=table.eer,
        pairwise=pairwise,
        det_points=table.det,
        threshold_used=theta,
        threshold_policy=config.threshold_policy,
    )


# ---------------------------------------------------------------------------
# text serialization

def report_text(report: EvalReport) -> str:
    """Flat key-value rendering of an EvalReport."""
    lines = [
        f"cavg {report.cavg:.9g}",
        f"eer {report.eer:.9g}",
        f"threshold_policy {report.threshold_policy}",
        f"threshold_used {report.threshold_used:.9g}",
    ]
    for pair in report.pairwise:
        prefix = f"pair.{pair.target}.{pair.nontarget}"
        lines.append(f"{prefix}.p_miss {pair.p_miss:.9g}")
        lines.append(f"{prefix}.p_fa {pair.p_fa:.9g}")
        lines.append(f"{prefix}.cost {pair.cost:.9g}")
    return "\n".join(lines) + "\n"


def det_text(points) -> list[str]:
    """Two-column DET rendering of (K, 2) points: 'p_miss p_fa' per line,
    9 significant digits, one chunk per ``BLOCK_ROWS`` rows (``["\\n"]``
    for none), for the caller to write unjoined: on a 10^5-segment file
    (847,719 rows) that took ``lidkit evaluate --det``'s peak RSS from 178
    to 158 MB, the same as without ``--det``."""
    line = f"{SCORE_FORMAT} {SCORE_FORMAT}"
    return format_lines(line, np.asarray(points, dtype=np.float64)) or ["\n"]
