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

``compute_cavg`` gathers a ``submission.ScoreTable`` (or a list of
``ScoreRecord``) into key order with one index and builds one table of
sorted trial pools: per target language, its own segments' scores and
each non-target group's scores (every other language, then the
out-of-set group), all in the target's column, plus the pooled target
and non-target trials. Every count is how many scores ``k`` of a pool lie
strictly below ``theta``: k/n of a target pool's trials are missed and
(n - k)/n of a non-target pool's are false alarms. The pair terms and
the pooled DET, a (K, 2) float64 array of ``(p_miss, p_fa)`` rows, read
``k = searchsorted(pool, theta, side="left")``. ``compute_cavg`` needs a
segment of every key language (``EmptyTrialSet`` otherwise), refuses a
NaN score (``NaNScore``, as the score reader and writer do), and
``EvalConfig`` refuses a NaN threshold.

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
        # the two settings are refused as InvalidConfig naming the field,
        # which harness.eval_config turns into the name of the config key
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

def _score_matrix(rows, key: TrialKey, num_languages: int):
    """Gather a score table (or record list) into key order; return
    (matrix, true-language indices in key.language_list order, -1 out of set).

    Rows not named by the key are ignored (fill_missing drops and reports
    them upstream); of two rows of one segment the last counts. A NaN
    score is refused, as the score reader and writer refuse it.
    """
    table = ScoreTable.of(rows)
    if num_languages != key.num_languages:
        raise InconsistentLanguageSet(
            f"config declares {num_languages} languages, key has {key.num_languages}"
        )
    if len(table) and table.values.shape[1] != num_languages:
        raise InconsistentLanguageSet(
            f"segment {table.ids[0]!r} has {table.values.shape[1]} scores, "
            f"expected {num_languages}"
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
class _TrialTable:
    """Sorted trial pools.

    ``columns`` holds, per target language in key order, ``(target, own,
    others)``: ``own`` is the target's segments' scores in its column and
    ``others`` lists ``(group, pool)`` for every other language and then the
    out-of-set group (if any), each group's scores in the target's column.
    ``targets`` and ``nontargets`` are the pooled (segment, hypothesis)
    trials and ``scores`` their distinct values.
    """

    columns: list[tuple[str, np.ndarray, list[tuple[str, np.ndarray]]]]
    targets: np.ndarray
    nontargets: np.ndarray
    scores: np.ndarray


def _pooled(matrix, true_idx):
    """Sorted target and non-target pools of all (segment, hypothesis)
    trials, and the distinct scores."""
    is_target = (true_idx[:, None] == np.arange(matrix.shape[1])[None, :]).ravel()
    flat = matrix.ravel()
    targets, nontargets = np.sort(flat[is_target]), np.sort(flat[~is_target])
    if targets.size == 0:
        raise EmptyTrialSet("no target trials")
    if nontargets.size == 0:
        raise EmptyTrialSet("no nontarget trials")
    return targets, nontargets, np.unique(matrix)


def _trial_table(matrix, true_idx, key: TrialKey) -> _TrialTable:
    """Build the table, raising EmptyTrialSet for a key language that has
    no segment."""
    num = key.num_languages
    group_of = np.where(true_idx == -1, num, true_idx)  # the out-of-set group last
    sizes = np.bincount(group_of, minlength=num + 1)
    for lang, size in zip(key.language_list, sizes.tolist()):
        if size == 0:
            raise EmptyTrialSet(f"no trials for language {lang!r}")
    groups = key.language_list + [OUT_OF_SET] * bool(sizes[num])
    # rows in group order, so that each column splits into its pools
    order = np.argsort(group_of, kind="stable")
    columns = []
    for t, target in enumerate(key.language_list):
        pools = np.split(matrix[order, t], np.cumsum(sizes[:num]))
        pools = [(group, np.sort(pool)) for group, pool in zip(groups, pools)]
        own = pools.pop(t)[1]
        columns.append((target, own, pools))
    return _TrialTable(columns, *_pooled(matrix, true_idx))


def _cavg_curve(table: _TrialTable, config: EvalConfig, thetas) -> np.ndarray:
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


def _pairwise_at(table: _TrialTable, config: EvalConfig, theta: float):
    pairs = []
    for target, own, others in table.columns:
        p_miss = float(_below(own, theta) / own.size)
        for nontarget, pool in others:
            p_fa = float((pool.size - _below(pool, theta)) / pool.size)
            cost = config.p_target * p_miss + (1.0 - config.p_target) * p_fa
            pairs.append(PairwiseLoss(target, nontarget, p_miss, p_fa, cost))
    return pairs


def _det(targets, nontargets, scores) -> np.ndarray:
    """(K, 2) array of (p_miss, p_fa): (0, 1), one row per distinct score
    in increasing order, then (1, 0)."""
    det = np.empty((scores.size + 2, 2), dtype=np.float64)
    det[0] = (0.0, 1.0)
    det[1:-1, 0] = _below(targets, scores) / targets.size
    det[1:-1, 1] = (nontargets.size - _below(nontargets, scores)) / nontargets.size
    det[-1] = (1.0, 0.0)
    return det


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

def cavg_from_pairwise(
    pairwise: list[PairwiseLoss], p_target: float, num_languages: int
) -> float:
    """Recompute the average cost from per-pair rates.

    Groups the entries by target language (first-appearance order): each
    target contributes ``p_target * p_miss`` once plus ``p_nontarget *
    p_fa`` per entry; the mean over targets is the average cost.
    """
    p_nontarget = (1.0 - p_target) / (num_languages - 1)
    order: list[str] = []
    miss: dict[str, float] = {}
    fa_sum: dict[str, float] = {}
    for pair in pairwise:
        if pair.target not in miss:
            order.append(pair.target)
            miss[pair.target] = pair.p_miss
            fa_sum[pair.target] = 0.0
        fa_sum[pair.target] += p_nontarget * pair.p_fa
    total = 0.0
    for lang in order:
        total += p_target * miss[lang] + fa_sum[lang]
    return total / num_languages


def compute_cavg(records, key: TrialKey, config: EvalConfig | None = None) -> EvalReport:
    """Evaluate a score file: average cost, pooled EER, and the DET curve.

    Under the ``fixed`` policy the cost is evaluated at ``config.threshold``.
    Under ``min_sweep`` one global threshold is swept over every distinct
    score value plus +/-inf and the minimizing cost is reported;
    ``threshold_used`` records the minimizer (first one on ties, scanning
    thresholds in increasing order). Raises EmptyTrialSet when a key
    language has no segment.
    """
    if config is None:
        config = EvalConfig.for_key(key)
    matrix, true_idx = _score_matrix(records, key, config.num_languages)
    table = _trial_table(matrix, true_idx, key)
    if config.threshold_policy == FIXED:
        theta = config.threshold
    else:
        thetas = np.union1d(table.scores, (-np.inf, np.inf))
        theta = float(thetas[int(np.argmin(_cavg_curve(table, config, thetas)))])
    pairwise = _pairwise_at(table, config, theta)
    det = _det(table.targets, table.nontargets, table.scores)
    return EvalReport(
        cavg=cavg_from_pairwise(pairwise, config.p_target, config.num_languages),
        eer=_eer(det),
        pairwise=pairwise,
        det_points=det,
        threshold_used=theta,
        threshold_policy=config.threshold_policy,
    )


def det_curve(records, key: TrialKey) -> np.ndarray:
    """DET points over the pooled trial set, one per distinct score plus
    the (0,1) and (1,0) endpoints, in threshold order, as a (K, 2) array."""
    matrix, true_idx = _score_matrix(records, key, key.num_languages)
    return _det(*_pooled(matrix, true_idx))


def compute_eer(records, key: TrialKey) -> float:
    """Pooled equal error rate (see module docstring for the trial set)."""
    return _eer(det_curve(records, key))


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


def det_text(points) -> str:
    """Two-column DET rendering of (K, 2) points: 'p_miss p_fa' per line,
    9 significant digits."""
    line = f"{SCORE_FORMAT} {SCORE_FORMAT}"
    return format_lines(line, np.asarray(points, dtype=np.float64)) + "\n"
