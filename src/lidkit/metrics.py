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
* the equal error rate linearly interpolates between the two sweep
  points flanking the miss/false-alarm crossing.

All operations are pure functions of their inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    EmptyTrialSet,
    InconsistentLanguageSet,
    MissingSegment,
    UnknownLanguage,
)
from .submission import OUT_OF_SET, ScoreRecord, TrialKey

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
            raise ValueError(f"p_target must lie in (0, 1), got {self.p_target}")
        if self.num_languages < 2:
            raise ValueError(f"need at least 2 languages, got {self.num_languages}")
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
    det_points: list[tuple[float, float]] = field(default_factory=list)
    threshold_used: float = 0.0
    threshold_policy: str = MIN_SWEEP


# ---------------------------------------------------------------------------
# score-matrix assembly

def _score_matrix(records, key: TrialKey, num_languages: int):
    """Align records to the key; return (matrix, true-language indices).

    True indices follow key.language_list order; out-of-set entries get -1.
    Records not named by the key are ignored (fill_missing drops and
    reports them upstream).
    """
    if num_languages != key.num_languages:
        raise InconsistentLanguageSet(
            f"config declares {num_languages} languages, key has {key.num_languages}"
        )
    by_id: dict[str, np.ndarray] = {}
    for rec in records:
        if rec.scores.shape != (num_languages,):
            raise InconsistentLanguageSet(
                f"segment {rec.segment_id!r} has {rec.scores.shape[0]} scores, "
                f"expected {num_languages}"
            )
        by_id[rec.segment_id] = rec.scores
    missing = [seg for seg in key.entries if seg not in by_id]
    if missing:
        raise MissingSegment(
            f"{len(missing)} key segment(s) absent from scores, first {missing[0]!r}; "
            "run fill_missing first"
        )
    segment_ids = list(key.entries)
    matrix = np.array([by_id[seg] for seg in segment_ids], dtype=np.float64)
    index = {lang: i for i, lang in enumerate(key.language_list)}
    true_idx = np.array(
        [index.get(key.entries[seg], -1) for seg in segment_ids], dtype=np.int64
    )
    return matrix, true_idx


def _rows_for(matrix, true_idx, lang_idx: int, column: int) -> np.ndarray:
    return matrix[true_idx == lang_idx, column]


# ---------------------------------------------------------------------------
# pair-wise loss

def compute_pairwise_loss(
    records,
    key: TrialKey,
    target: str,
    nontarget: str,
    threshold: float,
    config: EvalConfig | None = None,
) -> PairwiseLoss:
    """Miss/false-alarm rates and detection cost for one language pair.

    ``nontarget`` may be the out-of-set marker, in which case the
    false-alarm pool is the key's out-of-set segments.
    """
    if config is None:
        config = EvalConfig.for_key(key)
    if target == nontarget:
        raise ValueError("target and nontarget languages must differ")
    index = {lang: i for i, lang in enumerate(key.language_list)}
    if target not in index:
        raise UnknownLanguage(f"target language {target!r} not in key")
    if nontarget != OUT_OF_SET and nontarget not in index:
        raise UnknownLanguage(f"nontarget language {nontarget!r} not in key")
    matrix, true_idx = _score_matrix(records, key, config.num_languages)
    t = index[target]
    target_scores = _rows_for(matrix, true_idx, t, t)
    nontarget_scores = _rows_for(matrix, true_idx, index.get(nontarget, -1), t)
    if target_scores.size == 0:
        raise EmptyTrialSet(f"no trials for target language {target!r}")
    if nontarget_scores.size == 0:
        raise EmptyTrialSet(f"no trials for nontarget language {nontarget!r}")
    p_miss = float(np.count_nonzero(target_scores < threshold) / target_scores.size)
    p_fa = float(np.count_nonzero(nontarget_scores >= threshold) / nontarget_scores.size)
    cost = config.p_target * p_miss + (1.0 - config.p_target) * p_fa
    return PairwiseLoss(target, nontarget, p_miss, p_fa, cost)


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


# ---------------------------------------------------------------------------
# average cost

def _nontarget_groups(key: TrialKey, true_idx) -> list[tuple[str, int]]:
    groups = [(lang, i) for i, lang in enumerate(key.language_list)]
    if np.any(true_idx == -1):
        groups.append((OUT_OF_SET, -1))
    return groups


def _sweep_candidates(matrix) -> np.ndarray:
    values = np.unique(matrix)
    return np.unique(np.concatenate([values, [-np.inf, np.inf]]))


def _cavg_curve(matrix, true_idx, key: TrialKey, config: EvalConfig, thetas) -> np.ndarray:
    """Average cost at every threshold in ``thetas`` (vectorized sweep)."""
    thetas = np.asarray(thetas, dtype=np.float64)
    n = config.num_languages
    groups = _nontarget_groups(key, true_idx)
    total = np.zeros(thetas.shape, dtype=np.float64)
    for t in range(n):
        target_scores = np.sort(_rows_for(matrix, true_idx, t, t))
        if target_scores.size == 0:
            raise EmptyTrialSet(
                f"no trials for target language {key.language_list[t]!r}"
            )
        miss = np.searchsorted(target_scores, thetas, side="left") / target_scores.size
        term = config.p_target * miss
        for _, g in groups:
            if g == t:
                continue
            pool = np.sort(matrix[true_idx == g, t])
            if pool.size == 0:
                lang = key.language_list[g] if g >= 0 else OUT_OF_SET
                raise EmptyTrialSet(f"no trials for nontarget language {lang!r}")
            fa = (pool.size - np.searchsorted(pool, thetas, side="left")) / pool.size
            term = term + config.p_nontarget * fa
        total += term
    return total / n


def _pairwise_at(matrix, true_idx, key: TrialKey, config: EvalConfig, theta: float):
    pairs = []
    groups = _nontarget_groups(key, true_idx)
    for t, target in enumerate(key.language_list):
        target_scores = _rows_for(matrix, true_idx, t, t)
        p_miss = float(np.count_nonzero(target_scores < theta) / target_scores.size)
        for nontarget, g in groups:
            if g == t:
                continue
            pool = matrix[true_idx == g, t]
            p_fa = float(np.count_nonzero(pool >= theta) / pool.size)
            cost = config.p_target * p_miss + (1.0 - config.p_target) * p_fa
            pairs.append(PairwiseLoss(target, nontarget, p_miss, p_fa, cost))
    return pairs


def compute_cavg(records, key: TrialKey, config: EvalConfig | None = None) -> EvalReport:
    """Evaluate a score file: average cost, pooled EER, and the DET curve.

    Under the ``fixed`` policy the cost is evaluated at ``config.threshold``.
    Under ``min_sweep`` one global threshold is swept over every distinct
    score value plus +/-inf and the minimizing cost is reported;
    ``threshold_used`` records the minimizer (first one on ties, scanning
    thresholds in increasing order).
    """
    if config is None:
        config = EvalConfig.for_key(key)
    matrix, true_idx = _score_matrix(records, key, config.num_languages)
    if config.threshold_policy == FIXED:
        theta = config.threshold
        # single-point sweep keeps the EmptyTrialSet checks in one place
        _cavg_curve(matrix, true_idx, key, config, [theta])
    else:
        candidates = _sweep_candidates(matrix)
        curve = _cavg_curve(matrix, true_idx, key, config, candidates)
        theta = float(candidates[int(np.argmin(curve))])
    pairwise = _pairwise_at(matrix, true_idx, key, config, theta)
    cavg = cavg_from_pairwise(pairwise, config.p_target, config.num_languages)
    target_pool, nontarget_pool = _pooled_trials(matrix, true_idx)
    det = _det_from_pools(target_pool, nontarget_pool)
    eer = _eer_from_det(det)
    return EvalReport(
        cavg=cavg,
        eer=eer,
        pairwise=pairwise,
        det_points=det,
        threshold_used=theta,
        threshold_policy=config.threshold_policy,
    )


# ---------------------------------------------------------------------------
# pooled trials: DET curve and equal error rate

def _pooled_trials(matrix, true_idx):
    """Split all (segment, hypothesis) trial scores into target/nontarget pools."""
    n_lang = matrix.shape[1]
    hyp = np.arange(n_lang)
    target_mask = true_idx[:, None] == hyp[None, :]
    flat = matrix.ravel()
    mask = target_mask.ravel()
    return flat[mask], flat[~mask]


def _det_from_pools(target_pool, nontarget_pool) -> list[tuple[float, float]]:
    if target_pool.size == 0:
        raise EmptyTrialSet("no target trials")
    if nontarget_pool.size == 0:
        raise EmptyTrialSet("no nontarget trials")
    targets = np.sort(target_pool)
    nontargets = np.sort(nontarget_pool)
    candidates = np.unique(np.concatenate([target_pool, nontarget_pool]))
    miss = np.searchsorted(targets, candidates, side="left") / targets.size
    fa = (
        nontargets.size - np.searchsorted(nontargets, candidates, side="left")
    ) / nontargets.size
    points = [(0.0, 1.0)]
    points.extend((float(m), float(f)) for m, f in zip(miss, fa))
    points.append((1.0, 0.0))
    return points


def _eer_from_det(points) -> float:
    """Crossing of p_miss and p_fa along the sweep, linearly interpolated.

    The difference p_miss - p_fa is nondecreasing along the sweep and spans
    [-1, 1] thanks to the infinite endpoints, so the first nonnegative
    entry locates the crossing.
    """
    miss = np.array([p[0] for p in points])
    fa = np.array([p[1] for p in points])
    diff = miss - fa
    i = int(np.argmax(diff >= 0.0))
    if diff[i] == 0.0:
        return float(miss[i])
    w = diff[i - 1] / (diff[i - 1] - diff[i])
    return float(miss[i - 1] + w * (miss[i] - miss[i - 1]))


def det_curve(records, key: TrialKey) -> list[tuple[float, float]]:
    """DET points over the pooled trial set, one per distinct score plus
    the (0,1) and (1,0) endpoints, in threshold order."""
    matrix, true_idx = _score_matrix(records, key, key.num_languages)
    target_pool, nontarget_pool = _pooled_trials(matrix, true_idx)
    return _det_from_pools(target_pool, nontarget_pool)


def compute_eer(records, key: TrialKey) -> float:
    """Pooled equal error rate (see module docstring for the trial set)."""
    return _eer_from_det(det_curve(records, key))


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
    """Two-column DET rendering: 'p_miss p_fa' per line, 9 significant digits."""
    return "\n".join(f"{m:.9g} {f:.9g}" for m, f in points) + "\n"
