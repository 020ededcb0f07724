import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from lidkit import metrics, submission as sub
from lidkit.errors import (
    EmptyTrialSet,
    InconsistentLanguageSet,
    InvalidConfig,
    MissingSegment,
)


def _records(key, rows):
    return [sub.ScoreRecord(seg, np.asarray(scores, dtype=float)) for seg, scores in rows]


def two_lang_key(truths):
    return sub.TrialKey(["A", "B"], dict(truths))


def fixed_report(recs, key, threshold, **kwargs):
    cfg = metrics.EvalConfig.for_key(
        key, threshold_policy=metrics.FIXED, threshold=threshold, **kwargs
    )
    return metrics.compute_cavg(recs, key, cfg)


def pair_term(report, target, nontarget):
    (pair,) = [p for p in report.pairwise if (p.target, p.nontarget) == (target, nontarget)]
    return pair


def det_rows(points):
    """DET points as a list of (p_miss, p_fa) tuples, compared row by row."""
    return [tuple(row) for row in np.asarray(points).tolist()]


class TestPairwiseLoss:
    def test_perfectly_separated(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = _records(key, [("s1", [1.0, 0.0]), ("s2", [-1.0, 0.0])])
        loss = pair_term(fixed_report(recs, key, 0.0), "A", "B")
        assert (loss.p_miss, loss.p_fa, loss.cost) == (0.0, 0.0, 0.0)

    def test_perfectly_inverted(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = _records(key, [("s1", [-2.0, 0.0]), ("s2", [2.0, 0.0])])
        loss = pair_term(fixed_report(recs, key, 0.0), "A", "B")
        assert (loss.p_miss, loss.p_fa, loss.cost) == (1.0, 1.0, 1.0)

    def test_three_segment_worked_example(self):
        key = two_lang_key({"s1": "A", "s3": "A", "s2": "B"})
        recs = _records(key, [("s1", [1.0, 2.0]), ("s3", [-2.0, -1.0]), ("s2", [-1.0, 1.0])])
        loss = pair_term(fixed_report(recs, key, 0.0), "A", "B")
        assert loss.p_miss == 0.5
        assert loss.p_fa == 0.0
        assert loss.cost == 0.25
        # independent counting oracle agrees
        assert oracles.pairwise_by_counting(recs, key, "A", "B", 0.0) == (0.5, 0.0, 0.25)

    def test_cost_formula_holds_exactly(self, score_factory):
        rng = np.random.default_rng(11)
        recs, key = score_factory(rng, 60, ["A", "B", "C"])
        loss = pair_term(fixed_report(recs, key, 0.1, p_target=0.3), "B", "C")
        assert loss.cost == 0.3 * loss.p_miss + 0.7 * loss.p_fa

    def test_empty_trial_set(self):
        key = sub.TrialKey(["A", "B"], {"s1": "A"})
        recs = _records(key, [("s1", [0.0, 0.0])])
        with pytest.raises(EmptyTrialSet):
            fixed_report(recs, key, 0.0)

    def test_missing_segment_without_fill(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = _records(key, [("s1", [0.0, 0.0])])
        with pytest.raises(MissingSegment):
            fixed_report(recs, key, 0.0)


class TestCavg:
    def test_perfect_classifier(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = _records(key, [("s1", [1.0, -1.0]), ("s2", [-1.0, 1.0])])
        cfg = metrics.EvalConfig.for_key(key, threshold_policy=metrics.FIXED, threshold=0.0)
        assert metrics.compute_cavg(recs, key, cfg).cavg == 0.0

    def test_three_segment_worked_example(self):
        key = two_lang_key({"s1": "A", "s3": "A", "s2": "B"})
        recs = _records(key, [("s1", [1.0, 2.0]), ("s3", [-2.0, -1.0]), ("s2", [-1.0, 1.0])])
        cfg = metrics.EvalConfig.for_key(key, threshold_policy=metrics.FIXED, threshold=0.0)
        report = metrics.compute_cavg(recs, key, cfg)
        assert report.cavg == 0.25
        assert oracles.cavg_by_counting(recs, key, 0.0) == 0.25

    def test_degenerate_identical_vectors_min_sweep(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = _records(key, [("s1", [0.3, 0.3]), ("s2", [0.3, 0.3])])
        report = metrics.compute_cavg(recs, key)
        assert report.cavg == 0.5
        oracle_min, _ = oracles.cavg_sweep_oracle(recs, key)
        assert report.cavg == oracle_min

    def test_min_sweep_reports_minimizer(self, score_factory):
        rng = np.random.default_rng(3)
        recs, key = score_factory(rng, 80, ["A", "B", "C"], tie_grid=4)
        report = metrics.compute_cavg(recs, key)
        cfg = metrics.EvalConfig.for_key(
            key, threshold_policy=metrics.FIXED, threshold=report.threshold_used
        )
        refixed = metrics.compute_cavg(recs, key, cfg)
        assert refixed.cavg == pytest.approx(report.cavg, abs=1e-15)

    def test_wrong_arity_rejected(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = [sub.ScoreRecord("s1", [0.0, 0.0, 0.0]), sub.ScoreRecord("s2", [0.0, 0.0, 0.0])]
        with pytest.raises(InconsistentLanguageSet):
            metrics.compute_cavg(recs, key)

    @pytest.mark.parametrize("setting, field", [
        ({"threshold": float("nan")}, "threshold"),
        ({"p_target": 1.0}, "p_target"),
        ({"p_target": float("nan")}, "p_target"),
    ])
    def test_config_refuses_nan_threshold_and_p_target_outside_0_1(self, setting, field):
        with pytest.raises(InvalidConfig, match=f"^{field}: "):
            metrics.EvalConfig(num_languages=2, **setting)

    def test_config_key_disagreement_rejected(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = _records(key, [("s1", [0.0, 0.0]), ("s2", [0.0, 0.0])])
        with pytest.raises(InconsistentLanguageSet):
            metrics.compute_cavg(recs, key, metrics.EvalConfig(num_languages=3))


class TestEer:
    def test_disjoint_supports(self):
        key = sub.TrialKey(["A", "B"], {"s0": "A", "s1": "A"})
        recs = _records(key, [("s0", [0.9, 0.2]), ("s1", [0.8, 0.1])])
        assert metrics.compute_eer(recs, key) == 0.0

    def test_four_plus_four_worked_example(self):
        targets = [0.9, 0.8, 0.7, 0.3]
        nontargets = [0.85, 0.6, 0.4, 0.2]
        key = sub.TrialKey(["A", "B"], {f"s{i}": "A" for i in range(4)})
        recs = _records(key, [(f"s{i}", [targets[i], nontargets[i]]) for i in range(4)])
        assert metrics.compute_eer(recs, key) == 0.25
        assert oracles.eer_by_enumeration(recs, key) == 0.25

    def test_identical_multisets_give_half(self):
        values = [0.9, 0.8, 0.7, 0.3]
        key = sub.TrialKey(["A", "B"], {f"s{i}": "A" for i in range(4)})
        recs = _records(key, [(f"s{i}", [values[i], values[i]]) for i in range(4)])
        assert metrics.compute_eer(recs, key) == 0.5

    def test_empty_trial_set(self):
        key = sub.TrialKey(["A"], {"s0": "A"})
        recs = _records(key, [("s0", [0.5])])
        with pytest.raises(EmptyTrialSet):
            metrics.compute_eer(recs, key)


class TestDetCurve:
    def test_single_pair_endpoints(self):
        key = sub.TrialKey(["A", "B"], {"s0": "A"})
        recs = _records(key, [("s0", [1.0, 0.0])])
        points = det_rows(metrics.det_curve(recs, key))
        for expected in [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]:
            assert expected in points

    def test_four_plus_four_has_ten_monotone_points(self):
        targets = [0.9, 0.8, 0.7, 0.3]
        nontargets = [0.85, 0.6, 0.4, 0.2]
        key = sub.TrialKey(["A", "B"], {f"s{i}": "A" for i in range(4)})
        recs = _records(key, [(f"s{i}", [targets[i], nontargets[i]]) for i in range(4)])
        points = det_rows(metrics.det_curve(recs, key))
        assert len(points) == 10
        assert points == oracles.det_by_enumeration(recs, key)
        miss = [p[0] for p in points]
        fa = [p[1] for p in points]
        assert miss == sorted(miss)
        assert fa == sorted(fa, reverse=True)

    def test_empty_nontarget_pool(self):
        key = sub.TrialKey(["A"], {"s0": "A", "s1": "A"})
        recs = _records(key, [("s0", [0.5]), ("s1", [0.2])])
        with pytest.raises(EmptyTrialSet):
            metrics.det_curve(recs, key)


class TestOutOfSetHandling:
    def test_oos_segments_are_nontargets_everywhere(self):
        key = sub.TrialKey(["A", "B"], {"s1": "A", "s2": "B", "x1": sub.OUT_OF_SET})
        recs = _records(
            key, [("s1", [1.0, -1.0]), ("s2", [-1.0, 1.0]), ("x1", [5.0, 5.0])]
        )
        report = fixed_report(recs, key, 0.0)
        # the loud out-of-set segment false-alarms against both languages
        assert pair_term(report, "A", sub.OUT_OF_SET).p_fa == 1.0
        assert report.cavg == oracles.cavg_by_counting(recs, key, 0.0)
        assert {p.nontarget for p in report.pairwise} == {"A", "B", sub.OUT_OF_SET}
        # pooled trials: 2 in-set targets, 2 in-set nontargets, 2 OOS nontargets
        targets, nontargets = oracles.pooled_scores(recs, key)
        assert targets.size == 2 and nontargets.size == 4


class TestInvariants:
    def test_sweep_matches_enumeration_oracle(self, score_factory):
        rng = np.random.default_rng(29)
        for trial in range(25):
            n_lang = int(rng.integers(2, 6))
            langs = [f"L{i}" for i in range(n_lang)]
            recs, key = score_factory(
                rng,
                int(rng.integers(20, 200)),
                langs,
                oos_fraction=0.1 if trial % 3 == 0 else 0.0,
                tie_grid=3 if trial % 2 == 0 else None,
            )
            report = metrics.compute_cavg(recs, key)
            oracle_min, _ = oracles.cavg_sweep_oracle(recs, key)
            assert report.cavg == pytest.approx(oracle_min, abs=1e-12)
            assert metrics.compute_eer(recs, key) == pytest.approx(
                oracles.eer_by_enumeration(recs, key), abs=1e-12
            )

    def test_score_order_invariance(self, score_factory):
        rng = np.random.default_rng(17)
        recs, key = score_factory(rng, 120, ["A", "B", "C"], tie_grid=5)
        base = metrics.compute_cavg(recs, key)
        base_eer = metrics.compute_eer(recs, key)
        base_det = metrics.det_curve(recs, key)
        for transform in (lambda s: 3.0 * s + 2.0, np.tanh, lambda s: np.exp(s / 4.0)):
            mapped = [sub.ScoreRecord(r.segment_id, transform(r.scores)) for r in recs]
            report = metrics.compute_cavg(mapped, key)
            assert report.cavg == pytest.approx(base.cavg, abs=1e-12)
            assert metrics.compute_eer(mapped, key) == pytest.approx(base_eer, abs=1e-12)
            assert det_rows(metrics.det_curve(mapped, key)) == det_rows(base_det)

    def test_bounds(self, score_factory):
        rng = np.random.default_rng(41)
        for _ in range(10):
            recs, key = score_factory(rng, int(rng.integers(10, 80)), ["A", "B", "C", "D"])
            report = metrics.compute_cavg(recs, key)
            assert 0.0 <= report.cavg <= 1.0
            assert 0.0 <= report.eer <= 1.0

    def test_permutation_invariance(self, score_factory):
        rng = np.random.default_rng(53)
        recs, key = score_factory(rng, 90, ["A", "B", "C"])
        report = metrics.compute_cavg(recs, key)
        shuffled = list(recs)
        rng.shuffle(shuffled)
        other = metrics.compute_cavg(shuffled, key)
        assert other.cavg == report.cavg
        assert other.eer == report.eer
        assert det_rows(other.det_points) == det_rows(report.det_points)

    def test_report_recompute_check(self, score_factory):
        rng = np.random.default_rng(71)
        for _ in range(5):
            recs, key = score_factory(rng, 60, ["A", "B", "C"], oos_fraction=0.05)
            report = metrics.compute_cavg(recs, key)
            recomputed = metrics.cavg_from_pairwise(report.pairwise, 0.5, key.num_languages)
            assert report.cavg == pytest.approx(recomputed, abs=1e-12)


# Scores on an exact grid of halves (plus lost-trial -inf), so a positive
# affine map with power-of-two slope and dyadic offset is exact in float64
# and keeps distinct scores distinct.
GRID = st.integers(-6, 7).map(lambda k: k / 2 if k < 7 else -np.inf)
AFFINE = st.tuples(st.sampled_from([0.25, 2.0, 8.0]), st.sampled_from([-3.5, 0.0, 1.25]))
PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)


@st.composite
def score_files(draw):
    """Records and key: 2-4 languages, each with at least one segment,
    and some out-of-set segments; a segment's own language scores higher
    on average."""
    langs = [f"L{i}" for i in range(draw(st.integers(2, 4)))]
    extra = draw(st.lists(st.sampled_from(langs + [sub.OUT_OF_SET]), min_size=4, max_size=30))
    truths = draw(st.permutations(langs + extra))
    rows = []
    for truth in truths:
        row = draw(st.lists(GRID, min_size=len(langs), max_size=len(langs)))
        if truth in langs:
            row[langs.index(truth)] += draw(st.integers(0, 6))
        rows.append(row)
    key = sub.TrialKey(langs, {f"s{i}": lang for i, lang in enumerate(truths)})
    return _records(key, [(f"s{i}", row) for i, row in enumerate(rows)]), key


def swept(recs, key):
    """Min-sweep Cavg, EER and DET rows."""
    report = metrics.compute_cavg(recs, key)
    return report.cavg, report.eer, det_rows(report.det_points)


class TestMetricProperties:
    @PROPERTY
    @given(score_files(), AFFINE)
    def test_increasing_map_moves_only_the_threshold(self, data, affine):
        recs, key = data
        a, b = affine
        mapped = [sub.ScoreRecord(r.segment_id, a * r.scores + b) for r in recs]
        assert swept(mapped, key) == swept(recs, key)
        before = metrics.compute_cavg(recs, key).threshold_used
        assert metrics.compute_cavg(mapped, key).threshold_used == a * before + b
        assert det_rows(metrics.det_curve(mapped, key)) == det_rows(metrics.det_curve(recs, key))
        assert metrics.compute_eer(mapped, key) == metrics.compute_eer(recs, key)

    @PROPERTY
    @given(score_files(), st.data())
    def test_segment_order_does_not_matter(self, data, draws):
        recs, key = data
        order = draws.draw(st.permutations(range(len(recs))))
        ids = list(key.entries)
        shuffled_key = sub.TrialKey(key.language_list, {ids[i]: key.entries[ids[i]] for i in order})
        shuffled = [recs[i] for i in order]
        assert swept(shuffled, shuffled_key) == swept(recs, key)

    @PROPERTY
    @given(score_files(), st.data())
    def test_languages_and_columns_permute_together(self, data, draws):
        recs, key = data
        perm = draws.draw(st.permutations(range(key.num_languages)))
        permuted_key = sub.TrialKey([key.language_list[i] for i in perm], key.entries)
        permuted = [sub.ScoreRecord(r.segment_id, r.scores[perm]) for r in recs]
        cavg, eer, det = swept(permuted, permuted_key)
        base_cavg, base_eer, base_det = swept(recs, key)
        # the cost sums its per-target terms in key order
        assert cavg == pytest.approx(base_cavg, abs=1e-12)
        assert (eer, det) == (base_eer, base_det)

        def pairs(recs, key):
            return {(p.target, p.nontarget): (p.p_miss, p.p_fa)
                    for p in fixed_report(recs, key, 0.0).pairwise}

        assert pairs(permuted, permuted_key) == pairs(recs, key)

    @PROPERTY
    @given(score_files(), st.one_of(GRID.map(lambda s: s + 0.25), GRID, st.just(np.inf)))
    def test_min_sweep_never_above_a_fixed_threshold(self, data, theta):
        recs, key = data
        swept_cavg = metrics.compute_cavg(recs, key).cavg
        assert swept_cavg <= fixed_report(recs, key, theta).cavg + 1e-12

    @PROPERTY
    @given(score_files(), st.integers(0, 3), GRID.filter(np.isfinite))
    def test_lost_trial_never_lowers_its_miss_rate(self, data, which, theta):
        recs, key = data
        lang = key.language_list[which % key.num_languages]
        lost_key = sub.TrialKey(key.language_list, {**key.entries, "lost": lang})
        lost = recs + [sub.ScoreRecord("lost", np.full(key.num_languages, -np.inf))]

        def miss(recs, key):
            report = fixed_report(recs, key, theta)
            return next(p.p_miss for p in report.pairwise if p.target == lang)

        assert miss(lost, lost_key) >= miss(recs, key)


class TestReportText:
    def test_flat_key_value_shape(self):
        key = two_lang_key({"s1": "A", "s2": "B"})
        recs = _records(key, [("s1", [1.0, -1.0]), ("s2", [-1.0, 1.0])])
        report = metrics.compute_cavg(recs, key)
        text = metrics.report_text(report)
        lines = text.strip().splitlines()
        assert lines[0].startswith("cavg ")
        assert all(len(line.split()) == 2 for line in lines)

    def test_det_text_two_columns(self):
        points = np.array([(0.0, 1.0), (0.123456789123, 0.5), (1.0, 0.0)])
        lines = metrics.det_text(points).strip().splitlines()
        assert lines[1] == "0.123456789 0.5"
        assert all(len(line.split()) == 2 for line in lines)
