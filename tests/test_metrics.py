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
    NaNScore,
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
        assert metrics.trials(recs, key).eer == 0.0

    def test_four_plus_four_worked_example(self):
        targets = [0.9, 0.8, 0.7, 0.3]
        nontargets = [0.85, 0.6, 0.4, 0.2]
        key = sub.TrialKey(["A", "B"], {f"s{i}": "A" for i in range(4)})
        recs = _records(key, [(f"s{i}", [targets[i], nontargets[i]]) for i in range(4)])
        assert metrics.trials(recs, key).eer == 0.25
        assert oracles.eer_by_enumeration(recs, key) == 0.25

    def test_identical_multisets_give_half(self):
        values = [0.9, 0.8, 0.7, 0.3]
        key = sub.TrialKey(["A", "B"], {f"s{i}": "A" for i in range(4)})
        recs = _records(key, [(f"s{i}", [values[i], values[i]]) for i in range(4)])
        assert metrics.trials(recs, key).eer == 0.5

    def test_empty_trial_set(self):
        key = sub.TrialKey(["A"], {"s0": "A"})
        recs = _records(key, [("s0", [0.5])])
        with pytest.raises(EmptyTrialSet):
            metrics.trials(recs, key).eer


class TestDetCurve:
    def test_single_pair_endpoints(self):
        key = sub.TrialKey(["A", "B"], {"s0": "A"})
        recs = _records(key, [("s0", [1.0, 0.0])])
        points = det_rows(metrics.trials(recs, key).det)
        for expected in [(0.0, 1.0), (0.0, 0.0), (1.0, 0.0)]:
            assert expected in points

    def test_four_plus_four_has_ten_monotone_points(self):
        targets = [0.9, 0.8, 0.7, 0.3]
        nontargets = [0.85, 0.6, 0.4, 0.2]
        key = sub.TrialKey(["A", "B"], {f"s{i}": "A" for i in range(4)})
        recs = _records(key, [(f"s{i}", [targets[i], nontargets[i]]) for i in range(4)])
        points = det_rows(metrics.trials(recs, key).det)
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
            metrics.trials(recs, key).det


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
            assert metrics.trials(recs, key).eer == pytest.approx(
                oracles.eer_by_enumeration(recs, key), abs=1e-12
            )

    def test_score_order_invariance(self, score_factory):
        rng = np.random.default_rng(17)
        recs, key = score_factory(rng, 120, ["A", "B", "C"], tie_grid=5)
        base = metrics.compute_cavg(recs, key)
        base_eer = metrics.trials(recs, key).eer
        base_det = metrics.trials(recs, key).det
        for transform in (lambda s: 3.0 * s + 2.0, np.tanh, lambda s: np.exp(s / 4.0)):
            mapped = [sub.ScoreRecord(r.segment_id, transform(r.scores)) for r in recs]
            report = metrics.compute_cavg(mapped, key)
            assert report.cavg == pytest.approx(base.cavg, abs=1e-12)
            assert metrics.trials(mapped, key).eer == pytest.approx(base_eer, abs=1e-12)
            assert det_rows(metrics.trials(mapped, key).det) == det_rows(base_det)

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
            # each target's miss term once, each pair's false-alarm term weighted p_nontarget
            miss = {pair.target: pair.p_miss for pair in report.pairwise}
            p_nontarget = 0.5 / (key.num_languages - 1)
            recomputed = sum(0.5 * p_miss for p_miss in miss.values()) + sum(
                p_nontarget * pair.p_fa for pair in report.pairwise)
            assert report.cavg == pytest.approx(recomputed / key.num_languages, abs=1e-12)


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
        assert det_rows(metrics.trials(mapped, key).det) == det_rows(metrics.trials(recs, key).det)
        assert metrics.trials(mapped, key).eer == metrics.trials(recs, key).eer

    @PROPERTY
    @given(score_files())
    def test_a_built_trial_set_evaluates_like_its_records(self, data):
        recs, key = data
        trials = metrics.trials(recs, key)
        for policy in metrics.THRESHOLD_POLICIES:
            cfg = metrics.EvalConfig.for_key(key, threshold_policy=policy)
            want = metrics.compute_cavg(recs, key, cfg)
            got = metrics.compute_cavg(trials, key, cfg)
            assert (got.cavg, got.eer, got.pairwise, got.threshold_used, got.threshold_policy) \
                == (want.cavg, want.eer, want.pairwise, want.threshold_used, want.threshold_policy)
            assert got.det_points.tobytes() == want.det_points.tobytes()

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


TENTHS = st.integers(-12, 12).map(lambda k: k / 10)
# every float64 but NaN: -0.0, subnormals, 1e308 and +/-inf included
FLOAT64 = st.floats(allow_nan=False)


@st.composite
def sweep_files(draw):
    """Records and key for the step sweep: scores tied on a 0.1 grid, half
    of them -inf, or any float64; some rows all -inf; 2-4 languages plus
    out-of-set segments."""
    values = draw(st.sampled_from([TENTHS, st.one_of(st.just(-np.inf), TENTHS), FLOAT64]))
    langs = [f"L{i}" for i in range(draw(st.integers(2, 4)))]
    extra = draw(st.lists(st.sampled_from(langs + [sub.OUT_OF_SET]), max_size=25))
    truths = draw(st.permutations(langs + extra))
    rows = [draw(st.lists(values, min_size=len(langs), max_size=len(langs))) for _ in truths]
    for i in draw(st.sets(st.integers(0, len(rows) - 1), max_size=4)):
        rows[i] = [-np.inf] * len(langs)
    key = sub.TrialKey(langs, {f"s{i}": lang for i, lang in enumerate(truths)})
    return _records(key, [(f"s{i}", row) for i, row in enumerate(rows)]), key


class TestStepSweep:
    """The sweep reads each column's term at its own steps; the oracle
    searches every pool at every threshold. The counts are the same
    integers, so the curves must be equal bit for bit."""

    @PROPERTY
    @given(sweep_files(), st.sampled_from([0.5, 0.1, 0.9]), st.lists(FLOAT64, max_size=4))
    def test_curve_equals_a_search_per_threshold(self, data, p_target, extra):
        recs, key = data
        cfg = metrics.EvalConfig.for_key(key, p_target=p_target)
        table = metrics.trials(recs, key)
        # thresholds between and beyond the scores read the same steps
        thetas = np.union1d(table.scores, [-np.inf, np.inf, *extra])
        curve = metrics._cavg_curve(table, cfg, thetas)
        assert np.array_equal(curve, oracles.cavg_curve_per_threshold(table, cfg, thetas))

        swept_thetas = np.union1d(table.scores, (-np.inf, np.inf))
        want = oracles.cavg_curve_per_threshold(table, cfg, swept_thetas)
        report = metrics.compute_cavg(recs, key, cfg)
        assert report.threshold_used == swept_thetas[int(np.argmin(want))]

    @PROPERTY
    @given(sweep_files(), st.data(), st.sampled_from([0.5, 0.1, 0.9]),
           st.lists(FLOAT64, max_size=4))
    def test_matrix_and_curve_equal_the_record_and_step_oracles(
        self, data, draws, p_target, extra
    ):
        recs, key = data
        # rows in any order, and a stale row of one segment before its last
        recs = draws.draw(st.permutations(recs))
        recs.insert(0, sub.ScoreRecord(recs[-1].segment_id, np.full(key.num_languages, 7.0)))
        matrix, true_idx = metrics._score_matrix(sub.ScoreTable.of(recs), key)
        want_matrix, want_idx = oracles.score_matrix_by_record(recs, key, key.num_languages)
        assert matrix.tobytes() == want_matrix.tobytes()
        assert true_idx.tobytes() == want_idx.tobytes()

        cfg = metrics.EvalConfig.for_key(key, p_target=p_target)
        table = metrics.trials(recs, key)
        thetas = np.union1d(table.scores, [-np.inf, np.inf, *extra])
        curve = metrics._cavg_curve(table, cfg, thetas)
        assert curve.tobytes() == oracles.cavg_curve_at_steps(table, cfg, thetas).tobytes()

    def test_nan_score_refused_with_segment_id(self):
        key = two_lang_key({"s1": "A", "s2": "B", "s3": "A"})
        recs = _records(key, [("s3", [np.nan, 0.0]), ("s1", [1.0, 0.0]), ("s2", [0.0, np.nan])])
        for policy in metrics.THRESHOLD_POLICIES:
            cfg = metrics.EvalConfig.for_key(key, threshold_policy=policy)
            with pytest.raises(NaNScore, match="'s2'"):
                metrics.compute_cavg(recs, key, cfg)


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
        lines = "".join(metrics.det_text(points)).strip().splitlines()
        assert lines[1] == "0.123456789 0.5"
        assert all(len(line.split()) == 2 for line in lines)

    @PROPERTY
    @given(st.lists(st.tuples(FLOAT64, FLOAT64), max_size=40))
    def test_det_text_bytes_equal_a_format_per_row(self, rows):
        points = np.array(rows, dtype=np.float64).reshape(-1, 2)
        assert "".join(metrics.det_text(points)) == oracles.det_text_by_row(points)

    def test_det_text_across_blocks_of_random_bits(self):
        rng = np.random.default_rng(11)
        bits = rng.integers(0, 2**64 - 1, size=(2 * sub.BLOCK_ROWS + 3, 2), dtype=np.uint64,
                            endpoint=True)
        points = bits.view(np.float64)
        assert "".join(metrics.det_text(points)) == oracles.det_text_by_row(points)

    def test_det_text_gives_one_chunk_per_block(self):
        points = np.linspace(0.0, 1.0, 2 * (2 * sub.BLOCK_ROWS + 3)).reshape(-1, 2)
        chunks = metrics.det_text(points)
        assert [chunk.count("\n") for chunk in chunks] == [sub.BLOCK_ROWS, sub.BLOCK_ROWS, 3]
        assert metrics.det_text(np.empty((0, 2))) == ["\n"]
