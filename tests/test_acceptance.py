"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail
line per criterion. The end-to-end criteria use the synthetic desk-scale
corpus; their absolute numbers are properties of that corpus, not of any
real-speech benchmark.
"""

import hashlib

import numpy as np
import pytest

import oracles
from conftest import make_random_scorefile
from lidkit import harness, metrics, net, submission as sub

TRAIN_LANGS = ["alpha", "bravo", "charlie"]
ZERO_LANGS = ["delta", "echo"]

DESK_CONFIG = {
    "train.epochs": "6",
    "train.batch_size": "8",
    "train.learn_rate": "0.06",
}

CHANNEL = harness.ChannelSpec(cutoff_hz=2000.0, snr_db=5.0)


def _ok(name):
    print(f"ACCEPTANCE {name}: PASS")


# ---------------------------------------------------------------------------
# criterion 1: parameter budget

def test_criterion_1_parameter_budget():
    params = net.init_network(10, seed=0)
    assert net.param_count(params, exclude=("segment7", "softmax")) == 4_245_468
    _ok("1 parameter-budget")


# ---------------------------------------------------------------------------
# criterion 2: metric oracle equivalence, 100 random files, 1e-12

def test_criterion_2_metric_oracle_equivalence():
    rng = np.random.default_rng(2024)
    languages = [f"L{i:02d}" for i in range(10)]
    for trial in range(100):
        records, key = make_random_scorefile(
            rng, 500, languages, tie_grid=4 if trial % 4 == 0 else None
        )
        report = metrics.compute_cavg(records, key)
        oracle_cavg, _ = oracles.cavg_sweep_oracle(records, key)
        assert abs(report.cavg - oracle_cavg) <= 1e-12
        eer = metrics.trials(records, key).eer
        assert abs(eer - oracles.eer_by_enumeration(records, key)) <= 1e-12
    _ok("2 metric-oracle-equivalence")


# ---------------------------------------------------------------------------
# criterion 3: worked metric values, exact

def test_criterion_3_worked_metric_values():
    key = sub.TrialKey(["A", "B"], {"s1": "A", "s3": "A", "s2": "B"})
    records = [
        sub.ScoreRecord("s1", [1.0, 2.0]),
        sub.ScoreRecord("s3", [-2.0, -1.0]),
        sub.ScoreRecord("s2", [-1.0, 1.0]),
    ]
    config = metrics.EvalConfig.for_key(key, threshold_policy=metrics.FIXED, threshold=0.0)
    assert metrics.compute_cavg(records, key, config).cavg == 0.25

    targets = [0.9, 0.8, 0.7, 0.3]
    nontargets = [0.85, 0.6, 0.4, 0.2]
    key2 = sub.TrialKey(["A", "B"], {f"s{i}": "A" for i in range(4)})
    records2 = [sub.ScoreRecord(f"s{i}", [targets[i], nontargets[i]]) for i in range(4)]
    assert metrics.trials(records2, key2).eer == 0.25
    _ok("3 worked-metric-values")


# ---------------------------------------------------------------------------
# criterion 4: gradient checks, every layer type, h=1e-4, rel < 1e-4

def test_criterion_4_gradient_checks():
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(3):
        params, batch = _checkable_instance(rng)
        _, grads = net.compute_gradients(params, batch)
        for spec in params.specs:
            gw, gb = grads[spec.name]
            rows, cols = params.weights[spec.name].shape
            picks = {(int(rng.integers(rows)), int(rng.integers(cols))) for _ in range(10)}
            for i, j in picks:
                fd = oracles.fd_weight_gradient(params, batch, spec.name, i, j, h=1e-4)
                worst = max(worst, oracles.relative_error(fd, gw[i, j]))
            for j in range(min(rows, 4)):
                fd = oracles.fd_bias_gradient(params, batch, spec.name, j, h=1e-4)
                worst = max(worst, oracles.relative_error(fd, gb[j]))
    assert worst < 1e-4
    _ok("4 gradient-checks")


def _checkable_instance(rng):
    # instances whose rectifier inputs sit clear of the kink, so central
    # differences at h=1e-4 are a valid oracle
    for _ in range(50):
        params = net.init_network(
            3, seed=int(rng.integers(1 << 30)), feat_dim=4, frame_dim=8,
            stats_dim=12, embed_dim=8,
        )
        batch = [
            (rng.standard_normal((int(rng.integers(18, 32)), 4)), int(rng.integers(3)))
            for _ in range(2)
        ]
        if oracles.min_kink_distance(params, batch) > 1e-3:
            return params, batch
    raise AssertionError("no kink-free instance found")


# ---------------------------------------------------------------------------
# criterion 5: pooling vs two-pass direct computation, 1e-10

def test_criterion_5_pooling_two_pass():
    rng = np.random.default_rng(55)
    for _ in range(20):
        h = rng.standard_normal((int(rng.integers(1, 64)), int(rng.integers(1, 32))))
        mean, std, _ = net.pool_stats(h)
        ref_mean, ref_std = oracles.two_pass_pool(h)
        np.testing.assert_allclose(mean, ref_mean, atol=1e-10)
        np.testing.assert_allclose(std, ref_std, atol=1e-10)
    # constant input: zero-std case
    constant = np.tile(rng.standard_normal(16), (23, 1))
    mean, std, _ = net.pool_stats(constant)
    ref_mean, ref_std = oracles.two_pass_pool(constant)
    np.testing.assert_allclose(std, ref_std, atol=1e-10)
    np.testing.assert_allclose(std, 0.0, atol=1e-10)
    np.testing.assert_allclose(mean, constant[0], atol=1e-10)
    _ok("5 pooling-two-pass")


# ---------------------------------------------------------------------------
# criterion 6: format round-trip on 1000 files, sample line, lost-trial fill

def test_criterion_6_format_round_trip():
    rng = np.random.default_rng(66)
    for _ in range(1000):
        n_lang = int(rng.integers(1, 11))
        languages = [f"g{i}" for i in range(n_lang)]
        lines = []
        for i in range(int(rng.integers(0, 25))):
            values = rng.normal(size=n_lang) * 10.0 ** rng.integers(-8, 8)
            if rng.random() < 0.1:
                values[int(rng.integers(n_lang))] = -np.inf
            lines.append(f"u{i} " + " ".join(repr(float(v)) for v in values))
        text = "\n".join(lines) + ("\n" if lines else "")
        once = sub.write_scores(sub.parse_scores(text, languages))
        twice = sub.write_scores(sub.parse_scores(once, languages))
        assert once == twice

    # sample line: ten columns, documented ends
    ten = ["l%d" % i for i in range(10)]
    line = "seg_1 0.5 -0.2 0.05 1.1 -0.7 0.9 -1.3 0.4 -0.3 0.1\n"
    (scores,) = sub.parse_scores(line, ten).values
    assert scores[0] == 0.5 and scores[1] == -0.2
    assert scores[-2] == -0.3 and scores[-1] == 0.1
    (short_scores,) = sub.parse_scores("seg_1 0.5 -0.2 -0.3 0.1\n", ten[:4]).values
    assert np.array_equal(short_scores, [0.5, -0.2, -0.3, 0.1])

    # lost-trial fill produces -inf rows
    key = sub.TrialKey(["A", "B"], {"s1": "A", "s2": "B"})
    result = sub.fill_missing(sub.ScoreTable(["s1"], [[0.0, 0.0]]), key)
    assert result.num_filled == 1
    assert np.all(result.table.values[1] == -np.inf)
    _ok("6 format-round-trip")


# ---------------------------------------------------------------------------
# criterion 7: end-to-end desk-scale runs

@pytest.fixture(scope="module")
def desk_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("desk") / "corpus"
    specs = harness.default_training_specs() + harness.default_zero_resource_specs()
    counts = harness.desk_counts({
        "counts.train": 60, "counts.dev": 5, "counts.test": 30,
        "counts.reference": 10, "counts.zr_test": 50,
    })
    harness.generate_corpus(specs, counts, seed=101, out_dir=corpus)
    return corpus


def _run_short(corpus, out_dir, params=None):
    plan = harness.ExperimentPlan(
        task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS, seed=101
    )
    return harness.run_task(plan, corpus, out_dir, DESK_CONFIG, params=params)


def _run_zero(corpus, out_dir, params=None):
    plan = harness.ExperimentPlan(
        task=harness.ZERO_RESOURCE, train_languages=TRAIN_LANGS,
        zero_languages=ZERO_LANGS, seed=101,
    )
    return harness.run_task(plan, corpus, out_dir, DESK_CONFIG, params=params)


@pytest.fixture(scope="module")
def short_run(desk_corpus, tmp_path_factory):
    return _run_short(desk_corpus, tmp_path_factory.mktemp("short"))


def test_criterion_7a_short_utterance(short_run):
    assert short_run.report.cavg <= 0.05
    assert short_run.report.eer <= 0.05
    _ok(f"7a short-utterance (cavg={short_run.report.cavg:.4f} eer={short_run.report.eer:.4f})")


def _channel_pair(seed, workdir, channel):
    """Train once per seed, evaluate matched and degraded channels."""
    corpus = workdir / f"corpus{seed}"
    specs = harness.default_training_specs()
    counts = {
        "train": {lang: 40 for lang in TRAIN_LANGS},
        "test": {lang: 24 for lang in TRAIN_LANGS},
    }
    harness.generate_corpus(specs, counts, seed=seed, out_dir=corpus)
    matched_plan = harness.ExperimentPlan(
        task=harness.CROSS_CHANNEL, train_languages=TRAIN_LANGS, seed=seed,
        channel=harness.ChannelSpec(),
    )
    config = dict(DESK_CONFIG, **{"train.epochs": "5"})
    matched = harness.run_task(matched_plan, corpus, workdir / f"m{seed}", config)
    degraded_plan = harness.ExperimentPlan(
        task=harness.CROSS_CHANNEL, train_languages=TRAIN_LANGS, seed=seed,
        channel=channel,
    )
    degraded = harness.run_task(
        degraded_plan, corpus, workdir / f"c{seed}", config, params=matched.params
    )
    return matched, degraded


@pytest.fixture(scope="module")
def channel_runs(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("channel")
    seeds = [201, 202, 203, 204, 205]
    return workdir, seeds, [_channel_pair(seed, workdir, CHANNEL) for seed in seeds]


def test_criterion_7b_cross_channel_ordering(channel_runs):
    _, _, pairs = channel_runs
    matched_mean = float(np.mean([m.report.cavg for m, _ in pairs]))
    degraded_mean = float(np.mean([d.report.cavg for _, d in pairs]))
    assert degraded_mean > matched_mean
    _ok(f"7b cross-channel ordering (matched={matched_mean:.4f} < channel={degraded_mean:.4f})")


@pytest.fixture(scope="module")
def zero_run(desk_corpus, short_run, tmp_path_factory):
    return _run_zero(desk_corpus, tmp_path_factory.mktemp("zero"), params=short_run.params)


def test_criterion_7c_zero_resource(zero_run):
    assert zero_run.report.cavg <= 0.20
    assert zero_run.report.cavg < 0.5
    _ok(f"7c zero-resource (cavg={zero_run.report.cavg:.4f})")


# ---------------------------------------------------------------------------
# criterion 8: determinism of criterion 7 runs

def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_8_determinism(desk_corpus, short_run, zero_run, channel_runs, tmp_path_factory):
    short_again = _run_short(desk_corpus, tmp_path_factory.mktemp("short2"))
    assert _digest(short_again.score_path) == _digest(short_run.score_path)
    assert _digest(short_again.report_path) == _digest(short_run.report_path)
    assert _digest(short_again.det_path) == _digest(short_run.det_path)

    zero_again = _run_zero(desk_corpus, tmp_path_factory.mktemp("zero2"), params=short_again.params)
    assert _digest(zero_again.score_path) == _digest(zero_run.score_path)
    assert _digest(zero_again.report_path) == _digest(zero_run.report_path)

    workdir, seeds, pairs = channel_runs
    redo_dir = tmp_path_factory.mktemp("channel2")
    matched_again, degraded_again = _channel_pair(seeds[0], redo_dir, CHANNEL)
    first_matched, first_degraded = pairs[0]
    assert _digest(matched_again.score_path) == _digest(first_matched.score_path)
    assert _digest(degraded_again.score_path) == _digest(first_degraded.score_path)
    assert _digest(degraded_again.report_path) == _digest(first_degraded.report_path)
    _ok("8 determinism")
