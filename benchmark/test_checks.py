"""The benchmark's own tests: every output check passes on a correct output
and fails on a deliberately corrupted one.

    python3 -m pytest benchmark/test_checks.py -q
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracles  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from lidkit import backend, harness, metrics, net, submission  # noqa: E402


def score_set(seed, n_seg=60, n_lang=4, oos=True, grid=10.0):
    """Random scores with ties (grid-snapped), a few -inf and out-of-set rows."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(n_lang, size=n_seg)
    truth[: n_lang] = np.arange(n_lang)
    if oos:
        truth[n_lang : n_lang + 3] = -1
    matrix = np.round(rng.normal(size=(n_seg, n_lang)) * grid) / grid
    matrix[truth[:, None] == np.arange(n_lang)] += 1.0
    matrix[rng.random(matrix.shape) < 0.03] = -np.inf
    return matrix, truth


def program_report(matrix, truth, policy=metrics.MIN_SWEEP):
    langs = [f"l{i}" for i in range(matrix.shape[1])]
    ids = [f"s{i}" for i in range(matrix.shape[0])]
    key = submission.TrialKey(langs, {s: langs[t] if t >= 0 else "OOS" for s, t in zip(ids, truth)})
    records = [submission.ScoreRecord(s, row) for s, row in zip(ids, matrix)]
    config = metrics.EvalConfig.for_key(key, threshold_policy=policy)
    return metrics.compute_cavg(records, key, config)


@pytest.mark.parametrize("seed", range(8))
def test_metric_recomputations_agree_with_program(seed):
    matrix, truth = score_set(seed, oos=seed % 2 == 0)
    report = program_report(matrix, truth)
    brute = oracles.min_cavg_bruteforce(matrix, truth)
    swept, _ = oracles.min_cavg_sorted(matrix, truth)
    assert oracles.check_metric("cavg", report.cavg, brute) == []
    assert oracles.check_metric("cavg", report.cavg, swept) == []
    assert oracles.check_metric("eer", report.eer, oracles.eer_bruteforce(matrix, truth)) == []
    assert oracles.check_metric("eer", report.eer, oracles.eer_sorted(matrix, truth)) == []
    fixed = program_report(matrix, truth, metrics.FIXED)
    assert oracles.check_metric("fixed", fixed.cavg, oracles.cavg_at(matrix, truth, 0.0)) == []


def evaluated(tmp_path, matrix, truth):
    """What `lidkit evaluate` would have computed and written for ``matrix``."""
    reports = [program_report(matrix, truth, policy) for policy in (metrics.FIXED, metrics.MIN_SWEEP)]
    out = workloads.Evaluated(tmp_path / "filled.txt", tmp_path / "report.txt", tmp_path / "det.txt")
    out.report.write_text(metrics.report_text(reports[1]))
    out.captured = [(r.threshold_policy, r.cavg, r.eer) for r in reports]
    return out


def test_metric_check_catches_perturbed_score_row(tmp_path):
    matrix, truth = score_set(3)
    matrix[truth[:, None] == np.arange(matrix.shape[1])] = 10.0  # perfectly separated
    corrupted = matrix.copy()
    corrupted[int(np.flatnonzero(truth == 0)[0]), 0] = -10.0  # one target now misses
    report = program_report(corrupted, truth)
    assert oracles.check_metric("cavg", report.cavg, oracles.min_cavg_bruteforce(matrix, truth))
    assert oracles.check_metric("eer", report.eer, oracles.eer_sorted(matrix, truth))
    want = (oracles.min_cavg_bruteforce(matrix, truth), oracles.eer_bruteforce(matrix, truth))
    good = evaluated(tmp_path, matrix, truth)
    assert workloads.check_evaluations("evaluate", good, matrix, truth, *want) == []
    bad = evaluated(tmp_path, corrupted, truth)
    assert workloads.check_evaluations("evaluate", bad, matrix, truth, *want)


def test_report_text_check_catches_wrong_digits():
    assert oracles.check_text_metric("cavg", "0.123456789", 0.1234567891) == []
    assert oracles.check_text_metric("cavg", "0.123457789", 0.1234567891)


def test_cover_check_catches_dropped_and_stray_segments():
    entries = {"a": "x", "b": "y", "c": "OOS"}
    assert oracles.check_cover("scores", ["c", "a", "b"], entries) == []
    assert oracles.check_cover("scores", ["a", "b"], entries)
    assert oracles.check_cover("scores", ["a", "b", "c", "d"], entries)
    assert oracles.check_cover("scores", ["a", "b", "c", "c"], entries)


@pytest.fixture(scope="module")
def desk_model(tmp_path_factory):
    params = net.init_network(num_classes=3, seed=[5, 1], feat_dim=40, frame_dim=16,
                              stats_dim=24, embed_dim=16)
    path = tmp_path_factory.mktemp("model") / "model.bin"
    path.write_bytes(net.save_params(params))
    frames = [np.random.default_rng(i).normal(size=(40 + 7 * i, 40)) for i in range(4)]
    return params, oracles.read_model(path), frames


def test_naive_forward_check_catches_perturbed_row(desk_model):
    params, layers, frames = desk_model
    rows = np.array([backend.score_closed_set(params, f) for f in frames])
    want = np.array([oracles.naive_forward(layers, f)[0] for f in frames])
    assert oracles.check_rows_equal("scores", rows, want) == []
    assert oracles.check_posteriors("scores", rows) == []
    rows[1, 2] += 1e-6
    assert oracles.check_rows_equal("scores", rows, want)
    assert oracles.check_posteriors("scores", rows)


def test_posterior_check_allows_nine_digit_text_only():
    row = np.log(np.array([0.2, 0.3, 0.5]))
    written = np.array([[float(f"{v:.9g}") for v in row]])
    assert oracles.check_posteriors("scores", written) == []
    assert oracles.check_posteriors("scores", written + 1e-8)


def test_xvector_checks_catch_shifted_xvector(desk_model):
    params, layers, frames = desk_model
    xvecs = np.array([net.extract_xvector(params, f).values for f in frames])
    want = np.array([oracles.naive_forward(layers, f)[1] for f in frames])
    assert oracles.check_rows_equal("x-vectors", xvecs, want) == []
    models = backend.enroll_languages(params, {"delta": frames[:2], "echo": frames[2:]})
    centroids = dict(zip(models.language_ids, models.centroids))
    ids = [f"s{i}" for i in range(len(frames))]
    scores = np.array([backend.score_zero_resource(models, f, params) for f in frames])
    args = ("zero", ids, scores, ids)
    assert oracles.check_zero_scores(*args, xvecs, models.language_ids, centroids) == []
    shifted = xvecs.copy()
    shifted[2] += 0.5
    assert oracles.check_rows_equal("x-vectors", shifted, want)
    assert oracles.check_zero_scores(*args, shifted, models.language_ids, centroids)
    assert oracles.check_zero_scores("zero", ids, scores, ids[:3], xvecs[:3],
                                     models.language_ids, centroids)


def test_validate_count_check():
    stderr = "".join(f"warning: segment 'stray{i}' not in key, dropped\n" for i in range(3))
    stderr += "warning: 7 lost trials filled with -inf\n"
    assert workloads.check_validate_counts(stderr, 7, 3) == []
    assert workloads.check_validate_counts(stderr, 8, 3)
    assert workloads.check_validate_counts(stderr, 7, 2)


def test_premise_check():
    assert workloads.check_premise({harness.CROSS_CHANNEL: 0.2, harness.SHORT_UTTERANCE: 0.0}) == []
    assert workloads.check_premise({harness.CROSS_CHANNEL: 0.1, harness.SHORT_UTTERANCE: 0.1})


def test_later_rounds_must_reproduce_the_first(tmp_path):
    out = tmp_path / "scores.txt"
    out.write_text("s1 0.5 -0.5\n")

    class OneFile(workloads.Workload):
        def output_files(self, out):
            return [out]

        def check(self, out):
            return []

    wl = OneFile(0, tmp_path)
    assert wl.verify(out) == [] and wl.verify(out) == []
    out.write_text("s1 0.5 -0.4\n")
    assert wl.verify(out)


def test_speed_factor_comes_from_the_probes_near_an_interval():
    probe = speed.SpeedProbe()
    probe.samples = [(float(t), 0.01) for t in range(20)] + [(100.0 + t, 0.03) for t in range(20)]
    assert probe.median_s(110.0, 111.0) == 0.03
    assert probe.median_s(5.0, 6.0) == 0.01
    assert probe.median_s(50.0, 51.0) == 0.02  # too few nearby: the whole run's median
    timed = workloads.Sample(seconds=2.0, start=110.0, end=112.0)
    assert run.normalised_s(probe, timed) == pytest.approx(2.0 * speed.REFERENCE_S / 0.03)


def test_probe_time_is_left_out_of_samples():
    probe = speed.SpeedProbe()
    rec = workloads.Recorder(probe)
    with rec.sample("stage"):
        time.sleep(0.05)
        probe.spent_s += 0.04  # as if a burst ran inside the stage
    (sample,) = rec.samples["stage"]
    assert 0.0 < sample.seconds < sample.end - sample.start - 0.039


def test_large_generator_expectations(tmp_path):
    """The generator's record of what it wrote matches the files."""
    large = workloads.inputs.write_large_score_file(3, tmp_path / "key.txt", tmp_path / "s.txt")
    languages, entries = oracles.read_key(tmp_path / "key.txt")
    ids, matrix = oracles.read_rows(tmp_path / "s.txt")
    assert languages == large.languages and entries == large.entries
    assert len(ids) == len(entries) - len(large.withheld) + len(large.strays)
    assert set(ids) - set(entries) == set(large.strays)
    assert set(entries) - set(ids) == set(large.withheld)
    kept = [i for i, seg in enumerate(ids) if seg in entries]
    rows = {ids[i]: matrix[i] for i in kept}
    want = {seg: large.matrix[j] for j, seg in enumerate(entries) if seg in rows}
    assert all(np.array_equal(rows[seg], want[seg]) for seg in want)


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.per_layer_names()
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    assert end_to_end == {"setup_s", "run_s", "peak_rss_mb"} | {m[1] for m in run.STAGE_METRICS}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
