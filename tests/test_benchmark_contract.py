"""The benchmark calls into lidkit: its tracer wraps functions by name and
counts their work from their arguments and results, it captures what
``lidkit evaluate`` computes by patching ``metrics.compute_cavg``, and its
own tests call back-end and network functions directly. A rename, deletion
or signature change here would make benchmark runs fail, so check them from
the test suite."""

import dataclasses
import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import numpy as np

from lidkit import cli, dsp, harness, metrics, net

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"
TRACING = BENCHMARK / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("benchmark_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_exists():
    tracing = load_tracing()
    assert tracing.TRACED
    missing = [
        f"lidkit.{module}.{func}"
        for module, func, _ in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"lidkit.{module}"), func, None))
    ]
    assert missing == []


def test_calls_the_workloads_make_outside_the_tracer(tmp_path):
    channel = harness.ChannelSpec(cutoff_hz=2000.0, snr_db=5.0)
    plan = harness.ExperimentPlan(harness.CROSS_CHANNEL, ["alpha", "bravo", "charlie"],
                                  ["delta", "echo"], seed=3, channel=channel)
    plan.validate()
    assert (plan.seed, plan.channel.cutoff_hz, plan.channel.snr_db) == (3, 2000.0, 5.0)
    spec = dataclasses.replace(harness.default_training_specs()[0], length_range_s=(0.5, 0.5))
    samples = harness.synth_utterance(spec, 0.5, np.random.default_rng(1))
    dsp.write_wav(tmp_path / "u.wav", samples)
    frames = dsp.features_from_wav(tmp_path / "u.wav").frames
    assert frames.ndim == 2 and frames.shape[1] == 40
    params = net.init_network(3, seed=[5, 1], feat_dim=40, frame_dim=16, stats_dim=24,
                              embed_dim=16)
    assert net.extract_xvector(params, frames).values.shape == (16,)


def test_positional_calls_of_the_desk_recipe(damaged_corpus, tmp_path):
    # as benchmark/workloads.py calls them: train_network(corpus, entries,
    # languages, None, seed) and run_task(plan, corpus, out, None, params)
    corpus, _ = damaged_corpus
    langs = ["alpha", "bravo", "charlie"]
    train = [e for e in harness.read_manifest(corpus) if e.split == "train"]
    params = harness.train_network(corpus, train, langs, None, 8)
    by_keyword = harness.train_network(corpus, train, langs, config=None, seed=8)
    assert net.save_params(params) == net.save_params(by_keyword)
    plan = harness.ExperimentPlan(harness.SHORT_UTTERANCE, langs, ["delta", "echo"], seed=8)
    result = harness.run_task(plan, corpus, tmp_path, None, params)
    assert result.params is params
    assert result.score_path == tmp_path / "scores_short_utterance.txt"


def test_traced_vad_counts_every_frame_in_and_the_kept_frames_out():
    spec = harness.default_training_specs()[0]
    samples = harness.synth_utterance(spec, 1.0, np.random.default_rng(2))
    config = dsp.FeatureConfig()
    num_frames = 1 + (samples.size - config.frame_len_samples) // config.frame_shift_samples
    tracer = load_tracing().Tracer()
    with tracer.installed():
        feats = dsp.features_from_waveform(samples)
    counted = {name: tracer.stats[f"dsp.apply_vad.{name}"]
               for name in ("calls", "in_frames", "kept_frames")}
    assert counted == {"calls": 1, "in_frames": num_frames, "kept_frames": feats.num_frames}
    assert 0 < feats.num_frames < num_frames  # the benchmark's keep_ratio is neither 0 nor 1


def test_traced_work_counters_read_the_score_table_and_the_fill(tmp_path):
    key, scores = tmp_path / "key.txt", tmp_path / "scores.txt"
    key.write_text("A B\ns1 A\ns2 B\ns3 OOS\ns4 A\n")
    # s4 is missing, s9 is not in the key
    scores.write_text("# stamp\ns2 -1 1\ns9 0 0\ns1 1 -1\ns3 0.5 0.25\n")
    tracer = load_tracing().Tracer()
    with tracer.installed():
        assert cli.main(["validate", "--scores", str(scores), "--key", str(key),
                         "--out", str(tmp_path / "filled.txt")]) == 0
        assert cli.main(["evaluate", "--scores", str(scores), "--key", str(key)]) == 0
    counted = {name: tracer.stats[f"submission.{name}"]
               for name in ("parse_scores.calls", "parse_scores.lines",
                            "fill_missing.calls", "fill_missing.filled", "fill_missing.dropped")}
    assert counted == {"parse_scores.calls": 2, "parse_scores.lines": 8,
                       "fill_missing.calls": 2, "fill_missing.filled": 2,
                       "fill_missing.dropped": 2}


def test_evaluate_computes_each_policy_once_through_the_module(tmp_path, monkeypatch):
    key, scores = tmp_path / "key.txt", tmp_path / "scores.txt"
    key.write_text("A B\ns1 A\ns2 B\ns3 OOS\n")
    scores.write_text("s1 1 -1\ns2 -1 1\ns3 0.5 0.25\n")
    policies = []
    compute_cavg = metrics.compute_cavg

    def capture(*args, **kwargs):
        report = compute_cavg(*args, **kwargs)
        policies.append(report.threshold_policy)
        return report

    monkeypatch.setattr(metrics, "compute_cavg", capture)
    assert cli.main(["evaluate", "--scores", str(scores), "--key", str(key)]) == 0
    assert sorted(policies) == sorted(metrics.THRESHOLD_POLICIES)


def test_benchmark_checks_pass():
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "test_checks.py", "-q", "-p", "no:cacheprovider"],
        cwd=BENCHMARK, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
