"""lidkit benchmark: one workload, timed end to end or per layer.

    python3 benchmark/run.py --workload desk-recipe --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; lidkit is imported from ``src``
and its CLI is called in-process through ``lidkit.cli.main``. Scratch files
go to ``.bench_run/`` in the checkout and are removed at exit.

A run repeats whole rounds of the timed part until their wall time
reaches ``--seconds``, checking the outputs against the recomputations in
``oracles.py``, and sets the workload up several times, spread between
the rounds (``setup_s`` is the median). Every time and rate is scaled by
the machine's speed around it, as measured by the probe in ``speed.py``.
With ``--trace 0`` the last
output line is a JSON object with the end-to-end metrics; with
``--trace 1`` the rounds run with per-layer timing wrappers installed and
the object holds the per-layer metrics instead. The exit code is 1 when
any output check fails, 2 when lidkit's sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    # One BLAS thread: on a few shared cores, a second thread that waits for
    # its sibling at every matrix product makes the timings swing by a factor
    # of two. Set before numpy is first imported (by speed, below).
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"

from speed import SpeedProbe  # noqa: E402
from tracing import TRACED, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORKLOAD_NAMES = ("desk-recipe", "xvector-fullsize", "score-large")
CLI_COMMANDS = ("generate", "train", "score", "enroll", "extract", "validate", "evaluate")
# (stage, metric name, unit, items-per-second or plain seconds)
STAGE_METRICS = [
    ("generate", "generate_utts_per_s", "utt/s", True),
    ("train", "train_s", "s", False),
    ("score", "score_utts_per_s", "utt/s", True),
    ("eval", "eval_segments_per_s", "seg/s", True),
]


def per_layer_names():
    """(name, unit) of every per-layer metric, in BENCHMARK.json order."""
    units = {"calls": "count", "self_s": "s", "bytes": "bytes", "keep_ratio": "ratio"}
    extra = {"harness.generate_corpus": ["utts"], "dsp.apply_vad": ["keep_ratio"],
             "net.forward": ["frames"], "net.compute_gradients": ["examples"],
             "net.load_params": ["bytes"], "submission.parse_scores": ["lines"],
             "submission.fill_missing": ["filled", "dropped"]}
    names = []
    for module, func, _ in TRACED:
        for stat in ["calls", "self_s"] + extra.get(f"{module}.{func}", []):
            names.append((f"{module}.{func}.{stat}", units.get(stat, "count")))
    names += [(f"cli.{cmd}.wall_s", "s") for cmd in CLI_COMMANDS]
    names += [("workload.neg_inf_rows", "count"), ("workload.skipped_utts", "count"),
              ("trace.run_s", "s"), ("machine.probe_s", "s")]
    return names


def normalised_s(probe, timed):
    """Seconds of a timed interval at the probe's reference speed."""
    return timed.seconds / probe.factor(timed.start, timed.end)


def end_to_end(setups, rounds, probe):
    """Times and rates at the reference speed of ``speed.py``: each timed
    interval divided by the machine's slowness around it."""
    out = {
        "setup_s": (statistics.median(normalised_s(probe, r) for r in setups), "s"),
        "run_s": (statistics.median(normalised_s(probe, r) for r in rounds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    for stage, name, unit, rate in STAGE_METRICS:
        # a stage the timed part runs is measured there; otherwise in set-up
        samples = [s for r in rounds for s in r.samples[stage]]
        samples = samples or [s for r in setups for s in r.samples[stage]]
        if samples:
            out[name] = (statistics.median(s.items / normalised_s(probe, s) if rate
                                           else normalised_s(probe, s) for s in samples), unit)
    return out


def per_layer(tracer, rounds, neg_inf_rows, probe):
    n = len(rounds)
    stats = dict(tracer.stats)
    for cmd in CLI_COMMANDS:
        stats[f"cli.{cmd}.wall_s"] = sum(r.cli_wall.get(cmd, 0.0) for r in rounds)
    stats["workload.neg_inf_rows"] = sum(neg_inf_rows)
    stats["workload.skipped_utts"] = sum(r.skipped for r in rounds)
    out = {name: (stats.get(name, 0) / n, unit) for name, unit in per_layer_names()}
    seen = stats.get("dsp.apply_vad.in_frames", 0)
    out["dsp.apply_vad.keep_ratio"] = (stats["dsp.apply_vad.kept_frames"] / seen if seen else 0.0,
                                       "ratio")
    out["trace.run_s"] = (statistics.median(normalised_s(probe, r) for r in rounds), "s")
    out["machine.probe_s"] = (probe.median_s(), "s")
    return out


def run(args, work):
    import workloads  # imports lidkit, so only once src is on the path

    skips = workloads.SkipCounter()
    logging.getLogger().addHandler(skips)
    logging.getLogger().setLevel(logging.WARNING)
    work.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, work)

    setups, rounds, neg_inf_rows, problems = [], [], [], []
    probe = SpeedProbe()

    def set_up():
        rec = workloads.Recorder(probe)
        probed, rec.start = probe.spent_s, time.perf_counter()
        workload.setup(rec)
        rec.end = time.perf_counter()
        rec.seconds = rec.end - rec.start - (probe.spent_s - probed)
        setups.append(rec)
        return not rec.failed

    # One set-up repetition before each round, the rest after the last: the
    # machine's speed drifts over tens of seconds, so repetitions spread over
    # the run sample it at different times.
    tracer = Tracer(probe)
    # The probe runs through set-ups, rounds and checks alike, so that its
    # samples spread over the whole run.
    with probe.running():
        while not rounds or sum(r.seconds for r in rounds) < args.seconds:
            if len(setups) < workload.setups:
                if not set_up():
                    break
                if len(setups) == 1:
                    problems += workload.check_setup()
            rdir = work / f"round{len(rounds)}"
            rdir.mkdir(parents=True)
            rec = workloads.Recorder(probe)
            skipped_before = skips.count
            with tracer.installed() if args.trace else contextlib.nullcontext():
                probed, rec.start = probe.spent_s, time.perf_counter()
                out = workload.round(rdir, rec)
                rec.end = time.perf_counter()
                rec.seconds = rec.end - rec.start - (probe.spent_s - probed)
            rec.skipped += skips.count - skipped_before
            if not rec.failed:
                problems += workload.verify(out)
            neg_inf_rows.append(workload.neg_inf_rows)
            shutil.rmtree(rdir)
            rounds.append(rec)
        while len(setups) < workload.setups and not setups[-1].failed:
            set_up()
    if any(r.failed for r in setups):
        return report([error for r in setups for error in r.errors], setups, rounds, {})

    problems += [error for r in rounds for error in r.errors]
    metrics_out = (per_layer(tracer, rounds, neg_inf_rows, probe) if args.trace
                   else end_to_end(setups, rounds, probe))
    return report(problems, setups, rounds, metrics_out)


def report(problems, setups, rounds, metrics_out):
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r.attempted for r in setups + rounds),
        "failed": sum(r.failed for r in setups + rounds),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics_out.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lidkit" / "cli.py").is_file():
        print(f"error: lidkit sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
