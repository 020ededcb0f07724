"""The benchmark's workloads: what each set-up and round runs, and its checks.

Every workload runs every stage of the recipe (synthesis, training,
scoring, evaluation), each at the size that makes one layer dominate:

* ``desk-recipe``: the published baseline at desk scale. Synthesis and
  the front end dominate; the desk network is cheap.
* ``xvector-fullsize``: the paper-size network through the CLI, on a
  corpus synthesised during set-up. The network and model loading
  dominate.
* ``score-large``: an organiser's validate and evaluate of a 10^5-segment,
  10-language submission. Parsing, filling and the metric sweep dominate.
  Its set-up also runs the desk recipe at minimal size (the organiser's
  own baseline), so its synthesis, training and scoring figures come from
  set-up and its timed part holds no front-end or network work.

Timed samples are grouped by stage: ``generate``, ``train``, ``score``
(the steps that take utterances from WAV through the network), one sample
each per round, and ``eval`` (``validate``/``evaluate``), one sample per
organiser pass over a round's score files.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import logging
import os
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

import inputs
import oracles
from lidkit import cli, dsp, harness, metrics
from tracing import capture_results

SRC = Path(__file__).resolve().parents[1] / "src"

TRAIN_LANGS = ["alpha", "bravo", "charlie"]
ZERO_LANGS = ["delta", "echo"]
CROSS_CHANNEL = harness.ChannelSpec(cutoff_hz=2000.0, snr_db=5.0)
DESK_TASKS = [
    (harness.SHORT_UTTERANCE, harness.ChannelSpec()),
    (harness.CROSS_CHANNEL, CROSS_CHANNEL),
    (harness.ZERO_RESOURCE, harness.ChannelSpec()),
]
# the organiser's baseline inside score-large's set-up: the desk recipe at
# 129 utterances instead of 590, just large enough that its training and
# scoring are not timed from a fraction of a second
MINIMAL_COUNTS = {"train": 24, "dev": 1, "test": 10, "reference": 2, "zr_test": 10}
# The desk and full-size score files are small (tens of milliseconds to
# validate and evaluate), so one pass is swamped by the machine's
# short-term noise; the organiser's pass over them is repeated and each
# repetition is one eval sample.
SMALL_FILE_EVAL_PASSES = 10
# After one generate, a desk round trains, scores and evaluates this many
# times over (same inputs, same outputs): those stages take about 4 s next
# to generate's 15 s, so repeating them puts their samples at several
# points of the run instead of one short stretch per round.
DESK_TAILS = 3
# the desk scoring stage (about 1 s) runs twice in each of those
DESK_SCORE_PASSES = 2
# score-large's baseline repeats its sub-second training and scoring the
# same way in every set-up repetition.
BASELINE_TAILS = 4

FULL_SIZE = ["--set", "net.frame_dim=512", "--set", "net.stats_dim=1500",
             "--set", "net.embed_dim=512"]
FULL_LENGTH_S = (2.5, 3.0)  # about 170 frames after VAD
FULL_COUNTS = {
    "train": {lang: 16 for lang in TRAIN_LANGS},
    "test": {lang: 10 for lang in TRAIN_LANGS},
    "reference": {lang: 4 for lang in ZERO_LANGS},
    "zr_test": {lang: 10 for lang in ZERO_LANGS},
}
FULL_SAMPLE = 2  # segments per split re-scored by the naive forward each round
# A full-size round trains, scores and evaluates this many times over (same
# outputs), so that a run holds three samples of each at different times
# however its rounds fall against --seconds.
FULL_TAILS = 3

_LOST = re.compile(r"warning: (\d+) lost trials? filled")
_DROPPED = re.compile(r"warning: segment '.*' not in key, dropped")


def _pick_report(report):
    return report.threshold_policy, report.cavg, report.eer


class SkipCounter(logging.Handler):
    """Counts lidkit's warnings about utterances it skipped or scored -inf."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if record.name.startswith("lidkit") and "lost trial" not in record.getMessage():
            self.count += 1


@dataclasses.dataclass
class Sample:
    items: int = 0
    seconds: float = 0.0  # wall time, probes left out
    start: float = 0.0  # perf_counter at start and end
    end: float = 0.0


class Recorder:
    """Timed samples per stage for one set-up or one round, and the
    operations attempted and failed. After the first failure the rest of
    the set-up or round is counted as attempted and failed, not run.
    With a running ``speed.SpeedProbe``, the probes' time is left out of
    each sample."""

    def __init__(self, probe=None):
        self.probe = probe
        self.samples = defaultdict(list)
        self.cli_wall = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.skipped = 0
        self.errors = []
        self.seconds = 0.0  # wall time of the whole set-up or round, probes left out
        self.start = self.end = 0.0  # perf_counter at its start and end

    @contextlib.contextmanager
    def sample(self, stage, items=0):
        """Time the block as one sample of ``stage``; set ``.items`` on the
        yielded sample if the count is known only inside the block."""
        sample = Sample(items)
        probed = self.probe_s()
        sample.start = time.perf_counter()
        yield sample
        sample.end = time.perf_counter()
        sample.seconds = sample.end - sample.start - (self.probe_s() - probed)
        if not self.failed:
            self.samples[stage].append(sample)

    def probe_s(self):
        return self.probe.spent_s if self.probe is not None else 0.0

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        if self.failed:
            self.failed += 1
            return None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # a failed operation is counted and reported
            self.failed += 1
            self.errors.append(f"{getattr(fn, '__name__', fn)}: {exc!r}")
            return None

    def cli(self, *argv):
        """Run ``lidkit <argv>`` in-process; returns its stderr text, or None."""
        argv = [str(a) for a in argv]
        out, err = io.StringIO(), io.StringIO()

        def run():
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            if code != 0:
                raise RuntimeError(f"lidkit {argv[0]} exit {code}: {err.getvalue()[-400:]}")
            return err.getvalue()

        start = time.perf_counter()
        text = self.call(run)
        self.cli_wall[argv[0]] += time.perf_counter() - start
        if text:
            self.skipped += sum(
                1 for line in text.splitlines()
                if line.startswith("warning: ")
                and not _DROPPED.match(line) and not _LOST.match(line)
            )
        return text


def probe_import(rec):
    """Cold import of lidkit's CLI in a child interpreter (set-up cost every
    user process pays)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with rec.probe.paused() if rec.probe is not None else contextlib.nullcontext():
        rec.call(subprocess.run, [sys.executable, "-c", "import lidkit.cli"],
                 env=env, check=True, capture_output=True, timeout=60)


def digest(*paths):
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def check_evaluations(label, evaluated, matrix, truth, minimum, eer):
    """Both policies `lidkit evaluate` computed, and its report file."""
    problems = []
    by_policy = {policy: (cavg, e) for policy, cavg, e in evaluated.captured}
    if set(by_policy) != {metrics.FIXED, metrics.MIN_SWEEP}:
        return [f"{label}: evaluate computed policies {sorted(by_policy)}"]
    cavg, got_eer = by_policy[metrics.MIN_SWEEP]
    problems += oracles.check_metric(f"{label} min-sweep Cavg", cavg, minimum)
    problems += oracles.check_metric(f"{label} EER", got_eer, eer)
    fixed = oracles.cavg_at(matrix, truth, 0.0)
    problems += oracles.check_metric(f"{label} fixed Cavg", by_policy[metrics.FIXED][0], fixed)
    text = oracles.read_report(evaluated.report)
    problems += oracles.check_text_metric(f"{label} report cavg", text["cavg"], minimum)
    problems += oracles.check_text_metric(f"{label} report eer", text["eer"], eer)
    return problems


def check_validate_counts(stderr, withheld, strays):
    """`lidkit validate` reported as many filled and dropped segments as the
    generator withheld from and added to the score file."""
    problems = []
    lost = _LOST.search(stderr)
    filled = int(lost.group(1)) if lost else 0
    dropped = len(_DROPPED.findall(stderr))
    if filled != withheld:
        problems.append(f"validate filled {filled} lost trials, generator withheld {withheld}")
    if dropped != strays:
        problems.append(f"validate dropped {dropped} segments, generator added {strays}")
    return problems


def check_premise(cavg):
    """The paper's premise: a channel mismatch costs more than short test
    segments on matched channels."""
    cross, short = cavg[harness.CROSS_CHANNEL], cavg[harness.SHORT_UTTERANCE]
    if cross > short:
        return []
    return [f"cross-channel Cavg {cross} is not above short-utterance Cavg {short}"]


@dataclasses.dataclass
class Evaluated:
    """What the organiser's validate and evaluate wrote for one score file."""

    filled: Path  # `lidkit validate --out`
    report: Path  # `lidkit evaluate --report`
    det: Path  # `lidkit evaluate --det`
    validate_stderr: str = ""
    captured: list = dataclasses.field(default_factory=list)  # compute_cavg results


def organiser_passes(rec, rdir, files, passes):
    """Validate and evaluate each ``(label, score file, key, segments)`` in
    ``files``, ``passes`` times over; each pass is one ``eval`` sample."""
    done = {label: Evaluated(rdir / f"filled_{label}.txt", rdir / f"report_{label}.txt",
                             rdir / f"det_{label}.txt") for label, *_ in files}
    for _ in range(passes):
        with rec.sample("eval", 2 * sum(segments for *_, segments in files)):
            for label, scores, key, _ in files:
                ev = done[label]
                ev.validate_stderr = rec.cli("validate", "--scores", scores, "--key", key,
                                             "--out", ev.filled) or ""
                with capture_results(metrics, "compute_cavg", _pick_report) as ev.captured:
                    rec.cli("evaluate", "--scores", scores, "--key", key,
                            "--report", ev.report, "--det", ev.det)
    return done


class Workload:
    setups = 3  # set-up repetitions; setup_s is their median

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.first_digest = None
        self.neg_inf_rows = 0  # all -inf rows in the last checked round's score files

    def setup(self, rec):
        probe_import(rec)
        self.prepare(rec)

    def prepare(self, rec):
        pass

    def check_setup(self):
        return []

    def verify(self, out):
        """Full checks on the first round's outputs; every later round must
        reproduce them byte for byte."""
        value = digest(*self.output_files(out))
        if self.first_digest is None:
            self.first_digest = value
            return self.check(out)
        return [] if value == self.first_digest else ["outputs differ from the first round's"]


@dataclasses.dataclass
class DeskOutputs:
    corpus: Path
    results: dict  # task -> harness.TaskResult
    evals: dict  # task -> Evaluated


class DeskRecipe(Workload):
    """Generate the desk corpus, train the desk network, run the three
    tasks through ``harness.run_task`` with that model, then validate and
    evaluate each task's score file with the CLI."""

    setups = 10  # its set-up is only the import probe, so repeat it more

    def __init__(self, seed, work, counts=None, eval_passes=SMALL_FILE_EVAL_PASSES,
                 tails=DESK_TAILS):
        super().__init__(seed, work)
        self.counts = counts or {}
        self.eval_passes = eval_passes
        self.tails = tails

    def round(self, rdir, rec):
        corpus = rdir / "corpus"
        overrides = [arg for split, n in self.counts.items()
                     for arg in ("--set", f"counts.{split}={n}")]
        with rec.sample("generate") as sample:
            rec.cli("generate", "--out", corpus, "--seed", self.seed, *overrides)
            entries = harness.read_manifest(corpus) if not rec.failed else []
            sample.items = len(entries)
        by_split = defaultdict(list)
        for entry in entries:
            by_split[entry.split].append(entry)
        out = DeskOutputs(corpus, {}, {})
        utts = sum(len(by_split[s]) for s in ("test", "test", "reference", "zr_test"))
        files = []
        for task, _ in DESK_TASKS:
            split = "zr_test" if task == harness.ZERO_RESOURCE else "test"
            files.append((task, rdir / "tasks" / f"scores_{task}.txt",
                          corpus / f"key_{split}.txt", len(by_split[split])))
        for _ in range(self.tails):
            with rec.sample("train"):
                params = rec.call(harness.train_network, corpus, by_split["train"],
                                  TRAIN_LANGS, None, self.seed)
            for _ in range(DESK_SCORE_PASSES):
                with rec.sample("score", utts):
                    for task, channel in DESK_TASKS:
                        plan = harness.ExperimentPlan(task, TRAIN_LANGS, ZERO_LANGS,
                                                      seed=self.seed, channel=channel)
                        out.results[task] = rec.call(harness.run_task, plan, corpus,
                                                     rdir / "tasks", None, params)
            out.evals = organiser_passes(rec, rdir, files, self.eval_passes)
        return out

    def check(self, out, premise=True):
        problems = []
        cavg = {}
        self.neg_inf_rows = 0
        for task, _ in DESK_TASKS:
            res = out.results[task]
            if res is None:
                return problems + [f"{task}: no result"]
            split = "zr_test" if task == harness.ZERO_RESOURCE else "test"
            languages, entries = oracles.read_key(out.corpus / f"key_{split}.txt")
            ids, scores = oracles.read_rows(res.score_path)
            problems += oracles.check_cover(f"{task} scores", ids, entries)
            filled_ids, _ = oracles.read_rows(out.evals[task].filled)
            problems += oracles.check_cover(f"{task} validated scores", filled_ids, entries)
            if problems:
                return problems
            matrix, truth = oracles.aligned(ids, scores, languages, entries)
            minimum = oracles.min_cavg_bruteforce(matrix, truth)
            eer = oracles.eer_bruteforce(matrix, truth)
            problems += oracles.check_metric(f"{task} run_task Cavg", res.report.cavg, minimum)
            problems += oracles.check_metric(f"{task} run_task EER", res.report.eer, eer)
            problems += check_evaluations(f"{task} evaluate", out.evals[task], matrix, truth,
                                          minimum, eer)
            if task != harness.ZERO_RESOURCE:
                problems += oracles.check_posteriors(f"{task} scores", scores)
            self.neg_inf_rows += oracles.neg_inf_rows(scores)
            cavg[task] = res.report.cavg
        if premise:
            problems += check_premise(cavg)
        return problems

    def output_files(self, out):
        return [path for task, _ in DESK_TASKS
                for path in (out.results[task].score_path, out.evals[task].filled,
                             out.evals[task].report)]


class XvectorFullsize(Workload):
    """The paper-size network through ``lidkit.cli.main``: train one epoch,
    score closed-set, enroll, score zero-resource, extract, evaluate."""

    setups = 4  # its corpus synthesis is timed only here

    def prepare(self, rec):
        self.corpus = self.work / "corpus"
        specs = [dataclasses.replace(spec, length_range_s=FULL_LENGTH_S)
                 for spec in harness.default_training_specs()
                 + harness.default_zero_resource_specs()]
        with rec.sample("generate") as sample:
            entries = rec.call(harness.generate_corpus, specs, FULL_COUNTS, self.seed,
                               self.corpus) or []
            sample.items = len(entries)
        self.by_split = defaultdict(list)
        for entry in entries:
            self.by_split[entry.split].append(entry)
        self.refs = self.work / "refs.txt"
        self.refs.write_text("".join(f"{e.language} {self.corpus / e.path}\n"
                                     for e in self.by_split["reference"]))

    def round(self, rdir, rec):
        c = self.corpus
        model, enrolled = rdir / "model.bin", rdir / "enrolled.txt"
        out = {"model": model, "enrolled": enrolled, "closed": rdir / "closed.txt",
               "zero": rdir / "zero.txt", "xvec": rdir / "xvec.txt"}
        n = {split: len(self.by_split[split]) for split in FULL_COUNTS}
        for _ in range(FULL_TAILS):
            with rec.sample("train"):
                rec.cli("train", "--corpus", c, "--languages", ",".join(TRAIN_LANGS),
                        "--out", model, "--seed", self.seed, "--set", "train.epochs=1",
                        *FULL_SIZE)
            with rec.sample("score", n["test"] + n["reference"] + 2 * n["zr_test"]):
                rec.cli("score", "--model", model, "--corpus", c, "--split", "test",
                        "--key", c / "key_test.txt", "--languages", ",".join(TRAIN_LANGS),
                        "--out", out["closed"])
                rec.cli("enroll", "--model", model, "--refs", self.refs, "--out", enrolled)
                rec.cli("score", "--model", model, "--corpus", c, "--split", "zr_test",
                        "--key", c / "key_zr_test.txt", "--mode", "zero",
                        "--enrolled", enrolled, "--out", out["zero"])
                rec.cli("extract", "--model", model, "--corpus", c, "--split", "zr_test",
                        "--out", out["xvec"])
            out["evals"] = organiser_passes(
                rec, rdir, [("closed", out["closed"], c / "key_test.txt", n["test"]),
                            ("zero", out["zero"], c / "key_zr_test.txt", n["zr_test"])],
                SMALL_FILE_EVAL_PASSES)
        return out

    def _features(self, seg):
        return dsp.features_from_wav(self.corpus / "wav" / f"{seg}.wav").frames

    def check(self, out):
        problems = []
        layers = oracles.read_model(out["model"])
        rng = np.random.default_rng([self.seed, 51])
        xvec_ids, xvecs = oracles.read_rows(out["xvec"])
        xvec_row = {seg: i for i, seg in enumerate(xvec_ids)}
        centroids = oracles.read_enrolled(out["enrolled"])
        self.neg_inf_rows = 0
        for mode, split in (("closed", "test"), ("zero", "zr_test")):
            languages, entries = oracles.read_key(self.corpus / f"key_{split}.txt")
            ids, scores = oracles.read_rows(out[mode])
            problems += oracles.check_cover(f"{mode} scores", ids, entries)
            if problems:
                return problems
            self.neg_inf_rows += oracles.neg_inf_rows(scores)
            matrix, truth = oracles.aligned(ids, scores, languages, entries)
            problems += check_evaluations(
                f"{mode} evaluate", out["evals"][mode], matrix, truth,
                oracles.min_cavg_bruteforce(matrix, truth), oracles.eer_bruteforce(matrix, truth))
            filled_ids, _ = oracles.read_rows(out["evals"][mode].filled)
            problems += oracles.check_cover(f"{mode} validated scores", filled_ids, entries)
            sample = rng.choice(len(ids), FULL_SAMPLE, replace=False)
            if mode == "closed":
                problems += oracles.check_posteriors("closed scores", scores)
                want = np.array([oracles.naive_forward(layers, self._features(ids[i]))[0]
                                 for i in sample])
                problems += oracles.check_rows_equal("closed scores vs naive forward",
                                                     scores[sample], want)
            else:
                problems += oracles.check_cover("x-vectors", xvec_ids, entries)
                if problems:
                    return problems
                want = np.array([oracles.naive_forward(layers, self._features(ids[i]))[1]
                                 for i in sample])
                got = xvecs[[xvec_row[ids[i]] for i in sample]]
                problems += oracles.check_rows_equal("x-vectors vs naive forward", got, want)
                problems += oracles.check_zero_scores("zero scores", ids, scores, xvec_ids,
                                                      xvecs, languages, centroids)
        for lang in ZERO_LANGS:
            refs = [oracles.naive_forward(layers, self._features(e.utt_id))[1]
                    for e in self.by_split["reference"] if e.language == lang]
            problems += oracles.check_rows_equal(f"{lang} centroid", centroids[lang][None, :],
                                                 np.mean(refs, axis=0)[None, :])
        return problems

    def output_files(self, out):
        return [out[name] for name in ("closed", "zero", "xvec", "enrolled")] + [
            path for ev in out["evals"].values() for path in (ev.filled, ev.report)]


class ScoreLarge(Workload):
    """``lidkit validate --out`` and ``lidkit evaluate --report --det`` on a
    10-language, 10^5-segment score file."""

    setups = 2  # each takes about 9 s

    def prepare(self, rec):
        self.key, self.scores = self.work / "key.txt", self.work / "scores.txt"
        self.large = rec.call(inputs.write_large_score_file, self.seed, self.key, self.scores)
        self.baseline = DeskRecipe(self.seed, self.work, MINIMAL_COUNTS, eval_passes=1,
                                   tails=BASELINE_TAILS)
        self.baseline_out = self.baseline.round(self.work / "baseline", rec)

    def check_setup(self):
        problems = self.baseline.check(self.baseline_out, premise=False)
        large = self.large
        minimum, self.threshold = oracles.min_cavg_sorted(large.matrix, large.truth)
        self.want = minimum, oracles.eer_sorted(large.matrix, large.truth)
        self.det_points = np.unique(large.matrix).size + 2
        return problems

    def round(self, rdir, rec):
        lines = len(self.large.entries) - len(self.large.withheld) + len(self.large.strays)
        return organiser_passes(rec, rdir, [("large", self.scores, self.key, lines)], 1)["large"]

    def check(self, out):
        large = self.large
        problems = check_validate_counts(out.validate_stderr, len(large.withheld),
                                         len(large.strays))
        ids, filled = oracles.read_rows(out.filled)
        problems += oracles.check_cover("validated scores", ids, large.entries)
        if problems:
            return problems
        matrix, _ = oracles.aligned(ids, filled, large.languages, large.entries)
        problems += oracles.check_rows_equal("validated scores", matrix, large.matrix, rel=0.0)
        self.neg_inf_rows = oracles.neg_inf_rows(matrix)
        problems += check_evaluations("evaluate", out, large.matrix, large.truth, *self.want)
        with open(out.det, encoding="utf-8") as fh:
            det = [line.strip() for line in fh if not line.startswith("#")]
        if len(det) != self.det_points or det[0] != "0 1" or det[-1] != "1 0":
            problems.append(f"DET has {len(det)} points, expected {self.det_points} "
                            "from (0 1) to (1 0)")
        return problems

    def output_files(self, out):
        return [out.filled, out.report, out.det]


WORKLOADS = {
    "desk-recipe": DeskRecipe,
    "xvector-fullsize": XvectorFullsize,
    "score-large": ScoreLarge,
}
