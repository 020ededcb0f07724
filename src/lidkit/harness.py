"""Synthetic corpus generator and end-to-end experiment driver.

Real multilingual speech cannot ship with the toolkit, so the harness
fabricates "languages" as spectral-profile classes: band-shaped noise plus
harmonic tone bursts whose energy follows the language's band profile.
That is enough to exercise every pipeline stage at desk scale; absolute
numbers from the synthetic corpus say nothing about real speech.

Generation is deterministic per seed. Every utterance derives its own RNG
from (seed, split, language, index), so regeneration or parallel
generation can never change the output.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import logging
import mmap
import math
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import backend as backend_mod
from . import config as cfgmod
from . import dsp, metrics, net, submission
from .errors import (
    AllFramesRemoved, AudioFormatError, DimMismatch, DuplicateSegment, InconsistentLanguageSet,
    InvalidPlan, InvalidSpec, MalformedLine, NonFiniteValue, TooFewFrames, TooShort, data_lines,
    parse_file, read_back,
)

log = logging.getLogger(__name__)

SHORT_UTTERANCE = "short_utterance"
CROSS_CHANNEL = "cross_channel"
ZERO_RESOURCE = "zero_resource"
TASKS = (SHORT_UTTERANCE, CROSS_CHANNEL, ZERO_RESOURCE)

CHANNEL_TAPS = 101  # length of the channel's FIR low-pass
PITCH_RANGE_HZ = (90.0, 200.0)  # burst fundamental, drawn uniformly
NOISE_LEVEL = 0.002  # std of the white noise under every utterance
HARMONIC_BLOCK = 64  # samples per row of a burst's blocked harmonic sum, about sqrt(length)


@dataclass(frozen=True)
class ChannelSpec:
    """Channel simulation: optional FIR low-pass plus additive noise."""

    cutoff_hz: float | None = None
    snr_db: float | None = None


@dataclass(frozen=True)
class SyntheticLanguageSpec:
    """Recipe for one synthetic language: where its energy lives. Its id is
    a manifest and key token: no whitespace, no leading ``#``, not ``OOS``."""

    language_id: str
    band_centers_hz: tuple[float, ...]
    bandwidths_hz: tuple[float, ...]
    length_range_s: tuple[float, float] = (1.4, 2.2)

    def validate(self):
        lang = self.language_id
        if lang == submission.OUT_OF_SET or submission.bad_id(lang):
            raise InvalidSpec(f"bad language id {lang!r}")
        if len(self.band_centers_hz) != len(self.bandwidths_hz) or not self.band_centers_hz:
            raise InvalidSpec(f"{self.language_id}: band centers/widths must pair up")
        for center in self.band_centers_hz:
            if not 0.0 < center < dsp.SAMPLE_RATE / 2:
                raise InvalidSpec(f"{self.language_id}: band center {center} outside "
                                  f"(0, {dsp.SAMPLE_RATE // 2})")
        if any(bw <= 0 for bw in self.bandwidths_hz):
            raise InvalidSpec(f"{self.language_id}: bandwidths must be positive")
        lo, hi = self.length_range_s
        if not 0.0 < lo <= hi:
            raise InvalidSpec(f"{self.language_id}: bad length range {self.length_range_s}")


def default_training_specs() -> list[SyntheticLanguageSpec]:
    """Three well-separated spectral classes for closed-set experiments."""
    return [
        SyntheticLanguageSpec("alpha", (500.0, 1150.0), (160.0, 220.0)),
        SyntheticLanguageSpec("bravo", (2300.0, 3300.0), (260.0, 320.0)),
        SyntheticLanguageSpec("charlie", (4600.0, 6100.0), (380.0, 450.0)),
    ]


def default_zero_resource_specs() -> list[SyntheticLanguageSpec]:
    """Two spectral classes disjoint from the training trio."""
    return [
        SyntheticLanguageSpec("delta", (900.0, 2700.0), (200.0, 300.0)),
        SyntheticLanguageSpec("echo", (3900.0, 5200.0), (300.0, 380.0)),
    ]


# ---------------------------------------------------------------------------
# signal synthesis

def _band_profile(freqs: np.ndarray, spec: SyntheticLanguageSpec) -> np.ndarray:
    profile = np.zeros_like(freqs)
    for center, width in zip(spec.band_centers_hz, spec.bandwidths_hz):
        profile += np.exp(-(((freqs - center) / width) ** 2))
    return profile


@functools.lru_cache(maxsize=16)
def _noise_profile(spec: SyntheticLanguageSpec, fft_len: int) -> np.ndarray:
    """The band profile on the ``rfft`` bins of an ``fft_len``-point FFT."""
    profile = _band_profile(np.fft.rfftfreq(fft_len, 1.0 / dsp.SAMPLE_RATE), spec)
    profile.flags.writeable = False
    return profile


def _harmonic_sum(coefs: np.ndarray, ks: np.ndarray, f0: float, length: int) -> np.ndarray:
    """Im sum_k c_k e^{i w k n} for n < length, w = 2 pi f0 / SAMPLE_RATE.

    With n = q B + r (B = HARMONIC_BLOCK, r < B) it is the product of a
    Q x K table c_k e^{i w k q B} and a K x B table e^{i w k r}, each a
    running product of one phasor per harmonic. Its imaginary part is
    taken as two real products: a threaded BLAS can spend ten times as
    long on so small a complex product.
    """
    w = 2 * np.pi * f0 / dsp.SAMPLE_RATE
    inner = np.ones((ks.size, HARMONIC_BLOCK), dtype=np.complex128)
    inner[:, 1:] = np.exp(1j * w * ks)[:, None]
    outer = np.empty((-(-length // HARMONIC_BLOCK), ks.size), dtype=np.complex128)
    outer[0], outer[1:] = coefs, np.exp(1j * (w * HARMONIC_BLOCK) * ks)
    inner, outer = np.cumprod(inner, axis=1), np.cumprod(outer, axis=0)
    return (outer.real @ inner.imag + outer.imag @ inner.real).ravel()[:length]


def synth_utterance(
    spec: SyntheticLanguageSpec, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """One utterance: band-shaped noise under harmonic tone bursts.

    The noise is n white samples shaped by the band profile at the
    power-of-two FFT length m >= n: zero-padded to m, multiplied by the
    profile on m's bins and cut back to n. The utterance length n is
    random and often has a large prime factor, where an n-point FFT falls
    back to Bluestein's algorithm at 10-25x the cost. The padding also
    makes the filter linear rather than circular, up to the part of its
    impulse response (a few milliseconds wide) that reaches past m - n
    samples.

    A burst at pitch f0 sums the harmonics k*f0 below 7.6 kHz whose
    amplitude a_k (the band profile at k*f0 over sqrt(k)) exceeds 1e-4,
    each at a random phase phi_k. With c_k = a_k e^{i phi_k}, that sum is
    the imaginary part of sum_k c_k e^{i w k n}, w = 2 pi f0 / SAMPLE_RATE,
    which ``_harmonic_sum`` takes as one blocked matrix product: two complex
    exponentials per harmonic instead of one sine per harmonic and sample.
    The phases are drawn in one call, in harmonic order.
    """
    spec.validate()
    n = max(int(round(duration_s * dsp.SAMPLE_RATE)), dsp.SAMPLE_RATE // 10)
    freqs = np.fft.rfftfreq(n, 1.0 / dsp.SAMPLE_RATE)

    m = 1 << (n - 1).bit_length()
    spectrum = np.fft.rfft(rng.standard_normal(n), m) * _noise_profile(spec, m)
    shaped = np.fft.irfft(spectrum, m)[:n]
    rms = np.sqrt(np.mean(shaped**2))
    shaped = shaped / max(rms, 1e-12) * 0.05

    bursts = np.zeros(n)
    num_bursts = max(2, int(round(duration_s * 4)))
    for _ in range(num_bursts):
        length = int(rng.uniform(0.20, 0.32) * dsp.SAMPLE_RATE)
        length = min(length, n)
        start = int(rng.uniform(0, max(n - length, 1)))
        f0 = rng.uniform(*PITCH_RANGE_HZ)
        ks = np.arange(1, int(7600.0 / f0) + 2)
        ks = ks[ks * f0 < 7600.0]
        amps = _band_profile(freqs[np.searchsorted(freqs, ks * f0)], spec) / np.sqrt(ks)
        used = amps > 1e-4
        coefs = amps[used] * np.exp(1j * rng.uniform(0, 2 * np.pi, size=used.sum()))
        tone = _harmonic_sum(coefs, ks[used], f0, length)
        tone_rms = np.sqrt(np.mean(tone**2))
        if tone_rms > 0:
            tone = tone / tone_rms * 0.25
        bursts[start : start + length] += np.hanning(length) * tone

    signal = bursts + shaped + rng.standard_normal(n) * NOISE_LEVEL
    peak = np.max(np.abs(signal))
    return signal / peak * 0.5 if peak > 0 else signal


def apply_channel(
    samples: np.ndarray, channel: ChannelSpec, rng: np.random.Generator
) -> np.ndarray:
    """Pass a signal through the simulated channel (identity when unset)."""
    out = np.asarray(samples, dtype=np.float64)
    if channel.cutoff_hz is not None:
        m = np.arange(CHANNEL_TAPS) - (CHANNEL_TAPS - 1) / 2.0
        h = np.sinc(2.0 * channel.cutoff_hz / dsp.SAMPLE_RATE * m) * np.hamming(CHANNEL_TAPS)
        h /= h.sum()
        out = np.convolve(out, h)[(CHANNEL_TAPS - 1) // 2:][:out.size]  # "same" pads a short one
    if channel.snr_db is not None:
        power = np.mean(out**2)
        noise_power = power / (10.0 ** (channel.snr_db / 10.0))
        out = out + rng.standard_normal(out.size) * np.sqrt(noise_power)
    return out


# ---------------------------------------------------------------------------
# corpus generation

@dataclass(frozen=True)
class ManifestEntry:
    utt_id: str
    language: str
    path: str  # relative to the corpus directory
    split: str


def write_manifest(entries: list[ManifestEntry]) -> str:
    """Manifest text, refused through ``errors.read_back`` unless
    ``parse_manifest`` gives back ``entries``."""
    text = "".join(f"{e.utt_id} {e.language} {e.path} {e.split}\n" for e in entries)
    return read_back("write_manifest", text, parse_manifest, list, entries)


def parse_manifest(text: str) -> list[ManifestEntry]:
    """Manifest entries in line order; an utterance id may appear once,
    whatever its split."""
    entries = []
    seen: set[str] = set()
    for line_no, line in data_lines(text):
        tokens = line.split()
        if len(tokens) != 4:
            raise MalformedLine("expected 'utt_id language path split'", line_no)
        if tokens[0] in seen:
            raise DuplicateSegment(f"utterance {tokens[0]!r} appears twice", line_no)
        seen.add(tokens[0])
        entries.append(ManifestEntry(*tokens))
    return entries


def read_manifest(corpus_dir) -> list[ManifestEntry]:
    return parse_file(Path(corpus_dir) / "manifest.txt", parse_manifest)


def _synth_job(job) -> np.ndarray:
    spec, seed_key = job
    rng = np.random.default_rng(seed_key)
    duration = rng.uniform(*spec.length_range_s)
    return synth_utterance(spec, duration, rng)


class _Abandoned(Exception):
    """A job's wait on a turn that will not come: the pool stopped before it."""


def _pooled(job, rounds, workers: int, turns: int = 0):
    """``job`` of each item of each of ``rounds`` (lists of items), in order,
    on ``workers`` processes, the calling one among them; lidkit's one pool.

    The others are forks of this one, made here, so only results and errors
    are pickled. Each process runs the next item none has taken of the
    rounds opened so far; the caller runs one whenever the result it is to
    yield next is not in, so no more than ``workers`` processes are busy. A
    round opens when its first result is asked for, so what the caller does
    after taking the round before (an SGD step) is seen by all of its jobs.
    Processes, not threads: jobs that hold the interpreter lock for most of
    their time (synthesis and the front end: many small array operations)
    would queue on it, as would every other thread here. With one worker
    the items run one by one as asked for.

    With ``turns``, ``job`` is called as ``job(item, turn)``: in ``with
    turn(k)``, for k < ``turns``, it runs only after the job of every
    earlier item has left ``turn(k)``, so each job must enter each turn
    once. A job's error, or closing the generator, stops the taking of items
    and releases the jobs waiting on a turn that will not come; the jobs
    under way are waited for, and the error is raised at its item. A fork
    that ends, or a caller killed before it can stop the pool, stops it too,
    so that no process waits on it for ever.
    """
    rounds = [list(items) for items in rounds]
    items = [item for items_of_round in rounds for item in items_of_round]
    call = job if turns else (lambda item, turn: job(item))
    if workers == 1:
        yield from (call(item, lambda k: contextlib.nullcontext()) for item in items)
        return
    import multiprocessing.connection
    import signal

    ctx = multiprocessing.get_context("fork")
    taken, opened, limit = 0, 1, 2  # indices into ``state``; the turns' follow
    state = ctx.RawArray("q", [0, 0, len(items)] + [0] * turns)  # a turn's value: jobs past it
    changed = ctx.Condition()  # held to read or write ``state``, notified on a write
    reader, writer = ctx.Pipe(duplex=False)
    writing = ctx.Lock()
    caller = os.getpid()

    def take(wait):  # items at ``limit`` and after are never taken
        with changed:
            while wait and state[opened] <= state[taken] < state[limit]:
                wait_on_change()
            i = state[taken]
            if i >= min(state[opened], state[limit]):
                return None
            state[taken] = i + 1
            return i

    def stop(at=0):
        with changed:
            state[limit] = min(state[limit], at)
            changed.notify_all()

    def ended():
        return [p.exitcode for p in forks if p.exitcode]

    def wait_on_change():  # with ``changed`` held
        # a wait that nothing would end: the caller's on a fork that ended,
        # or a fork's on a caller killed before its ``finally``
        if ended() if os.getpid() == caller else os.getppid() != caller:
            stop()
        changed.wait(0.1)

    @contextlib.contextmanager
    def turn(i, k):
        with changed:
            while state[3 + k] < i < state[limit]:
                wait_on_change()
            if state[3 + k] < i:
                raise _Abandoned()
        yield
        with changed:
            state[3 + k] = i + 1
            changed.notify_all()

    def run(i):
        try:
            return None, call(items[i], functools.partial(turn, i))
        except Exception as exc:  # raised in the caller, at its item
            stop(i + 1)
            return exc, None

    def work():
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # the caller stops the pool
        while (i := take(wait=True)) is not None:
            outcome = run(i)
            with writing:  # an outcome that cannot be pickled ends the fork in error
                writer.send((i, *outcome))

    forks = [ctx.Process(target=work, daemon=True) for _ in range(workers - 1)]
    for process in forks:
        process.start()
    results = {}
    try:
        start = 0
        for end in itertools.accumulate(map(len, rounds)):
            with changed:  # the round opens
                state[opened] = end
                changed.notify_all()
            for i in range(start, end):
                while i not in results:
                    if reader.poll():
                        j, *outcome = reader.recv()
                        results[j] = outcome
                    elif (j := take(wait=False)) is not None:
                        results[j] = run(j)
                    elif failed := ended():
                        raise ChildProcessError(f"a pool process ended with exit code {failed[0]}")
                    else:  # until a result comes or a fork ends
                        multiprocessing.connection.wait(
                            [reader, *(p.sentinel for p in forks if p.exitcode is None)])
                error, value = results.pop(i)
                if error is not None:
                    raise error
                yield value
            start = end
    finally:
        stop()
        while running := [p.sentinel for p in forks if p.is_alive()]:
            if reader in multiprocessing.connection.wait([reader, *running]):
                reader.recv()  # a fork may be blocked writing its last result
        reader.close()
        writer.close()


def generate_corpus(
    specs: list[SyntheticLanguageSpec],
    counts: dict[str, dict[str, int]],
    seed: int,
    out_dir,
) -> list[ManifestEntry]:
    """Synthesize WAVs plus manifest and per-split trial keys.

    ``counts`` maps split name -> {language id -> utterance count}. Each
    utterance draws from its own RNG keyed by (seed, split, language,
    index), so output is deterministic for a given (specs, counts, seed)
    and independent of the number of processes: ``_pooled``'s, one per CPU
    (no more than there are utterances, whatever BLAS threads are declared).
    Each utterance's job synthesizes it and writes its WAV, so no samples
    are pickled; an error is raised at its utterance. The keys and the
    manifest come last, so a failed run may leave WAVs but never a manifest
    or a key. Every spec and count is checked before ``out_dir`` is created.
    """
    if len(specs) < 2:
        raise InvalidSpec("need at least 2 language specs")
    for i, spec in enumerate(specs):
        spec.validate()
        if any(s.language_id == spec.language_id for s in specs[:i]):
            raise InvalidSpec(f"language id {spec.language_id!r} given twice")
    if not counts or not all(counts.values()):
        raise InvalidSpec(f"counts must name a split, and each split a language: {counts}")
    entries: list[ManifestEntry] = []
    synth_jobs = []  # the (spec, seed key) of each entry
    for split_idx, split in enumerate(sorted(counts)):
        split_specs = [s for s in specs if s.language_id in counts[split]]
        for lang in counts[split]:
            if not any(s.language_id == lang for s in split_specs):
                raise InvalidSpec(f"count for {lang!r}/{split!r} names no language spec")
        for lang_idx, spec in enumerate(split_specs):
            lang, num = spec.language_id, counts[split][spec.language_id]
            if num < 1:
                raise InvalidSpec(f"count for {lang!r}/{split!r} must be >= 1")
            for i in range(num):
                utt_id = f"{lang}-{split}-{i:04d}"
                entries.append(ManifestEntry(utt_id, lang, f"wav/{utt_id}.wav", split))
                synth_jobs.append((spec, [seed, split_idx, lang_idx, i]))

    out_dir = Path(out_dir)
    (out_dir / "wav").mkdir(parents=True, exist_ok=True)
    list(_pooled(lambda i: dsp.write_wav(out_dir / entries[i].path, _synth_job(synth_jobs[i])),
                 [range(len(entries))], min(len(entries), os.cpu_count() or 1)))

    for split in sorted(counts):
        key_langs = [s.language_id for s in specs if s.language_id in counts[split]]
        key_entries = {e.utt_id: e.language for e in entries if e.split == split}
        key = submission.TrialKey(key_langs, key_entries)
        write_atomic(out_dir / f"key_{split}.txt", submission.write_key(key))
    write_atomic(out_dir / "manifest.txt", write_manifest(entries))
    return entries


# ---------------------------------------------------------------------------
# experiment plan and driver

@dataclass
class ExperimentPlan:
    task: str
    train_languages: list[str]
    zero_languages: list[str] = field(default_factory=list)
    seed: int = 0
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    crop_seconds: float = 1.0  # centre crop of short-utterance and cross-channel tests

    def validate(self) -> None:
        if self.task not in TASKS:
            raise InvalidPlan(f"unknown task {self.task!r}")
        if self.seed < 0:
            raise InvalidPlan(f"seed must be non-negative, got {self.seed!r}")
        if len(self.train_languages) < 2:
            raise InvalidPlan(f"train_languages must name at least 2, got {self.train_languages!r}")
        if self.task != CROSS_CHANNEL and self.channel != ChannelSpec():
            raise InvalidPlan(f"channel applies to {CROSS_CHANNEL!r} only, got {self.channel!r}")
        if not 0.0 < self.crop_seconds < math.inf:
            raise InvalidPlan(f"crop_seconds must be in (0, inf), got {self.crop_seconds!r}")
        cutoff, snr = self.channel.cutoff_hz, self.channel.snr_db
        if cutoff is not None and not 0.0 < cutoff <= dsp.SAMPLE_RATE / 2:
            raise InvalidPlan(f"channel.cutoff_hz must be in (0, {dsp.SAMPLE_RATE // 2}], "
                              f"got {cutoff!r}")
        if snr is not None and not math.isfinite(snr):
            raise InvalidPlan(f"channel.snr_db must be finite, got {snr!r}")
        if self.task == ZERO_RESOURCE:
            overlap = set(self.zero_languages) & set(self.train_languages)
            if overlap:
                raise InvalidPlan(
                    f"zero-resource languages overlap training set: {sorted(overlap)}"
                )
            if not self.zero_languages:
                raise InvalidPlan("zero-resource task needs zero_languages")


def _fields(prefix: str, cls) -> dict[str, object]:
    """``prefix.field`` -> default for each field of a config dataclass."""
    return {f"{prefix}.{f.name}": f.default for f in dataclasses.fields(cls)}


def _section(prefix: str, cls, config):
    """The dataclass built from the ``prefix.*`` values of an effective config."""
    return cls(**{f.name: config[f"{prefix}.{f.name}"] for f in dataclasses.fields(cls)})


# Every settable config key and its default; a value's type is its
# default's type, and CONFIG_DOMAINS declares the values each key may take
# (eval.threshold takes any value but NaN). ``config.resolve(CONFIG_DEFAULTS,
# overrides, CONFIG_DOMAINS)`` gives the effective config that the functions
# below read by key.
CONFIG_DEFAULTS: dict[str, object] = {
    **_fields("feat", dsp.FeatureConfig),
    **_fields("vad", dsp.VadConfig),
    "net.frame_dim": 16, "net.stats_dim": 24, "net.embed_dim": 16,
    "train.epochs": 8, "train.batch_size": 8, "train.learn_rate": 0.06,
    "eval.p_target": metrics.DEFAULT_P_TARGET, "eval.policy": metrics.MIN_SWEEP,
    "eval.threshold": 0.0,
    "counts.train": 100, "counts.dev": 10, "counts.test": 40, "counts.reference": 10,
    "counts.zr_test": 60,
}
_POSITIVE = ("a positive finite number", lambda v: 0 < v < math.inf)
CONFIG_DOMAINS: dict[str, tuple] = {
    **{key: _POSITIVE for key in CONFIG_DEFAULTS
       if key.startswith(("feat.", "net.", "train.", "counts."))},
    "feat.preemphasis": ("a value in [0, 1)", lambda v: 0 <= v < 1),
    "vad.offset": ("a finite number", math.isfinite),
    "vad.floor": _POSITIVE,
    "eval.p_target": ("a value in (0, 1)", lambda v: 0 < v < 1),
    "eval.policy": (f"one of {', '.join(map(repr, metrics.THRESHOLD_POLICIES))}",
                    lambda v: v in metrics.THRESHOLD_POLICIES),
}


def eval_config(cfg: dict[str, object], key, policy: str) -> metrics.EvalConfig:
    """The evaluation of ``key`` under ``policy`` that the ``eval.*`` values
    of the effective config ``cfg`` set."""
    return metrics.EvalConfig.for_key(
        key, p_target=cfg["eval.p_target"], threshold_policy=policy,
        threshold=cfg["eval.threshold"],
    )


# Errors that condemn one segment rather than the run. Anything else (an
# invalid config, a missing file) propagates.
SEGMENT_ERRORS = (AudioFormatError, TooShort, AllFramesRemoved, TooFewFrames)

BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def segment_workers(num_segments: int) -> int:
    """Processes for segment jobs, or for a batch's training examples: the CPUs
    over the BLAS threads that the first of BLAS_THREAD_VARIABLES holding a
    positive integer declares, in [1, num_segments]; 1 if none does, as BLAS
    then threads a product per CPU. ``generate_corpus`` takes one per CPU."""
    for name in BLAS_THREAD_VARIABLES:
        value = os.environ.get(name, "")
        if value.isascii() and value.isdigit() and int(value) > 0:
            return max(1, min(num_segments, (os.cpu_count() or 1) // int(value)))
    return 1


def iter_features(params: net.NetworkParams, corpus_dir, entries, config, transform=None,
                  then=None):
    """Yield ``(entry, features)``, or ``(entry, then(features))``, for every
    entry whose WAV makes features that ``params`` accepts, in entry order.

    ``transform(i, samples)``, if given, rewrites the samples of
    ``entries[i]`` before the front end. ``config`` is an effective config
    from ``config.resolve``. A segment failing with one of
    ``SEGMENT_ERRORS`` (unreadable, too short, all frames removed by VAD,
    or too few frames left for the network) is logged and skipped; callers
    that owe it a score row get one from ``submission.fill_missing``.
    Each segment's job (read, ``transform``, front end, frame check,
    ``then``) runs on ``segment_workers`` processes, this one among them
    (``_pooled``). This process takes the results in entry order, logs
    skips and raises other errors (stopping the jobs not yet started): none
    depends on the count.
    """
    fcfg = _section("feat", dsp.FeatureConfig, config)
    vcfg = _section("vad", dsp.VadConfig, config)
    fcfg.validate(vcfg)  # before any WAV is read

    def job(i):
        try:
            samples = dsp.read_wav(Path(corpus_dir) / entries[i].path)
            if transform is not None:
                samples = transform(i, samples)
            feats = dsp.features_from_waveform(samples, fcfg, vcfg)
            net.require_frames(params, feats.num_frames)
        except SEGMENT_ERRORS as exc:
            return exc
        return feats if then is None else then(feats)

    jobs = _pooled(job, [range(len(entries))], segment_workers(len(entries)))
    with contextlib.closing(jobs) as results:
        for entry, result in zip(entries, results):
            if isinstance(result, SEGMENT_ERRORS):
                log.warning("skipping %s (%s)", entry.utt_id, result)
                continue
            yield entry, result


def score_table(params: net.NetworkParams, corpus_dir, entries, config, score, width: int,
                transform=None) -> submission.ScoreTable:
    """One table of ``score(feats)``, a row of ``width`` values, for each
    ``(entry, feats)`` of ``iter_features(params, corpus_dir, entries,
    config, transform)``, with the entries' ids; ``score`` runs in its job.
    NonFiniteValue at the first row not finite (-inf marks a lost trial)."""
    ids, rows = [], []
    for entry, row in iter_features(params, corpus_dir, entries, config, transform, score):
        if not np.isfinite(row).all():  # the generator, and so the pool, stops with the frame
            raise NonFiniteValue(f"segment {entry.utt_id!r} has a non-finite value")
        ids.append(entry.utt_id)
        rows.append(row)
    return submission.ScoreTable(ids, np.reshape(rows, (len(ids), width)))


def closed_set_classes(num_classes: int, train_languages, languages) -> list[int]:
    """The class of each of ``languages`` in a model labelled ``train_languages``.
    Raises InconsistentLanguageSet unless those name the model's
    ``num_classes`` classes one each and hold all of ``languages``."""
    named = set(train_languages)
    if not len(train_languages) == len(named) == num_classes or not set(languages) <= named:
        raise InconsistentLanguageSet(f"key languages {languages} need training languages that "
                                      f"label the {num_classes}-class model, got {train_languages}")
    return [train_languages.index(lang) for lang in languages]


def closed_set_scorer(params: net.NetworkParams, train_languages, languages):
    """``score(feats)``: the log posteriors of ``languages``, in order, from a
    model labelled ``train_languages`` (see ``closed_set_classes``)."""
    subset = closed_set_classes(params.num_classes, train_languages, languages)
    return lambda feats: backend_mod.score_closed_set(params, feats)[subset]


def zero_resource_scorer(params: net.NetworkParams, models, languages):
    """``score(feats)``: the cosines of the embedding against the centroids of
    ``languages``, in order, among ``models``. Raises InconsistentLanguageSet
    for one not enrolled, DimMismatch for centroids of another dimension."""
    missing = [lang for lang in languages if lang not in models.language_ids]
    if missing:
        raise InconsistentLanguageSet(f"key language(s) {', '.join(missing)} not enrolled")
    dims = models.centroids.shape[1], params.dense_specs[0].out_dim
    if dims[0] != dims[1]:
        raise DimMismatch(f"centroid dim {dims[0]} != model embedding dim {dims[1]}")
    rows = [models.language_ids.index(lang) for lang in languages]
    subset = backend_mod.LanguageModelSet(list(languages), models.centroids[rows],
                                          [models.num_reference_utts[i] for i in rows])
    return lambda feats: backend_mod.score_zero_resource(subset, feats, params)


def enroll_entries(
    params: net.NetworkParams, corpus_dir, entries, config, languages
) -> backend_mod.LanguageModelSet:
    """Enroll each of ``languages``, in that order, from the x-vectors of its
    entries, extracted in ``iter_features``' jobs; entries of other languages
    and segments it skips are ignored, and a language left with none is an error.
    NonFiniteValue at the first x-vector not finite or whose norm overflows."""
    xvectors: dict[str, list] = {lang: [] for lang in languages}
    wanted = [e for e in entries if e.language in xvectors]
    for entry, xvec in iter_features(params, corpus_dir, wanted, config,
                                     then=lambda f: net.extract_xvector(params, f).values):
        if not backend_mod.l2_norm(xvec) < np.inf:  # also NaN; stops the pool as in score_table
            raise NonFiniteValue(f"segment {entry.utt_id!r} has an x-vector with no finite norm")
        xvectors[entry.language].append(xvec)
    return backend_mod.enroll_xvectors(xvectors)


def write_atomic(path, *chunks) -> None:
    """Write ``chunks`` (all str or all bytes) to ``path`` through a
    temporary file, so a failure never leaves a partial file behind."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    binary = isinstance(chunks[0], bytes)
    try:
        with open(tmp, "wb" if binary else "w", encoding=None if binary else "utf-8") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _shared_zeros(shape) -> np.ndarray:
    """A float64 array of zeros in anonymous shared memory, which the forks
    made after it read and write in place."""
    return np.frombuffer(mmap.mmap(-1, 8 * math.prod(shape)), np.float64).reshape(shape)


def train_network(
    corpus_dir,
    entries: list[ManifestEntry],
    languages: list[str],
    config: dict[str, object] | None = None,
    seed: int = 0,
) -> net.NetworkParams:
    """Train a classifier over ``languages`` on the given manifest entries.

    Label order follows ``languages``. Emits one 'step loss' log line per
    SGD step. Utterances ``iter_features`` skips (including those with too
    few frames for the new network) are left out with a warning each.
    ``config`` overrides ``CONFIG_DEFAULTS`` (strings or typed values).
    A language given twice (before any WAV is read) or left with no usable
    utterance is an InvalidPlan naming it.

    Each batch is a round of ``_pooled`` on ``segment_workers`` processes,
    forked once for the call: each example's forward and backward
    (``net.example_gradient``) runs on one of them and adds its gradient
    terms into gradients in shared memory, a layer's term only after the
    example before it has added its own, so every sum is formed in the
    order of ``net.compute_gradients``. This process sums the losses in
    example order and makes the SGD step on the weights, also in shared
    memory, before the next batch starts: the model's bytes do not depend
    on the number of processes.
    """
    for i, lang in enumerate(languages):
        if lang in languages[:i]:
            raise InvalidPlan(f"training language {lang!r} given twice")
    cfg = cfgmod.resolve(CONFIG_DEFAULTS, config, CONFIG_DOMAINS)
    params = net.init_network(
        num_classes=len(languages),
        seed=[seed, 1],
        feat_dim=cfg["feat.num_filters"],
        frame_dim=cfg["net.frame_dim"],
        stats_dim=cfg["net.stats_dim"],
        embed_dim=cfg["net.embed_dim"],
    )
    label_of = {lang: i for i, lang in enumerate(languages)}
    wanted = [e for e in entries if e.language in label_of]
    dataset = [(feats, label_of[entry.language])
               for entry, feats in iter_features(params, corpus_dir, wanted, cfg)]
    trained = {label for _, label in dataset}
    for lang in languages:
        if label_of[lang] not in trained:
            raise InvalidPlan(f"no usable training utterances for {lang!r}")
    batch_size = cfg["train.batch_size"]
    rng = np.random.default_rng([seed, 2])
    batches = []  # of (example, its weight in the batch's mean loss)
    for _ in range(cfg["train.epochs"]):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(order), batch_size):
            batch = order[lo : lo + batch_size]
            batches.append([(i, 1.0 / len(batch)) for i in batch])
    layer = {name: k for k, name in enumerate(params.weights)}
    for name in layer:  # a layer at a time, so that no more than one is held twice
        for held in (params.weights, params.biases):
            shared = _shared_zeros(held[name].shape)
            shared[...] = held[name]
            held[name] = shared
    grads = {name: (_shared_zeros(w.shape), _shared_zeros(params.biases[name].shape))
             for name, w in params.weights.items()}
    add = net.adder(grads)
    scratch = net.gradient_scratch(params)  # each fork writes its own copy

    def job(example, turn):
        i, scale = example

        def add_in_turn(name, *terms):
            with turn(layer[name]):
                add(name, *terms)

        features, label = dataset[i]
        return net.example_gradient(params, features, label, scale, add_in_turn, scratch)

    workers = segment_workers(min(batch_size, len(dataset)))
    with contextlib.closing(_pooled(job, batches, workers, len(layer))) as losses:
        for step, batch in enumerate(batches, 1):
            loss = net.mean_loss(list(itertools.islice(losses, len(batch))))
            net.sgd_update(params, grads, cfg["train.learn_rate"])
            for gradient in grads.values():
                for g in gradient:
                    g.fill(0.0)
            log.info("step %d loss %.6f", step, loss)
    return params


def _crop_center(samples: np.ndarray, seconds: float) -> np.ndarray:
    want = int(round(seconds * dsp.SAMPLE_RATE))
    if samples.size <= want:
        return samples
    start = (samples.size - want) // 2
    return samples[start : start + want]


@dataclass
class TaskResult:
    report: metrics.EvalReport
    score_path: Path
    report_path: Path
    det_path: Path
    params: net.NetworkParams


def run_task(
    plan: ExperimentPlan,
    corpus_dir,
    out_dir,
    config: dict[str, object] | None = None,
    params: net.NetworkParams | None = None,
) -> TaskResult:
    """Run one task end to end: train (unless given a model), score, evaluate.

    Segments ``iter_features`` skips are filled as lost trials (all -inf
    rows after the scored ones); the run itself never aborts on a bad
    segment. Short-utterance and cross-channel test segments are cropped
    to their central ``plan.crop_seconds``. Outputs land in ``out_dir`` as
    scores_<task>.txt, report_<task>.txt, and det_<task>.txt. ``config``
    overrides ``CONFIG_DEFAULTS`` (strings or typed values). Its ``eval.*``
    values and the plan are checked against the key before any training.
    """
    cfg = cfgmod.resolve(CONFIG_DEFAULTS, config, CONFIG_DOMAINS)
    corpus_dir = Path(corpus_dir)
    out_dir = Path(out_dir)
    entries = read_manifest(corpus_dir)
    plan.validate()
    closed_set = plan.task in (SHORT_UTTERANCE, CROSS_CHANNEL)
    test_split = "test" if closed_set else "zr_test"
    key = parse_file(corpus_dir / f"key_{test_split}.txt", submission.parse_key)
    evaluation = eval_config(cfg, key, cfg["eval.policy"])
    languages = key.language_list
    if not closed_set and set(languages) != set(plan.zero_languages):
        raise InvalidPlan(f"zero-resource key languages {languages} != plan {plan.zero_languages}")
    test_entries = [e for e in entries if e.split == test_split]
    if params is None:
        if closed_set:  # the model trained here has one class per training language
            closed_set_classes(len(plan.train_languages), plan.train_languages, languages)
        train_entries = [e for e in entries if e.split == "train"]
        params = train_network(
            corpus_dir, train_entries, plan.train_languages, cfg, plan.seed
        )

    transform = None
    if closed_set:
        score = closed_set_scorer(params, plan.train_languages, languages)

        def transform(i, samples):
            rng = np.random.default_rng([plan.seed, 3, i])
            if plan.task == CROSS_CHANNEL:
                samples = apply_channel(samples, plan.channel, rng)
            return _crop_center(samples, plan.crop_seconds)
    else:
        references = [e for e in entries if e.split == "reference"]
        models = enroll_entries(params, corpus_dir, references, cfg, languages)
        score = zero_resource_scorer(params, models, languages)
    table = score_table(params, corpus_dir, test_entries, cfg, score, len(languages), transform)

    fill = submission.fill_missing(table, key)
    if fill.num_filled:
        log.warning("%d lost trial(s) filled with -inf", fill.num_filled)
    report = metrics.compute_cavg(fill.table, key, evaluation)

    score_path = out_dir / f"scores_{plan.task}.txt"
    report_path = out_dir / f"report_{plan.task}.txt"
    det_path = out_dir / f"det_{plan.task}.txt"
    write_atomic(score_path, submission.write_scores(fill.table))
    write_atomic(report_path, metrics.report_text(report))
    write_atomic(det_path, *metrics.det_text(report.det_points))
    return TaskResult(report, score_path, report_path, det_path, params)


def desk_counts(config) -> dict[str, dict[str, int]]:
    """Split sizes for the desk-scale corpus (3 training + 2 unseen): each
    language of a split gets that split's ``counts.<split>`` value of the
    effective config ``config``."""
    train_langs = [s.language_id for s in default_training_specs()]
    zero_langs = [s.language_id for s in default_zero_resource_specs()]
    split_langs = {"train": train_langs, "dev": train_langs, "test": train_langs,
                   "reference": zero_langs, "zr_test": zero_langs}
    return {split: dict.fromkeys(langs, config[f"counts.{split}"])
            for split, langs in split_langs.items()}
