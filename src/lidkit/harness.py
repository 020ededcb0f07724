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
import logging
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
    InvalidPlan, InvalidSpec, MalformedLine, TooFewFrames, TooShort, data_lines, parse_file,
    read_back,
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
    return read_back(text, parse_manifest, list, entries)


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


def _synthesised(jobs):
    """``_synth_job`` of each of ``jobs`` in order, on one thread per CPU (no
    more than there are jobs); closing the generator cancels the syntheses
    not yet started."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=min(len(jobs), os.cpu_count() or 1)) as pool:
        yield from pool.map(_synth_job, jobs)


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
    and independent of the number of synthesis threads, one per CPU (no
    more than there are utterances). Each WAV is written as soon as it is
    synthesised, so about one utterance per thread is in memory; the
    keys and the manifest come last, so a failed run may leave WAVs but
    never a manifest or a key. Every spec is checked, and the language ids
    must differ, before ``out_dir`` is created.
    """
    if len(specs) < 2:
        raise InvalidSpec("need at least 2 language specs")
    for i, spec in enumerate(specs):
        spec.validate()
        if any(s.language_id == spec.language_id for s in specs[:i]):
            raise InvalidSpec(f"language id {spec.language_id!r} given twice")
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
    with contextlib.closing(_synthesised(synth_jobs)) as rendered:
        for entry, samples in zip(entries, rendered):
            dsp.write_wav(out_dir / entry.path, samples)

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


def iter_features(params: net.NetworkParams, corpus_dir, entries, config, transform=None):
    """Yield ``(entry, features)`` for every entry whose WAV makes features
    that ``params`` accepts.

    ``transform(i, samples)``, if given, rewrites the samples of
    ``entries[i]`` before the front end. ``config`` is an effective config
    from ``config.resolve``. A segment failing with one of
    ``SEGMENT_ERRORS`` (unreadable, too short, all frames removed by VAD,
    or too few frames left for the network) is logged and skipped; callers
    that owe it a score row get one from ``submission.fill_missing``.
    """
    fcfg = _section("feat", dsp.FeatureConfig, config)
    vcfg = _section("vad", dsp.VadConfig, config)
    fcfg.validate(vcfg)  # before any WAV is read
    for i, entry in enumerate(entries):
        try:
            samples = dsp.read_wav(Path(corpus_dir) / entry.path)
            if transform is not None:
                samples = transform(i, samples)
            feats = dsp.features_from_waveform(samples, fcfg, vcfg)
            net.require_frames(params, feats.num_frames)
        except SEGMENT_ERRORS as exc:
            log.warning("skipping %s (%s)", entry.utt_id, exc)
            continue
        yield entry, feats


def score_table(params: net.NetworkParams, corpus_dir, entries, config, score, width: int,
                transform=None) -> submission.ScoreTable:
    """One table of ``score(feats)``, a row of ``width`` values, for each
    ``(entry, feats)`` of ``iter_features(params, corpus_dir, entries,
    config, transform)``, with the entries' ids."""
    ids, rows = [], []
    for entry, feats in iter_features(params, corpus_dir, entries, config, transform):
        ids.append(entry.utt_id)
        rows.append(score(feats))
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
    """Enroll each of ``languages``, in that order, from its entries;
    entries of other languages and segments ``iter_features`` skips are
    ignored, and a language left with no reference is an error."""
    references: dict[str, list] = {lang: [] for lang in languages}
    wanted = [e for e in entries if e.language in references]
    for entry, feats in iter_features(params, corpus_dir, wanted, config):
        references[entry.language].append(feats)
    return backend_mod.enroll_languages(params, references)


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
    grads = net.zero_gradients(params)  # reused by every step
    step = 0
    for _ in range(cfg["train.epochs"]):
        order = rng.permutation(len(dataset))
        for lo in range(0, len(order), batch_size):
            batch = [dataset[i] for i in order[lo : lo + batch_size]]
            params, loss = net.train_step(params, batch, cfg["train.learn_rate"], grads)
            step += 1
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
