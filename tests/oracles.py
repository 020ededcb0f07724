"""Independent brute-force oracles.

Everything here recomputes results the dumb way: explicit trial counting,
exhaustive threshold enumeration, one search per pool and threshold, a
loop over score records, line-by-line text parsing, one f-string per
score, straight-line network evaluation, two-pass statistics, one sine
per harmonic, index-matrix framing. None of it shares code with the implementation under test
beyond the data types and error classes.
"""

from __future__ import annotations

import math
import re

import numpy as np

from lidkit.dsp import SAMPLE_RATE
from lidkit.errors import (
    ArityMismatch,
    DuplicateSegment,
    InconsistentLanguageSet,
    MalformedLine,
    MissingSegment,
    NaNScore,
    UnknownLanguage,
)
from lidkit.submission import OUT_OF_SET, ScoreRecord, TrialKey


# ---------------------------------------------------------------------------
# metric oracles

def _aligned(records, key):
    """Matrix and true-language labels in key order ('OOS' stays a string)."""
    by_id = {r.segment_id: r.scores for r in records}
    ids = list(key.entries)
    matrix = np.array([by_id[s] for s in ids], dtype=np.float64)
    truths = [key.entries[s] for s in ids]
    return matrix, truths


def pairwise_by_counting(records, key, target, nontarget, theta, p_target=0.5):
    """Count miss/false-alarm trials one segment at a time."""
    col = key.language_list.index(target)
    n_target = n_miss = n_non = n_fa = 0
    matrix, truths = _aligned(records, key)
    for scores, true in zip(matrix, truths):
        if true == target:
            n_target += 1
            if scores[col] < theta:
                n_miss += 1
        elif true == nontarget:
            n_non += 1
            if scores[col] >= theta:
                n_fa += 1
    p_miss = n_miss / n_target
    p_fa = n_fa / n_non
    return p_miss, p_fa, p_target * p_miss + (1.0 - p_target) * p_fa


def cavg_by_counting(records, key, theta, p_target=0.5):
    """Fixed-threshold average cost via per-pair counting."""
    langs = key.language_list
    n = len(langs)
    p_nt = (1.0 - p_target) / (n - 1)
    groups = list(langs)
    if any(v == OUT_OF_SET for v in key.entries.values()):
        groups.append(OUT_OF_SET)
    total = 0.0
    for target in langs:
        p_miss = pairwise_by_counting(
            records, key, target, [g for g in groups if g != target][0], theta, p_target
        )[0]
        term = p_target * p_miss
        for nontarget in groups:
            if nontarget == target:
                continue
            _, p_fa, _ = pairwise_by_counting(records, key, target, nontarget, theta, p_target)
            term += p_nt * p_fa
        total += term
    return total / n


def cavg_sweep_oracle(records, key, p_target=0.5):
    """Evaluate the fixed-threshold formula at every candidate threshold
    (each distinct score plus +/-inf) and take the minimum.

    Counting is done by direct elementwise comparison, not sorting.
    Returns (min_cavg, minimizing_threshold).
    """
    matrix, truths = _aligned(records, key)
    truths = np.array(truths, dtype=object)
    langs = key.language_list
    n = len(langs)
    p_nt = (1.0 - p_target) / (n - 1)
    thetas = np.unique(np.concatenate([matrix.ravel(), [-np.inf, np.inf]]))
    groups = list(langs)
    if (truths == OUT_OF_SET).any():
        groups.append(OUT_OF_SET)
    total = np.zeros(thetas.size)
    for t, target in enumerate(langs):
        tgt = matrix[truths == target, t]
        miss = (tgt[:, None] < thetas[None, :]).sum(axis=0) / tgt.size
        term = p_target * miss
        for nontarget in groups:
            if nontarget == target:
                continue
            pool = matrix[truths == nontarget, t]
            fa = (pool[:, None] >= thetas[None, :]).sum(axis=0) / pool.size
            term = term + p_nt * fa
        total += term
    curve = total / n
    best = int(np.argmin(curve))
    return float(curve[best]), float(thetas[best])


def pooled_scores(records, key):
    """All (segment, hypothesis) trial scores split into target/nontarget."""
    matrix, truths = _aligned(records, key)
    targets, nontargets = [], []
    for scores, true in zip(matrix, truths):
        for i, lang in enumerate(key.language_list):
            (targets if true == lang else nontargets).append(scores[i])
    return np.array(targets), np.array(nontargets)


def det_by_enumeration(records, key):
    """DET points by per-threshold counting, endpoints included."""
    targets, nontargets = pooled_scores(records, key)
    points = [(0.0, 1.0)]
    for theta in np.unique(np.concatenate([targets, nontargets])):
        miss = float((targets < theta).sum() / targets.size)
        fa = float((nontargets >= theta).sum() / nontargets.size)
        points.append((miss, fa))
    points.append((1.0, 0.0))
    return points


def eer_by_enumeration(records, key):
    """EER from the enumerated DET points with linear interpolation at the
    miss/false-alarm crossing."""
    points = det_by_enumeration(records, key)
    prev_m, prev_f = points[0]
    for m, f in points:
        d = m - f
        if d >= 0.0:
            if d == 0.0:
                return m
            d_prev = prev_m - prev_f
            w = d_prev / (d_prev - d)
            return prev_m + w * (m - prev_m)
        prev_m, prev_f = m, f
    raise AssertionError("no crossing found")


def score_matrix_by_record(records, key, num_languages):
    """The record loop that ``metrics._score_matrix`` replaced: every
    record's arity checked, the records stacked, then gathered into key
    order (of two records of one segment the last counts)."""
    if num_languages != key.num_languages:
        raise InconsistentLanguageSet(
            f"config declares {num_languages} languages, key has {key.num_languages}"
        )
    for rec in records:
        if rec.scores.shape != (num_languages,):
            raise InconsistentLanguageSet(
                f"segment {rec.segment_id!r} has {rec.scores.shape[0]} scores, "
                f"expected {num_languages}"
            )
    position = {rec.segment_id: i for i, rec in enumerate(records)}
    missing = [seg for seg in key.entries if seg not in position]
    if missing:
        raise MissingSegment(
            f"{len(missing)} key segment(s) absent from scores, first {missing[0]!r}; "
            "run fill_missing first"
        )
    order = np.fromiter(map(position.__getitem__, key.entries), np.intp, len(key.entries))
    scores = np.array([rec.scores for rec in records], dtype=np.float64)
    matrix = scores.reshape(len(records), num_languages)[order]
    nan_rows = np.isnan(matrix).any(axis=1)
    if nan_rows.any():
        raise NaNScore(f"segment {list(key.entries)[int(np.argmax(nan_rows))]!r} has a NaN score")
    index = {lang: i for i, lang in enumerate(key.language_list)}
    true_idx = np.fromiter(
        (index.get(lang, -1) for lang in key.entries.values()), np.int64, len(key.entries)
    )
    return matrix, true_idx


def cavg_curve_at_steps(table, config, thetas):
    """The sweep that the one-count-per-pool ``metrics._cavg_curve``
    replaced: every pool searched at each of its column's steps, and the
    steps searched at every threshold."""
    total = np.zeros(thetas.shape, dtype=np.float64)
    for _, own, others in table.columns:
        steps = np.union1d(np.concatenate([own, *(pool for _, pool in others)]),
                           (-np.inf, np.inf))
        term = config.p_target * (np.searchsorted(own, steps, side="left") / own.size)
        for _, pool in others:
            fa = (pool.size - np.searchsorted(pool, steps, side="left")) / pool.size
            term = term + config.p_nontarget * fa
        total += term[np.searchsorted(steps, thetas, side="left")]
    return total / config.num_languages


def cavg_curve_per_threshold(table, config, thetas):
    """The sweep that ``metrics._cavg_curve`` replaced: every pool of the
    trial table searched at every threshold."""
    total = np.zeros(thetas.shape, dtype=np.float64)
    for _, own, others in table.columns:
        term = config.p_target * (np.searchsorted(own, thetas, side="left") / own.size)
        for _, pool in others:
            fa = (pool.size - np.searchsorted(pool, thetas, side="left")) / pool.size
            term = term + config.p_nontarget * fa
        total += term
    return total / config.num_languages


# ---------------------------------------------------------------------------
# text oracles: the line-by-line readers and per-value writers that the
# block readers and writers replaced

def _data_lines(text):
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        yield line_no, line


# a decimal in ASCII digits, the two infinities as written, or a NaN
# spelling (which the caller refuses as NaN)
_SCORE_TOKEN = re.compile(
    r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?|-?inf|(?i:[+-]?nan)"
)


def _score_value(token):
    if _SCORE_TOKEN.fullmatch(token):
        value = float(token)
        if not math.isinf(value) or token in ("inf", "-inf"):
            return value
    raise ValueError(f"could not convert string to float: {token!r}")


def parse_scores_by_line(text, expected_languages):
    n = len(expected_languages)
    records = []
    seen = set()
    for line_no, line in _data_lines(text):
        tokens = line.split()
        segment_id, raw_scores = tokens[0], tokens[1:]
        if len(raw_scores) != n:
            raise ArityMismatch(
                f"segment {segment_id!r}: expected {n} scores, got {len(raw_scores)}",
                line_no,
            )
        try:
            values = [_score_value(tok) for tok in raw_scores]
        except ValueError as exc:
            raise MalformedLine(f"bad score token: {exc}", line_no) from None
        if any(math.isnan(v) for v in values):
            raise NaNScore(f"segment {segment_id!r} has a NaN score", line_no)
        if segment_id in seen:
            raise DuplicateSegment(f"segment {segment_id!r} appears twice", line_no)
        seen.add(segment_id)
        records.append(ScoreRecord(segment_id, np.array(values)))
    return records


def parse_key_by_line(text):
    lines = list(_data_lines(text))
    if not lines:
        raise MalformedLine("missing language header line", 1)
    header_no, header = lines[0]
    languages = header.split()
    if len(set(languages)) != len(languages):
        raise MalformedLine("duplicate language in header", header_no)
    if OUT_OF_SET in languages:
        raise MalformedLine(f"{OUT_OF_SET!r} is reserved and cannot name a language", header_no)
    for language in languages:
        if language.startswith("#"):
            raise MalformedLine(f"header language {language!r} starts with '#'", header_no)
    known = set(languages)
    entries = {}
    for line_no, line in lines[1:]:
        tokens = line.split()
        if len(tokens) != 2:
            raise MalformedLine("expected 'segment_id language'", line_no)
        segment_id, language = tokens
        if language != OUT_OF_SET and language not in known:
            raise UnknownLanguage(f"language {language!r} not in header", line_no)
        if segment_id in entries:
            raise DuplicateSegment(f"segment {segment_id!r} appears twice", line_no)
        entries[segment_id] = language
    return TrialKey(languages, entries)


def write_scores_by_record(records):
    lines = []
    for rec in records:
        cols = " ".join(f"{v:.9g}" for v in rec.scores)
        if "nan" in cols:
            raise NaNScore(f"segment {rec.segment_id!r} has a NaN score")
        lines.append(f"{rec.segment_id} {cols}")
    return "\n".join(lines) + ("\n" if lines else "")


def det_text_by_row(points):
    miss, fa = np.asarray(points, dtype=np.float64).T.tolist()
    return "\n".join(f"{m:.9g} {f:.9g}" for m, f in zip(miss, fa)) + "\n"


# ---------------------------------------------------------------------------
# network oracles

def naive_forward(params, frames):
    """Straight-line re-implementation of the forward pass: per-time-step
    loops, no caching, no vectorized splicing."""
    x = np.asarray(frames, dtype=np.float64)
    for spec in params.frame_specs:
        lo, hi = min(spec.offsets), max(spec.offsets)
        t_out = x.shape[0] - (hi - lo)
        rows = []
        for t in range(t_out):
            spliced = np.concatenate([x[t - lo + off] for off in spec.offsets])
            rows.append(params.weights[spec.name] @ spliced + params.biases[spec.name])
        x = np.array(rows)
        if spec.has_nonlinearity:
            x = np.maximum(x, 0.0)
    mean, std = two_pass_pool(x)
    vec = np.concatenate([mean, std])
    for spec in params.dense_specs:
        pre = params.weights[spec.name] @ vec + params.biases[spec.name]
        vec = np.maximum(pre, 0.0) if spec.has_nonlinearity else pre
    shifted = np.exp(vec - vec.max())
    return shifted / shifted.sum()


def two_pass_pool(activations):
    """Mean and population std computed dimension by dimension, two passes."""
    h = np.asarray(activations, dtype=np.float64)
    t_len, dim = h.shape
    means = np.empty(dim)
    stds = np.empty(dim)
    for d in range(dim):
        mean = sum(h[:, d]) / t_len
        var = sum((value - mean) ** 2 for value in h[:, d]) / t_len
        means[d] = mean
        stds[d] = math.sqrt(var)
    return means, stds


def batch_loss(params, batch):
    """Mean cross-entropy via the forward pass only (for finite differences)."""
    from lidkit import net

    total = 0.0
    for features, label in batch:
        total -= net.forward(params, features).log_posteriors[int(label)]
    return total / len(batch)


def fd_weight_gradient(params, batch, layer_name, i, j, h=1e-4):
    """Central finite difference on one weight entry."""
    w = params.weights[layer_name]
    original = w[i, j]
    w[i, j] = original + h
    plus = batch_loss(params, batch)
    w[i, j] = original - h
    minus = batch_loss(params, batch)
    w[i, j] = original
    return (plus - minus) / (2.0 * h)


def fd_bias_gradient(params, batch, layer_name, j, h=1e-4):
    b = params.biases[layer_name]
    original = b[j]
    b[j] = original + h
    plus = batch_loss(params, batch)
    b[j] = original - h
    minus = batch_loss(params, batch)
    b[j] = original
    return (plus - minus) / (2.0 * h)


def relative_error(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a) + abs(b), 1e-8)


def min_kink_distance(params, batch) -> float:
    """Smallest |pre-activation| across the batch.

    Central differences are only a valid oracle when no rectifier input
    sits within the step size of its kink; callers redraw instances whose
    distance is too small.
    """
    from lidkit import net

    closest = np.inf
    for features, _ in batch:
        cache = net.forward(params, features, net.ForwardCache())
        for pre in cache.frame_preacts + cache.dense_preacts[:-1]:
            closest = min(closest, float(np.min(np.abs(pre))))
    return closest


# ---------------------------------------------------------------------------
# synthesis oracle: one np.sin per harmonic, one phase draw per harmonic

SAMPLE_RATE = 16000


def _band_profile(freqs, spec):
    profile = np.zeros_like(freqs)
    for center, width in zip(spec.band_centers_hz, spec.bandwidths_hz):
        profile += np.exp(-(((freqs - center) / width) ** 2))
    return profile


def synth_utterance_per_harmonic(spec, duration_s, rng):
    """``harness.synth_utterance`` written plainly: one ``np.sin`` per
    harmonic where it takes one blocked matrix product per burst, and the
    noise shaped by an explicitly zero-padded power-of-two FFT."""
    from lidkit import harness

    spec.validate()
    n = max(int(round(duration_s * SAMPLE_RATE)), SAMPLE_RATE // 10)
    freqs = np.fft.rfftfreq(n, 1.0 / SAMPLE_RATE)
    profile = _band_profile(freqs, spec)

    # noise shaped at the next power of two, zero-padded, cut back to n
    m = 2 ** int(np.ceil(np.log2(n)))
    noise = np.concatenate([rng.standard_normal(n), np.zeros(m - n)])
    noise_profile = _band_profile(np.fft.rfftfreq(m, 1.0 / SAMPLE_RATE), spec)
    shaped = np.fft.irfft(np.fft.rfft(noise) * noise_profile)[:n]
    rms = np.sqrt(np.mean(shaped**2))
    shaped = shaped / max(rms, 1e-12) * 0.05

    bursts = np.zeros(n)
    num_bursts = max(2, int(round(duration_s * 4)))
    for _ in range(num_bursts):
        length = int(rng.uniform(0.20, 0.32) * SAMPLE_RATE)
        length = min(length, n)
        start = int(rng.uniform(0, max(n - length, 1)))
        f0 = rng.uniform(*harness.PITCH_RANGE_HZ)
        t = np.arange(length) / SAMPLE_RATE
        tone = np.zeros(length)
        k = 1
        while k * f0 < 7600.0:
            amp = profile[np.searchsorted(freqs, k * f0)] / np.sqrt(k)
            if amp > 1e-4:
                tone += amp * np.sin(2 * np.pi * k * f0 * t + rng.uniform(0, 2 * np.pi))
            k += 1
        tone_rms = np.sqrt(np.mean(tone**2))
        if tone_rms > 0:
            tone = tone / tone_rms * 0.25
        bursts[start : start + length] += np.hanning(length) * tone

    signal = bursts + shaped + rng.standard_normal(n) * harness.NOISE_LEVEL
    peak = np.max(np.abs(signal))
    return signal / peak * 0.5 if peak > 0 else signal


def pcm16(samples):
    """The int16 samples a WAV writer stores for float samples in [-1, 1]."""
    return np.clip(np.rint(np.asarray(samples) * 32768.0), -32768, 32767).astype(np.int16)


# ---------------------------------------------------------------------------
# front-end oracle: an index matrix per framing, a filterbank per call

def frame_by_index_matrix(samples, frame_len, frame_shift):
    samples = np.asarray(samples, dtype=np.float64)
    num_frames = 1 + (samples.size - frame_len) // frame_shift
    idx = np.arange(frame_len)[None, :] + frame_shift * np.arange(num_frames)[:, None]
    return samples[idx]


def _hz_to_mel(freq):
    return 2595.0 * np.log10(1.0 + np.asarray(freq, dtype=np.float64) / 700.0)


def _mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


def uncached_mel_filterbank(config):
    edges_mel = np.linspace(
        _hz_to_mel(config.low_freq), _hz_to_mel(config.high_freq), config.num_filters + 2
    )
    edges = _mel_to_hz(edges_mel)
    bin_freqs = np.arange(config.fft_size // 2 + 1) * SAMPLE_RATE / config.fft_size
    weights = np.zeros((config.num_filters, bin_freqs.size))
    for j in range(config.num_filters):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return weights


def features_framed_twice(samples, config, vad_offset=-1.0, vad_floor=1e-10):
    """The front end that ``dsp.features_from_waveform`` replaced: log-mel
    frames and VAD log energy each from their own index-matrix framing,
    kept rows only."""
    frames = frame_by_index_matrix(
        samples, config.frame_len_samples, config.frame_shift_samples
    )
    emphasized = frames.copy()
    emphasized[:, 1:] -= config.preemphasis * frames[:, :-1]
    emphasized[:, 0] -= config.preemphasis * frames[:, 0]
    window = np.hamming(config.frame_len_samples)
    spectrum = np.abs(np.fft.rfft(emphasized * window, n=config.fft_size, axis=1))
    energies = spectrum @ uncached_mel_filterbank(config).T
    feats = np.log(np.maximum(energies, config.floor))

    frames = frame_by_index_matrix(
        samples, config.frame_len_samples, config.frame_shift_samples
    )
    log_energy = np.log(np.maximum(np.mean(frames**2, axis=1), config.floor))
    keep = (log_energy > log_energy.mean() + vad_offset) & (log_energy > np.log(vad_floor))
    return feats[keep]
