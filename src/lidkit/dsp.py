"""Audio front end: framing, log-mel filterbanks, and energy-based VAD.

The feature pipeline is deliberately plain: 25 ms frames every 10 ms,
per-frame pre-emphasis, a Hamming window, a 512-point magnitude spectrum,
40 triangular mel filters between 20 Hz and 7.6 kHz, and a natural log
with floor ``1e-10``. Voice activity detection thresholds per-frame log
energy against the utterance mean; frames sitting exactly at the energy
floor are always dropped.

``features_from_waveform`` frames each utterance once, as a read-only
strided view of its samples; the VAD keeps frames by their log energy,
and log-mel is computed for the VAD-kept frames only. The mel filterbank
is built once per ``FeatureConfig`` and the Hamming window once per
length; both are cached read-only arrays. All transforms are
deterministic and per-utterance.
"""

from __future__ import annotations

import contextlib
import functools
import wave as wavefile
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AllFramesRemoved, AudioFormatError, InvalidConfig, TooShort, about

PCM_SCALE = 32768.0
SAMPLE_RATE = 16000  # Hz: the rate every WAV is written, read and synthesised at


@dataclass
class FeatureMatrix:
    """T x D per-frame values of one utterance: log-mel, or raw frames before VAD."""

    frames: np.ndarray

    def __post_init__(self):
        self.frames = np.asarray(self.frames, dtype=np.float64)

    @property
    def num_frames(self) -> int:
        return self.frames.shape[0]


@dataclass(frozen=True)
class VadConfig:
    offset: float = -1.0  # nats relative to the mean log energy
    floor: float = 1e-10  # frames at the energy floor are always dropped


@dataclass(frozen=True)
class FeatureConfig:
    frame_len: float = 0.025
    frame_shift: float = 0.010
    fft_size: int = 512
    num_filters: int = 40
    low_freq: float = 20.0
    high_freq: float = 7600.0
    preemphasis: float = 0.97
    floor: float = 1e-10

    def validate(self, vad: VadConfig | None = None):
        """Refuse field combinations, and a ``vad`` floor below ``floor``; a
        field's own range is checked where a config is resolved (``harness.CONFIG_DOMAINS``)."""
        for name, samples in (("frame_len", self.frame_len_samples),
                              ("frame_shift", self.frame_shift_samples)):
            if samples < 1:
                raise InvalidConfig(f"feat.{name}: {samples} samples at {SAMPLE_RATE} Hz, "
                                    "expected at least 1")
        if self.frame_len_samples > self.fft_size:
            raise InvalidConfig(f"feat.frame_len: a frame of {self.frame_len_samples} samples "
                                f"exceeds feat.fft_size {self.fft_size}")
        if not self.low_freq < self.high_freq <= SAMPLE_RATE / 2:
            raise InvalidConfig(
                f"feat.low_freq {self.low_freq:g}, feat.high_freq {self.high_freq:g}: expected "
                f"low < high <= {SAMPLE_RATE / 2:g}, half the sample rate")
        if vad is not None and vad.floor < self.floor:
            raise InvalidConfig(f"vad.floor {vad.floor:g} is below feat.floor {self.floor:g}: "
                                "frames at the energy floor would pass the VAD")

    @property
    def frame_len_samples(self) -> int:
        return int(round(self.frame_len * SAMPLE_RATE))

    @property
    def frame_shift_samples(self) -> int:
        return int(round(self.frame_shift * SAMPLE_RATE))


# ---------------------------------------------------------------------------
# WAV I/O (16-bit mono PCM only)

def read_wav(path) -> np.ndarray:
    """The samples of a RIFF WAV file, in [-1, 1]; anything but 16-bit mono
    PCM at SAMPLE_RATE is an AudioFormatError that names ``path``."""
    with about(path):
        try:
            handle = wavefile.open(str(path), "rb")
        except EOFError:  # raised without a message
            raise AudioFormatError("not a readable WAV file "
                                   "(file ends inside the WAV header)") from None
        except wavefile.Error as exc:
            raise AudioFormatError(f"not a readable WAV file ({exc})") from None
        with contextlib.closing(handle) as fh:
            if fh.getcomptype() != "NONE":
                raise AudioFormatError("compressed WAV not supported")
            if fh.getnchannels() != 1:
                raise AudioFormatError(f"expected mono, got {fh.getnchannels()} channels")
            if fh.getsampwidth() != 2:
                raise AudioFormatError(f"expected 16-bit samples, got {8 * fh.getsampwidth()}-bit")
            rate = fh.getframerate()
            if rate != SAMPLE_RATE:
                raise AudioFormatError(f"expected {SAMPLE_RATE} Hz, got {rate} Hz")
            raw = fh.readframes(fh.getnframes())
        if len(raw) % 2:
            raise AudioFormatError("sample data ends mid-sample")
    return np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE


def write_wav(path, samples) -> None:
    """Write 16-bit mono PCM at SAMPLE_RATE; 1.0 is written as 32767, the
    largest sample. A sample outside [-1, 1], which the cast would clip, or
    a non-finite one, which it would turn into silence or full scale, is
    refused naming ``path`` before the file is opened."""
    samples = np.asarray(samples, dtype=np.float64)
    with about(path):
        bad = np.flatnonzero(~(np.abs(samples) <= 1.0))  # NaN fails the test too
        if bad.size:
            value = samples[bad[0]]
            fault = "not finite" if not np.isfinite(value) else "outside [-1, 1]"
            raise AudioFormatError(f"sample {bad[0]} is {value}, {fault}")
    ints = np.clip(np.rint(samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with contextlib.closing(wavefile.open(str(path), "wb")) as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(SAMPLE_RATE)
        fh.writeframes(ints.tobytes())


# ---------------------------------------------------------------------------
# framing and mel filterbank

def frame_signal(samples: np.ndarray, frame_len: int, frame_shift: int) -> np.ndarray:
    """Overlapping frames (T x frame_len) as a read-only view of the signal,
    T = 1 + floor((num_samples - frame_len) / frame_shift)."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < frame_len:
        raise TooShort(
            f"signal of {samples.size} samples is shorter than one {frame_len}-sample frame"
        )
    return sliding_window_view(samples, frame_len)[::frame_shift]


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=16)
def _hamming(length: int) -> np.ndarray:
    return _read_only(np.hamming(length))


def mel_edge_frequencies(config: FeatureConfig) -> np.ndarray:
    """num_filters + 2 hertz points from low_freq to high_freq, evenly
    spaced on the mel scale m = 2595 log10(1 + f / 700)."""
    low, high = (2595.0 * np.log10(1.0 + np.float64(f) / 700.0)
                 for f in (config.low_freq, config.high_freq))
    edges_mel = np.linspace(low, high, config.num_filters + 2)
    return 700.0 * (10.0 ** (edges_mel / 2595.0) - 1.0)


@functools.lru_cache(maxsize=16)
def mel_filterbank(config: FeatureConfig) -> np.ndarray:
    """Triangular filters as a read-only (num_filters x num_bins) weight
    matrix, built once per config.

    Filters are built on a shared mel grid, so their responses form a
    partition of unity between the first and last center frequency.
    """
    edges = mel_edge_frequencies(config)
    bin_freqs = np.arange(config.fft_size // 2 + 1) * SAMPLE_RATE / config.fft_size
    weights = np.zeros((config.num_filters, bin_freqs.size))
    for j in range(config.num_filters):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return _read_only(weights)


def _checked(config: FeatureConfig | None, vad: VadConfig | None = None) -> FeatureConfig:
    """``config`` (the defaults for None), validated with ``vad``: every
    front-end entry point checks its config here before it frames a signal."""
    config = FeatureConfig() if config is None else config
    config.validate(vad)
    return config


def _frames(samples: np.ndarray, config: FeatureConfig) -> np.ndarray:
    return frame_signal(samples, config.frame_len_samples, config.frame_shift_samples)


def _log_mel(frames: np.ndarray, config: FeatureConfig) -> FeatureMatrix:
    emphasized = np.empty(frames.shape)
    emphasized[:, 1:] = frames[:, 1:] - config.preemphasis * frames[:, :-1]
    emphasized[:, 0] = frames[:, 0] - config.preemphasis * frames[:, 0]
    emphasized *= _hamming(frames.shape[1])
    spectrum = np.abs(np.fft.rfft(emphasized, n=config.fft_size, axis=1))
    energies = spectrum @ mel_filterbank(config).T
    return FeatureMatrix(np.log(np.maximum(energies, config.floor)))


def _log_energy(frames: np.ndarray, config: FeatureConfig) -> np.ndarray:
    return np.log(np.maximum(np.mean(frames**2, axis=1), config.floor))


def extract_filterbanks(samples, config: FeatureConfig | None = None) -> FeatureMatrix:
    """Log-mel features of a signal at SAMPLE_RATE, one row per frame.

    T = 1 + floor((num_samples - frame_len) / frame_shift); each frame is
    pre-emphasized, windowed, and projected through the mel filterbank,
    then floored and logged.
    """
    config = _checked(config)
    return _log_mel(_frames(samples, config), config)


# ---------------------------------------------------------------------------
# energy VAD

def frame_log_energy(samples, config: FeatureConfig | None = None) -> np.ndarray:
    """Per-frame log of mean squared amplitude, floored, aligned with features."""
    config = _checked(config)
    return _log_energy(_frames(samples, config), config)


def energy_vad(log_energy: np.ndarray, config: VadConfig | None = None) -> np.ndarray:
    """Boolean keep-mask: above the mean-relative threshold and off the floor."""
    if config is None:
        config = VadConfig()
    log_energy = np.asarray(log_energy, dtype=np.float64)
    relative = log_energy > log_energy.mean() + config.offset
    off_floor = log_energy > np.log(config.floor)
    return relative & off_floor


def apply_vad(features: FeatureMatrix, mask: np.ndarray) -> FeatureMatrix:
    """Drop masked-out rows, preserving order."""
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (features.num_frames,):
        raise InvalidConfig(
            f"mask length {mask.size} does not match {features.num_frames} frames"
        )
    if not mask.any():
        raise AllFramesRemoved("energy VAD removed every frame")
    return FeatureMatrix(features.frames[mask])


def features_from_waveform(
    samples,
    feat_config: FeatureConfig | None = None,
    vad_config: VadConfig | None = None,
) -> FeatureMatrix:
    """Full front end from one framing of the signal: energy VAD on the
    frames, then log-mel of the kept frames only."""
    vad_config = VadConfig() if vad_config is None else vad_config
    config = _checked(feat_config, vad_config)
    frames = _frames(samples, config)
    mask = energy_vad(_log_energy(frames, config), vad_config)
    return _log_mel(apply_vad(FeatureMatrix(frames), mask).frames, config)


def features_from_wav(
    path,
    feat_config: FeatureConfig | None = None,
    vad_config: VadConfig | None = None,
) -> FeatureMatrix:
    return features_from_waveform(read_wav(path), feat_config, vad_config)
