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


@dataclass
class Waveform:
    """Mono audio samples in [-1, 1] at a known sample rate."""

    samples: np.ndarray
    sample_rate: int = 16000

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise InvalidConfig(f"sample rate must be positive, got {self.sample_rate}")


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
class FeatureConfig:
    sample_rate: int = 16000
    frame_len: float = 0.025
    frame_shift: float = 0.010
    fft_size: int = 512
    num_filters: int = 40
    low_freq: float = 20.0
    high_freq: float = 7600.0
    preemphasis: float = 0.97
    floor: float = 1e-10

    def validate(self):
        """Refuse field combinations; a field's own range is checked where
        a config is resolved (``harness.CONFIG_DOMAINS``)."""
        for name, samples in (("frame_len", self.frame_len_samples),
                              ("frame_shift", self.frame_shift_samples)):
            if samples < 1:
                raise InvalidConfig(f"feat.{name}: {samples} samples at feat.sample_rate "
                                    f"{self.sample_rate}, expected at least 1")
        if self.frame_len_samples > self.fft_size:
            raise InvalidConfig(f"feat.frame_len: a frame of {self.frame_len_samples} samples "
                                f"exceeds feat.fft_size {self.fft_size}")
        if not self.low_freq < self.high_freq <= self.sample_rate / 2:
            raise InvalidConfig(
                f"feat.low_freq {self.low_freq:g}, feat.high_freq {self.high_freq:g}: expected "
                f"low < high <= feat.sample_rate / 2 = {self.sample_rate / 2:g}")

    @property
    def frame_len_samples(self) -> int:
        return int(round(self.frame_len * self.sample_rate))

    @property
    def frame_shift_samples(self) -> int:
        return int(round(self.frame_shift * self.sample_rate))


@dataclass(frozen=True)
class VadConfig:
    offset: float = -1.0  # nats relative to the mean log energy
    floor: float = 1e-10  # frames at the energy floor are always dropped


# ---------------------------------------------------------------------------
# WAV I/O (16 kHz, 16-bit, mono PCM only)

def read_wav(path, expected_rate: int = 16000) -> Waveform:
    """Load a RIFF WAV file, rejecting anything but 16-bit mono PCM at
    ``expected_rate`` with an AudioFormatError that names ``path``."""
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
            if rate != expected_rate:
                raise AudioFormatError(f"expected {expected_rate} Hz, got {rate} Hz")
            raw = fh.readframes(fh.getnframes())
        if len(raw) % 2:
            raise AudioFormatError("sample data ends mid-sample")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float64) / PCM_SCALE
    return Waveform(samples, rate)


def write_wav(path, wave: Waveform) -> None:
    ints = np.clip(np.rint(wave.samples * PCM_SCALE), -32768, 32767).astype("<i2")
    with contextlib.closing(wavefile.open(str(path), "wb")) as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(wave.sample_rate)
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
    bin_freqs = np.arange(config.fft_size // 2 + 1) * config.sample_rate / config.fft_size
    weights = np.zeros((config.num_filters, bin_freqs.size))
    for j in range(config.num_filters):
        lo, center, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_freqs - lo) / (center - lo)
        falling = (hi - bin_freqs) / (hi - center)
        weights[j] = np.clip(np.minimum(rising, falling), 0.0, None)
    return _read_only(weights)


def _checked(wave: Waveform, config: FeatureConfig | None) -> FeatureConfig:
    if config is None:
        config = FeatureConfig()
    config.validate()
    if wave.sample_rate != config.sample_rate:
        raise InvalidConfig(
            f"waveform at {wave.sample_rate} Hz, config expects {config.sample_rate} Hz"
        )
    return config


def _frames(wave: Waveform, config: FeatureConfig) -> np.ndarray:
    return frame_signal(wave.samples, config.frame_len_samples, config.frame_shift_samples)


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


def extract_filterbanks(wave: Waveform, config: FeatureConfig | None = None) -> FeatureMatrix:
    """Log-mel features, one row per frame.

    T = 1 + floor((num_samples - frame_len) / frame_shift); each frame is
    pre-emphasized, windowed, and projected through the mel filterbank,
    then floored and logged.
    """
    config = _checked(wave, config)
    return _log_mel(_frames(wave, config), config)


# ---------------------------------------------------------------------------
# energy VAD

def frame_log_energy(wave: Waveform, config: FeatureConfig | None = None) -> np.ndarray:
    """Per-frame log of mean squared amplitude, floored, aligned with features."""
    if config is None:
        config = FeatureConfig()
    return _log_energy(_frames(wave, config), config)


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
    wave: Waveform,
    feat_config: FeatureConfig | None = None,
    vad_config: VadConfig | None = None,
) -> FeatureMatrix:
    """Full front end from one framing of the signal: energy VAD on the
    frames, then log-mel of the kept frames only."""
    config = _checked(wave, feat_config)
    frames = _frames(wave, config)
    mask = energy_vad(_log_energy(frames, config), vad_config)
    return _log_mel(apply_vad(FeatureMatrix(frames), mask).frames, config)


def features_from_wav(
    path,
    feat_config: FeatureConfig | None = None,
    vad_config: VadConfig | None = None,
) -> FeatureMatrix:
    expected = feat_config.sample_rate if feat_config else 16000
    return features_from_waveform(read_wav(path, expected), feat_config, vad_config)
