import contextlib
import wave as wavefile

import numpy as np
import pytest

import oracles
from lidkit import dsp, harness
from lidkit.errors import AllFramesRemoved, AudioFormatError, InvalidConfig, TooShort

CFG = dsp.FeatureConfig()


def tone(freq, seconds=1.0, amplitude=0.5):
    t = np.arange(int(seconds * dsp.SAMPLE_RATE)) / dsp.SAMPLE_RATE
    return amplitude * np.sin(2 * np.pi * freq * t)


class TestFilterbanks:
    def test_one_second_gives_98_frames_of_40(self):
        samples = np.random.default_rng(0).uniform(-0.1, 0.1, 16000)
        feats = dsp.extract_filterbanks(samples, CFG)
        assert feats.frames.shape == (98, 40)
        # frame-count arithmetic oracle
        assert feats.frames.shape[0] == 1 + (16000 - 400) // 160

    def test_sine_argmax_is_nearest_mel_center(self):
        feats = dsp.extract_filterbanks(tone(1000.0), CFG)
        argmax = np.argmax(feats.frames, axis=1)
        assert (argmax == argmax[0]).all()
        centers = dsp.mel_edge_frequencies(CFG)[1:-1]
        assert argmax[0] == int(np.argmin(np.abs(centers - 1000.0)))

    def test_all_zero_signal_hits_log_floor(self):
        feats = dsp.extract_filterbanks(np.zeros(8000), CFG)
        assert np.all(feats.frames == np.log(CFG.floor))

    def test_determinism_is_bit_exact(self):
        samples = tone(440.0)
        a = dsp.extract_filterbanks(samples, CFG)
        b = dsp.extract_filterbanks(samples, CFG)
        assert np.array_equal(a.frames, b.frames)

    def test_shift_equivariance(self):
        rng = np.random.default_rng(2)
        samples = rng.uniform(-0.5, 0.5, 8000)
        base = dsp.extract_filterbanks(samples, CFG).frames
        for k in (1, 3):
            delayed = np.concatenate([np.zeros(k * CFG.frame_shift_samples), samples])
            shifted = dsp.extract_filterbanks(delayed, CFG).frames
            np.testing.assert_allclose(shifted[k : k + base.shape[0]], base, rtol=1e-6)

    def test_too_short(self):
        with pytest.raises(TooShort):
            dsp.extract_filterbanks(np.zeros(399), CFG)

    def test_invalid_config(self):
        with pytest.raises(InvalidConfig):
            dsp.extract_filterbanks(tone(440.0), dsp.FeatureConfig(frame_len=0.05))
        with pytest.raises(InvalidConfig):
            dsp.FeatureConfig(low_freq=9000.0).validate()

    # unchecked, a zero-sample frame shift reaches numpy as "slice step cannot be zero"
    @pytest.mark.parametrize("front_end", [
        dsp.extract_filterbanks, dsp.frame_log_energy, dsp.features_from_waveform,
    ])
    @pytest.mark.parametrize("config, field", [
        (dsp.FeatureConfig(frame_shift=1e-5), "feat.frame_shift"),
        (dsp.FeatureConfig(frame_len=0.05), "feat.frame_len"),
        (dsp.FeatureConfig(high_freq=9000.0), "feat.low_freq"),
    ])
    def test_every_entry_point_refuses_a_bad_config(self, front_end, config, field):
        with pytest.raises(InvalidConfig, match=field):
            front_end(tone(440.0), config)

    def test_mel_partition_of_unity(self):
        weights = dsp.mel_filterbank(CFG)
        bins = np.arange(CFG.fft_size // 2 + 1) * dsp.SAMPLE_RATE / CFG.fft_size
        inside = (bins > CFG.low_freq) & (bins < CFG.high_freq)
        sums = weights.sum(axis=0)[inside]
        assert np.all(sums > 0.0)
        assert np.all(sums <= 1.0001)


class TestEnergyVad:
    def test_constant_tone_keeps_all_frames(self):
        mask = dsp.energy_vad(dsp.frame_log_energy(tone(440.0), CFG))
        assert mask.all()

    def test_all_zero_signal_removes_all_frames(self):
        mask = dsp.energy_vad(dsp.frame_log_energy(np.zeros(8000), CFG))
        assert not mask.any()

    def test_loud_half_silent_half(self):
        loud = 0.5 * np.sin(2 * np.pi * 300 * np.arange(8000) / 16000)
        samples = np.concatenate([loud, np.zeros(8000)])
        log_e = dsp.frame_log_energy(samples, CFG)
        mask = dsp.energy_vad(log_e)
        # direct per-frame recomputation as the oracle
        frames = dsp.frame_signal(samples, CFG.frame_len_samples, CFG.frame_shift_samples)
        direct = np.log(np.maximum((frames**2).mean(axis=1), CFG.floor))
        expected = (direct > direct.mean() - 1.0) & (direct > np.log(1e-10))
        assert np.array_equal(mask, expected)
        # frames fully inside the loud half are kept, fully-silent ones dropped;
        # the straddling boundary frames may go either way
        shift, length = CFG.frame_shift_samples, CFG.frame_len_samples
        last_fully_loud = (8000 - length) // shift
        first_fully_silent = -(-8000 // shift)  # ceil
        assert mask[: last_fully_loud + 1].all()
        assert not mask[first_fully_silent:].any()

    def test_scaling_shifts_log_energy_by_2_log_c(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-0.2, 0.2, 6000)
        base = dsp.frame_log_energy(samples, CFG)
        for c in (2.0, 3.5):
            scaled = dsp.frame_log_energy(c * samples, CFG)
            np.testing.assert_allclose(scaled - base, 2.0 * np.log(c), atol=1e-12)
            assert np.array_equal(
                dsp.energy_vad(base), dsp.energy_vad(scaled)
            )  # no frame at the floor here


class TestApplyVad:
    def _feats(self, t=4):
        return dsp.FeatureMatrix(np.arange(t * 3, dtype=float).reshape(t, 3))

    def test_all_true_is_identity(self):
        feats = self._feats()
        out = dsp.apply_vad(feats, np.ones(4, dtype=bool))
        assert np.array_equal(out.frames, feats.frames)

    def test_all_false_raises(self):
        with pytest.raises(AllFramesRemoved):
            dsp.apply_vad(self._feats(), np.zeros(4, dtype=bool))

    def test_alternating_mask_keeps_rows_0_and_2(self):
        out = dsp.apply_vad(self._feats(), np.array([True, False, True, False]))
        assert np.array_equal(out.frames, self._feats().frames[[0, 2]])

    def test_length_mismatch(self):
        with pytest.raises(InvalidConfig):
            dsp.apply_vad(self._feats(), np.ones(5, dtype=bool))


class TestWavIo:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "t.wav"
        rng = np.random.default_rng(3)
        samples = rng.uniform(-0.9, 0.9, 5000)
        dsp.write_wav(path, samples)
        with contextlib.closing(wavefile.open(str(path), "rb")) as fh:
            assert fh.getframerate() == dsp.SAMPLE_RATE
        back = dsp.read_wav(path)
        assert back.dtype == np.float64
        np.testing.assert_allclose(back, samples, atol=1.0 / 32768)

    def test_quantization_is_exactly_invertible(self, tmp_path):
        path = tmp_path / "q.wav"
        ints = np.array([-32768, -1, 0, 1, 32767], dtype=np.int16)
        samples = ints.astype(np.float64) / 32768.0
        dsp.write_wav(path, samples)
        assert np.array_equal(dsp.read_wav(path), samples)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_sample_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "bad.wav"
        with pytest.raises(AudioFormatError) as err:
            dsp.write_wav(path, [0.1, bad, 0.2])
        assert str(err.value) == f"{path}: sample 1 is {bad}, not finite"
        assert not path.exists()

    @pytest.mark.parametrize("bad", [1.5, -2.0])
    def test_refuses_a_sample_outside_full_scale_and_writes_nothing(self, tmp_path, bad):
        path = tmp_path / "loud.wav"
        with pytest.raises(AudioFormatError) as err:
            dsp.write_wav(path, [0.1, bad, 0.2])
        assert str(err.value) == f"{path}: sample 1 is {bad}, outside [-1, 1]"
        assert not path.exists()

    def test_full_scale_is_written_as_the_extreme_samples(self, tmp_path):
        path = tmp_path / "full.wav"
        dsp.write_wav(path, [1.0, -1.0, 0.0])
        assert dsp.read_wav(path).tolist() == [32767 / 32768, -1.0, 0.0]

    # each refusal renders as "<path>: <reason>", as the CLI's skipping warnings show it
    @pytest.mark.parametrize("channels,width,rate,reason", [
        pytest.param(2, 2, 16000, "expected mono, got 2 channels", id="2-2-16000"),
        pytest.param(1, 1, 16000, "expected 16-bit samples, got 8-bit", id="1-1-16000"),
        pytest.param(1, 2, 8000, "expected 16000 Hz, got 8000 Hz", id="1-2-8000"),
    ])
    def test_rejects_other_encodings(self, tmp_path, channels, width, rate, reason):
        path = tmp_path / "bad.wav"
        with contextlib.closing(wavefile.open(str(path), "wb")) as fh:
            fh.setnchannels(channels)
            fh.setsampwidth(width)
            fh.setframerate(rate)
            fh.writeframes(b"\x00" * 64)
        with pytest.raises(AudioFormatError) as err:
            dsp.read_wav(path)
        assert str(err.value) == f"{path}: {reason}"

    def test_rejects_data_cut_mid_sample(self, tmp_path):
        path = tmp_path / "cut.wav"
        dsp.write_wav(path, np.zeros(100))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(AudioFormatError) as err:
            dsp.read_wav(path)
        assert str(err.value) == f"{path}: sample data ends mid-sample"

    def test_header_only_file_gives_a_reason(self, tmp_path):
        path = tmp_path / "header.wav"
        dsp.write_wav(path, np.zeros(100))
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(AudioFormatError) as err:
            dsp.read_wav(path)
        assert str(err.value) == (
            f"{path}: not a readable WAV file (file ends inside the WAV header)")

    def test_rejects_non_wav(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"plainly not RIFF data")
        with pytest.raises(AudioFormatError) as err:
            dsp.read_wav(path)
        assert str(err.value) == (
            f"{path}: not a readable WAV file (file does not start with RIFF id)")


class TestPipeline:
    def test_features_from_waveform_applies_vad(self):
        loud = 0.5 * np.sin(2 * np.pi * 500 * np.arange(8000) / 16000)
        samples = np.concatenate([loud, np.zeros(8000)])
        feats = dsp.features_from_waveform(samples, CFG)
        full = dsp.extract_filterbanks(samples, CFG)
        assert 0 < feats.num_frames < full.num_frames

    # digital silence sits at log(feat.floor), where a lower vad.floor would keep it
    @pytest.mark.parametrize("feat, vad, message", [
        (CFG, dsp.VadConfig(offset=-30, floor=1e-12), "vad.floor 1e-12 is below feat.floor 1e-10"),
        (dsp.FeatureConfig(floor=1e-8), None, "vad.floor 1e-10 is below feat.floor 1e-08"),
    ])
    def test_vad_floor_below_feat_floor_is_refused(self, feat, vad, message):
        noise = 0.1 * np.random.default_rng(3).standard_normal(16000)
        samples = np.concatenate([np.zeros(8000), noise, np.zeros(8000)])
        with pytest.raises(InvalidConfig, match=f"^{message}: frames at the energy floor"):
            dsp.features_from_waveform(samples, feat, vad)
        kept = dsp.features_from_waveform(samples, CFG, dsp.VadConfig(offset=-30, floor=1e-10))
        assert 0 < kept.num_frames and not (kept.frames == np.log(CFG.floor)).all(axis=1).any()


class TestFramedOnce:
    """The one-framing front end, which takes log-mel of the VAD-kept frames
    only, against the index-matrix front end that framed each signal twice
    and took log-mel of every frame: identical bytes, not just close values."""

    @pytest.mark.parametrize("config", [
        CFG, dsp.FeatureConfig(preemphasis=0.9), dsp.FeatureConfig(frame_shift=0.0125),
    ], ids=["default", "preemphasis", "frame_shift"])
    def test_features_match_the_twice_framed_oracle_bytes(self, config):
        specs = harness.default_training_specs() + harness.default_zero_resource_specs()
        for i, spec in enumerate(specs):
            rng = np.random.default_rng([17, i])
            samples = oracles.pcm16(harness.synth_utterance(spec, 1.7, rng)) / 32768.0
            feats = dsp.features_from_waveform(samples, config)
            expected = oracles.features_framed_twice(samples, config)
            assert feats.frames.shape == expected.shape
            assert feats.frames.tobytes() == expected.tobytes()

    def test_frames_are_a_read_only_view_of_the_index_matrix_frames(self):
        samples = np.random.default_rng(4).uniform(-1, 1, 5000)
        frames = dsp.frame_signal(samples, 400, 160)
        assert np.array_equal(frames, oracles.frame_by_index_matrix(samples, 400, 160))
        assert np.shares_memory(frames, samples)
        with pytest.raises(ValueError):
            frames[0, 0] = 1.0

    def test_cached_filterbank_is_shared_and_refuses_writes(self):
        weights = dsp.mel_filterbank(CFG)
        assert dsp.mel_filterbank(dsp.FeatureConfig()) is weights
        assert np.array_equal(weights, oracles.uncached_mel_filterbank(CFG))
        with pytest.raises(ValueError):
            weights[0, 0] = 1.0
