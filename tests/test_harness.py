import concurrent.futures
import contextlib
import dataclasses
import hashlib
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import SHORT, TOTALITY, TRUNCATED, junk_chunk, token_texts
from lidkit import dsp, harness, net, submission as sub
from lidkit.errors import (
    DuplicateSegment, InconsistentLanguageSet, InvalidPlan, InvalidSpec, LineError, MalformedLine,
    NonFiniteLoss, NoUsableReferences, parse_file,
)

TRAIN_LANGS = ["alpha", "bravo", "charlie"]
# manifest fields the reader takes (all but the id may start with "#"), then
# ones it splits or, leading a line, skips
FIELDS = st.sampled_from(["u1", "u2", "alpha", "wav/u1.wav", "#x", "é"])
DIRTY_FIELDS = FIELDS | st.sampled_from(["", "#", "a b", "x\x85"]) | st.text(max_size=3)


@st.composite
def manifests(draw):
    """Entries the reader gives back or, drawn dirty, entries of any field
    text, an id repeated or starting with "#" included."""
    dirty = draw(st.booleans())
    ids = draw(st.lists(DIRTY_FIELDS if dirty else FIELDS.filter(lambda f: f[0] != "#"),
                        max_size=4, unique=not dirty))
    fields = DIRTY_FIELDS if dirty else FIELDS
    return [harness.ManifestEntry(utt, *draw(st.tuples(fields, fields, fields))) for utt in ids]


def tiny_counts():
    return {
        "train": {lang: 8 for lang in TRAIN_LANGS},
        "test": {lang: 4 for lang in TRAIN_LANGS},
        "reference": {"delta": 3, "echo": 3},
        "zr_test": {"delta": 4, "echo": 4},
    }


def all_specs():
    return harness.default_training_specs() + harness.default_zero_resource_specs()


def serial_pool(monkeypatch) -> list:
    """Replace the synthesis thread pool with one that maps lazily on the
    calling thread; returns the list of the pool sizes asked for."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
    return started


def corpus_digest(corpus_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(corpus_dir.rglob("*")):
        if path.is_file():
            h.update(path.name.encode())
            h.update(path.read_bytes())
    return h.hexdigest()


FAST_CONFIG = {"train.epochs": "3", "train.batch_size": "8", "train.learn_rate": "0.06"}


class TestSynthesis:
    def test_one_second_request_gives_16k_samples(self):
        spec = harness.default_training_specs()[0]
        samples = harness.synth_utterance(spec, 1.0, np.random.default_rng(0))
        assert abs(samples.size - 16000) <= 160
        assert np.max(np.abs(samples)) <= 1.0

    def test_disjoint_bands_separate_in_filterbank_space(self):
        specs = harness.default_training_specs()
        means = []
        for i, spec in enumerate(specs):
            rows = []
            for k in range(3):
                rng = np.random.default_rng([i, k])
                samples = harness.synth_utterance(spec, 1.5, rng)
                rows.append(dsp.extract_filterbanks(samples).frames.mean(axis=0))
            means.append(np.mean(rows, axis=0))
        argmaxes = [int(np.argmax(m)) for m in means]
        assert len(set(argmaxes)) == len(specs)

    @pytest.mark.parametrize("seed", [5, 101, 3001])
    def test_phasor_sum_gives_the_per_harmonic_oracle_samples(self, seed):
        # the last spec has no harmonic above the amplitude floor: silent bursts
        specs = all_specs() + [harness.SyntheticLanguageSpec("hiss", (7950.0,), (10.0,))]
        for lang_idx, spec in enumerate(specs):
            for i in range(3):
                rng = np.random.default_rng([seed, lang_idx, i])
                oracle_rng = np.random.default_rng([seed, lang_idx, i])
                duration = rng.uniform(*spec.length_range_s)
                assert oracle_rng.uniform(*spec.length_range_s) == duration
                samples = harness.synth_utterance(spec, duration, rng)
                expected = oracles.synth_utterance_per_harmonic(spec, duration, oracle_rng)
                assert np.array_equal(oracles.pcm16(samples), oracles.pcm16(expected))
                # float64 rounding over two running products of at most ~80 unit
                # phasors each, with two orders of magnitude of headroom
                np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-11)
                assert rng.random() == oracle_rng.random()  # the same draws were taken

    @pytest.mark.parametrize("length", [1, 63, 64, 65, 3200, 5120])
    def test_harmonic_sum_gives_the_per_harmonic_sine_sum(self, length):
        # f0 is 12451 / 2**20 cycles per sample, so the oracle reduces each
        # sine's phase exactly in integers; harmonic 40 sits at 7599.49 Hz
        f0 = 12451 * dsp.SAMPLE_RATE / 2**20
        rng = np.random.default_rng(length)
        n = np.arange(length)
        # one harmonic, unused harmonics between used ones, every harmonic up to the top
        for ks in ([1], [40], [1, 2, 5, 9, 17, 40], np.arange(1, 41)):
            ks = np.asarray(ks)
            amps, phases = rng.uniform(1e-4, 1.0, ks.size), rng.uniform(0, 2 * np.pi, ks.size)
            expected = np.zeros(length)
            for k, amp, phase in zip(ks, amps, phases):
                expected += amp * np.sin(2 * np.pi * ((k * 12451 * n) % 2**20 / 2**20) + phase)
            tone = harness._harmonic_sum(amps * np.exp(1j * phases), ks, f0, length)
            assert tone.shape == (length,)
            np.testing.assert_allclose(tone, expected, rtol=0, atol=1e-11)

    def test_band_profile_at_the_harmonic_bins_equals_the_full_profile_there(self):
        # the 1e-4 amplitude floor decides how many phases are drawn, so the
        # profile read at the harmonic bins must equal the full one bit for bit
        rng = np.random.default_rng(11)
        for spec in all_specs():
            for n in (1600, 30011, 35200):
                freqs = np.fft.rfftfreq(n, 1.0 / dsp.SAMPLE_RATE)
                full = harness._band_profile(freqs, spec)
                for f0 in rng.uniform(*harness.PITCH_RANGE_HZ, size=200):
                    ks = np.arange(1, int(7600.0 / f0) + 2)
                    idx = np.searchsorted(freqs, ks[ks * f0 < 7600.0] * f0)
                    assert np.array_equal(harness._band_profile(freqs[idx], spec), full[idx])

    @pytest.mark.parametrize("size", [1600, 30011, 32767, 32768, 32769])
    def test_noise_is_shaped_at_a_power_of_two_length(self, monkeypatch, size):
        lengths = []
        rfft, irfft = np.fft.rfft, np.fft.irfft

        def spy_rfft(a, n=None, *args, **kwargs):
            lengths.append(np.shape(a)[-1] if n is None else n)
            return rfft(a, n, *args, **kwargs)

        def spy_irfft(a, n=None, *args, **kwargs):
            lengths.append(2 * (np.shape(a)[-1] - 1) if n is None else n)
            return irfft(a, n, *args, **kwargs)

        monkeypatch.setattr(np.fft, "rfft", spy_rfft)
        monkeypatch.setattr(np.fft, "irfft", spy_irfft)
        # the 1,600-sample minimum, a prime length, and lengths around 2**15
        duration = 0.05 if size == 1600 else size / dsp.SAMPLE_RATE
        spec = harness.default_training_specs()[1]
        samples = harness.synth_utterance(spec, duration, np.random.default_rng(size))
        assert samples.size == size
        assert len(lengths) == 2
        assert all(m >= size and m & (m - 1) == 0 for m in lengths), lengths

    def test_invalid_spec_rejected(self):
        bad = harness.SyntheticLanguageSpec("x", (9000.0,), (100.0,))
        with pytest.raises(InvalidSpec):
            bad.validate()
        with pytest.raises(InvalidSpec):
            harness.SyntheticLanguageSpec("", (500.0,), (100.0,)).validate()

    def test_identity_channel_is_identity(self):
        rng = np.random.default_rng(1)
        samples = rng.standard_normal(4000)
        out = harness.apply_channel(samples, harness.ChannelSpec(), rng)
        assert np.array_equal(out, samples)

    @pytest.mark.parametrize("size", [1, 50, harness.CHANNEL_TAPS - 1, harness.CHANNEL_TAPS,
                                      harness.CHANNEL_TAPS + 1, 4000])
    def test_lowpass_keeps_the_signal_length(self, size):
        # a signal shorter than the filter must not come back longer
        rng = np.random.default_rng(3)
        channel = harness.ChannelSpec(cutoff_hz=2000.0, snr_db=5.0)
        assert harness.apply_channel(rng.standard_normal(size), channel, rng).size == size

    def test_lowpass_removes_high_band_energy(self):
        t = np.arange(16000) / 16000.0
        high = np.sin(2 * np.pi * 6000 * t)
        low = np.sin(2 * np.pi * 500 * t)
        channel = harness.ChannelSpec(cutoff_hz=2000.0)
        rng = np.random.default_rng(2)
        hp = harness.apply_channel(high, channel, rng)
        lp = harness.apply_channel(low, channel, rng)
        assert np.mean(hp**2) < 0.01 * np.mean(high**2)
        assert np.mean(lp**2) > 0.5 * np.mean(low**2)


class TestCorpus:
    def test_same_seed_byte_identical(self, tmp_path):
        counts = tiny_counts()
        harness.generate_corpus(all_specs(), counts, seed=5, out_dir=tmp_path / "a")
        harness.generate_corpus(all_specs(), counts, seed=5, out_dir=tmp_path / "b")
        assert corpus_digest(tmp_path / "a") == corpus_digest(tmp_path / "b")

    def test_parallel_generation_matches_serial(self, tmp_path, monkeypatch):
        counts = {"train": {lang: 3 for lang in TRAIN_LANGS}}
        for cpus in (1, 4):
            monkeypatch.setattr(os, "cpu_count", lambda: cpus)
            harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path / str(cpus))
        assert corpus_digest(tmp_path / "1") == corpus_digest(tmp_path / "4")

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_corpus_bytes_are_pinned(self, tmp_path, monkeypatch, cpus):
        # every WAV, key and manifest byte of a small corpus, so that a change
        # to synthesis that moves any sample fails here, not only on a rerun
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        counts = {"test": {lang: 2 for lang in TRAIN_LANGS}, "zr_test": {"delta": 2, "echo": 2}}
        harness.generate_corpus(all_specs(), counts, seed=3001, out_dir=tmp_path)
        assert corpus_digest(tmp_path) == (
            "3656a85bb5bd9062f87a2f2bfa5ed6d267ea698f644576a9b606fc1f431a6eb0")

    @pytest.mark.parametrize("cpus, workers", [(3, 3), (16, 6), (1, 1), (None, 1)])
    def test_threads_bounded_by_utterances_and_cpus(self, tmp_path, monkeypatch, cpus,
                                                    workers):
        started = serial_pool(monkeypatch)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        counts = {"train": {lang: 2 for lang in TRAIN_LANGS}}  # 6 utterances
        harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path)
        assert started == [workers]
        assert len(harness.read_manifest(tmp_path)) == 6

    def test_each_utterance_is_written_before_the_next_is_synthesised(self, tmp_path,
                                                                       monkeypatch):
        # on one thread, so that the write loop must pull each result as it comes
        serial_pool(monkeypatch)
        unwritten, most = [0], [0]
        synth_job, write_wav = harness._synth_job, dsp.write_wav

        def counted_synth(*args):
            samples = synth_job(*args)
            unwritten[0] += 1
            most[0] = max(most[0], unwritten[0])
            return samples

        def counted_write(*args):
            write_wav(*args)
            unwritten[0] -= 1

        monkeypatch.setattr(harness, "_synth_job", counted_synth)
        monkeypatch.setattr(dsp, "write_wav", counted_write)
        counts = {"train": {lang: 2 for lang in TRAIN_LANGS}}
        harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path)
        assert (most[0], unwritten[0]) == (1, 0)

    @pytest.mark.parametrize("k", [1, 4])
    def test_failed_wav_write_stops_synthesis_and_writes_no_text(self, tmp_path, monkeypatch,
                                                                 k):
        serial_pool(monkeypatch)  # on one thread, so no synthesis runs ahead
        synthesised, writes = [], []
        synth_job, write_wav = harness._synth_job, dsp.write_wav

        def counted_synth(*args):
            synthesised.append(args)
            return synth_job(*args)

        def failing_write(*args):
            writes.append(args)
            if len(writes) == k:
                raise OSError("disk full")
            write_wav(*args)

        monkeypatch.setattr(harness, "_synth_job", counted_synth)
        monkeypatch.setattr(dsp, "write_wav", failing_write)
        counts = {"train": {lang: 2 for lang in TRAIN_LANGS}}  # 6 utterances
        with pytest.raises(OSError, match="disk full"):
            harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path)
        assert len(synthesised) == k
        assert [path.name for path in tmp_path.iterdir()] == ["wav"]  # no manifest, no key
        assert len(list((tmp_path / "wav").iterdir())) == k - 1

    def test_failed_wav_write_cancels_threaded_syntheses_not_started(self, tmp_path,
                                                                     monkeypatch):
        failed = threading.Event()
        started = []
        synth_job = harness._synth_job

        def held_synth(job):  # all but the first wait for the failure
            started.append(job)
            if job[1][1:] != [0, 0, 0]:
                failed.wait(timeout=2)
            return synth_job(job)

        def failing_write(*args):
            failed.set()
            raise OSError("disk full")

        monkeypatch.setattr(harness, "_synth_job", held_synth)
        monkeypatch.setattr(dsp, "write_wav", failing_write)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        counts = {"train": {lang: 4 for lang in TRAIN_LANGS}}  # 12 utterances
        threads = threading.active_count()
        # ``failure`` holds the traceback and so generate_corpus's frame: the
        # pool must be shut down by the call itself, not by garbage collection
        with pytest.raises(OSError, match="disk full") as failure:
            harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path)
        assert threading.active_count() == threads, failure.traceback
        assert len(started) <= 3  # the first, plus one held on each of the 2 threads
        assert not (tmp_path / "manifest.txt").exists()

    def test_different_seed_differs(self, tmp_path):
        counts = {"train": {lang: 2 for lang in TRAIN_LANGS}}
        harness.generate_corpus(all_specs()[:3], counts, seed=5, out_dir=tmp_path / "a")
        harness.generate_corpus(all_specs()[:3], counts, seed=6, out_dir=tmp_path / "b")
        assert corpus_digest(tmp_path / "a") != corpus_digest(tmp_path / "b")

    def test_manifest_and_keys_written(self, tmp_path):
        entries = harness.generate_corpus(all_specs(), tiny_counts(), 1, tmp_path)
        assert (tmp_path / "manifest.txt").exists()
        key = parse_file(tmp_path / "key_train.txt", sub.parse_key)
        assert key.language_list == TRAIN_LANGS
        train_ids = {e.utt_id for e in entries if e.split == "train"}
        assert set(key.entries) == train_ids
        again = harness.read_manifest(tmp_path)
        assert again == entries

    @pytest.mark.parametrize("module, writer", [(harness, "write_manifest"), (sub, "write_key")])
    def test_failed_write_leaves_the_previous_text_files(self, tmp_path, monkeypatch,
                                                         module, writer):
        counts = {"train": {lang: 1 for lang in TRAIN_LANGS}}
        harness.generate_corpus(all_specs()[:3], counts, 3, tmp_path)
        before = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        # a lone surrogate cannot be encoded, so the write fails part-way
        monkeypatch.setattr(module, writer, lambda *args: "ok\n\ud800")
        with pytest.raises(UnicodeEncodeError):
            harness.generate_corpus(all_specs()[:3], counts, 3, tmp_path)
        after = {path.name: path.read_bytes() for path in tmp_path.iterdir() if path.is_file()}
        assert after == before

    def test_refused_count_creates_nothing(self, tmp_path):
        counts = {"train": {lang: 1 for lang in TRAIN_LANGS}, "test": {"alpha": 0}}
        with pytest.raises(InvalidSpec, match="count for 'alpha'/'test'"):
            harness.generate_corpus(all_specs()[:3], counts, 3, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    def test_count_for_a_language_without_a_spec_creates_nothing(self, tmp_path):
        counts = {"train": {"alpha": 1, "bravo": 1, "zulu": 3}}
        with pytest.raises(InvalidSpec, match="^count for 'zulu'/'train' names no language spec$"):
            harness.generate_corpus(all_specs()[:3], counts, 3, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    def test_repeated_language_id_creates_nothing(self, tmp_path):
        # the manifest would name alpha-train-0000 twice, which read_manifest refuses
        counts = {"train": {"alpha": 1, "bravo": 1}}
        with pytest.raises(InvalidSpec, match="language id 'alpha' given twice"):
            harness.generate_corpus(all_specs()[:1] + all_specs()[:2], counts, 1,
                                    tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("language_id", [sub.OUT_OF_SET, "#x"])
    def test_id_the_key_reader_refuses_creates_nothing(self, tmp_path, language_id):
        # the key header would hold OOS, which the key reader refuses, or a
        # "#x" line, which every reader skips as a comment
        spec = dataclasses.replace(all_specs()[0], language_id=language_id)
        counts = {"train": {language_id: 1, "bravo": 1}}
        with pytest.raises(InvalidSpec, match=f"bad language id '{language_id}'"):
            harness.generate_corpus([spec, all_specs()[1]], counts, 1, tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("split", ["train", "test"])  # the same split, then another
    def test_repeated_utt_refused_at_its_line(self, split):
        text = "u1 alpha wav/u1.wav train\nu2 alpha wav/u2.wav train\n"
        with pytest.raises(DuplicateSegment) as err:
            harness.parse_manifest(text + f"u1 alpha wav/u1.wav {split}\n")
        assert str(err.value) == "line 3: utterance 'u1' appears twice"

    @TOTALITY
    @given(token_texts(["u1", "alpha", "wav/u1.wav", "test", "#", "é", "\t"]))
    def test_any_manifest_text_gives_entries_or_a_line_error(self, text):
        try:
            harness.parse_manifest(text)
        except LineError as err:
            assert err.line_no is not None

    @TOTALITY
    @given(manifests())
    def test_written_manifest_reads_back_to_the_same_text(self, entries):
        # the writer refuses entries exactly when the reader would not give
        # them back from their text written line by line
        naive = "".join(f"{e.utt_id} {e.language} {e.path} {e.split}\n" for e in entries)
        try:
            given_back = harness.parse_manifest(naive)
        except LineError:
            given_back = None
        try:
            text = harness.write_manifest(entries)
        except (MalformedLine, DuplicateSegment) as err:
            assert given_back != entries
            assert any(repr(e.utt_id) in str(err) for e in entries)
            return
        assert given_back == entries and text == naive
        assert harness.write_manifest(harness.parse_manifest(text)) == text

    @pytest.mark.parametrize("entries, error, named", [
        ([("#u", "alpha", "wav/u.wav", "test")], MalformedLine, "'#u'"),  # reads as a comment
        ([("u", "alpha", "wav/a b.wav", "test")], MalformedLine, "'wav/a b.wav'"),
        ([("u", "alpha", "wav/u.wav", "test")] * 2, DuplicateSegment, "'u'"),
    ])
    def test_refused_manifest_names_its_entry(self, entries, error, named):
        with pytest.raises(error) as err:
            harness.write_manifest([harness.ManifestEntry(*e) for e in entries])
        assert named in str(err.value)


class TestPlan:
    def test_zero_resource_overlap_rejected(self):
        plan = harness.ExperimentPlan(
            task=harness.ZERO_RESOURCE,
            train_languages=TRAIN_LANGS,
            zero_languages=["alpha", "delta"],
        )
        with pytest.raises(InvalidPlan):
            plan.validate()

    def test_unknown_task_rejected(self):
        plan = harness.ExperimentPlan(task="mystery", train_languages=TRAIN_LANGS)
        with pytest.raises(InvalidPlan):
            plan.validate()

    @pytest.mark.parametrize("seconds", [0.0, -1.0, float("nan")])
    def test_crop_must_be_positive(self, seconds):
        plan = harness.ExperimentPlan(
            task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS, crop_seconds=seconds
        )
        with pytest.raises(InvalidPlan, match="crop_seconds"):
            plan.validate()

    # unchecked, an infinite crop overflows in run_task, and a NaN cutoff or
    # SNR loses every test segment without an error
    def test_crop_must_be_finite(self):
        plan = harness.ExperimentPlan(harness.SHORT_UTTERANCE, TRAIN_LANGS,
                                      crop_seconds=float("inf"))
        with pytest.raises(InvalidPlan, match=r"^crop_seconds must be in \(0, inf\), got inf$"):
            plan.validate()

    @pytest.mark.parametrize("cutoff", [-5.0, 0.0, 8000.5, float("inf"), float("nan")])
    def test_channel_cutoff_must_lie_below_nyquist(self, cutoff):
        plan = harness.ExperimentPlan(harness.CROSS_CHANNEL, TRAIN_LANGS,
                                      channel=harness.ChannelSpec(cutoff_hz=cutoff))
        with pytest.raises(InvalidPlan, match=r"^channel\.cutoff_hz must be in \(0, 8000\], "):
            plan.validate()
        harness.ExperimentPlan(harness.CROSS_CHANNEL, TRAIN_LANGS,
                               channel=harness.ChannelSpec(cutoff_hz=8000.0)).validate()

    @pytest.mark.parametrize("snr", [float("nan"), float("inf"), -float("inf")])
    def test_channel_snr_must_be_finite(self, snr):
        plan = harness.ExperimentPlan(harness.CROSS_CHANNEL, TRAIN_LANGS,
                                      channel=harness.ChannelSpec(snr_db=snr))
        with pytest.raises(InvalidPlan, match=r"^channel\.snr_db must be finite, got "):
            plan.validate()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    corpus = tmp_path_factory.mktemp("corpus")
    counts = {
        "train": {lang: 16 for lang in TRAIN_LANGS},
        "test": {lang: 6 for lang in TRAIN_LANGS},
        "reference": {"delta": 4, "echo": 4},
        "zr_test": {"delta": 6, "echo": 6},
    }
    harness.generate_corpus(all_specs(), counts, seed=11, out_dir=corpus)
    return corpus


class TestRunTask:
    def test_identity_channel_equals_short_utterance(self, small_corpus, tmp_path):
        short_plan = harness.ExperimentPlan(
            task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS, seed=11
        )
        short = harness.run_task(short_plan, small_corpus, tmp_path / "s", FAST_CONFIG)
        matched_plan = harness.ExperimentPlan(
            task=harness.CROSS_CHANNEL,
            train_languages=TRAIN_LANGS,
            seed=11,
            channel=harness.ChannelSpec(),
        )
        matched = harness.run_task(
            matched_plan, small_corpus, tmp_path / "m", FAST_CONFIG, params=short.params
        )
        assert abs(matched.report.cavg - short.report.cavg) <= 1e-12
        assert abs(matched.report.eer - short.report.eer) <= 1e-12
        assert matched.score_path.read_text().splitlines() == [
            line for line in short.score_path.read_text().splitlines()
        ]

    def test_zero_resource_runs_and_writes_outputs(self, small_corpus, tmp_path):
        plan = harness.ExperimentPlan(
            task=harness.ZERO_RESOURCE,
            train_languages=TRAIN_LANGS,
            zero_languages=["delta", "echo"],
            seed=11,
        )
        result = harness.run_task(plan, small_corpus, tmp_path, FAST_CONFIG)
        assert result.score_path.exists()
        assert result.report_path.exists()
        assert result.det_path.exists()
        key = parse_file(small_corpus / "key_zr_test.txt", sub.parse_key)
        table = parse_file(result.score_path,
                           lambda text: sub.parse_scores(text, key.language_list))
        assert len(table) == len(key.entries)
        assert 0.0 <= result.report.cavg <= 1.0

    def test_report_file_matches_report(self, small_corpus, tmp_path):
        plan = harness.ExperimentPlan(
            task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS, seed=3
        )
        result = harness.run_task(plan, small_corpus, tmp_path, FAST_CONFIG)
        text = result.report_path.read_text()
        first = text.splitlines()[0].split()
        assert first[0] == "cavg"
        assert float(first[1]) == pytest.approx(result.report.cavg, abs=1e-9)

    def test_unreadable_test_wav_is_filled_as_lost_trial(self, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        plan = harness.ExperimentPlan(
            task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS, seed=8
        )
        params = net.load_params(model.read_bytes())
        result = harness.run_task(plan, corpus, tmp_path, FAST_CONFIG, params=params)
        key = parse_file(corpus / "key_test.txt", sub.parse_key)
        table = parse_file(result.score_path,
                           lambda text: sub.parse_scores(text, key.language_list))
        assert len(table) == len(key.entries)
        assert table.ids[-1] == TRUNCATED["test"]
        assert np.all(table.values[-1] == -np.inf)
        assert np.isfinite(result.report.cavg)

    @pytest.mark.parametrize("train_languages, num_classes", [
        (["alpha", "bravo", "delta"], 3),  # charlie, a key language, is missing
        (TRAIN_LANGS, 4),
        (TRAIN_LANGS + ["delta"], 3),
    ])
    def test_label_order_mismatch_refused_before_any_wav(self, small_corpus, tmp_path,
                                                         monkeypatch, train_languages,
                                                         num_classes):
        params = net.init_network(num_classes, seed=[1, 1], feat_dim=40, frame_dim=16,
                                  stats_dim=24, embed_dim=16)
        plan = harness.ExperimentPlan(harness.CROSS_CHANNEL, train_languages, seed=11)

        def no_wav(*args):
            raise AssertionError("a WAV was read")

        monkeypatch.setattr(dsp, "read_wav", no_wav)
        with pytest.raises(InconsistentLanguageSet) as err:
            harness.run_task(plan, small_corpus, tmp_path / "out", FAST_CONFIG, params=params)
        assert str(err.value) == (
            f"key languages {TRAIN_LANGS} need training languages that label the "
            f"{num_classes}-class model, got {train_languages}")
        assert not (tmp_path / "out").exists()


    @pytest.mark.parametrize("task, train_languages, zero_languages, error", [
        (harness.CROSS_CHANNEL, ["alpha", "bravo", "delta"], [], InconsistentLanguageSet),
        (harness.ZERO_RESOURCE, TRAIN_LANGS, ["delta"], InvalidPlan),  # echo is in the key
    ])
    def test_plan_refused_against_the_key_before_training(
        self, small_corpus, tmp_path, monkeypatch, task, train_languages, zero_languages, error
    ):
        reads = []
        read_wav = dsp.read_wav

        def counted(*args, **kwargs):
            reads.append(args[0])
            return read_wav(*args, **kwargs)

        monkeypatch.setattr(dsp, "read_wav", counted)
        plan = harness.ExperimentPlan(task, train_languages, zero_languages, seed=11)
        with pytest.raises(error):
            harness.run_task(plan, small_corpus, tmp_path / "out", FAST_CONFIG)
        assert reads == []
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("plan_fields", [
        {"crop_seconds": float("inf")},
        {"channel": harness.ChannelSpec(cutoff_hz=float("nan"))},
        {"channel": harness.ChannelSpec(snr_db=float("nan"))},
    ], ids=["crop", "cutoff", "snr"])
    def test_bad_plan_is_refused_before_any_wav(self, small_corpus, tmp_path, monkeypatch,
                                                plan_fields):
        def no_wav(*args):
            raise AssertionError("a WAV was read")

        monkeypatch.setattr(dsp, "read_wav", no_wav)
        plan = harness.ExperimentPlan(harness.CROSS_CHANNEL, TRAIN_LANGS, seed=11, **plan_fields)
        with pytest.raises(InvalidPlan, match=f"^{next(iter(plan_fields))}"):
            harness.run_task(plan, small_corpus, tmp_path / "out", FAST_CONFIG)
        assert not (tmp_path / "out").exists()

    # unchecked, a negative seed or a single training language escapes as
    # numpy's ValueError, and the channel of a task without one is ignored
    @pytest.mark.parametrize("task, plan_fields, message", [
        (harness.SHORT_UTTERANCE, {"seed": -1}, "seed must be non-negative, got -1"),
        (harness.ZERO_RESOURCE, {"train_languages": ["alpha"]},
         "train_languages must name at least 2, got ['alpha']"),
        (harness.SHORT_UTTERANCE, {"channel": harness.ChannelSpec(cutoff_hz=300.0)},
         "channel applies to 'cross_channel' only, got ChannelSpec(cutoff_hz=300.0, snr_db=None)"),
        (harness.ZERO_RESOURCE, {"channel": harness.ChannelSpec(snr_db=-10.0)},
         "channel applies to 'cross_channel' only, got ChannelSpec(cutoff_hz=None, snr_db=-10.0)"),
    ], ids=["seed", "train_languages", "short_utterance_channel", "zero_resource_channel"])
    def test_plan_field_refused_before_any_wav(self, small_corpus, tmp_path, monkeypatch,
                                               task, plan_fields, message):
        def no_wav(*args):
            raise AssertionError("a WAV was read")

        monkeypatch.setattr(dsp, "read_wav", no_wav)
        fields = {"train_languages": TRAIN_LANGS, "zero_languages": ["delta", "echo"], "seed": 11}
        plan = harness.ExperimentPlan(task, **{**fields, **plan_fields})
        with pytest.raises(InvalidPlan) as err:
            harness.run_task(plan, small_corpus, tmp_path / "out", FAST_CONFIG)
        assert str(err.value) == message
        assert not (tmp_path / "out").exists()

    def test_training_language_given_twice_is_refused_before_any_wav(
        self, small_corpus, tmp_path, monkeypatch
    ):
        def no_wav(*args):
            raise AssertionError("a WAV was read")

        monkeypatch.setattr(dsp, "read_wav", no_wav)
        train = [e for e in harness.read_manifest(small_corpus) if e.split == "train"]
        with pytest.raises(InvalidPlan, match="^training language 'alpha' given twice$"):
            harness.train_network(small_corpus, train, ["alpha", "alpha", "bravo"], FAST_CONFIG)
        plan = harness.ExperimentPlan(harness.ZERO_RESOURCE, ["alpha", "bravo", "alpha"],
                                      ["delta", "echo"], seed=11)
        with pytest.raises(InvalidPlan, match="^training language 'alpha' given twice$"):
            harness.run_task(plan, small_corpus, tmp_path / "out", FAST_CONFIG)
        assert not (tmp_path / "out").exists()

    def test_training_language_without_an_utterance_is_refused(self, small_corpus, tmp_path):
        train = [e for e in harness.read_manifest(small_corpus) if e.split == "train"]
        absent = "^no usable training utterances for 'zulu'$"
        with pytest.raises(InvalidPlan, match=absent):
            harness.train_network(small_corpus, train, ["alpha", "zulu", "bravo"], FAST_CONFIG)
        plan = harness.ExperimentPlan(harness.ZERO_RESOURCE, [*TRAIN_LANGS, "zulu"],
                                      ["delta", "echo"], seed=11)
        with pytest.raises(InvalidPlan, match=absent):
            harness.run_task(plan, small_corpus, tmp_path / "out", FAST_CONFIG)
        assert not (tmp_path / "out").exists()


class TestTooFewFrames:
    def test_training_skips_it_and_matches_training_without_it(
        self, short_corpus, caplog
    ):
        corpus, model = short_corpus
        train = [e for e in harness.read_manifest(corpus) if e.split == "train"]
        config = {"train.epochs": "2"}
        with caplog.at_level("WARNING", logger="lidkit"):
            params = harness.train_network(corpus, train, TRAIN_LANGS, config, seed=9)
        assert f"skipping {SHORT['train']} (need at least 15 frames" in caplog.text
        without = [e for e in train if e.utt_id != SHORT["train"]]
        expected = harness.train_network(corpus, without, TRAIN_LANGS, config, seed=9)
        assert net.save_params(params) == net.save_params(expected) == model.read_bytes()

    def test_language_with_only_a_short_reference_cannot_enroll(self, short_corpus):
        corpus, model = short_corpus
        short = [e for e in harness.read_manifest(corpus) if e.utt_id == SHORT["reference"]]
        params = net.load_params(model.read_bytes())
        with pytest.raises(NoUsableReferences):
            harness.enroll_entries(params, corpus, short, harness.CONFIG_DEFAULTS, ["delta"])


class TestSegmentThreads:
    @pytest.mark.parametrize("env, cpus, segments, workers", [
        ({}, 8, 10, 1),  # none declared: BLAS may use every CPU
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 10, 4),
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),  # no more than the segments
        ({"OPENBLAS_NUM_THREADS": "1"}, 4, 0, 1),
        ({"OPENBLAS_NUM_THREADS": "2"}, 4, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "3"}, 2, 10, 1),  # at least one
        ({"OPENBLAS_NUM_THREADS": "007"}, 14, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "1"}, None, 10, 1),
        ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 10, 2),  # the first wins
        ({"OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "4"}, 4, 10, 4),
        ({"MKL_NUM_THREADS": "2"}, 4, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "x", "OMP_NUM_THREADS": "1"}, 4, 10, 4),
        ({"OPENBLAS_NUM_THREADS": "0", "MKL_NUM_THREADS": "2"}, 4, 10, 2),
        ({"OPENBLAS_NUM_THREADS": "-1"}, 4, 10, 1),
        ({"OPENBLAS_NUM_THREADS": "1.0"}, 4, 10, 1),
        ({"OPENBLAS_NUM_THREADS": ""}, 4, 10, 1),
        ({"OPENBLAS_NUM_THREADS": " 1"}, 4, 10, 1),
        ({"OPENBLAS_NUM_THREADS": "١"}, 4, 10, 1),  # a digit, but not ASCII
    ])
    def test_workers_follow_the_declared_blas_threads(self, monkeypatch, env, cpus, segments,
                                                      workers):
        for name in harness.BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        assert harness.segment_workers(segments) == workers

    @staticmethod
    def corpus_with_bad_segments(damaged_corpus, root):
        """A corpus of ten test entries, some of them bad; returns it with
        its entries and the bad ones' ids in entry order."""
        corpus, _ = damaged_corpus
        good = [e for e in harness.read_manifest(corpus) if e.split == "test"
                and e.utt_id != TRUNCATED["test"]]
        (root / "wav").mkdir()
        wav = (corpus / good[0].path).read_bytes()
        bad = {"bad0": wav[:20], "bad1": junk_chunk(wav), "bad2": wav[:-1]}
        order = ["bad0", 0, 1, "bad1", 2, 3, "bad2", 4, 5, 6]
        entries = []
        for item in order:
            if item in bad:
                (root / "wav" / f"{item}.wav").write_bytes(bad[item])
                entries.append(harness.ManifestEntry(item, "alpha", f"wav/{item}.wav", "test"))
            else:
                entry = good[item]
                (root / entry.path).write_bytes((corpus / entry.path).read_bytes())
                entries.append(entry)
        return entries, [e.utt_id for e in entries if e.utt_id in bad]

    def test_skips_are_logged_in_entry_order(self, damaged_corpus, tmp_path, monkeypatch,
                                             caplog, segment_threads):
        entries, bad = self.corpus_with_bad_segments(damaged_corpus, tmp_path)
        params = net.load_params(damaged_corpus[1].read_bytes())
        read_wav = dsp.read_wav

        def slow_first(path):  # on 3 processes, the later bad segments fail first
            if path.name == "bad0.wav":
                threading.Event().wait(0.3)
            return read_wav(path)

        monkeypatch.setattr(dsp, "read_wav", slow_first)
        with caplog.at_level("WARNING", logger="lidkit"):
            kept = harness.iter_features(params, tmp_path, entries, harness.CONFIG_DEFAULTS)
            kept = [entry.utt_id for entry, _ in kept]
        assert kept == [e.utt_id for e in entries if e.utt_id not in bad]
        assert [r.getMessage().split()[:2] for r in caplog.records] == [
            ["skipping", utt] for utt in bad]

    @pytest.mark.parametrize("k", [2, 5])
    def test_other_error_surfaces_at_its_segment_and_cancels_the_rest(
            self, damaged_corpus, tmp_path, monkeypatch, caplog, segment_threads, k):
        entries, bad = self.corpus_with_bad_segments(damaged_corpus, tmp_path)
        params = net.load_params(damaged_corpus[1].read_bytes())
        started = tmp_path / "started"  # a file per transform begun, in any process
        started.mkdir()

        def transform(i, samples):
            (started / str(i)).touch()
            if i == k:
                raise ValueError(f"transform failed at {i}")
            if i > k:  # held, so that the error is taken before these end
                threading.Event().wait(1.0)
            return samples

        threads = threading.active_count()
        with caplog.at_level("WARNING", logger="lidkit"):
            with pytest.raises(ValueError, match=f"^transform failed at {k}$"):
                list(harness.iter_features(params, tmp_path, entries, harness.CONFIG_DEFAULTS,
                                           transform))
        assert threading.active_count() == threads
        assert multiprocessing.active_children() == []
        assert [r.getMessage().split()[1] for r in caplog.records] == [
            utt for i, utt in enumerate(e.utt_id for e in entries) if utt in bad and i < k]
        # the segments before k, k itself, and one held on each other process
        assert len(list(started.iterdir())) <= k + segment_threads

    def test_closing_early_leaves_no_process(self, damaged_corpus, segment_threads):
        corpus, model = damaged_corpus
        params = net.load_params(model.read_bytes())
        entries = [e for e in harness.read_manifest(corpus) if e.split == "train"]
        features = harness.iter_features(params, corpus, entries, harness.CONFIG_DEFAULTS)
        assert next(features)[0] == entries[0]
        features.close()
        assert multiprocessing.active_children() == []

    def test_one_worker_forks_nothing(self, monkeypatch):
        def no_fork(*args):
            raise AssertionError("a process was forked")

        monkeypatch.setattr(multiprocessing, "get_context", no_fork)
        assert list(harness._pooled(lambda i: i * i, [range(5)], 1)) == [0, 1, 4, 9, 16]

    def test_ended_fork_is_an_error_not_a_hang(self, tmp_path):
        caller, ended = os.getpid(), tmp_path / "ended"

        def job(i):
            if os.getpid() != caller:  # the fork takes an item and dies with it
                ended.touch()
                os._exit(3)
            for _ in range(500):  # until it has
                if ended.exists():
                    break
                threading.Event().wait(0.01)
            return i

        with pytest.raises(ChildProcessError, match="^a segment process ended with exit code 3$"):
            list(harness._pooled(job, [range(4)], 2))
        assert multiprocessing.active_children() == []

    def test_result_that_cannot_be_pickled_is_an_error_not_a_hang(self, tmp_path):
        caller, sent = os.getpid(), tmp_path / "sent"

        def job(i):
            if os.getpid() != caller:
                sent.touch()
                return lambda: i  # no pickle takes it back
            for _ in range(500):
                if sent.exists():
                    break
                threading.Event().wait(0.01)
            return i

        with pytest.raises(ChildProcessError, match="^a segment process ended with exit code 1$"):
            list(harness._pooled(job, [range(4)], 2))
        assert multiprocessing.active_children() == []


class OutOfTime(BaseException):
    """Not an Exception, so that no pool takes it for a job's error."""


@contextlib.contextmanager
def time_limit(seconds):
    """Raise OutOfTime in this (the main) thread after ``seconds``, and again
    each second after, so that a pool waiting forever, even in its clean-up,
    fails the test instead of hanging it."""
    def expire(signum, frame):
        raise OutOfTime(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds, 1.0)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestPooledTraining:
    """``train_network`` runs each example on ``segment_threads`` processes;
    each result is compared with the same call on one process."""

    @staticmethod
    def train(corpus, config, seed, workers, monkeypatch, entries=None):
        monkeypatch.setattr(os, "cpu_count", lambda: workers)
        if entries is None:
            entries = [e for e in harness.read_manifest(corpus) if e.split == "train"]
        with time_limit(60):
            return net.save_params(harness.train_network(corpus, entries, TRAIN_LANGS, config,
                                                         seed))

    def test_model_bytes_do_not_depend_on_the_processes(self, damaged_corpus, monkeypatch,
                                                        segment_threads):
        corpus, model = damaged_corpus  # trained as below, on however many processes
        config = {"train.epochs": "2"}
        assert self.train(corpus, config, 8, segment_threads, monkeypatch) == model.read_bytes()

    def test_full_width_model_bytes_do_not_depend_on_the_processes(self, damaged_corpus,
                                                                   monkeypatch, segment_threads):
        corpus, _ = damaged_corpus
        entries = [e for e in harness.read_manifest(corpus) if e.split == "train"][::4]
        config = {"net.frame_dim": "512", "net.stats_dim": "1500", "net.embed_dim": "512",
                  "train.epochs": "1", "train.batch_size": "4"}
        pooled = self.train(corpus, config, 5, segment_threads, monkeypatch, entries)
        assert pooled == self.train(corpus, config, 5, 1, monkeypatch, entries)

    def test_diverging_rate_stops_at_the_same_step_with_the_same_lines(
            self, damaged_corpus, monkeypatch, caplog, segment_threads):
        corpus, _ = damaged_corpus
        config = {"train.epochs": "2", "train.learn_rate": "1000"}
        logged = []
        for workers in (segment_threads, 1):
            caplog.clear()
            with caplog.at_level("INFO", logger="lidkit"):
                with pytest.raises(NonFiniteLoss, match="^training loss is nan$"):
                    self.train(corpus, config, 8, workers, monkeypatch)
            logged.append([r.getMessage() for r in caplog.records])
        assert logged[0] == logged[1]
        assert [line.split()[:2] for line in logged[0]] == [["step", "1"], ["step", "2"],
                                                           ["step", "3"]]

    @pytest.mark.parametrize("k", [0, 5, 23])
    def test_error_of_an_example_surfaces_in_the_caller(self, damaged_corpus, monkeypatch,
                                                        segment_threads, k):
        corpus, _ = damaged_corpus
        entries = [e for e in harness.read_manifest(corpus) if e.split == "train"]
        frames = dsp.features_from_wav(corpus / entries[k].path).num_frames
        example_gradient = net.example_gradient

        def failing(params, features, *rest):  # in whichever process runs the example
            if features.num_frames == frames:  # once the later examples wait on it
                threading.Event().wait(0.2)
                raise ValueError(f"example of {frames} frames failed")
            return example_gradient(params, features, *rest)

        monkeypatch.setattr(net, "example_gradient", failing)
        with pytest.raises(ValueError, match=f"^example of {frames} frames failed$"):
            self.train(corpus, {"train.epochs": "2"}, 8, segment_threads, monkeypatch)
        assert multiprocessing.active_children() == []

    def test_error_in_a_fork_surfaces_in_the_caller(self, damaged_corpus, monkeypatch):
        corpus, _ = damaged_corpus
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        caller, example_gradient = os.getpid(), net.example_gradient

        def failing(*args):
            if os.getpid() != caller:
                raise ValueError("an example failed in a fork")
            threading.Event().wait(0.05)  # so that the fork takes the next example
            return example_gradient(*args)

        monkeypatch.setattr(net, "example_gradient", failing)
        with pytest.raises(ValueError, match="^an example failed in a fork$"):
            self.train(corpus, {"train.epochs": "2"}, 8, 2, monkeypatch)
        assert multiprocessing.active_children() == []

    def test_ended_fork_is_an_error_not_a_hang_on_a_turn(self, tmp_path):
        caller, ended = os.getpid(), tmp_path / "ended"

        def job(i, turn):
            if os.getpid() != caller:  # the fork takes an item and dies with it
                ended.touch()
                os._exit(3)
            for _ in range(500):  # until it has, so that a later item waits on its turn
                if ended.exists():
                    break
                threading.Event().wait(0.01)
            with turn(0):
                return i

        with time_limit(60):
            with pytest.raises(ChildProcessError,
                               match="^a segment process ended with exit code 3$"):
                list(harness._pooled(job, [range(4)], 2, turns=1))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("on_a_turn", [False, True], ids=["between-rounds", "on-a-turn"])
    def test_forks_of_a_killed_caller_end(self, tmp_path, on_a_turn):
        # the caller is killed before its clean-up can stop the pool, while its
        # fork waits for the next round, or on a turn of an item the caller holds
        script = f"""
import multiprocessing, os, signal, threading
from pathlib import Path
from lidkit import harness
caller, held = os.getpid(), Path({str(tmp_path)!r}) / "held"
def die():
    forks = " ".join(str(p.pid) for p in multiprocessing.active_children())
    Path({str(tmp_path)!r}, "forks").write_text(forks)
    os.kill(caller, signal.SIGKILL)
def job(i, turn):
    if os.getpid() != caller:
        (held / str(i)).touch()
    elif {on_a_turn} and i < 7:
        for _ in range(500):  # until the fork holds a later item, waiting on this one
            if any(int(p.name) > i for p in held.iterdir()):
                die()
            threading.Event().wait(0.01)
    with turn(0):
        return i
for i in harness._pooled(job, [range(8), range(8)], 2, turns=1):
    if i == 7:
        die()
"""
        (tmp_path / "held").mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(harness.__file__).parents[1]))
        # no pipe: a fork left running would hold it open
        done = subprocess.run([sys.executable, "-c", script], env=env, timeout=60,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        forks = [int(pid) for pid in (tmp_path / "forks").read_text().split()]
        assert done.returncode == -signal.SIGKILL and forks

        def running(pid):  # neither gone nor a zombie left for init to reap
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except FileNotFoundError:
                return False
            return stat.rsplit(")", 1)[1].split()[0] != "Z"

        for _ in range(100):
            if not any(map(running, forks)):
                break
            threading.Event().wait(0.1)
        left = [pid for pid in forks if running(pid)]
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left
