import concurrent.futures
import dataclasses
import hashlib
import os
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from conftest import SHORT, TOTALITY, TRUNCATED, token_texts
from lidkit import dsp, harness, net, submission as sub
from lidkit.errors import (
    DuplicateSegment, InconsistentLanguageSet, InvalidPlan, InvalidSpec, LineError, MalformedLine,
    NoUsableReferences,
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
                wave = dsp.Waveform(harness.synth_utterance(spec, 1.5, rng))
                rows.append(dsp.extract_filterbanks(wave).frames.mean(axis=0))
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
                # float64 rounding over at most ~80 Horner steps on unit phasors,
                # with two orders of magnitude of headroom
                np.testing.assert_allclose(samples, expected, rtol=0, atol=1e-11)
                assert rng.random() == oracle_rng.random()  # the same draws were taken

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
        duration = 0.05 if size == 1600 else size / harness.SAMPLE_RATE
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

    def test_parallel_generation_matches_serial(self, tmp_path):
        counts = {"train": {lang: 3 for lang in TRAIN_LANGS}}
        harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path / "serial")
        harness.generate_corpus(
            all_specs()[:3], counts, seed=9, out_dir=tmp_path / "parallel", jobs=4
        )
        assert corpus_digest(tmp_path / "serial") == corpus_digest(tmp_path / "parallel")

    @pytest.mark.parametrize("jobs, cpus, workers", [
        (8, 3, 3), (8, 16, 6), (2, 16, 2), (1, 16, None), (8, None, None),
    ])
    def test_threads_bounded_by_jobs_utterances_and_cpus(self, tmp_path, monkeypatch,
                                                          jobs, cpus, workers):
        started = []

        class SerialPool:  # records its size and maps in order, on this thread
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        counts = {"train": {lang: 2 for lang in TRAIN_LANGS}}  # 6 utterances
        harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path, jobs=jobs)
        assert started == ([workers] if workers else [])
        assert len(harness.read_manifest(tmp_path)) == 6

    def test_each_utterance_is_written_before_the_next_is_synthesised(self, tmp_path,
                                                                       monkeypatch):
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
        harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path, jobs=1)
        assert (most[0], unwritten[0]) == (1, 0)

    @pytest.mark.parametrize("k", [1, 4])
    def test_failed_wav_write_stops_synthesis_and_writes_no_text(self, tmp_path, monkeypatch,
                                                                 k):
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
            harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path, jobs=1)
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
            harness.generate_corpus(all_specs()[:3], counts, seed=9, out_dir=tmp_path, jobs=2)
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
        key = sub.read_key_file(tmp_path / "key_train.txt")
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

    def test_repeated_language_id_creates_nothing(self, tmp_path):
        # the manifest would name alpha-train-0000 twice, which read_manifest refuses
        counts = {"train": {"alpha": 1, "bravo": 1}}
        with pytest.raises(InvalidSpec, match="language id 'alpha' given twice"):
            harness.generate_corpus(all_specs()[:1] + all_specs()[:2], counts, 1,
                                    tmp_path / "corpus")
        assert not (tmp_path / "corpus").exists()

    @pytest.mark.parametrize("language_id", [sub.OUT_OF_SET, "#x"])
    def test_id_the_key_reader_refuses_creates_nothing(self, tmp_path, language_id):
        # the key header would hold OOS, which read_key_file refuses, or a
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
        key = sub.read_key_file(small_corpus / "key_zr_test.txt")
        table = sub.read_score_file(result.score_path, key.language_list)
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
        key = sub.read_key_file(corpus / "key_test.txt")
        table = sub.read_score_file(result.score_path, key.language_list)
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
