import contextlib
import io
import logging
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SHORT, TOTALITY, TRUNCATED, token_texts
from lidkit import cli, dsp, harness, metrics, net, submission as sub

TRAIN_LANGS = "alpha,bravo,charlie"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def worked_example(tmp_path):
    scores = tmp_path / "scores.txt"
    key = tmp_path / "key.txt"
    scores.write_text("s1 1 2\ns3 -2 -1\ns2 -1 1\n")
    key.write_text("A B\ns1 A\ns3 A\ns2 B\n")
    return scores, key


class TestEvaluateCommand:
    def test_worked_example_prints_cavg(self, capsys, worked_example):
        scores, key = worked_example
        code, out, _ = run(
            capsys, "evaluate", "--scores", str(scores), "--key", str(key),
            "--set", "eval.policy=fixed", "--set", "eval.threshold=0",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "Cavg 0.2500"
        assert lines[1].startswith("EER% ")

    def test_report_and_det_outputs(self, capsys, worked_example, tmp_path):
        scores, key = worked_example
        report = tmp_path / "report.txt"
        det = tmp_path / "det.txt"
        code, _, _ = run(
            capsys, "evaluate", "--scores", str(scores), "--key", str(key),
            "--report", str(report), "--det", str(det),
        )
        assert code == 0
        assert report.read_text().startswith("# stamp config=")
        assert "cavg " in report.read_text()
        det_lines = det.read_text().strip().splitlines()
        assert det_lines[1].split() == ["0", "1"]

    def test_missing_key_file_exits_2_with_one_line(self, capsys, worked_example):
        scores, _ = worked_example
        code, _, err = run(
            capsys, "evaluate", "--scores", str(scores), "--key", "/nowhere/key.txt"
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1
        assert err.startswith("error:")

    def test_lost_trial_warning(self, capsys, tmp_path):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("s1 1 -1\n")
        key.write_text("A B\ns1 A\ns2 B\n")
        code, _, err = run(capsys, "validate", "--scores", str(scores), "--key", str(key))
        assert code == 0
        assert "1 lost trial filled with -inf" in err

    def test_validate_writes_filled_file(self, capsys, tmp_path):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        out = tmp_path / "filled.txt"
        scores.write_text("s1 1 -1\nzzz 0 0\n")
        key.write_text("A B\ns1 A\ns2 B\n")
        code, _, err = run(
            capsys, "validate", "--scores", str(scores), "--key", str(key), "--out", str(out)
        )
        assert code == 0
        assert "dropped" in err
        key_obj = sub.parse_key(key.read_text())
        table = sub.parse_scores(out.read_text(), key_obj.language_list)
        assert table.ids == ["s1", "s2"]
        assert np.all(table.values[1] == -np.inf)

    def test_malformed_scores_exit_2_with_file_line_shape(self, capsys, tmp_path):
        scores = tmp_path / "scores.txt"
        key = tmp_path / "key.txt"
        scores.write_text("s0 1 2\ns1 1 junk\n")
        key.write_text("A B\ns1 A\n")
        code, _, err = run(capsys, "evaluate", "--scores", str(scores), "--key", str(key))
        assert code == 2
        assert f"{scores}:2: " in err

    def test_both_policies_reported(self, capsys, worked_example):
        scores, key = worked_example
        code, out, _ = run(capsys, "evaluate", "--scores", str(scores), "--key", str(key))
        assert code == 0
        assert "Cavg[fixed threshold=0]" in out
        assert "Cavg[min_sweep threshold=" in out

    def test_one_trial_set_serves_both_policies(self, capsys, worked_example, monkeypatch):
        calls = []
        for name in ("trials", "compute_cavg"):
            def counted(*args, _real=getattr(metrics, name), _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(metrics, name, counted)
        scores, key = worked_example
        assert run(capsys, "evaluate", "--scores", str(scores), "--key", str(key))[0] == 0
        assert calls == ["trials", "compute_cavg", "compute_cavg"]

    @pytest.mark.parametrize("key_text, scores_text, message", [
        ("A\ns1 A\n", "s1 1\n", "need at least 2 languages, got 1"),
        ("A\ns1 A\nx1 OOS\n", "s1 1\nx1 0\n", "need at least 2 languages, got 1"),
        ("A B\ns1 A\ns2 A\n", "s1 1 0\ns2 0 1\n", "no trials for language 'B'"),
    ])
    def test_degenerate_key_exits_2_naming_it(self, capsys, tmp_path, key_text, scores_text,
                                              message):
        key, scores = tmp_path / "key.txt", tmp_path / "scores.txt"
        key.write_text(key_text)
        scores.write_text(scores_text)
        code, out, err = run(capsys, "evaluate", "--scores", str(scores), "--key", str(key))
        assert (code, out, err) == (2, "", f"error: {key}: {message}\n")

    def test_eval_settings_come_from_the_config(self, capsys, worked_example, tmp_path):
        scores, key = worked_example
        report = tmp_path / "report.txt"
        argv = ["evaluate", "--scores", str(scores), "--key", str(key), "--report", str(report)]
        code, out, _ = run(capsys, *argv, "--set", "eval.policy=fixed",
                           "--set", "eval.threshold=1.5")
        assert code == 0
        assert "threshold_policy fixed" in report.read_text()
        assert "Cavg[fixed threshold=1.5]" in out
        code, _, err = run(capsys, *argv, "--set", "eval.policy=best")
        assert code == 2 and "'best'" in err
        assert run(capsys, *argv, "--policy", "fixed")[0] == 1


class TestUsageErrors:
    def test_unknown_subcommand_exits_1(self, capsys):
        code, _, err = run(capsys, "frobnicate")
        assert code == 1
        assert err.startswith("error:")

    def test_missing_required_arg_exits_1(self, capsys):
        code, _, _ = run(capsys, "evaluate", "--scores", "x.txt")
        assert code == 1

    def test_bad_set_override_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path), "--set", "nonsense")
        assert code == 1
        assert "KEY=VALUE" in err

    def test_jobs_belongs_to_generate_only(self, capsys, tmp_path):
        code, _, _ = run(capsys, "generate", "--out", str(tmp_path / "c"), "--jobs", "2", *TINY)
        assert code == 0 and (tmp_path / "c" / "manifest.txt").exists()
        score = ["score", "--model", "m", "--corpus", "c", "--split", "test",
                 "--key", "k", "--out", "o"]
        assert run(capsys, *score, "--jobs", "2")[0] == 1
        assert run(capsys, "--jobs", "2", *score)[0] == 1

    def test_repeated_language_for_train_exits_1_naming_the_flag(self, capsys, tmp_path):
        out = tmp_path / "model.bin"
        code, _, err = run(capsys, "train", "--corpus", str(tmp_path),
                           "--languages", "alpha,alpha,bravo", "--out", str(out))
        assert code == 1
        assert err == "error: argument --languages: language 'alpha' given twice\n"
        assert not out.exists()

    def test_repeated_language_for_score_exits_1_naming_the_flag(self, capsys, tmp_path):
        code, _, err = run(capsys, "score", "--model", "m", "--corpus", "c", "--split", "test",
                           "--key", "k", "--out", str(tmp_path / "o"),
                           "--languages", "alpha,bravo,charlie,bravo")
        assert code == 1
        assert err == "error: argument --languages: language 'bravo' given twice\n"

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_seed_not_a_non_negative_integer_exits_1_naming_the_flag(
        self, capsys, tmp_path, seed
    ):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path / "c"), "--seed", seed)
        assert code == 1
        assert err == (
            f"error: argument --seed: expected a non-negative integer, got {seed!r}\n")
        assert not (tmp_path / "c").exists()

    @pytest.mark.parametrize("jobs", ["0", "-3", "x", "1.5", "+2", " 2"])
    def test_jobs_not_a_positive_integer_exits_1_naming_the_flag(self, capsys, tmp_path, jobs):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path / "c"), "--jobs", jobs)
        assert code == 1
        assert err == f"error: argument --jobs: expected a positive integer, got {jobs!r}\n"
        assert not (tmp_path / "c").exists()

    def test_zero_width_network_exits_2_and_writes_nothing(self, capsys, tmp_path):
        (tmp_path / "manifest.txt").write_text("u1 alpha wav/u1.wav train\n")
        out = tmp_path / "model.bin"
        code, _, err = run(capsys, "train", "--corpus", str(tmp_path), "--languages", TRAIN_LANGS,
                           "--out", str(out), "--set", "net.frame_dim=0")
        assert code == 2
        assert err == "error: net.frame_dim: expected a positive finite number, got 0\n"
        assert not out.exists()

    # each size asks for PiB-scale arrays (beyond any address space), which
    # numpy refuses at once: init_network's weights for the first two, the
    # rfft output of the one WAV's frames for the third
    @pytest.mark.parametrize("setting", [
        "net.frame_dim=1000000000000", "feat.num_filters=10000000000000",
        "feat.fft_size=1000000000000000",
    ])
    def test_huge_in_domain_size_exits_2_and_writes_nothing(self, capsys, tmp_path, setting):
        (tmp_path / "wav").mkdir()
        samples = harness.synth_utterance(harness.default_training_specs()[0], 0.5,
                                          np.random.default_rng(1))
        dsp.write_wav(tmp_path / "wav" / "u1.wav", dsp.Waveform(samples))
        (tmp_path / "manifest.txt").write_text("u1 alpha wav/u1.wav train\n")
        out = tmp_path / "model.bin"
        code, _, err = run(capsys, "train", "--corpus", str(tmp_path), "--languages", TRAIN_LANGS,
                           "--out", str(out), "--set", setting)
        assert code == 2
        assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
        assert not out.exists()


TINY = [
    "--set", "counts.train=6", "--set", "counts.dev=1", "--set", "counts.test=3",
    "--set", "counts.reference=3", "--set", "counts.zr_test=3",
]
FAST_TRAIN = ["--set", "train.epochs=2", "--set", "train.batch_size=6"]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("cliwork")


class TestPipeline:
    def test_full_closed_set_pipeline(self, capsys, workdir):
        corpus = workdir / "corpus"
        code, out, _ = run(capsys, "generate", "--out", str(corpus), "--seed", "4", *TINY)
        assert code == 0 and "corpus written" in out

        model = workdir / "model.bin"
        code, out, _ = run(
            capsys, "train", "--corpus", str(corpus), "--languages", TRAIN_LANGS,
            "--out", str(model), "--seed", "4", *FAST_TRAIN,
        )
        assert code == 0 and model.exists()

        scores = workdir / "scores.txt"
        code, out, _ = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "test", "--key", str(corpus / "key_test.txt"),
            "--languages", TRAIN_LANGS, "--out", str(scores),
        )
        assert code == 0

        code, out, _ = run(
            capsys, "evaluate", "--scores", str(scores),
            "--key", str(corpus / "key_test.txt"),
        )
        assert code == 0
        assert out.startswith("Cavg ")

    def test_repeated_manifest_line_exits_2_at_its_line(self, capsys, workdir, tmp_path):
        corpus = workdir / "corpus"
        manifest = (corpus / "manifest.txt").read_text()
        line = next(line for line in manifest.splitlines() if line.endswith(" test"))
        (tmp_path / "manifest.txt").write_text(manifest + line + "\n")
        out = tmp_path / "scores.txt"
        code, _, err = run(
            capsys, "score", "--model", str(workdir / "model.bin"), "--corpus", str(tmp_path),
            "--split", "test", "--key", str(corpus / "key_test.txt"),
            "--languages", TRAIN_LANGS, "--out", str(out),
        )
        assert code == 2
        where = f"{tmp_path / 'manifest.txt'}:{manifest.count(chr(10)) + 1}"
        assert err == f"error: {where}: utterance {line.split()[0]!r} appears twice\n"
        assert not out.exists()

    def test_extract_writes_one_vector_per_segment(self, capsys, workdir):
        corpus = workdir / "corpus"
        xvecs = workdir / "xvec.txt"
        code, _, _ = run(
            capsys, "extract", "--model", str(workdir / "model.bin"),
            "--corpus", str(corpus), "--split", "test", "--out", str(xvecs),
        )
        assert code == 0
        lines = [l for l in xvecs.read_text().splitlines() if not l.startswith("#")]
        key = sub.read_key_file(corpus / "key_test.txt")
        assert len(lines) == len(key.entries)

    def test_enroll_and_zero_score(self, capsys, workdir):
        corpus = workdir / "corpus"
        refs = workdir / "refs.txt"
        entries = harness.read_manifest(corpus)
        lines = [
            f"{e.language} {corpus / e.path}" for e in entries if e.split == "reference"
        ]
        refs.write_text("\n".join(lines) + "\n")
        enrolled = workdir / "enrolled.txt"
        code, _, _ = run(
            capsys, "enroll", "--model", str(workdir / "model.bin"),
            "--refs", str(refs), "--out", str(enrolled),
        )
        assert code == 0

        zscores = workdir / "zscores.txt"
        code, _, _ = run(
            capsys, "score", "--model", str(workdir / "model.bin"), "--corpus", str(corpus),
            "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
            "--mode", "zero", "--enrolled", str(enrolled), "--out", str(zscores),
        )
        assert code == 0
        code, out, _ = run(
            capsys, "evaluate", "--scores", str(zscores),
            "--key", str(corpus / "key_zr_test.txt"),
        )
        assert code == 0 and out.startswith("Cavg ")

    def test_reruns_are_byte_identical(self, capsys, workdir, tmp_path):
        corpus = workdir / "corpus"
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        for out in (first, second):
            code, _, _ = run(
                capsys, "score", "--model", str(workdir / "model.bin"),
                "--corpus", str(corpus), "--split", "test",
                "--key", str(corpus / "key_test.txt"), "--languages", TRAIN_LANGS,
                "--out", str(out),
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_divergent_training_exits_3(self, capsys, workdir, tmp_path):
        code, _, err = run(
            capsys, "train", "--corpus", str(workdir / "corpus"),
            "--languages", TRAIN_LANGS, "--out", str(tmp_path / "bad.bin"),
            "--set", "train.learn_rate=1e18", "--set", "train.epochs=3",
        )
        assert code == 3
        assert err.startswith("error:")
        assert not (tmp_path / "bad.bin").exists()

    def test_scores_carry_stamp_but_parse_cleanly(self, workdir):
        corpus = workdir / "corpus"
        text = (workdir / "scores.txt").read_text()
        assert text.startswith("# stamp config=")
        key = sub.read_key_file(corpus / "key_test.txt")
        assert len(sub.parse_scores(text, key.language_list)) == len(key.entries)


def data_lines(path):
    return [line for line in Path(path).read_text().splitlines() if not line.startswith("#")]


class TestLabelOrder:
    """Closed-set scoring needs the model's whole label order, from
    ``--languages`` or else from the key; a mismatch exits 2 before any WAV
    is read."""

    @pytest.mark.parametrize("split, languages, named", [
        ("test", "x,y,alpha,bravo,charlie", ["x", "y"]),
        ("test", "alpha,bravo,charlie,delta", ["delta"]),
        ("zr_test", None, ["delta", "echo"]),  # the key's two languages, a 3-class model
        ("test", "alpha,bravo,delta", ["charlie", "delta"]),  # charlie is missing
    ])
    def test_mismatch_exits_2_before_any_wav_and_writes_nothing(
        self, capsys, damaged_corpus, tmp_path, monkeypatch, split, languages, named
    ):
        corpus, model = damaged_corpus
        key, scores = corpus / f"key_{split}.txt", tmp_path / "scores.txt"

        def no_wav(*args):
            raise AssertionError("a WAV was read")

        monkeypatch.setattr(dsp, "read_wav", no_wav)
        flags = ["--languages", languages] if languages else []
        code, _, err = run(capsys, "score", "--model", str(model), "--corpus", str(corpus),
                           "--split", split, "--key", str(key), *flags, "--out", str(scores))
        assert code == 2
        where = "--languages" if languages else f"{key} (no --languages)"
        assert err.startswith(f"error: {where}: key languages ") and err.count("\n") == 1
        assert "3-class model" in err and all(repr(lang) in err for lang in named)
        assert not scores.exists()

    @pytest.mark.parametrize("mode, flag, value", [
        ("closed", "--enrolled", "enrolled.txt"),
        ("zero", "--languages", "delta,echo"),
    ])
    def test_flag_of_the_other_mode_exits_1_before_any_read(self, capsys, tmp_path, mode,
                                                             flag, value):
        # every input is missing, so a read would exit 2
        gone = tmp_path / "missing"
        enrolled = ["--enrolled", str(gone / "enrolled.txt")] if mode == "zero" else []
        code, out, err = run(
            capsys, "score", "--model", str(gone / "model.bin"), "--corpus", str(gone),
            "--split", "test", "--key", str(gone / "key.txt"), "--mode", mode, *enrolled,
            flag, value, "--out", str(tmp_path / "scores.txt"),
        )
        assert (code, out, err) == (1, "", f"error: {flag} does not apply to --mode {mode}\n")

    def test_zero_mode_without_enrolled_is_a_usage_error(self, capsys, damaged_corpus,
                                                          tmp_path):
        corpus, model = damaged_corpus
        scores = tmp_path / "scores.txt"
        code, _, err = run(capsys, "score", "--model", str(model), "--corpus", str(corpus),
                           "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
                           "--mode", "zero", "--out", str(scores))
        assert code == 1
        assert err == "error: zero mode requires --enrolled\n"
        assert not scores.exists()


class TestSegmentFailures:
    """The CLI and ``run_task`` load segments through one path, so on a
    corpus with an unreadable WAV they write the same score lines."""

    def test_closed_score_matches_run_task(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        scores = tmp_path / "scores.txt"
        code, _, _ = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "test", "--key", str(corpus / "key_test.txt"),
            "--languages", TRAIN_LANGS, "--out", str(scores),
        )
        assert code == 0
        plan = harness.ExperimentPlan(
            task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS.split(","), seed=8,
            crop_seconds=100.0,  # longer than any utterance
        )
        result = harness.run_task(
            plan, corpus, tmp_path / "task", params=net.load_params(model.read_bytes())
        )
        assert data_lines(scores) == data_lines(result.score_path)
        assert data_lines(scores)[-1].split() == [TRUNCATED["test"]] + ["-inf"] * 3

    def enroll(self, capsys, corpus, model, tmp_path):
        """The enrolled-models file of the corpus's reference split."""
        refs, enrolled = tmp_path / "refs.txt", tmp_path / "enrolled.txt"
        refs.write_text("".join(
            f"{e.language} {corpus / e.path}\n"
            for e in harness.read_manifest(corpus) if e.split == "reference"
        ))
        code, _, _ = run(
            capsys, "enroll", "--model", str(model), "--refs", str(refs), "--out", str(enrolled)
        )
        assert code == 0
        return enrolled

    def zero_score(self, capsys, corpus, model, enrolled, scores):
        return run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
            "--mode", "zero", "--enrolled", str(enrolled), "--out", str(scores),
        )

    def test_zero_score_matches_run_task(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        enrolled, scores = self.enroll(capsys, corpus, model, tmp_path), tmp_path / "zscores.txt"
        code, _, _ = self.zero_score(capsys, corpus, model, enrolled, scores)
        assert code == 0
        plan = harness.ExperimentPlan(
            task=harness.ZERO_RESOURCE, train_languages=TRAIN_LANGS.split(","),
            zero_languages=["delta", "echo"], seed=8,
        )
        result = harness.run_task(
            plan, corpus, tmp_path / "task", params=net.load_params(model.read_bytes())
        )
        assert data_lines(scores) == data_lines(result.score_path)
        assert data_lines(scores)[-1].split() == [TRUNCATED["zr_test"]] + ["-inf"] * 2

    def test_zero_score_leaves_out_an_enrolled_language_not_in_the_key(
        self, capsys, damaged_corpus, tmp_path
    ):
        # a zero-norm centroid would log one warning per segment if scored
        corpus, model = damaged_corpus
        enrolled = self.enroll(capsys, corpus, model, tmp_path)
        code, _, _ = self.zero_score(capsys, corpus, model, enrolled, tmp_path / "without.txt")
        assert code == 0
        dim = net.load_params(model.read_bytes()).weights[net.EMBED_LAYER].shape[0]
        with_zulu = tmp_path / "with_zulu.txt"
        with_zulu.write_text(enrolled.read_text() + "zulu 1" + " 0" * dim + "\n")
        code, _, err = self.zero_score(capsys, corpus, model, with_zulu, tmp_path / "with.txt")
        assert code == 0
        assert "zero-resource scoring" not in err
        assert (tmp_path / "with.txt").read_bytes() == (tmp_path / "without.txt").read_bytes()

    def test_invalid_front_end_config_exits_2_without_output(
        self, capsys, damaged_corpus, tmp_path
    ):
        corpus, model = damaged_corpus
        scores = tmp_path / "scores.txt"
        code, _, err = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "test", "--key", str(corpus / "key_test.txt"),
            "--languages", TRAIN_LANGS, "--out", str(scores), "--set", "feat.fft_size=128",
        )
        assert code == 2
        assert len(err.strip().splitlines()) == 1 and err.startswith("error:")
        assert not scores.exists()

    def test_refs_line_without_path_exits_2_with_file_line(
        self, capsys, damaged_corpus, tmp_path
    ):
        corpus, model = damaged_corpus
        refs = tmp_path / "refs.txt"
        refs.write_text(f"delta {corpus / 'wav' / 'delta-reference-0000.wav'}\necho\n")
        code, _, err = run(
            capsys, "enroll", "--model", str(model), "--refs", str(refs),
            "--out", str(tmp_path / "enrolled.txt"),
        )
        assert code == 2
        assert err.startswith(f"error: {refs}:2: ")

    def test_key_language_not_enrolled_exits_2(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        enrolled = tmp_path / "enrolled.txt"
        enrolled.write_text("delta 3 0.5 0.25\n")
        code, _, err = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
            "--mode", "zero", "--enrolled", str(enrolled), "--out", str(tmp_path / "z.txt"),
        )
        assert code == 2
        assert str(enrolled) in err and "echo" in err

    def test_malformed_enrolled_file_exits_2_with_file_line(
        self, capsys, damaged_corpus, tmp_path
    ):
        corpus, model = damaged_corpus
        enrolled = tmp_path / "enrolled.txt"
        enrolled.write_text("delta 3 0.5 0.25\necho 3 nan 0.25\n")
        scores = tmp_path / "z.txt"
        code, _, err = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
            "--mode", "zero", "--enrolled", str(enrolled), "--out", str(scores),
        )
        assert code == 2
        assert err.startswith(f"error: {enrolled}:2: ")
        assert not scores.exists()

    def test_language_enrolled_twice_exits_2_with_file_line(
        self, capsys, damaged_corpus, tmp_path
    ):
        corpus, model = damaged_corpus
        enrolled = tmp_path / "enrolled.txt"
        enrolled.write_text("delta 3 0.5 0.25\necho 3 1 1\ndelta 4 -1 2\n")
        scores = tmp_path / "z.txt"
        code, _, err = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
            "--mode", "zero", "--enrolled", str(enrolled), "--out", str(scores),
        )
        assert code == 2
        assert err == f"error: {enrolled}:3: language 'delta' enrolled twice\n"
        assert not scores.exists()

    def test_enrolled_file_without_models_exits_2_naming_it(
        self, capsys, damaged_corpus, tmp_path
    ):
        corpus, model = damaged_corpus
        enrolled = tmp_path / "enrolled.txt"
        enrolled.write_text("# stamp config=0 seed=0\n")
        code, _, err = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
            "--mode", "zero", "--enrolled", str(enrolled), "--out", str(tmp_path / "z.txt"),
        )
        assert code == 2
        assert err == f"error: {enrolled}: no enrolled languages found\n"

    def test_bad_manifest_line_exits_2_with_file_line(self, capsys, damaged_corpus, tmp_path):
        corpus, _ = damaged_corpus
        lines = (corpus / "manifest.txt").read_text().splitlines()
        (tmp_path / "manifest.txt").write_text(f"{lines[0]}\n{lines[1].rsplit(' ', 1)[0]}\n")
        code, _, err = run(
            capsys, "train", "--corpus", str(tmp_path), "--languages", TRAIN_LANGS,
            "--out", str(tmp_path / "m.bin"),
        )
        assert code == 2
        assert err.startswith(f"error: {tmp_path / 'manifest.txt'}:2: ")


class TestFilesNamed:
    """A text input that is not UTF-8, and a corrupt model, name their file."""

    BAD_LINE_2 = b"# first line\n\xff\xfe\n"

    def test_scores_key_and_config(self, capsys, worked_example, tmp_path):
        scores, key = worked_example
        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.BAD_LINE_2)
        for argv in (["--scores", str(bad), "--key", str(key)],
                     ["--scores", str(scores), "--key", str(bad)],
                     ["--scores", str(scores), "--key", str(key), "--config", str(bad)]):
            code, _, err = run(capsys, "evaluate", *argv)
            assert code == 2
            assert err == f"error: {bad}:2: not valid UTF-8\n"

    def test_manifest_refs_and_enrolled(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        bad = tmp_path / "bad.txt"
        bad.write_bytes(self.BAD_LINE_2)
        (tmp_path / "manifest.txt").write_bytes(self.BAD_LINE_2)
        out = str(tmp_path / "out.txt")
        commands = [
            (["train", "--corpus", str(tmp_path), "--languages", TRAIN_LANGS, "--out", out],
             tmp_path / "manifest.txt"),
            (["enroll", "--model", str(model), "--refs", str(bad), "--out", out], bad),
            (["score", "--model", str(model), "--corpus", str(corpus), "--split", "zr_test",
              "--key", str(corpus / "key_zr_test.txt"), "--mode", "zero",
              "--enrolled", str(bad), "--out", out], bad),
        ]
        for argv, named in commands:
            code, _, err = run(capsys, *argv)
            assert code == 2
            assert err == f"error: {named}:2: not valid UTF-8\n"
        assert not Path(out).exists()

    def test_corrupt_model(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        cut = tmp_path / "cut.bin"
        cut.write_bytes(model.read_bytes()[:100])
        code, _, err = run(
            capsys, "extract", "--model", str(cut), "--corpus", str(corpus),
            "--split", "test", "--out", str(tmp_path / "x.txt"),
        )
        assert code == 2
        assert err.startswith(f"error: {cut}: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("layer, change, message", [
        (3, {"offsets": ()}, "frame4: frame layer with no splice offsets"),
        (1, {"in_dim": 47}, "frame2: in_dim 47 != 3 x previous out_dim 16"),
    ])
    def test_model_with_bad_wiring(self, capsys, damaged_corpus, tmp_path, layer, change,
                                   message):
        corpus, model = damaged_corpus
        params = net.load_params(model.read_bytes())
        spec = params.specs[layer] = replace(params.specs[layer], **change)
        params.weights[spec.name] = params.weights[spec.name][:, :spec.in_dim]
        bad = tmp_path / "bad.bin"
        bad.write_bytes(net.save_params(params))
        code, _, err = run(
            capsys, "score", "--model", str(bad), "--corpus", str(corpus), "--split", "test",
            "--key", str(corpus / "key_test.txt"), "--languages", TRAIN_LANGS,
            "--out", str(tmp_path / "s.txt"),
        )
        assert code == 2
        assert err == f"error: {bad}: {message}\n"


class TestTooFewFrames:
    """A segment that keeps too few frames for the network is skipped like
    an unreadable one: every command leaves it out, and ``score`` and
    ``run_task`` fill it as a lost trial."""

    def test_closed_score_fills_it_last_like_run_task(self, capsys, short_corpus, tmp_path):
        corpus, model = short_corpus
        scores = tmp_path / "scores.txt"
        code, _, err = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "test", "--key", str(corpus / "key_test.txt"),
            "--languages", TRAIN_LANGS, "--out", str(scores),
        )
        assert code == 0
        assert f"skipping {SHORT['test']} (need at least 15 frames" in err
        plan = harness.ExperimentPlan(
            task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS.split(","), seed=9,
            crop_seconds=100.0,  # longer than any utterance
        )
        result = harness.run_task(
            plan, corpus, tmp_path / "task", params=net.load_params(model.read_bytes())
        )
        assert data_lines(scores) == data_lines(result.score_path)
        assert data_lines(scores)[-1].split() == [SHORT["test"]] + ["-inf"] * 3

    def refs(self, corpus, path, skip=None):
        path.write_text("".join(
            f"{e.language} {corpus / e.path}\n" for e in harness.read_manifest(corpus)
            if e.split == "reference" and e.utt_id != skip
        ))
        return path

    def test_zero_score_fills_it_last_like_run_task(self, capsys, short_corpus, tmp_path):
        corpus, model = short_corpus
        enrolled, scores = tmp_path / "enrolled.txt", tmp_path / "zscores.txt"
        refs = self.refs(corpus, tmp_path / "refs.txt")
        code, _, _ = run(
            capsys, "enroll", "--model", str(model), "--refs", str(refs), "--out", str(enrolled)
        )
        assert code == 0
        code, _, _ = run(
            capsys, "score", "--model", str(model), "--corpus", str(corpus),
            "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
            "--mode", "zero", "--enrolled", str(enrolled), "--out", str(scores),
        )
        assert code == 0
        plan = harness.ExperimentPlan(
            task=harness.ZERO_RESOURCE, train_languages=TRAIN_LANGS.split(","),
            zero_languages=["delta", "echo"], seed=9,
        )
        result = harness.run_task(
            plan, corpus, tmp_path / "task", params=net.load_params(model.read_bytes())
        )
        assert data_lines(scores) == data_lines(result.score_path)
        assert data_lines(scores)[-1].split() == [SHORT["zr_test"]] + ["-inf"] * 2

    def test_extract_leaves_it_out(self, capsys, short_corpus, tmp_path):
        corpus, model = short_corpus
        xvecs = tmp_path / "xvec.txt"
        code, _, _ = run(
            capsys, "extract", "--model", str(model), "--corpus", str(corpus),
            "--split", "test", "--out", str(xvecs),
        )
        assert code == 0
        key = sub.read_key_file(corpus / "key_test.txt")
        ids = [line.split()[0] for line in data_lines(xvecs)]
        assert ids == [seg for seg in key.entries if seg != SHORT["test"]]

    def test_enroll_matches_enrolling_without_it(self, capsys, short_corpus, tmp_path):
        corpus, model = short_corpus
        short_wav = corpus / "wav" / f"{SHORT['reference']}.wav"
        outputs = []
        for name, skip in (("all", None), ("without", SHORT["reference"])):
            refs = self.refs(corpus, tmp_path / f"refs_{name}.txt", skip)
            outputs.append(tmp_path / f"enrolled_{name}.txt")
            code, _, err = run(
                capsys, "enroll", "--model", str(model), "--refs", str(refs),
                "--out", str(outputs[-1]),
            )
            assert code == 0
            assert (f"skipping {short_wav} (need at least 15 frames" in err) == (skip is None)
        assert outputs[0].read_bytes() == outputs[1].read_bytes()


class TestLogging:
    def score_argv(self, corpus, model, out):
        return ["score", "--model", str(model), "--corpus", str(corpus), "--split", "test",
                "--key", str(corpus / "key_test.txt"), "--languages", TRAIN_LANGS,
                "--out", str(out)]

    def test_each_call_logs_to_its_own_stderr(self, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        seen = []

        class Collect(logging.Handler):
            def emit(self, record):
                seen.append(record.getMessage())

        root_handler = Collect(logging.WARNING)
        logging.getLogger().addHandler(root_handler)
        captures = [io.StringIO(), io.StringIO()]
        try:
            for i, err in enumerate(captures):
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    assert cli.main(self.score_argv(corpus, model, tmp_path / f"s{i}.txt")) == 0
        finally:
            logging.getLogger().removeHandler(root_handler)
        skip = f"skipping {TRUNCATED['test']} "
        for err in captures:
            assert err.getvalue().count(skip) == 1
        # records still reach the root logger's handlers
        assert sum(msg.startswith(skip) for msg in seen) == 2

    def test_verbose_logs_training_steps_then_restores_level(
        self, capsys, damaged_corpus, tmp_path
    ):
        corpus, _ = damaged_corpus
        pkg_log = logging.getLogger("lidkit")
        level = pkg_log.level
        code, _, err = run(
            capsys, "-v", "train", "--corpus", str(corpus), "--languages", TRAIN_LANGS,
            "--out", str(tmp_path / "m.bin"), "--set", "train.epochs=1",
        )
        assert code == 0
        assert "lidkit.harness: step 1 loss " in err
        assert pkg_log.level == level and not pkg_log.handlers
        code, _, err = run(
            capsys, "train", "--corpus", str(corpus), "--languages", TRAIN_LANGS,
            "--out", str(tmp_path / "m.bin"), "--set", "train.epochs=1",
        )
        assert code == 0 and "step 1 loss" not in err


ZR_IDS = ["delta-zr_test-0000", "echo-zr_test-0001", TRUNCATED["zr_test"], "s1"]


def lines(rows):
    """Text of one line per ``(first, rest)`` pair of ``rows``."""
    return "\n".join(" ".join([first, *rest]) for first, rest in rows)


def score_rows(values):
    """Up to 5 lines: a segment id, then two of ``values``."""
    pair = st.lists(st.sampled_from(values), min_size=2, max_size=2)
    return st.lists(st.tuples(st.sampled_from(ZR_IDS), pair), max_size=5).map(lines)


def key_rows(languages):
    """A ``delta echo`` key with one trial of each, then up to 3 more ids,
    each with one of ``languages``."""
    more = st.dictionaries(st.sampled_from(ZR_IDS[2:] + ["s2"]),
                           st.sampled_from(languages).map(lambda lang: [lang]), max_size=3)
    head = f"delta echo\n{ZR_IDS[0]} delta\n{ZR_IDS[1]} echo\n"
    return more.map(lambda rows: head + lines(rows.items()))


def model_rows(dims):
    """A ``delta`` and an ``echo`` line: a count, then a centroid of one of ``dims``."""
    def rows(dim):
        centroid = st.lists(st.sampled_from(["0.5", "-1", "0", "2e-3"]), min_size=dim, max_size=dim)
        rest = st.tuples(st.sampled_from(["3", "0"]), centroid).map(lambda t: [t[0], *t[1]])
        return st.tuples(rest, rest).map(lambda pair: lines(zip(["delta", "echo"], pair)))
    return st.sampled_from(dims).flatmap(rows)


SCORE_TEXTS = st.one_of(
    score_rows(["0.5", "-1", "0.25", "3", "-inf"]),
    token_texts(["s1", ZR_IDS[0], "0.5", "-1", "-inf", "nan", "1_0", "1e400", "٣", "#"]),
)
KEY_TEXTS = st.one_of(
    key_rows(["delta", "echo", "OOS", "x"]),
    token_texts(["delta", "echo", "OOS", "s1", ZR_IDS[0], "#"]),
)
ENROLLED_TEXTS = st.one_of(
    model_rows([2, 16]),
    token_texts(["delta", "echo", "3", "0.5", "-1e3", "nan", "1_0", "٣", "#"]),
)


class TestCliTotality:
    """``validate``, ``evaluate`` and ``score --mode zero`` on arbitrary
    score, key and enrolled text: exit 0, or exit 2 with one ``error:``
    line that names a file it read. No other exception leaves ``cli.main``."""

    @staticmethod
    def outcome(argv, paths):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        errors = [line for line in err.getvalue().splitlines() if line.startswith("error:")]
        if code == 0:
            assert not errors, err.getvalue()
        else:
            assert code == 2, err.getvalue()
            assert errors == err.getvalue().splitlines()[-1:], err.getvalue()
            assert any(errors[0].startswith(f"error: {path}") for path in paths), errors

    @TOTALITY
    @given(scores=SCORE_TEXTS, key=KEY_TEXTS, enrolled=ENROLLED_TEXTS)
    def test_any_text_exits_0_or_2_naming_a_file(
        self, damaged_corpus, tmp_path_factory, scores, key, enrolled
    ):
        corpus, model = damaged_corpus
        root = tmp_path_factory.mktemp("totality")
        paths = [root / f"{name}.txt" for name in ("scores", "key", "enrolled")]
        for path, text in zip(paths, (scores, key, enrolled)):
            path.write_text(text, encoding="utf-8")
        scores_path, key_path, enrolled_path = map(str, paths)
        self.outcome(["validate", "--scores", scores_path, "--key", key_path,
                      "--out", str(root / "filled.txt")], [scores_path, key_path])
        self.outcome(["evaluate", "--scores", scores_path, "--key", key_path,
                      "--report", str(root / "report.txt"), "--det", str(root / "det.txt")],
                     [scores_path, key_path])
        self.outcome(["score", "--model", str(model), "--corpus", str(corpus),
                      "--split", "zr_test", "--key", key_path, "--mode", "zero",
                      "--enrolled", enrolled_path, "--out", str(root / "zscores.txt")],
                     [key_path, enrolled_path])
