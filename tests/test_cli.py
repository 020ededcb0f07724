import contextlib
import hashlib
import io
import logging
import os
import subprocess
import sys
import wave
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import SHORT, TOTALITY, TRUNCATED, junk_chunk, token_texts
from lidkit import cli, dsp, harness, metrics, net, submission as sub
from lidkit.errors import parse_file

TRAIN_LANGS = "alpha,bravo,charlie"


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def closed_score(capsys, corpus, model, scores):
    """``score`` of the corpus's test split by the model's posteriors."""
    return run(capsys, "score", "--model", str(model), "--corpus", str(corpus),
               "--split", "test", "--key", str(corpus / "key_test.txt"),
               "--languages", TRAIN_LANGS, "--out", str(scores))


def enroll_references(capsys, corpus, model, tmp_path):
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


def zero_score(capsys, corpus, model, enrolled, scores):
    """``score`` of the corpus's zr_test split against the enrolled models."""
    return run(
        capsys, "score", "--model", str(model), "--corpus", str(corpus),
        "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
        "--mode", "zero", "--enrolled", str(enrolled), "--out", str(scores),
    )


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

    def test_det_of_several_blocks(self, capsys, tmp_path):
        # more distinct scores than two blocks of DET rows, written chunk by chunk
        ids = [f"s{i:05d}" for i in range(sub.BLOCK_ROWS)]
        values = np.random.default_rng(23).standard_normal((len(ids), 3))
        scores, key, det = tmp_path / "scores.txt", tmp_path / "key.txt", tmp_path / "det.txt"
        scores.write_text(sub.write_scores(sub.ScoreTable(ids, values)))
        key.write_text("A B C\n" + "".join(f"{s} {'ABC'[i % 3]}\n" for i, s in enumerate(ids)))
        code, _, _ = run(capsys, "evaluate", "--scores", str(scores), "--key", str(key),
                         "--det", str(det))
        assert code == 0
        trial_key = parse_file(key, sub.parse_key)
        table = parse_file(scores, lambda text: sub.parse_scores(text, trial_key.language_list))
        points = metrics.trials(table, trial_key).det
        assert len(points) > 2 * sub.BLOCK_ROWS
        stamp, text = det.read_text().split("\n", 1)
        assert stamp.startswith("# stamp config=")
        assert text == oracles.det_text_by_row(points)

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

    def test_evaluate_names_a_segment_the_key_does_not_hold(self, capsys, worked_example):
        # as validate does
        scores, key = worked_example
        scores.write_text(scores.read_text() + "stray 0 0\n")
        code, _, err = run(capsys, "evaluate", "--scores", str(scores), "--key", str(key))
        assert (code, err) == (0, "warning: segment 'stray' not in key, dropped\n")

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


    # SHA-256 of the report and DET files, stamp line included, for one fixed
    # score file holding an out-of-set segment, a -inf row and a lost trial
    @pytest.mark.parametrize("policy, report_sha, det_sha", [
        ("min_sweep", "0c3d998289e0a942963173b058e7afadd60e4df5e05120f0b96e18aa264dd8df",
         "4f06d9b1adb917e7eff8efea7e44d23b57f8944dcaf69271ecb0b37ba2e1d849"),
        ("fixed", "9ff05cd88ec5236fad06de29f819adcc1911169bc8e0de99a2f34ced8310a615",
         "f81e5161294352f0312e4759c3e6230a0b8d7f263b8a7225e04d1b97a664df34"),
    ], ids=["min_sweep", "fixed"])
    def test_report_and_det_bytes_are_pinned(self, capsys, tmp_path, policy, report_sha, det_sha):
        scores, key = tmp_path / "scores.txt", tmp_path / "key.txt"
        scores.write_text("s1 1.5 -0.25 0.5\ns2 -1 2 0.25\ns3 0.5 0.5 -1.5\ns4 -inf -inf -inf\n"
                          "s5 0.75 1 1.25\ns6 2 -0.5 -1\ns7 -0.5 0.25 1\n")
        key.write_text("A B C\ns1 A\ns2 B\ns3 C\ns4 A\ns5 OOS\ns6 A\ns7 C\ns8 B\n")
        report, det = tmp_path / "report.txt", tmp_path / "det.txt"
        code, _, err = run(capsys, "evaluate", "--scores", str(scores), "--key", str(key),
                           "--report", str(report), "--det", str(det),
                           "--set", f"eval.policy={policy}")
        assert (code, err) == (0, "warning: 1 lost trial filled with -inf\n")
        assert hashlib.sha256(report.read_bytes()).hexdigest() == report_sha
        assert hashlib.sha256(det.read_bytes()).hexdigest() == det_sha


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

    def test_generate_takes_no_jobs(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path / "c"), "--jobs", "2")
        assert (code, err) == (1, "error: unrecognized arguments: --jobs 2\n")
        assert not (tmp_path / "c").exists()

    # only generate and train draw random numbers
    @pytest.mark.parametrize("command", [
        ["score", "--model", "m", "--corpus", "c", "--split", "test", "--key", "k", "--out"],
        ["extract", "--model", "m", "--corpus", "c", "--split", "test", "--out"],
        ["enroll", "--model", "m", "--refs", "r", "--out"],
        ["validate", "--scores", "s", "--key", "k", "--out"],
        ["evaluate", "--scores", "s", "--key", "k", "--report"],
    ], ids=lambda command: command[0])
    def test_seed_belongs_to_generate_and_train_only(self, capsys, tmp_path, command):
        out = tmp_path / "o"
        code, _, err = run(capsys, *command, str(out), "--seed", "1")
        assert (code, err) == (1, "error: unrecognized arguments: --seed 1\n")
        assert not out.exists()

    def test_sample_rate_is_not_a_setting(self, capsys, tmp_path):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path / "c"),
                           "--set", "feat.sample_rate=16000")
        assert (code, err) == (2, "error: unknown config key 'feat.sample_rate'\n")
        assert not (tmp_path / "c").exists()

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

    LANGUAGES_COMMANDS = [
        ["train", "--corpus", "c"],
        ["score", "--model", "m", "--corpus", "c", "--split", "test", "--key", "k"],
    ]

    @pytest.mark.parametrize("command", LANGUAGES_COMMANDS)
    def test_fewer_than_two_languages_exits_1_naming_the_flag(self, capsys, tmp_path, command):
        out = tmp_path / "o"
        code, _, err = run(capsys, *command, "--out", str(out), "--languages", "alpha")
        assert code == 1
        assert err == "error: argument --languages: expected at least 2 languages, got 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("languages", ["alpha,,bravo", ",alpha,bravo,", "alpha,", ",", ""])
    @pytest.mark.parametrize("command", LANGUAGES_COMMANDS)
    def test_empty_language_exits_1_naming_the_flag(self, capsys, tmp_path, command, languages):
        out = tmp_path / "o"
        code, _, err = run(capsys, *command, "--out", str(out), "--languages", languages)
        assert code == 1
        assert err == f"error: argument --languages: empty language in {languages!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", "x", "1.5"])
    def test_seed_not_a_non_negative_integer_exits_1_naming_the_flag(
        self, capsys, tmp_path, seed
    ):
        code, _, err = run(capsys, "generate", "--out", str(tmp_path / "c"), "--seed", seed)
        assert code == 1
        assert err == (
            f"error: argument --seed: expected a non-negative integer, got {seed!r}\n")
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
        dsp.write_wav(tmp_path / "wav" / "u1.wav", samples)
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
        key = parse_file(corpus / "key_test.txt", sub.parse_key)
        assert len(lines) == len(key.entries)

    def test_embedding_width_is_read_from_the_first_dense_layer(self, capsys, workdir, tmp_path):
        # the x-vector is the first dense layer's output, whatever its name
        corpus = workdir / "corpus"
        original = workdir / "model.bin"
        renamed = tmp_path / "renamed.bin"
        renamed.write_bytes(original.read_bytes().replace(b"segment6", b"embedder", 1))
        refs = tmp_path / "refs.txt"
        refs.write_text("".join(f"{e.language} {corpus / e.path}\n"
                                for e in harness.read_manifest(corpus) if e.split == "reference"))
        outputs = {}
        for model in (original, renamed):
            out = tmp_path / model.stem
            enrolled = out / "enrolled.txt"
            for argv in (["extract", "--split", "test", "--out", out / "xvec.txt"],
                         ["enroll", "--refs", refs, "--out", enrolled],
                         ["score", "--split", "zr_test", "--key", corpus / "key_zr_test.txt",
                          "--mode", "zero", "--enrolled", enrolled, "--out", out / "z.txt"]):
                corpus_args = [] if argv[0] == "enroll" else ["--corpus", corpus]
                code, _, err = run(capsys, *map(str, [*argv, "--model", model, *corpus_args]))
                assert (code, err) == (0, "")
            outputs[model] = [(out / name).read_bytes() for name in ("xvec.txt", "z.txt")]
        assert outputs[original] == outputs[renamed]

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
        key = parse_file(corpus / "key_test.txt", sub.parse_key)
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

    def test_wav_at_another_rate_is_skipped_naming_the_rate(self, capsys, damaged_corpus,
                                                            tmp_path):
        corpus, model = damaged_corpus
        (tmp_path / "wav").mkdir()
        (tmp_path / "wav" / "good.wav").write_bytes((corpus / "wav" / "alpha-test-0000.wav")
                                                    .read_bytes())
        slow = tmp_path / "wav" / "slow.wav"
        with contextlib.closing(wave.open(str(slow), "wb")) as fh:
            fh.setnchannels(1)
            fh.setsampwidth(2)
            fh.setframerate(8000)
            fh.writeframes(bytes(16000))
        (tmp_path / "manifest.txt").write_text("good alpha wav/good.wav test\n"
                                               "slow alpha wav/slow.wav test\n")
        out = tmp_path / "xvec.txt"
        code, _, err = run(capsys, "extract", "--model", str(model), "--corpus", str(tmp_path),
                           "--split", "test", "--out", str(out))
        assert code == 0
        assert f"skipping slow ({slow}: expected 16000 Hz, got 8000 Hz)" in err
        assert [line.split()[0] for line in data_lines(out)] == ["good"]

    def test_wav_with_a_chunk_past_its_end_is_skipped_and_filled(self, capsys, damaged_corpus,
                                                                 tmp_path):
        corpus, model = damaged_corpus
        (tmp_path / "wav").mkdir()
        wav = (corpus / "wav" / "alpha-test-0000.wav").read_bytes()
        (tmp_path / "wav" / "good.wav").write_bytes(wav)
        junk = tmp_path / "wav" / "junk.wav"
        junk.write_bytes(junk_chunk(wav))
        (tmp_path / "manifest.txt").write_text("good alpha wav/good.wav test\n"
                                               "junk bravo wav/junk.wav test\n")
        key = tmp_path / "key.txt"
        key.write_text("alpha bravo charlie\ngood alpha\njunk bravo\n")
        scores = tmp_path / "scores.txt"
        code, _, err = run(capsys, "score", "--model", str(model), "--corpus", str(tmp_path),
                           "--split", "test", "--key", str(key), "--languages", TRAIN_LANGS,
                           "--out", str(scores))
        assert code == 0
        assert err == (f"lidkit.harness: skipping junk ({junk}: not a readable WAV file "
                       "(a chunk runs past the RIFF end))\n"
                       "warning: 1 lost trial filled with -inf\n")
        assert [line.split() for line in data_lines(scores)][1] == ["junk"] + ["-inf"] * 3

    def test_closed_score_matches_run_task(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        scores = tmp_path / "scores.txt"
        code, _, _ = closed_score(capsys, corpus, model, scores)
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

    def test_zero_score_matches_run_task(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        enrolled, scores = enroll_references(capsys, corpus, model, tmp_path), tmp_path / "zscores.txt"
        code, _, _ = zero_score(capsys, corpus, model, enrolled, scores)
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
        corpus, model = damaged_corpus
        enrolled = enroll_references(capsys, corpus, model, tmp_path)
        code, _, _ = zero_score(capsys, corpus, model, enrolled, tmp_path / "without.txt")
        assert code == 0
        dim = net.load_params(model.read_bytes()).weights[net.EMBED_LAYER].shape[0]
        with_zulu = tmp_path / "with_zulu.txt"
        with_zulu.write_text(enrolled.read_text() + "zulu 1" + " 0.5" * dim + "\n")
        code, _, _ = zero_score(capsys, corpus, model, with_zulu, tmp_path / "with.txt")
        assert code == 0
        assert (tmp_path / "with.txt").read_bytes() == (tmp_path / "without.txt").read_bytes()

    def test_zero_norm_centroid_exits_2_naming_its_line(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        enrolled, scores = enroll_references(capsys, corpus, model, tmp_path), tmp_path / "zscores.txt"
        lines = enrolled.read_text().splitlines(keepends=True)
        line_no = next(i for i, line in enumerate(lines, 1) if line.startswith("echo "))
        dim = len(lines[line_no - 1].split()) - 2
        lines[line_no - 1] = "echo 3" + " 0" * dim + "\n"
        enrolled.write_text("".join(lines))
        code, out, err = zero_score(capsys, corpus, model, enrolled, scores)
        assert (code, out) == (2, "")
        assert err == f"error: {enrolled}:{line_no}: zero-norm centroid for 'echo'\n"
        assert not scores.exists()

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

    @pytest.mark.parametrize("text", ["", "# only a comment\n\n"])
    def test_refs_without_a_reference_exits_2_naming_the_file(
        self, capsys, damaged_corpus, tmp_path, text
    ):
        _, model = damaged_corpus
        refs, enrolled = tmp_path / "refs.txt", tmp_path / "enrolled.txt"
        refs.write_text(text)
        code, out, err = run(capsys, "enroll", "--model", str(model), "--refs", str(refs),
                             "--out", str(enrolled))
        assert (code, out, err) == (2, "", f"error: {refs}: no 'language wav-path' line found\n")
        assert not enrolled.exists()

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
        enrolled.write_text("# stamp config=0\n")
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


class TestOutputBytes:
    """SHA-256 of the text outputs on the damaged corpus: the score, report
    and DET files of each ``run_task`` task, ``score``'s closed-set and
    zero-resource scores, ``extract``'s x-vectors and ``enroll``'s models.
    A change to the front end, the network or the back-ends that moves a
    single output bit fails here. The model is the fixture's, so its bytes
    (which follow the BLAS kernel) are not pinned themselves."""

    PLANS = {
        harness.SHORT_UTTERANCE: {},
        harness.CROSS_CHANNEL: {"channel": harness.ChannelSpec(cutoff_hz=2000.0, snr_db=5.0)},
        harness.ZERO_RESOURCE: {"zero_languages": ["delta", "echo"]},
    }
    RUN_TASK_SHA = {  # scores, report, DET
        harness.SHORT_UTTERANCE: (
            "eb45005e5730f7db03ff2a0cb46977b22f23af5989402d62736b240b11540f8c",
            "55be0d13fd1aa2ec78d72bb3d28255b2efc3e5309c220efc41ba15eec286a91d",
            "11458ea5284eb1bee6aca0ff7c12cc25c1e95934db99c2aee9e04adccc253aea"),
        harness.CROSS_CHANNEL: (
            "27a1dd35a9d8e6fc8ae7955e1f2d105de350eb5a287d3a1476bea60af1be1601",
            "50e323c16b7797d1f5a16c797bafb414e498c9710fd7aee12ecc83b504c2f6b3",
            "3547e7db9ba7615764501cc5546549151a1e1a95647744a9991452577288d4a1"),
        harness.ZERO_RESOURCE: (
            "924d137762a08ec758e000d60e6459b87793a6c1f4cfb1f8e236d47d144e62ed",
            "2a8f00c30d5a40de574bd134044d55c3d444310206191ac6115dba3cd424ab5b",
            "07cf99e864dc0203da68aa3da32a479b5854b9f2ea9dec9a6cac851b7778c11f"),
    }
    SCORE_SHA = {
        "closed": "833ba3581d235652b087d3d503f20e662cd1ef73868d17b8bed4f4e109782690",
        "zero": "f14f31220198c4ba330241603b1ddb21837f452561fb729e37101b9cfa65e96b",
    }
    EXTRACT_SHA = "3152f9d389fac12b7a9a47e4d04f3e4a91499835c9c33ce36270c80e23743ac5"
    ENROLL_SHA = "e3ca3a293146ed3cc1835acdf7117ccfb22cd9ae3cc6234b0d15de6e90defab2"

    @pytest.mark.parametrize("task", list(PLANS))
    def test_run_task_outputs_are_pinned(self, damaged_corpus, tmp_path, task):
        corpus, model = damaged_corpus
        plan = harness.ExperimentPlan(task, TRAIN_LANGS.split(","), seed=8, **self.PLANS[task])
        result = harness.run_task(plan, corpus, tmp_path,
                                  params=net.load_params(model.read_bytes()))
        digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                        for path in (result.score_path, result.report_path, result.det_path))
        assert digests == self.RUN_TASK_SHA[task]

    def test_score_outputs_are_pinned(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        closed, zero = tmp_path / "closed.txt", tmp_path / "zero.txt"
        assert closed_score(capsys, corpus, model, closed)[0] == 0
        enrolled = enroll_references(capsys, corpus, model, tmp_path)
        assert zero_score(capsys, corpus, model, enrolled, zero)[0] == 0
        digests = {mode: hashlib.sha256(path.read_bytes()).hexdigest()
                   for mode, path in (("closed", closed), ("zero", zero))}
        assert digests == self.SCORE_SHA

    def test_extract_output_is_pinned(self, capsys, damaged_corpus, tmp_path):
        corpus, model = damaged_corpus
        xvectors = tmp_path / "xvec.txt"
        code, _, _ = run(capsys, "extract", "--model", str(model), "--corpus", str(corpus),
                         "--split", "test", "--out", str(xvectors))
        assert code == 0
        assert hashlib.sha256(xvectors.read_bytes()).hexdigest() == self.EXTRACT_SHA

    def test_enroll_output_is_pinned(self, capsys, damaged_corpus, tmp_path):
        # the reference split, plus the truncated zr_test WAV, which enroll skips
        corpus, model = damaged_corpus
        refs, enrolled = tmp_path / "refs.txt", tmp_path / "enrolled.txt"
        entries = [e for e in harness.read_manifest(corpus) if e.split == "reference"]
        refs.write_text("".join(f"{e.language} {corpus / e.path}\n" for e in entries)
                        + f"echo {corpus / 'wav' / TRUNCATED['zr_test']}.wav\n")
        code, _, _ = run(capsys, "enroll", "--model", str(model), "--refs", str(refs),
                         "--out", str(enrolled))
        assert code == 0
        assert hashlib.sha256(enrolled.read_bytes()).hexdigest() == self.ENROLL_SHA


    def test_outputs_do_not_depend_on_the_segment_threads(self, capsys, damaged_corpus,
                                                          tmp_path, segment_threads):
        corpus, model = damaged_corpus
        for task, extra in self.PLANS.items():
            plan = harness.ExperimentPlan(task, TRAIN_LANGS.split(","), seed=8, **extra)
            result = harness.run_task(plan, corpus, tmp_path,
                                      params=net.load_params(model.read_bytes()))
            digests = tuple(hashlib.sha256(path.read_bytes()).hexdigest()
                            for path in (result.score_path, result.report_path, result.det_path))
            assert digests == self.RUN_TASK_SHA[task]
        self.test_score_outputs_are_pinned(capsys, damaged_corpus, tmp_path)
        self.test_extract_output_is_pinned(capsys, damaged_corpus, tmp_path)
        self.test_enroll_output_is_pinned(capsys, damaged_corpus, tmp_path)

    def test_score_bytes_do_not_depend_on_declaring_blas_threads(self, damaged_corpus,
                                                                 tmp_path):
        # in a new process each: no BLAS variable (one segment thread, BLAS
        # threads as it likes) and OPENBLAS_NUM_THREADS=1 (a thread per CPU)
        corpus, model = damaged_corpus
        env = {name: value for name, value in os.environ.items()
               if name not in harness.BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(harness.__file__).parents[1]),
                                             env.get("PYTHONPATH", "")])
        digests = set()
        for declared in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
            scores = tmp_path / f"scores{len(declared)}.txt"
            subprocess.run([sys.executable, "-m", "lidkit.cli", "score", "--model", str(model),
                            "--corpus", str(corpus), "--split", "test",
                            "--key", str(corpus / "key_test.txt"), "--languages", TRAIN_LANGS,
                            "--out", str(scores)],
                           env={**env, **declared}, check=True, capture_output=True, timeout=120)
            digests.add(hashlib.sha256(scores.read_bytes()).hexdigest())
        assert digests == {self.SCORE_SHA["closed"]}


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

    def test_a_byte_order_mark_is_refused(self, capsys, worked_example, tmp_path):
        # read as text, the mark would join the first token: a score file's
        # first segment would be dropped as "not in key" and filled as lost
        scores, key = worked_example
        config = tmp_path / "config.txt"
        config.write_text("eval.policy = fixed\n")
        files = {"--scores": scores, "--key": key, "--config": config}
        plain = [arg for flag, path in files.items() for arg in (flag, str(path))]
        assert run(capsys, "evaluate", *plain)[0] == 0
        for flag, path in files.items():
            bom = tmp_path / f"bom_{path.name}"
            bom.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
            argv = [arg for f, p in {**files, flag: bom}.items() for arg in (f, str(p))]
            code, _, err = run(capsys, "evaluate", *argv)
            assert (code, err) == (2, f"error: {bom}:1: starts with a UTF-8 byte-order mark\n")

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


class TestOverflowingNetwork:
    """A finite model whose network overflows on a segment stops ``score``
    and ``extract`` there: exit 3, one line, no file."""

    @pytest.mark.parametrize("command, flags", [
        ("score", ["--key", "key_test.txt", "--languages", TRAIN_LANGS]),
        ("extract", []),
    ])
    def test_exits_3_with_one_line_on_any_process_count(self, damaged_corpus, tmp_path,
                                                        command, flags):
        corpus, model = damaged_corpus
        params = net.load_params(model.read_bytes())
        for values in (params.weights, params.biases):
            for name in values:
                values[name] = values[name] * 1e60
        big = tmp_path / "big.bin"
        big.write_bytes(net.save_params(params))
        flags = [str(corpus / flag) if flag.endswith(".txt") else flag for flag in flags]
        argv = [command, "--model", str(big), "--corpus", str(corpus), "--split", "test",
                *flags, "--out", str(tmp_path / "out.txt")]
        # in a new process each, so that any numpy warning reaches its stderr,
        # with the segments on 1 or 3 processes
        script = ("import os, sys\nos.cpu_count = lambda: int(sys.argv[1])\n"
                  "from lidkit import cli\nsys.exit(cli.main(sys.argv[2:]))")
        env = {name: value for name, value in os.environ.items()
               if name not in harness.BLAS_THREAD_VARIABLES}
        env["PYTHONPATH"] = os.pathsep.join([str(Path(harness.__file__).parents[1]),
                                             env.get("PYTHONPATH", "")])
        env["OPENBLAS_NUM_THREADS"] = "1"
        errs = []
        for cpus in ("1", "3"):
            done = subprocess.run([sys.executable, "-c", script, cpus, *argv], env=env,
                                  capture_output=True, text=True, timeout=120)
            assert done.returncode == 3, done.stderr
            errs.append(done.stderr)
        assert errs == ["error: segment 'alpha-test-0000' has a non-finite value\n"] * 2
        assert [path.name for path in tmp_path.iterdir()] == ["big.bin"]


class TestUnknownSplit:
    """A ``--split`` that names no manifest entry exits 2 naming the
    manifest, before any WAV is read, and writes no file. Unchecked, score
    would write all -inf rows, extract an empty file, and train would blame
    a language."""

    @pytest.mark.parametrize("command", ["train", "extract", "score"])
    def test_exits_2_naming_the_manifest(self, capsys, damaged_corpus, tmp_path, monkeypatch,
                                         command):
        def no_wav(*args):
            raise AssertionError("a WAV was read")

        corpus, model = damaged_corpus
        monkeypatch.setattr(dsp, "read_wav", no_wav)
        flags = {"train": ["--languages", TRAIN_LANGS],
                 "extract": ["--model", str(model)],
                 "score": ["--model", str(model), "--key", str(corpus / "key_test.txt")]}
        code, out, err = run(capsys, command, "--corpus", str(corpus), "--split", "tset",
                             "--out", str(tmp_path / "out.txt"), *flags[command])
        manifest = corpus / "manifest.txt"
        assert (code, out, err) == (2, "", f"error: {manifest}: no entry in split 'tset'\n")
        assert list(tmp_path.iterdir()) == []


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
        key = parse_file(corpus / "key_test.txt", sub.parse_key)
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


def model_rows(dims, values=("0.5", "-1", "0", "2e-3")):
    """A ``delta`` and an ``echo`` line: a count, then a centroid of one of
    ``dims`` values, each one of ``values``."""
    def rows(dim):
        centroid = st.lists(st.sampled_from(values), min_size=dim, max_size=dim)
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

    @settings(TOTALITY, max_examples=40)
    @given(enrolled=model_rows([2, 16], ["0.5", "-1", "1e308", "-1e200", "1e154", "2e-3"]))
    def test_centroids_whose_squares_overflow_exit_0_or_2_naming_a_file(
        self, damaged_corpus, tmp_path_factory, enrolled
    ):
        corpus, model = damaged_corpus
        root = tmp_path_factory.mktemp("overflow")
        enrolled_path = root / "enrolled.txt"
        enrolled_path.write_text(enrolled, encoding="utf-8")
        self.outcome(["score", "--model", str(model), "--corpus", str(corpus),
                      "--split", "zr_test", "--key", str(corpus / "key_zr_test.txt"),
                      "--mode", "zero", "--enrolled", str(enrolled_path),
                      "--out", str(root / "zscores.txt")], [str(enrolled_path)])
