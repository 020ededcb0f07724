import contextlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import TOTALITY, token_texts
from lidkit import cli, config, dsp, harness
from lidkit.errors import InvalidConfig

TRAIN_LANGS = ["alpha", "bravo", "charlie"]


class TestParseConfig:
    def test_comments_and_blank_lines_ignored(self):
        text = "# recipe\n\ntrain.epochs = 3  # fewer\n   \nnet.frame_dim=32\n"
        assert config.parse_config(text) == {"train.epochs": "3", "net.frame_dim": "32"}

    def test_later_key_wins(self):
        assert config.parse_config("train.epochs = 3\ntrain.epochs = 5\n") == {
            "train.epochs": "5"
        }

    def test_line_without_equals_names_its_line(self):
        with pytest.raises(InvalidConfig, match="line 2: expected 'key = value'"):
            config.parse_config("train.epochs = 3\ntrain.epochs 5\n")

    def test_empty_key_names_its_line(self):
        with pytest.raises(InvalidConfig, match="line 3: empty key"):
            config.parse_config("\n# only a comment\n = 5\n")

    @TOTALITY
    @given(token_texts(["train.epochs", "=", "3", "a=b", "=5", "#", "# c", "\t", "é"]))
    def test_any_text_gives_pairs_or_a_line_error(self, text):
        try:
            config.parse_config(text)
        except InvalidConfig as err:
            assert err.line_no is not None


class TestResolve:
    def test_table_has_the_24_settable_keys(self):
        assert sorted(harness.CONFIG_DEFAULTS) == sorted(
            [f"feat.{name}" for name in (
                "frame_len", "frame_shift", "fft_size", "num_filters",
                "low_freq", "high_freq", "preemphasis", "floor")]
            + ["vad.offset", "vad.floor", "net.frame_dim", "net.stats_dim", "net.embed_dim",
               "train.epochs", "train.batch_size", "train.learn_rate", "eval.p_target", "eval.policy", "eval.threshold"]
            + [f"counts.{split}" for split in ("train", "dev", "test", "reference", "zr_test")]
        )

    def test_no_overrides_gives_the_defaults(self):
        assert config.resolve(harness.CONFIG_DEFAULTS, None) == harness.CONFIG_DEFAULTS
        assert config.resolve(harness.CONFIG_DEFAULTS, {}) == harness.CONFIG_DEFAULTS

    def test_values_take_their_defaults_type(self):
        cfg = config.resolve(
            harness.CONFIG_DEFAULTS,
            {"train.epochs": "3", "train.learn_rate": "0.1", "eval.policy": "fixed",
             "feat.low_freq": "2"},
        )
        assert cfg["train.epochs"] == 3 and type(cfg["train.epochs"]) is int
        assert cfg["train.learn_rate"] == 0.1
        assert cfg["eval.policy"] == "fixed"
        assert cfg["feat.low_freq"] == 2.0 and type(cfg["feat.low_freq"]) is float

    def test_string_and_typed_overrides_agree(self):
        strings = {"train.epochs": "3", "feat.low_freq": "2", "feat.floor": "1e-8"}
        typed = {"train.epochs": 3, "feat.low_freq": 2, "feat.floor": 1e-8}
        resolved = config.resolve(harness.CONFIG_DEFAULTS, strings)
        assert resolved == config.resolve(harness.CONFIG_DEFAULTS, typed)
        assert config.resolve(harness.CONFIG_DEFAULTS, resolved) == resolved

    def test_resolve_leaves_the_table_alone(self):
        before = dict(harness.CONFIG_DEFAULTS)
        config.resolve(harness.CONFIG_DEFAULTS, {"train.epochs": "3"})
        assert harness.CONFIG_DEFAULTS == before

    def test_unknown_key_named(self):
        with pytest.raises(InvalidConfig, match="'train.epoch'"):
            config.resolve(harness.CONFIG_DEFAULTS, {"train.epoch": "3"})
        # the crop is ExperimentPlan.crop_seconds, not a setting
        with pytest.raises(InvalidConfig, match="'crop.seconds'"):
            config.resolve(harness.CONFIG_DEFAULTS, {"crop.seconds": "1"})

    @pytest.mark.parametrize("key, value", [
        ("train.epochs", "three"),
        ("train.epochs", "3.5"),
        ("train.epochs", 3.5),
        ("train.epochs", True),
        ("train.learn_rate", "fast"),
        ("train.learn_rate", None),
        ("eval.policy", 1),
        ("feat.preemphasis", "nan"),
        ("eval.threshold", float("nan")),
    ])
    def test_wrong_type_named(self, key, value):
        with pytest.raises(InvalidConfig, match=key):
            config.resolve(harness.CONFIG_DEFAULTS, {key: value})

    def test_value_outside_its_choices_named(self):
        domains = harness.CONFIG_DOMAINS
        assert config.resolve(harness.CONFIG_DEFAULTS, {"eval.policy": "fixed"}, domains)[
            "eval.policy"] == "fixed"
        with pytest.raises(InvalidConfig, match="^eval.policy: .* got 'best'$"):
            config.resolve(harness.CONFIG_DEFAULTS, {"eval.policy": "best"}, domains)

    def test_every_key_but_the_threshold_has_a_domain_holding_its_default(self):
        defaults, domains = harness.CONFIG_DEFAULTS, harness.CONFIG_DOMAINS
        assert sorted(domains) == sorted(set(defaults) - {"eval.threshold"})
        for key, (_, test) in domains.items():
            assert test(defaults[key]), key
        assert config.resolve(defaults, defaults, domains) == defaults

    @pytest.mark.parametrize("key, inside, outside", [
        ("feat.preemphasis", ["0", "0.5"], ["1", "-0.1"]),
        ("feat.floor", ["1e-300"], ["0", "inf"]),
        ("vad.offset", ["-5", "0", "3"], ["inf", "-inf"]),
        ("eval.p_target", ["1e-9", "0.5"], ["0", "1"]),
        ("eval.threshold", ["inf", "-inf", "-3"], []),
        ("counts.train", ["1"], ["0", "-1"]),
    ])
    def test_domain_bounds(self, key, inside, outside):
        for value in inside:
            config.resolve(harness.CONFIG_DEFAULTS, {key: value}, harness.CONFIG_DOMAINS)
        for value in outside:
            with pytest.raises(InvalidConfig, match=f"^{key}: expected "):
                config.resolve(harness.CONFIG_DEFAULTS, {key: value}, harness.CONFIG_DOMAINS)


class TestUnknownKeys:
    def test_set_exits_2_naming_key_and_writes_nothing(self, capsys, tmp_path):
        out = tmp_path / "corpus"
        code = cli.main(["generate", "--out", str(out), "--set", "train.epoch=3"])
        err = capsys.readouterr().err
        assert code == 2
        assert "train.epoch" in err and err.startswith("error:")
        assert not out.exists()

    def test_config_file_exits_2_naming_key_and_writes_nothing(self, capsys, tmp_path):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("train.epochs = 3\ntrain.epoch = 3\n")
        scores, key, report = (tmp_path / name for name in ("s.txt", "k.txt", "r.txt"))
        scores.write_text("s1 1 2\ns2 -1 1\n")
        key.write_text("A B\ns1 A\ns2 B\n")
        code = cli.main(["evaluate", "--scores", str(scores), "--key", str(key),
                         "--report", str(report), "--config", str(cfg)])
        err = capsys.readouterr().err
        assert code == 2
        assert "train.epoch" in err
        assert not report.exists()

    def test_config_file_line_without_equals_names_file_and_line(self, capsys, tmp_path):
        cfg = tmp_path / "recipe.cfg"
        cfg.write_text("train.epochs = 3\ntrain.epochs 5\n")
        scores, key = tmp_path / "s.txt", tmp_path / "k.txt"
        scores.write_text("s1 1 2\ns2 -1 1\n")
        key.write_text("A B\ns1 A\ns2 B\n")
        code = cli.main(["evaluate", "--scores", str(scores), "--key", str(key),
                         "--config", str(cfg)])
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}:2: expected 'key = value', got 'train.epochs 5'\n"
        )

    def test_harness_raises_naming_key_and_writes_nothing(self, damaged_corpus, tmp_path):
        corpus, _ = damaged_corpus
        entries = [e for e in harness.read_manifest(corpus) if e.split == "train"]
        with pytest.raises(InvalidConfig, match="'train.epoch'"):
            harness.train_network(corpus, entries, TRAIN_LANGS, {"train.epoch": "3"})
        plan = harness.ExperimentPlan(task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS)
        with pytest.raises(InvalidConfig, match="'train.epoch'"):
            harness.run_task(plan, corpus, tmp_path / "out", {"train.epoch": "3"})
        assert not (tmp_path / "out").exists()

    def test_value_outside_its_choices_exits_2_naming_key(self, capsys, damaged_corpus, tmp_path):
        scores, key, report = (tmp_path / name for name in ("s.txt", "k.txt", "r.txt"))
        scores.write_text("s1 1 2\ns2 -1 1\n")
        key.write_text("A B\ns1 A\ns2 B\n")
        code = cli.main(["evaluate", "--scores", str(scores), "--key", str(key),
                         "--report", str(report), "--set", "eval.policy=best"])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: eval.policy: expected one of 'fixed', 'min_sweep', got 'best'\n"
        assert not report.exists()
        corpus, _ = damaged_corpus
        plan = harness.ExperimentPlan(task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS)
        with pytest.raises(InvalidConfig, match="^eval.policy: expected one of"):
            harness.run_task(plan, corpus, tmp_path / "out", {"eval.policy": "best"})
        assert not (tmp_path / "out").exists()

    def test_wrong_type_from_set_exits_2(self, capsys, tmp_path):
        out = tmp_path / "corpus"
        code = cli.main(["generate", "--out", str(out), "--set", "counts.train=many"])
        assert code == 2
        assert "counts.train" in capsys.readouterr().err
        assert not out.exists()


def in_domain(key, token):
    """Whether ``--set key=token`` lies in ``key``'s declared domain."""
    try:
        value = config.resolve(harness.CONFIG_DEFAULTS, {key: token})[key]
    except InvalidConfig:  # not of the default's type, or NaN
        return False
    return harness.CONFIG_DOMAINS.get(key, ("", lambda v: True))[1](value)


def cli_outcome(argv):
    """``cli.main(argv)``'s exit code and its ``error:`` lines, checked to
    be none on success and exactly the last stderr line otherwise."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    lines = err.getvalue().splitlines()
    errors = [line for line in lines if line.startswith("error:")]
    assert errors == ([] if code == 0 else lines[-1:]), err.getvalue()
    return code, errors


class TestDomains:
    """A value outside its key's domain exits 2 naming the key, before any
    file is read or written; any other value runs or fails cleanly."""

    POSITIVE = "expected a positive finite number, got"

    @pytest.mark.parametrize("setting, message", [
        ("train.batch_size=0", f"train.batch_size: {POSITIVE} 0"),
        ("train.batch_size=-2", f"train.batch_size: {POSITIVE} -2"),
        ("train.epochs=0", f"train.epochs: {POSITIVE} 0"),
        ("train.epochs=-1", f"train.epochs: {POSITIVE} -1"),
        ("train.learn_rate=-1", f"train.learn_rate: {POSITIVE} -1.0"),
        ("feat.preemphasis=5", "feat.preemphasis: expected a value in [0, 1), got 5.0"),
        ("vad.floor=0", f"vad.floor: {POSITIVE} 0.0"),
        ("feat.num_filters=0", f"feat.num_filters: {POSITIVE} 0"),
        # combinations of feat.* values, checked before any WAV is read
        ("feat.frame_len=0.00001", "feat.frame_len: 0 samples at 16000 Hz, "
                                   "expected at least 1"),
        ("feat.frame_shift=1e-9", "feat.frame_shift: 0 samples at 16000 Hz, "
                                  "expected at least 1"),
        ("feat.frame_len=0.05", "feat.frame_len: a frame of 800 samples exceeds "
                                "feat.fft_size 512"),
        ("feat.high_freq=9000", "feat.low_freq 20, feat.high_freq 9000: expected "
                                f"low < high <= {dsp.SAMPLE_RATE / 2:g}, half the sample rate"),
        # and the vad.floor that keeps digital silence, at log(feat.floor), out
        ("vad.floor=1e-12", "vad.floor 1e-12 is below feat.floor 1e-10: "
                            "frames at the energy floor would pass the VAD"),
    ])
    def test_train_exits_2_naming_the_keys_and_writes_nothing(
        self, capsys, damaged_corpus, tmp_path, setting, message
    ):
        corpus, _ = damaged_corpus
        out = tmp_path / "model.bin"
        code = cli.main(["train", "--corpus", str(corpus), "--languages", ",".join(TRAIN_LANGS),
                         "--out", str(out), "--set", setting])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    # no token builds a network wider, or trains longer, than 2
    TOKENS = ["0", "1", "2", "-1", "0.5", "1e-9", "1e400", "inf", "-inf", "nan", "x", "fixed"]

    @TOTALITY
    @given(key=st.sampled_from(sorted(harness.CONFIG_DEFAULTS)), token=st.sampled_from(TOKENS))
    def test_any_setting_runs_or_fails_cleanly(self, damaged_corpus, tmp_path_factory, key, token):
        corpus, _ = damaged_corpus
        root = tmp_path_factory.mktemp("setting")
        (root / "s.txt").write_text("s1 1 2\ns2 -1 1\n")
        (root / "k.txt").write_text("A B\ns1 A\ns2 B\n")
        inside = in_domain(key, token)
        for argv, out in [
            (["train", "--corpus", str(corpus), "--split", "test",
              "--languages", ",".join(TRAIN_LANGS), "--out", str(root / "m.bin")], root / "m.bin"),
            (["evaluate", "--scores", str(root / "s.txt"), "--key", str(root / "k.txt"),
              "--report", str(root / "r.txt")], root / "r.txt"),
        ]:
            code, errors = cli_outcome(argv + ["--set", f"{key}={token}"])
            assert code in (0, 2, 3), errors
            if not inside:
                assert code == 2 and errors[0].startswith(f"error: {key}: expected "), errors
                assert not out.exists()


class TestEvalSettings:
    """NaN settings and a p_target outside (0, 1) exit 2 naming the key."""

    @pytest.mark.parametrize("setting, message", [
        ("eval.threshold=nan", "eval.threshold: expected float, got NaN"),
        ("feat.preemphasis=nan", "feat.preemphasis: expected float, got NaN"),
        ("eval.p_target=2", "eval.p_target: expected a value in (0, 1), got 2.0"),
        ("eval.p_target=0", "eval.p_target: expected a value in (0, 1), got 0.0"),
    ])
    def test_evaluate_exits_2_naming_the_key(self, capsys, tmp_path, setting, message):
        scores, key, report = (tmp_path / name for name in ("s.txt", "k.txt", "r.txt"))
        scores.write_text("s1 1 2\ns2 -1 1\n")
        key.write_text("A B\ns1 A\ns2 B\n")
        code = cli.main(["evaluate", "--scores", str(scores), "--key", str(key),
                         "--report", str(report), "--set", setting])
        assert code == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not report.exists()

    def test_run_task_refuses_p_target_before_training(self, damaged_corpus, tmp_path):
        corpus, _ = damaged_corpus
        plan = harness.ExperimentPlan(task=harness.SHORT_UTTERANCE, train_languages=TRAIN_LANGS)
        with pytest.raises(InvalidConfig, match=r"^eval.p_target: expected a value in \(0, 1\)"):
            harness.run_task(plan, corpus, tmp_path / "out", {"eval.p_target": "1"})
        assert not (tmp_path / "out").exists()


class TestStamp:
    @staticmethod
    def stamp(capsys, tmp_path, *overrides):
        scores, key, report = (tmp_path / name for name in ("s.txt", "k.txt", "r.txt"))
        scores.write_text("s1 1 2\ns2 -1 1\n")
        key.write_text("A B\ns1 A\ns2 B\n")
        argv = ["evaluate", "--scores", str(scores), "--key", str(key), "--report", str(report)]
        for item in overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 0
        capsys.readouterr()
        return report.read_text().splitlines()[0]

    def test_stamp_hashes_the_effective_config(self, capsys, tmp_path):
        default = self.stamp(capsys, tmp_path)
        assert default.startswith("# stamp config=")
        assert self.stamp(capsys, tmp_path, "train.epochs=8") == default
        assert self.stamp(capsys, tmp_path, "train.learn_rate=0.060") == default
        assert self.stamp(capsys, tmp_path, "train.epochs=9") != default
