import pytest

from lidkit import cli, config, harness
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


class TestResolve:
    def test_table_has_the_25_settable_keys(self):
        assert sorted(harness.CONFIG_DEFAULTS) == sorted(
            [f"feat.{name}" for name in (
                "sample_rate", "frame_len", "frame_shift", "fft_size", "num_filters",
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
        choices = harness.CONFIG_CHOICES
        assert config.resolve(harness.CONFIG_DEFAULTS, {"eval.policy": "fixed"}, choices)[
            "eval.policy"] == "fixed"
        with pytest.raises(InvalidConfig, match="^eval.policy: .* got 'best'$"):
            config.resolve(harness.CONFIG_DEFAULTS, {"eval.policy": "best"}, choices)


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
