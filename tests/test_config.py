"""Tests for config resolution: defaults, file parsing, overrides."""

import os
import tracemalloc
from dataclasses import fields

import pytest

from modalmetric import (ConfigError, SyntheticConfig, TrainConfig, cli,
                         generate_synthetic, zero_shot_split)
from modalmetric.config import load_config
from modalmetric.losses import LossConfig


def overrides(*flags):
    """The overrides that `cli.main` passes to load_config for `train`
    with `flags`."""
    return cli.config_overrides(
        cli.build_parser().parse_args(["train", *flags]))


class TestDefaults:
    def test_default_run(self):
        cfg = load_config()
        assert cfg.data["source"] == "synthetic"
        assert cfg.data["n_classes"] == 16
        assert cfg.data["n_unseen"] == 4
        assert cfg.train.method == "mathm"
        assert cfg.train.d_emb == 16
        assert cfg.train.total_iters == 2000
        assert cfg.eval_k == 100
        assert cfg.query_modality == 0
        assert list(cfg.seeds()) == [0]
        assert cfg.out == "runs"

    def test_library_defaults(self):
        # the CLI's defaults are the dataclasses' own, data.seed aside
        cfg = load_config()
        assert cfg.train == TrainConfig()
        generator = {f.name: cfg.data[f.name] for f in fields(SyntheticConfig)}
        assert SyntheticConfig(**generator) == SyntheticConfig(seed=7)

    def test_load_data_split(self):
        cfg = load_config(overrides=overrides(
            "--n_classes", "6", "--samples_per_class_per_modality", "4",
            "--d_in", "8", "--n_unseen", "2"))
        train_set, test_set = cfg.load_data()
        assert train_set.n_classes == 4
        assert test_set.n_classes == 2
        assert not set(train_set.class_ids) & set(test_set.class_ids)

    def test_train_config_stamps_seed(self):
        cfg = load_config(overrides=overrides("--n_seeds", "3",
                                              "--base_seed", "10"))
        assert list(cfg.seeds()) == [10, 11, 12]
        assert cfg.train_config(11).seed == 11
        assert cfg.train_config(11).method == cfg.train.method

    def test_seeds_are_not_materialized(self):
        # a run over many seeds holds one seed at a time
        cfg = load_config(overrides=overrides(
            "--n_seeds", str(10**6), "--base_seed", "5"))
        tracemalloc.start()
        try:
            seeds = cfg.seeds()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert seeds[-1] == 5 + 10**6 - 1
        assert len(seeds) == 10**6


def resolved_config(monkeypatch, argv):
    """The RunConfig `main(argv)` hands its command, without running it."""
    seen = []
    monkeypatch.setitem(cli.COMMANDS, argv[0],
                        lambda cfg, args: seen.append(cfg) or 0)
    assert cli.main(argv) == 0
    return seen[0]


class TestPrecedence:
    def test_file_then_override_then_flag(self, tmp_path, monkeypatch):
        path = tmp_path / "c.ini"
        path.write_text("[train]\nmethod = baseline\ntotal_iters = 50\n")
        cfg = resolved_config(monkeypatch, [
            "train", "--config", str(path), "--total_iters", "60",
            "--method", "mathm", "--method", "gan"])
        assert cfg.train.total_iters == 60
        assert cfg.train.method == "gan"

    def test_seed_flag_pins_single_run(self, monkeypatch):
        # --seed wins over --base_seed and --n_seeds in either order
        for argv in (["--n_seeds", "4", "--seed", "9"],
                     ["--seed", "9", "--n_seeds", "4", "--base_seed", "2"],
                     ["--seed=9", "--n_seeds=4"]):
            cfg = resolved_config(monkeypatch, ["train", *argv])
            assert list(cfg.seeds()) == [9]
            assert cfg.train.seed == 9

    def test_explicit_keys(self, tmp_path, monkeypatch):
        # what the file or a flag set, whatever its value; not defaults
        path = tmp_path / "c.ini"
        path.write_text("[data]\nsigma = 0.3\n[train]\nd_emb = 8\n")
        cfg = resolved_config(monkeypatch, [
            "eval", "--config", str(path), "--n_unseen", "4", "--seed", "2"])
        assert cfg.explicit == {("data", "sigma"), ("train", "d_emb"),
                                ("data", "n_unseen"), ("run", "base_seed"),
                                ("run", "n_seeds")}
        assert load_config().explicit == frozenset()

    def test_csv_source_made_absolute(self, tmp_path, monkeypatch):
        (tmp_path / "ds.csv").write_text("")
        monkeypatch.chdir(tmp_path)
        cfg = load_config(overrides={("data", "source"): "ds.csv"})
        assert os.path.isabs(cfg.data["source"])
        assert os.path.samefile(cfg.data["source"], tmp_path / "ds.csv")

    def test_equals_form(self, tmp_path, monkeypatch):
        cfg = resolved_config(monkeypatch, [
            "eval", "--method=gan", f"--out={tmp_path}", "--sigma=0.2",
            "--loss.margin=0.3"])
        assert cfg.train.method == "gan"
        assert cfg.out == str(tmp_path)
        assert cfg.data["sigma"] == 0.2
        assert cfg.train.loss.margin == 0.3
        # a value that starts with - reaches load_config in the = form
        assert resolved_config(monkeypatch, ["train", "--out=-x"]).out == "-x"

    def test_query_modality_mapping(self):
        cfg = load_config(overrides=overrides("--query_modality", "photo"))
        assert cfg.query_modality == 1
        with pytest.raises(ConfigError, match="query_modality"):
            load_config(overrides=overrides("--query_modality", "audio"))


class TestOverrideParsing:
    def test_dotted_and_bare(self):
        got = overrides("--loss.margin", "0.3", "--d_emb", "8")
        assert got == {("loss", "margin"): "0.3", ("train", "d_emb"): "8"}

    def test_equals_form(self):
        got = overrides("--loss.margin=0.3", "--d_emb", "8", "--out=a=b",
                        "--d_emb=9", "--source=--x")
        assert got == {("loss", "margin"): "0.3", ("train", "d_emb"): "9",
                       ("run", "out"): "a=b", ("data", "source"): "--x"}

    def test_data_seed_is_qualified(self):
        # the bare --seed is the single-seed shorthand
        assert overrides("--data.seed", "3") == {("data", "seed"): "3"}
        assert overrides("--seed", "3") == {("run", "base_seed"): "3",
                                            ("run", "n_seeds"): "1"}

    def test_values_starting_with_a_dash(self):
        # a plain negative number is a value; anything else that starts
        # with - takes the = form
        assert overrides("--lam", "-0.5", "--base_seed", "-3") == {
            ("loss", "lam"): "-0.5", ("run", "base_seed"): "-3"}
        assert overrides("--lam=-1e-3", "--out=-x") == {
            ("loss", "lam"): "-1e-3", ("run", "out"): "-x"}
        for flag, value in [("--lam", "-1e-3"), ("--out", "-x")]:
            with pytest.raises(ConfigError, match=f"^argument {flag}/"
                                                  ".*: expected one argument$"):
                overrides(flag, value)

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_unknown_key(self):
        for flag in ("--beta", "--train.beta", "--data.margin"):
            with pytest.raises(ConfigError, match=f"^unrecognized arguments: "
                                                  f"{flag} 0.5$"):
                overrides(flag, "0.5")

    def test_shape_errors(self):
        with pytest.raises(ConfigError, match="^argument --margin/"
                                              "--loss.margin: expected one"):
            overrides("--margin")
        with pytest.raises(ConfigError, match="^unrecognized arguments: "
                                              "margin 0.3$"):
            overrides("margin", "0.3")

    def test_value_conversion_errors(self):
        with pytest.raises(ConfigError, match="expected float"):
            load_config(overrides=overrides("--sigma", "wide"))
        with pytest.raises(ConfigError, match="n_seeds"):
            load_config(overrides=overrides("--n_seeds", "0"))

    @pytest.mark.parametrize("rule", [
        lambda: LossConfig(margin=0),
        lambda: SyntheticConfig(n_classes=1),
        lambda: zero_shot_split(generate_synthetic(SyntheticConfig(
            n_classes=3, samples_per_class_per_modality=1, d_in=2)), 0)],
        ids=["LossConfig", "SyntheticConfig", "zero_shot_split"])
    def test_rule_raises_config_error_as_value_error(self, rule):
        # the rule raises ConfigError itself; callers that catch
        # ValueError still do
        with pytest.raises(ValueError) as caught:
            rule()
        assert type(caught.value) is ConfigError

    def test_invalid_loss_value_surfaces_as_config_error(self):
        with pytest.raises(ConfigError, match="margin"):
            load_config(overrides=overrides("--margin", "-0.5"))
        with pytest.raises(ConfigError, match="^lam must be non-negative"):
            load_config(overrides=overrides("--lam", "-0.5"))
