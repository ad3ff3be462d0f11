"""End-to-end CLI tests: artifacts, determinism, exit codes."""

import contextlib
import csv
import gc
import io
import json
import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import modalmetric
from conftest import LOG_COLUMNS
from modalmetric import (
    ConfigError,
    DataError,
    NumericError,
    ProtocolError,
    SyntheticConfig,
    generate_synthetic,
    write_dataset,
    zero_shot_split,
)
from modalmetric.cli import (ABLATION_METHODS, COMMANDS, METRIC_KEYS,
                             _mean_std, evaluate_params, main)
from modalmetric.config import SCHEMA, load_config
from modalmetric.fsutil import output_dir
from modalmetric.model import TENSOR_NAMES, load_checkpoint, save_checkpoint
from modalmetric.training import METHOD_RECIPES

TINY_INI = """\
[data]
n_classes = 6
samples_per_class_per_modality = 6
d_in = 8
sigma = 0.25
offset_norm = 0.5
n_unseen = 2
seed = 3

[train]
d_emb = 4
classes_per_batch = 3
samples_per_class = 2
base_lr = 0.001
total_iters = 20
"""


@pytest.fixture(scope="module")
def ini(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "tiny.ini"
    path.write_text(TINY_INI)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_one_error_line(err, flag):
    """`err` is a single `error:` line that names `flag`."""
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert flag in err, err


def train_once(ini, out, *extra):
    rc = main(["train", "--config", ini, "--out", str(out), *extra])
    assert rc == 0
    return rc


class TestTrainCommand:
    def test_artifacts(self, ini, tmp_path, capsys):
        train_once(ini, tmp_path)
        run_dir = tmp_path / "mathm" / "seed-0"
        rows = read_rows(run_dir / "training_log.csv")
        assert rows[0] == LOG_COLUMNS["mathm"]
        assert len(rows) == 21
        assert (run_dir / "checkpoint.json").exists()
        assert "trained mathm seed 0" in capsys.readouterr().out

    @pytest.mark.parametrize("method", METHOD_RECIPES)
    def test_log_columns_per_method(self, ini, tmp_path, method):
        train_once(ini, tmp_path, "--method", method)
        rows = read_rows(tmp_path / method / "seed-0" / "training_log.csv")
        assert rows[0] == LOG_COLUMNS[method]

    def test_bench_command_shape(self, ini, tmp_path):
        # the benchmark's train line: every flag a separate token
        rc = main(["train", "--config", ini, "--method", "gan", "--n_seeds",
                   "1", "--base_seed", "2", "--out", str(tmp_path)])
        assert rc == 0
        assert sorted(os.listdir(tmp_path)) == ["gan"]
        assert os.listdir(tmp_path / "gan") == ["seed-2"]
        assert (tmp_path / "gan" / "seed-2" / "checkpoint.json").exists()

    def test_multiple_seeds(self, ini, tmp_path):
        train_once(ini, tmp_path, "--n_seeds", "2")
        assert (tmp_path / "mathm" / "seed-0" / "checkpoint.json").exists()
        assert (tmp_path / "mathm" / "seed-1" / "checkpoint.json").exists()

    def test_rerun_byte_identical(self, ini, tmp_path):
        train_once(ini, tmp_path / "a")
        train_once(ini, tmp_path / "b")
        for name in ("training_log.csv", "checkpoint.json"):
            a = (tmp_path / "a" / "mathm" / "seed-0" / name).read_bytes()
            b = (tmp_path / "b" / "mathm" / "seed-0" / name).read_bytes()
            assert a == b, name

    def test_checkpoint_meta_reflects_overrides(self, ini, tmp_path):
        train_once(ini, tmp_path, "--loss.margin", "0.3", "--seed", "5",
                   "--sigma", "0.4")
        path = tmp_path / "mathm" / "seed-5" / "checkpoint.json"
        meta = json.loads(path.read_text())["meta"]
        assert set(meta) == {"data", "train_class_ids", "train"}
        assert meta["data"] == {
            "source": "synthetic", "n_classes": 6,
            "samples_per_class_per_modality": 6, "d_in": 8, "sigma": 0.4,
            "offset_norm": 0.5, "n_unseen": 2, "seed": 3,
        }
        assert meta["train"] == {
            "method": "mathm", "d_emb": 4, "classes_per_batch": 3,
            "samples_per_class": 2, "base_lr": 0.001, "total_iters": 20,
            "seed": 5, "margin": 0.3, "lam": 1.0, "eps_g": 1e-06,
            "disc_lr_scale": 100.0,
        }
        assert len(meta["train_class_ids"]) == 4

    def test_checkpoint_records_training_class_ids(self, ini, tmp_path):
        train_once(ini, tmp_path)
        path = tmp_path / "mathm" / "seed-0" / "checkpoint.json"
        meta = json.loads(path.read_text())["meta"]
        train_set, _ = load_config(ini).load_data()
        assert meta["train_class_ids"] == train_set.class_ids


class TestEvalCommand:
    @pytest.fixture()
    def checkpoint(self, ini, tmp_path):
        train_once(ini, tmp_path / "train")
        return str(tmp_path / "train" / "mathm" / "seed-0" / "checkpoint.json")

    def test_metrics_file(self, ini, tmp_path, checkpoint, capsys):
        out = tmp_path / "eval"
        rc = main(["eval", "--config", ini, "--out", str(out),
                   "--checkpoint", checkpoint])
        assert rc == 0
        snapshot = json.loads((out / "metrics.json").read_text())
        assert set(snapshot) == set(METRIC_KEYS) | {"k"}
        assert snapshot["k"] == 100
        assert 0.0 <= snapshot["map_at_all"] <= 1.0
        assert "map_at_all" in capsys.readouterr().out

    def test_rerun_byte_identical(self, ini, tmp_path, checkpoint):
        for sub in ("a", "b"):
            rc = main(["eval", "--config", ini, "--out",
                       str(tmp_path / sub), "--checkpoint", checkpoint])
            assert rc == 0
        assert ((tmp_path / "a" / "metrics.json").read_bytes()
                == (tmp_path / "b" / "metrics.json").read_bytes())

    def test_reads_checkpoints_with_recipe_overrides(self, ini, tmp_path,
                                                     checkpoint):
        # checkpoints written before the recipe table was the only source
        # of a recipe carry two null override keys in meta.train
        params, meta = load_checkpoint(checkpoint)
        assert "triplet_kinds" not in meta["train"]
        meta["train"].update(triplet_kinds=None, use_weighting=None)
        older = str(tmp_path / "older.json")
        save_checkpoint(older, params, meta)
        for sub, path in (("new", checkpoint), ("older", older)):
            assert main(["eval", "--config", ini, "--out",
                         str(tmp_path / sub), "--checkpoint", path]) == 0
        assert ((tmp_path / "new" / "metrics.json").read_bytes()
                == (tmp_path / "older" / "metrics.json").read_bytes())

    def test_mean_over_checkpoints(self, ini, tmp_path):
        train_once(ini, tmp_path / "train", "--n_seeds", "2")
        ckpts = [str(tmp_path / "train" / "mathm" / f"seed-{s}"
                     / "checkpoint.json") for s in (0, 1)]
        out = tmp_path / "eval"
        rc = main(["eval", "--config", ini, "--out", str(out),
                   "--checkpoint", ckpts[0], "--checkpoint", ckpts[1]])
        assert rc == 0
        assert (out / "metrics-0.json").exists()
        assert (out / "metrics-1.json").exists()
        mean = json.loads((out / "metrics_mean.json").read_text())
        assert mean["n_runs"] == 2
        singles = [json.loads((out / f"metrics-{i}.json").read_text())
                   for i in (0, 1)]
        want = (singles[0]["map_at_all"] + singles[1]["map_at_all"]) / 2
        assert abs(mean["map_at_all"] - want) < 1e-12
        assert mean["map_at_all_std"] >= 0.0

    def test_requires_checkpoint(self, ini, tmp_path, capsys):
        rc = main(["eval", "--config", ini, "--out", str(tmp_path)])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_easy_instance_near_perfect_retrieval(self, tmp_path):
        # near-point clusters with a small offset: retrieval on the
        # unseen classes should be essentially solved after training
        flags = ["--n_classes", "6", "--samples_per_class_per_modality",
                 "8", "--d_in", "16", "--sigma", "0.01",
                 "--offset_norm", "0.3", "--n_unseen", "2",
                 "--data.seed", "3", "--d_emb", "8",
                 "--classes_per_batch", "4", "--samples_per_class", "4",
                 "--base_lr", "0.001", "--total_iters", "400"]
        rc = main(["train", "--out", str(tmp_path), *flags])
        assert rc == 0
        ckpt = tmp_path / "mathm" / "seed-0" / "checkpoint.json"
        rc = main(["eval", "--out", str(tmp_path), "--checkpoint",
                   str(ckpt), *flags])
        assert rc == 0
        snapshot = json.loads((tmp_path / "metrics.json").read_text())
        assert snapshot["map_at_all"] > 0.95

    @pytest.mark.parametrize("source", ["synthetic", "csv"])
    def test_overflowing_data_names_the_data(self, ini, tmp_path,
                                             good_checkpoint, source,
                                             capsys):
        # finite features whose row norms overflow on the unseen classes
        # only: the data is at fault, not the checkpoint (huge_weight
        # below is the converse)
        if source == "synthetic":
            # `eval` scores a checkpoint on its recorded data only, so a
            # split of other data goes through the library
            cfg = load_config(ini, {("data", "offset_norm"): "1.7e308"})
            _, test_set = cfg.load_data()
            params, meta = load_checkpoint(good_checkpoint)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError) as exc:
                    evaluate_params(params, test_set, cfg,
                                    meta["train_class_ids"])
            err = str(exc.value)
            names = ["data.source = 'synthetic'", "data.sigma = 0.25",
                     "data.offset_norm = 1.7e+308"]
            checkpoint = good_checkpoint
        else:
            ds = generate_synthetic(SyntheticConfig(
                n_classes=6, samples_per_class_per_modality=6, d_in=8,
                sigma=0.25, offset_norm=0.5, seed=3))
            _, unseen = zero_shot_split(ds, 2, seed=3)  # the ini's split
            ds.features[np.isin(ds.labels, unseen.class_ids)] *= 1e200
            path = tmp_path / "huge.csv"
            write_dataset(ds, path)
            train_once(ini, tmp_path / "train", "--source", str(path))
            checkpoint = tmp_path / "train" / "mathm" / "seed-0" / (
                "checkpoint.json")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rc = main(["eval", "--out", str(tmp_path / "out"),
                           "--checkpoint", str(checkpoint)])
            err = capsys.readouterr().err
            assert rc == 3, err
            assert "Traceback" not in err
            assert not (tmp_path / "out" / "metrics.json").exists()
            names = [f"data.source = {str(path)!r}"]
        for name in names:
            assert name in err
        assert "feature rows have non-finite norms" in err
        assert str(checkpoint) not in err
        assert ("data.sigma" in err) == (source == "synthetic")

    def test_query_modality_photo(self, ini, tmp_path, checkpoint):
        rc = main(["eval", "--config", ini, "--out", str(tmp_path / "p"),
                   "--checkpoint", checkpoint, "--query_modality", "photo"])
        assert rc == 0

    def test_zero_shot_guard(self, ini, good_checkpoint):
        # `eval` rebuilds the checkpoint's own split, so only a library
        # call can score a model on the classes it was trained on
        cfg = load_config(ini)
        train_set, _ = cfg.load_data()
        params, meta = load_checkpoint(good_checkpoint)
        with pytest.raises(ProtocolError, match="zero-shot violation"):
            evaluate_params(params, train_set, cfg, meta["train_class_ids"])

    def test_mismatched_splits(self, ini, tmp_path, good_checkpoint, capsys):
        # forge a checkpoint whose recorded training classes differ
        doctored = tmp_path / "doctored.json"
        _edit_payload(lambda p: p["meta"]["train_class_ids"].reverse())(
            good_checkpoint, doctored)
        out = tmp_path / "eval"
        rc = main(["eval", "--config", ini, "--out", str(out),
                   "--checkpoint", str(good_checkpoint),
                   "--checkpoint", str(doctored)])
        assert rc == 4
        assert "different splits" in capsys.readouterr().err
        assert not out.exists()


class TestReferenceCycles:
    def test_commands_leave_no_cyclic_garbage(self, ini, tmp_path):
        # what a command leaves in a reference cycle waits for the cycle
        # collector, whose pass then lands in whatever runs next; the INI
        # parser and json's indenting encoder both used to leave one
        checkpoint = str(tmp_path / "t" / "mathm" / "seed-0" /
                         "checkpoint.json")
        commands = [
            ["train", "--config", ini, "--out", str(tmp_path / "t")],
            ["eval", "--config", ini, "--out", str(tmp_path / "e"),
             "--checkpoint", checkpoint, "--checkpoint", checkpoint],
            ["sweep-lambda", "--config", ini, "--lambdas", "1",
             "--total_iters", "2", "--out", str(tmp_path / "s")],
        ]
        for argv in commands:  # the first calls fill caches, cycles and all
            assert main(argv) == 0
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            for argv in commands:
                assert main(argv) == 0
            gc.collect()
        finally:
            gc.set_debug(0)
        garbage = [type(obj).__name__ for obj in gc.garbage]
        gc.garbage.clear()
        assert garbage == []


class TestMeanStd:
    def test_sample_std(self):
        # mean 7/3; squared deviations 16/9, 1/9 and 25/9 sum to 14/3,
        # over n - 1 = 2 runs
        out = _mean_std([{"x": 1.0}, {"x": 2.0}, {"x": 4.0}], ["x"])
        assert out["x"] == pytest.approx(7 / 3, rel=1e-15)
        assert out["x_std"] == pytest.approx((7 / 3) ** 0.5, rel=1e-15)

    def test_one_run(self):
        assert _mean_std([{"x": 0.5}], ["x"]) == {"x": 0.5, "x_std": 0.0}


class TestDataRecord:
    """`eval` and `diagnose --checkpoint` build the split from the data
    each checkpoint records; a config file or flag may only repeat it."""

    @pytest.fixture(scope="class")
    def sigma_checkpoint(self, tmp_path_factory):
        """A default-config baseline trained on sigma 0.5 data."""
        out = tmp_path_factory.mktemp("sigma")
        assert main(["train", "--method", "baseline", "--total_iters",
                     "300", "--sigma", "0.5", "--out", str(out)]) == 0
        return str(out / "baseline" / "seed-0" / "checkpoint.json")

    def test_eval_reads_the_record(self, tmp_path, sigma_checkpoint):
        # without the flag, eval once scored it on the default sigma 0.3
        for sub, flags in (("bare", []), ("repeated", ["--sigma", "0.5"])):
            assert main(["eval", "--out", str(tmp_path / sub),
                         "--checkpoint", sigma_checkpoint, *flags]) == 0
        assert ((tmp_path / "bare" / "metrics.json").read_bytes()
                == (tmp_path / "repeated" / "metrics.json").read_bytes())

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "0.9"), ("--offset_norm", "3"), ("--n_unseen", "2"),
        ("--data.seed", "8"), ("--samples_per_class_per_modality", "8"),
        # its draw would overflow, but only the record's data is drawn
        ("--sigma", "1e308")],
        ids=["sigma", "offset_norm", "n_unseen", "seed",
             "samples_per_class_per_modality", "sigma-overflowing"])
    def test_flag_must_repeat_the_record(self, tmp_path, sigma_checkpoint,
                                         command, flag, value, capsys):
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main([command, "--out", str(out), "--checkpoint",
                       sigma_checkpoint, flag, value])
        err = capsys.readouterr().err
        assert rc == 4, err
        key = flag[2:] if "." in flag else f"data.{flag[2:]}"
        assert f"{key} = " in err and "checkpoint's record" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("sigma, code", [("0.5", 0), ("0.9", 4)])
    def test_config_file_must_repeat_the_record(self, tmp_path,
                                                sigma_checkpoint, sigma,
                                                code):
        path = tmp_path / "c.ini"
        path.write_text(f"[data]\nsigma = {sigma}\n")
        assert main(["eval", "--config", str(path), "--out",
                     str(tmp_path / "out"), "--checkpoint",
                     sigma_checkpoint]) == code

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    def test_checkpoints_of_different_data(self, ini, tmp_path,
                                           good_checkpoint, command,
                                           capsys):
        train_once(ini, tmp_path / "other", "--sigma", "0.3")
        other = tmp_path / "other" / "mathm" / "seed-0" / "checkpoint.json"
        out = tmp_path / "out"
        rc = main([command, "--out", str(out), "--checkpoint",
                   str(good_checkpoint), "--checkpoint", str(other)])
        err = capsys.readouterr().err
        assert rc == 4, err
        assert "different data" in err
        assert not out.exists()

    def test_v1_checkpoint(self, ini, tmp_path, good_checkpoint, capsys):
        def to_v1(payload):
            meta = payload["meta"]
            meta["d_in"] = meta.pop("data")["d_in"]
            meta["n_train_classes"] = len(meta["train_class_ids"])
            payload["format"] = "modalmetric-checkpoint-v1"

        v1 = tmp_path / "v1.json"
        _edit_payload(to_v1)(good_checkpoint, v1)
        rc = main(["eval", "--config", ini, "--out", str(tmp_path / "out"),
                   "--checkpoint", str(v1)])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert str(v1) in err
        assert "not a modalmetric-checkpoint-v2 file" in err

    def test_relative_csv_source(self, tmp_path, monkeypatch):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=6, samples_per_class_per_modality=6, d_in=8, seed=3))
        (tmp_path / "data").mkdir()
        write_dataset(ds, tmp_path / "data" / "ds.csv")
        monkeypatch.chdir(tmp_path / "data")
        assert main(["train", "--out", str(tmp_path / "train"),
                     "--source", "ds.csv", "--n_unseen", "2", "--d_emb",
                     "4", "--classes_per_batch", "3", "--samples_per_class",
                     "2", "--total_iters", "8"]) == 0
        ckpt = tmp_path / "train" / "mathm" / "seed-0" / "checkpoint.json"
        source = json.loads(ckpt.read_text())["meta"]["data"]["source"]
        assert os.path.isabs(source)
        assert os.path.samefile(source, tmp_path / "data" / "ds.csv")
        monkeypatch.chdir(tmp_path)
        assert main(["eval", "--out", str(tmp_path / "eval"),
                     "--checkpoint", str(ckpt)]) == 0


@pytest.fixture(scope="module")
def good_checkpoint(ini, tmp_path_factory):
    out = tmp_path_factory.mktemp("ckpt")
    train_once(ini, out)
    return out / "mathm" / "seed-0" / "checkpoint.json"


def _missing(good, bad):
    """Leave the path empty."""


def _truncated(good, bad):
    data = good.read_bytes()
    bad.write_bytes(data[: len(data) // 2])


def _deeply_nested(good, bad):
    # nests past the interpreter's stack limit inside json.load
    bad.write_text("[" * 200_000 + "]" * 200_000)


def _zero_width(payload):
    # every tensor sized by d_emb, with d_emb 0: they fit one another
    for name, shape in (("embedder.W", [8, 0]), ("embedder.b", [0]),
                        ("embedder.modality_offset", [2, 0]),
                        ("classifier.W_c", [4, 0]),
                        ("discriminator.w_d", [0])):
        payload["tensors"][name] = {"shape": shape, "data": []}


def _edit_payload(edit):
    def corrupt(good, bad):
        payload = json.loads(good.read_text())
        edit(payload)
        bad.write_text(json.dumps(payload))
    return corrupt


CORRUPTIONS = {
    "missing": (_missing, "cannot read"),
    "truncated": (_truncated, "malformed"),
    "wrong_format": (_edit_payload(
        lambda p: p.update(format="not-a-checkpoint")), "malformed"),
    "missing_tensor": (_edit_payload(
        lambda p: p["tensors"].pop("embedder.b")), "malformed"),
    "d_in_mismatch": (_edit_payload(lambda p: p["tensors"].update({
        "embedder.W": {"shape": [6, 4], "data": [0.1] * 24}})), "d_in = 8"),
    "bias_shape": (_edit_payload(lambda p: p["tensors"].update({
        "embedder.b": {"shape": [3], "data": [0.0] * 3}})), "do not fit"),
    "int_past_float64": (_edit_payload(lambda p: p["tensors"]["embedder.W"][
        "data"].__setitem__(0, 10**400)), "float64 range"),
    "nan_weight": (_edit_payload(lambda p: p["tensors"]["embedder.W"][
        "data"].__setitem__(0, float("nan"))), "non-finite"),
    # finite, so they load; 1e308 overflows the norms of the rows it
    # touches, 1e200 only their squares, and both once normalized to
    # all-zero embeddings
    "huge_weight": (_edit_payload(lambda p: p["tensors"]["embedder.W"][
        "data"].__setitem__(0, 1e308)), "overflows"),
    "huge_weight_squared": (_edit_payload(lambda p: p["tensors"][
        "embedder.W"]["data"].__setitem__(0, 1e200)), "overflows"),
    "class_ids_not_a_list": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids=5)), "malformed"),
    # iterable, but not a non-empty list of distinct ints
    "class_ids_string": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids="abc")), "malformed"),
    "class_ids_dict": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids={"x": 1})), "malformed"),
    "class_ids_empty": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids=[])), "malformed"),
    "class_ids_strings": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids=["a", "b"])), "malformed"),
    "class_ids_bools": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids=[True])), "malformed"),
    "class_ids_repeated": (_edit_payload(lambda p: p["meta"].update(
        train_class_ids=p["meta"]["train_class_ids"] * 2)), "malformed"),
    # each loads and embeds, but its tensors do not all fit one model of
    # the recorded training classes and d_emb 4
    "class_ids_unknown": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids=[999])), "do not fit"),
    "classifier_rows": (_edit_payload(lambda p: p["tensors"].update({
        "classifier.W_c": {"shape": [3, 4], "data": [0.1] * 12}})),
        "do not fit"),
    "discriminator_shape": (_edit_payload(lambda p: p["tensors"].update({
        "discriminator.w_d": {"shape": [3], "data": [0.1] * 3}})),
        "do not fit"),
    "nan_classifier": (_edit_payload(lambda p: p["tensors"][
        "classifier.W_c"]["data"].__setitem__(0, float("nan"))),
        "non-finite"),
    "zero_width": (_edit_payload(_zero_width), "do not fit"),
    "deeply_nested": (_deeply_nested, "malformed"),
    # reshape would fill in the -1 and load an (8, 4) W
    "negative_dim": (_edit_payload(lambda p: p["tensors"]["embedder.W"]
                                   .update(shape=[-1, 4])), "malformed"),
    # diagnose names a row by the recorded method, so it must be a tag
    "method_missing": (_edit_payload(
        lambda p: p["meta"]["train"].pop("method")), "malformed"),
    "method_unknown": (_edit_payload(
        lambda p: p["meta"]["train"].update(method="sgd")), "malformed"),
    "method_not_a_string": (_edit_payload(
        lambda p: p["meta"]["train"].update(method=["mathm"])), "malformed"),
    "train_not_an_object": (_edit_payload(
        lambda p: p["meta"].update(train="mathm")), "malformed"),
    # the split is rebuilt from the data record, so it must be a
    # [data] section the [data] rules accept
    "data_not_an_object": (_edit_payload(
        lambda p: p["meta"].update(data="synthetic")), "malformed"),
    "data_missing_key": (_edit_payload(
        lambda p: p["meta"]["data"].pop("sigma")), "malformed"),
    "data_extra_key": (_edit_payload(
        lambda p: p["meta"]["data"].update(scale=2.0)), "malformed"),
    "data_wrong_type": (_edit_payload(
        lambda p: p["meta"]["data"].update(n_classes=16.0)), "malformed"),
    "data_out_of_range": (_edit_payload(
        lambda p: p["meta"]["data"].update(n_classes=1)), "malformed"),
    # a split with one evaluation class has no between-class discrepancy
    "data_one_unseen_class": (_edit_payload(
        lambda p: p["meta"]["data"].update(n_unseen=1)),
        "record is rejected: data.n_unseen must be >= 2"),
}


class TestBrokenCheckpoints:
    """Every way a checkpoint file can fail to load or embed is a data
    error (exit 3) naming the file, for each command that reads
    checkpoints, with no warning and no metrics written."""

    @pytest.mark.parametrize("command", ["eval", "diagnose"])
    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_exit_3_without_traceback(self, ini, tmp_path, good_checkpoint,
                                      command, corruption, capsys):
        corrupt, message = CORRUPTIONS[corruption]
        bad = tmp_path / "bad.json"
        corrupt(good_checkpoint, bad)
        argv = [command, "--config", ini, "--out", str(tmp_path / "o"),
                "--checkpoint", str(bad)]
        if command == "diagnose":
            argv += ["--checkpoint", str(good_checkpoint)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3, err
        assert str(bad) in err
        assert message in err
        assert "Traceback" not in err
        assert not (tmp_path / "o" / "metrics.json").exists()
        assert not (tmp_path / "o" / "diagnose").exists()

    @pytest.mark.parametrize("corruption", sorted(CORRUPTIONS))
    def test_later_bad_checkpoint_writes_nothing(self, ini, tmp_path,
                                                 good_checkpoint,
                                                 corruption, capsys):
        # every checkpoint is read before --out is created, so the good
        # first one leaves no metrics-0.json behind
        corrupt, message = CORRUPTIONS[corruption]
        bad = tmp_path / "bad.json"
        corrupt(good_checkpoint, bad)
        existing = tmp_path / "existing"
        existing.mkdir()
        for out in (tmp_path / "new" / "out", existing):
            rc = main(["eval", "--config", ini, "--out", str(out),
                       "--checkpoint", str(good_checkpoint),
                       "--checkpoint", str(bad)])
            err = capsys.readouterr().err
            assert rc == 3, err
            assert str(bad) in err and message in err
        assert not (tmp_path / "new").exists()
        assert list(existing.iterdir()) == []


# small JSON values of every type, with the float and int edges that
# float64 conversion trips on
_JSON = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
              st.sampled_from([-1, 2**63, 10**400, -(10**400)]),
              st.floats(), st.text(max_size=4)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(max_size=3), inner,
                                            max_size=2)),
    max_leaves=6)
# one data entry: numbers past float64, numeric and other strings, nested
_ENTRY = st.one_of(st.sampled_from([10**400, -(10**400), 2**63, None, True,
                                    "1.5", "x", [], [0.5]]),
                   st.floats())
_SHAPE = st.one_of(_JSON, st.lists(st.integers(-2, 9), max_size=3))
_NAME = st.sampled_from(TENSOR_NAMES)
_CHECKPOINT_EDIT = st.one_of(
    st.tuples(st.just("drop"), _NAME),
    st.tuples(st.just("entry"), _NAME, _JSON),
    st.tuples(st.just("shape"), _NAME, _SHAPE),
    st.tuples(st.just("data"), _NAME, _JSON),
    st.tuples(st.just("value"), _NAME, st.integers(0, 99), _ENTRY),
    st.tuples(st.just("format"), _JSON),
    st.tuples(st.just("class_ids"), _JSON),
    st.tuples(st.just("method"), _JSON),
    st.tuples(st.just("record"), st.sampled_from(sorted(SCHEMA["data"])),
              _JSON),
    st.tuples(st.just("truncate"), st.floats(0.0, 1.0)),
)


def _edit_checkpoint(payload, edit):
    op, *args = edit
    tensors = payload["tensors"]
    if op == "drop":
        tensors.pop(args[0], None)
    elif op == "entry":
        tensors[args[0]] = args[1]
    elif op in ("shape", "data") and isinstance(tensors.get(args[0]), dict):
        tensors[args[0]][op] = args[1]
    elif op == "value" and isinstance(tensors.get(args[0]), dict):
        data = tensors[args[0]].get("data")
        if isinstance(data, list) and data:
            data[args[1] % len(data)] = args[2]
    elif op == "format":
        payload["format"] = args[0]
    elif op == "class_ids":
        payload["meta"]["train_class_ids"] = args[0]
    elif op == "method":
        payload["meta"]["train"]["method"] = args[0]
    elif op == "record":
        payload["meta"]["data"][args[0]] = args[1]


class TestCorruptedCheckpoints:
    """A generated corruption of a real checkpoint ends `eval` and
    `diagnose` with a contract exit code, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("corrupt")

    @given(st.lists(_CHECKPOINT_EDIT, min_size=1, max_size=3),
           st.sampled_from(["eval", "diagnose"]))
    @settings(max_examples=200, derandomize=True, deadline=None)
    def test_exit_code_in_contract(self, ini, good_checkpoint, workdir,
                                   edits, command):
        payload = json.loads(good_checkpoint.read_text())
        for edit in edits:
            _edit_checkpoint(payload, edit)
        text = json.dumps(payload)
        for op, *args in edits:
            if op == "truncate":
                text = text[:int(args[0] * len(text))]
        bad = workdir / "bad.json"
        bad.write_text(text)
        argv = [command, "--config", ini, "--out", str(workdir / "o"),
                "--checkpoint", str(bad)]
        if command == "diagnose":
            argv += ["--checkpoint", str(good_checkpoint)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(argv)
        event(f"exit {rc}")
        assert rc in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestDiagnoseCommand:
    def test_in_place(self, ini, tmp_path, capsys):
        out = tmp_path / "diag"
        rc = main(["diagnose", "--config", ini, "--out", str(out),
                   "--total_iters", "8"])
        assert rc == 0
        rows = read_rows(out / "diagnose" / "table.csv")
        assert [r[0] for r in rows[1:]] == ["baseline", "mathm", "gan"]
        assert rows[0][:3] == ["method", "map_at_all", "map_at_all_std"]
        table = json.loads((out / "diagnose" / "table.json").read_text())
        assert {r["method"] for r in table} == {"baseline", "mathm", "gan"}
        assert "modality_gap" in capsys.readouterr().out

    # train --n_seeds 2 for each method, then the argv of `diagnose`
    TRAIN = ("--n_seeds", "2", "--total_iters", "8")

    @pytest.fixture(scope="class")
    def runs(self, ini, tmp_path_factory):
        """method -> the checkpoint paths of its two seeds."""
        out = tmp_path_factory.mktemp("diagnose-train")
        for method in ("baseline", "mathm", "gan"):
            train_once(ini, out, "--method", method, *self.TRAIN)
        return {method: [str(out / method / f"seed-{seed}" / "checkpoint.json")
                         for seed in (0, 1)]
                for method in ("baseline", "mathm", "gan")}

    def _diagnose(self, ini, out, *paths):
        argv = ["diagnose", "--config", ini, "--out", str(out)]
        for path in paths:
            argv += ["--checkpoint", str(path)]
        return main(argv)

    def test_from_checkpoints(self, ini, tmp_path, runs):
        out = tmp_path / "diag"
        rc = self._diagnose(ini, out, runs["baseline"][0], runs["mathm"][0],
                            runs["gan"][0])
        assert rc == 0
        rows = read_rows(out / "diagnose" / "table.csv")
        assert [r[0] for r in rows[1:]] == ["baseline", "mathm", "gan"]

    def test_rows_named_by_recorded_method(self, ini, tmp_path, runs):
        # a gan checkpoint given first is the first row, named gan
        out = tmp_path / "diag"
        assert self._diagnose(ini, out, runs["gan"][0],
                              runs["baseline"][0]) == 0
        table = json.loads((out / "diagnose" / "table.json").read_text())
        assert [r["method"] for r in table] == ["gan", "baseline"]

    def test_one_row_per_method(self, ini, tmp_path, runs):
        out = tmp_path / "diag"
        assert self._diagnose(ini, out, *runs["mathm"]) == 0
        [row] = json.loads((out / "diagnose" / "table.json").read_text())
        assert row["method"] == "mathm"
        assert row["map_at_all_std"] > 0.0

    def test_incomplete_checkpoints(self, ini, tmp_path, runs):
        # no method is required: one baseline checkpoint is a one-row table
        out = tmp_path / "diag"
        assert self._diagnose(ini, out, runs["baseline"][0]) == 0
        rows = read_rows(out / "diagnose" / "table.csv")
        assert [r[0] for r in rows[1:]] == ["baseline"]

    def test_checkpoints_match_in_place(self, ini, tmp_path, runs):
        # the checkpoints of the runs in-place diagnose trains, in method
        # then seed order, give the same table bytes
        assert main(["diagnose", "--config", ini, "--out",
                     str(tmp_path / "in-place"), *self.TRAIN]) == 0
        assert self._diagnose(ini, tmp_path / "read", *runs["baseline"],
                              *runs["mathm"], *runs["gan"]) == 0
        for name in ("table.csv", "table.json"):
            assert ((tmp_path / "in-place" / "diagnose" / name).read_bytes()
                    == (tmp_path / "read" / "diagnose" / name).read_bytes())

    @pytest.mark.parametrize("flag", ["--baseline", "--mathm", "--gan"])
    def test_method_flags_are_unknown_keys(self, ini, tmp_path, runs, flag,
                                           capsys):
        rc = main(["diagnose", "--config", ini, "--out", str(tmp_path),
                   flag, runs["mathm"][0]])
        assert rc == 2
        assert_one_error_line(capsys.readouterr().err, flag)
        assert not os.listdir(tmp_path)

    def test_mismatched_splits(self, ini, tmp_path, runs, monkeypatch,
                               capsys):
        from modalmetric import cli

        scored = []
        compute_metrics = cli.compute_metrics

        def counted(*args, **kwargs):
            scored.append(1)
            return compute_metrics(*args, **kwargs)

        monkeypatch.setattr(cli, "compute_metrics", counted)
        # forge a checkpoint whose recorded training classes differ
        doctored = tmp_path / "doctored.json"
        payload = json.loads(
            Path(runs["baseline"][0]).read_text(encoding="utf-8"))
        payload["meta"]["train_class_ids"] = list(
            reversed(payload["meta"]["train_class_ids"]))
        doctored.write_text(json.dumps(payload))
        rc = self._diagnose(ini, tmp_path / "d", doctored, runs["mathm"][0],
                            runs["gan"][0])
        assert rc == 4
        assert "different splits" in capsys.readouterr().err
        # the splits are in the metas: no checkpoint is scored first
        assert scored == []


class TestAblateCommand:
    def test_eight_variants(self, ini, tmp_path):
        out = tmp_path / "ab"
        rc = main(["ablate", "--config", ini, "--out", str(out),
                   "--total_iters", "8"])
        assert rc == 0
        rows = read_rows(out / "ablate" / "table.csv")
        assert rows[0] == ["method", "map_at_all", "map_at_all_std",
                           "prec_at_k", "prec_at_k_std"]
        assert [r[0] for r in rows[1:]] == list(ABLATION_METHODS)

    def test_matches_checkpoint_tables(self, ini, tmp_path):
        # each row is the method's in-place diagnose: the same numbers as
        # diagnose over the checkpoints of `train --method T`
        runs = ("--n_seeds", "2", "--total_iters", "8")
        assert main(["ablate", "--config", ini, "--out", str(tmp_path),
                     *runs]) == 0
        argv = ["diagnose", "--config", ini, "--out", str(tmp_path)]
        for method in ABLATION_METHODS:
            train_once(ini, tmp_path / "train", "--method", method, *runs)
            for seed in (0, 1):
                argv += ["--checkpoint", str(tmp_path / "train" / method
                                             / f"seed-{seed}"
                                             / "checkpoint.json")]
        assert main(argv) == 0
        ablate, diagnose = (
            json.loads((tmp_path / command / "table.json").read_text())
            for command in ("ablate", "diagnose"))
        keys = ("method", "map_at_all", "map_at_all_std", "prec_at_k",
                "prec_at_k_std")
        assert [{k: row[k] for k in keys} for row in diagnose] == ablate
        assert [row["method"] for row in ablate] == list(ABLATION_METHODS)


class TestSweepLambdaCommand:
    def test_sweep(self, ini, tmp_path):
        out = tmp_path / "sw"
        rc = main(["sweep-lambda", "--config", ini, "--out", str(out),
                   "--lambdas", "0,1", "--total_iters", "8"])
        assert rc == 0
        rows = read_rows(out / "sweep-lambda" / "table.csv")
        assert rows[0][0] == "lam"
        assert [r[0] for r in rows[1:]] == ["0.0", "1.0"]

    def test_rerun_identical(self, ini, tmp_path):
        argv = ["sweep-lambda", "--config", ini, "--lambdas", "0.5",
                "--total_iters", "8"]
        for sub in ("a", "b"):
            assert main(argv + ["--out", str(tmp_path / sub)]) == 0
        assert ((tmp_path / "a" / "sweep-lambda" / "table.csv").read_bytes()
                == (tmp_path / "b" / "sweep-lambda" / "table.csv").read_bytes())

    def test_lam_is_not_lambdas(self, ini, tmp_path):
        # --lam is the loss.lam override, not an abbreviation of --lambdas
        rc = main(["sweep-lambda", "--config", ini, "--out", str(tmp_path),
                   "--lam", "0.5", "--total_iters", "8"])
        assert rc == 0
        rows = read_rows(tmp_path / "sweep-lambda" / "table.csv")
        assert [r[0] for r in rows[1:]] == ["0.0", "0.5", "1.0", "2.0"]

    @pytest.mark.parametrize("lambdas, repeated", [
        ("0,-0,1", "-0.0"), ("1,0.5,1.0", "1.0"), ("2,2e0", "2.0")])
    def test_repeated_lambda(self, ini, tmp_path, lambdas, repeated, capsys):
        # rows are grouped by λ, so a repeat would merge two sweep points
        rc = main(["sweep-lambda", "--config", ini, "--out", str(tmp_path),
                   "--lambdas", lambdas])
        assert rc == 2
        assert f"repeats the value {repeated}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    # (--lambdas, its first bad entry)
    BAD_LAMBDAS = [("x", "x"), ("", ""), ("-1", "-1"), ("0.5,,oops", ""),
                   ("inf", "inf"), ("0,nan", "nan"), ("1,-inf", "-inf"),
                   ("0,,1", ""), ("0,1,", "")]

    @pytest.mark.parametrize("bad, entry", BAD_LAMBDAS,
                             ids=[bad for bad, _ in BAD_LAMBDAS])
    def test_bad_lambdas(self, ini, tmp_path, bad, entry, capsys):
        rc = main(["sweep-lambda", "--config", ini,
                   "--out", str(tmp_path), "--lambdas", bad])
        assert rc == 2
        # the message `--lam <entry>` gets from the config
        with pytest.raises(ConfigError) as rule:
            load_config(overrides={("loss", "lam"): entry})
        assert "lam" in str(rule.value)
        assert capsys.readouterr().err == f"error: {rule.value}\n"
        assert list(tmp_path.iterdir()) == []


class TestConfigHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        rc = main(["train", "--config", str(tmp_path / "nope.ini"),
                   "--out", str(tmp_path)])
        assert rc == 2
        assert "not found" in capsys.readouterr().err

    @pytest.mark.parametrize("case, message", [
        ("directory", "cannot read config"), ("latin1", "not UTF-8")])
    def test_unreadable_config(self, tmp_path, case, message, capsys):
        path = tmp_path / "bad.ini"
        if case == "directory":
            path.mkdir()
        else:
            path.write_bytes("[train]\nmethod = gan\xe9\n".encode("latin-1"))
        rc = main(["train", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert str(path) in err and message in err
        assert "Traceback" not in err

    def test_unknown_section(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[optimizer]\nlr = 1\n")
        rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown section" in capsys.readouterr().err

    # configparser copies [DEFAULT] keys into every section: alone it
    # ignored total_iters, and beside [train] it misplaced sigma there
    @pytest.mark.parametrize("text", [
        "[DEFAULT]\ntotal_iters = 5\n",
        "[DEFAULT]\nsigma = 0.2\n[train]\ntotal_iters = 5\n"],
        ids=["alone", "beside_train"])
    def test_default_section(self, tmp_path, text, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(text)
        rc = main(["train", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "[DEFAULT]" in err and str(path) in err
        assert not (tmp_path / "out").exists()

    def test_unknown_key(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[train]\nmomentum = 0.9\n")
        rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err

    def test_bad_value_type(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[data]\nn_classes = many\n")
        rc = main(["train", "--config", str(path), "--out", str(tmp_path)])
        assert rc == 2
        assert "expected int" in capsys.readouterr().err

    def test_unknown_override(self, ini, tmp_path, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path),
                   "--optimizer", "sgd"])
        assert rc == 2
        assert_one_error_line(capsys.readouterr().err, "--optimizer")
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("flag", ["--meth", "--conf", "--lambda"])
    def test_flags_are_not_abbreviated(self, ini, tmp_path, flag, capsys):
        rc = main(["sweep-lambda", "--config", ini, "--out", str(tmp_path),
                   flag, "gan"])
        assert rc == 2
        assert_one_error_line(capsys.readouterr().err, flag)
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_names_every_method_tag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        named = set(re.findall(r"[\w+-]+", capsys.readouterr().out))
        assert METHOD_RECIPES.keys() <= named, METHOD_RECIPES.keys() - named

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_lists_every_key(self, command, capsys):
        # under its section, both spellings, with its type and default;
        # data.seed qualified only, as --seed is the shorthand
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        for section, keys in SCHEMA.items():
            listed = text[text.index(f"[{section}] keys:"):]
            for key, (kind, default) in keys.items():
                spelling = f"--{section}.{key} {kind.__name__.upper()}"
                if (section, key) != ("data", "seed"):
                    spelling = (f"--{key} {kind.__name__.upper()}, "
                                + spelling)
                assert f" {spelling} default: {default} " in listed, spelling

    @pytest.mark.parametrize("argv, named", [
        (["trian"], "'trian'"), (["eval", "--checkpoint"], "--checkpoint"),
        ([], "command")], ids=["unknown_command", "flag_without_value",
                               "empty"])
    def test_malformed_command_line(self, argv, named, capsys):
        # argparse's own errors end as a bad value does, with no usage
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert_one_error_line(captured.err, named)
        assert captured.out == ""

    def test_negative_value_reaches_its_rule(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path), "--lam", "-0.5"])
        assert rc == 2
        assert capsys.readouterr().err == "error: lam must be non-negative\n"
        assert not os.listdir(tmp_path)

    def test_dangling_override_flag(self, ini, tmp_path, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path),
                   "--margin"])
        assert rc == 2

    @pytest.mark.parametrize("tail", [["--margin", "--lam", "0.3"],
                                      ["--lam", "0.3", "--margin"]],
                             ids=["before_a_flag", "last"])
    def test_override_without_value_named(self, ini, tmp_path, tail, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path), *tail])
        assert rc == 2
        assert_one_error_line(capsys.readouterr().err, "--margin")
        assert not os.listdir(tmp_path)

    def test_non_flag_override(self, ini, tmp_path, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path),
                   "margin", "0.3"])
        assert rc == 2

    def test_missing_dataset_file(self, tmp_path, capsys):
        rc = main(["train", "--out", str(tmp_path),
                   "--source", str(tmp_path / "gone.csv")])
        assert rc == 2
        assert "dataset file not found" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("sigma", "nan"), ("margin", "nan"), ("base_lr", "inf"),
        ("offset_norm", "nan"), ("lam", "nan"), ("eps_g", "nan"),
        ("disc_lr_scale", "inf")])
    def test_non_finite_float(self, ini, tmp_path, key, value, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path),
                   f"--{key}", value])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "finite" in err and key in err
        assert not (tmp_path / "mathm").exists()


    # eval draws only the data its checkpoint records; its --sigma 1e308
    # is TestDataRecord::test_flag_must_repeat_the_record's case
    @pytest.mark.parametrize("command", ["train"])
    def test_overflowing_synthetic_draw(self, ini, tmp_path, command,
                                        capsys):
        # finite, but sigma times a draw past 1.8 is past the float64 range
        argv = [command, "--config", ini, "--out", str(tmp_path / "out"),
                "--sigma", "1e308"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "data.sigma" in err and "data.offset_norm" in err
        assert "too large to allocate" not in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    # (key, value, the message's start): every rule of LossConfig,
    # SyntheticConfig, TrainConfig and zero_shot_split's n_unseen, and
    # sizes past what can be allocated
    UNUSABLE = [
        ("margin", "0", "margin must be positive"),
        ("lam", "-0.1", "lam must be non-negative"),
        ("eps_g", "0", "eps_g must be positive"),
        ("n_classes", "1", "n_classes must be >= 2"),
        ("samples_per_class_per_modality", "0",
         "samples_per_class_per_modality must be >= 1"),
        ("d_in", "0", "d_in must be >= 1"),
        ("sigma", "0", "sigma must be positive"),
        ("offset_norm", "-0.5", "offset_norm must be non-negative"),
        ("n_unseen", "0", "n_unseen must be in [1, 5], got 0"),
        ("n_unseen", "6", "n_unseen must be in [1, 5], got 6"),
        # one unseen class has no between-class discrepancy to score
        ("n_unseen", "1", "data.n_unseen must be >= 2 to evaluate, got 1"),
        ("method", "resnet", "unknown method 'resnet'; expected one of"),
        ("total_iters", "0", "total_iters must be >= 1"),
        ("base_lr", "0", "base_lr must be positive"),
        ("d_emb", "1", "d_emb must be >= 2"),
        ("classes_per_batch", "1", "classes_per_batch must be >= 2"),
        ("classes_per_batch", "-3", "classes_per_batch must be >= 2"),
        ("samples_per_class", "1", "samples_per_class must be >= 2"),
        ("disc_lr_scale", "0", "disc_lr_scale must be positive"),
        # petabyte-scale sizes, which fail at allocation
        ("d_emb", str(10**14), "parameters for"),
        ("d_in", str(10**14), "data.n_classes x"),
        ("n_classes", str(10**13), "data.n_classes x"),
        ("samples_per_class_per_modality", str(10**16), "data.n_classes x"),
        # past int64: numpy rejects the shape before allocating
        ("d_emb", str(10**19), "parameters for"),
        ("d_in", str(10**19), "data.n_classes x")]

    @pytest.mark.parametrize("key, value, message", UNUSABLE,
                             ids=[f"{k}-{v}" for k, v, _ in UNUSABLE])
    def test_unusable_size(self, ini, tmp_path, key, value, message,
                           capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path),
                   f"--{key}", value])
        err = capsys.readouterr().err
        assert rc == 2, err
        # one line, the rule's own message, naming the key
        assert err.startswith(f"error: {message}") and key in err
        assert err.count("\n") == 1
        assert not (tmp_path / "mathm").exists()

    @pytest.mark.parametrize("flag, value, key", [
        ("--seed", "-3", "run.base_seed"),
        ("--base_seed", "-5", "run.base_seed"),
        ("--data.seed", "-2", "data.seed")])
    def test_negative_seed(self, ini, tmp_path, flag, value, key, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path / "out"),
                   flag, value])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert key in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


def _mostly(good, bad, odds=5):
    """`good`, except one draw in `odds` from `bad`."""
    return st.sampled_from([good] * (odds - 1) + [bad]).flatmap(
        lambda strategy: strategy)


# config values: small ints (so no case allocates much or trains long),
# floats of every size, words the string keys accept, and text without
# digits that no int or float conversion takes
_ANY_VALUE = st.one_of(
    st.integers(-2, 9).map(str),
    st.floats().map(repr),
    st.sampled_from(["", " 3 ", "1.5", "1e308", "nan", "-inf", " Photo ",
                     "synthetic", "missing.csv", "cls-only", "baseline"]),
    st.text(alphabet="abcXYZé =:[]#;%-_.,\t", max_size=6),
)
_WORDS = {"source": ["synthetic", "missing.csv"],
          "method": ["cls-only", "baseline", "mathm", "gan"],
          "query_modality": ["sketch", "photo"], "out": ["runs"]}
_TYPED_VALUE = {int: st.integers(-1, 9).map(str),
                float: st.floats(0.0, 2.0).map(repr)}
_SCHEMA_KEYS = [(s, k) for s in SCHEMA for k in SCHEMA[s]]


def _config_value(section, key):
    """Mostly a value of the key's type, sometimes any value."""
    kind, _ = SCHEMA[section][key]
    typed = (st.sampled_from(_WORDS[key]) if kind is str
             else _TYPED_VALUE[kind])
    return _mostly(typed, _ANY_VALUE)


@st.composite
def _ini_section(draw):
    """A section header and its settings: mostly a known section and its
    own keys, sometimes another section's key or an unknown one."""
    name = draw(_mostly(st.sampled_from(list(SCHEMA)),
                        st.sampled_from(["DEFAULT", "Train", "optimizer"]),
                        odds=10))
    own = [sk for sk in _SCHEMA_KEYS if sk[0] == name] or _SCHEMA_KEYS
    keys = draw(st.lists(_mostly(st.sampled_from(own),
                                 st.sampled_from(_SCHEMA_KEYS)),
                         max_size=4, unique_by=lambda sk: sk[1]))
    items = [(key, draw(_config_value(sec, key))) for sec, key in keys]
    if draw(_mostly(st.just(False), st.just(True))):
        items.append((draw(st.sampled_from(["N_Classes", "momentum", ""])),
                      draw(_ANY_VALUE)))
    return name, items


# lines that configparser rejects or reads in surprising ways
_INI_JUNK = st.tuples(st.integers(0, 30), st.sampled_from(
    ["[", "[data", "no separator", "= 3", "  continued", "# comment",
     "[data]", "%(x)s = 1"]))


@st.composite
def _override(draw):
    """One `--key value` pair: mostly a schema key, qualified or bare,
    sometimes an unknown or malformed flag."""
    section, key = draw(st.sampled_from(_SCHEMA_KEYS))
    flag = draw(_mostly(
        st.sampled_from([f"--{section}.{key}", f"--{key}"]),
        st.sampled_from(["--optimizer", "--data.nope", "-q", key])))
    return flag, draw(_config_value(section, key))


def _ini_text(sections, junk):
    lines = []
    for name, items in sections:
        lines.append(f"[{name}]")
        lines += [f"{key} = {value}" for key, value in items]
    for at, line in junk:
        lines.insert(at % (len(lines) + 1), line)
    return "\n".join(lines) + "\n"


class TestGeneratedConfigs:
    """Generated INI text and `--key value` overrides end every command
    with a contract exit code, never a traceback."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("configs")

    @given(st.lists(_ini_section(), max_size=4, unique_by=lambda s: s[0]),
           _mostly(st.just([]), st.lists(_INI_JUNK, min_size=1, max_size=2),
                   odds=10),
           st.lists(_override(), max_size=4),
           _mostly(st.just(False), st.just(True), odds=10),
           st.sampled_from(["train", "eval", "diagnose", "ablate",
                            "sweep-lambda"]))
    @settings(max_examples=200, derandomize=True, deadline=None)
    # a synthetic draw past the float64 range, which numpy warned about
    @example(sections=[("data", [("sigma", "1e308")])], junk=[],
             overrides=[], stray=False, command="train")
    def test_exit_code_in_contract(self, good_checkpoint, workdir, sections,
                                   junk, overrides, stray, command):
        path = workdir / "generated.ini"
        path.write_text(_ini_text(sections, junk), encoding="utf-8")
        # the leading override keeps every run short unless a generated
        # one replaces it; the trailing --out keeps every write in workdir
        tokens = ["--total_iters", "3"]
        for flag, value in overrides:
            tokens += [flag, value]
        argv = [command, "--config", str(path), *tokens]
        if stray:
            argv.append("--margin")
        if command == "eval":
            argv += ["--checkpoint", str(good_checkpoint)]
        argv += ["--out", str(workdir / "out")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            rc = main(argv)
        event(f"exit {rc}")
        assert rc in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestUnusableOut:
    """An output path that cannot be created or written exits 2 naming
    it; every command finds out before it trains or scores anything."""

    def _block(self, tmp_path, case):
        """Lay the obstacle for `case` and return (--out, named path)."""
        out = tmp_path / "out"
        if case == "below_file":
            (tmp_path / "file").write_text("")
            return tmp_path / "file" / "x", tmp_path / "file" / "x"
        if case == "run_dir_is_file":
            out.mkdir()
            (out / "mathm").write_text("")
            return out, out / "mathm" / "seed-0"
        (out / "metrics.json").mkdir(parents=True)  # artifact_is_dir
        return out, out / "metrics.json"

    @pytest.mark.parametrize("command, case", [
        ("train", "below_file"), ("train", "run_dir_is_file"),
        ("eval", "below_file"), ("eval", "artifact_is_dir"),
        ("ablate", "below_file"), ("diagnose", "below_file"),
        ("diagnose --checkpoint", "below_file"),
        ("sweep-lambda", "below_file")])
    def test_exit_2_naming_the_path(self, ini, tmp_path, good_checkpoint,
                                    command, case, monkeypatch, capsys):
        from modalmetric import cli

        done = []  # each run trained or checkpoint scored

        def counted(real):
            def run(*args, **kwargs):
                done.append(real.__name__)
                return real(*args, **kwargs)
            return run

        monkeypatch.setattr(cli, "train", counted(cli.train))
        monkeypatch.setattr(cli, "compute_metrics",
                            counted(cli.compute_metrics))
        out, named = self._block(tmp_path, case)
        command, *flags = command.split()
        argv = [command, "--config", ini, "--out", str(out)]
        if command == "eval" or flags:
            argv += ["--checkpoint", str(good_checkpoint)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert str(named) in err
        assert "Traceback" not in err
        if case == "below_file":
            assert done == []
        assert not list(tmp_path.rglob(".tmp-*"))


class TestFailedCommandOutput:
    """A command that fails after creating its output directory removes
    the directories it created that are still empty, and no other."""

    # command -> (flags that make it fail after creating --out, exit code);
    # eval fails on the huge_weight checkpoint
    FAILURES = {
        "train": (["--offset_norm", "1e308"], 5),
        "eval": ([], 3),
        "ablate": (["--offset_norm", "1e308"], 5),
        "diagnose": (["--offset_norm", "1e308"], 5),
        "sweep-lambda": (["--offset_norm", "1e308"], 5),
    }

    @pytest.fixture(scope="class")
    def huge_weight(self, tmp_path_factory, good_checkpoint):
        bad = tmp_path_factory.mktemp("huge") / "checkpoint.json"
        CORRUPTIONS["huge_weight"][0](good_checkpoint, bad)
        return bad

    def _fail(self, ini, out, command, huge_weight, capsys):
        flags, code = self.FAILURES[command]
        argv = [command, "--config", ini, "--out", str(out), *flags]
        if command == "eval":
            argv += ["--checkpoint", str(huge_weight)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == code, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(FAILURES))
    def test_new_out_removed(self, ini, tmp_path, huge_weight, command,
                             capsys):
        self._fail(ini, tmp_path / "new" / "out", command, huge_weight,
                   capsys)
        assert list(tmp_path.iterdir()) == []

    def test_created_dir_with_a_file_kept(self, tmp_path):
        out = tmp_path / "a" / "b"
        with pytest.raises(RuntimeError, match="stopped"):
            with output_dir(out):
                (out / "file").write_text("kept")
                raise RuntimeError("stopped")
        assert (out / "file").read_text() == "kept"

    @pytest.mark.parametrize("command", sorted(FAILURES))
    def test_existing_out_kept(self, ini, tmp_path, huge_weight, command,
                               capsys):
        # empty, so only its having existed before keeps it
        out = tmp_path / "out"
        out.mkdir()
        self._fail(ini, out, command, huge_weight, capsys)
        assert out.is_dir()
        assert list(out.iterdir()) == []


class TestArtifactModes:
    """Artifacts get the mode `open()` would give them, 0o666 less the
    umask, as the temp file is created at 0o666."""

    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)],
                             ids=["umask-022", "umask-077"])
    def test_mode_follows_umask(self, ini, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            train_once(ini, tmp_path)
            assert main(["eval", "--config", ini, "--out",
                         str(tmp_path / "eval"), "--checkpoint",
                         str(tmp_path / "mathm" / "seed-0"
                             / "checkpoint.json")]) == 0
        finally:
            os.umask(previous)
        files = [p for p in tmp_path.rglob("*") if p.is_file()]
        assert {p.name for p in files} == {
            "training_log.csv", "checkpoint.json", "metrics.json"}
        for path in files:
            assert path.stat().st_mode & 0o777 == mode, path


def write_every_artifact(ini, out):
    """Run `train` and `eval` and write a dataset under `out`; return the
    paths of the files written."""
    train_once(ini, out)
    assert main(["eval", "--config", ini, "--out", str(out / "eval"),
                 "--checkpoint",
                 str(out / "mathm" / "seed-0" / "checkpoint.json")]) == 0
    write_dataset(generate_synthetic(SyntheticConfig(
        n_classes=2, samples_per_class_per_modality=2, d_in=2, seed=0)),
        out / "ds.csv")
    files = [p for p in out.rglob("*") if p.is_file()]
    assert {p.name for p in files} == {
        "training_log.csv", "checkpoint.json", "metrics.json", "ds.csv"}
    return files


class TestArtifactCreation:
    """Each writer creates its file as `open()` does: the kernel applies
    the umask or the directory's default ACL, and no writer reads the
    process-wide umask or chmods a file."""

    @pytest.mark.skipif(not hasattr(os, "setxattr"), reason="no xattrs")
    def test_mode_follows_default_acl(self, ini, tmp_path):
        # user::rw-,group::rw-,other::r-- as the kernel stores it: a
        # version, then (tag, permissions, id) per entry
        acl = struct.pack("<I", 2) + b"".join(
            struct.pack("<HHI", tag, perm, 0xFFFFFFFF)
            for tag, perm in [(0x01, 6), (0x04, 6), (0x20, 4)])
        try:
            os.setxattr(tmp_path, "system.posix_acl_default", acl)
        except OSError as exc:
            pytest.skip(f"no default ACL: {exc}")
        previous = os.umask(0o077)
        try:
            with open(tmp_path / "beside", "w"):
                pass
            files = write_every_artifact(ini, tmp_path / "out")
        finally:
            os.umask(previous)
        mode = (tmp_path / "beside").stat().st_mode & 0o777
        assert mode == 0o664
        for path in files:
            assert path.stat().st_mode & 0o777 == mode, path

    def test_no_umask_or_chmod(self, ini, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("artifact writers must not call this")

        monkeypatch.setattr(os, "umask", refuse)
        monkeypatch.setattr(os, "chmod", refuse)
        write_every_artifact(ini, tmp_path)


class TestDatasetSources:
    def test_csv_source_end_to_end(self, tmp_path):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=6, samples_per_class_per_modality=6, d_in=8,
            sigma=0.25, offset_norm=0.5, seed=3))
        csv_path = tmp_path / "ds.csv"
        write_dataset(ds, csv_path)
        rc = main(["train", "--out", str(tmp_path / "out"),
                   "--source", str(csv_path), "--n_unseen", "2",
                   "--data.seed", "3", "--d_emb", "4",
                   "--classes_per_batch", "3", "--samples_per_class", "2",
                   "--total_iters", "8"])
        assert rc == 0
        assert (tmp_path / "out" / "mathm" / "seed-0"
                / "checkpoint.json").exists()

    def test_malformed_csv_source(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("id,class,modality,f0\n0,0,video,1.0\n")
        rc = main(["train", "--out", str(tmp_path / "out"),
                   "--source", str(path)])
        assert rc == 3
        assert "unknown modality" in capsys.readouterr().err

    def test_duplicate_id_csv_source(self, tmp_path, capsys):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=6, samples_per_class_per_modality=6, d_in=8, seed=3))
        path = tmp_path / "dup.csv"
        write_dataset(ds, path)
        lines = path.read_text().splitlines()
        # line 6 takes the id of line 2, the first sample
        lines[5] = "0" + lines[5][lines[5].index(","):]
        path.write_text("\n".join(lines) + "\n")
        rc = main(["train", "--out", str(tmp_path / "out"),
                   "--data.source", str(path)])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert ":6: duplicate id 0 (first on line 2)" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "mathm").exists()


    UNLOADABLE = {
        "not_utf8": ":4: not UTF-8 text",
        "directory": ": cannot read dataset",
        "class_1e23": ":3: id and class must be in [0, 2**63)",
        "class_4e18": ": labels must be contiguous",
    }

    @pytest.mark.parametrize("case", UNLOADABLE)
    def test_unloadable_csv_source(self, tmp_path, capsys, case):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=6, samples_per_class_per_modality=6, d_in=8, seed=3))
        path = tmp_path / "ds.csv"
        write_dataset(ds, path)
        lines = path.read_bytes().split(b"\n")
        if case == "not_utf8":
            lines[3] = lines[3].replace(b"sketch", b"sk\xffetch")
        elif case == "directory":
            path.unlink()
            path.mkdir()
        else:
            label = {"class_1e23": b"10" + b"0" * 22,
                     "class_4e18": b"4" + b"0" * 18}[case]
            sid, _, rest = lines[2].split(b",", 2)
            lines[2] = b",".join([sid, label, rest])
        if case != "directory":
            path.write_bytes(b"\n".join(lines))
        rc = main(["train", "--out", str(tmp_path / "out"),
                   "--source", str(path)])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert str(path) + self.UNLOADABLE[case] in err
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "mathm").exists()

    def test_unseekable_csv_source(self, tmp_path, capsys, pipe_source):
        path = pipe_source(b"id,class,modality,f0\n0,0,sketch,1.0\n"
                           b"1,0,photo,2.0\n")
        rc = main(["train", "--out", str(tmp_path / "out"),
                   "--source", path])
        err = capsys.readouterr().err
        assert rc == 3, err
        assert_one_error_line(err, f"{path}: cannot read dataset: ")
        assert not (tmp_path / "out" / "mathm").exists()

# the environment variables that pick OpenBLAS's thread count and
# kernel and numpy's SIMD targets; a child process gets only those set
_DISPATCH_VARS = ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE",
                  "NPY_DISABLE_CPU_FEATURES", "NPY_ENABLE_CPU_FEATURES")


def _run_children(out, env_vars, methods=("mathm",)):
    """For each method, `train --total_iters 200` into `out` and `eval`
    of its checkpoint into `out/<method>/eval`, each in a child process
    whose environment sets only `env_vars` of _DISPATCH_VARS."""
    env = {k: v for k, v in os.environ.items() if k not in _DISPATCH_VARS}
    env.update(env_vars)
    src = os.path.dirname(os.path.dirname(modalmetric.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    for method in methods:
        ckpt = out / method / "seed-0" / "checkpoint.json"
        for argv in (["train", "--out", str(out), "--method", method,
                      "--total_iters", "200"],
                     ["eval", "--out", str(out / method / "eval"),
                      "--checkpoint", str(ckpt)]):
            proc = subprocess.run(
                [sys.executable, "-m", "modalmetric.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr


class TestBlasThreads:
    """Artifacts do not depend on how many threads OpenBLAS may use."""

    def _run(self, out, openblas_threads):
        _run_children(out, {} if openblas_threads is None
                      else {"OPENBLAS_NUM_THREADS": openblas_threads})
        return [(out / "mathm" / name).read_bytes() for name in (
            "seed-0/training_log.csv", "seed-0/checkpoint.json",
            "eval/metrics.json")]

    def test_artifacts_byte_identical(self, tmp_path):
        single = self._run(tmp_path / "one", "1")
        default = self._run(tmp_path / "default", None)
        assert single == default


class TestBlasKernels:
    """Across OpenBLAS kernels and numpy SIMD targets the artifacts' bits
    may differ, but every log cell, weight and metric agrees with the
    default setting's to 1e-12 absolute."""

    METHODS = ("mathm", "gan")
    VARIANTS = {
        "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
        "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
        "no-avx512": {
            "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
    }

    def _values(self, out, env_vars):
        """(artifact, column, tensor or key) -> values, over every log
        cell, checkpoint tensor entry and metrics.json value."""
        _run_children(out, {"OPENBLAS_NUM_THREADS": "1", **env_vars},
                      self.METHODS)
        values = {}
        for method in self.METHODS:
            run = out / method / "seed-0"
            header, *rows = read_rows(run / "training_log.csv")
            for column, cells in zip(header, zip(*rows)):
                values[method, "log", column] = [float(c) for c in cells]
            params, _ = load_checkpoint(run / "checkpoint.json")
            for name, tensor in params.tensors().items():
                values[method, "checkpoint", name] = tensor
            metrics = json.loads(
                (out / method / "eval" / "metrics.json").read_text())
            for key, value in metrics.items():
                values[method, "metrics", key] = value
        return values

    @pytest.fixture(scope="class")
    def default(self, tmp_path_factory):
        return self._values(tmp_path_factory.mktemp("default"), {})

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_values_agree_with_default(self, tmp_path, default, variant):
        values = self._values(tmp_path, self.VARIANTS[variant])
        assert values.keys() == default.keys()
        for name, want in default.items():
            np.testing.assert_allclose(values[name], want, rtol=0,
                                       atol=1e-12, err_msg=str(name))


class TestExitCodeMapping:
    def test_numeric_error(self, monkeypatch, capsys, tmp_path):
        from modalmetric import cli

        def boom(cfg, args):
            raise NumericError("synthetic blow-up")

        monkeypatch.setitem(cli.COMMANDS, "train", boom)
        rc = main(["train", "--out", str(tmp_path)])
        assert rc == 5
        assert "synthetic blow-up" in capsys.readouterr().err

    def test_overflowing_embeddings(self, tmp_path, capsys):
        # features near the float64 limit overflow every photo row's
        # norm, which would normalize to an all-zero embedding
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--offset_norm", "1e308", "--total_iters",
                       "50", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 5, err
        assert "non-finite embedding norm at iteration 0" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("checkpoint.json"))

    def test_overflowing_discriminator_step(self, tmp_path, capsys):
        # the first Adam step at this rate overflows the embedder's
        # weights, so the discriminator step's fresh embedding norms do
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["train", "--method", "gan", "--base_lr", "1e308",
                       "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert rc == 5, err
        assert "non-finite embedding norm at iteration 0" in err
        assert "Traceback" not in err
        assert not list(tmp_path.rglob("checkpoint.json"))
