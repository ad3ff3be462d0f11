"""End-to-end CLI tests: artifacts, determinism, exit codes."""

import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import modalmetric
from conftest import LOG_COLUMNS
from modalmetric import (
    NumericError,
    SyntheticConfig,
    generate_synthetic,
    train,
    write_dataset,
    zero_shot_split,
)
from modalmetric.cli import COMMANDS, METRIC_KEYS, main
from modalmetric.config import SCHEMA, load_config
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
        train_once(ini, tmp_path, "--loss.margin", "0.3", "--seed", "5")
        path = tmp_path / "mathm" / "seed-5" / "checkpoint.json"
        meta = json.loads(path.read_text())["meta"]
        assert meta["train"] == {
            "method": "mathm", "d_emb": 4, "classes_per_batch": 3,
            "samples_per_class": 2, "base_lr": 0.001, "total_iters": 20,
            "seed": 5, "margin": 0.3, "lam": 1.0, "eps_g": 1e-06,
            "disc_lr_scale": 100.0,
        }
        assert meta["n_train_classes"] == 4
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
        # finite features whose row norms overflow: the data is at fault,
        # not the checkpoint (huge_weight below is the converse)
        argv = ["eval", "--config", ini, "--out", str(tmp_path / "out"),
                "--checkpoint", str(good_checkpoint)]
        if source == "synthetic":
            argv += ["--offset_norm", "1.7e308"]
            names = ["data.source = 'synthetic'", "data.sigma = 0.25",
                     "data.offset_norm = 1.7e+308"]
        else:
            ds = generate_synthetic(SyntheticConfig(
                n_classes=6, samples_per_class_per_modality=6, d_in=8,
                sigma=0.25, offset_norm=0.5, seed=3))
            ds.features *= 1e200
            path = tmp_path / "huge.csv"
            write_dataset(ds, path)
            argv += ["--source", str(path)]
            names = [f"data.source = {str(path)!r}"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 3, err
        for name in names:
            assert name in err
        assert "feature rows have non-finite norms" in err
        assert str(good_checkpoint) not in err
        assert ("data.sigma" in err) == (source == "synthetic")
        assert "Traceback" not in err
        assert not (tmp_path / "out" / "metrics.json").exists()

    def test_query_modality_photo(self, ini, tmp_path, checkpoint):
        rc = main(["eval", "--config", ini, "--out", str(tmp_path / "p"),
                   "--checkpoint", checkpoint, "--query_modality", "photo"])
        assert rc == 0

    def test_zero_shot_guard(self, ini, tmp_path, checkpoint, capsys):
        # precondition: the seed-4 split's unseen classes intersect the
        # seed-3 split's training classes
        def split(seed):
            full = generate_synthetic(SyntheticConfig(
                n_classes=6, samples_per_class_per_modality=6, d_in=8,
                sigma=0.25, offset_norm=0.5, seed=seed))
            return zero_shot_split(full, 2, seed=seed)

        train3, _ = split(3)
        _, test4 = split(4)
        assert set(train3.class_ids) & set(test4.class_ids)

        rc = main(["eval", "--config", ini, "--out", str(tmp_path / "z"),
                   "--checkpoint", checkpoint, "--data.seed", "4"])
        assert rc == 4
        assert "zero-shot violation" in capsys.readouterr().err


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
    # each loads and embeds, but its tensors and class count do not all
    # fit one model of the 4 training classes and d_emb 4
    "class_ids_unknown": (_edit_payload(
        lambda p: p["meta"].update(train_class_ids=[999])), "malformed"),
    "class_count": (_edit_payload(
        lambda p: p["meta"].update(n_train_classes=3)), "malformed"),
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
        argv = [command, "--config", ini, "--out", str(tmp_path / "o")]
        if command == "eval":
            argv += ["--checkpoint", str(bad)]
        else:
            argv += ["--baseline", str(bad), "--mathm", str(good_checkpoint),
                     "--gan", str(good_checkpoint)]
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
        argv = [command, "--config", ini, "--out", str(workdir / "o")]
        if command == "eval":
            argv += ["--checkpoint", str(bad)]
        else:
            argv += ["--baseline", str(bad), "--mathm", str(good_checkpoint),
                     "--gan", str(good_checkpoint)]
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

    @pytest.fixture()
    def three_checkpoints(self, ini, tmp_path):
        paths = {}
        for method in ("baseline", "mathm", "gan"):
            train_once(ini, tmp_path / "train", "--method", method,
                       "--total_iters", "8")
            paths[method] = str(tmp_path / "train" / method / "seed-0"
                                / "checkpoint.json")
        return paths

    def test_from_checkpoints(self, ini, tmp_path, three_checkpoints):
        out = tmp_path / "diag"
        rc = main(["diagnose", "--config", ini, "--out", str(out),
                   "--baseline", three_checkpoints["baseline"],
                   "--mathm", three_checkpoints["mathm"],
                   "--gan", three_checkpoints["gan"]])
        assert rc == 0
        rows = read_rows(out / "diagnose" / "table.csv")
        assert len(rows) == 4

    def test_incomplete_checkpoints(self, ini, tmp_path, three_checkpoints,
                                    capsys):
        rc = main(["diagnose", "--config", ini, "--out", str(tmp_path / "d"),
                   "--baseline", three_checkpoints["baseline"]])
        assert rc == 2
        assert "needs all" in capsys.readouterr().err

    def test_mismatched_splits(self, ini, tmp_path, three_checkpoints,
                               monkeypatch, capsys):
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
            Path(three_checkpoints["baseline"]).read_text(encoding="utf-8"))
        payload["meta"]["train_class_ids"] = list(
            reversed(payload["meta"]["train_class_ids"]))
        doctored.write_text(json.dumps(payload))
        rc = main(["diagnose", "--config", ini, "--out", str(tmp_path / "d"),
                   "--baseline", str(doctored),
                   "--mathm", three_checkpoints["mathm"],
                   "--gan", three_checkpoints["gan"]])
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
        assert rows[0] == ["variant", "map_at_all", "map_at_all_std",
                           "prec_at_k", "prec_at_k_std"]
        assert [r[0] for r in rows[1:]] == [
            "cls-only", "cross", "within", "hybrid",
            "cross+within", "cross+hybrid", "all", "all+gw"]


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

    @pytest.mark.parametrize("bad", ["x", "", "-1", "0.5,,oops",
                                     "inf", "0,nan", "1,-inf"])
    def test_bad_lambdas(self, ini, tmp_path, bad, capsys):
        rc = main(["sweep-lambda", "--config", ini,
                   "--out", str(tmp_path), "--lambdas", bad])
        assert rc == 2
        assert "error:" in capsys.readouterr().err


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
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--meth", "--conf", "--lambda"])
    def test_flags_are_not_abbreviated(self, ini, tmp_path, flag, capsys):
        rc = main(["sweep-lambda", "--config", ini, "--out", str(tmp_path),
                   flag, "gan"])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not os.listdir(tmp_path)

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_help_names_every_method_tag(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        named = set(re.findall(r"[\w+-]+", capsys.readouterr().out))
        assert METHOD_RECIPES.keys() <= named, METHOD_RECIPES.keys() - named

    def test_dangling_override_flag(self, ini, tmp_path, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path),
                   "--margin"])
        assert rc == 2

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


    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_overflowing_synthetic_draw(self, ini, tmp_path, good_checkpoint,
                                        command, capsys):
        # finite, but sigma times a draw past 1.8 is past the float64 range
        argv = [command, "--config", ini, "--out", str(tmp_path / "out"),
                "--sigma", "1e308"]
        if command == "eval":
            argv += ["--checkpoint", str(good_checkpoint)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert "data.sigma" in err and "data.offset_norm" in err
        assert "too large to allocate" not in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("classes_per_batch", "1"), ("classes_per_batch", "-3"),
        ("samples_per_class", "1"),
        # petabyte-scale sizes, which fail at allocation
        ("d_emb", str(10**14)), ("d_in", str(10**14)),
        ("n_classes", str(10**13)),
        ("samples_per_class_per_modality", str(10**16)),
        # past int64: numpy rejects the shape before allocating
        ("d_emb", str(10**19)), ("d_in", str(10**19))])
    def test_unusable_size(self, ini, tmp_path, key, value, capsys):
        rc = main(["train", "--config", ini, "--out", str(tmp_path),
                   f"--{key}", value])
        err = capsys.readouterr().err
        assert rc == 2, err
        assert key in err
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
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejects a dedicated flag
                rc = exc.code
        event(f"exit {rc}")
        assert rc in (0, 2, 3, 4, 5), err.getvalue()
        assert "Traceback" not in err.getvalue()


class TestUnusableOut:
    """An output path that cannot be created or written exits 2 naming
    it; train finds out before its first run."""

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
        ("eval", "below_file"), ("eval", "artifact_is_dir")])
    def test_exit_2_naming_the_path(self, ini, tmp_path, good_checkpoint,
                                    command, case, monkeypatch, capsys):
        from modalmetric import cli

        trained = []

        def counted_train(*args):
            trained.append(args)
            return train(*args)

        monkeypatch.setattr(cli, "train", counted_train)
        out, named = self._block(tmp_path, case)
        argv = [command, "--config", ini, "--out", str(out)]
        if command == "eval":
            argv += ["--checkpoint", str(good_checkpoint)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == 2, err
        assert str(named) in err
        assert "Traceback" not in err
        if case == "below_file":
            assert not trained
        assert not list(tmp_path.rglob(".tmp-*"))


class TestFailedCommandOutput:
    """A command that fails after creating its output directory removes
    the directories it created that are still empty, and no other."""

    # command -> (flags that make it fail after creating --out, exit code)
    FAILURES = {
        "train": (["--offset_norm", "1e308"], 5),
        "eval": (["--offset_norm", "1.7e308"], 3),
        "ablate": (["--offset_norm", "1e308"], 5),
    }

    def _fail(self, ini, out, command, good_checkpoint, capsys):
        flags, code = self.FAILURES[command]
        argv = [command, "--config", ini, "--out", str(out), *flags]
        if command == "eval":
            argv += ["--checkpoint", str(good_checkpoint)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc == code, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", sorted(FAILURES))
    def test_new_out_removed(self, ini, tmp_path, good_checkpoint, command,
                             capsys):
        self._fail(ini, tmp_path / "new" / "out", command, good_checkpoint,
                   capsys)
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", sorted(FAILURES))
    def test_existing_out_kept(self, ini, tmp_path, good_checkpoint, command,
                               capsys):
        # empty, so only its having existed before keeps it
        out = tmp_path / "out"
        out.mkdir()
        self._fail(ini, out, command, good_checkpoint, capsys)
        assert out.is_dir()
        assert list(out.iterdir()) == []


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

class TestBlasThreads:
    """Artifacts do not depend on how many threads OpenBLAS may use."""

    def _run(self, out, openblas_threads):
        env = dict(os.environ)
        env.pop("OPENBLAS_NUM_THREADS", None)
        if openblas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = openblas_threads
        src = os.path.dirname(os.path.dirname(modalmetric.__file__))
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [src, env.get("PYTHONPATH")]))
        ckpt = out / "mathm" / "seed-0" / "checkpoint.json"
        for argv in (["train", "--out", str(out), "--method", "mathm",
                      "--total_iters", "200"],
                     ["eval", "--out", str(out / "eval"),
                      "--checkpoint", str(ckpt)]):
            proc = subprocess.run(
                [sys.executable, "-m", "modalmetric.cli", *argv],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
        return [(out / name).read_bytes() for name in (
            "mathm/seed-0/training_log.csv", "mathm/seed-0/checkpoint.json",
            "eval/metrics.json")]

    def test_artifacts_byte_identical(self, tmp_path):
        single = self._run(tmp_path / "one", "1")
        default = self._run(tmp_path / "default", None)
        assert single == default


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
