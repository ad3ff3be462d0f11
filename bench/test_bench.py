"""Fast tests of the benchmark itself: the form of BENCHMARK.json, the
metric names the command prints, and that each checker rejects a
corrupted artifact.

    python3 -m pytest bench -q
"""

import contextlib
import io
import json
import math
import os
import re
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
PATH = re.compile(r"[A-Za-z0-9_./-]{1,200}")

# Well separated classes, so even a few iterations retrieve above chance.
TINY = {
    "data": {"n_classes": 6, "samples_per_class_per_modality": 6, "d_in": 8,
             "sigma": 0.05, "n_unseen": 2},
    "csv": True,
    "train": {"total_iters": 6, "d_emb": 4, "classes_per_batch": 3,
              "samples_per_class": 2},
    "groups": (("mathm", 2), ("gan", 1)),
    "evals": 1,
    "setup_repeats": 1,
}


@pytest.fixture
def manifest():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "WORKLOADS", {"tiny": TINY})
    monkeypatch.setattr(run, "OUT", str(tmp_path))


def test_manifest_form(manifest):
    assert set(manifest) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    command = manifest["command"]
    assert 1 <= len(command) <= 32
    assert all(isinstance(a, str) and len(a) <= 200 for a in command)
    assert 1 <= len(manifest["paths"]) <= 16
    for path in manifest["paths"]:
        assert PATH.fullmatch(path) and not path.startswith("/")
        assert ".." not in path.split("/")
        assert os.path.isdir(os.path.join(ROOT, path))
    seconds = manifest["run_seconds"]
    assert isinstance(seconds, int) and 1 <= seconds <= 60
    assert 2 <= len(manifest["workloads"]) <= 8
    for workload in manifest["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200
    assert 1 <= len(manifest["end_to_end"]) <= 16
    for metric in manifest["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = [m for m in manifest["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in manifest["end_to_end"])}]
    assert 1 <= len(manifest["per_layer"]) <= 128
    for metric in manifest["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in manifest[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for metric in manifest["end_to_end"] + manifest["per_layer"]:
        assert UNIT.fullmatch(metric["unit"])
        assert metric["better"] in ("lower", "higher")
    assert len(json.dumps(manifest)) <= 64 * 1024


def test_manifest_matches_runner(manifest):
    assert [w["name"] for w in manifest["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in manifest["end_to_end"]} \
        == run.END_TO_END
    layers = {name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    layers.update(run.DERIVED_LAYER)
    assert {m["name"]: m["unit"] for m in manifest["per_layer"]} == layers


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_printed(manifest, tiny, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "tiny", "--seed", "5",
                         "--seconds", "0", "--trace", str(trace)])
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 4
    expected = manifest["per_layer" if trace else "end_to_end"]
    assert {m: e["unit"] for m, e in result["metrics"].items()} \
        == {m["name"]: m["unit"] for m in expected}
    assert all(math.isfinite(e["value"]) for e in result["metrics"].values())


def test_missing_program_exits_nonzero(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "single-run", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) != 0
    assert capsys.readouterr().out == ""


@pytest.fixture
def artifacts(tiny):
    """One clean round of the tiny workload, already checked."""
    bench = run.Bench("tiny", 5)
    bench.setup()
    rec = bench.round(None)
    bench.check_round(rec)
    assert bench.problems == []
    return bench, rec


def _group(bench, method, n_seeds):
    from modalmetric import model

    runs, _, metrics, mean = bench.paths(method, n_seeds)
    ckpt = os.path.join(runs[0], "checkpoint.json")
    payload = json.loads(run.read_text(ckpt))
    params, _ = model.load_checkpoint(ckpt)
    emb, _ = model.embed_forward(params.embedder, bench.test_set.features,
                                 bench.test_set.modalities)
    log = run.read_text(os.path.join(runs[0], "training_log.csv"))
    return payload, emb, log, metrics, mean


def test_checkpoint_checks_reject_corruption(artifacts):
    bench, _ = artifacts
    payload, emb, _, metrics_paths, _ = _group(bench, "gan", 1)
    metrics = json.loads(run.read_text(metrics_paths[0]))
    k = bench.cfg.eval_k

    def problems(payload=payload, emb=emb, metrics=metrics):
        return checks.check_checkpoint(payload, emb, bench.test_set, k,
                                       metrics)

    assert problems() == []
    assert problems(metrics={**metrics,
                             "map_at_all": metrics["map_at_all"] + 1e-6})
    assert problems(metrics={**metrics,
                             "prec_at_k": metrics["prec_at_k"] - 1e-6})
    assert problems(emb=emb * 1.001)
    leaked = json.loads(json.dumps(payload))
    leaked["meta"]["train_class_ids"].append(bench.test_set.class_ids[0])
    assert problems(payload=leaked)


def test_log_checks_reject_corruption(artifacts):
    bench, _ = artifacts
    _, _, log, _, _ = _group(bench, "mathm", 2)
    iters = TINY["train"]["total_iters"]
    assert checks.check_log(log, iters, True, 1e-6) == []
    header, *rows = log.splitlines()
    columns = header.split(",")

    def corrupt(column, value):
        cells = rows[1].split(",")
        cells[columns.index(column)] = value
        return "\n".join([header, rows[0], ",".join(cells), *rows[2:]])

    assert checks.check_log(corrupt("l_total", "nan"), iters, True, 1e-6)
    assert checks.check_log(corrupt("w_cross", "0.5"), iters, True, 1e-6)
    assert checks.check_log(corrupt("iter", "7"), iters, True, 1e-6)
    assert checks.check_log("\n".join([header, *rows[:-1]]), iters, True,
                            1e-6)


def test_mean_and_rerun_checks_reject_corruption(artifacts):
    bench, rec = artifacts
    _, _, _, metrics_paths, mean_path = _group(bench, "mathm", 2)
    per_run = [json.loads(run.read_text(p)) for p in metrics_paths]
    mean = json.loads(run.read_text(mean_path))
    assert checks.check_mean(per_run, mean) == []
    assert checks.check_mean(per_run, {**mean, "n_runs": 3})
    assert checks.check_mean(
        per_run, {**mean, "map_at_all": mean["map_at_all"] + 1e-6})

    with open(mean_path, "a") as fh:
        fh.write(" ")
    bench.check_round(rec)
    assert len(bench.problems) == 1 and "differs" in bench.problems[0]
