"""Regression pin: what a short default-config run of every method tag
produces, against values committed in `regression_pin.json`.

For each tag of `METHOD_RECIPES`, `train --total_iters 200` and an
`eval` of its checkpoint give: each final tensor's sum and norm,
`l_total` and every `w_*`/`g_*` log cell at the iterations in
`PIN_ITERS`, and every `metrics.json` value. The desk gallery holds 128
photos, so there `map_at_200` equals `map_at_all`. So each trained
embedder is also scored with `compute_metrics` on the fixed `WIDE`
split, whose gallery of 256 photos makes AP@200 and P@200 cut. Each
value must match the pin to 1e-12 absolute, the bound `TestBlasKernels`
holds across OpenBLAS kernels and SIMD targets. The pin is derived from
the program, so it is no oracle; it only says that nothing moved.

A change that moves results on purpose regenerates the file with

    PYTHONPATH=src python tests/test_regression_pin.py

and declares the largest moves it prints; names it adds or drops are
counted apart from the moves.
"""

import contextlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from modalmetric import SyntheticConfig, generate_synthetic
from modalmetric.cli import main
from modalmetric.evaluation import compute_metrics
from modalmetric.model import embed_forward, load_checkpoint
from modalmetric.training import METHOD_RECIPES

PIN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                   "regression_pin.json")
PIN_ITERS = (0, 1, 99, 199)
TOLERANCE = 1e-12
# 8 classes of 32 sketches and 32 photos at the default d_in: a gallery
# past 200 photos
WIDE = SyntheticConfig(n_classes=8, samples_per_class_per_modality=32,
                       seed=11)


def pin_values(out):
    """Run every method tag into the directory `out`; returns the flat
    `method/part/name` -> value dict the pin holds."""
    values = {}
    wide = generate_synthetic(WIDE)
    for method in METHOD_RECIPES:
        run = os.path.join(out, method, "seed-0")
        ckpt = os.path.join(run, "checkpoint.json")
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in (["train", "--out", out, "--method", method,
                          "--total_iters", "200"],
                         ["eval", "--out", os.path.join(out, method, "eval"),
                          "--checkpoint", ckpt]):
                assert main(argv) == 0, argv
        params, _ = load_checkpoint(ckpt)
        for name, tensor in params.tensors().items():
            values[f"{method}/tensor/{name}/sum"] = float(tensor.sum())
            values[f"{method}/tensor/{name}/norm"] = float(
                np.linalg.norm(tensor))
        with open(os.path.join(run, "training_log.csv")) as fh:
            header, *rows = [line.split(",") for line in fh.read().split()]
        pinned = [c for c in header
                  if c == "l_total" or c.startswith(("w_", "g_"))]
        for it in PIN_ITERS:
            row = dict(zip(header, rows[it]))
            for column in pinned:
                values[f"{method}/log/{it}/{column}"] = float(row[column])
        with open(os.path.join(out, method, "eval", "metrics.json")) as fh:
            for key, value in json.load(fh).items():
                values[f"{method}/metrics/{key}"] = value
        embeddings, _ = embed_forward(params.embedder, wide.features,
                                      wide.modalities)
        wide_metrics = compute_metrics(embeddings, wide.labels,
                                       wide.modalities)
        for key, value in wide_metrics.to_dict().items():
            values[f"{method}/wide/{key}"] = value
    return values


def deviations(got, want):
    """(|got - want|, name, got, want) for every pinned name, largest
    first; a name on one side only deviates by inf."""
    rows = [(abs(got[name] - want[name]) if name in got and name in want
             else float("inf"), name, got.get(name), want.get(name))
            for name in sorted(got.keys() | want.keys())]
    return sorted(rows, key=lambda row: row[0], reverse=True)


def test_default_runs_match_the_pin(tmp_path):
    with open(PIN) as fh:
        want = json.load(fh)
    got = pin_values(str(tmp_path))
    worst, name, value, pinned = deviations(got, want)[0]
    assert worst <= TOLERANCE, (
        f"{name}: {value!r}, pinned {pinned!r} (deviation {worst:.3g})")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        values = pin_values(out)
    if os.path.exists(PIN):
        with open(PIN) as fh:
            old = json.load(fh)
        rows = deviations(values, old)
        moves = [row for row in rows if 0 < row[0] < float("inf")][:10]
        for worst, name, value, pinned in moves:
            print(f"{worst:.3g}  {name}: {pinned!r} -> {value!r}")
        if not moves:
            print("no value moved")
        added = sum(name not in old for _, name, _, _ in rows)
        dropped = sum(name not in values for _, name, _, _ in rows)
        print(f"{added} names added, {dropped} dropped")
    with open(PIN, "w") as fh:
        json.dump(values, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(values)} values to {PIN}", file=sys.stderr)
