"""Acceptance gate: nine numbered criteria, each reported as one
PASS/FAIL line in the terminal summary.

Criteria 1-5 and 9 are fast mechanical checks; criteria 6-8 share one
module-scoped experiment that trains every method variant over five
seeds at the default desk-scale configuration and evaluates each run on
the held-out unseen classes.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import modalmetric.training
from conftest import (ACCEPTANCE_LINES, hinge_one, mine_one, mined_loss,
                      pk_batch, step_gradient_error, unit_rows)
from modalmetric import (
    SyntheticConfig,
    TrainConfig,
    generate_synthetic,
    prec_at_k,
    retrieve,
    train,
)
from modalmetric.cli import evaluate_params, main
from modalmetric.config import load_config
from modalmetric.geometry import cosine_matrix, pairwise_distance
from modalmetric.losses import (
    LossConfig,
    adversarial_d_loss,
    adversarial_g_loss,
    gradient_weights,
    softmax_ce,
)
from modalmetric.mining import TripletKind, mining_plan
from modalmetric.model import embed_forward, init_params
from modalmetric.training import main_step
from oracles import average_precision, brute_force_mine, finite_diff_check


@contextmanager
def criterion(number, label, note=None):
    """Record the criterion's PASS/FAIL line, then `note` if given."""
    status = "FAIL"
    try:
        yield
        status = "PASS"
    finally:
        ACCEPTANCE_LINES.append(f"criterion {number} ({label}): {status}")
        if note:
            ACCEPTANCE_LINES.append(f"criterion {number} note: {note}")


KINDS = (TripletKind.CROSS, TripletKind.WITHIN, TripletKind.HYBRID)


def test_criterion_1_mining_equivalence():
    with criterion(1, "vectorized mining matches exhaustive reference"):
        rng = np.random.default_rng(2024)
        start = time.perf_counter()
        batches = 0
        mismatches = 0
        for p in range(2, 7):
            for k in range(2, 5):
                for d in (4, 8):
                    for _ in range(4):
                        e, labels, mods = pk_batch(rng, p, k, d)
                        dist = pairwise_distance(e, e)
                        for kind in KINDS:
                            fast = mine_one(dist, labels, mods, kind)
                            slow = brute_force_mine(e, labels, mods, kind)
                            if not np.array_equal(fast, slow):
                                mismatches += 1
                        batches += 1
        elapsed = time.perf_counter() - start
        assert batches >= 100
        assert mismatches == 0
        assert elapsed < 10.0


def test_criterion_2_weighting_identities():
    with criterion(2, "gradient weighting equalizes and conserves"):
        np.testing.assert_allclose(
            gradient_weights([1.0, 1.0, 1.0]), [1.0, 1.0, 1.0], rtol=0,
            atol=1e-12)
        np.testing.assert_allclose(
            gradient_weights([0.5, 0.25, 0.25]), [2 / 3, 4 / 3, 4 / 3],
            rtol=0, atol=1e-12)
        rng = np.random.default_rng(77)
        checked = 0
        for case in range(1000):
            g = rng.uniform(0.0, 1.0, size=3)
            dead = rng.random(3) < 0.3
            g[dead] = 0.0
            if case < 5:  # force the all-dead and single-survivor corners
                g = np.array([[0.0, 0.0, 0.0],
                              [1.0, 0.0, 0.0],
                              [0.0, 0.5, 0.0],
                              [1e-9, 0.3, 0.0],
                              [0.25, 0.5, 1.0]][case])
            w = gradient_weights(g)
            active = g > 1e-6
            contrib = w * g
            assert np.all(w[~active] == 0.0)
            if active.any():
                vals = contrib[active]
                for i in range(len(vals)):
                    for j in range(len(vals)):
                        assert abs(vals[i] - vals[j]) <= 1e-12
                assert abs(contrib.sum() - g[active].sum()) <= 1e-12
            else:
                assert np.all(w == 0.0)
            checked += 1
        assert checked >= 1000


def test_criterion_3_gradient_checks():
    with criterion(3, "analytic gradients match finite differences"):
        rng = np.random.default_rng(404)
        start = time.perf_counter()

        # classification loss
        for _ in range(25):
            logits = rng.standard_normal((6, 4))
            labels = rng.integers(0, 4, size=6)
            report = softmax_ce(logits, labels)
            err = finite_diff_check(
                lambda L: softmax_ce(L, labels).value, logits, report.grad
            )
            assert err <= 1e-4

        # each mined triplet loss, re-mining inside the probe
        for kind in KINDS:
            done = 0
            attempts = 0
            while done < 25:
                attempts += 1
                assert attempts < 200
                e, labels, mods = pk_batch(rng, 3, 2, 6)
                report = mined_loss(e, labels, mods, kind, 0.5)
                if report.active_fraction == 0.0:
                    continue  # boundary-free but vacuous; resample
                err = finite_diff_check(
                    lambda E: mined_loss(E, labels, mods, kind, 0.5).value,
                    e, report.grad
                )
                assert err <= 1e-4
                done += 1

        # fixed-triplet hinge
        for _ in range(20):
            e, labels, mods = pk_batch(rng, 3, 2, 5)
            trips = brute_force_mine(e, labels, mods, TripletKind.CROSS)
            report = hinge_one(e, *trips, 0.5)
            err = finite_diff_check(
                lambda E: hinge_one(E, *trips, 0.5).value, e, report.grad
            )
            assert err <= 1e-4

        # adversarial heads, interior scores only
        photo = np.repeat([True, False], 5)
        for _ in range(20):
            scores = rng.uniform(0.2, 0.8, size=10)
            for fn in (adversarial_d_loss, adversarial_g_loss):
                report = fn(scores, photo)
                assert finite_diff_check(
                    lambda x: fn(x, photo).value, scores, report.grad) <= 1e-4

        # end to end: the objective's value and the whole main group of
        # its gradient as train's main step forms them, through
        # normalization, mining, weighting and the classifier
        config = TrainConfig(method="mathm", d_emb=3,
                             loss=LossConfig(margin=0.5))
        labels = np.repeat(np.arange(3), 4)
        mods = np.tile([0, 0, 1, 1], 3)
        plan = mining_plan(labels, mods, KINDS)
        for _ in range(20):
            params = init_params(5, 3, 3, rng)
            x = rng.standard_normal((12, 5))
            (main, _), _ = params.groups()
            err = step_gradient_error(
                lambda p, g: main_step(p, g, x, labels, mods, plan,
                                       config)[0],
                params, main)
            assert err <= 1e-4

        assert time.perf_counter() - start < 30.0


def test_criterion_4_retrieval_metrics():
    with criterion(4, "AP and precision match exhaustive computation"):
        def reference_ap(rel, truncate_at=None):
            total = int(sum(rel))
            head = rel if truncate_at is None else rel[:truncate_at]
            denom = total if truncate_at is None else min(total, truncate_at)
            hits, score = 0, 0.0
            for i, r in enumerate(head):
                if r:
                    hits += 1
                    score += hits / (i + 1)
            return score / denom

        rng = np.random.default_rng(555)
        lists = 0
        while lists < 200:
            n = int(rng.integers(1, 40))
            rel = (rng.random(n) < rng.uniform(0.1, 0.9)).astype(int)
            if rel.sum() == 0:
                continue
            assert abs(average_precision(rel) - reference_ap(rel)) <= 1e-12
            cut = int(rng.integers(1, n + 1))
            assert abs(average_precision(rel, truncate_at=cut)
                       - reference_ap(rel, truncate_at=cut)) <= 1e-12
            k = int(rng.integers(1, n + 5))
            ranked = type("R", (), {"relevance": rel[None]})()
            m = min(k, n)
            assert abs(prec_at_k(ranked, k) - rel[:m].sum() / m) <= 1e-12
            lists += 1

        assert abs(average_precision([1, 0, 1, 0]) - 5 / 6) <= 1e-9
        assert abs(average_precision([0, 0, 1, 1]) - 5 / 12) <= 1e-9
        assert abs(average_precision([1, 0, 1, 0]) - 0.83333) <= 5e-6
        assert abs(average_precision([0, 0, 1, 1]) - 0.41667) <= 5e-6


def test_criterion_5_embedding_geometry(monkeypatch):
    with criterion(5, "unit-norm embeddings and the distance identity"):
        calls = {"n": 0}
        real = embed_forward

        def recording(params, features, modalities):
            e, cache = real(params, features, modalities)
            assert np.abs(np.linalg.norm(e, axis=1) - 1.0).max() <= 1e-6
            calls["n"] += 1
            return e, cache

        monkeypatch.setattr(modalmetric.training, "embed_forward", recording)
        ds = generate_synthetic(SyntheticConfig(
            n_classes=6, samples_per_class_per_modality=6, d_in=8,
            sigma=0.25, offset_norm=0.5, seed=3))
        for method, iters in (("mathm", 150), ("gan", 100)):
            train(ds, TrainConfig(method=method, d_emb=4,
                                  classes_per_batch=3, samples_per_class=2,
                                  total_iters=iters, seed=0))
        # the adversarial run embeds twice per iteration
        assert calls["n"] >= 150 + 2 * 100

        rng = np.random.default_rng(8)
        a = unit_rows(rng, 40, 6)
        b = unit_rows(rng, 30, 6)
        d = pairwise_distance(a, b)
        cos = cosine_matrix(a, b)
        assert np.abs(d**2 - (2.0 - 2.0 * cos)).max() <= 1e-6


@pytest.fixture(scope="module")
def experiment():
    """Train every method variant for five seeds at the default
    desk-scale configuration; evaluate on the unseen classes."""
    cfg = load_config()
    assert cfg.data["n_classes"] == 16 and cfg.data["n_unseen"] == 4
    train_set, test_set = cfg.load_data()
    seeds = [0, 1, 2, 3, 4]
    variants = {
        "cls-only": {"method": "cls-only"},
        "baseline": {"method": "baseline"},
        "mathm-nogw": {"method": "mathm-nogw"},
        "mathm": {"method": "mathm"},
        "gan": {"method": "gan"},
        "mathm-lam0": {"method": "mathm", "lam": 0.0},
    }
    metrics = {name: [] for name in variants}
    times = dict.fromkeys(variants, 0.0)
    for name, fields in variants.items():
        for seed in seeds:
            overrides = dict(fields)
            lam = overrides.pop("lam", None)
            tc = replace(cfg.train_config(seed), **overrides)
            if lam is not None:
                tc = replace(tc, loss=replace(tc.loss, lam=lam))
            t0 = time.perf_counter()
            result = train(train_set, tc)
            m = evaluate_params(result.params, test_set, cfg,
                                train_set.class_ids)
            times[name] += time.perf_counter() - t0
            metrics[name].append(m.to_dict())
    return {"metrics": metrics, "times": times, "n_seeds": len(seeds)}


def _per_seed(experiment, method, key):
    return np.array([run[key] for run in experiment["metrics"][method]])


def test_criterion_6_method_comparison(experiment):
    with criterion(6, "adversarial closes the gap, triplet mining wins mAP"):
        n = experiment["n_seeds"]
        gap = {m: _per_seed(experiment, m, "modality_gap")
               for m in ("baseline", "mathm", "gan")}
        retrieval = {m: _per_seed(experiment, m, "map_at_all")
                     for m in ("baseline", "mathm", "gan")}
        smallest_gap = int(np.sum((gap["gan"] < gap["baseline"])
                                  & (gap["gan"] < gap["mathm"])))
        largest_gap = int(np.sum((gap["baseline"] > gap["mathm"])
                                 & (gap["baseline"] > gap["gan"])))
        best_map = int(np.sum((retrieval["mathm"] > retrieval["baseline"])
                              & (retrieval["mathm"] > retrieval["gan"])))
        assert smallest_gap >= 4, f"gan smallest gap on {smallest_gap}/{n}"
        assert largest_gap >= 4, f"baseline largest gap on {largest_gap}/{n}"
        assert best_map >= 4, f"mathm best mAP on {best_map}/{n}"
        budget = sum(experiment["times"][m]
                     for m in ("baseline", "mathm", "gan"))
        assert budget < 600.0
    ACCEPTANCE_LINES.append(
        "criterion 6 note: gan map_at_all mean "
        f"{float(np.mean(_per_seed(experiment, 'gan', 'map_at_all'))):.4f} "
        "(recorded, not gated)"
    )


def _margins(experiment, links, wins):
    """Each (hi, lo) link's mean map_at_all difference and the number of
    seeds where `wins(hi, lo)` holds: what a reordering re-draws."""
    n = experiment["n_seeds"]
    notes = []
    for hi, lo in links:
        a = _per_seed(experiment, hi, "map_at_all")
        b = _per_seed(experiment, lo, "map_at_all")
        diff = float(np.mean(a)) - float(np.mean(b))
        notes.append(f"{hi} − {lo} = {diff:+.1e} "
                     f"({int(np.sum(wins(a, b)))}/{n})")
    return "map_at_all mean " + ", ".join(notes)


def test_criterion_7_component_chain(experiment):
    chain = [("mathm", "mathm-nogw"), ("mathm-nogw", "baseline"),
             ("baseline", "cls-only")]
    with criterion(7, "each added component helps retrieval",
                   _margins(experiment, chain, np.greater_equal)):
        n = experiment["n_seeds"]
        maps = {m: _per_seed(experiment, m, "map_at_all")
                for m in ("cls-only", "baseline", "mathm-nogw", "mathm")}
        for hi, lo in chain:
            assert float(np.mean(maps[hi])) >= float(np.mean(maps[lo])), (
                f"mean map_at_all: {hi} < {lo}")
            wins = int(np.sum(maps[hi] >= maps[lo]))
            assert wins * 2 > n, f"{hi} >= {lo} on only {wins}/{n} seeds"
        budget = sum(experiment["times"][m]
                     for m in ("cls-only", "baseline", "mathm-nogw", "mathm"))
        assert budget < 1200.0


def test_criterion_8_lambda_sweep(experiment):
    with criterion(8, "embedding loss weight improves over none",
                   _margins(experiment, [("mathm", "mathm-lam0")],
                            np.greater)):
        n = experiment["n_seeds"]
        lam1 = _per_seed(experiment, "mathm", "map_at_all")
        lam0 = _per_seed(experiment, "mathm-lam0", "map_at_all")
        assert float(np.mean(lam1)) > float(np.mean(lam0))
        wins = int(np.sum(lam1 > lam0))
        assert wins * 2 > n, f"lam=1 beats lam=0 on only {wins}/{n} seeds"


def test_criterion_9_determinism(tmp_path):
    with criterion(9, "identical seeds give byte-identical artifacts"):
        ds = generate_synthetic(SyntheticConfig(
            n_classes=6, samples_per_class_per_modality=6, d_in=8,
            sigma=0.25, offset_norm=0.5, seed=3))
        cfg = TrainConfig(method="mathm", d_emb=4, classes_per_batch=3,
                          samples_per_class=2, total_iters=20, seed=0)
        a = train(ds, cfg)
        b = train(ds, cfg)
        assert a.log == b.log
        for name, arr in a.params.tensors().items():
            assert np.array_equal(arr, b.params.tensors()[name])

        data_flags = ["--n_classes", "6",
                      "--samples_per_class_per_modality", "6",
                      "--d_in", "8", "--n_unseen", "2", "--data.seed", "3"]
        train_flags = ["--d_emb", "4", "--classes_per_batch", "3",
                       "--samples_per_class", "2", "--total_iters", "20"]
        for sub in ("a", "b"):
            rc = main(["train", "--out", str(tmp_path / sub),
                       *data_flags, *train_flags])
            assert rc == 0
            ckpt = tmp_path / sub / "mathm" / "seed-0" / "checkpoint.json"
            rc = main(["eval", "--out", str(tmp_path / sub),
                       "--checkpoint", str(ckpt), *data_flags])
            assert rc == 0
        for rel in (("mathm", "seed-0", "training_log.csv"),
                    ("mathm", "seed-0", "checkpoint.json"),
                    ("metrics.json",)):
            pa = tmp_path.joinpath("a", *rel).read_bytes()
            pb = tmp_path.joinpath("b", *rel).read_bytes()
            assert pa == pb, "/".join(rel)
