"""Guards for the benchmark's lookup sites.

`bench/tracer.py` wraps functions at the names their callers look them
up. A rename that leaves one of its sites behind either breaks traced
runs (the site is missing) or leaves a span reading zero calls (the
caller no longer looks the name up). Both show here without running the
benchmark.
"""

import importlib.util
import os

import numpy as np
import pytest

import modalmetric.data as data
import modalmetric.evaluation as evaluation
import modalmetric.losses as losses
import modalmetric.training as training
from conftest import pk_batch
from modalmetric import SyntheticConfig, TrainConfig, generate_synthetic
from modalmetric.mining import mining_plan

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench",
                      "tracer.py")


def tracer_sites():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SITES


def test_every_site_is_defined_on_its_owner():
    for name, sites in tracer_sites().items():
        for owner, attr in sites:
            assert attr in owner.__dict__, f"{name}: {owner.__name__}.{attr}"


def count_calls(monkeypatch, owner, names):
    """Wrap `names` on `owner` with counters; returns the live counts."""
    calls = dict.fromkeys(names, 0)
    for attr in calls:
        def counted(*args, _attr=attr, _fn=getattr(owner, attr), **kwargs):
            calls[_attr] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    return calls


def test_weighted_loss_looks_up_the_traced_names(monkeypatch):
    # one call of each per iteration: the losses.triplet_hinge span
    # covers every triplet kind of the step
    calls = count_calls(monkeypatch, losses,
                        ("pairwise_distance", "batch_hard_mine",
                         "triplet_hinge"))
    e, labels, mods = pk_batch(np.random.default_rng(0), 3, 2, 6)
    losses.weighted_embedding_loss(
        e, mining_plan(labels, mods, losses.ALL_KINDS), losses.LossConfig())
    assert calls == {"pairwise_distance": 1, "batch_hard_mine": 1,
                     "triplet_hinge": 1}


def test_compute_metrics_looks_up_the_traced_names(monkeypatch):
    # the evaluation.diagnostics span covers all five diagnostic fields,
    # and the geometry.pairwise_distance span counts one call per query
    # block, only if compute_metrics reaches them through these names;
    # compute_metrics ranks without `retrieve`, so evaluation.retrieve
    # reads zero calls in an eval
    calls = count_calls(monkeypatch, evaluation,
                        ("between_class_discrepancy", "modality_gap",
                         "within_class_similarity", "pairwise_distance",
                         "retrieve"))
    e, labels, mods = pk_batch(np.random.default_rng(0), 7, 2, 6)
    evaluation.compute_metrics(e, labels, mods, k=3)
    assert calls == {"between_class_discrepancy": 1, "modality_gap": 1,
                     "within_class_similarity": 1, "pairwise_distance": 1,
                     "retrieve": 0}
    # 14 queries against 14 photos, in blocks of 5 and of 13 rows
    for rows, blocks in ((5, 3), (13, 2)):
        monkeypatch.setattr(evaluation, "QUERY_BLOCK_ENTRIES", rows * 14)
        calls["pairwise_distance"] = 0
        evaluation.compute_metrics(e, labels, mods, k=3)
        assert calls["pairwise_distance"] == blocks
        assert calls["retrieve"] == 0


@pytest.mark.parametrize("method, steps_per_iter", [("cls-only", 1),
                                                    ("mathm", 1), ("gan", 2)])
def test_train_looks_up_the_traced_names(monkeypatch, method,
                                         steps_per_iter):
    # the model, loss and data.sample spans read real calls only while
    # train's steps reach these names through training's globals
    calls = count_calls(monkeypatch, training,
                        ("adam_step", "embed_forward", "embed_backward",
                         "softmax_ce", "weighted_embedding_loss",
                         "adversarial_g_loss", "adversarial_d_loss"))
    samples = count_calls(monkeypatch, data.PKSampler, ("sample",))
    ds = generate_synthetic(SyntheticConfig(
        n_classes=3, samples_per_class_per_modality=4, d_in=5, seed=2))
    training.train(ds, TrainConfig(method=method, d_emb=3,
                                   classes_per_batch=2, samples_per_class=2,
                                   total_iters=4))
    adversarial = 4 if method == "gan" else 0
    assert calls == {"adam_step": 4 * steps_per_iter,
                     "embed_forward": 4 * steps_per_iter,
                     "embed_backward": 4, "softmax_ce": 4,
                     "weighted_embedding_loss":
                         0 if method == "cls-only" else 4,
                     "adversarial_g_loss": adversarial,
                     "adversarial_d_loss": adversarial}
    assert samples == {"sample": 4}
