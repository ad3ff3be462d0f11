"""Shared batch builders, the training log's columns and the
acceptance-report summary hook."""

from collections import namedtuple

import numpy as np

from modalmetric import Dataset
from modalmetric.losses import (LossConfig, pair_gradient, triplet_hinge,
                                weighted_embedding_loss)
from modalmetric.mining import batch_hard_mine, mining_plan

# one triplet kind's hinge: value, active fraction, (B, d) gradient
HingeReport = namedtuple("HingeReport", "value active_fraction grad")

# test_acceptance appends one "criterion N ...: PASS/FAIL" line per
# criterion; printing them in the terminal summary keeps the whole gate
# visible in one block at the end of the run.
ACCEPTANCE_LINES = []

# the columns of each method's training log, in order: the keys of every
# row `train` logs, and the header of its training_log.csv
LOG_COLUMNS = {
    "cls-only": ["iter", "lr", "l_cls", "l_total"],
    "baseline": ["iter", "lr", "l_cls", "l_cross", "g_cross", "l_total"],
    "mathm": ["iter", "lr", "l_cls", "l_cross", "l_in", "l_hyb",
              "g_cross", "g_in", "g_hyb", "w_cross", "w_in", "w_hyb",
              "l_total"],
    "gan": ["iter", "lr", "l_cls", "l_cross", "g_cross",
            "l_adv_g", "l_adv_d", "l_total"],
    "within": ["iter", "lr", "l_cls", "l_in", "g_in", "l_total"],
    "hybrid": ["iter", "lr", "l_cls", "l_hyb", "g_hyb", "l_total"],
    "cross+within": ["iter", "lr", "l_cls", "l_cross", "l_in",
                     "g_cross", "g_in", "l_total"],
    "cross+hybrid": ["iter", "lr", "l_cls", "l_cross", "l_hyb",
                     "g_cross", "g_hyb", "l_total"],
    "mathm-nogw": ["iter", "lr", "l_cls", "l_cross", "l_in", "l_hyb",
                   "g_cross", "g_in", "g_hyb", "l_total"],
}


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def unit_rows(rng, n, d):
    """n random rows on the unit sphere in d dimensions."""
    v = rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def pk_batch(rng, p, k, d):
    """Random unit batch shaped like sampler output: p classes, k
    sketches then k photos per class.

    Returns:
        (embeddings, labels, modalities).
    """
    labels = np.repeat(np.arange(p), 2 * k)
    mods = np.tile(np.repeat([0, 1], k), p)
    return unit_rows(rng, 2 * p * k, d), labels, mods


def make_dataset(features, labels, mods):
    """Hand-rolled Dataset from parallel lists with ids 0..N-1."""
    return Dataset(features, labels, mods, np.arange(len(labels)))


def mine_one(dist, labels, mods, kind, anchors=None):
    """batch_hard_mine of the whole batch for one kind, stacked as
    brute_force_mine's result compares: a (3, n) array of anchor,
    positive and negative rows, restricted to the columns of `anchors`
    when given."""
    plan = mining_plan(labels, mods, (kind,))
    [others] = batch_hard_mine(dist, plan)
    triplets = np.concatenate((plan.anchors[None], others))
    return triplets if anchors is None else triplets[:, anchors]


def mined_loss(e, labels, mods, kind, margin=0.2):
    """The one-kind hinge the training path computes, mined by
    batch_hard_mine and scored by triplet_hinge, as a HingeReport."""
    bundle = weighted_embedding_loss(e, mining_plan(labels, mods, (kind,)),
                                     LossConfig(margin), use_weighting=False)
    return HingeReport(bundle.values[0], bundle.fractions[0], bundle.grad)


def hinge_one(e, anchors, positives, negatives, margin):
    """triplet_hinge of one kind of fixed triplets as a HingeReport, its
    gradient the pair_gradient of the hinge's pair weights."""
    others = np.array([[positives, negatives]])
    [value], [fraction], [weights] = triplet_hinge(e, anchors, others,
                                                   margin)
    grad = pair_gradient(e, anchors, others[0], weights)
    return HingeReport(float(value), float(fraction), grad)
