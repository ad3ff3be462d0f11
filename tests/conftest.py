"""Shared batch builders and the acceptance-report summary hook."""

import numpy as np

from modalmetric import (
    Dataset,
    LossConfig,
    batch_hard_mine,
    l2_normalize,
    weighted_embedding_loss,
)

# test_acceptance appends one "criterion N ...: PASS/FAIL" line per
# criterion; printing them in the terminal summary keeps the whole gate
# visible in one block at the end of the run.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def unit_rows(rng, n, d):
    """n random rows on the unit sphere in d dimensions."""
    return l2_normalize(rng.standard_normal((n, d)))


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
    """Hand-rolled Dataset from parallel lists with ids 0..N-1 (no
    validation)."""
    return Dataset(features, labels, mods, np.arange(len(labels)))


def mine_one(dist, labels, mods, kind, anchors=None):
    """batch_hard_mine for one kind, stacked as brute_force_mine's result
    compares: a (3, n) array of anchor, positive and negative rows."""
    anchors, [(pos, neg)] = batch_hard_mine(dist, labels, mods, (kind,),
                                            anchors)
    return np.stack((anchors, pos, neg))


def mined_loss(e, labels, mods, kind, margin=0.2):
    """The one-kind hinge report the training path computes: mined by
    batch_hard_mine, scored by triplet_hinge."""
    bundle = weighted_embedding_loss(e, labels, mods, LossConfig(margin),
                                     (kind,), use_weighting=False)
    return bundle.reports[0]
