"""Shared batch builders, the general pair gradient the training path's
fixed-cell Laplacian is checked against, the training step's gradient
check, the training log's columns, a pipe as a dataset source and the
acceptance-report summary hook."""

import os
from collections import namedtuple

import numpy as np
import pytest

from modalmetric import Dataset
from modalmetric.losses import (LossConfig, triplet_hinge,
                                weighted_embedding_loss)
from modalmetric.mining import batch_hard_mine, mining_plan
from modalmetric.model import ModelParams
from oracles import finite_diff_check

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


@pytest.fixture
def pipe_source():
    """A factory: the /dev/fd path of a pipe that holds the given bytes,
    with its write end already closed, so reading it needs no thread."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd")
    read_ends = []

    def make(data):
        # a pipe holds at least 16 KiB on the systems with /dev/fd; more
        # would block this write
        assert len(data) <= 16384
        r, w = os.pipe()
        read_ends.append(r)
        with os.fdopen(w, "wb") as fh:
            fh.write(data)
        return f"/dev/fd/{r}"

    yield make
    for r in read_ends:
        os.close(r)


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


def pair_gradient(embeddings, firsts, seconds, weights):
    """Gradient on the embedding rows of weighted pairs: pair (i, j) =
    (firsts[p], seconds[p]) adds weights[p] * (e_i - e_j) to row i and
    the negation to row j. That is L @ E, L = diag(A @ 1) - A the graph
    Laplacian of the symmetric matrix A of summed pair weights, and one
    bincount builds L. The three arrays broadcast to one shape; negative
    indices address rows from the end, as in numpy indexing, and an
    index outside [-B, B) raises IndexError.

    The reference of `weighted_embedding_loss`'s gradient: over the
    plan's anchors and mined rows it gives the same bits."""
    e = np.asarray(embeddings, dtype=np.float64)
    b = len(e)
    i, j, w = map(np.ravel, np.broadcast_arrays(firsts, seconds, weights))
    rows = np.arange(b)
    i, j = rows[i], rows[j]
    cells = np.concatenate((i, j, i, j)) * b + np.concatenate((i, j, j, i))
    laplacian = np.bincount(cells, np.concatenate((w, w, -w, -w)),
                            minlength=b * b).reshape(b, b)
    return laplacian @ e


def hinge_one(e, anchors, positives, negatives, margin):
    """triplet_hinge of one kind of fixed triplets as a HingeReport, its
    gradient the pair_gradient of the hinge's pair weights."""
    others = np.array([[positives, negatives]])
    [value], [fraction], [weights] = triplet_hinge(e, anchors, others,
                                                   margin)
    grad = pair_gradient(e, anchors, others[0], weights)
    return HingeReport(float(value), float(fraction), grad)


def step_gradient_error(step, params, group):
    """Worst finite_diff_check error of the gradient a training step
    writes into the `group` slice of the flat gradient buffer, against
    central differences of the value it returns.

    `step(params, grads)` returns the value and fills `grads`, a
    ModelParams over the buffer; every probe runs the whole step again,
    mining included. The step must leave the buffer outside `group`
    untouched.
    """
    grads = ModelParams(np.zeros_like(params.vector), params.shapes)
    step(params, grads)
    analytic = grads.vector[group].copy()
    grads.vector[group] = 0.0
    assert not grads.vector.any(), "the step wrote outside its group"

    def value_at(values):
        vector = params.vector.copy()
        vector[group] = values
        return step(ModelParams(vector, params.shapes),
                    ModelParams(np.zeros_like(vector), params.shapes))

    return finite_diff_check(value_at, params.vector[group], analytic)
