"""Loss functions with analytic gradients.

Every loss returns a LossReport carrying its scalar value, the fraction
of active (strictly positive hinge) triplets, and the gradient with
respect to its direct inputs. Triplet losses differentiate w.r.t. the
already-normalized embedding rows; pulling those gradients back through
the normalization and the affine map is the model's backward pass.

The three modality-aware triplet losses are combined by a closed-form
weighting that equalizes each loss's gradient contribution while
conserving the total: with active fractions g_i as the per-loss gradient
magnitudes, the weights solve

    w_i * g_i = w_j * g_j  for all active i, j
    sum(w_i * g_i) = sum(g_i)

which gives w_i = (1/n) * sum_k g_k / g_i over the active set. Losses
whose g falls below `eps_g` are dropped from the system (weight 0)
instead of having g clamped upward, so a dead loss cannot be handed an
inflated weight.

Triplets are (anchor, positive, negative) index arrays throughout.
`weighted_embedding_loss` takes a `mining.MiningPlan`, built once per
batch layout (once per training run), mines every distinct candidate
set of its kinds with one `batch_hard_mine` call and scores all the
kinds with one `triplet_hinge` call. `triplet_hinge` scatters every
kind's gradient with one `np.bincount`: kind j's cells are offset by
j*B*d, so the kinds' cell ranges are disjoint, and within a kind the
anchor rows come first, then the positive rows, then the negative
rows, each in triplet order. bincount adds its weights one at a time,
in input order, into an output that starts at 0.0. That is the order in
which three successive `numpy.add.at` scatters (anchors, positives,
negatives) sum each cell of one kind's gradient, so the gradients, and
every training artifact, are bit-identical to that scatter. Inactive
triplets stay in the scatter with zero terms: adding a zero to a sum
that started at +0.0 leaves its bits unchanged.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import pairwise_distance
from .mining import TripletKind, batch_hard_mine

# Floor on distances when dividing by d_ap / d_an in the hinge gradient;
# only reachable when two embedding rows coincide exactly.
EPS_DIST = 1e-12

ALL_KINDS = (TripletKind.CROSS, TripletKind.WITHIN, TripletKind.HYBRID)


@dataclass
class LossConfig:
    """Shared loss hyperparameters: hinge margin, embedding-loss weight
    in the total objective, and the active-set threshold for weighting."""

    margin: float = 0.2
    lam: float = 1.0
    eps_g: float = 1e-6

    def __post_init__(self):
        if self.margin <= 0:
            raise ValueError("margin must be positive")
        if self.lam < 0:
            raise ValueError("lam must be non-negative")
        if self.eps_g <= 0:
            raise ValueError("eps_g must be positive")


@dataclass
class LossReport:
    """Scalar loss value, active-triplet fraction, and input gradient.

    `grad` matches the shape of the loss's direct input: the (B, d)
    embedding matrix for triplet losses, the (B, C) logits for the
    classification loss, and a (grad_photo, grad_sketch) pair of score
    vectors for the adversarial losses.
    """

    value: float
    active_fraction: float
    grad: object


@dataclass
class WeightedLossBundle:
    """Per-kind triplet reports and their weighted combination: `value`
    and `grad` play the same roles as in a LossReport."""

    reports: Tuple[LossReport, ...]
    weights: np.ndarray
    value: float
    grad: np.ndarray


def softmax_ce(logits, labels):
    """Mean softmax cross-entropy over the batch.

    Args:
        logits: (B, C) score matrix, C >= 2.
        labels: (B,) integer labels in [0, C).

    Returns:
        LossReport with grad w.r.t. the logits, (softmax - onehot) / B.
        The active fraction is fixed at 1: classification sits outside
        the triplet weighting scheme.
    """
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    if logits.ndim != 2 or logits.shape[1] < 2:
        raise ValueError("logits must be (B, C) with C >= 2")
    b, c = logits.shape
    if labels.shape != (b,):
        raise ValueError("labels must be (B,)")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"label out of range [0, {c})")

    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    sums = exp.sum(axis=1, keepdims=True)
    rows = np.arange(b)
    log_probs = shifted[rows, labels] - np.log(sums[:, 0])
    value = -float(log_probs.mean())

    grad = exp / sums
    grad[rows, labels] -= 1.0
    grad /= b
    return LossReport(value=value, active_fraction=1.0, grad=grad)


def triplet_hinge(embeddings, anchors, positives, negatives, margin):
    """Mean hinge loss of each of k triplet kinds over shared anchors,
    with its embedding gradient.

    `anchors` is an (N,) int index array and `positives`, `negatives`
    are (k, N): kind j's triplets are (anchors[t], positives[j, t],
    negatives[j, t]). Negative indices address rows from the end, as in
    numpy indexing. Kind j's value = (1/N) * sum_t max(0, d_ap - d_an +
    margin). Its active fraction counts triplets whose hinge argument is
    strictly positive; a triplet exactly on the boundary contributes
    zero loss and zero (sub)gradient. Each active triplet adds
    (u_ap - u_an)/N to its anchor row, -u_ap/N to its positive row and
    u_an/N to its negative row, scattered by one `np.bincount` over all
    kinds in the order the module docstring describes.

    Returns:
        tuple of k LossReports, in kind order.
    """
    anchors = np.asarray(anchors)
    positives = np.asarray(positives)
    negatives = np.asarray(negatives)
    if (positives.ndim != 2 or negatives.shape != positives.shape
            or anchors.shape != positives.shape[1:]):
        raise ValueError("anchors must be (N,), positives and negatives "
                         "(k, N)")
    k, n_trip = positives.shape
    if n_trip == 0:
        raise ValueError("triplet list is empty")
    e = np.asarray(embeddings, dtype=np.float64)
    e_anchor = e[anchors]
    diff_ap = e_anchor - e[positives]
    diff_an = e_anchor - e[negatives]
    # the reduction np.linalg.norm(axis=-1) runs, without its Python layer
    d_ap = np.sqrt((diff_ap * diff_ap).sum(axis=2))
    d_an = np.sqrt((diff_an * diff_an).sum(axis=2))
    hinge = d_ap - d_an + margin
    active = hinge > 0.0
    values = np.maximum(hinge, 0.0).sum(axis=1) / n_trip
    fractions = active.sum(axis=1) / n_trip

    # an inactive triplet divides by inf: its unit vectors and terms are
    # zeros, which leave every cell's sum unchanged
    u_ap = diff_ap / np.where(active, np.maximum(d_ap, EPS_DIST),
                              np.inf)[..., None]
    u_an = diff_an / np.where(active, np.maximum(d_an, EPS_DIST),
                              np.inf)[..., None]
    b, d = e.shape
    # stacked as (k, 3, N, d); np.stack's Python layer costs more than this
    terms = np.concatenate((((u_ap - u_an) / n_trip)[:, None],
                            (-u_ap / n_trip)[:, None],
                            (u_an / n_trip)[:, None]), axis=1)
    # kind j's cell of (row, column) is (j*b + row)*d + column; negative
    # indices address rows from the end, as in numpy indexing
    rows = np.empty((k, 3, n_trip), dtype=np.int64)
    rows[:, 0], rows[:, 1], rows[:, 2] = anchors, positives, negatives
    rows %= b
    rows += (np.arange(k) * b)[:, None, None]
    rows *= d
    cells = (rows[..., None] + np.arange(d)).ravel()
    grads = np.bincount(cells, weights=terms.ravel(),
                        minlength=k * b * d).reshape(k, b, d)
    return tuple(
        LossReport(value=float(v), active_fraction=float(g), grad=grad)
        for v, g, grad in zip(values, fractions, grads)
    )


def gradient_weights(g, eps_g=1e-6):
    """Solve the equal-gradient weighting system over the active set.

    Args:
        g: per-loss gradient magnitudes (active fractions), all >= 0.
        eps_g: losses with g <= eps_g are excluded and get weight 0.

    Returns:
        float64 weight array w, with w_i * g_i equal across the active
        set and sum(w_i * g_i) = sum of active g. All-inactive input
        yields all-zero weights.
    """
    g = np.asarray(g, dtype=np.float64)
    if np.any(g < 0):
        raise ValueError("gradient magnitudes must be non-negative")
    w = np.zeros_like(g)
    active = g > eps_g
    n_active = int(active.sum())
    if n_active == 0:
        return w
    w[active] = g[active].sum() / (n_active * g[active])
    return w


def weighted_embedding_loss(embeddings, plan, cfg, use_weighting=True):
    """Mine and combine the triplet losses of `plan`'s kinds over one
    batch laid out as the plan's.

    One distance matrix is shared by all kinds: `batch_hard_mine` picks
    every distinct candidate set of the plan once and `triplet_hinge`
    scores all the kinds in one call.
    With `use_weighting` the combination weights come from
    `gradient_weights` on the active fractions; otherwise every included
    loss gets weight 1 (plain sum).
    The weights are constants of the current step: they are not
    differentiated through.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    picks = batch_hard_mine(pairwise_distance(e, e), plan)
    reports = triplet_hinge(e, plan.anchors, picks[plan.positive_cells],
                            picks[plan.negative_cells], cfg.margin)
    if use_weighting:
        weights = gradient_weights(
            np.array([r.active_fraction for r in reports]), cfg.eps_g
        )
    else:
        weights = np.ones(len(reports), dtype=np.float64)
    grad = np.zeros_like(e)
    for w, r in zip(weights, reports):
        if w != 0.0:
            grad += w * r.grad
    return WeightedLossBundle(
        reports=reports,
        weights=weights,
        value=float(sum(w * r.value for w, r in zip(weights, reports))),
        grad=grad,
    )


def _clamped(scores, name):
    s = np.asarray(scores, dtype=np.float64)
    if s.size == 0:
        raise ValueError(f"{name} scores are empty")
    if s.ndim != 1:
        raise ValueError(f"{name} scores must be 1-D")
    lo, hi = 1e-7, 1.0 - 1e-7
    clamped = np.clip(s, lo, hi)
    interior = (s > lo) & (s < hi)
    return clamped, interior


def _bce(ones, zeros, ones_name, zeros_name):
    """Clamped binary cross-entropy of `ones` scored against label 1 and
    `zeros` against label 0: (value, grad_ones, grad_zeros)."""
    s1, in1 = _clamped(ones, ones_name)
    s0, in0 = _clamped(zeros, zeros_name)
    value = -(float(np.log(s1).mean()) + float(np.log1p(-s0).mean()))
    grad1 = np.where(in1, -1.0 / (len(s1) * s1), 0.0)
    grad0 = np.where(in0, 1.0 / (len(s0) * (1.0 - s0)), 0.0)
    return value, grad1, grad0


def adversarial_d_loss(disc_scores_photo, disc_scores_sketch):
    """Discriminator objective: score photos near 1 and sketches near 0.

    value = -(mean log D(photo) + mean log(1 - D(sketch))), scores
    clamped to [1e-7, 1 - 1e-7] before the logs. `grad` is the pair
    (d/d photo_scores, d/d sketch_scores); entries where the clamp binds
    get zero gradient.
    """
    value, grad_p, grad_s = _bce(disc_scores_photo, disc_scores_sketch,
                                 "photo", "sketch")
    return LossReport(value=value, active_fraction=1.0, grad=(grad_p, grad_s))


def adversarial_g_loss(disc_scores_photo, disc_scores_sketch):
    """Generator objective: the discriminator's with the labels swapped,
    so sketches are scored near 1 and photos near 0 (the non-saturating
    form). Same arguments and `grad` pair as `adversarial_d_loss`."""
    value, grad_s, grad_p = _bce(disc_scores_sketch, disc_scores_photo,
                                 "sketch", "photo")
    return LossReport(value=value, active_fraction=1.0, grad=(grad_p, grad_s))
