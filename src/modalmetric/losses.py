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

Triplets are (anchor, positive, negative) index arrays throughout:
`weighted_embedding_loss` mines every requested kind with
`batch_hard_mine` and scores each with `triplet_hinge`. `triplet_hinge`
scatters its gradient with one `np.bincount` over the anchor rows, then
the positive rows, then the negative rows, each in triplet order.
bincount adds its weights one at a time, in input order, into an output
that starts at 0.0. That is the order in which three successive
`numpy.add.at` scatters (anchors, positives, negatives) sum each cell,
so the gradients, and every training artifact, are bit-identical to
that scatter.
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

    kinds: Tuple[TripletKind, ...]
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
    probs = exp / exp.sum(axis=1, keepdims=True)
    log_probs = shifted - np.log(exp.sum(axis=1, keepdims=True))
    value = -float(log_probs[np.arange(b), labels].mean())

    grad = probs.copy()
    grad[np.arange(b), labels] -= 1.0
    grad /= b
    return LossReport(value=value, active_fraction=1.0, grad=grad)


def triplet_hinge(embeddings, anchors, positives, negatives, margin):
    """Mean hinge loss over mined triplets, with its embedding gradient.

    The triplets are three equal-length int index arrays. value = (1/N) *
    sum_t max(0, d_ap - d_an + margin). The active fraction counts
    triplets whose hinge argument is strictly positive; a triplet exactly
    on the boundary contributes zero loss and zero (sub)gradient. Each
    active triplet adds (u_ap - u_an)/N to its anchor row, -u_ap/N
    to its positive row and u_an/N to its negative row, scattered by one
    `np.bincount` in the order the module docstring describes.
    """
    n_trip = len(anchors)
    if n_trip == 0:
        raise ValueError("triplet list is empty")
    e = np.asarray(embeddings, dtype=np.float64)
    e_anchor = e[anchors]
    diff_ap = e_anchor - e[positives]
    diff_an = e_anchor - e[negatives]
    # the reduction np.linalg.norm(axis=1) runs, without its Python layer
    d_ap = np.sqrt((diff_ap * diff_ap).sum(axis=1))
    d_an = np.sqrt((diff_an * diff_an).sum(axis=1))
    hinge = d_ap - d_an + margin
    active = hinge > 0.0

    value = float(np.maximum(hinge, 0.0).sum() / n_trip)
    g = float(active.sum() / n_trip)

    if not active.all():
        anchors, positives, negatives = (
            anchors[active], positives[active], negatives[active])
        diff_ap, diff_an = diff_ap[active], diff_an[active]
        d_ap, d_an = d_ap[active], d_an[active]
    u_ap = diff_ap / np.maximum(d_ap, EPS_DIST)[:, None]
    u_an = diff_an / np.maximum(d_an, EPS_DIST)[:, None]
    b, d = e.shape
    # negative indices address rows from the end, as in numpy indexing
    rows = np.concatenate((anchors, positives, negatives)) % b
    terms = np.concatenate(
        ((u_ap - u_an) / n_trip, -u_ap / n_trip, u_an / n_trip)
    )
    cells = (rows[:, None] * d + np.arange(d)).ravel()
    grad = np.bincount(cells, weights=terms.ravel(), minlength=b * d)
    return LossReport(value=value, active_fraction=g,
                      grad=grad.reshape(b, d))


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


def weighted_embedding_loss(
    embeddings, labels, modalities, cfg, kinds=ALL_KINDS, use_weighting=True
):
    """Mine and combine a set of triplet losses over one batch.

    One distance matrix and one set of label/modality masks are shared
    by all kinds: `batch_hard_mine` mines them as index arrays and
    `triplet_hinge` scores each kind.
    With `use_weighting` the combination weights come from
    `gradient_weights` on the active fractions; otherwise every included
    loss gets weight 1 (plain sum).
    The weights are constants of the current step: they are not
    differentiated through.
    """
    if len(kinds) == 0:
        raise ValueError("at least one triplet kind is required")
    e = np.asarray(embeddings, dtype=np.float64)
    anchors, mined = batch_hard_mine(
        pairwise_distance(e, e), labels, modalities, kinds
    )
    reports = tuple(
        triplet_hinge(e, anchors, pos, neg, cfg.margin) for pos, neg in mined
    )
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
        kinds=tuple(kinds),
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


def adversarial_d_loss(disc_scores_photo, disc_scores_sketch):
    """Discriminator objective: score photos near 1 and sketches near 0.

    value = -(mean log D(photo) + mean log(1 - D(sketch))), scores
    clamped to [1e-7, 1 - 1e-7] before the logs. `grad` is the pair
    (d/d photo_scores, d/d sketch_scores); entries where the clamp binds
    get zero gradient.
    """
    sp, in_p = _clamped(disc_scores_photo, "photo")
    ss, in_s = _clamped(disc_scores_sketch, "sketch")
    value = -(float(np.log(sp).mean()) + float(np.log1p(-ss).mean()))
    grad_p = np.where(in_p, -1.0 / (len(sp) * sp), 0.0)
    grad_s = np.where(in_s, 1.0 / (len(ss) * (1.0 - ss)), 0.0)
    return LossReport(value=value, active_fraction=1.0, grad=(grad_p, grad_s))


def adversarial_g_loss(disc_scores_photo, disc_scores_sketch):
    """Generator objective: push the discriminator toward the wrong
    modality call on every sample (labels flipped relative to the
    discriminator loss)."""
    sp, in_p = _clamped(disc_scores_photo, "photo")
    ss, in_s = _clamped(disc_scores_sketch, "sketch")
    value = -(float(np.log1p(-sp).mean()) + float(np.log(ss).mean()))
    grad_p = np.where(in_p, 1.0 / (len(sp) * (1.0 - sp)), 0.0)
    grad_s = np.where(in_s, -1.0 / (len(ss) * ss), 0.0)
    return LossReport(value=value, active_fraction=1.0, grad=(grad_p, grad_s))
