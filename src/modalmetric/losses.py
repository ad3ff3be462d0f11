"""Loss functions with analytic gradients.

Every loss takes the batch's arrays whole. The classification and
adversarial losses return a LossReport: the value and the gradient on
the (B, C) logits or the (B,) discriminator scores. The triplet losses
report each kind's value and fraction of active (strictly positive
hinge) triplets, and differentiate w.r.t. the already-normalized
embedding rows; pulling that gradient back through the normalization
and the affine map is the model's backward pass.

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

Triplets are (N,) anchors and one (k, 2, N) index array of k kinds'
positives and negatives, the shape of their pair weights.
`weighted_embedding_loss` takes a `mining.MiningPlan`, built once per
batch layout (once per training run), mines the triplets of all its
kinds with one `batch_hard_mine` call and scores them with one
`triplet_hinge` call.

The hinge's gradient lives on pairs of rows: an active triplet weighs
its (anchor, positive) pair 1/(N d_ap) and its (anchor, negative) pair
-1/(N d_an), and a pair (i, j) weighted w adds w (e_i - e_j) to row i
and the negation to row j. `triplet_hinge` returns the pair weights,
the combination weights scale them, and `pair_gradient` sums every
kind's pairs into one graph Laplacian L = diag(A 1) - A of the (B, B)
pair-weight matrix A: one bincount and one product L E per batch.
"""

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .geometry import pairwise_distance
from .mining import TripletKind, batch_hard_mine

# Floor on d_ap / d_an in the hinge's pair weights, for rows closer than
# this but not coincident (a pair at distance exactly 0 weighs 0).
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
    """Scalar loss value and input gradient of the classification and
    adversarial losses.

    `grad` matches the shape of the loss's direct input: the (B, C)
    logits for the classification loss, the (B,) discriminator scores
    for the adversarial losses.
    """

    value: float
    grad: np.ndarray


@dataclass
class WeightedLossBundle:
    """The triplet losses of one batch: each kind's value and active
    fraction, in kind order, the combination weights, and the weighted
    sum's value and (B, d) gradient on the embedding rows."""

    values: Tuple[float, ...]
    fractions: Tuple[float, ...]
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
    return LossReport(value=value, grad=grad)


def triplet_hinge(embeddings, anchors, others, margin):
    """Mean hinge loss of each of k triplet kinds over shared anchors,
    with the pair weights of its embedding gradient.

    `anchors` is an (N,) int index array and `others` a (k, 2, N) one:
    kind j's triplets are (anchors[t], others[j, 0, t], others[j, 1, t]),
    its positives then its negatives. Negative indices address rows from
    the end, as in numpy indexing. Kind j's value = (1/N) * sum_t max(0, d_ap - d_an +
    margin). Its active fraction counts triplets whose hinge argument is
    strictly positive; a triplet exactly on the boundary contributes
    zero loss and zero (sub)gradient.

    Returns:
        (values, fractions, pair_weights): (k,) arrays, and the (k, 2, N)
        `pair_gradient` weights of each triplet's (anchor, positive) and
        (anchor, negative) pairs, 1/(N d_ap) and -1/(N d_an); 0 for an
        inactive triplet and for a pair at distance exactly 0.
    """
    anchors = np.asarray(anchors)
    others = np.asarray(others)
    if (others.ndim != 3 or others.shape[1] != 2
            or anchors.shape != others.shape[2:]):
        raise ValueError("anchors must be (N,) and others (k, 2, N)")
    n_trip = others.shape[2]
    if n_trip == 0:
        raise ValueError("triplet list is empty")
    e = np.asarray(embeddings, dtype=np.float64)
    diff = e[anchors] - e[others]
    # the reduction np.linalg.norm(axis=-1) runs, without its Python layer
    dist = np.sqrt((diff * diff).sum(axis=3))
    hinge = dist[:, 0] - dist[:, 1] + margin
    active = hinge > 0.0
    values = np.maximum(hinge, 0.0).sum(axis=1) / n_trip
    fractions = active.sum(axis=1) / n_trip
    pair_weights = np.where(active[:, None] & (dist > 0.0),
                            1.0 / (n_trip * np.maximum(dist, EPS_DIST)), 0.0)
    pair_weights[:, 1] *= -1.0  # (anchor, negative) pairs push apart
    return values, fractions, pair_weights


def pair_gradient(embeddings, firsts, seconds, weights):
    """Gradient on the embedding rows of weighted pairs: pair (i, j) =
    (firsts[p], seconds[p]) adds weights[p] * (e_i - e_j) to row i and
    the negation to row j. That is L @ E, L = diag(A @ 1) - A the graph
    Laplacian of the symmetric matrix A of summed pair weights, and one
    bincount builds L. The three arrays broadcast to one shape; negative
    indices address rows from the end, as in numpy indexing, and an
    index outside [-B, B) raises IndexError."""
    e = np.asarray(embeddings, dtype=np.float64)
    b = len(e)
    i, j, w = map(np.ravel, np.broadcast_arrays(firsts, seconds, weights))
    rows = np.arange(b)
    i, j = rows[i], rows[j]
    cells = np.concatenate((i, j, i, j)) * b + np.concatenate((i, j, j, i))
    laplacian = np.bincount(cells, np.concatenate((w, w, -w, -w)),
                            minlength=b * b).reshape(b, b)
    return laplacian @ e


def gradient_weights(g, eps_g=LossConfig.eps_g):
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

    One distance matrix is shared by all kinds: `batch_hard_mine` mines
    the triplets of every kind of the plan and `triplet_hinge` scores
    them in one call. With `use_weighting` the combination weights come
    from `gradient_weights` on the active fractions; otherwise every
    included loss gets weight 1 (plain sum).
    The weights are constants of the current step: they are not
    differentiated through. They scale each kind's pair weights, and one
    `pair_gradient` call turns all of them into the gradient.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    others = batch_hard_mine(pairwise_distance(e, e), plan)
    values, fractions, pair_weights = triplet_hinge(
        e, plan.anchors, others, cfg.margin)
    weights = (gradient_weights(fractions, cfg.eps_g) if use_weighting
               else np.ones(len(values)))
    return WeightedLossBundle(
        values=tuple(values.tolist()),
        fractions=tuple(fractions.tolist()),
        weights=weights,
        value=float(sum(weights * values)),
        grad=pair_gradient(e, plan.anchors, others,
                           weights[:, None, None] * pair_weights),
    )


def _bce(scores, ones):
    """Clamped binary cross-entropy of the (B,) `scores` against the
    (B,) bool label mask `ones`, as `adversarial_d_loss` describes."""
    s = np.asarray(scores, dtype=np.float64)
    ones = np.asarray(ones, dtype=bool)
    if s.ndim != 1 or ones.shape != s.shape:
        raise ValueError("scores and label mask must be 1-D, one length")
    n_ones = int(np.count_nonzero(ones))
    if n_ones in (0, len(s)):
        raise ValueError("the label mask must hold both labels")
    lo, hi = 1e-7, 1.0 - 1e-7
    c = np.clip(s, lo, hi)
    value = -(float(np.log(c[ones]).mean())
              + float(np.log1p(-c[~ones]).mean()))
    grad = np.where(ones, -1.0 / (n_ones * c),
                    1.0 / ((len(s) - n_ones) * (1.0 - c)))
    interior = (s > lo) & (s < hi)
    return LossReport(value=value, grad=np.where(interior, grad, 0.0))


def adversarial_d_loss(scores, photo):
    """Discriminator objective: score photos near 1 and sketches near 0.

    `scores` are the (B,) discriminator outputs of a batch and `photo`
    its (B,) bool photo mask. value = -(mean log D(photo) + mean
    log(1 - D(sketch))), scores clamped to [1e-7, 1 - 1e-7] before the
    logs. `grad` is the (B,) gradient on the scores; entries where the
    clamp binds get zero gradient.
    """
    return _bce(scores, photo)


def adversarial_g_loss(scores, photo):
    """Generator objective: the discriminator's with the labels swapped,
    so sketches are scored near 1 and photos near 0 (the non-saturating
    form). Same arguments and (B,) `grad` as `adversarial_d_loss`."""
    return _bce(scores, np.logical_not(photo))
