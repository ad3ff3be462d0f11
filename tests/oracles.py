"""Independent references the fast paths are checked against.

Each derives its result the slow, direct way, by its definition:

- `brute_force_mine`, the exhaustive miner, against `batch_hard_mine`;
- `finite_diff_check`, central finite differences, against the
  analytic gradients;
- `average_precision`, AP of one query from its precision curve, and
  `positional_ap`, the same by walking the list position by position,
  against the row-blocked retrieval scores and each other.
"""

import numpy as np

from modalmetric.errors import MetricError, MiningError, NumericError
from modalmetric.geometry import pairwise_distance
from modalmetric.mining import TripletKind


def positive_modality(kind, anchor_modality):
    """Modality the positive of a `kind` triplet is drawn from."""
    if kind is TripletKind.WITHIN:
        return anchor_modality
    return 1 - anchor_modality


def negative_modality(kind, anchor_modality):
    """Modality the negative of a `kind` triplet is drawn from."""
    if kind is TripletKind.CROSS:
        return 1 - anchor_modality
    return anchor_modality


def brute_force_mine(embeddings, labels, modalities, kind, anchors=None):
    """Reference miner: exhaustive scan with the same tie-break rule.

    Takes raw embeddings (unit rows) rather than a distance matrix and
    one kind, and must agree with `batch_hard_mine` exactly on every
    batch.

    Returns:
        (anchors, positives, negatives): int64 arrays, in anchor order.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    modalities = np.asarray(modalities, dtype=np.int64)
    dist = pairwise_distance(embeddings, embeddings)
    n = labels.shape[0]
    anchors = np.arange(n) if anchors is None else np.asarray(
        list(anchors), dtype=np.int64)
    positives = np.empty_like(anchors)
    negatives = np.empty_like(anchors)
    for i, a in enumerate(anchors):
        want_pos = positive_modality(kind, modalities[a])
        want_neg = negative_modality(kind, modalities[a])
        best_pos, best_pos_d = None, None
        best_neg, best_neg_d = None, None
        for j in range(n):
            if j != a and labels[j] == labels[a] and modalities[j] == want_pos:
                if best_pos is None or dist[a, j] > best_pos_d:
                    best_pos, best_pos_d = j, dist[a, j]
            if labels[j] != labels[a] and modalities[j] == want_neg:
                if best_neg is None or dist[a, j] < best_neg_d:
                    best_neg, best_neg_d = j, dist[a, j]
        if best_pos is None:
            raise MiningError(
                f"anchor {int(a)}: no valid positive for kind {kind.value}"
            )
        if best_neg is None:
            raise MiningError(
                f"anchor {int(a)}: no valid negative for kind {kind.value}"
            )
        positives[i], negatives[i] = best_pos, best_neg
    return anchors, positives, negatives


def finite_diff_check(loss_fn, params, analytic_grad, step=1e-5, kink_tol=1e-3):
    """Compare an analytic gradient against central finite differences.

    Args:
        loss_fn: Pure scalar function of a parameter array.
        params: Point at which to check, any shape.
        analytic_grad: Claimed gradient, same shape as `params`.
        step: Central-difference step (> 0).
        kink_tol: Threshold on the forward/backward one-sided
            disagreement used to flag non-differentiable entries.

    Returns:
        Max over checked entries of
        |central_difference - analytic| / max(|analytic|, 1e-8).
        Entries where the loss sits within `step` of a hinge boundary
        (detected by the two one-sided differences disagreeing) are
        excluded from the maximum.

    Raises:
        ValueError: if step <= 0 or shapes differ.
        NumericError: if any loss evaluation is non-finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    params = np.asarray(params, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if params.shape != analytic_grad.shape:
        raise ValueError("analytic_grad shape must match params")

    x = params.copy()
    f0 = float(loss_fn(x))
    if not np.isfinite(f0):
        raise NumericError("loss_fn returned a non-finite value")

    max_err = 0.0
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + step
        f_plus = float(loss_fn(x))
        x.flat[i] = orig - step
        f_minus = float(loss_fn(x))
        x.flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"loss_fn non-finite at entry {i}")

        central = (f_plus - f_minus) / (2.0 * step)
        forward = (f_plus - f0) / step
        backward = (f0 - f_minus) / step
        # A smooth loss has forward - backward ~ O(step); a hinge crossed
        # inside [x-step, x+step] leaves an O(1) derivative jump.
        if abs(forward - backward) > kink_tol * max(1.0, abs(central)):
            continue
        err = abs(central - analytic_grad.flat[i]) / max(
            abs(analytic_grad.flat[i]), 1e-8
        )
        max_err = max(max_err, err)
    return max_err


def average_precision(relevance, truncate_at=None):
    """Non-interpolated AP of one relevance vector.

    With truncate_at=n, only the top n positions contribute precision
    terms and the denominator becomes min(total relevant, n).

    Raises:
        MetricError: when the query has no relevant item at all.
    """
    rel = np.asarray(relevance, dtype=np.float64)
    total_relevant = int(rel.sum())
    if total_relevant == 0:
        raise MetricError("query has no relevant gallery item")
    if truncate_at is not None:
        head = rel[:truncate_at]
        denominator = min(total_relevant, truncate_at)
    else:
        head = rel
        denominator = total_relevant
    ranks = np.arange(1, head.size + 1)
    precisions = np.cumsum(head) / ranks
    return float((precisions * head).sum() / denominator)


def positional_ap(relevance, truncate_at=None):
    """AP of one relevance list, the slow way: the k-th relevant item at
    position p adds k / p, and the sum is divided by the relevant count
    (min(relevant count, n) with truncate_at=n)."""
    total = int(sum(relevance))
    head = relevance if truncate_at is None else relevance[:truncate_at]
    denom = total if truncate_at is None else min(total, truncate_at)
    hits, score = 0, 0.0
    for i, r in enumerate(head):
        if r:
            hits += 1
            score += hits / (i + 1)
    return score / denom
