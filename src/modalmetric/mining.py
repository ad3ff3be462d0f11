"""Modality-aware batch-hard triplet selection.

Three triplet kinds are distinguished by where the positive and negative
live relative to the anchor's modality:

  CROSS   positive and negative both in the other modality
  WITHIN  positive and negative both in the anchor's modality
  HYBRID  positive in the other modality, negative in the anchor's

Every batch sample serves as an anchor. Per anchor, the positive is the
farthest same-class candidate and the negative the nearest other-class
candidate, restricted to the kind's modality pattern; distance ties are
broken toward the lowest batch index so the result is deterministic.

Triplets are (anchor, positive, negative) int64 index arrays.
`batch_hard_mine` builds the label and modality masks once per batch and
mines every requested kind from them. `brute_force_mine` re-derives one
kind's triplets by exhaustive enumeration and exists so the two can be
checked against each other.
"""

from enum import Enum

import numpy as np

from .errors import MiningError
from .geometry import pairwise_distance


class TripletKind(Enum):
    CROSS = "cross"
    WITHIN = "within"
    HYBRID = "hybrid"

    def positive_modality(self, anchor_modality):
        if self is TripletKind.WITHIN:
            return anchor_modality
        return 1 - anchor_modality

    def negative_modality(self, anchor_modality):
        if self is TripletKind.CROSS:
            return 1 - anchor_modality
        return anchor_modality


def _as_arrays(labels, modalities):
    labels = np.asarray(labels, dtype=np.int64)
    modalities = np.asarray(modalities, dtype=np.int64)
    if labels.shape != modalities.shape or labels.ndim != 1:
        raise ValueError("labels and modalities must be 1-D and equal length")
    return labels, modalities


def batch_hard_mine(dist, labels, modalities, kinds, anchors=None):
    """Mine one hardest triplet per anchor for each of several kinds.

    The label and modality masks are built once and shared by every
    kind; each kind's positive (negative) is the argmax (argmin) of the
    anchor's distance row over its candidate mask, so ties go to the
    lowest batch index.

    Args:
        dist: (B, B) distance matrix over the batch embeddings.
        labels: (B,) class labels.
        modalities: (B,) modality flags (0 sketch, 1 photo).
        kinds: sequence of TripletKind to mine.
        anchors: optional iterable of anchor indices; defaults to the
            whole batch.

    Returns:
        (anchors, [(positives, negatives) per kind]): int64 arrays, one
        entry per anchor, in anchor order.

    Raises:
        MiningError: if some anchor has no valid positive or negative;
            kinds are checked in order and, within a kind, the first
            failing anchor is reported, its positive before its negative.
    """
    dist = np.asarray(dist, dtype=np.float64)
    labels, modalities = _as_arrays(labels, modalities)
    n = labels.shape[0]
    if dist.shape != (n, n):
        raise ValueError(f"dist must be ({n}, {n}), got {dist.shape}")
    if anchors is None:
        anchors = np.arange(n)
        d_rows = dist
    else:
        anchors = np.asarray(list(anchors), dtype=np.int64)
        d_rows = dist[anchors]

    a_mod = modalities[anchors][:, None]
    same_label = labels[anchors][:, None] == labels
    other_label = ~same_label
    own_mod = modalities == a_mod
    other_mod = modalities == 1 - a_mod  # TripletKind's routing, 1 - m
    own_pos = same_label & own_mod
    own_pos[np.arange(len(anchors)), anchors] = False  # the anchor itself
    other_pos = same_label & other_mod
    own_neg = other_label & own_mod
    cells = {
        TripletKind.CROSS: (other_pos, other_label & other_mod),
        TripletKind.WITHIN: (own_pos, own_neg),
        TripletKind.HYBRID: (other_pos, own_neg),
    }

    mined = []
    for kind in kinds:
        pos_mask, neg_mask = cells[kind]
        no_pos = ~pos_mask.any(axis=1)
        no_neg = ~neg_mask.any(axis=1)
        bad = no_pos | no_neg
        if bad.any():
            row = int(np.argmax(bad))
            role = "positive" if no_pos[row] else "negative"
            raise MiningError(
                f"anchor {int(anchors[row])}: no valid {role} "
                f"for kind {kind.value}"
            )
        pos = np.argmax(np.where(pos_mask, d_rows, -np.inf), axis=1)
        neg = np.argmin(np.where(neg_mask, d_rows, np.inf), axis=1)
        mined.append((pos, neg))
    return anchors, mined


def brute_force_mine(embeddings, labels, modalities, kind, anchors=None):
    """Reference miner: exhaustive scan with the same tie-break rule.

    Takes raw embeddings (unit rows) rather than a distance matrix and
    one kind, and must agree with `batch_hard_mine` exactly on every
    batch.

    Returns:
        (anchors, positives, negatives): int64 arrays, in anchor order.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    labels, modalities = _as_arrays(labels, modalities)
    dist = pairwise_distance(embeddings, embeddings)
    n = labels.shape[0]
    anchors = np.arange(n) if anchors is None else np.asarray(
        list(anchors), dtype=np.int64)
    positives = np.empty_like(anchors)
    negatives = np.empty_like(anchors)
    for i, a in enumerate(anchors):
        want_pos = kind.positive_modality(modalities[a])
        want_neg = kind.negative_modality(modalities[a])
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
