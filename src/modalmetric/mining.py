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
mines every requested kind from them.
"""

from enum import Enum

import numpy as np

from .errors import MiningError


class TripletKind(Enum):
    CROSS = "cross"
    WITHIN = "within"
    HYBRID = "hybrid"


def batch_hard_mine(dist, labels, modalities, kinds):
    """Mine one hardest triplet per batch sample for each of several kinds.

    The label and modality masks are built once and shared by every
    kind; each kind's positive (negative) is the argmax (argmin) of the
    anchor's distance row over its candidate mask, so ties go to the
    lowest batch index.

    Args:
        dist: (B, B) distance matrix over the batch embeddings.
        labels: (B,) class labels.
        modalities: (B,) modality flags (0 sketch, 1 photo).
        kinds: sequence of TripletKind to mine.

    Returns:
        (anchors, [(positives, negatives) per kind]): int64 arrays, one
        entry per anchor; the anchors are 0..B-1.

    Raises:
        MiningError: if some anchor has no valid positive or negative;
            kinds are checked in order and, within a kind, the first
            failing anchor is reported, its positive before its negative.
    """
    dist = np.asarray(dist, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    modalities = np.asarray(modalities, dtype=np.int64)
    if labels.shape != modalities.shape or labels.ndim != 1:
        raise ValueError("labels and modalities must be 1-D and equal length")
    n = labels.shape[0]
    if dist.shape != (n, n):
        raise ValueError(f"dist must be ({n}, {n}), got {dist.shape}")

    a_mod = modalities[:, None]
    same_label = labels[:, None] == labels
    other_label = ~same_label
    own_mod = modalities == a_mod
    other_mod = modalities == 1 - a_mod
    own_pos = same_label & own_mod
    np.fill_diagonal(own_pos, False)  # the anchor itself
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
                f"anchor {row}: no valid {role} for kind {kind.value}"
            )
        pos = np.argmax(np.where(pos_mask, dist, -np.inf), axis=1)
        neg = np.argmin(np.where(neg_mask, dist, np.inf), axis=1)
        mined.append((pos, neg))
    return np.arange(n), mined
