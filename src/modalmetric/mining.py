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

Triplets are (N,) anchors and one (k, 2, N) int64 array of k kinds'
positives and negatives. Which rows are candidates depends only on which
rows share a class and a modality, so a batch layout has four candidate
sets, and each kind takes its positives from one and its negatives from
another (`CELLS`). `mining_plan` builds the four sets once per batch
layout and checks that every anchor of every requested kind has
candidates. `batch_hard_mine` then picks, once per batch, the hardest
row of every set with one argmin and gathers the kinds' triplets.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MiningError


class TripletKind(Enum):
    CROSS = "cross"
    WITHIN = "within"
    HYBRID = "hybrid"


# kind -> (positive set, negative set) among a layout's four candidate
# sets: 0 same class, other modality; 1 same class, the anchor's
# modality, the anchor itself excluded; 2 other class, other modality;
# 3 other class, the anchor's modality
CELLS = {
    TripletKind.CROSS: (0, 2),
    TripletKind.WITHIN: (1, 3),
    TripletKind.HYBRID: (0, 3),
}

# negates the positive sets' distances, so that one argmin picks the
# farthest positive and the nearest negative
SIGNS = np.array([-1.0, -1.0, 1.0, 1.0])[:, None, None]


@dataclass(frozen=True)
class MiningPlan:
    """The four candidate sets of one batch layout.

    `barriers` is (4, B, B): `barriers[s, a, j]` is 0 where row j is in
    set s for anchor a and +inf elsewhere. The (k, 2) `cells` name kind
    j's positive set `cells[j, 0]` and negative set `cells[j, 1]`, as
    `CELLS` maps them; `anchors` is 0..B-1.
    """

    anchors: np.ndarray
    barriers: np.ndarray
    cells: np.ndarray


def mining_plan(labels, modalities, kinds):
    """Plan the mining of `kinds` over batches laid out as `labels` and
    `modalities` (0 sketch, 1 photo), both (B,).

    Raises:
        ValueError: if the arrays are not 1-D and of equal length, or
            no kind is requested.
        MiningError: if some anchor has no valid positive or negative;
            kinds are checked in order and, within a kind, the first
            failing anchor is reported, its positive before its negative.
    """
    labels = np.asarray(labels, dtype=np.int64)
    modalities = np.asarray(modalities, dtype=np.int64)
    if labels.shape != modalities.shape or labels.ndim != 1:
        raise ValueError("labels and modalities must be 1-D and equal length")
    if len(kinds) == 0:
        raise ValueError("at least one triplet kind is required")

    a_mod = modalities[:, None]
    same_label = labels[:, None] == labels
    own_mod = modalities == a_mod
    other_mod = modalities == 1 - a_mod
    candidates = np.stack((same_label & other_mod, same_label & own_mod,
                           ~same_label & other_mod, ~same_label & own_mod))
    np.fill_diagonal(candidates[1], False)  # the anchor itself
    missing = ~candidates.any(axis=2)

    cells = np.array([CELLS[kind] for kind in kinds])
    for kind, (pos, neg) in zip(kinds, cells):
        bad = missing[pos] | missing[neg]
        if bad.any():
            row = int(np.argmax(bad))
            role = "positive" if missing[pos, row] else "negative"
            raise MiningError(
                f"anchor {row}: no valid {role} for kind {kind.value}"
            )

    return MiningPlan(anchors=np.arange(labels.shape[0]),
                      barriers=np.where(candidates, 0.0, np.inf),
                      cells=cells)


def batch_hard_mine(dist, plan):
    """Mine the triplets of every kind of `plan`, per anchor.

    The distances of each candidate set, negated for the two positive
    sets and raised to +inf off the set, meet one argmin: it picks each
    set's farthest positive and nearest negative, the lowest batch index
    among ties. Distances are finite, as those of normalized rows are; a
    non-finite entry may be picked off its set.

    Args:
        dist: (B, B) distance matrix over the batch embeddings.
        plan: MiningPlan of the batch's layout.

    Returns:
        (k, 2, B) int64 positives and negatives of the plan's k kinds:
        kind j's triplets are (anchors[t], out[j, 0, t], out[j, 1, t]).
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != plan.barriers.shape[1:]:
        raise ValueError(
            f"dist must be {plan.barriers.shape[1:]}, got {dist.shape}")
    scored = dist * SIGNS
    scored += plan.barriers
    return scored.argmin(axis=2)[plan.cells]
