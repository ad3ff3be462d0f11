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
rows share a class and a modality, so the work splits in two.
`mining_plan` builds, once per batch layout, the distinct candidate
masks the requested kinds use (at most four: the hybrid kind shares the
cross kind's positives and the within kind's negatives) and checks that
every anchor has candidates. `batch_hard_mine` then picks, once per
batch, the hardest row of every distinct mask from one distance matrix.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import MiningError


class TripletKind(Enum):
    CROSS = "cross"
    WITHIN = "within"
    HYBRID = "hybrid"


# kind -> (positive from the anchor's own modality, negative from it)
OWN_MODALITY = {
    TripletKind.CROSS: (False, False),
    TripletKind.WITHIN: (True, True),
    TripletKind.HYBRID: (False, True),
}


@dataclass(frozen=True)
class MiningPlan:
    """The candidate masks of one batch layout, stacked.

    `masks` holds the m distinct masks the kinds use, the
    `n_positive` positive masks first, and `fills` their (m, 1, 1)
    values for excluded rows: -inf under a positive mask, so argmax
    skips them, +inf under a negative one, so argmin does. The (k, 2)
    `cells` name kind j's positive mask `cells[j, 0]` and negative mask
    `cells[j, 1]`; `anchors` is 0..B-1.
    """

    anchors: np.ndarray
    masks: np.ndarray
    fills: np.ndarray
    n_positive: int
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
    other_label = ~same_label
    own_mod = modalities == a_mod
    own_pos = same_label & own_mod
    np.fill_diagonal(own_pos, False)  # the anchor itself
    other_mod = modalities == 1 - a_mod
    # indexed by the own-modality flag
    positive = (same_label & other_mod, own_pos)
    negative = (other_label & other_mod, other_label & own_mod)

    for kind in kinds:
        own_p, own_n = OWN_MODALITY[kind]
        no_pos = ~positive[own_p].any(axis=1)
        no_neg = ~negative[own_n].any(axis=1)
        bad = no_pos | no_neg
        if bad.any():
            row = int(np.argmax(bad))
            role = "positive" if no_pos[row] else "negative"
            raise MiningError(
                f"anchor {row}: no valid {role} for kind {kind.value}"
            )

    own = [OWN_MODALITY[kind] for kind in kinds]
    pos_used = list(dict.fromkeys(own_p for own_p, _ in own))
    neg_used = list(dict.fromkeys(own_n for _, own_n in own))
    n_pos = len(pos_used)
    fills = np.array([-np.inf] * n_pos + [np.inf] * len(neg_used))
    return MiningPlan(
        anchors=np.arange(labels.shape[0]),
        masks=np.stack([positive[f] for f in pos_used]
                       + [negative[f] for f in neg_used]),
        fills=fills[:, None, None],
        n_positive=n_pos,
        cells=np.array([(pos_used.index(p), n_pos + neg_used.index(n))
                        for p, n in own]),
    )


def batch_hard_mine(dist, plan):
    """Pick the hardest candidate of every mask of `plan`, per anchor.

    One `np.where` fills the excluded rows of all the masks at once; one
    argmax over the positive masks and one argmin over the negative ones
    pick, so ties go to the lowest batch index.

    Args:
        dist: (B, B) distance matrix over the batch embeddings.
        plan: MiningPlan of the batch's layout.

    Returns:
        (m, B) int64 picks, row i from mask i of the plan. Indexed by
        `plan.cells`, they give the (k, 2, B) positives and negatives of
        the plan's k kinds.
    """
    dist = np.asarray(dist, dtype=np.float64)
    if dist.shape != plan.masks.shape[1:]:
        raise ValueError(
            f"dist must be {plan.masks.shape[1:]}, got {dist.shape}")
    scored = np.where(plan.masks, dist, plan.fills)
    n_pos = plan.n_positive
    return np.concatenate((scored[:n_pos].argmax(axis=2),
                           scored[n_pos:].argmin(axis=2)))
