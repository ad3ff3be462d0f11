"""Retrieval metrics (non-interpolated mAP, precision at k, truncated
mAP) and embedding-space diagnostics: the within-class modality gap and
between-class discrepancies under same- and cross-modality pairing.
"""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import MetricError
from .geometry import pairwise_distance

DEFAULT_PREC_K = 100
DEFAULT_TRUNCATION = 200
# (query, gallery) entries that compute_metrics ranks and scores at once:
# it takes max(1, QUERY_BLOCK_ENTRIES // G) query rows per block
QUERY_BLOCK_ENTRIES = 2**18


@dataclass
class Ranking:
    """Gallery orderings of Q queries as (Q, G) arrays. Row q holds query
    q's gallery indices by ascending distance (ties by lowest gallery
    index), the distances in that order and, when labels were supplied,
    the relevance flags in that order (True = same class)."""

    order: np.ndarray
    distances: np.ndarray
    relevance: np.ndarray = None


def retrieve(query_embeddings, gallery_embeddings, query_labels=None,
             gallery_labels=None):
    """Rank the gallery for every query by ascending Euclidean distance.

    Args:
        query_embeddings: (Q, d) unit rows.
        gallery_embeddings: (G, d) unit rows, G >= 1.
        query_labels / gallery_labels: optional class labels; when both
            are given the Ranking carries relevance flags
            (same class = relevant).

    Returns:
        Ranking with (Q, G) arrays.
    """
    gallery = np.asarray(gallery_embeddings, dtype=np.float64)
    if gallery.ndim != 2 or gallery.shape[0] == 0:
        raise ValueError("gallery must be a non-empty 2-d array")
    dist = pairwise_distance(query_embeddings, gallery)
    order = np.argsort(dist, axis=1, kind="stable")
    distances = np.take_along_axis(dist, order, axis=1)
    relevance = None
    if query_labels is not None and gallery_labels is not None:
        relevance = (np.asarray(gallery_labels)[order]
                     == np.asarray(query_labels)[:, None])
    return Ranking(order, distances, relevance)


# Distances are non-negative float64s (or NaN), whose bit patterns, read
# as unsigned integers, order like their values. Shifted up one place
# (which drops only the sign bit), a pattern leaves the low bit free for
# the relevance flag; a key above this one holds a NaN.
_NAN_KEY = np.uint64(0x7FF0_0000_0000_0000 << 1 | 1)


def _ranked_relevance(query, gallery, query_labels, gallery_labels):
    """The (Q, G) relevance flags of `retrieve(query, gallery,
    query_labels, gallery_labels)`, bit for bit, without its order and
    distance arrays.

    One integer sort of (distance bits, relevant) keys ranks every row.
    Tied items of equal relevance give the same flags in any order, so
    only two kinds of row are sorted again, stably, as `retrieve` sorts
    them: a row with a tie between a relevant and an irrelevant item
    (adjacent keys that differ in the low bit alone), and a row holding
    a NaN, whose keys order by payload, not by gallery index.
    """
    dist = pairwise_distance(query, gallery)
    match = gallery_labels == query_labels[:, None]
    keys = dist.view(np.uint64) << 1
    keys |= match
    keys.sort(axis=1)
    rel = (keys & 1).astype(bool)
    again = ((keys[:, 1:] ^ keys[:, :-1]) == 1).any(axis=1)
    again |= keys[:, -1] > _NAN_KEY
    if again.any():
        rows = np.flatnonzero(again)
        order = np.argsort(dist[rows], axis=1, kind="stable")
        rel[rows] = np.take_along_axis(match[rows], order, axis=1)
    return rel


def _row_scores(rel, k, n, offset=0):
    """AP@all, P@k, AP@n and P@n of every row of a (B, G) relevance block
    whose first row is query `offset`, all read off one running count:
    hits[:, i] is a row's number of relevant items in its top i + 1.

    A row's non-interpolated AP is the mean, over its relevant ranks i,
    of the precision hits[:, i] / (i + 1). AP@n keeps only the relevant
    ranks in the top n and divides by min(total relevant, n). P@k is the
    fraction of relevant items in the top min(k, G). Each row takes its
    own division, product and pairwise row sums, so its scores do not
    depend on the block it sits in.
    """
    if rel is None:
        raise ValueError("ranking carries no relevance flags")
    hits = np.cumsum(rel, axis=1)
    G = hits.shape[1]
    total = hits[:, -1] if G else np.zeros(len(hits), dtype=np.int64)
    empty = np.flatnonzero(total == 0)
    if empty.size:
        raise MetricError(
            f"query {offset + empty[0]} has no relevant gallery item")
    if k < 1:
        raise ValueError("k must be >= 1")
    precisions = hits / np.arange(1, G + 1)
    precisions *= rel
    m_k, m_n = min(k, G), min(n, G)
    return (precisions.sum(axis=1) / total,
            hits[:, m_k - 1] / m_k,
            precisions[:, :n].sum(axis=1) / np.minimum(total, n),
            hits[:, m_n - 1] / m_n)


def map_at_all(ranking):
    """Mean non-interpolated AP over queries."""
    return float(np.mean(_row_scores(ranking.relevance, 1, 1)[0]))


def map_at_n(ranking, n):
    """Mean AP over lists truncated to their top n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.mean(_row_scores(ranking.relevance, 1, n)[2]))


def prec_at_k(ranking, k):
    """Mean fraction of relevant items in each query's top min(k, G)."""
    return float(np.mean(_row_scores(ranking.relevance, k, 1)[1]))


def _cell_totals(embeddings, labels, modalities):
    """Totals of the rows in each (class, modality) cell, summed in row
    order with no BLAS call: the sorted classes, the row sums S (C, 2, d),
    the row counts n (C, 2) and the squared-norm sums q (C, 2)."""
    e = np.asarray(embeddings, dtype=np.float64)
    mods = np.asarray(modalities)
    if ((mods != 0) & (mods != 1)).any():
        raise ValueError("modalities must be 0 (sketch) or 1 (photo)")
    classes, cls = np.unique(labels, return_inverse=True)
    cell = 2 * cls + mods.astype(np.int64)
    n_cells, d = 2 * classes.size, e.shape[1]
    # one bincount over (cell, column) adds each cell's rows in row order
    S = np.bincount((cell[:, None] * d + np.arange(d)).ravel(),
                    weights=e.ravel(), minlength=n_cells * d)
    n = np.bincount(cell, minlength=n_cells).reshape(-1, 2)
    q = np.bincount(cell, weights=(e * e).sum(axis=1), minlength=n_cells)
    return classes, S.reshape(-1, 2, d), n, q.reshape(n.shape)


def _class_modality_similarities(embeddings, labels, modalities):
    """Per-class mean cosine over same-modality and cross-modality
    same-class pairs (unordered, self-pairs excluded).

    From the cell totals: the pairs within a cell sum to (|S|^2 - q) / 2
    and the cross-modality pairs of class c to S[c,0].S[c,1].
    """
    classes, S, n, q = _cell_totals(embeddings, labels, modalities)
    short = np.flatnonzero(n.min(axis=1) < 2)
    if short.size:
        raise MetricError(
            f"class {classes[short[0]]} needs >= 2 samples in each modality"
        )
    # twice the pair sum over twice the pair count
    s_same = ((S * S).sum(axis=2) - q).sum(axis=1) / (n * (n - 1)).sum(axis=1)
    s_cross = (S[:, 0] * S[:, 1]).sum(axis=1) / (n[:, 0] * n[:, 1])
    return s_same, s_cross


def modality_gap(embeddings, labels, modalities):
    """Mean over classes of (same-modality minus cross-modality average
    within-class cosine similarity)."""
    s_same, s_cross = _class_modality_similarities(
        embeddings, labels, modalities
    )
    return float(np.mean(s_same - s_cross))


def within_class_similarity(embeddings, labels, modalities):
    """(mean same-modality, mean cross-modality) within-class cosine,
    averaged per class first."""
    s_same, s_cross = _class_modality_similarities(
        embeddings, labels, modalities
    )
    return float(np.mean(s_same)), float(np.mean(s_cross))


def between_class_discrepancy(embeddings, labels, modalities):
    """Average same-class minus different-class cosine similarity,
    computed separately over same-modality and cross-modality pairs.

    From the cell totals: the different-class pairs of a cell (c, m) pair
    its rows with the rest of modality m's rows, whose sum is the
    modality's total minus S[c, m].

    Returns:
        (same_modality, cross_modality) discrepancies.
    """
    classes, S, n, q = _cell_totals(embeddings, labels, modalities)
    if classes.size < 2:
        raise MetricError("between-class discrepancy needs >= 2 classes")
    rest_S = S.sum(axis=0) - S
    rest_n = n.sum(axis=0) - n
    # (positive sum, positive count, negative sum, negative count); the
    # same-modality ones count every unordered pair twice
    pools = (
        ("same-modality",
         ((S * S).sum(axis=2) - q).sum(), (n * (n - 1)).sum(),
         (S * rest_S).sum(), (n * rest_n).sum()),
        ("cross-modality",
         (S[:, 0] * S[:, 1]).sum(), (n[:, 0] * n[:, 1]).sum(),
         (S[:, 0] * rest_S[:, 1]).sum(), (n[:, 0] * rest_n[:, 1]).sum()),
    )
    out = []
    for name, pos, n_pos, neg, n_neg in pools:
        if n_pos == 0 or n_neg == 0:
            raise MetricError(f"empty {name} pair pool")
        out.append(float(pos / n_pos - neg / n_neg))
    return tuple(out)


@dataclass
class RetrievalMetrics:
    """Retrieval scores plus embedding-space diagnostics; serialized as
    one flat JSON object."""

    map_at_all: float
    prec_at_k: float
    k: int
    map_at_200: float
    prec_at_200: float
    modality_gap: float
    between_class_same_modality: float
    between_class_cross_modality: float
    within_class_same_modality: float
    within_class_cross_modality: float

    def to_dict(self):
        return asdict(self)


def compute_metrics(embeddings, labels, modalities, k=DEFAULT_PREC_K,
                    query_modality=0):
    """Full evaluation of one embedded set: queries are the rows of
    query_modality (sketches by default), the gallery is the other
    modality.

    The queries are ranked and scored in consecutive blocks of
    max(1, QUERY_BLOCK_ENTRIES // G) rows, so memory grows with
    block x G, never with Q x G. A block's relevance flags are
    `retrieve`'s (see `_ranked_relevance`). A query's scores are
    row-local: they equal those of one (Q, G) `retrieve` wherever the
    BLAS product gives the row the same bits at any block height.
    """
    e = np.asarray(embeddings, dtype=np.float64)
    labels = np.asarray(labels)
    mods = np.asarray(modalities)
    if query_modality not in (0, 1):
        raise ValueError("query_modality must be 0 or 1")
    is_query = mods == query_modality
    if not is_query.any() or is_query.all():
        raise MetricError("evaluation set must contain both modalities")
    query, query_labels = e[is_query], labels[is_query]
    gallery, gallery_labels = e[~is_query], labels[~is_query]
    rows = max(1, QUERY_BLOCK_ENTRIES // gallery.shape[0])
    # per query: AP@all, P@k, AP@200, P@200
    scores = np.empty((4, query.shape[0]))
    for start in range(0, query.shape[0], rows):
        block = slice(start, start + rows)
        rel = _ranked_relevance(query[block], gallery, query_labels[block],
                                gallery_labels)
        scores[:, block] = _row_scores(rel, k, DEFAULT_TRUNCATION,
                                       offset=start)
    map_all, prec_k, map_200, prec_200 = (float(np.mean(s)) for s in scores)
    same, cross = between_class_discrepancy(e, labels, mods)
    within_same, within_cross = within_class_similarity(e, labels, mods)
    return RetrievalMetrics(
        map_at_all=map_all,
        prec_at_k=prec_k,
        k=k,
        map_at_200=map_200,
        prec_at_200=prec_200,
        modality_gap=modality_gap(e, labels, mods),
        between_class_same_modality=same,
        between_class_cross_modality=cross,
        within_class_same_modality=within_same,
        within_class_cross_modality=within_cross,
    )
