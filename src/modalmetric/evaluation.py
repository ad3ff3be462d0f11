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
    order = np.argsort(dist, axis=1)
    distances = np.take_along_axis(dist, order, axis=1)
    # a row free of ties and NaN has one ascending order, which any sort
    # finds; the others are sorted again, stably, so that equal distances
    # keep gallery index order
    tied = ~(distances[:, 1:] > distances[:, :-1]).all(axis=1)
    order[tied] = np.argsort(dist[tied], axis=1, kind="stable")
    distances[tied] = np.take_along_axis(dist[tied], order[tied], axis=1)
    relevance = None
    if query_labels is not None and gallery_labels is not None:
        relevance = (np.asarray(gallery_labels)[order]
                     == np.asarray(query_labels)[:, None])
    return Ranking(order, distances, relevance)


def _relevance_totals(rel, offset=0):
    """Each row's count of relevant items in a (B, G) relevance block
    whose first row is query `offset`."""
    total = rel.sum(axis=1)
    empty = np.flatnonzero(total == 0)
    if empty.size:
        raise MetricError(
            f"query {offset + empty[0]} has no relevant gallery item")
    return total


def _relevance(ranking):
    """The ranking's (Q, G) relevance flags and each query's count of
    relevant items."""
    if ranking.relevance is None:
        raise ValueError("ranking carries no relevance flags")
    rel = np.asarray(ranking.relevance)
    return rel, _relevance_totals(rel)


def _ap_rows(rel, total, truncate_at=None):
    """Non-interpolated AP of every row of a relevance block, given each
    row's relevant count. With truncate_at=n, only the top n positions
    contribute precision terms and the denominator becomes
    min(total relevant, n). Each row takes its own cumsum, division,
    product and pairwise row sum, so its AP does not depend on the block
    it sits in."""
    if truncate_at is None:
        denominator = total
    else:
        rel = rel[:, :truncate_at]
        denominator = np.minimum(total, truncate_at)
    head = rel.astype(np.float64)
    precisions = np.cumsum(head, axis=1)
    precisions /= np.arange(1, head.shape[1] + 1)
    precisions *= head
    return precisions.sum(axis=1) / denominator


def _prec_rows(rel, k):
    """Fraction of relevant items in each row's top min(k, G)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = min(k, rel.shape[1])
    return rel[:, :m].sum(axis=1) / m


def map_at_all(ranking):
    """Mean non-interpolated AP over queries."""
    return float(np.mean(_ap_rows(*_relevance(ranking))))


def map_at_n(ranking, n):
    """Mean AP over lists truncated to their top n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return float(np.mean(_ap_rows(*_relevance(ranking), truncate_at=n)))


def prec_at_k(ranking, k):
    """Mean fraction of relevant items in each query's top min(k, G)."""
    rel, _ = _relevance(ranking)
    return float(np.mean(_prec_rows(rel, k)))


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
    block x G, never with Q x G. A query's scores are row-local: they
    equal those of one (Q, G) `retrieve` wherever the BLAS product gives
    the row the same bits at any block height.
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
        rel = retrieve(query[block], gallery, query_labels[block],
                       gallery_labels).relevance
        total = _relevance_totals(rel, offset=start)
        scores[:, block] = (
            _ap_rows(rel, total),
            _prec_rows(rel, k),
            _ap_rows(rel, total, truncate_at=DEFAULT_TRUNCATION),
            _prec_rows(rel, DEFAULT_TRUNCATION),
        )
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
