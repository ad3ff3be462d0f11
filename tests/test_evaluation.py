"""Tests for retrieval ranking, AP/precision metrics, and embedding-space
diagnostics."""

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import modalmetric.evaluation as evaluation
from conftest import pk_batch, unit_rows
from modalmetric import (
    MetricError,
    Ranking,
    between_class_discrepancy,
    compute_metrics,
    map_at_all,
    map_at_n,
    modality_gap,
    prec_at_k,
    retrieve,
    within_class_similarity,
)
from modalmetric.evaluation import _class_modality_similarities
from modalmetric.geometry import cosine_matrix, pairwise_distance
from oracles import average_precision, positional_ap


class TestRetrieve:
    def test_hand_ordering(self):
        query = np.array([[1.0, 0.0]])
        gallery = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        ranking = retrieve(query, gallery)
        assert_array_equal(ranking.order[0], [0, 1, 2])
        assert_allclose(ranking.distances[0], [0.0, np.sqrt(2.0), 2.0],
                        atol=1e-12)
        assert ranking.relevance is None

    def test_tie_broken_by_gallery_index(self):
        query = np.array([[1.0, 0.0]])
        gallery = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        ranking = retrieve(query, gallery)
        assert_array_equal(ranking.order[0], [2, 0, 1])

    def test_relevance_flags(self):
        query = np.array([[1.0, 0.0]])
        gallery = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
        ranking = retrieve(query, gallery, np.array([7]),
                           np.array([3, 7, 7]))
        assert_array_equal(ranking.order[0], [1, 0, 2])
        assert_array_equal(ranking.relevance[0], [1, 0, 1])

    def test_one_list_per_query(self):
        rng = np.random.default_rng(0)
        q, g = rng.standard_normal((4, 3)), rng.standard_normal((6, 3))
        ranking = retrieve(q, g)
        assert len(ranking.order) == 4
        for order, distances in zip(ranking.order, ranking.distances):
            assert_array_equal(np.sort(order), np.arange(6))
            assert np.all(np.diff(distances) >= 0)

    def test_empty_gallery(self):
        with pytest.raises(ValueError, match="gallery"):
            retrieve(np.ones((1, 2)), np.ones((0, 2)))


class TestAveragePrecision:
    def test_perfect_prefix(self):
        assert average_precision([1, 1, 0, 0]) == 1.0

    def test_alternating(self):
        assert abs(average_precision([1, 0, 1, 0]) - 5 / 6) <= 1e-9
        assert_allclose(average_precision([1, 0, 1, 0]), 0.83333, atol=5e-6)

    def test_tail_heavy(self):
        assert abs(average_precision([0, 0, 1, 1]) - 5 / 12) <= 1e-9
        assert_allclose(average_precision([0, 0, 1, 1]), 0.41667, atol=5e-6)

    def test_no_relevant(self):
        with pytest.raises(MetricError, match="no relevant"):
            average_precision([0, 0, 0])

    def test_truncation_denominator(self):
        # three relevant overall, cut to the top 2: hits ahead of the cut
        # divide by min(3, 2)
        assert_allclose(average_precision([1, 0, 1, 1], truncate_at=2), 0.5,
                        rtol=1e-12)
        # fewer relevant than the cut: denominator stays at the total
        assert average_precision([1, 0, 0, 0], truncate_at=3) == 1.0

    def test_against_reference(self):
        rng = np.random.default_rng(13)
        for _ in range(60):
            n = int(rng.integers(1, 30))
            rel = (rng.random(n) < 0.4).astype(int)
            if rel.sum() == 0:
                rel[int(rng.integers(0, n))] = 1
            assert_allclose(average_precision(rel), positional_ap(rel),
                            rtol=1e-12)
            cut = int(rng.integers(1, n + 1))
            got = average_precision(rel, truncate_at=cut)
            if rel[:cut].sum() or rel.sum():
                assert_allclose(got, positional_ap(rel, truncate_at=cut),
                                rtol=1e-12)


class TestPrecAtK:
    def _ranked(self, *rels):
        return Ranking(None, None, np.array(rels))

    def test_hand_case(self):
        assert prec_at_k(self._ranked([1, 0, 1, 0]), 2) == 0.5

    def test_all_relevant(self):
        assert prec_at_k(self._ranked([1, 1, 1, 1]), 4) == 1.0

    def test_k_beyond_gallery(self):
        # the denominator shrinks to the gallery size
        assert prec_at_k(self._ranked([1, 0, 1, 0]), 10) == 0.5
        assert prec_at_k(self._ranked([1, 1, 0, 0]), 10) == 0.5

    def test_mean_over_queries(self):
        ranked = self._ranked([1, 1, 0, 0], [0, 0, 0, 1])
        assert_allclose(prec_at_k(ranked, 2), (1.0 + 0.0) / 2, rtol=1e-12)

    def test_k_validation(self):
        with pytest.raises(ValueError):
            prec_at_k(self._ranked([1, 0]), 0)


class TestMapAggregation:
    def _eval_set(self, seed=3):
        rng = np.random.default_rng(seed)
        e, labels, mods = pk_batch(rng, 3, 3, 8)
        sketch = mods == 0
        return retrieve(e[sketch], e[~sketch], labels[sketch], labels[~sketch])

    def test_map_is_mean_of_aps(self):
        ranked = self._eval_set()
        want = np.mean([average_precision(r) for r in ranked.relevance])
        assert_allclose(map_at_all(ranked), want, rtol=1e-12)

    def test_map_at_n_truncates(self):
        ranked = self._eval_set()
        want = np.mean(
            [average_precision(r, truncate_at=2) for r in ranked.relevance]
        )
        assert_allclose(map_at_n(ranked, 2), want, rtol=1e-12)
        with pytest.raises(ValueError):
            map_at_n(ranked, 0)

    def test_requires_relevance(self):
        rng = np.random.default_rng(1)
        ranked = retrieve(rng.standard_normal((2, 3)),
                          rng.standard_normal((4, 3)))
        with pytest.raises(ValueError, match="relevance"):
            map_at_all(ranked)

    def test_unmatchable_query(self):
        query = np.array([[1.0, 0.0]])
        gallery = np.array([[0.0, 1.0], [0.0, -1.0]])
        ranked = retrieve(query, gallery, np.array([0]), np.array([1, 1]))
        with pytest.raises(MetricError, match="query 0"):
            map_at_all(ranked)

    def test_ranking_of_no_items(self):
        # a hand-built ranking over no gallery item: no query can match
        ranked = Ranking(None, None, np.zeros((2, 0), dtype=bool))
        for score in (map_at_all, lambda r: map_at_n(r, 5),
                      lambda r: prec_at_k(r, 5)):
            with pytest.raises(MetricError, match="query 0 has no"):
                score(ranked)


def one_class_two_axes():
    """Each class puts its sketches and photos on different axes, so the
    same-modality within-class cosine is 1 and the cross-modality one 0."""
    e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0],
                  [0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
    labels = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    mods = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    return e, labels, mods


class TestModalityGap:
    def test_orthogonal_modalities(self):
        e, labels, mods = one_class_two_axes()
        assert_allclose(modality_gap(e, labels, mods), 1.0, rtol=1e-12)
        same, cross = within_class_similarity(e, labels, mods)
        assert_allclose(same, 1.0, rtol=1e-12)
        assert_allclose(cross, 0.0, atol=1e-12)

    def test_aligned_modalities(self):
        e = np.tile(np.array([[1.0, 0.0]]), (8, 1))
        labels = np.repeat([0, 1], 4)
        mods = np.tile([0, 0, 1, 1], 2)
        assert_allclose(modality_gap(e, labels, mods), 0.0, atol=1e-12)

    def test_rotation_invariant(self):
        rng = np.random.default_rng(5)
        e, labels, mods = pk_batch(rng, 3, 3, 6)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        before = modality_gap(e, labels, mods)
        after = modality_gap(e @ q, labels, mods)
        assert_allclose(after, before, atol=1e-10)

    def test_needs_two_per_cell(self):
        e = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0],
                      [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        labels = np.array([0, 0, 0, 1, 1, 1])
        mods = np.array([0, 0, 1, 0, 0, 1])  # one photo per class
        with pytest.raises(MetricError, match="class 0"):
            modality_gap(e, labels, mods)


class TestBetweenClassDiscrepancy:
    def test_orthogonal_classes(self):
        e = np.zeros((8, 2))
        e[:4, 0] = 1.0  # class 0 on e1
        e[4:, 1] = 1.0  # class 1 on e2
        labels = np.repeat([0, 1], 4)
        mods = np.tile([0, 0, 1, 1], 2)
        same, cross = between_class_discrepancy(e, labels, mods)
        assert_allclose(same, 1.0, rtol=1e-12)
        assert_allclose(cross, 1.0, rtol=1e-12)

    def test_collapsed_embedding(self):
        e = np.tile(np.array([[0.0, 1.0]]), (8, 1))
        labels = np.repeat([0, 1], 4)
        mods = np.tile([0, 0, 1, 1], 2)
        same, cross = between_class_discrepancy(e, labels, mods)
        assert_allclose(same, 0.0, atol=1e-12)
        assert_allclose(cross, 0.0, atol=1e-12)

    def test_needs_two_classes(self):
        e = np.eye(4)
        with pytest.raises(MetricError, match="2 classes"):
            between_class_discrepancy(e, np.zeros(4), np.array([0, 0, 1, 1]))

    def test_empty_pool(self):
        # class 0 is sketch-only and class 1 photo-only: no same-modality
        # pair crosses classes
        e = np.eye(4)
        labels = np.array([0, 0, 1, 1])
        mods = np.array([0, 0, 1, 1])
        with pytest.raises(MetricError, match="same-modality"):
            between_class_discrepancy(e, labels, mods)


class TestComputeMetrics:
    def _eval_set(self, seed=2):
        rng = np.random.default_rng(seed)
        return pk_batch(rng, 3, 2, 8)

    def test_dict_keys(self):
        e, labels, mods = self._eval_set()
        metrics = compute_metrics(e, labels, mods, k=5)
        assert set(metrics.to_dict()) == {
            "map_at_all", "prec_at_k", "k", "map_at_200", "prec_at_200",
            "modality_gap", "between_class_same_modality",
            "between_class_cross_modality", "within_class_same_modality",
            "within_class_cross_modality",
        }
        assert metrics.k == 5

    def test_matches_manual_composition(self):
        e, labels, mods = self._eval_set()
        metrics = compute_metrics(e, labels, mods, k=3)
        sketch = mods == 0
        ranked = retrieve(e[sketch], e[~sketch],
                          labels[sketch], labels[~sketch])
        assert metrics.map_at_all == map_at_all(ranked)
        assert metrics.prec_at_k == prec_at_k(ranked, 3)
        assert metrics.map_at_200 == map_at_n(ranked, 200)
        assert metrics.modality_gap == modality_gap(e, labels, mods)

    def test_query_modality_flip(self):
        e, labels, mods = self._eval_set()
        photo_view = compute_metrics(e, labels, mods, query_modality=1)
        photo = mods == 1
        ranked = retrieve(e[photo], e[~photo], labels[photo], labels[~photo])
        assert photo_view.map_at_all == map_at_all(ranked)

    def test_single_modality_rejected(self):
        e, labels, mods = self._eval_set()
        with pytest.raises(MetricError, match="both modalities"):
            compute_metrics(e, labels, np.zeros_like(mods))

    def test_bad_query_modality(self):
        e, labels, mods = self._eval_set()
        with pytest.raises(ValueError, match="query_modality"):
            compute_metrics(e, labels, mods, query_modality=2)


def reference_class_similarities(e, labels, mods):
    """Per-class same/cross-modality mean cosine from full N x N masks."""
    cos = cosine_matrix(e, e)
    upper = np.triu(np.ones(cos.shape, dtype=bool), k=1)
    same_mod = mods[:, None] == mods[None, :]
    s_same, s_cross = [], []
    for c in np.unique(labels):
        in_class = labels == c
        pair = in_class[:, None] & in_class[None, :] & upper
        s_same.append(cos[pair & same_mod].mean())
        s_cross.append(cos[pair & ~same_mod].mean())
    return np.array(s_same), np.array(s_cross)


def reference_between_class(e, labels, mods):
    """Same-class minus different-class mean cosine over same-modality and
    cross-modality pairs, from full N x N masks."""
    cos = cosine_matrix(e, e)
    upper = np.triu(np.ones(cos.shape, dtype=bool), k=1)
    same_mod = mods[:, None] == mods[None, :]
    same_cls = labels[:, None] == labels[None, :]
    out = []
    for condition in (same_mod, ~same_mod):
        pool = upper & condition
        out.append(float(cos[pool & same_cls].mean()
                         - cos[pool & ~same_cls].mean()))
    return tuple(out)


class TestArrayMetricsOracle:
    """The (Q, G) ranking and row-wise metrics against per-query loops,
    and compute_metrics' query blocks against one whole ranking."""

    KINDS = ("random", "rounded", "duplicated")

    def _retrieval_case(self, rng, kind, max_g):
        d = int(rng.integers(2, 5))
        n_cls = int(rng.integers(1, 5))
        q = int(rng.integers(1, 12))
        g = int(rng.integers(n_cls, max_g))
        query = unit_rows(rng, q, d)
        gallery = unit_rows(rng, g, d)
        gallery_labels = rng.permutation(np.concatenate(
            [np.arange(n_cls), rng.integers(0, n_cls, g - n_cls)]))
        if kind == "rounded":
            # one decimal, so equal rows and distances recur
            query, gallery = np.round(query, 1), np.round(gallery, 1)
        elif kind == "duplicated":
            gallery = np.concatenate([gallery, gallery[::-1]])
            gallery_labels = np.concatenate(
                [gallery_labels, gallery_labels[::-1]])
        query_labels = rng.integers(0, n_cls, q)
        return query, gallery, query_labels, gallery_labels

    def test_ranking_and_metrics(self):
        rng = np.random.default_rng(2024)
        ties = 0
        for case in range(90):
            # every tenth gallery is longer than numpy's 128-element
            # pairwise-summation block
            query, gallery, ql, gl = self._retrieval_case(
                rng, self.KINDS[case % 3], 16 if case % 10 else 400)
            ranking = retrieve(query, gallery, ql, gl)
            dist = pairwise_distance(query, gallery)
            g = gallery.shape[0]
            for i in range(len(query)):
                order = np.argsort(dist[i], kind="stable")
                assert_array_equal(ranking.order[i], order)
                assert_array_equal(ranking.distances[i], dist[i][order])
                assert_array_equal(ranking.relevance[i], gl[order] == ql[i])
                tie = np.flatnonzero(np.diff(ranking.distances[i]) == 0)
                assert np.all(ranking.order[i][tie]
                              < ranking.order[i][tie + 1])
                ties += tie.size

            rows = list(ranking.relevance)
            want = float(np.mean([average_precision(r) for r in rows]))
            assert map_at_all(ranking) == want
            assert abs(want - np.mean([positional_ap(r) for r in rows])) \
                <= 1e-12
            for n in (1, 2, g, g + 7):
                want = float(np.mean(
                    [average_precision(r, truncate_at=n) for r in rows]))
                assert map_at_n(ranking, n) == want
                positional = np.mean(
                    [positional_ap(r, truncate_at=n) for r in rows])
                assert abs(want - positional) <= 1e-12
            for k in (1, 3, g, g + 5):
                fractions = []
                for r in rows:
                    m = min(k, r.size)
                    fractions.append(float(np.sum(r[:m])) / m)
                assert prec_at_k(ranking, k) == float(np.mean(fractions))
        assert ties > 0

    @staticmethod
    def _blocked_metrics(monkeypatch, rows, query, gallery, ql, gl, k):
        """compute_metrics with `rows` query rows per block, its
        diagnostics stubbed out so that any retrieval case qualifies."""
        g = gallery.shape[0]
        # the largest budget that still gives `rows` rows per block
        monkeypatch.setattr(evaluation, "QUERY_BLOCK_ENTRIES",
                            rows * g + g - 1)
        for name in ("between_class_discrepancy", "within_class_similarity"):
            monkeypatch.setattr(evaluation, name, lambda *a: (0.0, 0.0))
        monkeypatch.setattr(evaluation, "modality_gap", lambda *a: 0.0)
        return compute_metrics(
            np.concatenate([query, gallery]), np.concatenate([ql, gl]),
            np.repeat([0, 1], [query.shape[0], g]), k=k)

    def test_blocked_scoring(self, monkeypatch):
        rng = np.random.default_rng(606)
        cases = []
        for case in range(60):
            query, gallery, ql, gl = self._retrieval_case(
                rng, ("random", "duplicated")[case % 2],
                16 if case % 10 else 400)
            if case % 3 == 0:
                # multiples of 1/8 multiply and add exactly, so equal
                # distances stay equal at any BLAS block height
                query = np.round(query * 8) / 8
                gallery = np.round(gallery * 8) / 8
            cases.append((query, gallery, ql, gl))
        # one gallery row, then one query
        cases.append((unit_rows(rng, 7, 3), unit_rows(rng, 1, 3),
                      np.zeros(7, int), np.zeros(1, int)))
        cases.append((unit_rows(rng, 1, 3), unit_rows(rng, 9, 3),
                      np.ones(1, int), rng.permutation(np.arange(9) % 2)))
        ties = short = 0
        for query, gallery, ql, gl in cases:
            q, g = query.shape[0], gallery.shape[0]
            rows = int(rng.integers(1, 4))
            k = int(rng.integers(1, g + 6))
            metrics = self._blocked_metrics(monkeypatch, rows, query,
                                            gallery, ql, gl, k)
            ranking = retrieve(query, gallery, ql, gl)
            assert metrics.map_at_all == map_at_all(ranking)
            assert metrics.prec_at_k == prec_at_k(ranking, k)
            assert metrics.map_at_200 == map_at_n(ranking, 200)
            assert metrics.prec_at_200 == prec_at_k(ranking, 200)
            ties += np.sum(np.diff(ranking.distances, axis=1) == 0)
            short += q > rows and q % rows > 0
        assert ties > 0 and short > 0

    def test_blocked_error_names_the_global_query(self, monkeypatch):
        # three rows per block; queries 7 and 10 (blocks 3 and 4) are of
        # class 2, which the gallery lacks
        rng = np.random.default_rng(3)
        ql = np.array([0, 1] * 6)
        ql[[7, 10]] = 2
        with pytest.raises(MetricError, match="query 7 has no relevant"):
            self._blocked_metrics(monkeypatch, 3, unit_rows(rng, 12, 4),
                                  unit_rows(rng, 5, 4), ql,
                                  np.array([0, 1, 0, 1, 0]), 3)

    def test_retrieval_needs_no_query_gallery_matrix(self):
        # Q = G = 2000, d = 16: one (Q, G) float64 matrix is 32 MB
        rng = np.random.default_rng(9)
        labels = np.repeat(np.arange(8), 500)
        mods = np.tile([0, 1], 2000)
        e = unit_rows(rng, labels.size, 16)
        tracemalloc.start()
        try:
            compute_metrics(e, labels, mods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    def _diagnostic_case(self, rng, kind, cell_sizes=(2, 6)):
        p = int(rng.integers(2, 6))
        d = int(rng.integers(2, 6))
        counts = rng.integers(*cell_sizes, size=(p, 2))
        labels = np.repeat(np.arange(p).repeat(2), counts.ravel())
        mods = np.repeat(np.tile([0, 1], p), counts.ravel())
        e = unit_rows(rng, labels.size, d)
        if kind == "rounded":
            e = np.round(e, 1)
        perm = rng.permutation(labels.size)
        return e[perm], labels[perm], mods[perm]

    def test_cell_totals_add_rows_in_order(self):
        # each cell's totals are its rows added one by one in row order,
        # bit for bit, signed zeros included
        rng = np.random.default_rng(78)
        for case in range(60):
            e, labels, mods = self._diagnostic_case(rng, self.KINDS[case % 2])
            e[rng.random(e.shape) < 0.2] = -0.0
            classes, S, n, q = evaluation._cell_totals(e, labels, mods)
            ref_S = np.zeros_like(S)
            ref_n = np.zeros_like(n)
            ref_q = np.zeros_like(q)
            for row, label, mod in zip(e, labels, mods):
                c = np.searchsorted(classes, label)
                ref_S[c, mod] += row
                ref_n[c, mod] += 1
                ref_q[c, mod] += (row * row).sum()
            assert_array_equal(S.view(np.int64), ref_S.view(np.int64))
            assert_array_equal(n, ref_n)
            assert_array_equal(q.view(np.int64), ref_q.view(np.int64))

    def test_diagnostics(self):
        # The diagnostics sum cell totals in another order than the
        # N x N masks, so they agree to 1e-12, not bit for bit.
        rng = np.random.default_rng(77)
        for case in range(61):
            # the last case has cells longer than numpy's 128-element
            # pairwise-summation block
            e, labels, mods = self._diagnostic_case(
                rng, self.KINDS[case % 2], (2, 6) if case < 60 else (129, 200))
            ref_same, ref_cross = reference_class_similarities(
                e, labels, mods)
            s_same, s_cross = _class_modality_similarities(e, labels, mods)
            assert_allclose(s_same, ref_same, rtol=0, atol=1e-12)
            assert_allclose(s_cross, ref_cross, rtol=0, atol=1e-12)
            gap = modality_gap(e, labels, mods)
            within = within_class_similarity(e, labels, mods)
            between = between_class_discrepancy(e, labels, mods)
            assert abs(gap - np.mean(ref_same - ref_cross)) <= 1e-12
            assert_allclose(within, (np.mean(ref_same), np.mean(ref_cross)),
                            rtol=0, atol=1e-12)
            assert_allclose(between, reference_between_class(e, labels, mods),
                            rtol=0, atol=1e-12)
            metrics = compute_metrics(e, labels, mods, k=3)
            assert metrics.modality_gap == gap
            assert (metrics.within_class_same_modality,
                    metrics.within_class_cross_modality) == within
            assert (metrics.between_class_same_modality,
                    metrics.between_class_cross_modality) == between

    def test_diagnostics_need_no_pair_matrix(self):
        # N = 2000, d = 16: one N x N float64 matrix is 32 MB
        rng = np.random.default_rng(8)
        labels = np.repeat(np.arange(8), 250)
        mods = np.tile([0, 1], 1000)
        e = unit_rows(rng, labels.size, 16)
        tracemalloc.start()
        try:
            between_class_discrepancy(e, labels, mods)
            modality_gap(e, labels, mods)
            within_class_similarity(e, labels, mods)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

    def test_ranking_resorts_only_tied_rows(self):
        # Query 0 sees 50 gallery rows at exactly sqrt(2) (they are
        # orthogonal to it), query 1 holds a NaN, the random queries see
        # distinct distances: tied, NaN and tie-free rows alike equal
        # their own stable sort.
        rng = np.random.default_rng(41)
        d = 8
        gallery = unit_rows(rng, 420, d)
        gallery[rng.choice(420, 50, replace=False), 0] = 0.0
        query = np.concatenate([np.eye(d)[:1], np.full((1, d), np.nan),
                                unit_rows(rng, 30, d)])
        gl = rng.integers(0, 5, 420)
        ql = rng.integers(0, 5, query.shape[0])
        ranking = retrieve(query, gallery, ql, gl)
        dist = pairwise_distance(query, gallery)
        strict = np.all(np.diff(np.sort(dist, axis=1), axis=1) > 0, axis=1)
        assert not strict[0] and not strict[1] and strict[2:].all()
        for i in range(query.shape[0]):
            order = np.argsort(dist[i], kind="stable")
            assert_array_equal(ranking.order[i], order)
            assert_array_equal(ranking.distances[i], dist[i][order])
            assert_array_equal(ranking.relevance[i], gl[order] == ql[i])


class TestRankedRelevance:
    """compute_metrics ranks each block by one sort of packed (distance
    bits, relevant) keys and sorts some rows again. Its flags and scores
    must be `retrieve`'s bit for bit on blocks that reach each path."""

    @staticmethod
    def _table(monkeypatch, dist):
        """Query and gallery rows that hold their own index, with
        pairwise_distance looking their distances up in `dist`."""
        dist = np.asarray(dist, dtype=np.float64)
        monkeypatch.setattr(
            evaluation, "pairwise_distance",
            lambda a, b: dist[a[:, :1].astype(int), b[:, 0].astype(int)])
        return (np.arange(dist.shape[0], dtype=np.float64)[:, None],
                np.arange(dist.shape[1], dtype=np.float64)[:, None])

    @staticmethod
    def _check(monkeypatch, query, gallery, ql, gl, resorted):
        """_ranked_relevance equals retrieve's flags and argsorts
        `resorted` rows; compute_metrics in blocks of two rows equals the
        whole ranking's scores."""
        ranking = retrieve(query, gallery, ql, gl)
        sorted_rows, argsort = [], np.argsort

        def counted(a, *args, **kwargs):
            sorted_rows.append(a.shape[0])
            return argsort(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np, "argsort", counted)
            rel = evaluation._ranked_relevance(query, gallery, ql, gl)
        assert rel.dtype == bool
        assert_array_equal(rel, ranking.relevance)
        assert sum(sorted_rows) == resorted
        metrics = TestArrayMetricsOracle._blocked_metrics(
            monkeypatch, 2, query, gallery, ql, gl, 3)
        assert metrics.map_at_all == map_at_all(ranking)
        assert metrics.prec_at_k == prec_at_k(ranking, 3)
        assert metrics.map_at_200 == map_at_n(ranking, 200)
        assert metrics.prec_at_200 == prec_at_k(ranking, 200)

    def test_continuous(self, monkeypatch):
        rng = np.random.default_rng(51)
        gl = rng.permutation(np.arange(300) % 3)
        self._check(monkeypatch, unit_rows(rng, 9, 16),
                    unit_rows(rng, 300, 16), rng.integers(0, 3, 9), gl, 0)

    def test_ties_of_equal_relevance(self, monkeypatch):
        # each distance is shared by exactly the gallery items of one class
        rng = np.random.default_rng(52)
        gl = rng.permutation(np.arange(300) % 5)
        dist = (gl[None, :] + 5 * np.arange(6)[:, None] + 1) / 64
        query, gallery = self._table(monkeypatch, dist)
        self._check(monkeypatch, query, gallery, rng.integers(0, 5, 6), gl, 0)

    def test_only_rows_with_mixed_ties_sorted_again(self, monkeypatch):
        # odd rows take four distinct values, so relevant and irrelevant
        # items tie there; even rows are tie-free
        rng = np.random.default_rng(53)
        gl = rng.permutation(np.arange(400) % 3)
        dist = rng.random((8, 400))
        dist[1::2] = rng.integers(1, 5, (4, 400)) / 4
        query, gallery = self._table(monkeypatch, dist)
        self._check(monkeypatch, query, gallery, rng.integers(0, 3, 8), gl, 4)

    def test_nan_rows(self, monkeypatch):
        # NaN keys order by payload, and the sign bit is shifted out:
        # rows 0 and 1 have no tie between a relevant and an irrelevant
        # key, yet index order puts a relevant NaN first; row 2 holds the
        # default NaN (sign bit set) alone; row 3 holds no NaN
        quiet, low, signed = np.array(
            [0x7FF8_0000_0000_0002, 0x7FF8_0000_0000_0001,
             0xFFF8_0000_0000_0000], dtype=np.uint64).view(np.float64)
        dist = np.array([[quiet, low, 0.3, 0.7],
                         [low, signed, 0.3, 0.7],
                         [signed] * 4,
                         [0.1, 0.4, 0.3, 0.2]])
        query, gallery = self._table(monkeypatch, dist)
        self._check(monkeypatch, query, gallery, np.zeros(4, int),
                    np.array([0, 1, 0, 1]), 3)

    def test_distances_at_and_above_two(self, monkeypatch):
        # 2.0 is 2**62 as bits, so a shifted key overflows int64; the
        # second query's norm rounds its antipode one ulp past 2
        query = np.array([[1.0], [1.0 + 3 * 2.0**-52]])
        gallery = np.array([[-1.0], [1.0], [0.0]])
        assert_array_equal(pairwise_distance(query, gallery)[:, 0],
                           [2.0, np.nextafter(2.0, 3.0)])
        self._check(monkeypatch, query, gallery, np.zeros(2, int),
                    np.array([0, 1, 1]), 0)
        above = np.nextafter(2.0, 3.0)
        query, gallery = self._table(monkeypatch, [[2.0, 0.5, above, 1.0],
                                                   [above, 0.5, 1.0, 2.0]])
        self._check(monkeypatch, query, gallery, np.zeros(2, int),
                    np.array([0, 1, 1, 0]), 0)

    def test_single_gallery_item(self, monkeypatch):
        query, gallery = self._table(monkeypatch,
                                     [[0.5], [np.nan], [2.0], [0.0]])
        self._check(monkeypatch, query, gallery, np.zeros(4, int),
                    np.zeros(1, int), 1)


def cell_set(cells):
    """(embeddings, labels, modalities) of random unit rows, `count` rows
    for each (label, modality, count) in `cells`."""
    labels = np.concatenate([[c] * k for c, _, k in cells])
    mods = np.concatenate([[m] * k for _, m, k in cells])
    e = unit_rows(np.random.default_rng(len(labels)), labels.size, 4)
    return e, labels, mods


class TestMetricErrorOrder:
    """Sets that break two rules raise the first one's message: a query
    without a relevant item, fewer than 2 classes, an empty same- then
    cross-modality pool, a class with a short cell (first class first)."""

    CASES = [
        # one class, and its photo cell has one row
        ([(0, 0, 2), (0, 1, 1)], "needs >= 2 classes"),
        # a sketch-only and a photo-only class: the sketches' class has
        # no photo to retrieve
        ([(0, 0, 2), (1, 1, 2)], "query 0 has no relevant"),
        # two classes of one sketch and one photo each
        ([(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)],
         "empty same-modality pair pool"),
        # class 2's sketches have no photo, and class 0 has one sketch
        ([(0, 0, 1), (0, 1, 2), (1, 0, 2), (1, 1, 2), (2, 0, 2)],
         "query 3 has no relevant"),
        # classes 5 and 3 both have a one-row cell: sorted order names 3
        ([(5, 0, 2), (5, 1, 1), (4, 0, 2), (4, 1, 2), (3, 0, 1), (3, 1, 2)],
         "class 3 needs >= 2 samples"),
    ]

    @pytest.mark.parametrize("cells,message", CASES, ids=[
        "one-class", "one-modality-classes", "one-row-cells",
        "query-without-gallery", "first-short-class"])
    def test_first_rule_wins(self, cells, message):
        with pytest.raises(MetricError, match=message):
            compute_metrics(*cell_set(cells))

    def test_same_modality_pool_before_cross(self):
        # both pools empty
        e, labels, mods = cell_set([(0, 0, 2), (1, 1, 2)])
        with pytest.raises(MetricError, match="same-modality"):
            between_class_discrepancy(e, labels, mods)
        # no class has both modalities, so only the cross pool is empty
        e, labels, mods = cell_set([(0, 0, 2), (1, 0, 2), (2, 1, 2)])
        with pytest.raises(MetricError, match="empty cross-modality"):
            between_class_discrepancy(e, labels, mods)
