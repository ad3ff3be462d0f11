"""Tests for classification, triplet, weighted-combination, and
adversarial losses."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import mined_loss, pk_batch, unit_rows
from modalmetric.losses import (
    ALL_KINDS,
    LossConfig,
    adversarial_d_loss,
    adversarial_g_loss,
    gradient_weights,
    softmax_ce,
    triplet_hinge,
    weighted_embedding_loss,
)
from modalmetric.mining import TripletKind
from oracles import brute_force_mine, finite_diff_check


def tetra_batch():
    """Regular tetrahedron per modality in disjoint coordinate blocks.

    All within-modality distances are sqrt(8/3) and all cross-modality
    distances are sqrt(2), so cross and within are active at exactly the
    margin while hybrid's hinge is negative.
    """
    tetra = np.array(
        [[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=np.float64
    ) / np.sqrt(3)
    e = np.zeros((8, 6))
    e[:4, :3] = tetra
    e[4:, 3:] = tetra
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    mods = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return e, labels, mods


def square_batch():
    """Unit square per modality in disjoint blocks; every kind's mined
    hinge comes out to exactly the margin."""
    sq = np.array([[1, 0], [0, 1], [-1, 0], [0, -1]], dtype=np.float64)
    e = np.zeros((8, 4))
    e[:4, :2] = sq
    e[4:, 2:] = sq
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    mods = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return e, labels, mods


def tilted_pair_batch():
    """Two sketch directions 60 degrees apart; each photo is its class's
    sketch tilted 60 degrees toward a shared axis. Duplicated so every
    mining cell has two candidates. Only the hybrid loss is active."""
    c, s = np.cos(np.pi / 3), np.sin(np.pi / 3)
    s0 = np.array([1.0, 0.0, 0.0, 0.0])
    s1 = np.array([c, s, 0.0, 0.0])
    shared = np.array([0.0, 0.0, 1.0, 0.0])
    p0 = c * s0 + s * shared
    p1 = c * s1 + s * shared
    e = np.stack([s0, s0, s1, s1, p0, p0, p1, p1])
    labels = np.array([0, 0, 1, 1, 0, 0, 1, 1])
    mods = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    return e, labels, mods


CROSS, WITHIN, HYBRID = ALL_KINDS


class TestSoftmaxCE:
    def test_uniform_logits(self):
        report = softmax_ce(np.zeros((3, 4)), np.array([0, 1, 3]))
        assert_allclose(report.value, np.log(4.0), rtol=1e-12)
        assert report.active_fraction == 1.0

    def test_two_class_value(self):
        report = softmax_ce(np.array([[0.0, 2.0]]), np.array([1]))
        assert_allclose(report.value, np.log1p(np.exp(-2.0)), rtol=1e-12)
        assert_allclose(report.value, 0.12693, atol=5e-6)

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((5, 3))
        labels = rng.integers(0, 3, size=5)
        a = softmax_ce(logits, labels)
        b = softmax_ce(logits + 50.0, labels)
        assert abs(a.value - b.value) < 1e-6
        assert_allclose(a.grad, b.grad, atol=1e-9)

    def test_grad_formula(self):
        logits = np.array([[1.0, -1.0, 0.5], [0.0, 0.0, 0.0]])
        labels = np.array([2, 0])
        report = softmax_ce(logits, labels)
        exp = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = exp / exp.sum(axis=1, keepdims=True)
        want = probs.copy()
        want[[0, 1], labels] -= 1.0
        want /= 2
        assert_allclose(report.grad, want, rtol=1e-12)

    def test_finite_diff(self):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal((4, 5))
        labels = rng.integers(0, 5, size=4)
        report = softmax_ce(logits, labels)
        err = finite_diff_check(
            lambda L: softmax_ce(L, labels).value, logits, report.grad
        )
        assert err < 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError):
            softmax_ce(np.zeros(4), np.array([0]))
        with pytest.raises(ValueError):
            softmax_ce(np.zeros((3, 1)), np.array([0, 0, 0]))
        with pytest.raises(ValueError):
            softmax_ce(np.zeros((3, 2)), np.array([0, 0]))
        with pytest.raises(ValueError, match="range"):
            softmax_ce(np.zeros((2, 2)), np.array([0, 2]))


class TestTripletHinge:
    def test_satisfied_triplet(self):
        e = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        report = triplet_hinge(e, np.array([0]), np.array([1]),
                               np.array([2]), 0.2)
        assert report.value == 0.0
        assert report.active_fraction == 0.0
        assert_array_equal(report.grad, np.zeros_like(e))

    def test_violating_triplet(self):
        e = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        report = triplet_hinge(e, np.array([0]), np.array([1]),
                               np.array([2]), 0.2)
        assert_allclose(report.value, 2.0 - np.sqrt(2.0) + 0.2, rtol=1e-12)
        assert_allclose(report.value, 0.78579, atol=5e-6)
        assert report.active_fraction == 1.0

    def test_exact_boundary_inactive(self):
        # hinge argument is exactly zero: sqrt(2) - 2 + (2 - sqrt(2));
        # strict positivity means no loss and no gradient
        e = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        report = triplet_hinge(e, np.array([0]), np.array([1]),
                               np.array([2]), 2.0 - np.sqrt(2.0))
        assert report.value == 0.0
        assert report.active_fraction == 0.0
        assert_array_equal(report.grad, np.zeros_like(e))

    def test_mean_and_active_fraction(self):
        e = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        # (0, 1, 2) is active at 2 - sqrt(2) + 0.2; (0, 2, 1) is satisfied
        report = triplet_hinge(e, np.array([0, 0]), np.array([1, 2]),
                               np.array([2, 1]), 0.2)
        assert_allclose(report.value, (2.0 - np.sqrt(2.0) + 0.2) / 2, rtol=1e-12)
        assert report.active_fraction == 0.5

    def test_empty_list(self):
        none = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            triplet_hinge(np.zeros((2, 2)), none, none, none, 0.2)

    def test_finite_diff_fixed_triplets(self):
        rng = np.random.default_rng(5)
        e, labels, mods = pk_batch(rng, 3, 2, 6)
        trips = brute_force_mine(e, labels, mods, TripletKind.CROSS)
        report = triplet_hinge(e, *trips, 0.5)
        assert report.active_fraction > 0
        err = finite_diff_check(
            lambda E: triplet_hinge(E, *trips, 0.5).value, e, report.grad
        )
        assert err < 1e-6


class TestMinedLosses:
    def test_orthogonal_axes_cross(self):
        # one sample per (class, modality) on four orthogonal axes: every
        # pair sits at sqrt(2), so each hinge equals the margin exactly
        e = np.eye(4)
        labels = np.array([0, 0, 1, 1])
        mods = np.array([0, 1, 0, 1])
        report = mined_loss(e, labels, mods, CROSS)
        assert_allclose(report.value, 0.2, rtol=1e-12)
        assert report.active_fraction == 1.0

    def test_aligned_modalities_cross_inactive(self):
        # photos coincide with their class's sketch and classes are
        # antipodal: d_ap = 0 vs d_an = 2
        e = np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        labels = np.array([0, 1, 0, 1])
        mods = np.array([0, 0, 1, 1])
        report = mined_loss(e, labels, mods, CROSS)
        assert report.value == 0.0
        assert report.active_fraction == 0.0

    def test_square_batch_all_kinds(self):
        e, labels, mods = square_batch()
        for kind in ALL_KINDS:
            report = mined_loss(e, labels, mods, kind)
            assert_allclose(report.value, 0.2, rtol=1e-12)
            assert report.active_fraction == 1.0

    def test_tetra_batch_kind_split(self):
        e, labels, mods = tetra_batch()
        assert_allclose(mined_loss(e, labels, mods, CROSS).value, 0.2,
                        rtol=1e-12)
        assert_allclose(mined_loss(e, labels, mods, WITHIN).value, 0.2,
                        rtol=1e-12)
        hyb = mined_loss(e, labels, mods, HYBRID)
        assert hyb.value == 0.0
        assert hyb.active_fraction == 0.0

    def test_tilted_pair_hybrid_only(self):
        e, labels, mods = tilted_pair_batch()
        assert mined_loss(e, labels, mods, CROSS).value == 0.0
        assert mined_loss(e, labels, mods, WITHIN).value == 0.0
        hyb = mined_loss(e, labels, mods, HYBRID)
        assert_allclose(hyb.value, 0.45, rtol=1e-12)
        assert hyb.active_fraction == 1.0

    def test_single_anchor_hybrid(self):
        # anchor's cross-modal positive is orthogonal (d = sqrt(2)) while
        # the same-modal negative sits 60 degrees away (d = 1)
        e = np.array([
            [1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0],
            [0.5, np.sqrt(3) / 2, 0.0],
        ])
        labels = np.array([0, 0, 1])
        mods = np.array([0, 1, 0])
        trips = brute_force_mine(e, labels, mods, TripletKind.HYBRID, anchors=[0])
        assert_array_equal(trips, [[0], [1], [2]])
        report = triplet_hinge(e, *trips, 0.2)
        assert_allclose(report.value, np.sqrt(2.0) - 1.0 + 0.2, rtol=1e-12)

    def test_matches_brute_force_composition(self):
        # each mined loss must equal hinge-over-reference-mining exactly
        rng = np.random.default_rng(21)
        for _ in range(20):
            e, labels, mods = pk_batch(rng, 3, 2, 8)
            for kind in ALL_KINDS:
                got = mined_loss(e, labels, mods, kind)
                want = triplet_hinge(
                    e, *brute_force_mine(e, labels, mods, kind), 0.2
                )
                assert got.value == want.value
                assert got.active_fraction == want.active_fraction
                assert_array_equal(got.grad, want.grad)


class TestGradientWeights:
    def test_hand_cases(self):
        assert_allclose(
            gradient_weights(np.array([0.5, 0.25, 0.25])),
            [2 / 3, 4 / 3, 4 / 3], rtol=1e-12,
        )
        assert_allclose(
            gradient_weights(np.array([0.5, 0.0, 0.25])),
            [0.75, 0.0, 1.5], rtol=1e-12,
        )
        assert_allclose(
            gradient_weights(np.array([0.4, 0.4, 0.4])),
            [1.0, 1.0, 1.0], rtol=1e-12,
        )

    def test_all_inactive(self):
        assert_array_equal(gradient_weights(np.zeros(3)), np.zeros(3))
        assert_array_equal(
            gradient_weights(np.array([1e-9, 1e-8, 0.0])), np.zeros(3)
        )

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            gradient_weights(np.array([0.5, -0.1, 0.2]))

    def test_identities_random(self):
        # equal per-loss contributions and conservation of the total,
        # including dead losses, at 1e-12
        rng = np.random.default_rng(17)
        for _ in range(1000):
            g = rng.uniform(0.0, 1.0, size=3)
            dead = rng.random(3) < 0.3
            g[dead] = rng.choice([0.0, 1e-9], size=dead.sum())
            w = gradient_weights(g)
            active = g > 1e-6
            contrib = w * g
            if active.any():
                vals = contrib[active]
                assert np.abs(vals - vals[0]).max() <= 1e-12
                assert abs(contrib.sum() - g[active].sum()) <= 1e-12
            assert_array_equal(w[~active], 0.0)

    def test_matches_linear_system(self):
        # independent route: solve the defining equations directly
        rng = np.random.default_rng(4)
        for _ in range(50):
            g = rng.uniform(0.05, 1.0, size=3)
            a = np.zeros((3, 3))
            a[0] = g  # sum of contributions
            a[1, 0], a[1, 1] = g[0], -g[1]  # w0 g0 = w1 g1
            a[2, 1], a[2, 2] = g[1], -g[2]  # w1 g1 = w2 g2
            b = np.array([g.sum(), 0.0, 0.0])
            want = np.linalg.solve(a, b)
            assert_allclose(gradient_weights(g), want, atol=1e-12)


class TestWeightedEmbeddingLoss:
    def test_square_batch_plain_sum(self):
        e, labels, mods = square_batch()
        cfg = LossConfig()
        bundle = weighted_embedding_loss(e, labels, mods, cfg,
                                         use_weighting=False)
        assert_array_equal(bundle.weights, np.ones(3))
        assert_allclose(bundle.value, 0.6, rtol=1e-12)

    def test_square_batch_weighting_neutral(self):
        # equal active fractions leave the weights at one
        e, labels, mods = square_batch()
        bundle = weighted_embedding_loss(e, labels, mods, LossConfig())
        assert_allclose(bundle.weights, np.ones(3), rtol=1e-12)
        assert_allclose(bundle.value, 0.6, rtol=1e-12)

    def test_tetra_batch_drops_dead_loss(self):
        e, labels, mods = tetra_batch()
        bundle = weighted_embedding_loss(e, labels, mods, LossConfig())
        assert [r.active_fraction for r in bundle.reports] == [1.0, 1.0, 0.0]
        assert_allclose(bundle.weights, [1.0, 1.0, 0.0], rtol=1e-12)
        assert_allclose([r.value for r in bundle.reports], [0.2, 0.2, 0.0],
                        rtol=1e-12)
        assert_allclose(bundle.value, 0.4, rtol=1e-12)

    def test_tilted_pair_hybrid_takes_all(self):
        e, labels, mods = tilted_pair_batch()
        bundle = weighted_embedding_loss(e, labels, mods, LossConfig())
        assert_allclose(bundle.weights, [0.0, 0.0, 1.0], rtol=1e-12)
        assert_allclose(bundle.value, 0.45, rtol=1e-12)

    def test_reports_match_standalone(self):
        rng = np.random.default_rng(31)
        e, labels, mods = pk_batch(rng, 4, 2, 8)
        cfg = LossConfig()
        bundle = weighted_embedding_loss(e, labels, mods, cfg)
        standalone = [mined_loss(e, labels, mods, kind, cfg.margin)
                      for kind in ALL_KINDS]
        assert bundle.kinds == ALL_KINDS
        for got, want in zip(bundle.reports, standalone):
            assert got.value == want.value
            assert got.active_fraction == want.active_fraction
            assert_array_equal(got.grad, want.grad)

    def test_grad_is_weighted_sum(self):
        rng = np.random.default_rng(32)
        e, labels, mods = pk_batch(rng, 3, 3, 6)
        bundle = weighted_embedding_loss(e, labels, mods, LossConfig())
        want = sum(w * r.grad for w, r in zip(bundle.weights, bundle.reports))
        assert_allclose(bundle.grad, want, atol=1e-15)

    def test_kind_subset(self):
        e, labels, mods = square_batch()
        bundle = weighted_embedding_loss(
            e, labels, mods, LossConfig(), kinds=(TripletKind.CROSS,)
        )
        assert bundle.kinds == (TripletKind.CROSS,)
        assert len(bundle.reports) == 1
        assert_allclose(bundle.value, 0.2, rtol=1e-12)

    def test_empty_kinds(self):
        e, labels, mods = square_batch()
        with pytest.raises(ValueError):
            weighted_embedding_loss(e, labels, mods, LossConfig(), kinds=())

    def test_finite_diff_end_to_end(self):
        # weights and mined triplets are locally constant, so between
        # mining flips the analytic combined gradient must match central
        # differences; flip points show up as kinks and are excluded
        rng = np.random.default_rng(33)
        e, labels, mods = pk_batch(rng, 3, 2, 6)
        cfg = LossConfig(margin=0.5)
        bundle = weighted_embedding_loss(e, labels, mods, cfg)
        err = finite_diff_check(
            lambda E: weighted_embedding_loss(E, labels, mods, cfg).value,
            e,
            bundle.grad,
        )
        assert err < 1e-4


def reference_hinge(e, triplets, margin):
    """The triplet hinge with its gradient scattered by np.add.at over the
    anchors, then the positives, then the negatives.

    Returns:
        (value, active_fraction, grad).
    """
    a, p, n = triplets
    diff_ap = e[a] - e[p]
    diff_an = e[a] - e[n]
    d_ap = np.linalg.norm(diff_ap, axis=1)
    d_an = np.linalg.norm(diff_an, axis=1)
    hinge = d_ap - d_an + margin
    active = hinge > 0.0
    n_trip = len(a)
    grad = np.zeros_like(e)
    u_ap = diff_ap[active] / np.maximum(d_ap[active], 1e-12)[:, None]
    u_an = diff_an[active] / np.maximum(d_an[active], 1e-12)[:, None]
    np.add.at(grad, a[active], (u_ap - u_an) / n_trip)
    np.add.at(grad, p[active], -u_ap / n_trip)
    np.add.at(grad, n[active], u_an / n_trip)
    value = float(np.maximum(hinge, 0.0).sum() / n_trip)
    return value, float(active.sum() / n_trip), grad


def regime(active_fraction):
    return ("none" if active_fraction == 0.0
            else "fully" if active_fraction == 1.0 else "partly")


def reference_bundle(e, labels, mods, cfg, kinds, use_weighting):
    """weighted_embedding_loss rebuilt from the exhaustive miner, the
    add.at hinge and gradient_weights, summing in the same order."""
    reports = [reference_hinge(e, brute_force_mine(e, labels, mods, kind),
                               cfg.margin) for kind in kinds]
    if use_weighting:
        weights = gradient_weights(np.array([r[1] for r in reports]),
                                   cfg.eps_g)
    else:
        weights = np.ones(len(kinds))
    value = float(sum(w * r[0] for w, r in zip(weights, reports)))
    grad = np.zeros_like(e)
    for w, r in zip(weights, reports):
        if w != 0.0:
            grad += w * r[2]
    return reports, weights, value, grad


class TestFusedLossOracle:
    """The fused training path must reproduce, bit for bit, what mining
    with the exhaustive reference and scattering with np.add.at give:
    artifact byte-identity rests on this summation order."""

    RECIPES = ((ALL_KINDS, True), ((TripletKind.CROSS,), False))

    def _check(self, e, labels, mods, cfg):
        for kinds, use_weighting in self.RECIPES:
            got = weighted_embedding_loss(e, labels, mods, cfg, kinds,
                                          use_weighting)
            reports, weights, value, grad = reference_bundle(
                e, labels, mods, cfg, kinds, use_weighting)
            assert got.kinds == kinds
            for report, (r_value, r_active, r_grad) in zip(got.reports,
                                                           reports):
                assert report.value == r_value
                assert report.active_fraction == r_active
                assert_array_equal(report.grad, r_grad)
            assert_array_equal(got.weights, weights)
            assert got.value == value
            assert_array_equal(got.grad, grad)

    def test_random_batches(self):
        rng = np.random.default_rng(51)
        for _ in range(60):
            p = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            e, labels, mods = pk_batch(rng, p, k, int(rng.choice([4, 8, 16])))
            cfg = LossConfig(margin=float(rng.choice([0.05, 0.2, 0.8])))
            self._check(e, labels, mods, cfg)

    def test_codebook_batches(self):
        # rows drawn from a 3-vector codebook: distance ties on nearly
        # every anchor, repeated rows, and exact zero distances
        rng = np.random.default_rng(52)
        codebook = unit_rows(np.random.default_rng(98), 3, 6)
        for _ in range(60):
            p = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            _, labels, mods = pk_batch(rng, p, k, 6)
            e = codebook[rng.integers(0, 3, size=len(labels))]
            self._check(e, labels, mods, LossConfig())

    @pytest.mark.parametrize("margin", [0.2, 2.5])
    def test_partly_and_fully_active_batches(self, margin):
        # unit rows keep |d_ap - d_an| <= 2, so a margin past 2 makes
        # every triplet active and triplet_hinge skips its selections
        rng = np.random.default_rng(53)
        regimes = set()
        for _ in range(40):
            e, labels, mods = pk_batch(rng, int(rng.integers(2, 6)),
                                       int(rng.integers(2, 5)), 8)
            cfg = LossConfig(margin=margin)
            self._check(e, labels, mods, cfg)
            bundle = weighted_embedding_loss(e, labels, mods, cfg)
            regimes.update(regime(r.active_fraction)
                           for r in bundle.reports)
        assert regimes == ({"partly", "fully"} if margin < 2
                           else {"fully"})

    def test_negative_index_arrays(self):
        # negative indices address rows from the end, as in numpy
        # indexing and np.add.at
        rng = np.random.default_rng(54)
        regimes = set()
        for _ in range(100):
            b = int(rng.integers(3, 12))
            e = unit_rows(rng, b, 4)
            a, p, n = rng.integers(-b, b, size=(3, int(rng.integers(1, 9))))
            margin = float(rng.choice([0.01, 0.2, 1.0, 2.5]))
            report = triplet_hinge(e, a, p, n, margin)
            value, active, grad = reference_hinge(e, (a, p, n), margin)
            assert report.value == value
            assert report.active_fraction == active
            assert_array_equal(report.grad, grad)
            regimes.add(regime(active))
        assert regimes == {"none", "partly", "fully"}


class TestAdversarialLosses:
    def test_chance_scores(self):
        half = np.full(4, 0.5)
        assert_allclose(adversarial_d_loss(half, half).value, 2 * np.log(2.0),
                        rtol=1e-12)
        assert_allclose(adversarial_g_loss(half, half).value, 2 * np.log(2.0),
                        rtol=1e-12)

    def test_single_score_values(self):
        p = np.array([0.8])
        s = np.array([0.3])
        d = adversarial_d_loss(p, s)
        g = adversarial_g_loss(p, s)
        assert_allclose(d.value, -(np.log(0.8) + np.log(0.7)), rtol=1e-12)
        assert_allclose(d.value, 0.57982, atol=5e-6)
        assert_allclose(g.value, -(np.log(0.2) + np.log(0.3)), rtol=1e-12)
        assert_allclose(g.value, 2.81341, atol=5e-6)

    def test_g_is_d_with_modalities_swapped(self):
        rng = np.random.default_rng(2)
        p = rng.uniform(0.1, 0.9, size=5)
        s = rng.uniform(0.1, 0.9, size=3)
        g = adversarial_g_loss(p, s)
        d = adversarial_d_loss(s, p)
        assert g.value == d.value
        assert_array_equal(g.grad[0], d.grad[1])
        assert_array_equal(g.grad[1], d.grad[0])

    def test_perfect_discriminator(self):
        p = np.ones(3)
        s = np.zeros(3)
        report = adversarial_d_loss(p, s)
        assert report.value < 1e-5
        assert_array_equal(report.grad[0], np.zeros(3))
        assert_array_equal(report.grad[1], np.zeros(3))

    def test_finite_diff_interior(self):
        rng = np.random.default_rng(3)
        p = rng.uniform(0.2, 0.8, size=6)
        s = rng.uniform(0.2, 0.8, size=6)
        for fn in (adversarial_d_loss, adversarial_g_loss):
            report = fn(p, s)
            err_p = finite_diff_check(lambda x: fn(x, s).value, p, report.grad[0])
            err_s = finite_diff_check(lambda x: fn(p, x).value, s, report.grad[1])
            assert err_p < 1e-6
            assert err_s < 1e-6

    def test_input_validation(self):
        with pytest.raises(ValueError, match="empty"):
            adversarial_d_loss(np.array([]), np.array([0.5]))
        with pytest.raises(ValueError, match="1-D"):
            adversarial_g_loss(np.full((2, 2), 0.5), np.array([0.5]))
