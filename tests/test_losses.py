"""Tests for classification, triplet, weighted-combination, and
adversarial losses."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from conftest import hinge_one, mined_loss, pk_batch, unit_rows
from modalmetric.geometry import pairwise_distance
from modalmetric.losses import (
    ALL_KINDS,
    LossConfig,
    adversarial_d_loss,
    adversarial_g_loss,
    gradient_weights,
    pair_gradient,
    softmax_ce,
    triplet_hinge,
    weighted_embedding_loss,
)
from modalmetric.mining import TripletKind, mining_plan
from modalmetric.training import METHOD_RECIPES, TrainConfig, ablation_variants
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
        assert report.grad.shape == (3, 4)

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
        report = hinge_one(e, np.array([0]), np.array([1]),
                           np.array([2]), 0.2)
        assert report.value == 0.0
        assert report.active_fraction == 0.0
        assert_array_equal(report.grad, np.zeros_like(e))

    def test_violating_triplet(self):
        e = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        report = hinge_one(e, np.array([0]), np.array([1]),
                           np.array([2]), 0.2)
        assert_allclose(report.value, 2.0 - np.sqrt(2.0) + 0.2, rtol=1e-12)
        assert_allclose(report.value, 0.78579, atol=5e-6)
        assert report.active_fraction == 1.0

    def test_exact_boundary_inactive(self):
        # hinge argument is exactly zero: sqrt(2) - 2 + (2 - sqrt(2));
        # strict positivity means no loss and no gradient
        e = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        report = hinge_one(e, np.array([0]), np.array([1]),
                           np.array([2]), 2.0 - np.sqrt(2.0))
        assert report.value == 0.0
        assert report.active_fraction == 0.0
        assert_array_equal(report.grad, np.zeros_like(e))

    def test_mean_and_active_fraction(self):
        e = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        # (0, 1, 2) is active at 2 - sqrt(2) + 0.2; (0, 2, 1) is satisfied
        report = hinge_one(e, np.array([0, 0]), np.array([1, 2]),
                           np.array([2, 1]), 0.2)
        assert_allclose(report.value, (2.0 - np.sqrt(2.0) + 0.2) / 2, rtol=1e-12)
        assert report.active_fraction == 0.5

    def test_empty_list(self):
        none = np.array([], dtype=np.int64)
        with pytest.raises(ValueError, match="empty"):
            hinge_one(np.zeros((2, 2)), none, none, none, 0.2)

    def test_shape_errors(self):
        e = np.eye(3)
        for anchors, others in [
                ([0], [[1], [2]]),  # (k, N): the roles not stacked
                ([0, 0], [[1, 1], [2, 2], [1, 1]]),  # (k, N), k = 3
                ([0], [[[1], [2], [1]]]),  # three roles, not two
                ([0, 0], [[[1], [2]]]),  # anchors of another length
                ([[0]], [[[1], [2]]])]:  # 2-D anchors
            with pytest.raises(ValueError, match=r"\(k, 2, N\)"):
                triplet_hinge(e, anchors, others, 0.2)

    def test_finite_diff_fixed_triplets(self):
        rng = np.random.default_rng(5)
        e, labels, mods = pk_batch(rng, 3, 2, 6)
        trips = brute_force_mine(e, labels, mods, TripletKind.CROSS)
        report = hinge_one(e, *trips, 0.5)
        assert report.active_fraction > 0
        err = finite_diff_check(
            lambda E: hinge_one(E, *trips, 0.5).value, e, report.grad
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
        report = hinge_one(e, *trips, 0.2)
        assert_allclose(report.value, np.sqrt(2.0) - 1.0 + 0.2, rtol=1e-12)

    def test_matches_brute_force_composition(self):
        # each mined loss must equal hinge-over-reference-mining exactly
        rng = np.random.default_rng(21)
        for _ in range(20):
            e, labels, mods = pk_batch(rng, 3, 2, 8)
            for kind in ALL_KINDS:
                got = mined_loss(e, labels, mods, kind)
                trips = brute_force_mine(e, labels, mods, kind)
                want = hinge_one(e, *trips, 0.2)
                assert got.value == want.value
                assert got.active_fraction == want.active_fraction
                assert_allclose(got.grad, reference_hinge(e, trips, 0.2)[2],
                                rtol=0, atol=1e-12)


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
        plan = mining_plan(labels, mods, ALL_KINDS)
        cfg = LossConfig()
        bundle = weighted_embedding_loss(e, plan, cfg,
                                         use_weighting=False)
        assert_array_equal(bundle.weights, np.ones(3))
        assert_allclose(bundle.value, 0.6, rtol=1e-12)

    def test_square_batch_weighting_neutral(self):
        # equal active fractions leave the weights at one
        e, labels, mods = square_batch()
        plan = mining_plan(labels, mods, ALL_KINDS)
        bundle = weighted_embedding_loss(e, plan, LossConfig())
        assert_allclose(bundle.weights, np.ones(3), rtol=1e-12)
        assert_allclose(bundle.value, 0.6, rtol=1e-12)

    def test_tetra_batch_drops_dead_loss(self):
        e, labels, mods = tetra_batch()
        plan = mining_plan(labels, mods, ALL_KINDS)
        bundle = weighted_embedding_loss(e, plan, LossConfig())
        assert bundle.fractions == (1.0, 1.0, 0.0)
        assert_allclose(bundle.weights, [1.0, 1.0, 0.0], rtol=1e-12)
        assert_allclose(bundle.values, [0.2, 0.2, 0.0], rtol=1e-12)
        assert_allclose(bundle.value, 0.4, rtol=1e-12)

    def test_tilted_pair_hybrid_takes_all(self):
        e, labels, mods = tilted_pair_batch()
        plan = mining_plan(labels, mods, ALL_KINDS)
        bundle = weighted_embedding_loss(e, plan, LossConfig())
        assert_allclose(bundle.weights, [0.0, 0.0, 1.0], rtol=1e-12)
        assert_allclose(bundle.value, 0.45, rtol=1e-12)

    def test_reports_match_standalone(self):
        rng = np.random.default_rng(31)
        e, labels, mods = pk_batch(rng, 4, 2, 8)
        plan = mining_plan(labels, mods, ALL_KINDS)
        cfg = LossConfig()
        bundle = weighted_embedding_loss(e, plan, cfg)
        for j, kind in enumerate(ALL_KINDS):
            want = mined_loss(e, labels, mods, kind, cfg.margin)
            assert bundle.values[j] == want.value
            assert bundle.fractions[j] == want.active_fraction
            trips = brute_force_mine(e, labels, mods, kind)
            assert_allclose(want.grad,
                            reference_hinge(e, trips, cfg.margin)[2],
                            rtol=0, atol=1e-12)

    def test_grad_is_weighted_sum(self):
        rng = np.random.default_rng(32)
        e, labels, mods = pk_batch(rng, 3, 3, 6)
        plan = mining_plan(labels, mods, ALL_KINDS)
        cfg = LossConfig()
        bundle = weighted_embedding_loss(e, plan, cfg)
        want = sum(w * reference_hinge(
            e, brute_force_mine(e, labels, mods, kind), cfg.margin)[2]
            for w, kind in zip(bundle.weights, ALL_KINDS))
        assert_allclose(bundle.grad, want, rtol=0, atol=1e-12)

    def test_kind_subset(self):
        e, labels, mods = square_batch()
        bundle = weighted_embedding_loss(
            e, mining_plan(labels, mods, (TripletKind.CROSS,)), LossConfig()
        )
        assert len(bundle.values) == len(bundle.fractions) == 1
        assert_allclose(bundle.value, 0.2, rtol=1e-12)

    def test_empty_kinds(self):
        _, labels, mods = square_batch()
        with pytest.raises(ValueError):
            mining_plan(labels, mods, ())

    def test_finite_diff_end_to_end(self):
        # weights and mined triplets are locally constant, so between
        # mining flips the analytic combined gradient must match central
        # differences; flip points show up as kinks and are excluded
        rng = np.random.default_rng(33)
        e, labels, mods = pk_batch(rng, 3, 2, 6)
        plan = mining_plan(labels, mods, ALL_KINDS)
        cfg = LossConfig(margin=0.5)
        bundle = weighted_embedding_loss(e, plan, cfg)
        err = finite_diff_check(
            lambda E: weighted_embedding_loss(E, plan, cfg).value,
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


def reference_bundle(e, cfg, references, use_weighting):
    """weighted_embedding_loss rebuilt from per-kind reference_hinge
    results (of the exhaustive miner's triplets) and gradient_weights,
    summing the kinds in kind order."""
    if use_weighting:
        weights = gradient_weights(np.array([r[1] for r in references]),
                                   cfg.eps_g)
    else:
        weights = np.ones(len(references))
    value = float(sum(w * r[0] for w, r in zip(weights, references)))
    grad = np.zeros_like(e)
    for w, r in zip(weights, references):
        if w != 0.0:
            grad += w * r[2]
    return weights, value, grad


def ablation_kind_sets():
    """The distinct triplet-kind sets of the loss ablation's rows, in row
    order; the cls-only row's empty set has no plan (test_empty_kinds)."""
    kind_sets = []
    for _, variant in ablation_variants(TrainConfig()):
        kinds = METHOD_RECIPES[variant.method][0]
        if kinds and kinds not in kind_sets:
            kind_sets.append(kinds)
    return kind_sets


class TestFusedLossOracle:
    """The fused training path must reproduce what mining with the
    exhaustive reference and scattering with np.add.at give: values,
    active fractions, weights and the combined value bit for bit, and
    the gradient, which sums the same terms in another order, to
    1e-12."""

    KIND_SETS = ablation_kind_sets()

    def test_covers_the_ablation(self):
        assert len(self.KIND_SETS) == 6
        assert set(map(frozenset, self.KIND_SETS)) == {
            frozenset(s) for s in ((TripletKind.CROSS,),
                                   (TripletKind.WITHIN,),
                                   (TripletKind.HYBRID,),
                                   (TripletKind.CROSS, TripletKind.WITHIN),
                                   (TripletKind.CROSS, TripletKind.HYBRID),
                                   ALL_KINDS)}

    def _check(self, e, labels, mods, cfg):
        references = {kind: reference_hinge(
            e, brute_force_mine(e, labels, mods, kind), cfg.margin)
            for kind in ALL_KINDS}
        for kinds in self.KIND_SETS:
            plan = mining_plan(labels, mods, kinds)
            for use_weighting in (False, True):
                got = weighted_embedding_loss(e, plan, cfg, use_weighting)
                wanted = [references[kind] for kind in kinds]
                weights, value, grad = reference_bundle(e, cfg, wanted,
                                                        use_weighting)
                assert got.values == tuple(r[0] for r in wanted)
                assert got.fractions == tuple(r[1] for r in wanted)
                assert_array_equal(got.weights, weights)
                assert got.value == value
                assert_allclose(got.grad, grad, rtol=0, atol=1e-12)

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

    @pytest.mark.parametrize("shared", ["positive", "negative"])
    def test_shared_pick_ties(self, shared):
        # The cross and hybrid kinds share one positive pick per anchor,
        # the within and hybrid kinds one negative pick. Here that shared
        # pick is a distance tie on most anchors, so the lowest-index rule
        # decides it for both kinds at once. "positive": every
        # (class, modality) cell repeats one codebook row, so all of an
        # anchor's other-modality positives coincide. "negative": each
        # modality's rows come from its own 2-row codebook, so the anchor's
        # own-modality negatives tie at distance 0 or at one other value.
        rng = np.random.default_rng(55 if shared == "positive" else 56)
        tied = total = 0
        for _ in range(30):
            p = int(rng.integers(2, 6))
            k = int(rng.integers(2, 5))
            _, labels, mods = pk_batch(rng, p, k, 6)
            if shared == "positive":
                cells = unit_rows(rng, 2 * p, 6)
                e = cells[2 * labels + mods]
                candidates = ((labels[:, None] == labels)
                              & (mods[:, None] != mods))
                best = np.where(candidates, pairwise_distance(e, e),
                                -np.inf).max(axis=1, keepdims=True)
            else:
                books = unit_rows(rng, 4, 6).reshape(2, 2, 6)
                e = books[mods, rng.integers(0, 2, size=len(labels))]
                candidates = ((labels[:, None] != labels)
                              & (mods[:, None] == mods))
                best = np.where(candidates, pairwise_distance(e, e),
                                np.inf).min(axis=1, keepdims=True)
            dist = np.where(candidates, pairwise_distance(e, e), np.nan)
            tied += int(((dist == best).sum(axis=1) > 1).sum())
            total += len(labels)
            self._check(e, labels, mods, LossConfig())
        assert tied > total / 2

    @pytest.mark.parametrize("margin", [0.2, 2.5])
    def test_partly_and_fully_active_batches(self, margin):
        # unit rows keep |d_ap - d_an| <= 2, so a margin past 2 makes
        # every triplet active
        rng = np.random.default_rng(53)
        regimes = set()
        for _ in range(40):
            e, labels, mods = pk_batch(rng, int(rng.integers(2, 6)),
                                       int(rng.integers(2, 5)), 8)
            cfg = LossConfig(margin=margin)
            self._check(e, labels, mods, cfg)
            bundle = weighted_embedding_loss(
                e, mining_plan(labels, mods, ALL_KINDS), cfg)
            regimes.update(map(regime, bundle.fractions))
        assert regimes == ({"partly", "fully"} if margin < 2
                           else {"fully"})

    def test_negative_index_arrays(self):
        # arbitrary index arrays of one to three kinds, negative indices
        # addressing rows from the end, as in numpy indexing and
        # np.add.at; each kind's value, active fraction and pair-weight
        # gradient must be its own reference hinge's
        rng = np.random.default_rng(54)
        regimes = set()
        for _ in range(100):
            b = int(rng.integers(3, 12))
            e = unit_rows(rng, b, 4)
            k = int(rng.integers(1, 4))
            n = int(rng.integers(1, 9))
            a = rng.integers(-b, b, size=n)
            others = rng.integers(-b, b, size=(k, 2, n))
            margin = float(rng.choice([0.01, 0.2, 1.0, 2.5]))
            values, fractions, pair_weights = triplet_hinge(e, a, others,
                                                            margin)
            assert pair_weights.shape == (k, 2, n)
            for j in range(k):
                value, active, grad = reference_hinge(e, (a, *others[j]),
                                                      margin)
                assert values[j] == value
                assert fractions[j] == active
                assert_allclose(
                    pair_gradient(e, a, others[j], pair_weights[j]),
                    grad, rtol=0, atol=1e-12)
                regimes.add(regime(active))
        assert regimes == {"none", "partly", "fully"}


class TestPairGradient:
    """pair_gradient against an np.add.at scatter of w * (e_i - e_j) to
    row i and its negation to row j, over arbitrary pair lists."""

    @staticmethod
    def scatter(e, firsts, seconds, weights):
        terms = weights[:, None] * (e[firsts] - e[seconds])
        grad = np.zeros_like(e)
        np.add.at(grad, firsts, terms)
        np.add.at(grad, seconds, -terms)
        return grad

    def test_matches_scatter(self):
        # repeated pairs, both orders of a pair, self pairs, negative
        # indices and zero weights
        rng = np.random.default_rng(61)
        for _ in range(200):
            b = int(rng.integers(1, 10))
            e = rng.standard_normal((b, int(rng.integers(1, 6))))
            n = int(rng.integers(0, 30))
            firsts, seconds = rng.integers(-b, b, size=(2, n))
            weights = rng.standard_normal(n) * (rng.random(n) < 0.7)
            assert_allclose(pair_gradient(e, firsts, seconds, weights),
                            self.scatter(e, firsts, seconds, weights),
                            rtol=0, atol=1e-12)

    def test_stacked_pairs(self):
        # (k, 2, N) arrays, as weighted_embedding_loss passes them, sum
        # like the same pairs flattened
        rng = np.random.default_rng(62)
        e = unit_rows(rng, 8, 3)
        firsts, seconds = rng.integers(-8, 8, size=(2, 3, 2, 5))
        weights = rng.standard_normal((3, 2, 5))
        assert_allclose(pair_gradient(e, firsts, seconds, weights),
                        self.scatter(e, firsts.ravel(), seconds.ravel(),
                                     weights.ravel()),
                        rtol=0, atol=1e-12)

    def test_out_of_range_indices_raise(self):
        # an index outside [-B, B) raises as triplet_hinge's gather does,
        # instead of wrapping to another row
        e = np.eye(4)
        for firsts, seconds in [([0], [5]), ([0], [-5]), ([4], [1]),
                                ([-5], [1]), ([0, 1], [[1, 2], [3, 4]])]:
            with pytest.raises(IndexError):
                pair_gradient(e, firsts, seconds, 1.0)
        with pytest.raises(IndexError):
            triplet_hinge(e, [0], [[[5], [1]]], 0.2)

    def test_hinge_weights(self):
        # an active triplet at distances 2 and sqrt(2), of N = 2 with one
        # satisfied triplet, and a pair at distance 0 weighing 0
        e = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        values, fractions, weights = triplet_hinge(
            e, [0, 0], [[[1, 0], [2, 1]]], 0.2)
        assert fractions[0] == 0.5
        assert_allclose(weights, [[[1 / 4, 0.0],
                                   [-1 / (2 * np.sqrt(2.0)), 0.0]]],
                        rtol=1e-15)
        _, _, weights = triplet_hinge(e, [0], [[[0], [1]]], 2.5)
        assert_array_equal(weights, [[[0.0], [-1 / 2]]])


class TestAdversarialLosses:
    def test_chance_scores(self):
        half = np.full(8, 0.5)
        photo = np.tile([True, False], 4)
        assert_allclose(adversarial_d_loss(half, photo).value,
                        2 * np.log(2.0), rtol=1e-12)
        assert_allclose(adversarial_g_loss(half, photo).value,
                        2 * np.log(2.0), rtol=1e-12)

    def test_single_score_values(self):
        scores = np.array([0.3, 0.8])
        photo = np.array([False, True])
        d = adversarial_d_loss(scores, photo)
        g = adversarial_g_loss(scores, photo)
        assert_allclose(d.value, -(np.log(0.8) + np.log(0.7)), rtol=1e-12)
        assert_allclose(d.value, 0.57982, atol=5e-6)
        assert_allclose(g.value, -(np.log(0.2) + np.log(0.3)), rtol=1e-12)
        assert_allclose(g.value, 2.81341, atol=5e-6)

    def test_g_is_d_with_modalities_swapped(self):
        # bit for bit, value and gradient, on unequal label counts
        rng = np.random.default_rng(2)
        scores = rng.uniform(0.1, 0.9, size=8)
        photo = rng.permutation(np.arange(8) < 5)
        g = adversarial_g_loss(scores, photo)
        d = adversarial_d_loss(scores, ~photo)
        assert g.value == d.value
        assert_array_equal(g.grad, d.grad)

    def test_perfect_discriminator(self):
        scores = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        report = adversarial_d_loss(scores, scores == 1.0)
        assert report.value < 1e-5
        assert_array_equal(report.grad, np.zeros(6))

    def test_finite_diff_interior(self):
        rng = np.random.default_rng(3)
        scores = rng.uniform(0.2, 0.8, size=12)
        photo = rng.permutation(np.arange(12) < 6)
        for fn in (adversarial_d_loss, adversarial_g_loss):
            report = fn(scores, photo)
            assert report.grad.shape == (12,)
            err = finite_diff_check(lambda x: fn(x, photo).value, scores,
                                    report.grad)
            assert err < 1e-6

    def test_input_validation(self):
        for fn in (adversarial_d_loss, adversarial_g_loss):
            with pytest.raises(ValueError, match="both labels"):
                fn(np.array([]), np.array([], dtype=bool))  # empty
            with pytest.raises(ValueError, match="1-D"):
                fn(np.full((2, 2), 0.5), np.array([True, False]))

    def test_label_mask_validation(self):
        # a mask of another length, and a mask holding one label only
        scores = np.full(4, 0.5)
        for fn in (adversarial_d_loss, adversarial_g_loss):
            for mask in (np.array([True, False]), np.ones((4, 1), bool)):
                with pytest.raises(ValueError, match="one length"):
                    fn(scores, mask)
            for mask in (np.ones(4, bool), np.zeros(4, bool)):
                with pytest.raises(ValueError, match="both labels"):
                    fn(scores, mask)
