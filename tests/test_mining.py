"""Tests for modality-aware batch-hard mining."""

import itertools

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import mine_one, pk_batch, unit_rows
from modalmetric import MiningError
from modalmetric.geometry import pairwise_distance
from modalmetric.losses import ALL_KINDS, LossConfig, weighted_embedding_loss
from modalmetric.mining import TripletKind, batch_hard_mine, mining_plan
from oracles import brute_force_mine, negative_modality, positive_modality

KINDS = (TripletKind.CROSS, TripletKind.WITHIN, TripletKind.HYBRID)


class TestTripletKind:
    def test_modality_routing(self):
        for anchor_mod in (0, 1):
            other = 1 - anchor_mod
            cross, within, hybrid = KINDS
            assert positive_modality(cross, anchor_mod) == other
            assert negative_modality(cross, anchor_mod) == other
            assert positive_modality(within, anchor_mod) == anchor_mod
            assert negative_modality(within, anchor_mod) == anchor_mod
            assert positive_modality(hybrid, anchor_mod) == other
            assert negative_modality(hybrid, anchor_mod) == anchor_mod


class TestBatchHardMine:
    def _four_sample_batch(self):
        rng = np.random.default_rng(0)
        e = unit_rows(rng, 4, 6)
        labels = np.array([0, 0, 0, 1])
        mods = np.array([0, 0, 1, 1])
        return e, labels, mods

    def test_unique_candidates_cross(self):
        # the four-sample batch plus a class-1 sketch, so that every
        # anchor has a cross-modal negative
        e, labels, mods = self._four_sample_batch()
        e = np.vstack((e, unit_rows(np.random.default_rng(1), 1, 6)))
        labels = np.append(labels, 1)
        mods = np.append(mods, 0)
        dist = pairwise_distance(e, e)
        # anchors 0 and 1 are class-0 sketches: the only class-0 photo is
        # index 2 and the only other-class photo is index 3; anchor 4, the
        # class-1 sketch, has the one class-1 photo 3 and the one
        # other-class photo 2
        got = mine_one(dist, labels, mods, TripletKind.CROSS,
                       anchors=[0, 1, 4])
        assert_array_equal(got, [[0, 1, 4], [2, 2, 3], [3, 3, 2]])

    def test_no_within_negative(self):
        _, labels, mods = self._four_sample_batch()
        # no other-class sketch exists for anchor 0
        with pytest.raises(MiningError, match="anchor 0: no valid negative"):
            mining_plan(labels, mods, (TripletKind.WITHIN,))

    def test_no_within_positive(self):
        labels = np.array([0, 0, 1, 1])
        mods = np.array([0, 1, 0, 1])
        with pytest.raises(MiningError, match="anchor 0: no valid positive"):
            mining_plan(labels, mods, (TripletKind.WITHIN,))

    def test_weighted_loss_raises_the_same_error(self):
        # a batch layout with no candidate must fail when its plan is
        # built, the one path to mining, with the reference miner's
        # message, naming the first failing kind, then anchor, positive
        # before negative
        rng = np.random.default_rng(1)
        no_within_positive = (unit_rows(rng, 4, 6), np.array([0, 0, 1, 1]),
                              np.array([0, 1, 0, 1]))
        no_candidates = (unit_rows(rng, 2, 6), np.array([0, 1]),
                         np.array([0, 1]))
        for e, labels, mods in (self._four_sample_batch(),
                                no_within_positive, no_candidates):
            for kinds in ((TripletKind.WITHIN,), ALL_KINDS,
                          (TripletKind.HYBRID, TripletKind.WITHIN)):
                with pytest.raises(MiningError) as want:
                    for kind in kinds:
                        brute_force_mine(e, labels, mods, kind)
                with pytest.raises(MiningError) as got:
                    mining_plan(labels, mods, kinds)
                assert str(got.value) == str(want.value)

    def test_tie_break_lowest_index(self):
        # identical embeddings make every candidate tie; the lowest batch
        # index must win for both positive and negative
        e = np.tile(np.eye(1, 4), (8, 1))
        labels = np.repeat([0, 1], 4)
        mods = np.tile([0, 0, 1, 1], 2)
        dist = pairwise_distance(e, e)
        got = mine_one(dist, labels, mods, TripletKind.CROSS)
        assert_array_equal(got[:, 0], [0, 2, 6])
        assert np.array_equal(
            got, brute_force_mine(e, labels, mods, TripletKind.CROSS))

    def test_default_anchors_whole_batch(self):
        rng = np.random.default_rng(3)
        _, labels, mods = pk_batch(rng, 3, 2, 5)
        assert_array_equal(mining_plan(labels, mods, KINDS).anchors,
                           np.arange(12))

    def test_shape_errors(self):
        rng = np.random.default_rng(4)
        _, labels, mods = pk_batch(rng, 2, 2, 5)
        plan = mining_plan(labels, mods, KINDS)
        with pytest.raises(ValueError, match="dist"):
            batch_hard_mine(np.zeros((3, 3)), plan)
        with pytest.raises(ValueError):
            mining_plan(labels[:4], mods, KINDS)
        with pytest.raises(ValueError, match="kind"):
            mining_plan(labels, mods, ())


class TestMiningPlan:
    C, W, H = KINDS

    @staticmethod
    def uneven_batch(rng):
        # 2-4 classes of 2-4 rows in each modality, in shuffled order
        counts = rng.integers(2, 5, size=(int(rng.integers(2, 5)), 2))
        cells = np.repeat(np.arange(counts.size), counts.ravel())
        cells = rng.permutation(cells)
        return cells // 2, cells % 2

    def test_candidate_sets(self):
        # set 0: same class, other modality; set 1: same class, own
        # modality, not the anchor; set 2: other class, other modality;
        # set 3: other class, own modality
        rng = np.random.default_rng(5)
        rules = (lambda a, j, same, own: same and not own,
                 lambda a, j, same, own: same and own and a != j,
                 lambda a, j, same, own: not same and not own,
                 lambda a, j, same, own: not same and own)
        for trial in range(40):
            if trial % 2:
                labels, mods = self.uneven_batch(rng)
            else:
                _, labels, mods = pk_batch(rng, int(rng.integers(2, 5)),
                                           int(rng.integers(2, 4)), 2)
            b = len(labels)
            plan = mining_plan(labels, mods, KINDS)
            assert plan.barriers.shape == (4, b, b)
            assert set(np.unique(plan.barriers)) == {0.0, np.inf}
            want = np.array([[[rule(a, j, labels[a] == labels[j],
                                    mods[a] == mods[j])
                               for j in range(b)] for a in range(b)]
                             for rule in rules])
            assert_array_equal(plan.barriers == 0.0, want)

    @pytest.mark.parametrize("kinds, cells", [
        ((C,), ([0, 2], [(0, 1)])),
        ((W,), ([1, 3], [(0, 1)])),
        ((H,), ([0, 3], [(0, 1)])),
        ((C, W), ([0, 1, 2, 3], [(0, 2), (1, 3)])),
        ((C, H), ([0, 2, 3], [(0, 1), (0, 2)])),
        ((W, H), ([0, 1, 3], [(1, 2), (0, 2)])),
        ((C, W, H), ([0, 1, 2, 3], [(0, 2), (1, 3), (0, 3)])),
    ])
    def test_cells(self, kinds, cells):
        # a plan keeps only the sets its kinds use, in the four-set
        # numbering's order, with their signs; each kind is a fixed
        # (positive, negative) pair of the kept sets, in the order the
        # kinds are asked for
        used, renumbered = cells
        _, labels, mods = pk_batch(np.random.default_rng(5), 3, 2, 4)
        plan = mining_plan(labels, mods, kinds)
        full = mining_plan(labels, mods, KINDS)
        assert_array_equal(plan.cells, renumbered)
        assert_array_equal(plan.barriers, full.barriers[used])
        assert_array_equal(plan.signs.ravel(),
                           [-1.0 if s < 2 else 1.0 for s in used])

    def test_read_only(self):
        # every step reuses the plan, so none of its arrays can be
        # written in place, and 100 loss steps leave its bytes as they were
        rng = np.random.default_rng(10)
        _, labels, mods = pk_batch(rng, 3, 2, 6)
        for kinds in (ALL_KINDS, (self.C,)):
            plan = mining_plan(labels, mods, kinds)
            before = {name: array.tobytes()
                      for name, array in vars(plan).items()}
            assert len(before) == 6
            for array in vars(plan).values():
                with pytest.raises(ValueError, match="read-only"):
                    array += 1
                with pytest.raises(ValueError, match="read-only"):
                    array[...] = 0
            for _ in range(100):
                weighted_embedding_loss(unit_rows(rng, len(labels), 6), plan,
                                        LossConfig())
            assert {name: array.tobytes()
                    for name, array in vars(plan).items()} == before

    def test_picks_follow_the_sets(self):
        # every pick of batch_hard_mine is its set's hardest row, the
        # farthest positive or the nearest negative, the lowest index
        # among ties
        rng = np.random.default_rng(6)
        codebook = unit_rows(np.random.default_rng(7), 3, 4)
        for _ in range(20):
            _, labels, mods = pk_batch(rng, 3, 3, 4)
            e = codebook[rng.integers(0, 3, size=len(labels))]
            dist = pairwise_distance(e, e)
            plan = mining_plan(labels, mods, KINDS)
            picks = batch_hard_mine(dist, plan)
            assert picks.shape == (3, 2, 18)
            for kind_cells, kind_picks in zip(plan.cells, picks):
                for role, (s, row) in enumerate(zip(kind_cells,
                                                    kind_picks)):
                    for a in range(18):
                        cand = np.flatnonzero(plan.barriers[s, a] == 0.0)
                        best = (dist[a, cand].max() if role == 0
                                else dist[a, cand].min())
                        assert row[a] == cand[dist[a, cand] == best][0]

    def test_kinds_mined_alone_or_together(self):
        # on tie-heavy codebook batches, a kind's triplets do not depend
        # on which kinds are mined with it or in which order
        rng = np.random.default_rng(8)
        codebook = unit_rows(np.random.default_rng(9), 3, 4)
        subsets = [kinds for n in (1, 2, 3)
                   for kinds in itertools.permutations(KINDS, n)]
        for _ in range(20):
            _, labels, mods = pk_batch(rng, 3, 3, 4)
            e = codebook[rng.integers(0, 3, size=len(labels))]
            dist = pairwise_distance(e, e)
            alone = {kind: mine_one(dist, labels, mods, kind)[1:]
                     for kind in KINDS}
            for kinds in subsets:
                picks = batch_hard_mine(dist, mining_plan(labels, mods, kinds))
                assert picks.shape == (len(kinds), 2, 18)
                for kind, kind_picks in zip(kinds, picks):
                    assert_array_equal(kind_picks, alone[kind])


class TestMinerAgreement:
    def test_random_batches(self):
        # the vectorized miner and the exhaustive reference must produce
        # identical triplets, including on distance ties
        rng = np.random.default_rng(123)
        for trial in range(100):
            p = int(rng.integers(2, 5))
            k = int(rng.integers(2, 4))
            d = int(rng.choice([4, 8]))
            e, labels, mods = pk_batch(rng, p, k, d)
            dist = pairwise_distance(e, e)
            for kind in KINDS:
                fast = mine_one(dist, labels, mods, kind)
                slow = brute_force_mine(e, labels, mods, kind)
                assert np.array_equal(fast, slow), (
                    f"trial {trial}, kind {kind.value}")

    def test_quantized_batches_force_ties(self):
        # rows drawn from a 3-vector codebook collide constantly, so
        # tie-breaking is exercised on nearly every anchor
        rng = np.random.default_rng(7)
        codebook = unit_rows(np.random.default_rng(99), 3, 4)
        for _ in range(50):
            _, labels, mods = pk_batch(rng, 3, 2, 4)
            e = codebook[rng.integers(0, 3, size=len(labels))]
            dist = pairwise_distance(e, e)
            for kind in KINDS:
                fast = mine_one(dist, labels, mods, kind)
                slow = brute_force_mine(e, labels, mods, kind)
                assert np.array_equal(fast, slow)

    def test_anchor_subset_agreement(self):
        rng = np.random.default_rng(11)
        e, labels, mods = pk_batch(rng, 4, 3, 6)
        dist = pairwise_distance(e, e)
        anchors = [17, 0, 8, 23]
        for kind in KINDS:
            fast = mine_one(dist, labels, mods, kind, anchors=anchors)
            slow = brute_force_mine(e, labels, mods, kind, anchors=anchors)
            assert np.array_equal(fast, slow)
