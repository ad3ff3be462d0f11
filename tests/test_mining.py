"""Tests for modality-aware batch-hard mining."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from conftest import mine_one, pk_batch, unit_rows
from modalmetric import (
    ALL_KINDS,
    LossConfig,
    MiningError,
    TripletKind,
    batch_hard_mine,
    brute_force_mine,
    pairwise_distance,
    weighted_embedding_loss,
)

KINDS = (TripletKind.CROSS, TripletKind.WITHIN, TripletKind.HYBRID)


class TestTripletKind:
    def test_modality_routing(self):
        for anchor_mod in (0, 1):
            other = 1 - anchor_mod
            assert TripletKind.CROSS.positive_modality(anchor_mod) == other
            assert TripletKind.CROSS.negative_modality(anchor_mod) == other
            assert TripletKind.WITHIN.positive_modality(anchor_mod) == anchor_mod
            assert TripletKind.WITHIN.negative_modality(anchor_mod) == anchor_mod
            assert TripletKind.HYBRID.positive_modality(anchor_mod) == other
            assert TripletKind.HYBRID.negative_modality(anchor_mod) == anchor_mod


class TestBatchHardMine:
    def _four_sample_batch(self):
        rng = np.random.default_rng(0)
        e = unit_rows(rng, 4, 6)
        labels = np.array([0, 0, 0, 1])
        mods = np.array([0, 0, 1, 1])
        return e, labels, mods

    def test_unique_candidates_cross(self):
        e, labels, mods = self._four_sample_batch()
        dist = pairwise_distance(e, e)
        # anchor 0 is a class-0 sketch: the only class-0 photo is index 2
        # and the only other-class photo is index 3
        got = mine_one(dist, labels, mods, TripletKind.CROSS, anchors=[0])
        assert_array_equal(got, [[0], [2], [3]])

    def test_no_within_negative(self):
        e, labels, mods = self._four_sample_batch()
        dist = pairwise_distance(e, e)
        # no other-class sketch exists for anchor 0
        with pytest.raises(MiningError, match="anchor 0: no valid negative"):
            batch_hard_mine(dist, labels, mods, (TripletKind.WITHIN,),
                            anchors=[0])

    def test_no_within_positive(self):
        rng = np.random.default_rng(1)
        e = unit_rows(rng, 4, 6)
        labels = np.array([0, 0, 1, 1])
        mods = np.array([0, 1, 0, 1])
        dist = pairwise_distance(e, e)
        with pytest.raises(MiningError, match="anchor 0: no valid positive"):
            batch_hard_mine(dist, labels, mods, (TripletKind.WITHIN,),
                            anchors=[0])

    def test_weighted_loss_raises_the_same_error(self):
        # a batch with no candidate must fail on the training path with
        # the reference miner's message, naming the first failing kind,
        # then anchor, positive before negative
        rng = np.random.default_rng(1)
        no_within_positive = (unit_rows(rng, 4, 6), np.array([0, 0, 1, 1]),
                              np.array([0, 1, 0, 1]))
        no_candidates = (unit_rows(rng, 2, 6), np.array([0, 1]),
                         np.array([0, 1]))
        for e, labels, mods in (self._four_sample_batch(),
                                no_within_positive, no_candidates):
            dist = pairwise_distance(e, e)
            for kinds in ((TripletKind.WITHIN,), ALL_KINDS):
                with pytest.raises(MiningError) as want:
                    for kind in kinds:
                        brute_force_mine(e, labels, mods, kind)
                with pytest.raises(MiningError) as got:
                    weighted_embedding_loss(e, labels, mods, LossConfig(),
                                            kinds)
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

    def test_anchor_order_preserved(self):
        rng = np.random.default_rng(2)
        e, labels, mods = pk_batch(rng, 2, 2, 5)
        dist = pairwise_distance(e, e)
        anchors, mined = batch_hard_mine(dist, labels, mods,
                                         (TripletKind.HYBRID,),
                                         anchors=[5, 1, 3])
        assert_array_equal(anchors, [5, 1, 3])
        assert [len(a) for a in mined[0]] == [3, 3]

    def test_default_anchors_whole_batch(self):
        rng = np.random.default_rng(3)
        e, labels, mods = pk_batch(rng, 3, 2, 5)
        dist = pairwise_distance(e, e)
        anchors, _ = batch_hard_mine(dist, labels, mods, KINDS)
        assert_array_equal(anchors, np.arange(12))

    def test_shape_errors(self):
        rng = np.random.default_rng(4)
        e, labels, mods = pk_batch(rng, 2, 2, 5)
        with pytest.raises(ValueError, match="dist"):
            batch_hard_mine(np.zeros((3, 3)), labels, mods, KINDS)
        with pytest.raises(ValueError):
            batch_hard_mine(np.zeros((8, 8)), labels[:4], mods, KINDS)


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
