"""Tests for the normalized-embedding primitives."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import unit_rows
from modalmetric import NumericError
from modalmetric.geometry import cosine_matrix, pairwise_distance
from oracles import finite_diff_check


class TestCosineMatrix:
    def test_identical(self):
        assert_allclose(cosine_matrix([[1.0, 0.0]], [[1.0, 0.0]]), [[1.0]])

    def test_orthogonal(self):
        assert_allclose(cosine_matrix([[1.0, 0.0]], [[0.0, 1.0]]), [[0.0]])

    def test_dot_product(self):
        assert_allclose(cosine_matrix([[0.6, 0.8]], [[1.0, 0.0]]), [[0.6]])

    def test_shape(self):
        rng = np.random.default_rng(2)
        a, b = unit_rows(rng, 5, 3), unit_rows(rng, 7, 3)
        assert cosine_matrix(a, b).shape == (5, 7)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            cosine_matrix(np.ones((2, 3)), np.ones((2, 4)))

    def test_requires_2d(self):
        with pytest.raises(ValueError):
            cosine_matrix(np.ones(3), np.ones((2, 3)))


class TestPairwiseDistance:
    def test_identical(self):
        assert_allclose(pairwise_distance([[1.0, 0.0]], [[1.0, 0.0]]), [[0.0]])

    def test_antipodal(self):
        assert_allclose(pairwise_distance([[1.0, 0.0]], [[-1.0, 0.0]]), [[2.0]])

    def test_orthogonal(self):
        assert_allclose(
            pairwise_distance([[1.0, 0.0]], [[0.0, 1.0]]), [[np.sqrt(2)]]
        )

    def test_matches_euclidean_norm(self):
        # d = sqrt(2 - 2 cos) must agree with the actual row difference
        rng = np.random.default_rng(3)
        a, b = unit_rows(rng, 12, 6), unit_rows(rng, 9, 6)
        direct = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=-1)
        assert_allclose(pairwise_distance(a, b), direct, atol=1e-12)

    def test_range(self):
        rng = np.random.default_rng(4)
        d = pairwise_distance(unit_rows(rng, 20, 5), unit_rows(rng, 20, 5))
        assert np.all(d >= 0.0) and np.all(d <= 2.0)


class TestFiniteDiffCheck:
    def test_quadratic_exact(self):
        x = np.array([1.0, 2.0])
        err = finite_diff_check(lambda v: 0.5 * np.sum(v**2), x, x)
        assert err < 1e-6

    def test_constant_loss(self):
        x = np.array([0.3, -0.7, 1.1])
        assert finite_diff_check(lambda v: 4.2, x, np.zeros(3)) == 0.0

    def test_detects_wrong_gradient(self):
        x = np.array([1.0, 2.0])
        err = finite_diff_check(lambda v: 0.5 * np.sum(v**2), x, 2.0 * x)
        assert err > 0.4

    def test_hinge_interior(self):
        # max(0, x) away from the kink behaves like a linear function
        x = np.array([0.3])
        err = finite_diff_check(lambda v: np.maximum(0.0, v[0]), x, np.ones(1))
        assert err < 1e-8

    def test_kink_excluded(self):
        # the two one-sided differences disagree at x=0, so the entry is
        # skipped even with a deliberately wrong analytic gradient
        x = np.array([0.0])
        err = finite_diff_check(
            lambda v: np.maximum(0.0, v[0]), x, np.array([123.0])
        )
        assert err == 0.0

    def test_bad_step(self):
        with pytest.raises(ValueError, match="step"):
            finite_diff_check(lambda v: 0.0, np.ones(2), np.zeros(2), step=0.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            finite_diff_check(lambda v: 0.0, np.ones(2), np.zeros(3))

    def test_non_finite_loss(self):
        with pytest.raises(NumericError):
            finite_diff_check(lambda v: np.nan, np.ones(2), np.zeros(2))
