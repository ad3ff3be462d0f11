"""Primitives on L2-normalized embedding rows.

All functions operate on float64 arrays and are pure: no shared state,
safe to call from any thread. Distances between unit rows are computed
through the identity d^2 = 2 - 2*cos, clipped at zero, which avoids
negative radicands when two rows nearly coincide.
"""

import numpy as np

# Norms below this are treated as degenerate: the embedder divides such
# a row by EPS_NORM instead of its own norm, keeping normalization total.
EPS_NORM = 1e-12


def cosine_matrix(a, b):
    """Pairwise dot products between unit rows of `a` and `b`.

    Args:
        a: (n_a, d) array of unit rows.
        b: (n_b, d) array of unit rows.

    Returns:
        (n_a, n_b) float64 matrix of cosines in [-1, 1].

    Raises:
        ValueError: if the column counts differ.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("cosine_matrix expects 2-D inputs")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"dimension mismatch: {a.shape[1]} vs {b.shape[1]} columns"
        )
    return a @ b.T


def pairwise_distance(a, b):
    """Euclidean distances between unit rows of `a` and `b`.

    Entry (i, j) is ||a_i - b_j||_2, computed as sqrt(max(0, 2 - 2*cos)).
    For unit-norm inputs every entry lies in [0, 2].

    Raises:
        ValueError: if the column counts differ.
    """
    # in place on the fresh product: -2*cos + 2 is 2 - 2*cos bit for bit
    cos = cosine_matrix(a, b)
    cos *= -2.0
    cos += 2.0
    np.maximum(cos, 0.0, out=cos)
    return np.sqrt(cos, out=cos)
