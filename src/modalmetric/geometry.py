"""Primitives on L2-normalized embedding rows.

All functions operate on float64 arrays and are pure: no shared state,
safe to call from any thread. Distances between unit rows are computed
through the identity d^2 = 2 - 2*cos, clipped at zero, which avoids
negative radicands when two rows nearly coincide.
"""

import numpy as np

from .errors import NumericError

# Norms below this are treated as degenerate: the vector is divided by
# EPS_NORM instead of its own norm, keeping normalization total.
EPS_NORM = 1e-12


def l2_normalize(v, eps=EPS_NORM):
    """Scale vectors to unit Euclidean norm along the last axis.

    Args:
        v: Array of shape (..., d). Must be finite.
        eps: Norm floor; inputs with norm below it are divided by eps
            rather than raising.

    Returns:
        float64 array of the same shape with unit rows (direction
        preserved), except degenerate near-zero inputs which come back
        scaled by 1/eps.
    """
    v = np.asarray(v, dtype=np.float64)
    norm = np.linalg.norm(v, axis=-1, keepdims=True)
    return v / np.maximum(norm, eps)


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


def finite_diff_check(loss_fn, params, analytic_grad, step=1e-5, kink_tol=1e-3):
    """Compare an analytic gradient against central finite differences.

    Args:
        loss_fn: Pure scalar function of a parameter array.
        params: Point at which to check, any shape.
        analytic_grad: Claimed gradient, same shape as `params`.
        step: Central-difference step (> 0).
        kink_tol: Threshold on the forward/backward one-sided
            disagreement used to flag non-differentiable entries.

    Returns:
        Max over checked entries of
        |central_difference - analytic| / max(|analytic|, 1e-8).
        Entries where the loss sits within `step` of a hinge boundary
        (detected by the two one-sided differences disagreeing) are
        excluded from the maximum.

    Raises:
        ValueError: if step <= 0 or shapes differ.
        NumericError: if any loss evaluation is non-finite.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    params = np.asarray(params, dtype=np.float64)
    analytic_grad = np.asarray(analytic_grad, dtype=np.float64)
    if params.shape != analytic_grad.shape:
        raise ValueError("analytic_grad shape must match params")

    x = params.copy()
    f0 = float(loss_fn(x))
    if not np.isfinite(f0):
        raise NumericError("loss_fn returned a non-finite value")

    max_err = 0.0
    for i in range(x.size):
        orig = x.flat[i]
        x.flat[i] = orig + step
        f_plus = float(loss_fn(x))
        x.flat[i] = orig - step
        f_minus = float(loss_fn(x))
        x.flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"loss_fn non-finite at entry {i}")

        central = (f_plus - f_minus) / (2.0 * step)
        forward = (f_plus - f0) / step
        backward = (f0 - f_minus) / step
        # A smooth loss has forward - backward ~ O(step); a hinge crossed
        # inside [x-step, x+step] leaves an O(1) derivative jump.
        if abs(forward - backward) > kink_tol * max(1.0, abs(central)):
            continue
        err = abs(central - analytic_grad.flat[i]) / max(
            abs(analytic_grad.flat[i]), 1e-8
        )
        max_err = max(max_err, err)
    return max_err
