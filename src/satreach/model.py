"""Saturated stochastic linear model and its polytopic saturation hull.

The plant is x+ = A x + B sat(u) + w with componentwise input saturation
and zero-mean noise of known covariance.  Control is split into a nominal
input v and an error feedback K e, which yields the error recursion

    e+ = A e + B (sat(K e + v) - v) + w

and the nominal recursion z+ = A z + B v.  Row i of the saturated
feedback is a factor theta_i in [0, 1] times (K e)_i, so the saturated
error map lies in a box of saturation factors: the convex hull of the
maps A + sum_i theta_i B_i K_i with low_i <= theta_i <= 1.  low = 0 gives
the 2^m maps that keep or drop each feedback row, the structural fact the
certification layer builds on, and low = 1 gives the linear loop A + B K
as one product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Noise covariances and shape matrices are symmetrized on ingestion;
# asymmetry beyond this tolerance, relative to the largest entry where that
# exceeds one, is rejected rather than silently averaged away.  It is also
# the absolute floor below zero that W's smallest eigenvalue may reach.
SYMMETRY_TOL = 1e-9

# Vertex enumeration is exponential in the free rows (low_i < 1); refuse past this.
MAX_INPUT_DIM = 20


def _as_float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def _symmetrized(M, name: str) -> np.ndarray:
    """(M + M') / 2 of a square M that is finite once symmetrized and whose
    asymmetry |M - M'| is at most SYMMETRY_TOL * max(1, max |M|)."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"{name} must be square, got shape {M.shape}")
    # NaN and infinite entries, and sums that overflow, end up non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        skew, symmetric = np.abs(M - M.T), 0.5 * (M + M.T)
    if not np.isfinite(symmetric).all():
        raise ValueError(f"{name} must stay finite when symmetrized as (M + M') / 2")
    if np.max(skew) > SYMMETRY_TOL * max(1.0, np.max(np.abs(M))):
        raise ValueError(f"{name} must be symmetric")
    return symmetric


def _saturation_bounds(ubar) -> np.ndarray:
    """ubar as a finite vector of strictly positive saturation magnitudes."""
    ubar = _as_float_array(ubar, "ubar", 1)
    if (ubar <= 0.0).any():
        raise ValueError("saturation magnitudes must be strictly positive")
    return ubar


@dataclass(frozen=True)
class SystemSpec:
    """Plant data for a saturated linear system.

    Attributes:
        A: n-by-n state matrix, required Schur stable.
        B: n-by-m input matrix.
        W: n-by-n noise covariance, symmetric positive semidefinite.
        ubar: length-m vector of positive saturation magnitudes.
    """

    A: np.ndarray
    B: np.ndarray
    W: np.ndarray
    ubar: np.ndarray

    def __post_init__(self):
        A = _as_float_array(self.A, "A", 2)
        B = _as_float_array(self.B, "B", 2)
        W = _as_float_array(self.W, "W", 2)
        ubar = _saturation_bounds(self.ubar)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {B.shape}")
        if W.shape != (n, n):
            raise ValueError(f"W must have shape {(n, n)}, got {W.shape}")
        if ubar.shape != (B.shape[1],):
            raise ValueError(f"ubar must have length {B.shape[1]}, got {ubar.shape[0]}")
        W = _symmetrized(W, "W")
        if np.linalg.eigvalsh(W).min() < -SYMMETRY_TOL:
            raise ValueError("W must be positive semidefinite")
        if np.max(np.abs(np.linalg.eigvals(A))) >= 1.0:
            raise ValueError("A must be Schur stable (spectral radius < 1)")
        for field_name, arr in (("A", A), ("B", B), ("W", W), ("ubar", ubar)):
            arr.setflags(write=False)
            object.__setattr__(self, field_name, arr)

    @property
    def n(self) -> int:
        """State dimension."""
        return self.A.shape[0]

    @property
    def m(self) -> int:
        """Input dimension."""
        return self.B.shape[1]


@dataclass(frozen=True)
class FeedbackGain:
    """Error-feedback gain K applied as u = v + K e."""

    K: np.ndarray

    def __post_init__(self):
        K = _as_float_array(self.K, "K", 2)
        K.setflags(write=False)
        object.__setattr__(self, "K", K)


def _check_gain(sys: SystemSpec, gain: FeedbackGain) -> None:
    if gain.K.shape != (sys.m, sys.n):
        raise ValueError(
            f"gain must have shape {(sys.m, sys.n)}, got {gain.K.shape}"
        )


def saturate(u, ubar) -> np.ndarray:
    """Componentwise symmetric saturation sign(u_i) * min(|u_i|, ubar_i).

    Args:
        u: length-m input vector, or a (..., m) stack of them.
        ubar: length-m vector of positive saturation magnitudes.

    Returns:
        The clipped input, same shape as u.
    """
    u = np.asarray(u, dtype=float)
    ubar = _saturation_bounds(ubar)
    if u.ndim == 0 or u.shape[-1] != ubar.shape[0]:
        raise ValueError(f"u must end in a dimension of {ubar.shape[0]}, got shape {u.shape}")
    if not np.isfinite(u).all():
        raise ValueError("u must be finite")
    return np.minimum(np.maximum(u, -ubar), ubar)


def vertex_matrices(sys: SystemSpec, gain: FeedbackGain, low=None) -> np.ndarray:
    """Enumerate the vertices of the box of saturation factors low <= theta <= 1.

    The hull is the set of A + sum_i theta_i B_i K_i with low_i <= theta_i
    <= 1; low defaults to zeros.  Rows with low_i > 0 enter the base vertex
    as one product, A + B[:, F] (low_F K_F), and the base is A itself when
    no row does.  Each free row, one with low_i < 1, then doubles the stack
    in ascending row order, adding (1 - low_i) B_i K_i to every vertex built
    so far.  So the read-only (2^f, n, n) stack, f the number of free rows,
    is ordered by bitmask, bit j standing for the j-th free row at
    theta = 1: low = 0 gives vertex 0 = A and vertex 2^m - 1 = A + B K
    summed term by term, and low = 1 gives the single vertex A + B @ K.

    Raises:
        ValueError: on dimension mismatch, a low outside [0, 1]^m, or more
            than MAX_INPUT_DIM free rows.
    """
    _check_gain(sys, gain)
    low = _as_float_array(np.zeros(sys.m) if low is None else low, "low", 1)
    if low.shape != (sys.m,) or not ((low >= 0.0) & (low <= 1.0)).all():
        raise ValueError(f"low must be a length-{sys.m} vector in [0, 1], got {low}")
    free, fixed = np.flatnonzero(low < 1.0), low > 0.0
    if len(free) > MAX_INPUT_DIM:
        raise ValueError(f"refusing to enumerate 2^{len(free)} vertices (limit {MAX_INPUT_DIM} free rows)")
    stack = np.empty((2 ** len(free), sys.n, sys.n))
    stack[0] = sys.A + sys.B[:, fixed] @ (low[fixed, None] * gain.K[fixed]) if fixed.any() else sys.A
    for j, h in enumerate(free):
        stack[2**j : 2 ** (j + 1)] = stack[: 2**j] + np.outer(sys.B[:, h], (1.0 - low[h]) * gain.K[h])
    stack.setflags(write=False)
    return stack
