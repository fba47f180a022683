"""Saturated stochastic linear model and its polytopic saturation hull.

The plant is x+ = A x + B sat(u) + w with componentwise input saturation
and zero-mean noise of known covariance.  Control is split into a nominal
input v and an error feedback K e, which yields the error recursion

    e+ = A e + B (sat(K e + v) - v) + w

and the nominal recursion z+ = A z + B v.  The saturated error map lies in
the convex hull of the 2^m linear vertex maps obtained by replacing any
subset of the feedback rows with zero, which is the structural fact the
certification layer builds on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

# Noise covariances are symmetrized on ingestion; asymmetry beyond this
# tolerance is rejected rather than silently averaged away.
SYMMETRY_TOL = 1e-9

# Vertex enumeration is exponential in the input dimension; refuse past this.
MAX_INPUT_DIM = 20


def _as_float_array(value, name: str, ndim: int) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


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
        ubar = _as_float_array(self.ubar, "ubar", 1)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got shape {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {B.shape}")
        if W.shape != (n, n):
            raise ValueError(f"W must have shape {(n, n)}, got {W.shape}")
        if ubar.shape != (B.shape[1],):
            raise ValueError(f"ubar must have length {B.shape[1]}, got {ubar.shape[0]}")
        if np.any(ubar <= 0.0):
            raise ValueError("saturation magnitudes must be strictly positive")
        if np.max(np.abs(W - W.T)) > SYMMETRY_TOL:
            raise ValueError("W must be symmetric")
        W = 0.5 * (W + W.T)
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

    @property
    def m(self) -> int:
        return self.K.shape[0]

    @property
    def n(self) -> int:
        return self.K.shape[1]


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
    ubar = _as_float_array(ubar, "ubar", 1)
    if u.ndim == 0 or u.shape[-1] != ubar.shape[0]:
        raise ValueError(f"u must end in a dimension of {ubar.shape[0]}, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("u must be finite")
    if np.any(ubar <= 0.0):
        raise ValueError("saturation magnitudes must be strictly positive")
    return np.clip(u, -ubar, ubar)


def error_step(e, v, w, sys: SystemSpec, gain: FeedbackGain) -> np.ndarray:
    """One step of the error recursion e+ = A e + B (sat(K e + v) - v) + w.

    The nominal input must respect the saturation budget componentwise
    (|v_i| <= ubar_i); otherwise the split into nominal and error dynamics
    is not well posed and a PreconditionError is raised.
    """
    _check_gain(sys, gain)
    e = _as_float_array(e, "e", 1)
    v = _as_float_array(v, "v", 1)
    w = _as_float_array(w, "w", 1)
    if e.shape != (sys.n,) or w.shape != (sys.n,):
        raise ValueError(f"e and w must have length {sys.n}")
    if v.shape != (sys.m,):
        raise ValueError(f"v must have length {sys.m}")
    if np.any(np.abs(v) > sys.ubar):
        raise PreconditionError("nominal input exceeds the saturation budget")
    u = gain.K @ e + v
    return sys.A @ e + sys.B @ (saturate(u, sys.ubar) - v) + w


def nominal_step(z, v, sys: SystemSpec) -> np.ndarray:
    """One step of the saturation-free nominal recursion z+ = A z + B v."""
    z = _as_float_array(z, "z", 1)
    v = _as_float_array(v, "v", 1)
    if z.shape != (sys.n,):
        raise ValueError(f"z must have length {sys.n}")
    if v.shape != (sys.m,):
        raise ValueError(f"v must have length {sys.m}")
    return sys.A @ z + sys.B @ v


def vertex_matrices(sys: SystemSpec, gain: FeedbackGain) -> np.ndarray:
    """Enumerate the saturation-hull vertices A + sum_{i in J} B_i K_i.

    Vertex J keeps the feedback rows indexed by the set bits of J and drops
    the rest, so the read-only (2^m, n, n) stack is ordered by bitmask:
    vertex 0 is A and vertex 2^m - 1 is A + B K.  Bit h doubles the stack,
    adding row h's term to every vertex built from the lower bits, so each
    vertex sums its terms in ascending bit order.

    Raises:
        ValueError: on dimension mismatch or m > MAX_INPUT_DIM.
    """
    _check_gain(sys, gain)
    if sys.m > MAX_INPUT_DIM:
        raise ValueError(
            f"refusing to enumerate 2^{sys.m} vertices (limit m <= {MAX_INPUT_DIM})"
        )
    stack = np.empty((2 ** sys.m, sys.n, sys.n))
    stack[0] = sys.A
    for h in range(sys.m):
        stack[2 ** h : 2 ** (h + 1)] = stack[: 2 ** h] + np.outer(sys.B[:, h], gain.K[h])
    stack.setflags(write=False)
    return stack
