"""Common quadratic contraction certificates over the saturation hull.

A shape matrix P certifies contraction rate lam when every hull vertex
satisfies A_J' P A_J <= lam P.  This module evaluates the smallest such
rate for a given P, searches for a (P, lam) pair by bisection over lam,
and independently re-verifies any certificate after the fact.  Each
bisection probe is phase I of a log-det barrier method over the vertex
inequalities, in dense NumPy linear algebra: it returns a shape only when
the inequalities hold with positive margin, and declares a rate
infeasible only by a duality-gap bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, SynthesisError
from .model import FeedbackGain, SystemSpec, _check_gain, vertex_matrices

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_BISECT_TOL = 1e-4

# Barrier weight growth between centrings; the squared Newton decrement
# that counts as centred (a tighter one costs about one quadratic step).
_WEIGHT_GROWTH = 10.0
_CENTRED = 1e-8


@dataclass(frozen=True)
class ContractionCertificate:
    """A verified-or-verifiable contraction certificate.

    Attributes:
        P: symmetric positive definite shape matrix.
        rate: contraction rate valid over the whole saturation hull.
        rate_linear: contraction rate of the fully linear closed loop,
            strictly smaller than `rate`.
        feas_tol: semidefinite slack used when checking the certificate.
    """

    P: np.ndarray
    rate: float
    rate_linear: float
    feas_tol: float = DEFAULT_FEAS_TOL

    def __post_init__(self):
        P = _symmetric_shape(self.P)
        check_rates(self.rate, self.rate_linear)
        P.setflags(write=False)
        object.__setattr__(self, "P", P)


@dataclass(frozen=True)
class VerificationReport:
    """Residuals from an independent check of a certificate.

    `vertex_residuals[J]` is the smallest eigenvalue of
    rate * P - A_J' P A_J, so nonnegative values (up to feas_tol slack)
    mean the vertex inequality holds.  `linear_residual` is the analogous
    slack of the fully linear loop at rate_linear.
    """

    vertex_residuals: tuple[float, ...]
    linear_residual: float
    rate_gap: float
    shape_min_eig: float
    feas_tol: float
    passed: bool


def check_rate(rate: float) -> None:
    """A contraction rate lies in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must lie in [0, 1), got {rate}")


def check_rates(rate: float, rate_linear: float) -> None:
    """The linear rate lies strictly below the hull-wide rate."""
    check_rate(rate)
    if not 0.0 <= rate_linear < rate:
        raise ValueError(
            "rates must satisfy 0 <= rate_linear < rate < 1, got "
            f"rate_linear={rate_linear}, rate={rate}"
        )


def check_synthesis_tolerances(feas_tol: float, bisect_tol: float, trace_scale: float) -> None:
    """Synthesis needs feas_tol > 0, trace_scale > 0 and 0 < bisect_tol < 1 (or never ends)."""
    if not feas_tol > 0.0:
        raise ValueError(f"feas_tol must be positive, got {feas_tol}")
    if not 0.0 < bisect_tol < 1.0:
        raise ValueError(f"bisect_tol must lie in (0, 1), got {bisect_tol}")
    if not trace_scale > 0.0:
        raise ValueError(f"trace_scale must be positive, got {trace_scale}")


def _symmetric_shape(P) -> np.ndarray:
    """Square, finite, symmetric to relative tolerance 1e-9, and symmetrized."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    # NaN and infinite entries, and sums that overflow, end up non-finite.
    with np.errstate(over="ignore", invalid="ignore"):
        skew, symmetric = np.abs(P - P.T), 0.5 * (P + P.T)
    if not np.all(np.isfinite(symmetric)):
        raise CertificateError("shape matrix must be finite")
    if np.max(skew) > 1e-9 * max(1.0, np.max(np.abs(P))):
        raise CertificateError("shape matrix must be symmetric")
    return symmetric


def _shape_and_factor(P) -> tuple[np.ndarray, np.ndarray]:
    """Validated matrix and its lower Cholesky factor.

    A nominally positive definite matrix that fails to factor is perturbed
    by 1e-12 * I exactly once and the perturbed matrix is kept; a second
    failure is surfaced as a CertificateError rather than masked.
    """
    P = _symmetric_shape(P)
    try:
        return P, np.linalg.cholesky(P)
    except np.linalg.LinAlgError:
        jittered = P + 1e-12 * np.eye(P.shape[0])
        try:
            return jittered, np.linalg.cholesky(jittered)
        except np.linalg.LinAlgError as exc:
            raise CertificateError("shape matrix is not positive definite") from exc


def _vertex_rates(P, vertices) -> np.ndarray:
    """Largest generalized eigenvalue of (M' P M, P) for each M in the stack.

    With P = L L', that eigenvalue is the top eigenvalue of G' G for
    G = L' M inv(L)'.
    """
    P, L = _shape_and_factor(P)
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 3 or vertices.shape[1:] != P.shape:
        raise ValueError("vertex dimension does not match P")
    G = L.T @ vertices @ np.linalg.inv(L).T
    whitened = G.transpose(0, 2, 1) @ G
    return np.linalg.eigvalsh(0.5 * (whitened + whitened.transpose(0, 2, 1)))[:, -1]


def min_contraction_rate(P, vertices) -> float:
    """Smallest rate certified by a fixed shape matrix over a vertex stack.

    For each vertex this is the largest generalized eigenvalue of
    (A_J' P A_J, P); the result is tight on at least one vertex.

    Raises:
        CertificateError: if P is not symmetric positive definite.
    """
    return float(_vertex_rates(P, vertices).max())


def closed_loop_rate(P, sys: SystemSpec, gain: FeedbackGain) -> float:
    """Contraction rate of the fully linear loop A + B K under P."""
    _check_gain(sys, gain)
    return float(_vertex_rates(P, (sys.A + sys.B @ gain.K)[None])[0])


def _slacks(vertices: np.ndarray, rate: float, P: np.ndarray, t: float = 0.0) -> np.ndarray:
    """rate * P - M' P M for each M in the stack, symmetrized, then P and I - P; each minus t I."""
    stein = rate * P - vertices.transpose(0, 2, 1) @ P @ vertices
    eye = np.eye(P.shape[0])
    return np.concatenate([0.5 * (stein + stein.transpose(0, 2, 1)), [P, eye - P]]) - t * eye


def _barrier(vertices, rate, P, t, weight) -> float:
    """-weight * t - sum_b log det S_b, or inf where a block is not positive definite."""
    try:
        L = np.linalg.cholesky(_slacks(vertices, rate, P, t))
    except np.linalg.LinAlgError:
        return math.inf
    return -weight * t - 2.0 * float(np.log(np.diagonal(L, axis1=1, axis2=2)).sum())


# The Newton step keeps the name of the Stein-lift correction it replaced,
# because the benchmark counts its calls as `certify.stein_solves`.
def _stein_correction(vertices: np.ndarray, rate: float, P: np.ndarray, t: float):
    """Gradient g of -sum_b log det S_b over (P, t), H^-1 g and H^-1 e_t.

    P's coordinates are its upper triangle in the basis E_i = e_k e_l' +
    e_l e_k', then t.  Block b maps E_i to its Stein image X_bi (rate E_i -
    A_J' E_i A_J, E_i or -E_i) and t to -I, so H_ij = sum_b tr(S_b^-1 X_bi
    S_b^-1 X_bj): sums of products G[k, r] G[l, s] of n x n matrices G made
    from S_b^-1 and A_J, which one n^2 x n^2 Gram matrix adds up.
    """
    V, n = vertices.shape[:2]
    rows, cols = np.triu_indices(n)
    inverses = np.linalg.inv(_slacks(vertices, rate, P, t))
    pushed = inverses[:V] @ vertices.transpose(0, 2, 1)
    # The adjoint block maps applied to S_b^-1 and to S_b^-2, summed over b.
    Y = np.stack([inverses, inverses @ inverses])
    adjoint = rate * Y[:, :V].sum(1) - (vertices @ Y[:, :V] @ vertices.transpose(0, 2, 1)).sum(1)
    grad, h = -2.0 * (adjoint + Y[:, V] - Y[:, V + 1])[:, rows, cols]
    grams = np.concatenate([inverses[:V], pushed, vertices @ pushed, inverses[V:]])
    flat = grams.reshape(len(grams), n * n)
    coef = np.concatenate([np.full(V, rate * rate), np.full(V, -2.0 * rate), np.ones(V + 2)])
    T = ((flat * coef[:, None]).T @ flat).reshape(n, n, n, n)
    K = T[rows[:, None], rows, cols[:, None], cols] + T[rows[:, None], cols, cols[:, None], rows]
    H = np.block([[K + K.T, h[:, None]], [h[None], np.sum(inverses * inverses)]])
    g = np.append(grad, np.trace(inverses, axis1=1, axis2=2).sum())
    return g, *np.linalg.solve(H, np.column_stack([g, np.eye(len(g))[-1]])).T


def _feasible_shape(vertices, rate: float, feas_tol: float, init=None) -> np.ndarray | None:
    """Phase I of a log-det barrier method (Boyd, El Ghaoui, Feron &
    Balakrishnan, LMIs in System and Control Theory, 1994, section 5.3).

    Maximises t subject to rate * P - A_J' P A_J >= t I for every vertex J,
    P >= t I and I - P >= t I from P = init or I / 2; returns P once the
    start or a centred point has t > 0.  Centred at weight w, t + N / w
    bounds the optimal t, N = n (2^m + 2); None means that this bound is
    negative or the gap N / w is below feas_tol.
    """
    n = vertices.shape[1]
    P = 0.5 * np.eye(n) if init is None else init.copy()
    sigma = float(np.linalg.eigvalsh(_slacks(vertices, rate, P))[:, 0].min())
    if sigma > 0.0:
        return P
    t = 2.0 * sigma - feas_tol
    g, Hg, He = _stein_correction(vertices, rate, P, t)
    # The weight whose centring step at the start is shortest (Boyd &
    # Vandenberghe, Convex Optimization, 2004, section 11.3.1).
    weight = max(Hg[-1] / He[-1], 1.0)
    while True:
        value = _barrier(vertices, rate, P, t, weight)
        step = weight * He - Hg
        decrement = weight * step[-1] - g @ step
        dP = np.zeros((n, n))
        dP[np.triu_indices(n)] = step[:-1]
        dP, dt = dP + dP.T, step[-1]
        size, trial = 1.0, math.inf
        while decrement > _CENTRED:
            trial = _barrier(vertices, rate, P + size * dP, t + size * dt, weight)
            if trial <= value - 0.25 * size * decrement:
                break
            size *= 0.5
        if trial < value:
            P, t = P + size * dP, t + size * dt
            g, Hg, He = _stein_correction(vertices, rate, P, t)
            continue
        # Centred, or as close as rounding lets the line search get.
        if t > 0.0:
            return P
        gap = n * (len(vertices) + 2) / weight
        if t + gap < 0.0 or gap < feas_tol:
            return None
        weight *= _WEIGHT_GROWTH


def synthesize_contraction(
    sys: SystemSpec,
    gain: FeedbackGain,
    *,
    feas_tol: float = DEFAULT_FEAS_TOL,
    bisect_tol: float = DEFAULT_BISECT_TOL,
    trace_scale: float = 1.0,
) -> tuple[np.ndarray, float]:
    """Bisect the contraction rate and return a certifying (P, rate) pair.

    The bracket runs from the worst vertex's squared spectral radius (no
    smaller rate is certifiable) to just under one.  Each probe is the
    barrier's phase I, warm-started from the last shape found.

    Args:
        trace_scale: the returned P is rescaled so that
            trace(P) = n * trace_scale.  The rescaling fixes the free scale
            of the certificate cone and keeps the relative solver slack
            equal to the absolute feas_tol slack downstream checks apply.

    Returns:
        (P, rate) with rate = min_contraction_rate(P), within bisect_tol
        (up to feas_tol slack) of the smallest certifiable rate.

    Raises:
        ValueError: unless the tolerances pass check_synthesis_tolerances.
        SynthesisError: when no certificate is found at rate
            1 - bisect_tol; carries that rate as `last_infeasible`.
    """
    check_synthesis_tolerances(feas_tol, bisect_tol, trace_scale)
    vertices = vertex_matrices(sys, gain)
    floor = float(np.abs(np.linalg.eigvals(vertices)).max()) ** 2
    hi = 1.0 - bisect_tol
    if floor >= hi:
        raise SynthesisError(
            f"vertex spectral radius squared {floor:.6f} leaves no rate below one",
            last_infeasible=hi,
        )
    shape = _feasible_shape(vertices, hi, feas_tol)
    if shape is None:
        raise SynthesisError(
            f"no common quadratic certificate at rate {hi:.6f}", last_infeasible=hi
        )
    lo = floor
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        candidate = _feasible_shape(vertices, mid, feas_tol, init=shape)
        if candidate is not None:
            hi, shape = mid, candidate
        else:
            lo = mid
    # Every iterate is symmetric, so the rescaled shape is exactly symmetric.
    shape = shape * (sys.n * trace_scale / np.trace(shape))
    return shape, min_contraction_rate(shape, vertices)


def verify_certificate(
    cert: ContractionCertificate, sys: SystemSpec, gain: FeedbackGain
) -> VerificationReport:
    """Independently re-check a certificate against the hull vertices.

    Always returns a report; `passed` is True when every vertex inequality
    holds at `cert.rate` within feas_tol slack, the linear loop holds at
    `cert.rate_linear`, the rates are strictly ordered, and P is positive
    definite beyond feas_tol.
    """
    P = cert.P
    residuals = np.linalg.eigvalsh(_slacks(vertex_matrices(sys, gain), cert.rate, P)[:-2])[:, 0]
    linear = _slacks((sys.A + sys.B @ gain.K)[None], cert.rate_linear, P)[0]
    linear_residual = float(np.linalg.eigvalsh(linear)[0])
    shape_min_eig = float(np.linalg.eigvalsh(P)[0])
    rate_gap = cert.rate - cert.rate_linear
    passed = (
        bool(np.all(residuals >= -cert.feas_tol))
        and linear_residual >= -cert.feas_tol
        and rate_gap > 0.0
        and shape_min_eig >= cert.feas_tol
    )
    return VerificationReport(
        vertex_residuals=tuple(residuals.tolist()),
        linear_residual=linear_residual,
        rate_gap=rate_gap,
        shape_min_eig=shape_min_eig,
        feas_tol=cert.feas_tol,
        passed=passed,
    )
