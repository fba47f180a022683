"""Common quadratic contraction certificates over the saturation hull.

A shape matrix P certifies contraction rate lam when every hull vertex
satisfies A_J' P A_J <= lam P.  This module evaluates the smallest such
rate for a given P, searches for a (P, lam) pair by bisection over lam,
and independently re-verifies any certificate after the fact.  The inner
feasibility search is a projection iteration built on dense linear
algebra only; correctness rests on the post-hoc verification, not on the
solver itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import CertificateError, SynthesisError
from .model import FeedbackGain, SystemSpec, _check_gain, vertex_matrices

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_BISECT_TOL = 1e-4
DEFAULT_MAX_ITER = 50_000

# Projection iteration knobs: over-relaxation of the semidefinite lift,
# stall window before declaring the subproblem infeasible, and a growth
# cap on trace(P) that catches divergent (infeasible) runs early.
_OVERSHOOT = 1.5
_STALL_WINDOW = 400
_STALL_IMPROVEMENT = 1e-3
_GROWTH_CAP = 1e12


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


def _symmetric_shape(P) -> np.ndarray:
    """Square, symmetric to relative tolerance 1e-9, and symmetrized."""
    P = np.asarray(P, dtype=float)
    if P.ndim != 2 or P.shape[0] != P.shape[1]:
        raise ValueError(f"P must be square, got shape {P.shape}")
    if np.max(np.abs(P - P.T)) > 1e-9 * max(1.0, np.max(np.abs(P))):
        raise CertificateError("shape matrix must be symmetric")
    return 0.5 * (P + P.T)


def _shape_and_factor(P) -> tuple[np.ndarray, np.ndarray]:
    """Validated matrix and its lower Cholesky factor.

    A nominally positive definite matrix that fails to factor is perturbed
    by 1e-12 * I exactly once and the perturbed matrix is kept; a second
    failure is surfaced as a CertificateError rather than masked.
    """
    P = _symmetric_shape(P)
    try:
        return P, scipy.linalg.cholesky(P, lower=True)
    except scipy.linalg.LinAlgError:
        jittered = P + 1e-12 * np.eye(P.shape[0])
        try:
            return jittered, scipy.linalg.cholesky(jittered, lower=True)
        except scipy.linalg.LinAlgError as exc:
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
    inv_lt = scipy.linalg.solve_triangular(L, np.eye(P.shape[0]), lower=True).T
    G = L.T @ vertices @ inv_lt
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


def _stein_correction(vertex: np.ndarray, rate: float, deficit: np.ndarray) -> np.ndarray:
    # Unique solution of rate * dP - vertex' dP vertex = deficit, which
    # exists because rate exceeds the squared spectral radius of the vertex.
    a = vertex.T / math.sqrt(rate)
    dP = scipy.linalg.solve_discrete_lyapunov(a, deficit / rate)
    return 0.5 * (dP + dP.T)


def _feasible_shape(
    vertices: np.ndarray,
    rate: float,
    feas_tol: float,
    max_iter: int,
    init: np.ndarray | None = None,
) -> np.ndarray | None:
    """Search for P >= I with every vertex inequality holding at `rate`.

    Violated vertex inequalities are repaired by lifting the negative
    eigenvalues of rate * P - A_J' P A_J and mapping the lift back to a
    positive semidefinite increment of P, so the iterate grows monotonically
    from the identity.  `rate` must exceed every vertex's squared spectral
    radius.  Returns None when the residual stalls, the iterate diverges, or
    the iteration budget runs out.
    """
    n = vertices.shape[1]
    P = np.eye(n) if init is None else init.copy()
    best = np.inf
    stalled = 0
    for _ in range(max_iter):
        worst = 0.0
        for M in vertices:
            slack = rate * P - M.T @ P @ M
            slack = 0.5 * (slack + slack.T)
            eigvals, eigvecs = np.linalg.eigh(slack)
            scale = np.trace(P) / n
            violation = -eigvals[0] / scale
            if violation <= feas_tol:
                continue
            worst = max(worst, violation)
            lift = np.where(eigvals < 0.0, -_OVERSHOOT * eigvals, 0.0)
            deficit = (eigvecs * lift) @ eigvecs.T
            P = P + _stein_correction(M, rate, deficit)
            P = 0.5 * (P + P.T)
        if worst == 0.0:
            return P
        if np.trace(P) > _GROWTH_CAP * n:
            return None
        if worst >= best * (1.0 - _STALL_IMPROVEMENT):
            stalled += 1
            if stalled >= _STALL_WINDOW:
                return None
        else:
            stalled = 0
        best = min(best, worst)
    return None


def synthesize_contraction(
    sys: SystemSpec,
    gain: FeedbackGain,
    *,
    feas_tol: float = DEFAULT_FEAS_TOL,
    bisect_tol: float = DEFAULT_BISECT_TOL,
    trace_scale: float | None = None,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[np.ndarray, float]:
    """Bisect the contraction rate and return a certifying (P, rate) pair.

    The bracket starts at the squared spectral radius of the worst vertex
    (no rate below that is certifiable) and ends just under one.  Each
    probe runs the feasibility search; a returned shape is always verified
    feasible, so only the infeasible classification is heuristic and the
    result errs toward a slightly larger rate.

    Args:
        trace_scale: the returned P is rescaled so that
            trace(P) = n * trace_scale (default 1).  The rescaling fixes
            the free scale of the certificate cone and keeps the relative
            solver slack equal to the absolute feas_tol slack downstream
            checks apply.

    Returns:
        (P, rate) with rate within bisect_tol of the smallest rate the
        search can certify.

    Raises:
        SynthesisError: when no certificate is found at rate
            1 - bisect_tol; carries that rate as `last_infeasible`.
    """
    vertices = vertex_matrices(sys, gain)
    floor = float(np.abs(np.linalg.eigvals(vertices)).max()) ** 2
    hi = 1.0 - bisect_tol
    if floor >= hi:
        raise SynthesisError(
            f"vertex spectral radius squared {floor:.6f} leaves no rate below one",
            last_infeasible=hi,
        )
    shape = _feasible_shape(vertices, hi, feas_tol, max_iter)
    if shape is None:
        raise SynthesisError(
            f"no common quadratic certificate at rate {hi:.6f}",
            last_infeasible=hi,
        )
    lo = floor
    while hi - lo > bisect_tol:
        mid = 0.5 * (lo + hi)
        candidate = _feasible_shape(vertices, mid, feas_tol, max_iter, init=shape)
        if candidate is not None:
            hi, shape = mid, candidate
        else:
            lo = mid
    scale = 1.0 if trace_scale is None else float(trace_scale)
    if scale <= 0.0:
        raise ValueError("trace_scale must be positive")
    shape = shape * (sys.n * scale / np.trace(shape))
    return 0.5 * (shape + shape.T), hi


def _slack_floors(rate: float, P: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of rate * P - M' P M for each M in the stack."""
    slack = rate * P - vertices.transpose(0, 2, 1) @ P @ vertices
    return np.linalg.eigvalsh(0.5 * (slack + slack.transpose(0, 2, 1)))[:, 0]


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
    residuals = _slack_floors(cert.rate, P, vertex_matrices(sys, gain))
    linear_residual = float(_slack_floors(cert.rate_linear, P, (sys.A + sys.B @ gain.K)[None])[0])
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
