"""Common quadratic contraction certificates over the saturation hull.

A shape matrix P certifies contraction rate lam when every hull vertex
satisfies A_J' P A_J <= lam P.  This module evaluates the smallest such
rate for a given P, searches for a (P, lam) pair, and independently
re-verifies any certificate after the fact.  The search probes lam just
above the spectral floor no shape can beat, and bisects over lam only when
that probe fails.  Each probe is phase I of a log-det barrier method over
the inequalities of an active set of vertices, in dense NumPy linear
algebra, with N = n (|active| + 2) barrier rows.  Its Newton systems come
from one stack of the slack blocks' derivatives.  It returns a shape only
when the inequalities of all 2^m vertices hold with positive margin,
adding the worst failing vertex to the active set, one per check, until
they do, and declares a rate infeasible only by a duality-gap bound,
which holds for all vertices because it holds for a subset.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CertificateError, SynthesisError
from .model import FeedbackGain, SystemSpec, _symmetrized, vertex_matrices

DEFAULT_FEAS_TOL = 1e-7
DEFAULT_BISECT_TOL = 1e-4

# Barrier weight growth; the squared Newton decrement at which it grows,
# and the one that counts as centred before a probe refutes a rate (a
# tighter one costs about one quadratic step).
_WEIGHT_GROWTH = 10.0
_LONG_STEP = 0.25
_CENTRED = 1e-8


@dataclass(frozen=True)
class ContractionCertificate:
    """A contraction certificate, judged by verify_certificate alone.

    Attributes:
        P: symmetric shape matrix.
        rate: claimed contraction rate over the whole saturation hull.
        rate_linear: claimed contraction rate of the fully linear closed
            loop; verify_certificate requires it strictly below `rate`.
        feas_tol: semidefinite slack used when checking the certificate.
    """

    P: np.ndarray
    rate: float
    rate_linear: float
    feas_tol: float = DEFAULT_FEAS_TOL

    def __post_init__(self):
        P = _symmetric_shape(self.P)
        check_rate(self.rate)
        check_rate(self.rate_linear)
        P.setflags(write=False)
        object.__setattr__(self, "P", P)


@dataclass(frozen=True)
class VerificationReport:
    """Residuals from an independent check of a certificate, in constant size.

    Vertex J's residual is the smallest eigenvalue of
    rate * P - A_J' P A_J, so a nonnegative one (up to feas_tol slack)
    means its inequality holds.  The report keeps the smallest,
    `worst_residual`, at the vertex whose bitmask is `worst_vertex` (the
    lowest on a tie), and `tight_vertices`, the count of residuals within
    feas_tol of zero.  `linear_residual` is the analogous slack of the fully
    linear loop at rate_linear, and `rate_gap` is rate - rate_linear.
    """

    worst_vertex: int
    worst_residual: float
    tight_vertices: int
    linear_residual: float
    rate_gap: float
    shape_min_eig: float
    feas_tol: float
    passed: bool


def check_rate(rate: float) -> None:
    """A contraction rate lies in [0, 1)."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"rate must lie in [0, 1), got {rate}")


def check_synthesis_tolerances(feas_tol: float, bisect_tol: float) -> None:
    """Synthesis needs a finite feas_tol > 0 and 0 < bisect_tol < 1 (or never ends)."""
    if not 0.0 < feas_tol < math.inf:
        raise ValueError(f"feas_tol must be positive and finite, got {feas_tol}")
    if not 0.0 < bisect_tol < 1.0:
        raise ValueError(f"bisect_tol must lie in (0, 1), got {bisect_tol}")


def _symmetric_shape(P) -> np.ndarray:
    """model._symmetrized(P, ...), its failures raised as CertificateError."""
    try:
        return _symmetrized(P, "shape matrix")
    except ValueError as exc:
        raise CertificateError(str(exc)) from None


def _shape_and_factor(P) -> tuple[np.ndarray, np.ndarray]:
    """Validated matrix and its lower Cholesky factor.

    A matrix that fails to factor is a CertificateError; it is never
    perturbed into one that does.
    """
    P = _symmetric_shape(P)
    try:
        return P, np.linalg.cholesky(P)
    except np.linalg.LinAlgError as exc:
        raise CertificateError("shape matrix is not positive definite") from exc


def _stack_for(P, vertices) -> np.ndarray:
    """The vertices as a float stack, or ValueError unless it is (V, n, n) for P's n."""
    vertices = np.asarray(vertices, dtype=float)
    if vertices.ndim != 3 or vertices.shape[1:] != P.shape:
        raise ValueError("vertex dimension does not match P")
    return vertices


def min_contraction_rate(P, vertices) -> float:
    """Smallest rate certified by a fixed shape matrix over a vertex stack.

    For each vertex this is the largest generalized eigenvalue of
    (A_J' P A_J, P); the result is tight on at least one vertex.  With
    P = L L', that eigenvalue is the top eigenvalue of G' G for
    G = L' A_J inv(L)'.

    Raises:
        CertificateError: if P is not symmetric positive definite.
    """
    P, L = _shape_and_factor(P)
    G = L.T @ _stack_for(P, vertices) @ np.linalg.inv(L).T
    whitened = G.transpose(0, 2, 1) @ G
    return float(np.linalg.eigvalsh(0.5 * (whitened + whitened.transpose(0, 2, 1)))[:, -1].max())


def closed_loop_rate(P, sys: SystemSpec, gain: FeedbackGain) -> float:
    """Contraction rate of the fully linear loop A + B K under P: the hull
    whose saturation factors are all 1, a single vertex."""
    return min_contraction_rate(P, vertex_matrices(sys, gain, np.ones(sys.m)))


def _slacks(vertices: np.ndarray, rate: float, P: np.ndarray, t: float = 0.0) -> np.ndarray:
    """rate * P - M' P M for each M in the stack, symmetrized, then P and I - P; each minus t I."""
    stein = rate * P - vertices.transpose(0, 2, 1) @ P @ vertices
    eye = np.eye(P.shape[0])
    return np.concatenate([0.5 * (stein + stein.transpose(0, 2, 1)), [P, eye - P]]) - t * eye


def _log_det(S) -> float:
    """sum_b log det S_b, or -inf where a block is not positive definite."""
    try:
        L = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return -math.inf
    return 2.0 * float(np.log(np.diagonal(L, axis1=1, axis2=2)).sum())


class _Probe:
    """What the Newton steps of one probe share: its vertex stack, P's
    coordinates and the derivative stack X of the slack blocks.

    The blocks b are the vertices, then P, then I - P.  The coordinates i
    are P's upper triangle, at the index pairs np.triu_indices(n), in the
    basis E_i = e_k e_l' + e_l e_k', then t.  X[i, b] = dS_b / dx_i is
    rate E_i - A_J' E_i A_J for vertex J, E_i for P and -E_i for I - P, and
    -I for t; the slacks are affine in (P, t), so X is fixed.
    """

    def __init__(self, vertices: np.ndarray, rate: float):
        V, n = vertices.shape[:2]
        self.vertices = vertices
        self.upper = rows, cols = np.triu_indices(n)
        d = len(rows)
        basis = np.zeros((d, n, n))
        basis[np.arange(d), rows, cols] = 1.0
        basis += basis.transpose(0, 2, 1)
        # A_J' E_i A_J = a_k a_l' + a_l a_k', a_k the k-th row of A_J.
        row = vertices.transpose(1, 0, 2)
        outer = row[rows, :, :, None] * row[cols, :, None, :]
        self.stack = X = np.empty((d + 1, V + 2, n, n))
        X[:d, :V] = rate * basis[:, None] - outer - outer.transpose(0, 1, 3, 2)
        X[:d, V], X[:d, V + 1], X[d] = basis, -basis, -np.eye(n)

    def direction(self, step: np.ndarray) -> np.ndarray:
        """D = sum_i step_i X[i], so _slacks(P + s dP, t + s dt) =
        _slacks(P, t) + s D for the step's (dP, dt)."""
        d = len(step)
        return (step @ self.stack.reshape(d, -1)).reshape(self.stack.shape[1:])


# The Newton step keeps the name of the Stein-lift correction it replaced,
# because the benchmark counts its calls as `certify.stein_solves`.
def _stein_correction(S: np.ndarray, probe: _Probe):
    """Gradient g of -sum_b log det S_b over the probe's coordinates,
    H^-1 g and H^-1 e_t, H its Hessian.

    S is the slack stack _slacks(vertices, rate, P, t) of the probe's
    vertices and rate.  With Z_ib = S_b^-1 X[i, b], g_i = -sum_b tr Z_ib
    and H_ij = sum_b tr(Z_ib Z_jb).
    """
    Z = np.linalg.inv(S) @ probe.stack
    d = len(Z)
    g = -np.trace(Z, axis1=2, axis2=3).sum(1)
    # tr(Z_ib Z_jb) pairs Z_ib[k, l] with Z_jb[l, k]: one product over (b, k, l).
    H = Z.reshape(d, -1) @ Z.transpose(0, 1, 3, 2).reshape(d, -1).T
    rhs = np.zeros((d, 2))
    rhs[:, 0], rhs[-1, 1] = g, 1.0
    return g, *np.linalg.solve(H, rhs).T


def _feasible_shape(
    vertices, rate: float, feas_tol: float, init=None, last=None, active=None
) -> np.ndarray | None:
    """Phase I of a log-det barrier method (Boyd, El Ghaoui, Feron &
    Balakrishnan, LMIs in System and Control Theory, 1994, section 5.3),
    run on the vertices in `active` (a cutting-set loop: Mutapcic & Boyd,
    Optim. Methods Softw. 24(3), 2009).

    Maximises t subject to rate * P - A_J' P A_J >= t I for every vertex J
    in `active`, P >= t I and I - P >= t I from P = init or I / 2.  One
    check-and-join block is the only place that checks P on all 2^m
    vertices, from P itself.  It runs at the start, with t = +inf, and then
    after each accepted Newton iterate with t > 0 and each verdict (below):

    - it returns P when t > 0 and every block is positive definite;
    - the vertex with the lowest slack at P joins `active` when it is not
      active and that slack is at most min(t, 0);
    - at the start, or after a join, t becomes twice the lowest slack over
      the active vertices, P and I - P, less feas_tol, and the Newton
      system is rebuilt at P and the same weight (after a join that is
      twice the joining vertex's slack, since every other active block's
      slack exceeds t);
    - otherwise, when no step was accepted, it appends P to `last` when a
      list is given and returns None.

    synthesize_contraction passes one list through all of its probes, and
    a full list makes this the all-vertex probe.  Each Newton system costs
    O(|active| n^2 d^2) for d = n (n + 1) / 2 + 1 coordinates, so one vertex
    joins per check.

    Centred at weight w, t + N / w bounds the optimal t over `active`,
    N = n (|active| + 2), and so over all vertices too: the verdict is that
    this bound is negative or the gap N / w is below feas_tol, so None
    refutes the rate.  A verdict at t <= 0 returns None only once every
    vertex's slack exceeds t, so the last iterate lies in every vertex's
    barrier domain.  The weight grows tenfold once the squared Newton
    decrement is at most _LONG_STEP, or _CENTRED when the verdict could
    fire (long-step barrier: Boyd & Vandenberghe, Convex Optimization,
    2004, section 11.3).  Each line search starts at twice the last
    accepted step, at most 1.

    synthesize_contraction calls it cold at floor + bisect_tol.  Only if
    that fails, it calls it cold at 1 - bisect_tol when the failed probe's
    last iterate gives no upper end, and warm-started (`init`, the last
    shape found) at each bisection midpoint.
    """
    n = vertices.shape[1]
    P = 0.5 * np.eye(n) if init is None else init.copy()
    active = [] if active is None else active
    # size is the last accepted step: each line search starts at twice it,
    # at most 1.
    t, weight, size = math.inf, None, 0.5
    while True:
        # The check-and-join block; P is checked itself, since S moved along
        # D.  The start is its first pass, at t = +inf.
        smallest = np.linalg.eigvalsh(_slacks(vertices, rate, P))[:, 0]
        if t > 0.0 and smallest.min() > 0.0:
            return P
        worst = int(np.argmin(smallest[:-2]))
        joins = worst not in active and smallest[worst] <= min(t, 0.0)
        if joins:
            active.append(worst)
        if joins or weight is None:
            t = 2.0 * smallest[active + [-2, -1]].min() - feas_tol
            probe = _Probe(vertices[active], rate)
            S = _slacks(probe.vertices, rate, P, t)
            # The log det term of the barrier value: an accepted step carries
            # its trial's forward, so nothing is refactored when the weight grows.
            log_det = _log_det(S)
        elif not accepted:
            if last is not None:
                last.append(P)
            return None
        g, Hg, He = _stein_correction(S, probe)
        if weight is None:
            # The weight whose centring step at the start is shortest (Boyd &
            # Vandenberghe, Convex Optimization, 2004, section 11.3.1).
            weight = max(Hg[-1] / He[-1], 1.0)
        value = -weight * t - log_det
        while True:
            step = weight * He - Hg
            decrement = weight * step[-1] - g @ step
            gap = n * (len(active) + 2) / weight
            verdict = t + gap < 0.0 or gap < feas_tol
            accepted = False
            if decrement > (_CENTRED if verdict else _LONG_STEP):
                dP = np.zeros((n, n))
                dP[probe.upper] = step[:-1]
                dP, dt = dP + dP.T, step[-1]
                D = probe.direction(step)
                size = min(1.0, 2.0 * size)
                while True:
                    trial_S = S + size * D
                    trial_log_det = _log_det(trial_S)
                    trial = -weight * (t + size * dt) - trial_log_det
                    if trial <= value - 0.25 * size * decrement:
                        break
                    size *= 0.5
                accepted = trial < value
                if accepted:
                    P, t, S = P + size * dP, t + size * dt, trial_S
                    value, log_det = trial, trial_log_det
            if accepted and t <= 0.0:
                g, Hg, He = _stein_correction(S, probe)
            elif not (accepted or verdict):
                weight *= _WEIGHT_GROWTH
                value = -weight * t - log_det
            else:
                # An accepted iterate with t > 0, or a verdict: the check
                # above decides whether it stands.
                break


def _shippable_rate(P, vertices, feas_tol: float) -> float:
    """min_contraction_rate of P, or inf unless P, rescaled to trace n as
    synthesis ships it, keeps the margin feas_tol that verify_certificate
    asks of its smallest eigenvalue."""
    smallest = float(np.linalg.eigvalsh(P)[0])
    if not smallest > 0.0 or smallest * len(P) < feas_tol * np.trace(P):
        return math.inf
    return min_contraction_rate(P, vertices)


def synthesize_contraction(
    sys: SystemSpec,
    gain: FeedbackGain,
    *,
    feas_tol: float = DEFAULT_FEAS_TOL,
    bisect_tol: float = DEFAULT_BISECT_TOL,
) -> tuple[np.ndarray, float]:
    """Probe the rate just above its floor, bisect if that fails, and
    return a certifying (P, rate) pair.

    No shape certifies a rate below the worst vertex's squared spectral
    radius, the floor.  The first probe is at floor + bisect_tol (at most
    1 - bisect_tol): when it finds a shape, the bracket is already within
    bisect_tol and no bisection runs.  When it fails, its last iterate
    becomes the upper end if it is a shape synthesis could ship and its
    exact rate lies below 1 - bisect_tol; otherwise 1 - bisect_tol is
    probed cold.  The rate is then bisected between the failed probe and
    that upper end, each probe warm-started from the last shape found.
    Each probe is the barrier's phase I, and one active vertex set is
    carried through all of them.  The returned P is rescaled to
    trace(P) = n, which fixes the free scale of the certificate cone and
    keeps the relative solver slack equal to the absolute feas_tol slack
    downstream checks apply.

    Returns:
        (P, rate) with rate = min_contraction_rate(P), within bisect_tol
        (up to feas_tol slack) of the smallest certifiable rate.

    Raises:
        ValueError: unless the tolerances pass check_synthesis_tolerances.
        SynthesisError: when no certificate is found at rate 1 - bisect_tol.
    """
    check_synthesis_tolerances(feas_tol, bisect_tol)
    vertices = vertex_matrices(sys, gain)
    floor = float(np.abs(np.linalg.eigvals(vertices)).max()) ** 2
    hi = 1.0 - bisect_tol
    if floor >= hi:
        raise SynthesisError(f"vertex spectral radius squared {floor:.6f} leaves no rate below one")
    lo = min(floor + bisect_tol, hi)
    kept, active = [], []
    shape = _feasible_shape(vertices, lo, feas_tol, last=kept, active=active)
    if shape is None:
        if lo < hi:
            bound = _shippable_rate(kept[0], vertices, feas_tol)
            if bound < hi:
                hi, shape = bound, kept[0]
            else:
                shape = _feasible_shape(vertices, hi, feas_tol, active=active)
        if shape is None:
            raise SynthesisError(f"no common quadratic certificate at rate {hi:.6f}")
        while hi - lo > bisect_tol:
            mid = 0.5 * (lo + hi)
            candidate = _feasible_shape(vertices, mid, feas_tol, init=shape, active=active)
            if candidate is not None:
                hi, shape = mid, candidate
            else:
                lo = mid
    # Every iterate is symmetric, so the rescaled shape is exactly symmetric.
    shape = shape * (sys.n / np.trace(shape))
    return shape, min_contraction_rate(shape, vertices)


def verify_certificate(
    cert: ContractionCertificate, sys: SystemSpec, gain: FeedbackGain
) -> VerificationReport:
    """Independently re-check a certificate against the hull vertices.

    The only judge of a certificate.  Always returns a report; `passed` is
    True when every vertex inequality holds at `cert.rate` within feas_tol
    slack, the linear loop holds at `cert.rate_linear`, the rates are
    strictly ordered, and P is positive definite beyond feas_tol.
    """
    P, tol = cert.P, cert.feas_tol
    # The blocks are the vertices, then P, then I - P.
    smallest = np.linalg.eigvalsh(_slacks(_stack_for(P, vertex_matrices(sys, gain)), cert.rate, P))[:, 0]
    residuals, shape_min_eig = smallest[:-2], float(smallest[-2])
    worst = int(np.argmin(residuals))
    linear = _slacks(vertex_matrices(sys, gain, np.ones(sys.m)), cert.rate_linear, P)[0]
    linear_residual = float(np.linalg.eigvalsh(linear)[0])
    rate_gap = float(cert.rate - cert.rate_linear)
    passed = (
        bool(residuals[worst] >= -tol)
        and linear_residual >= -tol
        and rate_gap > 0.0
        and shape_min_eig >= tol
    )
    return VerificationReport(
        worst_vertex=worst,
        worst_residual=float(residuals[worst]),
        tight_vertices=int(np.count_nonzero(np.abs(residuals) <= tol)),
        linear_residual=linear_residual,
        rate_gap=rate_gap,
        shape_min_eig=shape_min_eig,
        feas_tol=tol,
        passed=passed,
    )
