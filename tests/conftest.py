"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the code paths used by the library:
rates are cross-checked against generalized eigensolvers and dense
feasibility grids, synthesis against a dense grid of planar shapes, and
the effective rate against a vectorized scan of the balance equation.
"""

import numpy as np
import pytest
from hypothesis import settings

from satreach import FeedbackGain, SystemSpec, vertex_matrices

# Property tests replay the same examples on every run and carry no
# per-example deadline, so tier-1 stays reproducible on machines whose
# speed drifts.
settings.register_profile("satreach", derandomize=True, deadline=None)
settings.load_profile("satreach")


@pytest.fixture
def ref_sys() -> SystemSpec:
    """Planar benchmark plant with one saturating input."""
    return SystemSpec(
        A=[[0.89, 0.10], [0.10, 0.89]],
        B=[[0.0], [1.0]],
        W=np.eye(2),
        ubar=[10.0],
    )


@pytest.fixture
def ref_gain() -> FeedbackGain:
    return FeedbackGain(K=[[-0.282, -0.8415]])


@pytest.fixture
def ref_shape() -> np.ndarray:
    """Fixed certificate shape matrix for the benchmark plant."""
    return np.array([[3.54, 0.67], [0.67, 3.51]])


def random_certifiable_problem(rng, n: int = 2, m: int = 1):
    """Schur-stable plant with a controllable dominant mode and a strongly
    contracting gain, so certificates have a genuine rate gap.

    The m inputs are loosely aligned with the eigenvectors of A, and draws
    repeat until every saturation-hull vertex has squared spectral radius
    below 0.999 (with one input the two vertices always do).
    """
    while True:
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        d = np.empty(n)
        d[0] = rng.uniform(0.8, 0.96)
        d[1:] = rng.uniform(0.2, 0.7, n - 1) * d[0] * rng.choice([-1.0, 1.0], n - 1)
        A = (V * d) @ V.T
        B = V[:, np.arange(m) % n] + 0.3 * rng.normal(size=(n, m))
        K = -rng.uniform(0.7, 1.0) * np.linalg.lstsq(B, A, rcond=None)[0]
        if np.abs(np.linalg.eigvals(A + B @ K)).max() ** 2 < 0.8 * d[0] ** 2:
            sys_r = SystemSpec(A=A, B=B, W=np.eye(n), ubar=np.ones(m))
            gain = FeedbackGain(K=K)
            if np.abs(np.linalg.eigvals(vertex_matrices(sys_r, gain))).max() ** 2 < 0.999:
                return sys_r, gain


def grid_min_rate_oracle(P, vertices, step: float = 1e-5) -> float:
    """Smallest grid rate mu with mu*P - M'PM PSD for every vertex.

    Two-by-two only: positive semidefiniteness reduces to trace >= 0 and
    det >= 0, both affine/quadratic in mu, so the whole grid is checked
    with vectorized arithmetic.
    """
    P = np.asarray(P, dtype=float)
    assert P.shape == (2, 2)
    mus = np.arange(0.0, 1.0 + step, step)
    feasible = np.ones_like(mus, dtype=bool)
    for M in vertices:
        Q = M.T @ P @ M
        trace = mus * (P[0, 0] + P[1, 1]) - (Q[0, 0] + Q[1, 1])
        det = (mus * P[0, 0] - Q[0, 0]) * (mus * P[1, 1] - Q[1, 1]) - (
            mus * P[0, 1] - Q[0, 1]
        ) ** 2
        feasible &= (trace >= 0.0) & (det >= 0.0)
    hits = np.flatnonzero(feasible)
    assert hits.size, "no feasible rate on the grid"
    return float(mus[hits[0]])


def grid_effective_rate_oracle(
    rate: float, rate_linear: float, noise: float, r_lin: float, points: int = 1_000_000
) -> float:
    """First grid point where the two-regime balance turns nonnegative."""
    mus = np.linspace(rate_linear, rate, points)
    balance = (mus - rate_linear) / (rate - rate_linear) * r_lin - noise / (1.0 - mus)
    hits = np.flatnonzero(balance >= 0.0)
    assert hits.size, "balance never crosses zero on the grid"
    return float(mus[hits[0]])


def hull_membership_check(sys, gain, e, v, w, rtol: float = 1e-9) -> None:
    """Assert the saturated step is a box-combination of the vertex maps.

    Writes sat(K e + v) - v as a per-row rescaling theta_i * (K e)_i with
    theta in [0, 1]^m, rebuilds the step from the rescaled vertex blend,
    and compares against the library's own step.
    """
    import satreach as sr

    u = gain.K @ e
    phi = sr.saturate(u + v, sys.ubar) - v
    theta = np.ones(sys.m)
    big = np.abs(u) > 1e-12
    theta[big] = phi[big] / u[big]
    assert np.all(theta >= -1e-12) and np.all(theta <= 1.0 + 1e-12)
    blended = sys.A + (sys.B * theta) @ gain.K
    expected = blended @ e + w
    actual = sr.error_step(e, v, w, sys, gain)
    scale = max(1.0, float(np.max(np.abs(expected))))
    assert np.max(np.abs(actual - expected)) <= rtol * scale


def grid_best_planar_rate(vertices, points: int = 400) -> float:
    """Smallest hull rate over planar shapes P = [[1 + a, b], [b, 1 - a]]
    with (a, b) on a points x points grid of the unit disc.

    Each vertex's rate is the larger root of the 2 x 2 pencil equation
    det(M' P M - mu P) = 0, so the grid is searched in closed form.
    """
    a, b = np.meshgrid(np.linspace(-1.0, 1.0, points), np.linspace(-1.0, 1.0, points))
    inside = a * a + b * b < 1.0
    a, b = a[inside], b[inside]
    P = ((1.0 + a, b), (b, 1.0 - a))
    det_p = 1.0 - a * a - b * b
    worst = np.zeros_like(a)
    for M in vertices:
        # Q = M' P M entry by entry, one value per grid point.
        Q = [
            [sum(M[k, i] * P[k][l] * M[l, j] for k in range(2) for l in range(2)) for j in range(2)]
            for i in range(2)
        ]
        beta = Q[0][0] * P[1][1] + Q[1][1] * P[0][0] - 2.0 * Q[0][1] * P[0][1]
        det_q = Q[0][0] * Q[1][1] - Q[0][1] * Q[1][0]
        root = (beta + np.sqrt(np.maximum(beta * beta - 4.0 * det_p * det_q, 0.0))) / (2.0 * det_p)
        worst = np.maximum(worst, root)
    return float(worst.min())
