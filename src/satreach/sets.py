"""Ellipsoidal probabilistic reachable sets and ultimate bounds.

A mean bound b_k on the quadratic form q_k = e_k' P e_k turns into a
probabilistic reachable set by a one-sided tail argument: the ellipsoid
{x : x' P x <= b_k / epsilon} contains e_k with probability at least
1 - epsilon.  The sequence of scalings inherits the geometric bound, so a
single shape matrix P serves every step, and the limit scaling is the
probabilistic ultimate bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import check_noise, expectation_bound_sequence
from .certify import _shape_and_factor, check_rate

CONTAINS_TOL = 1e-12


@dataclass(frozen=True)
class Ellipsoid:
    """Sublevel set {x : x' P x <= r} of an SPD quadratic form."""

    P: np.ndarray
    r: float

    def __post_init__(self):
        P = _shape_and_factor(self.P)[0]
        if not 0.0 <= self.r < np.inf:
            raise ValueError(f"scaling must be finite and nonnegative, got {self.r}")
        P.setflags(write=False)
        object.__setattr__(self, "P", P)
        object.__setattr__(self, "r", float(self.r))

    @property
    def n(self) -> int:
        return self.P.shape[0]

    @property
    def threshold(self) -> float:
        """Largest x' P x counted as inside: r plus CONTAINS_TOL slack,
        absolute below r = 1 and relative above."""
        return self.r + CONTAINS_TOL * max(1.0, self.r)


def area(ellipsoid: Ellipsoid) -> float:
    """Planar area pi * r / sqrt(det P); defined for two dimensions only.

    Where pi * r overflows, the area is taken as pi * (r / sqrt(det P)).

    Raises:
        ValueError: unless the ellipsoid is planar and its area is finite.
    """
    if ellipsoid.n != 2:
        raise ValueError("area is defined for two-dimensional ellipsoids only")
    root = np.sqrt(float(np.linalg.det(ellipsoid.P)))
    with np.errstate(over="ignore"):
        size = float(np.pi * ellipsoid.r / root)
        if not size < np.inf:
            size = float(np.pi * (ellipsoid.r / root))
    if not size < np.inf:
        raise ValueError(f"area of the ellipsoid of scaling {ellipsoid.r:.6g} is not finite")
    return size


def boundary_polyline(ellipsoid: Ellipsoid, num_points: int) -> np.ndarray:
    """Boundary samples sqrt(r) * inv(L)' [cos t, sin t] at uniform angles.

    L is the lower Cholesky factor of P, so every returned point x satisfies
    x' P x = r exactly (up to roundoff).  Points are ordered by angle
    t_j = 2 pi j / num_points starting at t_0 = 0.

    Returns:
        Array of shape (num_points, 2).
    """
    if ellipsoid.n != 2:
        raise ValueError("boundary sampling is defined for two dimensions only")
    check_boundary_points(num_points)
    L = _shape_and_factor(ellipsoid.P)[1]
    angles = 2.0 * np.pi * np.arange(num_points) / num_points
    circle = np.stack([np.cos(angles), np.sin(angles)])
    pts = np.linalg.solve(L.T, circle)
    return (np.sqrt(ellipsoid.r) * pts).T


def check_boundary_points(num_points: int) -> None:
    """A boundary polyline has at least three points."""
    if num_points < 3:
        raise ValueError(f"need at least three boundary points, got {num_points}")


def check_epsilon(epsilon: float) -> None:
    """A violation level lies in (0, 1]."""
    if not 0.0 < epsilon <= 1.0:
        raise ValueError(f"violation level must lie in (0, 1], got {epsilon}")


def prs_sequence(P, rate: float, noise: float, epsilon: float, k_max: int) -> list[Ellipsoid]:
    """Per-step reachable ellipsoids at violation level epsilon.

    Step k gets scaling r_k = b_k / epsilon for the expectation bound
    b_k = (1 - rate^k) / (1 - rate) * noise, a nondecreasing sequence
    starting at r_0 = 0 (the error starts at the origin).  All ellipsoids
    share the shape matrix P.
    """
    check_epsilon(epsilon)
    scalings = expectation_bound_sequence(rate, noise, k_max) / epsilon
    return [Ellipsoid(P, float(r)) for r in scalings]


def pub(P, rate: float, noise: float, epsilon: float) -> Ellipsoid:
    """Probabilistic ultimate bound: the limit of the reachable scalings.

    Returns the ellipsoid of scaling noise / (epsilon * (1 - rate)), which
    contains every per-step reachable set and is approached monotonically.
    """
    check_rate(rate)
    check_noise(noise)
    check_epsilon(epsilon)
    spread = epsilon * (1.0 - rate)
    if spread == 0.0:
        raise ValueError(f"epsilon (1 - rate) underflows to zero at epsilon {epsilon}")
    return Ellipsoid(P, noise / spread)
