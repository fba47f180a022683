"""Expectation bounds on the error quadratic form and rate selection.

With a certificate (P, rate, rate_linear) and noise covariance W, the mean
of q_k = e_k' P e_k obeys the geometric bound built from `rate`.  While the
error stays inside the region of linearity (an ellipsoid of scaling `r_lin`
in the q coordinate), the linear loop contracts faster, and blending the
two regimes yields a strictly better effective rate whenever the noise is
small enough relative to r_lin.  This module computes the ingredients,
decides which rate applies, and evaluates the resulting bound sequences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .certify import _shape_and_factor, check_rate, check_rates
from .errors import NotApplicableError, PreconditionError

# Absolute tolerance used to classify the conditional-tightening branch;
# ties count as "condition failed" and select the fallback rate.
BRANCH_TOL = 1e-12


def check_noise(noise: float) -> None:
    """The noise energy trace(P W) is nonnegative."""
    if noise < 0.0:
        raise ValueError("noise energy must be nonnegative")


def check_k_max(k_max: int) -> None:
    """A bound sequence covers steps 0..k_max with k_max >= 0."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")


@dataclass(frozen=True)
class ContractionProfile:
    """Every rate relevant to one analysis, plus the branch evidence.

    `rate_effective` is None when the tightening condition fails, in which
    case `rate_selected` falls back to the hull-wide `rate`.
    """

    rate: float
    rate_linear: float
    noise_energy: float
    r_lin: float
    condition_lhs: float
    rate_effective: float | None
    rate_selected: float

    @property
    def fallback(self) -> bool:
        return self.rate_effective is None


def _feedback_quadratic(P: np.ndarray, K: np.ndarray) -> np.ndarray:
    """Per-row K_i inv(P) K_i' for a validated shape matrix P."""
    return np.einsum("ij,ji->i", K, scipy.linalg.cho_solve(scipy.linalg.cho_factor(P), K.T))


def linear_region_scaling(P, K, ubar, vbar) -> float | np.ndarray:
    """Largest q-scaling of the ellipsoid on which no feedback row saturates.

    Row i stays linear while (K_i e)^2 <= (ubar_i - vbar_i)^2, and the worst
    of K_i e over {e' P e <= r} is sqrt(r * K_i inv(P) K_i'), so the scaling
    is min_i (ubar_i - vbar_i)^2 / (K_i inv(P) K_i').  Rows with K_i = 0
    never saturate and contribute +inf; K = 0 therefore returns +inf.

    `ubar` and `vbar` may also be (G, m) grids of budgets, broadcast against
    each other; the result is then an array of G scalings, each equal to
    the scalar call on its row.

    Raises:
        PreconditionError: unless 0 <= vbar <= ubar componentwise.
    """
    P = _shape_and_factor(P)[0]
    K = np.asarray(K, dtype=float)
    ubar = np.asarray(ubar, dtype=float)
    vbar = np.asarray(vbar, dtype=float)
    if K.ndim != 2 or K.shape[1] != P.shape[0]:
        raise ValueError(f"K must have {P.shape[0]} columns, got shape {K.shape}")
    m = K.shape[0]
    if ubar.shape[-1:] != (m,) or vbar.shape[-1:] != (m,):
        raise ValueError(f"ubar and vbar must have length {m}")
    if np.any(vbar < 0.0) or np.any(vbar > ubar):
        raise PreconditionError("need 0 <= vbar <= ubar componentwise")
    quad = _feedback_quadratic(P, K)
    margins = (ubar - vbar) ** 2
    ratios = np.full(margins.shape, np.inf)
    active = quad > 0.0
    ratios[..., active] = margins[..., active] / quad[active]
    scaling = ratios.min(axis=-1)
    return float(scaling) if scaling.ndim == 0 else scaling


def noise_energy(P, W) -> float:
    """Expected one-step noise contribution trace(P W) to the quadratic form."""
    P = _shape_and_factor(P)[0]
    W = np.asarray(W, dtype=float)
    if W.shape != P.shape:
        raise ValueError(f"W must have shape {P.shape}, got {W.shape}")
    return max(float(np.trace(P @ W)), 0.0)


def _condition(rate: float, rate_linear: float, noise: float, r_lin: float) -> tuple[bool, float]:
    """Validate one rate-selection input and test the tightening condition.

    Returns whether the noise mass noise / (1 - rate) fits the linear
    region strictly (beyond BRANCH_TOL), and that mass.
    """
    check_rates(rate, rate_linear)
    check_noise(noise)
    if r_lin < 0.0:
        raise ValueError("r_lin must be nonnegative")
    condition_lhs = noise / (1.0 - rate)
    return r_lin - condition_lhs > BRANCH_TOL, condition_lhs


def effective_rate(rate: float, rate_linear: float, noise: float, r_lin: float) -> float:
    """Blended contraction rate: the root of the two-regime balance.

    The geometric tail mass noise / (1 - mu) equals the linear-regime
    share (mu - rate_linear) / (rate - rate_linear) * r_lin exactly when
    mu^2 - (1 + rate_linear) mu + rate_linear + noise (rate - rate_linear) / r_lin
    vanishes, and its smaller root is the only one in [rate_linear, rate].
    The root is taken in the cancellation-free form 2c / (b + sqrt(b^2 - 4c)),
    with b^2 - 4c = (1 - rate_linear)^2 - 4 noise (rate - rate_linear) / r_lin,
    then raised one ulp at a time until the balance is nonnegative, so the
    certified side is kept.  Zero noise or an infinite r_lin leaves the
    linear regime in force everywhere and returns rate_linear.

    Raises:
        NotApplicableError: when noise / (1 - rate) >= r_lin, i.e. the
            tightening hypothesis fails.
        ValueError: on rate ordering or sign violations.
    """
    applicable, condition_lhs = _condition(rate, rate_linear, noise, r_lin)
    if not applicable:
        raise NotApplicableError(
            f"noise mass {condition_lhs:.6g} does not fit the linear region {r_lin:.6g}"
        )
    if noise == 0.0 or math.isinf(r_lin):
        return rate_linear
    share = noise * (rate - rate_linear) / r_lin
    # Positive whenever the condition holds; the clamp absorbs rounding.
    discriminant = (1.0 - rate_linear) ** 2 - 4.0 * share
    mu = 2.0 * (rate_linear + share) / (1.0 + rate_linear + math.sqrt(max(discriminant, 0.0)))
    mu = min(mu, rate)
    slope = r_lin / (rate - rate_linear)
    # The balance at `rate` is positive up to rounding, so stop there.
    while mu < rate and (mu - rate_linear) * slope < noise / (1.0 - mu):
        mu = math.nextafter(mu, 1.0)
    return mu


def select_rate(rate: float, rate_linear: float, noise: float, r_lin: float) -> ContractionProfile:
    """Pick the tightest applicable rate and record the decision.

    Uses the effective rate when the tightening condition holds strictly
    (beyond BRANCH_TOL); ties and failures fall back to the hull-wide rate.
    """
    applicable, condition_lhs = _condition(rate, rate_linear, noise, r_lin)
    if applicable:
        blended = effective_rate(rate, rate_linear, noise, r_lin)
        selected = blended
    else:
        blended = None
        selected = rate
    return ContractionProfile(
        rate=rate,
        rate_linear=rate_linear,
        noise_energy=noise,
        r_lin=r_lin,
        condition_lhs=condition_lhs,
        rate_effective=blended,
        rate_selected=selected,
    )


def expectation_bound_sequence(rate: float, noise: float, k_max: int) -> np.ndarray:
    """Geometric bound b_k = (1 - rate^k) / (1 - rate) * noise for k = 0..k_max.

    Nondecreasing, b_0 = 0, and converging to noise / (1 - rate).

    Raises:
        ValueError: unless 0 <= rate < 1, noise >= 0 and k_max >= 0.
    """
    check_rate(rate)
    check_noise(noise)
    check_k_max(k_max)
    k = np.arange(k_max + 1)
    return (1.0 - rate ** k) / (1.0 - rate) * noise
