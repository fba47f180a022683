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

    Where the tightening condition fails, `fallback` is set and
    `rate_selected` falls back to the hull-wide `rate`; `rate_effective` is
    then None.  With an array `r_lin` the fields that depend on it are
    arrays of its shape, and `rate_effective` holds NaN where it falls back.
    """

    rate: float
    rate_linear: float
    noise_energy: float
    r_lin: float | np.ndarray
    condition_lhs: float
    rate_effective: float | np.ndarray | None
    rate_selected: float | np.ndarray
    fallback: bool | np.ndarray


def _feedback_quadratic(P, K) -> np.ndarray:
    """Per-row K_i inv(P) K_i' after validating P and the shape of K."""
    P = _shape_and_factor(P)[0]
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[1] != P.shape[0]:
        raise ValueError(f"K must have {P.shape[0]} columns, got shape {K.shape}")
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
    quad = _feedback_quadratic(P, K)
    ubar = np.asarray(ubar, dtype=float)
    vbar = np.asarray(vbar, dtype=float)
    if ubar.shape[-1:] != quad.shape or vbar.shape[-1:] != quad.shape:
        raise ValueError(f"ubar and vbar must have length {quad.size}")
    if np.any(vbar < 0.0) or np.any(vbar > ubar):
        raise PreconditionError("need 0 <= vbar <= ubar componentwise")
    margins = (ubar - vbar) ** 2
    ratios = np.full(margins.shape, np.inf)
    active = quad > 0.0
    ratios[..., active] = margins[..., active] / quad[active]
    scaling = ratios.min(axis=-1)
    return float(scaling) if scaling.ndim == 0 else scaling


def linear_region_budget(P, K, vbar, scaling: float) -> float:
    """Smallest common budget u whose linear region reaches `scaling`.

    The inverse of linear_region_scaling at ubar = (u, ..., u): row i
    needs (u - vbar_i)^2 >= scaling * K_i inv(P) K_i', so
    u = max_i vbar_i + sqrt(scaling * K_i inv(P) K_i').
    """
    quad = _feedback_quadratic(P, K)
    return float(np.max(np.asarray(vbar, dtype=float) + np.sqrt(scaling * quad)))


def noise_energy(P, W) -> float:
    """Expected one-step noise contribution trace(P W) to the quadratic form."""
    P = _shape_and_factor(P)[0]
    W = np.asarray(W, dtype=float)
    if W.shape != P.shape:
        raise ValueError(f"W must have shape {P.shape}, got {W.shape}")
    return max(float(np.trace(P @ W)), 0.0)


def _condition(rate: float, rate_linear: float, noise: float, r_lin) -> tuple:
    """Validate one rate-selection input and test the tightening condition.

    Returns `r_lin` as an array, whether the noise mass noise / (1 - rate)
    fits it strictly (beyond BRANCH_TOL) entry by entry, and that mass.
    """
    check_rates(rate, rate_linear)
    check_noise(noise)
    r_lin = np.asarray(r_lin, dtype=float)
    if np.any(r_lin < 0.0):
        raise ValueError("r_lin must be nonnegative")
    condition_lhs = noise / (1.0 - rate)
    return r_lin, r_lin - condition_lhs > BRANCH_TOL, condition_lhs


# Ulp steps taken up from the closed-form root before bisecting instead.
_WALK_STEPS = 4


def effective_rate(rate: float, rate_linear: float, noise: float, r_lin):
    """Blended contraction rate: the root of the two-regime balance.

    The geometric tail mass noise / (1 - mu) equals the linear-regime
    share (mu - rate_linear) / (rate - rate_linear) * r_lin exactly when
    mu^2 - (1 + rate_linear) mu + rate_linear + noise (rate - rate_linear) / r_lin
    vanishes, and its smaller root is the only one in [rate_linear, rate].
    The root is taken in the cancellation-free form 2c / (b + sqrt(b^2 - 4c))
    and raised one ulp at a time until the balance is nonnegative, so the
    certified side is kept; a start still short after _WALK_STEPS ulps (near
    a double root) is bisected on its bit pattern up to `rate`.  Zero noise
    or an infinite r_lin leaves the linear regime in force everywhere and
    returns rate_linear.  An array `r_lin` gives an array whose entries
    equal the scalar calls.

    Raises:
        NotApplicableError: when noise / (1 - rate) >= r_lin, i.e. the
            tightening hypothesis fails.
        ValueError: on rate ordering or sign violations.
    """
    r_lin, applicable, condition_lhs = _condition(rate, rate_linear, noise, r_lin)
    if not np.all(applicable):
        raise NotApplicableError(
            f"noise mass {condition_lhs:.6g} does not fit the linear region {np.min(r_lin):.6g}"
        )
    mu = np.full(r_lin.shape, float(rate_linear))
    live = np.isfinite(r_lin) & (noise != 0.0)
    share = noise * (rate - rate_linear) / r_lin[live]
    # Positive whenever the condition holds; the clamp absorbs rounding.
    discriminant = (1.0 - rate_linear) ** 2 - 4.0 * share
    root = 2.0 * (rate_linear + share) / (1.0 + rate_linear + np.sqrt(np.maximum(discriminant, 0.0)))
    root = np.minimum(root, rate)
    slope = r_lin[live] / (rate - rate_linear)

    def short(x, slope):
        # The balance at `rate` is positive up to rounding, so stop there.
        return (x < rate) & ((x - rate_linear) * slope < noise / (1.0 - x))

    low = short(root, slope)
    for _ in range(_WALK_STEPS):
        root = np.where(low, np.nextafter(root, 1.0), root)
        low = short(root, slope)
    # Positive doubles order like their bit patterns: bisect those between
    # the last failing float and `rate`.
    lo = root[low].view(np.int64)
    hi = np.full_like(lo, np.float64(rate).view(np.int64))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        fails = short(mid.view(np.float64), slope[low])
        lo, hi = np.where(fails, mid, lo), np.where(fails, hi, mid)
    root[low] = hi.view(np.float64)
    mu[live] = root
    return float(mu) if mu.ndim == 0 else mu


def select_rate(rate: float, rate_linear: float, noise: float, r_lin) -> ContractionProfile:
    """Pick the tightest applicable rate and record the decision.

    Uses the effective rate when the tightening condition holds strictly
    (beyond BRANCH_TOL); ties and failures fall back to the hull-wide rate.
    An array `r_lin`, e.g. the scalings of a budget grid, gives a profile of
    arrays, with one effective_rate call on the entries where it applies.
    """
    r_lin, applicable, condition_lhs = _condition(rate, rate_linear, noise, r_lin)
    blended = np.full(r_lin.shape, np.nan)
    if r_lin.ndim or applicable:
        blended[applicable] = effective_rate(rate, rate_linear, noise, r_lin[applicable])
    selected = np.where(applicable, blended, rate)
    fallback = ~applicable
    if r_lin.ndim == 0:
        r_lin, selected, fallback = float(r_lin), float(selected), bool(fallback)
        blended = None if fallback else float(blended)
    return ContractionProfile(
        rate=rate,
        rate_linear=rate_linear,
        noise_energy=noise,
        r_lin=r_lin,
        condition_lhs=condition_lhs,
        rate_effective=blended,
        rate_selected=selected,
        fallback=fallback,
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
