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

from .certify import _shape_and_factor, check_rate
from .errors import NotApplicableError, PreconditionError

# Absolute tolerance used to classify the conditional-tightening branch;
# ties count as "condition failed" and select the fallback rate.
BRANCH_TOL = 1e-12


def check_noise(noise: float) -> None:
    """The noise energy trace(P W) is finite and nonnegative."""
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise energy must be finite and nonnegative, got {noise}")


def check_k_max(k_max: int) -> None:
    """A bound sequence covers steps 0..k_max with k_max >= 0."""
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")


def check_budgets(ubar, vbar) -> None:
    """The nominal budget lies within a finite saturation level: 0 <= vbar <= ubar < inf."""
    if not np.all((0.0 <= vbar) & (vbar <= ubar) & (ubar < np.inf)):
        raise PreconditionError("need 0 <= vbar <= ubar < inf componentwise")


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
    """Per-row K_i inv(P) K_i' = |inv(L) K_i'|^2 for P = L L', after
    validating P and the shape of K."""
    L = _shape_and_factor(P)[1]
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[1] != L.shape[0]:
        raise ValueError(f"K must have {L.shape[0]} columns, got shape {K.shape}")
    whitened = np.linalg.solve(L, K.T)
    return np.einsum("ij,ij->j", whitened, whitened)


def linear_region_scaling(P, K, ubar, vbar) -> float | np.ndarray:
    """Largest q-scaling of the ellipsoid on which no feedback row saturates.

    Row i stays linear while (K_i e)^2 <= (ubar_i - vbar_i)^2, and the worst
    of K_i e over {e' P e <= r} is sqrt(r * K_i inv(P) K_i'), so the scaling
    is min_i (ubar_i - vbar_i)^2 / (K_i inv(P) K_i').  Rows with K_i = 0
    never saturate and contribute +inf; K = 0 therefore returns +inf, and
    so does a scaling too large for a double.

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
    check_budgets(ubar, vbar)
    # A scaling beyond the largest double is +inf, without a warning.
    with np.errstate(over="ignore"):
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
    if not np.isfinite(W).all():
        raise ValueError("W must be finite")
    return max(float(np.trace(P @ W)), 0.0)


def _condition(rate: float, rate_linear: float, noise: float, r_lin) -> tuple:
    """Validate one rate-selection input and test the tightening condition.

    Returns `r_lin` as an array, whether the noise mass noise / (1 - rate)
    fits it strictly (beyond BRANCH_TOL) entry by entry, and that mass.
    """
    check_rate(rate)
    if not 0.0 <= rate_linear < rate:
        raise ValueError(f"rate_linear must lie in [0, rate), got {rate_linear} at rate {rate}")
    # An infinite noise is refused as an infinite noise mass.
    condition_lhs = noise / (1.0 - rate)
    if not np.isfinite(condition_lhs):
        raise ValueError(f"noise mass noise / (1 - rate) must be finite, got {condition_lhs}")
    check_noise(noise)
    r_lin = np.asarray(r_lin, dtype=float)
    if not np.all(r_lin >= 0.0):
        raise ValueError("r_lin must be nonnegative")
    return r_lin, r_lin - condition_lhs > BRANCH_TOL, condition_lhs


# Ulp steps taken up from the closed-form root before bisecting instead.
_WALK_STEPS = 4

# Relative rounding bound on the computed balance.  The share
# (x - rate_linear) * r_lin / (rate - rate_linear), in either order of its
# operations, carries at most four roundings and the tail noise / (1 - x)
# two, so each is within 4u of its exact value (u = 2^-53).  A computed balance above 8 eps = 16u times share + tail is
# therefore positive in exact arithmetic on the same float inputs.
_BALANCE_ROUNDING = 8.0 * np.finfo(float).eps


def effective_rate(rate: float, rate_linear: float, noise: float, r_lin):
    """Blended contraction rate: the root of the two-regime balance.

    The geometric tail mass noise / (1 - mu) equals the linear-regime
    share (mu - rate_linear) / (rate - rate_linear) * r_lin exactly when
    mu^2 - (1 + rate_linear) mu + rate_linear + noise (rate - rate_linear) / r_lin
    vanishes, and its smaller root is the only one in [rate_linear, rate].
    The root is taken in the cancellation-free form 2c / (b + sqrt(b^2 - 4c))
    and raised one ulp at a time until the balance is nonnegative, so the
    certified side is kept; a start still short after _WALK_STEPS ulps (near
    a double root) is bisected on its bit pattern up to `rate`.  Only the
    entries still short take each step.  An r_lin near the largest double,
    whose r_lin / (rate - rate_linear) overflows, gets its share as
    (x - rate_linear) / (rate - rate_linear) * r_lin.  Zero noise or an
    infinite r_lin leaves the linear regime in force everywhere and returns
    rate_linear.  An array `r_lin` gives an array whose entries equal the
    scalar calls.

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
    # The share is (x - rate_linear) * slope.  Where r_lin / (rate - rate_linear)
    # overflows it is (x - rate_linear) / (rate - rate_linear) * r_lin: those
    # entries divide by `over` first, every other entry by 1.0, which
    # changes no bit.
    with np.errstate(over="ignore"):
        slope = r_lin[live] / (rate - rate_linear)
    wide = np.isinf(slope)
    over = np.where(wide, rate - rate_linear, 1.0) if wide.any() else None
    slope[wide] = r_lin[live][wide]

    def short(x, at):
        # The balance at `rate` is positive up to rounding, so stop there.
        share = x - rate_linear
        if over is not None:
            share /= over[at]
        share *= slope[at]
        tail = noise / (1.0 - x)
        return (x < rate) & (share - tail <= _BALANCE_ROUNDING * (share + tail))

    # Only the entries still short take the next ulp step.
    low = np.flatnonzero(short(root, slice(None)))
    for _ in range(_WALK_STEPS):
        if not low.size:
            break
        root[low] = np.nextafter(root[low], 1.0)
        low = low[short(root[low], low)]
    # Positive doubles order like their bit patterns: bisect those between
    # the last failing float and `rate`.
    lo = root[low].view(np.int64)
    hi = np.full_like(lo, np.float64(rate).view(np.int64))
    while np.any(hi - lo > 1):
        mid = lo + (hi - lo) // 2
        fails = short(mid.view(np.float64), low)
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


def converged_from(rate: float) -> int:
    """A step from which rate^k < 2^-55 for every k, so that 1 - rate^k is 1.

    A computed power of at most 2^-54 leaves 1 - rate^k rounded to exactly
    1 (the tie at 2^-54 rounds to even, which is 1), so the factor 2 below
    that absorbs any pow error short of 100 %, one ulp among them.  The
    step is ceil(56 / -log2 rate): aiming at 2^-56 covers the few ulps of
    error in the logarithm and the quotient, so rate^k < 2^-55 holds in
    exact arithmetic at that step and, as rate < 1, at every later one.
    Rate 0 has converged from step 1 (0^0 = 1); as rate tends to 1 the
    step grows without bound.
    """
    if rate == 0.0:
        return 1
    return math.ceil(56.0 / -math.log2(rate))


def expectation_bound_sequence(rate: float, noise: float, k_max: int) -> np.ndarray:
    """Geometric bound b_k = (1 - rate^k) / (1 - rate) * noise for k = 0..k_max.

    Nondecreasing, b_0 = 0, and converging to noise / (1 - rate).  From
    step converged_from(rate) on, rate^k < 2^-55, half of the 2^-54 at or
    below which 1 - rate^k rounds to exactly 1, so a pow error of an ulp
    cannot move it; those steps are filled with 1.0 / (1.0 - rate) * noise,
    the same operations in the same order, with the same bits as the
    formula, and rate^k is computed for the earlier steps alone.

    Raises:
        ValueError: unless 0 <= rate < 1, noise >= 0 and k_max >= 0.
    """
    check_rate(rate)
    check_noise(noise)
    check_k_max(k_max)
    bounds = np.full(k_max + 1, 1.0 / (1.0 - rate) * noise)
    k = np.arange(min(k_max + 1, converged_from(rate)))
    bounds[: k.size] = (1.0 - rate**k) / (1.0 - rate) * noise
    return bounds
