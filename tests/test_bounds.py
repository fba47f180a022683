"""Region-of-linearity scaling, rate selection, and bound sequences."""

import math
import time
from fractions import Fraction

import numpy as np
import pytest
from conftest import exact_balance, grid_effective_rate_oracle, random_certifiable_problem
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import satreach as sr
from satreach import NotApplicableError, PreconditionError
from satreach.bounds import _BALANCE_ROUNDING, _WALK_STEPS, linear_region_budget

REF_R_LIN = 485.29192773090068
REF_RATE = 0.98010206886129503
REF_RATE_LINEAR = 0.76852028012028373
REF_NOISE = 7.05
REF_EFFECTIVE = 0.78266292246021862


def _admissible_tuple(rng):
    rate = rng.uniform(0.3, 0.99)
    rate_linear = rng.uniform(0.0, 0.95) * rate
    noise = rng.uniform(0.1, 10.0)
    r_lin = noise / (1.0 - rate) * rng.uniform(1.05, 50.0)
    return rate, rate_linear, noise, r_lin


def test_linear_region_reference_value(ref_gain, ref_shape):
    r = sr.linear_region_scaling(ref_shape, ref_gain.K, [10.0], [0.0])
    assert r == pytest.approx(REF_R_LIN, rel=1e-12)
    # Cross-check against the direct inverse formula.
    quad = (ref_gain.K @ np.linalg.inv(ref_shape) @ ref_gain.K.T).item()
    assert r == pytest.approx(100.0 / quad, rel=1e-12)


def test_linear_region_identity_shape():
    assert sr.linear_region_scaling(np.eye(2), [[1.0, 0.0]], [1.0], [0.0]) == 1.0


def test_linear_region_worst_row_wins():
    r = sr.linear_region_scaling(
        np.eye(2), [[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0], [0.0, 0.0]
    )
    assert r == pytest.approx(0.25, rel=1e-14)


def test_linear_region_zero_margin():
    r = sr.linear_region_scaling(np.eye(2), [[1.0, 0.0]], [1.0], [1.0])
    assert r == 0.0


def test_linear_region_zero_rows_never_saturate():
    assert sr.linear_region_scaling(np.eye(2), [[0.0, 0.0]], [1.0], [0.0]) == np.inf


def test_a_linear_region_beyond_the_largest_double_is_infinite_without_a_warning(ref_gain, ref_shape):
    # pytest turns a RuntimeWarning into an error; the grid's first row
    # squares without overflow, and its quotient overflows.
    budgets = [[1e154], [1e300]]
    assert list(sr.linear_region_scaling(ref_shape, ref_gain.K, budgets, [0.0])) == [np.inf, np.inf]


def test_linear_region_nominal_budget_checked():
    with pytest.raises(PreconditionError):
        sr.linear_region_scaling(np.eye(2), [[1.0, 0.0]], [1.0], [1.5])
    with pytest.raises(PreconditionError):
        sr.linear_region_scaling(np.eye(2), [[1.0, 0.0]], [1.0], [-0.1])
    # A budget of another length than K's rows, or a K of another width than P.
    for ubar, vbar in (([1.0, 1.0], [0.0]), ([1.0], [0.0, 0.0])):
        with pytest.raises(ValueError, match="length 1"):
            sr.linear_region_scaling(np.eye(2), [[1.0, 0.0]], ubar, vbar)
    with pytest.raises(ValueError, match="2 columns"):
        sr.linear_region_scaling(np.eye(2), [[1.0, 0.0, 0.0]], [1.0], [0.0])


def test_linear_region_shrinks_with_tighter_bounds(ref_gain, ref_shape):
    wide = sr.linear_region_scaling(ref_shape, ref_gain.K, [10.0], [0.0])
    narrow = sr.linear_region_scaling(ref_shape, ref_gain.K, [5.0], [0.0])
    assert narrow == pytest.approx(0.25 * wide, rel=1e-12)


def test_linear_region_budget_inverts_the_scaling():
    # Row 0 needs u >= 0.1 + sqrt(4 * 1), row 1 needs u >= 0.3 + sqrt(4 * 4).
    K = [[1.0, 0.0], [0.0, 2.0]]
    vbar = [0.1, 0.3]
    u = linear_region_budget(np.eye(2), K, vbar, 4.0)
    assert u == 4.3
    assert sr.linear_region_scaling(np.eye(2), K, [u, u], vbar) == pytest.approx(4.0, rel=1e-14)


def test_noise_energy_reference(ref_shape):
    assert sr.noise_energy(ref_shape, np.eye(2)) == REF_NOISE


def test_noise_energy_zero_and_identity(ref_shape):
    assert sr.noise_energy(ref_shape, np.zeros((2, 2))) == 0.0
    W = np.array([[2.0, 0.3], [0.3, 1.0]])
    assert sr.noise_energy(np.eye(2), W) == pytest.approx(np.trace(W), rel=1e-15)
    with pytest.raises(ValueError, match="shape"):
        sr.noise_energy(np.eye(2), np.eye(3))


def test_noise_energy_clamped_at_zero():
    assert sr.noise_energy(np.eye(2), -np.eye(2)) == 0.0


def test_effective_rate_reference():
    mu = sr.effective_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, REF_R_LIN)
    assert mu == pytest.approx(REF_EFFECTIVE, abs=2e-8)


def test_effective_rate_lies_between_the_rates():
    rng = np.random.default_rng(17)
    for _ in range(50):
        rate, rate_linear, noise, r_lin = _admissible_tuple(rng)
        mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
        assert rate_linear < mu <= rate


def test_effective_rate_matches_grid_scan():
    rng = np.random.default_rng(19)
    for _ in range(10):
        rate, rate_linear, noise, r_lin = _admissible_tuple(rng)
        mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
        oracle = grid_effective_rate_oracle(
            rate, rate_linear, noise, r_lin, points=100_000
        )
        spacing = (rate - rate_linear) / 100_000
        assert abs(mu - oracle) <= spacing + 1e-7


def test_effective_rate_solves_the_balance_equation():
    rng = np.random.default_rng(23)
    for _ in range(50):
        rate, rate_linear, noise, r_lin = _admissible_tuple(rng)
        mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
        slope = r_lin / (rate - rate_linear)
        balance = (mu - rate_linear) * slope - noise / (1.0 - mu)
        derivative = slope + noise / (1.0 - mu) ** 2
        assert abs(balance) <= 2e-8 * derivative


def test_effective_rate_invariant_under_joint_scaling():
    base = sr.effective_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, REF_R_LIN)
    for c in (1e-3, 7.0, 1e4):
        scaled = sr.effective_rate(
            REF_RATE, REF_RATE_LINEAR, c * REF_NOISE, c * REF_R_LIN
        )
        assert scaled == pytest.approx(base, abs=2e-8)


def test_effective_rate_monotonicity():
    base = sr.effective_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, REF_R_LIN)
    bigger_region = sr.effective_rate(
        REF_RATE, REF_RATE_LINEAR, REF_NOISE, 4.0 * REF_R_LIN
    )
    more_noise = sr.effective_rate(
        REF_RATE, REF_RATE_LINEAR, 1.3 * REF_NOISE, REF_R_LIN
    )
    assert bigger_region <= base + 2e-8
    assert more_noise >= base - 2e-8


def test_effective_rate_degenerate_inputs():
    assert sr.effective_rate(0.9, 0.5, 0.0, 10.0) == 0.5
    assert sr.effective_rate(0.9, 0.5, 1.0, np.inf) == 0.5


@pytest.mark.parametrize(
    "rate, rate_linear, noise, r_lin",
    [
        # rate = (1 + rate_linear) / 2 and the condition within ~1e-12 of a
        # tie: the rounded closed-form start lies ~1e5 ulps below the root.
        (0.5 * (1.0 + 0.4704665682711589), 0.4704665682711589, 3.9248621768572716,
         14.823850362171195),
        (0.6, 0.2, 2.0, 5.0 + 2e-12),
    ],
)
def test_effective_rate_near_a_double_root_is_bounded(rate, rate_linear, noise, r_lin):
    elapsed = []
    for _ in range(3):
        start = time.perf_counter()
        mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
        elapsed.append(time.perf_counter() - start)
    assert rate_linear <= mu <= rate

    # mu is on the certified side in exact arithmetic on the same float
    # inputs, and the float below it does not clear the balance's rounding
    # bound, so the search stopped at the first float that does.
    exact = (
        (Fraction(mu) - Fraction(rate_linear)) * Fraction(r_lin) * (1 - Fraction(mu))
        - Fraction(noise) * (Fraction(rate) - Fraction(rate_linear))
    )
    assert exact >= 0
    below = np.nextafter(mu, 0.0)
    share = (below - rate_linear) * (r_lin / (rate - rate_linear))
    tail = noise / (1.0 - below)
    assert share - tail <= _BALANCE_ROUNDING * (share + tail)
    assert min(elapsed) < 0.01


def test_effective_rate_keeps_the_certified_side_when_the_slope_overflows():
    # r_lin / (rate - rate_linear) overflows near the largest double: the
    # demo at system.ubar = 3e153 has r_L = 4.37e307, where the rate used
    # to come out as rate_linear, below the root, after two warnings.
    r_lin = np.array([4.3676273495781069e307, 1e308, np.finfo(float).max, REF_R_LIN])
    mu = sr.effective_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, r_lin)
    for x, r in zip(mu.tolist(), r_lin.tolist()):
        assert x == sr.effective_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, r)
        assert x == _walked_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, r)
        assert REF_RATE_LINEAR < x <= REF_RATE
        assert exact_balance(x, REF_RATE, REF_RATE_LINEAR, REF_NOISE, r) >= 0


def _walked_rate(rate, rate_linear, noise, r_lin) -> float:
    """effective_rate's rule for one finite r_lin, in Python floats: the
    closed-form root, raised an ulp at a time up to _WALK_STEPS times
    while the balance falls short, then bisected on its bit pattern."""
    share = noise * (rate - rate_linear) / r_lin
    discriminant = (1.0 - rate_linear) ** 2 - 4.0 * share
    root = 2.0 * (rate_linear + share) / (1.0 + rate_linear + math.sqrt(max(discriminant, 0.0)))
    root = min(root, rate)
    slope = r_lin / (rate - rate_linear)

    def short(x):
        share = (x - rate_linear) / (rate - rate_linear) * r_lin if math.isinf(slope) else (x - rate_linear) * slope
        tail = noise / (1.0 - x)
        return x < rate and share - tail <= _BALANCE_ROUNDING * (share + tail)

    for _ in range(_WALK_STEPS):
        if not short(root):
            return root
        root = math.nextafter(root, 1.0)
    if not short(root):
        return root
    # Positive doubles order like their bit patterns.
    lo, hi = (int(np.float64(x).view(np.int64)) for x in (root, rate))
    while hi - lo > 1:
        mid = lo + (hi - lo) // 2
        lo, hi = (mid, hi) if short(float(np.int64(mid).view(np.float64))) else (lo, mid)
    return float(np.int64(hi).view(np.float64))


@settings(max_examples=300)
@given(
    rate=st.floats(0.01, 0.999),
    fraction=st.floats(0.0, 0.99),
    noise=st.floats(1e-9, 1e4),
    stretches=st.lists(st.floats(1.0 + 1e-9, 1e4), max_size=6),
    huge=st.lists(st.floats(1e300, np.finfo(float).max), max_size=3),
)
def test_effective_rate_walks_each_entry_by_its_rule(rate, fraction, noise, stretches, huge):
    # Each entry of an array sees the operations of the scalar rule, in
    # order, whichever entries beside it still walk; r_lin past 1e300
    # reaches slopes that overflow, up to the largest double.
    rate_linear = fraction * rate
    r_lin = np.array([noise / (1.0 - rate) * stretch for stretch in stretches] + huge)
    assume(r_lin.size and not np.any(sr.select_rate(rate, rate_linear, noise, r_lin).fallback))
    mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
    for x, r in zip(mu.tolist(), r_lin.tolist()):
        assert x == _walked_rate(rate, rate_linear, noise, r)
        assert exact_balance(x, rate, rate_linear, noise, r) >= 0


def test_effective_rate_not_applicable():
    # Noise mass 7.05 / (1 - rate) exceeds the linear-region scaling.
    with pytest.raises(NotApplicableError):
        sr.effective_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, 300.0)


def test_effective_rate_input_validation():
    with pytest.raises(ValueError):
        sr.effective_rate(0.5, 0.7, 1.0, 10.0)
    with pytest.raises(ValueError):
        sr.effective_rate(1.0, 0.5, 1.0, 10.0)
    with pytest.raises(ValueError):
        sr.effective_rate(0.9, 0.5, -1.0, 10.0)
    with pytest.raises(ValueError):
        sr.effective_rate(0.9, 0.5, 1.0, -1.0)
    # A noise mass noise / (1 - rate) that is not finite selects no rate.
    with pytest.raises(ValueError, match="noise mass"):
        sr.select_rate(0.9, 0.5, 1e308, 10.0)
    with pytest.raises(ValueError, match="noise mass"):
        sr.select_rate(0.9, 0.5, np.inf, np.array([10.0, np.inf]))


def test_select_rate_uses_effective_rate_when_applicable():
    profile = sr.select_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, REF_R_LIN)
    assert not profile.fallback
    assert profile.rate_effective == pytest.approx(REF_EFFECTIVE, abs=2e-8)
    assert profile.rate_selected == profile.rate_effective
    assert profile.condition_lhs == pytest.approx(
        REF_NOISE / (1.0 - REF_RATE), rel=1e-12
    )


def test_select_rate_falls_back_when_region_too_small():
    profile = sr.select_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, 300.0)
    assert profile.fallback
    assert profile.rate_effective is None
    assert profile.rate_selected == REF_RATE


def test_select_rate_tie_counts_as_fallback():
    condition = REF_NOISE / (1.0 - REF_RATE)
    profile = sr.select_rate(REF_RATE, REF_RATE_LINEAR, REF_NOISE, condition)
    assert profile.fallback


def test_select_rate_zero_region_falls_back():
    profile = sr.select_rate(0.9, 0.5, 1.0, 0.0)
    assert profile.fallback
    assert profile.rate_selected == 0.9


def test_select_rate_zero_noise_selects_linear_rate():
    profile = sr.select_rate(0.9, 0.5, 0.0, 10.0)
    assert not profile.fallback
    assert profile.rate_selected == 0.5


def test_bound_sequence_shape_and_endpoints():
    b = sr.expectation_bound_sequence(0.8, 2.0, 10)
    assert b.shape == (11,)
    assert b[0] == 0.0
    assert b[1] == 2.0
    assert np.all(np.diff(b) > 0.0)


def test_bound_sequence_matches_step_recursion():
    rng = np.random.default_rng(29)
    for _ in range(20):
        rate = rng.uniform(0.0, 0.99)
        noise = rng.uniform(0.0, 5.0)
        b = sr.expectation_bound_sequence(rate, noise, 40)
        value = 0.0
        for k in range(40):
            value = rate * value + noise
            assert b[k + 1] == pytest.approx(value, rel=1e-12, abs=1e-15)


def test_bound_sequence_approaches_asymptote():
    b = sr.expectation_bound_sequence(REF_EFFECTIVE, REF_NOISE, 200)
    limit = REF_NOISE / (1.0 - REF_EFFECTIVE)
    assert b[-1] == pytest.approx(limit, rel=1e-6)
    assert np.all(b <= limit * (1.0 + 1e-12))


def test_bound_sequences_are_ordered_by_rate():
    b_lin = sr.expectation_bound_sequence(REF_RATE_LINEAR, REF_NOISE, 100)
    b_eff = sr.expectation_bound_sequence(REF_EFFECTIVE, REF_NOISE, 100)
    b_full = sr.expectation_bound_sequence(REF_RATE, REF_NOISE, 100)
    assert np.all(b_lin <= b_eff + 1e-12)
    assert np.all(b_eff <= b_full + 1e-12)


def test_bound_sequence_validation():
    with pytest.raises(ValueError):
        sr.expectation_bound_sequence(1.0, 1.0, 5)
    with pytest.raises(ValueError):
        sr.expectation_bound_sequence(0.5, -1.0, 5)
    with pytest.raises(ValueError):
        sr.expectation_bound_sequence(0.5, 1.0, -1)


SHAPE = [[3.54, 0.67], [0.67, 3.51]]


# Each call once let NaN or an infinity through a check written as a
# comparison that NaN fails to trip, and returned NaN, a silent fallback or
# a rate.
@pytest.mark.parametrize(
    "call",
    [
        lambda: sr.expectation_bound_sequence(0.5, np.nan, 3),
        lambda: sr.linear_region_scaling(SHAPE, [[-0.282, -0.8415]], [10.0], [np.nan]),
        lambda: sr.linear_region_scaling(SHAPE, [[-0.282, -0.8415]], [np.inf], [np.inf]),
        lambda: sr.select_rate(0.9, 0.5, 1.0, np.nan),
        lambda: sr.noise_energy(SHAPE, [[np.nan, 0.0], [0.0, 1.0]]),
        lambda: sr.certify.check_synthesis_tolerances(np.inf, 1e-4),
        lambda: sr.synthesize_contraction(
            *random_certifiable_problem(np.random.default_rng(0), 2, 1), feas_tol=np.inf
        ),
    ],
    ids=["noise-nan", "vbar-nan", "ubar-inf", "r_lin-nan", "W-nan", "feas_tol-inf", "synthesis-feas_tol-inf"],
)
def test_nan_and_infinity_are_rejected(call):
    with pytest.raises((ValueError, PreconditionError)):
        call()
