"""Property tests: hull membership, the certified side of the effective
rate, entry-wise equality of the broadcast linear-region scaling and
rate selection with their scalar calls, synthesized rates that bound the
exact hull rate of their shape matrix, and block-size invariance of the
ensemble."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from conftest import hull_membership_check, random_certifiable_problem
from hypothesis import assume, given
from hypothesis import strategies as st

import satreach as sr
from satreach import ContractionCertificate, Ellipsoid, FeedbackGain, SimulationConfig, SystemSpec
from satreach.bounds import BRANCH_TOL

SEEDS = st.integers(0, 2**32 - 1)
DIMS = st.integers(1, 4)


def _random_plant(n: int, m: int, seed: int):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(n, n))
    A *= 0.95 / max(1.0, np.abs(np.linalg.eigvals(A)).max())
    sys_r = SystemSpec(
        A=A, B=rng.normal(size=(n, m)), W=np.eye(n), ubar=rng.uniform(0.1, 2.0, m)
    )
    return sys_r, FeedbackGain(K=rng.normal(size=(m, n))), rng


@given(n=DIMS, m=DIMS, seed=SEEDS)
def test_vertex_stack_is_the_hull_of_the_saturated_step(n, m, seed):
    sys_r, gain, rng = _random_plant(n, m, seed)
    stack = sr.vertex_matrices(sys_r, gain)
    assert stack.shape == (2**m, n, n)
    for mask, vertex in enumerate(stack):
        expected = sys_r.A.copy()
        for i in range(m):
            if mask >> i & 1:
                expected += np.outer(sys_r.B[:, i], gain.K[i])
        assert np.array_equal(vertex, expected)
    # Per-row scalings theta blend the vertices with multilinear weights.
    theta = rng.uniform(0.0, 1.0, m)
    bits = (np.arange(2**m)[:, None] >> np.arange(m)) & 1
    weights = np.prod(np.where(bits, theta, 1.0 - theta), axis=1)
    blend = np.tensordot(weights, stack, axes=1)
    assert np.allclose(blend, sys_r.A + (sys_r.B * theta) @ gain.K, rtol=1e-12, atol=1e-12)
    for _ in range(20):
        e = rng.normal(scale=5.0, size=n)
        v = rng.uniform(-1.0, 1.0, m) * sys_r.ubar
        hull_membership_check(sys_r, gain, e, v, rng.normal(size=n))


@given(
    rate=st.floats(0.01, 0.999),
    fraction=st.floats(0.0, 0.99),
    noise=st.just(0.0) | st.floats(1e-9, 1e4),
    stretch=st.floats(1.0, 1e4),
    margin=st.floats(1e-9, 1e3),
    infinite=st.booleans(),
)
def test_effective_rate_is_on_the_certified_side(rate, fraction, noise, stretch, margin, infinite):
    rate_linear = fraction * rate
    r_lin = math.inf if infinite else noise / (1.0 - rate) * stretch + margin
    assume(not sr.select_rate(rate, rate_linear, noise, r_lin).fallback)
    mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
    assert rate_linear <= mu <= rate
    if noise == 0.0 or infinite:
        assert mu == rate_linear
    else:
        slope = r_lin / (rate - rate_linear)
        assert (mu - rate_linear) * slope - noise / (1.0 - mu) >= 0.0


@given(
    rate_linear=st.floats(0.0, 0.99),
    noise=st.floats(0.5, 1e3),
    tie=st.floats(0.0, 1e-11),
)
def test_effective_rate_near_a_double_root_is_exactly_certified(rate_linear, noise, tie):
    # rate = (1 + rate_linear) / 2 puts the double root of the balance at
    # `rate`; r_lin within `tie` of the noise mass makes the two roots
    # nearly coincide, where the computed balance is mostly rounding.
    rate = 0.5 * (1.0 + rate_linear)
    r_lin = noise / (1.0 - rate) * (1.0 + tie)
    assume(not sr.select_rate(rate, rate_linear, noise, r_lin).fallback)
    mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
    assert rate_linear <= mu <= rate
    mu, rate, rate_linear = Fraction(mu), Fraction(rate), Fraction(rate_linear)
    # The balance times (rate - rate_linear) (1 - mu) >= 0, in exact arithmetic.
    assert (mu - rate_linear) * Fraction(r_lin) * (1 - mu) >= Fraction(noise) * (rate - rate_linear)


@given(n=DIMS, m=DIMS, rows=st.integers(0, 6), seed=SEEDS)
def test_broadcast_linear_region_matches_scalar_rows(n, m, rows, seed):
    rng = np.random.default_rng(seed)
    G = rng.normal(size=(n, n))
    P = G @ G.T + 0.1 * np.eye(n)
    K = rng.normal(size=(m, n))
    K[rng.random(m) < 0.25] = 0.0
    vbar = rng.uniform(0.0, 1.0, m)
    ubar = vbar + rng.uniform(0.0, 3.0, (rows, m)) * (rng.random((rows, m)) < 0.9)
    scalings = sr.linear_region_scaling(P, K, ubar, vbar)
    assert scalings.shape == (rows,)
    for budget, scaling in zip(ubar, scalings):
        assert scaling == sr.linear_region_scaling(P, K, budget, vbar)


def _bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@given(
    rate=st.floats(0.01, 0.999),
    fraction=st.floats(0.0, 0.99),
    noise=st.just(0.0) | st.floats(1e-9, 1e4),
    stretches=st.lists(st.floats(0.0, 1e4), max_size=6),
)
def test_broadcast_select_rate_matches_scalar_calls(rate, fraction, noise, stretches):
    rate_linear = fraction * rate
    mass = noise / (1.0 - rate)
    ties = [mass, mass + BRANCH_TOL, max(mass - BRANCH_TOL, 0.0), 0.0, math.inf, mass + 1.0]
    r_lin = np.array(ties + [mass * stretch for stretch in stretches])
    profile = sr.select_rate(rate, rate_linear, noise, r_lin)
    assert profile.fallback.dtype == bool and profile.fallback.shape == r_lin.shape
    for i, r in enumerate(r_lin):
        one = sr.select_rate(rate, rate_linear, noise, float(r))
        assert profile.fallback[i] == one.fallback
        assert _bits(profile.r_lin[i]) == _bits(one.r_lin)
        assert _bits(profile.rate_selected[i]) == _bits(one.rate_selected)
        if one.rate_effective is None:
            assert np.isnan(profile.rate_effective[i])
        else:
            assert _bits(profile.rate_effective[i]) == _bits(one.rate_effective)
        assert profile.condition_lhs == one.condition_lhs


@given(n=st.integers(2, 3), m=st.integers(1, 2), seed=SEEDS)
def test_synthesized_rate_bounds_the_exact_hull_rate(n, m, seed):
    sys_r, gain = random_certifiable_problem(np.random.default_rng(seed), n, m)
    P, rate = sr.synthesize_contraction(sys_r, gain)
    assert sr.min_contraction_rate(P, sr.vertex_matrices(sys_r, gain)) <= rate
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain))
    assert sr.verify_certificate(cert, sys_r, gain).passed


# Seeds across the whole 64-bit range; 2**32 - 1 and 2**32, where the seed
# grows a second 32-bit word, and the largest seed are drawn on purpose.
STREAM_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))


@given(
    n=DIMS,
    m=st.integers(1, 3),
    plant_seed=SEEDS,
    seed=STREAM_SEEDS,
    kind=st.sampled_from(sr.montecarlo.NOISE_KINDS),
    policy=st.sampled_from(["zero", "constant", "per-step"]),
    horizon=st.integers(1, 8),
    num_traj=st.integers(1, 12),
    block=st.integers(1, 12),
)
def test_ensemble_is_bitwise_invariant_to_the_block_size(
    n, m, plant_seed, seed, kind, policy, horizon, num_traj, block
):
    sys_r, gain, rng = _random_plant(n, m, plant_seed)
    F = rng.normal(size=(n, n))
    sys_r = SystemSpec(A=sys_r.A, B=sys_r.B, W=F @ F.T, ubar=sys_r.ubar)
    v_policy = {
        "zero": None,
        "constant": rng.uniform(-1.0, 1.0, m) * sys_r.ubar,
        "per-step": rng.uniform(-1.0, 1.0, (horizon, m)) * sys_r.ubar,
    }[policy]
    cfg = SimulationConfig(horizon=horizon, num_traj=num_traj, seed=seed, noise_kind=kind, v_policy=v_policy)
    ellipsoid = Ellipsoid(P=np.eye(n), r=float(n))
    runs = []
    for size in (1, block, num_traj):
        with mock.patch.object(sr.montecarlo, "_BLOCK_SIZE", size):
            runs.append(sr.simulate_ensemble(sys_r, gain, cfg, ellipsoid=ellipsoid))
    for stats in runs[1:]:
        for name in ("q_samples", "final_states", "containment"):
            ours, theirs = getattr(stats, name), getattr(runs[0], name)
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), name
