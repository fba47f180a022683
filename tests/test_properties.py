"""Property tests: hull membership, boxes of saturation factors and the
local box on a level set of P, a linear rate equal bit for bit to that of
one A + B K product, the certified side of the effective rate,
entry-wise equality of the broadcast linear-region scaling and rate
selection with their scalar calls, synthesized rates that bound the
exact hull rate of their shape matrix and stop within bisect_tol of the
spectral floor when its probe succeeds, active-vertex synthesis that
ships the exact rate of its shape and matches the all-vertex probe within
bisect_tol, probes that return only strictly
certifying shapes, slacks that move affinely along a Newton step, a
constant-size verification record equal to a per-vertex loop's, an
expectation bound sequence equal to its formula bit for bit,
block-size and process-count invariance of the ensemble, and ensembles
that respect the probabilistic ultimate bound and the expectation bound of
the pipeline's own certificate."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
from conftest import hull_membership_check, random_certifiable_problem
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import satreach as sr
from satreach import ContractionCertificate, Ellipsoid, FeedbackGain, SimulationConfig, SystemSpec
from satreach.bounds import (
    BRANCH_TOL,
    converged_from,
    expectation_bound_sequence,
    linear_region_budget,
    linear_region_scaling,
    noise_energy,
    select_rate,
)

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


def _box_blend(stack: np.ndarray, low: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """The multilinear blend of a vertex_matrices(..., low) stack at the
    saturation factors theta, low <= theta <= 1: free row j (the j-th with
    low < 1) weighs bit j of each vertex by its share s_j of [low_j, 1]."""
    free = np.flatnonzero(low < 1.0)
    share = (theta[free] - low[free]) / (1.0 - low[free])
    bits = (np.arange(len(stack))[:, None] >> np.arange(len(free))) & 1
    weights = np.prod(np.where(bits, share, 1.0 - share), axis=1)
    return np.tensordot(weights, stack, axes=1)


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
    # low = 0 is the default box; low = 1 is the linear loop, one product.
    assert np.array_equal(sr.vertex_matrices(sys_r, gain, np.zeros(m)), stack)
    linear = sr.vertex_matrices(sys_r, gain, np.ones(m))
    assert np.array_equal(linear, (sys_r.A + sys_r.B @ gain.K)[None])
    # A random box: rows pinned at 0 or 1, the others strictly between.
    low = np.where(rng.random(m) < 0.4, rng.choice([0.0, 1.0], m), rng.uniform(0.0, 1.0, m))
    free = np.flatnonzero(low < 1.0)
    box = sr.vertex_matrices(sys_r, gain, low)
    assert box.shape == (2 ** len(free), n, n)
    for mask, vertex in enumerate(box):
        theta = low.copy()
        theta[free[(mask >> np.arange(len(free))) & 1 == 1]] = 1.0
        assert np.allclose(vertex, sys_r.A + (sys_r.B * theta) @ gain.K, rtol=1e-12, atol=1e-12)
    # Per-row factors theta in a box blend its vertices with multilinear weights.
    for low, stack in ((np.zeros(m), stack), (low, box)):
        theta = low + (1.0 - low) * rng.uniform(0.0, 1.0, m)
        blend = _box_blend(stack, low, theta)
        assert np.allclose(blend, sys_r.A + (sys_r.B * theta) @ gain.K, rtol=1e-12, atol=1e-12)
    for _ in range(20):
        e = rng.normal(scale=5.0, size=n)
        v = rng.uniform(-1.0, 1.0, m) * sys_r.ubar
        hull_membership_check(sys_r, gain, e, v, rng.normal(size=n))


@given(n=DIMS, m=DIMS, seed=SEEDS, stretch=st.floats(0.5, 100.0))
def test_the_local_box_holds_the_saturated_step_on_a_level_set(n, m, seed, stretch):
    # On {e'Pe <= r}, |K_i e| <= sqrt(r K_i inv(P) K_i'), so with
    # |v_i| <= vbar_i a clipped row keeps at least the share
    # low_i = min(1, sqrt(rho_i / r)) of K_i e, where
    # rho_i = (ubar_i - vbar_i)^2 / (K_i inv(P) K_i').
    sys_r, gain, rng = _random_plant(n, m, seed)
    F = rng.normal(size=(n, n))
    P = F @ F.T + 0.1 * np.eye(n)
    vbar = rng.uniform(0.0, 0.9, m) * sys_r.ubar
    rho = (sys_r.ubar - vbar) ** 2 / np.einsum("ij,ji->i", gain.K, np.linalg.solve(P, gain.K.T))
    r = stretch * rho.min()
    low = np.minimum(1.0, np.sqrt(rho / r))
    box = sr.vertex_matrices(sys_r, gain, low)
    L = np.linalg.cholesky(P)
    for radius in (*rng.uniform(0.0, 1.0, 19), 1.0):
        # e'Pe = |L'e|^2 = r radius^2.
        direction = rng.normal(size=n)
        e = np.sqrt(r) * radius * np.linalg.solve(L.T, direction / np.linalg.norm(direction))
        v = rng.uniform(-1.0, 1.0, m) * vbar
        u = gain.K @ e
        step = sr.saturate(u + v, sys_r.ubar) - v
        theta = np.ones(m)
        clipped = np.abs(u + v) > sys_r.ubar
        theta[clipped] = step[clipped] / u[clipped]
        assert np.all(theta >= low * (1.0 - 1e-9)) and np.all(theta <= 1.0)
        theta = np.maximum(theta, low)
        blend = _box_blend(box, low, theta)
        assert np.allclose(blend, sys_r.A + (sys_r.B * theta) @ gain.K, rtol=1e-12, atol=1e-12)
        expected = sys_r.A @ e + sys_r.B @ step
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(blend @ e - expected)) <= 1e-9 * scale


@given(n=st.integers(1, 8), m=st.integers(1, 12), seed=SEEDS)
def test_the_linear_rate_is_the_rate_of_one_closed_loop_product(n, m, seed):
    # The linear loop's bits are A + B @ K's, not those of the full hull's
    # last vertex, which sums the B_i K_i term by term.
    sys_r, gain, rng = _random_plant(n, m, seed)
    F = rng.normal(size=(n, n))
    P = F @ F.T + np.eye(n)
    closed = (sys_r.A + sys_r.B @ gain.K)[None]
    assert sr.closed_loop_rate(P, sys_r, gain) == sr.min_contraction_rate(P, closed)


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


# Rates at 0, subnormal, in (0, 1) and next to 1, where the bound never
# converges within k_max; noise up to the largest finite noise mass.
BOUND_RATES = st.one_of(
    st.just(0.0),
    st.floats(5e-324, 2.2250738585072014e-308),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.just(1.0 - 2.0**-40),
)


@given(rate=BOUND_RATES, mass=st.floats(0.0, 1.7976931348623157e308), k_max=st.integers(0, 30_000))
@example(rate=0.980102068861295, mass=354.30819168363246, k_max=20_000)
@example(rate=0.0, mass=1.0, k_max=0)
def test_the_expectation_bound_sequence_is_the_formula_bit_for_bit(rate, mass, k_max):
    noise = mass * (1.0 - rate)
    with np.errstate(over="ignore"):
        direct = (1.0 - rate ** np.arange(k_max + 1)) / (1.0 - rate) * noise
        bounds = expectation_bound_sequence(rate, noise, k_max)
    assert bounds.tobytes() == direct.tobytes()


@given(rate=st.floats(0.0, 0.98, exclude_min=True))
@example(rate=5e-324)
@example(rate=0.98)
def test_the_bound_has_converged_from_the_stated_step(rate):
    # In exact arithmetic rate^k < 2^-55 at that step, and two steps
    # earlier rate^k is still at least 2^-56, so the step is not late.
    step = converged_from(rate)
    assert Fraction(rate) ** step < Fraction(1, 2**55)
    assert step == 1 or Fraction(rate) ** (step - 2) >= Fraction(1, 2**56)


@given(n=st.integers(2, 4), m=st.integers(1, 3), seed=SEEDS)
def test_synthesized_rate_bounds_the_exact_hull_rate(n, m, seed):
    # No shape beats the floor; a first probe at floor + bisect_tol that
    # finds a shape is the only probe, and then the rate is that close.
    sys_r, gain = random_certifiable_problem(np.random.default_rng(seed), n, m)
    vertices = sr.vertex_matrices(sys_r, gain)
    real = sr.certify._feasible_shape
    with mock.patch.object(sr.certify, "_feasible_shape", side_effect=real) as probe:
        P, rate = sr.synthesize_contraction(sys_r, gain)
    assert sr.min_contraction_rate(P, vertices) <= rate
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain))
    assert sr.verify_certificate(cert, sys_r, gain).passed
    floor = float(np.abs(np.linalg.eigvals(vertices)).max()) ** 2
    assert rate >= floor - 1e-9
    if probe.call_count == 1:
        assert rate <= floor + sr.certify.DEFAULT_BISECT_TOL


@settings(max_examples=40)
@given(n=st.integers(2, 6), m=st.integers(1, 6), seed=SEEDS)
def test_active_vertex_synthesis_is_exact_and_no_worse_than_the_all_vertex_probe(n, m, seed):
    # Synthesis runs the barrier on the vertices that bind; what it ships is
    # checked on all 2^m, and starting every probe with all of them active
    # gives the all-vertex probe, which the subset must match within
    # bisect_tol.
    sys_r, gain = random_certifiable_problem(np.random.default_rng(seed), n, m)
    vertices = sr.vertex_matrices(sys_r, gain)
    P, rate = sr.synthesize_contraction(sys_r, gain)
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=sr.closed_loop_rate(P, sys_r, gain))
    assert sr.verify_certificate(cert, sys_r, gain).passed
    assert rate == sr.min_contraction_rate(P, vertices)
    real = sr.certify._feasible_shape

    def all_vertices(vertices, *args, active, **kwargs):
        active[:] = range(len(vertices))
        return real(vertices, *args, active=active, **kwargs)

    with mock.patch.object(sr.certify, "_feasible_shape", all_vertices):
        _, full_rate = sr.synthesize_contraction(sys_r, gain)
    assert rate <= full_rate + sr.certify.DEFAULT_BISECT_TOL


# A fraction of the way from the spectral floor to one.
FRACTIONS = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)


@given(n=st.integers(2, 4), m=st.integers(1, 3), seed=SEEDS, fraction=FRACTIONS)
def test_a_probe_returns_only_shapes_that_certify_its_rate_strictly(n, m, seed, fraction):
    # A probe returns at its first accepted iterate with t > 0, so whatever
    # it returns must hold every slack block positive definite at t = 0.
    vertices = sr.vertex_matrices(*random_certifiable_problem(np.random.default_rng(seed), n, m))
    floor = float(np.abs(np.linalg.eigvals(vertices)).max()) ** 2
    rate = floor + fraction * (1.0 - floor)
    assume(floor < rate < 1.0)
    P = sr.certify._feasible_shape(vertices, rate, sr.certify.DEFAULT_FEAS_TOL)
    if P is not None:
        assert np.linalg.eigvalsh(sr.certify._slacks(vertices, rate, P))[:, 0].min() > 0.0


@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    seed=SEEDS,
    fraction=FRACTIONS,
    size=st.floats(2.0**-40, 1.0),
)
def test_the_line_search_moves_the_slacks_along_one_direction(n, m, seed, fraction, size):
    # Slacks are affine in (P, t): S + s D is the stack at P + s dP, t + s dt.
    rng = np.random.default_rng(seed)
    vertices = sr.vertex_matrices(*random_certifiable_problem(rng, n, m))
    floor = float(np.abs(np.linalg.eigvals(vertices)).max()) ** 2
    rate = floor + fraction * (1.0 - floor)
    F = rng.normal(size=(n, n))
    P, t = 0.5 * np.eye(n) + 0.1 * (F + F.T), rng.normal()
    # A step in the probe's coordinates: P's upper triangle in the basis
    # e_k e_l' + e_l e_k', then t.
    probe = sr.certify._Probe(vertices, rate)
    step = rng.normal(size=len(probe.upper[0]) + 1)
    dP = np.zeros((n, n))
    dP[probe.upper] = step[:-1]
    dP, dt = dP + dP.T, step[-1]
    S = sr.certify._slacks(vertices, rate, P, t)
    D = probe.direction(step)
    expected = sr.certify._slacks(vertices, rate, P + size * dP, t + size * dt)
    assert np.abs(S + size * D - expected).max() <= 1e-12 * np.abs(expected).max()


@given(n=st.integers(2, 4), m=st.integers(1, 6), seed=SEEDS, rate=st.floats(0.0, 1.0, exclude_max=True))
def test_the_verification_record_matches_a_per_vertex_loop(n, m, seed, rate):
    # The synthesized certificate holds with tight vertices; the same P at
    # an arbitrary rate may fail some.  Either way the report keeps the
    # lowest-mask smallest residual and the count within feas_tol of zero,
    # bit for bit as one eigvalsh per vertex finds them.
    sys_r, gain = random_certifiable_problem(np.random.default_rng(seed), n, m)
    P, synthesized = sr.synthesize_contraction(sys_r, gain)
    for lam in (synthesized, rate):
        cert = ContractionCertificate(P=P, rate=lam, rate_linear=0.0)
        report = sr.verify_certificate(cert, sys_r, gain)
        residuals = []
        for M in sr.vertex_matrices(sys_r, gain):
            S = lam * P - M.T @ P @ M
            residuals.append(np.linalg.eigvalsh(0.5 * (S + S.T))[0])
        worst = min(range(2**m), key=residuals.__getitem__)
        assert report.worst_vertex == worst
        assert report.worst_residual == residuals[worst]
        assert report.tight_vertices == sum(abs(r) <= cert.feas_tol for r in residuals)
        # The linear loop is one A + B @ K product, here at rate_linear = 0.
        M = sys_r.A + sys_r.B @ gain.K
        S = -M.T @ P @ M
        assert report.linear_residual == np.linalg.eigvalsh(0.5 * (S + S.T))[0]


# Seeds across the whole 64-bit range; 2**32 - 1 and 2**32, where the seed
# grows a second 32-bit word, and the largest seed are drawn on purpose.
STREAM_SEEDS = st.one_of(st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1]), st.integers(0, 2**64 - 1))


# From n = 8 on, NumPy would sum a narrow block's product terms in
# another order than a wide block's.  `workers` is the CPU count the kernel
# sees, with forking forced at any ensemble size, so at 2 one worker steps
# the odd blocks; the explicit examples
# step plant seed 0 at n = 3, m = 2, whose inputs clip, with a per-step
# policy, under each noise kind, in blocks that do not divide num_traj.
@given(
    n=st.one_of(DIMS, st.integers(8, 12)),
    m=st.integers(1, 3),
    plant_seed=SEEDS,
    seed=STREAM_SEEDS,
    kind=st.sampled_from(sr.montecarlo.NOISE_KINDS),
    policy=st.sampled_from(["zero", "constant", "per-step"]),
    horizon=st.integers(1, 8),
    num_traj=st.integers(1, 12),
    block=st.integers(1, 12),
    workers=st.sampled_from([1, 2]),
)
@example(n=3, m=2, plant_seed=0, seed=7, kind="gaussian", policy="per-step", horizon=8, num_traj=11, block=4, workers=2)
@example(n=3, m=2, plant_seed=0, seed=7, kind="uniform", policy="per-step", horizon=8, num_traj=11, block=2, workers=2)
@example(
    n=3, m=2, plant_seed=0, seed=7, kind="rademacher_scaled", policy="per-step", horizon=8, num_traj=11, block=3, workers=2
)
def test_ensemble_is_bitwise_invariant_to_the_block_size(
    n, m, plant_seed, seed, kind, policy, horizon, num_traj, block, workers
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
    per_trajectory = sr.montecarlo._doubles_per_trajectory(n, m, horizon)
    # Too short to fork unforced, so this is the one-process run.
    reference = sr.simulate_ensemble(sys_r, gain, cfg, ellipsoid=ellipsoid)
    runs = []
    with (
        mock.patch.object(sr.montecarlo, "_FORK_MIN_TRAJ_STEPS", 0),
        mock.patch.object(sr.forked.os, "sched_getaffinity", lambda pid: set(range(workers))),
    ):
        for size in (1, block, num_traj):
            with mock.patch.object(sr.montecarlo, "_BLOCK_DOUBLES", size * per_trajectory):
                runs.append(sr.simulate_ensemble(sys_r, gain, cfg, ellipsoid=ellipsoid))
    for stats in runs:
        for name in ("q_mean", "q_stderr", "final_states", "containment"):
            ours, theirs = getattr(stats, name), getattr(reference, name)
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), name


@settings(max_examples=25)
@given(
    n=st.integers(2, 4),
    m=st.integers(1, 3),
    seed=SEEDS,
    kind=st.sampled_from(sr.montecarlo.NOISE_KINDS),
    budget=st.floats(0.3, 3.0),
)
def test_the_ensemble_respects_the_pipeline_bounds(n, m, seed, kind, budget):
    # Synthesis, rate selection and the PUB at epsilon = 0.2, then 300
    # trajectories over 30 steps.  `budget` scales ubar against the budget
    # at which the tightening starts: below it the rate falls back and the
    # inputs clip often, above it the effective rate is used and they clip
    # on the tail of the ensemble.
    epsilon, horizon = 0.2, 30
    sys_r, gain = random_certifiable_problem(np.random.default_rng(seed), n, m)
    P, rate = sr.synthesize_contraction(sys_r, gain)
    noise, vbar = noise_energy(P, sys_r.W), np.zeros(m)
    ubar = np.full(m, budget * linear_region_budget(P, gain.K, vbar, noise / (1.0 - rate)))
    sys_r = SystemSpec(A=sys_r.A, B=sys_r.B, W=sys_r.W, ubar=ubar)
    profile = select_rate(
        rate, sr.closed_loop_rate(P, sys_r, gain), noise, linear_region_scaling(P, gain.K, ubar, vbar)
    )
    cfg = SimulationConfig(horizon=horizon, num_traj=300, seed=seed, noise_kind=kind)
    stats = sr.simulate_ensemble(sys_r, gain, cfg, ellipsoid=sr.pub(P, profile.rate_selected, noise, epsilon))
    assert np.all(1.0 - stats.containment <= epsilon)
    # q_stderr is 0 at k = 0, where e_0 = 0, so the margin is never a quotient.
    bound = expectation_bound_sequence(profile.rate_selected, noise, horizon)
    assert np.all(stats.q_mean <= bound + 4.0 * stats.q_stderr)
