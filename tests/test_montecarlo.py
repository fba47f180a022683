"""Determinism, distributional sanity, and containment statistics."""

import tracemalloc

import numpy as np
import pytest
from conftest import error_step

import satreach as sr
from satreach import Ellipsoid, PreconditionError, SimulationConfig
from satreach.montecarlo import _noise_factor, _standard_draw


def test_noise_factor_identity_and_reconstruction():
    assert np.array_equal(_noise_factor(np.eye(3)), np.eye(3))
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    F = _noise_factor(W)
    assert np.allclose(F @ F.T, W, rtol=1e-12, atol=1e-14)


def test_noise_factor_handles_singular_covariance():
    v = np.array([[1.0], [2.0]])
    W = v @ v.T
    F = _noise_factor(W)
    assert np.allclose(F @ F.T, W, rtol=0.0, atol=1e-12)
    # A round-off negative eigenvalue that SystemSpec admits is clipped.
    plant = sr.SystemSpec(A=np.zeros((2, 2)), B=np.ones((2, 1)), W=np.diag([1.0, -1e-12]), ubar=[1.0])
    F = _noise_factor(plant.W)
    assert np.all(np.isfinite(F))
    assert np.allclose(F @ F.T, np.diag([1.0, 0.0]), rtol=0.0, atol=1e-15)


def test_sample_noise_moments_every_kind():
    # The kernel's draws shaped by the noise factor, as it shapes them.
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    factor = _noise_factor(W)
    for kind in sr.montecarlo.NOISE_KINDS:
        rng = np.random.default_rng(99)
        draws = _standard_draw(kind, rng, (100_000, 2)) @ factor.T
        mean = draws.mean(axis=0)
        cov = np.cov(draws.T)
        assert np.max(np.abs(mean)) < 0.02, kind
        assert np.linalg.norm(cov - W) < 0.05, kind


def _keyed_rng(seed, index):
    # A list key holding 2**64 - 1 would be cast through float; a uint64
    # array keeps every word exact.
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def test_rekeyed_generator_draws_equal_fresh_streams():
    # One Philox re-keyed between streams, each left mid-buffer (and, for
    # the Rademacher draws, holding a spare 32-bit half) by an odd-sized
    # draw, must give every stream's draws from its first one on.
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)
    for seed in (3, 2**64 - 1):
        for index in range(12):
            kind = sr.montecarlo.NOISE_KINDS[index % 3]
            shape = (7, 1 + index % 3)
            bitgen.state = sr.montecarlo._keyed_state([seed, index])
            ours = _standard_draw(kind, rng, shape)
            fresh = _standard_draw(kind, _keyed_rng(seed, index), shape)
            assert np.array_equal(ours, fresh), (seed, index, kind)


@pytest.mark.parametrize("kind", sr.montecarlo.NOISE_KINDS)
def test_ensemble_draws_each_trajectory_from_its_keyed_stream(kind):
    # With A = 0, K = 0 and W = I the state after the last step is exactly
    # that step's draw.  Five steps of three draws leave a Rademacher
    # stream holding a spare 32-bit half, which the next trajectory must
    # not inherit.
    n, horizon, seed = 3, 5, 2**64 - 1
    plant = sr.SystemSpec(A=np.zeros((n, n)), B=np.ones((n, 1)), W=np.eye(n), ubar=[1.0])
    cfg = SimulationConfig(horizon=horizon, num_traj=6, seed=seed, noise_kind=kind)
    stats = sr.simulate_ensemble(plant, sr.FeedbackGain(K=np.zeros((1, n))), cfg)
    for index, final in enumerate(stats.final_states):
        draws = _standard_draw(kind, _keyed_rng(seed, index), (horizon, n))
        assert np.array_equal(final, draws[-1]), index


def test_simulation_config_validation(ref_sys, ref_gain):
    with pytest.raises(ValueError):
        SimulationConfig(horizon=0, num_traj=1, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=0, seed=0)
    # 2**32 trajectories is the supported ensemble size.
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=2**32 + 1, seed=0)
    assert SimulationConfig(horizon=1, num_traj=2**32, seed=0).num_traj == 2**32
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=1, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=1, seed=0, noise_kind="cauchy")
    # The ensemble checks v_policy's shape against the plant.
    cfg = SimulationConfig(horizon=2, num_traj=1, seed=0, v_policy=np.zeros((2, 1, 1)))
    with pytest.raises(ValueError, match="v_policy must have shape"):
        sr.simulate_ensemble(ref_sys, ref_gain, cfg)


def test_ensemble_matches_single_trajectory_replay(ref_sys, ref_gain):
    # With one trajectory the mean of q_k is that trajectory's q_k.
    cfg = SimulationConfig(horizon=25, num_traj=1, seed=42)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    rng = _keyed_rng(42, 0)
    shocks = _standard_draw("gaussian", rng, (25, 2)) @ _noise_factor(ref_sys.W).T
    e = np.zeros(2)
    for k in range(25):
        e = error_step(e, [0.0], shocks[k], ref_sys, ref_gain)
        assert stats.q_mean[k + 1] == pytest.approx(e @ e, rel=1e-12)
    assert np.allclose(stats.final_states[0], e, rtol=1e-12, atol=0.0)


def test_ensemble_statistics_start_at_zero(ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=10, num_traj=20, seed=1)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    assert stats.q_mean[0] == 0.0
    assert stats.q_stderr[0] == 0.0


def test_ensemble_zero_noise_stays_at_origin(ref_gain):
    quiet = sr.SystemSpec(
        A=[[0.89, 0.10], [0.10, 0.89]],
        B=[[0.0], [1.0]],
        W=np.zeros((2, 2)),
        ubar=[10.0],
    )
    cfg = SimulationConfig(horizon=15, num_traj=5, seed=3)
    stats = sr.simulate_ensemble(quiet, ref_gain, cfg)
    assert np.all(stats.q_mean == 0.0)
    assert np.all(stats.q_stderr == 0.0)
    assert np.all(stats.final_states == 0.0)


def test_ensemble_seed_changes_results(ref_sys, ref_gain):
    a = sr.simulate_ensemble(
        ref_sys, ref_gain, SimulationConfig(horizon=10, num_traj=5, seed=0)
    )
    b = sr.simulate_ensemble(
        ref_sys, ref_gain, SimulationConfig(horizon=10, num_traj=5, seed=1)
    )
    assert not np.array_equal(a.q_mean, b.q_mean)


def test_ensemble_constant_nominal_input_matches_zero_policy(ref_sys, ref_gain):
    # Inside the linear regime the nominal input cancels out of the error
    # recursion, so an explicit zero policy must match the default exactly.
    cfg_default = SimulationConfig(horizon=12, num_traj=8, seed=5)
    cfg_zero = SimulationConfig(
        horizon=12, num_traj=8, seed=5, v_policy=np.zeros(1)
    )
    a = sr.simulate_ensemble(ref_sys, ref_gain, cfg_default)
    b = sr.simulate_ensemble(ref_sys, ref_gain, cfg_zero)
    assert np.array_equal(a.q_mean, b.q_mean)
    assert np.array_equal(a.final_states, b.final_states)


def test_ensemble_rejects_oversized_nominal_input(ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=5, num_traj=2, seed=0, v_policy=np.array([11.0]))
    with pytest.raises(PreconditionError):
        sr.simulate_ensemble(ref_sys, ref_gain, cfg)


def test_ensemble_rejects_mismatched_ellipsoid_shape(ref_sys, ref_gain):
    # A 1 x 1 shape used to broadcast against the planar state unnoticed.
    cfg = SimulationConfig(horizon=5, num_traj=2, seed=0)
    for n in (1, 3):
        with pytest.raises(ValueError, match="ellipsoid must be 2-dimensional"):
            sr.simulate_ensemble(ref_sys, ref_gain, cfg, ellipsoid=Ellipsoid(P=np.eye(n), r=10.0))


def test_violation_rate_extremes(ref_sys, ref_gain, ref_shape):
    cfg = SimulationConfig(horizon=10, num_traj=50, seed=11)
    huge, tiny = (
        sr.simulate_ensemble(ref_sys, ref_gain, cfg, ellipsoid=Ellipsoid(P=ref_shape, r=r))
        for r in (1e12, 0.0)
    )
    assert np.all(huge.containment == 1.0)
    assert tiny.containment[10] == 0.0
    assert tiny.containment[0] == 1.0


def test_violation_rate_matches_containment(ref_sys, ref_gain, ref_shape):
    # Each trajectory's draws up to step k are a prefix of its stream, so
    # the states at horizon k are the states at step k of a longer run.
    ell = Ellipsoid(P=ref_shape, r=100.0)
    stats = sr.simulate_ensemble(
        ref_sys, ref_gain, SimulationConfig(horizon=10, num_traj=50, seed=13), ellipsoid=ell
    )
    assert 0.0 < stats.containment.min() < 1.0
    for k in (1, 3, 10):
        cfg = SimulationConfig(horizon=k, num_traj=50, seed=13)
        finals = sr.simulate_ensemble(ref_sys, ref_gain, cfg).final_states
        outside = np.einsum("ti,ij,tj->t", finals, ref_shape, finals) > ell.threshold
        assert outside.mean() == pytest.approx(1.0 - stats.containment[k], abs=1e-15)


@pytest.mark.parametrize("horizon", [1, 7, 20])
def test_streamed_statistics_equal_those_of_all_samples_at_once(ref_sys, ref_gain, ref_shape, horizon):
    # q at the horizon, recomputed from the final states by the kernel's
    # own quadratic form, is the sample the streamed sums took in; 600
    # trajectories span three blocks.  The mean adds them one at a time in
    # index order, as a mean down the rows of all samples does.
    ell = Ellipsoid(P=ref_shape, r=30.0)
    cfg = SimulationConfig(horizon=horizon, num_traj=600, seed=21)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg, ellipsoid=ell)
    q = sr.montecarlo._quadratic(sr.montecarlo._columns(ref_shape), stats.final_states.T)
    total = 0.0
    for value in q.tolist():
        total += value
    assert stats.q_mean[-1] == total / q.size
    assert stats.containment[-1] == (q <= ell.threshold).mean()
    assert stats.q_stderr[-1] == pytest.approx(q.std(ddof=1) / np.sqrt(q.size), rel=1e-12)


def test_reachable_sets_hold_empirically(ref_sys, ref_gain, ref_shape):
    # Each per-step set must miss at most an epsilon fraction, up to
    # three binomial standard errors.  Step k is checked at horizon k:
    # the draws of a shorter run are a prefix of a longer one's.
    epsilon = 0.2
    num_traj = 400
    horizon = 30
    rate = sr.min_contraction_rate(ref_shape, sr.vertex_matrices(ref_sys, ref_gain))
    rate_linear = sr.closed_loop_rate(ref_shape, ref_sys, ref_gain)
    noise = sr.noise_energy(ref_shape, ref_sys.W)
    r_lin = sr.linear_region_scaling(ref_shape, ref_gain.K, ref_sys.ubar, [0.0])
    profile = sr.select_rate(rate, rate_linear, noise, r_lin)
    sets = sr.prs_sequence(ref_shape, profile.rate_selected, noise, epsilon, horizon)
    slack = 3.0 * np.sqrt(epsilon * (1.0 - epsilon) / num_traj)
    for k in range(horizon + 1):
        cfg = SimulationConfig(horizon=max(k, 1), num_traj=num_traj, seed=2024)
        stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg, ellipsoid=sets[k])
        assert 1.0 - stats.containment[k] <= epsilon + slack


def _block_runs(monkeypatch, sys_, gain, cfg, ellipsoid):
    # The last block size runs twice: a rerun must give the same bits too.
    runs = []
    for size in (1, 7, cfg.num_traj, cfg.num_traj):
        monkeypatch.setattr(sr.montecarlo, "_BLOCK_SIZE", size)
        runs.append(sr.simulate_ensemble(sys_, gain, cfg, ellipsoid=ellipsoid))
    return runs


def _assert_bitwise_equal(runs):
    for stats in runs[1:]:
        for name in ("q_mean", "q_stderr", "final_states", "containment"):
            ours, theirs = getattr(stats, name), getattr(runs[0], name)
            assert np.array_equal(ours.view(np.uint64), theirs.view(np.uint64)), name


@pytest.mark.parametrize("kind", sr.montecarlo.NOISE_KINDS)
def test_ensemble_bitwise_invariant_to_block_size(monkeypatch, ref_gain, ref_shape, kind):
    # A non-diagonal W makes the noise factor a full triangle, not the identity.
    plant = sr.SystemSpec(
        A=[[0.89, 0.10], [0.10, 0.89]],
        B=[[0.0], [1.0]],
        W=[[2.0, 0.7], [0.7, 1.0]],
        ubar=[1.5],
    )
    assert np.count_nonzero(_noise_factor(plant.W)) == 3
    cfg = SimulationConfig(horizon=30, num_traj=23, seed=17, noise_kind=kind)
    ell = Ellipsoid(P=ref_shape, r=20.0)
    runs = _block_runs(monkeypatch, plant, ref_gain, cfg, ell)
    assert 0.0 < runs[0].containment[1:].min() < 1.0
    _assert_bitwise_equal(runs)


def test_ensemble_bitwise_invariant_to_block_size_when_saturated(monkeypatch):
    rng = np.random.default_rng(5)
    n, m, horizon = 3, 2, 25
    A = 0.8 * np.linalg.qr(rng.normal(size=(n, n)))[0]
    B = rng.normal(size=(n, m))
    K = -0.5 * np.linalg.pinv(B) @ A
    ubar = np.array([0.2, 0.3])
    plant = sr.SystemSpec(A=A, B=B, W=0.5 * np.eye(n) + 0.1, ubar=ubar)
    gain = sr.FeedbackGain(K=K)
    policy = rng.uniform(-0.5, 0.5, size=(horizon, m)) * ubar
    cfg = SimulationConfig(horizon=horizon, num_traj=19, seed=3, v_policy=policy)
    clipped = []
    saturate = sr.montecarlo.saturate

    def recording_saturate(u, bound):
        clipped.append(bool(np.any(np.abs(u) > bound)))
        return saturate(u, bound)

    monkeypatch.setattr(sr.montecarlo, "saturate", recording_saturate)
    runs = _block_runs(monkeypatch, plant, gain, cfg, Ellipsoid(P=np.eye(n), r=2.0))
    assert any(clipped)
    _assert_bitwise_equal(runs)


def _traced_peak(sys_, gain, num_traj):
    cfg = SimulationConfig(horizon=100, num_traj=num_traj, seed=0)
    ellipsoid = Ellipsoid(P=np.eye(sys_.n), r=10.0)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sr.simulate_ensemble(sys_, gain, cfg, ellipsoid=ellipsoid)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_ensemble_memory_grows_only_by_the_final_states(ref_sys, ref_gain):
    # The statistics are summed block by block, so 3000 more trajectories
    # may add only their final-state rows, not their q_k histories.
    _traced_peak(ref_sys, ref_gain, 10)
    small, large = (_traced_peak(ref_sys, ref_gain, count) for count in (1000, 4000))
    assert large - small <= 3000 * ref_sys.n * 8 + 256 * 1024


def test_wilson_upper_hand_computed():
    # z = 1.96, N = 100, f = 0.1: z^2/N = 0.038416, so the upper end is
    # (0.1 + 0.019208 + 1.96 * sqrt(0.0009 + 0.00009604)) / 1.038416.
    assert sr.montecarlo.wilson_upper(0.1, 100) == pytest.approx(0.1743673, abs=1e-7)
    # f = 0 leaves z^2/N / (1 + z^2/N) = 0.038416 / 1.038416.
    assert sr.montecarlo.wilson_upper(0.0, 100) == pytest.approx(0.0369948, abs=1e-7)
    assert sr.montecarlo.wilson_upper(1.0, 100) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        sr.montecarlo.wilson_upper(0.5, 0)
    with pytest.raises(ValueError):
        sr.montecarlo.wilson_upper(1.5, 10)
