"""Determinism, distributional sanity, and containment statistics."""

import numpy as np
import pytest

import satreach as sr
from satreach import Ellipsoid, PreconditionError, SimulationConfig


def test_noise_factor_identity_and_reconstruction():
    assert np.array_equal(sr.noise_factor(np.eye(3)), np.eye(3))
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    F = sr.noise_factor(W)
    assert np.allclose(F @ F.T, W, rtol=1e-12, atol=1e-14)


def test_noise_factor_handles_singular_covariance():
    v = np.array([[1.0], [2.0]])
    W = v @ v.T
    F = sr.noise_factor(W)
    assert np.allclose(F @ F.T, W, rtol=0.0, atol=1e-12)


def test_noise_factor_rejects_indefinite():
    with pytest.raises(ValueError):
        sr.noise_factor(np.diag([1.0, -0.5]))
    with pytest.raises(ValueError):
        sr.noise_factor(np.ones((2, 3)))


def test_sample_noise_zero_covariance():
    rng = np.random.default_rng(0)
    assert np.array_equal(sr.sample_noise("gaussian", np.zeros((2, 2)), rng), [0.0, 0.0])


def test_sample_noise_block_shape():
    rng = np.random.default_rng(0)
    block = sr.sample_noise("uniform", np.eye(3), rng, size=17)
    assert block.shape == (17, 3)


def test_sample_noise_moments_every_kind():
    W = np.array([[2.0, 0.5], [0.5, 1.0]])
    for kind in sr.montecarlo.NOISE_KINDS:
        rng = np.random.default_rng(99)
        draws = sr.sample_noise(kind, W, rng, size=100_000)
        mean = draws.mean(axis=0)
        cov = np.cov(draws.T)
        assert np.max(np.abs(mean)) < 0.02, kind
        assert np.linalg.norm(cov - W) < 0.05, kind


def test_sample_noise_rejects_unknown_kind():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sr.sample_noise("cauchy", np.eye(2), rng)


def test_trajectory_rng_is_stable_and_distinct():
    a = sr.trajectory_rng(123, 7).standard_normal(8)
    b = sr.trajectory_rng(123, 7).standard_normal(8)
    c = sr.trajectory_rng(123, 8).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_simulation_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig(horizon=0, num_traj=1, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=0, seed=0)
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=1, seed=-1)
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=1, seed=0, noise_kind="cauchy")
    with pytest.raises(ValueError):
        SimulationConfig(horizon=1, num_traj=1, seed=0, workers=0)


def test_ensemble_matches_single_trajectory_replay(ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=25, num_traj=1, seed=42)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg, shape_matrix=np.eye(2))
    rng = sr.trajectory_rng(42, 0)
    shocks = sr.sample_noise("gaussian", ref_sys.W, rng, size=25)
    e = np.zeros(2)
    for k in range(25):
        e = sr.error_step(e, [0.0], shocks[k], ref_sys, ref_gain)
        assert stats.q_samples[0, k + 1] == pytest.approx(e @ e, rel=1e-12)
    assert np.allclose(stats.final_states[0], e, rtol=1e-12, atol=0.0)


def test_ensemble_statistics_start_at_zero(ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=10, num_traj=20, seed=1)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    assert np.all(stats.q_samples[:, 0] == 0.0)
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
    assert np.all(stats.q_samples == 0.0)
    assert np.all(stats.final_states == 0.0)


def test_ensemble_bitwise_deterministic_across_workers(ref_sys, ref_gain):
    base = SimulationConfig(horizon=20, num_traj=30, seed=7)
    runs = [
        sr.simulate_ensemble(
            ref_sys,
            ref_gain,
            SimulationConfig(horizon=20, num_traj=30, seed=7, workers=w),
        )
        for w in (1, 3, 8)
    ]
    again = sr.simulate_ensemble(ref_sys, ref_gain, base)
    for stats in runs + [again]:
        assert np.array_equal(stats.q_samples, runs[0].q_samples)
        assert np.array_equal(stats.final_states, runs[0].final_states)


def test_ensemble_seed_changes_results(ref_sys, ref_gain):
    a = sr.simulate_ensemble(
        ref_sys, ref_gain, SimulationConfig(horizon=10, num_traj=5, seed=0)
    )
    b = sr.simulate_ensemble(
        ref_sys, ref_gain, SimulationConfig(horizon=10, num_traj=5, seed=1)
    )
    assert not np.array_equal(a.q_samples, b.q_samples)


def test_ensemble_constant_nominal_input_matches_zero_policy(ref_sys, ref_gain):
    # Inside the linear regime the nominal input cancels out of the error
    # recursion, so an explicit zero policy must match the default exactly.
    cfg_default = SimulationConfig(horizon=12, num_traj=8, seed=5)
    cfg_zero = SimulationConfig(
        horizon=12, num_traj=8, seed=5, v_policy=np.zeros(1)
    )
    a = sr.simulate_ensemble(ref_sys, ref_gain, cfg_default)
    b = sr.simulate_ensemble(ref_sys, ref_gain, cfg_zero)
    assert np.array_equal(a.q_samples, b.q_samples)


def test_ensemble_rejects_oversized_nominal_input(ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=5, num_traj=2, seed=0, v_policy=np.array([11.0]))
    with pytest.raises(PreconditionError):
        sr.simulate_ensemble(ref_sys, ref_gain, cfg)


def test_ensemble_rejects_mismatched_ellipsoid_shape(ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=5, num_traj=2, seed=0)
    ell = Ellipsoid(P=np.diag([1.0, 2.0]), r=10.0)
    with pytest.raises(ValueError):
        sr.simulate_ensemble(ref_sys, ref_gain, cfg, shape_matrix=np.eye(2), ellipsoid=ell)


def test_violation_rate_extremes(ref_sys, ref_gain, ref_shape):
    cfg = SimulationConfig(horizon=10, num_traj=50, seed=11)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg, shape_matrix=ref_shape)
    huge = Ellipsoid(P=ref_shape, r=1e12)
    tiny = Ellipsoid(P=ref_shape, r=0.0)
    assert sr.violation_rate(stats, huge, 10) == 0.0
    assert sr.violation_rate(stats, tiny, 10) == 1.0
    assert sr.violation_rate(stats, tiny, 0) == 0.0


def test_violation_rate_matches_containment(ref_sys, ref_gain, ref_shape):
    ell = Ellipsoid(P=ref_shape, r=100.0)
    cfg = SimulationConfig(horizon=10, num_traj=50, seed=13)
    stats = sr.simulate_ensemble(
        ref_sys, ref_gain, cfg, shape_matrix=ref_shape, ellipsoid=ell
    )
    for k in (0, 3, 10):
        assert sr.violation_rate(stats, ell, k) == pytest.approx(
            1.0 - stats.containment[k], abs=1e-15
        )


def test_violation_rate_validation(ref_sys, ref_gain, ref_shape):
    cfg = SimulationConfig(horizon=5, num_traj=4, seed=0)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg, shape_matrix=ref_shape)
    with pytest.raises(ValueError):
        sr.violation_rate(stats, Ellipsoid(P=ref_shape, r=1.0), 6)
    with pytest.raises(ValueError):
        sr.violation_rate(stats, Ellipsoid(P=np.eye(2), r=1.0), 2)


def test_reachable_sets_hold_empirically(ref_sys, ref_gain, ref_shape):
    # Each per-step set must miss at most an epsilon fraction, up to
    # three binomial standard errors.
    epsilon = 0.2
    num_traj = 400
    horizon = 30
    rate = sr.min_contraction_rate(ref_shape, sr.vertex_matrices(ref_sys, ref_gain))
    rate_linear = sr.closed_loop_rate(ref_shape, ref_sys, ref_gain)
    noise = sr.noise_energy(ref_shape, ref_sys.W)
    r_lin = sr.linear_region_scaling(ref_shape, ref_gain.K, ref_sys.ubar, [0.0])
    profile = sr.select_rate(rate, rate_linear, noise, r_lin)
    sets = sr.prs_sequence(ref_shape, profile.rate_selected, noise, epsilon, horizon)
    cfg = SimulationConfig(horizon=horizon, num_traj=num_traj, seed=2024)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg, shape_matrix=ref_shape)
    slack = 3.0 * np.sqrt(epsilon * (1.0 - epsilon) / num_traj)
    for k in range(horizon + 1):
        assert sr.violation_rate(stats, sets[k], k) <= epsilon + slack


def _block_runs(monkeypatch, sys_, gain, cfg, ellipsoid):
    runs = []
    for size in (1, 7, cfg.num_traj):
        monkeypatch.setattr(sr.montecarlo, "_BLOCK_SIZE", size)
        runs.append(
            sr.simulate_ensemble(
                sys_, gain, cfg, shape_matrix=ellipsoid.P, ellipsoid=ellipsoid
            )
        )
    return runs


def _assert_bitwise_equal(runs):
    for stats in runs[1:]:
        for name in ("q_samples", "final_states", "containment"):
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
    assert np.count_nonzero(sr.noise_factor(plant.W)) == 3
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
