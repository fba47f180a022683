"""Determinism, distributional sanity, and containment statistics."""

import os
import signal
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import assert_no_child_left, count_forks, error_step, fail_on_call, open_fds

import satreach as sr
from satreach import Ellipsoid, PreconditionError, SimulationConfig
from satreach.montecarlo import _draw_block, _noise_factor


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
        block = np.empty((1, 100_000, 2))
        _draw_block(kind, 99, 0, np.random.Generator(np.random.Philox(key=0)), block)
        draws = block[0] @ factor.T
        mean = draws.mean(axis=0)
        cov = np.cov(draws.T)
        assert np.max(np.abs(mean)) < 0.02, kind
        assert np.linalg.norm(cov - W) < 0.05, kind


def _keyed_rng(seed, index):
    # A list key holding 2**64 - 1 would be cast through float; a uint64
    # array keeps every word exact.
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


def _public_draws(kind, seed, index, shape):
    # The Generator's public samplers on trajectory index's stream.
    rng = _keyed_rng(seed, index)
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "uniform":
        return rng.uniform(-np.sqrt(3.0), np.sqrt(3.0), shape)
    return rng.integers(0, 2, shape) * 2.0 - 1.0


def test_rekeyed_generator_draws_equal_fresh_streams():
    # One Philox re-keyed between streams, each left mid-buffer (and, for
    # the Rademacher draws, holding a spare 32-bit half) by an odd-sized
    # draw, must give every stream's public draws from its first one on.
    rng = np.random.Generator(np.random.Philox(key=0))
    for seed in (3, 2**64 - 1):
        for index in range(12):
            kind = sr.montecarlo.NOISE_KINDS[index % 3]
            shape = (7, 1 + index % 3)
            block = np.empty((1,) + shape)
            _draw_block(kind, seed, index, rng, block)
            assert np.array_equal(block[0], _public_draws(kind, seed, index, shape)), (seed, index, kind)


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
        assert np.array_equal(final, _public_draws(kind, seed, index, (horizon, n))[-1]), index


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


def _dot(row, x):
    # sum_j row[j] x[j], added j = 0, 1, ... in the kernel's documented order.
    total = row[0] * x[0]
    for a, b in zip(row[1:], x[1:]):
        total += a * b
    return total


def _replay(sys_, gain, cfg, ellipsoid):
    """The ensemble recomputed one trajectory at a time in Python floats.

    Returns the final states, the mean of q_k, its containment frequency
    and the number of inputs that were clipped.
    """
    shape = np.eye(sys_.n) if ellipsoid is None else ellipsoid.P
    threshold = np.inf if ellipsoid is None else ellipsoid.threshold
    A, B, K, F, P = (M.tolist() for M in (sys_.A, sys_.B, gain.K, _noise_factor(sys_.W), shape))
    ubar = sys_.ubar.tolist()
    policy = np.zeros(sys_.m) if cfg.v_policy is None else cfg.v_policy
    inputs = np.broadcast_to(policy, (cfg.horizon, sys_.m)).tolist()
    sums = [0.0] * (cfg.horizon + 1)
    inside = [cfg.num_traj] + [0] * cfg.horizon
    finals, clipped = [], 0
    for index in range(cfg.num_traj):
        shocks = _public_draws(cfg.noise_kind, cfg.seed, index, (cfg.horizon, sys_.n)).tolist()
        e = [0.0] * sys_.n
        for k, (v, w) in enumerate(zip(inputs, shocks)):
            u = [_dot(row, e) + vi for row, vi in zip(K, v)]
            clipped += sum(abs(ui) > bound for ui, bound in zip(u, ubar))
            phi = [min(max(ui, -bound), bound) - vi for ui, bound, vi in zip(u, ubar, v)]
            e = [(_dot(a, e) + _dot(b, phi)) + _dot(f, w) for a, b, f in zip(A, B, F)]
            q = _dot([_dot(row, e) for row in P], e)
            sums[k + 1] += q
            inside[k + 1] += q <= threshold
        finals.append(e)
    return np.array(finals), np.array(sums) / cfg.num_traj, np.array(inside) / cfg.num_traj, clipped


def _force_block_size(monkeypatch, sys_, cfg, size):
    # The memory budget that holds exactly `size` trajectories per block.
    per_trajectory = sr.montecarlo._doubles_per_trajectory(sys_.n, sys_.m, cfg.horizon)
    monkeypatch.setattr(sr.montecarlo, "_BLOCK_DOUBLES", size * per_trajectory)


@pytest.mark.parametrize(
    "kind, n, m, ubar, policy, block",
    [
        ("gaussian", 2, 1, 10.0, "zero", 4),
        ("uniform", 3, 2, 0.2, "per-step", 7),
        ("rademacher_scaled", 3, 2, 0.2, "constant", 1),
        ("gaussian", 8, 3, 0.3, "per-step", 2),
        ("uniform", 9, 2, 0.3, "constant", 3),
        ("rademacher_scaled", 12, 4, 5.0, "zero", 3),
    ],
)
def test_ensemble_equals_pure_python_replay(monkeypatch, kind, n, m, ubar, policy, block):
    # Every bit of the statistics follows from the keyed streams and the
    # documented term order; the blocks are small enough that 10
    # trajectories span several of them.
    rng = np.random.default_rng(n + m)
    A = 0.9 * np.linalg.qr(rng.normal(size=(n, n)))[0]
    B = rng.normal(size=(n, m))
    factor = rng.normal(size=(n, n))
    plant = sr.SystemSpec(A=A, B=B, W=factor @ factor.T / n, ubar=np.full(m, ubar))
    gain = sr.FeedbackGain(K=-0.5 * np.linalg.pinv(B) @ A)
    horizon = 12
    v_policy = {
        "zero": None,
        "constant": rng.uniform(-0.5, 0.5, m) * ubar,
        "per-step": rng.uniform(-0.5, 0.5, (horizon, m)) * ubar,
    }[policy]
    cfg = SimulationConfig(horizon=horizon, num_traj=10, seed=2**64 - 7, noise_kind=kind, v_policy=v_policy)
    ell = Ellipsoid(P=np.eye(n) + 0.1, r=float(n))
    _force_block_size(monkeypatch, plant, cfg, block)
    stats = sr.simulate_ensemble(plant, gain, cfg, ellipsoid=ell)
    finals, q_mean, containment, clipped = _replay(plant, gain, cfg, ell)
    assert (clipped > 0) == (ubar < 1.0)
    assert 0.0 < containment[1:].mean() < 1.0
    assert np.array_equal(stats.final_states, finals)
    assert np.array_equal(stats.q_mean, q_mean)
    assert np.array_equal(stats.containment, containment)


def test_ensemble_matches_single_trajectory_replay(ref_sys, ref_gain):
    # With one trajectory the mean of q_k is that trajectory's q_k, to the bit.
    cfg = SimulationConfig(horizon=25, num_traj=1, seed=42)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    finals, q_mean, _, _ = _replay(ref_sys, ref_gain, cfg, None)
    assert np.array_equal(stats.q_mean, q_mean)
    assert np.array_equal(stats.final_states, finals)
    # A plain matrix-vector step agrees up to the order of its sums.
    shocks = _public_draws("gaussian", 42, 0, (25, 2))
    e = np.zeros(2)
    for k in range(25):
        e = error_step(e, [0.0], shocks[k], ref_sys, ref_gain)
        assert stats.q_mean[k + 1] == pytest.approx(e @ e, rel=1e-12)


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


@pytest.mark.parametrize("v_policy", [[np.nan], [np.inf], [[0.0]] * 4 + [[np.nan]]])
def test_ensemble_rejects_a_non_finite_nominal_input(monkeypatch, ref_sys, ref_gain, v_policy):
    # NaN passes |v| > ubar; it is refused before any trajectory is drawn.
    def no_draws(*args):
        raise AssertionError("drew before checking v_policy")

    monkeypatch.setattr(sr.montecarlo, "_draw_block", no_draws)
    cfg = SimulationConfig(horizon=5, num_traj=2, seed=0, v_policy=np.array(v_policy))
    with pytest.raises(ValueError, match="v_policy must be finite"):
        sr.simulate_ensemble(ref_sys, ref_gain, cfg)


def test_ensemble_rejects_a_non_finite_input():
    # K e overflows at the first noisy state; the step refuses to clip an
    # infinite input to ubar and go on.
    plant = sr.SystemSpec(A=[[0.5]], B=[[1.0]], W=[[1e300]], ubar=[1.0])
    gain = sr.FeedbackGain(K=[[-1e300]])
    cfg = SimulationConfig(horizon=5, num_traj=3, seed=0)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="u must be finite"):
        sr.simulate_ensemble(plant, gain, cfg)


@pytest.mark.parametrize("num_traj", [3, 1200], ids=["one-process", "forked"])
def test_an_overflowing_q_k_raises_without_a_warning(ref_sys, ref_gain, num_traj):
    # The state stays finite, but q_k^2 overflows, so the standard error
    # would not be finite.  The ensemble raises, and warns of no overflow on
    # the way (the test configuration turns a RuntimeWarning into an error).
    plant = sr.SystemSpec(A=ref_sys.A, B=ref_sys.B, W=1e305 * np.eye(2), ubar=ref_sys.ubar)
    cfg = SimulationConfig(horizon=100, num_traj=num_traj, seed=0)
    with pytest.raises(ValueError, match="not finite"):
        sr.simulate_ensemble(plant, ref_gain, cfg)


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
def test_streamed_statistics_equal_those_of_all_samples_at_once(
    monkeypatch, ref_sys, ref_gain, ref_shape, horizon
):
    # q at the horizon, recomputed from the final states in the kernel's
    # term order, is the sample the streamed sums took in; 600
    # trajectories span three blocks.  The mean adds them one at a time in
    # index order, as a mean down the rows of all samples does.
    ell = Ellipsoid(P=ref_shape, r=30.0)
    cfg = SimulationConfig(horizon=horizon, num_traj=600, seed=21)
    _force_block_size(monkeypatch, ref_sys, cfg, 256)
    stats = sr.simulate_ensemble(ref_sys, ref_gain, cfg, ellipsoid=ell)
    shape = ref_shape.tolist()
    q = np.array([_dot([_dot(row, x) for row in shape], x) for x in stats.final_states.tolist()])
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
        _force_block_size(monkeypatch, sys_, cfg, size)
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
    # From n = 8 on, NumPy sums the terms of a narrow block's products in
    # another order than a wide block's unless the kernel fixes it.
    rng = np.random.default_rng(5)
    horizon = 25
    for n, m, kind in ((3, 2, "gaussian"), (8, 3, "gaussian"), (9, 2, "uniform"), (12, 4, "rademacher_scaled")):
        A = 0.8 * np.linalg.qr(rng.normal(size=(n, n)))[0]
        B = rng.normal(size=(n, m))
        K = -0.5 * np.linalg.pinv(B) @ A
        ubar = rng.uniform(0.2, 0.3, m)
        plant = sr.SystemSpec(A=A, B=B, W=0.5 * np.eye(n) + 0.1, ubar=ubar)
        gain = sr.FeedbackGain(K=K)
        policy = rng.uniform(-0.5, 0.5, size=(horizon, m)) * ubar
        cfg = SimulationConfig(horizon=horizon, num_traj=19, seed=3, noise_kind=kind, v_policy=policy)
        ellipsoid = Ellipsoid(P=np.eye(n), r=2.0)
        runs = _block_runs(monkeypatch, plant, gain, cfg, ellipsoid)
        _assert_bitwise_equal(runs)
        # The inputs were clipped: a budget no input reaches gives other states.
        loose = sr.SystemSpec(A=A, B=B, W=plant.W, ubar=np.full(m, 1e6))
        unclipped = sr.simulate_ensemble(loose, gain, cfg, ellipsoid=ellipsoid)
        assert not np.array_equal(unclipped.final_states, runs[0].final_states), n


def _force_processes(monkeypatch, cpus):
    # Forks at any ensemble size, as if `cpus` CPUs were free.
    monkeypatch.setattr(sr.montecarlo, "_FORK_MIN_TRAJ_STEPS", 0)
    monkeypatch.setattr(sr.forked.os, "sched_getaffinity", lambda pid: set(range(cpus)))


# Platform, Python threads, blocks, trajectory-steps and CPUs, and whether
# one worker forks; the threshold is the shipped _FORK_MIN_TRAJ_STEPS.
FORK_TABLE = [
    ("linux", 1, 2, 30_000, 2, True),
    ("linux", 1, 3, 10**6, 64, True),
    ("linux", 1, 64, 10**6, 3, True),
    ("linux", 1, 1, 10**6, 64, False),
    ("linux", 1, 2, 29_999, 2, False),
    ("linux", 2, 2, 10**6, 2, False),
    ("linux", 1, 2, 10**6, 1, False),
    ("darwin", 1, 2, 10**6, 2, False),
]


def test_at_most_two_processes_step_an_ensemble(monkeypatch):
    assert sr.montecarlo._FORK_MIN_TRAJ_STEPS == 30_000
    for platform, threads, blocks, traj_steps, cpus, forks in FORK_TABLE:
        monkeypatch.setattr(sr.forked, "platform", platform)
        monkeypatch.setattr(sr.forked.threading, "active_count", lambda: threads)
        monkeypatch.setattr(sr.forked.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        decided = sr.forked.may_fork(blocks, traj_steps, sr.montecarlo._FORK_MIN_TRAJ_STEPS)
        assert decided is forks, (platform, threads, blocks, traj_steps, cpus)


def _alone_then_forced_to_fork(monkeypatch, sys_, gain):
    # The one-process run of 23 trajectories in six blocks of 4, then forking
    # forced on 2 CPUs for the next run.
    cfg = SimulationConfig(horizon=30, num_traj=23, seed=17)
    ell = Ellipsoid(P=np.eye(2), r=20.0)
    _force_block_size(monkeypatch, sys_, cfg, 4)
    _force_processes(monkeypatch, 1)
    alone = sr.simulate_ensemble(sys_, gain, cfg, ellipsoid=ell)
    _force_processes(monkeypatch, 2)
    return lambda: sr.simulate_ensemble(sys_, gain, cfg, ellipsoid=ell), alone


@pytest.mark.parametrize(
    "target, name, call",
    [(os, "pipe", 1), (os, "fork", 1)],
    ids=["first-pipe", "fork"],
)
def test_a_refused_fork_leaves_every_block_to_the_caller(monkeypatch, ref_sys, ref_gain, target, name, call):
    run, alone = _alone_then_forced_to_fork(monkeypatch, ref_sys, ref_gain)
    calls = fail_on_call(monkeypatch, target, name, call)
    before = open_fds()
    refused = run()
    assert len(calls) == call
    assert open_fds() == before
    assert_no_child_left()
    _assert_bitwise_equal([alone, refused])


def _killed_in_its_write(monkeypatch, sys_, gain, cut):
    # The forced two-process run, in which the worker's n-th write of a
    # block's `size` bytes writes only the first cut(n, size) of them and
    # kills the worker, or, where cut returns None, writes them all and
    # goes on; returns the first trajectory of each block the caller stepped.
    run, alone = _alone_then_forced_to_fork(monkeypatch, sys_, gain)
    forks = count_forks(monkeypatch)
    caller, real_writev, real_draw = os.getpid(), os.writev, sr.montecarlo._draw_block
    writes, drawn = [], []

    def dying_writev(fd, buffers):
        if os.getpid() == caller:
            return real_writev(fd, buffers)
        writes.append(1)
        data = b"".join(buffers)
        end = cut(len(writes), len(data))
        if end is None:
            return real_writev(fd, buffers)
        os.write(fd, data[:end])
        os.kill(os.getpid(), signal.SIGKILL)

    def counted_draw(kind, seed, start, rng, block):
        if os.getpid() == caller:
            drawn.append(start)
        real_draw(kind, seed, start, rng, block)

    monkeypatch.setattr(sr.forked.os, "writev", dying_writev)
    monkeypatch.setattr(sr.montecarlo, "_draw_block", counted_draw)
    killed = run()
    assert forks == [1]
    assert_no_child_left()
    _assert_bitwise_equal([alone, killed])
    return drawn


def test_a_killed_worker_leaves_its_later_blocks_to_the_caller(monkeypatch, ref_sys, ref_gain):
    # The worker writes all of block 1 and is killed.
    drawn = _killed_in_its_write(monkeypatch, ref_sys, ref_gain, lambda n, size: size)
    # Blocks of 4 start at 0, 4, ..., 20; the worker stepped only block 1.
    assert drawn == [0, 8, 12, 16, 20]


def test_a_worker_killed_partway_through_a_block_leaves_it_to_the_caller(monkeypatch, ref_sys, ref_gain):
    # The worker writes all of block 1, then the length word and part of
    # block 3, and is killed.
    drawn = _killed_in_its_write(monkeypatch, ref_sys, ref_gain, lambda n, size: None if n == 1 else size // 2)
    # Block 3, cut short in the pipe, falls to the caller with block 5.
    assert drawn == [0, 8, 12, 16, 20]


def test_forks_only_without_a_thread_on_several_cpus_and_reaps(monkeypatch, ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=30, num_traj=23, seed=17)
    _force_block_size(monkeypatch, ref_sys, cfg, 4)
    forks = count_forks(monkeypatch)
    _force_processes(monkeypatch, 1)
    sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    _force_processes(monkeypatch, 2)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    finally:
        release.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    assert forks == [1]
    assert_no_child_left()


def _overflowing_plant():
    # |K e| overflows once |e| passes ~4e8, four standard deviations of
    # the first step's noise, so only some trajectories raise.
    return sr.SystemSpec(A=[[0.5]], B=[[1.0]], W=[[1e16]], ubar=[1.0]), sr.FeedbackGain(K=[[-4.5e299]])


def _raises(step, start, horizon):
    try:
        step(start, np.empty((1, horizon + 1)), np.empty((1, 1)))
    except ValueError:
        return True
    return False


# The block the first raising trajectory falls in, of how many: block 2 is
# the caller's, block 1 the worker's first, and block 3 the worker's second,
# which the worker fails after it has written block 1 and before the caller
# has read it; no later block raises, so only the caller's own stepping of
# the failed block can.  A worker that has stopped must not raise SIGPIPE
# in the caller, whose default action would kill it; a recording handler
# stands in for that action.
@pytest.mark.parametrize("failing, blocks", [(2, 4), (1, 2), (3, 6)])
def test_a_diverging_block_raises_alike_in_one_and_two_processes(monkeypatch, failing, blocks):
    sigpipes = []
    previous = signal.signal(signal.SIGPIPE, lambda *frame: sigpipes.append(1))
    try:
        _diverge_in_one_and_two_processes(monkeypatch, failing, blocks)
    finally:
        signal.signal(signal.SIGPIPE, previous)
    assert sigpipes == []


def _diverge_in_one_and_two_processes(monkeypatch, failing, blocks):
    plant, gain = _overflowing_plant()
    caller = os.getpid()
    real_saturate = sr.montecarlo.saturate
    pending = []

    def slow_caller(u, ubar):
        # The worker runs ahead while the caller's first step waits.
        if os.getpid() == caller and pending:
            pending.pop()
            time.sleep(0.2)
        return real_saturate(u, ubar)

    cfg = SimulationConfig(horizon=30, num_traj=400, seed=0)
    errors = []
    with np.errstate(over="ignore", invalid="ignore"):
        # The first trajectory that raises when stepped alone.
        step = sr.montecarlo._block_stepper(plant, gain, cfg, np.eye(1), 1)
        first = next(i for i in range(cfg.num_traj) if _raises(step, i, cfg.horizon))
        size = 2 * first // (2 * failing + 1)
        cfg = SimulationConfig(horizon=30, num_traj=blocks * size, seed=0)
        _force_block_size(monkeypatch, plant, cfg, size)
        monkeypatch.setattr(sr.montecarlo, "saturate", slow_caller)
        for cpus in (1, 2):
            _force_processes(monkeypatch, cpus)
            pending.append(1)
            with pytest.raises(ValueError) as raised:
                sr.simulate_ensemble(plant, gain, cfg)
            errors.append(str(raised.value))
            assert_no_child_left()
    assert first // size == failing
    assert errors == ["u must be finite"] * 2


def test_an_interrupted_caller_leaves_no_child(monkeypatch, ref_sys, ref_gain):
    cfg = SimulationConfig(horizon=30, num_traj=23, seed=17)
    _force_block_size(monkeypatch, ref_sys, cfg, 4)
    _force_processes(monkeypatch, 2)
    forks = count_forks(monkeypatch)
    caller = os.getpid()
    real_saturate = sr.montecarlo.saturate
    calls = []

    def interrupted(u, ubar):
        # Mid-way through the caller's second block; workers step on.
        if os.getpid() == caller:
            calls.append(1)
            if len(calls) == 40:
                raise KeyboardInterrupt
        return real_saturate(u, ubar)

    monkeypatch.setattr(sr.montecarlo, "saturate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        sr.simulate_ensemble(ref_sys, ref_gain, cfg)
    assert forks == [1]
    assert_no_child_left()


# Run with OpenBLAS's thread pool alive, as NumPy starts it unless
# OPENBLAS_NUM_THREADS=1: the ensemble forks beside that native thread, and
# its statistics equal the one-process run's.
NATIVE_THREADS_RUN = """
import os
import numpy as np
import satreach as sr

threads = len(os.listdir("/proc/self/task"))
plant = sr.SystemSpec(A=[[0.9, 0.2], [0.0, 0.8]], B=[[0.0], [1.0]], W=[[0.01, 0.0], [0.0, 0.02]], ubar=[0.5])
gain = sr.FeedbackGain(K=[[-0.3, -0.6]])
cfg = sr.SimulationConfig(horizon=100, num_traj=1000, seed=5)
ellipsoid = sr.Ellipsoid(P=np.eye(2), r=0.5)
real_fork, forks = os.fork, []
os.fork = lambda: forks.append(1) or real_fork()
runs = []
for cpus in ({0}, {0, 1}):
    os.sched_getaffinity = lambda pid: cpus
    runs.append(sr.simulate_ensemble(plant, gain, cfg, ellipsoid=ellipsoid))
same = all(
    np.array_equal(getattr(runs[0], name).view(np.uint64), getattr(runs[1], name).view(np.uint64))
    for name in ("q_mean", "q_stderr", "final_states", "containment")
)
try:
    os.waitpid(-1, os.WNOHANG)
    left = True
except ChildProcessError:
    left = False
print(threads, len(forks), same, left)
"""


def test_forks_beside_a_native_blas_thread():
    src = str(Path(sr.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    run = subprocess.run([sys.executable, "-c", NATIVE_THREADS_RUN], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    threads, forks, same, left = run.stdout.split()
    if threads == "1":
        pytest.skip("NumPy's BLAS started no thread pool")
    assert (forks, same, left) == ("1", "True", "False")


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
