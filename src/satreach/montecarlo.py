"""Monte Carlo validation of the expectation bounds and reachable sets.

Trajectories of the saturated error recursion are simulated under
zero-mean unit-variance noise shaped by a factor of W.  Every trajectory
draws from its own counter-based stream keyed by (seed, trajectory index),
and the ensemble is stepped in fixed-size blocks of trajectories whose
matrix products are summed in a fixed order, so results are bitwise
reproducible no matter how the trajectory set is split into blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .model import FeedbackGain, SystemSpec, saturate
from .sets import Ellipsoid

NOISE_KINDS = ("gaussian", "uniform", "rademacher_scaled")

_UNIFORM_HALF_WIDTH = float(np.sqrt(3.0))

# Trajectories stepped together as one (n, c) array.  The block's raw draw
# buffer holds horizon * n * c doubles: 1.2 MiB for 100 steps of n = 6.
# Stepping all 1000 trajectories of the mc-demo benchmark as one block was
# faster but raised its peak resident memory by 5 %.
_BLOCK_SIZE = 256

# Two-sided 95 % standard normal quantile of the Wilson score interval.
_WILSON_Z = 1.96


@dataclass(frozen=True)
class SimulationConfig:
    """Ensemble parameters.

    v_policy is None for a zero nominal input, a length-m vector for a
    constant one, or a (horizon, m) array giving one input per step.
    `workers` is validated and recorded for compatibility with existing
    configs; it starts no threads and never affects the results.
    """

    horizon: int
    num_traj: int
    seed: int
    noise_kind: str = "gaussian"
    v_policy: np.ndarray | None = None
    workers: int = 1

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least one step")
        if self.num_traj < 1:
            raise ValueError("need at least one trajectory")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if self.v_policy is not None:
            policy = np.asarray(self.v_policy, dtype=float)
            if policy.ndim not in (1, 2):
                raise ValueError("v_policy must be a vector or a (horizon, m) array")
            policy.setflags(write=False)
            object.__setattr__(self, "v_policy", policy)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-step ensemble summaries of q_k = e_k' P e_k.

    q_samples keeps the full (num_traj, horizon + 1) sample of the
    quadratic form so violation rates against any ellipsoid sharing the
    same shape matrix can be evaluated after the fact.  containment is the
    per-step membership frequency for the ellipsoid supplied at simulation
    time, or None when none was supplied.
    """

    shape_matrix: np.ndarray
    q_mean: np.ndarray
    q_stderr: np.ndarray
    q_samples: np.ndarray
    final_states: np.ndarray
    containment: np.ndarray | None
    horizon: int
    num_traj: int
    seed: int
    noise_kind: str


def noise_factor(W) -> np.ndarray:
    """Factor M with M M' = W, by Cholesky or eigenvalue square root.

    Singular positive semidefinite covariances fall back to the eigenvalue
    square root with small negative eigenvalues clipped; genuinely
    indefinite input is rejected.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"W must be square, got shape {W.shape}")
    W = 0.5 * (W + W.T)
    try:
        return np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(W)
        scale = max(1.0, float(eigvals[-1]))
        if eigvals[0] < -1e-9 * scale:
            raise ValueError("W must be positive semidefinite")
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _standard_draw(kind: str, rng: np.random.Generator, shape) -> np.ndarray:
    # Every kind has zero mean and identity covariance before shaping.
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, shape)
    if kind == "rademacher_scaled":
        return rng.integers(0, 2, shape).astype(float) * 2.0 - 1.0
    raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")


def sample_noise(kind: str, W, rng: np.random.Generator, size: int | None = None) -> np.ndarray:
    """Draw zero-mean noise with covariance W from the given generator.

    Returns a length-n vector, or a (size, n) block when size is given.
    """
    factor = noise_factor(W)
    if size is None:
        return factor @ _standard_draw(kind, rng, factor.shape[0])
    if size < 1:
        raise ValueError("size must be positive")
    return _standard_draw(kind, rng, (size, factor.shape[0])) @ factor.T


def trajectory_rng(seed: int, index: int) -> np.random.Generator:
    """Counter-based stream for one trajectory, independent of all others."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=seed, spawn_key=(index,)))
    )


def _nominal_inputs(cfg: SimulationConfig, sys: SystemSpec) -> np.ndarray:
    policy = cfg.v_policy
    if policy is None:
        return np.zeros((cfg.horizon, sys.m))
    if policy.ndim == 1:
        if policy.shape != (sys.m,):
            raise ValueError(f"constant v_policy must have length {sys.m}")
        table = np.tile(policy, (cfg.horizon, 1))
    else:
        if policy.shape != (cfg.horizon, sys.m):
            raise ValueError(f"v_policy sequence must have shape {(cfg.horizon, sys.m)}")
        table = policy
    if np.any(np.abs(table) > sys.ubar):
        raise PreconditionError("nominal input exceeds the saturation budget")
    return table


def _columns(M: np.ndarray) -> np.ndarray:
    """The columns of M as a (k, r, 1) stack, the operand of _product."""
    return np.ascontiguousarray(M.T)[:, :, None]


def _product(columns: np.ndarray, XT: np.ndarray) -> np.ndarray:
    """M @ X for a block X held as (k, c), one column per trajectory.

    Element (i, t) is sum_j M[i, j] X[j, t], added up j = 0, 1, ... one term
    at a time whatever the block width c, so a trajectory's bits never
    depend on the block it is stepped in.  BLAS products do not promise
    that: their rows differ between batch sizes 1 and N.
    """
    terms = columns * XT[:, None, :]
    out = terms[0]
    for j in range(1, len(terms)):
        out += terms[j]
    return out


def _quadratic(P_columns: np.ndarray, XT: np.ndarray) -> np.ndarray:
    """x' P x for every column x of a (n, c) block, in the same fixed order."""
    PX = _product(P_columns, XT)
    q = PX[0] * XT[0]
    for j in range(1, len(XT)):
        q += PX[j] * XT[j]
    return q


def simulate_ensemble(
    sys: SystemSpec,
    gain: FeedbackGain,
    cfg: SimulationConfig,
    shape_matrix=None,
    ellipsoid: Ellipsoid | None = None,
) -> EnsembleStats:
    """Simulate the error recursion from e_0 = 0 across the ensemble.

    The quadratic form is measured against `shape_matrix` when given, else
    against the shape of `ellipsoid`, else against the identity.  The
    trajectories are stepped in blocks of at most _BLOCK_SIZE, and every
    trajectory's arithmetic runs in a fixed order, so the statistics are
    bitwise independent of the block size and of the worker count.
    """
    if gain.K.shape != (sys.m, sys.n):
        raise ValueError(f"gain must have shape {(sys.m, sys.n)}")
    if shape_matrix is None:
        P = np.eye(sys.n) if ellipsoid is None else ellipsoid.P
    else:
        P = np.asarray(shape_matrix, dtype=float)
        if P.shape != (sys.n, sys.n):
            raise ValueError(f"shape matrix must be {sys.n}-by-{sys.n}")
    if ellipsoid is not None and not np.allclose(ellipsoid.P, P, rtol=1e-9, atol=1e-12):
        raise ValueError("ellipsoid must share the shape matrix used for q")
    inputs = _nominal_inputs(cfg, sys)
    Ac, Bc, Kc, Fc, Pc = (
        _columns(M) for M in (sys.A, sys.B, gain.K, noise_factor(sys.W), P)
    )
    steps = cfg.horizon
    qs = np.zeros((cfg.num_traj, steps + 1))
    finals = np.empty((cfg.num_traj, sys.n))
    # The block is held transposed, one row per state and one column per
    # trajectory, so every product runs on contiguous rows.  One raw draw
    # buffer is reused by every block; the noise is shaped one step at a
    # time so no (horizon, n, c) shock block is ever held.
    size = min(_BLOCK_SIZE, cfg.num_traj)
    draws = np.empty((steps, sys.n, size))

    for start in range(0, cfg.num_traj, size):
        rows = slice(start, min(start + size, cfg.num_traj))
        count = rows.stop - start
        for t in range(count):
            rng = trajectory_rng(cfg.seed, start + t)
            draws[:, :, t] = _standard_draw(cfg.noise_kind, rng, (steps, sys.n))
        e = np.zeros((sys.n, count))
        for k in range(steps):
            v = inputs[k][:, None]
            u = _product(Kc, e) + v
            e = (
                _product(Ac, e)
                + _product(Bc, saturate(u.T, sys.ubar).T - v)
                + _product(Fc, draws[k, :, :count])
            )
            qs[rows, k + 1] = _quadratic(Pc, e)
        finals[rows] = e.T

    q_mean = qs.mean(axis=0)
    if cfg.num_traj > 1:
        q_stderr = qs.std(axis=0, ddof=1) / np.sqrt(cfg.num_traj)
    else:
        q_stderr = np.zeros(steps + 1)
    containment = None
    if ellipsoid is not None:
        containment = (qs <= ellipsoid.threshold).mean(axis=0)
    return EnsembleStats(
        shape_matrix=P,
        q_mean=q_mean,
        q_stderr=q_stderr,
        q_samples=qs,
        final_states=finals,
        containment=containment,
        horizon=steps,
        num_traj=cfg.num_traj,
        seed=cfg.seed,
        noise_kind=cfg.noise_kind,
    )


def violation_rate(stats: EnsembleStats, ellipsoid: Ellipsoid, k: int) -> float:
    """Fraction of trajectories outside the ellipsoid at step k.

    The ellipsoid must share the shape matrix the statistics were measured
    against; membership then reduces to a threshold on the stored samples.
    """
    if not 0 <= k <= stats.horizon:
        raise ValueError(f"step must lie in [0, {stats.horizon}], got {k}")
    if not np.allclose(ellipsoid.P, stats.shape_matrix, rtol=1e-9, atol=1e-12):
        raise ValueError("ellipsoid shape matrix does not match the statistics")
    return float(np.mean(stats.q_samples[:, k] > ellipsoid.threshold))


def wilson_upper(frequency: float, trials: int) -> float:
    """Upper end of the 95 % Wilson score interval of a binomial frequency.

    The interval holds every p with |frequency - p| <= z sqrt(p (1 - p) / trials)
    (Wilson, JASA 1927); unlike the normal interval it stays informative
    when the observed frequency is 0.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if not 0.0 <= frequency <= 1.0:
        raise ValueError(f"frequency must lie in [0, 1], got {frequency}")
    z2 = _WILSON_Z * _WILSON_Z / trials
    spread = _WILSON_Z * np.sqrt(frequency * (1.0 - frequency) / trials + z2 / (4.0 * trials))
    return float(min(1.0, (frequency + z2 / 2.0 + spread) / (1.0 + z2)))
