"""Monte Carlo validation of the expectation bounds and reachable sets.

Trajectories of the saturated error recursion are simulated under
zero-mean unit-variance noise shaped by a factor of W; the kernel's own
draw is the only noise sampler.  Trajectory i of an ensemble seeded
`seed` draws from the counter-based Philox stream whose two 64-bit key
words are [seed, i]; Philox gives every distinct key its own stream.  One
Philox generator is re-keyed to each trajectory at counter 0 instead of
being rebuilt.  The supported ensemble size is at most 2**32
trajectories.  The nominal input must keep |v_i| <= ubar_i at every
step; the command line further holds it within the analysis' vbar.  The
ensemble is stepped in fixed-size blocks of trajectories whose matrix
products are summed in a fixed order, and the per-step sums behind the
statistics take each block's trajectories in index order, so results
are bitwise reproducible no matter how the trajectory set is split into
blocks.  No block outlives its step loop: the ensemble holds
O(block x horizon + num_traj x n) doubles.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .model import FeedbackGain, SystemSpec, _check_gain, saturate
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

_MAX_STREAMS = 2 ** 32


@dataclass(frozen=True)
class SimulationConfig:
    """Ensemble parameters.

    v_policy is None for a zero nominal input, a length-m vector for a
    constant one, or a (horizon, m) array giving one input per step.
    """

    horizon: int = 100
    num_traj: int = 1000
    seed: int = 0
    noise_kind: str = "gaussian"
    v_policy: np.ndarray | None = None

    def __post_init__(self):
        if self.horizon < 1:
            raise ValueError("horizon must be at least one step")
        if not 1 <= self.num_traj <= _MAX_STREAMS:
            raise ValueError(f"num_traj must lie in [1, {_MAX_STREAMS}]")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in an unsigned 64-bit integer")
        if self.noise_kind not in NOISE_KINDS:
            raise ValueError(f"noise_kind must be one of {NOISE_KINDS}")
        if self.v_policy is not None:
            policy = np.asarray(self.v_policy, dtype=float)
            policy.setflags(write=False)
            object.__setattr__(self, "v_policy", policy)


@dataclass(frozen=True)
class EnsembleStats:
    """Per-step ensemble summaries of q_k = e_k' P e_k.

    q_mean and q_stderr are the sample mean of q_k and its standard error;
    containment is the per-step membership frequency for the ellipsoid
    supplied at simulation time, or None when none was supplied.
    final_states holds e at the horizon, one row per trajectory.  The
    samples of q_k are summed as they are made and not kept.
    """

    q_mean: np.ndarray
    q_stderr: np.ndarray
    final_states: np.ndarray
    containment: np.ndarray | None


def _noise_factor(W: np.ndarray) -> np.ndarray:
    """Factor M with M M' = W, for the covariance of a SystemSpec.

    Cholesky when W is definite, else the eigenvalue square root with the
    round-off negative eigenvalues SystemSpec admits clipped to zero.
    """
    try:
        return np.linalg.cholesky(W)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(W)
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def _standard_draw(kind: str, rng: np.random.Generator, shape) -> np.ndarray:
    # Every kind has zero mean and identity covariance before shaping.
    if kind == "gaussian":
        return rng.standard_normal(shape)
    if kind == "uniform":
        return rng.uniform(-_UNIFORM_HALF_WIDTH, _UNIFORM_HALF_WIDTH, shape)
    return rng.integers(0, 2, shape).astype(float) * 2.0 - 1.0  # rademacher_scaled


def _keyed_state(key) -> dict:
    """Philox state at counter 0 of the stream `key`, with an empty buffer."""
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, 0], "key": key},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _nominal_inputs(policy: np.ndarray | None, horizon: int, bound: np.ndarray) -> np.ndarray:
    """The (horizon, m) nominal inputs of a v_policy held within |v| <= bound.

    Raises:
        ValueError: the policy is neither a length-m vector nor (horizon, m),
            where m = len(bound).
        PreconditionError: |v_policy| exceeds the bound in some component or step.
    """
    m = len(bound)
    if policy is None:
        return np.zeros((horizon, m))
    shape = (m,) if policy.ndim == 1 else (horizon, m)
    if policy.shape != shape:
        raise ValueError(f"v_policy must have shape {shape}, got {policy.shape}")
    if np.any(np.abs(policy) > bound):
        raise PreconditionError(f"|v_policy| exceeds {bound.tolist()} in some component or step")
    return np.broadcast_to(policy, (horizon, m))


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
    ellipsoid: Ellipsoid | None = None,
) -> EnsembleStats:
    """Simulate the error recursion from e_0 = 0 across the ensemble.

    The quadratic form is measured against the shape of `ellipsoid`, or
    against the identity when none is given.  The trajectories are stepped
    in blocks of at most _BLOCK_SIZE, and every trajectory's arithmetic
    runs in a fixed order, so the statistics are bitwise independent of
    the block size.
    """
    _check_gain(sys, gain)
    P = np.eye(sys.n) if ellipsoid is None else ellipsoid.P
    if P.shape != (sys.n, sys.n):
        raise ValueError(f"ellipsoid must be {sys.n}-dimensional, got {len(P)}")
    inputs = _nominal_inputs(cfg.v_policy, cfg.horizon, sys.ubar)
    Ac, Bc, Kc, Fc, Pc = (
        _columns(M) for M in (sys.A, sys.B, gain.K, _noise_factor(sys.W), P)
    )
    steps, total = cfg.horizon, cfg.num_traj
    finals = np.empty((total, sys.n))
    # The block is held transposed, one row per state and one column per
    # trajectory, so every product runs on contiguous rows.  One raw draw
    # buffer is reused by every block; the noise is shaped one step at a
    # time so no (horizon, n, c) shock block is ever held.
    size = min(_BLOCK_SIZE, total)
    draws = np.empty((steps, sys.n, size))
    # Rows 1.. hold the block's q_k (q_k^2) and row 0 their running sum
    # over the earlier blocks, so one reduction down the rows adds the
    # trajectories one at a time in index order, the order in which a
    # mean over all the samples at once would add them.
    sums = np.zeros((size + 1, steps + 1))
    squares = np.zeros((size + 1, steps + 1))
    inside = np.zeros(steps + 1, dtype=np.int64)
    # One generator is re-keyed to each trajectory's stream in turn.
    bitgen = np.random.Philox(key=0)
    rng = np.random.Generator(bitgen)

    for start in range(0, total, size):
        rows = slice(start, min(start + size, total))
        count = rows.stop - start
        for t in range(count):
            bitgen.state = _keyed_state([cfg.seed, start + t])
            draws[:, :, t] = _standard_draw(cfg.noise_kind, rng, (steps, sys.n))
        q = sums[1 : count + 1]
        e = np.zeros((sys.n, count))
        for k in range(steps):
            v = inputs[k][:, None]
            u = _product(Kc, e) + v
            e = (
                _product(Ac, e)
                + _product(Bc, saturate(u.T, sys.ubar).T - v)
                + _product(Fc, draws[k, :, :count])
            )
            q[:, k + 1] = _quadratic(Pc, e)
        finals[rows] = e.T
        np.square(q, out=squares[1 : count + 1])
        sums[0] = sums[: count + 1].sum(axis=0)
        squares[0] = squares[: count + 1].sum(axis=0)
        if ellipsoid is not None:
            inside += np.count_nonzero(q <= ellipsoid.threshold, axis=0)

    q_mean = sums[0] / total
    q_stderr = np.zeros(steps + 1)
    if total > 1:
        spread = np.maximum(squares[0] - sums[0] * q_mean, 0.0)
        q_stderr = np.sqrt(spread / (total - 1) / total)
    return EnsembleStats(
        q_mean=q_mean,
        q_stderr=q_stderr,
        final_states=finals,
        containment=None if ellipsoid is None else inside / total,
    )


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
