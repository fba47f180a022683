"""Monte Carlo validation of the expectation bounds and reachable sets.

Trajectories of the saturated error recursion are simulated under
zero-mean unit-variance noise shaped by a factor of W; the kernel's own
draw is the only noise sampler.  Trajectory i of an ensemble seeded
`seed` draws from the counter-based Philox stream whose two 64-bit key
words are [seed, i]; Philox gives every distinct key its own stream.  One
Philox generator is re-keyed to each trajectory at counter 0 instead of
being rebuilt, and writes that trajectory's draws straight into its row
of the block's draw buffer.  The supported ensemble size is at most 2**32
trajectories.  The nominal input must be finite and keep |v_i| <= ubar_i
at every step; the command line further holds it within the analysis'
vbar.

The ensemble is stepped in equal blocks of trajectories, sized from one
memory budget, _BLOCK_DOUBLES, that covers every array a block holds: its
horizon x n draws, its rows of the per-step sums of q_k and q_k^2, and
the work arrays of one step, all allocated once and written in place.
Each step clips the block's inputs with model.saturate, which refuses a
non-finite input, so an ensemble whose state overflows raises; one whose
state stays finite while q_k, q_k^2 or their sums overflow raises too,
once the statistics are found not finite.  Either way no non-finite
statistic is returned, and NumPy's overflow warnings are silenced while
the ensemble runs, in the caller and in the worker alike.  Every matrix
product adds its terms in a fixed order, and the per-step sums behind the
statistics take each block's trajectories in index order, so results are
bitwise reproducible no matter how the trajectory set is split into
blocks or which process steps a block.  A product's terms are formed as
one copy of the factor's rows into the term array and one multiply by the
matrix's columns, repeated across the block once per block: each term is
the one IEEE product of the same two doubles, and both operands of the
multiply are contiguous.  A noise factor that is diagonal with no zero on
its diagonal, as W = I gives, shapes each draw by its diagonal entry
alone, once per block; the terms it drops are +-0 and cannot change a
nonzero sum, so the bits can differ only where the kept term and the
state it is added to are both exactly -0.0 (see _diagonal).

The blocks are taken from one forked.Worker, whose work is the
ensemble's trajectory-steps (_FORK_MIN_TRAJ_STEPS repays a fork); an
ensemble that large is cut into an even number of blocks, so that a
worker steps as many as the caller.  Whichever process steps a block
steps it straight into rows 1.. of the fold buffer, one row per
trajectory holding its q_k and then its final state; a block from the
worker is copied there from the pipe.  The worker calls no BLAS routine,
only elementwise ufuncs and its generator.  No option sets the process
count: the command line's `simulation.workers` is still accepted and
ignored.

No block outlives its step loop: the ensemble holds O(_BLOCK_DOUBLES +
num_traj x n) doubles while one trajectory fits the budget.  Past
that, once horizon x (n + 2) exceeds _BLOCK_DOUBLES, a block is one
trajectory and holds about horizon x (n + 4) doubles: its draws, and two
rows each of the per-step sums of q_k and q_k^2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError
from .forked import Worker
from .model import FeedbackGain, SystemSpec, _check_gain, saturate
from .sets import Ellipsoid

NOISE_KINDS = ("gaussian", "uniform", "rademacher_scaled")

_UNIFORM_HALF_WIDTH = float(np.sqrt(3.0))


def _term_doubles(n: int, m: int) -> int:
    """Doubles of the term array per trajectory: the stacked [A; K; P]
    product's n (2n + m) terms, or its summed first row and, after it, the
    largest of the B, noise and q term arrays that reuse the rest."""
    r = 2 * n + m
    return max(n * r, r + n * max(n, m))


def _doubles_per_trajectory(n: int, m: int, horizon: int) -> int:
    """Doubles a block holds per trajectory: its draws, its q_k and q_k^2
    rows, its column of the state and of the term array, and its column of
    each product's matrix, [A; K; P], B and the noise factor, repeated
    across the block.  The noise factor's is counted also where a diagonal
    factor needs none, so a block's width depends on n, m and the horizon
    alone."""
    return horizon * n + 2 * (horizon + 1) + n + _term_doubles(n, m) + n * (2 * n + m) + m * n + n * n


# Doubles a block of trajectories may hold, 2.0 MiB: a block of 256 for
# 100 steps of n = 6, m = 3.  Stepping all 1000 trajectories of the
# mc-demo benchmark as one block was faster but raised its peak resident
# memory by 5 %.
_BLOCK_DOUBLES = 256 * _doubles_per_trajectory(6, 3, 100)

# Trajectory-steps below which an ensemble is stepped in one process.
# A Worker round trip with trivial blocks takes ~2.1 ms on a 2-CPU Xeon
# VM, where two blocks stepped as fast forked as in one process at
# ~65 000 trajectory-steps of an n = 2, m = 1 plant (horizon 100), under
# ~26 000 of n = 6, m = 3 (horizon 100) and ~32 000 of n = 6, m = 3
# (horizon 20); an n = 4, m = 2 plant of horizon 20 was still slower
# forked at 50 000 (BENCH_ensemble_products.json).
_FORK_MIN_TRAJ_STEPS = 30_000

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


def _draw_block(kind: str, seed: int, start: int, rng: np.random.Generator, block: np.ndarray) -> None:
    """Fill block[t], a (horizon, n) row, with trajectory start + t's draws.

    Every kind has zero mean and identity covariance before shaping.  A
    uniform draw is rng.uniform(-sqrt(3), sqrt(3)), computed as NumPy
    computes it, low + (high - low) * rng.random().
    """
    # The Philox state setter copies what it reads, so one state dict,
    # re-keyed in place, serves every trajectory.
    bitgen, state = rng.bit_generator, _keyed_state([seed, start])
    key = state["state"]["key"]
    for t, draws in enumerate(block):
        key[1] = start + t
        bitgen.state = state
        if kind == "gaussian":
            rng.standard_normal(out=draws)
        elif kind == "uniform":
            rng.random(out=draws)
        else:
            draws[...] = rng.integers(0, 2, draws.shape)
    if kind == "uniform":
        block *= 2.0 * _UNIFORM_HALF_WIDTH
        block -= _UNIFORM_HALF_WIDTH
    elif kind == "rademacher_scaled":
        block *= 2.0
        block -= 1.0


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

    A zero or constant policy gives a broadcast view, which allocates no
    row per step.

    Raises:
        ValueError: the policy is neither a length-m vector nor (horizon, m),
            where m = len(bound), or is not finite.
        PreconditionError: |v_policy| exceeds the bound in some component or step.
    """
    m = len(bound)
    if policy is None:
        policy = np.zeros(m)
    shape = (m,) if policy.ndim == 1 else (horizon, m)
    if policy.shape != shape:
        raise ValueError(f"v_policy must have shape {shape}, got {policy.shape}")
    if not np.isfinite(policy).all():
        raise ValueError("v_policy must be finite")
    if np.any(np.abs(policy) > bound):
        raise PreconditionError(f"|v_policy| exceeds {bound.tolist()} in some component or step")
    return np.broadcast_to(policy, (horizon, m))


def _columns(M: np.ndarray) -> np.ndarray:
    """The columns of M as a (k, r, 1) stack: column j times the block's row
    j of X is term j of M @ X."""
    return np.ascontiguousarray(M.T)[:, :, None]


def _term_sum(terms: list[np.ndarray]) -> np.ndarray:
    """Add terms[1], terms[2], ... into terms[0], one term at a time in that
    order, and return terms[0].

    The order is fixed whatever the block width, so a trajectory's bits
    never depend on the block it is stepped in.  BLAS products do not
    promise that, and neither does a sum over the stacked terms: NumPy
    reorders that reduction for narrow blocks of n >= 8.
    """
    total = terms[0]
    for term in terms[1:]:
        np.add(total, term, out=total)
    return total


def _diagonal(F: np.ndarray) -> np.ndarray | None:
    """The diagonal of a noise factor F that is diagonal with no zero on
    its diagonal, else None.

    Row i of F w is then F[i, i] w_i plus terms that are +-0, which cannot
    change a nonzero sum or a +0.0: the product is that one term, bit for
    bit, unless the term is -0.0, where the full sum may be +0.0.  Adding
    it to e then differs only where that step's e is itself exactly -0.0
    on the same row.  A gaussian draw can be -0.0 (NumPy's ziggurat
    negates a zero, about once in 2**53 draws), as can a term that
    underflows; uniform and Rademacher draws never are.
    """
    diagonal = np.diagonal(F)
    return diagonal.copy() if diagonal.all() and np.array_equal(F, np.diag(diagonal)) else None


def _block_stepper(sys: SystemSpec, gain: FeedbackGain, cfg: SimulationConfig, P: np.ndarray, size: int):
    """The function that steps one block of at most `size` trajectories.

    step(start, q, finals) steps trajectories start, ..., start + len(q) - 1
    from e_0 = 0, and writes trajectory start + t's q_0, ..., q_horizon into
    q[t] and its state at the horizon into finals[t].  Its work arrays are
    allocated here, once, and reused by every block it steps.

    Raises:
        ValueError: a malformed or non-finite v_policy.
        PreconditionError: |v_policy| exceeds ubar.
    """
    n, m, steps = sys.n, sys.m, cfg.horizon
    inputs = _nominal_inputs(cfg.v_policy, steps, sys.ubar)[:, :, None]
    F = _noise_factor(sys.W)
    diagonal = _diagonal(F)
    # One product with the stacked [A; K; P] gives A e, K e and P e of the
    # same state, each summed in the order of its own product.
    r = 2 * n + m
    columns = [_columns(np.vstack([sys.A, gain.K, P])), _columns(sys.B)]
    if diagonal is None:
        columns.append(_columns(F))
    # The state is held transposed, one row per component and one column per
    # trajectory, so every product runs on contiguous rows.  The draws are
    # held one (horizon, n) row per trajectory, as the generator writes them.
    draws = np.empty((size, steps, n))
    # A narrower block takes the head of each buffer, so its arrays are as
    # contiguous as a full block's; column slices of full-width arrays made
    # a 232-trajectory block of n = 6 step 1.5x slower than a 256 one.  The
    # term buffer holds the stacked product's terms; once they are summed
    # into its first row, the B, noise and q terms reuse the rows after it.
    e_buffer = np.empty(n * size)
    t_buffer = np.empty(_term_doubles(n, m) * size)
    # Each product's matrix, its columns repeated across the block, so that
    # a product's terms are one copy of the factor's rows and one multiply
    # of two contiguous arrays: NumPy's broadcast loop over a stride-0
    # column took twice as long.
    full_buffers = [np.empty(M.size * size) for M in columns]
    # One generator is re-keyed to each trajectory's stream in turn.
    rng = np.random.Generator(np.random.Philox(key=0))

    def step(start: int, q: np.ndarray, finals: np.ndarray) -> None:
        count = len(q)
        block = draws[:count]
        _draw_block(cfg.noise_kind, cfg.seed, start, rng, block)
        if diagonal is not None:
            # F[i, i] w_i, the one term of row i of a diagonal factor's F w.
            block *= diagonal
        e = e_buffer[: n * count].reshape(n, count)
        terms = t_buffer[: len(t_buffer) // size * count]
        m_terms = terms[: n * r * count].reshape(n, r, count)
        rest = terms[r * count :]
        b_terms, f_terms = (rest[: k * n * count].reshape(k, n, count) for k in (m, n))
        q_terms = rest[: n * count].reshape(n, count)
        Mf, Bf, *Ff = fulls = [
            buffer[: M.size * count].reshape(M.shape[:2] + (count,))
            for buffer, M in zip(full_buffers, columns)
        ]
        for full, M in zip(fulls, columns):
            np.copyto(full, M)
        e.fill(0.0)
        m_list, b_list, f_list, q_list = (list(a) for a in (m_terms, b_terms, f_terms, q_terms))
        Ae, u, Pe = m_terms[0, :n], m_terms[0, n : n + m], m_terms[0, n + m :]
        e_rows, u_rows = e[:, None, :], u[:, None, :]
        noise = block.transpose(1, 2, 0)
        q_steps = q.T
        # Pass k takes q_k from e_k and, before the horizon, steps to e_k+1.
        for k in range(steps + 1):
            np.copyto(m_terms, e_rows)
            np.multiply(m_terms, Mf, out=m_terms)
            _term_sum(m_list)
            np.multiply(Pe, e, out=q_terms)
            q_steps[k] = _term_sum(q_list)
            if k == steps:
                break
            v = inputs[k]
            u += v
            np.subtract(saturate(u.T, sys.ubar).T, v, out=u)
            np.copyto(b_terms, u_rows)
            np.multiply(b_terms, Bf, out=b_terms)
            np.add(Ae, _term_sum(b_list), out=e)
            if diagonal is not None:
                e += noise[k]
                continue
            np.copyto(f_terms, noise[k][:, None, :])
            np.multiply(f_terms, Ff[0], out=f_terms)
            e += _term_sum(f_list)
        finals[...] = e.T

    return step


def simulate_ensemble(
    sys: SystemSpec,
    gain: FeedbackGain,
    cfg: SimulationConfig,
    ellipsoid: Ellipsoid | None = None,
) -> EnsembleStats:
    """Simulate the error recursion from e_0 = 0 across the ensemble.

    The quadratic form is measured against the shape of `ellipsoid`, or
    against the identity when none is given.  The trajectories are stepped
    in blocks of at most _BLOCK_DOUBLES doubles, taken from a forked.Worker,
    and every trajectory's arithmetic runs in a fixed order, so the
    statistics are bitwise independent of the block size and of whether a
    worker forks.

    Every returned statistic is finite: q_k is summed under
    np.errstate(over="ignore", invalid="ignore"), and a mean or standard
    error that overflows raises instead of being returned.

    Raises:
        ValueError: on mismatched dimensions, a malformed or non-finite
            v_policy, a non-finite input u_k, as a diverging plant gives, or
            a q_k mean or standard error that is not finite, as a finite
            state with an overflowing q_k gives.
        PreconditionError: |v_policy| exceeds ubar.
    """
    _check_gain(sys, gain)
    P = np.eye(sys.n) if ellipsoid is None else ellipsoid.P
    if P.shape != (sys.n, sys.n):
        raise ValueError(f"ellipsoid must be {sys.n}-dimensional, got {len(P)}")
    n, m, steps, total = sys.n, sys.m, cfg.horizon, cfg.num_traj
    blocks = -(-total // max(1, _BLOCK_DOUBLES // _doubles_per_trajectory(n, m, steps)))
    if blocks > 1 and total * steps >= _FORK_MIN_TRAJ_STEPS:
        # An even number of equal blocks, so that neither process is left
        # stepping a longer share while the other waits.
        blocks += blocks % 2
    size = -(-total // blocks)
    step = _block_stepper(sys, gain, cfg, P, size)
    starts = range(0, total, size)
    w = steps + 1
    finals = np.empty((total, n))
    # Rows 1.. hold a block, one trajectory per row: its q_k, then its
    # final state.  Row 0 holds the running sum of q_k (q_k^2) over the
    # earlier blocks, so one reduction down the rows adds the trajectories
    # one at a time in index order, the order in which a mean over all the
    # samples at once would add them.
    sums = np.zeros((size + 1, w + n))
    squares = np.zeros((size + 1, w))
    inside = np.zeros(w, dtype=np.int64)

    def produce(b: int) -> list[np.ndarray]:
        rows = sums[1 : min(size, total - starts[b]) + 1]
        step(starts[b], rows[:, :w], rows[:, w:])
        return [rows]

    worker = Worker(produce, len(starts), total * steps, _FORK_MIN_TRAJ_STEPS)
    # Overflow is caught once, in the statistics; the worker, forked in this
    # context, inherits it.
    with np.errstate(over="ignore", invalid="ignore"), worker:
        for b, start in enumerate(starts):
            count = min(size, total - start)
            rows, q = sums[1 : count + 1], sums[1 : count + 1, :w]
            # A block from the worker is copied into place; the caller's own
            # is there already, and NumPy skips copying an array onto itself.
            rows[...] = np.frombuffer(worker.take(b)[0]).reshape(rows.shape)
            finals[start : start + count] = rows[:, w:]
            np.square(q, out=squares[1 : count + 1])
            sums[0, :w] = sums[: count + 1, :w].sum(axis=0)
            squares[0] = squares[: count + 1].sum(axis=0)
            if ellipsoid is not None:
                inside += np.count_nonzero(q <= ellipsoid.threshold, axis=0)
        q_mean = sums[0, :w] / total
        q_stderr = np.zeros(w)
        if total > 1:
            spread = np.maximum(squares[0] - sums[0, :w] * q_mean, 0.0)
            q_stderr = np.sqrt(spread / (total - 1) / total)
    if not (np.isfinite(q_mean).all() and np.isfinite(q_stderr).all()):
        raise ValueError("the ensemble's q_k overflows: its mean or standard error is not finite")
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
