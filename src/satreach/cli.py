"""Command line pipeline: certify, analyze, simulate, sweep, report.

Every command reads one JSON config, writes machine-readable artifacts
into the output directory, and prints a JSON summary to stdout.  All CSV
numbers are written at `%.17g`, 17 significant digits, so a reader
recovers the in-memory doubles exactly.  Runs with identical configs on
one machine are byte identical, whether or not a worker forks and on any
set of CPUs.  Across machines data.csv's bound cells follow NumPy's
float64 `power`, whose SIMD dispatch differs between CPUs: on an AVX-512
VM 4 cells of the demo at k_max 2e4 differ from libm's `pow`.

The CSVs a command writes form one csvformat.Blocks stream, in blocks of
at most csvformat.BLOCK_CELLS cells: each cell's bytes are those of
`format(x, ".17g")` through csv.writer, whether or not a worker forks to
format some of the blocks (csvformat's docstring says how).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    ContractionProfile,
    check_budgets,
    check_k_max,
    converged_from,
    expectation_bound_sequence,
    linear_region_budget,
    linear_region_scaling,
    noise_energy,
    select_rate,
)
from .certify import (
    DEFAULT_BISECT_TOL,
    DEFAULT_FEAS_TOL,
    ContractionCertificate,
    _shape_and_factor,
    check_synthesis_tolerances,
    closed_loop_rate,
    min_contraction_rate,
    synthesize_contraction,
    verify_certificate,
)
from .csvformat import Blocks
from .errors import ConfigError, PreconditionError, SynthesisError
from .model import FeedbackGain, SystemSpec, _check_gain, vertex_matrices
from .montecarlo import SimulationConfig, _nominal_inputs, simulate_ensemble, wilson_upper
from .sets import Ellipsoid, area, boundary_polyline, check_boundary_points, check_epsilon, pub

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SYNTHESIS = 3
EXIT_PRECONDITION = 4

CSV_NAMES = ("data", "lell", "lbell", "states", "convergence")

# Every key a config may hold, by section; anything else is rejected.
CONFIG_KEYS = {
    "system": ("A", "B", "W", "ubar"),
    "gain": ("K",),
    "rates": ("P", "feas_tol", "bisect_tol"),
    "prs": ("epsilon", "k_max", "vbar", "boundary_points"),
    "simulation": ("horizon", "num_traj", "seed", "noise_kind", "v_policy", "workers"),
    "output": ("directory", "emit"),
    "sweep": ("ubar_values", "ubar_min", "ubar_max", "count"),
}


@dataclass
class AnalysisConfig:
    """Everything one CLI invocation needs, resolved and validated."""

    system: SystemSpec
    gain: FeedbackGain
    fixed_shape: np.ndarray | None
    feas_tol: float
    bisect_tol: float
    epsilon: float
    k_max: int
    vbar: np.ndarray
    boundary_points: int
    simulation: SimulationConfig
    out_dir: Path
    emit: tuple[str, ...]
    # The sweep's explicit budgets, or its (ubar_min, ubar_max, count) range.
    sweep: np.ndarray | tuple[float, float, int] | None

    @property
    def sweep_ubar(self) -> np.ndarray | None:
        """The sweep's budgets; a range's grid is built on each read."""
        if isinstance(self.sweep, tuple):
            return _sweep_values(np.linspace(*self.sweep))
        return self.sweep


def _reject_unknown(block: dict, known, where: str) -> None:
    unknown = sorted(set(block) - set(known))
    if unknown:
        raise ConfigError(f"unknown keys {unknown} in {where}")


def _block(raw: dict, name: str) -> dict:
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config section '{name}' must be an object")
    _reject_unknown(block, CONFIG_KEYS[name], f"section '{name}'")
    return block


def _numeric(value, key: str):
    """`value` if it is a finite JSON number or a (nested) array of them.

    Booleans, strings and null are rejected rather than coerced: `true`
    would read as 1.0 and `"1e-7"` as the number it spells.  So are NaN,
    Infinity, -Infinity and literals too large for a double, which the
    JSON reader returns as non-finite floats.
    """
    if isinstance(value, list):
        for item in value:
            _numeric(item, key)
    elif not (type(value) is int or type(value) is float and math.isfinite(value)):
        raise ConfigError(f"'{key}' must be a finite number or an array of them, got {value!r}")
    return value


def _numeric_block(raw: dict, name: str) -> dict:
    """A section whose every entry is a number or an array of numbers."""
    return {key: _numeric(value, key) for key, value in _block(raw, name).items()}


def _number(block: dict, key: str, default: float | None = None) -> float:
    """A scalar number entry, required when there is no default."""
    value = _numeric(block.get(key, default), key)
    if isinstance(value, list):
        raise ConfigError(f"'{key}' must be a number, got an array")
    return float(value)


def _int(block: dict, key: str, default: int) -> int:
    """An integer entry; booleans and non-integral numbers are rejected."""
    value = block.get(key, default)
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ConfigError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def _parse_simulation(raw: dict) -> SimulationConfig:
    block = _block(raw, "simulation")
    # Older configs set a worker count; it is still checked, then dropped.
    if _int(block, "workers", 1) < 1:
        raise ConfigError("the simulation worker count must be positive")
    v_policy = block.get("v_policy", "zero")
    return SimulationConfig(
        horizon=_int(block, "horizon", SimulationConfig.horizon),
        num_traj=_int(block, "num_traj", SimulationConfig.num_traj),
        seed=_int(block, "seed", SimulationConfig.seed),
        noise_kind=block.get("noise_kind", SimulationConfig.noise_kind),
        v_policy=None if v_policy == "zero" else _numeric(v_policy, "v_policy"),
    )


def _sweep_values(values: np.ndarray) -> np.ndarray:
    """`values`, once they pass as a nonempty increasing list of budgets."""
    if values.ndim != 1 or values.size == 0 or np.any(values <= 0.0):
        raise ConfigError("sweep bounds must be a nonempty list of positive numbers")
    if np.any(np.diff(values) <= 0.0):
        raise ConfigError("sweep bounds must be strictly increasing")
    return values


def _parse_sweep(raw: dict) -> np.ndarray | tuple[float, float, int]:
    """The sweep's explicit budgets, or its range, whose grid only `sweep` builds."""
    block = _block(raw, "sweep")
    if "ubar_values" in block:
        if len(block) > 1:
            raise ConfigError("sweep takes either ubar_values or ubar_min, ubar_max and count")
        return _sweep_values(np.asarray(_numeric(block["ubar_values"], "ubar_values"), dtype=float))
    lo, hi = _sweep_values(np.array([_number(block, "ubar_min"), _number(block, "ubar_max")]))
    count = _int(block, "count", 100)
    if count < 2:
        raise ConfigError("a sweep range needs count >= 2")
    return lo, hi, count


def _valid_shape(P, n: int) -> np.ndarray:
    """P as an n x n float array, once it passes as a certificate shape.

    Raises:
        ValueError: P is not n x n, or not symmetric positive definite.
    """
    P = np.asarray(P, dtype=float)
    if P.shape != (n, n):
        raise ValueError(f"P must have shape {(n, n)}, got {P.shape}")
    _shape_and_factor(P)
    return P


def _unique_keys(pairs: list) -> dict:
    """A JSON object's (key, value) pairs as a dict; a key given twice is a
    ConfigError, where json.loads would keep the last value silently."""
    block = dict(pairs)
    if len(block) < len(pairs):
        keys = [key for key, _ in pairs]
        repeated = sorted({key for key in keys if keys.count(key) > 1})
        raise ConfigError(f"duplicate keys {repeated} in a config object")
    return block


def load_config(path) -> AnalysisConfig:
    """Parse and validate a JSON config; all failures become ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text, object_pairs_hook=_unique_keys)
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(raw, CONFIG_KEYS, "the config")
    try:
        system = SystemSpec(**_numeric_block(raw, "system"))
        gain = FeedbackGain(**_numeric_block(raw, "gain"))
        _check_gain(system, gain)
        rates = _block(raw, "rates")
        fixed_shape = None
        if "P" in rates:
            fixed_shape = _valid_shape(_numeric(rates["P"], "P"), system.n)
        prs_block = _block(raw, "prs")
        epsilon = _number(prs_block, "epsilon", 0.2)
        check_epsilon(epsilon)
        k_max = _int(prs_block, "k_max", 100)
        check_k_max(k_max)
        vbar = np.asarray(_numeric(prs_block.get("vbar", [0.0] * system.m), "vbar"), dtype=float)
        if vbar.shape != (system.m,):
            raise ConfigError(f"vbar must have length {system.m}")
        check_budgets(system.ubar, vbar)
        output = _block(raw, "output")
        emit = output.get("emit", list(CSV_NAMES))
        if not (isinstance(emit, list) and all(isinstance(name, str) for name in emit)):
            raise ConfigError(f"'emit' must be a JSON array of strings, got {emit!r}")
        for name in emit:
            if name not in CSV_NAMES:
                raise ConfigError(f"unknown emit entry '{name}'")
        boundary_points = _int(prs_block, "boundary_points", 256)
        check_boundary_points(boundary_points)
        cfg = AnalysisConfig(
            system=system,
            gain=gain,
            fixed_shape=fixed_shape,
            feas_tol=_number(rates, "feas_tol", DEFAULT_FEAS_TOL),
            bisect_tol=_number(rates, "bisect_tol", DEFAULT_BISECT_TOL),
            epsilon=epsilon,
            k_max=k_max,
            vbar=vbar,
            boundary_points=boundary_points,
            simulation=_parse_simulation(raw),
            out_dir=Path(output.get("directory", "out")),
            emit=tuple(emit),
            sweep=_parse_sweep(raw) if "sweep" in raw else None,
        )
        check_synthesis_tolerances(cfg.feas_tol, cfg.bisect_tol)
        # The analysis tightens the rate for nominal inputs bounded by vbar,
        # so the ensemble it is checked against must respect that bound.
        _nominal_inputs(cfg.simulation.v_policy, cfg.simulation.horizon, vbar)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError, PreconditionError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    return cfg


@contextmanager
def _replacing(path: Path):
    """Binary handle on a sibling temp file that replaces `path` on success.

    The parent directory is created first.  An exception while writing
    deletes the temp file and leaves any previous artifact at `path` as it
    was.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "wb") as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], blocks) -> None:
    """Write `header`, then each bytes-like block of `blocks`, in order.

    `blocks` is one file's csvformat.Blocks.file iterator: each block is
    written before the next is formatted or read from the worker.
    """
    with _replacing(path) as handle:
        handle.write((",".join(header) + "\n").encode("ascii"))
        handle.writelines(blocks)


def _write_csvs(out_dir: Path, files) -> None:
    """Write each (name, header, tables) of `files` to out_dir/name.csv.

    `tables` lists the file's (line, table) pairs: `line` is the
    %-template of one row, ending in a newline, and `table` a 2-D float
    array with one column per `%.17g` field; integer-valued columns such
    as data.csv's `k` print as `%d` would print them.  Every file's blocks
    form one csvformat.Blocks stream, so a command whose tables are large
    enough forks one worker for all of them.  `%.17g` and
    `format(x, ".17g")` print a double alike and no cell needs quoting, so
    the bytes equal those of csv.writer over per-cell formatted strings.
    """
    with Blocks([tables for _, _, tables in files]) as blocks:
        for i, (name, header, _) in enumerate(files):
            _write_csv(out_dir / f"{name}.csv", header, blocks.file(i))


def _write_json(path: Path, payload: dict) -> str:
    """Write `payload` as indented, key-sorted JSON and return that text.

    A non-finite number raises ValueError before anything is written.
    """
    text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    with _replacing(path) as handle:
        handle.write(text.encode("utf-8"))
    return text


def _synthesis_digest(cfg: AnalysisConfig) -> str:
    """SHA-256 of canonical JSON over every config value synthesis reads.

    These are the resolved values, so an omitted default and the same value
    written out hash alike.  W and ubar do not enter synthesis.
    """
    inputs = {
        "version": __version__,
        "A": cfg.system.A.tolist(),
        "B": cfg.system.B.tolist(),
        "K": cfg.gain.K.tolist(),
        "feas_tol": cfg.feas_tol,
        "bisect_tol": cfg.bisect_tol,
    }
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode("utf-8")).hexdigest()


def _stored_certificate(cfg: AnalysisConfig, digest: str) -> tuple[np.ndarray, float] | None:
    """P and its rate from the output directory's certificate.json, or None.

    Only a file that passed for a config with the same synthesis digest
    counts; anything unreadable or malformed is None.
    """
    try:
        stored = json.loads((cfg.out_dir / "certificate.json").read_text(encoding="utf-8"))
        if not (
            isinstance(stored, dict)
            and stored.get("pass") is True
            and stored.get("config_sha256") == digest
            and type(stored.get("lambda")) is float
        ):
            return None
        return _valid_shape(stored["P"], cfg.system.n), stored["lambda"]
    except (OSError, ValueError, TypeError, KeyError, RecursionError):
        return None


def _certificate(cfg: AnalysisConfig, *, reuse: bool = True) -> tuple[np.ndarray, dict, str | None]:
    """P, its certificate.json payload, and why it fails the exact check.

    A fixed P gets the smallest rate it certifies.  Otherwise, with `reuse`,
    a certificate.json in the output directory that passed for the same
    synthesis digest is checked again and kept if it still passes; failing
    that, P is synthesized.  Reuse gives the same bits as synthesis, since
    JSON floats round-trip and the linear rate is recomputed from P.  The
    payload's residuals are verify_certificate's report but its verdict,
    which is `pass`; the failure is None on a pass, and otherwise names
    those residuals.

    Raises:
        SynthesisError: a fixed P certifies no rate below one, or synthesis
            finds no certificate.
    """
    digest = stored = None
    if cfg.fixed_shape is not None:
        P = cfg.fixed_shape
        rate = min_contraction_rate(P, vertex_matrices(cfg.system, cfg.gain))
        if rate >= 1.0:
            raise SynthesisError(f"fixed shape matrix certifies no rate below one (got {rate:.6f})")
    else:
        digest = _synthesis_digest(cfg)
        stored = _stored_certificate(cfg, digest) if reuse else None
        P, rate = stored or synthesize_contraction(
            cfg.system, cfg.gain, feas_tol=cfg.feas_tol, bisect_tol=cfg.bisect_tol
        )
    rate_linear = closed_loop_rate(P, cfg.system, cfg.gain)
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=rate_linear, feas_tol=cfg.feas_tol)
    residuals = asdict(verify_certificate(cert, cfg.system, cfg.gain))
    passed = residuals.pop("passed")
    if not passed and stored is not None:
        return _certificate(cfg, reuse=False)
    payload = {
        "P": np.asarray(P).tolist(),
        "lambda": float(rate),
        "lambda_L": float(rate_linear),
        "residuals": residuals,
        "pass": passed,
        "config_sha256": digest,
    }
    failure = f"certificate fails verification: {json.dumps(residuals, sort_keys=True)}"
    return P, payload, None if passed else failure


def cmd_certify(cfg: AnalysisConfig) -> str:
    """Produce and independently verify a certificate; write certificate.json.

    Always synthesizes when P is omitted, never reading an earlier file.  A
    certificate that fails verification is still written, so its residuals
    can be inspected, and then reported as a synthesis failure.
    """
    _, payload, failure = _certificate(cfg, reuse=False)
    text = _write_json(cfg.out_dir / "certificate.json", payload)
    if failure is not None:
        raise SynthesisError(f"{failure}; residuals in {cfg.out_dir / 'certificate.json'}")
    return text


@dataclass(frozen=True)
class AnalysisState:
    """The certificate, rate decision and ultimate bounds of one analysis,
    with the bounds' planar areas, or None unless the system is planar."""

    P: np.ndarray
    profile: ContractionProfile
    pub_rate: Ellipsoid
    pub_selected: Ellipsoid
    areas: tuple[float, float] | None


def _rate_profile(cfg: AnalysisConfig, ubar) -> tuple[np.ndarray, ContractionProfile]:
    """The certificate's P and the rate decision at one budget or a (G, m) grid."""
    P, certificate, failure = _certificate(cfg)
    if failure is not None:
        raise SynthesisError(failure)
    noise = noise_energy(P, cfg.system.W)
    r_lin = linear_region_scaling(P, cfg.gain.K, ubar, cfg.vbar)
    if not np.all(np.isfinite(r_lin)):
        raise PreconditionError(
            f"linear region scaling r_L is not finite at budgets up to {np.max(ubar):.6g}: "
            "(ubar - vbar)^2 / (K_i inv(P) K_i') overflows"
        )
    return P, select_rate(certificate["lambda"], certificate["lambda_L"], noise, r_lin)


def _analysis_state(cfg: AnalysisConfig) -> AnalysisState:
    """The analysis, every number of it checked finite before any artifact
    is written."""
    P, profile = _rate_profile(cfg, cfg.system.ubar)
    rates = (profile.rate, profile.rate_selected)
    pubs = [pub(P, rate, profile.noise_energy, cfg.epsilon) for rate in rates]
    return AnalysisState(P, profile, *pubs, tuple(map(area, pubs)) if cfg.system.n == 2 else None)


def _emit(cfg: AnalysisConfig, state: AnalysisState, stats=None) -> None:
    """Write the CSV artifacts cfg.emit names; `stats` adds the ensemble's.

    Every table is built before the first file is replaced, so a table
    that cannot be built leaves the directory's earlier CSVs as they were.
    The files are written by _write_csvs, one block stream for all of them.

    From the largest bounds.converged_from of its three rates on, every
    bound of data.csv equals its limit in every bit, so the rows the
    ensemble does not cover from there are a one-field k table whose
    template holds the three limits, each written as format(x, ".17g"),
    which is what `%.17g` prints for it; the kernel prints that table as
    integer rows.  lell and lbell share one unit boundary of their common
    P, which each scales by sqrt(r), as boundary_polyline does: scaling by
    sqrt(1.0) = 1.0 changes no bit.
    """
    files = []
    if "data" in cfg.emit:
        profile = state.profile
        rates = (profile.rate, profile.rate_linear, profile.rate_selected)
        bounds = [expectation_bound_sequence(rate, profile.noise_energy, cfg.k_max) for rate in rates]
        q_mean = np.empty(0) if stats is None else stats.q_mean
        # Steps the ensemble covers carry e; later ones leave it empty.
        # The writer formats and writes the tables in blocks of rows.
        filled = min(len(q_mean), cfg.k_max + 1)
        tail = max(filled, min(cfg.k_max + 1, max(map(converged_from, rates))))
        table = np.column_stack([np.arange(tail), *(bound[:tail] for bound in bounds)])
        covered = np.insert(table[:filled], 1, q_mean[:filled], axis=1)
        # The last bounds are the limits whenever the tail has rows.
        limits = ",".join(format(bound[-1], ".17g") for bound in bounds)
        tables = [
            ("%.17g,%.17g,%.17g,%.17g,%.17g\n", covered),
            ("%.17g,,%.17g,%.17g,%.17g\n", table[filled:]),
            (f"%.17g,,{limits}\n", np.arange(tail, cfg.k_max + 1, dtype=float)[:, None]),
        ]
        files.append(("data", ["k", "e", "l", "ll", "lb"], tables))
    curves = {"lell": state.pub_rate, "lbell": state.pub_selected}
    planar = [*curves, "states"] if stats is not None else list(curves)
    wanted = [name for name in planar if name in cfg.emit]
    if cfg.system.n != 2 and wanted:
        print(f"{', '.join(wanted)} need a planar system; skipped", file=sys.stderr)
        wanted = []
    unit = None
    if set(curves) & set(wanted):
        unit = boundary_polyline(replace(state.pub_rate, r=1.0), cfg.boundary_points)
    for name in wanted:
        pts = stats.final_states if name == "states" else np.sqrt(curves[name].r) * unit
        files.append((name, ["x", "y"], [("%.17g,%.17g\n", pts)]))
    _write_csvs(cfg.out_dir, files)


def _analysis_payload(cfg: AnalysisConfig, state: AnalysisState) -> dict:
    profile = state.profile
    r_full = state.pub_rate.r
    r_sel = state.pub_selected.r
    payload = {
        "lambda": float(profile.rate),
        "lambda_L": float(profile.rate_linear),
        "trace_PW": float(profile.noise_energy),
        "r_L": float(profile.r_lin),
        "condition_lhs": float(profile.condition_lhs),
        "lambda_bar_star": profile.rate_effective,
        "lambda_hat": float(profile.rate_selected),
        "fallback": profile.fallback,
        "epsilon": float(cfg.epsilon),
        "k_max": int(cfg.k_max),
        "pub_scalings": {"lambda": float(r_full), "lambda_hat": float(r_sel)},
        "scaling_reduction": float(1.0 - r_sel / r_full) if r_full > 0.0 else 0.0,
        "ll_reference_only": True,
        "P": np.asarray(state.P).tolist(),
    }
    if state.areas is not None:
        a_full, a_sel = state.areas
        payload["areas"] = {
            "lambda": float(a_full),
            "lambda_hat": float(a_sel),
            "reduction": float(1.0 - a_sel / a_full) if a_full > 0.0 else 0.0,
        }
    return payload


def cmd_analyze(cfg: AnalysisConfig) -> str:
    """Bounds, reachable-set scalings, and boundary polylines; no simulation."""
    state = _analysis_state(cfg)
    _emit(cfg, state)
    return _write_json(cfg.out_dir / "analysis.json", _analysis_payload(cfg, state))


def cmd_simulate(cfg: AnalysisConfig) -> str:
    """Analysis plus a Monte Carlo ensemble; fills the empirical column."""
    sim = cfg.simulation
    state = _analysis_state(cfg)
    stats = simulate_ensemble(cfg.system, cfg.gain, sim, ellipsoid=state.pub_selected)
    _emit(cfg, state, stats)
    violations = 1.0 - stats.containment
    payload = _analysis_payload(cfg, state)
    payload.update(
        {
            "seed": int(sim.seed),
            "horizon": int(sim.horizon),
            "num_traj": int(sim.num_traj),
            "noise_kind": sim.noise_kind,
            "pub_violation_max": float(violations.max()),
            "pub_violation_final": float(violations[-1]),
            "pub_violation_wilson_upper": wilson_upper(float(violations.max()), sim.num_traj),
            "q_mean_final": float(stats.q_mean[-1]),
        }
    )
    return _write_json(cfg.out_dir / "simulation.json", payload)


def cmd_sweep(cfg: AnalysisConfig) -> str:
    """Effective rate as the saturation budget varies; writes convergence.csv."""
    grid = cfg.sweep_ubar
    if grid is None:
        raise ConfigError("sweep command needs a 'sweep' config section")
    budgets = np.repeat(grid[:, None], cfg.system.m, axis=1)
    budgets = budgets[np.all(cfg.vbar <= budgets, axis=1)]
    P, profile = _rate_profile(cfg, budgets)
    kept = ~profile.fallback
    swept = np.column_stack([budgets[kept, 0], profile.r_lin[kept], profile.rate_effective[kept]])
    if "convergence" in cfg.emit:
        # The constant ll column is part of the line template.
        line = f"%.17g,{profile.rate_linear:.17g},%.17g\n"
        _write_csvs(cfg.out_dir, [("convergence", ["rl", "ll", "lb"], [(line, swept[:, 1:])])])
    payload = {
        "lambda": float(profile.rate),
        "lambda_L": float(profile.rate_linear),
        "trace_PW": float(profile.noise_energy),
        # Infimum budget at which the tightening condition starts to hold.
        "ubar_star": linear_region_budget(P, cfg.gain.K, cfg.vbar, profile.condition_lhs),
        "grid_size": int(grid.size),
        "admissible": len(swept),
        "first_admissible_ubar": float(swept[0, 0]) if len(swept) else None,
        "largest_r_L": float(swept[-1, 1]) if len(swept) else None,
        "last_effective_rate": float(swept[-1, 2]) if len(swept) else None,
    }
    return _write_json(cfg.out_dir / "sweep.json", payload)


def cmd_report(cfg: AnalysisConfig) -> str:
    """Merge whichever JSON artifacts earlier commands left behind."""
    merged = {}
    for name in ("certificate", "analysis", "simulation", "sweep"):
        path = cfg.out_dir / f"{name}.json"
        if path.exists():
            try:
                merged[name] = json.loads(path.read_text(encoding="utf-8"))
            except (OSError, ValueError, RecursionError) as exc:
                raise ConfigError(f"cannot merge {path}: {exc}") from exc
        else:
            merged[name] = None
    return _write_json(cfg.out_dir / "report.json", merged)


_COMMANDS = {
    "certify": cmd_certify,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


# Built once per process, on first use: building it at import would slow
# every cold start, which parses one command line.
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satreach",
        description="Probabilistic reachable sets for saturated linear systems",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="path to the JSON config")
    common.add_argument("--out", default=None, help="override the output directory")
    common.add_argument("--seed", type=int, default=None, help="override the simulation seed")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=func.__doc__)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.out is not None:
            cfg.out_dir = Path(args.out)
        if cfg.out_dir.exists() and not cfg.out_dir.is_dir():
            raise ConfigError(f"output directory {cfg.out_dir} exists and is not a directory")
        if args.seed is not None:
            try:
                cfg.simulation = replace(cfg.simulation, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        # The text the command wrote to its JSON artifact.
        sys.stdout.write(_COMMANDS[args.command](cfg))
        return EXIT_OK
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SynthesisError as exc:
        print(f"synthesis failure: {exc}", file=sys.stderr)
        return EXIT_SYNTHESIS
    except (PreconditionError, ValueError) as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except OSError as exc:
        print(f"cannot write artifacts: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except MemoryError as exc:
        print(f"cannot allocate: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    raise SystemExit(main())
