"""Command line pipeline: certify, analyze, simulate, sweep, report.

Every command reads one JSON config, writes machine-readable artifacts
into the output directory, and prints a JSON summary to stdout.  All CSV
numbers are written with 17 significant digits so a reader recovers the
in-memory doubles exactly; runs with identical configs are byte identical
regardless of the worker count.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import sys
from contextlib import contextmanager, suppress
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import (
    ContractionProfile,
    check_k_max,
    expectation_bound_sequence,
    linear_region_budget,
    linear_region_scaling,
    noise_energy,
    select_rate,
)
from .certify import (
    ContractionCertificate,
    check_rates,
    check_synthesis_tolerances,
    closed_loop_rate,
    min_contraction_rate,
    synthesize_contraction,
    verify_certificate,
)
from .errors import ConfigError, PreconditionError, SynthesisError
from .model import FeedbackGain, SystemSpec, vertex_matrices
from .montecarlo import SimulationConfig, simulate_ensemble, wilson_upper
from .sets import Ellipsoid, area, boundary_polyline, check_epsilon, pub

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SYNTHESIS = 3
EXIT_PRECONDITION = 4

CSV_NAMES = ("data", "lell", "lbell", "states", "convergence")

# Every key a config may hold, by section; anything else is rejected.
CONFIG_KEYS = {
    "system": ("A", "B", "W", "ubar"),
    "gain": ("K",),
    "rates": ("P", "feas_tol", "bisect_tol", "trace_scale"),
    "prs": ("epsilon", "k_max", "vbar", "boundary_points"),
    "simulation": ("horizon", "num_traj", "seed", "noise_kind", "v_policy", "workers"),
    "output": ("directory", "emit"),
    "sweep": ("ubar_values", "ubar_min", "ubar_max", "count"),
}

DEFAULT_SIMULATION = SimulationConfig(horizon=100, num_traj=1000, seed=0)


@dataclass
class AnalysisConfig:
    """Everything one CLI invocation needs, resolved and validated."""

    system: SystemSpec
    gain: FeedbackGain
    fixed_shape: np.ndarray | None
    feas_tol: float
    bisect_tol: float
    trace_scale: float
    epsilon: float
    k_max: int
    vbar: np.ndarray
    boundary_points: int
    simulation: SimulationConfig | None
    out_dir: Path
    emit: tuple[str, ...]
    sweep_ubar: np.ndarray | None


def _fmt(value: float) -> str:
    return f"{value:.17g}"


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
    """`value` if it is a JSON number or a (nested) array of numbers.

    Booleans, strings and null are rejected rather than coerced: `true`
    would read as 1.0 and `"1e-7"` as the number it spells.
    """
    if isinstance(value, list):
        for item in value:
            _numeric(item, key)
    elif type(value) not in (int, float):
        raise ConfigError(f"'{key}' must be a number or an array of numbers, got {value!r}")
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


def _parse_simulation(raw: dict) -> SimulationConfig | None:
    if raw.get("simulation") is None:
        return None
    block = _block(raw, "simulation")
    v_policy = block.get("v_policy")
    return SimulationConfig(
        horizon=_int(block, "horizon", DEFAULT_SIMULATION.horizon),
        num_traj=_int(block, "num_traj", DEFAULT_SIMULATION.num_traj),
        seed=_int(block, "seed", DEFAULT_SIMULATION.seed),
        noise_kind=str(block.get("noise_kind", DEFAULT_SIMULATION.noise_kind)),
        v_policy=None if v_policy in (None, "zero") else _numeric(v_policy, "v_policy"),
        workers=_int(block, "workers", DEFAULT_SIMULATION.workers),
    )


def _parse_sweep(raw: dict) -> np.ndarray | None:
    if raw.get("sweep") is None:
        return None
    block = _block(raw, "sweep")
    if "ubar_values" in block:
        values = np.asarray(_numeric(block["ubar_values"], "ubar_values"), dtype=float)
    else:
        lo = _number(block, "ubar_min")
        hi = _number(block, "ubar_max")
        count = _int(block, "count", 100)
        if count < 2 or hi <= lo:
            raise ConfigError("sweep needs ubar_min < ubar_max and count >= 2")
        values = np.linspace(lo, hi, count)
    if values.ndim != 1 or values.size == 0 or np.any(values <= 0.0):
        raise ConfigError("sweep bounds must be a nonempty list of positive numbers")
    return values


def _finite_number(text: str) -> float:
    """JSON hook that rejects NaN, Infinity and literals overflowing a double."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not a finite number")
    return value


def load_config(path) -> AnalysisConfig:
    """Parse and validate a JSON config; all failures become ConfigError."""
    try:
        text = Path(path).read_text(encoding="utf-8")
        raw = json.loads(text, parse_constant=_finite_number, parse_float=_finite_number)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("top-level config must be a JSON object")
    _reject_unknown(raw, CONFIG_KEYS, "the config")
    try:
        system = SystemSpec(**_numeric_block(raw, "system"))
        gain = FeedbackGain(**_numeric_block(raw, "gain"))
        rates = _block(raw, "rates")
        fixed_shape = None
        if rates.get("P") is not None:
            fixed_shape = np.asarray(_numeric(rates["P"], "P"), dtype=float)
        prs_block = _block(raw, "prs")
        epsilon = _number(prs_block, "epsilon", 0.2)
        check_epsilon(epsilon)
        k_max = _int(prs_block, "k_max", 100)
        check_k_max(k_max)
        vbar = np.asarray(_numeric(prs_block.get("vbar", [0.0] * system.m), "vbar"), dtype=float)
        output = _block(raw, "output")
        emit = tuple(output.get("emit", CSV_NAMES))
        for name in emit:
            if name not in CSV_NAMES:
                raise ConfigError(f"unknown emit entry '{name}'")
        cfg = AnalysisConfig(
            system=system,
            gain=gain,
            fixed_shape=fixed_shape,
            feas_tol=_number(rates, "feas_tol", 1e-7),
            bisect_tol=_number(rates, "bisect_tol", 1e-4),
            trace_scale=_number(rates, "trace_scale", 1.0),
            epsilon=epsilon,
            k_max=k_max,
            vbar=vbar,
            boundary_points=_int(prs_block, "boundary_points", 256),
            simulation=_parse_simulation(raw),
            out_dir=Path(output.get("directory", "out")),
            emit=emit,
            sweep_ubar=_parse_sweep(raw),
        )
        check_synthesis_tolerances(cfg.feas_tol, cfg.bisect_tol, cfg.trace_scale)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc
    if cfg.vbar.shape != (system.m,):
        raise ConfigError(f"vbar must have length {system.m}")
    # The analysis tightens the rate for nominal inputs bounded by vbar, so
    # the ensemble it is checked against must respect that bound.
    policy = None if cfg.simulation is None else cfg.simulation.v_policy
    if policy is not None:
        shape = (system.m,) if policy.ndim == 1 else (cfg.simulation.horizon, system.m)
        if policy.shape != shape:
            raise ConfigError(f"v_policy must have shape {shape}, got {policy.shape}")
        if np.any(np.abs(policy) > cfg.vbar):
            raise ConfigError("|v_policy| exceeds prs.vbar in some component or step")
    return cfg


@contextmanager
def _replacing(path: Path, newline: str):
    """Text handle on a sibling temp file that replaces `path` on success.

    An exception while writing deletes the temp file and leaves any
    previous artifact at `path` as it was.
    """
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(temp, "w", encoding="utf-8", newline=newline) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: list[str], rows) -> None:
    with _replacing(path, newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path: Path, payload: dict) -> None:
    with _replacing(path, newline="\n") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


class _FailedCertificate(SynthesisError):
    """A certificate that fails verification; `payload` is its certificate.json."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


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
        "trace_scale": cfg.trace_scale,
    }
    return hashlib.sha256(json.dumps(inputs, sort_keys=True).encode("utf-8")).hexdigest()


def _stored_certificate(cfg: AnalysisConfig, digest: str) -> tuple[np.ndarray, float, float] | None:
    """P and its rates from the output directory's certificate.json, or None.

    Only a file that passed for a config with the same synthesis digest
    counts; anything unreadable or malformed is None.  The linear rate is
    recomputed from the stored P.
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
        P = np.asarray(stored["P"], dtype=float)
        return P, stored["lambda"], closed_loop_rate(P, cfg.system, cfg.gain)
    except (OSError, ValueError, TypeError, KeyError, RecursionError, np.linalg.LinAlgError):
        return None


def _verified(cfg: AnalysisConfig, P, rate: float, rate_linear: float, digest: str | None) -> dict:
    """The certificate.json payload of P and its rates, after the exact check.

    Raises:
        _FailedCertificate: the rates are unordered or verification fails;
            it carries the payload with `pass` false and the residuals.
    """
    failure = "certificate fails verification"
    try:
        check_rates(rate, rate_linear)
    except ValueError as exc:
        # Zero-gain corner: every vertex equals the closed loop, so the
        # rate gap degenerates and no vertex inequality is checked.
        residuals = {"vertices": [], "linear": None, "shape_min_eig": None, "rate_gap": 0.0}
        passed, failure = False, f"{failure}: certificate rates are unordered: {exc}"
    else:
        cert = ContractionCertificate(P=P, rate=rate, rate_linear=rate_linear, feas_tol=cfg.feas_tol)
        report = verify_certificate(cert, cfg.system, cfg.gain)
        residuals = {
            "vertices": [float(r) for r in report.vertex_residuals],
            "linear": float(report.linear_residual),
            "shape_min_eig": float(report.shape_min_eig),
            "rate_gap": float(report.rate_gap),
        }
        passed = bool(report.passed)
    payload = {
        "P": np.asarray(P).tolist(),
        "lambda": float(rate),
        "lambda_L": float(rate_linear),
        "residuals": residuals,
        "pass": passed,
        "config_sha256": digest,
    }
    if not passed:
        raise _FailedCertificate(failure, payload)
    return payload


def _resolve_certificate(cfg: AnalysisConfig, *, reuse: bool = True) -> tuple[np.ndarray, dict]:
    """P and its certificate.json payload, which has passed verification.

    A fixed P gets the smallest rate it certifies.  Otherwise, with `reuse`,
    a certificate.json in the output directory that passed for the same
    synthesis digest is checked again and returned; failing that, P is
    synthesized.  Reuse gives the same bits as synthesis, since JSON floats
    round-trip and the linear rate is recomputed from P.

    Raises:
        SynthesisError: no certificate, or one that fails verification
            (a _FailedCertificate, carrying its payload).
    """
    digest = None
    if cfg.fixed_shape is not None:
        P = cfg.fixed_shape
        rate = min_contraction_rate(P, vertex_matrices(cfg.system, cfg.gain))
        if rate >= 1.0:
            raise SynthesisError(
                f"fixed shape matrix certifies no rate below one (got {rate:.6f})",
                last_infeasible=None,
            )
    else:
        digest = _synthesis_digest(cfg)
        stored = _stored_certificate(cfg, digest) if reuse else None
        if stored is not None:
            with suppress(_FailedCertificate):
                return stored[0], _verified(cfg, *stored, digest)
        P, rate = synthesize_contraction(
            cfg.system,
            cfg.gain,
            feas_tol=cfg.feas_tol,
            bisect_tol=cfg.bisect_tol,
            trace_scale=cfg.trace_scale,
        )
    return P, _verified(cfg, P, rate, closed_loop_rate(P, cfg.system, cfg.gain), digest)


def cmd_certify(cfg: AnalysisConfig) -> dict:
    """Produce and independently verify a certificate; write certificate.json.

    Always synthesizes when P is omitted, never reading an earlier file.  A
    certificate that fails verification is still written, so its residuals
    can be inspected, and then reported as a synthesis failure.
    """
    try:
        _, payload = _resolve_certificate(cfg, reuse=False)
    except _FailedCertificate as exc:
        payload, failure = exc.payload, exc
    else:
        failure = None
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "certificate.json", payload)
    if failure is not None:
        raise SynthesisError(f"{failure}; residuals in {cfg.out_dir / 'certificate.json'}")
    return payload


@dataclass(frozen=True)
class AnalysisState:
    """The certificate, rate decision and ultimate bounds of one analysis."""

    P: np.ndarray
    profile: ContractionProfile
    pub_rate: Ellipsoid
    pub_selected: Ellipsoid


def _rate_profile(cfg: AnalysisConfig, ubar) -> tuple[np.ndarray, ContractionProfile]:
    """The certificate's P and the rate decision at one budget or a (G, m) grid."""
    P, certificate = _resolve_certificate(cfg)
    noise = noise_energy(P, cfg.system.W)
    r_lin = linear_region_scaling(P, cfg.gain.K, ubar, cfg.vbar)
    return P, select_rate(certificate["lambda"], certificate["lambda_L"], noise, r_lin)


def _analysis_state(cfg: AnalysisConfig) -> AnalysisState:
    P, profile = _rate_profile(cfg, cfg.system.ubar)
    return AnalysisState(
        P=P,
        profile=profile,
        pub_rate=pub(P, profile.rate, profile.noise_energy, cfg.epsilon),
        pub_selected=pub(P, profile.rate_selected, profile.noise_energy, cfg.epsilon),
    )


def _emit(cfg: AnalysisConfig, state: AnalysisState, stats=None) -> None:
    """Write the CSV artifacts cfg.emit names; `stats` adds the ensemble's."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if "data" in cfg.emit:
        profile = state.profile
        bounds = [
            expectation_bound_sequence(rate, profile.noise_energy, cfg.k_max)
            for rate in (profile.rate, profile.rate_linear, profile.rate_selected)
        ]
        q_mean = () if stats is None else stats.q_mean
        # Rows are generated while writing, so no artifact is held as text.
        rows = (
            [str(k), _fmt(float(q_mean[k])) if k < len(q_mean) else ""]
            + [_fmt(float(bound[k])) for bound in bounds]
            for k in range(cfg.k_max + 1)
        )
        _write_csv(cfg.out_dir / "data.csv", ["k", "e", "l", "ll", "lb"], rows)
    curves = {"lell": state.pub_rate, "lbell": state.pub_selected}
    planar = [*curves, "states"] if stats is not None else list(curves)
    wanted = [name for name in planar if name in cfg.emit]
    if cfg.system.n != 2:
        if wanted:
            print(f"{', '.join(wanted)} need a planar system; skipped", file=sys.stderr)
        return
    for name in wanted:
        if name == "states":
            pts = stats.final_states
        else:
            pts = boundary_polyline(curves[name], cfg.boundary_points)
        rows = ([_fmt(float(x)), _fmt(float(y))] for x, y in pts)
        _write_csv(cfg.out_dir / f"{name}.csv", ["x", "y"], rows)


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
    if cfg.system.n == 2:
        a_full = area(state.pub_rate)
        a_sel = area(state.pub_selected)
        payload["areas"] = {
            "lambda": float(a_full),
            "lambda_hat": float(a_sel),
            "reduction": float(1.0 - a_sel / a_full) if a_full > 0.0 else 0.0,
        }
    return payload


def cmd_analyze(cfg: AnalysisConfig) -> dict:
    """Bounds, reachable-set scalings, and boundary polylines; no simulation."""
    state = _analysis_state(cfg)
    _emit(cfg, state)
    payload = _analysis_payload(cfg, state)
    _write_json(cfg.out_dir / "analysis.json", payload)
    return payload


def cmd_simulate(cfg: AnalysisConfig) -> dict:
    """Analysis plus a Monte Carlo ensemble; fills the empirical column."""
    sim = cfg.simulation or DEFAULT_SIMULATION
    state = _analysis_state(cfg)
    stats = simulate_ensemble(
        cfg.system,
        cfg.gain,
        sim,
        shape_matrix=state.P,
        ellipsoid=state.pub_selected,
    )
    _emit(cfg, state, stats)
    violations = 1.0 - stats.containment
    payload = _analysis_payload(cfg, state)
    payload.update(
        {
            "seed": int(sim.seed),
            "horizon": int(sim.horizon),
            "num_traj": int(sim.num_traj),
            "noise_kind": sim.noise_kind,
            "workers": int(sim.workers),
            "pub_violation_max": float(violations.max()),
            "pub_violation_final": float(violations[-1]),
            "pub_violation_wilson_upper": wilson_upper(float(violations.max()), sim.num_traj),
            "q_mean_final": float(stats.q_mean[-1]),
        }
    )
    _write_json(cfg.out_dir / "simulation.json", payload)
    return payload


def cmd_sweep(cfg: AnalysisConfig) -> dict:
    """Effective rate as the saturation budget varies; writes convergence.csv."""
    if cfg.sweep_ubar is None:
        raise ConfigError("sweep command needs a 'sweep' config section")
    budgets = np.repeat(cfg.sweep_ubar[:, None], cfg.system.m, axis=1)
    budgets = budgets[np.all(cfg.vbar <= budgets, axis=1)]
    P, profile = _rate_profile(cfg, budgets)
    kept = ~profile.fallback
    swept = np.column_stack([budgets[kept, 0], profile.r_lin[kept], profile.rate_effective[kept]])
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    if "convergence" in cfg.emit:
        rows = ([_fmt(r_lin), _fmt(profile.rate_linear), _fmt(mu)] for _, r_lin, mu in swept)
        _write_csv(cfg.out_dir / "convergence.csv", ["rl", "ll", "lb"], rows)
    payload = {
        "lambda": float(profile.rate),
        "lambda_L": float(profile.rate_linear),
        "trace_PW": float(profile.noise_energy),
        # Infimum budget at which the tightening condition starts to hold.
        "ubar_star": linear_region_budget(P, cfg.gain.K, cfg.vbar, profile.condition_lhs),
        "grid_size": int(cfg.sweep_ubar.size),
        "admissible": len(swept),
        "first_admissible_ubar": float(swept[0, 0]) if len(swept) else None,
        "largest_r_L": float(swept[-1, 1]) if len(swept) else None,
        "last_effective_rate": float(swept[-1, 2]) if len(swept) else None,
    }
    _write_json(cfg.out_dir / "sweep.json", payload)
    return payload


def cmd_report(cfg: AnalysisConfig) -> dict:
    """Merge whichever JSON artifacts earlier commands left behind."""
    merged = {}
    for name in ("certificate", "analysis", "simulation", "sweep"):
        path = cfg.out_dir / f"{name}.json"
        if path.exists():
            try:
                merged[name] = json.loads(path.read_text(encoding="utf-8"))
            except json.JSONDecodeError as exc:
                raise ConfigError(f"cannot merge {path}: {exc}") from exc
        else:
            merged[name] = None
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(cfg.out_dir / "report.json", merged)
    return merged


_COMMANDS = {
    "certify": cmd_certify,
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


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
        if args.seed is not None:
            try:
                cfg.simulation = replace(cfg.simulation or DEFAULT_SIMULATION, seed=args.seed)
            except ValueError as exc:
                raise ConfigError(f"--seed: {exc}") from exc
        payload = _COMMANDS[args.command](cfg)
        print(json.dumps(payload, indent=2, sort_keys=True))
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


if __name__ == "__main__":
    raise SystemExit(main())
