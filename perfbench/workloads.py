"""Seeded inputs, CLI operations and output checks of the three workloads.

Each workload is a list of ``satreach`` CLI invocations (one pass) built
from generated JSON configs.  Every input derives from the benchmark seed
through ``numpy.random.default_rng``, so the same seed writes byte-identical
configs; their SHA-256 digests go out with the results.  Every operation
carries a check that reads its artifacts and re-derives what it can
without trusting the program's own verdicts.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable

import numpy as np

import satreach as sr

ROOT = Path(__file__).resolve().parents[1]
DEMO_CONFIG = ROOT / "configs" / "demo.json"

# Exit code of a synthesis failure: a documented outcome, not an error.
EXIT_SYNTHESIS = 3

# synth-batch and the saturated mc-demo plant are drawn once from these
# seeds; the run seed rotates each plant (see synth_batch).
POOL_SEED = 7
SATURATED_SEED = 6
POOL_SIZE = 24
PLANT_CLASSES = [(n, m) for m in (3, 4, 5) for n in (4, 6, 8)]


@dataclass
class Result:
    code: int | None
    seconds: float
    problem: str | None = None
    rate: float | None = None


@dataclass
class Op:
    """One CLI invocation and the check of what it wrote."""

    label: str
    command: str
    config: Path
    raw: dict
    exit_ok: tuple[int, ...] = (0,)
    # Artifact whose "lambda" counts toward cert_rate_mean / certified_frac.
    rate_json: str | None = None
    # check(result, {label: (op, result)} of the pass so far) -> problem or None
    check: Callable[[Result, dict], str | None] = lambda result, done: None

    @property
    def out(self) -> Path:
        return Path(self.raw["output"]["directory"])

    def argv(self) -> list[str]:
        return [self.command, "--config", str(self.config)]


@dataclass
class Plan:
    ops: list[Op]
    configs: dict[str, str] = field(default_factory=dict)  # file name -> sha256


def _write_config(plan: Plan, path: Path, raw: dict) -> Path:
    data = (json.dumps(raw, indent=2, sort_keys=True) + "\n").encode()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_bytes(data)
    plan.configs[path.name] = hashlib.sha256(data).hexdigest()
    return path


def multi_input_plant(rng: np.random.Generator, n: int, m: int):
    """Multi-input version of the tests' ``random_certifiable_problem``.

    Schur-stable A with a dominant mode, m inputs loosely aligned with its
    eigenvectors, and a strongly contracting least-squares gain.  Draws
    repeat until every saturation-hull vertex A + sum_J B_i K_i has squared
    spectral radius below 0.999.
    """
    while True:
        V = np.linalg.qr(rng.normal(size=(n, n)))[0]
        d = np.empty(n)
        d[0] = rng.uniform(0.8, 0.96)
        d[1:] = rng.uniform(0.2, 0.7, n - 1) * d[0] * rng.choice([-1.0, 1.0], n - 1)
        A = (V * d) @ V.T
        B = V[:, np.arange(m) % n] + 0.3 * rng.normal(size=(n, m))
        K = -rng.uniform(0.7, 1.0) * np.linalg.lstsq(B, A, rcond=None)[0]
        if np.abs(np.linalg.eigvals(A + B @ K)).max() ** 2 >= 0.8 * d[0] ** 2:
            continue
        vertices = (A + B[:, keep] @ K[keep] for keep in map(list, product((False, True), repeat=m)))
        if max(np.abs(np.linalg.eigvals(M)).max() ** 2 for M in vertices) < 0.999:
            return A, B, K


# ----------------------------------------------------------------- checks


def _load(out: Path, name: str) -> dict:
    return json.loads((out / name).read_text(encoding="utf-8"))


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.reader(handle))


def check_csv_round_trip(out: Path) -> str | None:
    """Every CSV number must read back as the same 17-digit string."""
    for path in sorted(out.glob("*.csv")):
        for row in _csv_rows(path)[1:]:
            for cell in row:
                if cell and format(float(cell), ".17g") != cell:
                    return f"{path.name}: '{cell}' does not round-trip"
    return None


def check_certificate(raw: dict, payload: dict) -> str | None:
    """Re-verify a reported (P, lambda, lambda_L) against the config's plant."""
    feas_tol = float(raw.get("rates", {}).get("feas_tol", 1e-7))
    system = raw["system"]
    plant = sr.SystemSpec(A=system["A"], B=system["B"], W=system["W"], ubar=system["ubar"])
    gain = sr.FeedbackGain(K=raw["gain"]["K"])
    P = np.asarray(payload["P"], dtype=float)
    rate = float(payload["lambda"])
    try:
        cert = sr.ContractionCertificate(
            P=P, rate=rate, rate_linear=float(payload["lambda_L"]), feas_tol=feas_tol
        )
    except ValueError as exc:
        return f"malformed certificate: {exc}"
    if not sr.verify_certificate(cert, plant, gain).passed:
        return "verify_certificate rejects the reported certificate"
    worst = sr.min_contraction_rate(P, sr.vertex_matrices(plant, gain))
    if worst > rate + feas_tol:
        return f"min_contraction_rate(P) = {worst!r} exceeds lambda = {rate!r}"
    return None


def _first(*problems: Callable[[], str | None]) -> str | None:
    for problem in problems:
        found = problem()
        if found:
            return found
    return None


def _simulation_check(op: Op, twin: str | None = None):
    """Certificate, PUB violation <= epsilon and CSV round trip; with
    ``twin``, artifacts byte-identical to that earlier op's apart from the
    recorded worker count."""

    def check(result: Result, done: dict) -> str | None:
        payload = _load(op.out, "simulation.json")
        epsilon = float(op.raw["prs"]["epsilon"])

        def violation():
            worst = payload["pub_violation_max"]
            if worst > epsilon:
                return f"PUB violation {worst} exceeds epsilon {epsilon}"
            return None

        def identical():
            if twin is None:
                return None
            other = done[twin][0]
            for path in sorted(other.out.glob("*.csv")):
                if (op.out / path.name).read_bytes() != path.read_bytes():
                    return f"{path.name} differs between {twin} and {op.label}"
            theirs = _load(other.out, "simulation.json")
            if {**theirs, "workers": None} != {**payload, "workers": None}:
                return f"simulation.json differs between {twin} and {op.label}"
            return None

        return _first(
            lambda: check_certificate(op.raw, payload),
            violation,
            identical,
            lambda: check_csv_round_trip(op.out),
        )

    return check


# -------------------------------------------------------------- workloads


def mc_demo(seed: int, work: Path, smoke: bool) -> Plan:
    """The demo ensemble with one and with two workers, plus a saturated
    n=6, m=3 ensemble whose shape matrix is synthesized here, untimed.

    The saturated plant is drawn once from SATURATED_SEED and rotated by a
    seeded orthogonal Q, as in synth_batch, so its certified rate is the
    same on every seed; its budgets, nominal input and noise are drawn
    from the seed.
    """
    rng = np.random.default_rng([seed, 1])
    plan = Plan(ops=[])
    sim_seed = int(rng.integers(2 ** 32))
    size = {"horizon": 20, "num_traj": 20} if smoke else {}
    for workers in (1, 2):
        raw = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
        raw["simulation"].update(size, seed=sim_seed, workers=workers)
        raw["output"]["directory"] = str(work / "out" / f"demo-w{workers}")
        path = _write_config(plan, work / "configs" / f"demo-w{workers}.json", raw)
        op = Op(f"demo-w{workers}", "simulate", path, raw, rate_json="simulation.json")
        op.check = _simulation_check(op, twin="demo-w1" if workers == 2 else None)
        plan.ops.append(op)

    n, m = 6, 3
    A, B, K = multi_input_plant(np.random.default_rng(SATURATED_SEED), n, m)
    Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
    A, B, K = Q @ A @ Q.T, Q @ B, K @ Q.T
    ubar = rng.uniform(0.3, 0.6, m)
    plant = sr.SystemSpec(A=A, B=B, W=np.eye(n), ubar=ubar)
    gain = sr.FeedbackGain(K=K)
    P, _ = sr.synthesize_contraction(plant, gain)
    v = rng.uniform(0.2, 0.5, m) * ubar * rng.choice([-1.0, 1.0], m)
    raw = {
        "system": {"A": A.tolist(), "B": B.tolist(), "W": np.eye(n).tolist(), "ubar": ubar.tolist()},
        "gain": {"K": K.tolist()},
        "rates": {"P": P.tolist()},
        "prs": {"epsilon": 0.2, "k_max": 100, "vbar": np.abs(v).tolist()},
        "simulation": {
            "horizon": 20 if smoke else 100,
            "num_traj": 20 if smoke else 1000,
            "seed": int(rng.integers(2 ** 32)),
            "noise_kind": "uniform",
            "v_policy": v.tolist(),
            "workers": 1,
        },
        "output": {"directory": str(work / "out" / "saturated"), "emit": ["data"]},
    }
    path = _write_config(plan, work / "configs" / "saturated.json", raw)
    op = Op("saturated", "simulate", path, raw, rate_json="simulation.json")
    op.check = _simulation_check(op)
    plan.ops.append(op)
    return plan


def synth_batch(seed: int, work: Path, smoke: bool) -> Plan:
    """``certify`` then ``analyze`` (P omitted, so both synthesize) on 24
    plants with n in {4, 6, 8} and m in {3, 4, 5}.

    The plants are drawn once from POOL_SEED.  The run seed applies a
    seeded orthogonal change of coordinates Q to each (A -> Q A Q',
    B -> Q B, K -> K Q') and draws its noise covariance and budgets.  A
    rotation leaves the certification problem, and so its heavy-tailed
    cost, unchanged while every number the program sees is new; a fresh
    draw of 24 plants per seed swings the batch time by more than 2x.
    """
    pool_rng = np.random.default_rng(POOL_SEED)
    rng = np.random.default_rng([seed, 2])
    plan = Plan(ops=[])
    count = 3 if smoke else POOL_SIZE
    for index in range(count):
        n, m = PLANT_CLASSES[index % len(PLANT_CLASSES)]
        A, B, K = multi_input_plant(pool_rng, n, m)
        Q = np.linalg.qr(rng.normal(size=(n, n)))[0]
        F = rng.normal(size=(n, n)) / np.sqrt(n)
        W = F @ F.T + 0.1 * np.eye(n)
        raw = {
            "system": {
                "A": (Q @ A @ Q.T).tolist(),
                "B": (Q @ B).tolist(),
                "W": (0.5 * (W + W.T)).tolist(),
                "ubar": rng.uniform(0.5, 2.0, m).tolist(),
            },
            "gain": {"K": (K @ Q.T).tolist()},
            "rates": {},
            "prs": {"epsilon": 0.2, "k_max": 100, "vbar": [0.0] * m},
            "output": {"directory": str(work / "out" / f"p{index:02d}"), "emit": ["data"]},
        }
        path = _write_config(plan, work / "configs" / f"p{index:02d}.json", raw)
        certify = Op(
            f"p{index:02d}-certify", "certify", path, raw,
            exit_ok=(0, EXIT_SYNTHESIS), rate_json="certificate.json",
        )
        analyze = Op(f"p{index:02d}-analyze", "analyze", path, raw, exit_ok=(0, EXIT_SYNTHESIS))
        certify.check = _certify_check(certify)
        analyze.check = _analyze_check(analyze, certify.label)
        plan.ops += [certify, analyze]
    return plan


def _certify_check(op: Op):
    def check(result: Result, done: dict) -> str | None:
        if result.code == EXIT_SYNTHESIS:
            return None
        payload = _load(op.out, "certificate.json")
        if payload["pass"] is not True:
            return "certificate.json reports pass = false"
        return check_certificate(op.raw, payload)

    return check


def _analyze_check(op: Op, certify_label: str):
    def check(result: Result, done: dict) -> str | None:
        certified = done[certify_label][1].code
        if result.code != certified:
            return f"analyze exits {result.code} but certify exited {certified}"
        if result.code == EXIT_SYNTHESIS:
            return None
        return _first(
            lambda: check_certificate(op.raw, _load(op.out, "analysis.json")),
            lambda: check_csv_round_trip(op.out),
        )

    return check


def sweep_export(seed: int, work: Path, smoke: bool) -> Plan:
    """The demo plant with its fixed P through analyze, sweep and report,
    at about 2e4 sweep budgets, bound steps and boundary points."""
    rng = np.random.default_rng([seed, 3])
    plan = Plan(ops=[])
    size = 200 if smoke else 20_000
    raw = json.loads(DEMO_CONFIG.read_text(encoding="utf-8"))
    raw.pop("simulation")
    raw["system"]["ubar"] = [float(rng.uniform(8.0, 12.0))]
    raw["prs"].update(epsilon=float(rng.uniform(0.1, 0.3)), k_max=size, boundary_points=size)
    raw["sweep"] = {
        "ubar_min": float(rng.uniform(3.0, 5.0)),
        "ubar_max": float(rng.uniform(28.0, 36.0)),
        "count": size,
    }
    raw["output"]["directory"] = str(work / "out" / "sweep")
    path = _write_config(plan, work / "configs" / "sweep.json", raw)
    analyze = Op("analyze", "analyze", path, raw, rate_json="analysis.json")
    sweep = Op("sweep", "sweep", path, raw)
    report = Op("report", "report", path, raw)
    out = analyze.out

    analyze.check = lambda result, done: _first(
        lambda: check_certificate(raw, _load(out, "analysis.json")),
        lambda: check_csv_round_trip(out),
    )

    def check_sweep(result: Result, done: dict) -> str | None:
        summary = _load(out, "sweep.json")
        rows = [[float(x) for x in row] for row in _csv_rows(out / "convergence.csv")[1:]]
        if len(rows) != summary["admissible"] or not rows:
            return f"convergence.csv has {len(rows)} rows, sweep.json {summary['admissible']}"
        r_lin, linear, effective = (np.array(col) for col in zip(*rows))
        if not np.all(np.diff(effective) < 0.0):
            return "convergence.csv effective rate is not strictly decreasing"
        if not np.all(np.diff(r_lin) > 0.0):
            return "convergence.csv r_L is not strictly increasing"
        if not np.all(linear == summary["lambda_L"]):
            return "convergence.csv ll column differs from lambda_L"
        return check_csv_round_trip(out)

    def check_report(result: Result, done: dict) -> str | None:
        merged = _load(out, "report.json")
        expected = {
            "certificate": None,
            "analysis": _load(out, "analysis.json"),
            "simulation": None,
            "sweep": _load(out, "sweep.json"),
        }
        return None if merged == expected else "report.json does not merge the artifacts"

    sweep.check = check_sweep
    report.check = check_report
    plan.ops += [analyze, sweep, report]
    return plan


WORKLOADS = {
    "mc-demo": mc_demo,
    "synth-batch": synth_batch,
    "sweep-export": sweep_export,
}
