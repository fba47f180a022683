"""The benchmark's own test: every workload at smoke size, traced and not.

Run from the root of a checkout (takes about half a minute):

    python3 perfbench/smoke.py

For each workload and ``--trace 0|1`` it checks that the run exits 0 with
every output check passing, that it prints exactly the metrics
BENCHMARK.json names, each with its unit, that every per-layer metric
the workload is meant to move is nonzero, and that no span has negative
self time.  It also checks that the benchmark refuses to run, without
printing a result, in a directory that holds only the benchmark.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RUN = ROOT / "perfbench" / "run.py"

# Per-layer metrics that must be nonzero on each workload; README.md says
# which end-to-end metric each should move.
LAYER_TARGETS = {
    "mc-demo": [
        "montecarlo.simulate_ensemble.busy_s", "montecarlo.traj_steps",
        "montecarlo.ns_per_traj_step", "model.saturate.calls", "model.saturate.busy_s",
    ],
    "synth-batch": [
        "certify.synthesize_contraction.busy_s", "certify.probes",
        "certify.probe_feasible_ratio", "certify.stein_solves", "model.vertex_matrices.busy_s",
    ],
    "sweep-export": [
        "bounds.linear_region_scaling.calls", "bounds.linear_region_scaling.busy_s",
        "bounds.select_rate.busy_s", "bounds.effective_rate.busy_s",
        "sets.boundary_polyline.busy_s", "certify.min_contraction_rate.busy_s",
    ],
}
EVERY_WORKLOAD = ["cli.load_config.busy_s", "cli.self_s", "cli.bytes_written"]


def _run(cwd: Path, workload: str, trace: int, smoke: bool = True):
    argv = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    return subprocess.run(argv + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=300)


def check_workload(spec: dict, workload: str, trace: int) -> list[str]:
    where = f"{workload} --trace {trace}"
    proc = _run(ROOT, workload, trace)
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2])["detail"]
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: output checks failed: {detail['problems']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    if emitted != expected:
        problems.append(f"{where}: metrics {emitted} differ from BENCHMARK.json {expected}")
    for name, entry in result["metrics"].items():
        if not isinstance(entry["value"], (int, float)):
            problems.append(f"{where}: {name} is not a number")
    if trace:
        for name in LAYER_TARGETS[workload] + EVERY_WORKLOAD:
            if not result["metrics"][name]["value"] > 0:
                problems.append(f"{where}: {name} is not positive")
        for name, entry in detail["spans"].items():
            if entry["min_self_s"] < 0:
                problems.append(f"{where}: span {name} has self time {entry['min_self_s']}")
    else:
        for name, entry in result["metrics"].items():
            if not entry["value"] > 0:
                problems.append(f"{where}: end-to-end metric {name} is not positive")
    return problems


def check_refuses_bare_directory(workload: str) -> list[str]:
    """Only BENCHMARK.json and perfbench/: exit nonzero, print no result."""
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(bare, workload, 0, smoke=False)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    problems = []
    if sorted(workloads) != sorted(LAYER_TARGETS):
        problems.append(f"workloads {workloads} differ from {sorted(LAYER_TARGETS)}")
    for workload in workloads:
        for trace in (0, 1):
            problems += check_workload(spec, workload, trace)
    problems += check_refuses_bare_directory(workloads[0])
    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
