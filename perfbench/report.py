"""Run every workload on a set of seeds and print each metric by name and unit.

Run from the root of a checkout:

    python3 perfbench/report.py                          # seed 1, every workload
    python3 perfbench/report.py --seeds 1-10 --trace --out perfbench/baseline.json

Each run is a fresh ``run.py`` process, so runs share no warm state.
For every end-to-end metric the table gives the median over the
seeds, the first and third quartiles, and the spread: the distance
between the quartiles as a share of the median.  ``--trace`` adds one
traced run per workload, on the first seed, and prints its per-layer
metrics.  ``--out`` writes all of it as JSON.  The exit code is 1 when
any run fails or reports a failed output check.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}: {proc.stderr[-500:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "spread": 0.0}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace", action="store_true", help="add one traced run per workload")
    parser.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    seeds = _seeds(args.seeds)
    summary = {"seeds": seeds, "run_seconds": seconds, "workloads": {}}
    all_correct = True
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        problems = []
        for seed in seeds:
            result, detail = run_once(workload, seed, seconds, 0)
            summary.setdefault("environment", detail["environment"])
            problems += detail["problems"]
            all_correct &= result["correct"]
            for name, entry in result["metrics"].items():
                values.setdefault(name, []).append(entry["value"])
                units[name] = entry["unit"]
        entry = {
            "runs": len(seeds),
            "end_to_end": {name: {"unit": units[name], **summarize(v), "values": v}
                           for name, v in values.items()},
        }
        print(f"{workload} ({len(seeds)} runs of {seconds} s)")
        for name, stats in entry["end_to_end"].items():
            print(f"  {name:<16} {stats['median']:>12.6g} {stats['unit']:<6} "
                  f"[{stats['q1']:.6g}, {stats['q3']:.6g}]  spread {stats['spread']:.3f}")
        if args.trace:
            result, detail = run_once(workload, seeds[0], seconds, 1)
            all_correct &= result["correct"]
            problems += detail["problems"]
            entry["per_layer"] = result["metrics"]
            for name, metric in result["metrics"].items():
                print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
        entry["problems"] = problems[:20]
        for problem in entry["problems"]:
            print(f"  FAILED {problem}")
        summary["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return 0 if all_correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
