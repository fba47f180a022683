"""satreach benchmark: drive ``satreach.cli.main`` in a warm process.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mc-demo --seed 1 --seconds 30 --trace 0

One client runs the workload's CLI operations back to back (a closed
loop) for ``--seconds``, always finishing the pass it is in; every
operation's artifacts are checked.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer metrics of spans recorded around
the library calls (see ``spans.py``) plus the tracing overhead.  The last
stdout line is the result object; the line before it is a detail record
(environment, config digests, per-pass and per-operation times, failures).
``--smoke`` shrinks every workload for ``smoke.py``.
"""

from __future__ import annotations

import os

# Set before NumPy loads OpenBLAS: the benchmark is single threaded apart
# from the workers: 2 operation of mc-demo.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 5
SETUP_CODE = "import sys, satreach.cli; satreach.cli.load_config(sys.argv[1])"


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for smoke.py")
    return parser.parse_args(argv)


def setup_sample(config: Path) -> float:
    """Wall time of a fresh interpreter that imports satreach.cli and loads a config."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(config)],
        cwd=ROOT, env=env, check=True,
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def environment() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


class Runner:
    """Runs a plan's operations through the CLI and checks each one."""

    def __init__(self, cli, tracer):
        self.cli = cli
        self.tracer = tracer
        self.op_seconds: dict[str, list[float]] = {}
        self.problems: list[str] = []

    def run_op(self, op, done: dict, traced: bool):
        from workloads import Result

        sink = io.StringIO()
        crash = None
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            tracing = self.tracer.installed() if traced else contextlib.nullcontext()
            start = time.perf_counter()
            try:
                with tracing:
                    code = self.cli.main(op.argv())
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception as exc:  # a crash is a failed operation, not a failed run
                code, crash = None, f"crashed: {exc!r}"
            seconds = time.perf_counter() - start
        result = Result(code=code, seconds=seconds)
        if crash:
            result.problem = crash
        elif code not in op.exit_ok:
            result.problem = f"exit {code}: {sink.getvalue().strip()[-300:]}"
        else:
            try:
                result.problem = op.check(result, done)
                if op.rate_json and code == 0 and not result.problem:
                    payload = json.loads((op.out / op.rate_json).read_text(encoding="utf-8"))
                    result.rate = float(payload["lambda"])
            except Exception as exc:  # a check that cannot read the artifacts fails the op
                result.problem = f"check raised {exc!r}"
        if result.problem:
            self.problems.append(f"{op.label}: {result.problem}")
        self.op_seconds.setdefault(op.label, []).append(seconds)
        return result

    def run_pass(self, plan, traced: bool = False) -> tuple[float, list]:
        for op in plan.ops:
            shutil.rmtree(op.out, ignore_errors=True)
        done = {}
        for op in plan.ops:
            done[op.label] = (op, self.run_op(op, done, traced))
        return sum(result.seconds for _, result in done.values()), list(done.values())

    def run_for(self, plan, seconds: float, min_passes: int, traced: bool = False,
                after_pass=None):
        """Whole passes for about ``seconds``: at least ``min_passes``, and
        another only while it would end no more than half a pass past the
        deadline.  ``after_pass()`` runs untimed after each pass."""
        walls, outcomes = [], []
        start = time.perf_counter()
        while (len(walls) < min_passes
               or time.perf_counter() - start + statistics.fmean(walls) / 2 < seconds):
            wall, done = self.run_pass(plan, traced)
            walls.append(wall)
            outcomes += done
            if after_pass is not None:
                after_pass()
        return walls, outcomes


def install_spans(tracer, cli) -> None:
    """Wrap the module attributes through which each layer is called."""
    import satreach.bounds as bounds
    import satreach.certify as certify
    import satreach.montecarlo as montecarlo

    def count_bytes(t, args, result):
        t.count("cli.bytes_written", os.path.getsize(args[0]))

    def count_steps(t, args, kwargs):
        t.count("montecarlo.traj_steps", args[2].num_traj * args[2].horizon)

    def count_feasible(t, args, result):
        t.count("certify.probes_feasible", result is not None)

    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "load_config", "cli.load_config")
    tracer.wrap(cli, "_write_csv", "cli.write_csv", on_result=count_bytes)
    tracer.wrap(cli, "_write_json", "cli.write_json", on_result=count_bytes)
    tracer.wrap(cli, "simulate_ensemble", "montecarlo.simulate_ensemble", on_call=count_steps)
    tracer.wrap(montecarlo, "saturate", "model.saturate")
    tracer.wrap(cli, "vertex_matrices", "model.vertex_matrices")
    tracer.wrap(certify, "vertex_matrices", "model.vertex_matrices")
    tracer.wrap(cli, "synthesize_contraction", "certify.synthesize_contraction")
    tracer.wrap(certify, "_feasible_shape", "certify.feasible_shape", on_result=count_feasible)
    tracer.wrap(certify, "_stein_correction", None,
                on_call=lambda t, args, kwargs: t.count("certify.stein_solves"))
    for name in ("min_contraction_rate", "closed_loop_rate", "verify_certificate"):
        tracer.wrap(cli, name, f"certify.{name}")
    for name in ("noise_energy", "linear_region_scaling", "select_rate", "expectation_bound_sequence"):
        tracer.wrap(cli, name, f"bounds.{name}")
    tracer.wrap(bounds, "effective_rate", "bounds.effective_rate")
    for name in ("pub", "boundary_polyline"):
        tracer.wrap(cli, name, f"sets.{name}")


def layer_metrics(summary: dict, counts, passes: int, overhead: float) -> dict:
    """Per-layer metrics per traced pass, in BENCHMARK.json order."""

    def span(name, key):
        return summary.get(name, {}).get(key, 0.0) / passes

    steps = counts["montecarlo.traj_steps"] / passes
    probes = span("certify.feasible_shape", "calls")
    cli_self = sum(entry["self_s"] for name, entry in summary.items() if name.startswith("cli."))
    values = {
        "montecarlo.simulate_ensemble.busy_s": (span("montecarlo.simulate_ensemble", "busy_s"), "s"),
        "montecarlo.traj_steps": (steps, "count"),
        "montecarlo.ns_per_traj_step": (
            1e9 * span("montecarlo.simulate_ensemble", "busy_s") / steps if steps else 0.0, "ns"),
        "model.saturate.calls": (span("model.saturate", "calls"), "count"),
        "model.saturate.busy_s": (span("model.saturate", "busy_s"), "s"),
        "certify.synthesize_contraction.busy_s": (span("certify.synthesize_contraction", "busy_s"), "s"),
        "certify.probes": (probes, "count"),
        "certify.probe_feasible_ratio": (
            counts["certify.probes_feasible"] / passes / probes if probes else 0.0, "ratio"),
        "certify.stein_solves": (counts["certify.stein_solves"] / passes, "count"),
        "certify.min_contraction_rate.busy_s": (span("certify.min_contraction_rate", "busy_s"), "s"),
        "model.vertex_matrices.busy_s": (span("model.vertex_matrices", "busy_s"), "s"),
        "bounds.linear_region_scaling.calls": (span("bounds.linear_region_scaling", "calls"), "count"),
        "bounds.linear_region_scaling.busy_s": (span("bounds.linear_region_scaling", "busy_s"), "s"),
        "bounds.select_rate.busy_s": (span("bounds.select_rate", "busy_s"), "s"),
        "bounds.effective_rate.busy_s": (span("bounds.effective_rate", "busy_s"), "s"),
        "sets.boundary_polyline.busy_s": (span("sets.boundary_polyline", "busy_s"), "s"),
        "cli.load_config.busy_s": (span("cli.load_config", "busy_s"), "s"),
        "cli.self_s": (cli_self / passes, "s"),
        "cli.bytes_written": (counts["cli.bytes_written"] / passes, "B"),
        "trace.overhead_s": (overhead, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "satreach" / "cli.py").is_file() or not (ROOT / "configs" / "demo.json").is_file():
        print(f"perfbench: {ROOT} is not a satreach checkout "
              "(src/satreach/cli.py or configs/demo.json missing)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import satreach.cli as cli

    from spans import Tracer
    from workloads import EXIT_SYNTHESIS, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    load_before = os.getloadavg()
    work = WORK / f"{args.workload}-{os.getpid()}"
    setup: list[float] = []
    traced_walls: list[float] = []
    tracer = Tracer()
    install_spans(tracer, cli)
    runner = Runner(cli, tracer)
    try:
        plan = WORKLOADS[args.workload](args.seed, work / "run", args.smoke)
        # Warm-up, not counted: one pass at smoke size runs every code path
        # once, so lazy imports and first-call costs stay out of the timing.
        runner.run_pass(WORKLOADS[args.workload](args.seed, work / "warm-up", True))
        runner.problems.clear()
        runner.op_seconds.clear()

        if args.trace:
            walls, outcomes = runner.run_for(plan, args.seconds / 2, 1)
            traced_walls, traced = runner.run_for(plan, args.seconds / 2, 1, traced=True)
            outcomes += traced
        else:
            # Set-up samples are spread over the run so that they meet the
            # machine in the same states as the passes do.
            def sample_setup():
                setup.append(setup_sample(plan.ops[0].config))

            sample_setup()
            # Two passes at least, so that wall_s is never one sample of
            # synth-batch's ~20 s pass.
            walls, outcomes = runner.run_for(plan, args.seconds, 2, after_pass=sample_setup)
            while len(setup) < SETUP_SAMPLES:
                sample_setup()
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    load_after = os.getloadavg()

    attempted = len(outcomes)
    failed = sum(1 for _, result in outcomes if result.problem)
    rate_ops = [result for op, result in outcomes if op.rate_json]
    rates = [result.rate for result in rate_ops if result.rate is not None]
    infeasible = sum(1 for result in rate_ops if result.code == EXIT_SYNTHESIS)
    settled = len(rates) + infeasible
    spans = tracer.summary()

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = layer_metrics(spans, tracer.counts, len(traced_walls), overhead)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ops_ok_frac": {"value": 1.0 - failed / attempted, "unit": "ratio"},
            "cert_rate_mean": {"value": statistics.fmean(rates) if rates else 1.0, "unit": "1"},
            "certified_frac": {"value": len(rates) / settled if settled else 0.0, "unit": "ratio"},
        }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "loadavg_before": load_before,
        "loadavg_after": load_after,
        "config_sha256": plan.configs,
        "setup_s_samples": setup,
        "pass_wall_s": walls,
        "traced_pass_wall_s": traced_walls,
        "op_median_s": {label: statistics.median(s) for label, s in runner.op_seconds.items()},
        "ops_failed_frac": failed / attempted,
        "certify_infeasible_frac": infeasible / settled if settled else 0.0,
        "problems": runner.problems[:20],
        "spans": spans,
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
