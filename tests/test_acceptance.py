"""Acceptance gate: one test per release criterion, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
alongside the pytest output.  Every criterion is numbered and checked at
its stated tolerance; timing limits use wall-clock time on the current
machine.
"""

import json
import time

import numpy as np
import pytest
from conftest import (
    grid_effective_rate_oracle,
    grid_min_rate_oracle,
    hull_membership_check,
    random_certifiable_problem,
)

import satreach as sr
from satreach import ContractionCertificate, FeedbackGain, SimulationConfig, SystemSpec
from satreach.cli import EXIT_OK, main

EPSILON = 0.2


def _verdict(num: int, label: str, ok: bool) -> None:
    print(f"[ACCEPTANCE {num}] {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} failed: {label}"


def _reference():
    sys_ref = SystemSpec(
        A=[[0.89, 0.10], [0.10, 0.89]],
        B=[[0.0], [1.0]],
        W=np.eye(2),
        ubar=[10.0],
    )
    gain = FeedbackGain(K=[[-0.282, -0.8415]])
    P = np.array([[3.54, 0.67], [0.67, 3.51]])
    return sys_ref, gain, P


def _fixed_shape_quantities():
    sys_ref, gain, P = _reference()
    rate = sr.min_contraction_rate(P, sr.vertex_matrices(sys_ref, gain))
    rate_linear = sr.closed_loop_rate(P, sys_ref, gain)
    noise = sr.noise_energy(P, sys_ref.W)
    r_lin = sr.linear_region_scaling(P, gain.K, sys_ref.ubar, [0.0])
    profile = sr.select_rate(rate, rate_linear, noise, r_lin)
    return sys_ref, gain, P, profile


def test_acceptance_1_contraction_synthesis():
    sys_ref, gain, _ = _reference()
    start = time.perf_counter()
    P, rate = sr.synthesize_contraction(sys_ref, gain)
    elapsed = time.perf_counter() - start
    rho2 = float(np.max(np.abs(np.linalg.eigvals(sys_ref.A))) ** 2)
    rate_linear = sr.closed_loop_rate(P, sys_ref, gain)
    cert = ContractionCertificate(P=P, rate=rate, rate_linear=rate_linear)
    verified = sr.verify_certificate(cert, sys_ref, gain).passed
    ok = (
        0.9752 <= rate <= 0.9852
        and rate >= rho2 - 1e-4
        and verified
        and elapsed < 10.0
    )
    _verdict(
        1,
        f"synthesis rate {rate:.6f} verified={verified} in {elapsed:.3f}s",
        ok,
    )


def test_acceptance_2_fixed_shape_quantities():
    start = time.perf_counter()
    _, _, _, profile = _fixed_shape_quantities()
    elapsed = time.perf_counter() - start
    ok = (
        abs(profile.rate_linear - 0.7684) <= 0.01
        and abs(profile.r_lin - 485.47) <= 0.01 * 485.47
        and profile.noise_energy == 7.05
        and 345.0 <= profile.condition_lhs <= 365.0
        and profile.condition_lhs < profile.r_lin
        and profile.rate_effective is not None
        and abs(profile.rate_effective - 0.7826) <= 0.005
        and elapsed < 1.0
    )
    _verdict(
        2,
        "lambda_L {:.4f}, r_L {:.2f}, trPW {:.2f}, effective {:.4f} in {:.3f}s".format(
            profile.rate_linear,
            profile.r_lin,
            profile.noise_energy,
            profile.rate_effective,
            elapsed,
        ),
        ok,
    )


def test_acceptance_3_ultimate_bound_scalings():
    _, _, P, profile = _fixed_shape_quantities()
    full = sr.pub(P, profile.rate, profile.noise_energy, EPSILON)
    selected = sr.pub(P, profile.rate_selected, profile.noise_energy, EPSILON)
    reduction = 1.0 - selected.r / full.r
    ok = (
        1759.0 <= full.r <= 1795.0
        and 160.0 <= selected.r <= 164.0
        and 0.90 <= reduction <= 0.92
    )
    _verdict(
        3,
        f"scalings {full.r:.1f} / {selected.r:.2f}, reduction {reduction:.4f}",
        ok,
    )


def test_acceptance_4_sweep_threshold(tmp_path):
    out = tmp_path / "out"
    config = {
        "system": {
            "A": [[0.89, 0.10], [0.10, 0.89]],
            "B": [[0.0], [1.0]],
            "W": [[1.0, 0.0], [0.0, 1.0]],
            "ubar": [10.0],
        },
        "gain": {"K": [[-0.282, -0.8415]]},
        "rates": {"P": [[3.54, 0.67], [0.67, 3.51]]},
        "prs": {"epsilon": EPSILON, "k_max": 100},
        "output": {"directory": str(out)},
        "sweep": {"ubar_min": 4.0, "ubar_max": 30.0, "count": 60},
    }
    cfg_path = tmp_path / "sweep.json"
    cfg_path.write_text(json.dumps(config), encoding="utf-8")
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    rows = (out / "convergence.csv").read_text(encoding="utf-8").strip().splitlines()[1:]
    table = np.array([[float(x) for x in row.split(",")] for row in rows])
    strictly_decreasing = bool(np.all(np.diff(table[:, 2]) < 0.0))
    tail_gap = float(table[-1, 2] - table[-1, 1])
    ok = (
        8.4 <= payload["ubar_star"] <= 8.7
        and strictly_decreasing
        and tail_gap < 0.01
    )
    _verdict(
        4,
        "threshold {:.4f}, decreasing={}, tail gap {:.5f}".format(
            payload["ubar_star"], strictly_decreasing, tail_gap
        ),
        ok,
    )


def test_acceptance_5_monte_carlo_validity():
    sys_ref, gain, P, profile = _fixed_shape_quantities()
    horizon, num_traj = 100, 1000
    bound_full = sr.expectation_bound_sequence(profile.rate, profile.noise_energy, horizon)
    bound_sel = sr.expectation_bound_sequence(
        profile.rate_selected, profile.noise_energy, horizon
    )
    ultimate = sr.pub(P, profile.rate_selected, profile.noise_energy, EPSILON)
    start = time.perf_counter()
    stats = sr.simulate_ensemble(
        sys_ref,
        gain,
        SimulationConfig(horizon=horizon, num_traj=num_traj, seed=0),
        ellipsoid=ultimate,
    )
    elapsed = time.perf_counter() - start
    margin = 3.0 * stats.q_stderr
    full_ok = bool(np.all(stats.q_mean <= bound_full + margin))
    sel_ok = bool(np.all(stats.q_mean <= bound_sel + margin))
    violation = 1.0 - stats.containment
    pub_ok = bool(np.all(violation <= EPSILON))
    ok = full_ok and sel_ok and pub_ok and elapsed < 30.0
    _verdict(
        5,
        "mean within full bound={}, selected bound={}, PUB misses<= {:.3f} in {:.2f}s".format(
            full_ok, sel_ok, float(violation.max()), elapsed
        ),
        ok,
    )


def test_acceptance_6_oracle_equivalence():
    rng = np.random.default_rng(2718)
    worst_eff = 0.0
    for _ in range(100):
        rate = rng.uniform(0.3, 0.99)
        rate_linear = rng.uniform(0.0, 0.95) * rate
        noise = rng.uniform(0.1, 10.0)
        r_lin = noise / (1.0 - rate) * rng.uniform(1.05, 50.0)
        mu = sr.effective_rate(rate, rate_linear, noise, r_lin)
        oracle = grid_effective_rate_oracle(rate, rate_linear, noise, r_lin)
        worst_eff = max(worst_eff, abs(mu - oracle))
    eff_ok = worst_eff <= 1e-5

    worst_rate = 0.0
    checked = 0
    while checked < 50:
        sys_r, gain_r = random_certifiable_problem(rng)
        G = rng.normal(size=(2, 2))
        P = G @ G.T + 0.3 * np.eye(2)
        verts = sr.vertex_matrices(sys_r, gain_r)
        rate = sr.min_contraction_rate(P, verts)
        if rate >= 1.0:
            continue
        worst_rate = max(worst_rate, abs(rate - grid_min_rate_oracle(P, verts)))
        checked += 1
    rate_ok = worst_rate <= 1.5e-5

    sys_ref, gain, _ = _reference()
    for _ in range(10_000):
        e = rng.normal(scale=40.0, size=2)
        v = rng.uniform(-10.0, 10.0, size=1)
        w = rng.normal(size=2)
        hull_membership_check(sys_ref, gain, e, v, w)

    ok = eff_ok and rate_ok
    _verdict(
        6,
        "effective-rate gap {:.2e}, min-rate gap {:.2e}, hull membership 10^4 samples".format(
            worst_eff, worst_rate
        ),
        ok,
    )


def test_acceptance_7_deterministic_artifacts(tmp_path):
    def run(tag: str, workers: int) -> dict:
        out = tmp_path / tag
        config = {
            "system": {
                "A": [[0.89, 0.10], [0.10, 0.89]],
                "B": [[0.0], [1.0]],
                "W": [[1.0, 0.0], [0.0, 1.0]],
                "ubar": [10.0],
            },
            "gain": {"K": [[-0.282, -0.8415]]},
            "rates": {"P": [[3.54, 0.67], [0.67, 3.51]]},
            "prs": {"epsilon": EPSILON, "k_max": 40, "boundary_points": 32},
            "simulation": {
                "horizon": 30,
                "num_traj": 120,
                "seed": 7,
                "workers": workers,
            },
            "output": {"directory": str(out)},
        }
        cfg_path = tmp_path / f"{tag}.json"
        cfg_path.write_text(json.dumps(config), encoding="utf-8")
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        names = ("simulation.json", "data.csv", "lell.csv", "lbell.csv", "states.csv")
        return {name: (out / name).read_bytes() for name in names}

    first = run("one", 1)
    second = run("two", 1)
    third = run("three", 4)
    # The retired worker count is accepted but not recorded.
    ok = first == second == third and "workers" not in json.loads(first["simulation.json"])
    _verdict(7, "artifacts byte-identical across reruns and worker counts", ok)
