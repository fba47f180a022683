"""End-to-end CLI behaviour: configs, artifacts, exit codes, determinism."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import satreach as sr
from satreach.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_SYNTHESIS,
    _write_csv,
    _write_json,
    load_config,
    main,
)

REF_RATE = 0.98010206886129503
REF_RATE_LINEAR = 0.76852028012028373
REF_EFFECTIVE = 0.78266292246021862


def base_config(out_dir: Path, **tweaks) -> dict:
    cfg = {
        "system": {
            "A": [[0.89, 0.10], [0.10, 0.89]],
            "B": [[0.0], [1.0]],
            "W": [[1.0, 0.0], [0.0, 1.0]],
            "ubar": [10.0],
        },
        "gain": {"K": [[-0.282, -0.8415]]},
        "rates": {"P": [[3.54, 0.67], [0.67, 3.51]]},
        "prs": {"epsilon": 0.2, "k_max": 40, "boundary_points": 16},
        "simulation": {"horizon": 25, "num_traj": 60, "seed": 0},
        "output": {"directory": str(out_dir)},
    }
    for key, value in tweaks.items():
        if value is None:
            cfg.pop(key, None)
        else:
            cfg[key] = value
    return cfg


def write_config(tmp_path: Path, cfg: dict, name: str = "config.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def test_certify_with_fixed_shape(tmp_path, capsys):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["certify", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    assert payload["lambda"] == pytest.approx(REF_RATE, rel=1e-12)
    assert payload["lambda_L"] == pytest.approx(REF_RATE_LINEAR, rel=1e-12)
    assert payload["pass"] is True
    assert np.allclose(payload["P"], [[3.54, 0.67], [0.67, 3.51]])
    assert min(payload["residuals"]["vertices"]) >= -1e-7
    # The same summary lands on stdout.
    assert json.loads(capsys.readouterr().out)["pass"] is True


def test_certify_synthesizes_when_shape_missing(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["rates"] = {}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    assert payload["lambda"] == pytest.approx(0.9801000000000001, abs=1e-6)
    assert payload["pass"] is True


def test_config_errors_use_their_own_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["certify", "--config", str(bad)]) == EXIT_CONFIG
    assert main(["certify", "--config", str(tmp_path / "missing.json")]) == EXIT_CONFIG
    cfg = base_config(tmp_path / "out")
    del cfg["system"]
    assert main(["certify", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    cfg = base_config(tmp_path / "out")
    cfg["prs"]["epsilon"] = 0.0
    assert (
        main(["certify", "--config", str(write_config(tmp_path, cfg, "eps.json"))])
        == EXIT_CONFIG
    )


def test_synthesis_failure_exit_code(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["system"]["A"] = [[0.9, 0.0], [0.0, 0.9]]
    cfg["gain"]["K"] = [[0.0, 10.0]]
    cfg["rates"] = {"P": [[1.0, 0.0], [0.0, 1.0]]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", str(cfg_path)]) == EXIT_SYNTHESIS


def test_certify_zero_gain_writes_failed_certificate_and_exits_nonzero(tmp_path, capsys):
    # With K = 0 every hull vertex is the closed loop, so the rate gap the
    # certificate needs cannot exist and verification must fail.
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["gain"]["K"] = [[0.0, 0.0]]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", str(cfg_path)]) == EXIT_SYNTHESIS
    payload = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    assert payload["pass"] is False
    assert payload["lambda"] == payload["lambda_L"]
    assert "certificate fails verification" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["certify", "analyze", "simulate", "sweep"])
def test_unordered_rates_are_a_synthesis_failure_for_every_command(tmp_path, capsys, command):
    # K = 0 makes the linear rate equal the hull-wide rate; each command
    # stops where the certificate is resolved and names that failure.
    out = tmp_path / "out"
    cfg = base_config(out, sweep={"ubar_min": 4.0, "ubar_max": 30.0, "count": 5})
    cfg["gain"]["K"] = [[0.0, 0.0]]
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_SYNTHESIS
    assert "certificate rates are unordered" in capsys.readouterr().err
    written = sorted(path.name for path in out.iterdir()) if out.exists() else []
    assert written == (["certificate.json"] if command == "certify" else [])


def test_precondition_failure_exit_code(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["prs"]["vbar"] = [11.0]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", str(cfg_path)]) == EXIT_PRECONDITION


def test_analyze_reference_report(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["analyze", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert payload["lambda"] == pytest.approx(REF_RATE, rel=1e-12)
    assert payload["lambda_L"] == pytest.approx(REF_RATE_LINEAR, rel=1e-12)
    assert payload["trace_PW"] == 7.05
    assert payload["r_L"] == pytest.approx(485.29192773090068, rel=1e-12)
    assert payload["condition_lhs"] < payload["r_L"]
    assert payload["fallback"] is False
    assert payload["lambda_bar_star"] == pytest.approx(REF_EFFECTIVE, abs=1e-6)
    assert payload["lambda_hat"] == payload["lambda_bar_star"]
    assert payload["pub_scalings"]["lambda"] == pytest.approx(1771.5409584, rel=1e-9)
    assert payload["pub_scalings"]["lambda_hat"] == pytest.approx(162.1904561, rel=1e-9)
    assert 0.90 <= payload["scaling_reduction"] <= 0.92
    assert 0.90 <= payload["areas"]["reduction"] <= 0.92


def test_analyze_csv_round_trip_matches_bounds(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    main(["analyze", "--config", str(cfg_path)])
    header, rows = read_csv(out / "data.csv")
    assert header == ["k", "e", "l", "ll", "lb"]
    assert len(rows) == 41
    assert all(row[1] == "" for row in rows)
    payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    noise = payload["trace_PW"]
    expected_l = sr.expectation_bound_sequence(payload["lambda"], noise, 40)
    expected_ll = sr.expectation_bound_sequence(payload["lambda_L"], noise, 40)
    expected_lb = sr.expectation_bound_sequence(payload["lambda_hat"], noise, 40)
    for k, row in enumerate(rows):
        assert int(row[0]) == k
        assert float(row[2]) == expected_l[k]
        assert float(row[3]) == expected_ll[k]
        assert float(row[4]) == expected_lb[k]


def test_analyze_boundary_files(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    main(["analyze", "--config", str(cfg_path)])
    payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    P = np.array(payload["P"])
    for name, key in (("lell", "lambda"), ("lbell", "lambda_hat")):
        header, rows = read_csv(out / f"{name}.csv")
        assert header == ["x", "y"]
        assert len(rows) == 16
        radius = payload["pub_scalings"][key]
        for row in rows:
            x = np.array([float(row[0]), float(row[1])])
            assert x @ P @ x == pytest.approx(radius, rel=1e-10)


def test_analyze_fallback_duplicates_rate_column(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["system"]["ubar"] = [5.0]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert payload["fallback"] is True
    assert payload["lambda_bar_star"] is None
    assert payload["lambda_hat"] == payload["lambda"]
    _, rows = read_csv(out / "data.csv")
    assert all(row[4] == row[2] for row in rows)


def test_analyze_zero_noise_zeroes_all_bounds(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["system"]["W"] = [[0.0, 0.0], [0.0, 0.0]]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "analysis.json").read_text(encoding="utf-8"))
    assert payload["trace_PW"] == 0.0
    assert payload["lambda_hat"] == payload["lambda_L"]
    _, rows = read_csv(out / "data.csv")
    for row in rows:
        assert float(row[2]) == 0.0
        assert float(row[3]) == 0.0
        assert float(row[4]) == 0.0


def test_analyze_emit_filter(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["output"]["emit"] = ["data"]
    cfg_path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", str(cfg_path)]) == EXIT_OK
    assert (out / "data.csv").exists()
    assert not (out / "lell.csv").exists()
    cfg["output"]["emit"] = ["data", "nonsense"]
    assert main(["analyze", "--config", str(write_config(tmp_path, cfg, "b.json"))]) == EXIT_CONFIG


def test_simulate_fills_empirical_column(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "simulation.json").read_text(encoding="utf-8"))
    assert payload["seed"] == 0
    assert payload["num_traj"] == 60
    assert payload["pub_violation_max"] <= 0.2
    assert payload["pub_violation_wilson_upper"] == sr.montecarlo.wilson_upper(
        payload["pub_violation_max"], 60
    )
    _, rows = read_csv(out / "data.csv")
    assert len(rows) == 41
    assert rows[0][1] == "0"
    horizon = payload["horizon"]
    assert all(row[1] != "" for row in rows[: horizon + 1])
    assert all(row[1] == "" for row in rows[horizon + 1 :])
    assert float(rows[horizon][1]) == pytest.approx(payload["q_mean_final"], rel=1e-15)


def test_simulate_byte_identical_across_runs_and_workers(tmp_path):
    names = ("data.csv", "lell.csv", "lbell.csv", "states.csv")
    blobs = {}
    for tag, workers in (("a", 1), ("b", 1), ("c", 3)):
        out = tmp_path / tag
        cfg = base_config(out)
        cfg["simulation"]["workers"] = workers
        cfg_path = write_config(tmp_path, cfg, f"{tag}.json")
        assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
        blobs[tag] = {name: (out / name).read_bytes() for name in names}
    assert blobs["a"] == blobs["b"]
    assert blobs["a"] == blobs["c"]


def test_simulate_states_mostly_inside_selected_bound(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["simulation"] = {"horizon": 60, "num_traj": 200, "seed": 0}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "simulation.json").read_text(encoding="utf-8"))
    P = np.array(payload["P"])
    radius = payload["pub_scalings"]["lambda_hat"]
    _, rows = read_csv(out / "states.csv")
    assert len(rows) == 200
    pts = np.array([[float(a), float(b)] for a, b in rows])
    inside = np.einsum("ij,jk,ik->i", pts, P, pts) <= radius
    assert inside.mean() >= 0.8


def test_simulate_seed_override_changes_data(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    cfg_path = write_config(tmp_path, base_config(out_a))
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    assert (
        main(["simulate", "--config", str(cfg_path), "--out", str(out_b), "--seed", "9"])
        == EXIT_OK
    )
    payload = json.loads((out_b / "simulation.json").read_text(encoding="utf-8"))
    assert payload["seed"] == 9
    assert (out_a / "states.csv").read_bytes() != (out_b / "states.csv").read_bytes()


def test_three_state_system_skips_planar_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["system"] = {
        "A": [[0.9, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
        "B": [[1.0], [0.0], [0.0]],
        "W": np.eye(3).tolist(),
        "ubar": [2.0],
    }
    cfg["gain"] = {"K": [[-0.5, 0.0, 0.0]]}
    cfg["rates"] = {"P": np.eye(3).tolist()}
    cfg["simulation"] = {"horizon": 10, "num_traj": 10, "seed": 0}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["simulate", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "simulation.json").read_text(encoding="utf-8"))
    assert "areas" not in payload
    assert payload["fallback"] is False
    assert not (out / "states.csv").exists()
    assert not (out / "lell.csv").exists()
    assert "planar" in capsys.readouterr().err


def test_sweep_threshold_and_trend(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sweep"] = {"ubar_min": 4.0, "ubar_max": 30.0, "count": 40}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
    payload = json.loads((out / "sweep.json").read_text(encoding="utf-8"))
    assert 8.4 <= payload["ubar_star"] <= 8.7
    assert payload["admissible"] < payload["grid_size"]
    assert payload["first_admissible_ubar"] > payload["ubar_star"] - 0.7
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["rl", "ll", "lb"]
    assert len(rows) == payload["admissible"]
    rl = np.array([float(r[0]) for r in rows])
    ll = np.array([float(r[1]) for r in rows])
    lb = np.array([float(r[2]) for r in rows])
    assert np.all(np.diff(rl) > 0.0)
    assert np.allclose(ll, REF_RATE_LINEAR, rtol=1e-12)
    assert np.all(np.diff(lb) < 0.0)
    assert np.all(lb > ll)
    assert lb[-1] - ll[-1] < 0.01


def test_sweep_single_point_matches_reference(tmp_path):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["sweep"] = {"ubar_values": [10.0]}
    cfg_path = write_config(tmp_path, cfg)
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_OK
    _, rows = read_csv(out / "convergence.csv")
    assert len(rows) == 1
    assert float(rows[0][2]) == pytest.approx(REF_EFFECTIVE, abs=1e-6)


def test_sweep_requires_its_config_block(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["sweep", "--config", str(cfg_path)]) == EXIT_CONFIG


def test_report_merges_available_artifacts(tmp_path):
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    assert main(["certify", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["analyze", "--config", str(cfg_path)]) == EXIT_OK
    assert main(["report", "--config", str(cfg_path)]) == EXIT_OK
    merged = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert merged["certificate"]["pass"] is True
    assert merged["analysis"]["lambda"] == pytest.approx(REF_RATE, rel=1e-12)
    assert merged["simulation"] is None
    assert merged["sweep"] is None


def test_out_flag_overrides_directory(tmp_path):
    override = tmp_path / "elsewhere"
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["analyze", "--config", str(cfg_path), "--out", str(override)]) == EXIT_OK
    assert (override / "analysis.json").exists()
    assert not (tmp_path / "out").exists()


def test_demo_config_loads():
    cfg = load_config(Path(__file__).resolve().parents[1] / "configs" / "demo.json")
    assert cfg.simulation.horizon == 100
    assert cfg.sweep_ubar.size == 60


def test_config_rejects_fractional_integers(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["simulation"]["horizon"] = 10.7
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    cfg["simulation"]["horizon"] = 25.0
    assert load_config(write_config(tmp_path, cfg, "whole.json")).simulation.horizon == 25


def test_config_rejects_boolean_integers(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["simulation"]["num_traj"] = True
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG


def test_config_rejects_unknown_section_keys(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["simulation"]["num_trajs"] = 500
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG


def test_config_rejects_unknown_top_level_keys(tmp_path):
    cfg = base_config(tmp_path / "out")
    cfg["simulations"] = {"horizon": 5}
    assert main(["analyze", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG


def test_seed_override_beyond_64_bits_is_a_config_error(tmp_path):
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    argv = ["simulate", "--config", str(cfg_path), "--seed", str(2**64)]
    assert main(argv) == EXIT_CONFIG
    assert main(argv[:-1] + ["-1"]) == EXIT_CONFIG


def _per_step(horizon: int, k: int, value: float) -> list:
    policy = [[0.0]] * horizon
    policy[k] = [value]
    return policy


@pytest.mark.parametrize(
    "vbar, v_policy",
    [
        ([0.0], [9.5]),
        ([0.4], _per_step(25, 7, -0.5)),
        ([0.4], [[0.1, 0.1]] * 25),
        ([0.4], [[0.1]] * 7),
    ],
)
def test_nominal_inputs_beyond_vbar_or_misshapen_are_config_errors(tmp_path, capsys, vbar, v_policy):
    # The ensemble is checked against a rate tightened for |v| <= vbar: with
    # v = 9.5 and vbar = 0 that rate held only for v = 0, and it exited 0.
    # A per-step policy of the wrong length exited 4 after the analysis.
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["prs"]["vbar"] = vbar
    cfg["simulation"]["v_policy"] = v_policy
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert "v_policy" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "vbar, v_policy", [([9.5], [9.5]), ([0.4], _per_step(25, 7, -0.4))]
)
def test_nominal_inputs_at_vbar_are_accepted(tmp_path, vbar, v_policy):
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["prs"]["vbar"] = vbar
    cfg["simulation"]["v_policy"] = v_policy
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
    payload = json.loads((out / "simulation.json").read_text(encoding="utf-8"))
    if vbar == [9.5]:
        # r_L = 1.21 is too small to tighten, so the hull rate is kept.
        assert payload["r_L"] == pytest.approx(1.21, abs=0.01)
        assert payload["fallback"] is True
        assert payload["lambda_hat"] == payload["lambda"]


def test_interrupted_writes_keep_the_previous_artifacts(tmp_path):
    assert main(["analyze", "--config", str(write_config(tmp_path, base_config(tmp_path / "out")))]) == EXIT_OK
    out = tmp_path / "out"
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def rows():
        for k in range(10_000):
            if k == 5_000:
                raise RuntimeError("interrupted")
            yield [str(k), "1.0"]

    with pytest.raises(RuntimeError, match="interrupted"):
        _write_csv(out / "data.csv", ["k", "e"], rows())
    with pytest.raises(TypeError):
        _write_json(out / "analysis.json", {"a": list(range(10_000)), "b": object()})
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


# Reuse of certificate.json: the demo plant with P left to synthesis.

SWEEP = {"ubar_min": 4.0, "ubar_max": 30.0, "count": 20}


def synthesized_config(out_dir: Path) -> dict:
    cfg = base_config(out_dir, sweep=dict(SWEEP))
    cfg["rates"] = {}
    return cfg


@pytest.fixture
def synthesis_calls(monkeypatch):
    """Count the CLI's calls of synthesize_contraction."""
    calls = []
    real = sr.cli.synthesize_contraction

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(sr.cli, "synthesize_contraction", counting)
    return calls


def artifacts(out: Path) -> dict:
    """Every artifact but the certificate, as bytes."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir()) if p.name != "certificate.json"}


def fresh_artifacts(tmp_path: Path, cfg: dict, command: str = "analyze") -> dict:
    """What `command` writes into an empty directory."""
    out = tmp_path / f"fresh-{command}"
    path = write_config(tmp_path, cfg, f"fresh-{command}.json")
    assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_OK
    return artifacts(out)


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
def test_reuse_writes_the_same_bytes_as_synthesis(tmp_path, synthesis_calls, command):
    out = tmp_path / "out"
    cfg = synthesized_config(out)
    expected = fresh_artifacts(tmp_path, cfg, command)
    assert len(synthesis_calls) == 1
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", str(path)]) == EXIT_OK
    assert main([command, "--config", str(path)]) == EXIT_OK
    assert len(synthesis_calls) == 2
    assert artifacts(out) == expected


def test_certificate_carries_the_synthesis_digest(tmp_path):
    out = tmp_path / "out"
    cfg = synthesized_config(out)
    assert main(["certify", "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
    payload = json.loads((out / "certificate.json").read_text(encoding="utf-8"))
    assert len(payload["config_sha256"]) == 64
    # Written-out defaults hash like omitted ones.
    cfg["rates"] = {"feas_tol": 1e-7, "bisect_tol": 1e-4, "trace_scale": 1.0}
    again = load_config(write_config(tmp_path, cfg, "explicit.json"))
    assert sr.cli._synthesis_digest(again) == payload["config_sha256"]
    # A fixed P is never reused, so it carries no digest.
    fixed = base_config(tmp_path / "fixed")
    assert main(["certify", "--config", str(write_config(tmp_path, fixed, "fixed.json"))]) == EXIT_OK
    payload = json.loads((tmp_path / "fixed" / "certificate.json").read_text(encoding="utf-8"))
    assert payload["config_sha256"] is None


def _drop(path: Path) -> None:
    path.unlink()


def _edit(**changes):
    def edit(path: Path) -> None:
        payload = json.loads(path.read_text(encoding="utf-8"))
        for key, change in changes.items():
            payload[key] = change(payload[key])
        path.write_text(json.dumps(payload), encoding="utf-8")

    return edit


def _truncate(path: Path) -> None:
    text = path.read_text(encoding="utf-8")
    path.write_text(text[: len(text) // 2], encoding="utf-8")


@pytest.mark.parametrize(
    "spoil",
    [
        _drop,
        _edit(**{"pass": lambda _: False}),
        _edit(**{"lambda": lambda rate: rate - 1e-3}),
        _edit(P=lambda _: "not a matrix"),
        _edit(config_sha256=lambda digest: digest[::-1]),
        _truncate,
    ],
    ids=["missing", "pass-false", "lambda-below-rate", "malformed-P", "other-digest", "truncated"],
)
def test_unusable_certificate_is_resynthesized(tmp_path, synthesis_calls, spoil):
    out = tmp_path / "out"
    cfg = synthesized_config(out)
    expected = fresh_artifacts(tmp_path, cfg)
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", str(path)]) == EXIT_OK
    spoil(out / "certificate.json")
    del synthesis_calls[:]
    assert main(["analyze", "--config", str(path)]) == EXIT_OK
    assert len(synthesis_calls) == 1
    assert artifacts(out) == expected


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("gain", "K", [[-0.3, -0.8]]),
        ("rates", "bisect_tol", 1e-3),
        ("rates", "trace_scale", 2.0),
    ],
)
def test_a_changed_synthesis_input_resynthesizes(tmp_path, synthesis_calls, section, key, value):
    out = tmp_path / "out"
    cfg = synthesized_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", str(path)]) == EXIT_OK
    cfg[section][key] = value
    expected = fresh_artifacts(tmp_path, cfg)
    path = write_config(tmp_path, cfg)
    del synthesis_calls[:]
    assert main(["analyze", "--config", str(path)]) == EXIT_OK
    assert len(synthesis_calls) == 1
    assert artifacts(out) == expected


@pytest.mark.parametrize("key, value", [("W", [[2.0, 0.5], [0.5, 1.0]]), ("ubar", [12.0])])
def test_noise_and_budget_changes_reuse_the_certificate(tmp_path, synthesis_calls, key, value):
    out = tmp_path / "out"
    cfg = synthesized_config(out)
    path = write_config(tmp_path, cfg)
    assert main(["certify", "--config", str(path)]) == EXIT_OK
    cfg["system"][key] = value
    expected = fresh_artifacts(tmp_path, cfg)
    path = write_config(tmp_path, cfg)
    del synthesis_calls[:]
    assert main(["analyze", "--config", str(path)]) == EXIT_OK
    assert synthesis_calls == []
    assert artifacts(out) == expected


def test_certify_always_synthesizes(tmp_path, synthesis_calls):
    out = tmp_path / "out"
    path = write_config(tmp_path, synthesized_config(out))
    assert main(["certify", "--config", str(path)]) == EXIT_OK
    first = (out / "certificate.json").read_bytes()
    assert main(["certify", "--config", str(path)]) == EXIT_OK
    assert len(synthesis_calls) == 2
    assert (out / "certificate.json").read_bytes() == first


@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
def test_every_command_rejects_a_certificate_that_fails_verification(
    tmp_path, monkeypatch, capsys, command
):
    # The synthesizer claims a rate below what its P certifies exactly.
    real = sr.cli.synthesize_contraction

    def optimistic(*args, **kwargs):
        P, _ = real(*args, **kwargs)
        exact = sr.min_contraction_rate(P, sr.vertex_matrices(args[0], args[1]))
        return P, exact - 10.0 * kwargs["feas_tol"]

    monkeypatch.setattr(sr.cli, "synthesize_contraction", optimistic)
    out = tmp_path / "out"
    path = write_config(tmp_path, synthesized_config(out))
    assert main([command, "--config", str(path)]) == EXIT_SYNTHESIS
    assert "certificate fails verification" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "section, key, literal",
    [
        ("rates", "bisect_tol", "-0.1"),
        ("rates", "bisect_tol", "1"),
        ("rates", "bisect_tol", "Infinity"),
        ("rates", "feas_tol", "-1"),
        ("rates", "feas_tol", "NaN"),
        ("rates", "trace_scale", "-1"),
        ("rates", "trace_scale", "0"),
        ("rates", "P", "[[NaN, 0], [0, 1]]"),
        ("rates", "P", "[[1, 0], [0, -Infinity]]"),
        ("rates", "P", "[[1e400, 0], [0, 1]]"),
        ("prs", "vbar", "[NaN]"),
        ("prs", "vbar", "[1" + "0" * 400 + "]"),
        ("rates", "feas_tol", "true"),
        ("rates", "trace_scale", "true"),
        ("prs", "epsilon", "true"),
        ("rates", "feas_tol", '"1e-7"'),
        ("system", "ubar", '["10"]'),
        ("system", "ubar", "[true]"),
        ("sweep", "ubar_values", "[true, 2]"),
    ],
)
def test_malformed_configs_exit_before_synthesis(tmp_path, synthesis_calls, section, key, literal):
    # A non-positive bisect_tol used to bisect forever; the others cost a
    # whole synthesis, or none, before failing with another exit code.
    # Booleans and numeric strings used to be coerced (true read as 1.0).
    cfg = synthesized_config(tmp_path / "out")
    cfg[section][key] = "<literal>"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"<literal>"', literal), encoding="utf-8")
    assert main(["certify", "--config", str(path)]) == EXIT_CONFIG
    assert synthesis_calls == []


def test_the_command_line_runs_without_scipy():
    src = str(Path(sr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, satreach.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
