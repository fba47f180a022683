"""End-to-end CLI behaviour: configs, artifacts, exit codes, determinism."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from conftest import assert_no_child_left, count_forks, exact_balance

import satreach as sr
from satreach import csvformat
from satreach.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_SYNTHESIS,
    _write_csv,
    _write_csvs,
    _write_json,
    load_config,
    main,
)

REF_RATE = 0.98010206886129503
REF_RATE_LINEAR = 0.76852028012028373
REF_EFFECTIVE = 0.78266292246021862


@pytest.fixture(autouse=True)
def without_scipy(monkeypatch):
    """Block every SciPy import, so each test also shows that its path
    needs only the runtime."""
    for name in ["scipy", *(name for name in sys.modules if name.startswith("scipy."))]:
        monkeypatch.setitem(sys.modules, name, None)


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
    assert payload["residuals"]["worst_residual"] >= -1e-7
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
    for text in ("{not json", "[]"):
        bad.write_text(text, encoding="utf-8")
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


@pytest.mark.parametrize(
    "duplicate",
    [
        ('"gain": {', '"gain": {"K": [[0.0, 0.0]]}, "gain": {'),
        ('"epsilon": 0.2', '"epsilon": 0.2, "epsilon": 0.9'),
    ],
    ids=["top-level", "in-section"],
)
def test_duplicate_keys_are_a_config_error(tmp_path, capsys, duplicate):
    # json.loads keeps the last of two equal keys; a config must not.
    out = tmp_path / "out"
    text = json.dumps(base_config(out))
    assert duplicate[0] in text
    path = tmp_path / "config.json"
    path.write_text(text.replace(duplicate[0], duplicate[1], 1), encoding="utf-8")
    assert main(["analyze", "--config", str(path)]) == EXIT_CONFIG
    assert "duplicate keys" in capsys.readouterr().err
    assert not out.exists()


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
    assert payload["residuals"]["rate_gap"] == 0.0
    err = capsys.readouterr().err
    assert "certificate fails verification" in err
    assert '"rate_gap": 0.0' in err


@pytest.mark.parametrize("command", ["certify", "analyze", "simulate", "sweep"])
def test_unordered_rates_are_a_synthesis_failure_for_every_command(tmp_path, capsys, command):
    # K = 0 makes the linear rate equal the hull-wide rate; each command
    # stops where the certificate is resolved and names the zero rate gap
    # that verify_certificate fails it by.
    out = tmp_path / "out"
    cfg = base_config(out, sweep={"ubar_min": 4.0, "ubar_max": 30.0, "count": 5})
    cfg["gain"]["K"] = [[0.0, 0.0]]
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_SYNTHESIS
    assert '"rate_gap": 0.0' in capsys.readouterr().err
    written = sorted(path.name for path in out.iterdir()) if out.exists() else []
    assert written == (["certificate.json"] if command == "certify" else [])


def test_precondition_failure_exit_code(tmp_path, capsys):
    # A vbar above ubar is now a config error; 21 inputs still load but
    # exceed the vertex enumeration limit once the analysis starts.
    cfg = base_config(tmp_path / "out")
    cfg["system"]["B"] = [[0.0] * 21, [0.01] * 21]
    cfg["system"]["ubar"] = [10.0] * 21
    cfg["gain"]["K"] = [[-0.282, -0.8415]] * 21
    cfg_path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", str(cfg_path)]) == EXIT_PRECONDITION
    assert "refusing to enumerate" in capsys.readouterr().err


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
        # Both curves scale one unit boundary, with the bytes of each curve's own polyline.
        polyline = sr.boundary_polyline(sr.Ellipsoid(P, radius), 16)
        assert (out / f"{name}.csv").read_bytes() == reference_csv(header, map(cells, polyline))


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


@pytest.mark.parametrize("emit", ["data", ["data", 1], {"data": True}, None])
def test_emit_must_be_an_array_of_strings(tmp_path, capsys, emit):
    # A string used to be iterated as characters ("unknown emit entry 'd'").
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["output"]["emit"] = emit
    assert main(["analyze", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert "'emit' must be a JSON array of strings" in capsys.readouterr().err
    assert not out.exists()


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
    # workers is accepted from older configs and dropped: simulation.json
    # does not record it.
    names = ("simulation.json", "data.csv", "lell.csv", "lbell.csv", "states.csv")
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
    assert "workers" not in json.loads(blobs["a"]["simulation.json"])


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


def three_state_config(out: Path) -> dict:
    cfg = base_config(out)
    cfg["system"] = {
        "A": [[0.9, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.5]],
        "B": [[1.0], [0.0], [0.0]],
        "W": np.eye(3).tolist(),
        "ubar": [2.0],
    }
    cfg["gain"] = {"K": [[-0.5, 0.0, 0.0]]}
    cfg["rates"] = {"P": np.eye(3).tolist()}
    return cfg


@pytest.mark.parametrize("make_config", [base_config, three_state_config])
def test_too_few_boundary_points_fail_before_any_artifact(tmp_path, capsys, make_config):
    # analyze used to write data.csv and then exit 4 from the polyline.
    out = tmp_path / "out"
    cfg = make_config(out)
    cfg["prs"]["boundary_points"] = 2
    assert main(["analyze", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert "at least three boundary points" in capsys.readouterr().err
    assert not out.exists()


def test_three_state_system_skips_planar_artifacts(tmp_path, capsys):
    out = tmp_path / "out"
    cfg = three_state_config(out)
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


@pytest.mark.parametrize("key, value", [("ubar_min", 4.0), ("ubar_max", 30.0), ("count", 5)])
def test_sweep_rejects_a_range_beside_explicit_values(tmp_path, capsys, key, value):
    # The range used to be dropped without a word, and the sweep exited 0.
    out = tmp_path / "out"
    cfg = base_config(out, sweep={"ubar_values": [10.0], key: value})
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert "ubar_values" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("values", [[30.0, 10.0], [10.0, 10.0]])
def test_sweep_rejects_values_that_do_not_increase(tmp_path, capsys, values):
    # The summary reads the first and last admissible rows: [30, 10] used
    # to report first_admissible_ubar 30 and the r_L at ubar 10 as largest.
    out = tmp_path / "out"
    cfg = base_config(out, sweep={"ubar_values": values})
    assert main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "sweep, message",
    [
        ({"ubar_min": 0.0, "ubar_max": 30.0}, "positive"),
        ({"ubar_min": 30.0, "ubar_max": 4.0}, "strictly increasing"),
        ({"ubar_min": 4.0, "ubar_max": 30.0, "count": 1}, "count >= 2"),
    ],
)
def test_a_malformed_sweep_range_fails_every_command(tmp_path, capsys, sweep, message):
    out = tmp_path / "out"
    path = write_config(tmp_path, base_config(out, sweep=sweep))
    for command in ("certify", "sweep"):
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert not out.exists()


def test_a_range_grid_that_does_not_increase_fails_only_the_sweep(tmp_path, capsys):
    # Three points between 1 and the next double round onto the ends; the
    # grid is built, and checked, only by the command that reads it.
    out = tmp_path / "out"
    sweep = {"ubar_min": 1.0, "ubar_max": math.nextafter(1.0, 2.0), "count": 3}
    path = write_config(tmp_path, base_config(out, sweep=sweep))
    assert main(["sweep", "--config", str(path)]) == EXIT_CONFIG
    assert "strictly increasing" in capsys.readouterr().err
    assert not out.exists()
    assert main(["certify", "--config", str(path)]) == EXIT_OK


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


# Deeper than the JSON reader's recursion limit.
NESTED_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("spoil", ["truncated", "directory", "nested"])
def test_report_refuses_an_artifact_it_cannot_read(tmp_path, capsys, spoil):
    # An artifact that is not a readable JSON file is named as such, not
    # reported as a write failure.
    out = tmp_path / "out"
    cfg_path = write_config(tmp_path, base_config(out))
    if spoil == "truncated":
        assert main(["analyze", "--config", str(cfg_path)]) == EXIT_OK
        (out / "analysis.json").write_text('{"lambda": ', encoding="utf-8")
    elif spoil == "nested":
        out.mkdir()
        (out / "analysis.json").write_text(NESTED_JSON, encoding="utf-8")
    else:
        (out / "analysis.json").mkdir(parents=True)
    assert main(["report", "--config", str(cfg_path)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"config error: cannot merge {out / 'analysis.json'}")
    assert not (out / "report.json").exists()


def test_out_flag_overrides_directory(tmp_path):
    override = tmp_path / "elsewhere"
    cfg_path = write_config(tmp_path, base_config(tmp_path / "out"))
    assert main(["analyze", "--config", str(cfg_path), "--out", str(override)]) == EXIT_OK
    assert (override / "analysis.json").exists()
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["certify", "analyze", "report"])
@pytest.mark.parametrize("via", ["--out", "output.directory"])
def test_an_output_path_that_is_a_file_is_a_config_error(
    tmp_path, capsys, synthesis_calls, command, via
):
    # analyze used to run the whole analysis, then fail in mkdir with a
    # FileExistsError traceback and exit 1.
    taken = tmp_path / "taken"
    taken.write_bytes(b"not a directory\n")
    cfg = synthesized_config(taken if via == "output.directory" else tmp_path / "out")
    argv = [command, "--config", str(write_config(tmp_path, cfg))]
    assert main(argv + (["--out", str(taken)] if via == "--out" else [])) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and "not a directory" in err and "Traceback" not in err
    assert synthesis_calls == []
    assert taken.read_bytes() == b"not a directory\n"


def _under_a_file(tmp_path: Path) -> Path:
    (tmp_path / "file").write_text("", encoding="utf-8")
    return tmp_path / "file" / "out"


def _directory_in_the_way(tmp_path: Path) -> Path:
    (tmp_path / "out" / "analysis.json").mkdir(parents=True)
    return tmp_path / "out"


@pytest.mark.parametrize(
    "blocked", [_under_a_file, _directory_in_the_way], ids=["under-a-file", "directory-in-the-way"]
)
def test_write_errors_exit_4_with_one_line(tmp_path, capsys, blocked):
    out = blocked(tmp_path)
    cfg_path = write_config(tmp_path, base_config(tmp_path / "unused"))
    assert main(["analyze", "--config", str(cfg_path), "--out", str(out)]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifacts: ") and err.count("\n") == 1


def test_a_full_disk_mid_file_leaves_no_worker_and_no_temp_file(tmp_path, capsys, monkeypatch):
    # data.csv, ~140 KB at k_max = 2000, hits a full disk after 60 000 bytes,
    # while a forked worker formats its odd blocks.
    class FullDisk(io.FileIO):
        def write(self, data):
            if self.tell() + len(data) > 60_000:
                raise OSError(28, "No space left on device")
            return super().write(data)

    forks = count_forks(monkeypatch)
    monkeypatch.setattr(csvformat, "_FORK_MIN_CELLS", 0)
    monkeypatch.setattr(sr.forked.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(sr.cli, "open", lambda path, mode: io.BufferedWriter(FullDisk(path, mode)), raising=False)
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["prs"]["k_max"] = 2000
    assert main(["analyze", "--config", str(write_config(tmp_path, cfg))]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("cannot write artifacts: ") and "No space left" in err
    assert forks == [1]
    assert_no_child_left()
    assert list(out.iterdir()) == []


def test_a_nested_config_is_a_config_error(tmp_path, capsys):
    # The JSON reader raises RecursionError here, which is no ValueError.
    path = tmp_path / "nested.json"
    path.write_text(NESTED_JSON, encoding="utf-8")
    assert main(["certify", "--config", str(path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: cannot read config {path}") and err.count("\n") == 1


@pytest.mark.parametrize(
    "command, section, key",
    [
        ("sweep", "sweep", "count"),
        ("analyze", "prs", "k_max"),
        ("analyze", "prs", "boundary_points"),
        ("simulate", "simulation", "horizon"),
    ],
)
def test_unallocatable_sizes_exit_4_with_one_line(tmp_path, capsys, command, section, key):
    # 10^13 elements, 72 TiB, pass validation but no allocator grants them.
    out = tmp_path / "out"
    cfg = base_config(out, sweep=dict(SWEEP))
    cfg[section][key] = 10**13
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("cannot allocate: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["certify", "analyze"])
@pytest.mark.parametrize("section, key", [("sweep", "count"), ("simulation", "horizon")])
def test_a_command_allocates_only_what_it_reads(tmp_path, command, section, key):
    # Only sweep builds the sweep grid, and only simulate steps the horizon;
    # certify used to build both while the config loaded, and exit 4.
    cfg = base_config(tmp_path / "out", sweep=dict(SWEEP))
    cfg[section][key] = 10**13
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK


# A finite config whose W, once symmetrized, or whose noise mass, PUB
# scaling or ensemble is not finite; they used to write Infinity and NaN
# into the JSON artifacts and inf or nan into the CSVs, and exit 0.  With
# W = 1e305 I the PUB scalings are finite, and so are their areas, though
# pi r overflows, but the ensemble's q_k^2 overflows.
@pytest.mark.parametrize("command", ["analyze", "simulate", "sweep"])
@pytest.mark.parametrize(
    "section, key, value, code",
    [
        ("system", "W", [[1e308, 0.0], [0.0, 1e308]], EXIT_CONFIG),
        ("system", "W", [[1e307, 0.0], [0.0, 1e307]], EXIT_PRECONDITION),
        ("system", "W", [[1e305, 0.0], [0.0, 1e305]], EXIT_PRECONDITION),
        ("prs", "epsilon", 1e-320, EXIT_PRECONDITION),
        ("prs", "epsilon", 5e-324, EXIT_PRECONDITION),
    ],
    ids=["W-1e308", "W-1e307", "W-1e305", "epsilon-1e-320", "epsilon-5e-324"],
)
def test_finite_configs_give_finite_artifacts_or_none(tmp_path, capsys, command, section, key, value, code):
    out = tmp_path / "out"
    cfg = base_config(out, sweep=dict(SWEEP))
    cfg[section][key] = value
    exit_code = main([command, "--config", str(write_config(tmp_path, cfg))])
    err = capsys.readouterr().err
    # The sweep reads no epsilon, no area and no ensemble; analyze runs no
    # ensemble, and the areas pi r / sqrt(det P) ~ 1.6e308 are finite.
    if (command == "sweep" and (key == "epsilon" or value[0][0] == 1e305)) or (
        command == "analyze" and key == "W" and value[0][0] == 1e305
    ):
        assert exit_code == EXIT_OK
        for path in out.iterdir():
            text = path.read_text(encoding="utf-8")
            assert "Infinity" not in text and "inf" not in text
        return
    assert exit_code == code
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_an_overflowing_area_exits_4(tmp_path, capsys, command):
    # With P / 4 and W = 1.5e305 I the PUB scalings are ~6.6e307, but the
    # areas, pi r / sqrt(det P), overflow however they are computed.
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["rates"]["P"] = [[x / 4 for x in row] for row in cfg["rates"]["P"]]
    cfg["system"]["W"] = [[1.5e305, 0.0], [0.0, 1.5e305]]
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert "area of the ellipsoid" in err and err.count("\n") == 1
    assert not out.exists()


# A budget of 1e154 or more makes (ubar - vbar)^2 / (K_i inv(P) K_i')
# overflow; the run used to warn, write the CSVs and then fail on an
# infinite r_L in the JSON artifact.
@pytest.mark.parametrize(
    "command, section, key, value",
    [
        ("analyze", "system", "ubar", [1e154]),
        ("analyze", "system", "ubar", [1e300]),
        ("simulate", "system", "ubar", [1e300]),
        ("sweep", "sweep", "ubar_max", 1e300),
    ],
    ids=["analyze-ubar-1e154", "analyze-ubar-1e300", "simulate-ubar-1e300", "sweep-ubar_max-1e300"],
)
def test_an_overflowing_linear_region_replaces_no_artifact(tmp_path, capsys, command, section, key, value):
    out = tmp_path / "out"
    cfg = base_config(out, sweep=dict(SWEEP))
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in out.iterdir()}
    capsys.readouterr()
    cfg[section][key] = value
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_PRECONDITION
    err = capsys.readouterr().err
    assert err.startswith("precondition violation: linear region scaling r_L is not finite")
    assert err.count("\n") == 1
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


@pytest.mark.filterwarnings("error")
def test_a_linear_region_near_the_largest_double_keeps_the_certified_side(tmp_path, capsys):
    # At ubar = 3e153, r_L = 4.37e307 is finite but r_L / (lambda - lambda_L)
    # is not; analyze used to warn twice and ship lambda_hat = lambda_L.
    out = tmp_path / "out"
    cfg = base_config(out, sweep={"ubar_min": 4.0, "ubar_max": 3e153, "count": 60})
    cfg["system"]["ubar"] = [3e153]
    path = write_config(tmp_path, cfg)
    assert main(["analyze", "--config", str(path)]) == EXIT_OK
    assert main(["sweep", "--config", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == ""
    analysis = json.loads((out / "analysis.json").read_text())
    rates = analysis["lambda"], analysis["lambda_L"], analysis["trace_PW"]
    assert analysis["r_L"] > 4e307 and analysis["lambda_hat"] > analysis["lambda_L"]
    assert exact_balance(analysis["lambda_hat"], *rates, analysis["r_L"]) >= 0
    rows = list(csv.reader(io.StringIO((out / "convergence.csv").read_text())))[1:]
    assert len(rows) > 1 and float(rows[-1][0]) > 4e307
    assert all(exact_balance(float(lb), *rates, float(r_lin)) >= 0 for r_lin, _, lb in rows)


def test_a_covariance_symmetric_to_rounding_is_accepted(tmp_path):
    # diag(3e8, 1e8) rotated by about 0.1237 rad: its off-diagonals are
    # 7.45e-9 apart, 2.5e-17 of its largest entry; it used to exit 2.
    cfg = base_config(tmp_path / "out")
    cfg["system"]["W"] = [[296953828.2791313, 24493982.56757605], [24493982.567576043, 103046171.72086869]]
    assert main(["analyze", "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_an_unbuildable_polyline_writes_no_artifact(tmp_path, capsys, command):
    # The polylines are built before data.csv replaces an earlier run's.
    earlier = tmp_path / "earlier"
    cfg = base_config(earlier)
    assert main(["simulate", "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
    before = {path.name: path.read_bytes() for path in earlier.iterdir()}
    cfg["prs"]["boundary_points"] = 10**13
    cfg["simulation"]["seed"] = 1
    path = write_config(tmp_path, cfg, "huge.json")
    for out in (earlier, tmp_path / "fresh"):
        assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_PRECONDITION
        assert capsys.readouterr().err.startswith("cannot allocate: ")
    assert {path.name: path.read_bytes() for path in earlier.iterdir()} == before
    assert not (tmp_path / "fresh").exists()


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


def test_retired_trace_scale_is_an_unknown_key(tmp_path, capsys):
    # Synthesis always scales P to trace n; the key that set another trace is gone.
    cfg = base_config(tmp_path / "out")
    cfg["rates"]["trace_scale"] = 1.0
    assert main(["certify", "--config", str(write_config(tmp_path, cfg))]) == EXIT_CONFIG
    assert "unknown keys ['trace_scale']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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
            yield b"%d,1\n" % k

    def tables():
        # Several kernel blocks reach the temp file before the raise.
        table = np.column_stack([np.arange(10_000), np.linspace(0.1, 7.0, 10_000)])
        yield from csvformat.Blocks([[("%.17g,%.17g\n", table)]]).file(0)
        raise RuntimeError("interrupted")

    real_format = csvformat._Kernel.format
    blocks = []

    def third_block_raises(kernel, block):
        blocks.append(len(block))
        if len(blocks) == 3:
            raise RuntimeError("interrupted")
        return real_format(kernel, block)

    with pytest.raises(RuntimeError, match="interrupted"):
        _write_csv(out / "data.csv", ["k", "e"], rows())
    with pytest.raises(RuntimeError, match="interrupted"):
        _write_csv(out / "data.csv", ["k", "e"], tables())
    with mock.patch.object(csvformat._Kernel, "format", third_block_raises):
        with pytest.raises(RuntimeError, match="interrupted"):
            _write_csvs(out, [("lell", ["x", "y"], [("%.17g,%.17g\n", np.ones((10_000, 2)) / 3)])])
    with pytest.raises(TypeError):
        _write_json(out / "analysis.json", {"a": list(range(10_000)), "b": object()})
    assert {path.name: path.read_bytes() for path in out.iterdir()} == before


def reference_csv(header: list[str], rows) -> bytes:
    """What csv.writer writes for `rows` of already formatted cells."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue().encode("utf-8")


def cells(values) -> list[str]:
    return [format(float(x), ".17g") for x in values]


EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 3.0, -7.0, 2.0**53 + 2, 1.0 / 3.0, -2.5e-300]
# The edge values %.17g prints in fixed point, so large tables of them
# are formatted by the kernel.
KERNEL_VALUES = [x for x in EDGE_VALUES if x == 0.0 or 1e-4 <= abs(x) < 1e17]


# Three columns: tables on either side of the kernel's crossover, and
# of one and two kernel blocks.
BLOCK_ROWS = csvformat.BLOCK_CELLS // 3
CROSSOVER_ROWS = -(-csvformat.KERNEL_MIN_CELLS // 3)


@pytest.mark.parametrize(
    "num_rows", [0, 1, CROSSOVER_ROWS - 1, CROSSOVER_ROWS, BLOCK_ROWS, BLOCK_ROWS + 1]
)
def test_block_writer_matches_csv_writer(tmp_path, num_rows):
    for values in (EDGE_VALUES, KERNEL_VALUES):
        table = np.resize(np.array(values), 3 * num_rows).reshape(num_rows, 3)
        path = tmp_path / "t.csv"
        _write_csvs(tmp_path, [("t", ["a", "b", "c"], [("%.17g,%.17g,%.17g\n", table)])])
        assert path.read_bytes() == reference_csv(["a", "b", "c"], (cells(row) for row in table))
        assert not list(tmp_path.glob(".*.tmp"))


def test_kernel_formats_every_cli_template(tmp_path, monkeypatch):
    # Sweep-export sizes: bound sequences, boundary points and sweep rows
    # of 2e4, with the ensemble filling e for 301 steps and 600 states.
    cfg = base_config(tmp_path / "out", sweep={"ubar_min": 4.0, "ubar_max": 30.0, "count": 20_000})
    cfg["prs"].update(k_max=20_000, boundary_points=20_000)
    cfg["simulation"].update(horizon=300, num_traj=600)
    path = write_config(tmp_path, cfg)

    def run(out: Path) -> dict:
        for command in ("simulate", "sweep"):
            assert main([command, "--config", str(path), "--out", str(out)]) == EXIT_OK
        return {p.name: p.read_bytes() for p in sorted(out.glob("*.csv"))}

    with monkeypatch.context() as patched:
        patched.setattr(csvformat, "KERNEL_MIN_CELLS", math.inf)
        reference = run(tmp_path / "percent")

    fallbacks, real_percent = [], csvformat.percent_block

    def recording(line, block):
        fallbacks.append((line, block.copy()))
        return real_percent(line, block)

    # In one process, so that every `%` call is recorded here.
    monkeypatch.setattr(csvformat, "_FORK_MIN_CELLS", math.inf)
    monkeypatch.setattr(csvformat, "percent_block", recording)
    written = run(tmp_path / "kernel")
    assert sorted(written) == ["convergence.csv", "data.csv", "lbell.csv", "lell.csv", "states.csv"]
    assert written == reference
    # The kernel prints every table but one row of each boundary file: the
    # y cell at angle pi, row n / 2, some 1e-15 from sin(pi), which %.17g
    # prints in e-notation.
    assert [(line, len(block)) for line, block in fallbacks] == [("%.17g,%.17g\n", 1)] * 2
    for name, (line, block) in zip(["lell", "lbell"], fallbacks):
        rows = read_csv(tmp_path / "kernel" / f"{name}.csv")[1]
        assert rows[10_000] == [format(x, ".17g") for x in block[0]]
        assert [(i, j) for i, row in enumerate(rows) for j, cell in enumerate(row) if "e" in cell] == [(10_000, 1)]
    header, rows = read_csv(tmp_path / "kernel" / "data.csv")
    assert rows[300][1] != "" and rows[301][1] == ""
    assert [row[0] for row in rows] == [str(k) for k in range(20_001)]
    assert len(read_csv(tmp_path / "kernel" / "convergence.csv")[1]) > 10_000


# The demo's bounds equal their limits in every bit from step 1932 on
# (bounds.converged_from of its hull-wide rate), where data.csv's
# one-field tail starts; None analyzes without an ensemble.
@pytest.mark.parametrize("horizon, k_max", [(25, 40), (40, 25), (25, 0), (2000, 2100), (None, 20_000)])
def test_simulated_data_csv_matches_csv_writer(tmp_path, monkeypatch, horizon, k_max):
    ensembles = []
    real = sr.cli.simulate_ensemble

    def recording(*args, **kwargs):
        ensembles.append(real(*args, **kwargs))
        return ensembles[-1]

    monkeypatch.setattr(sr.cli, "simulate_ensemble", recording)
    out = tmp_path / "out"
    cfg = base_config(out)
    cfg["simulation"]["horizon"] = horizon or 25
    cfg["prs"]["k_max"] = k_max
    command, artifact = ("simulate", "simulation") if horizon else ("analyze", "analysis")
    assert main([command, "--config", str(write_config(tmp_path, cfg))]) == EXIT_OK
    payload = json.loads((out / f"{artifact}.json").read_text(encoding="utf-8"))
    # The formula at every step, not expectation_bound_sequence's tail rule.
    bounds = [
        (1.0 - payload[rate] ** np.arange(k_max + 1)) / (1.0 - payload[rate]) * payload["trace_PW"]
        for rate in ("lambda", "lambda_L", "lambda_hat")
    ]
    q_mean = ensembles[0].q_mean if ensembles else []
    rows = (
        [str(k), format(float(q_mean[k]), ".17g") if k < len(q_mean) else ""] + cells(b[k] for b in bounds)
        for k in range(k_max + 1)
    )
    assert (out / "data.csv").read_bytes() == reference_csv(["k", "e", "l", "ll", "lb"], rows)


# Reuse of certificate.json: the demo plant with P left to synthesis.

SWEEP = {"ubar_min": 4.0, "ubar_max": 30.0, "count": 20}


def synthesized_config(out_dir: Path) -> dict:
    cfg = base_config(out_dir, sweep=dict(SWEEP))
    cfg["rates"] = {}
    return cfg


def bisected_config(out_dir: Path) -> dict:
    """A plant whose floor probe fails, so synthesis bisects its rate."""
    cfg = synthesized_config(out_dir)
    cfg["system"].update(A=[[0.5, -0.5], [1.0, -0.5]], B=[[0.0, 0.5], [-1.0, 1.0]], ubar=[1.0, 1.0])
    cfg["gain"]["K"] = [[0.0, 0.5], [-1.0, 1.0]]
    cfg["prs"]["vbar"] = [0.0, 0.0]
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
    for make_config in (synthesized_config, bisected_config):
        base = tmp_path / make_config.__name__
        base.mkdir()
        del synthesis_calls[:]
        out = base / "out"
        cfg = make_config(out)
        expected = fresh_artifacts(base, cfg, command)
        assert len(synthesis_calls) == 1
        path = write_config(base, cfg)
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
    cfg["rates"] = {"feas_tol": 1e-7, "bisect_tol": 1e-4}
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


def test_a_certificate_from_another_version_is_resynthesized(tmp_path, synthesis_calls):
    # The version enters the digest, so a certificate.json written by a
    # release whose synthesis differs is never reused.
    out = tmp_path / "out"
    cfg = synthesized_config(out)
    expected = fresh_artifacts(tmp_path, cfg)
    path = write_config(tmp_path, cfg)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sr.cli, "__version__", "0.1.0")
        assert main(["certify", "--config", str(path)]) == EXIT_OK
    stale = json.loads((out / "certificate.json").read_text(encoding="utf-8"))["config_sha256"]
    assert stale != sr.cli._synthesis_digest(load_config(path))
    del synthesis_calls[:]
    assert main(["analyze", "--config", str(path)]) == EXIT_OK
    assert len(synthesis_calls) == 1
    assert artifacts(out) == expected


def test_package_and_project_versions_agree():
    # pyproject.toml reads its version from satreach.__version__, so a bump
    # edits one file; setuptools resolves it without importing the package.
    pyprojecttoml = pytest.importorskip("setuptools.config.pyprojecttoml")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with warnings.catch_warnings():
        # setuptools flags its [tool.setuptools] table as beta.
        warnings.simplefilter("ignore")
        project = pyprojecttoml.read_configuration(pyproject)["project"]
    assert project["dynamic"] == ["version"]
    assert project["version"] == sr.__version__


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
        ("rates", "P", "[[1.0]]"),
        ("rates", "P", "[[1, 0.5], [0, 1]]"),
        ("rates", "P", "[[1, 2], [2, 1]]"),
        ("rates", "P", "[[1, 0], [0, 0]]"),
        ("rates", "P", "[[1, 0], [0, -1e-13]]"),
        ("gain", "K", "[[1, 2, 3]]"),
        ("prs", "vbar", "[NaN]"),
        ("prs", "vbar", "[1" + "0" * 400 + "]"),
        ("prs", "vbar", "[12.0]"),
        ("prs", "vbar", "[-1.0]"),
        ("prs", "vbar", "[0.0, 0.0]"),
        ("prs", "epsilon", "[0.2]"),
        ("rates", "P", "null"),
        ("simulation", "v_policy", "null"),
        ("rates", "feas_tol", "true"),
        ("rates", "trace_scale", "true"),
        ("prs", "epsilon", "true"),
        ("rates", "feas_tol", '"1e-7"'),
        ("system", "ubar", '["10"]'),
        ("system", "ubar", "[true]"),
        ("sweep", "ubar_values", "[true, 2]"),
        *[
            (section, key, value.replace("X", literal))
            for section, key, value in [
                ("system", "A", "[[X, 0.1], [0.1, 0.89]]"),
                ("gain", "K", "[[-0.282, X]]"),
                ("prs", "epsilon", "X"),
                ("simulation", "v_policy", "[X]"),
                ("simulation", "horizon", "X"),
                # ubar_values stands alone in its section.
                ("sweep", None, '{"ubar_values": [1, X]}'),
            ]
            for literal in ("NaN", "-Infinity", "1e400")
        ],
        ("prs", "boundary_points", "2"),
        ("prs", "boundary_points", "0"),
        ("prs", "boundary_points", "-5"),
        ("simulation", "workers", "0"),
        ("simulation", "workers", "true"),
        ("simulation", "workers", "1.5"),
        ("prs", None, "null"),
        ("simulation", None, "null"),
        ("sweep", None, "null"),
    ],
)
def test_malformed_configs_exit_before_synthesis(tmp_path, synthesis_calls, section, key, literal):
    # A non-positive bisect_tol used to bisect forever; the others cost a
    # whole synthesis, or none, before failing with another exit code.
    # Booleans and numeric strings used to be coerced (true read as 1.0).
    # A P or K of the wrong shape, or an asymmetric or indefinite P, exited
    # 4 once the work had started, and a singular or barely indefinite P
    # was perturbed by 1e-12 I and exited 3.  A vbar outside [0, ubar]
    # exited 4 only after the certificate was resolved.  trace_scale is no
    # longer a key.  A null simulation or sweep section, P or v_policy
    # loaded as if it were absent; each is now an error, as a null prs
    # section always was.
    cfg = synthesized_config(tmp_path / "out")
    if key is None:
        cfg[section] = "<literal>"
    else:
        cfg[section][key] = "<literal>"
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg).replace('"<literal>"', literal), encoding="utf-8")
    assert main(["certify", "--config", str(path)]) == EXIT_CONFIG
    assert synthesis_calls == []
    assert not (tmp_path / "out").exists()


def test_the_command_line_runs_without_scipy():
    src = str(Path(sr.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, satreach.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert run.stdout.strip() == "[]"
