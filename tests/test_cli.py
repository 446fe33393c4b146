"""CLI subcommands: output formats, exit codes, deterministic emission."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skybeam
from skybeam import cli, errors
from skybeam.cli import build_parser, main
from skybeam.field import ObservationGrid
from skybeam.scenario import MAX_MAP_POINTS, Scenario, resolve_scenario_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(text):
    values = {}
    for line in text.splitlines():
        if line.startswith("#") or " = " not in line:
            continue
        key, val = line.split(" = ", 1)
        values[key.strip()] = val.strip()
    return values


def test_spot_baseline(capsys):
    code, out, _ = run_cli(capsys, "spot", "--scenario", "a320_baseline")
    assert code == 0
    vals = parse_report(out)
    assert float(vals["first_null_spot_diameter_m"]) == 1.22
    assert float(vals["wavelength_m"]) == 0.1
    assert 0.80 <= float(vals["encircled_fraction_first_null_disk"]) <= 0.90


def test_spot_json_format(capsys):
    code, out, _ = run_cli(capsys, "spot", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["first_null_spot_diameter_m"] == 1.22


def test_econ_baseline(capsys):
    code, out, _ = run_cli(capsys, "econ")
    assert code == 0
    vals = parse_report(out)
    assert float(vals["beamed_cost_usd_per_MWh"]) == 36.0
    assert float(vals["breakeven_end_to_end_efficiency"]) == pytest.approx(0.205, abs=0.01)
    assert float(vals["farm_count"]) == pytest.approx(8080.0, rel=1e-9)
    assert float(vals["farm_mean_spacing_km"]) == pytest.approx(31.62, abs=0.01)
    assert float(vals["fuel_price_usd_per_kg"]) == pytest.approx(0.83, rel=1e-9)


def test_safety_baseline_passes(capsys):
    code, out, _ = run_cli(capsys, "safety")
    assert code == 0
    vals = parse_report(out)
    assert float(vals["farm_surface_density_W_per_m2"]) == 100.0
    assert vals["surface_density_check"] == "PASS"
    assert float(vals["reflected_ground_density_W_per_m2"]) > 0.0
    assert vals["reflected_density_check"].startswith("REPORTED")


def test_link_baseline(capsys):
    code, out, _ = run_cli(capsys, "link")
    assert code == 0
    vals = parse_report(out)
    assert float(vals["end_to_end_efficiency"]) == pytest.approx(0.2, rel=1e-9)
    assert float(vals["delivered_power_W"]) == pytest.approx(20e6, rel=1e-9)
    assert vals["surface_density_check"] == "PASS"


def test_beam_map_writes_files(tmp_path, capsys):
    out_dir = tmp_path / "maps"
    code, out, _ = run_cli(capsys, "beam-map", "--scenario", "spot_scaled",
                           "--out", str(out_dir), "--binary")
    assert code == 0
    csv_path = out_dir / "beam_map.csv"
    bin_path = out_dir / "beam_map.bin"
    assert csv_path.exists() and bin_path.exists()
    header = csv_path.read_text().splitlines()[0]
    assert header == "x_m,y_m,z_m,power_density_W_per_m2"
    vals = parse_report(out)
    assert float(vals["measured_first_null_radius_m"]) == pytest.approx(1.22, rel=0.1)


def test_beam_map_grid_override(tmp_path, capsys):
    out_dir = tmp_path / "maps"
    code, out, _ = run_cli(capsys, "beam-map", "--scenario", "spot_scaled",
                           "--out", str(out_dir), "--grid-n", "41")
    assert code == 0
    n_rows = len((out_dir / "beam_map.csv").read_text().splitlines()) - 1
    assert n_rows == 41 * 41


def test_beam_map_guards_full_scale_array(tmp_path, capsys):
    code, _, err = run_cli(capsys, "beam-map", "--scenario", "a320_baseline",
                           "--out", str(tmp_path))
    assert code == 1
    assert "too large" in err


def test_coverage_baseline(tmp_path, capsys):
    out_dir = tmp_path / "cov"
    code, out, _ = run_cli(capsys, "coverage", "--out", str(out_dir))
    assert code == 0
    vals = parse_report(out)
    assert float(vals["coverage_fraction"]) == 1.0
    assert float(vals["total_fuel_kg"]) == 0.0
    summary = json.loads((out_dir / "mission_summary.json").read_text())
    assert summary["coverage_fraction"] == 1.0
    assert summary["fuel_only_baseline_kg"] == pytest.approx(2400.0 * 2000 / 3600,
                                                             rel=1e-12)
    trace_lines = (out_dir / "mission_trace.csv").read_text().splitlines()
    assert len(trace_lines) == 1 + 200


def test_exit_code_missing_file(capsys):
    code, _, err = run_cli(capsys, "spot", "--scenario", "/nonexistent/file.json")
    assert code == 2
    assert "not found" in err


def test_exit_code_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{", encoding="utf-8")
    code, _, err = run_cli(capsys, "spot", "--scenario", str(bad))
    assert code == 3
    assert "JSON" in err


def test_exit_code_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"aircraft": {"mass": -1.0}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "spot", "--scenario", str(bad))
    assert code == 4
    assert "aircraft.mass" in err


@pytest.mark.parametrize("text, field_path", [
    ('{"beam": {"input_power": Infinity}}', "beam.input_power"),
    ('{"safety": {"farm_area": NaN}}', "safety.farm_area"),
    ('{"plan": {"timestep": 1e-9}}', "plan.timestep"),
])
def test_exit_code_non_finite_and_step_cap(tmp_path, capsys, text, field_path):
    bad = tmp_path / "bad.json"
    bad.write_text(text, encoding="utf-8")
    code, _, err = run_cli(capsys, "coverage", "--scenario", str(bad), "--out", str(tmp_path))
    assert code == 4
    assert field_path in err
    assert not (tmp_path / "mission_trace.csv").exists()


@pytest.mark.parametrize("command, scenario, field_path", [
    ("spot", {"rf": {"wavelength": 1e-300}}, "rf.wavelength"),
    ("spot", {"rf": {"frequency": 1e-300}}, "rf.frequency"),
    ("econ", {"cost": {"panel_cost": 0}}, "cost.panel_cost"),
    ("coverage", {"plan": {"waypoints": [[0, 0, 1e4], [0, 0, 1e4], [1e5, 0, 1e4]]}},
     "plan.waypoints[1]"),
    ("spot", {"beam": {"target": [0, 0, 1e-200]}}, "beam.target"),
    ("spot", {"chain": {"dc_to_rf": 0}}, "chain.dc_to_rf"),
    ("econ", {"chain": {"dc_to_rf": 0}}, "chain.dc_to_rf"),
    ("econ", {"chain": {"beam_collection": 0, "rf_to_dc": 0}}, "chain.beam_collection"),
    ("econ", {"chain": {"dc_to_rf": 1e-200, "rf_to_dc": 1e-200}}, "chain.dc_to_rf"),
    ("econ", {"econ": {"farm_area_km2": 1e-310, "coverage_fraction": 1}},
     "econ.farm_area_km2"),
])
def test_exit_code_for_inputs_that_used_to_escape(tmp_path, capsys, command, scenario,
                                                  field_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--scenario", str(bad), "--out", str(tmp_path))
    assert code == 4
    assert err.startswith(f"error: {field_path}: ")
    assert out == ""


@pytest.mark.parametrize("huge", [MAX_MAP_POINTS, 10**400])
def test_map_point_cap_rejects_before_any_grid(tmp_path, capsys, monkeypatch, huge):
    def refuse(*args, **kwargs):
        raise AssertionError("grid built before the map-point cap was checked")

    monkeypatch.setattr(ObservationGrid, "horizontal", refuse)
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"output": {"grid_n": huge}}), encoding="utf-8")
    code, _, err = run_cli(capsys, "beam-map", "--scenario", str(big), "--out", str(tmp_path))
    assert code == 4
    assert "output.grid_n: must be at most 2000" in err
    code, _, err = run_cli(capsys, "beam-map", "--scenario", "spot_scaled",
                           "--out", str(tmp_path), "--grid-n", str(huge))
    assert code == 4
    assert "--grid-n: must be at most 2000" in err
    assert not (tmp_path / "beam_map.csv").exists()


def test_reports_are_deterministic(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "econ", "--scenario", "a320_baseline")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_parser_accepts_every_option_with_every_command(command):
    args = build_parser().parse_args([
        command, "--scenario", "s.json", "--out", "o", "--grid-n", "7",
        "--threads", "3", "--format", "json", "--binary"])
    assert vars(args) == {"command": command, "scenario": "s.json", "out": "o",
                          "grid_n": 7, "threads": 3, "format": "json", "binary": True}
    defaults = build_parser().parse_args([command])
    assert vars(defaults) == {"command": command, "scenario": "a320_baseline", "out": ".",
                              "grid_n": None, "threads": 1, "format": "csv",
                              "binary": False}


@pytest.mark.parametrize("argv", [["nosuch"], [], ["spot", "--format", "xml"],
                                  ["spot", "extra"]])
def test_parser_rejects_bad_command_lines(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: skybeam" in capsys.readouterr().err


@pytest.mark.parametrize("error, code", [
    (errors.SkybeamError("boom"), 1),
    (errors.InvalidArgumentError("boom"), 1),
    (errors.DegenerateGeometryError("boom"), 1),
    (errors.ResolutionError("boom"), 1),
    (errors.NoVisiblePanelError("boom"), 1),
    (errors.ScenarioFileError("boom"), 2),
    (errors.ScenarioParseError("boom"), 3),
    (errors.ScenarioValidationError("a.b", "boom"), 4),
])
def test_each_error_class_exits_with_its_code(capsys, monkeypatch, error, code):
    def fail(scn, args):
        raise error

    monkeypatch.setitem(cli._COMMANDS, "econ", fail)
    assert type(error).exit_code == code
    assert run_cli(capsys, "econ") == (code, "", f"error: {error}\n")


@pytest.mark.parametrize("grid_n, message", [
    ("1", "must be at least 2"), ("-3", "must be at least 2"), ("0", "must be at least 2"),
    ("2001", "must be at most 2000 (a map of 4000000 points)"),
])
def test_grid_n_flag_has_the_output_grid_n_bounds(tmp_path, capsys, grid_n, message):
    code, out, err = run_cli(capsys, "beam-map", "--scenario", "spot_scaled",
                             "--out", str(tmp_path), "--grid-n", grid_n)
    assert (code, out, err) == (4, "", f"error: --grid-n: {message}\n")
    assert not (tmp_path / "beam_map.csv").exists()


@pytest.mark.parametrize("scenario", [
    {"rf": {"wavelength": 1e-200}},                              # (lambda R)^2 underflows
    {"rf": {"wavelength": 1e-80}, "beam": {"target": [0, 0, 1e-79]}},   # peak overflows
    {"rf": {"frequency": 1e-299}, "array": {"spacing": 1.0},
     "beam": {"target": [0, 0, 1e308]}},                         # lambda R overflows
])
def test_spot_refuses_a_peak_density_that_is_not_finite_and_positive(tmp_path, capsys,
                                                                    scenario):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario), encoding="utf-8")
    code, out, err = run_cli(capsys, "spot", "--scenario", str(bad))
    assert (code, out) == (4, "")
    assert err.startswith("error: beam.target: gives a closed-form peak density of ")
    assert err.endswith("W/m^2; it must be finite and positive\n")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_vertical_route_segment_exits_4_for_every_command(tmp_path, capsys, command):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"plan": {"waypoints": [[0, 0, 1e4], [0, 0, 2e4],
                                                      [1e5, 0, 1e4]]}}), encoding="utf-8")
    code, out, err = run_cli(capsys, command, "--scenario", str(bad), "--out", str(tmp_path))
    assert (code, out) == (4, "")
    assert err == ("error: plan.waypoints[1]: must not be straight above or below "
                   "the previous waypoint\n")


@pytest.mark.parametrize("threads", ["0", "-5"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_threads_below_one_exits_4_for_every_command(tmp_path, capsys, command, threads):
    code, out, err = run_cli(capsys, command, "--scenario", "spot_scaled",
                             "--out", str(tmp_path), "--threads", threads)
    assert (code, out, err) == (4, "", "error: --threads: must be at least 1\n")
    assert list(tmp_path.iterdir()) == []


def _scenario_file(tmp_path, base: str, **sections) -> str:
    """A bundled scenario with some sections' fields replaced, written to a file."""
    data = json.loads(resolve_scenario_path(base).read_text(encoding="utf-8"))
    for name, fields in sections.items():
        data.setdefault(name, {}).update(fields)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("coverage, index, count, spacing", [
    (0, 0, "0", "inf"),
    ([0.001, 1e-320], 1, "8.08e-314", "inf"),     # the spacing overflows
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_econ_refuses_a_coverage_fraction_with_no_farms(tmp_path, capsys, coverage, index,
                                                       count, spacing, fmt):
    path = _scenario_file(tmp_path, "a320_baseline", econ={"coverage_fraction": coverage})
    code, out, err = run_cli(capsys, "econ", "--scenario", path, "--format", fmt)
    assert (code, out) == (4, "")
    assert err == (f"error: econ.coverage_fraction[{index}]: gives {count} farms with a "
                   f"mean spacing of {spacing} km; the count must be positive and the "
                   "spacing finite\n")


@pytest.mark.parametrize("beam, chain, power", [
    ({}, {"dc_to_rf": 0}, "0"),
    ({"input_power": 1e-320}, {"dc_to_rf": 1e-10}, "0"),       # the product underflows
])
@pytest.mark.parametrize("command", ["beam-map", "spot"])
def test_no_radiated_power_exits_4_before_any_layout(tmp_path, capsys, monkeypatch,
                                                     command, beam, chain, power):
    path = _scenario_file(tmp_path, "spot_scaled", beam=beam, chain=chain)
    for reporter in ("link", "safety"):
        assert run_cli(capsys, reporter, "--scenario", path)[0] == 0

    def refuse(self):
        raise AssertionError("layout built before the radiated power was checked")

    monkeypatch.setattr(Scenario, "build_layout", refuse)
    out_dir = tmp_path / "maps"
    code, out, err = run_cli(capsys, command, "--scenario", path, "--out", str(out_dir))
    assert (code, out) == (4, "")
    assert err == (f"error: chain.dc_to_rf: gives a radiated power of {power} W "
                   "(beam.input_power x chain.dc_to_rf); it must be positive\n")
    assert not out_dir.exists()


_SCIPY_PROBE = """
import contextlib, io, json, sys
import skybeam, skybeam.cli
OUT = sys.argv[1]
loaded = {"import": "scipy" in sys.modules}
for argv in (["link"], ["econ"], ["safety"], ["coverage", "--out", OUT],
             ["beam-map", "--scenario", "spot_scaled", "--grid-n", "21", "--out", OUT],
             ["spot"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert skybeam.cli.main(argv) == 0, argv
    loaded[argv[0]] = "scipy" in sys.modules
print(json.dumps(loaded))
"""


def test_only_spot_loads_scipy(tmp_path):
    src = str(Path(skybeam.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"import": False, "link": False, "econ": False,
                                       "safety": False, "coverage": False,
                                       "beam-map": False, "spot": True}
