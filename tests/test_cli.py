"""CLI subcommands: output formats, exit codes, deterministic emission."""

import json
import math
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

import skybeam
from skybeam import cli, errors
from skybeam import scenario as scenario_module
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


def test_beam_map_guards_full_scale_array(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError("layout built before the element cap was checked")

    monkeypatch.setattr(Scenario, "build_layout", refuse)
    out_dir = tmp_path / "maps"
    code, out, err = run_cli(capsys, "beam-map", "--scenario", "a320_baseline",
                             "--out", str(out_dir))
    # a 1 km disk at a 5 cm pitch: pi * (1000 / 0.1)^2 elements
    assert (code, out) == (4, "")
    assert err == ("error: array.aperture_diameter: gives ~3.14e+08 elements at a spacing "
                   "of 0.05 m, above the map limit of 2e+07; use a scaled scenario such "
                   "as spot_scaled\n")
    assert not out_dir.exists()


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


def test_coverage_flies_one_mission(tmp_path, capsys, monkeypatch):
    simulate, calls = cli.simulate_mission, []

    def counted(*args):
        calls.append(args)
        return simulate(*args)

    monkeypatch.setattr(cli, "simulate_mission", counted)
    assert run_cli(capsys, "coverage", "--out", str(tmp_path))[0] == 0
    assert len(calls) == 1


@pytest.mark.parametrize("module, name", [
    (cli, "focus_command"), (cli, "evaluate_field_fast"), (cli, "measure_first_null_radius"),
    (scenario_module, "make_planar_array"),
])
def test_beam_map_calls_through_module_bindings(tmp_path, capsys, monkeypatch, module, name):
    # the engines load on use, yet a binding set on the module (as a tracer
    # sets one) still sees the call
    original, calls = getattr(module, name), []

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    argv = ["beam-map", "--scenario", "spot_scaled", "--grid-n", "21", "--out", str(tmp_path)]
    assert run_cli(capsys, *argv)[0] == 0
    assert calls == [name]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_every_summary_key_reaches_the_report(tmp_path, capsys, monkeypatch, fmt):
    # a key added to mission_summary reaches both reports with no second list
    summarize = cli.mission_summary
    monkeypatch.setattr(cli, "mission_summary",
                        lambda trace: {**summarize(trace), "probe_kg": 1.5})
    code, out, _ = run_cli(capsys, "coverage", "--out", str(tmp_path), "--format", fmt)
    assert code == 0
    report = json.loads(out) if fmt == "json" else parse_report(out)
    summary = json.loads((tmp_path / "mission_summary.json").read_text())
    assert "probe_kg" in summary
    if fmt == "csv":
        summary = {k: format(v, ".10g") for k, v in summary.items()}
    assert {k.lower(): v for k, v in report.items()
            if k not in ("trace_csv", "summary_json")} == summary


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


# the extreme corners of the closed forms: wavelength x altitude, power x
# aperture area and the cost products
_HUGE_WAVE = {"rf": {"wavelength": 1e100}, "array": {"spacing": 1},
              "beam": {"target": [0, 0, 1e101]}}
_LOW_FREQUENCY = {"rf": {"frequency": 1e-299}, "array": {"spacing": 1},
                  "beam": {"target": [0, 0, 1e308]}}
_TINY_WAVE = {"rf": {"wavelength": 1e-100}, "array": {"aperture_diameter": 1e150},
              "beam": {"target": [0, 0, 1e-75]}}
_TINY_CHAIN = {"chain": {"dc_to_rf": 1e-155, "rf_to_dc": 1e-155}}


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
    *[(command, {"array": array}, "array.aperture_diameter")
      for command in ("spot", "link", "safety")
      for array in ({"aperture_diameter": 1e155},
                    {"aperture_diameter": 1e-300, "spacing": 1e-301},
                    {"aperture_diameter": 1e-155, "spacing": 1e-156})],
    ("spot", {"array": {"aperture_diameter": 1e154}}, "array.aperture_diameter"),
    ("beam-map", {"array": {"aperture_diameter": 50.0, "spacing": 1.0, "fill_fraction": 0.95,
                            "seed": -1},
                  "beam": {"target": [0, 0, 500.0]}, "output": {"grid_n": 21}}, "array.seed"),
    # (wavelength x altitude)^2 under- or overflows the closed-form peak
    ("spot", {"rf": {"wavelength": 1e-200}}, "rf.wavelength"),
    ("spot", {"rf": {"wavelength": 1e-80}, "beam": {"target": [0, 0, 1e-79]}},
     "rf.wavelength"),
    # the edge probes that escaped as exit 0 with NaN or Infinity in a
    # report, as a traceback, as exit 1, or as exit 4 under another field
    ("coverage", {"aircraft": {"mass": 1e308}}, "aircraft.mass"),
    ("econ", {"aircraft": {"mass": 1e308}}, "aircraft.mass"),
    ("econ", {"cost": {"solar_lcoe": 1e308, "rf_uplift": 10}}, "cost.solar_lcoe"),
    *[(command, _HUGE_WAVE, "rf.wavelength") for command in ("spot", "link", "safety")],
    *[(command, _LOW_FREQUENCY, "rf.frequency") for command in ("spot", "link", "safety")],
    *[(command, _TINY_WAVE, "rf.wavelength") for command in ("link", "safety")],
    ("spot", {"beam": {"input_power": 1e308}}, "beam.input_power"),
    *[(command, {"aircraft": {"cruise_speed": 1e308}}, "aircraft.cruise_speed")
      for command in ("econ", "coverage")],
    ("econ", {"aircraft": {"fuel_burn_reference": 1e-320}}, "aircraft.fuel_burn_reference"),
    *[(command, {"safety": {"farm_area": 1e-320}}, "safety.farm_area")
      for command in ("link", "safety")],
    *[(command, _TINY_CHAIN, "chain.dc_to_rf") for command in ("link", "econ")],
    ("econ", {"econ": {"territory_area_km2": 1e308}}, "econ.territory_area_km2"),
    ("coverage", {"plan": {"speed": 1e-300}}, "plan.speed"),
    ("econ", {"chain": {"incidence_cosine": 0, "rf_to_dc": 0}}, "chain.incidence_cosine"),
])
def test_exit_code_for_inputs_that_used_to_escape(tmp_path, capsys, command, scenario,
                                                  field_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario), encoding="utf-8")
    out_dir = tmp_path / "out"
    for fmt in ("csv", "json"):
        code, out, err = run_cli(capsys, command, "--scenario", str(bad), "--out",
                                 str(out_dir), "--format", fmt)
        assert code == 4
        assert err.startswith(f"error: {field_path}: ")
        assert out == ""
        assert not out_dir.exists()


def test_json_writes_refuse_non_finite_values(tmp_path, capsys, monkeypatch):
    # an infinite cruise power makes three econ lines infinite
    monkeypatch.setattr(cli, "cruise_power", lambda aircraft: math.inf)
    with pytest.raises(ValueError, match="JSON compliant"):
        main(["econ", "--format", "json"])
    assert "Infinity" not in capsys.readouterr().out

    summary = cli.mission_summary
    monkeypatch.setattr(cli, "mission_summary", lambda trace: {
        **summary(trace), "fuel_saved_kg": math.inf})
    with pytest.raises(ValueError, match="JSON compliant"):
        main(["coverage", "--out", str(tmp_path), "--format", "json"])
    assert capsys.readouterr().out == ""
    assert not (tmp_path / "mission_summary.json").exists()


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
    ([0.001, 0], 1, "0", "inf"),
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


@pytest.mark.parametrize("coverage, index, earlier, tag", [
    ([0.1234567, 0.1234568, 0.5], 1, 0, "0.123457"),     # equal to 6 significant digits
    ([0.5, 0.2, 0.5], 2, 0, "0.5"),                       # one entry given twice
    ([0.25, 0.001, 0.0010000001], 2, 1, "0.001"),
])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_econ_refuses_coverage_fractions_that_share_a_row_label(tmp_path, capsys, coverage,
                                                                index, earlier, tag, fmt):
    path = _scenario_file(tmp_path, "a320_baseline", econ={"coverage_fraction": coverage})
    code, out, err = run_cli(capsys, "econ", "--scenario", path, "--format", fmt)
    assert (code, out) == (4, "")
    assert err == (f"error: econ.coverage_fraction[{index}]: has the row label _at_{tag} of "
                   f"econ.coverage_fraction[{earlier}]; entries must differ in their first "
                   "6 significant digits\n")


def test_econ_checks_the_row_labels_of_a_long_list_in_linear_time(tmp_path, capsys):
    # 4e4 entries with distinct labels, each estimated, then the first again
    coverage = [(i + 1) * 1e-5 for i in range(40_000)] + [1e-5]
    path = _scenario_file(tmp_path, "a320_baseline", econ={"coverage_fraction": coverage})
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "econ", "--scenario", path)
    assert time.perf_counter() - start < 2.0
    assert (code, out) == (4, "")
    assert err == ("error: econ.coverage_fraction[40000]: has the row label _at_1e-05 of "
                   "econ.coverage_fraction[0]; entries must differ in their first "
                   "6 significant digits\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_econ_prints_one_row_set_per_coverage_fraction(tmp_path, capsys, fmt):
    coverage = [0.123456, 0.123457, 0.5]
    path = _scenario_file(tmp_path, "a320_baseline", econ={"coverage_fraction": coverage})
    code, out, _ = run_cli(capsys, "econ", "--scenario", path, "--format", fmt)
    assert code == 0
    keys = list(json.loads(out)) if fmt == "json" else list(parse_report(out))
    tagged = [key for key in keys if "_at_" in key]
    assert len(tagged) == len(set(tagged)) == 3 * len(coverage)


# (aperture diameter, range, pitch in wavelengths, map peak / closed-form peak):
# a filled grid at the matched pitch lambda / sqrt(pi) reproduces the uniform
# circular aperture; at half a wavelength the isolated-element sum radiates
# 4 / pi times more
MAP_VS_SPOT = [
    (4.0, 40.0, 1.0 / math.sqrt(math.pi), 1.0),
    (2.0, 40.0, 1.0 / math.sqrt(math.pi), 1.0),
    (4.0, 80.0, 1.0 / math.sqrt(math.pi), 1.0),
    (4.0, 40.0, 0.5, 4.0 / math.pi),
]


@pytest.mark.parametrize("diameter, range_m, pitch, ratio", MAP_VS_SPOT,
                         ids=["matched-D4-R40", "matched-D2-R40", "matched-D4-R80",
                              "half-wave-D4-R40"])
def test_beam_map_peak_matches_the_spot_closed_form(tmp_path, capsys, diameter, range_m,
                                                     pitch, ratio):
    wavelength = 0.1
    path = _scenario_file(
        tmp_path, "spot_scaled", rf={"wavelength": wavelength},
        array={"aperture_diameter": diameter, "spacing": pitch * wavelength,
               "fill_fraction": 1.0},
        beam={"target": [0.0, 0.0, range_m]})
    code, out, err = run_cli(capsys, "spot", "--scenario", path, "--format", "json")
    assert code == 0, err
    closed_form = json.loads(out)["peak_density_W_per_m2"]
    # an odd grid puts a sample on the focus
    code, out, err = run_cli(capsys, "beam-map", "--scenario", path, "--format", "json",
                             "--grid-n", "21", "--out", str(tmp_path / "map"))
    assert code == 0, err
    mapped = json.loads(out)["peak_density_W_per_m2"]
    assert mapped / closed_form == pytest.approx(ratio, rel=0.01)


@pytest.mark.parametrize("command", ["beam-map", "spot"])
def test_no_radiated_power_exits_4_before_any_layout(tmp_path, capsys, monkeypatch,
                                                     command):
    path = _scenario_file(tmp_path, "spot_scaled", chain={"dc_to_rf": 0})
    for reporter in ("link", "safety"):
        assert run_cli(capsys, reporter, "--scenario", path)[0] == 0

    def refuse(self):
        raise AssertionError("layout built before the radiated power was checked")

    monkeypatch.setattr(Scenario, "build_layout", refuse)
    out_dir = tmp_path / "maps"
    code, out, err = run_cli(capsys, command, "--scenario", path, "--out", str(out_dir))
    assert (code, out) == (4, "")
    assert err == ("error: chain.dc_to_rf: gives a radiated power of 0 W "
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


def test_no_command_loads_scipy(tmp_path):
    src = str(Path(skybeam.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", _SCIPY_PROBE, str(tmp_path)], env=env,
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"import": False, "link": False, "econ": False,
                                       "safety": False, "coverage": False,
                                       "beam-map": False, "spot": False}



# A fresh interpreter per case; it runs the CLI module as `python -m` does, or
# only imports a module (--import NAME), and reports on stderr's last line.
_NUMPY_PROBE = """
import runpy, sys
code = None
if sys.argv[1] == "--import":
    __import__(sys.argv[2])
else:
    try:
        runpy.run_module("skybeam.cli", run_name="__main__", alter_sys=True)
    except SystemExit as done:
        code = done.code
print(f"exit {code} numpy {'numpy' in sys.modules}", file=sys.stderr)
"""

_CLOSED_FORMS = [[command, "--scenario", scenario, "--format", fmt]
                 for command in ("spot", "link", "econ", "safety")
                 for scenario in ("a320_baseline", "spot_scaled") for fmt in ("csv", "json")]


def _probe(tmp_path, *argv) -> str:
    src = str(Path(skybeam.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    (tmp_path / "bad.json").write_text("{", encoding="utf-8")
    (tmp_path / "invalid.json").write_text('{"aircraft": {"mass": -1}}', encoding="utf-8")
    done = subprocess.run([sys.executable, "-c", _NUMPY_PROBE, *argv], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode in (0, 2, 3, 4), done.stderr
    return done.stderr.splitlines()[-1]


@pytest.mark.parametrize("argv, code", [
    *((argv, 0) for argv in _CLOSED_FORMS),
    (["spot", "--scenario", "missing.json"], 2),
    (["safety", "--format", "xml"], 2),
    (["link", "--scenario", "bad.json"], 3),
    (["econ", "--scenario", "invalid.json"], 4),
    (["--import", "skybeam"], None),
    (["--import", "skybeam.cli"], None),
], ids=lambda v: "-".join(a.lstrip("-") for a in v) if isinstance(v, list) else str(v))
def test_closed_form_commands_never_load_numpy(tmp_path, argv, code):
    assert _probe(tmp_path, *argv) == f"exit {code} numpy False"


@pytest.mark.parametrize("argv", [
    ["beam-map", "--scenario", "spot_scaled", "--grid-n", "21", "--out", "out"],
    ["coverage", "--out", "out"],
], ids=["beam-map", "coverage"])
def test_engine_commands_load_numpy(tmp_path, argv):
    assert _probe(tmp_path, *argv) == "exit 0 numpy True"


def test_the_package_exports_no_names():
    # each name is imported from the module that defines it, never from skybeam
    assert not {"__all__", "__getattr__", "simulate_mission"} & set(vars(skybeam))


def test_benchmark_tracer_wraps_and_counts_every_layer(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import spans
    tracer = spans.Tracer()
    tracer.install()
    try:
        for argv in (["beam-map", "--scenario", "spot_scaled", "--grid-n", "21"],
                     ["coverage", "--scenario", "a320_baseline"], ["spot"]):
            assert cli.main([*argv, "--out", str(tmp_path)]) == 0, argv
    finally:
        tracer.uninstall()
    assert not tracer.errors
    assert min(tracer.counters[c] for c in ("core.elements", "field.evals", "writer.map_rows",
                                            "writer.trace_rows", "mission.step_farms")) > 0
    spans_per_name = Counter(tracer.names[i] for i in tracer.name)
    assert spans_per_name["mission.visibility"] > 0 and spans_per_name["link.best_panel"] > 0
