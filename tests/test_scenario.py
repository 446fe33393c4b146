"""Scenario parsing, defaults, validation messages, bundled files."""

import json

import pytest

import skybeam as sb
from skybeam import mission
from skybeam.errors import (ScenarioFileError, ScenarioParseError,
                            ScenarioValidationError)
from skybeam.scenario import MAX_MISSION_STEPS, resolve_scenario_path


def write(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_minimal_scenario_gets_defaults(tmp_path):
    scn = sb.parse_scenario(write(tmp_path, {"rf": {"frequency": 1e9}}))
    assert scn.rf.frequency == 1e9
    assert scn.aperture_diameter == 1000.0
    assert scn.element_spacing == pytest.approx(0.5 * scn.rf.wavelength, rel=1e-12)
    assert scn.aircraft.mass == 50_000.0
    assert scn.chain.end_to_end == pytest.approx(0.2, rel=1e-12)
    assert scn.cost.solar_lcoe == 24.0
    assert scn.network.n_farms == 17
    assert scn.plan.duration == pytest.approx(2000.0, rel=1e-12)


def test_empty_scenario_is_fully_defaulted(tmp_path):
    scn = sb.parse_scenario(write(tmp_path, {}))
    assert scn.rf.wavelength == 0.1
    assert scn.beam_input_power == 100e6
    assert scn.surface_density_limit == 100.0


def test_negative_mass_names_field(tmp_path):
    path = write(tmp_path, {"aircraft": {"mass": -5.0}})
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(path)
    assert err.value.field_path == "aircraft.mass"


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(write(tmp_path, {"array": {"diameter": 100.0}}))
    assert "array.diameter" in str(err.value)


def test_both_frequency_and_wavelength_rejected(tmp_path):
    with pytest.raises(ScenarioValidationError):
        sb.parse_scenario(write(tmp_path, {"rf": {"frequency": 1e9,
                                                  "wavelength": 0.3}}))


def test_bad_waypoint_names_index(tmp_path):
    data = {"plan": {"waypoints": [[0, 0, 10_000], [1, 2]]}}
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(write(tmp_path, data))
    assert "plan.waypoints[1]" in str(err.value)


def test_missing_file_raises_file_error(tmp_path):
    with pytest.raises(ScenarioFileError):
        sb.parse_scenario(tmp_path / "nope.json")


def test_malformed_json_raises_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ScenarioParseError):
        sb.parse_scenario(path)


def test_bundled_baseline_loads():
    scn = sb.parse_scenario("a320_baseline")
    assert scn.rf.wavelength == 0.1
    assert scn.aperture_diameter == 1000.0
    assert scn.beam_input_power == 100e6
    assert scn.chain.rf_to_dc == 0.85
    assert scn.aircraft.fuel_burn_reference == 2400.0
    assert scn.farm_area == 1e6


def test_bundled_spot_scaled_loads():
    scn = sb.parse_scenario("spot_scaled")
    assert scn.aperture_diameter == 50.0
    assert scn.element_spacing == 1.0
    assert scn.estimated_element_count() < 3000
    layout = scn.build_layout()
    assert 0.9 < layout.fill_fraction < 1.0


def test_resolve_scenario_path_prefers_filesystem(tmp_path):
    local = tmp_path / "a320_baseline"
    local.write_text("{}", encoding="utf-8")
    assert resolve_scenario_path(str(local)) == local


def test_custom_panels_parsed(tmp_path):
    data = {"aircraft": {"panels": [
        {"label": "underside", "normal": [0, 0, -1], "area": 30.0},
    ]}}
    scn = sb.parse_scenario(write(tmp_path, data))
    assert len(scn.aircraft.panels) == 1
    assert scn.aircraft.panels[0].area == 30.0
    assert scn.aircraft.panels[0].rf_to_dc == 0.85


def test_panel_validation_path(tmp_path):
    data = {"aircraft": {"panels": [{"label": "underside",
                                     "normal": [0, 0], "area": 30.0}]}}
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(write(tmp_path, data))
    assert "aircraft.panels[0]" in str(err.value)


def test_network_cap_list_must_match(tmp_path):
    data = {"network": {"farms": [[0.0, 0.0], [1000.0, 0.0]],
                        "input_cap": [1e6]}}
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(write(tmp_path, data))
    assert "network.input_cap" in str(err.value)


def test_scan_angle_bounds(tmp_path):
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(write(tmp_path, {"network": {"max_scan_deg": 95.0}}))
    assert "network.max_scan_deg" in str(err.value)


def test_radiated_power_uses_dc_to_rf(tmp_path):
    scn = sb.parse_scenario(write(tmp_path, {}))
    assert scn.radiated_power() == pytest.approx(
        scn.beam_input_power * scn.chain.dc_to_rf, rel=1e-12)


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999"])
@pytest.mark.parametrize("section, body, field_path", [
    ("aircraft", '{"mass": %s}', "aircraft.mass"),
    ("beam", '{"target": [0, 0, %s]}', "beam.target"),
    ("network", '{"farms": [[0, 0], [1, %s]]}', "network.farms[1]"),
    ("network", '{"farms": [[0, 0], [1, 0]], "input_cap": [1e6, %s]}', "network.input_cap[1]"),
    ("plan", '{"waypoints": [[0, 0, 1e4], [%s, 0, 1e4]]}', "plan.waypoints[1]"),
    ("econ", '{"coverage_fraction": [0.1, %s]}', "econ.coverage_fraction[1]"),
])
def test_non_finite_numbers_rejected(tmp_path, literal, section, body, field_path):
    # json.loads reads these as nan / inf; they must not reach the reports
    path = tmp_path / "scenario.json"
    path.write_text('{"%s": %s}' % (section, body % literal), encoding="utf-8")
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(path)
    assert err.value.field_path == field_path


def test_mission_step_cap_rejects_before_sampling(tmp_path, monkeypatch):
    def refuse(plan):
        raise AssertionError("route sampled before the step cap was checked")

    monkeypatch.setattr(mission, "_sample_route", refuse)
    # the default 500 km route at 250 m/s lasts 2000 s
    with pytest.raises(ScenarioValidationError) as err:
        sb.parse_scenario(write(tmp_path, {"plan": {"timestep": 1e-9}}))
    assert err.value.field_path == "plan.timestep"
    with pytest.raises(ScenarioValidationError):
        sb.parse_scenario(write(tmp_path, {"plan": {"timestep": 1e-320}}))
    scn = sb.parse_scenario(write(tmp_path, {"plan": {"timestep": 2000.0 / MAX_MISSION_STEPS}}))
    assert scn.plan.duration / scn.plan.timestep == pytest.approx(MAX_MISSION_STEPS)
