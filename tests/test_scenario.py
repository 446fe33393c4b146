"""Scenario parsing, defaults, validation messages, bundled files."""

import dataclasses
import json
import math

import numpy as np
import pytest

import skybeam as sb
from skybeam import mission
from skybeam.errors import (ScenarioFileError, ScenarioParseError,
                            ScenarioValidationError)
from skybeam.scenario import (_FIELDS, _SECTIONS, MAX_MAGNITUDE, MAX_MISSION_STEPS,
                              MIN_MAGNITUDE, resolve_scenario_path)


def write(tmp_path, data):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


def test_minimal_scenario_gets_defaults(tmp_path):
    scn = sb.parse_scenario(write(tmp_path, {"rf": {"frequency": 1e9}}))
    assert scn.rf.frequency == 1e9
    assert scn.array.aperture_diameter == 1000.0
    assert scn.array.spacing == pytest.approx(0.5 * scn.rf.wavelength, rel=1e-12)
    assert scn.aircraft.mass == 50_000.0
    assert scn.chain.end_to_end == pytest.approx(0.2, rel=1e-12)
    assert scn.cost.solar_lcoe == 24.0
    assert scn.network.n_farms == 17
    assert scn.plan.n_steps == 200


def test_empty_scenario_is_fully_defaulted(tmp_path):
    scn = sb.parse_scenario(write(tmp_path, {}))
    assert scn.rf.wavelength == 0.1
    assert scn.beam.input_power == 100e6
    assert scn.safety.surface_density_limit == 100.0


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
    assert scn.array.aperture_diameter == 1000.0
    assert scn.beam.input_power == 100e6
    assert scn.chain.rf_to_dc == 0.85
    assert scn.aircraft.fuel_burn_reference == 2400.0
    assert scn.safety.farm_area == 1e6


def test_bundled_spot_scaled_loads():
    scn = sb.parse_scenario("spot_scaled")
    assert scn.array.aperture_diameter == 50.0
    assert scn.array.spacing == 1.0
    assert scn.estimated_element_count() < 3000
    full = sb.make_planar_array(scn.array.aperture_diameter, scn.array.spacing)
    assert 0.9 < scn.build_layout().n_active / full.n_active < 1.0


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
        scn.beam.input_power * scn.chain.dc_to_rf, rel=1e-12)


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
    assert scn.plan.n_steps == MAX_MISSION_STEPS


def test_mission_step_cap_counts_the_sampled_steps(tmp_path):
    # a 12-leg route whose leg lengths add up to different totals summed in
    # order (as the sampler does) and pairwise (as numpy's sum does)
    rng = np.random.default_rng(0)
    xy = np.vstack([[0.0, 0.0], np.column_stack([np.cumsum(rng.uniform(1e3, 5e4, 12)),
                                                 rng.uniform(-2e4, 2e4, 12)])])
    wps = np.column_stack([xy, np.full(13, 1e4)])
    length = sb.FlightPlan(wps, 250.0).distance[-1]
    assert np.linalg.norm(np.diff(wps, axis=0), axis=1).sum() != length
    timestep = length / 250.0 / MAX_MISSION_STEPS
    for _ in range(3):
        timestep = math.nextafter(timestep, 0.0)
    accepted = []
    for _ in range(7):
        steps = sb.FlightPlan(wps, 250.0, timestep).n_steps
        try:
            sb.parse_scenario(write(tmp_path, {"plan": {"waypoints": wps.tolist(),
                                                        "timestep": timestep}}))
        except ScenarioValidationError as err:
            assert err.field_path == "plan.timestep"
            accepted.append(False)
        else:
            accepted.append(True)
        assert accepted[-1] == (steps <= MAX_MISSION_STEPS), (timestep, steps)
        timestep = math.nextafter(timestep, math.inf)
    assert accepted[0] is False and accepted[-1] is True


TINY = math.ulp(0.0)        # smallest positive float
ABOVE_ONE = math.nextafter(1.0, 2.0)
FLOOR, CEILING = MIN_MAGNITUDE, MAX_MAGNITUDE
BELOW_FLOOR = math.nextafter(FLOOR, 0.0)
ABOVE_CEILING = math.nextafter(CEILING, math.inf)
TOO_SMALL = "is too small: positive values start at 1e-09"
TOO_LARGE = "is too large: magnitudes stop at 1e+15"
# the lowest frequency whose wavelength (c / frequency) lies under a target
# at the ceiling
LOWEST_FREQUENCY = (3e-7, {"array": {"spacing": 1.0}, "beam": {"target": [0, 0, CEILING]}})

# (field path, value just outside the bound, message, value on the inside
# edge of the bound, other fields the inside value needs)
BOUNDS = [
    ("rf.frequency", 0.0, "must be positive", *LOWEST_FREQUENCY),
    ("rf.wavelength", 0.0, "must be positive", FLOOR, {}),
    # the default spacing of half a wavelength is derived, so it may lie
    # under the floor
    ("array.aperture_diameter", 0.0, "must be positive", FLOOR, {"rf": {"wavelength": FLOOR}}),
    ("array.spacing", 0.0, "must be positive", FLOOR, {}),
    ("array.spacing", 1000.0, "must be smaller than aperture_diameter",
     math.nextafter(1000.0, 0.0), {}),
    ("array.fill_fraction", 0.0, "must be in (0, 1]", FLOOR, {}),
    ("array.fill_fraction", ABOVE_ONE, "must be in (0, 1]", 1.0, {}),
    ("array.seed", 0.5, "must be an integer", 0, {}),
    ("beam.target", [0.0, 0.0, 0.0], "altitude (third entry) must be positive",
     [0.0, 0.0, 1.0], {}),
    ("beam.input_power", 0.0, "must be positive", FLOOR, {}),
    *[(f"chain.{key}", value, "must be in [0, 1]", inside, {})
      for key in ("dc_to_rf", "beam_collection", "incidence_cosine", "rf_to_dc")
      for value, inside in ((-TINY, 0.0), (ABOVE_ONE, 1.0))],
    ("aircraft.mass", 0.0, "must be positive", FLOOR, {}),
    ("aircraft.lift_to_drag", 1.0, "must exceed 1", ABOVE_ONE, {}),
    ("aircraft.propulsive_efficiency", 0.0, "must be in (0, 1]", FLOOR, {}),
    ("aircraft.propulsive_efficiency", ABOVE_ONE, "must be in (0, 1]", 1.0, {}),
    ("aircraft.cruise_speed", 0.0, "must be positive", FLOOR, {}),
    ("aircraft.fuel_burn_reference", 0.0, "must be positive", FLOOR, {}),
    ("network.input_cap", -TINY, "must be non-negative", 0.0, {}),
    ("network.max_scan_deg", 0.0, "must be in (0, 90)", FLOOR, {}),
    ("network.max_scan_deg", 90.0, "must be in (0, 90)", math.nextafter(90.0, 0.0), {}),
    ("network.max_slant_range", 0.0, "must be positive", FLOOR, {}),
    # the default 500 km route at the floor speed lasts 5e14 s
    ("plan.speed", 0.0, "must be positive", FLOOR, {"plan": {"timestep": CEILING}}),
    ("plan.timestep", 0.0, "must be positive", 2000.0 / MAX_MISSION_STEPS, {}),
    ("cost.rf_uplift", -TINY, "must be non-negative", 0.0, {}),
    ("cost.solar_lcoe", -TINY, "must be non-negative", 0.0, {}),
    ("cost.panel_cost", -TINY, "must be non-negative", 0.0, {"cost": {"rf_uplift": 0.5}}),
    ("cost.rf_added_cost", -TINY, "must be non-negative", 0.0, {}),
    ("cost.fuel_cost_per_hour", -TINY, "must be non-negative", FLOOR, {}),
    ("cost.fuel_cost_per_hour", 0.0, "must be positive", FLOOR, {}),
    ("safety.farm_area", 0.0, "must be positive", FLOOR, {}),
    ("safety.surface_density_limit", 0.0, "must be positive", FLOOR, {}),
    ("safety.reflected_density_limit", 0.0, "must be positive", FLOOR, {}),
    ("econ.territory_area_km2", 0.0, "must be positive", FLOOR, {}),
    ("econ.farm_area_km2", 0.0, "must be positive", FLOOR, {}),
    ("output.grid_n", 1, "must be at least 2", 2, {}),
    ("output.grid_n", 2.0, "must be an integer", 2, {}),
    ("output.map_window", 0.0, "must be positive", FLOOR, {}),
    # bounds whose inputs used to escape as exit 1 or a traceback
    ("beam.target", [0.0, 0.0, 0.1], "altitude (third entry) must exceed the wavelength",
     [0.0, 0.0, math.nextafter(0.1, 1.0)], {}),
    ("cost.panel_cost", 0.0, "must be positive when rf_uplift is null", FLOOR, {}),
    ("output.grid_n", 2001, "must be at most 2000 (a map of 4000000 points)", 2000, {}),
    ("array.seed", -1, "must be non-negative", 0, {}),
    # the magnitude window: a ceiling and a floor row for each scalar kind
    # (POSITIVE, NON_NEGATIVE, FRACTION, CLOSED_FRACTION, ABOVE_ONE,
    # SCAN_ANGLE, HOURLY_COST, OPTIONAL, OPTIONAL_POSITIVE and
    # OPTIONAL_NON_NEGATIVE); a value above 1 is never under the floor
    ("aircraft.mass", ABOVE_CEILING, TOO_LARGE, CEILING, {}),
    ("aircraft.mass", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("cost.solar_lcoe", ABOVE_CEILING, TOO_LARGE, CEILING, {}),
    ("cost.solar_lcoe", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("array.fill_fraction", -ABOVE_CEILING, TOO_LARGE, 1.0, {}),
    ("array.fill_fraction", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("chain.dc_to_rf", ABOVE_CEILING, TOO_LARGE, 1.0, {}),
    ("chain.dc_to_rf", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("aircraft.lift_to_drag", ABOVE_CEILING, TOO_LARGE, CEILING, {}),
    ("network.max_scan_deg", ABOVE_CEILING, TOO_LARGE, math.nextafter(90.0, 0.0), {}),
    ("network.max_scan_deg", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("cost.fuel_cost_per_hour", ABOVE_CEILING, TOO_LARGE, CEILING, {}),
    ("cost.fuel_cost_per_hour", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("rf.wavelength", ABOVE_CEILING, TOO_LARGE, math.nextafter(CEILING, 0.0),
     LOWEST_FREQUENCY[1]),
    ("rf.wavelength", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("rf.frequency", ABOVE_CEILING, TOO_LARGE, CEILING, {}),
    ("rf.frequency", BELOW_FLOOR, TOO_SMALL, *LOWEST_FREQUENCY),
    ("safety.reflected_density_limit", ABOVE_CEILING, TOO_LARGE, CEILING, {}),
    ("safety.reflected_density_limit", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
    ("cost.rf_uplift", ABOVE_CEILING, TOO_LARGE, CEILING, {}),
    ("cost.rf_uplift", BELOW_FLOOR, TOO_SMALL, FLOOR, {}),
]


def with_field(path, value, extra):
    section, key = path.split(".")
    data = {name: dict(fields) for name, fields in extra.items()}
    data.setdefault(section, {})[key] = value
    return data


@pytest.mark.parametrize("path, outside, message, inside, extra", BOUNDS,
                         ids=[f"{case[0]}={case[1]!r}" for case in BOUNDS])
def test_field_bounds(path, outside, message, inside, extra):
    with pytest.raises(ScenarioValidationError) as err:
        sb.scenario_from_dict(with_field(path, outside, extra))
    assert err.value.field_path == path
    assert str(err.value) == f"{path}: {message}"
    scn = sb.scenario_from_dict(with_field(path, inside, extra))
    # the value is read back at its file path
    section, key = path.split(".")
    assert np.all(getattr(getattr(scn, section), key) == inside)


def test_every_field_is_read_at_its_file_path():
    scn = sb.scenario_from_dict({})
    assert [f.name for f in dataclasses.fields(scn)] == list(_SECTIONS)
    for section, key, _, _ in _FIELDS:
        assert hasattr(getattr(scn, section), key), f"{section}.{key}"
    with pytest.raises(AttributeError):
        scn.array.spacing = 1.0
    with pytest.raises(AttributeError):
        del scn.econ.coverage_fraction


FLOATS = sorted({case[0] for case in BOUNDS} - {"beam.target", "array.seed", "output.grid_n"})


@pytest.mark.parametrize("path", FLOATS)
def test_every_number_field_has_the_window(path):
    floor_message = "must exceed 1" if path == "aircraft.lift_to_drag" else TOO_SMALL
    for value, message in ((ABOVE_CEILING, TOO_LARGE), (-ABOVE_CEILING, TOO_LARGE),
                           (BELOW_FLOOR, floor_message)):
        with pytest.raises(ScenarioValidationError) as err:
            sb.scenario_from_dict(with_field(path, value, {}))
        assert str(err.value) == f"{path}: {message}"


def panel(**fields):
    return {"label": "underside", "normal": [0, 0, -1], "area": 30.0, **fields}


@pytest.mark.parametrize("data, path, message", [
    ({"beam": {"target": [ABOVE_CEILING, 0, 1e4]}}, "beam.target", TOO_LARGE),
    ({"beam": {"target": [0, 0, BELOW_FLOOR]}}, "beam.target", TOO_SMALL),
    ({"network": {"farms": [[0, 0], [-ABOVE_CEILING, 0]]}}, "network.farms[1]", TOO_LARGE),
    ({"network": {"farms": [[0, 0], [1, 0]], "input_cap": [1e6, BELOW_FLOOR]}},
     "network.input_cap[1]", TOO_SMALL),
    ({"network": {"farms": [[0, 0], [1, 0]], "input_cap": [1e6, -1.0]}},
     "network.input_cap[1]", "must be non-negative"),
    ({"plan": {"waypoints": [[0, 0, 1e4], [ABOVE_CEILING, 0, 1e4]]}}, "plan.waypoints[1]",
     TOO_LARGE),
    ({"plan": {"waypoints": [[0, 0, 1e4], [1e5, 0, BELOW_FLOOR]]}}, "plan.waypoints[1]",
     TOO_SMALL),
    ({"aircraft": {"panels": [panel(normal=[0, 0, -ABOVE_CEILING])]}},
     "aircraft.panels[0].normal", TOO_LARGE),
    # the length of a normal is held to the floor
    ({"aircraft": {"panels": [panel(normal=[0, 0, -BELOW_FLOOR])]}},
     "aircraft.panels[0].normal", TOO_SMALL),
    ({"aircraft": {"panels": [panel(normal=[0, 0, -1e-160])]}},
     "aircraft.panels[0].normal", TOO_SMALL),
    ({"aircraft": {"panels": [panel(area=BELOW_FLOOR)]}}, "aircraft.panels[0].area",
     TOO_SMALL),
    ({"aircraft": {"panels": [panel(rf_to_dc=BELOW_FLOOR)]}}, "aircraft.panels[0].rf_to_dc",
     TOO_SMALL),
    ({"econ": {"coverage_fraction": [0.1, BELOW_FLOOR]}}, "econ.coverage_fraction[1]",
     TOO_SMALL),
])
def test_list_entries_have_the_window(data, path, message):
    with pytest.raises(ScenarioValidationError) as err:
        sb.scenario_from_dict(data)
    assert str(err.value) == f"{path}: {message}"


def test_list_entries_on_the_window_edges_parse():
    scn = sb.scenario_from_dict({
        "rf": {"wavelength": FLOOR},
        "beam": {"target": [CEILING, -CEILING, math.nextafter(FLOOR, 1.0)]},
        "network": {"farms": [[-CEILING, CEILING], [0, 0]], "input_cap": [FLOOR, 0.0]},
        "plan": {"waypoints": [[0, 0, FLOOR], [CEILING, 0, CEILING]], "timestep": CEILING},
        "aircraft": {"panels": [panel(normal=[0, 0, -CEILING], area=FLOOR, rf_to_dc=FLOOR),
                                panel(normal=[FLOOR, 0, 0])]},
        "econ": {"coverage_fraction": [FLOOR, 0.0, 1.0]},
    })
    assert scn.array.spacing == 0.5 * FLOOR     # derived, so under the floor
    assert scn.econ.coverage_fraction == (FLOOR, 0.0, 1.0)


NULLABLE = {"rf.frequency", "rf.wavelength", "array.spacing", "aircraft.panels",
            "cost.rf_uplift", "safety.reflected_density_limit", "output.map_window"}
INTEGERS = {"array.seed", "output.grid_n"}
SCALARS = sorted({case[0] for case in BOUNDS} - {"beam.target"} - NULLABLE)


@pytest.mark.parametrize("path", SCALARS)
def test_scalar_field_types(path):
    expected = "must be an integer" if path in INTEGERS else "must be a number"
    for value in ("1", True, {"value": 1.0}):
        with pytest.raises(ScenarioValidationError) as err:
            sb.scenario_from_dict(with_field(path, value, {}))
        assert str(err.value) == f"{path}: {expected}"
    with pytest.raises(ScenarioValidationError) as err:
        sb.scenario_from_dict(with_field(path, None, {}))
    missing = "must be an integer" if path in INTEGERS else "is required"
    assert str(err.value) == f"{path}: {missing}"


@pytest.mark.parametrize("data, path", [
    # unknown keys first within a section
    ({"aircraft": {"mass": -1.0, "wingspan": 30.0}}, "aircraft.wingspan"),
    # sections in file order, whatever the key order of the JSON object
    ({"output": {"grid_n": 1}, "array": {"fill_fraction": 0.0}}, "array.fill_fraction"),
    ({"econ": {"farm_area_km2": 0.0}, "cost": {"solar_lcoe": -1.0}}, "cost.solar_lcoe"),
    # fields in their documented order within a section
    ({"rf": {"frequency": -1.0, "wavelength": 0.3}}, "rf"),
    ({"array": {"fill_fraction": 0.0, "spacing": 0.0}}, "array.spacing"),
    ({"beam": {"input_power": 0.0, "target": [0, 0, -1]}}, "beam.target"),
    ({"network": {"max_scan_deg": 95.0, "farms": "none"}}, "network.farms"),
    ({"network": {"max_slant_range": 0.0, "input_cap": -1.0}}, "network.input_cap"),
    ({"plan": {"speed": 0.0, "waypoints": []}}, "plan.waypoints"),
    ({"cost": {"fuel_cost_per_hour": -1.0, "rf_uplift": -1.0}}, "cost.rf_uplift"),
    ({"econ": {"farm_area_km2": 0.0, "coverage_fraction": 2.0}},
     "econ.coverage_fraction[0]"),
    ({"output": {"map_window": 0.0, "grid_n": 1}}, "output.grid_n"),
    # the step cap is checked with the plan, before later sections
    ({"plan": {"timestep": 1e-9}, "cost": {"solar_lcoe": -1.0}}, "plan.timestep"),
])
def test_check_order(data, path):
    with pytest.raises(ScenarioValidationError) as err:
        sb.scenario_from_dict(data)
    assert err.value.field_path == path


@pytest.mark.parametrize("waypoints, path", [
    ([[0, 0, 1e4], [0, 0, 1e4], [1e5, 0, 1e4]], "plan.waypoints[1]"),
    ([[0, 0, 1e4], [1e5, 0, 1e4], [1e5, 0, 1e4]], "plan.waypoints[2]"),
    # a segment whose length underflows to zero, as the mission measures it
    ([[0, 0, 1e4], [1e-320, 0, 1e4], [1e5, 0, 1e4]], "plan.waypoints[1]"),
])
def test_repeated_waypoint_rejected(waypoints, path):
    with pytest.raises(ScenarioValidationError) as err:
        sb.scenario_from_dict({"plan": {"waypoints": waypoints}})
    assert str(err.value) == f"{path}: must differ from the previous waypoint"



@pytest.mark.parametrize("waypoints, path", [
    ([[0, 0, 1e4], [0, 0, 2e4], [1e5, 0, 1e4]], "plan.waypoints[1]"),
    ([[0, 0, 1e4], [1e5, 0, 1e4], [1e5, 1e-13, 2e4]], "plan.waypoints[2]"),
])
def test_vertical_segment_rejected(waypoints, path):
    with pytest.raises(ScenarioValidationError) as err:
        sb.scenario_from_dict({"plan": {"waypoints": waypoints}})
    assert str(err.value) == (f"{path}: must not be straight above or below "
                              "the previous waypoint")


def test_nearly_vertical_segment_accepted():
    # the smallest horizontal step level_attitude accepts as a heading
    sb.scenario_from_dict({"plan": {"waypoints": [[0, 0, 1e4], [1e-12, 0, 2e4],
                                                  [1e5, 0, 1e4]]}})
