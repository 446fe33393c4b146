"""Scenario files: JSON ingestion, validation with field paths, documented defaults.

Unspecified fields fall back to the single-aisle baseline case (50 t airliner,
1 km farm aperture, 10 cm carrier). Validation failures name the offending
field as `section.key` and surface as ScenarioValidationError (CLI exit 4).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .core import ArrayLayout, RfSpec, make_planar_array
from .economics import CostModel
from .errors import (ScenarioFileError, ScenarioParseError,
                     ScenarioValidationError)
from .link import EfficiencyChain, ReceiverPanel, default_panels
from .mission import Aircraft, FarmNetwork, FlightPlan

_SECTIONS = ("rf", "array", "beam", "chain", "aircraft", "network", "plan",
             "cost", "safety", "econ", "output")

# beam-map guard: a full-scale farm aperture at half-wavelength pitch holds
# ~3e8 elements and is not a desk-scale map evaluation
MAX_MAP_ELEMENTS = 20e6

# Mission step guard, checked before any per-step array is allocated: a
# day-long flight (86 400 s) at a 0.1 s timestep is 864k steps, and each step
# costs ~100 bytes of trace plus one CSV row.
MAX_MISSION_STEPS = 1_000_000

# Default farm row: one site every 31.6 km along a 500 km corridor.
_FARM_ROW_SPACING = 31_600.0
_FARM_ROW = [[i * _FARM_ROW_SPACING, 0.0] for i in range(17)]

DEFAULTS: dict = {
    "rf": {"wavelength": 0.1},
    "array": {"aperture_diameter": 1000.0, "spacing": None,
              "fill_fraction": 1.0, "seed": 42},
    "beam": {"target": [0.0, 0.0, 10_000.0], "input_power": 100e6},
    # stages multiply to 0.20 end-to-end while keeping the demonstrated
    # 85 % rectenna stage (beam_collection = 8/17)
    "chain": {"dc_to_rf": 0.5, "beam_collection": 0.47058823529411764,
              "incidence_cosine": 1.0, "rf_to_dc": 0.85},
    "aircraft": {"mass": 50_000.0, "lift_to_drag": 18.0,
                 "propulsive_efficiency": 0.6, "cruise_speed": 250.0,
                 "fuel_burn_reference": 2400.0, "panels": None},
    "network": {"farms": _FARM_ROW, "input_cap": 100e6,
                "max_scan_deg": 60.0, "max_slant_range": 20_000.0},
    "plan": {"waypoints": [[0.0, 0.0, 10_000.0], [500_000.0, 0.0, 10_000.0]],
             "speed": 250.0, "timestep": 10.0},
    "cost": {"solar_lcoe": 24.0, "panel_cost": 200.0, "rf_added_cost": 100.0,
             "fuel_cost_per_hour": 1992.0, "rf_uplift": None},
    "safety": {"farm_area": 1e6, "surface_density_limit": 100.0,
               "reflected_density_limit": None},
    "econ": {"territory_area_km2": 8.08e6, "coverage_fraction": 0.001,
             "farm_area_km2": 1.0},
    "output": {"grid_n": 101, "map_window": None},
}


def _expect_mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioValidationError(path, "must be a JSON object")
    return value


def _reject_unknown(section: dict, path: str, known) -> None:
    for key in section:
        if key not in known:
            raise ScenarioValidationError(f"{path}.{key}", "unknown field")


def _finite(value, path: str) -> float:
    """A JSON number as a finite float.

    json.loads accepts NaN, Infinity and -Infinity, and reads literals beyond
    the float range (1e999) as infinities; none of them is a valid quantity.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(path, "must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioValidationError(path, "must be finite")
    return number


def _number(section: dict, path: str, key: str, *, default=None,
            allow_none: bool = False):
    value = section.get(key, default)
    if value is None:
        if allow_none:
            return None
        raise ScenarioValidationError(f"{path}.{key}", "is required")
    return _finite(value, f"{path}.{key}")


def _integer(section: dict, path: str, key: str, *, default=None) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioValidationError(f"{path}.{key}", "must be an integer")
    return value


def _positive(value: float, path: str):
    if value <= 0.0:
        raise ScenarioValidationError(path, "must be positive")
    return value


def _fraction(value: float, path: str, *, closed_low: bool = False):
    low_ok = value >= 0.0 if closed_low else value > 0.0
    if not (low_ok and value <= 1.0):
        bound = "[0, 1]" if closed_low else "(0, 1]"
        raise ScenarioValidationError(path, f"must be in {bound}")
    return value


def _vector(section: dict, path: str, key: str, length: int, default=None):
    value = section.get(key, default)
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ScenarioValidationError(f"{path}.{key}",
                                      f"must be a list of {length} numbers")
    return [_finite(v, f"{path}.{key}") for v in value]


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: domain objects plus array/beam/output parameters.

    The element layout is built on demand (build_layout) because full-scale
    farm apertures hold hundreds of millions of elements.
    """

    rf: RfSpec
    aperture_diameter: float
    element_spacing: float
    fill_fraction: float
    seed: int
    beam_target: np.ndarray
    beam_input_power: float
    chain: EfficiencyChain
    aircraft: Aircraft
    network: FarmNetwork
    plan: FlightPlan
    cost: CostModel
    farm_area: float
    surface_density_limit: float
    reflected_density_limit: float | None
    territory_area_km2: float
    econ_coverage_fractions: tuple
    econ_farm_area_km2: float
    grid_n: int
    map_window: float | None

    def estimated_element_count(self) -> float:
        """Disk-grid element count without building the layout."""
        r_idx = self.aperture_diameter / (2.0 * self.element_spacing)
        return float(np.pi) * r_idx * r_idx

    def build_layout(self) -> ArrayLayout:
        return make_planar_array(self.aperture_diameter, self.element_spacing,
                                 self.fill_fraction, self.seed)

    def radiated_power(self) -> float:
        """Beam power leaving the farm: grid input times the DC-to-RF stage."""
        return self.beam_input_power * self.chain.dc_to_rf


def _build_rf(section: dict) -> RfSpec:
    _reject_unknown(section, "rf", {"frequency", "wavelength"})
    freq = _number(section, "rf", "frequency", default=None, allow_none=True)
    wl = _number(section, "rf", "wavelength", default=None, allow_none=True)
    if freq is None and wl is None:
        wl = DEFAULTS["rf"]["wavelength"]
    if freq is not None and wl is not None:
        raise ScenarioValidationError("rf", "give frequency or wavelength, not both")
    if freq is not None:
        return RfSpec.from_frequency(_positive(freq, "rf.frequency"))
    return RfSpec.from_wavelength(_positive(wl, "rf.wavelength"))


def _build_panels(value, path: str) -> list[ReceiverPanel]:
    if value is None:
        return default_panels()
    if not isinstance(value, list) or not value:
        raise ScenarioValidationError(path, "must be a non-empty list of panels")
    panels = []
    for idx, item in enumerate(value):
        p = _expect_mapping(item, f"{path}[{idx}]")
        _reject_unknown(p, f"{path}[{idx}]", {"label", "normal", "area", "rf_to_dc"})
        label = p.get("label")
        if not isinstance(label, str) or not label:
            raise ScenarioValidationError(f"{path}[{idx}].label", "must be a non-empty string")
        normal = _vector(p, f"{path}[{idx}]", "normal", 3)
        area = _positive(_number(p, f"{path}[{idx}]", "area"), f"{path}[{idx}].area")
        eff = _fraction(_number(p, f"{path}[{idx}]", "rf_to_dc", default=0.85),
                        f"{path}[{idx}].rf_to_dc", closed_low=True)
        norm = float(np.linalg.norm(normal))
        if norm <= 0.0:
            raise ScenarioValidationError(f"{path}[{idx}].normal", "must be non-zero")
        panels.append(ReceiverPanel(label, np.asarray(normal) / norm, area, eff))
    return panels


def scenario_from_dict(data: dict) -> Scenario:
    data = _expect_mapping(data, "scenario")
    _reject_unknown(data, "scenario", _SECTIONS)
    merged = {name: _expect_mapping(data.get(name, {}), name) for name in _SECTIONS}

    rf = _build_rf(merged["rf"])

    sec = merged["array"]
    _reject_unknown(sec, "array", set(DEFAULTS["array"]))
    d = DEFAULTS["array"]
    aperture = _positive(_number(sec, "array", "aperture_diameter",
                                 default=d["aperture_diameter"]),
                         "array.aperture_diameter")
    spacing = _number(sec, "array", "spacing", default=d["spacing"], allow_none=True)
    if spacing is None:
        spacing = 0.5 * rf.wavelength
    _positive(spacing, "array.spacing")
    if spacing >= aperture:
        raise ScenarioValidationError("array.spacing",
                                      "must be smaller than aperture_diameter")
    fill = _fraction(_number(sec, "array", "fill_fraction", default=d["fill_fraction"]),
                     "array.fill_fraction")
    seed = _integer(sec, "array", "seed", default=d["seed"])

    sec = merged["beam"]
    _reject_unknown(sec, "beam", set(DEFAULTS["beam"]))
    target = np.asarray(_vector(sec, "beam", "target", 3,
                                default=DEFAULTS["beam"]["target"]), dtype=float)
    if target[2] <= 0.0:
        raise ScenarioValidationError("beam.target", "altitude (third entry) must be positive")
    input_power = _positive(_number(sec, "beam", "input_power",
                                    default=DEFAULTS["beam"]["input_power"]),
                            "beam.input_power")

    sec = merged["chain"]
    _reject_unknown(sec, "chain", set(DEFAULTS["chain"]))
    stages = {}
    for key in ("dc_to_rf", "beam_collection", "incidence_cosine", "rf_to_dc"):
        stages[key] = _fraction(_number(sec, "chain", key, default=DEFAULTS["chain"][key]),
                                f"chain.{key}", closed_low=True)
    chain = EfficiencyChain(**stages)

    sec = merged["aircraft"]
    _reject_unknown(sec, "aircraft", set(DEFAULTS["aircraft"]))
    d = DEFAULTS["aircraft"]
    mass = _positive(_number(sec, "aircraft", "mass", default=d["mass"]), "aircraft.mass")
    lod = _number(sec, "aircraft", "lift_to_drag", default=d["lift_to_drag"])
    if lod <= 1.0:
        raise ScenarioValidationError("aircraft.lift_to_drag", "must exceed 1")
    eta = _fraction(_number(sec, "aircraft", "propulsive_efficiency",
                            default=d["propulsive_efficiency"]),
                    "aircraft.propulsive_efficiency")
    speed = _positive(_number(sec, "aircraft", "cruise_speed", default=d["cruise_speed"]),
                      "aircraft.cruise_speed")
    burn = _positive(_number(sec, "aircraft", "fuel_burn_reference",
                             default=d["fuel_burn_reference"]),
                     "aircraft.fuel_burn_reference")
    panels = _build_panels(sec.get("panels", d["panels"]), "aircraft.panels")
    aircraft = Aircraft(mass, lod, eta, speed, burn, panels)

    sec = merged["network"]
    _reject_unknown(sec, "network", set(DEFAULTS["network"]))
    d = DEFAULTS["network"]
    farms_raw = sec.get("farms", d["farms"])
    if not isinstance(farms_raw, list):
        raise ScenarioValidationError("network.farms", "must be a list of [x, y] pairs")
    sites = []
    for idx, site in enumerate(farms_raw):
        if not isinstance(site, (list, tuple)) or len(site) != 2:
            raise ScenarioValidationError(f"network.farms[{idx}]",
                                          "must be a pair of numbers")
        sites.append([_finite(v, f"network.farms[{idx}]") for v in site])
    cap_raw = sec.get("input_cap", d["input_cap"])
    if isinstance(cap_raw, (list, tuple)):
        if len(cap_raw) != len(sites):
            raise ScenarioValidationError("network.input_cap",
                                          "list length must match farms")
        caps = [_finite(c, f"network.input_cap[{idx}]") for idx, c in enumerate(cap_raw)]
        if any(c < 0 for c in caps):
            raise ScenarioValidationError("network.input_cap", "must be non-negative")
    else:
        cap = _number(sec, "network", "input_cap", default=d["input_cap"])
        if cap < 0:
            raise ScenarioValidationError("network.input_cap", "must be non-negative")
        caps = [cap] * len(sites)
    scan = _number(sec, "network", "max_scan_deg", default=d["max_scan_deg"])
    if not 0.0 < scan < 90.0:
        raise ScenarioValidationError("network.max_scan_deg", "must be in (0, 90)")
    slant = _positive(_number(sec, "network", "max_slant_range",
                              default=d["max_slant_range"]),
                      "network.max_slant_range")
    network = FarmNetwork(np.asarray(sites, dtype=float).reshape(len(sites), 2),
                          np.asarray(caps, dtype=float), scan, slant)

    sec = merged["plan"]
    _reject_unknown(sec, "plan", set(DEFAULTS["plan"]))
    d = DEFAULTS["plan"]
    wps_raw = sec.get("waypoints", d["waypoints"])
    if not isinstance(wps_raw, list) or len(wps_raw) < 2:
        raise ScenarioValidationError("plan.waypoints", "need at least 2 waypoints")
    wps = []
    for idx, wp in enumerate(wps_raw):
        if not isinstance(wp, (list, tuple)) or len(wp) != 3:
            raise ScenarioValidationError(f"plan.waypoints[{idx}]",
                                          "must be [x, y, altitude] numbers")
        wp = [_finite(v, f"plan.waypoints[{idx}]") for v in wp]
        if wp[2] <= 0.0:
            raise ScenarioValidationError(f"plan.waypoints[{idx}]",
                                          "altitude must be positive")
        wps.append(wp)
    plan_speed = _positive(_number(sec, "plan", "speed", default=d["speed"]), "plan.speed")
    dt = _positive(_number(sec, "plan", "timestep", default=d["timestep"]), "plan.timestep")
    plan = FlightPlan(np.asarray(wps, dtype=float), plan_speed, dt)
    steps = plan.duration / dt
    if steps > MAX_MISSION_STEPS:
        raise ScenarioValidationError(
            "plan.timestep", f"gives {steps:.3g} mission steps over the route "
            f"(limit {MAX_MISSION_STEPS}); use a longer timestep")

    sec = merged["cost"]
    _reject_unknown(sec, "cost", set(DEFAULTS["cost"]))
    d = DEFAULTS["cost"]
    uplift = _number(sec, "cost", "rf_uplift", default=d["rf_uplift"], allow_none=True)
    if uplift is not None and uplift < 0.0:
        raise ScenarioValidationError("cost.rf_uplift", "must be non-negative")
    cost_fields = {}
    for key in ("solar_lcoe", "panel_cost", "rf_added_cost", "fuel_cost_per_hour"):
        v = _number(sec, "cost", key, default=d[key])
        if v < 0.0:
            raise ScenarioValidationError(f"cost.{key}", "must be non-negative")
        cost_fields[key] = v
    if cost_fields["fuel_cost_per_hour"] <= 0.0:
        raise ScenarioValidationError("cost.fuel_cost_per_hour", "must be positive")
    cost = CostModel(rf_uplift=uplift, **cost_fields)

    sec = merged["safety"]
    _reject_unknown(sec, "safety", set(DEFAULTS["safety"]))
    d = DEFAULTS["safety"]
    farm_area = _positive(_number(sec, "safety", "farm_area", default=d["farm_area"]),
                          "safety.farm_area")
    surface_limit = _positive(_number(sec, "safety", "surface_density_limit",
                                      default=d["surface_density_limit"]),
                              "safety.surface_density_limit")
    reflected_limit = _number(sec, "safety", "reflected_density_limit",
                              default=d["reflected_density_limit"], allow_none=True)
    if reflected_limit is not None:
        _positive(reflected_limit, "safety.reflected_density_limit")

    sec = merged["econ"]
    _reject_unknown(sec, "econ", set(DEFAULTS["econ"]))
    d = DEFAULTS["econ"]
    territory = _positive(_number(sec, "econ", "territory_area_km2",
                                  default=d["territory_area_km2"]),
                          "econ.territory_area_km2")
    cov_raw = sec.get("coverage_fraction", d["coverage_fraction"])
    cov_list = cov_raw if isinstance(cov_raw, list) else [cov_raw]
    if not cov_list:
        raise ScenarioValidationError("econ.coverage_fraction", "must not be empty")
    econ_cov = []
    for idx, v in enumerate(cov_list):
        path = f"econ.coverage_fraction[{idx}]"
        econ_cov.append(_fraction(_finite(v, path), path, closed_low=True))
    econ_farm = _positive(_number(sec, "econ", "farm_area_km2",
                                  default=d["farm_area_km2"]),
                          "econ.farm_area_km2")

    sec = merged["output"]
    _reject_unknown(sec, "output", set(DEFAULTS["output"]))
    d = DEFAULTS["output"]
    grid_n = _integer(sec, "output", "grid_n", default=d["grid_n"])
    if grid_n < 2:
        raise ScenarioValidationError("output.grid_n", "must be at least 2")
    window = _number(sec, "output", "map_window", default=d["map_window"], allow_none=True)
    if window is not None:
        _positive(window, "output.map_window")

    return Scenario(
        rf=rf, aperture_diameter=aperture, element_spacing=spacing,
        fill_fraction=fill, seed=seed, beam_target=target,
        beam_input_power=input_power, chain=chain, aircraft=aircraft,
        network=network, plan=plan, cost=cost, farm_area=farm_area,
        surface_density_limit=surface_limit,
        reflected_density_limit=reflected_limit,
        territory_area_km2=territory, econ_coverage_fractions=tuple(econ_cov),
        econ_farm_area_km2=econ_farm, grid_n=grid_n, map_window=window,
    )


def resolve_scenario_path(name_or_path: str) -> Path:
    """Accept a filesystem path or the bare name of a bundled scenario."""
    p = Path(name_or_path)
    if p.exists():
        return p
    if "/" not in name_or_path and "\\" not in name_or_path:
        bundle = resources.files("skybeam") / "scenarios"
        for candidate in (name_or_path, f"{name_or_path}.json"):
            res = bundle / candidate
            if res.is_file():
                return Path(str(res))
    raise ScenarioFileError(f"scenario file not found: {name_or_path}")


def parse_scenario(path) -> Scenario:
    """Load and validate a scenario JSON file."""
    file_path = resolve_scenario_path(str(path))
    try:
        text = file_path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioFileError(f"cannot read scenario file: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"invalid JSON in {file_path}: {exc}") from exc
    return scenario_from_dict(data)
