"""Scenario files: JSON ingestion, validation with field paths, documented defaults.

Unspecified fields fall back to the single-aisle baseline case (50 t airliner,
1 km farm aperture, 10 cm carrier). Validation failures name the offending
field as `section.key` and surface as ScenarioValidationError (CLI exit 4).

Every number read from a file lies in one magnitude window: none exceeds
MAX_MAGNITUDE, and a quantity, fraction or angle that is positive is at least
MIN_MAGNITUDE (zero stays allowed where its bound allows it). Inside the
window every closed form the reports print is a finite float, so the
commands need no overflow checks of their own. Derived values, such as the
default spacing of half a wavelength, are not held to the window.

Every field is one row of `_FIELDS`: (section, key, default, kind). A kind
takes the raw value (the default when the key is absent), the field path and
the values read so far, and returns the checked value or raises with the path.
Scalar kinds are `_bound`s; structured fields have kinds of their own.
Sections are read in `_SECTIONS` order, unknown keys first and then the rows
in table order, which is thus the order in which faults are found. A section
with a domain type is then built from its fields (`_BUILD`), where the checks
that span a section run; any other section becomes a read-only `Section`.
Either way a field is read back at its file path: `scn.<section>.<key>`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from types import SimpleNamespace

from . import lazy_attributes
from .economics import CostModel
from .errors import (InvalidArgumentError, ScenarioFileError, ScenarioParseError,
                     ScenarioValidationError)
from .link import (Aircraft, EfficiencyChain, FarmNetwork, FlightPlan, ReceiverPanel, RfSpec,
                   check_heading, default_panels, vector_length)

# The layout builder loads numpy, so it is resolved on use, as an attribute of
# skybeam.scenario (`_engine.make_planar_array`), which a tracer may rebind.
__getattr__ = lazy_attributes(__name__, {"make_planar_array": "core"})
from . import scenario as _engine  # noqa: E402  (this module, as imported)

_SECTIONS = ("rf", "array", "beam", "chain", "aircraft", "network", "plan",
             "cost", "safety", "econ", "output")

# beam-map guard: a full-scale farm aperture at half-wavelength pitch holds
# ~3e8 elements and is not a desk-scale map evaluation
MAX_MAP_ELEMENTS = 20e6

# beam-map guard on grid_n x grid_n, checked before any grid array exists:
# each map point holds 24 bytes of coordinates, 16 of complex field and 8 of
# density, and the evaluation and the map each keep a copy (~0.4 GB at 2000^2).
MAX_MAP_POINTS = 2000 * 2000

# Mission step guard, checked before any per-step array is allocated: a
# day-long flight (86 400 s) at a 0.1 s timestep is 864k steps, and each step
# costs ~100 bytes of trace plus one CSV row.
MAX_MISSION_STEPS = 1_000_000

# Default farm row: one site every 31.6 km along a 500 km corridor.
_FARM_ROW_SPACING = 31_600.0
_FARM_ROW = [[i * _FARM_ROW_SPACING, 0.0] for i in range(17)]

# The magnitude window of every scenario number (module docstring). Its
# extreme corners give report values from about 1e-96 to 1e109.
MAX_MAGNITUDE = 1e15
MIN_MAGNITUDE = 1e-9


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
    the float range (1e999) as infinities; none of them is a valid quantity,
    and neither is a magnitude above MAX_MAGNITUDE.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioValidationError(path, "must be a number")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioValidationError(path, "must be finite")
    if abs(number) > MAX_MAGNITUDE:
        raise ScenarioValidationError(path, f"is too large: magnitudes stop at {MAX_MAGNITUDE:g}")
    return number


def _floor(number: float, path: str) -> float:
    """A number that is 0, negative or at least MIN_MAGNITUDE."""
    if 0.0 < number < MIN_MAGNITUDE:
        raise ScenarioValidationError(
            path, f"is too small: positive values start at {MIN_MAGNITUDE:g}")
    return number


def _bound(*tests, optional: bool = False):
    """Kind of a number in the window passing each (test, message); null only
    if optional. The floor is checked after the tests."""
    def kind(value, path: str, values=None):
        if value is None:
            if optional:
                return None
            raise ScenarioValidationError(path, "is required")
        number = _finite(value, path)
        for test, message in tests:
            if not test(number):
                raise ScenarioValidationError(path, message)
        return _floor(number, path)
    return kind


_ABOVE_ZERO = (lambda x: x > 0.0, "must be positive")
_NOT_BELOW_ZERO = (lambda x: x >= 0.0, "must be non-negative")

POSITIVE = _bound(_ABOVE_ZERO)
NON_NEGATIVE = _bound(_NOT_BELOW_ZERO)
FRACTION = _bound((lambda x: 0.0 < x <= 1.0, "must be in (0, 1]"))
CLOSED_FRACTION = _bound((lambda x: 0.0 <= x <= 1.0, "must be in [0, 1]"))
ABOVE_ONE = _bound((lambda x: x > 1.0, "must exceed 1"))
SCAN_ANGLE = _bound((lambda x: 0.0 < x < 90.0, "must be in (0, 90)"))
# a negative rate is refused as such before zero is
HOURLY_COST = _bound(_NOT_BELOW_ZERO, _ABOVE_ZERO)
OPTIONAL = _bound(optional=True)
OPTIONAL_POSITIVE = _bound(_ABOVE_ZERO, optional=True)
OPTIONAL_NON_NEGATIVE = _bound(_NOT_BELOW_ZERO, optional=True)


def _integer(value, path: str, values=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioValidationError(path, "must be an integer")
    return value


def _non_negative_integer(value, path: str, values=None) -> int:
    number = _integer(value, path)
    if number < 0:
        raise ScenarioValidationError(path, "must be non-negative")
    return number


def map_grid_n(value, path: str, values=None) -> int:
    """Map samples per side, for `output.grid_n` and `--grid-n` alike: an
    integer from 2 up to a map of MAX_MAP_POINTS points."""
    grid_n = _integer(value, path)
    if grid_n < 2:
        raise ScenarioValidationError(path, "must be at least 2")
    side = math.isqrt(MAX_MAP_POINTS)
    if grid_n > side:
        raise ScenarioValidationError(
            path, f"must be at most {side} (a map of {MAX_MAP_POINTS} points)")
    return grid_n


def thread_count(value, path: str) -> int:
    """Field-evaluation worker threads (`--threads`): an integer of at least 1."""
    threads = _integer(value, path)
    if threads < 1:
        raise ScenarioValidationError(path, "must be at least 1")
    return threads


def _vector(value, path: str, length: int) -> list[float]:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ScenarioValidationError(path, f"must be a list of {length} numbers")
    return [_finite(v, path) for v in value]


def _spacing(value, path: str, values) -> float:
    # the default is derived, so it is not held to the window
    spacing = 0.5 * values["rf"].wavelength if value is None else POSITIVE(value, path)
    if spacing >= values["array"]["aperture_diameter"]:
        raise ScenarioValidationError(path, "must be smaller than aperture_diameter")
    return spacing


def _target(value, path: str, values) -> tuple[float, ...]:
    target = tuple(_vector(value, path, 3))
    if target[2] <= 0.0:
        raise ScenarioValidationError(path, "altitude (third entry) must be positive")
    _floor(target[2], path)
    # the closed-form peak density divides by (wavelength * altitude)^2
    if target[2] <= values["rf"].wavelength:
        raise ScenarioValidationError(path, "altitude (third entry) must exceed the wavelength")
    return target


def _panels(value, path: str, values) -> list[ReceiverPanel]:
    if value is None:
        return default_panels()
    if not isinstance(value, list) or not value:
        raise ScenarioValidationError(path, "must be a non-empty list of panels")
    panels = []
    for idx, item in enumerate(value):
        item_path = f"{path}[{idx}]"
        p = _expect_mapping(item, item_path)
        _reject_unknown(p, item_path, {"label", "normal", "area", "rf_to_dc"})
        label = p.get("label")
        if not isinstance(label, str) or not label:
            raise ScenarioValidationError(f"{item_path}.label", "must be a non-empty string")
        normal = _vector(p.get("normal"), f"{item_path}.normal", 3)
        area = POSITIVE(p.get("area"), f"{item_path}.area")
        eff = CLOSED_FRACTION(p.get("rf_to_dc", 0.85), f"{item_path}.rf_to_dc")
        norm = vector_length(*normal)
        if norm <= 0.0:
            raise ScenarioValidationError(f"{item_path}.normal", "must be non-zero")
        # a shorter normal divides back to a vector that is not of unit length
        _floor(norm, f"{item_path}.normal")
        # numpy divides: coverage reads these bits, and numpy's 1-D norm goes
        # through BLAS, whose rounding plain Python does not match on every CPU
        import numpy as np
        unit = tuple((np.asarray(normal) / np.linalg.norm(normal)).tolist())
        panels.append(ReceiverPanel(label, unit, area, eff))
    return panels


def _farms(value, path: str, values) -> list:
    if not isinstance(value, list):
        raise ScenarioValidationError(path, "must be a list of [x, y] pairs")
    sites = []
    for idx, site in enumerate(value):
        if not isinstance(site, (list, tuple)) or len(site) != 2:
            raise ScenarioValidationError(f"{path}[{idx}]", "must be a pair of numbers")
        sites.append([_finite(v, f"{path}[{idx}]") for v in site])
    return sites


def _input_cap(value, path: str, values):
    if not isinstance(value, (list, tuple)):
        return NON_NEGATIVE(value, path)        # FarmNetwork gives it to every farm
    if len(value) != len(values["network"]["farms"]):
        raise ScenarioValidationError(path, "list length must match farms")
    return [NON_NEGATIVE(c, f"{path}[{idx}]") for idx, c in enumerate(value)]


def _waypoints(value, path: str, values) -> list:
    if not isinstance(value, list) or len(value) < 2:
        raise ScenarioValidationError(path, "need at least 2 waypoints")
    wps = []
    for idx, wp in enumerate(value):
        wp_path = f"{path}[{idx}]"
        if not isinstance(wp, (list, tuple)) or len(wp) != 3:
            raise ScenarioValidationError(wp_path, "must be [x, y, altitude] numbers")
        wp = [_finite(v, wp_path) for v in wp]
        if wp[2] <= 0.0:
            raise ScenarioValidationError(wp_path, "altitude must be positive")
        _floor(wp[2], wp_path)
        if wps:
            dx, dy, dz = (b - a for a, b in zip(wps[-1], wp))
            # a zero-length segment, measured as FlightPlan measures segments
            if vector_length(dx, dy, dz) <= 0.0:
                raise ScenarioValidationError(wp_path, "must differ from the previous waypoint")
            # the mission flies each segment level along its horizontal heading
            try:
                check_heading(dx, dy)
            except InvalidArgumentError:
                raise ScenarioValidationError(
                    wp_path, "must not be straight above or below the previous waypoint"
                ) from None
        wps.append(wp)
    return wps


def _coverage(value, path: str, values) -> tuple:
    items = value if isinstance(value, list) else [value]
    if not items:
        raise ScenarioValidationError(path, "must not be empty")
    return tuple(CLOSED_FRACTION(_finite(v, f"{path}[{idx}]"), f"{path}[{idx}]")
                 for idx, v in enumerate(items))


# One row per field, in check order within each section.
_FIELDS = (
    # rf: frequency XOR wavelength, 0.1 m when neither is given (_build_rf)
    ("rf", "frequency", None, OPTIONAL),
    ("rf", "wavelength", None, OPTIONAL),
    ("array", "aperture_diameter", 1000.0, POSITIVE),
    ("array", "spacing", None, _spacing),       # null: half the wavelength
    ("array", "fill_fraction", 1.0, FRACTION),
    ("array", "seed", 42, _non_negative_integer),   # numpy refuses a negative seed
    ("beam", "target", [0.0, 0.0, 10_000.0], _target),
    ("beam", "input_power", 100e6, POSITIVE),
    # stages multiply to 0.20 end-to-end while keeping the demonstrated
    # 85 % rectenna stage (beam_collection = 8/17)
    ("chain", "dc_to_rf", 0.5, CLOSED_FRACTION),
    ("chain", "beam_collection", 0.47058823529411764, CLOSED_FRACTION),
    ("chain", "incidence_cosine", 1.0, CLOSED_FRACTION),
    ("chain", "rf_to_dc", 0.85, CLOSED_FRACTION),
    ("aircraft", "mass", 50_000.0, POSITIVE),
    ("aircraft", "lift_to_drag", 18.0, ABOVE_ONE),
    ("aircraft", "propulsive_efficiency", 0.6, FRACTION),
    ("aircraft", "cruise_speed", 250.0, POSITIVE),
    ("aircraft", "fuel_burn_reference", 2400.0, POSITIVE),
    ("aircraft", "panels", None, _panels),      # null: the stock 3-panel fit
    ("network", "farms", _FARM_ROW, _farms),
    ("network", "input_cap", 100e6, _input_cap),
    ("network", "max_scan_deg", 60.0, SCAN_ANGLE),
    ("network", "max_slant_range", 20_000.0, POSITIVE),
    ("plan", "waypoints", [[0.0, 0.0, 10_000.0], [500_000.0, 0.0, 10_000.0]],
     _waypoints),
    ("plan", "speed", 250.0, POSITIVE),
    ("plan", "timestep", 10.0, POSITIVE),
    ("cost", "rf_uplift", None, OPTIONAL_NON_NEGATIVE),
    ("cost", "solar_lcoe", 24.0, NON_NEGATIVE),
    ("cost", "panel_cost", 200.0, NON_NEGATIVE),
    ("cost", "rf_added_cost", 100.0, NON_NEGATIVE),
    ("cost", "fuel_cost_per_hour", 1992.0, HOURLY_COST),
    ("safety", "farm_area", 1e6, POSITIVE),
    ("safety", "surface_density_limit", 100.0, POSITIVE),
    ("safety", "reflected_density_limit", None, OPTIONAL_POSITIVE),
    ("econ", "territory_area_km2", 8.08e6, POSITIVE),
    ("econ", "coverage_fraction", 0.001, _coverage),
    ("econ", "farm_area_km2", 1.0, POSITIVE),
    ("output", "grid_n", 101, map_grid_n),
    ("output", "map_window", None, OPTIONAL_POSITIVE),
)

_ROWS: dict = {name: [] for name in _SECTIONS}
for _section, *_row in _FIELDS:
    _ROWS[_section].append(_row)


def _build_rf(frequency, wavelength) -> RfSpec:
    if frequency is not None and wavelength is not None:
        raise ScenarioValidationError("rf", "give frequency or wavelength, not both")
    if frequency is not None:
        return RfSpec.from_frequency(POSITIVE(frequency, "rf.frequency"))
    wavelength = 0.1 if wavelength is None else wavelength
    return RfSpec.from_wavelength(POSITIVE(wavelength, "rf.wavelength"))


def _build_plan(**fields) -> FlightPlan:
    plan = FlightPlan(**fields)
    if plan.n_steps > MAX_MISSION_STEPS:
        raise ScenarioValidationError(
            "plan.timestep", f"gives {plan.n_steps:.3g} mission steps over the route "
            f"(limit {MAX_MISSION_STEPS}); use a longer timestep")
    return plan


def _build_cost(**fields) -> CostModel:
    if fields["rf_uplift"] is None and fields["panel_cost"] <= 0.0:
        raise ScenarioValidationError("cost.panel_cost",
                                      "must be positive when rf_uplift is null")
    return CostModel(**fields)


class Section(SimpleNamespace):
    """Read-only record of the fields of a section without a domain type,
    each under its file key."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"scenario field {name} is read-only")

    __delattr__ = __setattr__


# Domain type of each section that has one, built from the section's fields;
# every other section is a Section.
_BUILD = {"rf": _build_rf, "chain": EfficiencyChain, "aircraft": Aircraft,
          "network": FarmNetwork, "plan": _build_plan, "cost": _build_cost}


@dataclass(frozen=True)
class Scenario:
    """Validated scenario: one object per section, so that every field is
    read at its file path (`scn.array.spacing`, `scn.econ.coverage_fraction`).

    The element layout is built on demand (build_layout) because full-scale
    farm apertures hold hundreds of millions of elements.
    """

    rf: RfSpec
    array: Section
    beam: Section
    chain: EfficiencyChain
    aircraft: Aircraft
    network: FarmNetwork
    plan: FlightPlan
    cost: CostModel
    safety: Section
    econ: Section
    output: Section

    def estimated_element_count(self) -> float:
        """Disk-grid element count without building the layout."""
        r_idx = self.array.aperture_diameter / (2.0 * self.array.spacing)
        return math.pi * r_idx * r_idx

    def build_layout(self):
        """The element layout (a core.ArrayLayout)."""
        array = self.array
        return _engine.make_planar_array(array.aperture_diameter, array.spacing,
                                         array.fill_fraction, array.seed)

    def radiated_power(self) -> float:
        """Beam power leaving the farm: grid input times the DC-to-RF stage."""
        return self.beam.input_power * self.chain.dc_to_rf


def scenario_from_dict(data: dict) -> Scenario:
    data = _expect_mapping(data, "scenario")
    _reject_unknown(data, "scenario", _SECTIONS)
    sections = {name: _expect_mapping(data.get(name, {}), name) for name in _SECTIONS}
    values: dict = {}
    for name in _SECTIONS:
        section = sections[name]
        _reject_unknown(section, name, [key for key, _, _ in _ROWS[name]])
        fields = values[name] = {}
        for key, default, kind in _ROWS[name]:
            fields[key] = kind(section.get(key, default), f"{name}.{key}", values)
        values[name] = _BUILD.get(name, Section)(**fields)
    return Scenario(**values)


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
