"""Seeded sweep of the scenario magnitude window through the CLI.

Each scenario changes a few fields of a bundled scenario to values drawn at
the window's floor, at its ceiling, at 0 where the bound allows it, or
log-uniform in between, and runs `spot`, `link`, `econ`, `safety` and
`coverage` in both formats in-process. Every run must either exit 0 with
finite report values, or exit 4 naming a field. `beam-map` stays out: its
cost grows with the element count, which the window does not bound.
"""

import json
import math
import re

import numpy as np

from skybeam.cli import main
from skybeam.scenario import MAX_MAGNITUDE, MIN_MAGNITUDE, resolve_scenario_path

SEED = 20240613
COMMANDS = ("spot", "link", "econ", "safety", "coverage")
# `coverage` runs one mission per call; timesteps are drawn for at most this
# many steps, well under the 1e6-step cap, to keep the sweep within seconds
MAX_SWEEP_STEPS = 2_000

ABOVE_ONE = math.nextafter(1.0, 2.0)
BELOW_90 = math.nextafter(90.0, 0.0)

# (section, key, lowest positive value, highest value, 0 allowed)
POSITIVE = (MIN_MAGNITUDE, MAX_MAGNITUDE, False)
NON_NEGATIVE = (MIN_MAGNITUDE, MAX_MAGNITUDE, True)
FRACTION = (MIN_MAGNITUDE, 1.0, False)
CLOSED_FRACTION = (MIN_MAGNITUDE, 1.0, True)
FIELDS = [
    ("array", "aperture_diameter", *POSITIVE),
    ("array", "spacing", *POSITIVE),
    ("array", "fill_fraction", *FRACTION),
    ("beam", "input_power", *POSITIVE),
    *[("chain", key, *CLOSED_FRACTION)
      for key in ("dc_to_rf", "beam_collection", "incidence_cosine", "rf_to_dc")],
    ("aircraft", "mass", *POSITIVE),
    ("aircraft", "lift_to_drag", ABOVE_ONE, MAX_MAGNITUDE, False),
    ("aircraft", "propulsive_efficiency", *FRACTION),
    ("aircraft", "cruise_speed", *POSITIVE),
    ("aircraft", "fuel_burn_reference", *POSITIVE),
    ("network", "input_cap", *NON_NEGATIVE),
    ("network", "max_scan_deg", MIN_MAGNITUDE, BELOW_90, False),
    ("network", "max_slant_range", *POSITIVE),
    ("plan", "speed", *POSITIVE),
    ("cost", "rf_uplift", *NON_NEGATIVE),
    ("cost", "solar_lcoe", *NON_NEGATIVE),
    ("cost", "panel_cost", *NON_NEGATIVE),
    ("cost", "rf_added_cost", *NON_NEGATIVE),
    ("cost", "fuel_cost_per_hour", *POSITIVE),
    ("safety", "farm_area", *POSITIVE),
    ("safety", "surface_density_limit", *POSITIVE),
    ("safety", "reflected_density_limit", *POSITIVE),
    ("econ", "territory_area_km2", *POSITIVE),
    ("econ", "coverage_fraction", *CLOSED_FRACTION),
    ("econ", "farm_area_km2", *POSITIVE),
    # structured fields: one number of each drawn like a scalar
    ("rf", "wavelength", *POSITIVE),
    ("rf", "frequency", *POSITIVE),
    ("beam", "target", *POSITIVE),           # the altitude
    ("plan", "waypoints", *POSITIVE),        # the cruise altitude
    ("aircraft", "panels", *POSITIVE),       # one panel's area (and normal)
]

# each scenario sets one field to one of its edges, so that three rounds
# over the fields reach every edge of every field
N_SCENARIOS = 3 * len(FIELDS)

FIELD_PATH = re.compile(r"error: [a-z]+\.[a-z0-9_]+(\[\d+\])*(\.[a-z_]+)?: ")


def edges(low, high, zero_ok):
    return [low, high, 0.0 if zero_ok else low]


def draw(rng, low, high, zero_ok):
    """An edge (the floor, the ceiling or 0 where allowed) or a value
    log-uniform in between."""
    if rng.random() < 0.3:
        return edges(low, high, zero_ok)[int(rng.integers(3))]
    return float(np.exp(rng.uniform(math.log(low), math.log(high))))


def sweep_scenario(rng, idx):
    """Scenario idx: field idx % len(FIELDS) on its edge idx // len(FIELDS),
    and up to five more fields drawn at random."""
    base = "a320_baseline" if rng.random() < 0.5 else "spot_scaled"
    data = json.loads(resolve_scenario_path(base).read_text(encoding="utf-8"))
    forced = idx % len(FIELDS)
    picks = {forced, *rng.choice(len(FIELDS), size=int(rng.integers(0, 6)), replace=False)}
    for i in sorted(picks):
        section, key, low, high, zero_ok = FIELDS[i]
        value = (edges(low, high, zero_ok)[idx // len(FIELDS) % 3] if i == forced
                 else draw(rng, low, high, zero_ok))
        fields = data.setdefault(section, {})
        if section == "rf":
            data["rf"] = {key: value}
        elif key == "target":
            fields[key] = [0.0, 0.0, value]
        elif key == "waypoints":
            fields[key] = [[0.0, 0.0, value], [500_000.0, 0.0, value]]
        elif key == "panels":
            normal = [draw(rng, *NON_NEGATIVE), -draw(rng, *NON_NEGATIVE),
                      -draw(rng, *POSITIVE)]
            fields[key] = [{"label": "underside", "normal": normal, "area": value,
                            "rf_to_dc": draw(rng, *CLOSED_FRACTION)}]
        else:
            fields[key] = value
    # every sweep route is 500 km long
    plan = data.setdefault("plan", {})
    duration = 500_000.0 / plan.get("speed", 250.0)
    shortest = max(MIN_MAGNITUDE, duration / MAX_SWEEP_STEPS)
    plan["timestep"] = draw(rng, shortest, MAX_MAGNITUDE, False)
    return data


def finite_values(value):
    """Every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(finite_values(v) for v in value.values())
    if isinstance(value, list):
        return all(finite_values(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


def refuse_constant(token):
    raise AssertionError(f"non-JSON token {token} written")


def report_values(text, fmt):
    if fmt == "json":
        return json.loads(text, parse_constant=refuse_constant)
    values = {}
    for line in text.splitlines()[1:]:
        key, value = line.split(" = ", 1)
        try:
            values[key.strip()] = float(value)
        except ValueError:
            values[key.strip()] = value
    return values


def test_window_sweep(tmp_path, capsys):
    rng = np.random.default_rng(SEED)
    counts = {0: 0, 4: 0}
    for idx in range(N_SCENARIOS):
        data = sweep_scenario(rng, idx)
        path = tmp_path / f"s{idx}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        for command in COMMANDS:
            for fmt in ("csv", "json"):
                out_dir = tmp_path / f"out{idx}-{command}-{fmt}"
                code = main([command, "--scenario", str(path), "--out", str(out_dir),
                             "--format", fmt])
                out, err = capsys.readouterr()
                case = f"{command} --format {fmt} on {json.dumps(data)}"
                assert code in (0, 4), f"exit {code}: {err} ({case})"
                counts[code] += 1
                if code == 4:
                    assert FIELD_PATH.match(err), f"no field path: {err} ({case})"
                    assert out == ""
                    continue
                assert finite_values(report_values(out, fmt)), f"{out} ({case})"
                if command == "coverage":
                    summary = (out_dir / "mission_summary.json").read_text()
                    assert finite_values(json.loads(summary, parse_constant=refuse_constant))
    # the sweep reaches both outcomes often enough to mean something
    assert min(counts.values()) >= N_SCENARIOS, counts
