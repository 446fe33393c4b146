"""Seeded scenario generators, one per workload.

Each generator turns a seed into a pool of jobs: scenario files written to a
work directory plus the argv of the skybeam command that runs them. The same
seed always writes byte-identical files.

The seed changes the scenario contents (geometry, thinning, carriers, caps,
formats, the order jobs run in) but not the cost profile of the pool: the
quantity that sets a job's cost (element-point evaluations for `map`,
step-farm pairs and the visible share for `route`) is taken from fixed
strata, so runs on different seeds measure the same amount of work and their
medians can be compared.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

POOL_SIZE = {"map": 32, "route": 32, "cli-mix": 40}


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _dump(scenario: dict) -> str:
    return json.dumps(scenario, indent=1, sort_keys=True) + "\n"


def _bit_reversal_order(n: int, rng: np.random.Generator) -> list[int]:
    """Order strata so that every prefix of a pass samples them evenly.

    Runs stop after a fixed time, mid-pass; this keeps the partial pass close
    to the full pool's cost mix. The seed picks the starting phase.
    """
    bits = max(1, (n - 1).bit_length())
    rev = sorted(range(1 << bits), key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    order = [i for i in rev if i < n]
    shift = int(rng.integers(0, n))
    return order[shift:] + order[:shift]


def _strata(lo: float, hi: float, n: int) -> np.ndarray:
    """Stratum centres, log-spaced over [lo, hi]."""
    return lo * (hi / lo) ** ((np.arange(n) + 0.5) / n)


def _coprime_shuffle(n: int, step: int) -> np.ndarray:
    """A fixed permutation decorrelating two stratified variables."""
    return (np.arange(n) * step) % n


# ---------------------------------------------------------------------------
# map: beam-map --binary on seeded variants of the scaled spot scenario
# ---------------------------------------------------------------------------

MAP_ELEMENTS = (100.0, 8000.0)     # active elements, log-spaced strata...
# ...capped, so the five largest strata are equal jobs and the p90 job time
# sits on that plateau rather than on the steep top of the cost curve
MAP_ELEMENTS_CAP = 4300.0
MAP_GRID = (41, 121)               # grid_n range
MAP_EVALS = 1.5e6                  # element-point budget where the grid allows
# range over wavelength: it sets the size of the phases k*r fed to cos/sin,
# whose speed depends on it, so each stratum keeps its own fixed value
MAP_RANGE_WAVELENGTHS = (2.0e3, 4.0e4)


def _map_scenario(rng: np.random.Generator, n_active: float, grid_n: int,
                  range_wavelengths: float) -> dict:
    wavelength = float(rng.uniform(0.03, 0.3))
    fill = 1.0 if rng.random() < 0.3 else float(rng.uniform(0.5, 0.98))
    range_m = range_wavelengths * wavelength
    radius_pitches = math.sqrt(n_active / fill / math.pi)
    # pitch 0.5-10 wavelengths, capped so the range stays >= 1.5 apertures
    top = min(10.0, range_wavelengths / (3.0 * radius_pitches))
    spacing = wavelength * float(np.exp(rng.uniform(np.log(0.5), np.log(max(top, 0.5)))))
    diameter = 2.0 * spacing * radius_pitches
    offset = 0.05 * range_m
    target = [float(rng.uniform(-offset, offset)), float(rng.uniform(-offset, offset)), range_m]
    first_null = 1.22 * wavelength * range_m / diameter
    window = None if rng.random() < 0.25 else first_null * float(rng.uniform(4.0, 8.0))
    return {
        "rf": {"wavelength": wavelength},
        "array": {"aperture_diameter": diameter, "spacing": spacing,
                  "fill_fraction": fill, "seed": int(rng.integers(0, 2**31 - 1))},
        "beam": {"target": target, "input_power": float(rng.uniform(1e4, 1e7))},
        "chain": {"dc_to_rf": float(rng.uniform(0.3, 0.9))},
        "output": {"grid_n": grid_n, "map_window": window},
    }


def _map_job(name: str, scenario: dict, fmt: str, grid_flag: bool, work: Path) -> dict:
    grid_n = scenario["output"]["grid_n"]
    argv = ["beam-map", "--scenario", f"scn/{name}.json", "--out", f"out/{name}",
            "--binary", "--threads", "1", "--format", fmt]
    if grid_flag:
        # the flag overrides the file's grid_n, which is left at its default
        del scenario["output"]["grid_n"]
        argv += ["--grid-n", str(grid_n)]
    _write(work / "scn" / f"{name}.json", _dump(scenario))
    return {"name": name, "kind": "map", "argv": argv, "out": f"out/{name}",
            "scenario": f"scn/{name}.json", "grid_n": grid_n, "format": fmt}


def map_pool(seed: int, work: Path) -> list[dict]:
    n = POOL_SIZE["map"]
    rng = np.random.default_rng([seed, 1])
    elements = np.minimum(_strata(*MAP_ELEMENTS, n), MAP_ELEMENTS_CAP)
    ranges = _strata(*MAP_RANGE_WAVELENGTHS, n)[_coprime_shuffle(n, 13)]
    jobs = []
    for i in range(n):
        grid_n = int(np.clip(round(math.sqrt(MAP_EVALS / elements[i])), *MAP_GRID))
        scenario = _map_scenario(rng, elements[i], grid_n, float(ranges[i]))
        fmt = "json" if rng.random() < 0.5 else "csv"
        jobs.append(_map_job(f"map{i:02d}", scenario, fmt, i % 2 == 1, work))
    return [jobs[i] for i in _bit_reversal_order(n, rng)]


def map_warmup(work: Path) -> dict:
    scenario = {"rf": {"wavelength": 0.1},
                "array": {"aperture_diameter": 5.6, "spacing": 0.5,
                          "fill_fraction": 1.0, "seed": 1},
                "beam": {"target": [0.0, 0.0, 60.0], "input_power": 1e5},
                "chain": {"dc_to_rf": 0.5},
                "output": {"grid_n": 41, "map_window": None}}
    return _map_job("warmup", scenario, "csv", False, work)


# ---------------------------------------------------------------------------
# route: coverage on generated farm networks
# ---------------------------------------------------------------------------

ROUTE_STEP_FARMS = (2.0e3, 6.0e4)  # steps x farms, log-spaced strata, the top
ROUTE_STEP_FARMS_CAP = 3.7e4       # five capped to one plateau (as for map)
ROUTE_FARMS = (8, 128)
ROUTE_VISIBLE = (0.02, 0.5)        # share of step-farm pairs in view


def route_positions(waypoints: np.ndarray, n_steps: int) -> np.ndarray:
    """Step-midpoint positions for a route cut into n_steps - 0.5 timesteps."""
    seg = np.diff(waypoints, axis=0)
    seg_len = np.linalg.norm(seg, axis=1)
    cum = np.concatenate([[0.0], np.cumsum(seg_len)])
    step = cum[-1] / (n_steps - 0.5)
    starts = np.arange(n_steps) * step
    mids = starts + 0.5 * np.minimum(step, cum[-1] - starts)
    idx = np.minimum(np.searchsorted(cum, mids, side="right") - 1, len(seg) - 1)
    frac = (mids - cum[idx]) / seg_len[idx]
    return waypoints[idx] + frac[:, None] * seg[idx]


def visible_pairs(positions: np.ndarray, sites: np.ndarray, max_scan_deg: float,
                  max_slant: float) -> np.ndarray:
    """(steps, farms) visibility with the documented inclusive bounds."""
    dx = positions[:, 0][:, None] - sites[None, :, 0]
    dy = positions[:, 1][:, None] - sites[None, :, 1]
    pz = positions[:, 2][:, None]
    slant = np.sqrt(dx ** 2 + dy ** 2 + pz * pz)
    scan = np.degrees(np.arccos(np.minimum(1.0, pz / slant)))
    return (slant <= max_slant * (1.0 + 1e-12)) & (scan <= max_scan_deg + 1e-9)


def _route_geometry(rng: np.random.Generator, n_farms: int):
    """Unit-length route with turns and a farm lattice of 1-8 rows around it."""
    n_wp = int(rng.integers(2, 6))
    xs = np.sort(rng.uniform(0.0, 1.0, n_wp))
    xs[0], xs[-1] = 0.0, 1.0
    ys = rng.uniform(-0.12, 0.12, n_wp)
    rows = int(rng.integers(1, min(8, n_farms) + 1))
    cols = int(math.ceil(n_farms / rows))
    row_gap = float(rng.uniform(0.02, 0.12))
    sites = []
    for k in range(n_farms):
        r, c = divmod(k, cols)
        x = (c + 0.5) / cols + float(rng.uniform(-0.1, 0.1)) / cols
        y = (r - (rows - 1) / 2.0) * row_gap + float(rng.uniform(-0.2, 0.2)) * row_gap
        sites.append([x, y])
    return np.column_stack([xs, ys]), np.asarray(sites)


def _fit_scale(route_xy, sites_unit, n_steps, altitude, scan, slant, target) -> float:
    """Metres per unit length at which the visible share is closest to target.

    The share only falls as the map is stretched (every horizontal distance
    grows while altitude and limits stay), so bisection on log scale works.
    """
    lo, hi = math.log(1e3), math.log(1e7)
    for _ in range(30):
        mid = 0.5 * (lo + hi)
        g = math.exp(mid)
        wps = np.column_stack([route_xy * g, np.full(len(route_xy), altitude)])
        share = visible_pairs(route_positions(wps, n_steps), sites_unit * g, scan, slant).mean()
        if share > target:
            lo = mid
        else:
            hi = mid
    return math.exp(0.5 * (lo + hi))


def _route_scenario(rng: np.random.Generator, n_farms: int, n_steps: int,
                    share: float) -> dict:
    route_xy, sites_unit = _route_geometry(rng, n_farms)
    altitude = float(rng.uniform(8000.0, 12000.0))
    scan = float(rng.uniform(40.0, 70.0))
    slant = altitude * float(rng.uniform(1.2, 2.5))
    g = _fit_scale(route_xy, sites_unit, n_steps, altitude, scan, slant, share)
    waypoints = [[float(x * g), float(y * g), altitude] for x, y in route_xy]
    length = float(np.linalg.norm(np.diff(np.asarray(waypoints), axis=0), axis=1).sum())
    speed = float(rng.uniform(200.0, 260.0))
    caps = (float(rng.uniform(20e6, 150e6)) if rng.random() < 0.5
            else [float(c) for c in rng.uniform(20e6, 150e6, n_farms)])
    return {
        "aircraft": {"mass": float(rng.uniform(30e3, 80e3)),
                     "lift_to_drag": float(rng.uniform(14.0, 20.0)),
                     "propulsive_efficiency": float(rng.uniform(0.5, 0.8)),
                     "cruise_speed": float(rng.uniform(200.0, 260.0)),
                     "fuel_burn_reference": float(rng.uniform(1500.0, 3500.0))},
        "chain": {k: float(rng.uniform(0.4, 0.95))
                  for k in ("dc_to_rf", "beam_collection", "incidence_cosine", "rf_to_dc")},
        "network": {"farms": [[float(x * g), float(y * g)] for x, y in sites_unit],
                    "input_cap": caps, "max_scan_deg": scan, "max_slant_range": slant},
        # n_steps - 0.5 timesteps: the step count never sits on a rounding edge
        "plan": {"waypoints": waypoints, "speed": speed,
                 "timestep": length / speed / (n_steps - 0.5)},
    }


def _route_job(name: str, scenario: dict, n_steps: int, fmt: str, work: Path) -> dict:
    _write(work / "scn" / f"{name}.json", _dump(scenario))
    argv = ["coverage", "--scenario", f"scn/{name}.json", "--out", f"out/{name}",
            "--threads", "1", "--format", fmt]
    return {"name": name, "kind": "route", "argv": argv, "out": f"out/{name}",
            "scenario": f"scn/{name}.json", "n_steps": n_steps, "format": fmt}


def route_pool(seed: int, work: Path) -> list[dict]:
    n = POOL_SIZE["route"]
    rng = np.random.default_rng([seed, 2])
    step_farms = np.minimum(_strata(*ROUTE_STEP_FARMS, n), ROUTE_STEP_FARMS_CAP)
    farms = np.rint(_strata(*ROUTE_FARMS, n)[_coprime_shuffle(n, 13)]).astype(int)
    shares = _strata(*ROUTE_VISIBLE, n)[_coprime_shuffle(n, 7)]
    jobs = []
    for i in range(n):
        n_steps = int(np.clip(round(step_farms[i] / farms[i]), 30, 1500))
        scenario = _route_scenario(rng, int(farms[i]), n_steps, float(shares[i]))
        fmt = "json" if rng.random() < 0.5 else "csv"
        jobs.append(_route_job(f"route{i:02d}", scenario, n_steps, fmt, work))
    return [jobs[i] for i in _bit_reversal_order(n, rng)]


def route_warmup(work: Path) -> dict:
    scenario = _route_scenario(np.random.default_rng(0), 8, 40, 0.2)
    return _route_job("warmup", scenario, 40, "csv", work)


# ---------------------------------------------------------------------------
# cli-mix: spot, link, econ and safety reports, one fresh process per job
# ---------------------------------------------------------------------------

CLI_COMMANDS = ("spot", "link", "econ", "safety")

# (section, key, value, documented exit code) for each class of bad input
OUT_OF_RANGE = [("array", "fill_fraction", 1.5), ("chain", "rf_to_dc", 1.2),
                ("beam", "input_power", -1e6), ("safety", "farm_area", 0.0),
                ("network", "max_scan_deg", 95.0), ("aircraft", "lift_to_drag", 0.8),
                ("econ", "farm_area_km2", -1.0), ("plan", "speed", 0.0)]
UNKNOWN_FIELD = [("array", "tilt_deg", 3.0), ("cost", "carbon_tax", 40.0),
                 ("beam", "polarisation", 1.0), ("scenario", "weather", {})]
# JSON NaN / Infinity in fields whose checks compare with <= or <, which a
# non-finite value slips past today (a documented defect)
NON_FINITE = [("beam", "input_power", math.inf), ("cost", "solar_lcoe", math.nan),
              ("safety", "farm_area", math.nan), ("aircraft", "mass", math.inf),
              ("econ", "territory_area_km2", math.inf)]
# invalid inputs the program rejects with the documented exit code; these are
# in the timed job stream
INVALID_KINDS = ("missing", "truncated", "out_of_range", "unknown_field")
# inputs whose documented exit code the program does not give today. A job on
# them would fail, so they stay out of the timed stream: each run probes them
# once, off the clock, and reports the outcome beside its result.
KNOWN_DEFECTS = ("non_finite", "tiny_wavelength")


def _round_sig(x: float, digits: int = 4) -> float:
    return float(f"{x:.{digits}g}")


def _cli_scenario(rng: np.random.Generator) -> dict:
    rf = ({"wavelength": float(rng.uniform(0.01, 0.5))} if rng.random() < 0.5
          else {"frequency": float(rng.uniform(1e9, 30e9))})
    covs = sorted({_round_sig(float(c)) for c in rng.uniform(1e-4, 0.05, int(rng.integers(1, 4)))})
    return {
        "rf": rf,
        "array": {"aperture_diameter": float(rng.uniform(10.0, 2000.0))},
        "beam": {"target": [float(rng.uniform(-100, 100)), float(rng.uniform(-100, 100)),
                            float(rng.uniform(1000.0, 20000.0))],
                 "input_power": float(rng.uniform(1e6, 5e8))},
        "chain": {k: float(rng.uniform(0.3, 0.99))
                  for k in ("dc_to_rf", "beam_collection", "incidence_cosine", "rf_to_dc")},
        "aircraft": {"mass": float(rng.uniform(30e3, 80e3)),
                     "lift_to_drag": float(rng.uniform(14.0, 20.0)),
                     "propulsive_efficiency": float(rng.uniform(0.5, 0.8)),
                     "cruise_speed": float(rng.uniform(200.0, 260.0)),
                     "fuel_burn_reference": float(rng.uniform(1500.0, 3500.0))},
        "cost": {"solar_lcoe": float(rng.uniform(10.0, 80.0)),
                 "panel_cost": float(rng.uniform(100.0, 400.0)),
                 "rf_added_cost": float(rng.uniform(20.0, 200.0)),
                 "fuel_cost_per_hour": float(rng.uniform(1000.0, 4000.0)),
                 "rf_uplift": float(rng.uniform(0.0, 1.0)) if rng.random() < 0.3 else None},
        "safety": {"farm_area": float(rng.uniform(2e5, 5e6)),
                   "surface_density_limit": float(rng.uniform(20.0, 400.0)),
                   "reflected_density_limit": (None if rng.random() < 0.5
                                               else float(rng.uniform(1.0, 1e4)))},
        "econ": {"territory_area_km2": float(rng.uniform(1e5, 1e7)),
                 "coverage_fraction": covs[0] if len(covs) == 1 else covs,
                 "farm_area_km2": float(rng.uniform(0.2, 5.0))},
    }


def _invalid(kind: str, rng: np.random.Generator, base: dict) -> tuple[str | None, int, str | None]:
    """Scenario text (None: no file), documented exit code and field path."""
    if kind == "missing":
        return None, 2, None
    if kind == "truncated":
        text = _dump(base)
        return text[: int(rng.integers(len(text) // 4, len(text) - 3))], 3, None
    if kind == "tiny_wavelength":
        base["rf"] = {"wavelength": 1e-300}
        return _dump(base), 4, "rf.wavelength"
    table = {"out_of_range": OUT_OF_RANGE, "unknown_field": UNKNOWN_FIELD,
             "non_finite": NON_FINITE}[kind]
    section, key, value = table[int(rng.integers(0, len(table)))]
    if section == "scenario":
        base[key] = value
    else:
        base.setdefault(section, {})[key] = value
    return _dump(base), 4, f"{section}.{key}"


def cli_pool(seed: int, work: Path) -> list[dict]:
    n = POOL_SIZE["cli-mix"]
    rng = np.random.default_rng([seed, 3])
    # 6 of 40 inputs are invalid: every kind once, two of them twice, at
    # evenly spaced slots so any prefix of the job stream holds close to
    # their share
    kinds = [str(k) for k in rng.permutation(INVALID_KINDS)]
    kinds += kinds[:2]
    bad_slots = {int(round((k + 0.5) * n / len(kinds))): kind for k, kind in enumerate(kinds)}
    combos = [(c, f) for c in CLI_COMMANDS for f in ("csv", "json")]
    jobs = []
    for i in range(n):
        name = f"cli{i:02d}"
        command, fmt = combos[i % len(combos)]
        scenario = _cli_scenario(rng)
        job = {"name": name, "kind": "cli", "command": command, "format": fmt,
               "scenario": f"scn/{name}.json", "invalid": None,
               "expect_code": 0, "expect_path": None}
        if i in bad_slots:
            kind = str(bad_slots[i])
            text, code, path = _invalid(kind, rng, scenario)
            job.update(invalid=kind, expect_code=code, expect_path=path)
        else:
            text = _dump(scenario)
        if text is not None:
            _write(work / job["scenario"], text)
        job["argv"] = [command, "--scenario", job["scenario"], "--threads", "1",
                       "--format", fmt]
        jobs.append(job)
    return jobs


def defect_probes(seed: int, work: Path) -> list[dict]:
    """One job per known-defect input, run off the clock (see KNOWN_DEFECTS)."""
    rng = np.random.default_rng([seed, 5])
    probes = []
    for kind in KNOWN_DEFECTS:
        name = f"defect_{kind}"
        text, code, path = _invalid(kind, rng, _cli_scenario(rng))
        job = {"name": name, "kind": "cli", "command": "link", "format": "csv",
               "scenario": f"scn/{name}.json", "invalid": kind, "expect_code": code,
               "expect_path": path,
               "argv": ["link", "--scenario", f"scn/{name}.json", "--threads", "1"]}
        _write(work / job["scenario"], text)
        probes.append(job)
    return probes


def cli_warmup(work: Path) -> dict:
    scenario = _cli_scenario(np.random.default_rng(0))
    _write(work / "scn" / "warmup.json", _dump(scenario))
    return {"name": "warmup", "kind": "cli", "command": "spot", "format": "csv",
            "scenario": "scn/warmup.json", "invalid": None, "expect_code": 0,
            "expect_path": None,
            "argv": ["spot", "--scenario", "scn/warmup.json", "--threads", "1"]}


POOLS = {"map": (map_pool, map_warmup), "route": (route_pool, route_warmup),
         "cli-mix": (cli_pool, cli_warmup)}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's scenario files under `work`; return the job plan."""
    pool, warmup = POOLS[workload]
    plan = {"workload": workload, "seed": seed, "warmup": warmup(work),
            "jobs": pool(seed, work)}
    if workload == "cli-mix":
        plan["defect_probes"] = defect_probes(seed, work)
    _write(work / "plan.json", json.dumps(plan, indent=1) + "\n")
    return plan
