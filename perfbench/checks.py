"""Output checks, written from the documented formulas and file formats only.

None of this calls into skybeam: layouts, direct field sums, visibility and
the closed-form reports are recomputed here with numpy, so a defect in the
program's own reference paths cannot hide a defect in its outputs. Each check
returns None when the job's outputs are right and a one-line reason when not.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from workloads import route_positions, visible_pairs

LIGHT_SPEED = 299_792_458.0
GRAVITY = 9.80665
SPOT_FACTOR = 1.22
REFLECTED_REPORT_ONLY = "REPORTED (no configured limit; simple aperture re-radiation model)"
MAP_HEADER = "x_m,y_m,z_m,power_density_W_per_m2"
TRACE_HEADER = ("t_s,x_m,y_m,z_m,farm_id,slant_m,scan_deg,panel,cosine,"
                "delivered_W,fuel_rate_kg_s,fuel_kg")


class CheckFailed(Exception):
    pass


def _require(cond, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def _close(got, want, rel: float, what: str) -> None:
    _require(isinstance(got, (int, float)) and not isinstance(got, bool),
             f"{what}: not a number ({got!r})")
    _require(abs(got - want) <= rel * max(abs(want), 1e-300),
             f"{what}: got {got!r}, expected {want!r}")


def parse_report(text: str, fmt: str) -> dict:
    """Report key/value pairs; `csv` format is `key = value` lines after a title."""
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    _require(lines and lines[0].startswith("# "), "report title line missing")
    pairs = {}
    for line in lines[1:]:
        key, sep, value = line.partition(" = ")
        _require(sep, f"malformed report line {line!r}")
        try:
            pairs[key.strip()] = int(value) if value.lstrip("-").isdigit() else float(value)
        except ValueError:
            pairs[key.strip()] = value
    return pairs


def _report_rel(fmt: str) -> float:
    # csv reports print 10 significant digits; json keeps every digit
    return 1e-9 if fmt == "csv" else 1e-12


def compare_report(pairs: dict, expected: dict, fmt: str) -> None:
    _require(list(pairs) == list(expected) if fmt == "csv" else set(pairs) == set(expected),
             f"report keys {sorted(pairs)} != {sorted(expected)}")
    for key, want in expected.items():
        got = pairs[key]
        if isinstance(want, str):
            _require(got == want, f"{key}: got {got!r}, expected {want!r}")
        else:
            _close(got, want, _report_rel(fmt), key)


# ---------------------------------------------------------------------------
# map
# ---------------------------------------------------------------------------

def disk_layout(diameter: float, spacing: float, fill: float, seed: int) -> np.ndarray:
    """Active element positions: square grid cropped to the aperture disk
    (boundary inclusive), thinned by one uniform draw per element in row-major
    grid order when fill < 1."""
    half = diameter / (2.0 * spacing)
    m = int(math.floor(half * (1.0 + 1e-12)))
    idx = np.arange(-m, m + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    keep = (ii * ii + jj * jj) <= half * half * (1.0 + 1e-12)
    xy = np.column_stack([ii[keep] * spacing, jj[keep] * spacing])
    if fill < 1.0:
        xy = xy[np.random.default_rng(seed).random(len(xy)) < fill]
    return np.column_stack([xy, np.zeros(len(xy))])


def direct_density(elements: np.ndarray, wavelength: float, target, power: float,
                   points: np.ndarray) -> np.ndarray:
    """|sum of cos-pattern spherical waves|^2 from elements focused on target."""
    k = 2.0 * math.pi / wavelength
    phase = np.mod(-k * np.linalg.norm(elements - np.asarray(target), axis=1), 2.0 * math.pi)
    p_elem = power / len(elements)
    out = np.empty(len(points))
    for i, p in enumerate(points):
        d = p - elements
        r = np.sqrt((d * d).sum(axis=1))
        amp = np.sqrt(p_elem * 4.0 * np.clip(d[:, 2] / r, 0.0, None) / (4.0 * math.pi)) / r
        out[i] = abs((amp * np.exp(1j * (k * r + phase))).sum()) ** 2
    return out


def read_map_csv(path: Path) -> np.ndarray:
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    _require(header == MAP_HEADER, f"beam_map.csv header {header!r}")
    _require(body.endswith("\n") and "\r" not in body, "beam_map.csv line endings")
    values = np.fromstring(body[:-1].replace("\n", ","), sep=",")
    _require(values.size % 4 == 0, "beam_map.csv ragged rows")
    return values.reshape(-1, 4)


def check_map(job: dict, work: Path, rc: int, stdout: str, stderr: str,
              oracle_points: int, rng: np.random.Generator, stats: dict) -> None:
    _require(rc == 0, f"exit code {rc}: {stderr.strip()[-200:]}")
    scn = json.loads((work / job["scenario"]).read_text(encoding="utf-8"))
    fmt, n = job["format"], job["grid_n"]
    pairs = parse_report(stdout, fmt)
    rel = _report_rel(fmt)

    arr = scn["array"]
    elements = disk_layout(arr["aperture_diameter"], arr["spacing"],
                           arr["fill_fraction"], arr["seed"])
    _require(pairs.get("active_elements") == len(elements),
             f"active_elements {pairs.get('active_elements')} != {len(elements)}")
    _require(pairs.get("grid_n") == n, f"grid_n {pairs.get('grid_n')} != {n}")
    wavelength = scn["rf"]["wavelength"]
    target = np.asarray(scn["beam"]["target"], dtype=float)
    window = scn["output"]["map_window"]
    if window is None:
        realized = max(2.0 * float(np.hypot(elements[:, 0], elements[:, 1]).max()),
                       arr["spacing"])
        window = 6.0 * SPOT_FACTOR * wavelength * target[2] / realized
    _close(pairs.get("grid_window_m"), window, rel, "grid_window_m")
    out = work / job["out"]
    _require(pairs.get("map_files") == f"{job['out']}/beam_map.csv;{job['out']}/beam_map.bin",
             f"map_files {pairs.get('map_files')!r}")

    rows = read_map_csv(out / "beam_map.csv")
    _require(rows.shape[0] == n * n, f"{rows.shape[0]} map rows, expected {n * n}")
    offsets = (np.arange(n) - (n - 1) / 2.0) * (window / (n - 1))
    tol = 1e-9 * window
    _require(np.abs(rows[:, 0] - (target[0] + np.tile(offsets, n))).max() <= tol, "map x grid")
    _require(np.abs(rows[:, 1] - (target[1] + np.repeat(offsets, n))).max() <= tol, "map y grid")
    _require(np.all(rows[:, 2] == target[2]), "map z plane")

    raw = (out / "beam_map.bin").read_bytes()
    _require(len(raw) == 16 + 8 * n * n, f"beam_map.bin is {len(raw)} bytes")
    _require(struct.unpack("<qq", raw[:16]) == (n, n), "beam_map.bin header")
    binary = np.frombuffer(raw, dtype="<f8", offset=16)
    density = rows[:, 3]
    _require(np.array_equal(density.view(np.int64), binary.view(np.int64)),
             "csv densities differ from beam_map.bin")
    peak = float(density.max())
    _close(pairs.get("peak_density_W_per_m2"), peak, rel, "peak_density_W_per_m2")

    centre_row = density.reshape(n, n)[(n - 1) // 2, (n - 1) // 2:]
    null = next((i for i in range(1, len(centre_row) - 1)
                 if centre_row[i] < centre_row[i - 1] and centre_row[i] <= centre_row[i + 1]),
                None)
    _require(null is not None, "no first null along the centre row")
    _close(pairs.get("measured_first_null_radius_m"), null * (window / (n - 1)), rel,
           "measured_first_null_radius_m")

    picks = np.unique(np.concatenate([[(n // 2) * n + n // 2],
                                      rng.integers(0, n * n, oracle_points - 1)]))
    power = scn["beam"]["input_power"] * scn["chain"]["dc_to_rf"]
    want = direct_density(elements, wavelength, target, power, rows[picks, :3])
    err = float(np.abs(density[picks] - want).max() / max(peak, float(want.max())))
    stats["oracle_max_rel_err"] = max(stats.get("oracle_max_rel_err", 0.0), err)
    _require(err <= 1e-10, f"density off the direct sum by {err:.3g} of the peak")


# ---------------------------------------------------------------------------
# route
# ---------------------------------------------------------------------------

def read_trace_csv(path: Path) -> dict:
    text = path.read_text(encoding="utf-8")
    _require("\r" not in text and text.endswith("\n"), "mission_trace.csv line endings")
    lines = text[:-1].split("\n")
    _require(lines[0] == TRACE_HEADER, f"mission_trace.csv header {lines[0]!r}")
    cols = list(zip(*(line.split(",") for line in lines[1:])))
    _require(len(cols) == 12, "mission_trace.csv column count")
    names = TRACE_HEADER.split(",")
    trace = {name: np.array(col, dtype=float) for name, col in zip(names, cols)
             if name not in ("panel", "farm_id")}
    trace["farm_id"] = np.array(cols[4], dtype=int)
    return trace


def check_route(job: dict, work: Path, rc: int, stdout: str, stderr: str,
                stats: dict) -> None:
    _require(rc == 0, f"exit code {rc}: {stderr.strip()[-200:]}")
    scn = json.loads((work / job["scenario"]).read_text(encoding="utf-8"))
    out = work / job["out"]
    fmt, n_steps = job["format"], job["n_steps"]
    pairs = parse_report(stdout, fmt)
    summary = json.loads((out / "mission_summary.json").read_text(encoding="utf-8"))
    trace = read_trace_csv(out / "mission_trace.csv")

    _require(len(trace["t_s"]) == n_steps, f"{len(trace['t_s'])} trace rows, expected {n_steps}")
    plan, net, ac = scn["plan"], scn["network"], scn["aircraft"]
    wps = np.asarray(plan["waypoints"], dtype=float)
    length = float(np.linalg.norm(np.diff(wps, axis=0), axis=1).sum())
    duration = length / plan["speed"]
    dt = plan["timestep"]
    weights = np.minimum(dt, duration - np.arange(n_steps) * dt)
    _require(np.allclose(trace["t_s"], np.arange(n_steps) * dt + 0.5 * weights,
                         rtol=0.0, atol=1e-9 * duration), "trace step times")
    pos = np.column_stack([trace["x_m"], trace["y_m"], trace["z_m"]])
    _require(np.abs(pos - route_positions(wps, n_steps)).max() <= 1e-6 * length,
             "trace positions off the route")

    fuel = trace["fuel_kg"]
    burn = ac["fuel_burn_reference"]
    # a fully served step leaves required - delivered at +-1 ulp of the
    # power, a fuel rate of ~1e-16 kg/s either way; allow that, not more
    _require(np.diff(fuel).min(initial=0.0) >= -1e-12 * burn / 3600.0 * dt,
             "cumulative fuel decreases")
    _require(summary["total_fuel_kg"] == fuel[-1], "total_fuel_kg != last fuel_kg")
    _close(summary["fuel_only_baseline_kg"], burn * duration / 3600.0, 1e-12,
           "fuel_only_baseline_kg")
    _close(summary["duration_s"], duration, 1e-12, "duration_s")

    required = (ac["mass"] * GRAVITY * ac["cruise_speed"]
                / (ac["lift_to_drag"] * ac["propulsive_efficiency"]))
    served = trace["delivered_W"] >= 0.95 * required
    _close(summary["coverage_fraction"], float((weights * served).sum() / weights.sum()),
           1e-12, "coverage_fraction")

    sites = np.asarray(net["farms"], dtype=float)
    vis = visible_pairs(pos, sites, net["max_scan_deg"], net["max_slant_range"])
    caps = np.broadcast_to(np.asarray(net["input_cap"], dtype=float), (len(sites),))
    best = np.where(vis, caps[None, :], -1.0).argmax(axis=1)
    want_farm = np.where(vis.any(axis=1), best, -1)
    bad = np.flatnonzero(trace["farm_id"] != want_farm)
    _require(bad.size == 0, f"step {bad[:1]} served by farm {trace['farm_id'][bad[:1]]}, "
                            f"expected {want_farm[bad[:1]]} (visibility recomputed)")

    for key, want in (("coverage_fraction", summary["coverage_fraction"]),
                      ("total_fuel_kg", summary["total_fuel_kg"]),
                      ("fuel_only_baseline_kg", summary["fuel_only_baseline_kg"])):
        _close(pairs.get(key), want, _report_rel(fmt), key)
    _require(pairs.get("trace_csv") == f"{job['out']}/mission_trace.csv", "trace_csv path")
    _require(pairs.get("summary_json") == f"{job['out']}/mission_summary.json", "summary path")

    stats["pairs"] = stats.get("pairs", 0) + vis.size
    stats["visible"] = stats.get("visible", 0) + int(vis.sum())


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def bessel_j(order: int, x: float) -> float:
    """J_n(x) from Bessel's integral; the trapezoid rule on a full period of
    an analytic periodic integrand converges geometrically."""
    tau = np.arange(256) * (2.0 * math.pi / 256)
    return float(np.cos(order * tau - x * np.sin(tau)).mean())


def _encircled(x: float) -> float:
    return 1.0 - bessel_j(0, x) ** 2 - bessel_j(1, x) ** 2


def expected_report(command: str, scn: dict) -> dict:
    """Every pair of a spot/link/econ/safety report, from closed forms."""
    rf = scn["rf"]
    wavelength = rf["wavelength"] if "wavelength" in rf else LIGHT_SPEED / rf["frequency"]
    diameter = scn["array"]["aperture_diameter"]
    range_m = scn["beam"]["target"][2]
    p_in = scn["beam"]["input_power"]
    ch = scn["chain"]
    p_rad = p_in * ch["dc_to_rf"]
    e2e = ch["dc_to_rf"] * ch["beam_collection"] * ch["incidence_cosine"] * ch["rf_to_dc"]
    fn = SPOT_FACTOR * wavelength * range_m / diameter
    saf = scn["safety"]
    surface = p_in / saf["farm_area"]
    spot2 = 2.0 * fn
    ground = max(spot2, SPOT_FACTOR * wavelength * range_m / spot2)
    reflected = p_rad / (math.pi * (0.5 * ground) ** 2)
    limit = saf["reflected_density_limit"]
    surface_check = "PASS" if surface <= saf["surface_density_limit"] else "FAIL"
    reflected_check = (REFLECTED_REPORT_ONLY if limit is None
                       else "PASS" if reflected <= limit else "FAIL")
    if command == "spot":
        x = math.pi * diameter / (wavelength * range_m)
        return {
            "aperture_diameter_m": diameter, "wavelength_m": wavelength, "range_m": range_m,
            "radiated_power_W": p_rad, "first_null_spot_diameter_m": fn,
            "peak_density_W_per_m2": p_rad * math.pi * (0.5 * diameter) ** 2
            / (wavelength * range_m) ** 2,
            "encircled_fraction_first_null_disk": _encircled(x * fn),
            "encircled_fraction_disk_radius_2x_m": _encircled(x * 2.0 * fn),
            "encircled_fraction_disk_radius_3x_m": _encircled(x * 3.0 * fn),
        }
    if command == "link":
        return {
            "input_power_W": p_in, "stage_dc_to_rf": ch["dc_to_rf"],
            "stage_beam_collection": ch["beam_collection"],
            "stage_incidence_cosine": ch["incidence_cosine"], "stage_rf_to_dc": ch["rf_to_dc"],
            "end_to_end_efficiency": e2e, "radiated_power_W": p_rad,
            "delivered_power_W": p_in * e2e, "farm_surface_density_W_per_m2": surface,
            "surface_density_limit_W_per_m2": saf["surface_density_limit"],
            "surface_density_check": surface_check,
            "reflected_ground_density_W_per_m2": reflected,
            "reflected_density_check": reflected_check,
        }
    if command == "safety":
        return {
            "input_power_W": p_in, "farm_area_m2": saf["farm_area"],
            "farm_surface_density_W_per_m2": surface,
            "surface_density_limit_W_per_m2": saf["surface_density_limit"],
            "surface_density_check": surface_check, "worst_case_reflected_power_W": p_rad,
            "reflected_spot_diameter_m": spot2, "reflected_ground_density_W_per_m2": reflected,
            "reflected_density_check": reflected_check,
        }
    cost, ac, econ = scn["cost"], scn["aircraft"], scn["econ"]
    uplift = cost["rf_uplift"] if cost["rf_uplift"] is not None \
        else cost["rf_added_cost"] / cost["panel_cost"]
    price = cost["solar_lcoe"] * (1.0 + uplift)
    cruise = (ac["mass"] * GRAVITY * ac["cruise_speed"]
              / (ac["lift_to_drag"] * ac["propulsive_efficiency"]))
    report = {
        "solar_lcoe_usd_per_MWh": cost["solar_lcoe"], "rf_uplift_fraction": uplift,
        "beamed_cost_usd_per_MWh": price, "cruise_power_W": cruise,
        "end_to_end_efficiency": e2e,
        "beamed_cost_usd_per_hour": cruise / 1e6 / e2e * price,
        "fuel_cost_usd_per_hour": cost["fuel_cost_per_hour"],
        "breakeven_end_to_end_efficiency": cruise / 1e6 * price / cost["fuel_cost_per_hour"],
        "fuel_price_usd_per_kg": cost["fuel_cost_per_hour"] / ac["fuel_burn_reference"],
        "territory_area_km2": econ["territory_area_km2"],
        "farm_area_km2": econ["farm_area_km2"],
    }
    covs = econ["coverage_fraction"]
    covs = covs if isinstance(covs, list) else [covs]
    for cov in covs:
        tag = "" if len(covs) == 1 else f"_at_{cov:g}"
        count = econ["territory_area_km2"] * cov / econ["farm_area_km2"]
        report[f"territory_coverage_fraction{tag}"] = cov
        report[f"farm_count{tag}"] = count
        report[f"farm_mean_spacing_km{tag}"] = math.sqrt(econ["territory_area_km2"] / count)
    return report


def check_cli(job: dict, work: Path, rc: int, stdout: str, stderr: str) -> None:
    want = job["expect_code"]
    _require(rc == want, f"{job['invalid'] or 'valid'} input: exit code {rc}, expected {want}")
    if want != 0:
        _require(stdout == "", "report printed for a rejected input")
        _require(stderr.startswith("error: "), "no error line on stderr")
        if job["expect_path"]:
            _require(job["expect_path"] in stderr,
                     f"stderr does not name {job['expect_path']}: {stderr.strip()!r}")
        return
    scn = json.loads((work / job["scenario"]).read_text(encoding="utf-8"))
    compare_report(parse_report(stdout, job["format"]),
                   expected_report(job["command"], scn), job["format"])


def check_job(job: dict, work: Path, rc: int, stdout: str, stderr: str,
              rng: np.random.Generator, stats: dict) -> str | None:
    """None when the job's exit code and outputs are right, else the reason."""
    try:
        if job["kind"] == "map":
            check_map(job, work, rc, stdout, stderr, 4, rng, stats)
        elif job["kind"] == "route":
            check_route(job, work, rc, stdout, stderr, stats)
        else:
            check_cli(job, work, rc, stdout, stderr)
    except CheckFailed as exc:
        return str(exc)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
