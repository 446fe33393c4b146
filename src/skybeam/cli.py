"""Command-line front end: scenario in, deterministic reports and grids out.

Subcommands: spot, beam-map, link, coverage, econ, safety. Exit codes:
0 ok, otherwise the `exit_code` of the error raised (errors.py): 1 runtime
error, 2 missing scenario file, 3 parse error, 4 validation error; argparse
exits 2 on a bad command line. Identical scenario and seed give
byte-identical outputs; --threads changes speed only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import economics as econ
from . import lazy_attributes
from . import link as link_mod
from .errors import ScenarioValidationError, SkybeamError
from .link import cruise_power, first_null_spot_diameter, spot_report
from .scenario import (MAX_MAP_ELEMENTS, Scenario, map_grid_n, parse_scenario,
                       thread_count)

# The engines of beam-map and coverage load numpy, so they are resolved on use,
# as attributes of skybeam.cli (`_engine.name`), which a tracer may rebind; under
# `python -m` this code runs as __main__, a second copy of the module.
__getattr__ = lazy_attributes(__name__, {
    "ObservationGrid": "field", "evaluate_field_fast": "field", "focus_command": "field",
    "measure_first_null_radius": "field", "mission_summary": "mission",
    "simulate_mission": "mission"})
from . import cli as _engine  # noqa: E402  (this module, as imported)


def _json(data: dict) -> str:
    """Report JSON; a NaN or infinity raises ValueError instead of writing the
    non-JSON tokens NaN and Infinity."""
    return json.dumps(data, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _emit(pairs: list[tuple[str, object]], as_json: bool, title: str) -> str:
    if as_json:
        return _json({k: v for k, v in pairs})
    width = max(len(k) for k, _ in pairs)
    lines = [f"# {title}"]
    lines += [f"{k.ljust(width)} = {format(v, '.10g') if isinstance(v, float) else v}"
              for k, v in pairs]
    return "\n".join(lines) + "\n"


def _radiated_power(scn: Scenario) -> float:
    """The scenario's radiated power, refused unless positive (a zero stage
    gives none)."""
    power = scn.radiated_power()
    if not power > 0.0:
        raise ScenarioValidationError(
            "chain.dc_to_rf", f"gives a radiated power of {power:.3g} W "
            "(beam.input_power x chain.dc_to_rf); it must be positive")
    return power


def cmd_spot(scn: Scenario, args) -> str:
    range_m, power = float(scn.beam.target[2]), _radiated_power(scn)
    report = spot_report(scn.array.aperture_diameter, scn.rf, range_m, power)
    fn = report.first_null_diameter
    pairs = [
        ("aperture_diameter_m", scn.array.aperture_diameter),
        ("wavelength_m", scn.rf.wavelength),
        ("range_m", report.range_m),
        ("radiated_power_W", report.radiated_power),
        ("first_null_spot_diameter_m", fn),
        ("peak_density_W_per_m2", report.peak_density),
        ("encircled_fraction_first_null_disk", report.encircled_fraction_first_null),
        ("encircled_fraction_disk_radius_2x_m", report.encircled_fraction_at(4.0 * fn)),
        ("encircled_fraction_disk_radius_3x_m", report.encircled_fraction_at(6.0 * fn)),
    ]
    return _emit(pairs, args.format == "json", "focal spot (uniform circular aperture theory)")


def cmd_beam_map(scn: Scenario, args) -> str:
    if scn.estimated_element_count() > MAX_MAP_ELEMENTS:
        raise ScenarioValidationError(
            "array.aperture_diameter",
            f"gives ~{scn.estimated_element_count():.3g} elements at a spacing of "
            f"{scn.array.spacing:.3g} m, above the map limit of {MAX_MAP_ELEMENTS:.3g}; "
            "use a scaled scenario such as spot_scaled")
    power = _radiated_power(scn)
    grid_n = scn.output.grid_n if args.grid_n is None else map_grid_n(args.grid_n, "--grid-n")
    layout = scn.build_layout()
    command = _engine.focus_command(layout, scn.rf, scn.beam.target, power)
    window = scn.output.map_window
    if window is None:
        spot = first_null_spot_diameter(layout.aperture_diameter, scn.rf,
                                        float(scn.beam.target[2]))
        window = 6.0 * spot
    grid = _engine.ObservationGrid.horizontal(scn.beam.target, grid_n, window)
    fmap = _engine.evaluate_field_fast(layout, scn.rf, command, grid, threads=args.threads)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "beam_map.csv"
    fmap.to_csv(csv_path)
    written = [str(csv_path)]
    if args.binary:
        bin_path = out_dir / "beam_map.bin"
        fmap.to_binary(bin_path)
        written.append(str(bin_path))

    pairs = [
        ("active_elements", layout.n_active),
        ("grid_n", grid_n),
        ("grid_window_m", window),
        ("peak_density_W_per_m2", fmap.peak_density),
        ("measured_first_null_radius_m", _engine.measure_first_null_radius(fmap)),
        ("map_files", ";".join(written)),
    ]
    return _emit(pairs, args.format == "json", "beam map")


def _safety_lines(scn: Scenario) -> tuple[list, float, list]:
    """Report lines of the surface-density check, the reflected spot diameter
    and report lines of the reflected-density check."""
    surface = link_mod.farm_surface_density(scn.beam.input_power, scn.safety.farm_area)
    range_m = float(scn.beam.target[2])
    spot = 2.0 * first_null_spot_diameter(scn.array.aperture_diameter, scn.rf, range_m)
    reflected = link_mod.reflected_ground_density(scn.radiated_power(), spot, scn.rf,
                                                  range_m)
    limit = scn.safety.reflected_density_limit
    return [
        ("farm_surface_density_W_per_m2", surface),
        ("surface_density_limit_W_per_m2", scn.safety.surface_density_limit),
        ("surface_density_check",
         "PASS" if surface <= scn.safety.surface_density_limit else "FAIL"),
    ], spot, [
        ("reflected_ground_density_W_per_m2", reflected),
        ("reflected_density_check",
         "REPORTED (no configured limit; simple aperture re-radiation model)"
         if limit is None else "PASS" if reflected <= limit else "FAIL"),
    ]


def cmd_link(scn: Scenario, args) -> str:
    chain = scn.chain
    delivered = link_mod.delivered_power(scn.beam.input_power, chain)
    surface, _, reflected = _safety_lines(scn)
    pairs = [
        ("input_power_W", scn.beam.input_power),
        ("stage_dc_to_rf", chain.dc_to_rf),
        ("stage_beam_collection", chain.beam_collection),
        ("stage_incidence_cosine", chain.incidence_cosine),
        ("stage_rf_to_dc", chain.rf_to_dc),
        ("end_to_end_efficiency", chain.end_to_end),
        ("radiated_power_W", scn.radiated_power()),
        ("delivered_power_W", delivered),
        *surface, *reflected,
    ]
    return _emit(pairs, args.format == "json", "link budget")


# report names of the mission_summary keys that differ from their JSON names
_REPORT_NAMES = {"reference_cruise_power_w": "reference_cruise_power_W"}


def cmd_coverage(scn: Scenario, args) -> str:
    trace = _engine.simulate_mission(scn.plan, scn.aircraft, scn.network, scn.chain)
    summary = _engine.mission_summary(trace)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "mission_trace.csv"
    trace.to_csv(csv_path)
    json_path = out_dir / "mission_summary.json"
    json_path.write_text(_json(summary), encoding="utf-8")

    pairs = [(_REPORT_NAMES.get(k, k), v) for k, v in summary.items()]
    pairs += [("trace_csv", str(csv_path)), ("summary_json", str(json_path))]
    return _emit(pairs, args.format == "json", "mission coverage")


def cmd_econ(scn: Scenario, args) -> str:
    end_to_end = scn.chain.end_to_end
    if not end_to_end > 0.0:
        # blame the first zero stage
        stage = next(name for name in scn.chain.STAGES if getattr(scn.chain, name) == 0.0)
        raise ScenarioValidationError(
            f"chain.{stage}", f"gives an end-to-end efficiency of {end_to_end:.3g}; "
            "the cost of beamed power needs a positive one")
    price = econ.beamed_cost(scn.cost)
    p_cruise = cruise_power(scn.aircraft)
    pairs = [
        ("solar_lcoe_usd_per_MWh", scn.cost.solar_lcoe),
        ("rf_uplift_fraction", scn.cost.uplift),
        ("beamed_cost_usd_per_MWh", price),
        ("cruise_power_W", p_cruise),
        ("end_to_end_efficiency", end_to_end),
        ("beamed_cost_usd_per_hour", econ.beamed_cost_per_hour(p_cruise, end_to_end, price)),
        ("fuel_cost_usd_per_hour", scn.cost.fuel_cost_per_hour),
        ("breakeven_end_to_end_efficiency",
         econ.breakeven_efficiency(p_cruise, price, scn.cost.fuel_cost_per_hour)),
        ("fuel_price_usd_per_kg",
         econ.fuel_price_per_kg(scn.cost.fuel_cost_per_hour,
                                scn.aircraft.fuel_burn_reference)),
        ("territory_area_km2", scn.econ.territory_area_km2),
        ("farm_area_km2", scn.econ.farm_area_km2),
    ]
    # one farm-count row per configured coverage fraction
    covs = scn.econ.coverage_fraction
    tags = [f"_at_{cov:g}" for cov in covs] if len(covs) > 1 else [""]
    first = {}     # row label -> index of the entry that first gave it
    for idx, (cov, tag) in enumerate(zip(covs, tags)):
        if first.setdefault(tag, idx) != idx:
            raise ScenarioValidationError(
                f"econ.coverage_fraction[{idx}]", f"has the row label {tag} of "
                f"econ.coverage_fraction[{first[tag]}]; entries must differ in "
                "their first 6 significant digits")
        estimate = econ.farm_network_estimate(scn.econ.territory_area_km2, cov,
                                              scn.econ.farm_area_km2)
        # a zero count has an infinite spacing
        if not math.isfinite(estimate.mean_spacing_km):
            raise ScenarioValidationError(
                f"econ.coverage_fraction[{idx}]",
                f"gives {estimate.farm_count:.3g} farms with a mean spacing of "
                f"{estimate.mean_spacing_km:.3g} km; the count must be positive "
                "and the spacing finite")
        pairs += [
            (f"territory_coverage_fraction{tag}", cov),
            (f"farm_count{tag}", estimate.farm_count),
            (f"farm_mean_spacing_km{tag}", estimate.mean_spacing_km),
        ]
    return _emit(pairs, args.format == "json", "economics")


def cmd_safety(scn: Scenario, args) -> str:
    surface, spot, reflected = _safety_lines(scn)
    pairs = [
        ("input_power_W", scn.beam.input_power),
        ("farm_area_m2", scn.safety.farm_area),
        *surface,
        ("worst_case_reflected_power_W", scn.radiated_power()),
        ("reflected_spot_diameter_m", spot),
        *reflected,
    ]
    return _emit(pairs, args.format == "json", "safety densities")


_COMMANDS = {
    "spot": cmd_spot,
    "beam-map": cmd_beam_map,
    "link": cmd_link,
    "coverage": cmd_coverage,
    "econ": cmd_econ,
    "safety": cmd_safety,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skybeam",
        description="Solar-farm phased-array power-beaming feasibility tool")
    parser.add_argument("command", choices=_COMMANDS, help="report to produce")
    parser.add_argument("--scenario", default="a320_baseline",
                        help="scenario JSON path or bundled scenario name")
    parser.add_argument("--out", default=".", help="output directory for files")
    parser.add_argument("--grid-n", type=int, default=None,
                        help="override map sample count per axis")
    parser.add_argument("--threads", type=int, default=1,
                        help="field-evaluation worker threads (speed only)")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="report format: csv = aligned text, json = JSON")
    parser.add_argument("--binary", action="store_true",
                        help="also write the raw binary grid dump (beam-map)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        thread_count(args.threads, "--threads")
        scn = parse_scenario(args.scenario)
        text = _COMMANDS[args.command](scn, args)
    except SkybeamError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
