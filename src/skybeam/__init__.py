"""Desk-scale feasibility toolkit for solar-farm phased arrays powering aircraft.

Every name below is resolved on use (PEP 562): `import skybeam` loads no
submodule, and numpy loads only with the array engines (core, field, mission).
"""

import importlib

__version__ = "0.1.0"


def lazy_attributes(module: str, sources: dict[str, str]):
    """A PEP 562 __getattr__ for `module` that looks each name of `sources` up,
    on every access, in the skybeam submodule it maps to. `module` calls such
    a name as an attribute of itself, so a value set on it comes first."""
    def __getattr__(name: str):
        if name not in sources:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(importlib.import_module(f"{__name__}.{sources[name]}"), name)
    return __getattr__


_EXPORTS = {
    "constants": "JET_FUEL_SPECIFIC_ENERGY SPEED_OF_LIGHT STANDARD_GRAVITY",
    "core": "ArrayLayout BeamCommand make_planar_array",
    "economics": "CostModel FarmNetworkEstimate beamed_cost beamed_cost_per_hour "
                 "breakeven_efficiency farm_network_estimate fuel_price_per_kg",
    "errors": "DegenerateGeometryError InvalidArgumentError NearFieldWarning "
              "NoVisiblePanelError ResolutionError ScenarioFileError ScenarioParseError "
              "ScenarioValidationError SkybeamError",
    "field": "FieldMap GratingLobeReport ObservationGrid encircled_energy evaluate_field_fast "
             "focus_command grating_lobe_margin matched_element_spacing "
             "measure_first_null_radius solve_focus_phases",
    "link": "Aircraft EfficiencyChain FarmNetwork FlightPlan ReceiverPanel RfSpec SpotReport "
            "airy_encircled_fraction airy_peak_density cruise_power default_panels "
            "delivered_power farm_surface_density first_null_spot_diameter "
            "reflected_ground_density spot_report",
    "mission": "FarmAssignment MissionTrace Visibility assign_farms best_panel "
               "coverage_fraction farm_visibility level_attitude mission_summary "
               "simulate_mission world_panels",
    "scenario": "Scenario parse_scenario scenario_from_dict",
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_SOURCES)
__getattr__ = lazy_attributes(__name__, _SOURCES)
