"""Desk-scale feasibility toolkit for solar-farm phased arrays powering aircraft."""

from .constants import JET_FUEL_SPECIFIC_ENERGY, SPEED_OF_LIGHT, STANDARD_GRAVITY
from .core import ArrayLayout, BeamCommand, RfSpec, make_planar_array
from .economics import (CostModel, FarmNetworkEstimate, beamed_cost,
                        beamed_cost_per_hour, breakeven_efficiency,
                        farm_network_estimate, fuel_price_per_kg)
from .errors import (DegenerateGeometryError, InvalidArgumentError,
                     NearFieldWarning, NoVisiblePanelError, ResolutionError,
                     ScenarioFileError, ScenarioParseError,
                     ScenarioValidationError, SkybeamError)
from .field import (FieldMap, GratingLobeReport, ObservationGrid, SpotReport,
                    airy_encircled_fraction, airy_peak_density,
                    encircled_energy, evaluate_field_fast,
                    first_null_spot_diameter, focus_command,
                    grating_lobe_margin, matched_element_spacing,
                    measure_first_null_radius, solve_focus_phases, spot_report)
from .link import (EfficiencyChain, ReceiverPanel, best_panel, default_panels,
                   delivered_power, farm_surface_density, level_attitude,
                   reflected_ground_density)
from .mission import (Aircraft, FarmAssignment, FarmNetwork, FlightPlan,
                      MissionTrace, Visibility, assign_farms, coverage_fraction,
                      cruise_power, farm_visibility, mission_summary,
                      simulate_mission)
from .scenario import Scenario, parse_scenario, scenario_from_dict

__version__ = "0.1.0"
