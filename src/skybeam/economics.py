"""Steady-state cost model: beamed-energy price, hourly cost, breakeven, farm counts."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgumentError

WATTS_PER_MW = 1e6


@dataclass(frozen=True)
class CostModel:
    """Price inputs, all in steady-state dollars (no discounting).

    rf_uplift left as None defaults to rf_added_cost / panel_cost.
    """

    solar_lcoe: float                # $/MWh busbar solar price
    panel_cost: float = 200.0        # $/m^2 installed panel
    rf_added_cost: float = 100.0     # $/m^2 extra for the emitting layer
    fuel_cost_per_hour: float = 1992.0   # $/h kerosene at reference burn
    rf_uplift: float | None = None   # fraction added to the LCOE

    def __post_init__(self):
        for name in ("solar_lcoe", "panel_cost", "rf_added_cost", "fuel_cost_per_hour"):
            if not getattr(self, name) >= 0.0:
                raise InvalidArgumentError(f"{name} must be non-negative")
        if self.rf_uplift is not None and not self.rf_uplift >= 0.0:
            raise InvalidArgumentError("rf_uplift must be non-negative")
        if self.rf_uplift is None and not self.panel_cost > 0.0:
            raise InvalidArgumentError("panel_cost must be positive to derive the uplift")

    @property
    def uplift(self) -> float:
        if self.rf_uplift is not None:
            return self.rf_uplift
        return self.rf_added_cost / self.panel_cost


def beamed_cost(model: CostModel) -> float:
    """Beamed-energy price [$ / MWh]: solar LCOE plus the emitting-layer uplift."""
    return model.solar_lcoe * (1.0 + model.uplift)


def beamed_cost_per_hour(cruise_power_w: float, end_to_end: float,
                         price_per_mwh: float) -> float:
    """Hourly energy bill [$ / h] to hold cruise power through the given chain."""
    if not 0.0 < end_to_end <= 1.0:
        raise InvalidArgumentError("end_to_end must be in (0, 1]")
    if not cruise_power_w >= 0.0 or not price_per_mwh >= 0.0:
        raise InvalidArgumentError("power and price must be non-negative")
    return cruise_power_w / WATTS_PER_MW / end_to_end * price_per_mwh


def breakeven_efficiency(cruise_power_w: float, price_per_mwh: float,
                         fuel_cost_per_hour: float) -> float:
    """End-to-end efficiency at which beamed energy matches the fuel bill."""
    if not fuel_cost_per_hour > 0.0:
        raise InvalidArgumentError("fuel_cost_per_hour must be positive")
    if not cruise_power_w >= 0.0 or not price_per_mwh >= 0.0:
        raise InvalidArgumentError("power and price must be non-negative")
    return cruise_power_w / WATTS_PER_MW * price_per_mwh / fuel_cost_per_hour


def fuel_price_per_kg(fuel_cost_per_hour: float, burn_kg_per_hour: float) -> float:
    """Implied fuel price [$ / kg], a sanity figure for reports."""
    if not burn_kg_per_hour > 0.0:
        raise InvalidArgumentError("burn_kg_per_hour must be positive")
    return fuel_cost_per_hour / burn_kg_per_hour


@dataclass(frozen=True)
class FarmNetworkEstimate:
    farm_count: float
    mean_spacing_km: float


def farm_network_estimate(territory_area_km2: float, coverage_fraction: float,
                          farm_area_km2: float) -> FarmNetworkEstimate:
    """How many farms a territory hosts and their mean spacing.

    count = territory * coverage / farm_area; spacing = sqrt(territory / count),
    the pitch of a uniform square grid holding that many sites.
    """
    if not territory_area_km2 > 0.0 or not farm_area_km2 > 0.0:
        raise InvalidArgumentError("areas must be positive")
    if not 0.0 <= coverage_fraction <= 1.0:
        raise InvalidArgumentError("coverage_fraction must be in [0, 1]")
    count = territory_area_km2 * coverage_fraction / farm_area_km2
    if count == 0.0:
        return FarmNetworkEstimate(0.0, math.inf)
    return FarmNetworkEstimate(count, math.sqrt(territory_area_km2 / count))
