"""Cost model arithmetic and its invariants."""

import math

import pytest

from skybeam import economics
from skybeam.errors import InvalidArgumentError


def test_beamed_cost_with_uplift():
    model = economics.CostModel(solar_lcoe=24.0, rf_uplift=0.5)
    assert economics.beamed_cost(model) == 36.0
    flat = economics.CostModel(solar_lcoe=24.0, rf_uplift=0.0)
    assert economics.beamed_cost(flat) == 24.0


def test_default_uplift_from_panel_costs():
    model = economics.CostModel(solar_lcoe=24.0, panel_cost=200.0, rf_added_cost=100.0)
    assert model.uplift == 0.5
    assert economics.beamed_cost(model) == 36.0


def test_beamed_cost_per_hour():
    cost = economics.beamed_cost_per_hour(11.354e6, 0.20, 36.0)
    assert cost == pytest.approx(11.354 / 0.20 * 36.0, rel=1e-12)
    assert cost == pytest.approx(2043.7, abs=0.05)
    assert economics.beamed_cost_per_hour(11.354e6, 1.0, 36.0) == \
        pytest.approx(11.354 * 36.0, rel=1e-12)
    assert economics.beamed_cost_per_hour(11.354e6, 0.20, 72.0) == \
        pytest.approx(2.0 * cost, rel=1e-12)
    with pytest.raises(InvalidArgumentError):
        economics.beamed_cost_per_hour(11.354e6, 0.0, 36.0)


def test_beamed_cost_per_hour_decreasing_in_efficiency():
    costs = [economics.beamed_cost_per_hour(11.354e6, e, 36.0)
             for e in (0.1, 0.2, 0.4, 0.8, 1.0)]
    assert all(a > b for a, b in zip(costs, costs[1:]))


def test_breakeven_efficiency():
    b = economics.breakeven_efficiency(11.354e6, 36.0, 1992.0)
    assert b == pytest.approx(11.354 * 36.0 / 1992.0, rel=1e-12)
    assert b == pytest.approx(0.2052, abs=5e-4)
    assert economics.breakeven_efficiency(11.354e6, 0.0, 1992.0) == 0.0
    assert economics.breakeven_efficiency(11.354e6, 36.0, 2 * 1992.0) == \
        pytest.approx(b / 2.0, rel=1e-12)


def test_breakeven_identity():
    # at breakeven, hourly energy cost equals the fuel bill
    p, price, fuel = 11.354e6, 36.0, 1992.0
    b = economics.breakeven_efficiency(p, price, fuel)
    assert b * fuel == pytest.approx(p / 1e6 * price, rel=1e-12)


def test_fuel_price_per_kg():
    assert economics.fuel_price_per_kg(1992.0, 2400.0) == pytest.approx(0.83, rel=1e-12)


def test_farm_network_estimate_continental():
    est = economics.farm_network_estimate(8.08e6, 0.001, 1.0)
    assert est.farm_count == pytest.approx(8080.0, rel=1e-12)
    assert est.mean_spacing_km == pytest.approx(math.sqrt(1000.0), rel=1e-12)
    assert est.mean_spacing_km == pytest.approx(31.6, abs=0.05)


def test_farm_network_estimate_trivia():
    assert economics.farm_network_estimate(8.08e6, 0.0, 1.0).farm_count == 0.0
    est = economics.farm_network_estimate(1e6, 0.001, 1.0)
    assert est.farm_count == pytest.approx(1000.0, rel=1e-12)
    assert est.mean_spacing_km == pytest.approx(math.sqrt(1000.0), rel=1e-12)


def test_farm_count_spacing_identity():
    for args in [(8.08e6, 0.001, 1.0), (2.5e6, 0.01, 4.0), (1e5, 0.3, 0.5)]:
        est = economics.farm_network_estimate(*args)
        assert est.farm_count * est.mean_spacing_km ** 2 == \
            pytest.approx(args[0], rel=1e-9)


def test_cost_model_validation():
    with pytest.raises(InvalidArgumentError):
        economics.CostModel(solar_lcoe=-1.0)
    with pytest.raises(InvalidArgumentError):
        economics.CostModel(solar_lcoe=24.0, rf_uplift=-0.1)
    with pytest.raises(InvalidArgumentError):
        economics.farm_network_estimate(-1.0, 0.5, 1.0)
    with pytest.raises(InvalidArgumentError):
        economics.farm_network_estimate(1.0, 1.5, 1.0)
