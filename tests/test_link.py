"""Efficiency chain, receiver panels, safety densities."""

import math

import numpy as np
import pytest

import skybeam as sb
from skybeam.errors import InvalidArgumentError, NoVisiblePanelError


def test_end_to_end_products():
    assert sb.EfficiencyChain(1.0, 1.0, 1.0, 1.0).end_to_end == 1.0
    assert sb.EfficiencyChain(0.5, 0.55, 0.86, 0.0).end_to_end == 0.0
    # one decomposition consistent with a 20 % overall budget
    chain = sb.EfficiencyChain(0.5, 0.55, 0.86, 0.85)
    assert chain.end_to_end == pytest.approx(0.201025, rel=1e-12)


def test_chain_stage_validation():
    with pytest.raises(InvalidArgumentError):
        sb.EfficiencyChain(1.1, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        sb.EfficiencyChain(0.5, -0.1, 1.0, 1.0)


def test_end_to_end_monotone_in_each_stage():
    rng = np.random.default_rng(3)
    for _ in range(30):
        stages = rng.uniform(0.05, 0.95, 4)
        base = sb.EfficiencyChain(*stages).end_to_end
        for i in range(4):
            bumped = stages.copy()
            bumped[i] = min(1.0, bumped[i] + 0.03)
            assert sb.EfficiencyChain(*bumped).end_to_end >= base


def test_delivered_power():
    exact = sb.EfficiencyChain(1.0, 1.0, 1.0, 0.2)
    assert sb.delivered_power(100e6, exact) == 20e6
    assert sb.delivered_power(0.0, exact) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        chain = sb.EfficiencyChain(*rng.uniform(0, 1, 4))
        p = rng.uniform(0, 1e9)
        assert sb.delivered_power(p, chain) <= p


# ---------------------------------------------------------------------------
# receiver panels
# ---------------------------------------------------------------------------

def test_beam_from_below_selects_underside():
    panels = sb.default_panels()
    attitude = sb.level_attitude([1.0, 0.0])
    panel, cosine = sb.best_panel(panels, [0.0, 0.0, 1.0], attitude)
    assert panel.label == "underside"
    assert cosine == pytest.approx(1.0, rel=1e-12)


def test_sixty_degrees_off_normal_cosine_half():
    panels = [sb.ReceiverPanel("underside", np.array([0.0, 0.0, -1.0]), 40.0, 0.85)]
    attitude = np.eye(3)
    s60 = math.sin(math.radians(60.0))
    beam = np.array([s60, 0.0, 0.5])
    _, cosine = sb.best_panel(panels, beam, attitude)
    assert cosine == pytest.approx(0.5, rel=1e-12)


def test_shallow_approach_selects_lower_front():
    # farm ahead of the aircraft, beam arriving nearly horizontally
    panels = sb.default_panels()
    attitude = sb.level_attitude([1.0, 0.0])
    elev = math.radians(5.0)
    beam = np.array([-math.cos(elev), 0.0, math.sin(elev)])
    panel, cosine = sb.best_panel(panels, beam, attitude)
    assert panel.label == "lower-front"
    assert cosine > 0.8


def test_departing_geometry_selects_lower_tail():
    panels = sb.default_panels()
    attitude = sb.level_attitude([1.0, 0.0])
    elev = math.radians(10.0)
    beam = np.array([math.cos(elev), 0.0, math.sin(elev)])
    panel, _ = sb.best_panel(panels, beam, attitude)
    assert panel.label == "lower-tail"


def test_shadowed_aircraft_raises():
    panels = sb.default_panels()
    attitude = sb.level_attitude([1.0, 0.0])
    with pytest.raises(NoVisiblePanelError):
        sb.best_panel(panels, [0.0, 0.0, -1.0], attitude)  # beam from above


def test_panel_choice_invariant_under_joint_rotation():
    rng = np.random.default_rng(11)
    panels = sb.default_panels()
    for _ in range(20):
        elev = rng.uniform(0.05, math.pi / 2)
        azim = rng.uniform(0, 2 * math.pi)
        beam = np.array([math.cos(elev) * math.cos(azim),
                         math.cos(elev) * math.sin(azim), math.sin(elev)])
        attitude = sb.level_attitude([1.0, 0.5])
        base_panel, base_cos = sb.best_panel(panels, beam, attitude)
        yaw = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        panel, cosine = sb.best_panel(panels, rot @ beam, rot @ attitude)
        assert panel.label == base_panel.label
        assert cosine == pytest.approx(base_cos, rel=1e-9)


def test_tie_breaks_by_label_order():
    n = 1.0 / math.sqrt(2.0)
    panels = [sb.ReceiverPanel("lower-tail", np.array([-n, 0.0, -n]), 10.0, 0.85),
              sb.ReceiverPanel("lower-front", np.array([n, 0.0, -n]), 10.0, 0.85)]
    attitude = np.eye(3)
    panel, _ = sb.best_panel(panels, [0.0, 0.0, 1.0], attitude)  # symmetric beam
    assert panel.label == "lower-front"


def test_panel_validation():
    with pytest.raises(InvalidArgumentError):
        sb.ReceiverPanel("underside", np.array([0.0, 0.0, -2.0]), 10.0, 0.85)
    with pytest.raises(InvalidArgumentError):
        sb.ReceiverPanel("underside", np.array([0.0, 0.0, -1.0]), -1.0, 0.85)
    with pytest.raises(InvalidArgumentError):
        sb.best_panel([], [0.0, 0.0, 1.0], np.eye(3))


# ---------------------------------------------------------------------------
# safety densities
# ---------------------------------------------------------------------------

def test_farm_surface_density():
    assert sb.farm_surface_density(100e6, 1e6) == 100.0
    assert sb.farm_surface_density(0.0, 1e6) == 0.0
    assert sb.farm_surface_density(50e6, 1e6) == 50.0
    with pytest.raises(InvalidArgumentError):
        sb.farm_surface_density(1.0, 0.0)


def test_reflected_ground_density_worst_case(rf10cm):
    # 100 MW reflecting from a 3.7 m spot at 10 km: the re-radiating patch
    # spreads to ~330 m and the density lands near 1.17 kW/m^2
    ground_d = 1.22 * 0.1 * 10_000.0 / 3.7
    expected = 100e6 / (math.pi * (ground_d / 2.0) ** 2)
    got = sb.reflected_ground_density(100e6, 3.7, rf10cm, 10_000.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1171.0, rel=5e-3)
    assert ground_d == pytest.approx(330.0, rel=2e-3)


def test_reflected_density_trivial_cases(rf10cm):
    assert sb.reflected_ground_density(0.0, 3.7, rf10cm, 10_000.0) == 0.0
    # range -> 0 clamps to the spot area itself
    spot_area = math.pi * (3.7 / 2.0) ** 2
    assert sb.reflected_ground_density(1e6, 3.7, rf10cm, 0.0) == \
        pytest.approx(1e6 / spot_area, rel=1e-12)


def test_collection_efficiency_monotone(rf10cm):
    layout = sb.make_planar_array(0.65, 0.05)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 150.0], 1.0)
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 150.0], 81, 80.0)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    small = sb.encircled_energy(fmap, [0.0, 0.0, 150.0], 20.0, 1.0)
    large = sb.encircled_energy(fmap, [0.0, 0.0, 150.0], 40.0, 1.0)
    assert small < large
