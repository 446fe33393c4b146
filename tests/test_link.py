"""Efficiency chain, receiver panels, safety densities."""

import math

import numpy as np
import pytest

from skybeam import core, field, link, mission
from skybeam.errors import InvalidArgumentError, NoVisiblePanelError

from conftest import encircled_energy


def test_end_to_end_products():
    assert link.EfficiencyChain(1.0, 1.0, 1.0, 1.0).end_to_end == 1.0
    assert link.EfficiencyChain(0.5, 0.55, 0.86, 0.0).end_to_end == 0.0
    # one decomposition consistent with a 20 % overall budget
    chain = link.EfficiencyChain(0.5, 0.55, 0.86, 0.85)
    assert chain.end_to_end == pytest.approx(0.201025, rel=1e-12)


def test_chain_stage_validation():
    with pytest.raises(InvalidArgumentError):
        link.EfficiencyChain(1.1, 1.0, 1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        link.EfficiencyChain(0.5, -0.1, 1.0, 1.0)


def test_end_to_end_monotone_in_each_stage():
    rng = np.random.default_rng(3)
    for _ in range(30):
        stages = rng.uniform(0.05, 0.95, 4)
        base = link.EfficiencyChain(*stages).end_to_end
        for i in range(4):
            bumped = stages.copy()
            bumped[i] = min(1.0, bumped[i] + 0.03)
            assert link.EfficiencyChain(*bumped).end_to_end >= base


def test_delivered_power():
    exact = link.EfficiencyChain(1.0, 1.0, 1.0, 0.2)
    assert link.delivered_power(100e6, exact) == 20e6
    assert link.delivered_power(0.0, exact) == 0.0
    rng = np.random.default_rng(4)
    for _ in range(20):
        chain = link.EfficiencyChain(*rng.uniform(0, 1, 4))
        p = rng.uniform(0, 1e9)
        assert link.delivered_power(p, chain) <= p


# ---------------------------------------------------------------------------
# receiver panels
# ---------------------------------------------------------------------------

def test_beam_from_below_selects_underside():
    panels = link.default_panels()
    attitude = mission.level_attitude([1.0, 0.0])
    panel, cosine = mission.best_panel(mission.world_panels(panels, attitude), [0.0, 0.0, 1.0])
    assert panel.label == "underside"
    assert cosine == pytest.approx(1.0, rel=1e-12)


def test_sixty_degrees_off_normal_cosine_half():
    panels = [link.ReceiverPanel("underside", np.array([0.0, 0.0, -1.0]), 40.0, 0.85)]
    attitude = np.eye(3)
    s60 = math.sin(math.radians(60.0))
    beam = np.array([s60, 0.0, 0.5])
    _, cosine = mission.best_panel(mission.world_panels(panels, attitude), beam)
    assert cosine == pytest.approx(0.5, rel=1e-12)


def test_shallow_approach_selects_lower_front():
    # farm ahead of the aircraft, beam arriving nearly horizontally
    panels = link.default_panels()
    attitude = mission.level_attitude([1.0, 0.0])
    elev = math.radians(5.0)
    beam = np.array([-math.cos(elev), 0.0, math.sin(elev)])
    panel, cosine = mission.best_panel(mission.world_panels(panels, attitude), beam)
    assert panel.label == "lower-front"
    assert cosine > 0.8


def test_departing_geometry_selects_lower_tail():
    panels = link.default_panels()
    attitude = mission.level_attitude([1.0, 0.0])
    elev = math.radians(10.0)
    beam = np.array([math.cos(elev), 0.0, math.sin(elev)])
    panel, _ = mission.best_panel(mission.world_panels(panels, attitude), beam)
    assert panel.label == "lower-tail"


def test_shadowed_aircraft_raises():
    panels = link.default_panels()
    attitude = mission.level_attitude([1.0, 0.0])
    with pytest.raises(NoVisiblePanelError):
        # beam from above
        mission.best_panel(mission.world_panels(panels, attitude), [0.0, 0.0, -1.0])


def test_panel_choice_invariant_under_joint_rotation():
    rng = np.random.default_rng(11)
    panels = link.default_panels()
    for _ in range(20):
        elev = rng.uniform(0.05, math.pi / 2)
        azim = rng.uniform(0, 2 * math.pi)
        beam = np.array([math.cos(elev) * math.cos(azim),
                         math.cos(elev) * math.sin(azim), math.sin(elev)])
        attitude = mission.level_attitude([1.0, 0.5])
        base_panel, base_cos = mission.best_panel(mission.world_panels(panels, attitude), beam)
        yaw = rng.uniform(0, 2 * math.pi)
        c, s = math.cos(yaw), math.sin(yaw)
        rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        panel, cosine = mission.best_panel(mission.world_panels(panels, rot @ attitude), rot @ beam)
        assert panel.label == base_panel.label
        assert cosine == pytest.approx(base_cos, rel=1e-9)


_DIAG = 1.0 / math.sqrt(2.0)
# four normals 45 degrees off the vertical: a beam from straight below meets each
# at the same cosine, so only the tie-break separates them
_TIED_NORMALS = [[-_DIAG, 0.0, -_DIAG], [_DIAG, 0.0, -_DIAG],
                 [0.0, _DIAG, -_DIAG], [0.0, -_DIAG, -_DIAG]]


@pytest.mark.parametrize("labels, order", [
    (["lower-tail", "lower-front"], [1, 0]),
    (["wing", "lower-tail", "belly", "underside"], [3, 1, 0, 2]),
    (["underside", "underside"], [0, 1]),
    (["fin", "lower-front", "fin", "lower-front"], [1, 3, 0, 2]),
], ids=["known_labels", "unknown_labels_last_in_list_order", "repeated_label",
        "repeated_known_and_unknown"])
def test_tie_breaks_by_label_order(labels, order):
    # PANEL_LABELS order first, then other labels; list position breaks ties
    panels = [link.ReceiverPanel(label, np.array(normal), float(i + 1), 0.85)
              for i, (label, normal) in enumerate(zip(labels, _TIED_NORMALS))]
    facing = mission.world_panels(panels, np.eye(3))
    assert [p.area for p, _ in facing] == [float(i + 1) for i in order]
    assert all((n == -np.asarray(p.normal)).all() for p, n in facing)
    panel, cosine = mission.best_panel(facing, [0.0, 0.0, 1.0])
    assert panel is panels[order[0]]
    assert cosine == _DIAG


def test_panel_validation():
    with pytest.raises(InvalidArgumentError):
        link.ReceiverPanel("underside", np.array([0.0, 0.0, -2.0]), 10.0, 0.85)
    with pytest.raises(InvalidArgumentError):
        link.ReceiverPanel("underside", np.array([0.0, 0.0, -1.0]), -1.0, 0.85)
    with pytest.raises(InvalidArgumentError):
        mission.world_panels([], np.eye(3))
    with pytest.raises(InvalidArgumentError):
        mission.world_panels(link.default_panels(), np.eye(2))


# ---------------------------------------------------------------------------
# plain-Python lengths against numpy, the reference they replace
# ---------------------------------------------------------------------------

def _neighbours(value: float, count: int = 3) -> list[float]:
    """value and its `count` nearest floats on each side."""
    out, lo, hi = [value], value, value
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _blas_norm(v) -> float:
    """The 1-D norm the validators used to take: numpy's, through BLAS ddot."""
    return float(np.linalg.norm(np.asarray(v, dtype=float)))


# the panel-normal floor, the heading bound and the ends of the unit-normal band
BOUNDS = [1e-9, 1e-12, 1.0 - 1e-9, 1.0 + 1e-9]


@pytest.mark.parametrize("bound", BOUNDS)
def test_plain_length_decides_as_numpy_on_an_axis(bound):
    # along an axis both lengths are sqrt(x * x), so every decision agrees
    for value in _neighbours(bound):
        for axis in range(3):
            v = [0.0, 0.0, 0.0]
            v[axis] = -value if axis == 2 else value
            assert (link.vector_length(*v) < bound) == (_blas_norm(v) < bound)
            assert link.vector_length(*v) == _blas_norm(v)


@pytest.mark.parametrize("bound", BOUNDS)
def test_plain_length_leaves_numpy_only_within_two_ulps(bound):
    # Off an axis, BLAS may fuse the multiply-adds and plain Python cannot, so
    # the two lengths may differ in the last bits. Known disagreement: a
    # decision at a bound can differ when the length lies within 2 ulp of it.
    rng = np.random.default_rng(19)
    for _ in range(3000):
        u = rng.normal(size=3)
        v = (u / np.linalg.norm(u) * bound * (1.0 + rng.uniform(-4e-16, 4e-16))).tolist()
        plain, blas = link.vector_length(*v), _blas_norm(v)
        assert abs(plain - blas) <= 2 * math.ulp(blas)
        if (plain < bound) != (blas < bound):
            assert abs(blas - bound) <= 2 * math.ulp(bound)


@pytest.mark.parametrize("scale", [5e-324, 1e-170, 1e-162, 1.5e-162, 1e-161, 1e-160, 1e-154])
def test_plain_zero_length_is_numpys(scale):
    # a length is 0 exactly when every square underflows to 0, in either sum
    for v in ([scale, 0.0, 0.0], [0.0, scale, 0.0], [scale, scale, scale],
              [scale, -scale, 0.0]):
        assert (link.vector_length(*v) <= 0.0) == (_blas_norm(v) <= 0.0)
        assert (link.vector_length(*v) <= 0.0) == (np.linalg.norm([v], axis=1)[0] <= 0.0)


@pytest.mark.parametrize("value", _neighbours(1e-12) + [5e-324, 0.0])
def test_heading_bound_decides_as_numpy(value):
    refused = not _blas_norm([value, 0.0, 0.0]) >= 1e-12
    for heading in ([value, 0.0], [0.0, -value]):
        try:
            link.check_heading(*heading)
        except InvalidArgumentError:
            assert refused
        else:
            assert not refused


@pytest.mark.parametrize("heading", [[math.inf, 0.0], [0.0, -math.inf], [math.nan, 1.0],
                                     [1e200, 0.0]])
def test_heading_must_be_finite(heading):
    with pytest.raises(InvalidArgumentError):
        link.check_heading(*heading)


@pytest.mark.parametrize("length", _neighbours(1.0 - 1e-9) + _neighbours(1.0 + 1e-9))
def test_unit_normal_band_decides_as_numpy(length):
    normal = [0.0, 0.0, -length]
    accepted = abs(_blas_norm(normal) - 1.0) <= 1e-9
    try:
        link.ReceiverPanel("underside", normal, 1.0, 0.85)
    except InvalidArgumentError:
        assert not accepted
    else:
        assert accepted


# ---------------------------------------------------------------------------
# safety densities
# ---------------------------------------------------------------------------

def test_farm_surface_density():
    assert link.farm_surface_density(100e6, 1e6) == 100.0
    assert link.farm_surface_density(0.0, 1e6) == 0.0
    assert link.farm_surface_density(50e6, 1e6) == 50.0
    with pytest.raises(InvalidArgumentError):
        link.farm_surface_density(1.0, 0.0)


def test_reflected_ground_density_worst_case(rf10cm):
    # 100 MW reflecting from a 3.7 m spot at 10 km: the re-radiating patch
    # spreads to ~330 m and the density lands near 1.17 kW/m^2
    ground_d = 1.22 * 0.1 * 10_000.0 / 3.7
    expected = 100e6 / (math.pi * (ground_d / 2.0) ** 2)
    got = link.reflected_ground_density(100e6, 3.7, rf10cm, 10_000.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(1171.0, rel=5e-3)
    assert ground_d == pytest.approx(330.0, rel=2e-3)


def test_reflected_density_trivial_cases(rf10cm):
    assert link.reflected_ground_density(0.0, 3.7, rf10cm, 10_000.0) == 0.0
    # range -> 0 clamps to the spot area itself
    spot_area = math.pi * (3.7 / 2.0) ** 2
    assert link.reflected_ground_density(1e6, 3.7, rf10cm, 0.0) == \
        pytest.approx(1e6 / spot_area, rel=1e-12)


def test_collection_efficiency_monotone(rf10cm):
    layout = core.make_planar_array(0.65, 0.05)
    cmd = field.focus_command(layout, rf10cm, [0.0, 0.0, 150.0], 1.0)
    grid = field.ObservationGrid.horizontal([0.0, 0.0, 150.0], 81, 80.0)
    fmap = field.evaluate_field_fast(layout, rf10cm, cmd, grid)
    small = encircled_energy(fmap, [0.0, 0.0, 150.0], 20.0, 1.0)
    large = encircled_energy(fmap, [0.0, 0.0, 150.0], 40.0, 1.0)
    assert small < large
