"""Field engine: phase solving, field physics, oracle equivalence, spot metrics."""

import math
import struct

import numpy as np
import pytest

import skybeam as sb
from skybeam import field
from skybeam.errors import (DegenerateGeometryError, InvalidArgumentError,
                            NearFieldWarning, ResolutionError)

from conftest import airy_encircled_quad, evaluate_field_oracle, square_grid_layout

TWO_PI = 2.0 * math.pi


def _two_element_layout(spacing=0.5):
    pos = np.array([[-spacing / 2, 0.0, 0.0], [spacing / 2, 0.0, 0.0]])
    return sb.ArrayLayout(pos, spacing, spacing)


def _single_element_layout():
    return sb.ArrayLayout(np.zeros((1, 3)), 1.0, 1.0)


def _fast_density_at(layout, rf, cmd, point):
    """evaluate_field_fast's density at one point: the center of a 3 x 3 map."""
    grid = sb.ObservationGrid.horizontal(point, 3, 0.02)
    return sb.evaluate_field_fast(layout, rf, cmd, grid).power_density[1, 1]


# ---------------------------------------------------------------------------
# phase solving
# ---------------------------------------------------------------------------

def test_equidistant_elements_get_equal_phases(rf10cm):
    layout = _two_element_layout()
    phases = sb.solve_focus_phases(layout, rf10cm, [0.0, 0.0, 300.0])
    assert phases[0] == pytest.approx(phases[1], abs=1e-9)


def test_integer_wavelength_distance_gives_zero_phase(rf10cm):
    layout = _single_element_layout()
    phases = sb.solve_focus_phases(layout, rf10cm, [0.0, 0.0, 10_000.0])
    # 10 km is an integer number of 0.1 m wavelengths
    assert min(phases[0], TWO_PI - phases[0]) < 1e-6


def test_focus_target_on_element_raises(rf10cm):
    layout = _single_element_layout()
    with pytest.raises(DegenerateGeometryError):
        sb.solve_focus_phases(layout, rf10cm, [0.0, 0.0, 0.0])


def test_solved_phases_beat_1000_random_assignments(rf10cm):
    # Monte-Carlo optimality: coherent focus is the maximum of |sum a_i e^{j phi}|
    rng = np.random.default_rng(7)
    pos = np.column_stack([rng.uniform(-2, 2, 16), rng.uniform(-2, 2, 16),
                           np.zeros(16)])
    layout = sb.ArrayLayout(pos, 0.5, 8.0)
    target = np.array([40.0, -25.0, 900.0])
    cmd = sb.focus_command(layout, rf10cm, target, 1.0)
    _, focused = evaluate_field_oracle(layout, rf10cm, cmd, target[None, :])
    for _ in range(1000):
        random_cmd = sb.BeamCommand(target, 1.0, rng.uniform(0, TWO_PI, 16))
        _, trial = evaluate_field_oracle(layout, rf10cm, random_cmd, target[None, :])
        assert trial[0] < focused[0]


# ---------------------------------------------------------------------------
# field physics
# ---------------------------------------------------------------------------

def test_single_element_inverse_square(rf10cm):
    # on boresight the cosine gain is 4 at every range
    layout = _single_element_layout()
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 1.0]), 5.0, np.zeros(1))
    for r in (1.0, 10.0, 250.0):
        dens = _fast_density_at(layout, rf10cm, cmd, [0.0, 0.0, r])
        assert dens == pytest.approx(4.0 * 5.0 / (4 * math.pi * r * r), rel=1e-12)


def test_cosine_element_peak_gain_is_four(rf10cm):
    layout = _single_element_layout()
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 1.0]), 5.0, np.zeros(1))
    dens = _fast_density_at(layout, rf10cm, cmd, [0.0, 0.0, 100.0])
    assert dens == pytest.approx(4.0 * 5.0 / (4 * math.pi * 1e4), rel=1e-12)
    # below the farm plane the cosine element radiates nothing
    assert _fast_density_at(layout, rf10cm, cmd, [0.0, 0.0, -100.0]) == 0.0


def test_two_inphase_elements_coherent_gain(rf10cm):
    layout = _two_element_layout(spacing=0.5)
    # equidistant point on the symmetry axis
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 50.0]), 2.0, np.zeros(2))
    dens2 = _fast_density_at(layout, rf10cm, cmd, [0.0, 0.0, 50.0])
    single = _single_element_layout()
    single_cmd = sb.BeamCommand(np.array([0.0, 0.0, 50.0]), 1.0, np.zeros(1))
    # same range and angle from the element
    dens1 = _fast_density_at(single, rf10cm, single_cmd, [0.25, 0.0, 50.0])
    assert dens2 == pytest.approx(4.0 * dens1, rel=1e-6)


def test_point_on_element_raises(rf10cm):
    layout = _single_element_layout()
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 1.0]), 1.0, np.zeros(1))
    with pytest.raises(DegenerateGeometryError):
        _fast_density_at(layout, rf10cm, cmd, [0.0, 0.0, 0.0])


def test_near_singular_warning(rf10cm):
    layout = _two_element_layout(spacing=0.5)
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 1.0]), 1.0, np.zeros(2))
    with pytest.warns(NearFieldWarning):
        _fast_density_at(layout, rf10cm, cmd, [0.3, 0.0, 0.05])


def test_phase_count_mismatch(rf10cm):
    layout = _two_element_layout()
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 1.0]), 1.0, np.zeros(3))
    with pytest.raises(InvalidArgumentError):
        _fast_density_at(layout, rf10cm, cmd, [0.0, 0.0, 5.0])


# ---------------------------------------------------------------------------
# fast path
# ---------------------------------------------------------------------------

def test_fast_matches_oracle_small(rf10cm):
    layout = square_grid_layout(16, 0.05)
    target = np.array([5.0, -3.0, 400.0])
    cmd = sb.focus_command(layout, rf10cm, target, 2.5)
    grid = sb.ObservationGrid.horizontal(target, 41, 30.0)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    field, dens = evaluate_field_oracle(layout, rf10cm, cmd, grid.points())
    peak = np.abs(field).max()
    assert np.abs(fmap.complex_field.ravel() - field).max() / peak < 1e-12
    assert np.abs(fmap.power_density.ravel() - dens).max() / dens.max() < 1e-12


def test_fast_bit_stable_across_threads(rf10cm):
    layout = sb.make_planar_array(1.0, 0.05, fill_fraction=0.9, seed=2)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 200.0], 1.0)
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 200.0], 33, 10.0)
    maps = [sb.evaluate_field_fast(layout, rf10cm, cmd, grid, threads=t)
            for t in (1, 2, 8)]
    for other in maps[1:]:
        assert np.array_equal(maps[0].complex_field, other.complex_field)
        assert np.array_equal(maps[0].power_density, other.power_density)


@pytest.mark.parametrize("diameter, n", [(0.65, 41), (3.0, 41), (7.5, 5)])
def test_field_blocks_hold_a_bounded_number_of_element_points(rf10cm, monkeypatch,
                                                              diameter, n):
    layout = sb.make_planar_array(diameter, 0.05)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 150.0], 1.0)
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 150.0], n, 20.0)
    blocks = []
    real_block = field._field_block

    def spy(pts, ex, *rest):
        blocks.append(pts.shape[0])
        return real_block(pts, ex, *rest)

    monkeypatch.setattr(field, "_field_block", spy)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    rows = field._block_points(layout.n_active)
    assert rows * layout.n_active <= field._BLOCK_ELEMENT_POINTS or rows == 1
    assert blocks[:-1] == [rows] * (len(blocks) - 1) and sum(blocks) == n * n
    # the block height changes nothing: 256-point blocks give the same bits
    monkeypatch.setattr(field, "_block_points", lambda n_active: 256)
    wide = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    assert np.array_equal(fmap.complex_field, wide.complex_field)


def test_empty_layout_gives_zero_field(rf10cm):
    layout = sb.ArrayLayout(np.zeros((0, 3)), 0.05, 0.1)
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 100.0]), 1.0, np.zeros(0))
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 100.0], 11, 5.0)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    assert np.all(fmap.power_density == 0.0)
    assert np.all(fmap.complex_field == 0.0)


def test_boresight_map_has_layout_symmetry(rf10cm):
    # symmetric layout focused straight up: the map must share the mirror
    # symmetries of the element grid
    layout = sb.make_planar_array(0.65, 0.05)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 150.0], 1.0)
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 150.0], 41, 60.0)
    dens = sb.evaluate_field_fast(layout, rf10cm, cmd, grid).power_density
    peak = dens.max()
    assert np.abs(dens - dens[::-1, :]).max() / peak < 1e-9
    assert np.abs(dens - dens[:, ::-1]).max() / peak < 1e-9
    assert np.abs(dens - dens.T).max() / peak < 1e-9


def test_fast_thread_count_is_clamped(rf10cm, monkeypatch):
    # a fake executor records max_workers and runs the blocks in this thread,
    # so the huge request starts no thread at all
    requested = []

    class Recorder:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(field, "ThreadPoolExecutor", Recorder)
    layout = sb.make_planar_array(0.65, 0.05)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 150.0], 1.0)
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 150.0], 41, 60.0)
    blocks = math.ceil(41 * 41 / field._block_points(layout.n_active))
    assert blocks > 4
    serial = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    for cpus, threads, workers in ((4, 10**9, 4), (64, 10**9, blocks), (None, 3, 1)):
        monkeypatch.setattr(field.os, "cpu_count", lambda n=cpus: n)
        fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid, threads=threads)
        assert requested[-1] == workers
        assert np.array_equal(fmap.complex_field, serial.complex_field)


def test_fast_rejects_bad_threads(rf10cm):
    layout = _single_element_layout()
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 10.0]), 1.0, np.zeros(1))
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 10.0], 5, 2.0)
    with pytest.raises(InvalidArgumentError):
        sb.evaluate_field_fast(layout, rf10cm, cmd, grid, threads=0)


# ---------------------------------------------------------------------------
# spot metrics
# ---------------------------------------------------------------------------

def test_first_null_spot_diameter_flagship(rf10cm):
    assert sb.first_null_spot_diameter(1000.0, rf10cm, 10_000.0) == \
        pytest.approx(1.22, rel=1e-12)
    # 1 GHz value: the formula gives 3.66 m (report the formula value)
    rf_1g = sb.RfSpec.from_wavelength(0.3)
    assert sb.first_null_spot_diameter(1000.0, rf_1g, 10_000.0) == \
        pytest.approx(3.66, rel=1e-12)


def test_spot_diameter_scaling_linearity(rf10cm):
    base = sb.first_null_spot_diameter(500.0, rf10cm, 8000.0)
    assert sb.first_null_spot_diameter(1000.0, rf10cm, 8000.0) == \
        pytest.approx(base / 2, rel=1e-12)
    assert sb.first_null_spot_diameter(500.0, rf10cm, 16000.0) == \
        pytest.approx(2 * base, rel=1e-12)


def test_airy_closed_form_matches_radial_quadrature(rf10cm):
    # dual route: library closed form vs integral of the diffraction intensity
    for disk in (0.8, 1.22, 2.44, 5.0, 7.4):
        x = math.pi * 1000.0 * (disk / 2) / (0.1 * 10_000.0)
        assert sb.airy_encircled_fraction(disk, 1000.0, rf10cm, 10_000.0) == \
            pytest.approx(airy_encircled_quad(x), abs=1e-9)
    # unbounded disk captures everything
    assert sb.airy_encircled_fraction(1e6, 1000.0, rf10cm, 10_000.0) == \
        pytest.approx(1.0, abs=1e-6)
    assert sb.airy_encircled_fraction(0.0, 1000.0, rf10cm, 10_000.0) == 0.0


def test_bessel_port_matches_scipy():
    """field._j0 / _j1 port the Cephes approximations that scipy.special.j0 / j1
    evaluate, so they agree bit for bit on both branches and at their edges."""
    from scipy import special
    rng = np.random.default_rng(20261018)
    x = np.concatenate([
        rng.uniform(0.0, 5.0, 40_000),              # rational branch
        rng.uniform(5.0, 60.0, 40_000),             # asymptotic branch
        10.0 ** rng.uniform(-8.0, 6.0, 20_000),     # every scale, x < 1e-5 included
        [0.0, 1e-5, math.nextafter(1e-5, 0.0), 5.0, math.nextafter(5.0, 0.0),
         math.nextafter(5.0, 6.0), *(1.22 * math.pi * n for n in (1, 2, 3))],
    ])
    assert np.count_nonzero(x < 1e-5) > 1000 and 5.0 in x
    np.testing.assert_array_equal([field._j0(v) for v in x.tolist()], special.j0(x))
    np.testing.assert_array_equal([field._j1(v) for v in x.tolist()], special.j1(x))


def test_encircled_energy_resolution_guards(rf10cm):
    layout = sb.make_planar_array(0.65, 0.05)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 150.0], 1.0)
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 150.0], 41, 80.0)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    with pytest.raises(ResolutionError):
        sb.encircled_energy(fmap, [0.0, 0.0, 150.0], 10.0, 1.0)  # < 8 samples
    with pytest.raises(ResolutionError):
        sb.encircled_energy(fmap, [0.0, 0.0, 150.0], 100.0, 1.0)  # beyond map


def test_encircled_energy_monotone_in_diameter(rf10cm):
    layout = sb.make_planar_array(0.65, 0.05)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 150.0], 1.0)
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 150.0], 81, 80.0)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    diameters = [10.0, 20.0, 40.0, 70.0]
    fracs = [sb.encircled_energy(fmap, [0.0, 0.0, 150.0], d, 1.0)
             for d in diameters]
    assert all(a <= b + 1e-15 for a, b in zip(fracs, fracs[1:]))
    assert all(0.0 <= f <= 1.1 for f in fracs)


def test_measure_first_null_radius_coarse(rf10cm):
    # sparse-sampled aperture keeps the central lobe of the filled disk
    layout = sb.make_planar_array(10.0, 0.4)
    cmd = sb.focus_command(layout, rf10cm, [0.0, 0.0, 100.0], 1.0)
    expected = sb.first_null_spot_diameter(10.0, rf10cm, 100.0)  # 1.22 m
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 100.0], 129, 3.2)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    measured = sb.measure_first_null_radius(fmap)
    assert measured == pytest.approx(expected, rel=0.1)


def test_spot_report_fields(rf10cm):
    rep = sb.spot_report(1000.0, rf10cm, 10_000.0, 50e6)
    assert rep.first_null_diameter == pytest.approx(1.22, rel=1e-12)
    assert rep.peak_density == pytest.approx(
        50e6 * math.pi * 500.0 ** 2 / (0.1 * 10_000.0) ** 2, rel=1e-12)
    assert 0.80 <= rep.encircled_fraction_first_null <= 0.90
    assert rep.encircled_fraction_at(7.4) > rep.encircled_fraction_first_null


def test_matched_element_spacing_value(rf10cm):
    assert sb.matched_element_spacing(rf10cm) == pytest.approx(
        0.1 / math.sqrt(math.pi), rel=1e-12)


# ---------------------------------------------------------------------------
# grating lobes
# ---------------------------------------------------------------------------

def test_grating_margin_half_wavelength(rf10cm):
    # half-wavelength pitch: boundary exactly at a 90 degree scan
    at_90 = sb.grating_lobe_margin(0.05, rf10cm, 90.0)
    assert at_90.margin == pytest.approx(0.0, abs=1e-12)
    assert not at_90.lobe_free
    at_89 = sb.grating_lobe_margin(0.05, rf10cm, 89.0)
    assert at_89.lobe_free
    at_0 = sb.grating_lobe_margin(0.05, rf10cm, 0.0)
    assert at_0.margin == pytest.approx(1.0, rel=1e-12)
    assert at_0.lobe_free


def test_grating_lobe_visible_at_full_wavelength(rf10cm):
    rep = sb.grating_lobe_margin(0.1, rf10cm, 30.0)
    assert not rep.lobe_free
    # nearest lobe sine is sin(30) - lambda/d = -0.5
    assert rep.margin == pytest.approx(abs(-0.5) - 1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# exports
# ---------------------------------------------------------------------------

def test_field_map_csv_format(tmp_path, rf10cm):
    layout = _two_element_layout()
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 50.0]), 1.0, np.zeros(2))
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 50.0], 3, 2.0)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    path = tmp_path / "map.csv"
    fmap.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x_m,y_m,z_m,power_density_W_per_m2"
    assert len(lines) == 1 + 9
    first = lines[1].split(",")
    assert float(first[0]) == -1.0 and float(first[2]) == 50.0
    assert float(first[3]) == fmap.power_density[0, 0]


def test_grid_points_lie_on_the_horizontal_plane_through_the_center():
    grid = sb.ObservationGrid.horizontal([10.0, -4.0, 300.0], 3, 2.0)
    assert np.array_equal(grid.points(), [
        [9.0, -5.0, 300.0], [10.0, -5.0, 300.0], [11.0, -5.0, 300.0],
        [9.0, -4.0, 300.0], [10.0, -4.0, 300.0], [11.0, -4.0, 300.0],
        [9.0, -3.0, 300.0], [10.0, -3.0, 300.0], [11.0, -3.0, 300.0]])


def test_airy_peak_density_is_infinite_when_the_spread_underflows():
    rf = sb.RfSpec.from_wavelength(1e-200)
    assert sb.airy_peak_density(1.0, 10.0, rf, 1e4) == math.inf


def test_field_map_binary_format(tmp_path, rf10cm):
    layout = _two_element_layout()
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 50.0]), 1.0, np.zeros(2))
    grid = sb.ObservationGrid.horizontal([0.0, 0.0, 50.0], 4, 2.0)
    fmap = sb.evaluate_field_fast(layout, rf10cm, cmd, grid)
    path = tmp_path / "map.bin"
    fmap.to_binary(path)
    blob = path.read_bytes()
    n_v, n_u = struct.unpack("<qq", blob[:16])
    assert (n_v, n_u) == (4, 4)
    data = np.frombuffer(blob[16:], dtype="<f8").reshape(4, 4)
    assert np.array_equal(data, fmap.power_density)
