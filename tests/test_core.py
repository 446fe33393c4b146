"""Array layout generation, RF spec invariants, beam command validation."""

import math

import numpy as np
import pytest

import skybeam as sb
from skybeam.errors import InvalidArgumentError

from conftest import brute_force_disk_count


def test_disk_grid_29_elements():
    layout = sb.make_planar_array(0.3, 0.05)
    assert layout.n_active == 29
    assert layout.n_active == brute_force_disk_count(0.3, 0.05)


@pytest.mark.parametrize("diameter,spacing", [
    (1.0, 0.3), (2.5, 0.11), (0.77, 0.05), (10.0, 0.33),
])
def test_disk_grid_matches_enumeration(diameter, spacing):
    layout = sb.make_planar_array(diameter, spacing)
    assert layout.n_active == brute_force_disk_count(diameter, spacing)


def test_grid_positions_within_aperture_disk():
    layout = sb.make_planar_array(1.3, 0.09, fill_fraction=0.8, seed=3)
    active = layout.positions
    radial = np.hypot(active[:, 0], active[:, 1])
    assert radial.max() <= 0.5 * layout.aperture_diameter * (1 + 1e-12)
    assert np.all(active[:, 2] == 0.0)


def test_nearest_neighbor_distance_equals_spacing():
    layout = sb.make_planar_array(0.3, 0.05)
    pos = layout.positions
    dists = np.linalg.norm(pos[None, :, :] - pos[:, None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    assert abs(dists.min() - 0.05) < 1e-9


def test_thinning_deterministic_and_seed_sensitive():
    a = sb.make_planar_array(2.0, 0.05, fill_fraction=0.5, seed=9)
    b = sb.make_planar_array(2.0, 0.05, fill_fraction=0.5, seed=9)
    c = sb.make_planar_array(2.0, 0.05, fill_fraction=0.5, seed=10)
    assert np.array_equal(a.positions, b.positions)
    assert not np.array_equal(a.positions, c.positions)


def test_thinning_hits_requested_fill_on_average():
    full = sb.make_planar_array(2.0, 0.05).n_active
    fills = [sb.make_planar_array(2.0, 0.05, 0.7, seed=s).n_active / full
             for s in range(12)]
    assert np.mean(fills) == pytest.approx(0.7, abs=0.03)


def test_make_planar_array_rejects_bad_arguments():
    with pytest.raises(InvalidArgumentError):
        sb.make_planar_array(0.0, 0.05)
    with pytest.raises(InvalidArgumentError):
        sb.make_planar_array(1.0, -0.1)
    with pytest.raises(InvalidArgumentError):
        sb.make_planar_array(0.04, 0.05)
    with pytest.raises(InvalidArgumentError):
        sb.make_planar_array(1.0, 0.05, fill_fraction=0.0)
    with pytest.raises(InvalidArgumentError):
        sb.make_planar_array(1.0, 0.05, fill_fraction=1.2)


def test_rfspec_consistency():
    rf = sb.RfSpec.from_frequency(3e9)
    assert rf.wavelength * rf.frequency == pytest.approx(sb.SPEED_OF_LIGHT, rel=1e-12)
    assert rf.wavenumber * rf.wavelength == pytest.approx(2 * math.pi, rel=1e-13)
    rf2 = sb.RfSpec.from_wavelength(0.1)
    assert rf2.wavelength == 0.1
    with pytest.raises(InvalidArgumentError):
        sb.RfSpec.from_frequency(-1.0)
    with pytest.raises(InvalidArgumentError):
        sb.RfSpec(3e9, 0.2, 2 * math.pi / 0.2)  # wavelength does not match c/f


def test_layout_immutable():
    layout = sb.make_planar_array(0.3, 0.05)
    with pytest.raises(ValueError):
        layout.positions[0, 0] = 1.0


def test_beam_command_validation():
    phases = np.zeros(4)
    cmd = sb.BeamCommand(np.array([0.0, 0.0, 100.0]), 10.0, phases - 7.0)
    assert np.all((cmd.phases >= 0.0) & (cmd.phases < 2 * math.pi))
    with pytest.raises(InvalidArgumentError):
        sb.BeamCommand(np.array([0.0, 0.0, 100.0]), 0.0, phases)
    with pytest.raises(InvalidArgumentError):
        sb.BeamCommand(np.array([0.0, 0.0]), 1.0, phases)


@pytest.mark.parametrize("diameter,spacing,fill,seed", [
    (1.0, 0.05, 0.6, 5), (2.5, 0.11, 0.3, 0), (0.3, 0.05, 1e-9, 7),
])
def test_thinning_keeps_the_row_major_draw(diameter, spacing, fill, seed):
    # element k of the full grid stays active iff draw k of the seed is below fill
    full = sb.make_planar_array(diameter, spacing)
    keep = np.random.default_rng(seed).random(full.n_active) < fill
    thin = sb.make_planar_array(diameter, spacing, fill, seed)
    assert np.array_equal(thin.positions, full.positions[keep])
    assert thin.n_active == keep.sum()
    radial = np.hypot(thin.positions[:, 0], thin.positions[:, 1])
    assert thin.aperture_diameter == max(2.0 * radial.max(initial=0.0), spacing)
