"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they are used to
check: the field is one plain spherical-wave sum per point, grid counting is
a plain double loop, encircled energy comes from radial quadrature of the
analytic diffraction intensity, and radiated power comes from Gauss-Legendre
quadrature of the direct-summation field over a far hemisphere.
"""

import math

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.integrate import quad

import skybeam as sb


@pytest.fixture(scope="session")
def rf10cm() -> sb.RfSpec:
    """The 10 cm carrier used by most focal-spot checks."""
    return sb.RfSpec.from_wavelength(0.1)


def brute_force_disk_count(diameter: float, spacing: float) -> int:
    """Count square-grid points inside the aperture disk by direct enumeration."""
    m = int(math.floor(diameter / (2.0 * spacing) * (1.0 + 1e-12)))
    limit = (diameter / (2.0 * spacing)) ** 2 * (1.0 + 1e-12)
    count = 0
    for i in range(-m, m + 1):
        for j in range(-m, m + 1):
            if i * i + j * j <= limit:
                count += 1
    return count


def airy_encircled_quad(x: float) -> float:
    """Encircled energy of the diffraction pattern by radial quadrature.

    Integrates (2 J1(t)/t)^2 * t from 0 to x; the full integral is 2, so the
    fraction is half the partial integral. Independent of the closed form
    1 - J0^2 - J1^2 used by the library.
    """
    if x == 0.0:
        return 0.0
    val, _ = quad(lambda t: (2.0 * special.j1(t) / t) ** 2 * t, 0.0, x, limit=400)
    return 0.5 * val


def evaluate_field_oracle(layout: sb.ArrayLayout, rf: sb.RfSpec,
                          command: sb.BeamCommand, points):
    """Complex field [sqrt(W)/m] and power density [W/m^2] by direct summation.

    One plain spherical-wave sum per (m, 3) observation point, cosine element
    pattern G = 4 cos(theta), no tiling or approximation: the reference
    sb.evaluate_field_fast is held to. Returns complex (m,) and float (m,)
    arrays.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    pos = layout.positions
    p_elem = command.total_radiated_power / pos.shape[0]
    out = np.zeros(pts.shape[0], dtype=complex)
    for i in range(pts.shape[0]):
        d = pts[i][None, :] - pos
        r = np.sqrt(np.sum(d * d, axis=1))
        gain = 4.0 * np.clip(d[:, 2] / r, 0.0, None)
        amp = np.sqrt(p_elem * gain / (4.0 * math.pi)) / r
        out[i] = np.add.reduce(amp * np.exp(1j * (rf.wavenumber * r + command.phases)))
    return out, np.abs(out) ** 2


def ring_density(layout: sb.ArrayLayout, rf: sb.RfSpec, command: sb.BeamCommand,
                 pts: np.ndarray) -> np.ndarray:
    """Power density at each of the (m, 3) points, cosine element pattern.

    One (m x elements) direct sum with the arithmetic of
    evaluate_field_oracle, which takes one point at a time.
    """
    pos = layout.positions
    d = pts[:, None, :] - pos[None, :, :]
    r = np.sqrt(np.sum(d * d, axis=2))
    gain = d[:, :, 2] / r
    np.clip(gain, 0.0, None, out=gain)
    gain *= 4.0
    p_elem = command.total_radiated_power / pos.shape[0]
    amp = np.sqrt(p_elem * gain / (4.0 * math.pi)) / r
    field = np.add.reduce(amp * np.exp(1j * (rf.wavenumber * r + command.phases)), axis=1)
    return np.abs(field) ** 2


def hemisphere_rings(n_theta: int, n_phi: int, r: float):
    """Rings of the upper hemisphere of radius r as (points, phi weight, cos weight).

    Gauss-Legendre nodes in cos(theta), midpoint rule in phi.
    """
    nodes, wts = leggauss(n_theta)
    ct = 0.5 * (nodes + 1.0)
    wt = 0.5 * wts
    st = np.sqrt(1.0 - ct ** 2)
    phi = (np.arange(n_phi) + 0.5) * 2.0 * np.pi / n_phi
    wp = 2.0 * np.pi / n_phi
    cp, sp = np.cos(phi), np.sin(phi)
    for cti, sti, wi in zip(ct, st, wt):
        yield np.column_stack([r * sti * cp, r * sti * sp, np.full(n_phi, r * cti)]), wp, wi


def hemisphere_power_oracle(layout: sb.ArrayLayout, rf: sb.RfSpec,
                            command: sb.BeamCommand, n_theta: int, n_phi: int,
                            r: float = 10_000.0) -> float:
    """Radiated power through the upper hemisphere of radius r: the direct-sum
    density of each ring (ring_density) integrated over hemisphere_rings."""
    total = 0.0
    for pts, wp, wi in hemisphere_rings(n_theta, n_phi, r):
        total += ring_density(layout, rf, command, pts).sum() * wp * wi * r * r
    return total


def line_array_factor(n: int, spacing: float, rf: sb.RfSpec, scan_deg: float,
                      thetas_deg: np.ndarray) -> np.ndarray:
    """|AF| of an n-element uniform line array steered to scan_deg, direct sum."""
    u = np.sin(np.radians(thetas_deg))
    u0 = math.sin(math.radians(scan_deg))
    m = np.arange(n)
    phase = rf.wavenumber * spacing * np.outer(u - u0, m)
    return np.abs(np.exp(1j * phase).sum(axis=1)) / n


def random_disk_layout(n: int, diameter: float, seed: int,
                       spacing: float = 0.5) -> sb.ArrayLayout:
    """n elements scattered uniformly in a disk (sparse irregular array)."""
    rng = np.random.default_rng(seed)
    radius = 0.5 * diameter * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    pos = np.column_stack([radius * np.cos(theta), radius * np.sin(theta),
                           np.zeros(n)])
    return sb.ArrayLayout(pos, spacing, diameter)


def square_grid_layout(n_side: int, spacing: float) -> sb.ArrayLayout:
    """Full centered n x n square grid (no disk crop)."""
    idx = np.arange(n_side) - (n_side - 1) / 2.0
    xx, yy = np.meshgrid(idx * spacing, idx * spacing, indexing="ij")
    pos = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    diameter = 2.0 * float(np.hypot(pos[:, 0], pos[:, 1]).max())
    return sb.ArrayLayout(pos, spacing, diameter)
