"""Shared fixtures and independent oracles for the test suite.

Oracles here deliberately avoid the library code paths they are used to
check: the field is one plain spherical-wave sum per point, grid counting is
a plain double loop, encircled energy comes from radial quadrature of the
analytic diffraction intensity, and radiated power comes from Gauss-Legendre
quadrature of the direct-summation field over a far hemisphere. The field
instruments only the tests call live here too: encircled energy of a map,
grating-lobe margin and the matched element pitch.
"""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special
from scipy.integrate import quad

from skybeam import core, field, link
from skybeam.errors import InvalidArgumentError, ResolutionError


@pytest.fixture(scope="session")
def rf10cm() -> link.RfSpec:
    """The 10 cm carrier used by most focal-spot checks."""
    return link.RfSpec.from_wavelength(0.1)


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


def evaluate_field_oracle(layout: core.ArrayLayout, rf: link.RfSpec,
                          command: core.BeamCommand, points):
    """Complex field [sqrt(W)/m] and power density [W/m^2] by direct summation.

    One plain spherical-wave sum per (m, 3) observation point, cosine element
    pattern G = 4 cos(theta), no tiling or approximation: the reference
    field.evaluate_field_fast is held to. Returns complex (m,) and float (m,)
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


def ring_density(layout: core.ArrayLayout, rf: link.RfSpec, command: core.BeamCommand,
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


def hemisphere_power_oracle(layout: core.ArrayLayout, rf: link.RfSpec,
                            command: core.BeamCommand, n_theta: int, n_phi: int,
                            r: float = 10_000.0) -> float:
    """Radiated power through the upper hemisphere of radius r: the direct-sum
    density of each ring (ring_density) integrated over hemisphere_rings."""
    total = 0.0
    for pts, wp, wi in hemisphere_rings(n_theta, n_phi, r):
        total += ring_density(layout, rf, command, pts).sum() * wp * wi * r * r
    return total


def line_array_factor(n: int, spacing: float, rf: link.RfSpec, scan_deg: float,
                      thetas_deg: np.ndarray) -> np.ndarray:
    """|AF| of an n-element uniform line array steered to scan_deg, direct sum."""
    u = np.sin(np.radians(thetas_deg))
    u0 = math.sin(math.radians(scan_deg))
    m = np.arange(n)
    phase = rf.wavenumber * spacing * np.outer(u - u0, m)
    return np.abs(np.exp(1j * phase).sum(axis=1)) / n


def random_disk_layout(n: int, diameter: float, seed: int,
                       spacing: float = 0.5) -> core.ArrayLayout:
    """n elements scattered uniformly in a disk (sparse irregular array)."""
    rng = np.random.default_rng(seed)
    radius = 0.5 * diameter * np.sqrt(rng.random(n))
    theta = rng.random(n) * 2.0 * np.pi
    pos = np.column_stack([radius * np.cos(theta), radius * np.sin(theta),
                           np.zeros(n)])
    return core.ArrayLayout(pos, spacing, diameter)


def square_grid_layout(n_side: int, spacing: float) -> core.ArrayLayout:
    """Full centered n x n square grid (no disk crop)."""
    idx = np.arange(n_side) - (n_side - 1) / 2.0
    xx, yy = np.meshgrid(idx * spacing, idx * spacing, indexing="ij")
    pos = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(xx.size)])
    diameter = 2.0 * float(np.hypot(pos[:, 0], pos[:, 1]).max())
    return core.ArrayLayout(pos, spacing, diameter)


def matched_element_spacing(rf: link.RfSpec) -> float:
    """Element pitch at which the scalar model conserves energy: lambda / sqrt(pi).

    The grid cell area then equals the cosine element's beam solid angle
    (lambda^2 / pi), so a filled aperture radiates the commanded total and
    matches classical uniform-aperture theory.
    """
    return rf.wavelength / math.sqrt(math.pi)


def encircled_energy(fmap: field.FieldMap, center, disk_diameter: float,
                     total_power: float) -> float:
    """Fraction of total_power inside the disk of the given geometric diameter.

    Riemann sum of power density over grid cells whose centers fall inside the
    disk around `center` (a point on the map plane). Requires at least 8
    samples across the disk and the whole disk inside the map extent.
    """
    if not disk_diameter > 0.0 or not total_power > 0.0:
        raise InvalidArgumentError("disk_diameter and total_power must be positive")
    grid = fmap.grid
    if disk_diameter / grid.spacing < 8.0:
        raise ResolutionError(
            f"disk {disk_diameter:.4g} m spans fewer than 8 grid samples "
            f"(spacing {grid.spacing:.4g} m)")
    center = np.asarray(center, dtype=float)
    cu, cv = (float(c) for c in (center - grid.center)[:2])
    radius = 0.5 * disk_diameter
    half_u = (grid.n_u - 1) / 2.0 * grid.spacing
    half_v = (grid.n_v - 1) / 2.0 * grid.spacing
    if abs(cu) + radius > half_u + 1e-12 or abs(cv) + radius > half_v + 1e-12:
        raise ResolutionError("integration disk extends beyond the map")
    du = fmap.grid.u_offsets[None, :] - cu
    dv = fmap.grid.v_offsets[:, None] - cv
    mask = du * du + dv * dv <= radius * radius
    return float(fmap.power_density[mask].sum() * grid.spacing ** 2 / total_power)


@dataclass(frozen=True)
class GratingLobeReport:
    """Clearance of the nearest grating lobe from visible space."""

    margin: float      # min_m |sin(scan) - m lambda/d| - 1; > 0 means lobe-free
    lobe_free: bool


def grating_lobe_margin(spacing: float, rf: link.RfSpec,
                        max_scan_from_zenith_deg: float) -> GratingLobeReport:
    """Worst-case grating-lobe clearance for an element pitch and scan limit.

    Steered to angle t from zenith, candidate lobes sit at
    sin(theta) = sin(t) - m * lambda / spacing for integer m != 0. The margin
    is the smallest |candidate sine| minus 1; a lobe is visible (lobe_free
    False) when some candidate lands inside [-1, 1].
    """
    if not spacing > 0.0:
        raise InvalidArgumentError("spacing must be positive")
    if not 0.0 <= max_scan_from_zenith_deg < 90.0 + 1e-12:
        raise InvalidArgumentError("scan angle must be in [0, 90] degrees")
    u0 = math.sin(math.radians(max_scan_from_zenith_deg))
    ratio = rf.wavelength / spacing
    m_max = int(math.ceil((1.0 + u0) / ratio)) + 1
    best = math.inf
    for m in range(-m_max, m_max + 1):
        if m == 0:
            continue
        best = min(best, abs(u0 - m * ratio))
    margin = best - 1.0
    return GratingLobeReport(margin=margin, lobe_free=margin > 0.0)
