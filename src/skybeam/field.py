"""Field engine: focusing phases, near/far-field evaluation, focal-spot metrics.

Radiator model
--------------
Each active element is a scalar spherical-wave source. At observation point p,

    field(p) = sum_i sqrt(P_i * G(theta_i) / 4pi) * exp(j (k r_i + phase_i)) / r_i

with r_i = |p - pos_i|, P_i the per-element radiated power (total command power
split uniformly over active elements) and G the element power pattern. The
complex field carries sqrt(W)/m units so power density [W/m^2] is |field|^2
with no extra normalization. Distances are exact per element, so near-field
focusing needs no Fresnel or Fraunhofer approximation.

Element patterns: "cosine" is G = 4 cos(theta) above the farm plane and zero
below (an isolated element radiates exactly its commanded power into the
upper hemisphere); "isotropic" is G = 1 over the full sphere, kept for
point-source conservation checks.

Energy accounting caveat: superposing isolated-element spherical waves does
not model mutual coupling, so a coherently driven grid radiates more than the
commanded total when sampled denser than one element per lambda^2/pi of
aperture (up to 4/pi at half-wavelength pitch) and leaks power into grating
lobes when sampled coarser. At the matched pitch lambda/sqrt(pi) - cell area
equal to the cosine element's beam solid angle 4pi/G0 - the model reproduces
classical aperture theory and conserves energy; see matched_element_spacing.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import TWO_PI, ArrayLayout, BeamCommand, RfSpec, write_csv
from .errors import (DegenerateGeometryError, InvalidArgumentError,
                     NearFieldWarning, ResolutionError)

# Diffraction constant for a uniformly illuminated circular aperture.
SPOT_DIAMETER_FACTOR = 1.22

PATTERN_COSINE = "cosine"
PATTERN_ISOTROPIC = "isotropic"

# Element-points per evaluation block: each (points x elements) temporary of
# a block holds at most this many values, or one point's row for a larger
# array. The block height comes from the element count only (never from the
# thread count), so block boundaries, and therefore results, are bit-stable
# no matter how the work is parallelized.
_BLOCK_ELEMENT_POINTS = 16384


def _block_points(n_elements: int) -> int:
    """Grid points per evaluation block for an array of n_elements."""
    return max(1, _BLOCK_ELEMENT_POINTS // n_elements)


def matched_element_spacing(rf: RfSpec) -> float:
    """Element pitch at which the scalar model conserves energy: lambda / sqrt(pi).

    The grid cell area then equals the cosine element's beam solid angle
    (lambda^2 / pi), so a filled aperture radiates the commanded total and
    matches classical uniform-aperture theory.
    """
    return rf.wavelength / math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# phase control
# ---------------------------------------------------------------------------

def solve_focus_phases(layout: ArrayLayout, rf: RfSpec, target) -> np.ndarray:
    """Per-element phases [rad] making all emitted waves arrive in phase at target.

    phase_i = (-k * |target - pos_i|) mod 2pi, one entry per active element in
    layout order.
    """
    target = np.asarray(target, dtype=float)
    pos = layout.active_positions
    r = np.linalg.norm(pos - target[None, :], axis=1)
    if r.size and float(r.min()) < 1e-9:
        raise DegenerateGeometryError("focus target coincides with an array element")
    return np.mod(-rf.wavenumber * r, TWO_PI)


def quantize_phases(phases: np.ndarray, bits: int) -> np.ndarray:
    """Round phases to an n-bit phase-shifter grid (2**bits settings over [0, 2pi))."""
    if bits < 1:
        raise InvalidArgumentError("bits must be >= 1")
    step = TWO_PI / (1 << bits)
    return np.mod(np.round(np.asarray(phases, dtype=float) / step) * step, TWO_PI)


def focus_command(layout: ArrayLayout, rf: RfSpec, target,
                  total_radiated_power: Optional[float] = None) -> BeamCommand:
    """BeamCommand focused on target; power defaults to element_amplitude x active count."""
    phases = solve_focus_phases(layout, rf, target)
    if total_radiated_power is None:
        total_radiated_power = layout.element_amplitude * layout.n_active
    return BeamCommand(np.asarray(target, dtype=float), total_radiated_power, phases)


# ---------------------------------------------------------------------------
# observation grids and field maps
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ObservationGrid:
    """Rectangular sampling grid on the horizontal plane through `center`.

    Sample (iv, iu) sits at center + ((iu - (n_u-1)/2) * spacing,
    (iv - (n_v-1)/2) * spacing, 0); rows run along x.
    """

    center: np.ndarray
    n_u: int
    n_v: int
    spacing: float

    def __post_init__(self):
        center = np.array(self.center, dtype=float)
        if center.shape != (3,):
            raise InvalidArgumentError("center must be a 3-D vector")
        if self.n_u < 2 or self.n_v < 2:
            raise InvalidArgumentError("grid needs at least 2 samples per axis")
        if self.spacing <= 0.0:
            raise InvalidArgumentError("grid spacing must be positive")
        center.setflags(write=False)
        object.__setattr__(self, "center", center)

    @classmethod
    def horizontal(cls, center, n: int, width: float) -> "ObservationGrid":
        """Square n x n grid on the horizontal plane through center, width [m] across."""
        return cls(center, n, n, width / max(n - 1, 1))     # n < 2 fails __post_init__

    @property
    def u_offsets(self) -> np.ndarray:
        return (np.arange(self.n_u) - (self.n_u - 1) / 2.0) * self.spacing

    @property
    def v_offsets(self) -> np.ndarray:
        return (np.arange(self.n_v) - (self.n_v - 1) / 2.0) * self.spacing

    def points(self) -> np.ndarray:
        """All samples as an (n_v * n_u, 3) array, row-major over (v, u)."""
        pts = np.empty((self.n_v, self.n_u, 3))
        pts[:, :, 0] = self.center[0] + self.u_offsets
        pts[:, :, 1] = (self.center[1] + self.v_offsets)[:, None]
        pts[:, :, 2] = self.center[2]
        return pts.reshape(-1, 3)


@dataclass(frozen=True)
class FieldMap:
    """Sampled complex field and power density over an ObservationGrid.

    power_density = |complex_field|^2 exactly; the field carries sqrt(W)/m.
    """

    grid: ObservationGrid
    complex_field: np.ndarray = field(repr=False)
    power_density: np.ndarray = field(repr=False)

    def __post_init__(self):
        shape = (self.grid.n_v, self.grid.n_u)
        if self.complex_field.shape != shape or self.power_density.shape != shape:
            raise InvalidArgumentError("field arrays must match the grid shape")
        if np.any(self.power_density < 0.0):
            raise InvalidArgumentError("power density must be non-negative")
        for name in ("complex_field", "power_density"):
            arr = getattr(self, name).copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def peak_density(self) -> float:
        return float(self.power_density.max())

    def to_csv(self, path) -> None:
        """Write `x_m,y_m,z_m,power_density_W_per_m2` rows (one header line)."""
        pts = self.grid.points()
        write_csv(path, "x_m,y_m,z_m,power_density_W_per_m2",
                  [pts[:, 0], pts[:, 1], pts[:, 2], self.power_density.reshape(-1)])

    def to_binary(self, path) -> None:
        """Raw density dump: 16-byte header (two little-endian int64 dims n_v,
        n_u) followed by row-major little-endian float64 samples."""
        with open(path, "wb") as fh:
            fh.write(struct.pack("<qq", self.grid.n_v, self.grid.n_u))
            fh.write(self.power_density.astype("<f8").tobytes(order="C"))


# ---------------------------------------------------------------------------
# field evaluation
# ---------------------------------------------------------------------------

def _pattern_gain(dz: np.ndarray, r: np.ndarray, pattern: str) -> np.ndarray:
    """Element power gain toward each point; a new array the caller may reuse."""
    if pattern == PATTERN_COSINE:
        gain = dz / r
        np.clip(gain, 0.0, None, out=gain)
        gain *= 4.0
        return gain
    if pattern == PATTERN_ISOTROPIC:
        return np.ones_like(r)
    raise InvalidArgumentError(f"unknown element pattern {pattern!r}")


def _check_phases(layout: ArrayLayout, command: BeamCommand) -> None:
    if command.phases.shape[0] != layout.n_active:
        raise InvalidArgumentError(
            f"command has {command.phases.shape[0]} phases for "
            f"{layout.n_active} active elements")


def _warn_if_near(min_r: float, layout: ArrayLayout) -> None:
    if min_r < layout.element_spacing:
        warnings.warn(
            f"observation point {min_r:.3g} m from an element "
            f"(within one spacing); 1/r terms are near-singular",
            NearFieldWarning, stacklevel=3)


def evaluate_field_oracle(layout: ArrayLayout, rf: RfSpec, command: BeamCommand,
                          points, pattern: str = PATTERN_COSINE):
    """Complex field [sqrt(W)/m] and power density [W/m^2] by direct summation.

    One plain spherical-wave sum per observation point, no tiling or
    approximation; this is the reference the fast path is held to.

    Parameters
    ----------
    points : (m, 3) array of observation points [m].

    Returns
    -------
    (field, density) : complex (m,) and float (m,) arrays.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidArgumentError("points must be an (m, 3) array")
    out = np.zeros(pts.shape[0], dtype=complex)
    pos = layout.active_positions
    if pos.shape[0] == 0:
        return out, np.zeros(pts.shape[0])
    _check_phases(layout, command)
    p_elem = command.total_radiated_power / pos.shape[0]
    k = rf.wavenumber
    phases = command.phases
    min_r = math.inf
    for i in range(pts.shape[0]):
        d = pts[i][None, :] - pos
        r = np.sqrt(np.sum(d * d, axis=1))
        rmin = float(r.min())
        if rmin <= 0.0:
            raise DegenerateGeometryError("observation point coincides with an element")
        min_r = min(min_r, rmin)
        gain = _pattern_gain(d[:, 2], r, pattern)
        amp = np.sqrt(p_elem * gain / (4.0 * math.pi)) / r
        out[i] = np.add.reduce(amp * np.exp(1j * (k * r + phases)))
    _warn_if_near(min_r, layout)
    return out, np.abs(out) ** 2


def _field_block(pts: np.ndarray, ex, ey, ez, phases, p_scale: float, k: float,
                 pattern: str):
    """Vectorized spherical-wave sum for one block of points; returns (field, min_r)."""
    dx = pts[:, 0][:, None] - ex[None, :]
    dy = pts[:, 1][:, None] - ey[None, :]
    dz = pts[:, 2][:, None] - ez[None, :]
    dx *= dx
    dy *= dy
    r = dx
    r += dy
    del dy
    r += dz * dz
    np.sqrt(r, out=r)
    min_r = float(r.min())
    if min_r <= 0.0:
        raise DegenerateGeometryError("observation point coincides with an element")
    gain = _pattern_gain(dz, r, pattern)
    del dz
    gain *= p_scale
    np.sqrt(gain, out=gain)
    gain /= r
    r *= k
    r += phases[None, :]
    contrib = np.empty(r.shape, dtype=complex)
    np.cos(r, out=contrib.real)
    np.sin(r, out=contrib.imag)
    contrib *= gain
    return np.add.reduce(contrib, axis=1), min_r


def evaluate_field_fast(layout: ArrayLayout, rf: RfSpec, command: BeamCommand,
                        grid: ObservationGrid, threads: int = 1,
                        pattern: str = PATTERN_COSINE) -> FieldMap:
    """FieldMap over `grid`; same contract as the oracle, vectorized and threaded.

    Points are processed in blocks of about _BLOCK_ELEMENT_POINTS
    element-points, each summed over elements in layout order, so results are
    bit-identical for any thread count.

    Parameters
    ----------
    threads : worker threads over point blocks, at most one per block and
        per CPU; affects speed only.
    """
    if threads < 1:
        raise InvalidArgumentError("threads must be >= 1")
    pts = grid.points()
    n_pts = pts.shape[0]
    out = np.zeros(n_pts, dtype=complex)
    pos = layout.active_positions
    if pos.shape[0] > 0:
        _check_phases(layout, command)
        p_scale = command.total_radiated_power / pos.shape[0] / (4.0 * math.pi)
        ex, ey, ez = np.ascontiguousarray(pos.T)
        phases = command.phases
        k = rf.wavenumber
        step = _block_points(pos.shape[0])
        bounds = [(a, min(a + step, n_pts)) for a in range(0, n_pts, step)]
        min_rs = np.empty(len(bounds))

        def run(block_idx: int) -> None:
            a, b = bounds[block_idx]
            out[a:b], min_rs[block_idx] = _field_block(
                pts[a:b], ex, ey, ez, phases, p_scale, k, pattern)

        if threads == 1:
            for bi in range(len(bounds)):
                run(bi)
        else:
            workers = min(threads, len(bounds), os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, range(len(bounds))))
        _warn_if_near(float(min_rs.min()), layout)

    fld = out.reshape(grid.n_v, grid.n_u)
    return FieldMap(grid, fld, np.abs(fld) ** 2)


# ---------------------------------------------------------------------------
# focal-spot metrics
# ---------------------------------------------------------------------------

def first_null_spot_diameter(aperture_diameter: float, rf: RfSpec,
                             range_m: float) -> float:
    """Diffraction-limited focal spot size 1.22 * lambda * range / aperture [m].

    Numerically this equals the radial distance from the beam axis to the
    first intensity null of a uniformly illuminated circular aperture; it is
    the figure quoted as the spot "diameter" in the headline link budgets
    (the null-to-null width across the beam is twice this value).
    """
    if aperture_diameter <= 0.0 or range_m <= 0.0:
        raise InvalidArgumentError("aperture_diameter and range must be positive")
    return SPOT_DIAMETER_FACTOR * rf.wavelength * range_m / aperture_diameter


def encircled_energy(fmap: FieldMap, center, disk_diameter: float,
                     total_power: float) -> float:
    """Fraction of total_power inside the disk of the given geometric diameter.

    Riemann sum of power density over grid cells whose centers fall inside the
    disk around `center` (a point on the map plane). Requires at least 8
    samples across the disk and the whole disk inside the map extent.
    """
    if disk_diameter <= 0.0 or total_power <= 0.0:
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


def measure_first_null_radius(fmap: FieldMap) -> float:
    """Radial distance from the map center to the first local density minimum.

    Scans the +u half-row through the grid center, so the map must be centered
    on the focal peak. Raises ResolutionError when no interior minimum exists.
    """
    iv = (fmap.grid.n_v - 1) // 2
    iu = (fmap.grid.n_u - 1) // 2
    row = fmap.power_density[iv, iu:]
    for i in range(1, row.size - 1):
        if row[i] < row[i - 1] and row[i] <= row[i + 1]:
            return i * fmap.grid.spacing
    raise ResolutionError("no first null inside the map; enlarge the window")


def airy_encircled_fraction(disk_diameter: float, aperture_diameter: float,
                            rf: RfSpec, range_m: float) -> float:
    """Uniform-circular-aperture encircled-energy fraction, closed form.

    1 - J0(x)^2 - J1(x)^2 with x = pi * D * rho / (lambda * R), rho the disk
    radius. Valid for an aperture focused exactly at range R.
    """
    if disk_diameter < 0.0:
        raise InvalidArgumentError("disk_diameter must be non-negative")
    x = math.pi * aperture_diameter * (0.5 * disk_diameter) / (rf.wavelength * range_m)
    if x == 0.0:
        return 0.0
    # imported here, not at module level: this is the package's only use of
    # scipy, which is slow to load, so commands other than `spot` start without it
    from scipy import special
    return float(1.0 - special.j0(x) ** 2 - special.j1(x) ** 2)


def airy_peak_density(radiated_power: float, aperture_diameter: float,
                      rf: RfSpec, range_m: float) -> float:
    """On-axis power density P * A / (lambda * R)^2 of the focused aperture [W/m^2].

    Infinite when (lambda * R)^2 underflows to zero.
    """
    area = math.pi * (0.5 * aperture_diameter) ** 2
    spread = (rf.wavelength * range_m) ** 2
    return radiated_power * area / spread if spread > 0.0 else math.inf


@dataclass(frozen=True)
class SpotReport:
    """Focal-spot summary for a uniformly filled circular aperture at one range.

    first_null_diameter follows the quoted-spot convention (radial extent of
    the central lobe, 1.22 lambda R / D); the enclosing null-bounded disk has
    twice this geometric diameter.
    """

    aperture_diameter: float
    range_m: float
    wavelength: float
    radiated_power: float
    first_null_diameter: float
    peak_density: float
    encircled_fraction_first_null: float

    def encircled_fraction_at(self, disk_diameter: float) -> float:
        """Encircled fraction inside a disk of the given geometric diameter."""
        rf = RfSpec.from_wavelength(self.wavelength)
        return airy_encircled_fraction(disk_diameter, self.aperture_diameter,
                                       rf, self.range_m)


def spot_report(aperture_diameter: float, rf: RfSpec, range_m: float,
                radiated_power: float) -> SpotReport:
    """Closed-form SpotReport (uniform circular aperture theory)."""
    fn = first_null_spot_diameter(aperture_diameter, rf, range_m)
    return SpotReport(
        aperture_diameter=aperture_diameter,
        range_m=range_m,
        wavelength=rf.wavelength,
        radiated_power=radiated_power,
        first_null_diameter=fn,
        peak_density=airy_peak_density(radiated_power, aperture_diameter, rf, range_m),
        encircled_fraction_first_null=airy_encircled_fraction(
            2.0 * fn, aperture_diameter, rf, range_m),
    )


# ---------------------------------------------------------------------------
# steering and thinning diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GratingLobeReport:
    """Clearance of the nearest grating lobe from visible space."""

    margin: float      # min_m |sin(scan) - m lambda/d| - 1; > 0 means lobe-free
    lobe_free: bool


def grating_lobe_margin(spacing: float, rf: RfSpec,
                        max_scan_from_zenith_deg: float) -> GratingLobeReport:
    """Worst-case grating-lobe clearance for an element pitch and scan limit.

    Steered to angle t from zenith, candidate lobes sit at
    sin(theta) = sin(t) - m * lambda / spacing for integer m != 0. The margin
    is the smallest |candidate sine| minus 1; a lobe is visible (lobe_free
    False) when some candidate lands inside [-1, 1].
    """
    if spacing <= 0.0:
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


def thinning_efficiency_ratio(layout_full: ArrayLayout, layout_thinned: ArrayLayout,
                              rf: RfSpec, target, disk_diameter: float,
                              grid_n: int = 121, window_factor: float = 1.5,
                              threads: int = 1) -> float:
    """Focal-disk collection of a thinned layout relative to the full one.

    Both layouts are driven at the same total radiated power (full layout's
    amplitude x active count), focused on `target`, and integrated over the
    same disk; removing elements at fixed total power drops the collected
    fraction roughly in proportion to the fill fraction.
    """
    total = layout_full.element_amplitude * layout_full.n_active
    grid = ObservationGrid.horizontal(np.asarray(target, dtype=float), grid_n,
                                      window_factor * disk_diameter)
    fractions = []
    for layout in (layout_full, layout_thinned):
        cmd = focus_command(layout, rf, target, total)
        fmap = evaluate_field_fast(layout, rf, cmd, grid, threads=threads)
        fractions.append(encircled_energy(fmap, target, disk_diameter, total))
    return fractions[1] / fractions[0]
