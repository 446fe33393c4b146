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

Element pattern: G = 4 cos(theta) above the farm plane and zero below, so an
isolated element radiates exactly its commanded power into the upper
hemisphere.

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

import numpy as np

from .core import TWO_PI, ArrayLayout, BeamCommand, RfSpec, write_csv
from .errors import (DegenerateGeometryError, InvalidArgumentError,
                     NearFieldWarning, ResolutionError)

# Diffraction constant for a uniformly illuminated circular aperture.
SPOT_DIAMETER_FACTOR = 1.22

# Element-points per evaluation block: each (points x elements) temporary of
# a block holds at most this many values, or one point's row for a larger
# array. The block height comes from the element count only (never from the
# thread count), so block boundaries, and therefore results, are bit-stable
# no matter how the work is parallelized.
_BLOCK_ELEMENT_POINTS = 16384


def _block_points(n_active: int) -> int:
    """Grid points per evaluation block for an array of n_active elements."""
    return max(1, _BLOCK_ELEMENT_POINTS // n_active)


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
    pos = layout.positions
    r = np.linalg.norm(pos - target[None, :], axis=1)
    if r.size and float(r.min()) < 1e-9:
        raise DegenerateGeometryError("focus target coincides with an array element")
    return np.mod(-rf.wavenumber * r, TWO_PI)


def focus_command(layout: ArrayLayout, rf: RfSpec, target,
                  total_radiated_power: float) -> BeamCommand:
    """BeamCommand focused on target, radiating total_radiated_power [W] in all."""
    phases = solve_focus_phases(layout, rf, target)
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
        if center.shape != (3,) or not np.isfinite(center).all():
            raise InvalidArgumentError("center must be a finite 3-D vector")
        if self.n_u < 2 or self.n_v < 2:
            raise InvalidArgumentError("grid needs at least 2 samples per axis")
        if not self.spacing > 0.0:
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

def _field_block(pts: np.ndarray, ex, ey, ez, phases, p_scale: float, k: float):
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
    # cosine element pattern: gain 4 cos(theta) toward the point, 0 below the plane
    gain = dz / r
    del dz
    np.clip(gain, 0.0, None, out=gain)
    gain *= 4.0
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
                        grid: ObservationGrid, threads: int = 1) -> FieldMap:
    """FieldMap over `grid` by direct summation of the spherical waves.

    Raises DegenerateGeometryError when a point coincides with an element and
    warns (NearFieldWarning) when one lies within an element spacing of it.
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
    pos = layout.positions
    if pos.shape[0] > 0:
        if command.phases.shape[0] != layout.n_active:
            raise InvalidArgumentError(
                f"command has {command.phases.shape[0]} phases for "
                f"{layout.n_active} active elements")
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
                pts[a:b], ex, ey, ez, phases, p_scale, k)

        if threads == 1:
            for bi in range(len(bounds)):
                run(bi)
        else:
            workers = min(threads, len(bounds), os.cpu_count() or 1)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                list(pool.map(run, range(len(bounds))))
        min_r = float(min_rs.min())
        if min_r < layout.element_spacing:
            warnings.warn(
                f"observation point {min_r:.3g} m from an element "
                f"(within one spacing); 1/r terms are near-singular",
                NearFieldWarning, stacklevel=2)

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
    if not aperture_diameter > 0.0 or not range_m > 0.0:
        raise InvalidArgumentError("aperture_diameter and range must be positive")
    return SPOT_DIAMETER_FACTOR * rf.wavelength * range_m / aperture_diameter


def encircled_energy(fmap: FieldMap, center, disk_diameter: float,
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


# Bessel functions J0 and J1 for x >= 0: the rational approximations of the
# Cephes library (S. L. Moshier, 1989), with its coefficients (the leading 1
# that its p1evl implies written out) and its order of evaluation, so results
# are bit-equal to scipy.special.j0 / j1, which evaluate the same
# approximations. Loading scipy would cost a `spot` process more than its report.
_SQ2OPI = 7.9788456080286535587989E-1       # sqrt(2 / pi)
_PI_4 = 7.85398163397448309616E-1
_THPIO4 = 2.35619449019234492885            # 3 pi / 4
_DR1, _DR2 = 5.78318596294678452118E0, 3.04712623436620863991E1   # J0 zeros squared
_Z1, _Z2 = 1.46819706421238932572E1, 4.92184563216946036703E1     # J1 zeros squared
_RP0 = (-4.79443220978201773821E9, 1.95617491946556577543E12,
        -2.49248344360967716204E14, 9.70862251047306323952E15)
_RQ0 = (1.0, 4.99563147152651017219E2, 1.73785401676374683123E5, 4.84409658339962045305E7,
        1.11855537045356834862E10, 2.11277520115489217587E12, 3.10518229857422583814E14,
        3.18121955943204943306E16, 1.71086294081043136091E18)
_PP0 = (7.96936729297347051624E-4, 8.28352392107440799803E-2, 1.23953371646414299388E0,
        5.44725003058768775090E0, 8.74716500199817011941E0, 5.30324038235394892183E0,
        9.99999999999999997821E-1)
_PQ0 = (9.24408810558863637013E-4, 8.56288474354474431428E-2, 1.25352743901058953537E0,
        5.47097740330417105182E0, 8.76190883237069594232E0, 5.30605288235394617618E0,
        1.00000000000000000218E0)
_QP0 = (-1.13663838898469149931E-2, -1.28252718670509318512E0, -1.95539544257735972385E1,
        -9.32060152123768231369E1, -1.77681167980488050595E2, -1.47077505154951170175E2,
        -5.14105326766599330220E1, -6.05014350600728481186E0)
_QQ0 = (1.0, 6.43178256118178023184E1, 8.56430025976980587198E2, 3.88240183605401609683E3,
        7.24046774195652478189E3, 5.93072701187316984827E3, 2.06209331660327847417E3,
        2.42005740240291393179E2)
_RP1 = (-8.99971225705559398224E8, 4.52228297998194034323E11,
        -7.27494245221818276015E13, 3.68295732863852883286E15)
_RQ1 = (1.0, 6.20836478118054335476E2, 2.56987256757748830383E5, 8.35146791431949253037E7,
        2.21511595479792499675E10, 4.74914122079991414898E12, 7.84369607876235854894E14,
        8.95222336184627338078E16, 5.32278620332680085395E18)
_PP1 = (7.62125616208173112003E-4, 7.31397056940917570436E-2, 1.12719608129684925192E0,
        5.11207951146807644818E0, 8.42404590141772420927E0, 5.21451598682361504063E0,
        1.00000000000000000254E0)
_PQ1 = (5.71323128072548699714E-4, 6.88455908754495404082E-2, 1.10514232634061696926E0,
        5.07386386128601488557E0, 8.39985554327604159757E0, 5.20982848682361821619E0,
        9.99999999999999997461E-1)
_QP1 = (5.10862594750176621635E-2, 4.98213872951233449420E0, 7.58238284132545283818E1,
        3.66779609360150777800E2, 7.10856304998926107277E2, 5.97489612400613639965E2,
        2.11688757100572135698E2, 2.52070205858023719784E1)
_QQ1 = (1.0, 7.42373277035675149943E1, 1.05644886038262816351E3, 4.98641058337653607651E3,
        9.56231892404756170795E3, 7.99704160447350683650E3, 2.82619278517639096600E3,
        3.36093607810698293419E2)


def _polevl(x: float, coef) -> float:
    """Horner evaluation of the polynomial with coefficients coef, highest first."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _j0(x: float) -> float:
    """Bessel function of the first kind of order 0, for x >= 0."""
    if x <= 5.0:
        z = x * x
        if x < 1.0e-5:
            return 1.0 - z / 4.0
        p = (z - _DR1) * (z - _DR2)
        return p * _polevl(z, _RP0) / _polevl(z, _RQ0)
    w = 5.0 / x
    q = 25.0 / (x * x)
    p = _polevl(q, _PP0) / _polevl(q, _PQ0)
    q = _polevl(q, _QP0) / _polevl(q, _QQ0)
    xn = x - _PI_4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


def _j1(x: float) -> float:
    """Bessel function of the first kind of order 1, for x >= 0."""
    if x <= 5.0:
        z = x * x
        w = _polevl(z, _RP1) / _polevl(z, _RQ1)
        return w * x * (z - _Z1) * (z - _Z2)
    w = 5.0 / x
    z = w * w
    p = _polevl(z, _PP1) / _polevl(z, _PQ1)
    q = _polevl(z, _QP1) / _polevl(z, _QQ1)
    xn = x - _THPIO4
    p = p * math.cos(xn) - w * q * math.sin(xn)
    return p * _SQ2OPI / math.sqrt(x)


def airy_encircled_fraction(disk_diameter: float, aperture_diameter: float,
                            rf: RfSpec, range_m: float) -> float:
    """Uniform-circular-aperture encircled-energy fraction, closed form.

    1 - J0(x)^2 - J1(x)^2 with x = pi * D * rho / (lambda * R), rho the disk
    radius. Valid for an aperture focused exactly at range R.
    """
    if not disk_diameter >= 0.0:
        raise InvalidArgumentError("disk_diameter must be non-negative")
    x = math.pi * aperture_diameter * (0.5 * disk_diameter) / (rf.wavelength * range_m)
    if x == 0.0:
        return 0.0
    return 1.0 - _j0(x) ** 2 - _j1(x) ** 2


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
# steering diagnostics
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
