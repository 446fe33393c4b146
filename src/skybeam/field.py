"""Field engine: focusing phases, near/far-field evaluation, measured spot metrics.

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
classical aperture theory and conserves energy; see matched_element_spacing
in tests/conftest.py.
"""

from __future__ import annotations

import math
import os
import struct
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import ArrayLayout, BeamCommand, write_csv
from .errors import (DegenerateGeometryError, InvalidArgumentError,
                     NearFieldWarning, ResolutionError)
from .link import TWO_PI, RfSpec

# Element-points per evaluation block: each (points x elements) temporary of
# a block holds at most this many values, or one point's row for a larger
# array. The block height comes from the element count only (never from the
# thread count), so block boundaries, and therefore results, are bit-stable
# no matter how the work is parallelized.
_BLOCK_ELEMENT_POINTS = 16384


def _block_points(n_active: int) -> int:
    """Grid points per evaluation block for an array of n_active elements."""
    return max(1, _BLOCK_ELEMENT_POINTS // n_active)


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
# focal-spot metrics of a sampled map
# ---------------------------------------------------------------------------

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
