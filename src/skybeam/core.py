"""Core domain types: RF carrier, element layout of the farm, beam command;
and the CSV row writer behind the map and mission-trace files."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SPEED_OF_LIGHT
from .errors import InvalidArgumentError

TWO_PI = 2.0 * math.pi

# Rows per slice of write_csv, which holds one slice's cell strings at a time.
_CSV_ROWS = 4096


def _frozen(values, dtype=float) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class RfSpec:
    """RF carrier: frequency [Hz] plus derived wavelength [m] and wavenumber [rad/m]."""

    frequency: float
    wavelength: float
    wavenumber: float

    def __post_init__(self):
        if not self.frequency > 0.0:
            raise InvalidArgumentError("frequency must be positive")
        if abs(self.wavelength * self.frequency - SPEED_OF_LIGHT) > 1e-9 * SPEED_OF_LIGHT:
            raise InvalidArgumentError("wavelength inconsistent with frequency")
        if abs(self.wavenumber * self.wavelength - TWO_PI) > 1e-12 * TWO_PI:
            raise InvalidArgumentError("wavenumber inconsistent with wavelength")

    @classmethod
    def from_frequency(cls, frequency: float) -> "RfSpec":
        if frequency <= 0.0:
            raise InvalidArgumentError("frequency must be positive")
        wavelength = SPEED_OF_LIGHT / frequency
        return cls(frequency, wavelength, TWO_PI / wavelength)

    @classmethod
    def from_wavelength(cls, wavelength: float) -> "RfSpec":
        """Build from an exact wavelength (handy for round numbers like 0.10 m)."""
        if wavelength <= 0.0:
            raise InvalidArgumentError("wavelength must be positive")
        return cls(SPEED_OF_LIGHT / wavelength, wavelength, TWO_PI / wavelength)


@dataclass(frozen=True)
class ArrayLayout:
    """Planar farm array: active element centers, grid pitch, realized aperture.

    positions: (n, 3) centers of the active elements [m], in grid row-major
        order; z = 0 for a flat farm. n may be 0.
    element_spacing: grid pitch [m].
    aperture_diameter: diameter of the smallest origin-centered disk holding
        every active element [m]; equals the max pairwise horizontal extent
        for symmetric full grids.
    """

    positions: np.ndarray
    element_spacing: float
    aperture_diameter: float

    def __post_init__(self):
        pos = _frozen(self.positions)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InvalidArgumentError("positions must be an (n, 3) array")
        if not self.element_spacing > 0.0:
            raise InvalidArgumentError("element_spacing must be positive")
        if not 0.0 <= self.aperture_diameter < math.inf:
            raise InvalidArgumentError("aperture_diameter must be finite and non-negative")
        if pos.shape[0]:
            # the max is NaN when any x or y is, and NaN fails the bound
            radial = np.hypot(pos[:, 0], pos[:, 1])
            if not radial.max() <= 0.5 * self.aperture_diameter * (1.0 + 1e-9) + 1e-12:
                raise InvalidArgumentError("active element outside the stated aperture disk")
            if not np.isfinite(pos[:, 2]).all():
                raise InvalidArgumentError("element heights must be finite")
        object.__setattr__(self, "positions", pos)

    @property
    def n_active(self) -> int:
        return self.positions.shape[0]


def make_planar_array(aperture_diameter: float, spacing: float,
                      fill_fraction: float = 1.0, seed: int = 0) -> ArrayLayout:
    """Square-grid elements inside a disk of the given diameter, centered at the origin.

    Grid indices (i, j) are kept when (i^2 + j^2) * spacing^2 <= (diameter/2)^2
    (boundary inclusive). With fill_fraction < 1 each kept element, in
    row-major order, stays active when its draw of default_rng(seed).random
    falls below fill_fraction.
    """
    if not aperture_diameter > 0.0 or not spacing > 0.0:
        raise InvalidArgumentError("aperture_diameter and spacing must be positive")
    if spacing >= aperture_diameter:
        raise InvalidArgumentError("spacing must be smaller than the aperture diameter")
    if not 0.0 < fill_fraction <= 1.0:
        raise InvalidArgumentError("fill_fraction must be in (0, 1]")

    half_idx = aperture_diameter / (2.0 * spacing)
    m = int(math.floor(half_idx * (1.0 + 1e-12)))
    idx = np.arange(-m, m + 1)
    ii, jj = np.meshgrid(idx, idx, indexing="ij")
    keep = (ii * ii + jj * jj) <= half_idx * half_idx * (1.0 + 1e-12)
    x = ii[keep] * spacing
    y = jj[keep] * spacing
    if fill_fraction < 1.0:
        active = np.random.default_rng(seed).random(x.shape[0]) < fill_fraction
        x, y = x[active], y[active]

    realized = 2.0 * float(np.hypot(x, y).max()) if x.shape[0] else 0.0
    # keep a non-degenerate aperture even for a single central element
    realized = max(realized, spacing)
    return ArrayLayout(np.column_stack([x, y, np.zeros_like(x)]), spacing, realized)


@dataclass(frozen=True)
class BeamCommand:
    """Steering order: focus point [m], total radiated power [W], per-active-element phases.

    Phases are stored normalized into [0, 2pi), one entry per active element in
    layout order.
    """

    target: np.ndarray
    total_radiated_power: float
    phases: np.ndarray = field(repr=False)

    def __post_init__(self):
        target = _frozen(self.target)
        if target.shape != (3,) or not np.isfinite(target).all():
            raise InvalidArgumentError("target must be a finite 3-D point")
        if not self.total_radiated_power > 0.0:
            raise InvalidArgumentError("total_radiated_power must be positive")
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1 or not np.isfinite(phases).all():
            raise InvalidArgumentError("phases must be a finite 1-D array")
        phases = _frozen(np.mod(phases, TWO_PI))
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "phases", phases)


def write_csv(path, header: str, columns) -> None:
    """Write a header line, then row k of the equal-length `columns` per line.

    A float cell is the repr of the Python float (shortest round-trip form),
    an integer cell its decimal digits and a string cell itself; lines end in
    LF. Cells are formatted a column and a slice of rows at a time.
    """
    with open(path, "w", newline="\n") as fh:
        fh.write(header + "\n")
        for a in range(0, len(columns[0]), _CSV_ROWS):
            cells = [col[a:a + _CSV_ROWS] for col in columns]
            cells = [map(repr if c.dtype.kind == "f" else str, c.tolist())
                     if isinstance(c, np.ndarray) else c for c in cells]
            fh.write("\n".join(map(",".join, zip(*cells))) + "\n")
