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


def element_size_for(frequency: float) -> float:
    """Edge length of one emitting tile [m]: half the carrier wavelength.

    Half-wavelength pitch keeps the beam steerable over the full sky without
    grating lobes, so the tile edge equals 0.5 * c / frequency.
    """
    if frequency <= 0.0:
        raise InvalidArgumentError("frequency must be positive")
    return 0.5 * SPEED_OF_LIGHT / frequency


@dataclass(frozen=True)
class ArrayLayout:
    """Planar farm array: element centers, grid pitch, realized aperture, fill mask.

    positions: (n, 3) element centers [m]; z = 0 for a flat farm.
    element_spacing: grid pitch [m].
    aperture_diameter: diameter of the smallest origin-centered disk holding
        every active element [m]; equals the max pairwise horizontal extent
        for symmetric full grids.
    fill_mask: (n,) bool, True where the element is active.
    element_amplitude: radiated power per active element [W], uniform.
    """

    positions: np.ndarray
    element_spacing: float
    aperture_diameter: float
    fill_mask: np.ndarray
    element_amplitude: float = 1.0

    def __post_init__(self):
        pos = _frozen(self.positions)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise InvalidArgumentError("positions must be a non-empty (n, 3) array")
        mask = _frozen(self.fill_mask, dtype=bool)
        if mask.shape != (pos.shape[0],):
            raise InvalidArgumentError("fill_mask length must match positions")
        if self.element_spacing <= 0.0:
            raise InvalidArgumentError("element_spacing must be positive")
        if self.element_amplitude <= 0.0:
            raise InvalidArgumentError("element_amplitude must be positive")
        if mask.any():
            radial = np.hypot(pos[mask, 0], pos[mask, 1])
            if radial.max() > 0.5 * self.aperture_diameter * (1.0 + 1e-9) + 1e-12:
                raise InvalidArgumentError("active element outside the stated aperture disk")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "fill_mask", mask)

    @property
    def n_elements(self) -> int:
        return self.positions.shape[0]

    @property
    def n_active(self) -> int:
        return int(self.fill_mask.sum())

    @property
    def active_positions(self) -> np.ndarray:
        return self.positions[self.fill_mask]

    @property
    def fill_fraction(self) -> float:
        return self.n_active / self.n_elements

    def thinned(self, fill_fraction: float, seed: int) -> "ArrayLayout":
        """Same geometry with elements deactivated Bernoulli(fill_fraction) per element."""
        if not 0.0 < fill_fraction <= 1.0:
            raise InvalidArgumentError("fill_fraction must be in (0, 1]")
        rng = np.random.default_rng(seed)
        mask = self.fill_mask & (rng.random(self.n_elements) < fill_fraction)
        return ArrayLayout(self.positions, self.element_spacing, self.aperture_diameter,
                           mask, self.element_amplitude)


def make_planar_array(aperture_diameter: float, spacing: float,
                      fill_fraction: float = 1.0, seed: int = 0,
                      element_amplitude: float = 1.0) -> ArrayLayout:
    """Square-grid elements inside a disk of the given diameter, centered at the origin.

    Grid indices (i, j) are kept when (i^2 + j^2) * spacing^2 <= (diameter/2)^2
    (boundary inclusive). With fill_fraction < 1 elements are deactivated
    uniformly at random; the draw is fully determined by `seed`.
    """
    if aperture_diameter <= 0.0 or spacing <= 0.0:
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
    positions = np.column_stack([x, y, np.zeros_like(x)])

    n = positions.shape[0]
    if fill_fraction < 1.0:
        rng = np.random.default_rng(seed)
        mask = rng.random(n) < fill_fraction
    else:
        mask = np.ones(n, dtype=bool)

    if mask.any():
        realized = 2.0 * float(np.hypot(x[mask], y[mask]).max())
    else:
        realized = 0.0
    # keep a non-degenerate aperture even for a single central element
    realized = max(realized, spacing)
    return ArrayLayout(positions, spacing, realized, mask, element_amplitude)


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
        if target.shape != (3,):
            raise InvalidArgumentError("target must be a 3-D point")
        if self.total_radiated_power <= 0.0:
            raise InvalidArgumentError("total_radiated_power must be positive")
        phases = np.asarray(self.phases, dtype=float)
        if phases.ndim != 1:
            raise InvalidArgumentError("phases must be a 1-D array")
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
