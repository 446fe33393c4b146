"""Link budget: efficiency chain, receiver panels, safety power densities."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import RfSpec
from .errors import InvalidArgumentError, NoVisiblePanelError
from .field import first_null_spot_diameter

# Tie-break precedence when two panels see the beam equally well.
PANEL_LABELS = ("underside", "lower-front", "lower-tail")


@dataclass(frozen=True)
class EfficiencyChain:
    """Multiplicative grid-to-shaft power budget; every stage is a fraction in [0, 1].

    Stages: DC to RF conversion at the farm, beam collection by the receiver
    footprint, incidence cosine at the panel, RF to DC rectification.
    """

    dc_to_rf: float
    beam_collection: float
    incidence_cosine: float
    rf_to_dc: float

    def __post_init__(self):
        for name in ("dc_to_rf", "beam_collection", "incidence_cosine", "rf_to_dc"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise InvalidArgumentError(f"{name} must be in [0, 1], got {v}")

    @property
    def end_to_end(self) -> float:
        return self.dc_to_rf * self.beam_collection * self.incidence_cosine * self.rf_to_dc

    def with_incidence(self, cosine: float) -> "EfficiencyChain":
        """Same chain with the incidence-cosine stage replaced (dynamic geometry)."""
        return EfficiencyChain(self.dc_to_rf, self.beam_collection, cosine, self.rf_to_dc)


def delivered_power(input_power: float, chain: EfficiencyChain) -> float:
    """DC watts at the aircraft bus for a given grid input power."""
    if input_power < 0.0:
        raise InvalidArgumentError("input_power must be non-negative")
    return input_power * chain.end_to_end


# ---------------------------------------------------------------------------
# receiver panels
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReceiverPanel:
    """Rectenna patch on the airframe.

    normal: outward unit normal in the body frame (x forward, z up, so the
    underside panel points along -z). area in m^2.
    """

    label: str
    normal: np.ndarray
    area: float
    rf_to_dc: float

    def __post_init__(self):
        n = np.array(self.normal, dtype=float)
        if n.shape != (3,) or abs(np.linalg.norm(n) - 1.0) > 1e-9:
            raise InvalidArgumentError("panel normal must be a 3-D unit vector")
        if not self.area > 0.0:
            raise InvalidArgumentError("panel area must be positive")
        if not 0.0 <= self.rf_to_dc <= 1.0:
            raise InvalidArgumentError("rf_to_dc must be in [0, 1]")
        n.setflags(write=False)
        object.__setattr__(self, "normal", n)


def default_panels() -> list[ReceiverPanel]:
    """Stock single-aisle receiver fit: belly patch plus 60-degree nose/tail
    wedges, each rectifying at 85 %."""
    s60, c60 = math.sin(math.radians(60.0)), math.cos(math.radians(60.0))
    return [
        ReceiverPanel("underside", np.array([0.0, 0.0, -1.0]), 40.0, 0.85),
        ReceiverPanel("lower-front", np.array([s60, 0.0, -c60]), 15.0, 0.85),
        ReceiverPanel("lower-tail", np.array([-s60, 0.0, -c60]), 15.0, 0.85),
    ]


def level_attitude(heading) -> np.ndarray:
    """Body-to-world rotation for level flight with the nose along `heading` (xy)."""
    h = np.asarray(heading, dtype=float)
    fwd = np.array([h[0], h[1], 0.0])
    norm = np.linalg.norm(fwd)
    if norm < 1e-12:
        raise InvalidArgumentError("heading must have a horizontal component")
    fwd /= norm
    up = np.array([0.0, 0.0, 1.0])
    left = np.cross(up, fwd)
    return np.column_stack([fwd, left, up])


def best_panel(panels, beam_direction, attitude) -> tuple[ReceiverPanel, float]:
    """Panel with the largest incidence cosine for an incoming beam.

    beam_direction: unit propagation vector (farm toward aircraft), world
    frame. attitude: (3, 3) body-to-world rotation. The cosine is
    -world_normal . beam_direction; ties break by PANEL_LABELS order, then by
    list position. Raises NoVisiblePanelError when every cosine is <= 0.
    """
    if not panels:
        raise InvalidArgumentError("need at least one panel")
    b = np.asarray(beam_direction, dtype=float)
    if abs(np.linalg.norm(b) - 1.0) > 1e-9:
        raise InvalidArgumentError("beam_direction must be a unit vector")
    rot = np.asarray(attitude, dtype=float)
    if rot.shape != (3, 3):
        raise InvalidArgumentError("attitude must be a 3x3 rotation matrix")

    def rank(label: str) -> int:
        return PANEL_LABELS.index(label) if label in PANEL_LABELS else len(PANEL_LABELS)

    best: tuple[float, int, int] | None = None
    chosen = None
    for i, panel in enumerate(panels):
        cosine = float(-(rot @ panel.normal) @ b)
        key = (-cosine, rank(panel.label), i)
        if best is None or key < best:
            best = key
            chosen = (panel, cosine)
    assert chosen is not None
    if chosen[1] <= 0.0:
        raise NoVisiblePanelError("no panel faces the beam (aircraft shadowed)")
    return chosen


# ---------------------------------------------------------------------------
# safety densities
# ---------------------------------------------------------------------------

def farm_surface_density(input_power: float, farm_area: float) -> float:
    """Mean emitted power density over the farm surface [W/m^2]."""
    if farm_area <= 0.0:
        raise InvalidArgumentError("farm_area must be positive")
    if input_power < 0.0:
        raise InvalidArgumentError("input_power must be non-negative")
    return input_power / farm_area


def reflected_ground_density(reflected_power: float, spot_diameter: float,
                             rf: RfSpec, range_m: float) -> float:
    """Worst-case ground power density from a flat-plate reflection [W/m^2].

    The lit spot re-radiates as an aperture of its own diameter, so the ground
    patch diameter is max(spot, 1.22 lambda R / spot) and the density is the
    reflected power over that patch. A deliberate safety screen, not a radar
    cross-section computation.
    """
    if reflected_power < 0.0:
        raise InvalidArgumentError("reflected_power must be non-negative")
    if spot_diameter <= 0.0 or range_m < 0.0:
        raise InvalidArgumentError("spot_diameter must be positive, range non-negative")
    if reflected_power == 0.0:
        return 0.0
    ground_diameter = spot_diameter
    if range_m > 0.0:
        ground_diameter = max(
            spot_diameter, first_null_spot_diameter(spot_diameter, rf, range_m))
    return reflected_power / (math.pi * (0.5 * ground_diameter) ** 2)
