"""Mission simulation: farm visibility, greedy power assignment, fuel integration."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import JET_FUEL_SPECIFIC_ENERGY, STANDARD_GRAVITY
from .core import write_csv
from .errors import InvalidArgumentError, NoVisiblePanelError
from .link import (EfficiencyChain, ReceiverPanel, best_panel, default_panels, level_attitude,
                   world_panels)


@dataclass(frozen=True)
class Aircraft:
    """Turbo-electric airliner cruise model."""

    mass: float                   # kg
    lift_to_drag: float
    propulsive_efficiency: float  # electric motor + fan, fraction
    cruise_speed: float           # m/s
    fuel_burn_reference: float    # kg/h at reference cruise, turbofan only
    panels: list[ReceiverPanel] = field(default_factory=default_panels)

    def __post_init__(self):
        if not (self.mass > 0.0 and self.cruise_speed > 0.0 and self.fuel_burn_reference > 0.0):
            raise InvalidArgumentError("mass, cruise_speed and fuel_burn_reference must be positive")
        if not self.lift_to_drag > 1.0:
            raise InvalidArgumentError("lift_to_drag must exceed 1")
        if not 0.0 < self.propulsive_efficiency <= 1.0:
            raise InvalidArgumentError("propulsive_efficiency must be in (0, 1]")
        if not self.panels:
            raise InvalidArgumentError("aircraft needs at least one receiver panel")


@dataclass(frozen=True)
class FarmNetwork:
    """Ground farm sites with shared service limits."""

    farms: np.ndarray             # (m, 2) ground positions [m]
    input_cap: np.ndarray         # (m,) max grid draw per farm [W]
    max_scan_deg: float           # beam steering limit from zenith
    max_slant_range: float        # m

    def __post_init__(self):
        farms = np.atleast_2d(np.asarray(self.farms, dtype=float))
        if farms.size == 0:
            farms = farms.reshape(0, 2)
        if farms.ndim != 2 or farms.shape[1] != 2 or not np.isfinite(farms).all():
            raise InvalidArgumentError("farms must be an (m, 2) array of finite positions")
        caps = np.asarray(self.input_cap, dtype=float)
        if caps.ndim == 0:
            caps = np.full(farms.shape[0], float(caps))
        if caps.shape != (farms.shape[0],):
            raise InvalidArgumentError("input_cap must match the number of farms")
        if not np.all(caps >= 0.0):
            raise InvalidArgumentError("input caps must be non-negative")
        if not 0.0 < self.max_scan_deg < 90.0:
            raise InvalidArgumentError("max_scan_deg must be in (0, 90)")
        if not self.max_slant_range > 0.0:
            raise InvalidArgumentError("max_slant_range must be positive")
        for name, arr in (("farms", farms), ("input_cap", caps)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_farms(self) -> int:
        return self.farms.shape[0]

    @property
    def limits(self) -> tuple[float, float]:
        """Inclusive (slant, scan) bounds, padded so exact-boundary geometry survives rounding."""
        return self.max_slant_range * (1.0 + 1e-12), self.max_scan_deg + 1e-9

    @classmethod
    def empty(cls) -> "FarmNetwork":
        return cls(np.zeros((0, 2)), np.zeros(0), 60.0, 20e3)


@dataclass(frozen=True)
class FlightPlan:
    """Waypoint route flown at constant speed, sampled every `timestep` seconds."""

    waypoints: np.ndarray         # (k, 3) x, y, altitude [m]
    speed: float                  # m/s
    timestep: float = 10.0        # s
    # measured once, here: segment lengths, route length at each waypoint [m], steps
    segment_lengths: np.ndarray = field(init=False, repr=False)
    distance: np.ndarray = field(init=False, repr=False)
    n_steps: int = field(init=False)

    def __post_init__(self):
        wps = np.asarray(self.waypoints, dtype=float)
        if wps.ndim != 2 or wps.shape[1] != 3 or wps.shape[0] < 2:
            raise InvalidArgumentError("need at least 2 waypoints of (x, y, altitude)")
        if not np.all(wps[:, 2] > 0.0):
            raise InvalidArgumentError("waypoint altitude must be positive")
        if not (self.speed > 0.0 and self.timestep > 0.0):
            raise InvalidArgumentError("speed and timestep must be positive")
        seg_len = np.linalg.norm(np.diff(wps, axis=0), axis=1)
        if np.any(seg_len <= 0.0):
            raise InvalidArgumentError("consecutive waypoints must be distinct")
        cum = np.concatenate([[0.0], np.cumsum(seg_len)])
        steps = cum[-1] / self.speed / self.timestep - 1e-12
        if not math.isfinite(steps):
            raise InvalidArgumentError("the route must take a finite number of steps")
        for name, arr in (("waypoints", wps), ("segment_lengths", seg_len), ("distance", cum)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "n_steps", max(1, math.ceil(steps)))


def cruise_power(aircraft: Aircraft) -> float:
    """Electric power needed for steady level cruise [W]: m g V / (L/D * eta)."""
    return (aircraft.mass * STANDARD_GRAVITY * aircraft.cruise_speed
            / (aircraft.lift_to_drag * aircraft.propulsive_efficiency))


@dataclass(frozen=True)
class Visibility:
    visible: bool
    slant_range: float   # m
    scan_deg: float      # from zenith at the farm


def farm_visibility(farm_site, position, network: FarmNetwork) -> Visibility:
    """Slant range and zenith scan angle from a farm to an aircraft position."""
    fx, fy = float(farm_site[0]), float(farm_site[1])
    px, py, pz = (float(v) for v in position)
    if not pz > 0.0:
        raise InvalidArgumentError("aircraft altitude must be positive")
    slant = math.sqrt((px - fx) ** 2 + (py - fy) ** 2 + pz * pz)
    scan = math.degrees(math.acos(min(1.0, pz / slant)))
    slant_lim, scan_lim = network.limits
    visible = slant <= slant_lim and scan <= scan_lim
    return Visibility(visible, slant, scan)


# ---------------------------------------------------------------------------
# farm assignment
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FarmAssignment:
    """Outcome of one greedy assignment round (per-aircraft arrays)."""

    farm_index: np.ndarray    # serving farm per aircraft, -1 when unserved
    input_w: np.ndarray       # grid draw from the serving farm [W]
    delivered_w: np.ndarray   # power at the aircraft bus [W]
    shortfall_w: np.ndarray   # unmet need [W]
    spare_w: np.ndarray       # per-farm capacity left [W]


def assign_farms(required_w, visible, efficiencies, farm_caps_w) -> FarmAssignment:
    """Greedy delivered-power assignment of farms to aircraft.

    required_w: per-aircraft delivered-power need [W].
    visible[i]: farm indices visible to aircraft i.
    efficiencies[i][j]: end-to-end efficiency from visible[i][j] to aircraft i.
    farm_caps_w: per-farm input capacity [W].

    Aircraft with the fewest visible farms commit first (ties by aircraft
    index); each takes the single visible farm with the most spare capacity
    (ties by lowest farm index) and draws min(spare, need/efficiency). A farm
    may serve several aircraft up to its cap. Unmet demand is reported as
    shortfall, never raised.
    """
    required = np.asarray(required_w, dtype=float)
    n = required.shape[0]
    if len(visible) != n or len(efficiencies) != n:
        raise InvalidArgumentError("visible and efficiencies must match required_w length")
    spare = np.asarray(farm_caps_w, dtype=float).copy()
    farm_index = np.full(n, -1, dtype=int)
    input_w = np.zeros(n)
    delivered = np.zeros(n)

    order = sorted(range(n), key=lambda i: (len(visible[i]), i))
    for i in order:
        need = required[i]
        if need <= 0.0 or not len(visible[i]):
            continue
        choice = min(range(len(visible[i])),
                     key=lambda j: (-spare[visible[i][j]], visible[i][j]))
        farm = visible[i][choice]
        eff = float(efficiencies[i][choice])
        if eff <= 0.0 or spare[farm] <= 0.0:
            continue
        draw = min(spare[farm], need / eff)
        spare[farm] -= draw
        farm_index[i] = farm
        input_w[i] = draw
        delivered[i] = draw * eff

    shortfall = np.maximum(required - delivered, 0.0)
    return FarmAssignment(farm_index, input_w, delivered, shortfall, spare)


# ---------------------------------------------------------------------------
# mission integration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MissionTrace:
    """Per-timestep mission record plus integration metadata.

    Step k covers `weights[k]` seconds starting at `times[k]`; fuel_kg is the
    cumulative burn at the end of the step.
    """

    times: np.ndarray
    weights: np.ndarray
    positions: np.ndarray
    farm_index: np.ndarray
    slant_m: np.ndarray
    scan_deg: np.ndarray
    panel: list[str]
    cosine: np.ndarray
    required_w: np.ndarray
    delivered_w: np.ndarray
    fuel_rate_kg_s: np.ndarray
    fuel_kg: np.ndarray
    fuel_chain_efficiency: float
    reference_power_w: float

    @property
    def n_steps(self) -> int:
        return self.times.shape[0]

    @property
    def total_fuel_kg(self) -> float:
        return float(self.fuel_kg[-1]) if self.n_steps else 0.0

    @property
    def duration_s(self) -> float:
        return float(self.weights.sum())

    def to_csv(self, path) -> None:
        """Write the per-step trace columns (one header line, LF endings)."""
        write_csv(path, "t_s,x_m,y_m,z_m,farm_id,slant_m,scan_deg,panel,cosine,"
                  "delivered_W,fuel_rate_kg_s,fuel_kg",
                  [self.times, *self.positions.T, self.farm_index, self.slant_m,
                   self.scan_deg, self.panel, self.cosine, self.delivered_w,
                   self.fuel_rate_kg_s, self.fuel_kg])


def coverage_fraction(trace: MissionTrace) -> float:
    """Time-weighted fraction of the mission with delivered >= 0.95 * required."""
    if trace.n_steps == 0:
        raise InvalidArgumentError("trace is empty")
    served = trace.delivered_w >= 0.95 * trace.required_w
    return float((trace.weights * served).sum() / trace.weights.sum())


def _sample_route(plan: FlightPlan):
    """Step times, durations, positions, segment per step and segment headings.

    Each step covers `weights[k]` seconds; geometry is sampled at the step
    midpoint (halves the boundary error where coverage switches on or off).
    Step k flies segment `seg_idx[k]`, whose xy heading is `headings[seg_idx[k]]`.
    """
    wps, seg_len, cum = plan.waypoints, plan.segment_lengths, plan.distance
    seg = np.diff(wps, axis=0)
    total_t = cum[-1] / plan.speed
    starts = np.arange(plan.n_steps) * plan.timestep
    weights = np.minimum(plan.timestep, total_t - starts)
    times = starts + 0.5 * weights
    dist = times * plan.speed
    seg_idx = np.minimum(np.searchsorted(cum, dist, side="right") - 1, len(seg) - 1)
    frac = (dist - cum[seg_idx]) / seg_len[seg_idx]
    positions = wps[seg_idx] + frac[:, None] * seg[seg_idx]
    return times, weights, positions, seg_idx, seg[:, :2]


# Steps per array pass of simulate_mission. Fixed, so the (steps x farms)
# temporaries stay bounded whatever the route length; the result does not
# depend on it. At 128 farms each temporary is 64 kB; 256-step blocks raised
# the peak RSS of a run of route jobs by ~2 MB over 64 and were no faster.
_BLOCK = 64

# The array pass may round slant, scan and the panel cosines a few ulps away
# from the scalar farm_visibility / best_panel, so it keeps every pair within
# this band of a bound (relative for slant, degrees for scan, absolute for the
# cosine); _serve then decides each kept pair.
_BAND = 1e-9


def _serve(site, position, network: FarmNetwork, facing):
    """Visibility, panel and cosine of one farm-aircraft pair; None when it cannot serve."""
    v = farm_visibility(site, position, network)
    if not v.visible:
        return None
    beam = np.array([position[0] - site[0], position[1] - site[1], position[2]]) / v.slant_range
    try:
        panel, cos_inc = best_panel(facing, beam)
    except NoVisiblePanelError:
        return None
    return v, panel, cos_inc


def _candidates(positions, seg_idx, facing, network: FarmNetwork) -> np.ndarray:
    """(steps x farms) mask of the pairs _serve may accept.

    One array pass over slant, scan and the best panel cosine, each widened by
    _BAND at its bound, so it holds every pair _serve accepts.
    """
    farms = network.farms
    dx = positions[:, 0, None] - farms[None, :, 0]
    dy = positions[:, 1, None] - farms[None, :, 1]
    pz = positions[:, 2, None]
    slant = np.sqrt(dx * dx + dy * dy + pz * pz)
    scan = np.degrees(np.arccos(np.minimum(1.0, pz / slant)))
    slant_lim, scan_lim = network.limits
    # best cosine n . b over the inward normals n of facing[segment], b = (dx, dy, pz) / slant
    segs, step_seg = np.unique(seg_idx, return_inverse=True)
    normals = np.array([[n for _, n in facing[s]] for s in segs.tolist()])[step_seg]
    best = np.full(slant.shape, -np.inf)
    for nx, ny, nz in normals.transpose(1, 2, 0)[..., None]:
        np.maximum(best, dx * nx + dy * ny + pz * nz, out=best)
    return ((slant <= slant_lim * (1.0 + _BAND)) & (scan <= scan_lim + _BAND)
            & (best / slant > -_BAND))


def _burn(required, delivered, weights, fuel_chain_eff):
    """Fuel rate that covers the unmet power [kg/s], and its running total [kg]."""
    # a fully served step leaves required - delivered at about -1 ulp
    rate = (np.maximum(required - delivered, 0.0)
            / (JET_FUEL_SPECIFIC_ENERGY * fuel_chain_eff))
    # add.accumulate adds left to right, so each total has the bits of a per-step `+=`
    return rate, np.add.accumulate(rate * weights)


def simulate_mission(plan: FlightPlan, aircraft: Aircraft, network: FarmNetwork,
                     chain: EfficiencyChain) -> MissionTrace:
    """Fly the plan, beaming power from the largest-cap usable farm.

    Required power is the cruise power at the aircraft's mass on every step.
    A farm is usable when it sees the aircraft within its slant and scan
    limits and some panel faces the beam; the step is served by the usable
    farm with the largest input cap (lowest index on ties), through the chain
    with its incidence stage replaced by that farm's best-panel cosine,
    drawing at most the cap. The residual comes from fuel at a burn rate
    calibrated so the fuel-only case reproduces the aircraft's reference burn
    at reference cruise power; the cumulative burn is a running sum.

    An array pass over each block of steps x farms only prunes the pairs no
    farm_visibility / best_panel call could accept. Those scalar calls decide:
    each step walks its remaining farms from the largest cap down and takes
    the first they accept, whose slant, scan, panel and cosine are reported.
    """
    times, weights, positions, seg_idx, headings = _sample_route(plan)
    n = times.shape[0]

    p_ref = cruise_power(aircraft)
    burn_ref = aircraft.fuel_burn_reference / 3600.0            # kg/s
    fuel_chain_eff = p_ref / (JET_FUEL_SPECIFIC_ENERGY * burn_ref)

    # the heading, and so each panel's world normal, is constant along a segment
    facing = {s: world_panels(aircraft.panels, level_attitude(headings[s]))
              for s in np.unique(seg_idx).tolist()}

    farm_index = np.full(n, -1, dtype=int)
    slant = np.full(n, math.nan)
    scan = np.full(n, math.nan)
    panel_lbl = ["-"] * n
    cosine = np.full(n, math.nan)
    required = np.full(n, p_ref)
    delivered = np.zeros(n)

    # the walk order: largest cap first, lowest index on ties; a zero cap
    # serves nothing, and nor does any farm after it in this order
    order = np.argsort(-network.input_cap, kind="stable")
    order = order[network.input_cap[order] > 0.0]
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        usable = _candidates(positions[block], seg_idx[block], facing, network)[:, order]
        for i in np.flatnonzero(usable.any(axis=1)):
            k = start + i
            for j in order[usable[i]]:
                served = _serve(network.farms[j], positions[k], network, facing[seg_idx[k]])
                if served is not None:
                    break
            else:
                continue
            v, panel, cos_inc = served
            eff = chain.at_incidence(cos_inc)
            if p_ref > 0.0 and eff > 0.0:
                delivered[k] = min(network.input_cap[j], p_ref / eff) * eff
                farm_index[k] = j
                slant[k], scan[k], panel_lbl[k], cosine[k] = (
                    v.slant_range, v.scan_deg, panel.label, cos_inc)

    fuel_rate, fuel = _burn(required, delivered, weights, fuel_chain_eff)
    return MissionTrace(times, weights, positions, farm_index, slant, scan,
                        panel_lbl, cosine, required, delivered, fuel_rate, fuel,
                        fuel_chain_eff, p_ref)


def mission_summary(trace: MissionTrace) -> dict:
    """Coverage, fuel totals and savings against a fuel-only flight, whose burn is
    the trace's own fuel path with nothing delivered."""
    fuel = trace.total_fuel_kg
    base = float(_burn(trace.required_w, 0.0, trace.weights,
                       trace.fuel_chain_efficiency)[1][-1])
    return {
        "coverage_fraction": coverage_fraction(trace),
        "duration_s": trace.duration_s,
        "total_fuel_kg": fuel,
        "fuel_only_baseline_kg": base,
        "fuel_saved_kg": base - fuel,
        "fuel_saved_fraction": (base - fuel) / base if base > 0.0 else 0.0,
        "fuel_chain_efficiency": trace.fuel_chain_efficiency,
        "reference_cruise_power_w": trace.reference_power_w,
    }
