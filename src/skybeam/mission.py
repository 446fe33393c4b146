"""Mission simulation: aircraft attitude and panel choice, farm visibility,
the serving farm of each step, fuel integration."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import JET_FUEL_SPECIFIC_ENERGY
from .core import write_csv
from .errors import InvalidArgumentError, NoVisiblePanelError
from .link import (PANEL_LABELS, Aircraft, EfficiencyChain, FarmNetwork, FlightPlan,
                   ReceiverPanel, cruise_power, check_heading)


def level_attitude(heading) -> np.ndarray:
    """Body-to-world rotation for level flight with the nose along `heading` (xy)."""
    check_heading(float(heading[0]), float(heading[1]))
    fwd = np.array([heading[0], heading[1], 0.0], dtype=float)
    fwd /= np.linalg.norm(fwd)
    up = np.array([0.0, 0.0, 1.0])
    left = np.cross(up, fwd)
    return np.column_stack([fwd, left, up])


def world_panels(panels, attitude) -> list[tuple[ReceiverPanel, np.ndarray]]:
    """Each panel with its inward world normal -(attitude @ normal), for a finite
    (3, 3) body-to-world attitude, in tie-break order: PANEL_LABELS order first,
    then other labels, list position breaking ties."""
    if not panels:
        raise InvalidArgumentError("need at least one panel")
    rot = np.asarray(attitude, dtype=float)
    if rot.shape != (3, 3) or not np.isfinite(rot).all():
        raise InvalidArgumentError("attitude must be a finite 3x3 rotation matrix")
    rank = {label: i for i, label in enumerate(PANEL_LABELS)}
    ordered = sorted(panels, key=lambda p: rank.get(p.label, len(PANEL_LABELS)))
    return [(panel, -(rot @ np.asarray(panel.normal))) for panel in ordered]


def best_panel(facing, beam_direction) -> tuple[ReceiverPanel, float]:
    """Panel with the largest incidence cosine for an incoming beam: the first in
    `facing` (world_panels of the aircraft) with the largest inward normal .
    beam_direction, the unit farm-to-aircraft vector in the world frame. Raises
    NoVisiblePanelError when every cosine is <= 0."""
    b = np.asarray(beam_direction, dtype=float)
    if not abs(np.linalg.norm(b) - 1.0) <= 1e-9:
        raise InvalidArgumentError("beam_direction must be a unit vector")
    chosen, best = None, -math.inf
    for panel, normal in facing:
        cosine = float(normal @ b)
        if cosine > best:
            chosen, best = panel, cosine
    if not best > 0.0:
        raise NoVisiblePanelError("no panel faces the beam (aircraft shadowed)")
    return chosen, best


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
    """Greedy delivered-power assignment of farms to aircraft. No command calls it:
    it is the single-aircraft oracle of the tests' reference_mission; perfbench wraps it.

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
    wps, seg_len, cum = map(np.asarray, (plan.waypoints, plan.segment_lengths, plan.distance))
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


def _candidates(positions, normals, farms, network: FarmNetwork) -> np.ndarray:
    """(steps x farms) mask of the pairs _serve may accept, from each step's
    (panels x 3) inward world normals and the (farms x 2) sites.

    One array pass over slant, scan and the best panel cosine, each widened by
    _BAND at its bound, so it holds every pair _serve accepts.
    """
    dx = positions[:, 0, None] - farms[None, :, 0]
    dy = positions[:, 1, None] - farms[None, :, 1]
    pz = positions[:, 2, None]
    slant = np.sqrt(dx * dx + dy * dy + pz * pz)
    scan = np.degrees(np.arccos(np.minimum(1.0, pz / slant)))
    slant_lim, scan_lim = network.limits
    # best cosine n . b over the inward normals n, b = (dx, dy, pz) / slant
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

    # the heading, and so each panel's world normal, is constant along a segment;
    # the prefilter reads the normals as one (segments x panels x 3) array
    facing = {s: world_panels(aircraft.panels, level_attitude(headings[s]))
              for s in np.unique(seg_idx).tolist()}
    normals = np.zeros((len(headings), len(aircraft.panels), 3))
    for s, seg_facing in facing.items():
        normals[s] = [normal for _, normal in seg_facing]
    farms = np.asarray(network.farms).reshape(-1, 2)
    caps = np.asarray(network.input_cap)

    farm_index = np.full(n, -1, dtype=int)
    slant = np.full(n, math.nan)
    scan = np.full(n, math.nan)
    panel_lbl = ["-"] * n
    cosine = np.full(n, math.nan)
    required = np.full(n, p_ref)
    delivered = np.zeros(n)

    # the walk order: largest cap first, lowest index on ties; a zero cap
    # serves nothing, and nor does any farm after it in this order
    order = np.argsort(-caps, kind="stable")
    order = order[caps[order] > 0.0]
    for start in range(0, n, _BLOCK):
        block = slice(start, start + _BLOCK)
        usable = _candidates(positions[block], normals[seg_idx[block]], farms,
                             network)[:, order]
        for i in np.flatnonzero(usable.any(axis=1)):
            k = start + i
            for j in order[usable[i]]:
                served = _serve(farms[j], positions[k], network, facing[seg_idx[k]])
                if served is not None:
                    break
            else:
                continue
            v, panel, cos_inc = served
            eff = chain.at_incidence(cos_inc)
            if p_ref > 0.0 and eff > 0.0:
                delivered[k] = min(caps[j], p_ref / eff) * eff
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
