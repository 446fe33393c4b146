"""Cruise power, visibility gating, greedy assignment, mission integration."""

import math

import numpy as np
import pytest

import skybeam as sb
from skybeam import mission
from skybeam.errors import InvalidArgumentError, NoVisiblePanelError


def a320() -> sb.Aircraft:
    return sb.Aircraft(mass=50_000.0, lift_to_drag=18.0, propulsive_efficiency=0.6,
                       cruise_speed=250.0, fuel_burn_reference=2400.0)


def default_chain() -> sb.EfficiencyChain:
    return sb.EfficiencyChain(0.5, 0.47058823529411764, 1.0, 0.85)


def test_cruise_power_reference_case():
    p = sb.cruise_power(a320())
    assert p == pytest.approx(11_350_289.351851853, rel=1e-12)
    assert p == pytest.approx(11.35e6, rel=1e-3)


def test_cruise_power_linearity_and_limits():
    base = sb.cruise_power(a320())
    heavy = sb.Aircraft(100_000.0, 18.0, 0.6, 250.0, 2400.0)
    assert sb.cruise_power(heavy) == pytest.approx(2 * base, rel=1e-12)
    slick = sb.Aircraft(50_000.0, 1800.0, 1.0, 250.0, 2400.0)
    assert sb.cruise_power(slick) == pytest.approx(base * 0.6 * 18 / 1800, rel=1e-12)


def test_aircraft_validation():
    with pytest.raises(InvalidArgumentError):
        sb.Aircraft(-1.0, 18.0, 0.6, 250.0, 2400.0)
    with pytest.raises(InvalidArgumentError):
        sb.Aircraft(50_000.0, 0.9, 0.6, 250.0, 2400.0)
    with pytest.raises(InvalidArgumentError):
        sb.Aircraft(50_000.0, 18.0, 1.3, 250.0, 2400.0)


# ---------------------------------------------------------------------------
# visibility
# ---------------------------------------------------------------------------

def _network(sites, caps=100e6, scan=45.0, slant=20_000.0):
    sites = np.asarray(sites, dtype=float).reshape(-1, 2)
    return sb.FarmNetwork(sites, caps, scan, slant)


def test_visibility_overhead():
    net = _network([[0.0, 0.0]])
    v = sb.farm_visibility([0.0, 0.0], [0.0, 0.0, 10_000.0], net)
    assert v.visible and v.scan_deg == pytest.approx(0.0, abs=1e-12)
    assert v.slant_range == pytest.approx(10_000.0, rel=1e-12)


def test_visibility_45_degrees():
    net = _network([[0.0, 0.0]])
    v = sb.farm_visibility([0.0, 0.0], [10_000.0, 0.0, 10_000.0], net)
    assert v.scan_deg == pytest.approx(45.0, abs=1e-9)
    assert v.slant_range == pytest.approx(14_142.135623730951, rel=1e-12)
    assert v.visible


def test_visibility_60_degree_boundary():
    net = _network([[0.0, 0.0]], scan=60.0, slant=20_000.0)
    offset = 10_000.0 * math.sqrt(3.0)  # 17.32 km
    v = sb.farm_visibility([0.0, 0.0], [offset, 0.0, 10_000.0], net)
    assert v.scan_deg == pytest.approx(60.0, abs=1e-9)
    assert v.slant_range == pytest.approx(20_000.0, rel=1e-12)
    assert v.visible  # boundary inclusive
    tight = _network([[0.0, 0.0]], scan=59.9, slant=20_000.0)
    assert not sb.farm_visibility([0.0, 0.0], [offset, 0.0, 10_000.0], tight).visible


def test_visibility_limits_are_padded():
    # inclusive bounds, padded once for farm_visibility and the mission's prefilter
    net = _network([[0.0, 0.0]], scan=60.0, slant=20_000.0)
    assert net.limits == (20_000.0 * (1.0 + 1e-12), 60.0 + 1e-9)


# ---------------------------------------------------------------------------
# assignment
# ---------------------------------------------------------------------------

def test_single_aircraft_fully_served():
    res = sb.assign_farms([10e6], [[0]], [[0.2]], [100e6])
    assert res.farm_index[0] == 0
    assert res.delivered_w[0] == pytest.approx(10e6, rel=1e-12)
    assert res.shortfall_w[0] == pytest.approx(0.0, abs=1e-6)
    assert res.input_w[0] == pytest.approx(50e6, rel=1e-12)


def test_two_aircraft_share_one_farm():
    # both need cruise power through a 20 % chain from a single 100 MW farm:
    # the first is served fully, the second gets what capacity remains
    need = sb.cruise_power(a320())
    res = sb.assign_farms([need, need], [[0], [0]], [[0.2], [0.2]], [100e6])
    first_draw = need / 0.2
    spare = 100e6 - first_draw
    assert res.delivered_w[0] == pytest.approx(need, rel=1e-12)
    assert res.input_w[0] == pytest.approx(first_draw, rel=1e-12)
    assert res.delivered_w[1] == pytest.approx(spare * 0.2, rel=1e-12)
    assert res.shortfall_w[1] == pytest.approx(need - spare * 0.2, rel=1e-12)
    assert res.delivered_w[1] == pytest.approx(8.65e6, rel=1e-2)
    assert res.shortfall_w[1] == pytest.approx(2.70e6, rel=1e-2)
    assert res.spare_w[0] == pytest.approx(0.0, abs=1e-6)


def test_no_visible_farms_full_shortfall():
    res = sb.assign_farms([5e6], [[]], [[]], [100e6])
    assert res.farm_index[0] == -1
    assert res.delivered_w[0] == 0.0
    assert res.shortfall_w[0] == 5e6


def test_fewest_options_commit_first():
    # aircraft 1 sees only farm 0; aircraft 0 sees both and must yield
    res = sb.assign_farms([10e6, 10e6], [[0, 1], [0]],
                          [[0.2, 0.2], [0.2]], [50e6, 50e6])
    assert res.farm_index[1] == 0
    assert res.farm_index[0] == 1
    assert np.all(res.shortfall_w == 0.0)


def test_assignment_never_exceeds_caps_and_is_deterministic():
    rng = np.random.default_rng(17)
    for _ in range(30):
        n_air = rng.integers(1, 6)
        n_farm = rng.integers(1, 5)
        caps = rng.uniform(1e6, 80e6, n_farm)
        required = rng.uniform(1e6, 30e6, n_air)
        visible = []
        effs = []
        for _ in range(n_air):
            k = rng.integers(0, n_farm + 1)
            farms = sorted(rng.choice(n_farm, size=k, replace=False).tolist())
            visible.append(farms)
            effs.append([float(rng.uniform(0.05, 0.3)) for _ in farms])
        a = sb.assign_farms(required, visible, effs, caps)
        b = sb.assign_farms(required, visible, effs, caps)
        assert np.array_equal(a.farm_index, b.farm_index)
        assert np.array_equal(a.input_w, b.input_w)
        drawn = np.zeros(n_farm)
        for i, farm in enumerate(a.farm_index):
            if farm >= 0:
                drawn[farm] += a.input_w[i]
        assert np.all(drawn <= caps * (1 + 1e-12))
        assert np.all(a.delivered_w + a.shortfall_w ==
                      pytest.approx(required, rel=1e-9))


# ---------------------------------------------------------------------------
# mission integration
# ---------------------------------------------------------------------------

def _straight_plan(length_m=200_000.0, altitude=10_000.0, dt=10.0):
    wps = np.array([[0.0, 0.0, altitude], [length_m, 0.0, altitude]])
    return sb.FlightPlan(wps, 250.0, dt)


def test_empty_network_reproduces_reference_burn():
    plan = _straight_plan()
    trace = sb.simulate_mission(plan, a320(), sb.FarmNetwork.empty(), default_chain())
    hours = trace.duration_s / 3600.0
    assert trace.total_fuel_kg == pytest.approx(2400.0 * hours, rel=1e-12)
    assert sb.coverage_fraction(trace) == 0.0
    assert trace.fuel_chain_efficiency == pytest.approx(0.395, abs=5e-4)


def test_full_coverage_burns_almost_nothing():
    plan = _straight_plan()
    farms = [[x, 0.0] for x in np.arange(0.0, 220_000.0, 31_600.0)]
    net = sb.FarmNetwork(np.array(farms), 100e6, 60.0, 20_000.0)
    trace = sb.simulate_mission(plan, a320(), net, default_chain())
    baseline = sb.simulate_mission(plan, a320(), sb.FarmNetwork.empty(),
                                   default_chain())
    assert sb.coverage_fraction(trace) == 1.0
    assert trace.total_fuel_kg <= 0.01 * baseline.total_fuel_kg


def test_energy_bookkeeping_per_step():
    plan = _straight_plan(length_m=100_000.0)
    farms = [[40_000.0, 5_000.0], [90_000.0, -12_000.0]]
    net = sb.FarmNetwork(np.array(farms), 100e6, 60.0, 20_000.0)
    trace = sb.simulate_mission(plan, a320(), net, default_chain())
    fuel_power = (trace.fuel_rate_kg_s * sb.JET_FUEL_SPECIFIC_ENERGY
                  * trace.fuel_chain_efficiency)
    assert np.allclose(trace.required_w, trace.delivered_w + fuel_power,
                       rtol=1e-9, atol=1e-6)
    # partially-covered run: some steps served, some not
    assert 0.0 < sb.coverage_fraction(trace) < 1.0


def test_delivered_never_exceeds_cap_times_chain():
    plan = _straight_plan(length_m=100_000.0)
    cap = 40e6
    net = sb.FarmNetwork(np.array([[50_000.0, 0.0]]), cap, 60.0, 20_000.0)
    chain = default_chain()
    trace = sb.simulate_mission(plan, a320(), net, chain)
    # incidence cosine can only reduce the chain below its static product
    limit = cap * chain.at_incidence(1.0)
    assert np.all(trace.delivered_w <= limit * (1 + 1e-12))


def test_beaming_never_increases_fuel():
    plan = _straight_plan(length_m=150_000.0)
    net = sb.FarmNetwork(np.array([[70_000.0, 3_000.0]]), 100e6, 60.0, 20_000.0)
    with_net = sb.simulate_mission(plan, a320(), net, default_chain())
    without = sb.simulate_mission(plan, a320(), sb.FarmNetwork.empty(), default_chain())
    assert with_net.total_fuel_kg < without.total_fuel_kg
    assert np.all(np.diff(with_net.fuel_kg) >= -1e-12)


def test_timestep_convergence():
    # coverage edges are step functions, so per-boundary time quantization is
    # bounded by half a step; one farm on a 700 km leg keeps the worst-case
    # halving change well under 1 %
    plan_10 = _straight_plan(length_m=700_000.0, dt=10.0)
    plan_5 = _straight_plan(length_m=700_000.0, dt=5.0)
    net = sb.FarmNetwork(np.array([[350_000.0, 8_000.0]]), 100e6, 60.0, 20_000.0)
    f10 = sb.simulate_mission(plan_10, a320(), net, default_chain()).total_fuel_kg
    f5 = sb.simulate_mission(plan_5, a320(), net, default_chain()).total_fuel_kg
    assert abs(f10 - f5) / f5 < 0.01


def test_simulation_deterministic():
    plan = _straight_plan(length_m=90_000.0)
    net = sb.FarmNetwork(np.array([[30_000.0, 2_000.0], [70_000.0, -4_000.0]]),
                         50e6, 60.0, 20_000.0)
    a = sb.simulate_mission(plan, a320(), net, default_chain())
    b = sb.simulate_mission(plan, a320(), net, default_chain())
    assert np.array_equal(a.delivered_w, b.delivered_w)
    assert np.array_equal(a.fuel_kg, b.fuel_kg)
    assert a.panel == b.panel


def test_trace_csv_format(tmp_path):
    plan = _straight_plan(length_m=20_000.0)
    net = sb.FarmNetwork(np.array([[10_000.0, 0.0]]), 100e6, 60.0, 20_000.0)
    trace = sb.simulate_mission(plan, a320(), net, default_chain())
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == ("t_s,x_m,y_m,z_m,farm_id,slant_m,scan_deg,panel,cosine,"
                        "delivered_W,fuel_rate_kg_s,fuel_kg")
    assert len(lines) == 1 + trace.n_steps
    cells = lines[1].split(",")
    assert len(cells) == 12
    assert cells[4] == "0"  # serving farm id


def test_mission_summary_contents():
    plan = _straight_plan(length_m=60_000.0)
    net = sb.FarmNetwork(np.array([[30_000.0, 0.0]]), 100e6, 60.0, 20_000.0)
    trace = sb.simulate_mission(plan, a320(), net, default_chain())
    baseline = sb.simulate_mission(plan, a320(), sb.FarmNetwork.empty(),
                                   default_chain())
    summary = sb.mission_summary(trace)
    assert summary["fuel_only_baseline_kg"] == pytest.approx(
        2400.0 * trace.duration_s / 3600.0, rel=1e-12)
    assert summary["fuel_only_baseline_kg"] == baseline.total_fuel_kg
    assert summary["fuel_saved_kg"] == baseline.total_fuel_kg - trace.total_fuel_kg
    assert 0.0 < summary["coverage_fraction"] <= 1.0


def test_plan_validation():
    with pytest.raises(InvalidArgumentError):
        sb.FlightPlan(np.array([[0.0, 0.0, 10_000.0]]), 250.0)
    with pytest.raises(InvalidArgumentError):
        sb.FlightPlan(np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 10.0]]), 250.0)
    with pytest.raises(InvalidArgumentError):
        sb.FlightPlan(np.array([[0.0, 0.0, 10.0], [1.0, 0.0, 10.0]]), 0.0)
    with pytest.raises(InvalidArgumentError, match="distinct"):
        sb.FlightPlan(np.array([[0.0, 0.0, 10.0], [1.0, 0.0, 10.0], [1.0, 0.0, 10.0]]), 250.0)
    with pytest.raises(InvalidArgumentError, match="finite"):
        sb.FlightPlan(np.array([[0.0, 0.0, 10.0], [math.nan, 0.0, 10.0]]), 250.0)


def test_plan_counts_its_steps():
    # 1000 m at 250 m/s is 4 s: two full 1.5 s steps and one of 1 s
    plan = sb.FlightPlan(np.array([[0.0, 0.0, 10.0], [600.0, 0.0, 10.0],
                                   [600.0, 400.0, 10.0]]), 250.0, 1.5)
    assert plan.n_steps == 3
    assert plan.distance.tolist() == [0.0, 600.0, 1000.0]
    # a route of exactly whole steps gets no extra step for rounding
    assert sb.FlightPlan(plan.waypoints, 250.0, 0.4).n_steps == 10
    assert sb.FlightPlan(plan.waypoints, 250.0, 100.0).n_steps == 1


# ---------------------------------------------------------------------------
# reference: the scalar mission loop that simulate_mission must match bit for bit
# ---------------------------------------------------------------------------

def reference_mission(plan, aircraft, network, chain):
    """Every step x farm pair through farm_visibility and best_panel, then one
    single-aircraft assign_farms call per step."""
    times, weights, positions, seg_idx, seg_headings = mission._sample_route(plan)
    headings = seg_headings[seg_idx]
    n = times.shape[0]

    p_ref = sb.cruise_power(aircraft)
    burn_ref = aircraft.fuel_burn_reference / 3600.0
    fuel_chain_eff = p_ref / (sb.JET_FUEL_SPECIFIC_ENERGY * burn_ref)

    farm_index = np.full(n, -1, dtype=int)
    slant = np.full(n, math.nan)
    scan = np.full(n, math.nan)
    panel_lbl = ["-"] * n
    cosine = np.full(n, math.nan)
    required = np.zeros(n)
    delivered = np.zeros(n)
    fuel_rate = np.zeros(n)
    fuel = np.zeros(n)

    burned = 0.0
    for k in range(n):
        required[k] = sb.cruise_power(aircraft)
        attitude = sb.level_attitude(headings[k])
        vis_farms, effs, info = [], [], {}
        for j in range(network.n_farms):
            v = sb.farm_visibility(network.farms[j], positions[k], network)
            if not v.visible:
                continue
            beam = np.array([positions[k][0] - network.farms[j][0],
                             positions[k][1] - network.farms[j][1],
                             positions[k][2]]) / v.slant_range
            try:
                panel, cos_inc = sb.best_panel(sb.world_panels(aircraft.panels, attitude), beam)
            except NoVisiblePanelError:
                continue
            vis_farms.append(j)
            effs.append(chain.at_incidence(cos_inc))
            info[j] = (v.slant_range, v.scan_deg, panel.label, cos_inc)

        res = sb.assign_farms([required[k]], [vis_farms], [effs], network.input_cap)
        delivered[k] = res.delivered_w[0]
        if res.farm_index[0] >= 0:
            j = int(res.farm_index[0])
            farm_index[k] = j
            slant[k], scan[k], panel_lbl[k], cosine[k] = info[j]

        residual = max(required[k] - delivered[k], 0.0)
        fuel_rate[k] = residual / (sb.JET_FUEL_SPECIFIC_ENERGY * fuel_chain_eff)
        burned += fuel_rate[k] * weights[k]
        fuel[k] = burned

    return sb.MissionTrace(times, weights, positions, farm_index, slant, scan,
                           panel_lbl, cosine, required, delivered, fuel_rate, fuel,
                           fuel_chain_eff, p_ref)


_TRACE_ARRAYS = ("times", "weights", "positions", "farm_index", "slant_m", "scan_deg",
                 "cosine", "required_w", "delivered_w", "fuel_rate_kg_s", "fuel_kg")


def _random_case(seed):
    """Turning route over a scattered network; caps sometimes tied."""
    rng = np.random.default_rng(seed)
    n_wp = int(rng.integers(2, 6))
    angles = rng.uniform(0.0, 2.0 * math.pi, n_wp - 1)
    legs = rng.uniform(10e3, 50e3, n_wp - 1)
    xy = np.vstack([[0.0, 0.0], np.cumsum(np.column_stack([legs * np.cos(angles),
                                                            legs * np.sin(angles)]), axis=0)])
    wps = np.column_stack([xy, rng.uniform(8e3, 12e3, n_wp)])
    plan = sb.FlightPlan(wps, float(rng.uniform(200.0, 260.0)), float(rng.uniform(5.0, 30.0)))
    n_farm = int(rng.integers(0, 40))
    lo, hi = xy.min(axis=0) - 20e3, xy.max(axis=0) + 20e3
    sites = rng.uniform(lo, hi, (n_farm, 2))
    caps = (rng.choice([5e7, 1e8], n_farm) if rng.random() < 0.4
            else rng.uniform(1e7, 1.5e8, n_farm))
    network = sb.FarmNetwork(sites, caps, float(rng.uniform(35.0, 75.0)),
                             float(rng.uniform(12e3, 25e3)))
    aircraft = sb.Aircraft(float(rng.uniform(30e3, 80e3)), float(rng.uniform(14.0, 20.0)),
                           float(rng.uniform(0.5, 0.8)), 250.0, float(rng.uniform(1500.0, 3500.0)))
    chain = sb.EfficiencyChain(*(float(v) for v in rng.uniform(0.3, 1.0, 4)))
    return plan, aircraft, network, chain


def _panel_aircraft(normal):
    panel = sb.ReceiverPanel("side", np.asarray(normal, dtype=float), 10.0, 0.85)
    return sb.Aircraft(50_000.0, 18.0, 0.6, 250.0, 2400.0, [panel])


def _panel_case(normal):
    """Farms left, right and directly under the route, seen by one custom panel."""
    sites = np.array([[10_000.0, 6_000.0], [25_000.0, 0.0], [40_000.0, -6_000.0]])
    return (_straight_plan(length_m=50_000.0), _panel_aircraft(normal),
            _network(sites, scan=60.0), default_chain())


def _edge_on_case():
    """A side panel edge-on to farms on the ground track of a (3, 4) heading:
    every cosine is 0 up to rounding, whose sign the array pass and the scalar
    best_panel may get differently."""
    wps = np.array([[0.0, 0.0, 10_000.0], [18_000.0, 24_000.0, 10_000.0]])
    plan = sb.FlightPlan(wps, 250.0, 10.0)
    _, _, positions, _, _ = mission._sample_route(plan)
    return (plan, _panel_aircraft([0.0, 1.0, 0.0]),
            _network(positions[::3, :2], scan=60.0), default_chain())


def _caps_case(caps):
    sites = np.array([[x, y] for x in (5_000.0, 20_000.0, 35_000.0) for y in (-4_000.0, 4_000.0)])
    return _straight_plan(length_m=40_000.0), a320(), _network(sites, caps, scan=60.0), default_chain()


def _baseline_case():
    scn = sb.parse_scenario("a320_baseline")
    return scn.plan, scn.aircraft, scn.network, scn.chain


ORACLE_CASES = {
    **{f"random{seed}": (lambda seed=seed: _random_case(seed)) for seed in range(12)},
    "shadowed": lambda: _panel_case([0.0, 0.0, 1.0]),
    "side_panel": lambda: _panel_case([0.0, 1.0, 0.0]),
    "edge_on": _edge_on_case,
    "zero_caps": lambda: _caps_case(0.0),
    "some_zero_caps": lambda: _caps_case([0.0, 6e7, 0.0, 6e7, 0.0, 0.0]),
    "equal_caps": lambda: _caps_case(6e7),
    "a320_baseline": _baseline_case,
}


def _assert_bit_equal(got, want, tmp_path):
    for name in _TRACE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape) == (b.dtype, b.shape), name
        assert a.tobytes() == b.tobytes(), name
    assert got.panel == want.panel
    assert got.fuel_chain_efficiency == want.fuel_chain_efficiency
    assert got.reference_power_w == want.reference_power_w
    got.to_csv(tmp_path / "got.csv")
    want.to_csv(tmp_path / "want.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_simulate_mission_matches_scalar_reference(case, tmp_path):
    plan, aircraft, network, chain = ORACLE_CASES[case]()
    got = sb.simulate_mission(plan, aircraft, network, chain)
    want = reference_mission(plan, aircraft, network, chain)
    _assert_bit_equal(got, want, tmp_path)


@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_summary_baseline_is_the_fuel_only_mission(case):
    plan, aircraft, network, chain = ORACLE_CASES[case]()
    trace = sb.simulate_mission(plan, aircraft, network, chain)
    fuel_only = sb.simulate_mission(plan, aircraft, sb.FarmNetwork.empty(), chain)
    assert plan.n_steps == trace.n_steps
    base = sb.mission_summary(trace)["fuel_only_baseline_kg"]
    assert base.hex() == float(fuel_only.fuel_kg[-1]).hex()


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_simulate_mission_independent_of_block_size(case, block, tmp_path, monkeypatch):
    plan, aircraft, network, chain = ORACLE_CASES[case]()
    want = reference_mission(plan, aircraft, network, chain)
    monkeypatch.setattr(mission, "_BLOCK", block)
    _assert_bit_equal(sb.simulate_mission(plan, aircraft, network, chain), want, tmp_path)


def _limit_giving(target, limit_of):
    """Network limit whose padded value, as `limit_of` reads it from
    FarmNetwork.limits, is `target`."""
    # one pad below the target, then ulp by ulp
    m = target - (limit_of(target) - target)
    for _ in range(16):
        got = limit_of(m)
        if got == target:
            return m
        m = float(np.nextafter(m, math.inf if got < target else -math.inf))
    raise AssertionError(f"no limit pads to {target!r}")


@pytest.mark.parametrize("limit", ["slant", "scan"])
def test_simulate_mission_on_exact_limits(limit, tmp_path):
    # A seeded search for step-farm pairs whose array slant or scan, computed
    # as in mission._candidates, rounds above the scalar farm_visibility value.
    # Each found pair gets a network whose padded limit is exactly that scalar
    # value, or one ulp under it: only the prefilter's band keeps the pair on
    # the limit, where the scalar calls accept it.
    plan = _straight_plan(length_m=160_000.0)
    _, _, positions, _, _ = mission._sample_route(plan)
    rng = np.random.default_rng(2)
    sites = np.column_stack([rng.uniform(0.0, 160e3, 400), rng.uniform(-15e3, 15e3, 400)])
    dx = positions[:, 0, None] - sites[None, :, 0]
    dy = positions[:, 1, None] - sites[None, :, 1]
    pz = positions[:, 2, None]
    array = np.sqrt(dx * dx + dy * dy + pz * pz)
    if limit == "scan":
        array = np.degrees(np.arccos(np.minimum(1.0, pz / array)))
    attr = "slant_range" if limit == "slant" else "scan_deg"
    seen = _network(sites)
    scalar = np.array([[getattr(sb.farm_visibility(site, pos, seen), attr)
                        for site in sites] for pos in positions])
    above = np.argwhere(array > scalar)[:4]
    assert len(above), "no array value rounds above its scalar value"
    for k, j in above:
        value = scalar[k, j]
        for target, served in ((value, 0), (float(np.nextafter(value, -math.inf)), -1)):
            if limit == "slant":
                net = sb.FarmNetwork(sites[j], 100e6, 89.0, _limit_giving(
                    target, lambda m: sb.FarmNetwork(sites[j], 100e6, 89.0, m).limits[0]))
            else:
                net = sb.FarmNetwork(sites[j], 100e6, _limit_giving(
                    target, lambda m: sb.FarmNetwork(sites[j], 100e6, m, 1e6).limits[1]), 1e6)
            got = sb.simulate_mission(plan, a320(), net, default_chain())
            _assert_bit_equal(got, reference_mission(plan, a320(), net, default_chain()),
                              tmp_path)
            assert got.farm_index[k] == served


@pytest.mark.parametrize("scan, slant", [(45.0, 20_000.0), (70.0, 14_000.0)],
                         ids=["scan_bound", "slant_bound"])
def test_coverage_matches_closed_form_intervals(scan, slant):
    # Level flight along x at altitude h over an on-track farm row (d = 0) and a
    # row offset by d = 6 km: farm j sees the aircraft while
    # |x - x_j| <= min(sqrt(R^2 - h^2 - d^2), sqrt(h^2 tan^2(scan) - d^2)).
    # Steps are sampled at their midpoints, so each end of a served run lies
    # within half a step of an end of the union of these intervals.
    h, d, step = 10_000.0, 6_000.0, 2_500.0
    plan = _straight_plan(length_m=200_000.0, altitude=h)
    rows = [(x, 0.0) for x in (24_300.0, 86_100.0, 143_700.0)]
    rows += [(x, d) for x in (55_600.0, 114_200.0, 176_900.0)]
    # the farms stand far enough apart that the union is the intervals, sorted
    union = []
    for x, y in sorted(rows):
        half = math.sqrt(min(slant ** 2 - h * h, (h * math.tan(math.radians(scan))) ** 2)
                         - y * y)
        union.append([x - half, x + half])

    trace = sb.simulate_mission(plan, a320(), _network(rows, 1e9, scan, slant),
                                default_chain())
    served = np.concatenate([[0], trace.farm_index >= 0, [0]])
    runs = (np.flatnonzero(np.diff(served)) * step).reshape(-1, 2)
    assert runs.shape == (len(union), 2)
    assert np.all(np.abs(runs - np.array(union)) <= 0.5 * step + 1e-6)
    covered = sum(hi - lo for lo, hi in union) / 200_000.0
    # one timestep per interval end
    assert abs(sb.coverage_fraction(trace) - covered) <= 2 * len(union) * step / 200_000.0


def test_fully_served_steps_burn_no_fuel():
    # delivered = min(cap, need / eff) * eff rounds to about need +- 1 ulp
    for seed in range(6):
        trace = sb.simulate_mission(*_random_case(seed))
        assert np.all(trace.fuel_rate_kg_s >= 0.0)
        assert np.all(np.diff(trace.fuel_kg) >= 0.0)
        full = trace.delivered_w >= trace.required_w
        assert np.all(trace.fuel_rate_kg_s[full] == 0.0)


def test_oracle_cases_exercise_every_branch():
    traces = {name: sb.simulate_mission(*build()) for name, build in ORACLE_CASES.items()}
    assert all((traces[c].farm_index == -1).all() for c in ("shadowed", "zero_caps"))
    side = traces["side_panel"].farm_index
    # the farm under the route is edge-on to the side panel: cosine 0, never served
    assert (side >= 0).any() and not (side == 1).any()
    served = np.concatenate([t.farm_index for t in traces.values()])
    assert (served >= 0).sum() > 100 and (served == -1).sum() > 100


NAN = math.nan


@pytest.mark.parametrize("build", [
    lambda: sb.Aircraft(NAN, 18.0, 0.6, 250.0, 2400.0),
    lambda: sb.Aircraft(50_000.0, NAN, 0.6, 250.0, 2400.0),
    lambda: sb.Aircraft(50_000.0, 18.0, NAN, 250.0, 2400.0),
    lambda: sb.Aircraft(50_000.0, 18.0, 0.6, NAN, 2400.0),
    lambda: sb.Aircraft(50_000.0, 18.0, 0.6, 250.0, NAN),
    lambda: sb.FlightPlan([[0, 0, 1e4], [1e5, 0, 1e4]], NAN),
    lambda: sb.FlightPlan([[0, 0, 1e4], [1e5, 0, 1e4]], 250.0, NAN),
    lambda: sb.FlightPlan([[0, 0, 1e4], [1e5, 0, NAN]], 250.0),
    lambda: sb.FarmNetwork(np.zeros((1, 2)), [1e6], 60.0, NAN),
    lambda: sb.FarmNetwork(np.zeros((1, 2)), [NAN], 60.0, 2e4),
    lambda: sb.CostModel(solar_lcoe=NAN),
    lambda: sb.CostModel(24.0, panel_cost=NAN),
    lambda: sb.CostModel(24.0, rf_uplift=NAN),
    lambda: sb.ReceiverPanel("underside", np.array([0.0, 0.0, -1.0]), NAN, 0.85),
    lambda: sb.RfSpec.from_frequency(NAN),
    lambda: sb.ArrayLayout(np.zeros((1, 3)), NAN, 1.0),
    lambda: sb.make_planar_array(NAN, 0.05),
    lambda: sb.make_planar_array(1.0, NAN),
    lambda: sb.BeamCommand(np.array([0.0, 0.0, 100.0]), NAN, np.zeros(1)),
    lambda: sb.ObservationGrid(np.zeros(3), 3, 3, NAN),
    lambda: sb.grating_lobe_margin(NAN, sb.RfSpec.from_wavelength(0.1), 30.0),
    lambda: sb.first_null_spot_diameter(NAN, sb.RfSpec.from_wavelength(0.1), 1e4),
    lambda: sb.farm_surface_density(1e6, NAN),
    lambda: sb.reflected_ground_density(1e6, NAN, sb.RfSpec.from_wavelength(0.1), 1e4),
    lambda: sb.delivered_power(NAN, sb.EfficiencyChain(0.5, 0.5, 1.0, 0.85)),
    lambda: sb.fuel_price_per_kg(1992.0, NAN),
    lambda: sb.breakeven_efficiency(1e6, 50.0, NAN),
    lambda: sb.beamed_cost_per_hour(NAN, 0.2, 50.0),
    lambda: sb.farm_network_estimate(NAN, 0.001, 1.0),
    lambda: sb.encircled_energy(None, np.zeros(3), NAN, 1.0),
    lambda: sb.airy_encircled_fraction(NAN, 1.0, sb.RfSpec.from_wavelength(0.1), 1e4),
    lambda: sb.farm_visibility([0.0, 0.0], [0.0, 0.0, NAN], _network([[0.0, 0.0]])),
    lambda: sb.FarmNetwork([[NAN, 0.0]], 1e6, 60.0, 2e4),
    lambda: sb.ArrayLayout([[NAN, 0.0, 0.0]], 1.0, 1.0),
    lambda: sb.ArrayLayout([[0.0, NAN, 0.0]], 1.0, 1.0),
    lambda: sb.ArrayLayout([[0.0, 0.0, NAN]], 1.0, 1.0),
    lambda: sb.ArrayLayout(np.zeros((1, 3)), 1.0, NAN),
    lambda: sb.ArrayLayout(np.zeros((0, 3)), 1.0, NAN),
    lambda: sb.ReceiverPanel("underside", [NAN, 0.0, -1.0], 1.0, 0.85),
    lambda: sb.BeamCommand([NAN, 0.0, 100.0], 1.0, np.zeros(1)),
    lambda: sb.BeamCommand([0.0, 0.0, 100.0], 1.0, [NAN]),
    lambda: sb.ObservationGrid([NAN, 0.0, 100.0], 3, 3, 1.0),
    lambda: sb.best_panel(sb.world_panels(sb.default_panels(), np.eye(3)), [NAN, 0.0, 1.0]),
    lambda: sb.level_attitude([NAN, 1.0]),
], ids=["aircraft.mass", "aircraft.lift_to_drag", "aircraft.propulsive_efficiency",
        "aircraft.cruise_speed", "aircraft.fuel_burn_reference", "plan.speed",
        "plan.timestep", "plan.altitude", "network.max_slant_range", "network.input_cap",
        "cost.solar_lcoe", "cost.panel_cost", "cost.rf_uplift", "panel.area", "rf.frequency",
        "layout.spacing", "make_planar_array.aperture", "make_planar_array.spacing",
        "command.power", "grid.spacing", "grating_lobe_margin", "first_null_spot_diameter",
        "farm_surface_density", "reflected_ground_density", "delivered_power",
        "fuel_price_per_kg", "breakeven_efficiency", "beamed_cost_per_hour",
        "farm_network_estimate", "encircled_energy", "airy_encircled_fraction",
        "farm_visibility", "network.farms", "layout.positions_x", "layout.positions_y",
        "layout.positions_z", "layout.aperture", "empty_layout.aperture", "panel.normal",
        "command.target", "command.phases", "grid.center", "best_panel.beam",
        "level_attitude.heading"])
def test_domain_types_reject_nan(build):
    # the API checks stand on their own beside the scenario parser's
    with pytest.raises(InvalidArgumentError):
        build()


@pytest.mark.parametrize("timestep, flown", [(5.0, [0, 1, 2]), (60.0, [0, 1, 2]),
                                              (400.0, [1, 2])])
def test_world_panels_once_per_flown_segment(timestep, flown, monkeypatch):
    # each flown segment's panel normals are rotated once, whatever its step
    # count; at 100 km per step no step midpoint falls on the 40 km first leg
    calls = []

    def counting(panels, attitude):
        calls.append(attitude)
        return sb.world_panels(panels, attitude)

    monkeypatch.setattr(mission, "world_panels", counting)
    wps = np.array([[0.0, 0.0, 10_000.0], [40_000.0, 0.0, 10_000.0],
                    [40_000.0, 30_000.0, 10_000.0], [0.0, 60_000.0, 10_000.0]])
    plan = sb.FlightPlan(wps, 250.0, timestep)
    sites = np.array([[20_000.0, 0.0], [40_000.0, 15_000.0], [20_000.0, 45_000.0]])
    trace = sb.simulate_mission(plan, a320(), _network(sites, scan=60.0), default_chain())
    assert sorted(set(mission._sample_route(plan)[3].tolist())) == flown
    assert (trace.farm_index >= 0).any()
    assert len(calls) == len(flown)
