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
    limit = cap * chain.with_incidence(1.0).end_to_end
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
    summary = sb.mission_summary(trace, baseline)
    assert summary["fuel_only_baseline_kg"] == pytest.approx(
        2400.0 * trace.duration_s / 3600.0, rel=1e-12)
    assert summary["fuel_saved_kg"] == pytest.approx(
        baseline.total_fuel_kg - trace.total_fuel_kg, rel=1e-12)
    assert 0.0 < summary["coverage_fraction"] <= 1.0


def test_plan_validation():
    with pytest.raises(InvalidArgumentError):
        sb.FlightPlan(np.array([[0.0, 0.0, 10_000.0]]), 250.0)
    with pytest.raises(InvalidArgumentError):
        sb.FlightPlan(np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 10.0]]), 250.0)
    with pytest.raises(InvalidArgumentError):
        sb.FlightPlan(np.array([[0.0, 0.0, 10.0], [1.0, 0.0, 10.0]]), 0.0)


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
            v = sb.farm_visibility(network.sites[j], positions[k], network)
            if not v.visible:
                continue
            beam = np.array([positions[k][0] - network.sites[j][0],
                             positions[k][1] - network.sites[j][1],
                             positions[k][2]]) / v.slant_range
            try:
                panel, cos_inc = sb.best_panel(aircraft.panels, beam, attitude)
            except NoVisiblePanelError:
                continue
            vis_farms.append(j)
            effs.append(chain.with_incidence(cos_inc).end_to_end)
            info[j] = (v.slant_range, v.scan_deg, panel.label, cos_inc)

        res = sb.assign_farms([required[k]], [vis_farms], [effs], network.input_caps)
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


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize("case", list(ORACLE_CASES))
def test_simulate_mission_independent_of_block_size(case, block, tmp_path, monkeypatch):
    plan, aircraft, network, chain = ORACLE_CASES[case]()
    want = reference_mission(plan, aircraft, network, chain)
    monkeypatch.setattr(mission, "_BLOCK", block)
    _assert_bit_equal(sb.simulate_mission(plan, aircraft, network, chain), want, tmp_path)


def _limit_giving(target, limit_of, guess):
    """Network limit whose padded value, as farm_visibility computes it, is `target`."""
    m = guess
    for _ in range(16):
        got = limit_of(m)
        if got == target:
            return m
        m = float(np.nextafter(m, math.inf if got < target else -math.inf))
    raise AssertionError(f"no limit pads to {target!r}")


@pytest.mark.parametrize("limit", ["slant", "scan"])
def test_simulate_mission_on_exact_limits(limit, tmp_path):
    # one step at x = 1250 m; each farm offset puts the padded limit exactly on,
    # or one ulp under, the scalar slant or scan of that step. The array pass
    # rounds some of these differently and must defer to the scalar calls.
    plan = _straight_plan(length_m=2_500.0)
    served = set()
    for offset in 12_000.0 + 0.731 * np.arange(48):
        site = np.array([[1_250.0 + 0.37 * offset, offset]])
        v = sb.farm_visibility(site[0], [1_250.0, 0.0, 10_000.0], _network(site))
        value = v.slant_range if limit == "slant" else v.scan_deg
        for target in (value, float(np.nextafter(value, -math.inf))):
            if limit == "slant":
                net = sb.FarmNetwork(site, 100e6, 89.0, _limit_giving(
                    target, lambda m: m * (1.0 + 1e-12), target / (1.0 + 1e-12)))
            else:
                net = sb.FarmNetwork(site, 100e6, _limit_giving(
                    target, lambda m: m + 1e-9, target - 1e-9), 50_000.0)
            got = sb.simulate_mission(plan, a320(), net, default_chain())
            _assert_bit_equal(got, reference_mission(plan, a320(), net, default_chain()),
                              tmp_path)
            served.add(int(got.farm_index[0]))
    assert served == {-1, 0}


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
], ids=["aircraft.mass", "aircraft.lift_to_drag", "aircraft.propulsive_efficiency",
        "aircraft.cruise_speed", "aircraft.fuel_burn_reference", "plan.speed",
        "plan.timestep", "plan.altitude", "network.max_slant_range", "network.input_caps",
        "cost.solar_lcoe", "cost.panel_cost", "cost.rf_uplift", "panel.area", "rf.frequency"])
def test_domain_types_reject_nan(build):
    # the API checks stand on their own beside the scenario parser's
    with pytest.raises(InvalidArgumentError):
        build()
