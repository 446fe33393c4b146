"""CSV writers: byte-for-byte against per-row loop writers kept here as the oracle.

The oracle writers format one row at a time with `repr` of each float and
`int` of each farm id, LF line endings, one header line. The library writers
must produce the same bytes on the bundled scenarios and on cells that stress
the float format (NaN, -0.0, 1e-05, 1e16, the smallest subnormal).
"""

import math

import numpy as np
import pytest

from skybeam import field, mission
from skybeam.link import PANEL_LABELS
from skybeam.scenario import parse_scenario

ODD_FLOATS = [math.nan, -0.0, 1e-05, 1e16, 5e-324, 0.1, -2.5, 1.0 / 3.0]


def oracle_map_csv(fmap, path) -> None:
    pts = fmap.grid.points()
    dens = fmap.power_density.reshape(-1)
    with open(path, "w", newline="\n") as fh:
        fh.write("x_m,y_m,z_m,power_density_W_per_m2\n")
        for (x, y, z), d in zip(pts, dens):
            fh.write(f"{float(x)!r},{float(y)!r},{float(z)!r},{float(d)!r}\n")


def oracle_trace_csv(trace, path) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("t_s,x_m,y_m,z_m,farm_id,slant_m,scan_deg,panel,cosine,"
                 "delivered_W,fuel_rate_kg_s,fuel_kg\n")
        for k in range(trace.n_steps):
            x, y, z = (float(v) for v in trace.positions[k])
            fh.write(f"{float(trace.times[k])!r},{x!r},{y!r},{z!r},"
                     f"{int(trace.farm_index[k])},{float(trace.slant_m[k])!r},"
                     f"{float(trace.scan_deg[k])!r},{trace.panel[k]},"
                     f"{float(trace.cosine[k])!r},"
                     f"{float(trace.delivered_w[k])!r},"
                     f"{float(trace.fuel_rate_kg_s[k])!r},"
                     f"{float(trace.fuel_kg[k])!r}\n")


def assert_same_bytes(write, oracle, obj, tmp_path):
    ours, theirs = tmp_path / "ours.csv", tmp_path / "oracle.csv"
    write(obj, ours)
    oracle(obj, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


def _trace(scn):
    return mission.simulate_mission(scn.plan, scn.aircraft, scn.network, scn.chain)


@pytest.mark.parametrize("name", ["a320_baseline", "spot_scaled"])
def test_trace_csv_matches_oracle_on_bundled_scenarios(tmp_path, name):
    trace = _trace(parse_scenario(name))
    assert trace.n_steps > 100
    assert_same_bytes(mission.MissionTrace.to_csv, oracle_trace_csv, trace, tmp_path)


def test_map_csv_matches_oracle_on_bundled_scenario(tmp_path):
    scn = parse_scenario("spot_scaled")
    layout = scn.build_layout()
    cmd = field.focus_command(layout, scn.rf, scn.beam.target, scn.radiated_power())
    grid = field.ObservationGrid.horizontal(scn.beam.target, 41, scn.output.map_window)
    fmap = field.evaluate_field_fast(layout, scn.rf, cmd, grid)
    assert_same_bytes(field.FieldMap.to_csv, oracle_map_csv, fmap, tmp_path)


def test_map_csv_matches_oracle_on_odd_cells(tmp_path):
    n = 7
    grid = field.ObservationGrid.horizontal([1e16, -0.0, 1e-05], n, 3e-5)
    dens = np.resize(np.array([abs(v) if v == v else v for v in ODD_FLOATS]), n * n)
    dens[3] = -0.0
    fmap = field.FieldMap(grid, np.sqrt(np.abs(dens)).astype(complex).reshape(n, n),
                          dens.reshape(n, n))
    assert_same_bytes(field.FieldMap.to_csv, oracle_map_csv, fmap, tmp_path)


def test_map_csv_matches_oracle_past_one_slice(tmp_path):
    # more rows than any sensible slice, so slice boundaries are crossed
    n = 301
    grid = field.ObservationGrid.horizontal([0.5, -3.0, 120.0], n, 7.0)
    dens = np.random.default_rng(3).random((n, n)) * 1e3
    fmap = field.FieldMap(grid, np.sqrt(dens).astype(complex), dens)
    assert_same_bytes(field.FieldMap.to_csv, oracle_map_csv, fmap, tmp_path)


def test_trace_csv_matches_oracle_on_odd_cells(tmp_path):
    labels = list(PANEL_LABELS) + ["-", "custom panel"]
    n = 2 * len(ODD_FLOATS) * len(labels)
    col = np.resize(np.array(ODD_FLOATS), n)

    def shifted(k):
        return np.roll(col, k)

    trace = mission.MissionTrace(
        times=shifted(0), weights=np.ones(n), positions=np.column_stack(
            [shifted(1), shifted(2), shifted(3)]),
        farm_index=np.resize(np.array([-1, 0, 7, 12345]), n),
        slant_m=shifted(4), scan_deg=shifted(5),
        panel=[labels[k % len(labels)] for k in range(n)], cosine=shifted(6),
        required_w=shifted(7), delivered_w=shifted(8), fuel_rate_kg_s=shifted(9),
        fuel_kg=shifted(10), fuel_chain_efficiency=0.3,
        reference_power_w=1e7)
    assert_same_bytes(mission.MissionTrace.to_csv, oracle_trace_csv, trace, tmp_path)


def test_empty_trace_writes_only_the_header(tmp_path):
    empty = np.zeros(0)
    trace = mission.MissionTrace(empty, empty, np.zeros((0, 3)), np.zeros(0, dtype=int),
                                 empty, empty, [], empty, empty, empty, empty, empty,
                                 0.3, 1e7)
    assert_same_bytes(mission.MissionTrace.to_csv, oracle_trace_csv, trace, tmp_path)
