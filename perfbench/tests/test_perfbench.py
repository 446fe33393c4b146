"""Tests of the benchmark itself: generator, output checks, printed metrics.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from run import parse_importtime  # noqa: E402
from worker import Ledger, in_process  # noqa: E402

WORKLOADS = sorted(workloads.POOLS)


def _files(directory: Path) -> dict[str, bytes]:
    return {str(p.relative_to(directory)): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_generator_is_deterministic(workload, tmp_path):
    first = workloads.generate(workload, 11, tmp_path / "a")
    workloads.generate(workload, 11, tmp_path / "b")
    workloads.generate(workload, 12, tmp_path / "c")
    a, b, c = (_files(tmp_path / d) for d in "abc")
    assert a == b
    assert a != c
    assert len(first["jobs"]) == workloads.POOL_SIZE[workload]


def test_route_pool_spans_visible_share(tmp_path):
    plan = workloads.generate("route", 5, tmp_path)
    shares = []
    for job in plan["jobs"]:
        scn = json.loads((tmp_path / job["scenario"]).read_text())
        pos = workloads.route_positions(np.asarray(scn["plan"]["waypoints"]), job["n_steps"])
        net = scn["network"]
        shares.append(workloads.visible_pairs(pos, np.asarray(net["farms"]),
                                              net["max_scan_deg"],
                                              net["max_slant_range"]).mean())
    assert min(shares) < 0.03 and max(shares) > 0.4


def test_cli_pool_holds_every_invalid_kind(tmp_path):
    plan = workloads.generate("cli-mix", 5, tmp_path)
    kinds = [j["invalid"] for j in plan["jobs"] if j["invalid"]]
    assert len(kinds) == 6 and set(kinds) == set(workloads.INVALID_KINDS)


@pytest.fixture(scope="module")
def cli():
    import skybeam.cli
    return skybeam.cli


def _run_first(workload: str, work: Path, cli, monkeypatch):
    plan = workloads.generate(workload, 3, work)
    job = plan["jobs"][0]
    monkeypatch.chdir(work)
    _, rc, out, err = in_process(cli, job["argv"])
    return job, rc, out, err


def _check(job, work, rc, out, err):
    return checks.check_job(job, work, rc, out, err, np.random.default_rng(0), {})


def test_flipped_map_density_is_caught(tmp_path, cli, monkeypatch):
    job, rc, out, err = _run_first("map", tmp_path, cli, monkeypatch)
    assert _check(job, tmp_path, rc, out, err) is None
    csv_path = tmp_path / job["out"] / "beam_map.csv"
    lines = csv_path.read_text().split("\n")
    x, y, z, d = lines[5].split(",")
    lines[5] = ",".join([x, y, z, repr(float(d) * (1.0 + 1e-15) + 1e-300)])
    csv_path.write_text("\n".join(lines))
    assert "beam_map.bin" in _check(job, tmp_path, rc, out, err)


def test_wrong_map_density_in_both_files_is_caught(tmp_path, cli, monkeypatch):
    job, rc, out, err = _run_first("map", tmp_path, cli, monkeypatch)
    n = job["grid_n"]
    centre = (n // 2) * n + n // 2
    csv_path = tmp_path / job["out"] / "beam_map.csv"
    bin_path = tmp_path / job["out"] / "beam_map.bin"
    lines = csv_path.read_text().split("\n")
    x, y, z, d = lines[1 + centre].split(",")
    lines[1 + centre] = ",".join([x, y, z, repr(float(d) * 0.999)])
    csv_path.write_text("\n".join(lines))
    raw = bytearray(bin_path.read_bytes())
    value = np.frombuffer(bytes(raw[16 + 8 * centre:24 + 8 * centre]), "<f8")[0] * 0.999
    raw[16 + 8 * centre:24 + 8 * centre] = np.array([value], "<f8").tobytes()
    bin_path.write_bytes(bytes(raw))
    assert "direct sum" in _check(job, tmp_path, rc, out, err) or "peak" in _check(
        job, tmp_path, rc, out, err)


def test_wrong_route_farm_is_caught(tmp_path, cli, monkeypatch):
    job, rc, out, err = _run_first("route", tmp_path, cli, monkeypatch)
    assert _check(job, tmp_path, rc, out, err) is None
    trace = tmp_path / job["out"] / "mission_trace.csv"
    lines = trace.read_text().split("\n")
    cols = lines[1].split(",")
    cols[4] = "-1" if cols[4] != "-1" else "0"
    lines[1] = ",".join(cols)
    trace.write_text("\n".join(lines))
    assert _check(job, tmp_path, rc, out, err) is not None


def test_wrong_exit_code_is_caught(tmp_path, cli, monkeypatch):
    plan = workloads.generate("cli-mix", 3, tmp_path)
    monkeypatch.chdir(tmp_path)
    for job in plan["jobs"]:
        _, rc, out, err = in_process(cli, job["argv"])
        reason = _check(job, tmp_path, rc, out, err)
        assert reason is None, (job["name"], reason)
        assert _check(job, tmp_path, rc + 1, out, err) is not None


def test_known_defects_stay_out_of_the_job_stream(tmp_path):
    plan = workloads.generate("cli-mix", 3, tmp_path)
    assert not {j["invalid"] for j in plan["jobs"]} & set(workloads.KNOWN_DEFECTS)
    assert [j["invalid"] for j in plan["defect_probes"]] == list(workloads.KNOWN_DEFECTS)
    assert all((tmp_path / j["scenario"]).is_file() for j in plan["defect_probes"])


def test_corrupted_report_value_is_caught(tmp_path, cli, monkeypatch):
    plan = workloads.generate("cli-mix", 3, tmp_path)
    job = next(j for j in plan["jobs"] if j["command"] == "spot" and not j["invalid"])
    monkeypatch.chdir(tmp_path)
    _, rc, out, err = in_process(cli, job["argv"])
    key = "peak_density_W_per_m2"
    if job["format"] == "json":
        report = json.loads(out)
        report[key] *= 1.0 + 1e-9
        bad = json.dumps(report)
    else:
        line = next(l for l in out.splitlines() if l.startswith(key))
        value = float(line.partition(" = ")[2])
        bad = out.replace(line, line.partition(" = ")[0] + f" = {value * 1.0001:.10g}")
    assert key in _check(job, tmp_path, rc, bad, err)


def test_ledger_counts_failures(tmp_path):
    ledger = Ledger(tmp_path, 0)
    job = {"name": "j", "kind": "cli", "invalid": "missing", "expect_code": 2,
           "expect_path": None, "format": "csv"}
    ledger.record(job, 0.1, 0.01, 2, "", "error: scenario file not found: x\n")
    ledger.record(job, 0.1, 0.01, 0, "", "")
    assert ledger.failed == ["j"] and len(ledger.walls) == 2


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |     numpy._core",
        "import time:        50 |        150 |   numpy",
        "import time:        10 |        160 | skybeam.core",
        "import time:        20 |         20 |   scipy",
        "import time:        30 |         30 |     scipy._lib",
        "import time:        40 |         70 |   scipy.special",
        "import time:         5 |        100 | skybeam.field",
    ])
    assert parse_importtime(stderr) == pytest.approx({"numpy": 150e-6, "scipy": 90e-6})


def _bench(cwd: Path, workload: str, trace: int, seconds: str = "1"):
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "1", "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}


def test_without_sources_exits_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "map", 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
