"""skybeam benchmark: batches of CLI jobs on generated scenarios.

    python3 perfbench/run.py --workload {map,route,cli-mix} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its src/.
Jobs run one at a time (closed loop, one client, --threads 1) until their
wall times add up to S seconds; every job's exit code and outputs are
checked. The last line of stdout is the result, with the end-to-end metrics
(--trace 0) or the per-layer metrics from a traced run (--trace 1); the line
before it gives the run's context: versions, core count, output digests and
the unscaled timings. The full record, with every job's wall time, goes to
.perfbench_out/; traced runs also leave their spans there. A traced run times
every job twice in a row, untraced and then with spans, and reports the
median ratio of the two as trace.overhead_frac.

End-to-end times are scaled to a reference host speed. Job times (job
percentiles, jobs/s) are multiplied by CALIBRATION_REF_S over the run's median
time of a fixed calibration kernel (worker.calibration_s), timed before every
job. Set-up is mostly process start-up, which a busy host slows far more than
it slows that kernel, so setup_s is scaled instead by STARTUP_REF_S over the
median time of a bare interpreter start (`python -c pass`), timed
STARTUP_SAMPLES times before each set-up sample. On a shared machine whose
speed drifts by tens of percent over minutes this keeps runs on one commit
comparable; on a steady host the factors are constant. Neither reference runs
any skybeam code. Per-layer figures are not scaled.

Workloads (why each exists is also in BENCHMARK.json):
  map      beam-map --binary on variants of the scaled spot scenario; the
           field engine and the map writers do the work, the mission none.
  route    coverage on generated farm networks; the mission loop (with
           link.best_panel inside it) does the work, the field engine none.
  cli-mix  spot/link/econ/safety reports, each a fresh
           `python -m skybeam.cli` process, 15 % of them on invalid input
           that the program rejects with the documented exit code; start-up,
           import, parsing and validation are nearly the whole job. The
           inputs of the two documented defects (non-finite JSON numbers, a
           1e-300 wavelength) would fail every time, so they are not in the
           timed stream: each run probes them once, off the clock, and lists
           the outcome as `known_defects` in the context line.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import checks
import workloads
from spans import Tracer, layer_metrics
from worker import CALIBRATION_REF_S, Ledger, alternate, paired, timed_jobs

HERE = Path(__file__).resolve().parent
# set-up is sampled before and after the timed jobs, so slow drifts in the
# machine's speed reach both halves of the median
SETUP_BEFORE, SETUP_AFTER = 2, 2
STARTUP_REF_S, STARTUP_SAMPLES = 0.08, 3
IMPORT_SAMPLES = 3


def _env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode: str, args, env: dict, *extra: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), *extra],
        env=env, stdout=subprocess.PIPE, text=True)


def _await_ready(proc: subprocess.Popen, t0: float) -> float:
    """Seconds from spawn to the worker's `ready` line (start-up, import, warm-up)."""
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    if line.strip() != "ready":
        raise RuntimeError(f"worker did not start: {line!r}")
    return elapsed


def _finish(proc: subprocess.Popen) -> None:
    try:
        proc.stdout.read()
        if proc.wait(timeout=170) != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()


def startup_refs(env: dict) -> list[float]:
    """Wall times of bare interpreter starts, the reference for set-up."""
    refs = []
    for _ in range(STARTUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True)
        refs.append(time.perf_counter() - t0)
    return refs


def setup_probe(args, env: dict) -> float:
    t0 = time.perf_counter()
    proc = _worker("probe", args, env)
    try:
        return _await_ready(proc, t0)
    finally:
        _finish(proc)


def in_process_run(args, env: dict, out_dir: Path) -> tuple[dict, float]:
    """map and route: one worker process runs every job through cli.main."""
    t0 = time.perf_counter()
    proc = _worker("run", args, env, "--result", "result.json",
                   "--spans", str(out_dir / f"spans-{args.workload}.npz"))
    try:
        setup = _await_ready(proc, t0)
    finally:
        _finish(proc)
    return json.loads(Path("result.json").read_text(encoding="utf-8")), setup


def run_child(argv: list[str], env: dict) -> tuple[float, int, str, str, float]:
    """One job as a fresh process; returns wall, exit code, stdout, stderr and
    the child's peak RSS in MB (from wait4, so it is that child's alone)."""
    actions = [(os.POSIX_SPAWN_OPEN, fd, name, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
               for fd, name in ((1, "child.out"), (2, "child.err"))]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    return (wall, os.waitstatus_to_exitcode(status),
            Path("child.out").read_text(encoding="utf-8"),
            Path("child.err").read_text(encoding="utf-8"), usage.ru_maxrss / 1024.0)


def defect_report(probes: list[dict], env: dict, work: Path) -> dict:
    """Outcome of each known-defect input: its exit code and whether the
    documented behaviour (exit code, field path on stderr) is still missing."""
    report = {}
    for job in probes:
        _, rc, out, err, _ = run_child([sys.executable, "-m", "skybeam.cli", *job["argv"]], env)
        reason = checks.check_job(job, work, rc, out, err, np.random.default_rng(0), {})
        report[job["invalid"]] = {"exit_code": rc, "documented_exit_code": job["expect_code"],
                                  "defect_reproduced": reason is not None}
    return report


def child_run(args, env: dict, jobs: list[dict], out_dir: Path) -> dict:
    """cli-mix: every job is a fresh `python -m skybeam.cli` process."""
    ledger = Ledger(Path.cwd(), args.seed)
    rss = [0.0]
    tracer = Tracer()

    def plain(job):
        wall, rc, out, err, mb = run_child([sys.executable, "-m", "skybeam.cli", *job["argv"]], env)
        rss[0] = max(rss[0], mb)
        return wall, rc, out, err

    def traced(job):
        spawn = time.perf_counter()
        wall, rc, out, err, _ = run_child(
            [sys.executable, str(HERE / "worker.py"), "cli", "--spans", "spans.json", "--",
             *job["argv"]], env)
        child = json.loads(Path("spans.json").read_text(encoding="utf-8"))
        tracer.add_span("import.process", spawn, child["imported"], tracer.job)
        tracer.merge(child, tracer.job)
        return wall, rc, out, err

    result: dict = {}
    if not args.trace:
        timed_jobs(jobs, args.seconds, plain, ledger)
        result["rss_mb"] = rss[0]
    else:
        walls = timed_jobs(paired(jobs), args.seconds, alternate(tracer, plain, traced),
                           ledger, tracer)
        tracer.save(out_dir / f"spans-{args.workload}.npz")
        result["layer"] = layer_metrics(tracer, {j: w for j, w in walls.items() if j % 2})
    result.update(ledger.summary())
    return result


def parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative seconds of the outermost numpy and scipy imports.

    `-X importtime` lists imports in post-order, nesting shown by indent, so
    a line's parent is the next line with less indent.
    """
    rows = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2][1:]
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(parts[1]) * 1e-6))
    totals = {"numpy": 0.0, "scipy": 0.0}
    for i, (depth, name, cumulative) in enumerate(rows):
        family = name.split(".")[0]
        if family not in totals:
            continue
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != family:
            totals[family] += cumulative
    return totals


def import_metrics(env: dict) -> dict:
    total, numpy_s, scipy_s = [], [], []
    for _ in range(IMPORT_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import skybeam.cli"], env=env, check=True)
        total.append(time.perf_counter() - t0)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import skybeam.cli"],
                              env=env, check=True, capture_output=True, text=True)
        split = parse_importtime(proc.stderr)
        numpy_s.append(split["numpy"])
        scipy_s.append(split["scipy"])
    return {"import.total_s": float(np.median(total)), "import.numpy_s": float(np.median(numpy_s)),
            "import.scipy_s": float(np.median(scipy_s))}


def _git_commit(root: Path) -> str | None:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "skybeam").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(root)).encode() + b"\n" + path.read_bytes())
    return h.hexdigest()


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POOLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd().resolve()
    if not (root / "src" / "skybeam" / "cli.py").is_file():
        print(f"error: no skybeam sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    compileall.compile_dir(root / "src", quiet=1)   # byte-compile once, not in a timed job

    env = _env(root)
    out_dir = root / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    os.chdir(work)
    defects = None
    try:
        plan = workloads.generate(args.workload, args.seed, work)
        setups, startups = [], []
        for _ in range(SETUP_BEFORE):
            startups += startup_refs(env)
            setups.append(setup_probe(args, env))
        startups += startup_refs(env)
        if args.workload == "cli-mix":
            setups.append(setup_probe(args, env))
            result = child_run(args, env, plan["jobs"], out_dir)
            defects = defect_report(plan["defect_probes"], env, work)
        else:
            result, setup = in_process_run(args, env, out_dir)
            setups.append(setup)
        for _ in range(SETUP_AFTER):
            startups += startup_refs(env)
            setups.append(setup_probe(args, env))
        extra = import_metrics(env) if args.trace else {}
    finally:
        os.chdir(root)
        shutil.rmtree(work, ignore_errors=True)

    raw = np.array(result["walls"])
    host_speed = CALIBRATION_REF_S / float(np.median(result["calibrations"]))
    walls = raw * host_speed
    startup_speed = STARTUP_REF_S / float(np.median(startups))
    attempted, failed = len(walls), len(result["failed"])
    if args.trace:
        pairs = len(walls) // 2 * 2
        values = dict(result["layer"], **extra)
        values["field.oracle_max_rel_err"] = result["stats"].get("oracle_max_rel_err", 0.0)
        # each job ran untraced then traced; the median of their ratios
        values["trace.overhead_frac"] = float(np.median(walls[1:pairs:2] / walls[0:pairs:2]))
    else:
        values = {
            "setup_s": float(np.median(setups)) * startup_speed,
            "job_p50_ms": float(np.percentile(walls, 50)) * 1e3,
            "job_p90_ms": float(np.percentile(walls, 90)) * 1e3,
            "jobs_per_s": attempted / float(walls.sum()),
            "peak_rss_mb": result["rss_mb"],
        }
    if set(values) != {m["name"] for m in declared}:
        raise RuntimeError(f"metrics {sorted(values)} do not match BENCHMARK.json")

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": os.cpu_count(), "cores_usable": len(os.sched_getaffinity(0)),
        "threads": 1, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
        "git_commit": _git_commit(root), "source_sha256": _source_digest(root),
        "job_samples": attempted, "samples_beyond_p90": int((walls > np.percentile(walls, 90)).sum()),
        "pool_size": len(plan["jobs"]),
        # figures before scaling to the reference host speed
        "host_speed": host_speed, "startup_speed": startup_speed,
        "unscaled": {"setup_s": float(np.median(setups)),
                     "job_p50_ms": float(np.percentile(raw, 50)) * 1e3,
                     "job_p90_ms": float(np.percentile(raw, 90)) * 1e3,
                     "jobs_per_s": attempted / float(raw.sum())},
        "setup_samples_s": setups,
        "failed_jobs": result["reasons"],
        "output_sha256": result["output_sha256"],
    }
    if defects is not None:
        context["known_defects"] = defects
    final = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: _metric(values[m["name"]], m["unit"]) for m in declared},
    }
    record = out_dir / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    record.write_text(json.dumps({"context": context, "job_sha256": result["job_sha256"],
                                  "job_walls_s": result["walls"],
                                  "job_calibrations_s": result["calibrations"],
                                  "result": final}, indent=1),
                      encoding="utf-8")
    print(json.dumps({"context": context}))
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
