"""Job runners: the timed job loop, the in-process worker and the traced CLI.

    worker.py probe --workload W      fresh process: import skybeam.cli, run the
                                      warm-up job, print "ready", exit
    worker.py run --workload W --seed N --seconds S --trace T --result FILE
                                      as probe, then the timed job loop
    worker.py cli --spans FILE -- ARGV
                                      `python -m skybeam.cli ARGV` with spans
                                      recorded around the public calls

Every mode runs with the work directory (holding plan.json, scn/ and out/)
as its current directory and the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from spans import Tracer, layer_metrics


# Host speed on a shared machine drifts by tens of percent over minutes, and
# the jobs' kinds of work slow and speed up together. A fixed kernel of
# interpreter and numpy work, timed next to each job, measures that drift;
# run.py scales times to a host on which the kernel takes CALIBRATION_REF_S.
# Its parts mirror the jobs: bytecode, long-array ufuncs as in the field
# engine, and many calls on short arrays as in the mission loop (the part
# that follows route jobs when the host slows them several times more than
# it slows long-array work). It runs once untimed first: right after a job
# (a child process in particular) the caches hold the job's data, and a cold
# first pass measures that rather than the host.
CALIBRATION_REF_S = 0.01
_CAL_X = np.linspace(0.0, 100.0, 40_000)
_CAL_SHORT = np.linspace(0.0, 1.0, 64)


def calibration_s() -> float:
    _calibration_kernel()
    return _calibration_kernel()


def _calibration_kernel() -> float:
    t0 = time.perf_counter()
    acc = 0
    for k in range(6_000):
        acc += k * k % 7
    table = {str(k): k for k in range(3_000)}
    for _ in range(300):
        d = np.hypot(_CAL_SHORT, 0.3)
        np.arccos(np.clip(_CAL_SHORT / d, -1.0, 1.0)).max()
    for _ in range(2):
        y = np.sqrt(_CAL_X * _CAL_X + float(len(table) + acc % 2))
        np.cos(y)
        np.sin(y)
    return time.perf_counter() - t0


class Ledger:
    """Job outcomes of one run: wall times, failures and output digests."""

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.walls: list[float] = []
        self.calibrations: list[float] = []
        self.failed: list[str] = []
        self.reasons: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.stats: dict = {}
        self._rng = np.random.default_rng([seed, 4])

    def record(self, job: dict, wall: float, calibration: float, rc: int, stdout: str,
               stderr: str) -> None:
        self.walls.append(wall)
        self.calibrations.append(calibration)
        reason = checks.check_job(job, self.work, rc, stdout, stderr, self._rng, self.stats)
        if reason is not None:
            self.failed.append(job["name"])
            self.reasons.setdefault(job["name"], reason)
        out = self.work / job["out"] if "out" in job else None
        if job["name"] not in self.digests:
            h = hashlib.sha256(f"exit {rc}\n{stdout}\n{stderr}".encode())
            if out is not None and out.is_dir():
                for path in sorted(out.iterdir()):
                    h.update(path.name.encode() + b"\n" + path.read_bytes())
            self.digests[job["name"]] = h.hexdigest()
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)

    def summary(self) -> dict:
        combined = hashlib.sha256("".join(f"{k} {v}\n" for k, v in sorted(self.digests.items()))
                                  .encode()).hexdigest()
        return {"walls": self.walls, "calibrations": self.calibrations,
                "failed": self.failed, "reasons": self.reasons,
                "job_sha256": self.digests, "output_sha256": combined, "stats": self.stats}


def timed_jobs(jobs: list[dict], seconds: float, execute, ledger: Ledger,
               tracer: Tracer | None = None) -> dict[int, float]:
    """Run jobs round-robin, one at a time, until their wall times add up to
    `seconds`. Checks and the calibration kernel run between jobs, off the
    clock. Returns job id -> wall."""
    walls: dict[int, float] = {}
    busy = 0.0
    while busy < seconds:
        job = jobs[len(walls) % len(jobs)]
        calibration = calibration_s()
        if tracer is not None:
            tracer.job = len(walls)
        wall, rc, stdout, stderr = execute(job)
        walls[len(walls)] = wall
        busy += wall
        ledger.record(job, wall, calibration, rc, stdout, stderr)
    return walls


def paired(jobs: list[dict]) -> list[dict]:
    """Each job twice in a row: traced runs time it untraced, then traced, so
    the two sides of the tracing overhead see the same jobs and host state."""
    return [job for job in jobs for _ in (0, 1)]


def alternate(tracer: Tracer, plain, traced):
    """Run even job ids plainly and odd ones with spans recorded."""
    return lambda job: traced(job) if tracer.job % 2 else plain(job)


def in_process(cli, argv: list[str]) -> tuple[float, int, str, str]:
    """One job through skybeam.cli.main, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            rc = 1
    return time.perf_counter() - t0, rc, out.getvalue(), err.getvalue()


def _setup(plan: dict):
    import skybeam.cli as cli
    in_process(cli, plan["warmup"]["argv"])
    shutil.rmtree(Path(plan["warmup"].get("out", "out/warmup")), ignore_errors=True)
    print("ready", flush=True)
    return cli


def run(args, plan: dict) -> dict:
    cli = _setup(plan)
    jobs = plan["jobs"]
    ledger = Ledger(Path.cwd(), args.seed)
    result: dict = {}
    execute = lambda job: in_process(cli, job["argv"])  # noqa: E731
    if not args.trace:
        timed_jobs(jobs, args.seconds, execute, ledger)
        result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        tracer = Tracer()

        def traced(job):
            tracer.install()
            try:
                return execute(job)
            finally:
                tracer.uninstall()

        walls = timed_jobs(paired(jobs), args.seconds, alternate(tracer, execute, traced),
                           ledger, tracer)
        tracer.save(args.spans)
        result["layer"] = layer_metrics(tracer, {j: w for j, w in walls.items() if j % 2})
    result.update(ledger.summary())
    return result


def traced_cli(args) -> int:
    """Run one CLI job with spans; the import time is the first record."""
    import skybeam.cli as cli
    imported = time.perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.job = 0
    try:
        rc = cli.main(args.argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        export = tracer.export()
        export["imported"] = imported
        Path(args.spans).write_text(json.dumps(export), encoding="utf-8")
    return rc


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "run", "cli"))
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--result")
    parser.add_argument("--spans")
    own = sys.argv[1:]
    split = own.index("--") if "--" in own else len(own)
    args = parser.parse_args(own[:split])
    args.argv = own[split + 1:]
    if args.mode == "cli":
        return traced_cli(args)
    plan = json.loads(Path("plan.json").read_text(encoding="utf-8"))
    if args.mode == "probe":
        _setup(plan)
        return 0
    result = run(args, plan)
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
