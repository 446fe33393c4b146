"""In-memory spans around calls into skybeam's public functions.

A Tracer replaces selected functions, as bound in the modules and classes
that call them, with wrappers that record one span per call: name, start,
end, parent span and job id. Nothing inside skybeam changes; `uninstall`
restores the originals. Spans live in flat arrays (the mission loop makes
millions of calls) and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from collections import Counter

import numpy as np

# (module or class, attribute, span name); the layer is the part before the dot
TARGETS = [
    ("skybeam.cli", "main", "cli.main"),
    ("skybeam.cli", "parse_scenario", "scenario.parse"),
    ("skybeam.scenario:Scenario", "build_layout", "core.build_layout"),
    ("skybeam.scenario", "make_planar_array", "core.make_planar_array"),
    ("skybeam.cli", "focus_command", "field.focus_command"),
    ("skybeam.cli", "evaluate_field_fast", "field.evaluate"),
    ("skybeam.cli", "measure_first_null_radius", "field.metrics"),
    ("skybeam.cli", "spot_report", "field.metrics"),
    ("skybeam.link", "delivered_power", "link.budget"),
    ("skybeam.link", "farm_surface_density", "link.budget"),
    ("skybeam.link", "reflected_ground_density", "link.budget"),
    ("skybeam.economics", "beamed_cost", "economics.budget"),
    ("skybeam.economics", "beamed_cost_per_hour", "economics.budget"),
    ("skybeam.economics", "breakeven_efficiency", "economics.budget"),
    ("skybeam.economics", "fuel_price_per_kg", "economics.budget"),
    ("skybeam.economics", "farm_network_estimate", "economics.budget"),
    ("skybeam.cli", "simulate_mission", "mission.simulate"),
    ("skybeam.mission", "farm_visibility", "mission.visibility"),
    ("skybeam.mission", "assign_farms", "mission.assign"),
    ("skybeam.mission", "best_panel", "link.best_panel"),
    ("skybeam.field:FieldMap", "to_csv", "writer.map_csv"),
    ("skybeam.field:FieldMap", "to_binary", "writer.map_bin"),
    ("skybeam.mission:MissionTrace", "to_csv", "writer.trace_csv"),
    ("skybeam.cli", "_emit", "writer.report"),
]


def _count_layout(c, args, kwargs, result):
    c["core.elements"] += result.n_active


def _count_evals(c, args, kwargs, result):
    layout, grid = args[0], args[3]
    c["field.evals"] += layout.n_active * grid.n_u * grid.n_v


def _count_map_rows(c, args, kwargs, result):
    c["writer.map_rows"] += args[0].grid.n_u * args[0].grid.n_v


def _count_trace_rows(c, args, kwargs, result):
    c["writer.trace_rows"] += args[0].n_steps


def _count_mission(c, args, kwargs, result):
    farms = args[2].n_farms
    if farms:
        c["mission.step_farms"] += result.n_steps * farms
        c["mission.steps"] += result.n_steps
        c["mission.served_steps"] += int((result.farm_index >= 0).sum())


def _count_visible(c, args, kwargs, result):
    c["mission.visible"] += bool(result.visible)


COUNTERS = {
    "core.build_layout": _count_layout,
    "field.evaluate": _count_evals,
    "writer.map_csv": _count_map_rows,
    "writer.trace_csv": _count_trace_rows,
    "mission.simulate": _count_mission,
    "mission.visibility": _count_visible,
}


def _resolve(owner: str):
    module, _, cls = owner.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Span recorder; `job` is the id stamped on spans opened from now on."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.job_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.errors: Counter = Counter()
        self.counters: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _id(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def wrap(self, fn, name: str):
        nid = self._id(name)
        count = COUNTERS.get(name)
        names, parents, jobs, starts, ends = (self.name, self.parent, self.job_id,
                                              self.start, self.end)
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            jobs.append(self.job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name in TARGETS:
            obj = _resolve(owner)
            original = getattr(obj, attr)
            self._saved.append((obj, attr, original))
            setattr(obj, attr, self.wrap(original, name))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    def add_span(self, name: str, start: float, end: float, job: int, parent: int = -1) -> int:
        self.name.append(self._id(name))
        self.parent.append(parent)
        self.job_id.append(job)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def merge(self, other: dict, job: int) -> None:
        """Append spans exported by another process's tracer under one job id."""
        base = len(self.name)
        for nid, parent, start, end in zip(other["name"], other["parent"],
                                           other["start"], other["end"]):
            self.add_span(other["names"][nid], start, end, job,
                          parent + base if parent >= 0 else -1)
        self.errors.update(other["errors"])
        self.counters.update(other["counters"])

    def export(self) -> dict:
        return {"names": self.names, "name": list(self.name), "parent": list(self.parent),
                "start": list(self.start), "end": list(self.end),
                "errors": dict(self.errors), "counters": dict(self.counters)}

    def arrays(self) -> dict:
        return {"names": np.array(self.names), "name": np.frombuffer(self.name, np.int32),
                "parent": np.frombuffer(self.parent, np.int32),
                "job": np.frombuffer(self.job_id, np.int32),
                "start": np.frombuffer(self.start), "end": np.frombuffer(self.end)}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def layer_metrics(tracer: Tracer, job_walls: dict[int, float]) -> dict:
    """Per-layer metrics from the recorded spans.

    `_ms` figures are per-call medians, `_s` figures busy-time totals over the
    traced phase, counts are totals. Self time is a span minus its children.
    `job_walls` maps job id to the job's wall time.
    """
    a = tracer.arrays()
    dur = a["end"] - a["start"]
    ids = {name: i for i, name in enumerate(tracer.names)}

    def sel(*names):
        return np.isin(a["name"], [ids[n] for n in names if n in ids])

    def total(*names):
        return float(dur[sel(*names)].sum())

    def calls(*names):
        return int(sel(*names).sum())

    def median_ms(*names):
        d = dur[sel(*names)]
        return float(np.median(d)) * 1e3 if d.size else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    has_parent = a["parent"] >= 0
    parent_name = np.full(len(dur), -1)
    parent_name[has_parent] = a["name"][a["parent"][has_parent]]
    in_sim = parent_name == ids.get("mission.simulate", -2)
    c = tracer.counters

    # job wall minus the layer spans directly under cli.main (and the
    # interpreter start-up + import span of a fresh process)
    main_id = ids.get("cli.main", -2)
    top = ((parent_name == main_id) | (a["name"] == ids.get("import.process", -2))) & (a["job"] >= 0)
    covered = np.bincount(a["job"][top], weights=dur[top], minlength=max(job_walls, default=-1) + 1)
    overheads = [wall - covered[j] for j, wall in job_walls.items()]

    simulate_s = total("mission.simulate")
    eval_s = total("field.evaluate")
    map_csv_s, trace_csv_s = total("writer.map_csv"), total("writer.trace_csv")
    metrics = {
        "scenario.parse_ms": median_ms("scenario.parse"),
        "scenario.calls": calls("scenario.parse"),
        "scenario.rejected": tracer.errors["scenario.parse"],
        "core.layout_ms": median_ms("core.build_layout"),
        "core.elements": c["core.elements"],
        "field.focus_ms": median_ms("field.focus_command"),
        "field.eval_s": eval_s,
        "field.evals": c["field.evals"],
        "field.evals_per_s": ratio(c["field.evals"], eval_s),
        "field.metrics_ms": median_ms("field.metrics"),
        "writer.map_csv_s": map_csv_s,
        "writer.map_rows_per_s": ratio(c["writer.map_rows"], map_csv_s),
        "writer.map_bin_s": total("writer.map_bin"),
        "writer.trace_csv_s": trace_csv_s,
        "writer.trace_rows_per_s": ratio(c["writer.trace_rows"], trace_csv_s),
        "writer.report_ms": median_ms("writer.report"),
        "mission.simulate_s": simulate_s,
        "mission.self_s": simulate_s - float(dur[in_sim].sum()),
        "mission.step_farms": c["mission.step_farms"],
        "mission.us_per_step_farm": ratio(simulate_s, c["mission.step_farms"]) * 1e6,
        "mission.visible_frac": ratio(c["mission.visible"], calls("mission.visibility")),
        "mission.served_frac": ratio(c["mission.served_steps"], c["mission.steps"]),
        "mission.visibility_calls": calls("mission.visibility"),
        "mission.visibility_s": total("mission.visibility"),
        "mission.assign_calls": calls("mission.assign"),
        "mission.assign_s": total("mission.assign"),
        "link.best_panel_calls": calls("link.best_panel"),
        "link.best_panel_s": total("link.best_panel"),
        "cli.overhead_ms": float(np.median(overheads)) * 1e3 if overheads else 0.0,
    }
    return metrics
