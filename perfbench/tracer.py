"""Spans around the package's public functions, installed from outside.

`Tracer.install` replaces each function named in TRACED, wherever a
spherebuckle module holds a reference to it, with a wrapper that records a
span: run id, span id, parent span id, name, start and end. Nothing under
src/ knows about it. Spans stay in memory and are written once, at the end:
by the pass process after its timed region, and by each campaign pool
worker when it exits. The workers fork after the wrappers are installed,
so they run the wrappers too, and their first spans point at the
run_campaign span that was open when they forked.

Only public functions are wrapped. The solver's split into factorization,
subspace iteration and mode sweep happens inside private functions
(_band_qr, _solve_mode, _mode_sweep), so it is left to tracing inside the
program; here that work shows as solver self time. Hot leaf helpers
(bounds.bound_terms and bounds.wangxia_rhs, called per eigenvalue and per
delta; solver.angular_eigenvalue and spectrum.harmonic_multiplicity,
called per mode) are not wrapped: a span for each call would cost more
than the work it times.

`summarize` turns the spans of one pass into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import multiprocessing.util
import os
import statistics
import sys
import time
from math import log2
from pathlib import Path
from typing import Any, Callable

# Every public function that another layer, the command line or a caller
# of the library reaches, so that time lands in the layer that spends it,
# plus the ones a metric names (assemble_mode, run_case, dominance_gap).
TRACED: dict[str, tuple[str, ...]] = {
    "solver": ("solve_cap", "assemble_mode", "coordinate_split_residuals", "convergence_table"),
    "harness": ("run_campaign", "run_case", "report_to_json", "report_to_csv"),
    "bounds": (
        "build_report",
        "dominance_gap",
        "check_theorem",
        "optimal_delta",
        "default_delta_grid",
        "report_to_json",
    ),
    "spectrum": (
        "merge_modes",
        "validate_spectrum",
        "spectrum_to_json",
        "save_spectrum",
        "load_spectrum",
    ),
    "cli": ("main",),
}

LAYERS = tuple(TRACED)


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict[str, Any]:
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _solve_cap_attrs(fn, args, kwargs, result) -> dict[str, Any]:
    spectrum = result[0]
    cells = int(spectrum.meta["N"])
    N0 = int(_bound(fn, args, kwargs)["N0"])
    return {
        "cells": cells,
        "levels": round(log2(cells / N0)) + 1,
        "mode_cutoff": int(spectrum.meta["mode_cutoff"]),
    }


# Counts read off arguments and results, at the call that does the work.
ANNOTATE: dict[str, Callable[..., dict[str, Any]]] = {
    "solver.solve_cap": _solve_cap_attrs,
    "harness.run_campaign": lambda fn, a, kw, r: {"jobs": int(_bound(fn, a, kw)["jobs"])},
    "harness.run_case": lambda fn, a, kw, r: {"checks": len(r.checks)},
    "harness.report_to_json": lambda fn, a, kw, r: {"bytes": len(r.encode())},
    "harness.report_to_csv": lambda fn, a, kw, r: {"bytes": len(r.encode())},
    "bounds.build_report": lambda fn, a, kw, r: {"checks": len(r.checks)},
}


class Tracer:
    """In-memory span recorder for one pass process and its forked workers."""

    def __init__(self, run_id: str, out_dir: Path) -> None:
        self.run_id = run_id
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[str] = []
        self._ids = itertools.count()
        multiprocessing.util.register_after_fork(self, Tracer._after_fork)

    def _after_fork(self) -> None:
        # In a pool worker: the finished spans belong to the parent, the
        # open stack stays so the worker's spans name their parent span.
        self.pid = os.getpid()
        self.spans = []
        self._ids = itertools.count()
        multiprocessing.util.Finalize(self, self.flush, exitpriority=10)

    def wrap(self, name: str, fn: Callable) -> Callable:
        annotate = ANNOTATE.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = f"{self.pid}-{next(self._ids)}"
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = None
                if annotate is not None and result is not None:
                    attrs = annotate(fn, args, kwargs, result)
                self.spans.append((span_id, parent, name, start, end, attrs))

        return traced

    def install(self) -> None:
        """Wrap every TRACED function under every name that refers to it."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == "spherebuckle" or key.startswith("spherebuckle."))
        ]
        for layer, names in TRACED.items():
            module = sys.modules[f"spherebuckle.{layer}"]
            for fname in names:
                original = getattr(module, fname)
                wrapped = self.wrap(f"{layer}.{fname}", original)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapped)

    def flush(self) -> None:
        """Write this process's spans as JSON lines and forget them."""
        if not self.spans:
            return
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, attrs in self.spans:
                doc = {
                    "run": self.run_id,
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "start": start,
                    "end": end,
                }
                if attrs:
                    doc["attrs"] = attrs
                fh.write(json.dumps(doc) + "\n")
        self.spans = []


def load_spans(out_dir: Path) -> list[dict]:
    spans: list[dict] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


# Per-layer metric names and units, in the order they are reported.
METRICS: dict[str, str] = {
    "solver.solve_cap_s": "s",
    "solver.solve_cap_calls": "count",
    "solver.assemble_mode_s": "s",
    "solver.assemble_mode_calls": "count",
    "solver.self_s": "s",
    "solver.cells_max": "cells",
    "solver.cells_sum": "cells",
    "solver.grid_levels_sum": "count",
    "solver.mode_cutoff_sum": "count",
    "solver.max_rel_dev": "rel",
    "harness.run_campaign_s": "s",
    "harness.run_case_s_p50": "s",
    "harness.run_case_s_max": "s",
    "harness.cases": "count",
    "harness.checks": "count",
    "harness.parallel_efficiency": "ratio",
    "harness.serialize_s": "s",
    "harness.report_bytes": "bytes",
    "harness.self_s": "s",
    "bounds.build_report_s": "s",
    "bounds.build_report_calls": "count",
    "bounds.dominance_gap_s": "s",
    "bounds.checks": "count",
    "bounds.self_s": "s",
    "spectrum.load_s": "s",
    "spectrum.save_s": "s",
    "spectrum.merge_modes_s": "s",
    "spectrum.self_s": "s",
    "cli.main_s": "s",
    "cli.calls": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


def summarize(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all METRICS but the trace.* ones
    and solver.max_rel_dev, which come from the pass itself)."""
    children: dict[str, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list[dict]] = {}
    durations: dict[str, list[float]] = {}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        total[name] = total.get(name, 0.0) + dur
        calls[name] = calls.get(name, 0) + 1
        durations.setdefault(name, []).append(dur)
        if "attrs" in s:
            attrs.setdefault(name, []).append(s["attrs"])
        covered = _covered(s["start"], s["end"], children.get(s["id"], []))
        self_s[name.split(".", 1)[0]] += dur - covered

    def attr_sum(name: str, key: str) -> int:
        return sum(a[key] for a in attrs.get(name, ()))

    run_case = durations.get("harness.run_case", [])
    campaign_s = total.get("harness.run_campaign", 0.0)
    jobs = attr_sum("harness.run_campaign", "jobs")
    out = {
        "solver.solve_cap_s": total.get("solver.solve_cap", 0.0),
        "solver.solve_cap_calls": calls.get("solver.solve_cap", 0),
        "solver.assemble_mode_s": total.get("solver.assemble_mode", 0.0),
        "solver.assemble_mode_calls": calls.get("solver.assemble_mode", 0),
        "solver.self_s": self_s["solver"],
        "solver.cells_max": max(
            (a["cells"] for a in attrs.get("solver.solve_cap", ())), default=0
        ),
        "solver.cells_sum": attr_sum("solver.solve_cap", "cells"),
        "solver.grid_levels_sum": attr_sum("solver.solve_cap", "levels"),
        "solver.mode_cutoff_sum": attr_sum("solver.solve_cap", "mode_cutoff"),
        "harness.run_campaign_s": campaign_s,
        "harness.run_case_s_p50": statistics.median(run_case) if run_case else 0.0,
        "harness.run_case_s_max": max(run_case, default=0.0),
        "harness.cases": len(run_case),
        "harness.checks": attr_sum("harness.run_case", "checks"),
        "harness.parallel_efficiency": (
            sum(run_case) / (jobs * campaign_s) if jobs and campaign_s > 0 else 0.0
        ),
        "harness.serialize_s": total.get("harness.report_to_json", 0.0)
        + total.get("harness.report_to_csv", 0.0),
        "harness.report_bytes": attr_sum("harness.report_to_json", "bytes")
        + attr_sum("harness.report_to_csv", "bytes"),
        "harness.self_s": self_s["harness"],
        "bounds.build_report_s": total.get("bounds.build_report", 0.0),
        "bounds.build_report_calls": calls.get("bounds.build_report", 0),
        "bounds.dominance_gap_s": total.get("bounds.dominance_gap", 0.0),
        "bounds.checks": attr_sum("bounds.build_report", "checks"),
        "bounds.self_s": self_s["bounds"],
        "spectrum.load_s": total.get("spectrum.load_spectrum", 0.0),
        "spectrum.save_s": total.get("spectrum.save_spectrum", 0.0),
        "spectrum.merge_modes_s": total.get("spectrum.merge_modes", 0.0),
        "spectrum.self_s": self_s["spectrum"],
        "cli.main_s": total.get("cli.main", 0.0),
        "cli.calls": calls.get("cli.main", 0),
        "cli.self_s": self_s["cli"],
        "trace.spans": len(spans),
    }
    return out
