"""Per-layer spans for one traced benchmark operation.

The layers are the hansenatlas modules.  Spans are recorded from outside the
program: each public function is replaced, in the namespace where its caller
looks it up, by a wrapper that records (name, start, end, parent) and its
self time (its duration minus the time its child spans cover).  Counts come
from the arguments and results seen at the same boundaries and from the
INFO records of the `hansenatlas.atlas` logger.

Forked scan workers inherit the wrappers.  After every `_scan_one` a worker
appends its spans and counts to `spans-<pid>.jsonl` in the trace directory;
the parent merges those files when the operation has ended.  Spans stay in
memory until then.
"""
from __future__ import annotations

import functools
import json
import logging
import os
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Span names of the route functions of `hansen` (all k = 0 routes are one).
ROUTES = ("hansen.k0", "hansen.newcomb", "hansen.wnuk", "hansen.balmino")

# (module, attribute path, span name): each entry wraps the object the caller
# reaches through that module's namespace.
TARGETS = (
    ("fourier", "hansen", "hansen"),
    ("cli", "hansen", "hansen"),
    ("hansen", "hansen_k0_closed", "hansen.k0"),
    ("hansen", "hansen_k0_negative", "hansen.k0"),
    ("hansen", "hansen_k0_recursive", "hansen.k0"),
    ("cli", "hansen_k0_recursive", "hansen.k0"),
    ("hansen", "hansen_newcomb", "hansen.newcomb"),
    ("hansen", "hansen_wnuk", "hansen.wnuk"),
    ("hansen", "hansen_balmino", "hansen.balmino"),
    ("atlas", "fourier_coefficient", "fourier"),
    ("atlas", "t_mk", "fourier.t_mk"),
    ("fourier", "_assemble", "fourier.assemble"),
    ("series", "SeriesAE.eval_exact", "series.eval_exact"),
    ("atlas", "ModeSurface.__init__", "atlas.surface"),
    ("atlas", "PolyEval.on_grid", "atlas.grid_eval"),
    ("atlas", "ModeSurface.normalized_at", "atlas.edge_eval"),
    ("atlas", "trace_surface", "atlas.trace"),
    ("atlas", "find_triple", "atlas.refine"),
    ("atlas", "find_double", "atlas.refine"),
    ("cli", "scan_modes", "atlas.scan"),
    ("atlas", "_scan_one", "atlas.scan_one"),
    ("cli", "curves_csv", "report.write"),
    ("cli", "atlas_json", "report.write"),
    ("cli", "_Outputs.write", "report.write"),
    ("cli", "_Outputs.finish", "report.write"),
    ("cli", "render_svg", "svgplot.render"),
)

# Every per-layer metric with its unit, in the order they are reported.
METRICS = (
    ("hansen.calls", "count"),
    ("hansen.computed", "count"),
    ("hansen.dispatch_s", "s"),
    ("hansen.k0_s", "s"),
    ("hansen.wnuk_s", "s"),
    ("hansen.newcomb_s", "s"),
    ("hansen.balmino_s", "s"),
    ("fourier.calls", "count"),
    ("fourier.assembled", "count"),
    ("fourier.assemble_s", "s"),
    ("fourier.terms", "count"),
    ("fourier.coeff_bits", "bit"),
    ("series.eval_exact_calls", "count"),
    ("series.eval_exact_s", "s"),
    ("atlas.trace_calls", "count"),
    ("atlas.trace_s", "s"),
    ("atlas.grid_eval_s", "s"),
    ("atlas.edge_eval_s", "s"),
    ("atlas.crossings", "count"),
    ("atlas.crossings_dropped", "count"),
    ("atlas.saddle_cells", "count"),
    ("atlas.surfaces_built", "count"),
    ("atlas.surfaces_distinct", "count"),
    ("atlas.surface_s", "s"),
    ("atlas.trace_useful_ratio", "ratio"),
    ("atlas.refine_s", "s"),
    ("atlas.intersections", "count"),
    ("atlas.newton_dropped", "count"),
    ("atlas.scan_wait_s", "s"),
    ("scan.worker_busy_s", "s"),
    ("scan.efficiency", "ratio"),
    ("scan.tail_s", "s"),
    ("report.write_s", "s"),
    ("svgplot.render_s", "s"),
    ("report.bytes", "B"),
    ("trace.solve_s", "s"),
    ("trace.other_s", "s"),
    ("trace.spans", "count"),
)

# INFO messages of `hansenatlas.atlas` -> (counter, take the count from the
# last argument instead of counting the record).
_LOG_COUNTS = (
    ("edge crossings above eps dropped", "atlas.crossings_dropped", True),
    ("saddle cells resolved", "atlas.saddle_cells", True),
    ("Newton dropped seed", "atlas.newton_dropped", False),
    ("strayed from parent polylines", "atlas.newton_dropped", False),
)


def _surface_key(surf) -> List[int]:
    return [surf.mode.m, surf.mode.k, *surf.order]


def _coefficient_bits(series) -> int:
    return sum(v.numerator.bit_length() + v.denominator.bit_length() for v in series.c.values())


def _intersections(result) -> int:
    if isinstance(result, list):  # find_double
        return len(result)
    return sum(len(reports) for _, reports in result.pair_reports)


class _LogCounter(logging.Handler):
    def __init__(self, tracer: "Tracer"):
        super().__init__(logging.INFO)
        self.tracer = tracer

    def emit(self, record: logging.LogRecord) -> None:
        for text, counter, from_args in _LOG_COUNTS:
            if text in record.msg:
                self.tracer.counts[counter] += record.args[-1] if from_args else 1


class Tracer:
    """Records spans and counts of one operation, in this process and its forks."""

    MODULES = ("cli", "atlas", "fourier", "hansen", "series")

    def __init__(self, trace_dir: Path):
        self.dir = trace_dir
        self.dir.mkdir(parents=True, exist_ok=True)
        self.main_pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[list] = []
        self._next_id = 0
        os.register_at_fork(after_in_child=self._forget)

    def _forget(self) -> None:
        # a forked worker starts with no spans of its own
        self.spans, self.counts, self._stack = [], Counter(), []

    def install(self, modules: Dict[str, object]) -> None:
        """Wrap every target that exists; a missing one leaves its metrics at 0."""
        after: Dict[str, Callable] = {
            "fourier.assemble": self._after_assemble,
            "atlas.refine": lambda args, result: self.counts.update(
                {"atlas.intersections": _intersections(result)}
            ),
            "atlas.scan_one": self._after_scan_one,
        }
        key: Dict[str, Callable] = {
            "atlas.surface": lambda args: _surface_key(args[0]),
            "atlas.trace": lambda args: _surface_key(args[0]),
        }
        for module_name, path, name in TARGETS:
            owner = modules[module_name]
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                continue
            setattr(owner, attr, self._wrap(fn, name, key.get(name), after.get(name)))
        atlas = modules["atlas"]
        bisect = getattr(atlas, "_bisect_edges", None)
        if bisect is not None:

            @functools.wraps(bisect)
            def counted_bisect(surf, a_lo, *rest):
                self.counts["atlas.crossings"] += len(a_lo)
                return bisect(surf, a_lo, *rest)

            atlas._bisect_edges = counted_bisect
        log = logging.getLogger("hansenatlas.atlas")
        log.setLevel(logging.INFO)
        log.addHandler(_LogCounter(self))

    def _wrap(self, fn: Callable, name: str, key: Optional[Callable], after: Optional[Callable]):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1] if stack else None
            # frame: [id, name, child seconds, reached a route]
            frame = [tracer._next_id, name, 0.0, False]
            tracer._next_id += 1
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[2] += t1 - t0
                    if name in ROUTES and parent[1] == "hansen":
                        parent[3] = True
                if frame[3]:
                    tracer.counts["hansen.computed"] += 1
                tracer.spans.append(
                    [
                        name,
                        t0,
                        t1,
                        t1 - t0 - frame[2],
                        frame[0],
                        parent[0] if parent is not None else None,
                        os.getpid(),
                        key(args) if key else None,
                    ]
                )
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _after_assemble(self, args, series) -> None:
        self.counts["fourier.terms"] += len(series.c)
        self.counts["fourier.coeff_bits"] += _coefficient_bits(series)

    def _after_scan_one(self, args, entry) -> None:
        if os.getpid() == self.main_pid:
            return
        with open(self.dir / f"spans-{os.getpid()}.jsonl", "a") as fh:
            fh.write(json.dumps({"spans": self.spans, "counts": self.counts}) + "\n")
        self.spans, self.counts = [], Counter()

    def _all(self):
        spans, counts = list(self.spans), Counter(self.counts)
        for path in sorted(self.dir.glob("spans-*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                spans.extend(record["spans"])
                counts.update(record["counts"])
        return spans, counts

    def write(self, path: Path) -> None:
        """Every span as one JSON line: name, start, end, self, id, parent id, pid, key."""
        spans, _ = self._all()
        fields = ("name", "start", "end", "self", "id", "parent", "pid", "key")
        path.write_text("".join(json.dumps(dict(zip(fields, s))) + "\n" for s in spans))

    def metrics(self, solve_s: float, jobs: int, out_dir: Optional[Path]) -> Dict[str, float]:
        """Per-layer metrics of the operation; self times are summed over processes."""
        spans, counts = self._all()
        self_s: Counter = Counter()
        calls: Counter = Counter()
        main_self = 0.0
        for name, t0, t1, own, _, _, pid, _ in spans:
            self_s[name] += own
            calls[name] += 1
            if pid == self.main_pid:
                main_self += own

        def distinct(name: str) -> int:
            return len({tuple(s[7]) for s in spans if s[0] == name})

        scan = [s for s in spans if s[0] == "atlas.scan" and s[6] == self.main_pid]
        worker = [s for s in spans if s[0] == "atlas.scan_one" and s[6] != self.main_pid]
        busy = sum(s[2] - s[1] for s in worker)
        wall = sum(s[2] - s[1] for s in scan)
        last_finish: Dict[int, float] = {}
        for s in worker:
            last_finish[s[6]] = max(last_finish.get(s[6], s[2]), s[2])
        tail = max(s[2] for s in scan) - min(last_finish.values()) if worker and scan else 0.0
        main_scan_self = sum(
            s[3] for s in spans if s[0] in ("atlas.scan", "atlas.scan_one") and s[6] == self.main_pid
        )
        traces = calls["atlas.trace"]
        out_bytes = sum(p.stat().st_size for p in out_dir.iterdir()) if out_dir else 0
        values = {
            "hansen.calls": calls["hansen"],
            "hansen.computed": counts["hansen.computed"],
            "hansen.dispatch_s": self_s["hansen"],
            "hansen.k0_s": self_s["hansen.k0"],
            "hansen.wnuk_s": self_s["hansen.wnuk"],
            "hansen.newcomb_s": self_s["hansen.newcomb"],
            "hansen.balmino_s": self_s["hansen.balmino"],
            "fourier.calls": calls["fourier"],
            "fourier.assembled": calls["fourier.assemble"],
            "fourier.assemble_s": self_s["fourier"] + self_s["fourier.assemble"] + self_s["fourier.t_mk"],
            "fourier.terms": counts["fourier.terms"],
            "fourier.coeff_bits": counts["fourier.coeff_bits"],
            "series.eval_exact_calls": calls["series.eval_exact"],
            "series.eval_exact_s": self_s["series.eval_exact"],
            "atlas.trace_calls": calls["atlas.trace"],
            "atlas.trace_s": self_s["atlas.trace"],
            "atlas.grid_eval_s": self_s["atlas.grid_eval"],
            "atlas.edge_eval_s": self_s["atlas.edge_eval"],
            "atlas.crossings": counts["atlas.crossings"],
            "atlas.crossings_dropped": counts["atlas.crossings_dropped"],
            "atlas.saddle_cells": counts["atlas.saddle_cells"],
            "atlas.surfaces_built": calls["atlas.surface"],
            "atlas.surfaces_distinct": distinct("atlas.surface"),
            "atlas.surface_s": self_s["atlas.surface"],
            "atlas.trace_useful_ratio": distinct("atlas.trace") / traces if traces else 0.0,
            "atlas.refine_s": self_s["atlas.refine"],
            "atlas.intersections": counts["atlas.intersections"],
            "atlas.newton_dropped": counts["atlas.newton_dropped"],
            "atlas.scan_wait_s": main_scan_self,
            "scan.worker_busy_s": busy,
            "scan.efficiency": busy / (jobs * wall) if worker and wall > 0 else 0.0,
            "scan.tail_s": tail,
            "report.write_s": self_s["report.write"],
            "svgplot.render_s": self_s["svgplot.render"],
            "report.bytes": out_bytes,
            "trace.solve_s": solve_s,
            "trace.other_s": solve_s - main_self,
            "trace.spans": len(spans),
        }
        return {name: float(values[name]) for name, _ in METRICS}
