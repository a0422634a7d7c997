"""Per-layer tracing of ptsskit from outside the program.

`Tracer.install` replaces each traced function at every `ptsskit` module
attribute that holds it, which is where its callers look it up (for example
`ptsskit.engine.match`, `ptsskit.bisim.max_flow`, `ptsskit.lp.feasible`).
A self-recursive function is replaced only in the modules that import it, so
its spans count the calls coming from other code.  Each call becomes a span:
name, start, end, parent span and job id.  Spans stay in memory and are
written out at the end of the run.  A span's self time is its duration minus
the time its child spans cover.  The program runs one thread at a time in
every workload (corpus-run's pool gets one file), so one span stack serves.

A function that no longer exists is reported as missing (value null); the
run goes on.
"""

from __future__ import annotations

import gzip
import importlib
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

LAYERS = ("terms", "engine", "distributions", "parser", "lp", "bisim", "format_check", "cli")

# (span name, function, self-recursive); the span name is <layer>.<name>
TARGETS = (
    ("terms.match", "match", False),
    ("terms.substitute", "substitute", True),
    ("terms.render_term", "render_term", True),
    ("engine.stable_model", "stable_model", False),
    ("engine.reachable_pts", "reachable_pts", False),
    ("engine.load_pts", "load_pts", False),
    ("distributions.evaluate", "evaluate", True),
    ("parser.parse_spec", "try_parse_spec", False),  # the CLI's spec parser
    ("parser.parse_term", "parse_term", False),
    ("lp.feasible", "feasible", False),
    ("lp.max_flow", "max_flow", False),
    ("bisim.branching_bisim", "branching_bisim", False),
    ("bisim.prob_branching_bisim", "prob_branching_bisim", False),
    ("bisim.rooted_branching_bisim", "rooted_branching_bisim", False),
    ("bisim.distinguishing_challenge", "distinguishing_challenge", False),
    ("bisim.lift_check", "lift_check", False),
    ("format_check.check_format", "check_format", False),
    ("format_check.congruence_probe", "congruence_probe", False),
    ("cli.main", "main", False),
)


def _count_classes(rel: Any) -> int:
    # without StateRelation.classes(), whose sort would call traced render_term
    return len({frozenset(rel.partners(s)) | {s} for s in rel.states})


def _pts_size(args: tuple, pts: Any) -> dict[str, int]:
    return {"engine.pts_states": len(pts.states), "engine.pts_transitions": len(pts.transitions)}


# span -> (args, result) -> counter increments; runs after the span closes
OBSERVERS: dict[str, Callable[[tuple, Any], dict[str, float]]] = {
    "terms.match": lambda a, r: {"terms.match.hits": r is not None},
    "engine.stable_model": lambda a, r: {"engine.stable_model.iterations": r.iterations},
    "engine.reachable_pts": _pts_size,
    "engine.load_pts": _pts_size,
    "lp.feasible": lambda a, r: {
        "lp.feasible.rows": len(a[0]),
        "lp.feasible.cols": len(a[0][0]) if len(a[0]) else 0,
        "lp.feasible.true": bool(r),
    },
    "bisim.branching_bisim": lambda a, r: {"bisim.classes": _count_classes(r)},
    "bisim.prob_branching_bisim": lambda a, r: {"bisim.classes": _count_classes(r)},
}

# "<span>.calls", "<span>.s" (total time) and "<span>.self_s" come from spans
SPAN_METRICS = (
    "terms.match.calls", "terms.match.s", "terms.substitute.calls",
    "terms.render_term.calls", "terms.render_term.s",
    "engine.stable_model.s", "engine.reachable_pts.self_s", "engine.load_pts.s",
    "distributions.evaluate.calls", "distributions.evaluate.s",
    "parser.parse_spec.s", "parser.parse_term.s",
    "lp.feasible.calls", "lp.feasible.s", "lp.max_flow.calls", "lp.max_flow.s",
    "bisim.branching_bisim.self_s", "bisim.prob_branching_bisim.self_s",
    "bisim.rooted_branching_bisim.self_s", "bisim.distinguishing_challenge.self_s",
    "bisim.lift_check.calls",
    "format_check.check_format.s", "format_check.congruence_probe.self_s",
    "cli.main.self_s",
)
# metric -> (observer counter, span whose call count divides it)
RATIOS = {
    "terms.match.hit_frac": ("terms.match.hits", "terms.match"),
    "lp.feasible.rows_mean": ("lp.feasible.rows", "lp.feasible"),
    "lp.feasible.cols_mean": ("lp.feasible.cols", "lp.feasible"),
    "lp.feasible.true_frac": ("lp.feasible.true", "lp.feasible"),
}
# metric -> spans whose observers feed it
COUNTERS = {
    "engine.stable_model.iterations": ("engine.stable_model",),
    "engine.pts_states": ("engine.reachable_pts", "engine.load_pts"),
    "engine.pts_transitions": ("engine.reachable_pts", "engine.load_pts"),
    "bisim.classes": ("bisim.branching_bisim", "bisim.prob_branching_bisim"),
}
COUNTERS.update({f"{layer}.errors": () for layer in LAYERS})


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric with its unit, in report order."""
    units = {}
    for m in SPAN_METRICS:
        units[m] = "count" if m.endswith(".calls") else "s"
    for m in RATIOS:
        units[m] = "fraction" if m.endswith("_frac") else "count"
    for m in COUNTERS:
        units[m] = "count"
    units["trace.overhead_frac"] = "fraction"
    return units


class Tracer:
    def __init__(self) -> None:
        self.span_names: list[str] = []
        self.name = array("H")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_time = array("d")
        self.job_id = -1
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._covered: list[float] = []  # child time of each open span
        self._undo: list[tuple[Any, str, Any]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("ptsskit.cli")  # loads every layer
        loaded = [m for n, m in sorted(sys.modules.items()) if n.startswith("ptsskit.")]
        for span, func, recursive in TARGETS:
            home = sys.modules[f"ptsskit.{span.split('.')[0]}"]
            original = getattr(home, func, None)
            if not callable(original):
                continue
            wrapper = self._wrap(original, span)
            for module in loaded:
                if recursive and module is home:
                    continue
                if getattr(module, func, None) is original:
                    self._undo.append((module, func, original))
                    setattr(module, func, wrapper)

    def uninstall(self) -> None:
        for module, func, original in reversed(self._undo):
            setattr(module, func, original)
        self._undo.clear()

    def _wrap(self, fn: Callable, span: str) -> Callable:
        sid = len(self.span_names)
        self.span_names.append(span)
        name, parent, job, start, end, self_time = (
            self.name, self.parent, self.job, self.start, self.end, self.self_time
        )
        stack, covered, counts = self._stack, self._covered, self.counts
        observe = OBSERVERS.get(span)
        layer = span.split(".")[0]
        span_names = self.span_names
        tracer = self

        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = len(name)
            name.append(sid)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            start.append(0.0)
            end.append(0.0)
            self_time.append(0.0)
            stack.append(idx)
            covered.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                # count an exception once per layer it escapes
                if len(stack) < 2 or not span_names[name[stack[-2]]].startswith(layer + "."):
                    counts[layer + ".errors"] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                start[idx] = t0
                end[idx] = t1
                self_time[idx] = dur - covered.pop()
                if covered:
                    covered[-1] += dur
            if observe is not None:
                counts.update(observe(args, result))
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- results -------------------------------------------------------------

    def metrics(self) -> dict[str, Optional[float]]:
        """Per-layer values; None where a traced function is missing."""
        totals: dict[int, list] = {}  # span id -> [calls, seconds, self seconds]
        for row, sid in enumerate(self.name):
            entry = totals.setdefault(sid, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += self.end[row] - self.start[row]
            entry[2] += self.self_time[row]
        ids = {span: i for i, span in enumerate(self.span_names)}
        out: dict[str, Optional[float]] = {}
        for m in SPAN_METRICS:
            span, stat = m.rsplit(".", 1)
            if span in ids:
                calls, seconds, self_s = totals.get(ids[span], [0, 0.0, 0.0])
                out[m] = {"calls": calls, "s": seconds, "self_s": self_s}[stat]
            else:
                out[m] = None
        for m, (counter, span) in RATIOS.items():
            calls = totals.get(ids[span], [0])[0] if span in ids else None
            out[m] = None if calls is None else (self.counts[counter] / calls if calls else 0.0)
        for m, spans in COUNTERS.items():
            out[m] = self.counts[m] if all(s in ids for s in spans) else None
        return out

    def write(self, path: Path) -> None:
        """All spans as tab-separated rows: span, name, parent, job, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as f:
            f.write("span\tname\tparent\tjob\tstart_s\tend_s\n")
            for row, sid in enumerate(self.name):
                f.write(
                    f"{row}\t{self.span_names[sid]}\t{self.parent[row]}\t{self.job[row]}"
                    f"\t{self.start[row]:.9f}\t{self.end[row]:.9f}\n"
                )
