"""In-process tracing of the geochroma layers, from the benchmark's side.

The traced run calls ``geochroma.cli.main`` in this process after replacing
the public functions of ``exactgeom``, ``planecut``, ``designs``,
``constructions`` and ``chroma`` with wrappers.  A function is replaced in
every ``geochroma`` module that holds it, not only where it is defined,
because the modules import each other's functions by name (``constructions``
calls ``six_fan``, ``chroma`` calls ``parts_conflict``, ``cli`` calls the
constructions and solvers).

Layer functions get spans (name, start, end, parent, request); the hot
predicates get call counts only, since a span per call would cost more than
the predicate.  Counters derived from arguments and results (pairs checked,
triangles placed, bytes read and written) are exact and repeat byte for byte.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter

# (module, function) pairs that get a span
SPANNED = (
    ("exactgeom", "generate_general_position"),
    ("exactgeom", "load_config"),
    ("planecut", "six_parts_two_parallel"),
    ("planecut", "six_fan"),
    ("planecut", "nine_regions"),
    ("planecut", "recount_regions"),
    ("designs", "projective_plane"),
    ("designs", "pencil_through"),
    ("designs", "difference_triples"),
    ("designs", "cyclic_sts"),
    ("constructions", "thm3_construction"),
    ("constructions", "thm4_construction"),
    ("constructions", "thm5_construction"),
    ("constructions", "thm32_construction"),
    ("constructions", "validate_decomposition"),
    ("constructions", "save_decomposition"),
    ("constructions", "load_decomposition"),
    ("chroma", "conflict_graph"),
    ("chroma", "verify_coloring"),
    ("chroma", "greedy_color"),
    ("chroma", "clique_index"),
    ("chroma", "exact_chromatic_index"),
)
# (module, function) pairs that only count calls
COUNTED = (
    ("exactgeom", "orient"),
    ("exactgeom", "proper_cross"),
    ("exactgeom", "convex_cross"),
    ("exactgeom", "parts_conflict"),
)

# name -> (unit, better) for every per-layer metric, in report order
LAYER_METRICS = {
    "cli.startup_s": ("s", "lower"),
    "planecut.six_parts_two_parallel.s": ("s", "lower"),
    "planecut.six_parts_two_parallel.calls": ("count", "lower"),
    "planecut.six_fan.s": ("s", "lower"),
    "planecut.nine_regions.self_s": ("s", "lower"),
    "planecut.recount_regions.s": ("s", "lower"),
    "designs.projective_plane.s": ("s", "lower"),
    "designs.projective_plane.max_q": ("order", "lower"),
    "designs.pencil_through.s": ("s", "lower"),
    "designs.difference_triples.s": ("s", "lower"),
    "designs.cyclic_sts.s": ("s", "lower"),
    "constructions.thm5_construction.self_s": ("s", "lower"),
    "constructions.thm3_construction.self_s": ("s", "lower"),
    "constructions.thm32_construction.self_s": ("s", "lower"),
    "constructions.thm4_construction.s": ("s", "lower"),
    "constructions.thm5.triangles_offered": ("count", "lower"),
    "constructions.thm5.triangles_placed": ("count", "higher"),
    "constructions.thm5.placed_ratio": ("ratio", "higher"),
    "constructions.save_decomposition.s": ("s", "lower"),
    "constructions.load_decomposition.s": ("s", "lower"),
    "constructions.io_bytes": ("bytes", "lower"),
    "constructions.validate_decomposition.s": ("s", "lower"),
    "exactgeom.generate_general_position.s": ("s", "lower"),
    "exactgeom.load_config.s": ("s", "lower"),
    "exactgeom.parts_conflict.calls": ("count", "lower"),
    "exactgeom.proper_cross.calls": ("count", "lower"),
    "exactgeom.convex_cross.calls": ("count", "lower"),
    "exactgeom.orient.calls": ("count", "lower"),
    "chroma.verify_coloring.s": ("s", "lower"),
    "chroma.verify_coloring.pairs": ("count", "lower"),
    "chroma.conflict_graph.s": ("s", "lower"),
    "chroma.conflict_graph.pairs": ("count", "lower"),
    "chroma.conflict_graph.edges": ("count", "lower"),
    "chroma.greedy_color.s": ("s", "lower"),
    "chroma.clique_index.s": ("s", "lower"),
    "chroma.exact_chromatic_index.self_s": ("s", "lower"),
    "chroma.bounds_gap": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Spans and counters of one traced run, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index, request]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.request = 0

    def span(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1,
                               self.request])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if after is not None:
                after(self.counts, args, kwargs, result)
            return result
        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def command(self, name: str, fn, *args):
        """Run one CLI command as the root span of a new request."""
        self.request += 1
        return self.span(name, fn)(*args)

    # --- summaries ---------------------------------------------------------------

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Per span name: summed duration, summed self time, number of calls.

        A span nested inside a span of the same name adds to neither sum, so
        recursion is not counted twice."""
        total, self_time, calls = Counter(), Counter(), Counter()
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] += 1
            self_time[name] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                total[name] += end - start
        return total, self_time, calls

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer can give (all but cli.startup_s
        and trace.overhead_frac, which the runner measures)."""
        total, self_time, calls = self.totals()
        by_stat = {"s": total, "self_s": self_time, "calls": calls}
        out = {}
        for name in LAYER_METRICS:
            base, _, stat = name.rpartition(".")
            if base in _SPAN_NAMES and stat in by_stat:
                out[name] = by_stat[stat][base]
            else:
                out[name] = self.counts[name]
        offered = self.counts["constructions.thm5.triangles_offered"]
        out["constructions.thm5.placed_ratio"] = (
            self.counts["constructions.thm5.triangles_placed"] / offered if offered else 0.0)
        return out

    def fired(self) -> set[str]:
        return {s[0] for s in self.spans} | {k for k, v in self.counts.items() if v}

    def exact_counts(self) -> dict[str, int]:
        """Every count of the run: calls per span name and the counters."""
        _, _, calls = self.totals()
        out = {f"{name}.spans": n for name, n in calls.items()}
        out.update(self.counts)
        return dict(sorted(out.items()))


_SPAN_NAMES = {f"{mod}.{fn}" for mod, fn in SPANNED}


# --- counters derived from arguments and results ------------------------------------

def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _after_plane(counts, args, kwargs, result):
    q = _arg(args, kwargs, 0, "q")
    key = "designs.projective_plane.max_q"
    counts[key] = max(counts[key], q)


def _after_thm5(counts, args, kwargs, result):
    levels = result.stats["levels"]
    # each K9 of each level offers its 12 STS(9) triangles
    counts["constructions.thm5.triangles_offered"] += 12 * sum(lv["k9s"] for lv in levels)
    counts["constructions.thm5.triangles_placed"] += sum(lv["level_triangles"] for lv in levels)


def _after_save(counts, args, kwargs, result):
    counts["constructions.io_bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))


def _after_load(counts, args, kwargs, result):
    counts["constructions.io_bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _after_verify_coloring(counts, args, kwargs, result):
    sizes = Counter(_arg(args, kwargs, 1, "c").colors)
    counts["chroma.verify_coloring.pairs"] += sum(s * (s - 1) // 2 for s in sizes.values())


def _after_conflict_graph(counts, args, kwargs, result):
    counts["chroma.conflict_graph.pairs"] += result.m * (result.m - 1) // 2
    counts["chroma.conflict_graph.edges"] += sum(row.bit_count() for row in result.adj) // 2


def _after_exact(counts, args, kwargs, result):
    counts["chroma.bounds_gap"] += result.upper - result.lower


_AFTER = {
    "designs.projective_plane": _after_plane,
    "constructions.thm5_construction": _after_thm5,
    "constructions.save_decomposition": _after_save,
    "constructions.load_decomposition": _after_load,
    "chroma.verify_coloring": _after_verify_coloring,
    "chroma.conflict_graph": _after_conflict_graph,
    "chroma.exact_chromatic_index": _after_exact,
}


# --- installing wrappers ------------------------------------------------------------

def install(tracer: Tracer):
    """Replace every traced function at every import site; return the list of
    (module, attribute, original) needed to undo it."""
    import geochroma.cli  # noqa: F401  (loads every module the CLI uses)

    modules = [m for name, m in sorted(sys.modules.items())
               if m is not None and (name == "geochroma" or name.startswith("geochroma."))]
    undo = []
    for kind, targets in (("span", SPANNED), ("count", COUNTED)):
        for mod_name, fn_name in targets:
            orig = getattr(sys.modules[f"geochroma.{mod_name}"], fn_name)
            name = f"{mod_name}.{fn_name}"
            if kind == "span":
                wrapper = tracer.span(name, orig, _AFTER.get(name))
            else:
                wrapper = tracer.counter(name, orig)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        undo.append((mod, attr, orig))
    return undo


def uninstall(undo) -> None:
    for mod, attr, orig in reversed(undo):
        setattr(mod, attr, orig)
