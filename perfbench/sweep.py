"""Scaling sweep of single layers, with a fitted log-log growth exponent.

    python3 perfbench/sweep.py

Not gated and not part of BENCHMARK.json: it calls the layer functions in
this process and reports how their time grows, which one run at one size
cannot show.  Each size is timed on several generator seeds where the input
is random, because the planecut searches vary widely between point sets; the
fit uses the median per size, and the spread is printed beside it.  The last
line is the whole result as JSON.
"""

from __future__ import annotations

import json
import math
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from geochroma.chroma import conflict_graph, verify_coloring  # noqa: E402
from geochroma.constructions import (  # noqa: E402
    thm5_construction,
    thm32_construction,
    trivial_edge_decomposition,
)
from geochroma.exactgeom import generate_general_position  # noqa: E402

THM5_N = (200, 250, 300, 350, 400, 450, 500)
THM32_K = (20, 40, 60)
EDGES_N = (16, 24, 32, 40)   # parts = n(n-1)/2 singleton edges
SEEDS = (1, 2, 3)


def fit_exponent(xs, ys) -> float:
    """Least-squares slope of log y against log x."""
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def series(name, size_name, points) -> dict:
    """points: [(size, [seconds per seed])] -> summary with the fitted exponent."""
    rows = [{size_name: size, "median_s": statistics.median(ts), "min_s": min(ts),
             "max_s": max(ts), "samples": len(ts)} for size, ts in points]
    exponent = fit_exponent([r[size_name] for r in rows], [r["median_s"] for r in rows])
    print(f"{name}: time ~ {size_name}^{exponent:.2f}")
    for r in rows:
        print(f"  {size_name}={r[size_name]:>7}  median {r['median_s']:8.3f} s"
              f"  (min {r['min_s']:.3f}, max {r['max_s']:.3f}, {r['samples']} samples)")
    return {"rows": rows, "exponent": exponent}


def main() -> int:
    out = {}
    points = []
    for n in THM5_N:
        ts = [timed(thm5_construction, generate_general_position(n, seed=s))[0] for s in SEEDS]
        points.append((n, ts))
    out["thm5_construction"] = series("thm5_construction", "n", points)

    build, verify = [], []
    for k in THM32_K:
        took, (decomp, coloring) = timed(thm32_construction, k)
        build.append((decomp.config.n, [took]))
        verify.append((decomp.config.n, [timed(verify_coloring, decomp, coloring)[0]]))
    out["thm32_construction"] = series("thm32_construction", "n", build)
    out["verify_coloring_thm32"] = series("verify_coloring on thm32", "n", verify)

    points = []
    for n in EDGES_N:
        ts = []
        for s in SEEDS:
            decomp = trivial_edge_decomposition(generate_general_position(n, seed=s))
            ts.append(timed(conflict_graph, decomp)[0])
        points.append((n * (n - 1) // 2, ts))
    out["conflict_graph"] = series("conflict_graph", "parts", points)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
