"""Conflict graphs, colorings, clique index, census and bound evaluators.

Conflict graphs are stored as bitmask adjacency rows, built by one pairwise
helper.  Each part is shaped once (`exactgeom.part_shape`: vertex set, sorted
edges, and in coordinates mode the exact integer bounding box), and every
pair goes to `parts_conflict` as shapes, which decides parts with disjoint
boxes before any other test; graphs and verdicts are those of the plain
all-pairs check.  The exact solvers are deterministic and keep their own
explicit stacks, so no search depth is limited by Python's recursion limit:
DSATUR ties break to the lowest part index, the exact colorer deepens the
palette one color at a time branching on the lowest-index uncolored part,
and the clique search explores candidates in ascending order.  DSATUR and
the exact colorer keep one bitmask of parts per color, not a set of colors
per part, so an assignment is a few big-int operations.  The maximum
intersecting family and tau(p) searches are maximum-clique queries on graphs
built by the same helper.  All threshold comparisons involving the irrational
census parameter are decided by exact integer arithmetic (squaring), never
floating point.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial, reduce
from itertools import accumulate, combinations, islice
from operator import or_
from typing import NamedTuple

from .exactgeom import (
    Configuration,
    InputError,
    convex_noncrossing,
    part_shape,
    parts_conflict,
    point_in_triangle,
)
from .constructions import Coloring, Decomposition


@dataclass(frozen=True)
class ConflictGraph:
    """Symmetric irreflexive adjacency over part indices (bitmask rows)."""

    m: int
    adj: tuple[int, ...]


def _bits(x: int):
    while x:
        b = x & -x
        yield b.bit_length() - 1
        x ^= b


def _graph(items, related) -> ConflictGraph:
    """Bitmask rows of the relation `related` over all pairs of `items`."""
    m = len(items)
    adj = [0] * m
    for i in range(m):
        a = items[i]
        for j in range(i + 1, m):
            if related(a, items[j]):
                adj[i] |= 1 << j
                adj[j] |= 1 << i
    return ConflictGraph(m=m, adj=tuple(adj))


def _conflict_items(config: Configuration, parts: list):
    """The items and relation `_graph` needs for the conflicts among `parts`:
    each part's shape, built once, and `parts_conflict`."""
    return [part_shape(config, v) for v in parts], partial(parts_conflict, config)


def conflict_graph(d: Decomposition) -> ConflictGraph:
    """All-pairs conflict relation; quadratic in the number of parts.

    Each part is shaped once, so a pair costs `parts_conflict` only its box,
    shared-vertex and edge-pair tests."""
    return _graph(*_conflict_items(d.config, list(d.parts.blocks)))


def verify_coloring(d: Decomposition, c: Coloring) -> list[tuple[int, int]]:
    """Violating part pairs (same color, conflicting); empty iff proper.

    The pairs come class by class, in order of each class's first part, and
    by part index within a class.  In convex mode a class is first checked by
    `convex_noncrossing`'s gap scan: its parts, sorted by first vertex (a
    loaded file need not list them in order), must each lie inside one gap
    of the innermost part still open.  Its pairs are listed by
    `parts_conflict` only if the scan rejects it, so a violation is always
    named by the pairwise test.  The parts of a class that is checked pair by
    pair are shaped once, so `parts_conflict` decides pairs whose boxes are
    apart without an edge test.  The classes are the runs of one array of
    part indices counting-sorted by color, a few bytes per part and per color
    id (every coloring this package makes or loads has ids below the number
    of parts)."""
    colors = c.colors
    if len(colors) != len(d.parts):
        raise InputError("coloring does not cover all parts")
    sizes = [0] * c.palette
    for col in colors:
        sizes[col] += 1
    starts = array("Q", accumulate(sizes, initial=0))
    del sizes
    members = array("I", bytes(4 * len(colors)))
    free = array("Q", starts)  # the next slot of each class
    for i, col in enumerate(colors):
        members[free[col]] = i
        free[col] += 1
    del free
    config = d.config
    verts, bounds = d.parts.vertices, d.parts.bounds
    found = []  # (first part, violating pairs) of each improper class
    for lo, hi in zip(starts, islice(starts, 1, None)):
        if hi - lo < 2:
            continue
        cls = members[lo:hi]
        parts = [verts[bounds[i]:bounds[i + 1]] for i in cls]
        if config.mode == "convex" and convex_noncrossing(parts):
            continue
        items, related = _conflict_items(config, parts)
        pairs = [(i, j) for (i, a), (j, b) in combinations(zip(cls, items), 2) if related(a, b)]
        if pairs:
            found.append((cls[0], pairs))
    found.sort()
    return [pair for _, pairs in found for pair in pairs]


def greedy_color(g: ConflictGraph) -> Coloring:
    """DSATUR: highest saturation first, ties to the lowest part index.

    seen[c] is the bitmask of parts adjacent to a part of color c, so giving
    a part color c raises the saturation of exactly its uncolored neighbours
    outside seen[c], and only those are visited."""
    m = g.m
    if m == 0:
        return Coloring(colors=())
    adj = g.adj
    colors = [-1] * m
    sat = [0] * m
    seen: list[int] = []
    left = list(range(m))
    uncolored = (1 << m) - 1
    for _ in range(m):
        best = max(left, key=sat.__getitem__)  # the first maximum: lowest index
        left.remove(best)
        uncolored ^= 1 << best
        c = 0
        while c < len(seen) and seen[c] >> best & 1:
            c += 1
        if c == len(seen):
            seen.append(0)
        colors[best] = c
        for j in _bits(adj[best] & uncolored & ~seen[c]):
            sat[j] += 1
        seen[c] |= adj[best]
    return Coloring(colors=tuple(colors))


# --- maximum clique -------------------------------------------------------------

class CliqueResult(NamedTuple):
    size: int
    exact: bool
    members: list[int]


def clique_index(g: ConflictGraph, budget: int = 2_000_000) -> CliqueResult:
    """Maximum pairwise-adjacent part family; exact when the search finishes
    within the node budget, otherwise the best clique found so far.

    Branch and bound with a pivot: each node counts against the budget, and
    its candidates are the parts not adjacent to the one with the most
    neighbors among those left, taken in ascending order."""
    adj = g.adj
    best: list[int] = []
    stack: list[list] = []  # frames [R, P, candidates]
    R, P = [], (1 << g.m) - 1
    nodes = 0
    while True:
        nodes += 1
        if nodes > budget:
            return CliqueResult(len(best), False, sorted(best))
        if P == 0:
            if len(R) > len(best):
                best = R
        elif len(R) + P.bit_count() > len(best):
            pivot, pbest = -1, -1
            for u in _bits(P):
                c = (P & adj[u]).bit_count()
                if c > pbest:
                    pivot, pbest = u, c
            stack.append([R, P, P & ~adj[pivot]])
        while stack:
            frame = stack[-1]
            R, P, cands = frame
            if cands:
                v = (cands & -cands).bit_length() - 1
                frame[1] = P & ~(1 << v)
                frame[2] = cands & (cands - 1)
                R, P = R + [v], P & adj[v]
                break
            stack.pop()
        else:
            return CliqueResult(len(best), True, sorted(best))


# --- exact chromatic index --------------------------------------------------------

class ChromaticBounds(NamedTuple):
    lower: int
    upper: int
    optimal: bool
    coloring: Coloring | None


def exact_chromatic_index(g: ConflictGraph, budget: int = 2_000_000) -> ChromaticBounds:
    """Iterative deepening on palette size, seeded by a clique lower bound and
    a DSATUR upper bound; bounds are always sound, exact when closed in budget."""
    m = g.m
    if m == 0:
        return ChromaticBounds(0, 0, True, Coloring(()))
    greedy = greedy_color(g)
    ub = greedy.palette
    cl = clique_index(g, budget=min(budget, 300_000))
    lb = max(1, cl.size)
    for k in range(lb, ub):
        res, budget = _try_color(g, k, cl.members, budget)
        if res is None:
            return ChromaticBounds(lb, ub, False, greedy)
        if res is False:
            lb = k + 1
            continue
        return ChromaticBounds(k, k, True, Coloring(tuple(res)))
    return ChromaticBounds(ub, ub, True, greedy)


def _try_color(g: ConflictGraph, k: int, seed_clique: list[int], budget: int):
    """Find a k-coloring (list), prove impossibility (False), or run out of
    budget (None); returned with the budget left.  Branch on the lowest-index
    uncolored part, colors ascending, never opening more than one fresh color;
    each node costs one unit of budget.

    can[c] is the bitmask of parts that no neighbour of color c excludes from
    c, and `uncolored` the bitmask of parts left, so an assignment changes two
    ints and an uncolored part with no color left (a wipeout) is a bit of
    `uncolored` outside the OR of all can[c].  Every uncolored part keeps a
    color after each successful assignment, so a wipeout can only hit a
    neighbour that has just lost color c."""
    m = g.m
    adj = g.adj
    if len(seed_clique) > k:
        return False, budget
    colors = [-1] * m
    can = [(1 << m) - 1] * k
    uncolored = (1 << m) - 1

    def assign(v: int, c: int) -> bool:
        nonlocal uncolored
        colors[v] = c
        uncolored ^= 1 << v
        lost = can[c] & adj[v] & uncolored
        can[c] ^= lost
        return not lost or not lost & ~reduce(or_, can)

    for ci, v in enumerate(seed_clique):
        if not assign(v, ci):
            return False, budget
    stack: list[list] = []  # frames [part, next color, color limit, can[c] before, colors open]
    opened = len(seed_clique)
    while True:
        budget -= 1
        if budget < 0:
            return None, budget
        if not uncolored:
            return colors, budget
        v = (uncolored & -uncolored).bit_length() - 1
        stack.append([v, 0, min(k, opened + 1), None, opened])
        while stack:
            frame = stack[-1]
            v, c, limit, saved, opened = frame
            if saved is not None:  # undo the color tried last
                can[c - 1] = saved
                colors[v] = -1
                uncolored |= 1 << v
            while c < limit and not can[c] >> v & 1:
                c += 1
            if c == limit:
                stack.pop()
                continue
            frame[1], frame[3] = c + 1, can[c]
            opened = max(opened, c + 1)
            if assign(v, c):
                break
        else:
            return False, budget


# --- exact algebraic census threshold ----------------------------------------------

_SQRT6_PREC = 10 ** 50
_SQRT6_NUM = math.isqrt(6 * _SQRT6_PREC * _SQRT6_PREC)
SQRT6_LO = Fraction(_SQRT6_NUM, _SQRT6_PREC)
SQRT6_HI = Fraction(_SQRT6_NUM + 1, _SQRT6_PREC)


@dataclass(frozen=True)
class AlgebraicX:
    """The value a + b*sqrt(6) with rational a, b >= 0; exact comparisons."""

    a: Fraction
    b: Fraction

    def cmp_rational(self, r) -> int:
        """Sign of (a + b sqrt 6) - r, decided by exact squaring."""
        s = self.a - Fraction(r)
        if self.b == 0:
            return (s > 0) - (s < 0)
        if s >= 0:
            return 1
        lhs = 6 * self.b * self.b
        rhs = s * s
        return (lhs > rhs) - (lhs < rhs)

    def floor(self) -> int:
        k = int(self.a + self.b * SQRT6_HI)
        while self.cmp_rational(k + 1) >= 0:
            k += 1
        while self.cmp_rational(k) < 0:
            k -= 1
        return k

    def interval(self) -> tuple[Fraction, Fraction]:
        return self.a + self.b * SQRT6_LO, self.a + self.b * SQRT6_HI


def paper_x() -> AlgebraicX:
    """x = 2(3 + sqrt 6), the census threshold minimizing the bound constant."""
    return AlgebraicX(Fraction(6), Fraction(2))


def _as_threshold(x) -> AlgebraicX:
    if x is None:
        return paper_x()
    if isinstance(x, AlgebraicX):
        return x
    return AlgebraicX(Fraction(x), Fraction(0))


# --- triangle census ----------------------------------------------------------------

def cyclic_length(n: int, u: int, v: int) -> int:
    d = abs(u - v) % n
    return min(d, n - d)


def triangle_length(n: int, verts) -> int:
    a, b, c = verts
    return min(cyclic_length(n, a, b), cyclic_length(n, b, c), cyclic_length(n, a, c))


@dataclass
class TriangleCensus:
    x: str
    limit: int
    lengths: dict[int, int]
    per_class_large: dict[int, int]
    violations: list[int] = field(default_factory=list)


def triangle_census(d: Decomposition, c: Coloring, x=None) -> TriangleCensus:
    """Count large triangles per color class; flag classes beyond floor(x)-2.

    A triangle is large when its length is at least n/x, with the boundary
    case (length exactly n/x) classified large; the comparison is exact.
    """
    if d.config.mode != "convex":
        raise InputError("triangle_census needs a convex configuration")
    xa = _as_threshold(x)
    if xa.cmp_rational(3) < 0:
        raise InputError("threshold x must be >= 3")
    n = d.config.n
    limit = xa.floor() - 2
    lengths: dict[int, int] = {}
    per_class: dict[int, int] = {}
    for i, verts in enumerate(d.parts.blocks):
        if len(verts) > 3:
            raise InputError(f"part {i} is not a triangle or edge: {verts}")
        if len(verts) != 3:
            continue
        t = triangle_length(n, verts)
        lengths[i] = t
        col = c.colors[i]
        per_class.setdefault(col, 0)
        if xa.cmp_rational(Fraction(n, t)) >= 0:  # t >= n/x  <=>  x >= n/t
            per_class[col] += 1
    violations = sorted(col for col, cnt in per_class.items() if cnt > limit)
    return TriangleCensus(
        x=f"{xa.a}+{xa.b}*sqrt(6)" if xa.b else str(xa.a),
        limit=limit,
        lengths=lengths,
        per_class_large=per_class,
        violations=violations,
    )


# --- closed-form bound evaluators ----------------------------------------------------

class BoundValue(NamedTuple):
    lo: Fraction
    hi: Fraction

    def midpoint(self) -> float:
        return float((self.lo + self.hi) / 2)


def _sqrt_interval(v: Fraction) -> tuple[Fraction, Fraction]:
    scale = 10 ** 40
    num = math.isqrt(int(v * scale * scale))
    return Fraction(num, scale), Fraction(num + 1, scale)


def bound_evaluators(n: int, variant: str, c=0, x=None) -> BoundValue:
    """Exact (interval) evaluation of the named closed-form bounds.

    Asymptotic terms appear as explicit finite-n expressions with the constant
    `c` exposed as a parameter; irrational values are returned as tight
    rational intervals.
    """
    if n < 3:
        raise InputError("n must be >= 3")
    c = Fraction(c)
    binom = Fraction(n * (n - 1), 2)
    if variant == "prop1":
        lo, hi = _sqrt_interval(Fraction(n) ** 3)
        return BoundValue(binom / 3 + c * lo, binom / 3 + c * hi)
    if variant == "prop2":
        lo, hi = _sqrt_interval(Fraction(n) ** 3)
        return BoundValue(binom / 6 + c * lo, binom / 6 + c * hi)
    if variant == "thm3":
        v = Fraction(2 * n * n, 49) - c * n
        return BoundValue(v, v)
    if variant == "thm4":
        v = Fraction(n * n, 9) - c
        return BoundValue(v, v)
    if variant == "thm5":
        lo, hi = _sqrt_interval(Fraction(n) ** 3)
        return BoundValue(Fraction(n * n, 9) + c * lo, Fraction(n * n, 9) + c * hi)
    if variant == "thm32":
        v = Fraction(n * n, 36) + c * n
        return BoundValue(v, v)
    if variant == "thm33":
        xa = _as_threshold(x)
        xlo, xhi = xa.interval()
        num_lo = binom / 3 - Fraction(n * n) / xlo
        num_hi = binom / 3 - Fraction(n * n) / xhi
        return BoundValue(num_lo / (xhi - 2), num_hi / (xlo - 2))
    if variant == "thm33_denom":
        xa = _as_threshold(x)
        xlo, xhi = xa.interval()
        # 6x(x-2)/(x-6), the effective n^2 denominator of the thm33 bound
        return BoundValue(
            6 * xlo * (xlo - 2) / (xhi - 6), 6 * xhi * (xhi - 2) / (xlo - 6)
        )
    raise InputError(f"unknown bound variant {variant!r}")


# --- exhaustive searches ---------------------------------------------------------------

def edge_disjoint(a, b) -> bool:
    """True iff two parts, given as vertex tuples, share no edge.  A part is
    complete on its vertices, so two parts share an edge iff they share two
    vertices, at any size."""
    return len(set(a).intersection(b)) < 2


class FamilyResult(NamedTuple):
    family: list[tuple[int, ...]]
    exact: bool


def max_intersecting_family(config: Configuration, k: int, budget: int = 2_000_000) -> FamilyResult:
    """Maximum family of pairwise-conflicting, pairwise edge-disjoint k-vertex
    parts: a maximum clique over all candidate parts."""
    if k not in (2, 3):
        raise InputError("part size must be 2 or 3")
    cands = list(combinations(range(config.n), k))
    g = _graph(cands, lambda a, b: edge_disjoint(a, b) and parts_conflict(config, a, b))
    res = clique_index(g, budget=budget)
    return FamilyResult([cands[i] for i in res.members], res.exact)


class TauResult(NamedTuple):
    count: int
    exact: bool


def tau_point(config: Configuration, p, budget: int = 500_000) -> TauResult:
    """Largest number of edge-disjoint triangles whose closed triangle
    contains p: a maximum clique of the edge-disjointness graph on those
    triangles, exact when the search closes within budget.  p is an (x, y)
    pair of ints or Fractions, and must not be a vertex."""
    if config.mode != "coordinates":
        raise InputError("tau_point needs a coordinates configuration")
    pts = config.points
    if p in pts:
        raise InputError("p must not be a vertex")
    cands = [
        tri
        for tri in combinations(range(config.n), 3)
        if point_in_triangle(p, pts[tri[0]], pts[tri[1]], pts[tri[2]], closed=True)
    ]
    res = clique_index(_graph(cands, edge_disjoint), budget=budget)
    return TauResult(res.size, res.exact)
