"""Discrete plane partitions: parallel strips, concurrent fans, nine-region refinements.

The continuous existence results (equal-measure partitions by three lines) are
realized here by exhaustive candidate search with exact integer arithmetic.
Cut lines are always placed strictly between points: no input point ever lies
on a cut, and every assignment can be recounted from the stored lines.  Side
patterns are never copied from the points (a fan's come from a fixed table by
clockwise sector), so the recount checks what it is given.  Each strip try
sorts its projections once and cuts that order at every rank it needs.

The ham-sandwich search counts sides by an angular sweep around each anchor.
The other points are sorted once by angle about it; then, for the line through
the anchor and any other point, the points strictly left of it form one window
of that circular order and those strictly right the next window.  So one pass
of prefix counts of strip A over the order finds the few partners whose line
can split A evenly, and only their windows are counted in full.  The sweep is
exact: atan2 only proposes the order, an insertion pass repairs it with
integer comparisons (the two half-turns first, then the cross-product sign
within each, a strict order when no two points are collinear with the
anchor), and integer cross products place every window's end.  The order does
not depend on the strip direction, so one six_parts_two_parallel call keeps
each anchor's order and window ends in two array('H') (array('I') from
n = 32768 on) and drops them when it returns: 4 bytes per (anchor, point)
pair, at most 4 n**2 bytes in all (8 n**2).  An anchor collinear with two
other points has windows that skip the points on its lines; its sweep is
redone at each use instead of kept.  Python integers keep every comparison
exact.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import accumulate, combinations, compress, islice

from .exactgeom import (
    Configuration,
    InputError,
    Point,
    canonical_direction,
)


@dataclass(frozen=True)
class CutLine:
    """Oriented line a*x + b*y = c with integer coefficients."""

    a: int
    b: int
    c: int

    def value(self, p: Point) -> int:
        return self.a * p.x + self.b * p.y - self.c

    def side(self, p: Point) -> int:
        v = self.value(p)
        return (v > 0) - (v < 0)


@dataclass
class RegionAssignment:
    """Vertex buckets cut out by lines, with recountable side patterns.

    patterns[i] lists the sign vectors (one entry per cut, 0 = don't care)
    that members of region i must satisfy.  Spill points are recorded, never
    dropped; downstream constructions turn their edges into singleton parts.
    """

    regions: list[list[int]]
    spill: list[int]
    cuts: list[CutLine]
    patterns: list[list[tuple[int, ...]]]
    strips: list[list[int]] | None = None
    center: tuple[Fraction, Fraction] | None = None


def recount_regions(assignment: RegionAssignment, config: Configuration) -> None:
    """Independent oracle: re-evaluate every member against the stored cuts.

    Raises AssertionError unless each member matches an allowed pattern of
    its region, regions and spill are disjoint, and together they cover all
    vertices.
    """
    pts = config.points
    seen: set[int] = set()
    for bucket in list(assignment.regions) + [assignment.spill]:
        for v in bucket:
            if v in seen:
                raise AssertionError(f"vertex {v} assigned twice")
            seen.add(v)
    if len(seen) != config.n:
        raise AssertionError("regions plus spill do not cover the vertex set")
    for i, region in enumerate(assignment.regions):
        pats = assignment.patterns[i]
        for v in region:
            sig = tuple(cut.side(pts[v]) for cut in assignment.cuts)
            if any(s == 0 for s in sig):
                raise AssertionError(f"vertex {v} lies on a cut line")
            ok = any(
                all(p == 0 or p == s for p, s in zip(pat, sig)) for pat in pats
            )
            if not ok:
                raise AssertionError(f"vertex {v} fails the pattern of region {i}")


# --- candidate directions ----------------------------------------------------

_FIXED_NORMALS = [
    (1, 0), (0, 1), (1, 1), (1, -1), (2, 1), (1, 2), (2, -1), (1, -2),
    (3, 1), (1, 3), (3, -1), (1, -3), (3, 2), (2, 3), (3, -2), (2, -3),
]


def _candidate_normals(pts, first=None):
    seen = set()
    order = list(_FIXED_NORMALS)
    if first is not None:
        order = [first] + order
    for w in order:
        w = canonical_direction(*w)
        if w not in seen:
            seen.add(w)
            yield w
    for i, j in combinations(range(len(pts)), 2):
        dx, dy = pts[j].x - pts[i].x, pts[j].y - pts[i].y
        # the pair direction itself, then a slight rotation of its normal
        for a, b in ((dx, dy), (8 * -dy + dx, 8 * dx + dy)):
            if a == 0 and b == 0:
                continue
            w = canonical_direction(a, b)
            if w not in seen:
                seen.add(w)
                yield w


def _projection_cuts(pts, w, ranks):
    """Cut pts, sorted by projection onto w, at each of the ascending ranks.

    Returns (parts, lines): the len(ranks) + 1 runs of indices between the
    cuts, lowest first, and per rank the CutLine with normal w between its two
    sides; None when the projections at some cut tie.  Raises InputError
    unless every rank is in 1..len(pts)-1.
    """
    n = len(pts)
    if not all(0 < r < n for r in ranks):
        raise InputError(f"projection ranks {list(ranks)} must lie in 1..{n - 1}")
    wx, wy = w
    proj = sorted((wx * p.x + wy * p.y, i) for i, p in enumerate(pts))
    lines = []
    for r in ranks:
        lo_v, hi_v = proj[r - 1][0], proj[r][0]
        if lo_v == hi_v:
            return None
        lines.append(CutLine(2 * wx, 2 * wy, lo_v + hi_v))
    bounds = (0, *ranks, n)
    parts = [[i for _, i in proj[s:e]] for s, e in zip(bounds, bounds[1:])]
    return parts, lines


def projection_splits(pts, rank):
    """Every tie-free split of pts into its `rank` lowest projections and the rest.

    Yields (w, low, high, line) for each candidate normal w, in the order of
    _candidate_normals(pts, first=(0, 1)), whose boundary projections differ;
    line has normal w and lies strictly between low and high.  Raises
    InputError unless 1 <= rank <= len(pts) - 1.
    """
    for w in _candidate_normals(pts, first=(0, 1)):
        cut = _projection_cuts(pts, w, (rank,))
        if cut is not None:
            (low, high), (line,) = cut
            yield w, low, high, line


# --- exact nudged lines ------------------------------------------------------

def _nudged_line(pts, P: Point, Q: Point, sp: int, sq: int) -> CutLine:
    """Line agreeing with line(P,Q) on all other points, pushing P to side sp
    and Q to side sq (each +-1).  Exact integer construction."""
    dx, dy = Q.x - P.x, Q.y - P.y
    a0, b0, c0 = -dy, dx, dx * P.y - dy * P.x  # the line through P and Q
    if sp == sq:
        # translate: f' = 2 f + sp
        return CutLine(2 * a0, 2 * b0, 2 * c0 - sp)
    # rotate about the midpoint: g = 2N f + delta * (d . (2x - P - Q))
    delta = -sp  # g(P) = -delta |d|^2
    N = 1
    for p in pts:
        N = max(N, abs(dx * (2 * p.x - P.x - Q.x) + dy * (2 * p.y - P.y - Q.y)))
    N += 1
    a1 = 2 * N * a0 + 2 * delta * dx
    b1 = 2 * N * b0 + 2 * delta * dy
    c1 = 2 * N * c0 + delta * (dx * (P.x + Q.x) + dy * (P.y + Q.y))
    return CutLine(a1, b1, c1)


# --- six parts by three lines, two parallel ----------------------------------

def _angular_sweep(pts, a):
    """Exact angular order of the other points around pts[a], with the sides.

    Returns (order, windows).  order lists every index but a by the angle of
    pts[i] - pts[a] over (-pi, pi].  windows is four sequences (left_lo,
    left_hi, right_lo, right_hi) indexed by position: in order + order, the
    points strictly left of the line from pts[a] to pts[order[k]] sit at
    positions left_lo[k] .. left_hi[k] - 1 and those strictly right at
    right_lo[k] .. right_hi[k] - 1.  When no two other points are collinear
    with pts[a], left_lo and right_hi are ranges and left_hi is right_lo.
    atan2 only proposes the order: an insertion pass repairs it with exact
    integer comparisons, and exact cross products find every window end.
    """
    px, py = pts[a]
    dx = [p.x - px for p in pts]
    dy = [p.y - py for p in pts]
    hint = list(map(math.atan2, dy, dx))
    order = sorted(range(len(pts)), key=hint.__getitem__)
    order.remove(a)
    # upper[i]: the angle of d_i lies in (0, pi], else in (-pi, 0]
    upper = [y > 0 or (y == 0 and x < 0) for x, y in zip(dx, dy)]
    m = len(order)
    ties = False  # two other points collinear with pts[a]
    for i in range(1, m):
        v = order[i]
        j = i
        while j:
            u = order[j - 1]
            if upper[u] == upper[v]:
                c = dx[u] * dy[v] - dy[u] * dx[v]
                if c >= 0:
                    ties = ties or c == 0
                    break
            elif upper[v]:
                break
            order[j] = u
            j -= 1
        order[j] = v
    # coordinates by position in order + order
    cx = list(map(dx.__getitem__, order)) * 2
    cy = list(map(dy.__getitem__, order)) * 2
    # each left window ends at the first position at angle >= theta + pi
    ends = []
    s = 1
    for k in range(m):
        ux, uy = cx[k], cy[k]
        end = k + m
        if s <= k:
            s = k + 1
        while s < end and ux * cy[s] > uy * cx[s]:
            s += 1
        ties = ties or (s < end and ux * cy[s] == uy * cx[s])
        ends.append(s)
    if not ties:
        return order, (range(1, m + 1), ends, ends, range(m, 2 * m))
    # positions k .. g - 1 point the same way; the left window stops before
    # angle theta + pi, the right one starts after it
    windows = ([], [], [], [])
    k = s = 0
    while k < m:
        ux, uy = cx[k], cy[k]
        g = k + 1
        while g < m and upper[order[g]] == upper[order[k]] and ux * cy[g] == uy * cx[g]:
            g += 1
        end = k + m
        s = max(s, g)
        while s < end and ux * cy[s] > uy * cx[s]:
            s += 1
        t = s
        while t < end and ux * cy[t] == uy * cx[t]:
            t += 1
        for w, v in zip(windows, (g, s, t, end)):
            w.extend([v] * (g - k))
        k = g
    return order, windows


def _cached_sweep(pts, a, sweeps):
    """_angular_sweep(pts, a), kept in sweeps when no two other points are
    collinear with pts[a]: then each side is one window, held as the order
    and the window ends in two compact arrays."""
    hit = sweeps.get(a)
    if hit is not None:
        order, ends = hit
        m = len(order)
        return order, (range(1, m + 1), ends, ends, range(m, 2 * m))
    order, windows = _angular_sweep(pts, a)
    if isinstance(windows[0], range):
        code = "H" if 2 * len(pts) < 1 << 16 else "I"
        sweeps[a] = (array(code, order), array(code, windows[1]))
    return order, windows


def six_parts_two_parallel(config: Configuration) -> RegionAssignment:
    """Three cuts, two of them parallel, giving six regions of >= ceil(n/6)-1.

    Candidate strip directions are scanned in a fixed deterministic order; for
    each, a simultaneous bisector of the outer strips is brute-forced over
    lines through one point of each strip, then nudged off the points.
    """
    if config.mode != "coordinates":
        raise InputError("six_parts_two_parallel needs a coordinates configuration")
    n = config.n
    if n < 6:
        raise InputError("need n >= 6")
    pts = config.points
    lo = -(-n // 6) - 1  # ceil(n/6) - 1
    # outer strip size t must allow halves >= lo and a middle of >= 2*lo;
    # the canonical allocation ceil(n/3) comes first (it is the one the
    # continuity proof fixes), smaller middles only as feasibility fallbacks
    # (n = 6r+1 forces t below ceil(n/3)); 6*lo < n keeps the range nonempty
    canonical = -(-n // 3)
    third = n / 3
    t_order = sorted(range(max(1, 2 * lo), (n - 2 * lo) // 2 + 1),
                     key=lambda t: (t != canonical, abs(t - third), t))

    sweeps = {}  # anchor -> its angular sweep, shared by every strip try

    def attempt(t, w):
        # t <= n - t: the low strip B, the middle M and the high strip A
        cut = _projection_cuts(pts, w, (t, n - t))
        if cut is None:
            return None
        (B, M, A), (line_lo, line_hi) = cut
        label = [0] * n  # 0=A 1=M 2=B
        for i in M:
            label[i] = 1
        for i in B:
            label[i] = 2
        found = _ham_sandwich(pts, label, (A, M, B), lo, sweeps=sweeps)
        if found is None:
            return None
        return found, label, line_hi, line_lo, (A, M, B)

    # preferred strip sizes first over the first 48 directions, then the later
    # ones as a last resort (attempt is pure: a failed direction stays failed)
    stream = ((t, w) for start, stop in ((0, 48), (48, None)) for t in t_order
              for w in islice(_candidate_normals(pts), start, stop))
    hit = next(filter(None, (attempt(t, w) for t, w in stream)), None)
    if hit is None:
        raise InputError(
            f"six_parts_two_parallel: search exhausted (n={n}, bound={lo})"
        )
    (l3, sides), label, line_hi, line_lo, (A, M, B) = hit
    regions = [[], [], [], [], [], []]  # A+ M+ B+ A- M- B-
    for i in range(n):
        strip = label[i]
        if sides[i] > 0:
            regions[strip].append(i)
        else:
            regions[3 + strip].append(i)
    cuts = [line_hi, line_lo, l3]
    patterns = [
        [(1, 1, 1)], [(-1, 1, 1)], [(-1, -1, 1)],
        [(1, 1, -1)], [(-1, 1, -1)], [(-1, -1, -1)],
    ]
    strips = [sorted(A), sorted(M), sorted(B)]
    asg = RegionAssignment(
        regions=[sorted(r) for r in regions],
        spill=[],
        cuts=cuts,
        patterns=patterns,
        strips=strips,
    )
    recount_regions(asg, config)
    return asg


_NUDGES = ((1, 1), (-1, -1), (1, -1), (-1, 1))
_SIDE_KEYS = ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))  # (strip, side)


def _ham_sandwich(pts, label, strips, lo, *, sweeps=None):
    """Line splitting strips A and B near-evenly with all six parts >= lo.

    strips is (A, M, B) and label[i] the strip (0..2) of point i.  Brute force
    over lines through one point of A and one of B; first valid candidate (in
    lexicographic order, nudges tried in a fixed order) wins.  Each anchor's
    side counts against all of B come from one angular sweep around it:
    prefix counts of A in its order keep the partners whose line leaves at
    least lo - 1 points of A on each side, and only those are counted in
    full.  sweeps, a dict, keeps the sweeps across calls with the same pts.
    Returns (CutLine, side list) or None.
    """
    A, _, B = strips
    if sweeps is None:
        sweeps = {}
    partner = bytearray(len(pts))
    for i in B:
        partner[i] = 1
    for ia in sorted(A):
        Pa = pts[ia]
        order, (left_lo, left_hi, right_lo, right_hi) = _cached_sweep(pts, ia, sweeps)
        labels = list(map(label.__getitem__, order)) * 2
        in_a = list(accumulate(map((0).__eq__, labels), initial=0))
        # a nudge adds one to one side of A, so each side needs lo - 1 points
        # of A off the line: the left window's count must lie in [lo - 1, hi]
        hi = in_a[len(order)] - lo + 1
        near = [k for k in compress(range(len(order)), map(partner.__getitem__, order))
                if lo - 1 <= in_a[left_hi[k]] - in_a[left_lo[k]] <= hi]
        feasible = []
        for k in near:
            al, ml, bl = map(labels[left_lo[k]:left_hi[k]].count, range(3))
            ar, mr, br = map(labels[right_lo[k]:right_hi[k]].count, range(3))
            # a nudge adds the anchor (sa) or the partner (sb) to the side it
            # is pushed to; counts are per (strip, side) in _SIDE_KEYS order
            for nudge, (sa, sb) in enumerate(_NUDGES):
                counts = (al + (sa > 0), ar + (sa < 0), ml, mr, bl + (sb > 0), br + (sb < 0))
                if min(counts) >= lo:
                    feasible.append((order[k], nudge, counts))
        for ib, nudge, counts in sorted(feasible):
            line = _nudged_line(pts, Pa, pts[ib], *_NUDGES[nudge])
            sides = [line.side(p) for p in pts]
            if any(v == 0 for v in sides):
                continue
            # exact recount must reproduce the predicted counts
            want = dict(zip(_SIDE_KEYS, counts))
            got: dict[tuple[int, int], int] = {}
            for i, sv in enumerate(sides):
                key = (label[i], sv)
                got[key] = got.get(key, 0) + 1
            if got != {c: v for c, v in want.items() if v}:
                raise AssertionError("nudged line miscounts its sides")
            return line, sides
    return None


# --- six equal angular parts by three concurrent lines ------------------------

def _cross(v1, v2) -> int:
    return v1[0] * v2[1] - v1[1] * v2[0]


def _sort_halfplane(dirs, idxs):
    """Sort indices by ccw angle; valid within one open halfplane.

    When no two of the directions are parallel the order is strict, so the
    result does not depend on the order of idxs, and an almost sorted idxs
    (the order around a nearby center) costs about len(idxs) comparisons.
    """

    def cmp(i, j):
        c = _cross(dirs[i], dirs[j])
        return -1 if c > 0 else (1 if c < 0 else 0)

    return sorted(idxs, key=cmp_to_key(cmp))


def _ray_between(dirs, slopes, i, j):
    """Integer direction strictly between dirs[i] and dirs[j] (consecutive in
    angle), not parallel to any point direction; slopes holds the
    canonical_direction of every point direction."""
    v1, v2 = dirs[i], dirs[j]
    for k in range(1, len(dirs) + 3):
        cand = (v1[0] * k + v2[0], v1[1] * k + v2[1])
        if canonical_direction(*cand) not in slopes:
            return cand
    raise AssertionError("no clean ray direction found")  # pragma: no cover


def six_fan(config: Configuration, q: int) -> RegionAssignment:
    """Three concurrent cuts whose six angular sectors each hold >= q points.

    Exactly q points per sector are labelled (in angular order); the remaining
    m - 6q points are spill.  The common point is never an input point.
    Regions are listed clockwise around the center.
    """
    if config.mode != "coordinates":
        raise InputError("six_fan needs a coordinates configuration")
    pts = config.points
    m = config.n
    if m < 6 * q or q < 1:
        raise InputError(f"six_fan needs m >= 6q (m={m}, q={q})")

    # m >= 6q: both halves of each split hold >= 3q points
    for (wx, wy), D_idx, U_idx, line1 in projection_splits(pts, m // 2):
        # L1 direction with the U side on its ccw half
        ux, uy = wy, -wx
        # foot of the perpendicular from origin, as a rational point on L1
        c2 = Fraction(line1.c, 2)
        den = Fraction(wx * wx + wy * wy)
        X0 = (c2 * wx / den, c2 * wy / den)

        ts: set[Fraction] = set()
        for i, j in combinations(range(m), 2):
            dx, dy = pts[j].x - pts[i].x, pts[j].y - pts[i].y
            Bc = dx * uy - dy * ux
            if Bc == 0:
                continue
            Ac = dx * (X0[1] - pts[i].y) - dy * (X0[0] - pts[i].x)
            ts.add(Fraction(-Ac, Bc))
        # ts is nonempty: the points are not all on one line parallel to L1
        tl = sorted(ts)
        cands = [tl[0] - 1, *((s + t) / 2 for s, t in zip(tl, tl[1:])), tl[-1] + 1]
        # each center lies strictly between two consecutive pair-line
        # crossings of L1 (or beyond both ends), so no two points are
        # collinear with it: the angular orders are strict, and each center's
        # sort starts from the order around the previous one
        Us, Ds = U_idx, D_idx
        for t in cands:
            fx, fy = X0[0] + t * ux, X0[1] + t * uy
            PD = math.lcm(fx.denominator, fy.denominator)
            PX, PY = int(fx * PD), int(fy * PD)
            dirs = [(p.x * PD - PX, p.y * PD - PY) for p in pts]
            # the center lies on L1, so U (high projections onto w) is the open
            # ccw half of u and D the open cw half: cross(u, p - center) = w . p - c/2
            Us = _sort_halfplane(dirs, Us)
            Ds = _sort_halfplane(dirs, Ds)
            fan = _try_fan_center(q, line1, (PX, PY, PD), dirs, Us, Ds)
            if fan is not None:
                recount_regions(fan, config)
                return fan
    raise InputError(f"six_fan: candidate search exhausted (m={m}, q={q})")


# signs against (line1, cut2, cut3) of clockwise fan sector k: the center is on
# no line through two points and each ray strictly between two points
_FAN_PATTERNS = ((-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (1, 1, 1), (1, 1, -1), (1, -1, -1))


def _try_fan_center(q, line1, center, dirs, Us, Ds):
    """Fan with cuts line1 and two rays through center = (PX, PY, PD), the
    point (PX/PD, PY/PD) on line1, or None.  dirs[i] is PD * (pts[i] - center),
    and Us, Ds are the two sides of line1 in ccw angular order."""
    PX, PY, PD = center
    su, sd = len(Us), len(Ds)
    slopes = {canonical_direction(*d) for d in dirs}

    # boundary k of U (between Us[k-1] and Us[k]): its ray, and how many D
    # points lie before the opposite ray.  Ds is in ccw order inside one open
    # halfplane, so those points are a prefix of Ds, nondecreasing in k.
    rays, below = {}, {}
    p = 0
    for k in range(q, su - q + 1):
        r = rays[k] = _ray_between(dirs, slopes, Us[k - 1], Us[k])
        nr = (-r[0], -r[1])
        while p < sd and _cross(dirs[Ds[p]], nr) > 0:
            p += 1
        below[k] = p

    fit = next(((a, b) for a in range(q, su - 2 * q + 1)
                for b in range(a + q, su - q + 1)
                if min(below[a], below[b] - below[a], sd - below[b]) >= q), None)
    if fit is None:
        return None
    a, b = fit
    i2, i3 = below[a], below[b]
    # ccw sectors: U[:a], U[a:b], U[b:], D[:i2], D[i2:i3], D[i3:]
    cw = [Ds[i3:], Ds[i2:i3], Ds[:i2], Us[b:], Us[a:b], Us[:a]]
    cuts = [line1, _line_through_center(PX, PY, PD, rays[a]),
            _line_through_center(PX, PY, PD, rays[b])]
    return RegionAssignment(
        regions=[sector[:q] for sector in cw],
        spill=sorted(v for sector in cw for v in sector[q:]),
        cuts=cuts,
        patterns=[[pattern] for pattern in _FAN_PATTERNS],
        center=(Fraction(PX, PD), Fraction(PY, PD)),
    )


def _line_through_center(PX, PY, PD, direction) -> CutLine:
    dx, dy = direction
    # normal (-dy, dx); line passes through (PX/PD, PY/PD)
    a = -dy * PD
    b = dx * PD
    c = -dy * PX + dx * PY
    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
    if g > 1:
        a, b, c = a // g, b // g, c // g
    return CutLine(a, b, c)


# --- nine regions for the recursive triangle decomposition --------------------

def nine_fit(base: RegionAssignment, q: int) -> bool:
    """True iff nine_regions can refine base's six parts with q points per
    region: every part holds >= q and each strip's two parts >= 3q together."""
    s = [len(r) for r in base.regions]
    return min(s) >= q and all(s[i] + s[i + 3] >= 3 * q for i in range(3))


def nine_regions(config: Configuration, q: int, base: RegionAssignment | None = None) -> RegionAssignment:
    """Buckets R1..R9: R1..R6 are the q points of each sixth nearest the
    third cut; R7..R9 merge the leftovers of each strip, truncated to q."""
    if q < 1:
        raise InputError("q must be >= 1")
    if base is None:
        base = six_parts_two_parallel(config)
    S = base.regions  # A+ M+ B+ A- M- B-
    if not nine_fit(base, q):
        raise InputError(
            f"six parts of sizes {[len(s) for s in S]} cannot fill nine regions "
            f"of q = {q}; choose smaller q"
        )
    pts = config.points
    l3 = base.cuts[2]
    # secondary functional along l3's direction, for tie-free sub-cuts
    gx, gy = -l3.b, l3.a
    gmax = max(abs(gx * p.x + gy * p.y) for p in pts)
    N = 2 * gmax + 2

    def key(v):
        # N|f3| + g orders as (|f3|, g), since N > 2 gmax; a part's sgn*f3 is |f3|
        p = pts[v]
        return N * abs(l3.value(p)) + gx * p.x + gy * p.y

    subcuts = []
    lower: list[list[int]] = []
    upper: list[list[int]] = []
    for i in range(6):
        sgn = 1 if i < 3 else -1
        ranked = sorted(S[i], key=key)
        Ri, Rrest = ranked[:q], ranked[q:]
        k1 = key(Ri[-1])
        k2 = key(Rrest[0]) if Rrest else k1 + 2
        # F(x) = 4(N*sgn*f3(x) + g(x)) - (2(k1+k2)+1): negative exactly on Ri,
        # and odd everywhere, so no point can lie on the sub-cut.
        a = 4 * (N * sgn * l3.a + gx)
        b = 4 * (N * sgn * l3.b + gy)
        c = 4 * N * sgn * l3.c + 2 * (k1 + k2) + 1
        cut = CutLine(a, b, c)
        subcuts.append(cut)
        lower.append(Ri)
        upper.append(Rrest)

    regions = [sorted(r) for r in lower]
    spill = []
    for strip in range(3):
        pool = sorted(upper[strip] + upper[strip + 3], key=lambda v: (key(v), v))
        regions.append(sorted(pool[:q]))
        spill.extend(pool[q:])
    cuts = base.cuts + subcuts
    strip_pat = [(1, 1), (-1, 1), (-1, -1)]
    patterns = []
    for i in range(6):
        sub = [0] * 6
        sub[i] = -1
        pat = strip_pat[i % 3] + ((1,) if i < 3 else (-1,)) + tuple(sub)
        patterns.append([pat])
    for strip in range(3):
        pats = []
        for half, l3s in ((strip, 1), (strip + 3, -1)):
            sub = [0] * 6
            sub[half] = 1
            pats.append(strip_pat[strip] + (l3s,) + tuple(sub))
        patterns.append(pats)
    asg = RegionAssignment(
        regions=regions,
        spill=sorted(spill),
        cuts=cuts,
        patterns=patterns,
        strips=base.strips,
    )
    recount_regions(asg, config)
    return asg

