"""Discrete plane partitions: parallel strips, concurrent fans, nine-region refinements.

The continuous existence results (equal-measure partitions by three lines) are
realized here by exhaustive candidate search with exact integer arithmetic.
Cut lines are always placed strictly between points: no input point ever lies
on a cut, and every assignment can be recounted from the stored lines.  Side
patterns are never copied from the points (a fan's come from a fixed table by
clockwise sector), so the recount checks what it is given.  Each strip try
sorts its projections once and cuts that order at every rank it needs.

The ham-sandwich search counts sides in numpy int64, for one anchor against
every candidate partner at once.  That is exact because every coordinate
satisfies |x|, |y| <= exactgeom.COORD_BOUND = 2**30: each cross-product term is
at most 2**31 * 2**31 = 2**62 in magnitude, and the two terms are compared,
never subtracted.  Configuration enforces the bound when it is built, so no
input here can exceed it.  numpy is imported only where the sides are
counted, so importing the package does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations, islice

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

def _side_counts(P: Point, qx, qy, strips):
    """Per-strip counts of the points strictly left and strictly right of the
    line P Q, for every Q = (qx[j], qy[j]) at once.

    qx, qy are int64 coordinate arrays and strips a sequence of (xs, ys) int64
    array pairs, one per strip.  Returns (left, right), each of shape
    (len(qx), len(strips)).  Exact while |coordinates| <= 2**30: each product
    below is at most 2**62.
    """
    import numpy as np

    dqx = (qx - P.x)[:, None]
    dqy = (qy - P.y)[:, None]
    left, right = [], []
    for xs, ys in strips:
        lhs = dqx * (ys - P.y)
        rhs = dqy * (xs - P.x)
        left.append(np.count_nonzero(lhs > rhs, axis=1))
        right.append(np.count_nonzero(lhs < rhs, axis=1))
    return np.stack(left, axis=1), np.stack(right, axis=1)


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
        found = _ham_sandwich(pts, label, (A, M, B), lo)
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


def _ham_sandwich(pts, label, strips, lo):
    """Line splitting strips A and B near-evenly with all six parts >= lo.

    strips is (A, M, B) and label[i] the strip (0..2) of point i.  Brute force
    over lines through one point of A and one of B; first valid candidate (in
    lexicographic order, nudges tried in a fixed order) wins.  Each anchor's
    side counts against all of B come from one _side_counts call.  Returns
    (CutLine, side list) or None.
    """
    import numpy as np  # the side counts are the package's only numpy use

    A, _, B = strips
    B = sorted(B)
    xs = np.array([p.x for p in pts], dtype=np.int64)
    ys = np.array([p.y for p in pts], dtype=np.int64)
    strip_xy = [(xs[s], ys[s]) for s in strips]
    bx, by = xs[B], ys[B]
    for ia in sorted(A):
        Pa = pts[ia]
        left, right = _side_counts(Pa, bx, by, strip_xy)
        # a nudge adds the anchor (column 0) or the partner (column 2) to the
        # side it is pushed to; row j, column k is partner B[j], _NUDGES[k]
        plus = (left + 1 >= lo) & (right >= lo)
        minus = (left >= lo) & (right + 1 >= lo)
        fits = {1: plus, -1: minus}
        mid = (left[:, 1] >= lo) & (right[:, 1] >= lo)
        feasible = np.stack([fits[sa][:, 0] & fits[sb][:, 2] & mid
                             for sa, sb in _NUDGES], axis=1)
        for j, k in zip(*np.nonzero(feasible)):
            ib, (sa, sb) = B[j], _NUDGES[k]
            Pb = pts[ib]
            (al, mp, bl), (ar, mm, br) = left[j].tolist(), right[j].tolist()
            ap = al + (sa > 0)
            am = ar + (sa < 0)
            bp = bl + (sb > 0)
            bm = br + (sb < 0)
            line = _nudged_line(pts, Pa, Pb, sa, sb)
            sides = [line.side(p) for p in pts]
            if any(v == 0 for v in sides):
                continue
            # exact recount must reproduce the predicted counts
            want = {(0, 1): ap, (0, -1): am, (1, 1): mp, (1, -1): mm,
                    (2, 1): bp, (2, -1): bm}
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

