"""Finite fields, projective planes, STS(9), and cyclic Steiner triple systems.

Every supported GF(q) is its four tables from field_tables: a prime field is
the degree-1 case and a prime power uses a fixed table of irreducible
polynomials (q <= 32).  Desarguesian planes are built from homogeneous
triples over GF(q), normalized so the first nonzero coordinate is 1, and each
line's q+1 points are listed directly from its triple, as a sorted tuple.  The
one incidence table serves both ways, since the plane is self-dual in these
coordinates; the plane axioms are checked exhaustively in tests.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import defaultdict
from dataclasses import dataclass
from itertools import chain, combinations, islice
from operator import eq, ge

from .exactgeom import InputError


# irreducible polynomials over GF(p), coefficients little-endian, monic
_IRREDUCIBLE = {
    4: (2, (1, 1, 1)),            # x^2 + x + 1
    8: (2, (1, 1, 0, 1)),         # x^3 + x + 1
    9: (3, (1, 0, 1)),            # x^2 + 1
    16: (2, (1, 1, 0, 0, 1)),     # x^4 + x + 1
    25: (5, (1, 1, 1)),           # x^2 + x + 1
    27: (3, (1, 2, 0, 1)),        # x^3 + 2x + 1
    32: (2, (1, 0, 1, 0, 0, 1)),  # x^5 + x^2 + 1
}


def plane_order_supported(q: int) -> bool:
    """True iff GF(q) is available: q is prime, or a prime power whose
    irreducible polynomial is tabled."""
    return q >= 2 and (_smallest_prime_factor(q) == q or q in _IRREDUCIBLE)


def field_tables(q: int) -> tuple[list, list, list, list]:
    """GF(q) as its (add, neg, mul, inv) tables; elements are integers 0..q-1.

    add[a][b], neg[a], mul[a][b] and inv[a] (inv[0] is 0) are the field's
    operations.  The integer encodes polynomial coefficients base p
    (little-endian), reduced modulo a monic irreducible polynomial of degree
    e; a prime field is the degree-1 case, reduced modulo x.
    """
    if not plane_order_supported(q):
        raise InputError(
            f"GF({q}) is not supported: q must be prime or one of "
            f"{sorted(_IRREDUCIBLE)}"
        )
    p, poly = _IRREDUCIBLE.get(q, (q, (0, 1)))
    top = q // p  # place value of the x^(e-1) digit
    # digitwise sums mod p: above the lowest digit, a + b is the sum of
    # a // p and b // p shifted up one place, read from an earlier row
    add = [list(range(q))]
    for a in range(1, q):
        up = add[a // p]
        add.append([up[b // p] * p + (a + b) % p for b in range(q)])
    neg = [row.index(0) for row in add]
    # x * c: shift c's digits up one place; the digit t pushed to x^e
    # returns as t * (x^e mod poly), whose digits are -t * poly[:e]
    carry = [sum((-t * k) % p * p**j for j, k in enumerate(poly[:-1])) for t in range(p)]
    times_x = [add[c % top * p][carry[c // top]] for c in range(q)]
    # Horner's rule over the multiplier's digits: a*b is x * (a*(b // p))
    # when b's lowest digit is 0, else a*(b - 1) + a
    mul = []
    for a in range(q):
        row = [0]
        for b in range(1, q):
            row.append(times_x[row[b // p]] if b % p == 0 else add[row[b - 1]][a])
        mul.append(row)
    inv = [0] * q
    for a in range(1, q):
        row = mul[a]
        if 1 not in row:
            raise AssertionError(f"element {a} has no inverse in GF({q})")
        inv[a] = row.index(1)
    return add, neg, mul, inv


def _smallest_prime_factor(m: int) -> int:
    d = 2
    while d * d <= m:
        if m % d == 0:
            return d
        d += 1
    return m


@dataclass(frozen=True)
class ProjectivePlane:
    """Desarguesian plane of order q as a point/line incidence structure.

    Points and lines are both normalized homogeneous triples; index i names
    point i and line i alike.  line_points[i] is the tuple of the points on
    line i in increasing order, each id one int object shared by every line.
    Point j lies on line i iff their triples are orthogonal, a symmetric
    relation, so line_points[i] is also the sorted tuple of the lines through
    point i: the one table serves both incidences.
    """

    q: int
    line_points: tuple[tuple[int, ...], ...]


def _normalized_triples(q: int):
    # (1, y, z) has index y*q + z, (0, 1, z) has q^2 + z, (0, 0, 1) has q^2 + q
    out = [(1, y, z) for y in range(q) for z in range(q)]
    out.extend((0, 1, z) for z in range(q))
    out.append((0, 0, 1))
    return out


def projective_plane(q: int) -> ProjectivePlane:
    """Desarguesian projective plane of order q, for any q with
    plane_order_supported(q).

    Line i is the triple (a, b, c) of point i; its q+1 points, the solutions
    of a*x + b*y + c*z = 0, are listed directly as point indices.
    """
    add, neg, mul, inv = field_tables(q)
    qq = q * q
    point = list(range(qq + q + 1)).__getitem__
    line_points = []
    # each branch lists its members in increasing order
    for a, b, c in _normalized_triples(q):
        if c:
            # z = -(a + b*y)/c for each y, and (0, 1, -b/c)
            r = neg[inv[c]]
            members = [y * q + mul[add[a][mul[b][y]]][r] for y in range(q)]
            members.append(qq + mul[b][r])
        elif b:
            # y = -a/b with every z, and (0, 0, 1)
            y = mul[neg[a]][inv[b]]
            members = list(range(y * q, y * q + q))
            members.append(qq + q)
        else:
            # the line x = 0
            members = list(range(qq, qq + q + 1))
        line_points.append(tuple(map(point, members)))
    return ProjectivePlane(q=q, line_points=tuple(line_points))


def pencil_through(plane: ProjectivePlane, z: int, m: int) -> list[list[int]]:
    """m lines through z, each returned with z removed (pairwise disjoint q-sets)."""
    lines = plane.line_points[z]  # self-dual: the lines through point z, sorted
    if m > len(lines):
        raise InputError(
            f"only {len(lines)} lines pass through a point, requested {m}"
        )
    return [[pt for pt in plane.line_points[li] if pt != z] for li in lines[:m]]


def pencil_transversals(plane: ProjectivePlane, m: int) -> list[tuple[int, ...]]:
    """Where the lines off point 0 cross the pencil of m lines through it.

    For each line not through point 0, in index order, the tuple holds the
    position of its meeting point on each line of pencil_through(plane, 0, m).
    Two points on different pencil lines fix one such line, so the q^2 tuples
    pair the positions on any two pencil lines bijectively.
    """
    pencil = pencil_through(plane, 0, m)
    where = {pt: (a, idx) for a, line in enumerate(pencil) for idx, pt in enumerate(line)}
    through0 = set(plane.line_points[0])
    out = []
    for li, members in enumerate(plane.line_points):
        if li in through0:
            continue
        pos = [None] * m
        for pt in members:
            hit = where.get(pt)
            if hit is not None:
                pos[hit[0]] = hit[1]
        if None in pos:
            raise AssertionError(f"line {li} misses a pencil line")
        out.append(tuple(pos))
    return out


# --- block designs -------------------------------------------------------------

@dataclass(frozen=True)
class BlockDesign:
    n: int
    blocks: tuple[tuple[int, ...], ...]


UNCOVERED_LISTED = 1000  # validate_design lists at most this many uncovered pairs


def validate_design(d: BlockDesign) -> dict:
    """Pair-coverage report: a 2-design iff 'uncovered_count' is 0 and the
    'repeated' list is empty.

    A block that is not a set of distinct points of 0..n-1 raises
    InputError.  Blocks already in increasing order are counted as they are;
    otherwise each is counted in sorted order, from a sorted copy.  The
    report is pair_cover_report's.
    """
    n = d.n
    blocks = d.blocks
    distinct = all(map(_increasing, blocks))
    if not distinct:
        blocks = [sorted(blk) for blk in blocks]
        distinct = all(map(_increasing, blocks))
    points = chain.from_iterable
    if (not distinct or min(points(blocks), default=0) < 0
            or max(points(blocks), default=-1) >= n):
        raise InputError(f"every block must be a set of distinct points in 0..{n - 1}")
    return pair_cover_report(n, blocks)


def _increasing(blk) -> bool:
    return not any(map(ge, blk, islice(blk, 1, None)))


def pair_cover_report(n: int, blocks) -> dict:
    """validate_design's report on blocks that are each strictly increasing
    and within 0..n-1, which the caller has checked.

    Each vertex u gets one list of its later neighbours: for every block,
    the points after u, the blocks' own int objects, so a covered pair costs
    one list slot and no new int.  Each list is sorted once, so a pair
    covered again sits next to its copies; the lists are keyed by a dict on
    the vertex, so one rule serves every n.  'repeated' lists each pair
    covered more than once, in the order of its first block.  The uncovered
    pairs are counted, not listed: 'uncovered' holds only the first
    UNCOVERED_LISTED of them in lexicographic order, from a walk that stops
    there, so a report on a nearly empty design stays small whatever its n.
    """
    later: dict[int, list] = defaultdict(list)
    for blk in blocks:
        for i in range(1, len(blk)):
            later[blk[i - 1]] += blk[i:]
    covers = repeats = 0
    for got in later.values():
        got.sort()
        covers += len(got)
        repeats += sum(map(eq, got, islice(got, 1, None)))
    uncovered_count = n * (n - 1) // 2 - (covers - repeats)
    uncovered = []
    if uncovered_count:
        missing = ((u, v) for u in range(n) for v in range(u + 1, n)
                   if not _in_sorted(later.get(u, ()), v))
        uncovered = list(islice(missing, min(uncovered_count, UNCOVERED_LISTED)))
    repeated = []
    if repeats:
        twice = {(u, v) for u, got in later.items()
                 for v, w in zip(got, islice(got, 1, None)) if v == w}
        for blk in blocks:
            for pair in combinations(blk, 2):
                if pair in twice:  # its first block: list it once
                    twice.remove(pair)
                    repeated.append(pair)
    return {"uncovered": uncovered, "uncovered_count": uncovered_count,
            "repeated": repeated, "valid": not uncovered_count and not repeated}


def _in_sorted(values, x) -> bool:
    i = bisect_left(values, x)
    return i < len(values) and values[i] == x


_STS9_CLASSES = (
    ((0, 1, 2), (3, 4, 5), (6, 7, 8)),      # rows: the (1,2,3)-type class
    ((0, 3, 6), (1, 4, 7), (2, 5, 8)),      # columns: the (1,4,7)-type class
    ((0, 4, 8), (1, 5, 6), (2, 3, 7)),
    ((0, 5, 7), (1, 3, 8), (2, 4, 6)),
)


def sts9() -> tuple[BlockDesign, tuple[tuple[tuple[int, ...], ...], ...]]:
    """The unique STS(9): 12 blocks in 4 parallel classes of 3 blocks each."""
    blocks = tuple(blk for cls in _STS9_CLASSES for blk in cls)
    return BlockDesign(n=9, blocks=blocks), _STS9_CLASSES


# --- difference triples (cyclic STS generator table) ---------------------------

@dataclass(frozen=True)
class TableRow:
    e123: tuple[int, int, int]
    e456: tuple[int, int, int]
    e789: tuple[int, int, int]
    box: int


@dataclass(frozen=True)
class DifferenceTripleTable:
    k: int
    n: int
    rows: tuple[TableRow, ...]

    def triples(self) -> list[tuple[int, int, int]]:
        out = []
        for row in self.rows:
            out.extend((row.e123, row.e456, row.e789))
        return out


def _triple_a(k: int, a: int) -> tuple[int, int, int]:
    return (1 + 3 * a, 4 * k + 1 - a, 4 * k + 2 + 2 * a)


def _triple_b(k: int, b: int) -> tuple[int, int, int]:
    if b == 0:
        return (3 * k, 3 * k + 1, 6 * k + 1)
    return (3 * k - 3 * b, 4 * k + 1 + 2 * b, 7 * k + 1 - b)


def _triple_c(k: int, c: int, n: int) -> tuple[int, int, int]:
    d1 = 2 + 3 * c
    d2 = 8 * k - c
    s = d1 + d2
    d3 = s if s <= 9 * k else n - s
    return (d1, d2, d3)


def _row_partner(k: int, c: int) -> int:
    # rows c and k-3-c share a box; the two last rows stand alone
    return k - 3 - c if c <= k - 3 else c


def _row_box(k: int, c: int) -> int:
    if c <= k - 3:
        return min(c, k - 3 - c) + 1
    return k // 2 if c == k - 2 else k // 2 + 1


def difference_triples(k: int) -> DifferenceTripleTable:
    """Difference-triple table for n = 18k+1 with box (color-group) labels.

    Each row holds one triple per column block; the box labels group rows
    whose triples can be simultaneously placed without conflicts (boxes
    1..k/2-1 pair two rows, the last two rows stand alone).  The validator
    below is authoritative: any inconsistency fails loudly, naming the row.
    """
    if k % 2 != 0 or k < 4:
        raise InputError(f"difference_triples requires even k >= 4, got {k}")
    n = 18 * k + 1
    rows = []
    for c in range(k):
        rows.append(
            TableRow(
                e123=_triple_a(k, _row_partner(k, c)),
                e456=_triple_b(k, k - 1 - c),
                e789=_triple_c(k, c, n),
                box=_row_box(k, c),
            )
        )
    table = DifferenceTripleTable(k=k, n=n, rows=tuple(rows))
    _validate_table(table)
    return table


def _validate_table(table: DifferenceTripleTable) -> None:
    k, n = table.k, table.n
    seen: dict[int, int] = {}
    for ridx, row in enumerate(table.rows):
        if not 1 <= row.box <= k // 2 + 1:
            raise AssertionError(f"row {ridx}: box label {row.box} out of range")
        for triple in (row.e123, row.e456, row.e789):
            d1, d2, d3 = triple
            if not (d1 < d2 < d3):
                raise AssertionError(f"row {ridx}: triple {triple} not increasing")
            if d3 > 9 * k:
                raise AssertionError(f"row {ridx}: entry {d3} exceeds 9k = {9 * k}")
            if d1 < 1:
                raise AssertionError(f"row {ridx}: entry {d1} below 1")
            if (d1 + d2) % n != d3 % n and (d1 + d2 + d3) % n != 0:
                raise AssertionError(
                    f"row {ridx}: {triple} is not a difference triple mod {n}"
                )
            for d in triple:
                if d in seen:
                    raise AssertionError(
                        f"row {ridx}: difference {d} repeats (also row {seen[d]})"
                    )
                seen[d] = ridx
    if len(seen) != 9 * k:
        missing = sorted(set(range(1, 9 * k + 1)) - set(seen))
        raise AssertionError(f"differences not covered: {missing[:10]}")


def orbit_block(n: int, s: int, d1: int, d2: int) -> tuple[int, int, int]:
    """The block {s, s+d1, s+d1+d2} (mod n) at s in 0..n-1 of a triple's
    cyclic orbit, sorted."""
    return tuple(sorted((s, (s + d1) % n, (s + d1 + d2) % n)))


def cyclic_sts(table: DifferenceTripleTable) -> BlockDesign:
    """Cyclic STS(n), n = table.n: the orbit of every table triple, in orbit
    order.

    Block t*n + s is orbit_block(n, s, d1, d2) of the t-th triple of
    table.triples(); validate_design rejects an uncovered or repeated pair,
    so a repeated block too.  The blocks share one int object per vertex id,
    read from a table that lives for this call only."""
    n = table.n
    vertex = list(range(n)).__getitem__
    blocks = tuple(tuple(map(vertex, orbit_block(n, s, d1, d2)))
                   for d1, d2, _ in table.triples() for s in range(n))
    design = BlockDesign(n=n, blocks=blocks)
    report = validate_design(design)
    if not report["valid"]:
        raise InputError(
            f"cyclic STS invalid: {report['uncovered_count']} uncovered, "
            f"{len(report['repeated'])} repeated pairs"
        )
    return design
