"""Exact integer geometry: orientation, crossing tests, and the part-conflict predicate.

Every predicate here is evaluated in exact integer (or rational) arithmetic;
there is no floating point anywhere.  A point is an (x, y) pair: a Point is a
NamedTuple, and the predicates take any pair of ints or Fractions alike.  Two
segments cross iff each one's endpoints lie strictly on opposite sides of the
other's line: four nonzero orientation signs, opposite in pairs.  The
documented coordinate bound (|x|, |y| <= 2**30) is a data contract enforced
where a Configuration is built, however it is built: configurations outside
the bound are rejected, never silently widened.  The predicates here use
unbounded Python integers.

parts_conflict reads each part through its PartShape (vertex set, sorted
edges, closed box in coordinates mode), which callers that test a part many
times build once with part_shape.  It tests the boxes, then a shared vertex,
then each edge pair with the per-edge oracle convex_cross or proper_cross.
"""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations, islice
from typing import Iterable, NamedTuple, Sequence

COORD_BOUND = 1 << 30  # accepted coordinate magnitude for loaded configurations
GEN_BOUND = 1 << 20    # default grid for generated point sets


class InputError(ValueError):
    """An input the caller can fix: a bad argument, a malformed file, an
    unsupported order, or an exhausted partition search.  The CLI reports it
    as one `error:` line and exit code 2; a failed check on values the
    package computed itself raises AssertionError instead."""


class Point(NamedTuple):
    """An (x, y) pair: it hashes, compares and orders as the tuple does."""

    x: int
    y: int


def orient(p, q, r) -> int:
    """Sign of the signed area of triangle pqr: +1 ccw, -1 cw, 0 collinear.

    Each argument is an (x, y) pair: a Point, or a pair of ints or Fractions."""
    px, py = p
    qx, qy = q
    rx, ry = r
    d = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def proper_cross(a, b, c, d) -> bool:
    """True iff the open segments ab and cd intersect: c and d lie strictly
    on opposite sides of line ab, and a and b strictly on opposite sides of
    line cd.

    A shared endpoint is not a crossing: it makes orient(a, b, c) or
    orient(a, b, d) zero.  Vertex sharing is handled separately by
    parts_conflict.
    """
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    if o1 == o2 or o1 == 0 or o2 == 0:
        return False
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return o3 != o4 and o3 != 0 and o4 != 0


def convex_cross(n: int, e1: tuple[int, int], e2: tuple[int, int]) -> bool:
    """Coordinate-free crossing test for edges of a convex n-gon.

    True iff exactly one endpoint of e2 lies in the open cyclic interval
    between the endpoints of e1.  Shared endpoints give False.
    """
    a, b = e1
    c, d = e2
    if a == c or a == d or b == c or b == d:
        return False
    if a < b:
        return (a < c < b) != (a < d < b)
    return (c > a or c < b) != (d > a or d < b)


def convex_noncrossing(parts: Iterable[Sequence[int]]) -> bool:
    """True iff no two parts of a convex configuration conflict.  Each part
    is a strictly increasing sequence of vertex ids; the parts may come in
    any order.

    Vertices 0..n-1 are in cyclic order, so two parts conflict iff they
    share a vertex or interleave, and they do neither iff one lies inside a
    single gap between consecutive vertices of the other.  One stack scan
    over the parts sorted by first vertex decides it.  The stack holds the
    open parts, those whose last vertex the scan has not passed, each inside
    a gap of the one below it; a part is popped once the next part starts
    after its last vertex.  The next part must then lie inside the gap of
    the innermost open part that holds its first vertex, found by bisect:
    it must end before that gap's right end.  Inside that gap it is apart
    from every part below, and it starts after every part popped.
    """
    stack: list = []
    for part in sorted(parts):
        first = part[0]
        while stack and stack[-1][-1] < first:
            stack.pop()
        if stack:
            top = stack[-1]  # top[0] <= first <= top[-1]
            if top[bisect_left(top, first)] <= part[-1]:  # shared, or past the gap
                return False
        stack.append(part)
    return True


@dataclass(frozen=True)
class Configuration:
    """A labelled vertex set of a complete geometric graph.

    mode "coordinates": points carry exact integer coordinates, no two equal,
    no three collinear.  mode "convex": vertices are 0..n-1 in clockwise
    cyclic order and no coordinates are stored; all geometry goes through
    convex_cross.

    Construction checks each mode's contract: a convex n >= 3, and every
    coordinate within COORD_BOUND.  coordinate_configuration adds the
    general-position check, which costs O(n^2).
    """

    mode: str
    n: int
    points: tuple[Point, ...] = ()

    def __post_init__(self):
        if self.mode not in ("coordinates", "convex"):
            raise InputError(f"unknown configuration mode {self.mode!r}")
        if self.mode == "convex" and self.n < 3:
            raise InputError(f"convex configuration needs n >= 3, got {self.n}")
        for idx, p in enumerate(self.points):
            if abs(p.x) > COORD_BOUND or abs(p.y) > COORD_BOUND:
                raise InputError(
                    f"point {idx} exceeds coordinate bound 2**30: ({p.x}, {p.y})"
                )


def convex_configuration(n: int) -> Configuration:
    return Configuration(mode="convex", n=n)


def canonical_direction(dx: int, dy: int) -> tuple[int, int]:
    """Primitive direction of (dx, dy) up to sign: one key per slope."""
    g = math.gcd(dx, dy)
    dx, dy = dx // g, dy // g
    if dx < 0 or (dx == 0 and dy < 0):
        dx, dy = -dx, -dy
    return dx, dy


def _collinear_pair(p: Point, pts: Sequence[Point]) -> tuple[int, int] | None:
    """The first clash of p with pts in order: (k, k) when pts[k] equals p,
    (j, k) when pts[k] lies on one line through p with an earlier pts[j] (their
    directions from p are equal up to sign), None when there is no clash."""
    seen: dict[tuple[int, int], int] = {}
    for k, q in enumerate(pts):
        dx, dy = q.x - p.x, q.y - p.y
        if dx == 0 and dy == 0:
            return k, k
        key = canonical_direction(dx, dy)
        if key in seen:
            return seen[key], k
        seen[key] = k
    return None


def assert_general_position(points: Sequence[Point]) -> None:
    """Reject duplicate points and collinear triples (O(n^2) slope hashing)."""
    for i, p in enumerate(points):
        clash = _collinear_pair(p, points[i + 1:])
        if clash is not None:
            j, k = (i + 1 + c for c in clash)
            if j == k:
                raise InputError(f"duplicate point at indices {i} and {k}")
            raise InputError(f"collinear triple at indices {i}, {j}, {k}")


def coordinate_configuration(points: Iterable) -> Configuration:
    pts = tuple(Point(int(x), int(y)) for x, y in points)
    config = Configuration(mode="coordinates", n=len(pts), points=pts)
    assert_general_position(pts)
    return config


def generate_general_position(n: int, bound: int = GEN_BOUND, seed: int = 0) -> Configuration:
    """n distinct integer points with no three collinear, deterministic per seed.

    A draw from the grid |x|, |y| <= bound is kept iff _collinear_pair finds
    no clash with the points placed so far (O(n) memory).  Each of the grid's
    2 bound + 1 rows holds at most two such points, so a larger n is rejected."""
    if n < 1:
        raise InputError("n must be >= 1")
    if bound < 1 or bound > COORD_BOUND:
        raise InputError(f"bound must be in 1..2**30, got {bound}")
    rows = 2 * bound + 1
    if n > 2 * rows:
        raise InputError(f"at most {2 * rows} points fit in general position within "
                         f"bound {bound} (two in each of its {rows} rows), got n={n}")
    rng = random.Random(seed)
    pts: list[Point] = []
    for _ in range(5000 * n + 5000):
        cand = Point(rng.randint(-bound, bound), rng.randint(-bound, bound))
        if _collinear_pair(cand, pts) is None:
            pts.append(cand)
            if len(pts) == n:
                return Configuration(mode="coordinates", n=n, points=tuple(pts))
    raise InputError(
        f"could not place {n} points in general position within "
        f"bound {bound} (placed {len(pts)})"
    )


def part_edges(vertices: Iterable[int]) -> list[tuple[int, int]]:
    """A part's edges as (low, high) pairs in sorted order; vertices are distinct."""
    return list(combinations(sorted(vertices), 2))


class PartShape(NamedTuple):
    """What parts_conflict reads of a part, derived once: its vertex set, its
    edges in sorted order, and its closed box (None in convex mode)."""

    vertices: frozenset
    edges: tuple
    box: tuple | None


def part_shape(config: Configuration, vertices: Iterable[int]) -> PartShape:
    vs = frozenset(vertices)
    box = part_box(config, vs) if config.mode == "coordinates" else None
    return PartShape(vs, tuple(part_edges(vs)), box)


def parts_conflict(config: Configuration, A, B) -> bool:
    """True iff the parts share a vertex (identical parts share all of them)
    or contain a properly crossing edge pair.

    A and B are vertex collections or PartShapes; a collection is shaped on
    entry, so callers that test a part many times shape it once.  Parts whose
    boxes are apart are decided without looking at an edge; otherwise edge
    pairs are tested in sorted order, the first crossing deciding."""
    a = A if type(A) is PartShape else part_shape(config, A)
    b = B if type(B) is PartShape else part_shape(config, B)
    if a.box is not None and boxes_apart(a.box, b.box):
        return False
    if not a.vertices.isdisjoint(b.vertices):
        return True
    if config.mode == "convex":
        n = config.n
        for e1 in a.edges:
            for e2 in b.edges:
                if convex_cross(n, e1, e2):
                    return True
        return False
    pts = config.points
    for u, v in a.edges:
        pu, pv = pts[u], pts[v]
        for x, y in b.edges:
            if proper_cross(pu, pv, pts[x], pts[y]):
                return True
    return False


def part_box(config: Configuration, vertices: Iterable[int]) -> tuple[int, int, int, int]:
    """The closed bounding box (x-min, x-max, y-min, y-max) of a part's points.

    One loop over the points, as every part shape needs a box: on a triangle
    of Points it takes 0.5 us where list comprehensions and min/max take
    1.6 us (CPython 3.11, shared 2-core x86 host)."""
    pts = config.points
    it = iter(vertices)
    p = pts[next(it)]
    x0 = x1 = p.x
    y0 = y1 = p.y
    for v in it:
        p = pts[v]
        if p.x < x0:
            x0 = p.x
        elif p.x > x1:
            x1 = p.x
        if p.y < y0:
            y0 = p.y
        elif p.y > y1:
            y1 = p.y
    return x0, x1, y0, y1


def boxes_apart(a, b) -> bool:
    """True iff the closed boxes a and b (see part_box) are disjoint.

    A part's edges lie in its box, so parts whose boxes are apart share no
    vertex and have no crossing edges: parts_conflict is False for them.  The
    test is strict, so boxes that only touch are not apart: parts that share a
    vertex touch at least there, and parts_conflict decides them."""
    return a[1] < b[0] or b[1] < a[0] or a[3] < b[2] or b[3] < a[2]


def point_in_triangle(p, a, b, c, closed: bool = False) -> bool:
    """Exact containment test; p may have rational coordinates."""
    s1 = orient(p, a, b)
    s2 = orient(p, b, c)
    s3 = orient(p, c, a)
    if closed:
        return (s1 >= 0 and s2 >= 0 and s3 >= 0) or (s1 <= 0 and s2 <= 0 and s3 <= 0)
    return s1 == s2 == s3 and s1 != 0


# --- JSON interchange ------------------------------------------------------

def config_to_dict(config: Configuration) -> dict:
    d = {"mode": config.mode, "n": config.n}
    if config.mode == "coordinates":
        d["points"] = [[p.x, p.y] for p in config.points]
    return d


def config_from_dict(d: dict) -> Configuration:
    """Inverse of config_to_dict; InputError unless d is an object whose
    "mode" is "convex" with an int "n", or "coordinates" with "points" a list
    of [int, int] pairs (and "n", if given, an int equal to their number).
    Types are checked exactly, so a bool, float or string is never an int."""
    if not isinstance(d, dict):
        raise InputError("a configuration must be a JSON object")
    mode = d.get("mode")
    if mode == "convex":
        if type(d.get("n")) is not int:
            raise InputError('a convex configuration needs an int "n"')
        return convex_configuration(d["n"])
    if mode == "coordinates":
        pts = d.get("points")
        if not isinstance(pts, list) or not all(
            isinstance(p, list) and len(p) == 2 and type(p[0]) is int and type(p[1]) is int
            for p in pts
        ):
            raise InputError('"points" must be a list of [int, int] pairs')
        cfg = coordinate_configuration(pts)
        if "n" in d and not (type(d["n"]) is int and d["n"] == cfg.n):
            raise InputError('"n" must be an int equal to the number of points')
        return cfg
    raise InputError(f"unknown configuration mode {mode!r}")


# list items encoded per json.dumps call in write_json: as fast as 1000, whose
# pieces raised the peak RSS of `build thm5` (n=270) by about 0.25 MB
JSON_SLICE = 256


class EncodedList(NamedTuple):
    """A list value for write_json given as its JSON text: pieces, each the
    comma-separated encodings of one or more of its items, in order.  The
    caller vouches that the text is what json.dumps would write."""

    pieces: Iterable[str]


def write_json(data: dict, path) -> None:
    """Write data as the data files store it: one line of compact JSON with
    sorted keys: json.dumps(data, sort_keys=True, separators=(",", ":")) and a
    newline.  A top-level value may also be an iterator, written as the list
    of its items, or an EncodedList, whose pieces are written as they come.

    json.dumps encodes in C, several times faster than json.dump's Python
    encoder, but holds the whole text in memory.  So each top-level value is
    encoded on its own, and a list or iterator value in slices of JSON_SLICE
    items: the text held at once stays small however many parts a file has.
    An iterator's items are built on demand, one slice at a time, so a caller
    that maps its records to dicts lazily never holds every dict at once;
    an EncodedList's pieces are likewise made as they are written
    (save_decomposition formats its parts so, a slice of them a piece).
    """
    def dumps(obj):
        return json.dumps(obj, sort_keys=True, separators=(",", ":"))

    def encoded(items):  # the JSON text of the items, JSON_SLICE at a time
        while chunk := list(islice(items, JSON_SLICE)):
            yield dumps(chunk)[1:-1]

    with open(path, "w") as fh:
        fh.write("{")
        for n, key in enumerate(sorted(data)):
            fh.write(("," if n else "") + dumps(key) + ":")
            value = data[key]
            if type(value) is EncodedList:
                pieces = value.pieces
            elif isinstance(value, (list, Iterator)):
                pieces = encoded(iter(value))
            else:
                fh.write(dumps(value))
                continue
            fh.write("[")
            sep = ""
            for piece in pieces:
                fh.write(sep + piece)
                sep = ","
            fh.write("]")
        fh.write("}\n")


def save_config(config: Configuration, path) -> None:
    write_json(config_to_dict(config), path)


def read_json(path, object_hook=None):
    """The JSON value stored in the file at path.  A file that does not
    decode, or nests too deeply for the decoder, raises InputError.

    object_hook is json.load's: it is called on each object as soon as the
    decoder finishes it, and its result takes the object's place, so a caller
    can turn records into compact values as the decoder reaches them instead
    of holding the whole decoded tree (load_decomposition does so for its
    parts)."""
    with open(path) as fh:
        try:
            return json.load(fh, object_hook=object_hook)
        except RecursionError:
            raise InputError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            raise InputError(str(exc)) from None


def load_config(path) -> Configuration:
    return config_from_dict(read_json(path))
