"""Edge decompositions of complete geometric graphs and their constructions.

A decomposition is a sequence of parts (vertex subsets, each inducing a
complete subgraph) covering every edge of the complete graph exactly once; a
coloring gives each part a color.  Both are stored as flat integer arrays
(Parts, Coloring), and a Part is made only when an item is asked for.  The
constructors here realize the explicit families: the trivial edge partition,
the pairwise-intersecting K4 family on general-position points, the convex
matching-triangle family, the recursive triangle decomposition, and the
cyclic-STS triangle decomposition with its box coloring.  Each family appends
its raw parts to one Parts and hands it to one assembly step, _finalize,
which sorts them and, for an uncolored family, turns every edge no part
covers into a singleton part; every family returns a Construction.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import chain, combinations, compress, islice, repeat
from operator import eq, ge, sub
from typing import NamedTuple

from .exactgeom import (
    Configuration,
    InputError,
    boxes_apart,
    config_from_dict,
    config_to_dict,
    convex_configuration,
    generate_general_position,
    parts_conflict,
    part_box,
    part_edges,
    proper_cross,
    convex_cross,
    read_json,
    write_json,
)
from .planecut import (
    nine_fit,
    nine_regions,
    projection_splits,
    six_fan,
    six_parts_two_parallel,
)
from .designs import (
    cyclic_sts,
    difference_triples,
    orbit_block,
    pair_cover_report,
    pencil_transversals,
    plane_order_supported,
    projective_plane,
    sts9,
)


@dataclass(frozen=True, slots=True, init=False)
class Part:
    """A vertex subset of size >= 2, as a strictly increasing tuple; induced,
    hence complete.  Slotted: a part holds its two fields and no __dict__.

    A decomposition stores no Part (see Parts): one is made when an item of
    its parts is asked for.  __init__ is written out: it checks the vertices
    and stores both fields through their slot descriptors, which pass the
    frozen __setattr__ more cheaply than the generated __init__'s
    object.__setattr__ calls and __post_init__."""

    vertices: tuple[int, ...]
    tag: str = "part"

    def __init__(self, vertices: tuple[int, ...], tag: str = "part"):
        if len(vertices) < 2:
            raise InputError(f"part too small: {vertices}")
        if not isinstance(vertices, tuple) or any(map(ge, vertices, vertices[1:])):
            raise InputError(f"part not sorted/distinct: {vertices}")
        _SET_VERTICES(self, vertices)
        _SET_TAG(self, tag)

    def edges(self):
        return part_edges(self.vertices)


_SET_VERTICES = Part.vertices.__set__
_SET_TAG = Part.tag.__set__

# a part vertex is stored as a C unsigned int, so every vertex id is below this
VERTEX_LIMIT = 1 << 8 * array("I").itemsize


class Parts(Sequence):
    """A decomposition's parts, stored flat.  Every part's vertices sit in one
    array("I"), part after part: part i is vertices[bounds[i]:bounds[i + 1]],
    strictly increasing, and its tag is tags[tag_ids[i]].  A part costs its
    vertex ids, one offset and one tag index, and no Python object.

    As a sequence it is read-only and its items are Parts, made when asked
    for; it equals a list or tuple of the same Parts.  `blocks` reads the
    vertex tuples without making Parts.  The constructions and the loader
    fill it with `add`, one part at a time, as each part is made."""

    __slots__ = ("vertices", "bounds", "tag_ids", "tags", "_tag_index")

    def __init__(self, parts: Iterable[Part] = ()):
        self.vertices = array("I")
        self.bounds = array("Q", (0,))
        self.tag_ids = array("I")
        self.tags: list[str] = []
        self._tag_index: dict[str, int] = {}
        for p in parts:
            self.add(p.vertices, p.tag)

    def add(self, vertices, tag: str) -> None:
        """Append a part.  Its vertices must be strictly increasing ints in
        [0, VERTEX_LIMIT): the caller's to ensure, as Part and _part do."""
        self.vertices.extend(vertices)
        self.bounds.append(len(self.vertices))
        t = self._tag_index.get(tag)
        if t is None:
            t = self._tag_index[tag] = len(self.tags)
            self.tags.append(tag)
        self.tag_ids.append(t)

    def __len__(self) -> int:
        return len(self.tag_ids)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(len(self))[i]]
        i = range(len(self))[i]  # a negative i counts from the end, as in a list
        return Part(self.blocks[i], self.tags[self.tag_ids[i]])

    def __iter__(self):
        return map(Part, self.blocks, map(self.tags.__getitem__, self.tag_ids))

    def __eq__(self, other):
        if isinstance(other, (Parts, list, tuple)):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    __hash__ = None

    def __add__(self, other) -> list[Part]:
        return list(self) + list(other)

    @property
    def blocks(self) -> "Blocks":
        return Blocks(self)

    def sizes(self):
        """The number of vertices of each part, in order."""
        bounds = self.bounds
        return map(sub, islice(bounds, 1, None), bounds)

    def cut(self, ids) -> Iterator[tuple[int, ...]]:
        """The parts' vertex tuples, in order, cut from ids: an iterator over
        the ids of the vertices array, in its order (the array itself, or its
        ids mapped to shared int objects)."""
        bounds = self.bounds
        if not self:
            return iter(())
        size = bounds[1]
        if (len(self.vertices) == size * len(self)
                and bounds == array("Q", range(0, len(self.vertices) + 1, size))):
            return zip(*[ids] * size)  # parts of one size: no islice per part
        return map(tuple, map(islice, repeat(ids), self.sizes()))

    def take(self, order) -> "Parts":
        """The parts order[0], order[1], ... as a new Parts that shares this
        one's tag table."""
        out = Parts()
        out.tags, out._tag_index = self.tags, self._tag_index
        verts, bounds = self.vertices, self.bounds
        out_verts, out_bounds = out.vertices, out.bounds
        for i in order:
            out_verts += verts[bounds[i]:bounds[i + 1]]
            out_bounds.append(len(out_verts))
        out.tag_ids = array("I", map(self.tag_ids.__getitem__, order))
        return out


class Blocks(Sequence):
    """The vertex tuples of a Parts, in part order, made on demand.  In one
    pass over them equal ids share one int object, so a caller that keeps
    the ids it reads (designs.pair_cover_report) holds one int per id, not
    one per occurrence."""

    __slots__ = ("parts",)

    def __init__(self, parts: Parts):
        self.parts = parts

    def __len__(self) -> int:
        return len(self.parts)

    def __getitem__(self, i) -> tuple[int, ...]:
        parts = self.parts
        i = range(len(parts))[i]
        return tuple(parts.vertices[parts.bounds[i]:parts.bounds[i + 1]])

    def __iter__(self):
        verts = self.parts.vertices
        return self.parts.cut(map({}.setdefault, verts, verts))


@dataclass
class Decomposition:
    """A configuration, its parts and metadata.  parts may be given as any
    sequence of Parts; it is stored as a Parts (a Parts is kept as given)."""

    config: Configuration
    parts: Parts
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if type(self.parts) is not Parts:
            self.parts = Parts(self.parts)


@dataclass(frozen=True)
class Coloring:
    """Part index -> 0-based color id, stored as an array("I"); colors may be
    given as any sequence of such ids."""

    colors: array

    def __post_init__(self):
        if not (type(self.colors) is array and self.colors.typecode == "I"):
            object.__setattr__(self, "colors", array("I", self.colors))

    @property
    def palette(self) -> int:
        return max(self.colors, default=-1) + 1


class Construction(NamedTuple):
    """What every family builds: a decomposition of K_n and, for the colored
    families (thm5, thm32), its coloring; None for thm3 and thm4."""

    decomposition: Decomposition
    coloring: Coloring | None

    @property
    def distinguished(self) -> list[int]:
        """Indices of the parts with more than two vertices: the family
        itself, as opposed to the singleton edges that complete the cover."""
        return [i for i, size in enumerate(self.decomposition.parts.sizes()) if size > 2]

    @property
    def stats(self) -> dict:
        return self.decomposition.metadata


def validate_decomposition(d: Decomposition) -> dict:
    """Exact-cover report: every edge of K_n in exactly one part.

    A part's vertices are strictly increasing ints >= 0, so once each part is
    checked to lie below n its vertex tuples go straight to the pair count."""
    n = d.config.n
    parts = d.parts
    if max(parts.vertices, default=-1) >= n:
        verts = parts.vertices
        tops = (verts[end - 1] for end in islice(parts.bounds, 1, None))
        first = next(i for i, top in enumerate(tops) if top >= n)
        return {"uncovered": [], "uncovered_count": 0, "repeated": [], "valid": False,
                "error": f"part {parts.blocks[first]} out of range"}
    return pair_cover_report(n, parts.blocks)


def _lex_order(parts: Parts) -> array:
    """The part indices in lexicographic order of the parts' vertex tuples:
    bucketed by first vertex, then each bucket sorted on the rest."""
    verts, bounds = parts.vertices, parts.bounds
    buckets: dict[int, array] = {}
    for i, first in enumerate(map(verts.__getitem__, islice(bounds, len(parts)))):
        bucket = buckets.get(first)
        if bucket is None:
            bucket = buckets[first] = array("I")
        bucket.append(i)

    def rest(i):
        return verts[bounds[i] + 1:bounds[i + 1]]

    order = array("I")
    for first in sorted(buckets):
        bucket = buckets.pop(first)
        order += bucket if len(bucket) == 1 else array("I", sorted(bucket, key=rest))
    return order


_UNSET = bytes.maketrans(b"\0\1", b"\1\0")  # turns covered-edge flags into uncovered ones


def _uncovered_edges(n: int, covered: bytearray) -> Iterator[tuple[int, int]]:
    """The edges (u, v) of K_n, u < v, whose flag covered[u * n + v] is 0,
    in lexicographic order: the flags hold one byte per ordered pair, so
    covering an edge is one store and no object.  The edges share one int
    object per vertex."""
    ids = tuple(range(n))
    for u in ids[:-1]:
        unset = covered[u * n + u + 1:u * n + n].translate(_UNSET)
        for v in compress(islice(ids, u + 1, None), unset):
            yield u, v


def _finalize(config, raw: Parts, metadata, colors=None) -> Construction:
    """Sort parts lexicographically by vertex list into a Construction.

    With colors (one per raw part), the coloring follows the parts into the
    new order.  Without, the coloring is None and every edge of K_n that no
    raw part covers first becomes a singleton-edge part.
    """
    if colors is None:
        n = config.n
        covered = bytearray(n * n)
        for blk in raw.blocks:
            for u, v in combinations(blk, 2):
                covered[u * n + v] = 1
        for e in _uncovered_edges(n, covered):
            raw.add(e, "singleton-edge")
    order = _lex_order(raw)
    decomp = Decomposition(config=config, parts=raw.take(order), metadata=metadata)
    if colors is None:
        return Construction(decomp, None)
    return Construction(decomp, Coloring(array("I", map(colors.__getitem__, order))))


def trivial_edge_decomposition(config: Configuration) -> Decomposition:
    if config.n < 2:
        raise InputError("need n >= 2")
    return _finalize(config, Parts(), {"construction": "edges", "n": config.n}).decomposition


# --- thm4: convex matching-triangle family --------------------------------------

def thm4_construction(n: int) -> Construction:
    """(n/3)^2 edge-disjoint, pairwise-intersecting triangles on convex n points.

    Vertices split into three arcs; the bipartite edges between the second and
    third arc are partitioned into round-robin matchings, and the edge (i, j)
    of matching k is completed to a triangle with vertex k of the first arc.
    """
    if n % 3 != 0 or n < 6:
        raise InputError(f"n must be a multiple of 3, >= 6; got {n}")
    m = n // 3
    config = convex_configuration(n)
    raw = Parts()
    for i in range(m, 2 * m):
        for j in range(2 * m, 3 * m):
            k = (i + j) % m
            raw.add((k, i, j), f"triangle({k};{i},{j})")  # k < m <= i < 2m <= j
    meta = {
        "construction": "thm4",
        "n": n,
        "distinguished_triangles": m * m,
    }
    return _finalize(config, raw, meta)


# --- thm3: K4 family on points in general position -------------------------------

def largest_thm3_q(n: int) -> int:
    """Largest supported prime power q with 7q + 6 <= n."""
    q = (n - 6) // 7
    while q > 2 and not plane_order_supported(q):
        q -= 1
    if q <= 2:
        raise InputError(f"no prime power q > 2 fits 7q+6 <= {n}")
    return q


def thm3_construction(q: int, config: Configuration | None = None, seed: int = 0) -> Construction:
    """2q^2 edge-disjoint pairwise-intersecting K4 subgraphs on >= 7q+6 points.

    A strip of q points receives the fourth labels; a six-fan splits the rest
    into alternating sectors, and a transversal design on a projective plane
    of order q pairs fan points into the K4 vertex sets.  Points beyond the
    7q+6 the construction needs are left to the fan spill; their edges become
    singleton parts.
    """
    if q <= 2 or not plane_order_supported(q):
        raise InputError(f"q must be a supported prime power > 2, got {q}")
    n = 7 * q + 6
    if config is None:
        config = generate_general_position(n, seed=seed)
    if config.mode != "coordinates" or config.n < n:
        raise InputError(f"need a coordinates configuration of >= {n} points")
    n = config.n
    pts = config.points

    split = next(projection_splits(pts, q), None)
    if split is None:
        raise InputError("no strip direction separates the label strip")
    _, strip_idx, upper_idx, _ = split

    sub_pts = tuple(pts[i] for i in upper_idx)
    sub = Configuration(mode="coordinates", n=len(sub_pts), points=sub_pts)
    fan = six_fan(sub, q)
    sectors = [[upper_idx[v] for v in region] for region in fan.regions]

    v1, u1 = sectors[0], sectors[1]
    v2, u2 = sectors[2], sectors[3]
    v3, u3 = sectors[4], sectors[5]
    v4 = sorted(strip_idx)

    # a line off the pencil's point meets pencil lines 0 and 3 at (i, j), and
    # every (i, j) pair once: a transversal design pairing fan points
    raw = Parts()
    for i, i2, j2, j in pencil_transversals(projective_plane(q), 4):
        for fam, s1, s2_, s3_ in (("X", v1, v2, v3), ("Y", u1, u2, u3)):
            raw.add(sorted((s1[i], v4[j], s2_[i2], s3_[j2])), f"{fam}({i + 1},{j + 1})")

    cx, cy = fan.center
    meta = {
        "construction": "thm3",
        "q": q,
        "n": n,
        "seed": seed,
        "distinguished_k4": 2 * q * q,
        "fan_center": [str(cx), str(cy)],
        "fan_spill": len(fan.spill),
        "strip": v4,
    }
    return _finalize(config, raw, meta)


# --- thm32: cyclic STS box coloring -----------------------------------------------

def thm32_construction(k: int) -> Construction:
    """Triangle decomposition of the convex (18k+1)-gon with n(k/2+1) colors.

    Parts are the blocks of the cyclic STS generated from the difference-triple
    table; each box of rows is placed as a nested chain of base triangles, one
    anchor per triple, and the placement is verified pairwise with the exact
    conflict predicate.  Color (b-1)n + s is the box-b placement rotated by s:
    block t*n + s of cyclic_sts, triple t's block at s, is its anchored block
    rotated by (s - anchor) mod n.
    """
    table = difference_triples(k)
    n = table.n
    config = convex_configuration(n)
    design = cyclic_sts(table)
    triples = table.triples()

    by_box: dict[int, list[int]] = {}
    for r, row in enumerate(table.rows):
        by_box.setdefault(row.box, []).append(r)

    anchors = [0] * len(triples)  # row r's triples e123, e456, e789 are 3r, 3r+1, 3r+2
    for box in sorted(by_box):
        rows = by_box[box]
        base = 0
        placed = []
        for r in rows:
            row = table.rows[r]
            c1, c2, _ = row.e789
            a_c = base
            a_b = base + c1 + 1
            if len(rows) == 2:
                a_a = a_b + row.e456[0] + 1
            else:
                a_a = base + c1 + c2 + 1
            anchors[3 * r:3 * r + 3] = a_a, a_b, a_c
            placed += [3 * r + 2, 3 * r + 1, 3 * r]
            base = max(base + c1 + c2, a_a + row.e123[0] + row.e123[1]) + 1
        if base > n:
            raise AssertionError(f"box {box}: chains overflow the cycle")
        blocks = [orbit_block(n, anchors[t], *triples[t][:2]) for t in placed]
        for (ta, ba), (tb, bb) in combinations(zip(placed, blocks), 2):
            if parts_conflict(config, ba, bb):
                raise AssertionError(
                    f"box {box}: triples {triples[ta]} and {triples[tb]} conflict when placed"
                )

    colors = array("I", ((table.rows[t // 3].box - 1) * n + (s - a) % n
                         for t, a in enumerate(anchors) for s in range(n)))
    palette = max(colors) + 1
    if palette != n * (k // 2 + 1):
        raise AssertionError(f"palette {palette} != n(k/2+1) = {n * (k // 2 + 1)}")
    raw = Parts()
    for blk in design.blocks:
        raw.add(blk, "triangle")
    meta = {
        "construction": "thm32",
        "k": k,
        "n": n,
        "colors": n * (k // 2 + 1),
        "blocks": len(design.blocks),
    }
    del design  # its block tuples are in raw now
    return _finalize(config, raw, meta, colors=colors)


# --- thm5: recursive triangle decomposition ---------------------------------------

# the 12 STS(9) triangles of one K9 (positions 0..8, position i sits in region
# R_{i+1}) in placement order, as (positions, color slot, tag), from the four
# parallel classes of designs.sts9(): the column class lies within the strips
# and shares one "within" color; rows 0 and 1, separated by a cut, share the
# "pair" color; row 2 and each block of the two diagonal classes get their own
_ROWS, _COLUMNS, *_DIAGONALS = sts9()[1]
_K9_TRIANGLES = (
    tuple((blk, "within", f"triangle-W{i}") for i, blk in enumerate(_COLUMNS))
    + ((_ROWS[0], "pair", "triangle-P0"), (_ROWS[1], "pair", "triangle-P1"),
       (_ROWS[2], "solo", "triangle-S"))
    + tuple((blk, f"diag{i}", f"triangle-D{i}")
            for i, blk in enumerate(chain.from_iterable(_DIAGONALS)))
)


# the fewest points on which a thm5 level can place a K9: a pencil of nine
# lines needs plane order q >= 8, and a level of m points tries q <= m // 9
THM5_MIN_LEVEL = 72


def thm5_construction(config: Configuration) -> Construction:
    """Mostly-triangle decomposition with a proper coloring, built recursively.

    At each level with at least THM5_MIN_LEVEL points, a nine-region refinement
    and a projective-plane pencil produce edge-disjoint K9s, each decomposed
    into 12 triangles; the explicit sharing rules use at most nine colors per
    K9, the three strips recurse sharing one color block, and all remaining
    edges become singleton parts colored greedily at the end.  Triangles that
    would reuse an already-covered edge are discarded.  A level whose
    partition search is exhausted places no triangles; a failed planecut
    check raises AssertionError.
    """
    if config.mode != "coordinates":
        raise InputError("thm5 needs a coordinates configuration")
    n = config.n
    if n < 2:
        raise InputError("need n >= 2")
    state = _Thm5State(config.points, bytearray(n * n), Parts(), array("I"), [])
    tri_colors = _place_level(state, range(n), 0, 0)
    raw, colors, levels = state.raw, state.colors, state.levels
    triangles = len(raw)
    # the singleton edges: every edge of K_n that no triangle covers
    singles = list(_uncovered_edges(n, state.used))
    del state  # and with it the covered-edge flags
    single_colors = _color_singletons(config, singles, tri_colors)
    for e in singles:
        raw.add(e, "singleton-edge")
    colors.extend(single_colors)
    nsingles, single_palette = len(singles), len(set(single_colors))
    del singles, single_colors  # stored in raw and colors: not held in _finalize

    meta = {
        "construction": "thm5",
        "n": n,
        "threshold": THM5_MIN_LEVEL,
        "triangles": triangles,
        "singleton_edges": nsingles,
        "non_triangle_edge_fraction": nsingles / (n * (n - 1) // 2),
        "triangle_colors": tri_colors,
        "singleton_colors": single_palette,
        "colors": tri_colors + single_palette,
        "levels": levels,
    }
    return _finalize(config, raw, meta, colors=colors)


class _Thm5State(NamedTuple):
    """What thm5's levels share: the points; the edges their triangles cover
    so far, as one flag byte per ordered pair, used[u * n + v] for u < v
    (n² bytes: 2.6 MB at n = 1600, where a set of edge tuples held about
    100 MB); the triangles placed with their colors; one record per level."""

    pts: tuple
    used: bytearray
    raw: Parts
    colors: array
    levels: list


def _place_level(state: _Thm5State, idxs, depth: int, first: int) -> int:
    """Place thm5's triangles on the points idxs, colored from `first` on,
    and return how many colors they use; the strips recurse."""
    ordered = sorted(idxs)
    m = len(ordered)
    if m < THM5_MIN_LEVEL:
        return 0
    sub_pts = tuple(state.pts[i] for i in ordered)
    sub = Configuration(mode="coordinates", n=m, points=sub_pts)
    try:
        base = six_parts_two_parallel(sub)
    except InputError:  # the search is exhausted, or m < 6
        return 0
    q = next((c for c in range(m // 9, 7, -1)
              if nine_fit(base, c) and plane_order_supported(c)), None)
    if q is None:
        return 0
    nine = nine_regions(sub, q, base=base)
    regions = [[ordered[v] for v in r] for r in nine.regions]

    used, raw, colors = state.used, state.raw, state.colors
    n = len(state.pts)
    placed = len(raw)
    ncolors = 0
    # copied once the plane is freed: the list built while the plane lived
    # sits above the plane's memory and would keep the allocator from
    # handing it back (n=1600: 42 MB at q=173)
    transversals = pencil_transversals(projective_plane(q), 9).copy()
    for pos in transversals:
        verts9 = [regions[a][idx] for a, idx in enumerate(pos)]
        slots: dict[str, int] = {}
        for posns, slot, tag in _K9_TRIANGLES:
            a, b, c = sorted(verts9[p] for p in posns)
            ab, ac, bc = a * n + b, a * n + c, b * n + c
            if used[ab] or used[ac] or used[bc]:
                continue
            used[ab] = used[ac] = used[bc] = 1
            if slot not in slots:
                slots[slot] = ncolors
                ncolors += 1
            raw.add((a, b, c), tag)
            colors.append(first + slots[slot])

    state.levels.append({
        "depth": depth, "m": m, "q": q, "k9s": len(transversals),
        "level_triangles": len(raw) - placed,
        "level_colors": ncolors,
    })
    # the strips share one color block after this level's colors
    return ncolors + max(_place_level(state, [ordered[v] for v in s], depth + 1,
                                      first + ncolors)
                         for s in nine.strips)


def _edges_cross(config, e1, e2) -> bool:
    if config.mode == "convex":
        return convex_cross(config.n, e1, e2)
    p = config.points
    return proper_cross(p[e1[0]], p[e1[1]], p[e2[0]], p[e2[1]])


def _color_singletons(config, edges, base) -> array:
    """First-fit colors, from `base` on, of the given edges, which come in
    lexicographic order; the colors are in the same order.

    Coloring runs inside round-robin matching groups: edges with the same
    endpoint-sum never share a vertex, so buckets only need crossing checks,
    and each bucket keeps its edges' bounding boxes, so `_edges_cross` runs
    only for edges whose boxes overlap.  Colors are never shared across
    groups, at a modest palette cost (reported in thm5's metadata).  An edge
    still meets every edge of each bucket it tries.  Measured on thm5, seed 3,
    on a shared 2-core x86 host: n = 800 colors 55,768 edges in 1.9-2.2 s
    (685,415 pairs met, 38 % with overlapping boxes), n = 1600 colors 147,645
    edges in 4.4-5.6 s (2,450,075 pairs, 27 % overlapping).
    """
    n = config.n
    M = n if n % 2 == 1 else n + 1
    groups: dict[int, list] = {}  # edge indices per group
    for i, (u, v) in enumerate(edges):
        groups.setdefault((u + v) % M, []).append(i)
    color = array("I", [0]) * len(edges)
    for g in sorted(groups):
        members: list[list] = []  # per color of the group: its edge indices
        boxes: list[list] = []  # and, side by side, their boxes
        for i in groups[g]:
            e = edges[i]
            box = part_box(config, e)
            for bi, (idxs, bxs) in enumerate(zip(members, boxes)):
                if all(boxes_apart(box, ob) or not _edges_cross(config, e, edges[o])
                       for o, ob in zip(idxs, bxs)):
                    idxs.append(i)
                    bxs.append(box)
                    color[i] = base + bi
                    break
            else:
                color[i] = base + len(members)
                members.append([i])
                boxes.append([box])
        base += len(members)
    return color


# --- JSON interchange ------------------------------------------------------------

def _part_dict(vertices, tag: str) -> dict:
    return {"vertices": list(vertices), "tag": tag}


def _document(d: Decomposition, coloring) -> dict:
    """The JSON document of d and its coloring, the one encoding rule, with
    its parts and colors as iterators: each part object made by _part_dict
    from the arrays when it is reached."""
    parts = d.parts
    doc = {
        "config": config_to_dict(d.config),
        "parts": map(_part_dict, parts.cut(iter(parts.vertices)),
                     map(parts.tags.__getitem__, parts.tag_ids)),
        "metadata": d.metadata,
    }
    if coloring is not None:
        doc["coloring"] = iter(coloring.colors)
    return doc


def decomposition_to_dict(d: Decomposition, coloring=None) -> dict:
    """The JSON document of d and its coloring (see _document)."""
    doc = _document(d, coloring)
    for key in ("parts", "coloring"):
        if key in doc:
            doc[key] = list(doc[key])
    return doc


_PARTS_SHAPE = '"parts" must be a list of {"vertices": [...]} objects'
_INT = frozenset({int})
# the keys of a part object, in the order write_json writes them
_PART_KEYS = ("tag", "vertices")
# what load_decomposition's object hook leaves in place of a part it stored
_STORED = object()


def _ints_below(values: list, hi: int) -> bool:
    """True iff every value is an int in [0, hi)."""
    return (_INT.issuperset(map(type, values))
            and min(values, default=0) >= 0 and max(values, default=-1) < hi)


def _part(obj, n: int | None) -> tuple[list, str]:
    """The vertices and tag of the part a decoded part object describes: the
    loader's one per-part rule.  InputError unless obj is a dict whose
    "vertices" is a list of at least two ints, strictly increasing, in
    [0, n), and whose "tag", if given, is a string; and, as Parts stores
    them, every vertex below VERTEX_LIMIT.

    With n None the upper end of the range is left to the caller:
    load_decomposition's object hook meets parts before the file's
    configuration is known, checks that end once it is, and discards the
    message of a part that fails here."""
    verts = obj.get("vertices") if isinstance(obj, dict) else None
    if not isinstance(verts, list):
        raise InputError(_PARTS_SHAPE)
    tag = obj.get("tag", "part")
    if type(tag) is not str:
        raise InputError(f"part tag must be a string, got {type(tag).__name__}")
    if not _INT.issuperset(map(type, verts)):
        raise InputError(f"part vertices must be ints in [0, {n})")
    if len(verts) < 2:
        raise InputError(f"part too small: {tuple(verts)}")
    if any(map(ge, verts, verts[1:])):
        raise InputError(f"part not sorted/distinct: {tuple(verts)}")
    if verts[0] < 0 or n is not None and verts[-1] >= n:
        raise InputError(f"part vertices must be ints in [0, {n})")
    if verts[-1] >= VERTEX_LIMIT:
        raise InputError(f"part vertex {verts[-1]} is past the vertex-id limit: "
                         f"ids must be below 2**{VERTEX_LIMIT.bit_length() - 1}")
    return verts, tag


def decomposition_from_dict(data: dict):
    """Inverse of decomposition_to_dict; InputError on a malformed file.

    Each part passes through _part in file order, with the configuration's n.
    Color ids must be below the number of parts, as every coloring this
    package writes uses ids 0..palette-1 and its palette is at most that.
    data is not modified."""
    return _from_dict(data, None)


def _from_dict(data, stored: Parts | None):
    """decomposition_from_dict, or, given stored, the same checks with the
    file's parts already in stored: each of data["parts"] passed _part with
    n None on its way there, so only the upper end of their range is left."""
    if not isinstance(data, dict) or "config" not in data or "parts" not in data:
        raise InputError('decomposition needs "config" and "parts"')
    metadata = data.get("metadata", {})
    if not isinstance(metadata, dict):
        raise InputError('"metadata" must be an object')
    config = config_from_dict(data["config"])
    raw = data["parts"]
    if not isinstance(raw, list):
        raise InputError(_PARTS_SHAPE)
    n = config.n
    if stored is None:
        parts = Parts()
        for p in raw:
            parts.add(*_part(p, n))
    elif max(stored.vertices, default=-1) >= n:
        raise InputError(f"part vertices must be ints in [0, {n})")
    else:
        parts = stored
    coloring = None
    cols = data.get("coloring")
    if cols is not None:
        if not (isinstance(cols, list) and len(cols) == len(parts)
                and _ints_below(cols, len(parts))):
            raise InputError(
                f'"coloring" must list one color id in [0, {len(parts)}) per part'
            )
        coloring = Coloring(array("I", cols))
    return Decomposition(config=config, parts=parts, metadata=metadata), coloring


def save_decomposition(d: Decomposition, path, coloring=None) -> None:
    """Write decomposition_to_dict(d, coloring) with write_json, the same
    bytes, with the parts and colors encoded from the arrays a slice at a
    time as write_json reaches them: no dict per part exists all at once."""
    write_json(_document(d, coloring), path)


def load_decomposition(path):
    """decomposition_from_dict of the file at path, read without a Part or a
    dict per part.

    The decoder's object hook passes each object with exactly the keys and
    key order save_decomposition writes for a part through _part (n None),
    adds it to one Parts and leaves _STORED in its place, so the file's
    parts never exist as objects all at once.  When every item of the
    file's "parts" list is a stored part, and every stored part such an
    item, that Parts is the decomposition's.  Otherwise (a part that fails a
    check, or a value of a part's shape elsewhere in the file, which the
    hook cannot tell from a part) the file is decoded again as a plain tree
    for decomposition_from_dict, so every check and message sees the
    decoded JSON."""
    parts = Parts()

    def store(obj: dict):
        if tuple(obj) == _PART_KEYS:
            try:
                parts.add(*_part(obj, None))
            except InputError:
                return obj
            return _STORED
        return obj

    data = read_json(path, store)
    listed = data.get("parts") if type(data) is dict else None
    if type(listed) is list and len(listed) == len(parts) == listed.count(_STORED):
        return _from_dict(data, parts)
    return decomposition_from_dict(read_json(path))
