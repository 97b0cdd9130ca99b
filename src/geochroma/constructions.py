"""Edge decompositions of complete geometric graphs and their constructions.

A decomposition is a list of parts (vertex subsets, each inducing a complete
subgraph) covering every edge of the complete graph exactly once; a coloring
gives each part a color.  The constructors here realize the explicit
families: the trivial edge partition, the pairwise-intersecting K4 family on
general-position points, the convex matching-triangle family, the recursive
triangle decomposition, and the cyclic-STS triangle decomposition with its
box coloring.  Each family hands its raw parts to one assembly step,
_finalize, which sorts them and, for an uncolored family, turns every edge no
part covers into a singleton part; every family returns a Construction.
"""

from __future__ import annotations

import gc
import sys
from dataclasses import dataclass, field, replace
from itertools import chain, combinations
from operator import ge
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

    __init__ is written out: it checks the vertices and stores both fields
    through their slot descriptors, which pass the frozen __setattr__ more
    cheaply than the generated __init__'s object.__setattr__ calls and
    __post_init__: 0.64 us per triangle against 0.84 us (CPython 3.11, shared
    2-core x86 host), paid once per part a file holds."""

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


@dataclass
class Decomposition:
    config: Configuration
    parts: list[Part]
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Coloring:
    """Part index -> 0-based color id."""

    colors: tuple[int, ...]

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
        return [i for i, p in enumerate(self.decomposition.parts) if len(p.vertices) > 2]

    @property
    def stats(self) -> dict:
        return self.decomposition.metadata


def validate_decomposition(d: Decomposition) -> dict:
    """Exact-cover report: every edge of K_n in exactly one part.

    A Part's vertices are strictly increasing, so once each part is checked
    to lie in 0..n-1 the parts go straight to the pair count."""
    n = d.config.n
    for part in d.parts:
        if part.vertices[-1] >= n or part.vertices[0] < 0:
            return {"uncovered": [], "uncovered_count": 0, "repeated": [], "valid": False,
                    "error": f"part {part.vertices} out of range"}
    return pair_cover_report(n, [p.vertices for p in d.parts])


def _finalize(config, raw_parts, metadata, colors=None) -> Construction:
    """Sort parts lexicographically by vertex list into a Construction.

    With colors, the coloring follows the parts into the new order.  Without,
    the coloring is None and every edge of K_n that no raw part covers first
    becomes a singleton-edge part.
    """
    if colors is None:
        covered = set(chain.from_iterable(p.edges() for p in raw_parts))
        raw_parts = raw_parts + [
            Part(vertices=e, tag="singleton-edge")
            for e in combinations(range(config.n), 2) if e not in covered
        ]
    order = sorted(range(len(raw_parts)), key=lambda i: raw_parts[i].vertices)
    parts = [raw_parts[i] for i in order]
    decomp = Decomposition(config=config, parts=parts, metadata=metadata)
    if colors is None:
        return Construction(decomp, None)
    remapped = tuple(colors[i] for i in order)
    return Construction(decomp, Coloring(colors=remapped))


def trivial_edge_decomposition(config: Configuration) -> Decomposition:
    if config.n < 2:
        raise InputError("need n >= 2")
    return _finalize(config, [], {"construction": "edges", "n": config.n}).decomposition


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
    raw = []
    for i in range(m, 2 * m):
        for j in range(2 * m, 3 * m):
            k = (i + j) % m
            verts = tuple(sorted((k, i, j)))
            raw.append(Part(vertices=verts, tag=f"triangle({k};{i},{j})"))
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
    raw = []
    for i, i2, j2, j in pencil_transversals(projective_plane(q), 4):
        for fam, s1, s2_, s3_ in (("X", v1, v2, v3), ("Y", u1, u2, u3)):
            verts = tuple(sorted((s1[i], v4[j], s2_[i2], s3_[j2])))
            raw.append(Part(vertices=verts, tag=f"{fam}({i + 1},{j + 1})"))

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

    color = list(range(n * (k // 2 + 1))).__getitem__  # one int object per color id
    colors = [color((table.rows[t // 3].box - 1) * n + (s - a) % n)
              for t, a in enumerate(anchors) for s in range(n)]
    raw = [Part(vertices=blk, tag="triangle") for blk in design.blocks]
    palette = max(colors) + 1
    if palette != n * (k // 2 + 1):
        raise AssertionError(f"palette {palette} != n(k/2+1) = {n * (k // 2 + 1)}")
    meta = {
        "construction": "thm32",
        "k": k,
        "n": n,
        "colors": n * (k // 2 + 1),
        "blocks": len(design.blocks),
    }
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
    check raises AssertionError.  Every coordinate is within the bound the
    int64 side counts need, as Configuration checks it when it is built.
    """
    if config.mode != "coordinates":
        raise InputError("thm5 needs a coordinates configuration")
    n = config.n
    if n < 2:
        raise InputError("need n >= 2")
    pts = config.points
    used: set[tuple[int, int]] = set()
    levels: list[dict] = []
    raw: list[Part] = []
    colors: list[int] = []

    def build(idxs, depth, first) -> int:
        """Place the triangles on the points idxs, colored from `first` on,
        and return how many colors they use."""
        ordered = sorted(idxs)
        m = len(ordered)
        if m < THM5_MIN_LEVEL:
            return 0
        sub_pts = tuple(pts[i] for i in ordered)
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

        placed = len(raw)
        ncolors = 0
        transversals = pencil_transversals(projective_plane(q), 9)
        for pos in transversals:
            verts9 = [regions[a][idx] for a, idx in enumerate(pos)]
            slots: dict[str, int] = {}
            for posns, slot, tag in _K9_TRIANGLES:
                tri = tuple(sorted(verts9[p] for p in posns))
                ek = ((tri[0], tri[1]), (tri[0], tri[2]), (tri[1], tri[2]))
                if any(e in used for e in ek):
                    continue
                used.update(ek)
                if slot not in slots:
                    slots[slot] = ncolors
                    ncolors += 1
                raw.append(Part(vertices=tri, tag=tag))
                colors.append(first + slots[slot])

        levels.append({
            "depth": depth, "m": m, "q": q, "k9s": len(transversals),
            "level_triangles": len(raw) - placed,
            "level_colors": ncolors,
        })
        # the strips share one color block after this level's colors
        return ncolors + max(build([ordered[v] for v in s], depth + 1, first + ncolors)
                             for s in nine.strips)

    tri_colors = build(range(n), 0, 0)
    triangles = len(raw)
    # the singleton edges: every edge of K_n that no triangle covers
    singles = [e for e in combinations(range(n), 2) if e not in used]
    single_colors = _color_singletons(config, singles, tri_colors)
    raw.extend(Part(vertices=e, tag="singleton-edge") for e in singles)
    colors.extend(single_colors)
    single_palette = len(set(single_colors))

    meta = {
        "construction": "thm5",
        "n": n,
        "threshold": THM5_MIN_LEVEL,
        "triangles": triangles,
        "singleton_edges": len(singles),
        "non_triangle_edge_fraction": len(singles) / (n * (n - 1) // 2),
        "triangle_colors": tri_colors,
        "singleton_colors": single_palette,
        "colors": tri_colors + single_palette,
        "levels": levels,
    }
    return _finalize(config, raw, meta, colors=colors)


def _edges_cross(config, e1, e2) -> bool:
    if config.mode == "convex":
        return convex_cross(config.n, e1, e2)
    p = config.points
    return proper_cross(p[e1[0]], p[e1[1]], p[e2[0]], p[e2[1]])


def _color_singletons(config, edges, base) -> list[int]:
    """First-fit colors, from `base` on, of the given edges, in their order.

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
    groups: dict[int, list] = {}
    for e in sorted(edges):
        groups.setdefault((e[0] + e[1]) % M, []).append(e)
    color = {}
    for g in sorted(groups):
        buckets: list[list] = []  # (edge, box) pairs per color
        for e in groups[g]:
            box = part_box(config, e)
            for bi, bucket in enumerate(buckets):
                if all(boxes_apart(box, ob) or not _edges_cross(config, e, o)
                       for o, ob in bucket):
                    bucket.append((e, box))
                    color[e] = base + bi
                    break
            else:
                color[e] = base + len(buckets)
                buckets.append([(e, box)])
        base += len(buckets)
    return [color[e] for e in edges]


# --- JSON interchange ------------------------------------------------------------

def _part_dict(p: Part) -> dict:
    return {"vertices": list(p.vertices), "tag": p.tag}


def decomposition_to_dict(d: Decomposition, coloring=None) -> dict:
    """The JSON document of d and its coloring: the one encoding rule, each
    part encoded by _part_dict."""
    out = {
        "config": config_to_dict(d.config),
        "parts": list(map(_part_dict, d.parts)),
        "metadata": d.metadata,
    }
    if coloring is not None:
        out["coloring"] = list(coloring.colors)
    return out


_PARTS_SHAPE = '"parts" must be a list of {"vertices": [...]} objects'
_INT = frozenset({int})
# the keys of a part object, in the order write_json writes them
_PART_KEYS = ("tag", "vertices")


def _ints_below(values: list, hi: int) -> bool:
    """True iff every value is an int in [0, hi)."""
    return (_INT.issuperset(map(type, values))
            and min(values, default=0) >= 0 and max(values, default=-1) < hi)


def _part(obj, n: int | None) -> Part:
    """The Part a decoded part object describes: the loader's one per-part
    rule.  InputError unless obj is a dict whose "vertices" is a list of at
    least two ints, strictly increasing, in [0, n), and whose "tag", if given,
    is a string.  Equal tags share one (interned) string.

    With n None the range is left unchecked: _decode_part meets parts before
    the file's configuration is known.  A Part it made comes through here
    again from decomposition_from_dict, with n, for the range alone."""
    if type(obj) is not Part:
        verts = obj.get("vertices") if isinstance(obj, dict) else None
        if not isinstance(verts, list):
            raise InputError(_PARTS_SHAPE)
        tag = obj.get("tag", "part")
        if type(tag) is not str:
            raise InputError(f"part tag must be a string, got {type(tag).__name__}")
        if not _INT.issuperset(map(type, verts)):
            raise InputError(f"part vertices must be ints in [0, {n})")
        obj = Part(tuple(verts), sys.intern(tag))
    if n is not None and (obj.vertices[0] < 0 or obj.vertices[-1] >= n):
        raise InputError(f"part vertices must be ints in [0, {n})")
    return obj


def _decode_part(obj: dict):
    """The json object_hook of load_decomposition: an object that has exactly
    the keys and key order save_decomposition writes for a part, and passes
    every check of _part but the range, becomes its Part as soon as it is
    decoded, so the file's parts never exist as dicts all at once.  Any other
    object stays as it is; one that fails a check is reported by
    decomposition_from_dict at its place in the file."""
    if tuple(obj) == _PART_KEYS:
        try:
            return _part(obj, None)
        except InputError:
            pass
    return obj


def _restore_parts(data):
    """data, a decoded file, with every Part that _decode_part made outside
    its "parts" list turned back into the object it was decoded from.

    The hook cannot tell a part from a metadata or configuration value of the
    same shape; this restores the latter, so they load back equal to what was
    saved and every check and message sees the decoded JSON.  An explicit
    stack, not recursion, as the decoder nests as deep as the recursion limit."""
    if not isinstance(data, dict):
        return data
    parts = data.get("parts")
    todo = [data]
    while todo:
        node = todo.pop()
        for key, value in node.items() if type(node) is dict else enumerate(node):
            if type(value) is Part:
                if node is not parts:
                    node[key] = {"tag": value.tag, "vertices": list(value.vertices)}
            elif type(value) is dict or type(value) is list:
                todo.append(value)
    return data


def decomposition_from_dict(data: dict):
    """Inverse of decomposition_to_dict; InputError on a malformed file.

    Each part passes through _part in file order, with the configuration's n.
    Color ids must be below the number of parts, as every coloring this
    package writes uses ids 0..palette-1 and its palette is at most that.
    data is not modified."""
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
    parts = [_part(p, n) for p in raw]
    d = Decomposition(config=config, parts=parts, metadata=metadata)
    coloring = None
    cols = data.get("coloring")
    if cols is not None:
        if not (isinstance(cols, list) and len(cols) == len(parts)
                and _ints_below(cols, len(parts))):
            raise InputError(
                f'"coloring" must list one color id in [0, {len(parts)}) per part'
            )
        coloring = Coloring(colors=tuple(cols))
    return d, coloring


def save_decomposition(d: Decomposition, path, coloring=None) -> None:
    """Write decomposition_to_dict(d, coloring) with write_json, the same
    bytes, but with the parts encoded a slice at a time as write_json reaches
    them: their dicts never exist all at once."""
    doc = decomposition_to_dict(replace(d, parts=[]), coloring)
    doc["parts"] = map(_part_dict, d.parts)
    write_json(doc, path)


class _SharedInts(dict):
    """A json parse_int for one load, through __getitem__: the int of each
    integer text, made once per distinct text, so every occurrence of a
    vertex or color id in a file decodes to one shared int object."""

    __slots__ = ()

    def __missing__(self, text: str) -> int:
        value = self[text] = int(text)
        return value


def load_decomposition(path):
    """decomposition_from_dict of the file at path, with each part object
    turned into its Part as soon as the decoder finishes it (_decode_part)
    and equal integers sharing one int (_SharedInts, kept for this load).

    The cyclic garbage collector is paused for the load, as what it builds
    holds no reference cycles for it to find; the caller's setting is
    restored however the load ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        data = read_json(path, _decode_part, _SharedInts().__getitem__)
        return decomposition_from_dict(_restore_parts(data))
    finally:
        if enabled:
            gc.enable()
