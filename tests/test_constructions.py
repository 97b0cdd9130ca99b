import gc
import hashlib
import json
import pickle
import random
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations

import pytest

from geochroma.exactgeom import (
    COORD_BOUND,
    Configuration,
    InputError,
    Point,
    config_from_dict,
    convex_configuration,
    generate_general_position,
    part_shape,
    parts_conflict,
    point_in_triangle,
)
from geochroma import constructions
from geochroma.constructions import (
    Coloring,
    Construction,
    Decomposition,
    Part,
    decomposition_from_dict,
    decomposition_to_dict,
    load_decomposition,
    save_decomposition,
    thm3_construction,
    thm4_construction,
    thm5_construction,
    thm32_construction,
    trivial_edge_decomposition,
    validate_decomposition,
)
from geochroma.chroma import triangle_census, verify_coloring


def test_part_invariants():
    with pytest.raises(InputError):
        Part(vertices=(3,))
    for verts in ((3, 1), (1, 1, 3), (0, 2, 1), [1, 3]):
        with pytest.raises(InputError, match="not sorted/distinct"):
            Part(vertices=verts)
    assert Part(vertices=(1, 3)).edges() == [(1, 3)]


def test_part_is_a_slotted_frozen_record():
    part = Part(vertices=(0, 2, 5), tag="triangle")
    assert not hasattr(part, "__dict__")
    with pytest.raises(AttributeError):
        part.tag = "other"
    assert part == Part(vertices=(0, 2, 5), tag="triangle")
    assert hash(part) == hash(Part(vertices=(0, 2, 5), tag="triangle"))
    # the written-out __init__ keeps the generated one's interface
    with pytest.raises(AttributeError):
        part.vertices = (0, 1)
    assert part == Part((0, 2, 5), "triangle") != Part((0, 2, 5))
    assert Part((0, 2)).tag == "part" and Part((0, 2)).edges() == [(0, 2)]
    assert replace(part, tag="t") == Part((0, 2, 5), "t")
    assert pickle.loads(pickle.dumps(part)) == part
    with pytest.raises(InputError, match=r"^part too small: \[3\]$"):
        Part([3])
    with pytest.raises(InputError, match=r"^part not sorted/distinct: \[1, 3\]$"):
        Part([1, 3])


def test_loaded_parts_share_equal_tags():
    d = thm32_construction(4).decomposition
    again, _ = decomposition_from_dict(json.loads(json.dumps(decomposition_to_dict(d))))
    assert again.parts == d.parts
    assert len({id(p.tag) for p in again.parts}) == 1


def test_parts_store_a_few_bytes_per_part(tmp_path):
    # a decomposition holds each part as its vertex ids, one offset and one
    # tag index in flat arrays, and its coloring one id per part: no Python
    # object per part or per id.  thm32 k=16 (13,872 triangles), traced live
    # bytes: 3 * 4 + 8 + 4 + 4 = 28 stored bytes per part, about 30 with the
    # arrays' spare room, built or loaded; a Part per part held 124 to 134.
    built = thm32_construction(16)
    path = tmp_path / "k16.json"
    save_decomposition(built.decomposition, path, coloring=built.coloring)
    m = len(built.decomposition.parts)
    for make in (lambda: thm32_construction(16), lambda: load_decomposition(path)):
        tracemalloc.start()
        try:
            result = make()
            live = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert type(result[0].parts) is constructions.Parts
        assert result[0].parts == built.decomposition.parts and result[1] == built.coloring
        del result
        assert live / m < 36, live / m


def test_parts_read_as_a_list_of_parts():
    listed = [Part((0, 2, 5), "triangle"), Part((1, 3)), Part((0, 2), "triangle")]
    parts = constructions.Parts(listed)
    assert len(parts) == 3 and parts == listed and parts == tuple(listed) and listed == parts
    assert parts[-1] == listed[-1] and parts[1:] == listed[1:] and parts + listed == listed * 2
    assert parts.tags == ["triangle", "part"] and list(parts.sizes()) == [3, 2, 2]
    assert list(parts.blocks) == [(0, 2, 5), (1, 3), (0, 2)] and parts.blocks[-2] == (1, 3)
    assert parts != listed[:2] and parts != [*listed[:2], Part((0, 2), "edge")]
    with pytest.raises(IndexError):
        parts[3]
    with pytest.raises(TypeError):
        parts[0] = listed[0]


def test_lex_order_equals_sorting_the_vertex_tuples():
    # _finalize's bucketed sort against the plain sort of the tuples it
    # replaced: a stable lexicographic order, a prefix first, equal parts in
    # the order they came
    rng = random.Random(7)
    raw = constructions.Parts()
    for _ in range(400):
        raw.add(sorted(rng.sample(range(12), rng.randint(2, 5))), "part")
    raw.add((3, 4), "part")
    raw.add((3, 4, 5), "part")
    raw.add((3, 4), "part")
    blocks = list(raw.blocks)
    assert list(constructions._lex_order(raw)) == sorted(range(len(raw)), key=blocks.__getitem__)


def test_validate_lists_repeats_in_first_block_order(tmp_path):
    # parts out of lexicographic order, as a file may hold them: the repeated
    # pairs come in the order of the part that first covers each
    path = tmp_path / "hand.json"
    path.write_text(json.dumps({"config": {"mode": "convex", "n": 6}, "parts": [
        {"vertices": v} for v in ([3, 4, 5], [0, 1, 2], [2, 4], [4, 5], [1, 2, 3],
                                  [0, 3], [2, 4])]}))
    dec, _ = load_decomposition(path)
    assert validate_decomposition(dec) == {
        "uncovered": [(0, 4), (0, 5), (1, 4), (1, 5), (2, 5)], "uncovered_count": 5,
        "repeated": [(4, 5), (1, 2), (2, 4)], "valid": False}


def test_trivial_edges():
    d = trivial_edge_decomposition(convex_configuration(4))
    assert len(d.parts) == 6
    assert validate_decomposition(d)["valid"]
    # parts are sorted lexicographically by vertex list
    assert [p.vertices for p in d.parts] == sorted(p.vertices for p in d.parts)


@pytest.mark.parametrize("edit,report", [
    # C(3,2) edges now covered twice
    pytest.param(lambda parts: parts + [Part(vertices=(0, 1, 2), tag="dup")],
                 {"uncovered": [], "uncovered_count": 0,
                  "repeated": [(0, 1), (0, 2), (1, 2)]},
                 id="duplicate"),
    pytest.param(lambda parts: parts + [Part(vertices=(2, 4))],
                 {"uncovered": [], "uncovered_count": 0, "repeated": [],
                  "error": "part (2, 4) out of range"},
                 id="out-of-range"),
    pytest.param(lambda parts: parts[1:],
                 {"uncovered": [(0, 1)], "uncovered_count": 1, "repeated": []},
                 id="uncovered"),
])
def test_validate_reports_duplicate_part(edit, report):
    d = trivial_edge_decomposition(convex_configuration(4))
    bad = Decomposition(config=d.config, parts=edit(d.parts), metadata={})
    assert validate_decomposition(bad) == {**report, "valid": False}


def test_validate_counts_uncovered_pairs_and_lists_the_first_thousand():
    empty = Decomposition(config=convex_configuration(2000), parts=[], metadata={})
    rep = validate_decomposition(empty)
    assert rep["uncovered_count"] == 1_999_000 and not rep["valid"]
    assert rep["uncovered"] == [(0, v) for v in range(1, 1001)]


def test_star_parts_pairwise_conflict():
    d = trivial_edge_decomposition(convex_configuration(5))
    at0 = [i for i, p in enumerate(d.parts) if 0 in p.vertices]
    for i, j in combinations(at0, 2):
        assert parts_conflict(d.config, d.parts[i].vertices, d.parts[j].vertices)


@pytest.mark.parametrize("n", range(6, 100, 3))
def test_thm4_family(n):
    fam = thm4_construction(n)
    d = fam.decomposition
    want = (n // 3) ** 2
    assert len(fam.distinguished) == want
    assert d.metadata["distinguished_triangles"] == want
    assert validate_decomposition(d)["valid"]
    shapes = [part_shape(d.config, d.parts[i].vertices) for i in fam.distinguished]
    for a, b in combinations(shapes, 2):
        assert len(a.vertices & b.vertices) <= 1
        assert parts_conflict(d.config, a, b)


def test_thm4_rejects_bad_n():
    with pytest.raises(InputError):
        thm4_construction(10)


@pytest.mark.parametrize("q,seed", ((3, 1), (3, 2), (4, 1), (5, 1)))
def test_thm3_family(q, seed):
    fam = thm3_construction(q, seed=seed)
    d = fam.decomposition
    assert d.config.n == 7 * q + 6
    assert len(fam.distinguished) == 2 * q * q
    assert validate_decomposition(d)["valid"]
    strip = set(d.metadata["strip"])
    assert len(strip) == q
    center = tuple(map(Fraction, d.metadata["fan_center"]))
    pts = d.config.points
    for i, j in combinations(fam.distinguished, 2):
        a, b = d.parts[i].vertices, d.parts[j].vertices
        assert len(set(a) & set(b)) <= 1  # edge-disjoint
        assert parts_conflict(d.config, a, b)  # pairwise intersecting
    for pi in fam.distinguished:
        vs = d.parts[pi].vertices
        assert len(vs) == 4
        tri = [v for v in vs if v not in strip]
        assert len(tri) == 3
        # the fan center, as a file reader gets it, lies inside the K4 minus
        # its strip vertex
        assert point_in_triangle(center, pts[tri[0]], pts[tri[1]], pts[tri[2]])
    tags = {d.parts[i].tag.split("(")[0] for i in fam.distinguished}
    assert tags == {"X", "Y"}


def test_every_construction_returns_one_shape():
    for build, colored in (
        (lambda: thm3_construction(3, seed=1), False),
        (lambda: thm4_construction(9), False),
        (lambda: thm5_construction(generate_general_position(100, seed=7)), True),
        (lambda: thm32_construction(4), True),
    ):
        res = build()
        assert isinstance(res, Construction)
        decomp, coloring = res
        assert decomp is res.decomposition and coloring is res.coloring
        assert isinstance(decomp, Decomposition)
        assert (coloring is None) == (not colored)
        if colored:
            assert isinstance(coloring, Coloring)
        assert res.distinguished == [
            i for i, p in enumerate(decomp.parts) if len(p.vertices) > 2
        ]
        assert res.stats is decomp.metadata


def test_thm3_rejects_bad_q():
    with pytest.raises(InputError):
        thm3_construction(2)
    with pytest.raises(InputError):
        thm3_construction(6)


def test_thm3_accepts_explicit_config():
    cfg = generate_general_position(27, seed=77)
    fam = thm3_construction(3, config=cfg)
    assert fam.decomposition.config is cfg
    with pytest.raises(InputError):
        thm3_construction(3, config=generate_general_position(20, seed=0))


def test_thm3_general_n_spills_extras():
    # n beyond 7q+6: the construction still yields 2q^2 parts, extras spill
    from geochroma.constructions import largest_thm3_q

    assert largest_thm3_q(40) == 4
    cfg = generate_general_position(40, seed=3)
    fam = thm3_construction(4, config=cfg)
    assert len(fam.distinguished) == 32
    assert validate_decomposition(fam.decomposition)["valid"]


def test_thm32_k4():
    dec, col = thm32_construction(4)
    assert dec.config.n == 73
    assert len(dec.parts) == 876
    assert col.palette == 219
    assert validate_decomposition(dec)["valid"]
    assert verify_coloring(dec, col) == []
    assert all(len(p.vertices) == 3 for p in dec.parts)


def test_verify_coloring_catches_bad_merge():
    # recoloring one part into a conflicting class must surface a violation
    dec, col = thm32_construction(4)
    from geochroma.chroma import Coloring

    target = None
    for i in range(len(dec.parts)):
        for j in range(len(dec.parts)):
            if i != j and col.colors[i] != col.colors[j] and set(
                dec.parts[i].vertices
            ) & set(dec.parts[j].vertices):
                target = (i, j)
                break
        if target:
            break
    i, j = target
    bad = list(col.colors)
    bad[i] = bad[j]
    assert verify_coloring(dec, Coloring(colors=tuple(bad)))


def test_thm32_box1_class_is_six_nonconflicting_triangles():
    dec, col = thm32_construction(4)
    cls = [i for i, c in enumerate(col.colors) if c == 0]
    assert len(cls) == 6
    for i, j in combinations(cls, 2):
        assert not parts_conflict(dec.config, dec.parts[i].vertices, dec.parts[j].vertices)


def test_thm32_k6_sampled():
    dec, col = thm32_construction(6)
    n = 18 * 6 + 1
    assert len(dec.parts) == n * (n - 1) // 6
    assert col.palette == n * 4
    assert validate_decomposition(dec)["valid"]
    assert verify_coloring(dec, col) == []


def test_thm32_rejects_bad_k():
    with pytest.raises(InputError):
        thm32_construction(3)


def test_thm5_small():
    cfg = generate_general_position(100, seed=11)
    res = thm5_construction(cfg)
    assert validate_decomposition(res.decomposition)["valid"]
    assert verify_coloring(res.decomposition, res.coloring) == []
    s = res.stats
    assert s["colors"] == res.coloring.palette
    assert s["triangles"] + s["singleton_edges"] == len(res.decomposition.parts)
    assert 0 < s["non_triangle_edge_fraction"] < 1
    assert s["levels"][0]["q"] >= 8


def test_thm5_within_strip_class_never_conflicts():
    # same-colored within-strip triangles of one K9 sit in disjoint slabs
    cfg = generate_general_position(100, seed=11)
    res = thm5_construction(cfg)
    d = res.decomposition
    groups = {}
    for i, p in enumerate(d.parts):
        if p.tag.startswith("triangle-W"):
            groups.setdefault(res.coloring.colors[i], []).append(i)
    assert groups
    for members in groups.values():
        for i, j in combinations(members, 2):
            assert not parts_conflict(d.config, d.parts[i].vertices, d.parts[j].vertices)


def test_thm5_below_threshold_degrades_to_singletons():
    cfg = generate_general_position(30, seed=11)
    res = thm5_construction(cfg)
    assert res.stats["triangles"] == 0
    assert res.stats["singleton_edges"] == 30 * 29 // 2
    assert validate_decomposition(res.decomposition)["valid"]
    assert verify_coloring(res.decomposition, res.coloring) == []


def test_thm5_propagates_a_planecut_oracle_failure(monkeypatch):
    # the recount oracle rejects every assignment (one vertex sits in a region
    # and in the spill): thm5 must fail, not fall back to singleton edges
    from geochroma import planecut

    recount = planecut.recount_regions

    def rejecting(asg, config):
        recount(replace(asg, spill=asg.spill + asg.regions[0][:1]), config)

    monkeypatch.setattr(planecut, "recount_regions", rejecting)
    with pytest.raises(AssertionError, match="assigned twice"):
        thm5_construction(generate_general_position(150, seed=3))


def test_thm5_rejects_coordinates_above_bound():
    # built directly, without the loader: the constructor checks the bound,
    # so no out-of-bound configuration reaches thm5
    pts = list(generate_general_position(100, seed=11).points)
    pts[0] = Point(COORD_BOUND + 1, pts[0].y)
    with pytest.raises(InputError, match="coordinate bound"):
        thm5_construction(Configuration(mode="coordinates", n=100, points=tuple(pts)))


def test_thm32_sweep_even_k_4_to_30():
    # every even k up to 30: exact cover, a proper coloring with n(k/2+1)
    # colors, at most 8 large triangles per class; all outputs pinned
    digest = hashlib.sha256()
    for k in range(4, 31, 2):
        dec, col = thm32_construction(k)
        n = 18 * k + 1
        assert validate_decomposition(dec)["valid"], k
        assert verify_coloring(dec, col) == [], k
        assert col.palette == n * (k // 2 + 1), k
        census = triangle_census(dec, col)
        assert (census.limit, census.violations) == (8, []), k
        data = decomposition_to_dict(dec, col)
        digest.update(json.dumps(data, sort_keys=True, separators=(",", ":")).encode())
    assert digest.hexdigest() == (
        "2bf6a71b06c309a73613455e5cb559d8de981b233cdfbb0bf42068d9a6bcdbe3")


def test_thm3_sweep_supported_q_to_13_seeds_1_to_3():
    # every supported q up to 13 on three seeds: 2q^2 K4s, exact cover,
    # pairwise edge-disjoint and conflicting, the fan center inside every
    # X/Y triangle; all outputs pinned
    digest = hashlib.sha256()
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        for seed in (1, 2, 3):
            fam = thm3_construction(q, seed=seed)
            d = fam.decomposition
            dist = [d.parts[i].vertices for i in fam.distinguished]
            assert len(dist) == 2 * q * q and all(len(vs) == 4 for vs in dist), (q, seed)
            assert validate_decomposition(d)["valid"], (q, seed)
            for a, b in combinations(dist, 2):
                assert len(set(a) & set(b)) <= 1, (q, seed, a, b)
                assert parts_conflict(d.config, a, b), (q, seed, a, b)
            strip = set(d.metadata["strip"])
            center = tuple(map(Fraction, d.metadata["fan_center"]))
            pts = d.config.points
            for vs in dist:
                tri = [pts[v] for v in vs if v not in strip]
                assert len(tri) == 3 and point_in_triangle(center, *tri), (q, seed, vs)
            data = decomposition_to_dict(d)
            digest.update(json.dumps(data, sort_keys=True, separators=(",", ":")).encode())
    assert digest.hexdigest() == (
        "9599a9119bc8396f430bdfdf7795f38f605a2a29d02de2f65dd160e40a54e761")


def test_thm5_leaves_no_garbage_for_the_collector():
    # thm5's levels share their state through an argument, not a closure that
    # refers to itself, so what thm5 builds is freed as soon as it is dropped,
    # with no wait for the cyclic collector.  The closure left 13,007 objects
    # (the covered-edge set of the time and its edge tuples; the covered
    # edges are now flags in one bytearray) for a collection to find at
    # n=200, 1.57 MB traced; what a collection frees now, 0.26 MB, is the
    # interpreter's free lists, which a full collection empties.  The first
    # call is a warm-up: it imports what the planecut search loads on first
    # use, which holds cycles of its own.
    cfg = generate_general_position(200, seed=3)
    thm5_construction(cfg)
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        result = thm5_construction(cfg)
        returned = tracemalloc.get_traced_memory()[0]
        found = gc.collect()
        collected = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        if was:
            gc.enable()
    assert len(result.decomposition.parts) > 0
    assert found == 0 and returned - collected < 512 * 1024, (found, returned - collected)


def test_thm5_build_peak_memory_per_edge():
    # thm5 flags each covered edge in one bytearray, byte u*n + v, and reads
    # the singleton edges from the flags, with no tuple or set entry per
    # covered edge: tracemalloc peaks at 33.3 bytes per edge of K_n at n=300,
    # seed 3 (44,850 edges, CPython 3.10-3.13), in _finalize's sort, against
    # 115 with a set of covered-edge tuples, whose peak was the triangle
    # placement.  The bound allows 30 % over it.  The first call is a
    # warm-up: it imports what the planecut search loads on first use.
    thm5_construction(generate_general_position(90, seed=5))
    cfg = generate_general_position(300, seed=3)
    tracemalloc.start()
    try:
        built = thm5_construction(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert built.stats["triangles"] > 0
    assert peak / (300 * 299 // 2) < 44, peak / (300 * 299 // 2)


def test_thm5_deterministic():
    cfg = generate_general_position(90, seed=5)
    a = thm5_construction(cfg)
    b = thm5_construction(cfg)
    assert [p.vertices for p in a.decomposition.parts] == [
        p.vertices for p in b.decomposition.parts
    ]
    assert a.coloring == b.coloring


def test_decomposition_json_round_trip():
    dec, col = thm32_construction(4)
    data = decomposition_to_dict(dec, col)
    dec2, col2 = decomposition_from_dict(data)
    assert dec2.config == dec.config
    assert dec2.parts == dec.parts
    assert dec2.metadata == dec.metadata
    assert col2 == col


def test_decomposition_json_round_trip_coordinates():
    fam = thm3_construction(3, seed=1)
    data = decomposition_to_dict(fam.decomposition)
    dec2, col2 = decomposition_from_dict(data)
    assert col2 is None
    assert dec2.parts == fam.decomposition.parts
    assert dec2.config == fam.decomposition.config


def _holds_part(value) -> bool:
    """True iff a Part sits anywhere in value, a decoded JSON value."""
    todo = [value]
    while todo:
        node = todo.pop()
        if isinstance(node, Part):
            return True
        if isinstance(node, dict):
            todo.extend(node.values())
        elif isinstance(node, list):
            todo.extend(node)
    return False


# metadata values shaped like parts, which the loader's object hook also sees
_PART_SHAPED = [
    {"vertices": [0, 1]},
    {"vertices": [1, 0], "tag": 5},
    {"vertices": [0, 1], "tag": "x"},  # saved exactly as a part is
    {"vertices": [0, 999], "tag": "far"},  # a part but for its range
    [{"tag": "x", "vertices": [2, 3]}, {"deep": {"vertices": [0, 1, 2], "tag": "t"}}],
]


def test_part_shaped_metadata_loads_back_equal(tmp_path):
    dec, col = thm5_construction(generate_general_position(90, seed=5))
    levels = json.loads(json.dumps(dec.metadata["levels"]))
    levels[0]["shaped"] = _PART_SHAPED
    shaped = {f"shaped{i}": v for i, v in enumerate(_PART_SHAPED)}
    path = tmp_path / "dec.json"
    # the whole metadata may be shaped like a part, too
    for meta in ({**dec.metadata, **shaped, "levels": levels}, {"tag": "t", "vertices": [0, 1]}):
        save_decomposition(replace(dec, metadata=meta), path, coloring=col)
        again, col2 = load_decomposition(path)
        assert again.metadata == meta and not _holds_part(again.metadata)
        assert again.parts == dec.parts and col2 == col


def _tree_load(path):
    """The oracle loader: the file decoded as one tree, and each part made a
    Part by the per-part rule the loader had before parts were stored flat.
    For well-formed files: (config, parts, metadata, coloring)."""
    data = json.loads(path.read_text())
    config = config_from_dict(data["config"])
    parts = []
    for obj in data["parts"]:
        verts, tag = obj["vertices"], obj.get("tag", "part")
        assert type(tag) is str and all(type(v) is int for v in verts)
        part = Part(tuple(verts), tag)
        assert part.vertices[0] >= 0 and part.vertices[-1] < config.n
        parts.append(part)
    cols = data.get("coloring")
    return config, parts, data.get("metadata", {}), None if cols is None else Coloring(cols)


def test_save_load_round_trip_property(tmp_path):
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    tags = st.one_of(st.sampled_from(["part", "triangle", "singleton-edge", "", "vertices",
                                      'q"uo\\te']), st.text(max_size=5))
    # metadata values, some shaped like parts, as the loader's object hook sees them
    part_shaped = st.fixed_dictionaries({"tag": tags, "vertices": st.lists(st.integers(0, 9),
                                                                           max_size=3)})
    value = st.one_of(st.integers(-2, 2**70), st.text(max_size=4), st.booleans(), st.none(),
                      part_shaped, st.lists(part_shaped, max_size=2))
    path, again = tmp_path / "first.json", tmp_path / "again.json"

    @hyp.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hyp.given(st.integers(3, 9), st.data())
    def check(n, data):
        if data.draw(st.booleans()):
            config = convex_configuration(n)
        else:
            config = generate_general_position(n, seed=data.draw(st.integers(0, 3)))
        if data.draw(st.booleans()):  # a cover: a triangle packing and the edges it leaves
            used, parts = set(), []
            for tri in data.draw(st.permutations(list(combinations(range(n), 3)))):
                if used.isdisjoint(combinations(tri, 2)):
                    used.update(combinations(tri, 2))
                    parts.append(Part(tri, data.draw(tags)))
            parts += [Part(e, "singleton-edge") for e in combinations(range(n), 2)
                      if e not in used]
        else:  # any parts: repeats, gaps, sizes 2 to 4
            vertex_sets = st.sets(st.integers(0, n - 1), min_size=2, max_size=4)
            parts = data.draw(st.lists(st.builds(lambda vs, tag: Part(tuple(sorted(vs)), tag),
                                                 vertex_sets, tags), max_size=12))
        coloring = None
        if data.draw(st.booleans()):
            ids = st.integers(0, max(len(parts) - 1, 0))
            coloring = Coloring(data.draw(st.lists(ids, min_size=len(parts),
                                                   max_size=len(parts))))
        metadata = data.draw(st.dictionaries(st.text(max_size=4), value, max_size=3))
        save_decomposition(Decomposition(config, parts, metadata), path, coloring=coloring)
        loaded, col = load_decomposition(path)
        save_decomposition(loaded, again, coloring=col)
        assert again.read_bytes() == path.read_bytes()
        assert (loaded.config, loaded.parts, loaded.metadata, col) == _tree_load(path)
        assert loaded.parts == parts and col == coloring

    check()


_TAGGED = {"tag": "x", "vertices": [0, 1]}
_TAGGED = {"tag": "x", "vertices": [0, 1]}


@pytest.mark.parametrize("doc,message", [
    (_TAGGED, 'decomposition needs "config" and "parts"'),
    ({"config": _TAGGED, "parts": []}, "unknown configuration mode None"),
    ({"config": {"mode": "convex", "n": 3}, "parts": _TAGGED},
     '"parts" must be a list of {"vertices": [...]} objects'),
    ({"config": {"mode": "convex", "n": 3}, "parts": [{"tag": _TAGGED, "vertices": [0, 1]}]},
     "part tag must be a string, got dict"),
    ({"config": {"mode": "convex", "n": 3}, "parts": [_TAGGED], "coloring": _TAGGED},
     '"coloring" must list one color id in [0, 1) per part'),
], ids=["file", "config", "parts", "tag", "coloring"])
def test_part_shaped_values_fail_as_decoded(tmp_path, doc, message):
    # a value the object hook turned into a Part is checked as the object it
    # was decoded from, so the message is the decoded-tree loader's
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    for load, arg in ((load_decomposition, path), (decomposition_from_dict, doc)):
        with pytest.raises(InputError) as exc:
            load(arg)
        assert str(exc.value) == message


def test_json_io_peak_memory_per_part(tmp_path):
    # load_decomposition stores each part in flat arrays as the decoder
    # finishes its object, and save_decomposition encodes the parts from the
    # arrays a slice at a time, so neither holds a dict or a Part per part.
    # tracemalloc peaks on thm32 k=16 (13,872 parts, CPython 3.11): load 116
    # bytes per part (the file text and the decoded coloring list included),
    # save 17; the Part-per-part loader peaked at 187 and the decoded-tree
    # loader and the whole-list encoder at 508 and 299.  The bounds allow
    # 30 % over the load peak and 3x over the save peak of the Part store,
    # whose base is small.
    dec, col = thm32_construction(16)
    path = tmp_path / "k16.json"
    save_decomposition(dec, path, coloring=col)
    m = len(dec.parts)
    for name, run, bound in (("load", lambda: load_decomposition(path), 150),
                             ("save", lambda: save_decomposition(dec, path, coloring=col), 72)):
        tracemalloc.start()
        try:
            result = run()  # kept until the peak is read: a load's arrays count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del result
        assert peak / m < bound, (name, peak / m)


def test_thm32_build_peak_memory_per_part():
    # thm32 appends its blocks straight into the arrays of one Parts and
    # _finalize sorts indices bucketed by first vertex, with no Part or key
    # tuple per part: tracemalloc peaks at 102 bytes per part on k=16
    # (13,872 triangles, CPython 3.11; the cyclic STS's block tuples, which
    # the build drops once they are stored, included), against 202 with a
    # Part per part.  The bound allows 30 % over it.
    tracemalloc.start()
    try:
        built = thm32_construction(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(built.decomposition.parts) < 133
