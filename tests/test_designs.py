import random
import tracemalloc
from array import array
from collections import Counter
from itertools import combinations, islice

import pytest

from geochroma.designs import (
    UNCOVERED_LISTED,
    BlockDesign,
    Triples,
    cyclic_sts,
    difference_triples,
    field_tables,
    orbit_block,
    pencil_through,
    pencil_transversals,
    plane_order_supported,
    projective_plane,
    sts9,
    validate_design,
)
from geochroma.exactgeom import InputError


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32))
def test_field_axioms_exhaustive(q):
    add, neg, mul, inv = field_tables(q)
    els = range(q)
    for a in els:
        assert add[a][0] == a
        assert mul[a][1] == a
        assert add[a][neg[a]] == 0
        if a:
            assert mul[a][inv[a]] == 1
    for a in els:
        for b in els:
            assert add[a][b] == add[b][a]
            assert mul[a][b] == mul[b][a]
            for c in els:
                assert add[add[a][b]][c] == add[a][add[b][c]]
                assert mul[mul[a][b]][c] == mul[a][mul[b][c]]
                assert mul[a][add[b][c]] == add[mul[a][b]][mul[a][c]]


def test_field_rejects_non_prime_power():
    with pytest.raises(InputError):
        field_tables(6)


def test_plane_counts():
    p2 = projective_plane(2)
    assert len(p2.line_points) == 7 and all(len(l) == 3 for l in p2.line_points)
    p3 = projective_plane(3)
    assert len(p3.line_points) == 13 and all(len(l) == 4 for l in p3.line_points)


@pytest.mark.parametrize("q", (2, 3, 4, 5, 7, 8, 9))
def test_plane_axioms_exhaustive(q):
    plane = projective_plane(q)
    n = len(plane.line_points)
    point_lines = [{li for li, members in enumerate(plane.line_points) if pj in members}
                   for pj in range(n)]
    assert all(len(l) == q + 1 for l in plane.line_points)
    assert all(len(l) == q + 1 for l in point_lines)
    for l1, l2 in combinations(range(n), 2):
        assert len(set(plane.line_points[l1]) & set(plane.line_points[l2])) == 1
    for p1, p2 in combinations(range(n), 2):
        assert len(point_lines[p1] & point_lines[p2]) == 1


@pytest.mark.parametrize("q", (11, 13, 16, 29))
def test_plane_matches_brute_force_incidence(q):
    plane = projective_plane(q)
    pts = [(1, y, z) for y in range(q) for z in range(q)]
    pts += [(0, 1, z) for z in range(q)] + [(0, 0, 1)]
    if all(q % d for d in range(2, q)):
        def on(line, pt):
            return sum(u * v for u, v in zip(line, pt)) % q == 0
    else:
        add, _, mul, _ = field_tables(q)

        def on(line, pt):
            (a, b, c), (x, y, z) = line, pt
            return add[add[mul[a][x]][mul[b][y]]][mul[c][z]] == 0
    for li, line in enumerate(pts):
        expected = tuple(pj for pj, pt in enumerate(pts) if on(line, pt))
        assert plane.line_points[li] == expected, line
    # self-duality: line_points[j] is also the sorted tuple of lines through point j
    for pj in range(len(pts)):
        assert plane.line_points[pj] == tuple(
            li for li, members in enumerate(plane.line_points) if pj in members
        )


@pytest.mark.parametrize("q", (2, 3, 4, 8, 9, 16))
def test_plane_lines_strictly_increasing(q):
    for line in projective_plane(q).line_points:
        assert all(a < b for a, b in zip(line, line[1:])), line


def test_plane_shares_one_int_per_point():
    # q = 16 has ids up to 272, past the ints CPython caches
    plane = projective_plane(16)
    ids = {}
    for line in plane.line_points:
        for pt in line:
            assert ids.setdefault(pt, pt) is pt


def test_plane_live_bytes_per_incidence():
    q = 61
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        plane = projective_plane(q)
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    incidences = sum(map(len, plane.line_points))
    assert incidences == (q * q + q + 1) * (q + 1)
    assert live <= 16 * incidences


def test_plane_order_supported_iff_field_constructs():
    for q in range(65):
        try:
            field_tables(q)
            constructs = True
        except InputError:
            constructs = False
        assert plane_order_supported(q) == constructs, q


def test_pencil_disjoint_residues():
    p3 = projective_plane(3)
    residues = pencil_through(p3, 0, 4)
    assert all(len(r) == 3 for r in residues)
    for a, b in combinations(residues, 2):
        assert not set(a) & set(b)
    p8 = projective_plane(8)
    residues = pencil_through(p8, 0, 9)
    assert all(len(r) == 8 for r in residues)
    for a, b in combinations(residues, 2):
        assert not set(a) & set(b)


@pytest.mark.parametrize("q,m", [(q, m) for q in (3, 4, 5, 8, 9) for m in (4, 9)
                                 if m <= q + 1])
def test_pencil_transversals_match_line_intersections(q, m):
    plane = projective_plane(q)
    # oracle: plain set intersections, with the pencil rebuilt from incidences
    through0 = [li for li, pts in enumerate(plane.line_points) if 0 in pts]
    residues = [sorted(set(plane.line_points[li]) - {0}) for li in through0[:m]]
    off = [li for li, pts in enumerate(plane.line_points) if 0 not in pts]
    got = pencil_transversals(plane, m)
    assert len(got) == len(off) == q * q
    for li, pos in zip(off, got):
        assert len(pos) == m
        for residue, idx in zip(residues, pos):
            (common,) = set(plane.line_points[li]) & set(residue)
            assert residue[idx] == common
    if m == 4:  # lines 0 and 3 are paired bijectively
        assert {(t[0], t[3]) for t in got} == {(i, j) for i in range(q) for j in range(q)}


def test_pencil_too_many_lines():
    p3 = projective_plane(3)
    with pytest.raises(InputError):
        pencil_through(p3, 0, 5)


def test_sts9_structure():
    design, classes = sts9()
    assert len(design.blocks) == 12
    assert validate_design(design)["valid"]
    assert len(classes) == 4
    for cls in classes:
        assert sorted(v for blk in cls for v in blk) == list(range(9))
    # the role classes the recursive construction relies on
    assert ((0, 3, 6), (1, 4, 7), (2, 5, 8)) in classes
    assert ((0, 1, 2), (3, 4, 5), (6, 7, 8)) in classes


def test_validate_design_reports_deletion():
    design, _ = sts9()
    broken = BlockDesign(n=9, blocks=design.blocks[1:])
    rep = validate_design(broken)
    assert not rep["valid"]
    assert len(rep["uncovered"]) == 3  # each block covers three pairs


def _validate_design_counter(d: BlockDesign) -> dict:
    """The oracle: validate_design as it was, with a Counter of tuple pairs."""
    cover = Counter(pair for blk in d.blocks for pair in combinations(sorted(blk), 2))
    covered = sum(1 for u, v in cover if 0 <= u < v < d.n)
    uncovered_count = d.n * (d.n - 1) // 2 - covered
    uncovered = []
    if uncovered_count:
        n = d.n
        missing = ((u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in cover)
        uncovered = list(islice(missing, min(uncovered_count, UNCOVERED_LISTED)))
    repeated = [pair for pair, c in cover.items() if c > 1]
    return {"uncovered": uncovered, "uncovered_count": uncovered_count,
            "repeated": repeated, "valid": not uncovered_count and not repeated}


def _random_design(seed: int) -> BlockDesign:
    # unsorted blocks of 2..6 points, then copies of some blocks and some
    # pairs already covered, so pairs repeat in many orders
    rng = random.Random(seed)
    n = rng.randint(2, 70)
    blocks = [tuple(rng.sample(range(n), rng.randint(2, min(6, n))))
              for _ in range(rng.randint(0, 3 * n))]
    for _ in range(rng.randint(0, 5)):
        if blocks:
            blk = list(rng.choice(blocks))
            rng.shuffle(blk)
            blocks.insert(rng.randint(0, len(blocks)), tuple(blk))
            blocks.append(tuple(rng.sample(blk, 2)))
    return BlockDesign(n=n, blocks=tuple(blocks))


_THM32_K4 = cyclic_sts(difference_triples(4))
_HUGE = 2**63 + 5


@pytest.mark.parametrize("design", [
    *(pytest.param(_random_design(seed), id=f"random-{seed}") for seed in range(60)),
    *(pytest.param(BlockDesign(n=n, blocks=()), id=f"empty-{n}") for n in range(41)),
    pytest.param(BlockDesign(n=2000, blocks=()), id="empty-2000"),
    pytest.param(BlockDesign(n=9, blocks=tuple(b[::-1] for b in sts9()[0].blocks)),
                 id="sts9-reversed"),
    pytest.param(_THM32_K4, id="thm32-k4"),
    pytest.param(BlockDesign(n=73, blocks=_THM32_K4.blocks[5:] + _THM32_K4.blocks[:40:3]),
                 id="thm32-k4-moved"),
    pytest.param(BlockDesign(n=_HUGE, blocks=((0, 1),)), id="one-part-past-ssize_t"),
    pytest.param(BlockDesign(n=_HUGE, blocks=((_HUGE - 1, 3), (0, 2), (3, _HUGE - 1))),
                 id="huge-vertices-past-ssize_t"),
])
def test_validate_design_equals_the_counter_oracle(design):
    assert validate_design(design) == _validate_design_counter(design)


def _plane_with_repeats(q: int, seed: int) -> BlockDesign:
    # the lines of PG(2, q), blocks of q + 1 points, in shuffled order, then
    # two lines again (one reversed) and a block of a point from each of q + 1
    # lines (two lines may give the same point): repeated pairs at many
    # vertices, first covered in many blocks
    rng = random.Random(seed)
    lines = [tuple(sorted(line)) for line in projective_plane(q).line_points]
    rng.shuffle(lines)
    across = tuple(sorted({rng.choice(line) for line in lines[:q + 1]}))
    blocks = lines[:5] + [lines[3][::-1]] + lines[5:] + [across, lines[-1]]
    return BlockDesign(n=q * q + q + 1, blocks=tuple(blocks))


def _mixed_sizes(seed: int) -> BlockDesign:
    # blocks of 2, 4 and 9 points drawn at random from 20, so pairs repeat
    rng = random.Random(seed)
    blocks = [tuple(rng.sample(range(20), size)) for size in (2, 4, 9) * 6]
    return BlockDesign(n=20, blocks=tuple(blocks))


_K12_PAIRS = [(v, u) for u, v in combinations(range(12), 2)]
random.Random(7).shuffle(_K12_PAIRS)


@pytest.mark.parametrize("design", [
    pytest.param(BlockDesign(n=12, blocks=tuple(
        _K12_PAIRS[:20] + [(11, 0), (5, 6)] + _K12_PAIRS[20:] + [(3, 11), (7, 2), (6, 5)])),
        id="pairs-of-k12-repeated"),
    pytest.param(_plane_with_repeats(3, 1), id="lines-of-4-repeated"),
    pytest.param(_plane_with_repeats(8, 2), id="lines-of-9-repeated"),
    *(pytest.param(_mixed_sizes(seed), id=f"sizes-2-4-9-{seed}") for seed in range(4)),
    pytest.param(BlockDesign(n=_HUGE, blocks=()), id="no-blocks-past-ssize_t"),
])
def test_per_vertex_count_equals_the_counter_oracle(design):
    rep = validate_design(design)
    assert rep == _validate_design_counter(design)
    # every case with blocks repeats pairs first covered at several vertices
    assert (len({u for u, _ in rep["repeated"]}) > 2) == bool(design.blocks)


@pytest.mark.parametrize("blocks", [((0, 4),), ((-1, 2),), ((1, 2), (3, 1, 3))],
                         ids=["above-n", "negative", "repeated-point"])
def test_validate_design_rejects_a_block_that_is_not_a_point_set(blocks):
    with pytest.raises(InputError, match=r"^every block must be a set of distinct points in 0\.\.3$"):
        validate_design(BlockDesign(n=4, blocks=blocks))


def test_validate_design_memory_per_covered_pair():
    # a list per vertex of its later neighbours, the blocks' own ints, takes
    # about 9 bytes a pair; pair codes u*n + v in one sorted list took about
    # 44, and a Counter keyed by tuple pairs about 85
    design = cyclic_sts(difference_triples(16))
    pairs = 3 * len(design.blocks)
    assert pairs == 41_616
    tracemalloc.start()
    try:
        validate_design(design)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * pairs


def test_difference_triples_k4_rows():
    table = difference_triples(4)
    triples = set(table.triples())
    assert (12, 13, 25) in triples  # (3k, 3k+1, 6k+1)
    assert (2, 32, 34) in triples   # (2, 8k, 8k+2), and 2 + 32 = 34
    entries = sorted(d for t in triples for d in t)
    assert entries == list(range(1, 37))  # multiset {1..9k} exactly


def test_difference_triples_k4_box_sizes():
    table = difference_triples(4)
    by_box = {}
    for row in table.rows:
        by_box.setdefault(row.box, []).append(row)
    assert {b: 3 * len(rows) for b, rows in by_box.items()} == {1: 6, 2: 3, 3: 3}


@pytest.mark.parametrize("k", (4, 6, 8, 10))
def test_difference_triples_validator(k):
    table = difference_triples(k)
    entries = sorted(d for t in table.triples() for d in t)
    assert entries == list(range(1, 9 * k + 1))
    n = 18 * k + 1
    for d1, d2, d3 in table.triples():
        assert d1 < d2 < d3 <= 9 * k
        assert (d1 + d2) % n == d3 or (d1 + d2 + d3) % n == 0
    boxes = {row.box for row in table.rows}
    assert boxes == set(range(1, k // 2 + 2))


@pytest.mark.parametrize("k", (2, 3, 5))
def test_difference_triples_rejects_small_or_odd(k):
    with pytest.raises(InputError):
        difference_triples(k)


def test_cyclic_sts_k4():
    table = difference_triples(4)
    design = cyclic_sts(table)
    assert len(design.blocks) == 73 * 72 // 6 == 876
    assert validate_design(design)["valid"]
    shifted = {tuple(sorted((v + 1) % 73 for v in b)) for b in design.blocks}
    assert shifted == set(design.blocks)


@pytest.mark.parametrize("k", (4, 6))
def test_cyclic_sts_lists_blocks_in_orbit_order(k):
    table = difference_triples(k)
    n = table.n
    design = cyclic_sts(table)
    for i, (d1, d2, _) in enumerate(table.triples()):
        for s in range(n):
            assert design.blocks[i * n + s] == orbit_block(n, s, d1, d2)


def test_cyclic_sts_blocks_are_flat_triples():
    # the orbit blocks sit in one array("I"), three ids a block, and read
    # as a tuple of tuples would
    design = cyclic_sts(difference_triples(4))
    blocks = design.blocks
    assert type(blocks) is Triples and blocks.flat().typecode == "I"
    as_tuples = tuple(blocks)
    assert len(blocks) == len(as_tuples) == 876 and len(blocks.flat()) == 3 * 876
    assert blocks[-1] == as_tuples[-1] and blocks[5:40:3] == as_tuples[5:40:3]
    assert validate_design(design) == validate_design(BlockDesign(n=73, blocks=as_tuples))
    with pytest.raises(IndexError):
        blocks[876]


@pytest.mark.parametrize("points", [(0, 2, 1), (3, 1, 2), (1, 1, 2), (0, 1, 4)],
                         ids=["unsorted", "unsorted-last", "repeated-point", "above-n"])
def test_validate_design_reads_triples_as_tuples(points):
    # flat blocks are checked and counted as the same blocks given as
    # tuples: an unsorted one in sorted order, a repeated or out-of-range
    # point rejected
    blocks = Triples(array("I", (0, 1, 2, *points)))
    as_tuples = BlockDesign(n=4, blocks=tuple(blocks))
    try:
        expected = validate_design(as_tuples)
    except InputError as exc:
        with pytest.raises(InputError, match=f"^{exc}$".replace(".", r"\.")):
            validate_design(BlockDesign(n=4, blocks=blocks))
    else:
        assert validate_design(BlockDesign(n=4, blocks=blocks)) == expected
