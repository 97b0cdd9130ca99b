import json
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest

from geochroma.exactgeom import (
    COORD_BOUND,
    Configuration,
    JSON_SLICE,
    InputError,
    Point,
    config_from_dict,
    config_to_dict,
    convex_configuration,
    convex_cross,
    convex_noncrossing,
    coordinate_configuration,
    generate_general_position,
    orient,
    parts_conflict,
    point_in_triangle,
    proper_cross,
    write_json,
)


def test_orient_examples():
    assert orient(Point(0, 0), Point(1, 0), Point(2, 0)) == 0
    assert orient(Point(0, 0), Point(1, 0), Point(0, 1)) == 1
    assert orient(Point(0, 0), Point(0, 1), Point(1, 0)) == -1


def test_orient_antisymmetric_exhaustive():
    # all ordered triples on a 4x4 grid
    grid = [Point(x, y) for x in range(4) for y in range(4)]
    for p, q, r in combinations(grid, 3):
        s = orient(p, q, r)
        assert orient(q, p, r) == -s
        assert orient(p, r, q) == -s
        assert orient(r, q, p) == -s


def test_proper_cross_examples():
    assert proper_cross(Point(0, 0), Point(2, 2), Point(0, 2), Point(2, 0))
    assert not proper_cross(Point(0, 0), Point(2, 0), Point(0, 2), Point(2, 2))
    # shared endpoint is not a crossing
    assert not proper_cross(Point(0, 0), Point(2, 0), Point(2, 0), Point(2, 2))


def _orient_before_point_pairs(p, q, r):
    # orient as it read before points were (x, y) pairs, kept as an oracle
    def _xy(p):
        if isinstance(p, Point):
            return p.x, p.y
        return p[0], p[1]

    px, py = _xy(p)
    qx, qy = _xy(q)
    rx, ry = _xy(r)
    d = (qx - px) * (ry - py) - (qy - py) * (rx - px)
    if d > 0:
        return 1
    if d < 0:
        return -1
    return 0


def _proper_cross_with_endpoint_tests(a, b, c, d):
    # proper_cross as it read with its four endpoint-equality tests, kept as
    # an oracle: a shared endpoint must still give False without them
    orient = _orient_before_point_pairs
    if a == c or a == d or b == c or b == d:
        return False
    o1 = orient(a, b, c)
    o2 = orient(a, b, d)
    if o1 == o2 or o1 == 0 or o2 == 0:
        return False
    o3 = orient(c, d, a)
    o4 = orient(c, d, b)
    return o3 != o4 and o3 != 0 and o4 != 0


def test_proper_cross_matches_endpoint_test_oracle_on_a_grid():
    # every quadruple of a 4x3 grid: repeated points, shared endpoints and
    # collinear triples are all common
    grid = [Point(x, y) for x in range(4) for y in range(3)]
    crossings = 0
    for a, b, c, d in product(grid, repeat=4):
        want = _proper_cross_with_endpoint_tests(a, b, c, d)
        assert proper_cross(a, b, c, d) == want, (a, b, c, d)
        crossings += want
    assert crossings > 0


def test_point_is_an_xy_pair():
    coords = [(x, y) for x in (-3, 0, 2, 2**40) for y in (5, -1, 0, 2)]
    for x, y in coords:
        p = Point(x, y)
        assert p == (x, y) and tuple(p) == (x, y) and (p.x, p.y) == (x, y)
        assert hash(p) == hash((x, y))
    shuffled = coords[5:] + coords[:5]
    assert [tuple(p) for p in sorted(Point(x, y) for x, y in shuffled)] == sorted(shuffled)


def test_predicates_agree_on_points_int_pairs_and_fraction_pairs():
    grid = [(x, y) for x in range(-1, 3) for y in range(-1, 2)]

    def forms(xy):
        x, y = xy
        return Point(x, y), (x, y), (Fraction(x), Fraction(y))

    for p, q, r in combinations(grid, 3):
        want = _orient_before_point_pairs(p, q, r)
        for form in zip(forms(p), forms(q), forms(r)):
            assert orient(*form) == want
    a, b, c = Point(0, 0), Point(6, 0), Point(0, 6)
    probes = [(x, y) for x in range(-1, 8) for y in range(-1, 8)]
    probes += [(Fraction(1, 3), Fraction(1, 2)), (Fraction(3), Fraction(3)),
               (Fraction(-1, 7), Fraction(2))]
    for closed in (False, True):
        for xy in probes:
            want = point_in_triangle(xy, a, b, c, closed=closed)
            assert point_in_triangle(Point(*xy), a, b, c, closed=closed) == want
            assert point_in_triangle(tuple(map(Fraction, xy)), a, b, c, closed=closed) == want
            s = [_orient_before_point_pairs(xy, u, v) for u, v in ((a, b), (b, c), (c, a))]
            assert want == (min(s) >= 0 or max(s) <= 0 if closed else
                            s[0] == s[1] == s[2] != 0)


def test_proper_cross_symmetric_and_shear_invariant():
    cfg = generate_general_position(12, seed=3)
    pts = cfg.points
    shear = [Point(p.x + 2 * p.y, p.y) for p in pts]  # det +1 integer map
    for (a, b), (c, d) in combinations(combinations(range(12), 2), 2):
        x = proper_cross(pts[a], pts[b], pts[c], pts[d])
        assert x == proper_cross(pts[c], pts[d], pts[a], pts[b])
        assert x == proper_cross(shear[a], shear[b], shear[c], shear[d])


def test_convex_cross_examples():
    assert convex_cross(6, (0, 3), (1, 4))
    assert not convex_cross(6, (0, 1), (2, 5))
    assert not convex_cross(6, (0, 1), (1, 4))  # shared endpoint


@pytest.mark.parametrize("n", range(4, 11))
def test_convex_cross_matches_parabola_coordinates(n):
    # oracle: the same predicate on an explicit convex embedding (t, t^2)
    pts = [Point(t, t * t) for t in range(n)]
    es = list(combinations(range(n), 2))
    for e1, e2 in combinations(es, 2):
        geometric = proper_cross(pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
        assert convex_cross(n, e1, e2) == geometric


@pytest.mark.parametrize("n", range(3, 9))
def test_convex_crossing_pairs_count(n):
    # each 4-subset of convex points yields exactly one crossing pair
    es = list(combinations(range(n), 2))
    crossings = sum(
        1 for e1, e2 in combinations(es, 2) if convex_cross(n, e1, e2)
    )
    from math import comb

    assert crossings == comb(n, 4)


def test_parts_conflict_hexagon():
    cfg = convex_configuration(6)
    assert parts_conflict(cfg, {0, 2, 4}, {1, 3, 5})
    assert not parts_conflict(cfg, {0, 1, 2}, {3, 4, 5})
    assert parts_conflict(cfg, {0, 1, 2}, {2, 3, 4})  # shared vertex


def test_parts_conflict_symmetric_and_identical_parts_conflict():
    cfg = convex_configuration(7)
    a, b = {0, 2, 4}, {1, 5, 6}
    assert parts_conflict(cfg, a, b) == parts_conflict(cfg, b, a)
    assert parts_conflict(cfg, a, a)  # identical parts share every vertex


def test_generate_general_position_exhaustive_triples():
    cfg = generate_general_position(50, seed=7)
    for p, q, r in combinations(cfg.points, 3):
        assert orient(p, q, r) != 0


def test_generate_single_point_and_determinism():
    assert generate_general_position(1, seed=0).n == 1
    for seed in range(5):
        tri = generate_general_position(3, seed=seed)
        assert orient(*tri.points) != 0
    a = generate_general_position(20, seed=9)
    b = generate_general_position(20, seed=9)
    assert a.points == b.points
    c = generate_general_position(20, seed=10)
    assert a.points != c.points


def test_generate_bound_too_small():
    with pytest.raises(InputError):
        generate_general_position(40, bound=2, seed=0)


@pytest.mark.parametrize("n", [7, 2000])
def test_generate_rejects_more_points_than_the_grid_rows_hold(n):
    # each of the 3 rows of the bound-1 grid holds at most two of the points,
    # so no seed places a seventh: the generator must say so before drawing
    with pytest.raises(InputError, match=rf"^at most 6 points .* bound 1 .* got n={n}$"):
        generate_general_position(n, bound=1, seed=0)


def test_generate_memory_is_linear_in_n():
    # a scan per candidate holds O(n) directions; a direction set per placed
    # point would hold O(n^2) of them, about 40 MB at n = 600
    tracemalloc.start()
    try:
        generate_general_position(600, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


def test_configuration_rejections():
    with pytest.raises(InputError):
        coordinate_configuration([(0, 0), (0, 0), (1, 2)])
    with pytest.raises(InputError):
        coordinate_configuration([(0, 0), (1, 1), (2, 2)])
    with pytest.raises(InputError):
        coordinate_configuration([(0, 0), (1, 5), (2 * COORD_BOUND, 1)])
    with pytest.raises(InputError):
        convex_configuration(2)
    with pytest.raises(InputError):
        Configuration(mode="spherical", n=3)


def test_configuration_checks_its_contract_when_built():
    # every way of building one checks the bound, not only the loader
    corners = tuple(Point(x, y) for x in (-COORD_BOUND, COORD_BOUND)
                    for y in (-COORD_BOUND, COORD_BOUND))
    assert Configuration(mode="coordinates", n=4, points=corners).points == corners
    for p in (Point(COORD_BOUND + 1, 0), Point(0, -COORD_BOUND - 1)):
        with pytest.raises(InputError, match="point 1 exceeds coordinate bound"):
            Configuration(mode="coordinates", n=2, points=(Point(0, 0), p))
    assert Configuration(mode="convex", n=3).n == 3
    with pytest.raises(InputError, match="n >= 3"):
        Configuration(mode="convex", n=2)


def test_config_json_round_trip():
    cfg = generate_general_position(15, seed=4)
    assert config_from_dict(config_to_dict(cfg)) == cfg
    conv = convex_configuration(9)
    d = config_to_dict(conv)
    assert "points" not in d
    assert config_from_dict(d) == conv


@pytest.mark.parametrize("data", [
    pytest.param({"parts": [], "coloring": [], "config": {"mode": "convex", "n": 5},
                  "metadata": {"construction": "edges"}}, id="empty-parts"),
    pytest.param({"parts": [[i, i + 1, {"b": i % 7, "a": "\u00e9"}]
                            for i in range(2 * JSON_SLICE + 7)],
                  "coloring": list(range(JSON_SLICE)), "n": 3}, id="longer-than-a-slice"),
    pytest.param(config_to_dict(generate_general_position(15, seed=4)), id="configuration"),
])
def test_write_json_matches_dumps(tmp_path, data):
    path = tmp_path / "out.json"
    write_json(data, path)
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_text() == text
    # an iterator value is written as the list of its items
    write_json({k: iter(v) if isinstance(v, list) else v for k, v in data.items()}, path)
    assert path.read_text() == text


def test_point_in_triangle_closed_vs_open():
    a, b, c = Point(0, 0), Point(4, 0), Point(0, 4)
    assert point_in_triangle((1, 1), a, b, c)
    assert not point_in_triangle((2, 0), a, b, c)  # on the boundary
    assert point_in_triangle((2, 0), a, b, c, closed=True)
    assert not point_in_triangle((5, 5), a, b, c, closed=True)


# --- property tests (hypothesis; skipped when it is not installed) -----------------

@pytest.fixture
def hyp():
    return pytest.importorskip("hypothesis")


def _settings(hyp, examples):
    # derandomized and without an example database, so the suite repeats exactly
    return hyp.settings(max_examples=examples, deadline=None, database=None,
                        derandomize=True)


def _points(hyp, k, lo=-COORD_BOUND, hi=COORD_BOUND):
    coord = hyp.strategies.integers(lo, hi)
    return hyp.strategies.tuples(*[hyp.strategies.builds(Point, coord, coord)] * k)


def test_orient_swap_and_rotation_property(hyp):
    @_settings(hyp, 200)
    @hyp.given(_points(hyp, 3))
    def check(pqr):
        p, q, r = pqr
        s = orient(p, q, r)
        assert orient(q, p, r) == -s
        assert orient(q, r, p) == s

    check()


def test_proper_cross_symmetry_and_invariance_property(hyp):
    st = hyp.strategies
    shift = st.integers(-COORD_BOUND, COORD_BOUND)

    # a small grid makes crossings, shared endpoints and collinear triples common
    @_settings(hyp, 200)
    @hyp.given(_points(hyp, 4, -8, 8), shift, shift, st.integers(-5, 5))
    def check(abcd, dx, dy, k):
        a, b, c, d = abcd
        x = proper_cross(a, b, c, d)
        assert x == proper_cross(c, d, a, b)
        assert x == proper_cross(b, a, c, d) == proper_cross(a, b, d, c)
        moved = [Point(p.x + dx, p.y + dy) for p in abcd]
        assert x == proper_cross(*moved)
        sheared = [Point(p.x + k * p.y, p.y) for p in abcd]
        assert x == proper_cross(*sheared)

    check()


def test_convex_cross_matches_parabola_property(hyp):
    st = hyp.strategies

    def edge_in(n):
        return st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                        unique=True).map(tuple)

    @_settings(hyp, 200)
    @hyp.given(st.integers(4, 60).flatmap(
        lambda n: st.tuples(st.just(n), edge_in(n), edge_in(n))))
    def check(case):
        n, e1, e2 = case
        pts = [Point(i, i * i) for i in range(n)]
        geometric = proper_cross(pts[e1[0]], pts[e1[1]], pts[e2[0]], pts[e2[1]])
        assert convex_cross(n, e1, e2) == geometric

    check()


def test_convex_noncrossing_examples():
    assert convex_noncrossing([(0, 5), (1, 2, 4), (6, 7)])  # nested, then apart
    assert not convex_noncrossing([(0, 2), (1, 3)])        # interleaved
    assert not convex_noncrossing([(0, 1), (1, 2)])        # a shared vertex
    assert not convex_noncrossing([(0, 1, 2), (0, 1, 2)])  # a repeated part


def test_convex_noncrossing_matches_parts_conflict_property(hyp):
    st = hyp.strategies

    def family(n):
        part = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
        return st.lists(part.map(lambda vs: tuple(sorted(vs))), min_size=1, max_size=4)

    @_settings(hyp, 400)
    @hyp.given(st.integers(4, 12).flatmap(lambda n: st.tuples(st.just(n), family(n))))
    def check(case):
        n, parts = case
        config = convex_configuration(n)
        conflict = any(parts_conflict(config, a, b) for a, b in combinations(parts, 2))
        assert convex_noncrossing(parts) == (not conflict)

    check()
