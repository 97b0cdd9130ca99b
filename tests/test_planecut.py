from collections import Counter
from functools import partial
from itertools import combinations

import pytest

from geochroma.exactgeom import (
    COORD_BOUND,
    Configuration,
    InputError,
    Point,
    assert_general_position,
    coordinate_configuration,
    generate_general_position,
    proper_cross,
)
from geochroma import planecut
from geochroma.planecut import (
    _angular_sweep,
    _cached_sweep,
    _candidate_normals,
    _ham_sandwich,
    _nudged_line,
    nine_regions,
    projection_splits,
    recount_regions,
    six_fan,
    six_parts_two_parallel,
)


def test_six_parts_bound_n60():
    # guaranteed bound: at least n/6 - 1 = 9 points per region
    cfg = generate_general_position(60, seed=0)
    asg = six_parts_two_parallel(cfg)
    assert all(len(r) >= 9 for r in asg.regions)
    assert len(asg.spill) <= 6


def test_six_parts_recount_oracle_n100():
    cfg = generate_general_position(100, seed=3)
    asg = six_parts_two_parallel(cfg)
    recount_regions(asg, cfg)
    # independent recount: rebuild regions from the stored cuts alone
    for i, region in enumerate(asg.regions):
        (pattern,) = asg.patterns[i]
        rebuilt = [
            v
            for v in range(cfg.n)
            if all(
                p == 0 or cut.side(cfg.points[v]) == p
                for p, cut in zip(pattern, asg.cuts)
            )
        ]
        assert rebuilt == region


def test_six_parts_parabola_n6():
    cfg = coordinate_configuration([(t, t * t) for t in range(6)])
    asg = six_parts_two_parallel(cfg)
    members = sorted(v for r in asg.regions for v in r) + sorted(asg.spill)
    assert sorted(members) == list(range(6))


@pytest.mark.parametrize("n", (30, 60, 120))
def test_six_parts_bound_many_seeds(n):
    lo = -(-n // 6) - 1
    for seed in range(100):
        cfg = generate_general_position(n, seed=seed)
        asg = six_parts_two_parallel(cfg)
        assert all(len(r) >= lo for r in asg.regions), (n, seed)


def test_six_parts_two_cuts_parallel():
    cfg = generate_general_position(40, seed=8)
    asg = six_parts_two_parallel(cfg)
    a, b = asg.cuts[0], asg.cuts[1]
    assert a.a * b.b - a.b * b.a == 0  # same normal direction


def test_six_fan_counts_and_recount():
    cfg = generate_general_position(24, seed=2)
    asg = six_fan(cfg, 3)
    assert [len(r) for r in asg.regions] == [3] * 6
    assert len(asg.spill) <= 6
    recount_regions(asg, cfg)
    assert asg.center is not None
    # the center is not an input point
    cx, cy = asg.center
    assert all(not (p.x == cx and p.y == cy) for p in cfg.points)


def test_six_fan_exact_partition_m6():
    cfg = generate_general_position(6, seed=5)
    asg = six_fan(cfg, 1)
    assert [len(r) for r in asg.regions] == [1] * 6
    assert asg.spill == []


def test_six_fan_regions_clockwise():
    from fractions import Fraction

    cfg = generate_general_position(24, seed=2)
    asg = six_fan(cfg, 3)
    cx, cy = asg.center
    reps = []
    for r in asg.regions:
        p = cfg.points[r[0]]
        reps.append((Fraction(p.x) - cx, Fraction(p.y) - cy))
    # consecutive representatives turn clockwise: cross(v_i, v_{i+1}) < 0
    cw_steps = sum(
        1
        for i in range(6)
        if reps[i][0] * reps[(i + 1) % 6][1] - reps[i][1] * reps[(i + 1) % 6][0] < 0
    )
    assert cw_steps >= 5  # one wrap step may exceed pi and flip sign


def test_six_fan_infeasible():
    cfg = generate_general_position(10, seed=1)
    with pytest.raises(InputError):
        six_fan(cfg, 2)  # needs 12 points


# signs against (line1, cut2, cut3) of clockwise fan sector k, written out
# here rather than imported so the property test checks the module's table
FAN_SIGNS = ((-1, -1, -1), (-1, -1, 1), (-1, 1, 1), (1, 1, 1), (1, 1, -1), (1, -1, -1))


def test_six_fan_sectors_match_sign_table_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies

    def point_sets(coord):
        return st.lists(st.tuples(coord, coord), min_size=6, max_size=18, unique=True)

    grid = point_sets(st.integers(-2**5, 2**5))
    full = point_sets(st.one_of(st.sampled_from([-COORD_BOUND, COORD_BOUND]),
                                st.integers(-COORD_BOUND, COORD_BOUND)))

    def check(xy, data):
        pts = tuple(Point(x, y) for x, y in xy)
        cfg = Configuration(mode="coordinates", n=len(pts), points=pts)
        q = data.draw(st.integers(1, len(pts) // 6))
        try:
            asg = six_fan(cfg, q)
        except InputError:  # no fan fits, e.g. when every point is on one line
            return
        assert [len(r) for r in asg.regions] == [q] * 6
        assert sorted(v for r in asg.regions + [asg.spill] for v in r) == list(range(len(pts)))
        for region, signs in zip(asg.regions, FAN_SIGNS):
            for v in region:
                assert tuple(cut.side(pts[v]) for cut in asg.cuts) == signs
        for v in asg.spill:
            assert tuple(cut.side(pts[v]) for cut in asg.cuts) in FAN_SIGNS

    settings = hyp.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    for points in (grid, full):
        settings(hyp.given(points, st.data())(check))()


def test_projection_splits_rejects_rank_outside_range():
    pts = generate_general_position(10, seed=4).points
    for rank in (-1, 0, 10, 11):
        with pytest.raises(InputError):
            next(projection_splits(pts, rank))
    for rank in (1, 9):
        w, low, high, line = next(projection_splits(pts, rank))
        assert len(low) == rank and sorted(low + high) == list(range(10))
        assert all(line.side(pts[i]) < 0 for i in low)
        assert all(line.side(pts[i]) > 0 for i in high)


def test_six_parts_exhausted_search_tries_each_strip_once(monkeypatch):
    # n = 8 has more than the 48 directions of the first pass, so the
    # fallback runs too; a failing (t, w) must not be retried there
    cfg = generate_general_position(8, seed=1)
    pts, n = cfg.points, cfg.n
    tried = []

    def no_line(pts, label, strips, lo, *, sweeps):
        tried.append(tuple(tuple(s) for s in strips))
        return None

    monkeypatch.setattr(planecut, "_ham_sandwich", no_line)
    with pytest.raises(InputError):
        six_parts_two_parallel(cfg)
    lo = -(-n // 6) - 1
    normals = list(_candidate_normals(pts))
    assert len(normals) > 48
    expected = []
    for t in range(max(1, 2 * lo), (n - 2 * lo) // 2 + 1):
        for wx, wy in normals:
            proj = sorted((wx * p.x + wy * p.y, i) for i, p in enumerate(pts))
            if proj[t - 1][0] == proj[t][0] or proj[n - t - 1][0] == proj[n - t][0]:
                continue
            order = [i for _, i in proj]
            expected.append((tuple(order[n - t:]), tuple(order[t:n - t]), tuple(order[:t])))
    assert Counter(tried) == Counter(expected)


def test_nine_regions_n90():
    cfg = generate_general_position(90, seed=6)
    asg = nine_regions(cfg, 9)
    assert [len(r) for r in asg.regions] == [9] * 9
    recount_regions(asg, cfg)
    assert asg.strips is not None and len(asg.strips) == 3


def test_nine_regions_minimal():
    cfg = generate_general_position(9, seed=13)
    asg = nine_regions(cfg, 1)
    assert [len(r) for r in asg.regions] == [1] * 9


def test_nine_regions_infeasible_q():
    cfg = generate_general_position(30, seed=4)
    with pytest.raises(InputError):
        nine_regions(cfg, 4)  # strips of ~10 cannot fill merged regions


def test_nine_regions_strips_are_separated():
    # no segment within one strip crosses a segment within another strip
    cfg = generate_general_position(24, seed=9)
    asg = nine_regions(cfg, 2)
    pts = cfg.points
    strips = asg.strips
    for s1, s2 in combinations(range(3), 2):
        for a, b in combinations(strips[s1], 2):
            for c, d in combinations(strips[s2], 2):
                assert not proper_cross(pts[a], pts[b], pts[c], pts[d])


def test_nine_regions_merged_pattern_membership():
    cfg = generate_general_position(54, seed=21)
    asg = nine_regions(cfg, 5)
    pts = cfg.points
    for ri in (6, 7, 8):
        pats = asg.patterns[ri]
        for v in asg.regions[ri]:
            sig = tuple(cut.side(pts[v]) for cut in asg.cuts)
            assert any(
                all(p == 0 or p == s for p, s in zip(pat, sig)) for pat in pats
            )


def test_angular_sweep_exact_at_coordinate_bound():
    # corners and box-edge points of [-2**30, 2**30]^2, whose cross products
    # reach 2**62; collinear triples (two corners and (0, 0)) keep every
    # anchor off the cache.  The second set is in general position, so every
    # anchor is cached, and from (-2**30, -2**30) it holds two directions
    # that atan2 cannot tell apart: to (2**30, 2**30 - 1) and to
    # (2**30 - 1, 2**30 - 2), about 2**-62 apart in angle.
    B = COORD_BOUND
    box = [Point(x, y) for x in (-B, B) for y in (-B, B)]
    box += [Point(B, 0), Point(-B, 1), Point(3, B), Point(-5, -B),
            Point(B, B - 1), Point(-B + 1, B), Point(B, -B + 2), Point(0, 0),
            Point(B - 1, B - 2), Point(B - 2, B - 3)]
    spread = [Point(-B, -B), Point(B, B - 1), Point(B - 1, B - 2), Point(-B + 1, B),
              Point(B, -B + 2), Point(3, B), Point(-5, -B + 7), Point(0, 1), Point(-B, 17)]
    assert_general_position(spread)

    def cross(P, Q, p):  # plain-int oracle: (Q - P) x (p - P)
        return (Q.x - P.x) * (p.y - P.y) - (Q.y - P.y) * (p.x - P.x)

    def upper(P, p):  # the angle of p - P lies in (0, pi], not in (-pi, 0]
        return p.y > P.y or (p.y == P.y and p.x < P.x)

    for pts, n_cached in ((box, 0), (spread, len(spread))):
        cached = {}
        for a, P in enumerate(pts):
            order, windows = _angular_sweep(pts, a)
            assert sorted(order) == [i for i in range(len(pts)) if i != a]
            for u, v in zip(order, order[1:]):  # nondecreasing angle over (-pi, pi]
                pu, pv = pts[u], pts[v]
                assert (upper(P, pu), cross(P, pu, pv) < 0) <= (upper(P, pv), False), (P, pu, pv)
            ring = order + order
            for k, q in enumerate(order):
                left_lo, left_hi, right_lo, right_hi = (w[k] for w in windows)
                Q = pts[q]
                assert sorted(ring[left_lo:left_hi]) == [i for i, p in enumerate(pts) if cross(P, Q, p) > 0]
                assert sorted(ring[right_lo:right_hi]) == [i for i, p in enumerate(pts) if cross(P, Q, p) < 0]
            # the cache keeps exactly the anchors collinear with no two other
            # points, and gives back the same order and windows
            assert _cached_sweep(pts, a, cached) == (order, windows)
            collinear = any(cross(P, pts[i], pts[j]) == 0 for i, j in combinations(order, 2))
            assert (a in cached) != collinear, P
            again = _cached_sweep(pts, a, cached)
            assert list(again[0]) == order
            assert [list(w) for w in again[1]] == [list(w) for w in windows]
        assert len(cached) == n_cached


def _ham_sandwich_by_pairs(pts, label, strips, lo):
    """_ham_sandwich's search in plain Python: one side count per (a, b) pair."""
    A, _, B = strips
    for ia in sorted(A):
        for ib in sorted(B):
            P, Q = pts[ia], pts[ib]
            count = {1: [0, 0, 0], -1: [0, 0, 0]}
            for i, p in enumerate(pts):
                s = (Q.x - P.x) * (p.y - P.y) - (Q.y - P.y) * (p.x - P.x)
                if s:
                    count[1 if s > 0 else -1][label[i]] += 1
            (al, mp, bl), (ar, mm, br) = count[1], count[-1]
            for sa, sb in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                want = {(0, 1): al + (sa > 0), (0, -1): ar + (sa < 0),
                        (1, 1): mp, (1, -1): mm,
                        (2, 1): bl + (sb > 0), (2, -1): br + (sb < 0)}
                if min(want.values()) < lo:
                    continue
                line = _nudged_line(pts, P, Q, sa, sb)
                sides = [line.side(p) for p in pts]
                if 0 in sides:
                    continue
                got = Counter(zip(label, sides))
                if got != {k: v for k, v in want.items() if v}:
                    raise AssertionError("nudged line miscounts its sides")
                return line, sides
    return None


def test_ham_sandwich_matches_pair_scan_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coord = st.one_of(st.sampled_from([-COORD_BOUND, COORD_BOUND]),
                      st.integers(-COORD_BOUND, COORD_BOUND), st.integers(-20, 20))
    points = st.lists(st.tuples(coord, coord), min_size=12, max_size=40, unique=True)

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(points, st.data())
    def check(xy, data):
        n = len(xy)
        pts = [Point(x, y) for x, y in xy]
        label = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        strips = tuple([i for i in range(n) if label[i] == k] for k in range(3))
        hyp.assume(strips[0] and strips[2])
        lo = data.draw(st.integers(0, n // 6))

        def outcome(search):
            try:
                return search(pts, label, strips, lo)
            except AssertionError as exc:
                return str(exc)

        assert outcome(_ham_sandwich) == outcome(_ham_sandwich_by_pairs)

    check()


def test_ham_sandwich_reuses_sweeps_property(monkeypatch):
    # one point list through several labelings and bounds with one sweeps
    # dict, as the strip search runs it; the small grid gives collinear
    # triples, so anchors that are swept anew at each use turn up too
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coord = st.one_of(st.integers(-3, 3), st.sampled_from([-COORD_BOUND, COORD_BOUND]),
                      st.integers(-COORD_BOUND, COORD_BOUND))
    points = st.lists(st.tuples(coord, coord), min_size=8, max_size=30, unique=True)
    uses = Counter()
    cached_sweep = planecut._cached_sweep

    def counted(pts, a, sweeps):
        uses["reused"] += a in sweeps
        found = cached_sweep(pts, a, sweeps)
        uses["uncached"] += a not in sweeps
        return found

    monkeypatch.setattr(planecut, "_cached_sweep", counted)

    @hyp.settings(max_examples=60, deadline=None, database=None, derandomize=True)
    @hyp.given(points, st.data())
    def check(xy, data):
        n = len(xy)
        pts = [Point(x, y) for x, y in xy]
        sweeps = {}
        for _ in range(data.draw(st.integers(2, 5))):
            label = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
            strips = tuple([i for i in range(n) if label[i] == k] for k in range(3))
            lo = data.draw(st.integers(0, n // 6))
            outcomes = []
            for search in (partial(_ham_sandwich, sweeps=sweeps), _ham_sandwich_by_pairs):
                try:
                    outcomes.append(search(pts, label, strips, lo))
                except AssertionError as exc:
                    outcomes.append(str(exc))
            assert outcomes[0] == outcomes[1]
        for a in sweeps:  # only anchors collinear with no two other points
            P = pts[a]
            others = [p for p in pts if p != P]
            assert all((Q.x - P.x) * (R.y - P.y) != (Q.y - P.y) * (R.x - P.x)
                       for Q, R in combinations(others, 2))

    check()
    assert uses["reused"] and uses["uncached"], uses


def test_six_parts_rejects_coordinates_above_bound():
    # built directly, without the loader: the constructor checks the bound,
    # so no out-of-bound configuration reaches the strip search
    pts = [Point(t, t * t) for t in range(5)] + [Point(COORD_BOUND + 1, 7)]
    with pytest.raises(InputError):
        six_parts_two_parallel(Configuration(mode="coordinates", n=6, points=tuple(pts)))
