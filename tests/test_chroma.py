import random
from fractions import Fraction
from itertools import combinations

import pytest

from geochroma.exactgeom import (
    InputError,
    Point,
    boxes_apart,
    convex_configuration,
    convex_cross,
    coordinate_configuration,
    generate_general_position,
    orient,
    part_box,
    part_shape,
    parts_conflict,
    proper_cross,
)
from geochroma.constructions import (
    Decomposition,
    Part,
    thm3_construction,
    thm4_construction,
    thm32_construction,
    trivial_edge_decomposition,
)
from geochroma import chroma
from geochroma.chroma import (
    AlgebraicX,
    Coloring,
    ConflictGraph,
    bound_evaluators,
    clique_index,
    conflict_graph,
    exact_chromatic_index,
    greedy_color,
    max_intersecting_family,
    paper_x,
    tau_point,
    triangle_census,
    triangle_length,
    verify_coloring,
    _bits,
)
from geochroma.experiments import _brute_force_palette, _random_instance


def test_conflict_graph_convex4():
    d = trivial_edge_decomposition(convex_configuration(4))
    g = conflict_graph(d)
    idx = {p.vertices: i for i, p in enumerate(d.parts)}
    assert (g.adj[idx[(0, 2)]] >> idx[(1, 3)]) & 1  # crossing diagonals
    assert not (g.adj[idx[(0, 1)]] >> idx[(2, 3)]) & 1
    assert (g.adj[idx[(0, 1)]] >> idx[(0, 3)]) & 1  # shared vertex


def test_conflict_graph_thm4_family_clique():
    fam = thm4_construction(9)
    g = conflict_graph(fam.decomposition)
    for i, j in combinations(fam.distinguished, 2):
        assert (g.adj[i] >> j) & 1


def _graph(m, edges):
    adj = [0] * m
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return ConflictGraph(m=m, adj=tuple(adj))


def test_greedy_edgeless_and_complete():
    g0 = _graph(5, [])
    assert greedy_color(g0).palette == 1
    gk = _graph(5, combinations(range(5), 2))
    assert greedy_color(gk).palette == 5


def test_verify_coloring_basics():
    d = trivial_edge_decomposition(convex_configuration(4))
    m = len(d.parts)
    assert verify_coloring(d, Coloring(colors=tuple(range(m)))) == []
    assert verify_coloring(d, Coloring(colors=(0,) * m)) != []
    with pytest.raises(InputError):
        verify_coloring(d, Coloring(colors=(0,)))


def _all_pairs_violations(d, colors):
    # every same-color conflicting pair, by class in order of first
    # appearance, then lexicographically
    first = {}
    for i, col in enumerate(colors):
        first.setdefault(col, i)
    verts = [p.vertices for p in d.parts]
    bad = [(i, j) for i, j in combinations(range(len(verts)), 2)
           if colors[i] == colors[j] and parts_conflict(d.config, verts[i], verts[j])]
    return sorted(bad, key=lambda ij: (first[colors[ij[0]]], ij))


def test_verify_coloring_matches_all_pairs_property():
    # recolored thm32 k=4: parts moved into other parts' classes (mostly
    # conflicts) or into fresh ones (which leaves both classes proper)
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    d, c = thm32_construction(4)
    m = len(d.parts)

    @hyp.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hyp.given(st.lists(st.tuples(st.integers(0, m - 1), st.integers(0, m + 9)), max_size=12))
    def check(moves):
        colors = list(c.colors)
        for i, j in moves:  # part i takes part j's color, or a fresh one
            colors[i] = c.colors[j] if j < m else c.palette + j - m
        bad = verify_coloring(d, Coloring(colors=tuple(colors)))
        assert bad == _all_pairs_violations(d, colors)

    check()


def _check_box_prefilter(points, parts, colors):
    # the bounding-box prefilter never drops a conflict: verify_coloring and
    # conflict_graph equal the plain all-pairs parts_conflict check; returns
    # the violating pairs
    cfg = coordinate_configuration(points)
    d = Decomposition(config=cfg, parts=[Part(vertices=tuple(sorted(p))) for p in parts])
    verts = [p.vertices for p in d.parts]
    m = len(verts)
    adj = [0] * m
    for i, j in combinations(range(m), 2):
        conflict = parts_conflict(cfg, verts[i], verts[j])
        assert not (conflict and boxes_apart(part_box(cfg, verts[i]), part_box(cfg, verts[j])))
        adj[i] |= conflict << j
        adj[j] |= conflict << i
    assert conflict_graph(d).adj == tuple(adj)
    bad = verify_coloring(d, Coloring(colors=tuple(colors)))
    assert bad == _all_pairs_violations(d, colors)
    return bad


@pytest.mark.parametrize("points", [
    [(0, 0), (2, 1), (4, 3)],
    [(-2**30, -2**30), (0, 1), (2**30, 2**30)],
])
def test_box_prefilter_keeps_touching_boxes(points):
    # two edges sharing their middle point, whose boxes meet only there
    assert _check_box_prefilter(points, [(0, 1), (1, 2)], [0, 0]) == [(0, 1)]


def test_box_prefilter_matches_all_pairs_property():
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    # the coordinate bound, a small grid (equal coordinates: touching boxes)
    # and anything between
    coord = st.one_of(st.sampled_from([-2**30, -2**30 + 1, 0, 2**30 - 1, 2**30]),
                      st.integers(-3, 3), st.integers(-2**30, 2**30))

    @hyp.settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @hyp.given(st.lists(st.tuples(coord, coord), min_size=3, max_size=9), st.data())
    def check(raw, data):
        points = []  # the raw points in general position with those kept before
        for p in raw:
            if p not in points and all(orient(a, b, p) for a, b in combinations(points, 2)):
                points.append(p)
        hyp.assume(len(points) >= 2)
        vertex = st.integers(0, len(points) - 1)
        parts = data.draw(st.lists(st.sets(vertex, min_size=2, max_size=min(4, len(points))),
                                   min_size=1, max_size=10))
        colors = data.draw(st.lists(st.integers(0, 2), min_size=len(parts),
                                    max_size=len(parts)))
        _check_box_prefilter(points, parts, colors)

    check()


def test_exact_chromatic_single_part_and_bounds():
    g1 = _graph(1, [])
    res = exact_chromatic_index(g1)
    assert (res.lower, res.upper, res.optimal) == (1, 1, True)
    # 5-cycle: chromatic number 3
    c5 = _graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    res = exact_chromatic_index(c5)
    assert (res.lower, res.upper, res.optimal) == (3, 3, True)


def test_exact_chromatic_convex5_edges():
    d = trivial_edge_decomposition(convex_configuration(5))
    res = exact_chromatic_index(conflict_graph(d))
    assert res.optimal and res.lower >= 5
    assert verify_coloring(d, res.coloring) == []


def test_exact_matches_brute_force_sampled():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(4, 8)
        d = _random_instance(rng, n)
        g = conflict_graph(d)
        cl = clique_index(g)
        res = exact_chromatic_index(g)
        greedy = greedy_color(g)
        brute = _brute_force_palette(g)
        assert res.optimal
        assert cl.size <= res.lower == res.upper == brute <= greedy.palette


def test_greedy_convex6_edges_needs_six():
    # n <= chromatic index of the trivial edge decomposition
    d = trivial_edge_decomposition(convex_configuration(6))
    g = conflict_graph(d)
    greedy = greedy_color(g)
    assert greedy.palette >= 6
    assert verify_coloring(d, greedy) == []


def test_exact_chromatic_budget_flag():
    rng = random.Random(17)
    edges = [(i, j) for i, j in combinations(range(30), 2) if rng.random() < 0.5]
    res = exact_chromatic_index(_graph(30, edges), budget=40)
    assert not res.optimal
    assert res.lower <= res.upper
    assert res.coloring is not None and res.coloring.palette == res.upper


def test_clique_index_basics():
    assert clique_index(_graph(4, [])).size == 1
    full = _graph(6, combinations(range(6), 2))
    res = clique_index(full)
    assert res.size == 6 and res.exact and res.members == list(range(6))


def test_clique_index_thm3():
    fam = thm3_construction(3, seed=1)
    g = conflict_graph(fam.decomposition)
    res = clique_index(g, budget=400_000)
    assert res.size >= 18


def test_clique_budget_flag():
    rng = random.Random(5)
    edges = [(i, j) for i, j in combinations(range(40), 2) if rng.random() < 0.5]
    res = clique_index(_graph(40, edges), budget=50)
    assert not res.exact
    assert res.size >= 1


def test_paper_x_value():
    x = paper_x()
    assert x.floor() == 10
    lo, hi = x.interval()
    assert Fraction(10) < lo < hi < Fraction(11)
    assert x.cmp_rational(Fraction(109, 10)) < 0   # x < 10.9
    assert x.cmp_rational(Fraction(108, 10)) > 0   # x > 10.8


def test_triangle_length():
    assert triangle_length(9, (0, 3, 6)) == 3
    assert triangle_length(10, (0, 1, 9)) == 1
    for verts in combinations(range(9), 3):
        assert triangle_length(9, verts) <= 3  # length <= floor(n/3)


def test_census_thm32():
    dec, col = thm32_construction(4)
    census = triangle_census(dec, col)
    assert census.limit == 8
    assert census.violations == []
    assert max(census.per_class_large.values()) <= 8
    assert len(census.lengths) == 876


def test_census_single_triangle_threshold():
    from geochroma.constructions import Decomposition, Part

    cfg = convex_configuration(9)
    parts = [Part(vertices=t, tag="triangle") for t in (((0, 3, 6)),)]
    parts += [
        Part(vertices=(u, v), tag="singleton-edge")
        for u, v in combinations(range(9), 2)
        if (u, v) not in {(0, 3), (3, 6), (0, 6)}
    ]
    parts.sort(key=lambda p: p.vertices)
    d = Decomposition(config=cfg, parts=parts, metadata={})
    col = Coloring(colors=tuple(range(len(parts))))
    # length 3 vs n/x: 3 >= 9/3 with x = 3 -> large
    census = triangle_census(d, col, x=3)
    assert sum(census.per_class_large.values()) == 1
    # x = 2 rejected (below 3)
    with pytest.raises(InputError):
        triangle_census(d, col, x=2)
    # huge x makes every triangle large but the limit grows too
    census = triangle_census(d, col, x=100)
    assert sum(census.per_class_large.values()) == 1


def test_census_equality_is_large():
    from geochroma.constructions import Decomposition, Part

    cfg = convex_configuration(12)
    tri = Part(vertices=(0, 4, 8), tag="triangle")  # length 4 = n/x at x = 3
    parts = [tri] + [
        Part(vertices=(u, v), tag="singleton-edge")
        for u, v in combinations(range(12), 2)
        if (u, v) not in {(0, 4), (4, 8), (0, 8)}
    ]
    parts.sort(key=lambda p: p.vertices)
    d = Decomposition(config=cfg, parts=parts, metadata={})
    col = Coloring(colors=tuple(range(len(parts))))
    census = triangle_census(d, col, x=3)
    assert sum(census.per_class_large.values()) == 1


def test_bound_evaluators():
    assert bound_evaluators(12, "prop1").lo == Fraction(22)
    assert bound_evaluators(12, "prop2").lo == Fraction(11)
    assert bound_evaluators(7, "thm3").lo == Fraction(2 * 49, 49)
    v = bound_evaluators(73, "thm33")
    assert v.hi - v.lo < Fraction(1, 10**10)
    assert Fraction(43) < v.lo < v.hi < Fraction(44)
    denom = bound_evaluators(73, "thm33_denom")
    assert denom.hi < 119  # 60 + 24 sqrt 6 < 119
    assert Fraction(118) < denom.lo
    with pytest.raises(InputError):
        bound_evaluators(10, "unknown")


def test_bound_evaluator_with_constant():
    exact = bound_evaluators(16, "thm5", c=1)
    assert exact.lo <= Fraction(16 * 16, 9) + 64 <= exact.hi


def test_max_intersecting_family_small():
    res = max_intersecting_family(convex_configuration(3), 3)
    assert len(res.family) == 1 and res.exact


def test_max_intersecting_family_edges_n5():
    cfg = convex_configuration(5)
    res = max_intersecting_family(cfg, 2)
    assert res.exact
    assert len(res.family) == 5  # the star-plus-ear / pentagram families
    from geochroma.exactgeom import parts_conflict

    for a, b in combinations(res.family, 2):
        assert set(a) & set(b) or parts_conflict(cfg, a, b)


def test_max_intersecting_family_triangles_n6():
    res = max_intersecting_family(convex_configuration(6), 3)
    assert res.exact
    # the exhaustive optimum is 4; the guessed reference (n/3)^2 + 1 = 5 is not
    # attainable at n = 6 (no five edge-disjoint triangles fit in K_6)
    assert len(res.family) == 4


def test_tau_point_triangle():
    cfg = generate_general_position(3, seed=1)
    pts = cfg.points
    cx = Fraction(sum(p.x for p in pts), 3)
    cy = Fraction(sum(p.y for p in pts), 3)
    assert tau_point(cfg, (cx, cy)) == (1, True)
    far = (max(p.x for p in pts) + 100, max(p.y for p in pts) + 100)
    assert tau_point(cfg, far) == (0, True)


def test_tau_point_fan_center():
    from geochroma.planecut import six_fan

    cfg = generate_general_position(6, seed=5)
    fan = six_fan(cfg, 1)
    res = tau_point(cfg, fan.center)
    assert res.exact
    assert res.count == 4  # meets the n^2/9 = 4 reference bound
    with pytest.raises(InputError):
        tau_point(cfg, (cfg.points[0].x, cfg.points[0].y))


def test_tau_point_agrees_on_points_int_pairs_and_fraction_pairs():
    cfg = generate_general_position(7, bound=40, seed=2)
    pts = cfg.points
    probes = [(x, y) for x in range(-40, 41, 8) for y in range(-40, 41, 16)]
    vertices = {(v.x, v.y) for v in pts}
    probes = [xy for xy in probes if xy not in vertices]
    seen = set()
    for x, y in probes:
        want = tau_point(cfg, (x, y))
        assert tau_point(cfg, Point(x, y)) == want
        assert tau_point(cfg, (Fraction(x), Fraction(y))) == want
        seen.add(want.count)
    assert len(seen) > 1
    for v in pts[:3]:
        for p in (v, (v.x, v.y), (Fraction(v.x), Fraction(v.y))):
            with pytest.raises(InputError, match="vertex"):
                tau_point(cfg, p)


def test_searches_on_complete_graph_past_recursion_limit():
    m = 1100
    full = (1 << m) - 1
    g = ConflictGraph(m=m, adj=tuple(full & ~(1 << i) for i in range(m)))
    res = clique_index(g)
    assert (res.size, res.exact) == (m, True) and res.members == list(range(m))
    bounds = exact_chromatic_index(g)
    assert (bounds.lower, bounds.upper, bounds.optimal) == (m, m, True)


def test_clique_index_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(3)
    for trial in range(120):
        m = rng.randint(1, 40)
        p = rng.choice((0.1, 0.3, 0.5, 0.8))
        edges = [e for e in combinations(range(m), 2) if rng.random() < p]
        g = _graph(m, edges)
        G = nx.Graph(edges)
        G.add_nodes_from(range(m))
        opt = nx.max_weight_clique(G, weight=None)[1]
        for budget in (1, 4, 30, 2_000_000):
            res = clique_index(g, budget=budget)
            assert len(res.members) == res.size <= opt
            for u, v in combinations(res.members, 2):
                assert (g.adj[u] >> v) & 1
            assert not res.exact or res.size == opt
        assert res.exact


def _in_closed_triangle(p, a, b, c):
    def side(u, v):
        return (v.x - u.x) * (p[1] - u.y) - (v.y - u.y) * (p[0] - u.x)

    s = (side(a, b), side(b, c), side(c, a))
    return min(s) >= 0 or max(s) <= 0


def _brute_force_tau(cfg, p):
    pts = cfg.points
    cands = [t for t in combinations(range(cfg.n), 3)
             if _in_closed_triangle(p, *(pts[i] for i in t))]
    best = 0
    for r in range(1, len(cands) + 1):
        if not any(len({e for t in S for e in combinations(t, 2)}) == 3 * r
                   for S in combinations(cands, r)):
            break
        best = r
    return best


def test_tau_point_matches_brute_force():
    rng = random.Random(8)
    checked = {"inside": 0, "outside": 0}
    for n in range(3, 8):
        for seed in range(3):
            cfg = generate_general_position(n, bound=60, seed=seed)
            pts = cfg.points
            probes = []
            for _ in range(4):
                a, b, c = rng.sample(pts, 3)
                w = [rng.randint(1, 4) for _ in range(3)]
                probes.append((Fraction(w[0] * a.x + w[1] * b.x + w[2] * c.x, sum(w)),
                               Fraction(w[0] * a.y + w[1] * b.y + w[2] * c.y, sum(w))))
            a, b = rng.sample(pts, 2)
            probes.append((Fraction(a.x + b.x, 2), Fraction(a.y + b.y, 2)))  # on an edge
            probes.append((max(q.x for q in pts) + 1, rng.randint(-100, 100)))  # outside
            for p in probes:
                want = _brute_force_tau(cfg, p)
                assert tau_point(cfg, p) == (want, True)
                checked["inside" if want else "outside"] += 1
    assert min(checked.values()) > 0


# --- reference solvers: the set-based DSATUR and the per-part colorer ------------

def _reference_greedy_color(g: ConflictGraph) -> Coloring:
    """DSATUR: highest saturation first, ties to the lowest part index."""
    m = g.m
    if m == 0:
        return Coloring(colors=())
    colors = [-1] * m
    neigh: list[set[int]] = [set() for _ in range(m)]
    for _ in range(m):
        best, best_sat = -1, -1
        for i in range(m):
            if colors[i] < 0 and len(neigh[i]) > best_sat:
                best, best_sat = i, len(neigh[i])
        c = 0
        while c in neigh[best]:
            c += 1
        colors[best] = c
        for j in _bits(g.adj[best]):
            neigh[j].add(c)
    return Coloring(colors=tuple(colors))


def _reference_try_color(g: ConflictGraph, k: int, seed_clique: list[int], budget: int):
    """Find a k-coloring (list), prove impossibility (False), or run out of
    budget (None); returned with the budget left.  Branch on the lowest-index
    uncolored part, colors ascending, never opening more than one fresh color;
    each node costs one unit of budget."""
    m = g.m
    adj = g.adj
    if len(seed_clique) > k:
        return False, budget
    colors = [-1] * m
    avail = [(1 << k) - 1] * m

    def assign(v: int, c: int, trail: list[int]) -> bool:
        colors[v] = c
        bit = 1 << c
        for u in _bits(adj[v]):
            if colors[u] < 0 and avail[u] & bit:
                avail[u] &= ~bit
                trail.append(u)
                if avail[u] == 0:
                    return False
        return True

    for ci, v in enumerate(seed_clique):
        if not assign(v, ci, []):
            return False, budget
    stack: list[list] = []  # frames [part, options left, color tried, trail, colors open]
    opened = len(seed_clique)
    while True:
        budget -= 1
        if budget < 0:
            return None, budget
        try:
            v = colors.index(-1)
        except ValueError:
            return colors, budget
        stack.append([v, avail[v] & ((1 << min(k, opened + 1)) - 1), -1, [], opened])
        while stack:
            frame = stack[-1]
            v, options, c, trail, opened = frame
            if c >= 0:
                colors[v] = -1
                bit = 1 << c
                for u in trail:
                    avail[u] |= bit
            if not options:
                stack.pop()
                continue
            c = (options & -options).bit_length() - 1
            trail = []
            frame[1:4] = options & (options - 1), c, trail
            opened = max(opened, c + 1)
            if assign(v, c, trail):
                break
        else:
            return False, budget


def _check_solvers_match_reference(monkeypatch, g, budgets):
    # DSATUR and every budgeted exact result (bounds, flag and coloring)
    # equal those of the reference solvers
    mine = [greedy_color(g)] + [exact_chromatic_index(g, budget=b) for b in budgets]
    with monkeypatch.context() as mp:
        mp.setattr(chroma, "greedy_color", _reference_greedy_color)
        mp.setattr(chroma, "_try_color", _reference_try_color)
        ref = [_reference_greedy_color(g)] + [exact_chromatic_index(g, budget=b)
                                              for b in budgets]
    assert mine == ref


def test_solvers_match_reference_on_random_graphs(monkeypatch):
    rng = random.Random(13)
    for _ in range(120):
        m = rng.randint(1, 40)
        p = rng.choice((0.1, 0.3, 0.5, 0.8))
        g = _graph(m, [e for e in combinations(range(m), 2) if rng.random() < p])
        _check_solvers_match_reference(monkeypatch, g, (1, 7, 50, 2_000_000))


@pytest.mark.parametrize("make,budgets", [
    pytest.param(lambda: thm4_construction(15).decomposition, (1, 7, 50, 3000),
                 id="thm4-n15"),
    pytest.param(lambda: trivial_edge_decomposition(convex_configuration(8)),
                 (1, 7, 50, 2_000_000), id="edges-convex8"),
])
def test_solvers_match_reference_on_decompositions(monkeypatch, make, budgets):
    _check_solvers_match_reference(monkeypatch, conflict_graph(make()), budgets)


def _plain_conflict(cfg, a, b):
    # shared vertex, or any crossing edge pair by the per-edge oracle
    if set(a) & set(b):
        return True
    ea, eb = combinations(sorted(a), 2), list(combinations(sorted(b), 2))
    if cfg.mode == "convex":
        return any(convex_cross(cfg.n, e1, e2) for e1 in ea for e2 in eb)
    p = cfg.points
    return any(proper_cross(p[u], p[v], p[x], p[y]) for u, v in ea for x, y in eb)


def test_parts_conflict_on_shapes_property():
    # the same answer on shapes, on vertex tuples and by the plain check
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    coord = st.one_of(st.sampled_from([-2**30, -2**30 + 1, 0, 2**30 - 1, 2**30]),
                      st.integers(-3, 3), st.integers(-2**30, 2**30))

    def check(cfg, a, b):
        want = _plain_conflict(cfg, a, b)
        sa, sb = part_shape(cfg, a), part_shape(cfg, b)
        assert parts_conflict(cfg, a, b) == want
        assert parts_conflict(cfg, sa, sb) == parts_conflict(cfg, sa, b) == want
        assert parts_conflict(cfg, b, sa) == want

    settings = hyp.settings(max_examples=300, deadline=None, database=None, derandomize=True)

    @settings
    @hyp.given(st.integers(3, 60), st.data())
    def convex(n, data):
        part = st.lists(st.integers(0, n - 1), min_size=2, max_size=5, unique=True)
        check(convex_configuration(n), tuple(data.draw(part)), tuple(data.draw(part)))

    @settings
    @hyp.given(st.lists(st.tuples(coord, coord), min_size=2, max_size=8), st.data())
    def coordinates(raw, data):
        points = []  # the raw points in general position with those kept before
        for p in raw:
            if p not in points and all(orient(a, b, p) for a, b in combinations(points, 2)):
                points.append(p)
        hyp.assume(len(points) >= 2)
        part = st.lists(st.integers(0, len(points) - 1), min_size=2,
                        max_size=min(4, len(points)), unique=True)
        check(coordinate_configuration(points), tuple(data.draw(part)),
              tuple(data.draw(part)))

    convex()
    coordinates()
