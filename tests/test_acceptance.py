"""Acceptance criteria, one test per criterion.

Each test runs the corresponding experiment suite at its stated tolerance and
prints a PASS/FAIL line; run with `pytest tests/test_acceptance.py -v -s` or
via `geochroma experiment all`.
"""

import pytest

from geochroma import experiments


def _run(fn):
    rep = fn()
    line = f"{'PASS' if rep['pass'] else 'FAIL'} criterion {rep['criterion']} " \
           f"({rep['name']}) in {rep['elapsed_s']}s"
    print(line)
    assert rep["pass"], rep
    return rep


def test_criterion_1_sts9():
    rep = _run(experiments.criterion_sts9)
    assert rep["details"]["blocks"] == 12
    assert rep["details"]["classes"] == 4


def test_criterion_2_thm4():
    rep = _run(experiments.criterion_thm4)
    for n in (9, 12, 15):
        d = rep["details"][f"n={n}"]
        assert d["triangles"] == (n // 3) ** 2
        assert d["clique_lb"] >= (n // 3) ** 2
        assert d["chromatic_lb"] >= (n // 3) ** 2


def test_criterion_3_thm3():
    rep = _run(experiments.criterion_thm3)
    assert len(rep["details"]) == 10  # ten seeded point sets
    for key, d in rep["details"].items():
        conflicts, pairs = d["conflict_rate"].split("/")
        assert conflicts == pairs  # conflict rate must be 100%


def test_criterion_4_thm32():
    rep = _run(experiments.criterion_thm32)
    assert rep["details"]["blocks"] == 876
    assert rep["details"]["palette"] == 219
    assert rep["details"]["violations"] == 0
    assert rep["details"]["box1_class_size"] == 6


def test_criterion_5_thm33():
    rep = _run(experiments.criterion_thm33)
    assert rep["details"]["limit"] == 8
    assert rep["details"]["max_large_per_class"] <= 8
    assert rep["details"]["denominator_lt_119"]
    assert rep["details"]["bound_times_119"] <= 73 * 73


def test_criterion_6_thm5():
    rep = _run(experiments.criterion_thm5)
    fractions = [r["fraction"] for r in rep["details"]["runs"]]
    assert fractions[0] > fractions[1] > fractions[2]
    assert rep["details"]["palette_within_bound"]
    assert rep["details"]["fitted_C"] >= 0


def test_criterion_7_coloring_stack():
    rep = _run(experiments.criterion_stack)
    assert rep["details"]["instances"] == 200
    assert rep["details"]["failure"] is None


def test_criterion_8_edge_bound():
    rep = _run(experiments.criterion_edges)
    for n in range(5, 10):
        assert rep["details"][f"n={n}"]["lower"] >= n


def test_criterion_9_searches():
    rep = _run(experiments.criterion_searches)
    assert rep["details"]["triangles_n6"]["exact"]
    assert rep["details"]["edges_n5"]["exact"]
    # reported against the references, not asserted equal to them
    assert rep["details"]["triangles_n6"]["conjectured_reference"] == 5
    assert "own guess" in rep["details"]["triangles_n6"]["reference_source"]
    assert rep["details"]["edges_n5"]["reference_n"] == 5
