"""Tests of the benchmark itself, on tiny versions of its workloads."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys

import pytest

import run
import sweep
import tracing
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)


def _units(entries):
    return {m["name"]: m["unit"] for m in entries}


def test_benchmark_names_what_the_runner_has():
    assert {w["name"] for w in BENCH["workloads"]} == set(workloads.WORKLOADS)
    assert _units(BENCH["per_layer"]) == {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
    gated = _units(BENCH["end_to_end"])
    assert tuple(gated) == run.GATED
    assert all(run.END_TO_END[name] == unit for name, unit in gated.items())


def test_untraced_run_emits_every_end_to_end_metric(capsys):
    result = run.run("thm32-roundtrip", 1, 0, trace=0, tiny=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    assert emitted == _units(BENCH["end_to_end"])
    assert all(v["value"] > 0 for v in result["metrics"].values())
    report = capsys.readouterr().out
    for name, unit in run.END_TO_END.items():  # ungated ones are printed too
        assert re.search(rf"^  {name} +[-0-9.]+ {re.escape(unit)}$", report, re.M), name


def _counts(result):
    """The metrics of a traced run that are counts, not times."""
    return json.dumps({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] != "s" and k != "trace.overhead_frac"}, sort_keys=True)


def _traced_tiny(hash_seed: int) -> dict:
    """A traced tiny coords-build run in its own interpreter."""
    code = "import json, run; print(json.dumps(run.run('coords-build', 3, 0, 1, tiny=True)))"
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run([sys.executable, "-c", code], cwd=os.path.dirname(run.__file__),
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_traced_runs_emit_every_layer_metric_with_stable_counts():
    first, second = _traced_tiny(1), _traced_tiny(2)
    assert first["correct"] and second["correct"]
    emitted = {k: v["unit"] for k, v in first["metrics"].items()}
    assert emitted == _units(BENCH["per_layer"])
    assert _counts(first) == _counts(second)
    assert first["metrics"]["exactgeom.orient.calls"]["value"] > 0


def test_color_search_traced_run_fires_its_spans():
    result = run.run("color-search", 3, 0, trace=1, tiny=True)
    assert result["correct"], result
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["chroma.conflict_graph.pairs"] > 0
    assert values["chroma.conflict_graph.s"] > 0


def test_seed_changes_coordinate_inputs_but_not_their_shape(tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"mode": "coordinates", "n": 3,
                               "points": [[0, 0], [5, 1], [2, 7]]}))
    points = []
    for seed in (1, 2):
        wl = workloads.make("coords-build", seed)
        _, _, shift = wl.translations[0]
        dst = tmp_path / f"pts{seed}.json"
        workloads.translate_config(str(raw), str(dst), shift)
        points.append(json.loads(dst.read_text())["points"])
    assert points[0] != points[1]
    # differences between points, hence all geometry, are unchanged
    diffs = [[(b[0] - a[0], b[1] - a[1]) for a, b in zip(p, p[1:])] for p in points]
    assert diffs[0] == diffs[1]
    gen = [workloads.make("color-search", seed).setup[0].args for seed in (1, 2)]
    assert gen[0] != gen[1]


def test_wrappers_reach_every_import_site():
    import geochroma.chroma as chroma
    import geochroma.cli as cli
    import geochroma.constructions as constructions
    import geochroma.exactgeom as exactgeom

    originals = {
        (constructions, "six_fan"), (constructions, "projective_plane"),
        (constructions, "cyclic_sts"), (constructions, "parts_conflict"),
        (constructions, "convex_cross"), (chroma, "parts_conflict"),
        (cli, "thm5_construction"), (cli, "exact_chromatic_index"),
        (exactgeom, "orient"),
    }
    before = {(m, a): getattr(m, a) for m, a in originals}
    undo = tracing.install(tracing.Tracer())
    try:
        for (mod, attr), orig in before.items():
            assert getattr(mod, attr) is not orig
            assert getattr(mod, attr).__wrapped__ is orig
    finally:
        tracing.uninstall(undo)
    assert all(getattr(m, a) is orig for (m, a), orig in before.items())


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.spans = [["a", 0.0, 10.0, -1, 1], ["b", 1.0, 4.0, 0, 1], ["a", 5.0, 6.0, 0, 1]]
    total, self_time, calls = t.totals()
    assert total["a"] == 10.0  # the nested "a" is inside the outer one
    assert self_time["a"] == pytest.approx(6.0 + 1.0)
    assert calls == {"a": 2, "b": 1}


@pytest.mark.parametrize("cmd,rc,out,problem", [
    (workloads.Command(("verify", "x.json"), "verify"), 1,
     "exact cover: ok (uncovered=0, repeated=0)\ncoloring: FAILED (3 violating pairs)",
     "coloring not ok"),
    (workloads.Command(("verify", "x.json"), "verify"), 0, "", "exact cover not ok"),
    (workloads.Command(("build", "thm32", "-k", "4"), "build", out="t.json"), 0,
     "wrote t.json (parts=876, colors=218)", "palette"),
    (workloads.Command(("color", "a.json"), "color", out="c.json"), 0,
     "chromatic index: [9, 8] (bounds-only)", "lower bound 9 > upper bound 8"),
])
def test_checks_report_bad_outputs(cmd, rc, out, problem):
    expect = {"t.json": {"k": 4}}
    problems, _ = workloads.check(cmd, rc, out, "", expect)
    assert any(problem in p for p in problems), problems


def test_fit_exponent_recovers_a_power_law():
    xs = [10, 20, 40, 80]
    assert sweep.fit_exponent(xs, [3 * x ** 2 for x in xs]) == pytest.approx(2.0)


def test_high_percentile_needs_ten_samples_beyond():
    assert run.high_percentile([1.0] * 11) is None
    p, value = run.high_percentile(list(range(1, 101)))
    assert p == 90 and value == 90
