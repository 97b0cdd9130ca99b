import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from geochroma.cli import main
from geochroma.constructions import decomposition_from_dict, load_decomposition
from geochroma.exactgeom import (
    InputError,
    config_from_dict,
    config_to_dict,
    convex_configuration,
    generate_general_position,
    load_config,
    orient,
)
from itertools import combinations


def _child(code, *flags):
    """Run `code` in a fresh interpreter that imports geochroma from src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    return subprocess.run([sys.executable, *flags, "-c", code], env=env, check=True,
                          capture_output=True, text=True)


def test_cli_import_does_not_load_numpy(tmp_path):
    # the package uses no numpy: not on import
    out = _child("import sys, geochroma.cli; print('numpy' in sys.modules)").stdout
    assert out.strip() == "False"
    # nor in thm5's strip search, nor in the coordinate-mode conflict checks
    # of `color` and `verify`
    pts, dec, col, thm5 = (str(tmp_path / f) for f in ("pts.json", "dec.json", "col.json", "t.json"))
    assert main(["gen", "-n", "12", "--seed", "1", "--out", pts]) == 0
    assert main(["build", "edges", "--config", pts, "--out", dec]) == 0
    for args in (["build", "thm5", "-n", "90", "--seed", "5", "--out", thm5],
                 ["color", dec, "--mode", "greedy", "--out", col], ["verify", col]):
        code = ("import sys; from geochroma.cli import main; "
                f"rc = main({args!r}); print(rc, 'numpy' in sys.modules)")
        assert _child(code).stdout.splitlines()[-1] == "0 False"


def test_verify_and_stats_do_not_load_hashlib(tmp_path):
    # hashlib loads OpenSSL's libcrypto: no command needs it, as an --out
    # command's manifest digest comes from CPython's own SHA-256
    import hashlib

    out = _child("import sys, geochroma.cli; print('hashlib' in sys.modules)").stdout
    assert out.strip() == "False"
    pts, dec, col = (str(tmp_path / f) for f in ("pts.json", "dec.json", "col.json"))
    for args, path in ((["gen", "-n", "12", "--seed", "1", "--out", pts], pts),
                       (["build", "thm32", "-k", "4", "--out", dec], dec),
                       (["color", dec, "--mode", "greedy", "--out", col], col),
                       (["verify", dec], None), (["stats", dec], None)):
        code = ("import sys; from geochroma.cli import main; "
                f"rc = main({args!r}); "
                "print(rc, 'hashlib' in sys.modules, '_hashlib' in sys.modules)")
        assert _child(code).stdout.splitlines()[-1] == "0 False False", args
        if path:
            manifest = json.loads(Path(path + ".manifest.json").read_text())
            data = Path(path).read_bytes()
            assert manifest["outputs"] == {os.path.basename(path): hashlib.sha256(data).hexdigest()}


def test_out_commands_close_their_files(tmp_path):
    # the manifest digest reads the output back; dev mode reports any file
    # left for the garbage collector to close
    code = ("from geochroma.cli import main; "
            f"main(['gen', '-n', '9', '--seed', '1', '--out', {str(tmp_path / 'p.json')!r}])")
    err = _child(code, "-X", "dev", "-W", "error::ResourceWarning").stderr
    assert "ResourceWarning" not in err


def test_elapsed_times_ignore_wall_clock_steps(tmp_path, monkeypatch):
    import time

    from geochroma.experiments import criterion_sts9

    # a wall clock that steps back an hour after its first reading
    readings = iter([1e9 + 3600.0])
    monkeypatch.setattr(time, "time", lambda: next(readings, 1e9))
    out = tmp_path / "conv.json"
    assert main(["gen", "-n", "9", "--convex", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "conv.json.manifest.json").read_text())
    assert manifest["elapsed_s"] >= 0
    assert criterion_sts9()["elapsed_s"] >= 0


def test_manifest_digest_reads_the_output_in_chunks(tmp_path):
    import hashlib

    from geochroma.cli import _write_manifest

    out = tmp_path / "big.bin"
    data = os.urandom(5 << 19)  # 2.5 MiB: two whole chunks and a half
    out.write_bytes(data)
    _write_manifest(str(out), "test", {}, None, 0.0)
    manifest = json.loads((tmp_path / "big.bin.manifest.json").read_text())
    assert manifest["outputs"] == {"big.bin": hashlib.sha256(data).hexdigest()}


@pytest.mark.parametrize("cmd", ["verify", "stats", "render", "color"])
@pytest.mark.parametrize("tag", [[1], 7, None, {"a": 1}], ids=["list", "int", "null", "object"])
def test_part_tag_must_be_a_string(tmp_path, capsys, cmd, tag):
    path = tmp_path / "tag.json"
    parts = [{"vertices": [0, 1], "tag": tag}, {"vertices": [0, 2]}, {"vertices": [1, 2]}]
    path.write_text(json.dumps({"config": {"mode": "convex", "n": 3}, "parts": parts}))
    before = path.read_bytes()
    assert main([cmd, str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: part tag must be a string, got {type(tag).__name__}\n"
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tag.json"]


def test_gen_convex(tmp_path):
    out = tmp_path / "conv.json"
    assert main(["gen", "-n", "9", "--convex", "--out", str(out)]) == 0
    cfg = load_config(out)
    assert cfg.mode == "convex" and cfg.n == 9
    assert (tmp_path / "conv.json.manifest.json").exists()


def test_gen_coordinates_validates(tmp_path):
    out = tmp_path / "pts.json"
    assert main(["gen", "-n", "27", "--seed", "1", "--out", str(out)]) == 0
    cfg = load_config(out)
    for a, b, c in combinations(cfg.points, 3):
        assert orient(a, b, c) != 0


def test_gen_rejects_tiny_convex(tmp_path):
    out = tmp_path / "bad.json"
    assert main(["gen", "-n", "2", "--convex", "--out", str(out)]) == 2


def test_gen_deterministic_bytes(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    main(["gen", "-n", "20", "--seed", "3", "--out", str(a)])
    main(["gen", "-n", "20", "--seed", "3", "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_build_thm32_and_verify(tmp_path):
    out = tmp_path / "t32.json"
    assert main(["build", "thm32", "-k", "4", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data["parts"]) == 876
    assert max(data["coloring"]) + 1 == 219
    assert main(["verify", str(out)]) == 0


def test_build_thm4_metadata(tmp_path):
    out = tmp_path / "t4.json"
    assert main(["build", "thm4", "-n", "9", "--out", str(out)]) == 0
    dec, _ = load_decomposition(out)
    assert dec.metadata["distinguished_triangles"] == 9


def test_build_thm3(tmp_path):
    out = tmp_path / "t3.json"
    assert main(["build", "thm3", "-q", "3", "--seed", "1", "--out", str(out)]) == 0
    dec, _ = load_decomposition(out)
    assert dec.metadata["distinguished_k4"] == 18
    assert main(["verify", str(out)]) == 0


def test_build_thm3_rejects_too_few_points(tmp_path, capsys):
    # -n below 7q+6 is an error, never dropped in favour of a default set
    out = tmp_path / "t3.json"
    assert main(["build", "thm3", "-q", "3", "-n", "20", "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert not out.exists()


def test_build_requires_params(tmp_path):
    assert main(["build", "thm32", "--out", str(tmp_path / "x.json")]) == 2
    assert main(["build", "thm3", "--out", str(tmp_path / "x.json")]) == 2


@pytest.mark.parametrize("argv", [
    ["thm5", "-n", "1"],
    ["thm5", "--config", "{empty}"],
    ["edges", "--config", "{p30}", "-n", "5"],
    ["thm5", "--config", "{p30}", "-n", "20"],
    ["thm3", "-q", "3", "--config", "{p30}", "-n", "30"],
    ["thm4", "-n", "9", "--config", "{missing}"],
    ["thm32", "-k", "4", "--config", "{p30}"],
], ids=["thm5-n1", "thm5-no-points", "edges-n-and-config", "thm5-n-and-config",
        "thm3-n-and-config", "thm4-config", "thm32-config"])
def test_build_usage_errors_exit_2(tmp_path, capsys, argv):
    # fewer than two points, -n beside --config (never silently dropped), and
    # --config for the families that build their own convex configuration
    files = {"p30": tmp_path / "p30.json", "empty": tmp_path / "empty.json",
             "missing": tmp_path / "missing.json"}
    main(["gen", "-n", "30", "--seed", "1", "--out", str(files["p30"])])
    files["empty"].write_text('{"mode": "coordinates", "points": []}')
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["build", *[a.format(**files) for a in argv], "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_color_greedy_and_exact(tmp_path):
    out = tmp_path / "edges.json"
    main(["gen", "-n", "5", "--convex", "--out", str(tmp_path / "c5.json")])
    assert main(["build", "edges", "--config", str(tmp_path / "c5.json"),
                 "--out", str(out)]) == 0
    assert main(["color", str(out), "--mode", "exact"]) == 0
    dec, col = load_decomposition(out)
    assert col is not None and col.palette >= 5
    assert main(["verify", str(out)]) == 0


def test_verify_detects_corruption(tmp_path):
    out = tmp_path / "t4.json"
    main(["build", "thm4", "-n", "9", "--out", str(out)])
    data = json.loads(out.read_text())
    del data["parts"][0]
    out.write_text(json.dumps(data))
    assert main(["verify", str(out)]) == 1


def test_verify_repeated_part_fails_validation(tmp_path, capsys):
    # identical parts share every vertex: a violating pair, not an input error
    parts = [[0, 1, 2], [0, 1, 2], [0, 3], [1, 3], [2, 3]]
    doc = {"config": {"mode": "convex", "n": 4}, "metadata": {},
           "parts": [{"vertices": p, "tag": "part"} for p in parts],
           "coloring": [0, 0, 1, 2, 3]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        "exact cover: FAILED (uncovered=0, repeated=3)\n"
        "coloring: FAILED (1 violating pairs, palette 4)\n")


def test_render_box1_class(tmp_path):
    dec = tmp_path / "t32.json"
    svg = tmp_path / "t32.svg"
    main(["build", "thm32", "-k", "4", "--out", str(dec)])
    assert main(["render", str(dec), "--out", str(svg), "--color", "0"]) == 0
    text = svg.read_text()
    assert text.count("<polygon") == 6  # the six triangles of the box-1 class
    # deterministic bytes
    svg2 = tmp_path / "t32b.svg"
    main(["render", str(dec), "--out", str(svg2), "--color", "0"])
    assert svg.read_bytes() == svg2.read_bytes()


def test_render_empty_coordinates(tmp_path):
    # a configuration without points draws an empty canvas
    dec = tmp_path / "z.json"
    dec.write_text(json.dumps({"config": {"mode": "coordinates", "points": []}, "parts": []}))
    assert main(["render", str(dec), "--out", str(tmp_path / "z.svg")]) == 0


def test_round_trip_equality(tmp_path):
    out = tmp_path / "t32.json"
    main(["build", "thm32", "-k", "4", "--out", str(out)])
    dec, col = load_decomposition(out)
    from geochroma.constructions import save_decomposition

    again = tmp_path / "again.json"
    save_decomposition(dec, again, coloring=col)
    assert out.read_bytes() == again.read_bytes()


def test_stats_runs(tmp_path, capsys):
    out = tmp_path / "t32.json"
    main(["build", "thm32", "-k", "4", "--out", str(out)])
    assert main(["stats", str(out)]) == 0
    text = capsys.readouterr().out
    assert "colors: 219" in text


def test_stats_reports_thm5_constant(tmp_path, capsys):
    out = tmp_path / "rec.json"
    main(["build", "thm5", "-n", "100", "--seed", "7", "--out", str(out)])
    capsys.readouterr()
    assert main(["stats", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n^2/9" in text  # palette compared against n^2/9 + C n^1.5


@pytest.mark.parametrize("n", [2**63 + 5, 10**8], ids=["past-ssize_t", "1e8"])
def test_verify_huge_convex_n_fails_cover(tmp_path, n):
    # one edge of a huge convex n: the first uncovered pairs are found by a
    # lazy scan, in a 2 GB address space
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"config": {"mode": "convex", "n": n},
                                "parts": [{"vertices": [0, 1]}]}))
    code = ("import resource; resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30)); "
            f"from geochroma.cli import main; print(main(['verify', {str(path)!r}]))")
    out = _child(code).stdout.splitlines()
    uncovered = n * (n - 1) // 2 - 1
    assert out == [f"exact cover: FAILED (uncovered={uncovered}, repeated=0)", "1"]


@pytest.mark.parametrize("tagged", [True, False], ids=["as-written", "untagged"])
def test_vertex_past_the_id_limit_fails_as_one_error_line(tmp_path, capsys, tagged):
    # vertex ids are stored as 32-bit unsigned ints: on a convex n = 2**63 + 5
    # vertex 2**32 - 1 loads (its one edge leaves the cover unfinished), and
    # 2**32, in range, fails the per-part rule as a usage error
    path = tmp_path / "wide.json"
    for top, code in ((2**32 - 1, 1), (2**32, 2)):
        part = {"tag": "edge", "vertices": [0, top]} if tagged else {"vertices": [0, top]}
        path.write_text(json.dumps({"config": {"mode": "convex", "n": 2**63 + 5},
                                    "parts": [part]}))
        capsys.readouterr()
        assert main(["verify", str(path)]) == code
    assert capsys.readouterr().err == (
        "error: part vertex 4294967296 is past the vertex-id limit: ids must be below 2**32\n")


@pytest.mark.parametrize("n,colors,line", [
    (7, list(range(7)) * 3, "  n^2/9 = 5.4; palette = n^2/9 + 0.0840 * n^1.5"),
    (10**400, [0], "  n^2/9 = 1.1111E+799; palette within n^2/9 (C = 0)"),
], ids=["n7", "n1e400"])
def test_stats_palette_against_ninth_square(tmp_path, capsys, n, colors, line):
    path = tmp_path / "dec.json"
    parts = [{"vertices": list(e)} for e in combinations(range(min(n, 7)), 2)][:len(colors)]
    path.write_text(json.dumps({"config": {"mode": "convex", "n": n}, "parts": parts,
                                "coloring": colors}))
    assert main(["stats", str(path)]) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_experiment_single_suite(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    assert main(["experiment", "acceptance-sts9", "--out", str(rep)]) == 0
    assert "PASS criterion 1" in capsys.readouterr().out
    data = json.loads(rep.read_text())
    assert data["pass"] is True


# configuration files with one schema fault each
_BAD_CONFIGS = {
    "config-no-points": {"mode": "coordinates", "n": 3},
    "config-not-object": [1],
    "config-short-point": {"mode": "coordinates", "n": 3, "points": [[0, 0], [1], [2, 5]]},
    "config-convex-no-n": {"mode": "convex"},
    "config-float-point": {"mode": "coordinates", "n": 3,
                           "points": [[0, 0], [1.5, 2], [3, 7]]},
}


def _malformed(tmp_path, kind):
    """A configuration or decomposition file with one fault, and the command
    to run on it."""
    out = tmp_path / "bad.json"
    if kind in ("deep-nesting", "config-deep-nesting"):
        # deep enough to exhaust the JSON decoder's recursion limit
        out.write_text("[" * 200_000 + "]" * 200_000)
        if kind == "deep-nesting":
            return ["verify", str(out)]
        return ["build", "edges", "--config", str(out), "--out", str(tmp_path / "e.json")]
    if kind in _BAD_CONFIGS:
        out.write_text(json.dumps(_BAD_CONFIGS[kind]))
        return ["build", "edges", "--config", str(out), "--out", str(tmp_path / "e.json")]
    if kind in ("decomp-config-list", "metadata-list"):
        main(["build", "thm4", "-n", "9", "--out", str(out)])
        data = json.loads(out.read_text())
        if kind == "decomp-config-list":
            data["config"] = [1, 2]
            cmd = "verify"
        else:
            data["metadata"] = [1]
            cmd = "stats"
    elif kind.startswith("huge-color"):
        # a color id far above the number of parts
        main(["build", "edges", "-n", "3", "--out", str(out)])
        data = json.loads(out.read_text())
        data["coloring"] = [10**400, 0, 0]
        cmd = "render" if kind == "huge-color-render" else "stats"
    elif kind == "no-parts":
        main(["build", "thm4", "-n", "9", "--out", str(out)])
        data = json.loads(out.read_text())
        del data["parts"]
        cmd = "verify"
    elif kind == "convex-vertex":
        main(["gen", "-n", "5", "--convex", "--out", str(tmp_path / "c5.json")])
        main(["build", "edges", "--config", str(tmp_path / "c5.json"), "--out", str(out)])
        data = json.loads(out.read_text())
        data["parts"][0]["vertices"] = [0, 9]
        cmd = "color"
    elif kind == "coords-vertex":
        main(["gen", "-n", "3", "--seed", "1", "--out", str(tmp_path / "p3.json")])
        main(["build", "edges", "--config", str(tmp_path / "p3.json"), "--out", str(out)])
        data = json.loads(out.read_text())
        data["parts"][0]["vertices"] = [0, 7]
        cmd = "color"
    else:  # a coloring with one entry too few, or a negative color
        main(["build", "thm32", "-k", "4", "--out", str(out)])
        data = json.loads(out.read_text())
        if kind == "short-coloring":
            data["coloring"] = data["coloring"][:-1]
        else:
            data["coloring"][0] = -1
        cmd = "verify"
    out.write_text(json.dumps(data))
    return [cmd, str(out)]


@pytest.mark.parametrize("kind", ["no-parts", "convex-vertex", "coords-vertex",
                                  "short-coloring", "negative-color",
                                  "decomp-config-list", "metadata-list", "huge-color",
                                  "huge-color-render", "deep-nesting", "config-deep-nesting",
                                  *_BAD_CONFIGS])
def test_malformed_decomposition_exits_2(tmp_path, capsys, kind):
    argv = _malformed(tmp_path, kind)
    before = (tmp_path / "bad.json").read_bytes()
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert (tmp_path / "bad.json").read_bytes() == before  # never overwritten


# one fault each in a colored K4 file whose parts are written as `build`
# writes them, "tag" first: (path of the edited value, new value, message).
# The messages are those of the loader that decoded the whole tree first.
_DELETE = object()
_SHAPE = 'error: "parts" must be a list of {"vertices": [...]} objects'
_RANGE = "error: part vertices must be ints in [0, 4)"
_COLORING = 'error: "coloring" must list one color id in [0, 6) per part'
_SINGLE_FAULTS = {
    "parts-not-list": (("parts",), {"tag": "edge", "vertices": [0, 1]}, _SHAPE),
    "part-not-dict": (("parts", 2), [0, 3], _SHAPE),
    "no-vertices": (("parts", 2, "vertices"), _DELETE, _SHAPE),
    "tag-not-str": (("parts", 2, "tag"), 5, "error: part tag must be a string, got int"),
    "float-vertex": (("parts", 2, "vertices"), [0, 3.0], _RANGE),
    "bool-vertex": (("parts", 2, "vertices"), [False, 3], _RANGE),
    "one-vertex": (("parts", 2, "vertices"), [3], "error: part too small: (3,)"),
    "unsorted": (("parts", 2, "vertices"), [3, 0], "error: part not sorted/distinct: (3, 0)"),
    "repeated": (("parts", 2, "vertices"), [3, 3], "error: part not sorted/distinct: (3, 3)"),
    "negative-vertex": (("parts", 2, "vertices"), [-1, 3], _RANGE),
    "vertex-n": (("parts", 2, "vertices"), [0, 4], _RANGE),
    "coloring-length": (("coloring",), [0, 1, 2, 3, 4], _COLORING),
    "color-range": (("coloring", 1), 6, _COLORING),
    "metadata-not-object": (("metadata",), ["edges"], 'error: "metadata" must be an object'),
}
# top-level key orders: sorted, as written, and "parts" before "config"
_LAYOUTS = {"config-first": ("coloring", "config", "metadata", "parts"),
            "parts-first": ("parts", "metadata", "config", "coloring")}


def _k4_doc():
    parts = [{"tag": "edge", "vertices": [a, b]} for a, b in combinations(range(4), 2)]
    return {"config": {"mode": "convex", "n": 4}, "parts": parts,
            "metadata": {"construction": "edges"}, "coloring": list(range(6))}


@pytest.mark.parametrize("layout", list(_LAYOUTS))
@pytest.mark.parametrize("fault", list(_SINGLE_FAULTS))
def test_single_fault_messages(tmp_path, capsys, fault, layout):
    keys, value, message = _SINGLE_FAULTS[fault]
    doc = _k4_doc()
    *path, last = keys
    holder = doc
    for key in path:
        holder = holder[key]
    if value is _DELETE:
        del holder[last]
    else:
        holder[last] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({key: doc[key] for key in _LAYOUTS[layout]}))
    capsys.readouterr()
    assert main(["verify", str(bad)]) == 2
    assert capsys.readouterr().err == message + "\n"


def test_layouts_load_alike(tmp_path, capsys):
    loaded = []
    for layout, order in _LAYOUTS.items():
        path = tmp_path / f"{layout}.json"
        doc = _k4_doc()
        path.write_text(json.dumps({key: doc[key] for key in order}))
        assert main(["verify", str(path)]) == 0
        loaded.append(load_decomposition(path))
    assert loaded[0] == loaded[1]
    assert [p.vertices for p in loaded[0][0].parts] == list(combinations(range(4), 2))


def test_planecut_error_exits_2(tmp_path, capsys, monkeypatch):
    from geochroma import cli

    def exhausted(*args, **kwargs):
        raise InputError("six_fan: candidate search exhausted (m=69, q=9)")

    monkeypatch.setattr(cli, "thm3_construction", exhausted)
    assert main(["build", "thm3", "-q", "9", "--out", str(tmp_path / "x.json")]) == 2
    err = capsys.readouterr().err
    assert err == "error: six_fan: candidate search exhausted (m=69, q=9)\n"


@pytest.mark.parametrize("argv", [
    ["verify", "{dir}"],
    ["build", "thm4", "-n", "9", "--out", "{dir}"],
    ["gen", "-n", "5", "--out", "{dir}"],
], ids=["verify", "build", "gen"])
def test_directory_path_exits_2(tmp_path, capsys, argv):
    assert main([a.format(dir=tmp_path) for a in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_loaders_fuzz(tmp_path, capsys):
    # a valid decomposition file with up to three faults at random places in
    # its JSON tree (the whole value included): every value loads or raises
    # the loader's own error, and `verify` on it exits 0, 1 or 2 with one
    # error line and no traceback
    hyp = pytest.importorskip("hypothesis")
    st = hyp.strategies
    junk = st.recursive(
        st.none() | st.booleans() | st.integers(-2, 12) | st.floats() | st.text(max_size=3),
        lambda kids: (st.lists(kids, max_size=4)
                      | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
        max_leaves=10)
    path = tmp_path / "fuzz.json"

    @hyp.settings(max_examples=400, deadline=None, database=None, derandomize=True)
    @hyp.given(st.integers(3, 7), st.booleans(), st.booleans(), st.data())
    def check(n, convex, colored, data):
        config = convex_configuration(n) if convex else generate_general_position(n, seed=n)
        parts = [{"vertices": list(e), "tag": "edge"} for e in combinations(range(n), 2)]
        doc = {"config": config_to_dict(config), "parts": parts, "metadata": {}}
        if colored:
            doc["coloring"] = list(range(len(parts)))
        root = [doc]
        for _ in range(data.draw(st.integers(0, 3))):
            # walk down from the root, stopping at random; replace or delete there
            holder, key = root, 0
            node = doc
            while node and isinstance(node, (dict, list)) and data.draw(st.integers(0, 3)):
                keys = list(node) if isinstance(node, dict) else list(range(len(node)))
                holder, key = node, data.draw(st.sampled_from(keys))
                node = holder[key]
            if holder is not root and data.draw(st.booleans()):
                del holder[key]
            else:
                holder[key] = data.draw(junk)
            doc = root[0]
        for load, arg, errors in (
                (config_from_dict, doc, InputError),
                (config_from_dict, doc.get("config") if isinstance(doc, dict) else None,
                 InputError),
                (decomposition_from_dict, doc, InputError)):
            try:
                load(arg)
            except errors:
                pass
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["verify", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err
        assert code != 2 or (err.startswith("error: ") and err.count("\n") == 1)

    check()


# flags that would change nothing, and one malformed value: each is a usage
# error.  {dec} is an uncolored thm4 file, {col} a colored thm32 file, {pts}
# a generated point set.
_UNREAD = {
    # a flag another construction reads
    "edges-q": ["build", "edges", "-n", "5", "-q", "3"],
    "edges-k": ["build", "edges", "-n", "5", "-k", "4"],
    "edges-seed": ["build", "edges", "-n", "5", "--seed", "5"],
    "thm3-k": ["build", "thm3", "-q", "3", "-k", "4"],
    "thm4-q": ["build", "thm4", "-n", "9", "-q", "3"],
    "thm4-k": ["build", "thm4", "-n", "9", "-k", "4"],
    "thm4-seed": ["build", "thm4", "-n", "9", "--seed", "5"],
    "thm5-q": ["build", "thm5", "-n", "20", "-q", "3"],
    "thm5-k": ["build", "thm5", "-n", "20", "-k", "4"],
    "thm32-n": ["build", "thm32", "-k", "4", "-n", "99"],
    "thm32-q": ["build", "thm32", "-k", "4", "-q", "7"],
    "thm32-seed": ["build", "thm32", "-k", "4", "--seed", "5"],
    # a flag the rest of the command leaves unread
    "thm5-seed-and-config": ["build", "thm5", "--config", "{pts}", "--seed", "5"],
    "gen-convex-seed": ["gen", "-n", "9", "--convex", "--seed", "3"],
    "gen-convex-bound": ["gen", "-n", "9", "--convex", "--bound", "50"],
    "color-greedy-budget": ["color", "{dec}", "--mode", "greedy", "--budget", "10"],
    "render-color-no-singletons": ["render", "{col}", "--color", "0", "--no-singletons"],
    "render-color-uncolored": ["render", "{dec}", "--color", "0"],
    # a malformed value
    "color-negative-budget": ["color", "{dec}", "--mode", "exact", "--budget", "-5"],
}


@pytest.mark.parametrize("argv", list(_UNREAD.values()), ids=list(_UNREAD))
def test_unread_flags_exit_2(tmp_path, capsys, argv):
    files = {"dec": tmp_path / "dec.json", "col": tmp_path / "col.json",
             "pts": tmp_path / "pts.json"}
    assert main(["build", "thm4", "-n", "9", "--out", str(files["dec"])]) == 0
    assert main(["build", "thm32", "-k", "4", "--out", str(files["col"])]) == 0
    assert main(["gen", "-n", "20", "--seed", "1", "--out", str(files["pts"])]) == 0
    before = sorted(tmp_path.iterdir())
    stamps = [p.stat().st_mtime_ns for p in before]
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main([a.format(**files) for a in argv] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert sorted(tmp_path.iterdir()) == before  # no output, no manifest
    assert [p.stat().st_mtime_ns for p in before] == stamps


@pytest.mark.parametrize("argv", [
    ["build", "thm9", "-n", "9"],
    ["color"],
    ["gen", "-n", "x"],
    ["build"],
    ["frobnicate"],
    ["build", "thm32", "-k", "4", "--unknown"],
], ids=["bad-choice", "missing-file", "non-int", "no-construction", "no-command",
        "unknown-flag"])
def test_argparse_errors_are_one_line(capsys, argv):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_render_no_singletons(tmp_path):
    # thm4 on 9 points: 9 triangles and 9 singleton edges
    dec = tmp_path / "t4.json"
    assert main(["build", "thm4", "-n", "9", "--out", str(dec)]) == 0
    every, bare = tmp_path / "every.svg", tmp_path / "bare.svg"
    assert main(["render", str(dec), "--out", str(every)]) == 0
    assert main(["render", str(dec), "--out", str(bare), "--no-singletons"]) == 0
    every, bare = every.read_text(), bare.read_text()
    assert (every.count("<polygon"), every.count("<line")) == (9, 9)
    assert (bare.count("<polygon"), bare.count("<line")) == (9, 0)
    assert "parts=18 drawn=9<" in bare
