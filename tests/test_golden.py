"""Byte-level guard: `build` and `color` outputs, and the violating pairs
`verify` finds, must not change under refactoring.

A digest mismatch means a construction now computes something different;
it is a regression to fix, not a value to update.
"""

import hashlib
import json
import random
from array import array

import pytest

from geochroma.chroma import conflict_graph, greedy_color, verify_coloring
from geochroma.cli import main
from geochroma.constructions import (
    Coloring,
    Decomposition,
    Parts,
    decomposition_to_dict,
    load_decomposition,
    save_decomposition,
    thm3_construction,
    thm4_construction,
    thm5_construction,
    thm32_construction,
    trivial_edge_decomposition,
)
from geochroma.designs import (
    field_tables,
    pencil_transversals,
    plane_order_supported,
    projective_plane,
)
from geochroma.exactgeom import (
    InputError,
    convex_configuration,
    coordinate_configuration,
    generate_general_position,
    write_json,
)
from geochroma.planecut import nine_regions, six_fan, six_parts_two_parallel


@pytest.mark.parametrize("args,digest", [
    pytest.param(["thm5", "-n", "200", "--seed", "7"],  # plane order 19, prime
                 "0511c260b1ce393337cd19a5663405f8de0355456359c5ab4d6c0660c9c6b242",
                 id="thm5-n200"),
    pytest.param(["thm5", "-n", "100", "--seed", "7"],  # plane order 9, prime power
                 "917b69c96d642aa788d54c9bf51fe6f1936d6bc5db4358447369681e1d8fc076",
                 id="thm5-n100"),
    pytest.param(["thm5", "-n", "300", "--seed", "3"],  # recurses: GF(32), then GF(9) x 3
                 "b72fc6fc45594424053b45ae828919b154a97ae80fd590f3aeafcb830bd951ee",
                 id="thm5-n300-recursive"),
    pytest.param(["thm3", "-q", "5", "--seed", "1"],
                 "0d31e1cfe1302c14e10b79563a02c72e1adacc9563a52f99696ebb20e522f871",
                 id="thm3-q5"),
    pytest.param(["thm3", "-q", "8", "--seed", "1"],
                 "42dd6a8c4e458e9c6c08d03a90f281c251ee99637582980d2ff6cb4111e71022",
                 id="thm3-q8"),
    pytest.param(["thm32", "-k", "4"],
                 "475f5baa5cb4175117d00246e283bf1580d8f51a32b9ab81588539f1e290918a",
                 id="thm32-k4"),
    # uncolored families whose singleton edges complete the cover
    pytest.param(["thm4", "-n", "48"],
                 "96117f43d55a39d9f5491c0b261c99d52ed1bc9fd8152fc7111bf28985cc1ce2",
                 id="thm4-n48"),
    pytest.param(["edges", "-n", "7"],  # convex
                 "e565bab3c0d03f513b665bc01bf8eab6baccdd5cd1de1b26d584e5c49a5b1aed",
                 id="edges-n7"),
    pytest.param(["thm3", "-n", "40", "--seed", "3"],  # q=4, with fan spill
                 "058842a8e5767c9d8bfa1713629377d605afceaa780929bcaa8827830667c502",
                 id="thm3-n40-spill"),
])
def test_build_output_digest(tmp_path, args, digest):
    out = tmp_path / "out.json"
    assert main(["build", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def _thm5_n90():
    return thm5_construction(generate_general_position(90, seed=5))


def _thm32_k4():
    return thm32_construction(4)


def _odd_tags():
    # tags that JSON escapes or that % formatting would read (%, ", \,
    # non-ASCII, control characters) on edges, triangles and K4s: two slices
    # of mixed tags and sizes, then a slice of one tag and size
    rng = random.Random(11)
    tags = ["100%", "%d %s %%", 'say "hi"', "back\\slash", "na\u00efve", "\u4e2d\u6587",
            "\u2028", "tab\t"]
    parts = Parts()
    for _ in range(300):
        parts.add(sorted(rng.sample(range(40), rng.choice((2, 3, 4)))), rng.choice(tags))
    for _ in range(300):
        parts.add(sorted(rng.sample(range(40), 3)), "%s")
    dec = Decomposition(config=convex_configuration(40), parts=parts, metadata={"note": "\u00e9%"})
    return dec, Coloring(array("I", (rng.randrange(50) for _ in range(600))))


@pytest.mark.parametrize("make,colored,digest", [
    pytest.param(lambda: (trivial_edge_decomposition(convex_configuration(7)), None), False,
                 "e565bab3c0d03f513b665bc01bf8eab6baccdd5cd1de1b26d584e5c49a5b1aed",
                 id="edges-n7"),
    pytest.param(lambda: thm3_construction(3, seed=1), False,  # 261 parts: two slices
                 "9b2750dc2eabf2bcbffbaea4c2ccdba7320328a8ee42432b1e113edf52165c62",
                 id="thm3-q3"),
    pytest.param(lambda: thm4_construction(12), False,
                 "359ef17a765d5b3b20172ef45a81581b5f4ea0b4acac38f8791576517a353f22",
                 id="thm4-n12"),
    pytest.param(_thm5_n90, False,
                 "ac072e718b6e3b756f44e9949d4442ce815f0c300d106aaaa4fcb333431bb83c",
                 id="thm5-n90"),
    pytest.param(_thm5_n90, True,
                 "027730f486317c3f5166f8251bae2b7bb0a886d70d2d972540f06f14c0b017ef",
                 id="thm5-n90-colored"),
    pytest.param(_thm32_k4, False,
                 "48ec1edc99e9a1f25c77e400d865839510f7d8cfb810a110e663dd68a42b1f1e",
                 id="thm32-k4"),
    pytest.param(_thm32_k4, True,
                 "475f5baa5cb4175117d00246e283bf1580d8f51a32b9ab81588539f1e290918a",
                 id="thm32-k4-colored"),
    pytest.param(_odd_tags, False,
                 "5c527f1a19d1be4764aaee8881446aa02c9447bbc64e79844fcc45e1895d6996",
                 id="odd-tags"),
    pytest.param(_odd_tags, True,
                 "4e4575c2bbbf9f9aad6f82ddb0cdb344b217af00f0eb0092ddd5e4266ce4769d",
                 id="odd-tags-colored"),
])
def test_save_writes_the_dict_encoding(tmp_path, make, colored, digest):
    # save_decomposition formats the parts from per-tag templates a slice at
    # a time; the bytes are those of write_json on the whole
    # decomposition_to_dict document, which encodes each part dict with
    # json.dumps
    dec, col = make()
    col = col if colored else None
    saved, whole = tmp_path / "saved.json", tmp_path / "whole.json"
    save_decomposition(dec, saved, coloring=col)
    write_json(decomposition_to_dict(dec, col), whole)
    assert hashlib.sha256(saved.read_bytes()).hexdigest() == digest
    assert whole.read_bytes() == saved.read_bytes()


def test_thm5_digest_at_coordinate_bound(tmp_path):
    # coordinates up to 2**30, where the int64 side counts reach 2**62
    cfg, out = tmp_path / "pts.json", tmp_path / "out.json"
    assert main(["gen", "-n", "200", "--bound", "1073741824", "--seed", "3",
                 "--out", str(cfg)]) == 0
    assert main(["build", "thm5", "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "babdb0247e5d9f901cf3f21e3c1ce59cd41b234673f41b7c8f1cc2e49dd14130")


@pytest.mark.parametrize("args,n,seed,digest", [
    # the coords-build point sets: thm5 at n=270, thm3 at q=9 on 69 points
    pytest.param(["thm5"], 270, 1,
                 "d10db0c73f91b67bcf42b2e91b357609cee8928043aba56e4848a5b13dfc5494",
                 id="thm5-gen270-seed1"),
    pytest.param(["thm5"], 270, 2,
                 "2cab89b28cd6c587e4ddb45a251c5e943a46027a608ec1f8c68d5d5147f20303",
                 id="thm5-gen270-seed2"),
    pytest.param(["thm5"], 270, 3,
                 "7d64fee116dfbee7d02df42753b64b839e8456ca857d8433b85ef3d7a2416de2",
                 id="thm5-gen270-seed3"),
    pytest.param(["thm3", "-q", "9"], 69, 1,
                 "791325f410b4d8918e3a23dcbe1fa3553f8d3045e1e7b34c6b80bfe819a7e38e",
                 id="thm3-q9-gen69-seed1"),
])
def test_build_on_generated_points_digest(tmp_path, args, n, seed, digest):
    cfg, out = tmp_path / "pts.json", tmp_path / "out.json"
    assert main(["gen", "-n", str(n), "--seed", str(seed), "--out", str(cfg)]) == 0
    assert main(["build", *args, "--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_six_parts_digest_n500():
    # a ham-sandwich search that tries many strip directions before one fits
    asg = six_parts_two_parallel(generate_general_position(500, seed=3))
    rec = {"regions": asg.regions, "strips": asg.strips,
           "cuts": [[c.a, c.b, c.c] for c in asg.cuts]}
    blob = json.dumps(rec, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "4fe9edf5be4ccc5906fdc80b8149ffb956e16124a27f2a7f209b66fb7841eaf1")


def _edges_on_points(tmp_path, n, seed):
    cfg, out = tmp_path / "pts.json", tmp_path / "in.json"
    assert main(["gen", "-n", str(n), "--seed", str(seed), "--out", str(cfg)]) == 0
    return ["edges", "--config", str(cfg), "--out", str(out)]


@pytest.mark.parametrize("build,color,printed,digest", [
    pytest.param(["thm4", "-n", "48"], ["--mode", "exact"],
                 "chromatic index: [257, 257] (exact)",
                 "45410c09257765680b4f3817afcdb55424df627d8bc2928888234b30b20b005c",
                 id="thm4-n48-exact"),
    pytest.param(["thm4", "-n", "15"], ["--mode", "exact", "--budget", "20"],
                 "chromatic index: [14, 26] (bounds-only)",
                 "537cbf4da4af38d536cf14b902e952e412ee23e20a7cf0d0dd30d7ae9382b2f2",
                 id="thm4-n15-budget20"),
    # the coloring search raises the lower bound, then runs out of budget
    pytest.param((8, 4), ["--mode", "exact", "--budget", "1000"],
                 "chromatic index: [9, 10] (bounds-only)",
                 "64b1529fbf7bf7d16dabc19667857bba0f3524f8fd88f7adb026594da9db50ba",
                 id="edges-gen8-budget1000"),
    pytest.param((8, 4), ["--mode", "exact", "--budget", "5000"],
                 "chromatic index: [9, 9] (exact)",
                 "5073b15ce7e1a71c6229db758de9f1345e05664aa42f79c2403c2f602adc85d5",
                 id="edges-gen8-budget5000"),
    pytest.param(["thm32", "-k", "4"], ["--mode", "exact", "--budget", "2000"],
                 "chromatic index: [190, 248] (bounds-only)",
                 "9a9faafa74b294eb0987e0609f360819a83f318f75c574606fb7bb1c21698a03",
                 id="thm32-k4-budget2000"),
    pytest.param((32, 0), [],
                 "greedy palette: 49",
                 "e42d47ba291888e98a3c1f405777bc2ea032c002c7491c8bd2693286fc2ac08c",
                 id="edges-gen32-greedy"),
])
def test_color_output_digest(tmp_path, capsys, build, color, printed, digest):
    if isinstance(build, tuple):  # edges on `gen -n N --seed S`
        build = _edges_on_points(tmp_path, *build)
    else:
        build = [*build, "--out", str(tmp_path / "in.json")]
    assert main(["build", *build]) == 0
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["color", str(tmp_path / "in.json"), *color, "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == printed
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("build,n,seed,m,digest", [
    # color-search's `color edges.json` input
    pytest.param(["edges"], 32, 1, 496,
                 "a4b023c0f21e78354d4550ff6511859124569efb623c59cfe43206e9ec4438ec",
                 id="edges-gen32-seed1"),
    # K4s and singleton edges on one point set
    pytest.param(["thm3", "-q", "3"], 27, 2, 261,
                 "61b71605d3dce95dd242d45059e22e1faf11f2ba3cca347a7b406e1d8a26d495",
                 id="thm3-q3-gen27-seed2"),
])
def test_coordinate_conflict_graph_digest(tmp_path, build, n, seed, m, digest):
    cfg, out = tmp_path / "pts.json", tmp_path / "in.json"
    assert main(["gen", "-n", str(n), "--seed", str(seed), "--out", str(cfg)]) == 0
    assert main(["build", *build, "--config", str(cfg), "--out", str(out)]) == 0
    g = conflict_graph(load_decomposition(out)[0])
    blob = json.dumps(list(g.adj), separators=(",", ":"))
    assert (g.m, hashlib.sha256(blob.encode()).hexdigest()) == (m, digest)


@pytest.mark.parametrize("build,m,digest", [
    # color-search's exact and budgeted inputs
    pytest.param(["thm4", "-n", "48"], 616,
                 "a189c0ab3da545db67cc5bd162293066267717a001b2783a00e4e49f571328f4",
                 id="thm4-n48"),
    pytest.param(["thm32", "-k", "4"], 876,
                 "5e68e1ac8c31f7727127b6ee79174ac16bd8193325866d8da0a7e28703668f1d",
                 id="thm32-k4"),
    pytest.param(None, 66,
                 "c19bab19a654c249c12af929ff66b85fdc64b8a4859ceb2167ce99618725f615",
                 id="edges-gen12-convex"),
])
def test_convex_conflict_graph_digest(tmp_path, build, m, digest):
    out = tmp_path / "in.json"
    if build is None:  # edges on `gen -n 12 --convex`
        cfg = tmp_path / "cfg.json"
        assert main(["gen", "-n", "12", "--convex", "--out", str(cfg)]) == 0
        build = ["edges", "--config", str(cfg)]
    assert main(["build", *build, "--out", str(out)]) == 0
    g = conflict_graph(load_decomposition(out)[0])
    blob = json.dumps(list(g.adj), separators=(",", ":"))
    assert (g.m, hashlib.sha256(blob.encode()).hexdigest()) == (m, digest)


def test_field_tables_digest():
    # every supported GF(q), q <= 32: the axiom tests accept any relabelling
    # of a field, and a relabelled field changes every plane built on it
    tables = [[q, *field_tables(q)] for q in range(2, 33) if plane_order_supported(q)]
    blob = json.dumps(tables, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "ec60d045e904ba958c25a2f933373e544c4846fdce0d80d4d7795d950cdbc111")


def test_pencil_transversals_digest():
    # the transversal designs thm3 and thm5 read off PG(2, q): every supported
    # q < 60, with m in {4, 9, q + 1} lines through point 0 (64 cases); a
    # closed form for these tuples must reproduce this digest
    cases = [[q, m, pencil_transversals(projective_plane(q), m)]
             for q in range(2, 60) if plane_order_supported(q)
             for m in sorted({4, 9, q + 1}) if m <= q + 1]
    assert len(cases) == 64
    blob = json.dumps(cases, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "c6a1215c5697b58e06bb5d44403648847c2a78fb352dc46525bd60cf691d8ea6")


def _asg_record(asg):
    center = None if asg.center is None else [str(c) for c in asg.center]
    return {"regions": asg.regions, "spill": asg.spill, "strips": asg.strips,
            "cuts": [[c.a, c.b, c.c] for c in asg.cuts],
            "patterns": asg.patterns, "center": center}


def _planecut_sweep():
    out = []
    for q in (1, 2, 3, 4):
        for m in (6 * q, 6 * q + 5):  # without and with spill
            for seed in range(4):
                asg = six_fan(generate_general_position(m, seed=seed), q)
                out.append(["six_fan", q, m, seed, _asg_record(asg)])
    for n in (6, 7, 13, 31, 60):
        for seed in range(4):
            asg = six_parts_two_parallel(generate_general_position(n, seed=seed))
            out.append(["six_parts", n, seed, _asg_record(asg)])
    for n, q in ((9, 1), (13, 3), (30, 2), (30, 4), (60, 3), (60, 6), (90, 9)):
        for seed in range(3):
            try:
                rec = _asg_record(nine_regions(generate_general_position(n, seed=seed), q))
            except InputError:  # the fit rule rejects q
                rec = "infeasible"
            out.append(["nine", n, q, seed, rec])
    return out


def test_planecut_outputs_digest():
    # fans, six-part cuts and nine-region refinements over a seed sweep:
    # regions, spill, cuts, patterns and fan centers, all exact
    blob = json.dumps(_planecut_sweep(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "714047d092b7687b2627fff8e8ea6e19c2c003976a15215e12fe21e4d131a5a0")


# (n, bound, seed) with n <= 2(2 bound + 1), the most a grid of that bound
# holds: small grids reject collinear candidates often, and the searches on
# the fourth line run out with "placed k"
_GEN_CASES = (
    [(n, 1, s) for n in (4, 5) for s in range(3)]
    + [(n, 2, s) for n in (6, 8) for s in range(3)]
    + [(10, 3, 0), (10, 3, 1), (16, 5, 0), (16, 5, 1)]
    + [(6, 1, 0), (10, 2, 1), (12, 3, 0), (14, 3, 0), (22, 5, 0)]
    + [(2, 1 << 30, 3), (40, 1 << 30, 3)]
)


def _generated(n, bound, seed):
    try:
        return [[p.x, p.y] for p in generate_general_position(n, bound, seed).points]
    except InputError as exc:
        return str(exc)


def test_generated_points_digest():
    blob = json.dumps([_generated(*case) for case in _GEN_CASES])
    assert hashlib.sha256(blob.encode()).hexdigest() == (
        "c29d3db7b6c6f446b1a8ff0d2e94adf639f8c98fa1f47733a0e5529b6267b56c")


def test_general_position_messages_digest():
    # the loader's verdict on 3,000 seeded point lists from a 7x7 grid, 1,843
    # of them rejected: a duplicate is reported before a collinear triple
    # when its second point comes first, with the indices of the first clash
    rng = random.Random(16)
    msgs = []
    for _ in range(3000):
        pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(3, 9))]
        try:
            coordinate_configuration(pts)
            msgs.append("ok")
        except InputError as exc:
            msgs.append(str(exc))
    assert sum(m != "ok" for m in msgs) == 1843
    assert hashlib.sha256(json.dumps(msgs).encode()).hexdigest() == (
        "f846c95312a414308ebe6f8aa073ffb2b9357b17b484335216200de9eeabcd34")


def _recolored(count, seed):
    # thm32 k=4 with `count` parts, drawn by a seeded rng, moved to a random color
    d, c = thm32_construction(4)
    rng = random.Random(seed)
    colors = list(c.colors)
    for i in rng.sample(range(len(colors)), count):
        colors[i] = rng.randrange(c.palette)
    return d, Coloring(colors=tuple(colors))


def _recolored_thm5(count, seed):
    # the coordinates twin of _recolored: thm5 on `gen -n 100 --seed 3`
    d, c = thm5_construction(generate_general_position(100, seed=3))
    rng = random.Random(seed)
    colors = list(c.colors)
    for i in rng.sample(range(len(colors)), count):
        colors[i] = rng.randrange(c.palette)
    return d, Coloring(colors=tuple(colors))


def _one_color():
    d = thm4_construction(15).decomposition
    return d, Coloring(colors=(0,) * len(d.parts))


def _merged_edges():
    # a proper coloring of the edges of the convex 7-gon, classes 0 and 1 merged
    d = trivial_edge_decomposition(convex_configuration(7))
    colors = greedy_color(conflict_graph(d)).colors
    return d, Coloring(colors=tuple(0 if col == 1 else col for col in colors))


@pytest.mark.parametrize("make,count,digest", [
    pytest.param(lambda: _recolored(1, 1), 2,
                 "ec0792f04648bd80f68438acbb59b565443edffa66c19296a874898e932a2010",
                 id="thm32-k4-recolor1"),
    pytest.param(lambda: _recolored(10, 10), 32,
                 "7d64a4707ad49245cda8e3eaab118eeecc88e2d1a3db7ef91436bf0c234f3c8c",
                 id="thm32-k4-recolor10"),
    pytest.param(lambda: _recolored(300, 300), 717,
                 "8117ff90298ebf7fb62e475fe5e4595fbcd55f524826d3fffb63db808f1baa03",
                 id="thm32-k4-recolor300"),
    pytest.param(lambda: _recolored_thm5(10, 10), 7,
                 "a9bd480c28a2cd8f18ec3578007bdc9e81c838f45525c500b8a2247d1c5a0b04",
                 id="thm5-n100-recolor10"),
    pytest.param(lambda: _recolored_thm5(300, 300), 241,
                 "1b476d99673b30c7b98344a7cd5be88da1923fb78479f1ce662013bf89827111",
                 id="thm5-n100-recolor300"),
    pytest.param(_one_color, 855,
                 "744956517cfc22abd48c72df37f92bdb22b9a87569f1f93a616c62c1b128718e",
                 id="thm4-n15-one-color"),
    pytest.param(_merged_edges, 5,
                 "303c9dbbec8c96e0b4b574b7582fccdae91d335b9a729f6f96103e0714b5740e",
                 id="edges-convex7-merged"),
])
def test_verify_coloring_violations_digest(make, count, digest):
    # the violating pairs, in the order verify_coloring returns them
    bad = verify_coloring(*make())
    blob = json.dumps(bad, separators=(",", ":"))
    assert (len(bad), hashlib.sha256(blob.encode()).hexdigest()) == (count, digest)


def test_verify_output_on_broken_file(tmp_path, capsys):
    # thm32 k=4 without its first part and with five parts recolored
    path = tmp_path / "t32.json"
    assert main(["build", "thm32", "-k", "4", "--out", str(path)]) == 0
    data = json.loads(path.read_text())
    del data["parts"][0], data["coloring"][0]
    for i in (3, 50, 400, 600, 800):
        data["coloring"][i] = data["coloring"][i + 1]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert main(["verify", str(path)]) == 1
    assert capsys.readouterr().out == (
        "exact cover: FAILED (uncovered=3, repeated=0)\n"
        "coloring: FAILED (13 violating pairs, palette 219)\n")
