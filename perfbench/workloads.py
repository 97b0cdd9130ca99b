"""The benchmark's workloads: which CLI commands run, on which inputs, and how
their outputs are checked.

A workload is a set-up (commands that make the input files the timed passes
read) and a pass (the commands that are timed, repeated within a run).  Every
command is an argument list for ``geochroma`` run inside the run's work
directory.  Checks look only at a command's exit code, its standard output and
error, and the files it wrote; they never drop an input that fails.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass, field

# Generator seeds of the coords-build point sets.  They are fixed, not drawn
# from the benchmark seed: the cost of six_parts_two_parallel depends on how
# many strip directions fail before one works, which is heavy-tailed over
# point sets (0.5 s to 3.7 s for thm5 at n=240 over 16 generator seeds), and
# no number of point sets that fits a run averages that below the bounds.
# The benchmark seed instead translates every point set (see translate_config).
POOL_SEEDS = (1, 2, 3)
# Translations stay within +-2**20, so generated coordinates (|x| <= 2**20)
# stay below planecut.NUMPY_SAFE_COORD (2**25) and keep the numpy path.
SHIFT_BOUND = 1 << 20


@dataclass(frozen=True)
class Command:
    """One ``geochroma`` invocation and what it is expected to produce."""

    args: tuple[str, ...]
    kind: str                 # gen, build, verify or color: the timing class
    out: str | None = None    # output file whose bytes are digested
    reads: str | None = None  # decomposition file the command reads

    def label(self) -> str:
        return " ".join(self.args)


@dataclass
class Workload:
    name: str
    setup: list[Command]
    passes: list[Command]
    # layer spans and counters that must fire in the traced run
    must_fire: tuple[str, ...]
    # (raw file, translated file, (dx, dy)) rewrites made after set-up commands
    translations: list[tuple[str, str, tuple[int, int]]] = field(default_factory=list)
    # values the checks compare against, keyed by output file
    expect: dict = field(default_factory=dict)


# --- spans every workload is expected to fire --------------------------------

_IO_SPANS = (
    "constructions.save_decomposition",
    "constructions.load_decomposition",
    "constructions.validate_decomposition",
    "chroma.verify_coloring",
)


def coords_build(seed: int, tiny: bool = False) -> Workload:
    """thm5 on three point sets and thm3 on one: planecut-dominated builds."""
    n, q = (80, 3) if tiny else (270, 9)
    pool = POOL_SEEDS[:1] if tiny else POOL_SEEDS
    rng = random.Random(seed)
    setup, passes, translations = [], [], []
    for i, pool_seed in enumerate(pool):
        raw, pts = f"raw{i}.json", f"pts{i}.json"
        setup.append(Command(("gen", "-n", str(n), "--seed", str(pool_seed),
                              "--out", raw), "gen", out=raw))
        translations.append((raw, pts, _shift(rng)))
        passes.append(Command(("build", "thm5", "--config", pts, "--out", f"thm5_{i}.json"),
                              "build", out=f"thm5_{i}.json"))
        passes.append(Command(("verify", f"thm5_{i}.json"), "verify", reads=f"thm5_{i}.json"))
    m = 7 * q + 6
    setup.append(Command(("gen", "-n", str(m), "--seed", str(POOL_SEEDS[0]),
                          "--out", "rawq.json"), "gen", out="rawq.json"))
    translations.append(("rawq.json", "ptsq.json", _shift(rng)))
    passes.append(Command(("build", "thm3", "-q", str(q), "--config", "ptsq.json",
                           "--out", "thm3.json"), "build", out="thm3.json"))
    passes.append(Command(("verify", "thm3.json"), "verify", reads="thm3.json"))
    return Workload(
        name="coords-build",
        setup=setup,
        passes=passes,
        translations=translations,
        must_fire=(
            "exactgeom.generate_general_position",
            "exactgeom.load_config",
            "planecut.six_parts_two_parallel",
            "planecut.six_fan",
            "planecut.nine_regions",
            "planecut.recount_regions",
            "designs.projective_plane",
            "designs.pencil_through",
            "constructions.thm5_construction",
            "constructions.thm3_construction",
            "exactgeom.parts_conflict.calls",
            "exactgeom.proper_cross.calls",
            "exactgeom.orient.calls",
        ) + _IO_SPANS,
    )


def thm32_roundtrip(seed: int, tiny: bool = False) -> Workload:
    """Build and verify a large convex thm32 file: JSON I/O and convex verify.

    The input has no randomness, so the seed changes nothing here."""
    k = 4 if tiny else 40
    return Workload(
        name="thm32-roundtrip",
        setup=[],
        passes=[
            Command(("build", "thm32", "-k", str(k), "--out", "thm32.json"),
                    "build", out="thm32.json"),
            Command(("verify", "thm32.json"), "verify", reads="thm32.json"),
        ],
        must_fire=(
            "designs.difference_triples",
            "designs.cyclic_sts",
            "constructions.thm32_construction",
            "exactgeom.parts_conflict.calls",
            "exactgeom.convex_cross.calls",
        ) + _IO_SPANS,
        expect={"thm32.json": {"k": k}},
    )


def color_search(seed: int, tiny: bool = False) -> Workload:
    """Three colorings, one per chroma solver path, on inputs made in set-up."""
    thm4_n, pts_n, k, budget = (9, 8, 4, 20) if tiny else (48, 32, 4, 2000)
    budget_input = "thm4b.json" if tiny else "thm32.json"
    setup = [
        Command(("gen", "-n", str(pts_n), "--seed", str(seed), "--out", "pts.json"),
                "gen", out="pts.json"),
        Command(("build", "edges", "--config", "pts.json", "--out", "edges.json"),
                "build", out="edges.json"),
        Command(("build", "thm4", "-n", str(thm4_n), "--out", "thm4.json"),
                "build", out="thm4.json"),
    ]
    if tiny:
        # thm32 k=4 has 876 parts; its conflict graph alone takes seconds
        setup.append(Command(("build", "thm4", "-n", "15", "--out", budget_input),
                             "build", out=budget_input))
    else:
        setup.append(Command(("build", "thm32", "-k", str(k), "--out", budget_input),
                             "build", out=budget_input))
    passes = [
        Command(("color", "thm4.json", "--mode", "exact", "--out", "c_thm4.json"),
                "color", out="c_thm4.json", reads="thm4.json"),
        Command(("color", "edges.json", "--mode", "greedy", "--out", "c_edges.json"),
                "color", out="c_edges.json", reads="edges.json"),
        Command(("color", budget_input, "--mode", "exact", "--budget", str(budget),
                 "--out", "c_budget.json"), "color", out="c_budget.json", reads=budget_input),
    ]
    passes += [Command(("verify", c.out), "verify", reads=c.out) for c in list(passes)]
    expect = {"c_thm4.json": {"exact": True, "clique": (thm4_n // 3) ** 2}}
    if not tiny:
        expect[budget_input] = {"k": k}
    return Workload(
        name="color-search",
        setup=setup,
        passes=passes,
        must_fire=(
            "exactgeom.generate_general_position",
            "exactgeom.load_config",
            "constructions.thm4_construction",
            "chroma.conflict_graph",
            "chroma.greedy_color",
            "chroma.clique_index",
            "chroma.exact_chromatic_index",
            "exactgeom.parts_conflict.calls",
            "exactgeom.convex_cross.calls",
            "exactgeom.proper_cross.calls",
            "exactgeom.orient.calls",
        ) + _IO_SPANS,
        expect=expect,
    )


WORKLOADS = {
    "coords-build": coords_build,
    "thm32-roundtrip": thm32_roundtrip,
    "color-search": color_search,
}


def make(name: str, seed: int, tiny: bool = False) -> Workload:
    return WORKLOADS[name](seed, tiny)


# --- inputs ---------------------------------------------------------------------

def _shift(rng: random.Random) -> tuple[int, int]:
    return rng.randint(-SHIFT_BOUND, SHIFT_BOUND), rng.randint(-SHIFT_BOUND, SHIFT_BOUND)


def translate_config(src: str, dst: str, shift: tuple[int, int]) -> None:
    """Write the configuration in ``src`` moved by ``shift`` to ``dst``.

    A translation changes every coordinate but no orientation, projection
    order or crossing, so the program does the same work on every seed."""
    with open(src) as fh:
        cfg = json.load(fh)
    dx, dy = shift
    cfg["points"] = [[x + dx, y + dy] for x, y in cfg["points"]]
    with open(dst, "w") as fh:
        json.dump(cfg, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")


# --- output checks --------------------------------------------------------------

_PARTS = re.compile(r"^wrote \S+ \(parts=(\d+)(?:, colors=(\d+))?\)$", re.M)
_BOUNDS = re.compile(r"^chromatic index: \[(\d+), (\d+)\] \((exact|bounds-only)\)$", re.M)
_GREEDY = re.compile(r"^greedy palette: (\d+)$", re.M)


def check(cmd: Command, rc: int, stdout: str, stderr: str, expect: dict) -> tuple[list[str], dict]:
    """Problems found in one command's result, and the values it reported."""
    problems, values = [], {}
    if rc != 0:
        problems.append(f"exit code {rc}")
    if "Traceback" in stderr or "Traceback" in stdout:
        problems.append("traceback")
    if cmd.kind == "build":
        m = _PARTS.search(stdout)
        if m is None:
            problems.append("no parts count in output")
        else:
            values["parts"] = int(m.group(1))
            if m.group(2) is not None:
                values["colors"] = int(m.group(2))
        want = expect.get(cmd.out, {})
        if "k" in want and m is not None:
            # the paper's thm32 invariants: blocks = n(n-1)/6, palette = n(k/2+1)
            k = want["k"]
            n = 18 * k + 1
            if values["parts"] != n * (n - 1) // 6:
                problems.append(f"thm32 blocks {values['parts']} != n(n-1)/6")
            if values.get("colors") != n * (k // 2 + 1):
                problems.append(f"thm32 palette {values.get('colors')} != n(k/2+1)")
    elif cmd.kind == "verify":
        if "exact cover: ok" not in stdout:
            problems.append("exact cover not ok")
        if "coloring:" in stdout and "coloring: ok" not in stdout:
            problems.append("coloring not ok")
    elif cmd.kind == "color":
        want = expect.get(cmd.out, {})
        m = _BOUNDS.search(stdout)
        g = _GREEDY.search(stdout)
        if m is not None:
            lo, hi, flag = int(m.group(1)), int(m.group(2)), m.group(3)
            values.update(lower=lo, upper=hi, exact=flag == "exact")
            if lo > hi:
                problems.append(f"lower bound {lo} > upper bound {hi}")
            if want.get("exact") and (flag != "exact" or lo != hi):
                problems.append(f"expected an exact optimum, got [{lo}, {hi}] {flag}")
            if lo < want.get("clique", 0):
                problems.append(f"lower bound {lo} below the distinguished clique")
        elif g is not None:
            values["palette"] = int(g.group(1))
        else:
            problems.append("no coloring result in output")
    return problems, values
