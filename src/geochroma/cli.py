"""Command-line front end.

    geochroma gen -n 27 --seed 1 --out pts.json
    geochroma build thm32 -k 4 --out dec.json
    geochroma color dec.json --mode exact
    geochroma verify dec.json
    geochroma stats dec.json
    geochroma render dec.json --out dec.svg --color 0
    geochroma experiment all

Each `build` construction takes only the flags it reads, and a flag that
would change nothing is a usage error: `gen --convex` with --seed or
--bound, `color --mode greedy` with --budget, `render --no-singletons` with
--color, `render --color` on a file with no coloring, and thm5's --seed
beside --config.

Exit codes: 0 success; 1 validation failed; 2 an InputError (a bad argument,
a malformed file, an unsupported order or an exhausted partition search),
a usage error, or an OSError, reported as one `error:` line on stderr.  Any
other exception is a bug and shows its traceback.  Identical inputs give
byte-identical outputs; a run manifest (command, parameters, seed, version,
timing, output digests) is written next to each --out file.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys
import time
from collections import Counter

from . import __version__
from .exactgeom import (
    GEN_BOUND,
    InputError,
    config_to_dict,
    convex_configuration,
    generate_general_position,
    load_config,
    save_config,
)
from .constructions import (
    largest_thm3_q,
    load_decomposition,
    save_decomposition,
    thm3_construction,
    thm4_construction,
    thm5_construction,
    thm32_construction,
    trivial_edge_decomposition,
    validate_decomposition,
)
from .chroma import conflict_graph, exact_chromatic_index, greedy_color, verify_coloring
from .render import render_svg
from .experiments import SUITES, run_suites

USAGE_ERROR = 2
VALIDATION_ERROR = 1
EXACT_BUDGET = 2_000_000  # search nodes for `color --mode exact` without --budget


def _sha256():
    """A new SHA-256 hash from CPython's own implementation, the one hashlib
    falls back to without OpenSSL: the same digest, while importing hashlib
    loads OpenSSL's libcrypto, 3.5-3.7 MB RSS on CPython 3.10-3.13."""
    try:
        from _sha2 import sha256  # CPython 3.12 on
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:  # an interpreter without either module
            from hashlib import sha256
    return sha256()


def _write_manifest(out_path: str, command: str, params: dict, seed, t0: float):
    sha = _sha256()
    with open(out_path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):  # 1 MiB at a time
            sha.update(chunk)
    digest = sha.hexdigest()
    manifest = {
        "command": command,
        "parameters": params,
        "seed": seed,
        "version": __version__,
        "elapsed_s": round(time.perf_counter() - t0, 3),
        "outputs": {os.path.basename(out_path): digest},
    }
    with open(out_path + ".manifest.json", "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=1)
        fh.write("\n")


def cmd_gen(args) -> int:
    t0 = time.perf_counter()
    seed = bound = None
    if args.convex:
        if args.seed is not None or args.bound is not None:
            raise InputError("gen --convex draws no points; it takes no --seed or --bound")
        config = convex_configuration(args.n)
    else:
        seed = args.seed or 0
        bound = GEN_BOUND if args.bound is None else args.bound
        config = generate_general_position(args.n, bound=bound, seed=seed)
    if args.out:
        save_config(config, args.out)
        _write_manifest(args.out, "gen", {"n": args.n, "mode": config.mode,
                                          "bound": bound}, seed, t0)
        print(f"wrote {args.out} ({config.mode}, n={config.n})")
    else:
        print(json.dumps(config_to_dict(config), sort_keys=True))
    return 0


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    coloring = None
    name = args.construction
    seed = getattr(args, "seed", None)  # thm3 and thm5 only
    if name == "edges":  # a --config file of either mode; -n is the convex n-gon
        cfg = load_config(args.config) if args.config else convex_configuration(args.n)
        decomp = trivial_edge_decomposition(cfg)
    elif name == "thm4":
        decomp, coloring = thm4_construction(args.n)
    elif name == "thm32":
        decomp, coloring = thm32_construction(args.k)
    elif name == "thm5":
        if args.config:
            if seed is not None:
                raise InputError("thm5 --seed seeds -n points; with --config it changes nothing")
            cfg = load_config(args.config)
        else:
            seed = seed or 0
            cfg = generate_general_position(args.n, seed=seed)
        decomp, coloring = thm5_construction(cfg)
    else:  # thm3: q from -q, or the largest that fits the -n or --config points
        cfg = None
        if args.config:
            cfg = load_config(args.config)
        elif args.n is not None:
            cfg = generate_general_position(args.n, seed=seed)
        q = args.q
        if q is None:
            if cfg is None:
                raise InputError("thm3 needs -q, or -n/--config to derive it")
            q = largest_thm3_q(cfg.n)
        decomp, coloring = thm3_construction(q, config=cfg, seed=seed)
    out = args.out or f"{name}.json"
    save_decomposition(decomp, out, coloring=coloring)
    _write_manifest(out, f"build {name}",
                    {k: getattr(args, k, None) for k in ("n", "q", "k")}, seed, t0)
    stats = decomp.metadata
    extra = f", colors={coloring.palette}" if coloring else ""
    print(f"wrote {out} (parts={len(decomp.parts)}{extra})")
    for key in ("distinguished_k4", "distinguished_triangles", "colors",
                "non_triangle_edge_fraction"):
        if key in stats:
            print(f"  {key}: {stats[key]}")
    return 0


def cmd_color(args) -> int:
    t0 = time.perf_counter()
    budget = args.budget
    if args.mode == "greedy":
        if budget is not None:
            raise InputError("color --mode greedy runs no search; it takes no --budget")
    elif budget is None:
        budget = EXACT_BUDGET
    elif budget < 0:
        raise InputError(f"--budget must be >= 0, got {budget}")
    decomp, _ = load_decomposition(args.file)
    g = conflict_graph(decomp)
    if args.mode == "greedy":
        coloring = greedy_color(g)
        print(f"greedy palette: {coloring.palette}")
    else:
        res = exact_chromatic_index(g, budget=budget)
        coloring = res.coloring
        flag = "exact" if res.optimal else "bounds-only"
        print(f"chromatic index: [{res.lower}, {res.upper}] ({flag})")
    bad = verify_coloring(decomp, coloring)
    if bad:
        print(f"coloring invalid: {len(bad)} violating pairs", file=sys.stderr)
        return VALIDATION_ERROR
    out = args.out or args.file
    save_decomposition(decomp, out, coloring=coloring)
    _write_manifest(out, f"color {args.mode}", {"budget": budget}, None, t0)
    print(f"wrote {out}")
    return 0


def cmd_verify(args) -> int:
    decomp, coloring = load_decomposition(args.file)
    rep = validate_decomposition(decomp)
    print(f"exact cover: {'ok' if rep['valid'] else 'FAILED'} "
          f"(uncovered={rep['uncovered_count']}, repeated={len(rep['repeated'])})")
    ok = rep["valid"]
    if coloring is not None:
        bad = verify_coloring(decomp, coloring)
        print(f"coloring: {'ok' if not bad else 'FAILED'} "
              f"({len(bad)} violating pairs, palette {coloring.palette})")
        ok = ok and not bad
    return 0 if ok else VALIDATION_ERROR


def cmd_stats(args) -> int:
    decomp, coloring = load_decomposition(args.file)
    n = decomp.config.n
    sizes = Counter(decomp.parts.sizes())
    print(f"n: {n} ({decomp.config.mode})")
    print(f"parts: {len(decomp.parts)}")
    for s in sorted(sizes):
        kind = {2: "singleton edges", 3: "triangles", 4: "K4s"}.get(s, f"size-{s}")
        print(f"  {kind}: {sizes[s]}")
    if coloring is not None:
        print(f"colors: {coloring.palette}")
        try:
            shown = f"{n * n / 9:.1f}"
        except OverflowError:  # beyond a float: five significant digits
            shown = str(decimal.Context(prec=5).divide(decimal.Decimal(n * n), 9))
        if 9 * coloring.palette > n * n:  # then n^2/9 < palette fits a float
            c_fit = (coloring.palette - n * n / 9) / n**1.5
            print(f"  n^2/9 = {shown}; palette = n^2/9 + {c_fit:.4f} * n^1.5")
        else:
            print(f"  n^2/9 = {shown}; palette within n^2/9 (C = 0)")
    for key, val in sorted(decomp.metadata.items()):
        if key != "levels":
            print(f"meta {key}: {val}")
    return 0


def cmd_render(args) -> int:
    t0 = time.perf_counter()
    decomp, coloring = load_decomposition(args.file)
    if args.color is not None and coloring is None:
        raise InputError(f"{args.file} has no coloring; --color selects a color class")
    svg = render_svg(
        decomp,
        coloring=coloring,
        color_filter=args.color,
        show_singletons=not args.no_singletons,
    )
    out = args.out or (os.path.splitext(args.file)[0] + ".svg")
    with open(out, "w") as fh:
        fh.write(svg)
    _write_manifest(out, "render", {"color": args.color}, None, t0)
    print(f"wrote {out}")
    return 0


def cmd_experiment(args) -> int:
    result = run_suites(list(SUITES) if args.suite == "all" else [args.suite])
    for rep in result["criteria"]:
        status = "PASS" if rep["pass"] else "FAIL"
        print(f"{status} criterion {rep['criterion']} ({rep['name']}) "
              f"in {rep['elapsed_s']}s")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(result, fh, sort_keys=True, indent=1, default=str)
            fh.write("\n")
        print(f"wrote {args.out}")
    print("overall:", "PASS" if result["pass"] else "FAIL")
    return 0 if result["pass"] else VALIDATION_ERROR


class _Parser(argparse.ArgumentParser):
    """Raises each usage error as InputError, so main reports it as one line."""

    def error(self, message):
        raise InputError(f"{self.prog}: {message}")


def _parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="geochroma",
        description="decompositions and colorings of complete geometric graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a configuration file")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--convex", action="store_true")
    g.add_argument("--seed", type=int, help="default 0; not with --convex")
    g.add_argument("--bound", type=int, help=f"default {GEN_BOUND}; not with --convex")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build a decomposition")
    b.set_defaults(func=cmd_build)
    families = b.add_subparsers(dest="construction", required=True)
    fam = {name: families.add_parser(name, help=text) for name, text in (
        ("edges", "one singleton part per edge"),
        ("thm3", "2q^2 edge-disjoint pairwise-crossing K4s on >= 7q+6 points"),
        ("thm4", "(n/3)^2 pairwise-crossing triangles on the convex n-gon"),
        ("thm5", "recursive triangle decomposition of points, colored"),
        ("thm32", "colored triangle decomposition of the convex (18k+1)-gon"),
    )}
    for name in ("edges", "thm3", "thm5"):  # thm3 may take -q alone
        points = fam[name].add_mutually_exclusive_group(required=name != "thm3")
        points.add_argument("-n", type=int, help="convex n-gon (edges) or generated points")
        points.add_argument("--config", help="input configuration file")
    fam["thm3"].add_argument("-q", type=int, help="plane order; default the largest that fits")
    fam["thm3"].add_argument("--seed", type=int, default=0)
    fam["thm4"].add_argument("-n", type=int, required=True, help="a multiple of 3")
    fam["thm5"].add_argument("--seed", type=int, help="default 0; not with --config")
    fam["thm32"].add_argument("-k", type=int, required=True, help="even, >= 4")
    for f in fam.values():
        f.add_argument("--out")

    c = sub.add_parser("color", help="color a decomposition file")
    c.add_argument("file")
    c.add_argument("--mode", choices=("greedy", "exact"), default="greedy")
    c.add_argument("--budget", type=int,
                   help=f"search nodes, default {EXACT_BUDGET}; exact mode only")
    c.add_argument("--out")
    c.set_defaults(func=cmd_color)

    v = sub.add_parser("verify", help="validate cover and coloring")
    v.add_argument("file")
    v.set_defaults(func=cmd_verify)

    s = sub.add_parser("stats", help="print decomposition statistics")
    s.add_argument("file")
    s.set_defaults(func=cmd_stats)

    r = sub.add_parser("render", help="render a decomposition to SVG")
    r.add_argument("file")
    r.add_argument("--out")
    drawn = r.add_mutually_exclusive_group()
    drawn.add_argument("--color", type=int, help="draw only this color class")
    drawn.add_argument("--no-singletons", action="store_true")
    r.set_defaults(func=cmd_render)

    e = sub.add_parser("experiment", help="run acceptance suites")
    e.add_argument("suite", choices=sorted(SUITES) + ["all"])
    e.add_argument("--out")
    e.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
