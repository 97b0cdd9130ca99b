"""Command-line front end.

    geochroma gen -n 27 --seed 1 --out pts.json
    geochroma build thm32 -k 4 --out dec.json
    geochroma color dec.json --mode exact
    geochroma verify dec.json
    geochroma stats dec.json
    geochroma render dec.json --out dec.svg --color 0
    geochroma experiment all

Exit codes: 0 success; 1 validation failed; 2 an InputError (a bad argument,
a malformed file, an unsupported order or an exhausted partition search) or
an OSError, reported as one `error:` line on stderr.  Any other exception is
a bug and shows its traceback.  Every command honors --seed and produces
byte-identical outputs for identical inputs; a run manifest (command,
parameters, seed, version, timing, output digests) is written next to each
--out file.
"""

from __future__ import annotations

import argparse
import decimal
import hashlib
import json
import os
import sys
import time

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


def _write_manifest(out_path: str, command: str, params: dict, seed, t0: float):
    with open(out_path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
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
    if args.convex:
        config = convex_configuration(args.n)
    else:
        config = generate_general_position(args.n, bound=args.bound, seed=args.seed)
    if args.out:
        save_config(config, args.out)
        _write_manifest(args.out, "gen", {"n": args.n, "mode": config.mode,
                                          "bound": args.bound}, args.seed, t0)
        print(f"wrote {args.out} ({config.mode}, n={config.n})")
    else:
        print(json.dumps(config_to_dict(config), sort_keys=True))
    return 0


def _build_config(args, need_mode):
    """The configuration from --config, or from -n: generated points when
    need_mode is "coordinates", else the convex n-gon."""
    if args.config:
        if args.n is not None:
            raise InputError("give -n or --config, not both")
        cfg = load_config(args.config)
        if need_mode is not None and cfg.mode != need_mode:
            raise InputError(f"{args.construction} needs a {need_mode} configuration")
        return cfg
    if args.n is None:
        raise InputError("provide -n or --config")
    if need_mode == "coordinates":
        return generate_general_position(args.n, seed=args.seed)
    return convex_configuration(args.n)


def cmd_build(args) -> int:
    t0 = time.perf_counter()
    coloring = None
    name = args.construction
    if args.config and name in ("thm4", "thm32"):
        raise InputError(f"{name} builds its own convex configuration; it takes no --config")
    if name == "edges":
        cfg = _build_config(args, None)  # a --config file of either mode; -n is convex
        decomp = trivial_edge_decomposition(cfg)
    elif name == "thm4":
        if args.n is None:
            raise InputError("thm4 needs -n (multiple of 3)")
        decomp, coloring = thm4_construction(args.n)
    elif name == "thm3":
        cfg = None
        if args.n is not None or args.config:
            cfg = _build_config(args, "coordinates")
        q = args.q
        if q is None:
            if cfg is None:
                raise InputError("thm3 needs -q, or -n/--config to derive it")
            q = largest_thm3_q(cfg.n)
        decomp, coloring = thm3_construction(q, config=cfg, seed=args.seed)
    elif name == "thm5":
        cfg = _build_config(args, "coordinates")
        decomp, coloring = thm5_construction(cfg)
    elif name == "thm32":
        if args.k is None:
            raise InputError("thm32 needs -k (even, >= 4)")
        decomp, coloring = thm32_construction(args.k)
    else:  # pragma: no cover - argparse restricts choices
        raise InputError(f"unknown construction {name}")
    out = args.out or f"{name}.json"
    save_decomposition(decomp, out, coloring=coloring)
    _write_manifest(out, f"build {name}",
                    {k: getattr(args, k) for k in ("n", "q", "k")},
                    args.seed, t0)
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
    decomp, _ = load_decomposition(args.file)
    g = conflict_graph(decomp)
    if args.mode == "greedy":
        coloring = greedy_color(g)
        print(f"greedy palette: {coloring.palette}")
    else:
        res = exact_chromatic_index(g, budget=args.budget)
        coloring = res.coloring
        flag = "exact" if res.optimal else "bounds-only"
        print(f"chromatic index: [{res.lower}, {res.upper}] ({flag})")
    bad = verify_coloring(decomp, coloring)
    if bad:
        print(f"coloring invalid: {len(bad)} violating pairs", file=sys.stderr)
        return VALIDATION_ERROR
    out = args.out or args.file
    save_decomposition(decomp, out, coloring=coloring)
    _write_manifest(out, f"color {args.mode}", {"budget": args.budget}, None, t0)
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
    sizes = {}
    for p in decomp.parts:
        sizes[len(p.vertices)] = sizes.get(len(p.vertices), 0) + 1
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


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="geochroma",
        description="decompositions and colorings of complete geometric graphs",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a configuration file")
    g.add_argument("-n", type=int, required=True)
    g.add_argument("--convex", action="store_true")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--bound", type=int, default=GEN_BOUND)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    b = sub.add_parser("build", help="build a decomposition")
    b.add_argument("construction", choices=("edges", "thm3", "thm4", "thm5", "thm32"))
    b.add_argument("-n", type=int)
    b.add_argument("-q", type=int)
    b.add_argument("-k", type=int)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--config", help="input configuration file")
    b.add_argument("--out")
    b.set_defaults(func=cmd_build)

    c = sub.add_parser("color", help="color a decomposition file")
    c.add_argument("file")
    c.add_argument("--mode", choices=("greedy", "exact"), default="greedy")
    c.add_argument("--budget", type=int, default=2_000_000)
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
    r.add_argument("--color", type=int, help="draw only this color class")
    r.add_argument("--no-singletons", action="store_true")
    r.set_defaults(func=cmd_render)

    e = sub.add_parser("experiment", help="run acceptance suites")
    e.add_argument("suite", choices=sorted(SUITES) + ["all"])
    e.add_argument("--out")
    e.set_defaults(func=cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = _parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
