"""geochroma benchmark: times whole CLI commands, and traces each layer.

    python3 perfbench/run.py --workload coords-build --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run makes the workload's inputs (set-up, repeated and
timed), then repeats the timed pass, one ``geochroma`` child process per
command, until ``--seconds`` are used.  It prints a report and, as its last
line, one JSON object with the end-to-end metrics of BENCHMARK.json.

With ``--trace 1`` it runs set-up and one pass as child processes, then the
same commands twice inside this process through ``geochroma.cli.main``: once
plain and once with every layer function wrapped (see tracing.py).  The last
line then holds the per-layer metrics, and ``trace.overhead_frac`` compares
the two in-process runs.

Every command's exit code, output and written bytes are checked; outputs must
be byte-identical between passes and between the child and traced runs.  A
failed check never stops the run: it counts in ``failed`` and makes
``correct`` false.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 3       # set-up is repeated and its median reported
MIN_PASSES = 2       # fewest timed passes, whatever --seconds says
PASS_BUDGET_S = 110  # no pass starts that would end later than this
CHILD_TIMEOUT_S = 150
STARTUP_PROBES = 5

# name -> unit of the end-to-end metrics; the gated ones are in BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "build_s": "s",
    "verify_s": "s",
    "color_s": "s",
    "parts_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
GATED = ("setup_s", "wall_s", "verify_s", "parts_per_s", "peak_rss_mb")


@dataclass
class Result:
    """One command's run."""

    cmd: workloads.Command
    seconds: float
    rss_mb: float
    problems: list[str]
    values: dict
    digest: str | None


@dataclass
class Tally:
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    def add(self, where: str, res: Result) -> None:
        self.attempted += 1
        if res.problems:
            self.failures.append(f"{where}: {res.cmd.label()}: {'; '.join(res.problems)}")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: str) -> tuple[float, float, int, str, str]:
    """Run a child to completion: (seconds, peak RSS in MB, exit code, out, err)."""
    out_path, err_path = os.path.join(cwd, ".stdout"), os.path.join(cwd, ".stderr")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, errors="replace") as fh:
        stderr = fh.read()
    return seconds, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr


def run_cli(cmd: workloads.Command, cwd: str, expect: dict) -> Result:
    seconds, rss, rc, out, err = run_child(
        [sys.executable, "-m", "geochroma.cli", *cmd.args], cwd)
    return finish(cmd, cwd, expect, seconds, rss, rc, out, err)


def run_inprocess(main, cmd: workloads.Command, cwd: str, expect: dict,
                  tracer: tracing.Tracer | None) -> Result:
    """Run one command through ``geochroma.cli.main`` inside this process."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args = list(cmd.args)
            rc = tracer.command(f"cli.{cmd.args[0]}", main, args) if tracer else main(args)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # the child would have died with this traceback
            traceback.print_exc()
            rc = 1
    seconds = time.perf_counter() - start
    return finish(cmd, cwd, expect, seconds, 0.0, rc, out.getvalue(), err.getvalue())


def finish(cmd, cwd, expect, seconds, rss, rc, out, err) -> Result:
    problems, values = workloads.check(cmd, rc, out, err, expect)
    digest = None
    if cmd.out is not None:
        try:
            with open(os.path.join(cwd, cmd.out), "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
        except FileNotFoundError:
            problems.append(f"{cmd.out} not written")
    if problems:
        problems.append(f"stderr: {err.strip()[-300:]!r}")
    return Result(cmd, seconds, rss, problems, values, digest)


def compare_digests(results: list[Result], reference: list[Result], what: str) -> None:
    for res, ref in zip(results, reference):
        if res.digest != ref.digest:
            res.problems.append(f"output bytes differ from {what}")


def fresh_dir(base: str, name: str) -> str:
    path = os.path.join(base, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


def translate(wl: workloads.Workload, cwd: str) -> None:
    for raw, dst, shift in wl.translations:
        workloads.translate_config(os.path.join(cwd, raw), os.path.join(cwd, dst), shift)


def do_setup(wl: workloads.Workload, cwd: str) -> tuple[float, list[Result]]:
    """Make the inputs the passes read.  The first command imports the CLI
    once, which also writes its bytecode cache."""
    start = time.perf_counter()
    run_child([sys.executable, "-c", "import geochroma.cli"], cwd)
    results = [run_cli(cmd, cwd, wl.expect) for cmd in wl.setup]
    translate(wl, cwd)
    return time.perf_counter() - start, results


def parts_per_pass(setup: list[Result], first_pass: list[Result]) -> int:
    """Parts written by each build and read by each verify or color command."""
    parts = {}
    for res in setup + first_pass:
        if "parts" in res.values:
            parts[res.cmd.out] = res.values["parts"]
        elif res.cmd.kind == "color":
            parts[res.cmd.out] = parts.get(res.cmd.reads, 0)
    return sum(parts.get(r.cmd.out if r.cmd.kind == "build" else r.cmd.reads, 0)
               for r in first_pass)


def high_percentile(samples: list[float]):
    """The highest of p99/p95/p90/p75 with at least ten samples above it, or None."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99, 95, 90, 75):
        idx = -(-p * n // 100) - 1  # nearest rank
        if n - 1 - idx >= 10:
            return p, ordered[idx]
    return None


# --- the untraced run --------------------------------------------------------------

def measure(wl: workloads.Workload, seconds: float, base: str) -> tuple[dict, Tally, list[str]]:
    tally = Tally()
    setup_times, first_setup = [], None
    for rep in range(SETUP_REPS):
        cwd = fresh_dir(base, "run")
        took, results = do_setup(wl, cwd)
        setup_times.append(took)
        if first_setup is None:
            first_setup = results
        else:
            compare_digests(results, first_setup, "the first set-up")
        for res in results:
            tally.add(f"set-up {rep + 1}", res)

    passes: list[list[Result]] = []
    walls = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = [run_cli(cmd, cwd, wl.expect) for cmd in wl.passes]
        walls.append(time.perf_counter() - t0)
        if passes:
            compare_digests(results, passes[0], "pass 1")
        passes.append(results)
        for res in results:
            tally.add(f"pass {len(passes)}", res)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + walls[-1] > seconds:
            break
        if elapsed + walls[-1] > PASS_BUDGET_S:
            break

    def per_pass(kinds):
        return statistics.median(
            sum(r.seconds for r in results if r.cmd.kind in kinds) for results in passes)

    wall = statistics.median(walls)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "build_s": per_pass(("gen", "build")),
        "verify_s": per_pass(("verify",)),
        "color_s": per_pass(("color",)),
        "parts_per_s": parts_per_pass(first_setup, passes[0]) / wall,
        "peak_rss_mb": max(r.rss_mb for results in passes for r in results),
        "fail_frac": len(tally.failures) / tally.attempted,
    }
    lines = [f"  {name:<12} {metrics[name]:>12.4f} {unit}" for name, unit in END_TO_END.items()]
    high = high_percentile(walls)
    lines.append(f"  wall_s: median of {len(walls)} passes; "
                 + (f"p{high[0]} = {high[1]:.4f} s" if high else
                    "no percentile above the median has 10 samples beyond it"))
    lines.append(f"  setup_s: median of {len(setup_times)} set-ups: "
                 + ", ".join(f"{t:.3f}" for t in setup_times))
    lines.append("  per command (median s over passes, peak RSS MB, reported values):")
    for i, cmd in enumerate(wl.passes):
        times = [results[i].seconds for results in passes]
        last = passes[-1][i]
        lines.append(f"    {statistics.median(times):8.3f} s {last.rss_mb:7.1f} MB  "
                     f"geochroma {cmd.label()}  {json.dumps(last.values, sort_keys=True)}")
    return metrics, tally, lines


# --- the traced run ----------------------------------------------------------------

def run_all_inprocess(main, wl, cwd, tracer, tally, reference, where) -> float:
    os.chdir(cwd)
    try:
        start = time.perf_counter()
        setup = [run_inprocess(main, c, cwd, wl.expect, tracer) for c in wl.setup]
        translate(wl, cwd)
        results = [run_inprocess(main, c, cwd, wl.expect, tracer) for c in wl.passes]
        took = time.perf_counter() - start
    finally:
        os.chdir(ROOT)
    compare_digests(setup + results, reference, "the child processes")
    for res in setup + results:
        tally.add(where, res)
    return took


def measure_traced(wl: workloads.Workload, base: str) -> tuple[dict, Tally, list[str]]:
    tally = Tally()
    cwd = fresh_dir(base, "children")
    _, setup = do_setup(wl, cwd)
    results = [run_cli(cmd, cwd, wl.expect) for cmd in wl.passes]
    for res in setup + results:
        tally.add("child run", res)
    reference = setup + results

    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import geochroma.cli

    if not os.path.abspath(geochroma.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"geochroma imported from {geochroma.cli.__file__}, not {SRC}")
    main = geochroma.cli.main
    # a first in-process run pays one-off costs (lazy imports, heap growth);
    # after it, plain and traced runs alternate so drift hits both alike
    run_all_inprocess(main, wl, fresh_dir(base, "warm"), None, tally, reference, "warm-up run")
    plain, traced, tracers = [], [], []
    for i in range(2):
        tracer = tracing.Tracer()
        undo = tracing.install(tracer)
        try:
            traced.append(run_all_inprocess(main, wl, fresh_dir(base, "traced"), tracer,
                                            tally, reference, f"traced run {i + 1}"))
        finally:
            tracing.uninstall(undo)
        tracers.append(tracer)
        plain.append(run_all_inprocess(main, wl, fresh_dir(base, "plain"), None,
                                       tally, reference, f"plain run {i + 1}"))
    tally.attempted += 1
    if tracers[0].exact_counts() != tracers[1].exact_counts():
        tally.failures.append("counts differ between the two traced runs")
    tracer = tracers[-1]

    startup = []
    for _ in range(STARTUP_PROBES):
        seconds, _, rc, _, err = run_child([sys.executable, "-c", "import geochroma.cli"], cwd)
        startup.append(seconds)
        tally.attempted += 1
        if rc != 0:
            tally.failures.append(f"import geochroma.cli failed: {err.strip()[-300:]!r}")

    fired = tracer.fired()
    for name in wl.must_fire:
        tally.attempted += 1
        if name not in fired:
            tally.failures.append(f"expected span or counter {name} never fired")

    metrics = tracer.layer_metrics()
    metrics["cli.startup_s"] = statistics.median(startup)
    metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1
    lines = [f"  {name:<44} {value:>16.6g} {tracing.LAYER_METRICS[name][0]}"
             for name, value in metrics.items()]
    lines.append("  in-process runs: plain " + ", ".join(f"{t:.3f}" for t in plain)
                 + " s; traced " + ", ".join(f"{t:.3f}" for t in traced) + " s")
    lines.append("  exact counts: " + json.dumps(tracer.exact_counts(), sort_keys=True))
    return metrics, tally, lines


# --- entry point ------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "geochroma", "cli.py")):
        print(f"error: no geochroma source at {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def run(name: str, seed: int, seconds: float, trace: int, tiny: bool = False) -> dict:
    """Run one workload and return the result object the last line prints."""
    wl = workloads.make(name, seed, tiny)
    os.makedirs(WORK, exist_ok=True)
    base = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK)
    try:
        if trace:
            metrics, tally, lines = measure_traced(wl, base)
            units = {k: v[0] for k, v in tracing.LAYER_METRICS.items()}
        else:
            metrics, tally, lines = measure(wl, seconds, base)
            units = END_TO_END
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(f"workload {name}, seed {seed}, trace {trace}: "
          f"{tally.attempted} checks, {len(tally.failures)} failed")
    for line in lines + [f"  FAILED {f}" for f in tally.failures]:
        print(line)
    shown = metrics if trace else {k: metrics[k] for k in GATED}
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in shown.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
