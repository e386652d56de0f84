"""instrumenta benchmark: the CLI pipeline, timed end to end and by layer.

    python3 perfbench/run.py --workload trace_loop --seed 1 --seconds 25 --trace 0

One process, one client, closed loop: each iteration runs the
workload's command sequence through ``instrumenta.cli.main`` in-process,
one command after the other, then checks every output.  With
``--trace 0`` it prints the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced iterations and prints the per-layer
metrics.  The last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import checks
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINS = Path(__file__).resolve().parent / "pins.json"

SETUPS = 3          # set-up repetitions behind the setup_s median
TAIL_BEYOND = 10    # samples that must lie beyond the tail percentile

# Host speed calibration.  The reference loops run before the first and
# after every command; each command's wall time is scaled by
# REF_SECONDS over the mean of the two measurements around it.  Times
# are thus seconds at the speed where the loops take REF_SECONDS (about
# an idle core of a 2-vCPU x86-64 VM), which cancels the slow phases of
# a shared host that otherwise move a run's median by 30% or more.
REF_SECONDS = 0.0045


def reference() -> float:
    """Geometric mean of three loops a busy host slows in different ways:
    integer arithmetic, allocation in a small reused heap, and
    allocation in a larger heap.  The collector is off, so its passes
    do not time the benchmark's own heap."""
    gc.disable()
    try:
        t0 = perf_counter()
        total = 0
        for i in range(100_000):
            total += i
        t1 = perf_counter()
        for _ in range(4):
            table = {i: (i, str(i), [i]) for i in range(5_000)}
            " ".join(row[1] for row in table.values()).split()
        t2 = perf_counter()
        table = {i: (i, str(i), [i]) for i in range(20_000)}
        " ".join(row[1] for row in table.values()).split()
        t3 = perf_counter()
        return ((t1 - t0) * (t2 - t1) * (t3 - t2)) ** (1 / 3)
    finally:
        gc.enable()


def import_toolchain():
    """Import instrumenta afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m == "instrumenta" or m.startswith("instrumenta.")]:
        del sys.modules[name]
    cli = importlib.import_module("instrumenta.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"instrumenta imported from {cli.__file__}, not {SRC}")
    return cli


def run_iteration(cli, wl, recorder=None) -> tuple[float, float, list[checks.StepOutput]]:
    """Run the command sequence once.

    Returns the iteration's scaled and wall seconds (the sums over its
    commands) and each command's output.  Outputs of the previous
    iteration are removed first, so every check reads fresh files.
    """
    for path in Path().iterdir():
        if path.name not in wl.files:
            path.unlink()
    gc.collect()
    outputs = []
    before = reference()
    for step in wl.steps:
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        span = recorder.begin(spans.COMMAND) if recorder else None
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(step.argv))
        except Exception as exc:  # a crashing command is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        finally:
            wall = perf_counter() - t0
            if recorder:
                recorder.end(span)
        after = reference()
        scaled = wall * REF_SECONDS / ((before + after) / 2)
        before = after
        outputs.append(checks.StepOutput(code, out.getvalue(), err.getvalue(), error,
                                         scaled, wall))
    return sum(o.seconds for o in outputs), sum(o.wall for o in outputs), outputs


def phase_seconds(wl, outputs, phase: str) -> float:
    return sum(o.seconds for s, o in zip(wl.steps, outputs) if s.phase == phase)


def setup(name: str, seed: int, workdir: Path, checker: checks.Checker):
    """Import, generate and write the inputs, and run one checked warm-up.

    Returns the scaled set-up seconds, the CLI module and the workload.
    """
    before = reference()
    t0 = perf_counter()
    cli = import_toolchain()
    wl = workloads.build(name, seed)
    for old in workdir.iterdir():
        old.unlink()
    for fname, text in wl.files.items():
        (workdir / fname).write_text(text)
    prepare = (perf_counter() - t0) * REF_SECONDS / ((before + reference()) / 2)
    warmup, _, outputs = run_iteration(cli, wl)
    checker.check_iteration(wl.steps, outputs)
    return prepare + warmup, cli, wl


def roundtrip(text: str) -> str:
    """print(parse(text)) with the instrumenta imported last."""
    ir = sys.modules["instrumenta.ir"]
    return ir.print_module(ir.parse_module(text))


def new_checker(name: str, seed: int, workdir: Path) -> checks.Checker:
    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    return checks.Checker(workdir, roundtrip, pins.get(name, {}).get(str(seed), {}))


def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with TAIL_BEYOND samples beyond it.

    With fewer than TAIL_BEYOND + 1 samples no percentile qualifies and
    the median stands in for it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return statistics.median(ordered), f"p50 of {n} (no percentile has {TAIL_BEYOND} beyond it)"
    k = n - TAIL_BEYOND - 1
    return ordered[k], f"p{100 * (k + 1) / n:.1f} of {n}"


def unit_of(metric: str) -> str:
    for suffix, unit in (("lines_per_s", "lines/s"), ("events_per_s", "events/s"),
                         ("mb_per_s", "MB/s"), ("_s", "s"), ("ratio", "ratio"),
                         ("bytes", "bytes"), ("ticks", "ticks"), ("_mb", "MB")):
        if metric.endswith(suffix):
            return unit
    return "count"


def measure(name: str, seed: int, seconds: float, workdir: Path):
    checker = new_checker(name, seed, workdir)
    setups = []
    for _ in range(SETUPS):
        setup_s, cli, wl = setup(name, seed, workdir, checker)
        setups.append(setup_s)
    iterations = []
    start = perf_counter()
    while not iterations or perf_counter() - start < seconds:
        scaled, wall, outputs = run_iteration(cli, wl)
        checker.check_iteration(wl.steps, outputs)
        iterations.append((scaled, wall, outputs))
    scaled = [s for s, _, _ in iterations]
    tail_s, tail_note = tail(scaled)
    n = len(iterations)

    def med(phase):
        return statistics.median(phase_seconds(wl, o, phase) for _, _, o in iterations)

    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_s": statistics.median(scaled),
        "pipeline_tail_s": tail_s,
        "compile_s": med("compile"),
        "run_s": med("run"),
        "analyze_s": med("analyze"),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    wall = statistics.median(w for _, w, _ in iterations)
    notes = {"setup_s": f"median of {SETUPS}", "pipeline_tail_s": tail_note,
             "peak_rss_mb": "whole process",
             "pipeline_s": f"median of {n}; unscaled wall median {wall:.4g} s"}
    for key in ("compile_s", "run_s", "analyze_s"):
        notes[key] = f"median of {n}"
    return metrics, notes, checker


def measure_traced(name: str, seed: int, seconds: float, workdir: Path):
    checker = new_checker(name, seed, workdir)
    _, cli, wl = setup(name, seed, workdir, checker)
    modules = {m: sys.modules[f"instrumenta.{m}"]
               for m in ("cli", "ir", "instrument", "optimizer", "vm", "runtime")}
    recorder = spans.Recorder(modules)
    traced, untraced, scales = [], [], []
    start = perf_counter()
    while not traced or perf_counter() - start < seconds:
        scaled, _, outputs = run_iteration(cli, wl)
        checker.check_iteration(wl.steps, outputs)
        untraced.append(scaled)
        recorder.install()
        try:
            scaled, wall, outputs = run_iteration(cli, wl, recorder)
        finally:
            recorder.uninstall()
        checker.check_iteration(wl.steps, outputs)
        traced.append(scaled)
        scales.append(scaled / wall)
    recorder.write(OUT / f"spans-{name}-seed{seed}.json")
    metrics = spans.layer_metrics(recorder.per_iteration(scales), traced, untraced)
    note = f"median of {len(traced)} traced iterations"
    notes = {key: note for key in metrics}
    notes["trace_overhead_s"] = f"medians of {len(traced)} traced and {len(untraced)} untraced"
    return metrics, notes, checker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "instrumenta" / "cli.py").is_file():
        print(f"error: no instrumenta sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    try:
        # Commands name their files relative to the work directory, so
        # nothing the toolchain writes depends on where the checkout is.
        os.chdir(workdir)
        measure_fn = measure_traced if args.trace else measure
        metrics, notes, checker = measure_fn(args.workload, args.seed, args.seconds, workdir)
    except ImportError as exc:
        print(f"error: cannot import instrumenta: {exc}", file=sys.stderr)
        return 2
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for key, value in metrics.items():
        print(f"  {key:36} {value:14.6g} {unit_of(key):9} {notes.get(key, '')}")
    print(f"  {'failed_ops':36} {checker.failed}/{checker.attempted}")
    for problem in checker.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
