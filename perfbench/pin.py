"""Pin the model's outputs per workload and seed.

    python3 perfbench/pin.py --seeds 0-31

Runs one checked iteration of every workload for each seed and writes
the exit value, ticks and trace digest of every ``run`` command to
``perfbench/pins.json``.  ``run.py`` then fails any command whose values
differ from the pinned ones for its seed: a performance change must
keep the model's cost and the trace bytes identical.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def pin(name: str, seed: int, workdir) -> dict:
    checker = run.checks.Checker(workdir, run.roundtrip)
    _, _, wl = run.setup(name, seed, workdir, checker)
    if checker.failed:
        raise SystemExit(f"{name} seed {seed}: {checker.problems}")
    return {
        step.label: {k: v for k, v in checker.first_seen[step.label].items()
                     if k in ("exit", "ticks", "trace")}
        for step in wl.steps if step.argv[0] == "run"
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", required=True, help="inclusive range, e.g. 0-31")
    args = parser.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    sys.path.insert(0, str(run.SRC))
    workdir = run.OUT / f"pin-{os.getpid()}"
    workdir.mkdir(parents=True)
    cwd = os.getcwd()
    pins: dict = {}
    try:
        os.chdir(workdir)
        for name in workloads.WORKLOADS:
            pins[name] = {str(seed): pin(name, seed, workdir) for seed in range(lo, hi + 1)}
            print(f"pinned {name} seeds {lo}-{hi}", file=sys.stderr)
    finally:
        os.chdir(cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
