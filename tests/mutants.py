"""Mutation gate: each mutant listed here must be killed by its tests.

A mutant is one exact edit to a module of ``src/instrumenta``, the test
files that must fail once it is made, and the change whose checks found
it (its commit subject).  For each mutant this script copies ``src/`` to
a temporary directory and runs the test files on the copy with
``pytest -x -q``: first unmutated, where they must pass, then with the
edit made, where they must fail.  An old text that does not occur
exactly once fails the gate too, so a rewrite of the code it names
updates the mutant with it.

Run from anywhere, with pytest installed:

    python tests/mutants.py
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    file: str  # a module of src/instrumenta
    old: str
    new: str
    tests: tuple[str, ...]  # paths from the repository root
    found: str


MUTANTS = [
    Mutant(
        "optimizer.py",
        "self.calls[caller.mangled_name] |= self.calls[callee.mangled_name]",
        "pass",
        ("tests/test_inherited_edge.py",),
        "Compute the inliner's callers, the loop solve and the syntax lookup where they are read",
    ),
    Mutant(
        "runtime.py",
        'by_kind[b"E"][b"%d" % handle], by_kind[b"X"][b"%d" % handle] = handle, -handle',
        "pass",
        ("tests/test_line_loop.py",),
        "One loop reads every trace chunk the column decoder refuses",
    ),
    Mutant(
        "analysis.py",
        "row[2] += duration\n                frame[2] += duration\n                break\n",
        "row[2] += duration\n                break\n",
        ("tests/test_leaf_visits.py",),
        "Replay each leaf visit in one step in build_profile and the trace reader's nesting check",
    ),
    # The demangler reads only the first of a nested name's parts.
    Mutant(
        "symbols.py",
        'if not nested or mangled[pos : pos + 1] == "E":',
        "if True:",
        ("tests/test_symbols_oracle.py",),
        "One path per job where function names become filter decisions",
    ),
    # The read-back check accepts a pretty name that holds a "*".
    Mutant(
        "filters.py",
        '"*" in name or "?" in name',
        '"?" in name',
        ("tests/test_suggest_refilter.py",),
        "One path per job where function names become filter decisions",
    ),
    # A file block strips MANGLED like a region block.
    Mutant(
        "filters.py",
        'mangled = block == "region" and rest.partition(" ")[0] == "MANGLED"',
        'mangled = rest.partition(" ")[0] == "MANGLED"',
        ("tests/test_filters.py",),
        "One path per job where function names become filter decisions",
    ),
    # compare_runs starts a canonical name's counts again at each definition.
    Mutant(
        "analysis.py",
        "regions.setdefault(d.canonical_name, (d.name, [0] * len(runs)))",
        "regions[d.canonical_name] = (d.name, [0] * len(runs))",
        ("tests/test_analysis.py",),
        "One path per job where function names become filter decisions",
    ),
    # The func header reader accepts a repeated key.
    Mutant(
        "ir.py",
        "        if key in fields:\n",
        "        if False:\n",
        ("tests/test_ir.py",),
        "One path per job in the text front ends",
    ),
    # The printer refuses a misshapen instruction without judging it first.
    Mutant(
        "ir.py",
        "        _judge(ins)  # stores the verdict validate would\n",
        "",
        ("tests/test_compile_path.py",),
        "One path per job in the text front ends",
    ),
    # A malformed string short of a ';' loses the rest of its line.
    Mutant(
        "ir.py",
        'return line[:end] if line.startswith(";", end) else line',
        "return line[:end]",
        ("tests/test_string_oracle.py",),
        "One path per job in the text front ends",
    ),
    # The line loop splits a line at each single space.
    Mutant(
        "runtime.py",
        "fields = _split_trace_line(line, lineno)",
        'fields = line.split(" ")',
        ("tests/test_line_loop.py",),
        "One path per job in the text front ends",
    ),
]


def _passes(src: Path, tests: tuple[str, ...]) -> bool:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True)
    return done.returncode == 0


def _check(mutant: Mutant) -> str | None:
    """None if ``mutant`` is killed, else why the gate fails on it."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "instrumenta" / mutant.file
        text = path.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return f"the old text occurs {text.count(mutant.old)} times, not once"
        if not _passes(src, mutant.tests):
            return "the tests fail on the unmutated copy"
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        if _passes(src, mutant.tests):
            return "the mutant survives"
    return None


def main() -> int:
    failed = 0
    for mutant in MUTANTS:
        problem = _check(mutant)
        status = "killed" if problem is None else f"FAILED: {problem} (found by: {mutant.found})"
        print(f"{mutant.file}: {mutant.old.strip()[:60]!r} -> {' '.join(mutant.tests)}: {status}")
        failed += problem is not None
    print(f"{len(MUTANTS)} mutants, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
