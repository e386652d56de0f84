"""Output checks for every command of an iteration.

The scanners here read the toolchain's text outputs (modules, filters,
command stdout) with their own few lines of parsing, so a check never
trusts the code it is checking.  The one exception is the
print -> parse -> print round trip, whose point is to exercise
instrumenta's own parser and printer.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass, field
from pathlib import Path

_CANONICAL = re.compile(r'canonical="([^"\\]*)"')
_COUNTS = re.compile(r"instrumented (\d+) function\(s\), skipped (\d+)")


@dataclass
class StepOutput:
    """What one CLI command produced."""

    code: int | None            # None when the command raised
    stdout: str
    stderr: str
    error: str | None
    seconds: float              # scaled to the reference speed, see run.py
    wall: float


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()[:16]


def scan_module(text: str) -> tuple[dict[str, bool], set[str], list[str]]:
    """Return {function: has hooks}, the extern names and region canonicals."""
    hooks: dict[str, bool] = {}
    externs: set[str] = set()
    regions: list[str] = []
    current = None
    for line in text.splitlines():
        if line.startswith("func @"):
            current = line[len("func @"):].split(" ", 1)[0]
            hooks[current] = False
        elif line.startswith("extern @"):
            externs.add(line[len("extern @"):].strip())
        elif line.startswith("  hook.") and current is not None:
            hooks[current] = True
        elif line.startswith("region "):
            mo = _CANONICAL.search(line)
            regions.append(mo.group(1) if mo else "")
    return hooks, externs, regions


def parse_report(stdout: str) -> dict[str, int]:
    """Region name -> visits from ``report``; names may contain spaces."""
    visits: dict[str, int] = {}
    for line in stdout.splitlines()[1:]:
        name, count, _incl, _excl = line.rsplit(None, 3)
        visits[name.strip()] = int(count)
    return visits


def parse_run(stdout: str) -> dict[str, str]:
    """The ``key: value`` lines that ``run`` prints."""
    out = {}
    for line in stdout.splitlines():
        key, _, value = line.partition(": ")
        out[key] = value
    return out


def parse_excludes(text: str) -> set[str]:
    return {
        line.strip()[len("EXCLUDE "):]
        for line in text.splitlines()
        if line.strip().startswith("EXCLUDE ")
    }


def parse_compare(stdout: str) -> tuple[list[int], dict[str, int]]:
    """Enter counts per run, and each region's delta in the last run."""
    enters: list[int] = []
    deltas: dict[str, int] = {}
    lines = stdout.splitlines()
    i = 1
    while i < len(lines) and lines[i]:
        enters.append(int(lines[i].rsplit(None, 1)[1]))
        i += 1
    for line in lines[i + 2:]:
        name, _, values = line.strip().rpartition(": ")
        deltas[name] = int(values.split()[-1])
    return enters, deltas


@dataclass
class Checker:
    """Counts attempted and failed commands; remembers what must repeat.

    ``pins`` maps step labels to the values pinned for this workload and
    seed (exit, ticks, trace digest); steps not pinned are only compared
    across iterations.
    """

    workdir: Path
    roundtrip: object               # text -> text, via instrumenta
    pins: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    first_seen: dict[str, dict] = field(default_factory=dict)
    roundtripped: set[str] = field(default_factory=set)

    def check_iteration(self, steps, outputs: list[StepOutput]) -> None:
        for step, out in zip(steps, outputs):
            self.attempted += 1
            try:
                errors = self.check_step(step, out)
            except (OSError, ValueError, IndexError) as exc:  # output missing or malformed
                errors = [f"unreadable output: {type(exc).__name__}: {exc}"]
            if errors:
                self.failed += 1
                self.problems.append(f"{step.label}: " + "; ".join(errors))

    def check_step(self, step, out: StepOutput) -> list[str]:
        if out.error is not None:
            return [f"raised {out.error}"]
        if out.code != 0:
            return [f"exit code {out.code}: {out.stderr.strip()[:200]}"]
        expect = step.expect
        command = step.argv[0]
        errors: list[str] = []
        observed: dict[str, object] = {}
        if command == "instrument":
            text = (self.workdir / step.argv[step.argv.index("-o") + 1]).read_text()
            errors += self._check_module(text, out.stderr, expect)
            observed["module"] = digest(text)
        elif command == "run":
            fields = parse_run(out.stdout)
            exit_value, ticks = fields.get("exit"), fields.get("ticks")
            observed.update(exit=exit_value, ticks=ticks)
            if exit_value != str(expect["exit"]):
                errors.append(f"exit {exit_value}, expected {expect['exit']}")
            if "ticks" in expect and ticks != str(expect["ticks"]):
                errors.append(f"ticks {ticks}, expected {expect['ticks']}")
            enters = sum(expect["visits"].values())
            if not fields.get("events", "").endswith(f"({enters} enters)"):
                errors.append(f"events '{fields.get('events')}', expected {enters} enters")
            if "trace" in expect:
                observed["trace"] = digest((self.workdir / expect["trace"]).read_text())
        elif command == "report":
            visits = parse_report(out.stdout)
            if visits != expect["visits"]:
                errors.append(f"visits differ from expected: {_diff(visits, expect['visits'])}")
            observed["stdout"] = digest(out.stdout)
        elif command == "suggest-filter":
            text = (self.workdir / step.argv[step.argv.index("-o") + 1]).read_text()
            if parse_excludes(text) != expect["suggested"]:
                errors.append(f"suggested {sorted(parse_excludes(text))}, "
                              f"expected {sorted(expect['suggested'])}")
            observed["filter"] = digest(text)
        elif command == "compare":
            enters, deltas = parse_compare(out.stdout)
            if enters != expect["enters"] or deltas != expect["deltas"]:
                errors.append(f"compare shows {enters} {deltas}")
            observed["stdout"] = digest(out.stdout)
        errors += self._check_repeats(step.label, observed)
        return errors

    def _check_module(self, text: str, stderr: str, expect: dict) -> list[str]:
        errors = []
        hooks, externs, regions = scan_module(text)
        hooked = {name for name, has in hooks.items() if has}
        if set(hooks) != expect["defined"]:
            errors.append("emitted module does not define exactly the input's functions")
        if hooked != expect["instrumented"]:
            errors.append(f"instrumented {len(hooked)} functions, expected "
                          f"{len(expect['instrumented'])}: {_diff_sets(hooked, expect['instrumented'])}")
        if sorted(regions) != sorted(hooked) or len(set(regions)) != len(regions):
            errors.append("region table does not name each hooked function once")
        mo = _COUNTS.search(stderr)
        if not mo:
            errors.append("no instrumented/skipped counts on stderr")
        elif (int(mo.group(1)) != len(hooked)
              or int(mo.group(1)) + int(mo.group(2)) != len(hooks) + len(externs)):
            errors.append(f"counts '{mo.group(0)}' do not split the "
                          f"{len(hooks) + len(externs)} functions")
        key = digest(text)
        if key not in self.roundtripped:
            if self.roundtrip(text) != text:
                errors.append("print(parse(module)) is not byte-identical")
            else:
                self.roundtripped.add(key)
        return errors

    def _check_repeats(self, label: str, observed: dict) -> list[str]:
        errors = []
        first = self.first_seen.setdefault(label, observed)
        for key, value in observed.items():
            if first.get(key) != value:
                errors.append(f"{key} changed between iterations: {first.get(key)} -> {value}")
            pinned = self.pins.get(label, {}).get(key)
            if pinned is not None and str(pinned) != str(value):
                errors.append(f"{key} {value} differs from the pinned {pinned}")
        return errors


def _diff(got: dict, want: dict) -> str:
    keys = sorted(set(got) | set(want))
    bad = [f"{k}: {got.get(k)} vs {want.get(k)}" for k in keys if got.get(k) != want.get(k)]
    return ", ".join(bad[:5]) + (f" (+{len(bad) - 5} more)" if len(bad) > 5 else "")


def _diff_sets(got: set, want: set) -> str:
    extra, missing = sorted(got - want)[:3], sorted(want - got)[:3]
    return f"unexpected {extra}, missing {missing}"
