"""Command-line driver: instrument, run, report, compare, suggest-filter.

Exit codes: 0 success, 1 usage error, 2 input or validation error.
Diagnostics go to stderr; data goes to files or stdout.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys
from pathlib import Path

from .analysis import build_profile, compare_runs, format_profile, suggest_filter
from .filters import FilterParseError, FilterRuleSet, parse_filter
from .instrument import InstrumentError, instrument_module
from .ir import IrError, parse_module, print_module
from .optimizer import OptLevel
from .runtime import TraceError, read_trace, write_trace
from .vm import DEFAULT_STEP_LIMIT, CostModel, VmError, execute


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage problems, not argparse's 2
        raise _UsageError(message)


# `run` flags that override a CostModel field, by field name.
_COST_FLAGS = {
    "--hook-guard": "hook_guard",
    "--hook-event": "hook_event",
    "--hook-register": "hook_register_first",
}


# Built once per process: parse_args fills a new Namespace on every call.
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="instrumenta")
    sub = parser.add_subparsers(dest="command", required=True)

    p_instr = sub.add_parser("instrument", help="insert monitoring hooks")
    p_instr.add_argument("input")
    p_instr.add_argument("-o", "--output", required=True)
    p_instr.add_argument("--mode", required=True, choices=["auto", "plugin"])
    p_instr.add_argument(
        "-O", dest="level", required=True, choices=["0", "1", "2", "3"]
    )
    p_instr.add_argument("--filter", dest="filter_file")

    p_run = sub.add_parser("run", help="execute a module under the cost model")
    p_run.add_argument("input")
    p_run.add_argument("--trace")
    p_run.add_argument("--runtime-filter")
    for flag, cost in _COST_FLAGS.items():
        p_run.add_argument(flag, dest=cost, type=int)
    p_run.add_argument("--step-limit", type=int, default=DEFAULT_STEP_LIMIT)

    p_report = sub.add_parser("report", help="print a profile of a trace")
    p_report.add_argument("trace")

    p_cmp = sub.add_parser("compare", help="compare enter counts across traces")
    p_cmp.add_argument("runs", nargs="+", metavar="label=trace.trc")

    p_sug = sub.add_parser("suggest-filter", help="derive exclude rules from a trace")
    p_sug.add_argument("trace")
    p_sug.add_argument("--max-ticks-per-visit", type=int, required=True)
    p_sug.add_argument("--min-visits", type=int, required=True)
    p_sug.add_argument("-o", "--output")
    return parser


def _positive(name: str, value: int | None) -> None:
    if value is not None and value <= 0:
        raise _UsageError(f"{name} must be positive")


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot read {path}: {exc.strerror}") from exc


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _InputError(f"cannot write {path}: {exc.strerror}") from exc


class _InputError(Exception):
    pass


def _cmd_instrument(args) -> int:
    module = parse_module(_read_text(args.input), source_name=args.input)
    rules = FilterRuleSet()
    if args.filter_file:
        rules = parse_filter(_read_text(args.filter_file))
        if args.mode == "auto":
            print(
                "note: compile-time filter rules are ignored in auto mode",
                file=sys.stderr,
            )
    level = OptLevel(f"O{args.level}")
    instrumented, report, _ = instrument_module(module, rules, args.mode, level)
    _write_text(args.output, print_module(instrumented))
    print(
        f"instrumented {len(report.instrumented)} function(s), "
        f"skipped {len(report.skipped)}",
        file=sys.stderr,
    )
    return 0


def _cmd_run(args) -> int:
    overrides = {}
    for flag, cost in _COST_FLAGS.items():
        value = getattr(args, cost)
        if value is not None:
            _positive(flag, value)
            overrides[cost] = value
    _positive("--step-limit", args.step_limit)
    module = parse_module(_read_text(args.input), source_name=args.input)
    rules = None
    if args.runtime_filter:
        rules = parse_filter(_read_text(args.runtime_filter))
    costs = CostModel(**overrides)
    result = execute(module, costs=costs, runtime_rules=rules, step_limit=args.step_limit)
    if args.trace:
        _write_text(args.trace, write_trace(result.events))
    status = "uncaught-exception" if result.uncaught else str(result.exit_value)
    # execute returns only balanced traces: one X record for every E.
    enters = (len(result.events) - len(result.events.definitions)) // 2
    print(f"exit: {status}")
    print(f"ticks: {result.total_ticks}")
    print(f"events: {len(result.events)} ({enters} enters)")
    print(f"max-depth: {result.max_depth}")
    return 0


def _cmd_report(args) -> int:
    events = read_trace(_read_text(args.trace))
    profile = build_profile(events)
    sys.stdout.write(format_profile(profile))
    return 0


def _cmd_compare(args) -> int:
    runs = []
    for item in args.runs:
        label, sep, path = item.partition("=")
        if not sep or not label or not path:
            raise _UsageError(f"expected label=trace.trc, got '{item}'")
        runs.append((label, read_trace(_read_text(path))))
    comparison = compare_runs(runs)
    width = max(len(label) for label, _ in comparison.rows)
    print(f"{'run':<{width}}  enters")
    for label, count in comparison.rows:
        print(f"{label:<{width}}  {count}")
    if comparison.per_region:
        print()
        print("region deltas (vs first run):")
        for region in comparison.per_region:
            deltas = "  ".join(f"{d:+d}" for d in region.deltas)
            print(f"  {region.name}: {deltas}")
    return 0


def _cmd_suggest(args) -> int:
    _positive("--max-ticks-per-visit", args.max_ticks_per_visit)
    _positive("--min-visits", args.min_visits)
    events = read_trace(_read_text(args.trace))
    profile = build_profile(events)
    text = suggest_filter(profile, args.max_ticks_per_visit, args.min_visits)
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)
    return 0


_COMMANDS = {
    "instrument": _cmd_instrument,
    "run": _cmd_run,
    "report": _cmd_report,
    "compare": _cmd_compare,
    "suggest-filter": _cmd_suggest,
}


def main(argv: list[str] | None = None) -> int:
    # A command leaves almost no reference cycles behind, so the cyclic
    # collector is paused for it; the caller's setting comes back after.
    parser = _build_parser()
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except (_InputError, IrError, FilterParseError, TraceError, InstrumentError,
            VmError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
