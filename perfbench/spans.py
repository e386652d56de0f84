"""Span recorder for the traced run.

The recorder wraps each layer's public functions at the module
attributes the CLI and the pipeline look them up through (for example
``instrumenta.cli.execute`` or ``instrumenta.instrument.inline_pass``),
so nothing under ``src/`` changes.  Spans nest through a stack; a
span's self time is its duration minus that of its direct children.
Spans stay in memory and are written out when the benchmark ends.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# (module, attribute, span name).  One name may be reached through
# several modules; every lookup site is wrapped on its own.
TARGETS = (
    ("cli", "parse_module", "ir.parse_module"),
    ("cli", "print_module", "ir.print_module"),
    ("cli", "parse_filter", "filters.parse_filter"),
    ("cli", "instrument_module", "instrument.instrument_module"),
    ("cli", "execute", "vm.execute"),
    ("cli", "write_trace", "runtime.write_trace"),
    ("cli", "read_trace", "runtime.read_trace"),
    ("cli", "build_profile", "analysis.build_profile"),
    ("cli", "compare_runs", "analysis.compare_runs"),
    ("cli", "suggest_filter", "analysis.suggest_filter"),
    ("ir", "validate", "ir.validate"),
    ("ir", "demangle", "symbols.demangle"),
    ("instrument", "validate", "ir.validate"),
    ("instrument", "classify", "filters.classify"),
    ("instrument", "inline_pass", "optimizer.inline_pass"),
    ("optimizer", "validate", "ir.validate"),
    ("vm", "validate", "ir.validate"),
    ("runtime", "classify", "filters.classify"),
)

COMMAND = "cli.main"


def _instruction_count(module) -> int:
    return sum(len(b.instructions) for f in module.functions for b in f.blocks)


# Counts taken from a span's arguments or result: name -> [(counter, fn)].
COUNTERS = {
    "ir.parse_module": [("lines", lambda args, r: args[0].count("\n"))],
    "ir.print_module": [("instrs_out", lambda args, r: _instruction_count(args[0]))],
    "optimizer.inline_pass": [
        ("sites_inlined", lambda args, r: len(r[1].inlined_sites)),
        ("sites_skipped", lambda args, r: len(r[1].skipped)),
    ],
    "instrument.instrument_module": [
        ("functions_instrumented", lambda args, r: len(r[1].instrumented)),
        ("functions_skipped", lambda args, r: len(r[1].skipped)),
    ],
    "vm.execute": [
        ("ticks", lambda args, r: r.total_ticks),
        ("events", lambda args, r: len(r.events)),
    ],
    "runtime.write_trace": [("bytes", lambda args, r: len(r))],  # the traces are ASCII
    "runtime.read_trace": [("events", lambda args, r: len(r))],
}


class Recorder:
    """Holds the spans of every traced iteration.

    A span is ``[name, start, end, parent, iteration]``; counters are
    summed per iteration under ``"<span name>.<counter>"``.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.counts: list[dict[str, int]] = []
        self.stack: list[int] = []
        self.originals: list[tuple] = []

    def install(self) -> None:
        self.counts.append(defaultdict(int))
        for mod_name, attr, name in TARGETS:
            mod = self.modules[mod_name]
            fn = getattr(mod, attr)
            self.originals.append((mod, attr, fn))
            setattr(mod, attr, self._wrap(fn, name))

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self.originals):
            setattr(mod, attr, fn)
        self.originals.clear()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, len(self.counts) - 1])
        self.stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        counters = COUNTERS.get(name, ())
        counts = self.counts[-1]

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            counts[name + ".calls"] += 1
            for counter, get in counters:
                counts[f"{name}.{counter}"] += get(args, result)
            return result

        return traced

    def per_iteration(self, scales: list[float]) -> list[tuple[dict[str, float], dict[str, int]]]:
        """Self seconds per span name, and the counts, of each iteration.

        ``scales`` converts each iteration's wall seconds to the
        reference speed the end-to-end times use.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        selfs = [defaultdict(float) for _ in self.counts]
        for i, (name, start, end, _, it) in enumerate(self.spans):
            selfs[it][name] += (end - start - child[i]) * scales[it]
        return list(zip(selfs, self.counts))

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "iteration"],
                                    "spans": self.spans}))


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def layer_metrics(iterations, traced_s: list[float], untraced_s: list[float]) -> dict:
    """Median per-layer metrics over the traced iterations."""
    rows = []
    for selfs, counts in iterations:
        def s(name):
            return selfs.get(name, 0.0)

        def c(name):
            return counts.get(name, 0)

        attempted = c("optimizer.inline_pass.sites_inlined") + c("optimizer.inline_pass.sites_skipped")
        rows.append({
            "ir.parse_module_s": s("ir.parse_module"),
            "ir.parse_lines_per_s": _rate(c("ir.parse_module.lines"), s("ir.parse_module")),
            "ir.print_module_s": s("ir.print_module"),
            "ir.validate_s": s("ir.validate"),
            "ir.instrs_out": c("ir.print_module.instrs_out"),
            "symbols.demangle_calls": c("symbols.demangle.calls"),
            "symbols.demangle_s": s("symbols.demangle"),
            "filters.parse_filter_s": s("filters.parse_filter"),
            "filters.classify_calls": c("filters.classify.calls"),
            "filters.classify_s": s("filters.classify"),
            "optimizer.inline_pass_s": s("optimizer.inline_pass"),
            "optimizer.sites_inlined": c("optimizer.inline_pass.sites_inlined"),
            "optimizer.sites_skipped": c("optimizer.inline_pass.sites_skipped"),
            "optimizer.sites_attempted": attempted,
            "optimizer.inline_ratio": _rate(c("optimizer.inline_pass.sites_inlined"), attempted),
            "instrument.instrument_module_s": s("instrument.instrument_module"),
            "instrument.functions_instrumented":
                c("instrument.instrument_module.functions_instrumented"),
            "instrument.functions_skipped": c("instrument.instrument_module.functions_skipped"),
            "vm.execute_s": s("vm.execute"),
            "vm.events_recorded": c("vm.execute.events"),
            "vm.events_per_s": _rate(c("vm.execute.events"), s("vm.execute")),
            "vm.ticks": c("vm.execute.ticks"),
            "runtime.write_trace_s": s("runtime.write_trace"),
            "runtime.write_mb_per_s":
                _rate(c("runtime.write_trace.bytes") / 1e6, s("runtime.write_trace")),
            "runtime.read_trace_s": s("runtime.read_trace"),
            "runtime.read_events_per_s":
                _rate(c("runtime.read_trace.events"), s("runtime.read_trace")),
            "runtime.trace_bytes": c("runtime.write_trace.bytes"),
            "analysis.build_profile_s": s("analysis.build_profile"),
            "analysis.compare_runs_s": s("analysis.compare_runs"),
            "analysis.suggest_filter_s": s("analysis.suggest_filter"),
            "cli.self_s": s(COMMAND),
        })
    out = {name: statistics.median(row[name] for row in rows) for name in rows[0]}
    out["trace_overhead_s"] = statistics.median(traced_s) - statistics.median(untraced_s)
    return out
