"""Trace analysis: profiles, cross-run comparison, filter suggestions.

A profile aggregates a balanced trace into per-region visit counts and
inclusive/exclusive tick totals.  Filter suggestion closes the paper
loop of this toolchain: regions visited often enough and cheap enough
per visit are emitted as compile-time exclude rules.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from .runtime import Trace, TraceError, TraceEvent


@dataclass
class ProfileEntry:
    name: str
    canonical: str
    visits: int = 0
    inclusive_ticks: int = 0
    exclusive_ticks: int = 0


@dataclass
class Profile:
    """Per-region aggregation keyed by trace handle."""

    entries: dict[int, ProfileEntry] = field(default_factory=dict)
    total_events: int = 0


def build_profile(trace: Iterable[TraceEvent]) -> Profile:
    """Aggregate a trace via a stack replay.

    Inclusive time of a region sums exit-minus-enter over its visits;
    exclusive time subtracts the intervals of enclosed child visits.
    The trace must be balanced.
    """
    trace = Trace.of(trace)
    definitions = trace.definitions
    profile = Profile()
    entries = profile.entries
    stack: list[list] = []  # [handle, enter_ts, child_ticks]
    for code, ts in zip(trace.codes, trace.stamps):
        if code > 0:
            if code not in entries:
                raise TraceError(f"enter for undefined handle {code}")
            stack.append([code, ts, 0])
        elif code < 0:
            if not stack or stack[-1][0] != -code:
                raise TraceError(f"unbalanced exit for handle {-code}")
            handle, enter_ts, child = stack.pop()
            duration = ts - enter_ts
            entry = entries[handle]
            entry.visits += 1
            entry.inclusive_ticks += duration
            entry.exclusive_ticks += duration - child
            if stack:
                stack[-1][2] += duration
        else:
            ev = definitions[ts]
            d = ev.descriptor
            assert d is not None
            entries[ev.handle] = ProfileEntry(d.name, d.canonical_name)
    if stack:
        raise TraceError("trace ends inside an open region")
    profile.total_events = len(trace) - len(definitions)
    return profile


def format_profile(profile: Profile) -> str:
    """Aligned text table: region, visits, inclusive, exclusive."""
    rows = [("region", "visits", "incl", "excl")]
    for handle in sorted(profile.entries):
        e = profile.entries[handle]
        rows.append(
            (e.name, str(e.visits), str(e.inclusive_ticks), str(e.exclusive_ticks))
        )
    widths = [max(len(r[i]) for r in rows) for i in range(4)]
    lines = []
    for name, visits, incl, excl in rows:
        lines.append(
            f"{name:<{widths[0]}}  {visits:>{widths[1]}}  "
            f"{incl:>{widths[2]}}  {excl:>{widths[3]}}"
        )
    return "\n".join(lines) + "\n"


@dataclass
class RegionComparison:
    canonical: str
    name: str
    counts: list[int]
    deltas: list[int]  # against the first run


@dataclass
class RunComparison:
    rows: list[tuple[str, int]]
    per_region: list[RegionComparison]


def compare_runs(runs: list[tuple[str, Iterable[TraceEvent]]]) -> RunComparison:
    """Tabulate enter-event counts per labeled trace, plus region deltas."""
    if not runs:
        raise ValueError("compare_runs needs at least one trace")
    rows: list[tuple[str, int]] = []
    # canonical name -> (pretty, counts per run)
    regions: dict[str, list[int]] = {}
    names: dict[str, str] = {}
    for run_idx, (label, trace) in enumerate(runs):
        trace = Trace.of(trace)
        handle_to_canonical: dict[int, str] = {}
        for ev in trace.definitions:
            d = ev.descriptor
            assert d is not None
            handle_to_canonical[ev.handle] = d.canonical_name
            names.setdefault(d.canonical_name, d.name)
            regions.setdefault(d.canonical_name, [0] * len(runs))
        enters = trace.enter_counts()
        for handle, count in enters.items():
            regions[handle_to_canonical[handle]][run_idx] += count
        rows.append((label, enters.total()))
    per_region = [
        RegionComparison(
            canonical,
            names[canonical],
            counts,
            [c - counts[0] for c in counts],
        )
        for canonical, counts in sorted(regions.items())
    ]
    return RunComparison(rows, per_region)


def suggest_filter(
    p: Profile, max_ticks_per_visit: int, min_visits: int
) -> str:
    """Emit exclude rules for hot, cheap regions as a filter file.

    A region qualifies when visits >= min_visits and inclusive ticks
    per visit <= max_ticks_per_visit.  The output always parses, even
    when no region qualifies.
    """
    lines = ["REGION_NAMES_BEGIN"]
    for handle in sorted(p.entries):
        e = p.entries[handle]
        if e.visits >= min_visits and e.inclusive_ticks <= max_ticks_per_visit * e.visits:
            lines.append(f"  EXCLUDE {e.name}")
    lines.append("REGION_NAMES_END")
    return "\n".join(lines) + "\n"
