"""Trace analysis: profiles, cross-run comparison, filter suggestions.

A profile aggregates a balanced trace into per-region visit counts and
inclusive/exclusive tick totals.  Filter suggestion closes the paper
loop of this toolchain: regions visited often enough and cheap enough
per visit are emitted as compile-time exclude rules.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

from .filters import selects_alone
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
    rows: dict[int, list[int]] = {}  # handle -> [visits, inclusive, exclusive]
    # The innermost open visit, [handle, enter_ts, child_ticks], starting
    # at a root frame whose handle 0 no exit matches; the stack holds the
    # frames that enclose it.
    frame = [0, 0, 0]
    stack: list[list[int]] = []
    push, pop = stack.append, stack.pop
    records = zip(trace.codes, trace.stamps)
    for code, ts in records:
        # An enter reads the record after it.  If that is its own exit, the
        # leaf visit is counted at once, with no frame; otherwise the enter
        # opens a frame and the record read is handled next, by this loop
        # if it is an enter and below if not.
        while code > 0:
            if code not in entries:
                raise TraceError(f"enter for undefined handle {code}")
            enter_ts = ts
            for after, ts in records:
                break
            else:  # the trace ends on this enter
                push(frame)
                break
            if after == -code:
                duration = ts - enter_ts
                row = rows[code]
                row[0] += 1
                row[1] += duration
                row[2] += duration
                frame[2] += duration
                break
            push(frame)
            frame = [code, enter_ts, 0]
            code = after
        else:  # an exit or a definition
            if code:
                handle, enter_ts, child = frame
                if handle != -code:
                    raise TraceError(f"unbalanced exit for handle {-code}")
                duration = ts - enter_ts
                # Looked up at exit, so a visit open across a redefinition of
                # its handle counts for the new entry.
                row = rows[handle]
                row[0] += 1
                row[1] += duration
                row[2] += duration - child
                frame = pop()
                frame[2] += duration
            else:
                ev = definitions[ts]
                d = ev.descriptor
                assert d is not None
                entries[ev.handle] = ProfileEntry(d.name, d.canonical_name)
                rows[ev.handle] = [0, 0, 0]
    if stack:
        raise TraceError("trace ends inside an open region")
    for handle, (visits, inclusive, exclusive) in rows.items():
        entry = entries[handle]
        entry.visits, entry.inclusive_ticks, entry.exclusive_ticks = visits, inclusive, exclusive
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
    """Tabulate enter-event counts per labeled trace, plus region deltas.

    Like ``build_profile``, rejects an enter before its handle's
    definition; it also rejects a handle whose exits do not match its
    enters in number.  Their nesting order is ``read_trace``'s check.
    """
    if not runs:
        raise ValueError("compare_runs needs at least one trace")
    rows: list[tuple[str, int]] = []
    # canonical name -> (pretty, counts per run)
    regions: dict[str, tuple[str, list[int]]] = {}
    for run_idx, (label, trace) in enumerate(runs):
        trace = Trace.of(trace)
        codes = trace.codes
        handle_to_canonical: dict[int, str] = {}
        start = 0  # where the records after the last D record seen begin
        for ev in trace.definitions:
            at = codes.index(0, start)
            _reject_undefined_enters(codes, start, set(codes[start:at]), handle_to_canonical)
            start = at + 1
            d = ev.descriptor
            assert d is not None
            handle_to_canonical[ev.handle] = d.canonical_name
            regions.setdefault(d.canonical_name, (d.name, [0] * len(runs)))
        tally = Counter(codes)
        enters = {code: n for code, n in tally.items() if code > 0}
        # Any handle entered and never defined is first entered after the last D.
        _reject_undefined_enters(codes, start, enters, handle_to_canonical)
        for code, n in tally.items():
            if code and n != tally[-code]:
                handle = abs(code)
                raise TraceError(
                    f"handle {handle} has {tally[handle]} enter(s) and {tally[-handle]} exit(s)"
                )
        for handle, count in enters.items():
            regions[handle_to_canonical[handle]][1][run_idx] += count
        rows.append((label, sum(enters.values())))
    per_region = [
        RegionComparison(canonical, name, counts, [c - counts[0] for c in counts])
        for canonical, (name, counts) in sorted(regions.items())
    ]
    return RunComparison(rows, per_region)


def _reject_undefined_enters(
    codes: list[int], start: int, seen: Iterable[int], defined: dict[int, str]
) -> None:
    """Raise for the first enter from ``start`` on of a handle in ``seen``
    (codes of records from ``start`` on) that is not in ``defined``."""
    undefined = [code for code in seen if code > 0 and code not in defined]
    if undefined:
        first = min(undefined, key=lambda handle: codes.index(handle, start))
        raise TraceError(f"enter for undefined handle {first}")


def suggest_filter(
    p: Profile, max_ticks_per_visit: int, min_visits: int
) -> str:
    """Emit exclude rules for hot, cheap regions as a filter file.

    A region qualifies when visits >= min_visits and inclusive ticks
    per visit <= max_ticks_per_visit.  Its rule names the pretty name
    when ``filters.selects_alone`` accepts it and no other region shares
    it; otherwise it names the canonical name, ``EXCLUDE MANGLED``.
    The output always parses, even when no region qualifies.
    """
    shared = Counter(e.name for e in p.entries.values())
    lines = ["REGION_NAMES_BEGIN"]
    for handle in sorted(p.entries):
        e = p.entries[handle]
        if e.visits >= min_visits and e.inclusive_ticks <= max_ticks_per_visit * e.visits:
            if shared[e.name] == 1 and selects_alone(e.name):
                lines.append(f"  EXCLUDE {e.name}")
            else:
                lines.append(f"  EXCLUDE MANGLED {e.canonical}")
    lines.append("REGION_NAMES_END")
    return "\n".join(lines) + "\n"

