"""Monitoring runtime: lazy region registration, runtime filtering,
event recording into the columnar Trace, and the text trace format.

A region's handle starts out unregistered, transitions exactly once to
either a valid handle or the FILTERED sentinel, and never changes
afterwards.  The VM's hook path records enter/exit into a Monitor:
for filtered regions they are cheap no-ops; for valid handles they
append events and maintain a shadow stack that catches unbalanced
instrumentation.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field, replace
from operator import eq
from typing import Literal, NamedTuple

from .filters import FilterRuleSet, classify
from .ir import RegionDescriptor, _quote, _read_quoted, _SyntaxAt

FILTERED_REGION = 1
FIRST_VALID_HANDLE = 2


class TraceError(Exception):
    """Malformed or inconsistent trace data."""


class UnbalancedExitError(TraceError):
    """An exit did not match the innermost open enter; an instrumentation bug."""


EventKind = Literal["E", "X", "D"]


class TraceEvent(NamedTuple):
    """One trace record, an immutable and hashable tuple.

    Enter/Exit carry a handle and a timestamp in ticks; Definition
    records carry the full descriptor and use timestamp 0 (definitions
    are metadata, exempt from the timestamp ordering).
    """

    kind: EventKind
    timestamp: int
    handle: int
    descriptor: RegionDescriptor | None = None


# Builds a TraceEvent from a full 4-tuple without the generated __new__'s
# argument handling, which costs more than the rest of building an event.
_new_event = tuple.__new__


class Trace(Sequence):
    """A sequence of TraceEvents stored as two integer columns.

    Record i is ``(codes[i], stamps[i])``:

    - E record: ``codes[i] = handle``, ``stamps[i] = timestamp``;
    - X record: ``codes[i] = -handle``, ``stamps[i] = timestamp``;
    - D record: ``codes[i] = 0`` and ``stamps[i]`` is the index of its
      TraceEvent in ``definitions`` (a D record's timestamp is always 0).

    Handles are at least FIRST_VALID_HANDLE, so a code's sign is the
    record's kind.  Only this module and the VM's hook fast path write
    the columns.  Events are built on access; a Trace compares equal to
    a list of the same events.
    """

    __slots__ = ("codes", "stamps", "definitions")
    __hash__ = None  # mutable, like a list

    def __init__(self) -> None:
        self.codes: list[int] = []
        self.stamps: list[int] = []
        self.definitions: list[TraceEvent] = []

    @classmethod
    def of(cls, events: Iterable[TraceEvent]) -> Trace:
        """Pack events into a Trace; a Trace is returned as it is."""
        if isinstance(events, Trace):
            return events
        trace = cls()
        for ev in events:
            kind, ts, handle, _ = ev
            if handle < FIRST_VALID_HANDLE:
                raise TraceError(f"handle {handle} is a sentinel")
            if kind == "D":
                trace._define(ev)
                continue
            if kind == "E":
                trace.codes.append(handle)
            elif kind == "X":
                trace.codes.append(-handle)
            else:
                raise TraceError(f"unknown record kind '{kind}'")
            trace.stamps.append(ts)
        return trace

    def _define(self, ev: TraceEvent) -> None:
        self.codes.append(0)
        self.stamps.append(len(self.definitions))
        self.definitions.append(ev)

    def _event(self, code: int, stamp: int) -> TraceEvent:
        if code > 0:
            return _new_event(TraceEvent, ("E", stamp, code, None))
        if code < 0:
            return _new_event(TraceEvent, ("X", stamp, -code, None))
        return self.definitions[stamp]

    def enter_counts(self) -> Counter[int]:
        """The number of E records of each handle."""
        counts = Counter(self.codes)
        for code in [c for c in counts if c <= 0]:
            del counts[code]
        return counts

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return Trace.of(map(self._event, self.codes[i], self.stamps[i]))
        return self._event(self.codes[i], self.stamps[i])

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(self._event, self.codes, self.stamps)

    def __eq__(self, other):
        if isinstance(other, Trace):
            return (
                self.codes == other.codes
                and self.stamps == other.stamps
                and self.definitions == other.definitions
            )
        if isinstance(other, list):
            return len(other) == len(self) and all(map(eq, self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return repr(list(self))


@dataclass
class RegionRegistry:
    """Maps region ids to handles; handles from 2 up."""

    handles: dict[int, int] = field(default_factory=dict)
    next_handle: int = FIRST_VALID_HANDLE


class Monitor:
    """Single-location monitoring state; ``vm.execute`` records enter/exit into it."""

    def __init__(self, runtime_rules: FilterRuleSet | None = None):
        self.rules = runtime_rules if runtime_rules is not None else FilterRuleSet()
        self.registry = RegionRegistry()
        self.events = Trace()
        self.shadow_stack: list[int] = []

    def register_region(self, d: RegionDescriptor) -> tuple[int, bool]:
        """Idempotent registration; returns (handle, first_time).

        The first call classifies the descriptor under the runtime
        rules: excluded regions get the FILTERED sentinel and no
        Definition record; otherwise the next valid handle is assigned
        and a Definition appended.  Later calls return the stored
        handle with no side effects.
        """
        rid = d.region_id
        existing = self.registry.handles.get(rid)
        if existing is not None:
            return existing, False
        decision = classify(self.rules, d.canonical_name, d.name, d.file)
        if decision.outcome == "filtered":
            handle = FILTERED_REGION
        else:
            handle = self.registry.next_handle
            self.registry.next_handle += 1
            # In the trace domain regions are identified by handle; the
            # module-local region id is not serialized.
            self.events._define(
                TraceEvent("D", 0, handle, replace(d, region_id=handle))
            )
        self.registry.handles[rid] = handle
        return handle, True


# ---------------------------------------------------------------------------
# Trace serialization.  One record per line:
#   D <handle> "<pretty>" "<canonical>" "<file>" <begin>:<end>
#   E <timestamp> <handle>
#   X <timestamp> <handle>


def write_trace(events: Iterable[TraceEvent]) -> str:
    trace = Trace.of(events)
    definitions = trace.definitions
    # The text of an E/X line around its timestamp, per code.
    labels = {
        code: ("E " if code > 0 else "X ", f" {abs(code)}\n")
        for code in set(trace.codes)
        if code
    }
    parts: list[str] = []
    append = parts.append
    for code, stamp in zip(trace.codes, trace.stamps):
        if code:
            before, after = labels[code]
            append(before)
            append(str(stamp))
            append(after)
        else:
            ev = definitions[stamp]
            d = ev.descriptor
            assert d is not None
            append(
                f"D {ev.handle} {_quote(d.name)} {_quote(d.canonical_name)}"
                f" {_quote(d.file)} {d.begin_lno}:{d.end_lno}\n"
            )
    return "".join(parts)


def _split_trace_line(line: str, lineno: int) -> list[str]:
    # Whitespace-separated fields with quoted strings as single fields.
    fields: list[str] = []
    i = 0
    n = len(line)
    while i < n:
        if line[i] == " ":
            i += 1
            continue
        if line[i] == '"':
            try:
                value, i = _read_quoted(line, i)
            except _SyntaxAt as exc:
                raise TraceError(f"line {lineno}: {exc.args[0]}") from None
            fields.append(value)
        else:
            j = line.find(" ", i)
            if j == -1:
                j = n
            fields.append(line[i:j])
            i = j
    return fields


def _scan_record(line: str, lineno: int, known: set[int]) -> TraceEvent | None:
    """Tokenise one line with the quote-aware scanner.

    Returns None for a blank line.  A D record is checked and its handle
    added to ``known``; an E/X record is only parsed, and read_trace
    checks it against the trace state.
    """
    fields = _split_trace_line(line.strip(), lineno)
    if not fields:
        return None
    kind = fields[0]
    if kind == "D":
        if len(fields) != 6:
            raise TraceError(f"line {lineno}: malformed D record")
        try:
            handle = int(fields[1])
            begin_s, _, end_s = fields[5].partition(":")
            begin, end = int(begin_s), int(end_s)
        except ValueError:
            raise TraceError(f"line {lineno}: malformed D record") from None
        if handle < FIRST_VALID_HANDLE:
            raise TraceError(f"line {lineno}: handle {handle} is a sentinel")
        if handle in known:
            raise TraceError(f"line {lineno}: handle {handle} defined twice")
        known.add(handle)
        return TraceEvent(
            "D",
            0,
            handle,
            RegionDescriptor(
                region_id=handle,
                name=fields[2],
                canonical_name=fields[3],
                file=fields[4],
                begin_lno=begin,
                end_lno=end,
            ),
        )
    if kind not in ("E", "X"):
        raise TraceError(f"line {lineno}: unknown record kind '{kind}'")
    if len(fields) != 3:
        raise TraceError(f"line {lineno}: malformed {kind} record")
    try:
        return TraceEvent(kind, int(fields[1]), int(fields[2]))
    except ValueError:
        raise TraceError(f"line {lineno}: malformed {kind} record") from None


def read_trace(text: str) -> Trace:
    """Parse and validate a trace.

    Rejects malformed lines, enter/exit for handles without a prior
    definition, decreasing timestamps, and any nesting violation (an
    exit must match the innermost open enter; everything opened must be
    closed by the end).
    """
    trace = Trace()
    codes, stamps = trace.codes, trace.stamps
    known: set[int] = set()
    stack: list[int] = []
    last_ts = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        # Fast path: an E/X record as written, three single-space-separated
        # fields.  When int() accepts both numbers, the scanner would have
        # produced the same fields (int() ignores only whitespace that
        # strip() removes too).  Every other line, including one whose
        # numbers int() rejects, is decided by the scanner.
        try:
            kind, ts_field, handle_field = line.split(" ")
            ts = int(ts_field)
            handle = int(handle_field)
        except ValueError:
            kind = ""
        if kind != "E" and kind != "X":
            record = _scan_record(line, lineno, known)
            if record is None:
                continue
            if record.kind == "D":
                trace._define(record)
                continue
            kind, ts, handle, _ = record
        if handle not in known:
            raise TraceError(f"line {lineno}: unknown handle {handle}")
        if ts < last_ts:
            raise TraceError(f"line {lineno}: decreasing timestamp {ts}")
        last_ts = ts
        if kind == "E":
            stack.append(handle)
            codes.append(handle)
        else:
            if not stack or stack[-1] != handle:
                raise UnbalancedExitError(
                    f"line {lineno}: exit {handle} does not match innermost enter"
                )
            stack.pop()
            codes.append(-handle)
        stamps.append(ts)
    if stack:
        raise UnbalancedExitError(f"trace ends with {len(stack)} open region(s)")
    return trace
