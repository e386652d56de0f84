"""Monitoring runtime: lazy region registration, runtime filtering,
the columnar Trace, and the text trace format.

A region's handle starts out unregistered, transitions exactly once to
either a valid handle or the FILTERED sentinel, and never changes
afterwards.  A Monitor holds one run's state: the handles by region id,
the Trace and a shadow stack of open regions.  Its one method,
``register_region``, assigns a handle and appends the Definition record.
``vm.execute`` writes the Trace's columns and the shadow stack itself:
an enter or exit of a filtered region records nothing; one of a valid
handle appends an event, and an exit that does not close the innermost
open region raises UnbalancedExitError.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator, Sequence
from itertools import islice
from operator import eq, getitem
from typing import Literal, NamedTuple

from .filters import FilterRuleSet, classify
from .ir import _LINE_BREAKS, _STRING, RegionDescriptor, _quote, _read_quoted, _SyntaxAt, _unescape

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


class Monitor:
    """Single-location monitoring state; ``vm.execute`` records enter/exit into it."""

    def __init__(self, runtime_rules: FilterRuleSet | None = None):
        self.rules = runtime_rules if runtime_rules is not None else FilterRuleSet()
        # Region id -> its handle, from 2 up, or FILTERED_REGION.
        self.handles: dict[int, int] = {}
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
        existing = self.handles.get(rid)
        if existing is not None:
            return existing, False
        decision = classify(self.rules, d.canonical_name, d.name, d.file)
        if decision.outcome == "filtered":
            handle = FILTERED_REGION
        else:
            handle = FIRST_VALID_HANDLE + len(self.events.definitions)
            # In the trace domain regions are identified by handle; the
            # module-local region id is not serialized.
            region = RegionDescriptor(
                handle, d.name, d.canonical_name, d.file, d.begin_lno, d.end_lno, d.flags
            )
            self.events._define(TraceEvent("D", 0, handle, region))
        self.handles[rid] = handle
        return handle, True


# ---------------------------------------------------------------------------
# Trace serialization.  One record per line:
#   D <handle> "<pretty>" "<canonical>" "<file>" <begin>:<end>
#   E <timestamp> <handle>
#   X <timestamp> <handle>


# write_trace formats this many records with one `%`, then joins the
# blocks.  A block's format string and argument tuple, with the block
# texts, keep its memory beyond the returned string near the string's size.
# Only a block that holds a D record copies its arguments into a list: a
# list for every block raised the peak RSS of a trace_loop benchmark
# iteration, replayed in one process, by 1.5 to 2 MB on two of four seeds.
_WRITE_BLOCK = 8192


def write_trace(events: Iterable[TraceEvent]) -> str:
    trace = Trace.of(events)
    codes = trace.codes
    forms = _LineForms({0: "%s"})  # a D record's argument is its whole line
    at = -1  # where each D record sits, with its line; popped first to last
    pending = [(at := codes.index(0, at + 1), _definition_line(ev)) for ev in trace.definitions]
    pending.reverse()
    next_code, next_stamp = iter(codes), iter(trace.stamps)
    texts: list[str] = []
    for start in range(0, len(codes), _WRITE_BLOCK):
        line_forms = "".join(map(forms.__getitem__, islice(next_code, _WRITE_BLOCK)))
        args = tuple(islice(next_stamp, _WRITE_BLOCK))
        if pending and pending[-1][0] < start + _WRITE_BLOCK:  # a D record in the block
            args = list(args)
            while pending and pending[-1][0] < start + _WRITE_BLOCK:
                at, line = pending.pop()
                args[at - start] = line
            args = tuple(args)
        texts.append(line_forms % args)
    return "".join(texts)


class _LineForms(dict):
    """Each code's line, with %s for its timestamp ("%s" % x is str(x)),
    built on first use."""

    def __missing__(self, code: int) -> str:
        form = self[code] = f"E %s {code}\n" if code > 0 else f"X %s {-code}\n"
        return form


def _definition_line(ev: TraceEvent) -> str:
    d = ev.descriptor
    assert d is not None
    return (
        f"D {ev.handle} {_quote(d.name)} {_quote(d.canonical_name)}"
        f" {_quote(d.file)} {d.begin_lno}:{d.end_lno}\n"
    )


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


# read_trace decodes the text in chunks of about this many characters, each
# cut just after a line break, so its transient memory stays small.
_CHUNK_CHARS = 1 << 16

# A D record in the form write_trace gives it, through its line break.
_DEFINITION = re.compile(rf'D ([0-9]+) {_STRING}" {_STRING}" {_STRING}" ([0-9]+):([0-9]+)\n')
# The characters besides "\n" at which str.splitlines ends a line.
_OTHER_BREAKS = _LINE_BREAKS.replace("\n", "")


def read_trace(text: str) -> Trace:
    """Parse and validate a trace.

    Rejects malformed lines, enter/exit for handles without a prior
    definition, decreasing timestamps, and any nesting violation (an
    exit must match the innermost open enter; everything opened must be
    closed by the end).  The text is cut into chunks by size alone.  A
    chunk of canonical E/X lines and of D lines that match the writer's
    form is decoded as columns; the line loop decides every other chunk
    and words every error.
    """
    trace = Trace()
    known: set[int] = set()
    by_kind: dict[bytes, dict[bytes, int]] = {b"E": {}, b"X": {}}  # handle as written -> code
    stack: list[int] = []
    last_ts = lineno = start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        chunk, start = text[start:end], end
        last_ts, lines = _read_columns(chunk, trace, known, by_kind, stack, last_ts)
        if lines:
            lineno += lines
        else:
            last_ts, lineno = _read_lines(chunk, trace, known, by_kind, stack, last_ts, lineno)
    if stack:
        raise UnbalancedExitError(f"trace ends with {len(stack)} open region(s)")
    return trace


def _read_columns(
    chunk: str, trace: Trace, known: set[int], by_kind: dict[bytes, dict[bytes, int]],
    stack: list[int], last_ts: int,
) -> tuple[int, int]:
    """Append a chunk of canonical ``[EX] <digits> <digits>\\n`` lines and of
    ``_DEFINITION`` lines as columns; return the last E/X timestamp and the
    chunk's line count.  If any check fails, return ``last_ts`` and 0, leaving
    trace, stack, ``known`` and ``by_kind`` as they were.  ``by_kind`` maps
    each known handle, as written in ASCII, to its code."""
    lines = n = chunk.count("\n")
    defined: dict[int, tuple[int, TraceEvent]] = {}  # handle -> E/X lines before it, its record
    kinds = by_kind
    if "D" in chunk:
        chunk = _take_definitions(chunk, known, defined)
        if chunk is None:
            return last_ts, 0
        # A handle defined twice, or a string that held a "\n", leaves fewer
        # lines than this count, and the form check below fails.
        n -= len(defined)
        # The chunk's own handles go into copies, kept only if the chunk is read.
        kinds = {
            b"E": by_kind[b"E"] | {b"%d" % h: h for h in defined},
            b"X": by_kind[b"X"] | {b"%d" % h: -h for h in defined},
        }
    if not chunk.isascii():  # O(1) on a str; an ASCII chunk encodes one byte a character
        return last_ts, 0
    data = chunk.encode("ascii")
    # Deleting E, X and the digits must leave two spaces and a line break per line.
    if data.translate(None, b"EX0123456789") != b"  \n" * n:
        return last_ts, 0
    fields = data.split()  # n lines of three fields, none empty if there are 3n
    if len(fields) != 3 * n:
        return last_ts, 0
    try:
        stamps = list(map(int, fields[1::3]))
        codes = list(map(getitem, map(kinds.__getitem__, fields[0::3]), fields[2::3]))
    except (KeyError, ValueError):  # a kind or handle not as written, or undefined
        return last_ts, 0
    # sorted() scans an already-sorted list once.
    if stamps and (stamps[0] < last_ts or stamps != sorted(stamps)):
        return last_ts, 0
    if defined:
        # No E record of a handle before its D record; an X record would
        # need an E record before it, which the nesting check asks for.
        stop = next(reversed(defined.values()))[0]
        first = dict(zip(reversed(codes[:stop]), range(stop - 1, -1, -1)))  # code -> first index
        if any(first.get(h, at) < at for h, (at, _) in defined.items()):
            return last_ts, 0
    saved = stack[:]
    push, pop = stack.append, stack.pop
    records = iter(codes)
    try:
        for code in records:
            # An enter and its own exit right after it leave the stack as it
            # was; an enter that ends the chunk stays open for the next one.
            while code > 0:
                for after in records:
                    break
                else:
                    push(code)
                    break
                if after == -code:
                    break
                push(code)
                code = after
            else:  # an exit
                if pop() != -code:
                    raise IndexError
    except IndexError:
        stack[:] = saved
        return last_ts, 0
    if stamps:
        last_ts = stamps[-1]
    if defined:
        known.update(defined)
        by_kind.update(kinds)
        done = 0
        for at, record in defined.values():  # each D record back at its place
            trace.codes += codes[done:at]
            trace.stamps += stamps[done:at]
            trace._define(record)
            done = at
        codes, stamps = codes[done:], stamps[done:]
    trace.codes += codes
    trace.stamps += stamps
    return last_ts, lines


def _take_definitions(
    chunk: str, known: set[int], defined: dict[int, tuple[int, TraceEvent]]
) -> str | None:
    """The chunk without its ``_DEFINITION`` lines, each read into ``defined``
    with the number of other lines before it; None if a D outside them does
    not start such a line, if one of them would not read as one line, or if
    one defines a sentinel or known handle."""
    if any(map(chunk.__contains__, _OTHER_BREAKS)):
        return None
    rest: list[str] = []
    done = others = 0
    at = chunk.find("D")
    try:
        while at >= 0:
            mo = _DEFINITION.match(chunk, at)
            if mo is None or at and chunk[at - 1] != "\n":
                return None
            h, name, canonical, file, begin, end = mo.groups()
            handle = int(h)
            if handle < FIRST_VALID_HANDLE or handle in known:
                return None
            others += chunk.count("\n", done, at)
            rest.append(chunk[done:at])
            done = mo.end()
            if "\\" in mo[0]:
                name, canonical, file = map(_unescape, (name, canonical, file))
            region = RegionDescriptor(handle, name, canonical, file, int(begin), int(end))
            defined[handle] = others, _new_event(TraceEvent, ("D", 0, handle, region))
            at = chunk.find("D", done)
    except ValueError:  # int() refuses a number of too many digits
        return None
    rest.append(chunk[done:])
    return "".join(rest)


def _read_lines(
    chunk: str, trace: Trace, known: set[int], by_kind: dict[bytes, dict[bytes, int]],
    stack: list[int], last_ts: int, done: int,
) -> tuple[int, int]:
    """Read a chunk line by line after the text's first ``done`` lines;
    returns the new last timestamp and line count.  Each definition's
    handle also goes into ``by_kind``, for the column path."""
    codes, stamps = trace.codes, trace.stamps
    lines = chunk.splitlines()
    for lineno, line in enumerate(lines, start=done + 1):
        line = line.strip()
        if not line:
            continue
        fields = _split_trace_line(line, lineno)
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
            by_kind[b"E"][b"%d" % handle], by_kind[b"X"][b"%d" % handle] = handle, -handle
            region = RegionDescriptor(handle, fields[2], fields[3], fields[4], begin, end)
            trace._define(TraceEvent("D", 0, handle, region))
            continue
        if kind != "E" and kind != "X":
            raise TraceError(f"line {lineno}: unknown record kind '{kind}'")
        if len(fields) != 3:
            raise TraceError(f"line {lineno}: malformed {kind} record")
        try:
            ts = int(fields[1])
            handle = int(fields[2])
        except ValueError:
            raise TraceError(f"line {lineno}: malformed {kind} record") from None
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
    return last_ts, done + len(lines)
