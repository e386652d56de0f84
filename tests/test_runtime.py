import random
import tracemalloc

import pytest

import gens
from instrumenta import runtime
from instrumenta.analysis import build_profile, compare_runs
from instrumenta.filters import FilterRuleSet, parse_filter
from instrumenta.instrument import instrument_module
from instrumenta.ir import RegionDescriptor, parse_module
from instrumenta.optimizer import O0
from instrumenta.runtime import (
    FILTERED_REGION,
    FIRST_VALID_HANDLE,
    Monitor,
    Trace,
    TraceError,
    TraceEvent,
    UnbalancedExitError,
    read_trace,
    write_trace,
)
from instrumenta.vm import CostModel, execute

DESC = RegionDescriptor(0, "func(int)", "_Z4funci", "a.c", 13, 21)
DESC_MAIN = RegionDescriptor(1, "main", "main", "a.c", 1, 10)

EXCLUDE_FUNC = parse_filter("REGION_NAMES_BEGIN\nEXCLUDE func*\nREGION_NAMES_END\n")


def _hooked(*body):
    """A hand-written module: main runs ``body``; regions 0 and 1 are DESC and DESC_MAIN."""
    lines = "".join(f"  {ins}\n" for ins in body)
    return parse_module(
        f'module "m"\nfunc @main file="a.c" lines=1:10\n{{\n^e:\n{lines}}}\nregions:\n'
        'region 0 name="func(int)" canonical="_Z4funci" file="a.c" lines=13:21 flags=0\n'
        'region 1 name="main" canonical="main" file="a.c" lines=1:10 flags=0\n'
    )


class TestRegistration:
    def test_first_valid_handle_is_two(self):
        m = Monitor()
        handle, first = m.register_region(DESC)
        assert handle == FIRST_VALID_HANDLE == 2
        assert first
        assert [e.kind for e in m.events] == ["D"]

    def test_idempotent(self):
        m = Monitor()
        first_handle, _ = m.register_region(DESC)
        for _ in range(1000):
            handle, first = m.register_region(DESC)
            assert handle == first_handle
            assert not first
        assert len(m.events) == 1

    def test_filtered_never_defines(self):
        m = Monitor(EXCLUDE_FUNC)
        for _ in range(1000):
            handle, _ = m.register_region(DESC)
            assert handle == FILTERED_REGION
        assert m.events == []

    def test_sequential_handles(self):
        m = Monitor()
        h1, _ = m.register_region(DESC)
        h2, _ = m.register_region(DESC_MAIN)
        assert (h1, h2) == (2, 3)

    def test_filtered_regions_do_not_consume_handles(self):
        m = Monitor(EXCLUDE_FUNC)
        m.register_region(DESC)  # filtered
        handle, _ = m.register_region(DESC_MAIN)
        assert handle == 2

    def test_runtime_rules_use_classify(self):
        mangled_only = parse_filter(
            "REGION_NAMES_BEGIN\nEXCLUDE MANGLED _Z4funci\nREGION_NAMES_END\n"
        )
        m = Monitor(mangled_only)
        handle, _ = m.register_region(DESC)
        assert handle == FILTERED_REGION


class TestEnterExit:
    """Enter and exit are recorded by the VM, so they are driven through ``execute``."""

    def test_enter_exit_pair(self):
        costs = CostModel()
        r = execute(_hooked("hook.register 0", "hook.enter 0", "hook.exit 0", "ret"), costs=costs)
        recorded = costs.hook_guard + costs.hook_event
        enter = costs.hook_register_first
        assert [(e.kind, e.timestamp, e.handle) for e in r.events] == [
            ("D", 0, 2), ("E", enter, 2), ("X", enter + recorded, 2),
        ]
        assert r.total_ticks == enter + 2 * recorded + 1

    def test_filtered_is_silent(self):
        costs = CostModel()
        m = _hooked("hook.register 0", "hook.enter 0", "hook.exit 0", "ret")
        r = execute(m, costs=costs, runtime_rules=EXCLUDE_FUNC)
        assert r.events == []
        assert r.total_ticks == costs.hook_register_first + 2 * costs.hook_guard + 1

    def test_unbalanced_exit(self):
        m = _hooked("hook.register 0", "hook.register 1", "hook.enter 0", "hook.exit 1", "ret")
        with pytest.raises(UnbalancedExitError, match="exit for handle 3 while top of stack is 2"):
            execute(m)

    def test_exit_on_empty_stack(self):
        m = _hooked("hook.register 0", "hook.exit 0", "ret")
        with pytest.raises(UnbalancedExitError, match="top of stack is None"):
            execute(m)

    def test_invalid_handle_rejected(self):
        with pytest.raises(TraceError, match="enter with unregistered handle"):
            execute(_hooked("hook.enter 0", "ret"))


class TestTraceIo:
    def test_empty(self):
        assert write_trace([]) == ""
        assert read_trace("") == []

    def test_roundtrip_simple(self):
        m = Monitor()
        handle, _ = m.register_region(DESC)
        events = Trace.of([*m.events, TraceEvent("E", 5, handle), TraceEvent("X", 9, handle)])
        text = write_trace(events)
        assert read_trace(text) == [
            TraceEvent("D", 0, 2, RegionDescriptor(2, "func(int)", "_Z4funci", "a.c", 13, 21)),
            TraceEvent("E", 5, 2),
            TraceEvent("X", 9, 2),
        ]
        assert write_trace(read_trace(text)) == text

    def test_quoted_names_roundtrip(self):
        desc = RegionDescriptor(2, 'odd "name"', "_Zx\\y", "dir/w s.c", 1, 2)
        events = [TraceEvent("D", 0, 2, desc), TraceEvent("E", 0, 2), TraceEvent("X", 1, 2)]
        assert read_trace(write_trace(events)) == events

    def test_unknown_handle(self):
        with pytest.raises(TraceError, match="unknown handle"):
            read_trace("E 0 2\n")

    def test_decreasing_timestamp(self):
        text = 'D 2 "f" "f" "a.c" 1:1\nE 5 2\nX 3 2\n'
        with pytest.raises(TraceError, match="decreasing"):
            read_trace(text)

    def test_exit_before_enter_is_unbalanced(self):
        text = 'D 2 "f" "f" "a.c" 1:1\nX 0 2\n'
        with pytest.raises(UnbalancedExitError):
            read_trace(text)

    def test_open_region_at_eof_is_unbalanced(self):
        text = 'D 2 "f" "f" "a.c" 1:1\nE 0 2\n'
        with pytest.raises(UnbalancedExitError):
            read_trace(text)

    def test_crossed_nesting_rejected(self):
        text = (
            'D 2 "f" "f" "a.c" 1:1\nD 3 "g" "g" "a.c" 2:2\n'
            "E 0 2\nE 1 3\nX 2 2\nX 3 3\n"
        )
        with pytest.raises(UnbalancedExitError):
            read_trace(text)

    def test_malformed_lines(self):
        for text in ("Q 1 2\n", "E 1\n", "D 2 \"f\"\n", "E x 2\n", 'D 1 "f" "f" "a" 1:1\n'):
            with pytest.raises(TraceError):
                read_trace(text)

    def test_sentinel_handles_rejected_in_definitions(self):
        with pytest.raises(TraceError, match="sentinel"):
            read_trace('D 0 "f" "f" "a.c" 1:1\n')

    def test_fuzzed_traces_roundtrip(self):
        rng = random.Random(3)
        for _ in range(300):
            events = gens.trace_events(rng)
            text = write_trace(events)
            assert read_trace(text) == events
            assert write_trace(read_trace(text)) == text


class TestTraceEventContract:
    def test_fields_are_immutable(self):
        ev = TraceEvent("E", 5, 2)
        for name in ("kind", "timestamp", "handle", "descriptor"):
            with pytest.raises(AttributeError):
                setattr(ev, name, None)

    def test_descriptor_defaults_to_none(self):
        ev = TraceEvent("X", 9, 3)
        assert (ev.kind, ev.timestamp, ev.handle, ev.descriptor) == ("X", 9, 3, None)

    def test_hashable_and_equal_by_value(self):
        d = TraceEvent("D", 0, 2, RegionDescriptor(2, "f", "f", "a.c", 1, 1))
        e = TraceEvent("E", 1, 2)
        assert TraceEvent("E", 1, 2) == e and hash(TraceEvent("E", 1, 2)) == hash(e)
        assert e != TraceEvent("X", 1, 2)
        assert len({d, e, TraceEvent("E", 1, 2), d}) == 2

    def test_monitor_and_trace_io_produce_hand_built_events(self):
        m = Monitor()
        handle, _ = m.register_region(DESC)
        trace = Trace.of([*m.events, TraceEvent("E", 5, handle), TraceEvent("X", 9, handle)])
        expected = [
            TraceEvent("D", 0, 2, RegionDescriptor(2, "func(int)", "_Z4funci", "a.c", 13, 21)),
            TraceEvent("E", 5, 2),
            TraceEvent("X", 9, 2),
        ]
        for events in (trace, read_trace(write_trace(trace))):
            assert events == expected
            assert all(type(ev) is TraceEvent for ev in events)
            assert [hash(ev) for ev in events] == [hash(ev) for ev in expected]


# ---------------------------------------------------------------------------
# Differential check of read_trace against a reference reader that splits
# every line with the quote-aware scanner and validates it in one loop.
# read_trace must accept and reject exactly the same texts, with the same
# exception class and message.


def _reference_split(line, lineno):
    fields = []
    i = 0
    n = len(line)
    while i < n:
        if line[i] == " ":
            i += 1
            continue
        if line[i] == '"':
            j = i + 1
            out = []
            while j < n:
                if line[j] == "\\":
                    if j + 1 >= n or line[j + 1] not in ('"', "\\"):
                        raise TraceError(f"line {lineno}: bad escape")
                    out.append(line[j + 1])
                    j += 2
                    continue
                if line[j] == '"':
                    break
                out.append(line[j])
                j += 1
            else:
                raise TraceError(f"line {lineno}: unterminated string")
            fields.append("".join(out))
            i = j + 1
        else:
            j = line.find(" ", i)
            if j == -1:
                j = n
            fields.append(line[i:j])
            i = j
    return fields


def reference_read_trace(text):
    events = []
    known = set()
    stack = []
    last_ts = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        fields = _reference_split(line, lineno)
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
            events.append(
                TraceEvent(
                    "D", 0, handle,
                    RegionDescriptor(handle, fields[2], fields[3], fields[4], begin, end),
                )
            )
        elif kind in ("E", "X"):
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
            else:
                if not stack or stack[-1] != handle:
                    raise UnbalancedExitError(
                        f"line {lineno}: exit {handle} does not match innermost enter"
                    )
                stack.pop()
            events.append(TraceEvent(kind, ts, handle))
        else:
            raise TraceError(f"line {lineno}: unknown record kind '{kind}'")
    if stack:
        raise UnbalancedExitError(f"trace ends with {len(stack)} open region(s)")
    return events


def _outcome(reader, text):
    try:
        return reader(text)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)


def assert_same_as_reference(text):
    assert _outcome(read_trace, text) == _outcome(reference_read_trace, text), repr(text)


# Handles 2 and 3 are defined and 2 is open at timestamp 1 before the line
# under test; each suffix closes what an accepted E or X line leaves open.
_PREFIX = 'D 2 "f" "f" "a.c" 1:1\nD 3 "g" "g" "b.c" 2:2\nE 1 2\n'
_SUFFIXES = ("", "\nX 9 2\n", "\nX 9 3\nX 9 2\n", "\nX 9 2\nX 9 2")

ADVERSARIAL_LINES = [
    "E 5 3", "X 5 2", "E 5 2", "X 5 3", "E 0 3", "X 1 2",
    # spacing
    "E  5 3", "E 5  3", "  E 5 3", "E 5 3  ", " X 5 2 ", "E 5 3 ", " E 5 3",
    "E 5", "E", "X", "E 5 3 4", "E 5 3 4 5", "X  5", "E 5 ", "E  3", " ",
    # tabs and other whitespace inside or around fields
    "E\t5 3", "E 5\t3", "E 5 3\t", "\tE 5 3", "E \t5 3", "E 5\t 3", "E 5 \t3",
    "E 5 \t", "E \t 3", "X 5 2\t ", "E 5 3\u3000", "\u3000E 5 3", "E \u30005 3",
    "E 5\u3000 3", "E\u30005 3", "E 5 3\xa0", "E 5\xa0 3", "E 5 3\x1f", "E 5 3\u200b",
    "E 5\r3", "E 5 3\r", "E 5\x0b3", "X 5\x1c2", "E 5 3\u2028X 6 3", "E 5 3\x85",
    # numerals int() accepts or rejects
    "E +5 3", "E 5 +3", "E 1_0 3", "E 5 1_3", "E -1 3", "E 5 -3", "E 05 3",
    "E 5 03", "E \u0665 3", "E 5 \u0663", "E 0x5 3", "E 5.0 3", "E 1__0 3",
    "E _1 3", "E 1_ 3", "E 5 3.", "E  +5 3", "E 99999999999999999999999 3",
    "E -0 3", "E 5 2_", "E ++5 3", "E 5 1e1", "E 5 " + "3" * 5000,
    # quoted fields
    'E "5" 3', 'E 5 "3"', 'X "5" "2"', 'E "5"3', 'E 5"3"', 'E "5 3"', 'E "" 3',
    'E 5 ""', '"E" 5 3', 'E "+5" 3', 'E " 5" 3', 'E "5\\"" 3', 'E 5 3"',
    'E 5 "3', 'E "5', '"', '""', 'E 5 3 ""', 'E 5 "\\x"', 'E 5 "\\',
    # unknown kinds
    "Q 5 3", "e 5 3", "x 5 2", "EX 5 3", "E5 3", "D5 3", "0 5 3", "\u0395 5 3",
    # definitions
    'D 4 "h" "h" "c.c" 1:2', 'D  4 "h" "h" "c.c" 1:2', 'D 4 "h" "h" "c.c" 1:2 ',
    'D 4 "h"  "h" "c.c" 1:2', 'D\t4 "h" "h" "c.c" 1:2', 'D 4 "h" "h" "c.c" +1:2',
    'D 4 "h" "h" "c.c" 1:', 'D 4 "h" "h" "c.c" 1', 'D 4 "h" "h" "c.c" 1:2:3',
    'D 4 "h" "h" "c.c"', 'D 4 "h" "h" "c.c" 1:2 9', 'D 1 "h" "h" "c.c" 1:2',
    'D 2 "h" "h" "c.c" 1:2', 'D 4 h h c.c 1:2', 'D 4 "h\\x" "h" "c.c" 1:2',
    'D 4 "h "h" "c.c" 1:2', 'D 4 "a\\"b" "c\\\\d" "e f" 1:2', 'D "4" "h" "h" "c.c" 1:2',
    'D 4 "h""h" "c.c" 1:2', "D 4 \"h\" \"h\" \"c.c\" \u0661:2", 'D', 'D ""',
]


@pytest.mark.parametrize("line", ADVERSARIAL_LINES, ids=lambda line: line[:40])
def test_adversarial_line_matches_reference(line):
    for suffix in _SUFFIXES:
        assert_same_as_reference(_PREFIX + line + suffix)
        assert_same_as_reference(line + suffix)


def test_random_token_lines_match_reference():
    tokens = ["E", "X", "D", "Q", "2", "3", "5", "+5", "1_0", "-1", '"5"', '"3"',
              '"', '""', '"\\"', "\t", "\u3000", "\r", "\u0665", "x", "1:2", "_"]
    seps = [" ", " ", " ", "  ", "", "\t"]
    rng = random.Random(11)
    for _ in range(3000):
        parts = [rng.choice(tokens) for _ in range(rng.randint(1, 5))]
        line = "".join(p + rng.choice(seps) for p in parts)
        assert_same_as_reference(_PREFIX + line + rng.choice(_SUFFIXES))


def test_generated_traces_roundtrip_and_match_reference():
    for seed in range(250):
        events = gens.trace_events(random.Random(seed))
        text = write_trace(events)
        assert read_trace(text) == events
        assert reference_read_trace(text) == events
        assert write_trace(read_trace(text)) == text


# ---------------------------------------------------------------------------
# Trace, the columnar event store, against the list of events it stands for.


def _generated_runs():
    """Event lists of instrumented generated programs, under every mode."""
    for seed in range(40):
        module = gens.terminating_module(random.Random(seed))
        for mode in ("auto", "plugin"):
            out, _, _ = instrument_module(module, FilterRuleSet(), mode, O0)
            yield execute(out).events


def _event_lists():
    for seed in range(150):
        yield gens.trace_events(random.Random(seed))
    for events in _generated_runs():
        yield list(events)


_SLICES = [
    slice(None), slice(1, None), slice(None, -1), slice(2, 7), slice(-5, None),
    slice(None, None, 2), slice(1, None, 3), slice(None, None, -1), slice(-2, 1, -2),
    slice(40, 50), slice(5, 2),
]


def assert_like_list(trace, events):
    assert trace == events and events == trace
    assert not (trace != events)
    assert len(trace) == len(events)
    assert list(trace) == events
    assert all(type(ev) is TraceEvent for ev in trace)
    for i in range(-len(events), len(events)):
        assert trace[i] == events[i]
    for bad in (len(events), -len(events) - 1):
        with pytest.raises(IndexError):
            trace[bad]
    for s in _SLICES:
        assert trace[s] == events[s]
    assert repr(trace) == repr(events)


class TestTraceSequence:
    def test_packed_lists_behave_like_lists(self):
        for events in _event_lists():
            assert_like_list(Trace.of(events), events)

    def test_consumers_agree_on_list_and_trace(self):
        for events in _event_lists():
            trace = Trace.of(events)
            assert write_trace(trace) == write_trace(events)
            assert build_profile(trace) == build_profile(events)
            assert compare_runs([("a", trace), ("b", events)]) == compare_runs(
                [("a", events), ("b", trace)]
            )

    def test_read_trace_matches_reference_reader(self):
        for events in _event_lists():
            text = write_trace(events)
            trace = read_trace(text)
            assert type(trace) is Trace
            assert trace == reference_read_trace(text)

    def test_recorded_runs_survive_trace_io(self):
        for events in _generated_runs():
            assert type(events) is Trace
            assert_like_list(events, list(events))
            assert read_trace(write_trace(events)) == events

    def test_equality_and_hashing(self):
        events = gens.trace_events(random.Random(5))
        trace = Trace.of(events)
        assert Trace.of(trace) is trace
        assert trace == Trace.of(list(events))
        assert read_trace("") == [] == Trace()
        assert Trace() != [TraceEvent("E", 0, 2)]
        assert trace != tuple(events)
        with pytest.raises(TypeError):
            hash(trace)

    def test_packing_rejects_what_no_trace_holds(self):
        with pytest.raises(TraceError, match="sentinel"):
            Trace.of([TraceEvent("E", 0, FILTERED_REGION)])
        with pytest.raises(TraceError, match="record kind"):
            Trace.of([TraceEvent("Q", 0, 2)])


# ---------------------------------------------------------------------------
# read_trace decodes chunks of canonical E/X lines as columns and hands every
# other chunk to the line loop, with its state carried over.  These cases put
# irregular text deep inside canonical runs and move the chunk boundaries, so
# that each meets both paths; the reference reader decides every outcome.

# 1 puts a boundary after every line; 1 << 16 is read_trace's own size.
_CHUNK_SIZES = (1, 7, 40, 256, 1 << 16)

# Every line break str.splitlines() recognises besides "\n", and CRLF.
_OTHER_BREAKS = [
    c for c in map(chr, range(0x3000)) if c != "\n" and len(f"a{c}b".splitlines()) == 2
] + ["\r\n"]


def _pairs(stamp, count, handle=3):
    """``count`` canonical enter/exit pairs of ``handle``, all at ``stamp``."""
    return f"E {stamp} {handle}\nX {stamp} {handle}\n" * count


def assert_same_at_chunk_sizes(monkeypatch, text, sizes=_CHUNK_SIZES):
    expected = _outcome(reference_read_trace, text)
    for size in sizes:
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        assert _outcome(read_trace, text) == expected, (size, repr(text[:200]))
    return expected


@pytest.mark.parametrize("brk", _OTHER_BREAKS, ids=repr)
@pytest.mark.parametrize("field", range(3))
def test_line_breaks_in_definition_fields_match_reference(monkeypatch, brk, field):
    strings = ["f", "f", "a.c"]
    strings[field] = f"a{brk}b"
    quoted = " ".join(f'"{s}"' for s in strings)
    # The definition sits in read_trace's second chunk, after a canonical run.
    text = (
        'D 3 "g" "g" "b.c" 2:2\n' + _pairs(1, 3000) + f"D 2 {quoted} 1:1\n"
        + "E 2 2\nX 2 2\n" + _pairs(3, 40)
    )
    expected = assert_same_at_chunk_sizes(monkeypatch, text)
    assert expected == (TraceError, "line 6002: unterminated string")


@pytest.mark.parametrize("line", ADVERSARIAL_LINES, ids=lambda line: line[:40])
def test_adversarial_line_deep_in_canonical_runs_matches_reference(monkeypatch, line):
    for suffix in _SUFFIXES:
        text = _PREFIX + _pairs(1, 40) + line + "\n" + _pairs(9, 40)[:-1] + suffix
        assert_same_at_chunk_sizes(monkeypatch, text, _CHUNK_SIZES[:-1])


def test_adversarial_lines_in_second_full_size_chunk_match_reference():
    run = _pairs(1, 3000)
    for line in ("E 5 3\r", "E 5\x1c3", "E 5 3\u2028X 6 3", "E 5 \t3", "E 5 03",
                 "E +5 3", 'E "5" 3', "Q 5 3", "", "  ", "E 0 3", "X 5 3", "E 5 4"):
        for suffix in _SUFFIXES:
            assert_same_as_reference(_PREFIX + run + line + "\n" + _pairs(9, 40)[:-1] + suffix)


def test_crlf_and_unterminated_last_lines_match_reference(monkeypatch):
    texts = [write_trace(gens.trace_events(random.Random(seed))) for seed in range(40)]
    texts.append(_PREFIX + _pairs(1, 3000) + "X 9 2\n")
    for text in texts:
        for variant in (text, text.replace("\n", "\r\n")):
            for cut in (0, 1, 2):
                assert_same_at_chunk_sizes(monkeypatch, variant[: len(variant) - cut])


def _fault_texts():
    """(text, line number of the fault, error message) for faults whose
    line, or whose cause, lies far from the start of the text."""
    head = 'D 2 "f" "f" "a.c" 1:1\nD 3 "g" "g" "b.c" 2:2\nD 4 "h" "h" "c.c" 3:3\nE 1 2\n'
    before, after = _pairs(1, 3000), _pairs(9, 3000)
    line = 4 + 6000 + 1
    yield head + before + "E 5 7\n" + after + "X 9 2\n", line, "unknown handle 7"
    yield head + before + "E 0 3\n" + after + "X 9 2\n", line, "decreasing timestamp 0"
    yield (head + before + "E 5 3\n" + after + "X 9 2\nX 9 3\n", line + 6001,
           "exit 2 does not match innermost enter")
    # Regions opened in the first chunk and closed in crossed order in a later one.
    yield (head + "E 1 3\n" + _pairs(1, 6000, 4) + "X 9 2\nX 9 3\n", 4 + 1 + 12000 + 1,
           "exit 2 does not match innermost enter")
    # The fault is the first line of a chunk whose predecessor was decoded as columns.
    yield head + before + "E 5 3\nX 0 3\n" + after + "X 9 2\n", line + 1, "decreasing timestamp 0"


def test_faults_far_into_the_trace_report_their_line(monkeypatch):
    for text, lineno, message in _fault_texts():
        assert text.splitlines()[lineno - 1] and lineno > 6000
        expected = assert_same_at_chunk_sizes(monkeypatch, text, (7, 256, 1 << 16))
        assert expected[1] == f"line {lineno}: {message}"
        # Two chunks, the first cut on each of the lines around the fault.
        offset = sum(len(line) + 1 for line in text.split("\n")[: lineno - 1])
        for size in range(offset - 30, offset + 30, 3):
            monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
            assert _outcome(read_trace, text) == expected


def test_region_left_open_in_an_early_chunk_is_unbalanced(monkeypatch):
    text = 'D 2 "f" "f" "a.c" 1:1\nD 3 "g" "g" "b.c" 2:2\nE 1 2\n' + _pairs(1, 6000)
    expected = assert_same_at_chunk_sizes(monkeypatch, text)
    assert expected == (UnbalancedExitError, "trace ends with 1 open region(s)")


@pytest.mark.parametrize("spelling", ["02", "+2", "0_2", "002"])
def test_handle_spellings_read_like_the_canonical_one(monkeypatch, spelling):
    head = 'D 2 "f" "f" "a.c" 1:1\n'
    canonical = head + _pairs(1, 3000, 2) + "E 5 2\nX 6 2\n" + _pairs(7, 40, 2)
    text = head + _pairs(1, 3000, 2) + f"E 5 {spelling}\nX 6 {spelling}\n" + _pairs(7, 40, 2)
    assert assert_same_at_chunk_sizes(monkeypatch, text) == read_trace(canonical)


@pytest.mark.parametrize("window", [0, 1, 30, 200, 1 << 12])
def test_definition_lines_between_runs_read_like_the_reference(monkeypatch, window):
    # Chunks are cut by size alone, here `window`: D lines in the writer's
    # form are read with the columns around them, and any other line sends
    # its whole chunk to the line loop.
    d4, d5 = 'D 4 "h" "h" "c.c" 3:3\n', 'D 5 "k" "k" "d.c" 4:4\n'
    texts = [write_trace(gens.trace_events(random.Random(seed))) for seed in range(60)]
    texts += [d4 + d5, d4 + _pairs(1, 20, 4) + d5, _PREFIX + _pairs(1, 20) + d4 + "X 9 2\n" + d5]
    head = _PREFIX + _pairs(1, 20) + d4 + _pairs(2, 2, 4) + d5
    for line in ADVERSARIAL_LINES + ["E 5 D", "X 5 2 D", "ED 5 3"]:
        for suffix in _SUFFIXES[:2]:
            texts.append(head + line + "\n" + _pairs(9, 20, 5) + d4[:-1] + suffix)
            texts.append(head + _pairs(3, 20, 5) + line + "\n" + _pairs(9, 20, 5) + suffix)
    for text in texts:
        assert_same_at_chunk_sizes(monkeypatch, text, (7, window, 1 << 16))


def test_transient_memory_stays_below_the_text_size():
    # About 200k E/X records in the shape of a hot leaf under main.
    text = 'D 2 "main" "main" "a.c" 1:9\nE 0 2\nD 3 "leaf" "leaf" "a.c" 2:3\n' + "".join(
        f"E {t} 3\nX {t + 22} 3\n" for t in range(10, 5_400_000, 54)
    ) + "X 5400000 2\n"
    assert len(text) > 2_000_000
    tracemalloc.start()
    try:
        trace = read_trace(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(trace) == 2 + 2 + 2 * len(range(10, 5_400_000, 54))
    assert peak - retained < len(text)



def reference_write_trace(events):
    """``write_trace`` as it was before it joined the records block by
    block: one list of parts for the whole trace, joined once."""
    trace = Trace.of(events)
    definitions = trace.definitions
    labels = {
        code: ("E " if code > 0 else "X ", f" {abs(code)}\n")
        for code in set(trace.codes)
        if code
    }
    parts = []
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
            append(
                f"D {ev.handle} {runtime._quote(d.name)} {runtime._quote(d.canonical_name)}"
                f" {runtime._quote(d.file)} {d.begin_lno}:{d.end_lno}\n"
            )
    return "".join(parts)


# Block sizes for the writer: 1 and 3 put a boundary beside nearly every
# D record of a small trace; 8192 is write_trace's own size.
_WRITE_BLOCKS = (1, 3, 8192)


def assert_writes_like_reference(monkeypatch, events):
    expected = reference_write_trace(events)
    for block in _WRITE_BLOCKS:
        monkeypatch.setattr(runtime, "_WRITE_BLOCK", block)
        text = write_trace(events)
        assert text == expected, (block, events)
        assert read_trace(text) == events


def test_writer_matches_reference_on_generated_traces(monkeypatch):
    for seed in range(1000):
        assert_writes_like_reference(monkeypatch, gens.trace_events(random.Random(seed)))


def test_writer_matches_reference_on_runs_with_batched_loops(monkeypatch):
    # Batched and collapsed loops append their events as progressions.
    for seed in range(200):
        module = gens.looping_module(random.Random(seed))
        for mode in ("auto", "plugin"):
            out, _, _ = instrument_module(module, FilterRuleSet(), mode, O0)
            assert_writes_like_reference(monkeypatch, execute(out).events)


def _define(handle, name="f()"):
    return TraceEvent("D", 0, handle, RegionDescriptor(handle, name, f"_Z{handle}", "a.c", 1, 2))


@pytest.mark.parametrize(
    "events",
    [
        [],
        [_define(2)],
        [_define(2), _define(3, "100%s %d%%"), _define(4, "%")],
        [_define(2), _define(3), TraceEvent("E", 0, 3), TraceEvent("X", 0, 3), _define(4)],
        [_define(2), TraceEvent("E", 0, 2), _define(3), _define(4), TraceEvent("E", 5, 4),
         TraceEvent("X", 5, 4), TraceEvent("X", 9, 2), _define(5), _define(6)],
        [_define(2), TraceEvent("E", 0, 2), TraceEvent("E", 2**63, 2),
         TraceEvent("X", 2**64 + 5, 2), TraceEvent("X", 10**30, 2)],
    ],
    ids=["empty", "one-d", "only-d", "d-last", "adjacent-d", "large-stamps"],
)
def test_writer_matches_reference_at_definition_edges(monkeypatch, events):
    assert_writes_like_reference(monkeypatch, events)


def _trace_of_length(n):
    """n records: a D record first and on both sides of every write block
    boundary, the rest an enter/exit pair after pair of the last defined
    handle."""
    block = runtime._WRITE_BLOCK
    defined_at = {0} | {k + d for k in range(block, n + 1, block) for d in (-1, 0)}
    trace = Trace()
    handle = FIRST_VALID_HANDLE - 1
    for i in range(n):
        if i in defined_at:
            handle += 1
            desc = RegionDescriptor(handle, f"f{i}()", f"_Z1fv{i}", "a b.c", i, i + 1)
            trace._define(TraceEvent("D", 0, handle, desc))
        else:
            trace.codes.append(handle if i % 2 else -handle)
            trace.stamps.append(i * 7)
    return trace


@pytest.mark.parametrize(
    "n",
    [0, 1, runtime._WRITE_BLOCK - 1, runtime._WRITE_BLOCK, runtime._WRITE_BLOCK + 1,
     3 * runtime._WRITE_BLOCK],
)
def test_block_writer_matches_single_join_writer(n):
    trace = _trace_of_length(n)
    assert len(trace) == n
    block = runtime._WRITE_BLOCK
    for k in range(block, n, block):
        assert trace.codes[k - 1] == trace.codes[k] == 0
    text = write_trace(trace)
    assert text == reference_write_trace(trace)
    assert text.count("\n") == n
    assert write_trace(list(trace)) == text


def test_writer_transient_memory_stays_below_twice_the_text_size():
    # About 200k E/X records in the shape of a hot leaf under main.
    trace = Trace.of(
        [TraceEvent("D", 0, 2, DESC_MAIN), TraceEvent("D", 0, 3, DESC)]
        + [TraceEvent(k, t + d, 3) for t in range(10, 5_400_000, 54)
           for k, d in (("E", 0), ("X", 22))]
    )
    tracemalloc.start()
    try:
        text = write_trace(trace)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(text) > 2_000_000
    assert peak - retained < 2 * len(text)
