"""Differential oracle for ``build_profile``.

``reference_build_profile`` is the stack replay that kept every frame on
the stack and added into the ``ProfileEntry`` at each exit.  The current
replay keeps the innermost frame apart and writes per-handle rows into
the entries once, at the end; both must give equal profiles, with the
entries in the same order, or raise the same exception with the same
message.
"""

import random

import pytest

import gens
from conftest import corpus_paths, load_corpus
from instrumenta.analysis import Profile, ProfileEntry, build_profile
from instrumenta.filters import FilterRuleSet, parse_filter
from instrumenta.instrument import instrument_module
from instrumenta.ir import RegionDescriptor
from instrumenta.optimizer import O0, O2, O3
from instrumenta.runtime import Trace, TraceError, TraceEvent, read_trace, write_trace
from instrumenta.vm import execute


def reference_build_profile(trace):
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


def _outcome(build, events):
    try:
        profile = build(events)
    except Exception as exc:  # compared by class and message
        return type(exc), str(exc)
    return profile, list(profile.entries)  # the entries' order too


def assert_same_as_reference(events):
    expected = _outcome(reference_build_profile, events)
    assert _outcome(build_profile, events) == expected, events
    # A Trace is replayed from its columns as it is; a list is packed first.
    assert _outcome(build_profile, Trace.of(events)) == expected
    return expected


def test_generated_traces_match_reference():
    for seed in range(400):
        profile, _ = assert_same_as_reference(gens.trace_events(random.Random(seed)))
        assert isinstance(profile, Profile)


def test_generated_traces_read_back_match_reference():
    for seed in range(100):
        text = write_trace(gens.trace_events(random.Random(seed)))
        assert_same_as_reference(read_trace(text))


def test_damaged_generated_traces_match_reference():
    # Dropped, moved and duplicated records: undefined handles, crossed and
    # missing exits, definitions after first use and handles defined twice.
    rng = random.Random(25)
    rejected = 0
    for seed in range(600):
        events = gens.trace_events(random.Random(seed))
        if not events:
            continue
        i, j = rng.randrange(len(events)), rng.randrange(len(events))
        dropped = events[:i] + events[i + 1:]
        moved = dropped[:j] + [events[i]] + dropped[j:]
        repeated = events[:j] + [events[i]] + events[j:]
        damaged = [dropped, moved, repeated, events[::-1]]
        for variant in damaged:
            outcome = assert_same_as_reference(variant)
            rejected += outcome[0] is TraceError
    assert rejected > 300


def _corpus_runs():
    exclude_first = parse_filter("REGION_NAMES_BEGIN\n  EXCLUDE main\nREGION_NAMES_END\n")
    for path in corpus_paths():
        module = load_corpus(path.name)
        for mode, level in (("plugin", O0), ("auto", O2), ("plugin", O3)):
            out, _, _ = instrument_module(module, FilterRuleSet(), mode, level)
            for rules in (None, exclude_first):
                yield execute(out, runtime_rules=rules).events


def test_corpus_runs_match_reference():
    runs = 0
    for events in _corpus_runs():
        profile, _ = assert_same_as_reference(events)
        assert profile.total_events == len(events) - len(events.definitions)
        runs += 1
    assert runs == 6 * len(corpus_paths())


def test_generated_program_runs_match_reference():
    for seed in range(60):
        module = gens.looping_module(random.Random(seed))
        out, _, _ = instrument_module(module, FilterRuleSet(), "plugin", O0)
        assert_same_as_reference(execute(out, step_limit=10**6).events)


def _events(*items):
    out = []
    for item in items:
        if item[0] == "D":
            _, handle, name = item
            descriptor = RegionDescriptor(handle, name, f"_Z{name}", "a.c", 1, 2)
            out.append(TraceEvent("D", 0, handle, descriptor))
        else:
            out.append(TraceEvent(*item))
    return out


HAND_MADE = {
    "enter of an undefined handle": _events(("D", 2, "f"), ("E", 0, 2), ("E", 1, 5)),
    "crossed exit": _events(
        ("D", 2, "f"), ("D", 3, "g"), ("E", 0, 2), ("E", 1, 3), ("X", 2, 2), ("X", 3, 3)
    ),
    "exit with nothing open": _events(("D", 2, "f"), ("X", 0, 2)),
    "region open at the end": _events(
        ("D", 2, "f"), ("D", 3, "g"), ("E", 0, 2), ("E", 1, 3), ("X", 4, 3)
    ),
    "definition after first use": _events(("E", 0, 5), ("D", 5, "f"), ("X", 1, 5)),
    "redefined while a visit is open": _events(
        ("D", 2, "f"), ("E", 0, 2), ("X", 3, 2), ("E", 4, 2), ("D", 3, "g"),
        ("E", 5, 3), ("D", 2, "h"), ("X", 6, 3), ("X", 9, 2), ("E", 10, 2), ("X", 12, 2),
    ),
    "redefined inside its own nested visit": _events(
        ("D", 2, "f"), ("E", 0, 2), ("E", 1, 2), ("D", 2, "g"), ("X", 5, 2), ("X", 8, 2),
    ),
    "nested children and recursion": _events(
        ("D", 2, "main"), ("D", 3, "f"), ("E", 0, 2), ("E", 1, 3), ("E", 2, 3), ("X", 6, 3),
        ("X", 7, 3), ("E", 7, 3), ("X", 9, 3), ("X", 20, 2),
    ),
    "definitions only": _events(("D", 2, "f"), ("D", 3, "g")),
    "empty": [],
}


@pytest.mark.parametrize("events", HAND_MADE.values(), ids=HAND_MADE.keys())
def test_hand_made_traces_match_reference(events):
    assert_same_as_reference(events)


def test_hand_made_outcomes():
    def outcome(name):
        return _outcome(build_profile, HAND_MADE[name])

    assert outcome("enter of an undefined handle") == (TraceError, "enter for undefined handle 5")
    assert outcome("crossed exit") == (TraceError, "unbalanced exit for handle 2")
    assert outcome("region open at the end") == (TraceError, "trace ends inside an open region")
    assert outcome("definition after first use") == (TraceError, "enter for undefined handle 5")
    # The visits open across the redefinition count for the new entry, and
    # the entry keeps its handle's place.
    profile, order = outcome("redefined while a visit is open")
    assert order == [2, 3]
    assert profile.entries[2] == ProfileEntry("h", "_Zh", 2, 7, 6)
    assert profile.entries[3] == ProfileEntry("g", "_Zg", 1, 1, 1)
    profile, _ = outcome("redefined inside its own nested visit")
    assert profile.entries[2] == ProfileEntry("g", "_Zg", 2, 12, 8)
