"""Leaf visits, an enter whose next record is its own exit, at their edges.

``build_profile`` and ``read_trace``'s nesting check take a leaf visit
in one step.  Each case here is judged by the unedited references:
``reference_build_profile`` of ``test_profile_oracle`` for the events,
and ``reference_read_trace`` of ``test_runtime`` for their text, read
at every chunk size of ``test_runtime._CHUNK_SIZES``.
"""

import random

import pytest

import gens
from instrumenta import runtime
from instrumenta.analysis import Profile, ProfileEntry, build_profile
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import instrument_module
from instrumenta.optimizer import O0
from instrumenta.runtime import TraceError, UnbalancedExitError, read_trace, write_trace
from instrumenta.vm import execute
from test_profile_oracle import _events, reference_build_profile
from test_profile_oracle import _outcome as _profile_outcome
from test_runtime import _CHUNK_SIZES, _pairs, assert_same_at_chunk_sizes, reference_read_trace


def assert_same_as_references(monkeypatch, events, sizes=_CHUNK_SIZES):
    """The profile of ``events`` and the read of their text, each against
    its reference; returns both outcomes."""
    expected = _profile_outcome(reference_build_profile, events)
    assert _profile_outcome(build_profile, events) == expected, events
    text = write_trace(events)
    read = assert_same_at_chunk_sizes(monkeypatch, text, sizes)
    if isinstance(read, list):
        assert _profile_outcome(build_profile, read_trace(text)) == expected
    return expected, read


def _line_loop(chunk, *args):
    raise AssertionError(f"line loop reached: {chunk[:80]!r}")


HEAD = _events(("D", 2, "main"), ("D", 3, "f"), ("D", 4, "g"), ("E", 0, 2))

EDGES = {
    "leaf pairs only": HEAD + _events(
        ("E", 1, 3), ("X", 4, 3), ("E", 4, 4), ("X", 9, 4), ("E", 9, 3), ("X", 9, 3), ("X", 12, 2),
    ),
    "a definition between an enter and its exit": HEAD + _events(
        ("E", 1, 3), ("D", 5, "k"), ("X", 4, 3), ("E", 5, 5), ("X", 7, 5), ("X", 12, 2),
    ),
    "a redefinition of the open handle before its exit": _events(
        ("D", 3, "f"), ("E", 1, 3), ("E", 2, 3), ("X", 3, 3), ("D", 3, "g"), ("X", 8, 3),
        ("E", 9, 3), ("X", 10, 3),
    ),
    "a leaf pair of an undefined handle": HEAD + _events(("E", 1, 7), ("X", 2, 7), ("X", 3, 2)),
    "a leaf pair of a handle defined after it": HEAD + _events(
        ("E", 1, 7), ("X", 2, 7), ("D", 7, "k"), ("X", 3, 2),
    ),
    "an enter followed by another handle's exit": HEAD + _events(
        ("E", 1, 3), ("X", 2, 4), ("X", 3, 2),
    ),
    "an enter followed by the enclosing exit": HEAD + _events(("E", 1, 3), ("X", 2, 2)),
    "an enter whose exit comes later": HEAD + _events(
        ("E", 1, 3), ("E", 2, 4), ("X", 3, 4), ("X", 4, 3), ("X", 5, 2),
    ),
    "a trace that ends on an enter": HEAD + _events(("E", 1, 3), ("X", 2, 3), ("E", 3, 4)),
    "a trace that is one enter": _events(("D", 2, "main"), ("E", 0, 2)),
    "a trace that ends on an undefined enter": HEAD + _events(("E", 1, 7)),
    "an exit with nothing open after a leaf pair": _events(
        ("D", 2, "main"), ("E", 0, 2), ("X", 1, 2), ("X", 2, 2),
    ),
}


@pytest.mark.parametrize("events", EDGES.values(), ids=EDGES.keys())
def test_edges_match_the_references(monkeypatch, events):
    assert_same_as_references(monkeypatch, events)


def test_edge_outcomes(monkeypatch):
    def outcome(name):
        return assert_same_as_references(monkeypatch, EDGES[name])

    profile, _ = outcome("leaf pairs only")[0]
    assert profile.entries[3] == ProfileEntry("f", "_Zf", 2, 3, 3)
    assert profile.entries[2] == ProfileEntry("main", "_Zmain", 1, 12, 4)
    profile, _ = outcome("a definition between an enter and its exit")[0]
    assert profile.entries[3] == ProfileEntry("f", "_Zf", 1, 3, 3)
    assert profile.entries[5] == ProfileEntry("k", "_Zk", 1, 2, 2)
    # The visit open across the redefinition counts for the new entry.
    profile, _ = outcome("a redefinition of the open handle before its exit")[0]
    assert profile.entries[3] == ProfileEntry("g", "_Zg", 2, 8, 7)
    undefined = (TraceError, "enter for undefined handle 7")
    assert outcome("a leaf pair of an undefined handle")[0] == undefined
    profiled, read = outcome("a leaf pair of a handle defined after it")
    assert profiled == undefined
    assert read == (TraceError, "line 5: unknown handle 7")
    profiled, read = outcome("an enter followed by another handle's exit")
    assert profiled == (TraceError, "unbalanced exit for handle 4")
    assert read == (UnbalancedExitError, "line 6: exit 4 does not match innermost enter")
    profiled, read = outcome("a trace that ends on an enter")
    assert profiled == (TraceError, "trace ends inside an open region")
    assert read == (UnbalancedExitError, "trace ends with 2 open region(s)")
    assert outcome("a trace that ends on an undefined enter")[0] == undefined
    profiled, read = outcome("an exit with nothing open after a leaf pair")
    assert profiled == (TraceError, "unbalanced exit for handle 2")
    assert read == (UnbalancedExitError, "line 4: exit 2 does not match innermost enter")


def test_enter_that_ends_a_chunk_is_closed_by_the_next(monkeypatch):
    # Every chunk size from one that cuts after each line to one past the
    # text, so that each enter, leaf or not, ends some chunk and its exit
    # starts the next; the line loop is never needed.
    events = HEAD + _events(
        ("E", 1, 3), ("X", 2, 3), ("E", 3, 4), ("E", 4, 3), ("X", 5, 3), ("X", 6, 4),
        ("E", 7, 3), ("D", 5, "k"), ("X", 8, 3), ("E", 9, 5), ("X", 9, 5), ("X", 12, 2),
    )
    text = write_trace(events)
    expected = reference_read_trace(text)
    assert expected == events
    monkeypatch.setattr(runtime, "_read_lines", _line_loop)
    for size in range(1, len(text) + 2):
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        assert read_trace(text) == expected, size
    # A crossed exit after a leaf pair, wherever the chunks are cut.
    monkeypatch.undo()
    crossed = text.replace("X 6 4\n", "X 6 2\n", 1)
    expected = assert_same_at_chunk_sizes(monkeypatch, crossed, range(1, len(crossed) + 2))
    assert expected == (UnbalancedExitError, "line 10: exit 2 does not match innermost enter")


def test_long_run_of_leaf_pairs_cut_anywhere(monkeypatch):
    text = 'D 2 "main" "main" "m.c" 1:9\nE 0 2\nD 3 "f" "f" "a.c" 2:3\n' + _pairs(1, 3000)
    text += "X 9 2\n"
    expected = assert_same_at_chunk_sizes(monkeypatch, text)
    assert isinstance(expected, list) and len(expected) == 6004
    monkeypatch.setattr(runtime, "_read_lines", _line_loop)
    for size in (*_CHUNK_SIZES, 1 << 12, 1 << 12 | 7, 1 << 12 | 8):
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        assert read_trace(text) == expected


def _nest_with_leaf_runs(rng):
    """Events of deep nesting and recursion of a few handles with runs of
    leaf pairs between, each handle defined at its first enter."""
    events, stack, defined = [], [], set()
    ts = 0
    for _ in range(rng.randint(1, 120)):
        ts += rng.randint(0, 3)
        roll = rng.random()
        if stack and roll < 0.3:
            events += _events(("X", ts, stack.pop()))
            continue
        if roll < 0.65:  # a run of leaf pairs
            handle = rng.choice((2, 3, 4, 5))
            count = rng.randint(1, 12)
        else:  # one level deeper, often the open handle again
            handle = stack[-1] if stack and rng.random() < 0.5 else rng.choice((2, 3, 4, 5))
            count = 0
        if handle not in defined:
            defined.add(handle)
            events += _events(("D", handle, f"r{handle}"))
        for _ in range(count):
            events += _events(("E", ts, handle), ("X", ts + 1, handle))
            ts += rng.randint(1, 2)
        if not count:
            events += _events(("E", ts, handle))
            stack.append(handle)
    while stack:
        ts += rng.randint(0, 3)
        events += _events(("X", ts, stack.pop()))
    return events


def test_leaf_runs_between_nesting_and_recursion_match_the_references(monkeypatch):
    depths = []
    for seed in range(150):
        events = _nest_with_leaf_runs(random.Random(seed))
        profiled, _ = assert_same_as_references(monkeypatch, events)
        assert isinstance(profiled[0], Profile)
        depths.append(_max_depth(events))
    assert max(depths) > 15


def _max_depth(events):
    depth = deepest = 0
    for ev in events:
        depth += (ev.kind == "E") - (ev.kind == "X")
        deepest = max(deepest, depth)
    return deepest


def test_generated_program_runs_match_the_references(monkeypatch):
    # Programs with loops that call a leaf many times, under a caller that
    # nests other regions around it.
    leaf_runs = 0
    for seed in range(40):
        module = gens.looping_module(random.Random(seed))
        out, _, _ = instrument_module(module, FilterRuleSet(), "plugin", O0)
        events = list(execute(out, step_limit=10**6).events)
        assert_same_as_references(monkeypatch, events)
        leaf_runs += any(
            a.kind == "E" and b.kind == "X" and a.handle == b.handle
            for a, b in zip(events, events[1:])
        )
    assert leaf_runs > 20
