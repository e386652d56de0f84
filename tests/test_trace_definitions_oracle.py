"""read_trace reads D lines in the writer's form with the columns around them.

A region is defined at its first entry, so the D records of a program
with many regions interleave with its events all through the trace.
These rows check, against the reference reader of ``test_runtime``
(unedited), that such traces read the same at every chunk size, that a
D line in any other form gets the reference's exception class and
message wherever it sits in a chunk, and that a canonical many-region
trace never reaches the line loop.
"""

import random
from functools import lru_cache

import pytest

from instrumenta import runtime
from instrumenta.filters import FilterRuleSet, parse_filter
from instrumenta.instrument import instrument_module
from instrumenta.ir import parse_module
from instrumenta.optimizer import O0, O3
from instrumenta.runtime import TraceError, UnbalancedExitError, read_trace, write_trace
from instrumenta.vm import execute
from test_runtime import _pairs, assert_same_at_chunk_sizes, reference_read_trace
from test_vm_patch import _workload

# 7 cuts after nearly every line, so some chunks hold only D lines.
_SIZES = (7, 200, 4096, 1 << 16)

# Names and files with both escapes, spaces and a tab, as the writer quotes them.
_NAMES = ["f{}()", 'q"{}"', "ns::a b{}", "back\\slash{}", "tab\t{}", "{}"]
_FILES = ["m.c", "dir/with space.c", 'quo"te{}.c', "back\\slash.c", ""]


def _quoted(s):
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def many_region_text(rng):
    """The IR text of a program of 20-80 functions on a call tree, with a
    few calls across it, that main enters several times."""
    n = rng.randint(20, 80)
    names = ["main"] + [f"_Z{len(str(i)) + 1}f{i}v" for i in range(1, n)]
    callees = [[] for _ in range(n)]
    for i in range(2, n):
        callees[rng.randrange(1, i)].append(i)
    for _ in range(3):  # each doubles the visits at most
        i = rng.randrange(1, n - 1)
        callees[i].append(rng.randrange(i + 1, n))
    callees[0] = [1] * rng.randint(1, 3)
    lines = [f'module "many{n}"']
    for i, name in enumerate(names):
        head = f"func @{name}"
        if i:
            head += " pretty=" + _quoted(rng.choice(_NAMES).format(i))
        head += f" file={_quoted(rng.choice(_FILES).format(i))} lines={10 * i + 1}:{10 * i + 9}"
        body = [f"  work {rng.randint(1, 3)}"] + [f"  call @{names[c]}" for c in callees[i]]
        lines += [head, "{", "^e:", *body, "  ret", "}"]
    return "\n".join(lines) + "\n"


def many_region_trace(seed):
    rng = random.Random(seed)
    module = parse_module(many_region_text(rng))
    out = instrument_module(module, FilterRuleSet(), "auto", O0)[0]
    rules = None
    if seed % 2:  # filtered regions take no handle and write no D line
        rules = parse_filter("REGION_NAMES_BEGIN\nEXCLUDE *7*\nREGION_NAMES_END\n")
    return write_trace(execute(out, runtime_rules=rules).events)


@lru_cache(maxsize=None)
def compile_wide_trace(seed):
    """The trace of the benchmark's ``compile_wide`` run step: about 200
    regions, each defined at its first visit."""
    w = _workload("compile_wide", seed)
    out = instrument_module(parse_module(w.files["wide.ir"]), FilterRuleSet(), "auto", O3)[0]
    return write_trace(execute(out).events)


def _canonical_traces():
    for seed in range(30):
        yield many_region_trace(seed)
    yield compile_wide_trace(7)


def test_interleaved_definitions_read_like_the_reference(monkeypatch):
    for text in _canonical_traces():
        assert 15 <= text.count("\nD ") < text.count("\n") / 2
        expected = assert_same_at_chunk_sizes(monkeypatch, text, _SIZES)
        assert isinstance(expected, list), expected


def test_compile_wide_trace_interleaves_its_definitions():
    lines = compile_wide_trace(7).splitlines()
    defined = [i for i, line in enumerate(lines) if line.startswith("D ")]
    assert len(defined) > 150
    # Most definitions come after the first events: registration is at first entry.
    assert sum(i > 2 * k + 2 for k, i in enumerate(defined)) > len(defined) / 2


def test_canonical_many_region_traces_never_reach_the_line_loop(monkeypatch):
    def line_loop(chunk, *args):
        raise AssertionError(f"line loop reached: {chunk[:80]!r}")

    expected = [reference_read_trace(text) for text in _canonical_traces()]
    monkeypatch.setattr(runtime, "_read_lines", line_loop)
    for size in _SIZES:
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        for text, events in zip(_canonical_traces(), expected):
            assert read_trace(text) == events


# Each row is a line, or lines, set between canonical runs and D lines in
# the writer's form, and the handle whose records follow it; the text is
# one chunk at the largest size, and but for the longest rows at 4096.
_D4 = 'D 4 "h" "h" "c.c" 1:2'
ADVERSARIAL_DEFINITIONS = [
    # escapes and unterminated strings
    ('D 4 "h\\x" "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c\\.c" 1:2', 4),
    ('D 4 "h\\" "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c.c 1:2', 4), ('D 4 "h "h" "c.c" 1:2', 4),
    ('D 4 "h" "h" "c.c\\"', 4), ('D 4 "a\\"b" "c\\\\d" "e f" 1:2', 4),
    # handles defined twice, in an earlier chunk's text or this chunk's, and sentinels
    ('D 3 "h" "h" "c.c" 1:2', 3), ('D 6 "h" "h" "c.c" 1:2', 6),
    (_D4 + "\n" + _D4, 4), ('D 1 "h" "h" "c.c" 1:2', 4), ('D 0 "h" "h" "c.c" 1:2', 4),
    # records of the handle before its definition
    ("E 2 4\nX 2 4\n" + _D4, 4), ("X 2 4\n" + _D4, 4), ("E 2 4\n" + _D4 + "\nX 2 4", 4),
    # spacing and tabs
    ('D  4 "h" "h" "c.c" 1:2', 4), ('D 4 "h"  "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c.c"  1:2', 4),
    (" " + _D4, 4), (_D4 + " ", 4), ('D\t4 "h" "h" "c.c" 1:2', 4),
    ('D 4 "h"\t"h" "c.c" 1:2', 4), ('D 4 "a\tb" "h" "c.c" 1:2', 4), ("\t" + _D4, 4),
    # non-ASCII text, and line breaks that str.splitlines knows inside a string
    ('D 4 "é" "h" "c.c" 1:2', 4), ('D 4 "h" "\u3000" "c.c" 1:2', 4),
    ('D 4 "a\rb" "h" "c.c" 1:2', 4), ('D 4 "a\x1cb" "h" "c.c" 1:2', 4),
    ('D 4 "a\x0bb" "h" "c.c" 1:2', 4), ('D 4 "a\nE 5 4\nX 5 4\n" "h" "c.c" 1:2', 4),
    ('D 4 "h" "h" "c.c\r\n" 1:2', 4), (_D4 + "\r", 4),
    # numbers int() takes or refuses
    ('D +4 "h" "h" "c.c" 1:2', 4), ('D 04 "h" "h" "c.c" 1:2', 4), ('D 4_0 "h" "h" "c.c" 1:2', 40),
    ('D 4 "h" "h" "c.c" -1:-2', 4), ('D 4 "h" "h" "c.c" -1:2', 4), ('D 4 "h" "h" "c.c" 1:+2', 4),
    ('D 4 "h" "h" "c.c" 1:', 4), ('D 4 "h" "h" "c.c" 1:2:3', 4), ('D 4 "h" "h" "c.c" 12', 4),
    ("D " + "4" * 5000 + ' "h" "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c.c" 1:' + "9" * 5000, 4),
    ('D \u0664 "h" "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c.c" 1:2 9', 4), ('D 4 "h" "h" 1:2', 4),
    # a definition that does not start its line
    ("ED 4 \"h\" \"h\" \"c.c\" 1:2\n 2 4\nX 2 4", 4), ('XD 4 "h" "h" "c.c" 1:2', 4),
    ('E 2 4 D 4 "h" "h" "c.c" 1:2', 4), ('5D 4 "h" "h" "c.c" 1:2\nE 2 4\nX 2 4', 4),
    ('X 2 6 D 4 "h" "h" "c.c" 1:2\n', 4), ('E 2D 4 "h" "h" "c.c" 1:2\n 4\nX 2 4', 4),
    ('"" D 4 "h" "h" "c.c" 1:2', 4), ('D 4 "x D 5 "h" "h" "c.c" 1:2', 5),
    # the writer's form, for contrast
    (_D4, 4), ('D 4 "" "" "" 0:0', 4), ('D 400 "h" "h" "c.c" 1:2', 400),
]


def _around(line, handle):
    head = 'D 2 "main" "main" "m.c" 1:9\nE 0 2\nD 3 "g" "g" "b.c" 2:2\n'
    return (
        head + _pairs(1, 20) + 'D 6 "k" "k" "d.c" 4:4\n' + _pairs(2, 10, 6)
        + line + "\n" + _pairs(3, 10, handle) + 'D 7 "m" "m" "e.c" 5:5\n'
        + _pairs(4, 10, 7) + "X 9 2\n"
    )


@pytest.mark.parametrize("line, handle", ADVERSARIAL_DEFINITIONS, ids=lambda v: ascii(v)[:40])
def test_adversarial_definition_mid_chunk_matches_reference(monkeypatch, line, handle):
    text = _around(line, handle)
    assert len(text) < 1 << 16
    assert_same_at_chunk_sizes(monkeypatch, text, _SIZES)
    # At the end of the text, and without its line break.
    assert_same_at_chunk_sizes(monkeypatch, text + line, _SIZES)
    assert_same_at_chunk_sizes(monkeypatch, text + line + "\n", _SIZES)


@pytest.mark.parametrize("line, handle, outcome", [
    ('D 4 "h\\x" "h" "c.c" 1:2', 4, (TraceError, "line 65: bad escape")),
    ('D 4 "h" "h" "c.c 1:2', 4, (TraceError, "line 65: unterminated string")),
    ('D 3 "h" "h" "c.c" 1:2', 3, (TraceError, "line 65: handle 3 defined twice")),
    ('D 6 "h" "h" "c.c" 1:2', 6, (TraceError, "line 65: handle 6 defined twice")),
    ('D 1 "h" "h" "c.c" 1:2', 4, (TraceError, "line 65: handle 1 is a sentinel")),
    ("E 2 4\n" + _D4, 4, (TraceError, "line 65: unknown handle 4")),
    ("X 2 4\n" + _D4, 4, (TraceError, "line 65: unknown handle 4")),
    ('D 4 "h" "h" "c.c" 1:2:3', 4, (TraceError, "line 65: malformed D record")),
    ("D " + "4" * 5000 + ' "h" "h" "c.c" 1:2', 4, (TraceError, "line 65: malformed D record")),
    ("ED 4 \"h\" \"h\" \"c.c\" 1:2\n 2 4", 4, (TraceError, "line 65: unknown record kind 'ED'")),
    ('E 2D 4 "h" "h" "c.c" 1:2\n 4', 4, (TraceError, "line 65: malformed E record")),
    ('D 4 "a\rb" "h" "c.c" 1:2', 4, (TraceError, "line 65: unterminated string")),
    ('D 4 "a\nE 5 4\n" "h" "c.c" 1:2', 4, (TraceError, "line 65: unterminated string")),
    ("E 2 4 D 4 \"h\" \"h\" \"c.c\" 1:2", 4, (TraceError, "line 65: malformed E record")),
    ("X 2 6", 6, (UnbalancedExitError, "line 65: exit 6 does not match innermost enter")),
])
def test_faults_among_definitions_are_worded_like_the_reference(
    monkeypatch, line, handle, outcome
):
    assert assert_same_at_chunk_sizes(monkeypatch, _around(line, handle), _SIZES) == outcome


@pytest.mark.parametrize("line, handle", [
    ('D +4 "h" "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c.c" -1:-2', 4), ('D 4 "é" "h" "c.c" 1:2', 4),
    ('D 4 "a\tb" "h" "c.c" 1:2', 4), (_D4 + " ", 4), ('D 4 "a\\"b" "c\\\\d" "e f" 1:2', 4),
])
def test_accepted_definitions_read_back(monkeypatch, line, handle):
    text = _around(line, handle)
    trace = assert_same_at_chunk_sizes(monkeypatch, text, _SIZES)
    assert [ev.handle for ev in trace if ev.kind == "D"] == [2, 3, 6, handle, 7]
