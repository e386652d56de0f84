"""Region definitions with non-ASCII strings stay on the column path.

A region name or file path such as ``maïn`` or ``/home/josé/x.c`` is
read from its ``D`` line with the columns around it; only the ``E``/``X``
lines must be ASCII.  The unedited ``reference_read_trace`` of
``test_runtime`` decides every outcome, at every chunk size of
``test_runtime._CHUNK_SIZES``.
"""

import random

import pytest

from instrumenta import runtime
from instrumenta.ir import RegionDescriptor
from instrumenta.runtime import TraceEvent, read_trace, write_trace
from test_runtime import _CHUNK_SIZES, assert_same_at_chunk_sizes, reference_read_trace
from test_trace_definitions_oracle import _around, compile_wide_trace, many_region_trace

# Letters, a wide space, a no-break space, an Arabic-Indic digit and a
# character beyond the Basic Multilingual Plane, none of them a line break.
_ACCENTED = ["maïn", "/home/josé/x.c", "名前()", "a\u3000b", "n\xa0b", "v\u0664", "emoji😀.c"]


def _non_ascii(text, rng):
    """The trace ``text`` with the strings of most definitions made non-ASCII."""
    trace = read_trace(text)
    for i, ev in enumerate(trace.definitions):
        d = ev.descriptor
        if rng.random() < 0.8:
            name, canonical, file = d.name, d.canonical_name, d.file
            field = rng.randrange(3)
            extra = rng.choice(_ACCENTED)
            if field == 0:
                name += extra
            elif field == 1:
                canonical = extra + canonical
            else:
                file = extra
            region = RegionDescriptor(
                ev.handle, name, canonical, file, d.begin_lno, d.end_lno, d.flags
            )
            trace.definitions[i] = TraceEvent("D", 0, ev.handle, region)
    return write_trace(trace)


def _texts():
    rng = random.Random(7)
    for seed in range(12):
        yield _non_ascii(many_region_trace(seed), rng)
    yield _non_ascii(compile_wide_trace(7), rng)


def _line_loop(chunk, *args):
    raise AssertionError(f"line loop reached: {chunk[:80]!r}")


def test_non_ascii_definitions_never_reach_the_line_loop(monkeypatch):
    texts = list(_texts())
    assert all(not text.isascii() for text in texts)
    expected = [reference_read_trace(text) for text in texts]
    monkeypatch.setattr(runtime, "_read_lines", _line_loop)
    for size in _CHUNK_SIZES:
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        for text, events in zip(texts, expected):
            assert read_trace(text) == events


# Lines set between canonical runs and D lines in the writer's form, and
# the handle whose records follow them.  Each holds a non-ASCII character
# in a place where the column path must refuse it, or take it as the
# reference does.
NON_ASCII_LINES = [
    # the writer's form
    ('D 4 "maïn" "h" "/home/josé/x.c" 1:2', 4), ('D 4 "h" "\u3000" "c.c" 1:2', 4),
    ('D 4 "😀" "😀" "😀" 1:2', 4), ('D 4 "\u0664" "h" "c.c" 1:2', 4),
    # line breaks that str.splitlines knows beyond ASCII, in each string
    ('D 4 "a\x85b" "h" "c.c" 1:2', 4), ('D 4 "h" "a\u2028b" "c.c" 1:2', 4),
    ('D 4 "h" "h" "a\u2029b" 1:2', 4), ('D 4 "é\x85" "h" "c.c" 1:2', 4),
    # numbers in other digits, which int() takes
    ('D \u0664 "h" "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c.c" \u0661:2', 4),
    ('D 4 "h" "h" "c.c" 1:\u0662', 4), ('D 4\u0660 "h" "h" "c.c" 1:2', 40),
    ('D 4 "h" "h" "c.c" \uff11:2', 4),
    # other whitespace around and between fields
    ('\u3000D 4 "h" "h" "c.c" 1:2', 4), ('D 4 "h" "h" "c.c" 1:2\u3000', 4),
    ('D\u30004 "h" "h" "c.c" 1:2', 4), ('D 4 "h"\xa0"h" "c.c" 1:2', 4),
    ('D 4 "é" "h" "c.c" 1:2\x85', 4),
    # E/X lines that are not ASCII beside a definition that is
    ('D 4 "é" "h" "c.c" 1:2\nE 5 \u0664\nX 5 \u0664', 4),
    ('D 4 "é" "h" "c.c" 1:2\nE\u30005 4', 4),
    ('D 4 "é" "h" "c.c" 1:2\nE 5 4\nX \uff15 4', 4), ('D 4 "é" "h" "c.c" 1:2\nE 5 4 X 5 4', 4),
]


@pytest.mark.parametrize("line, handle", NON_ASCII_LINES, ids=lambda v: ascii(v)[:40])
def test_non_ascii_definition_lines_match_reference(monkeypatch, line, handle):
    text = _around(line, handle)
    assert_same_at_chunk_sizes(monkeypatch, text, (7, 200, 4096, 1 << 16))
    # At the end of the text, and without its line break.
    assert_same_at_chunk_sizes(monkeypatch, text + line, _CHUNK_SIZES)
    assert_same_at_chunk_sizes(monkeypatch, text + line + "\n", _CHUNK_SIZES)


@pytest.mark.parametrize("line", [line for line, _ in NON_ASCII_LINES[:4]])
def test_non_ascii_definitions_in_the_writers_form_stay_on_the_column_path(monkeypatch, line):
    text = _around(line, 4)
    expected = reference_read_trace(text)
    monkeypatch.setattr(runtime, "_read_lines", _line_loop)
    for size in _CHUNK_SIZES:
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        assert read_trace(text) == expected
