"""The line loop alone reads every text as the reference reader does.

``runtime._read_columns`` is made to refuse every chunk, so each chunk
goes through ``runtime._read_lines``, canonical lines included: the
column path reads those in bulk everywhere else.  The unedited
``reference_read_trace`` of ``test_runtime`` decides every outcome,
exception class and message included, at every chunk size.

The last test goes the other way: a handle that only the line loop
defined is read on the column path in every later chunk.
"""

import random

import gens
import pytest

from instrumenta import runtime
from instrumenta.runtime import read_trace, write_trace
from test_runtime import (
    _PREFIX,
    _SUFFIXES,
    ADVERSARIAL_LINES,
    _outcome,
    _pairs,
    assert_same_at_chunk_sizes,
    reference_read_trace,
)

_SIZES = (1, 7, 256, 1 << 16)


@pytest.fixture
def line_loop_only(monkeypatch):
    def refuse(chunk, trace, known, by_kind, stack, last_ts):
        return last_ts, 0

    monkeypatch.setattr(runtime, "_read_columns", refuse)
    return monkeypatch


def _variants(text):
    """``text``, its CRLF spelling, and the same with blank lines between records."""
    lines = text.split("\n")
    blank = "\n".join(line + ("\n \n\t" if i % 3 == 0 else "") for i, line in enumerate(lines))
    return [text, text.replace("\n", "\r\n"), blank, "\n" + blank.replace("\n", "\r\n")]


@pytest.mark.parametrize("line", ADVERSARIAL_LINES, ids=lambda line: line[:40])
def test_adversarial_lines_on_the_line_loop_match_reference(line_loop_only, line):
    for suffix in _SUFFIXES:
        for text in (_PREFIX + line + suffix, line + suffix, _PREFIX + line + "\r\n" + suffix):
            assert_same_at_chunk_sizes(line_loop_only, text, _SIZES)


def test_written_traces_on_the_line_loop_match_reference(line_loop_only):
    for seed in range(120):
        events = gens.trace_events(random.Random(seed))
        for text in _variants(write_trace(events)):
            assert assert_same_at_chunk_sizes(line_loop_only, text, _SIZES) == events


def test_long_canonical_runs_on_the_line_loop_match_reference(line_loop_only):
    # Several full-size chunks of canonical lines, then a fault in the last one.
    run = _PREFIX + _pairs(1, 4000) + _pairs(2, 4000, 2)
    for tail in ("X 9 2\n", "X 9 3\n", "E 0 3\nX 0 3\nX 9 2\n", "E 9 7\n", ""):
        for text in _variants(run + tail):
            assert_same_at_chunk_sizes(line_loop_only, text, _SIZES)


# A definition in a form the writer never produces, each read by the
# line loop alone: two spaces, a leading tab, a CRLF line end, a "+" sign.
_ODD_DEFINITIONS = [
    'D  2 "f" "f" "a.c" 1:1\n',
    '\tD 2 "f" "f" "a.c" 1:1\n',
    'D 2 "f" "f" "a.c" 1:1\r\n',
    'D 2 "f" "f" "a.c" +1:1\n',
]


@pytest.mark.parametrize("odd", _ODD_DEFINITIONS, ids=repr)
@pytest.mark.parametrize("before", [0, 300])
def test_handle_the_line_loop_defined_is_read_on_the_column_path(monkeypatch, odd, before):
    head = 'D 3 "g" "g" "b.c" 2:2\nE 0 3\n' + _pairs(0, before, 3)
    text = head + odd + _pairs(1, 3000, 2) + "E 5 2\n" + _pairs(6, 3000, 2) + "X 9 2\nX 9 3\n"
    line_loop = runtime._read_lines
    chunks = []

    def counted(chunk, *args):
        chunks.append(chunk)
        return line_loop(chunk, *args)

    monkeypatch.setattr(runtime, "_read_lines", counted)
    monkeypatch.setattr(runtime, "_CHUNK_CHARS", 256)
    expected = _outcome(reference_read_trace, text)
    assert read_trace(text) == expected
    assert len(chunks) == 1 and odd in chunks[0]
