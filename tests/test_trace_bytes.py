"""read_trace's column path decodes chunks as ASCII bytes.

A chunk that is not ASCII goes to the line loop, and the bytes it does
decode are split only at ASCII whitespace, where ``str.split`` also
splits at the separators \\x1c-\\x1f, \\x85 and \\xa0.  These rows put
such characters deep inside canonical runs, at every chunk size and in a
second full-size chunk; the reference reader decides every outcome, and
none may surface as an encoding error.
"""

import pytest

from instrumenta import runtime
from instrumenta.runtime import read_trace
from test_runtime import (
    _CHUNK_SIZES,
    _PREFIX,  # handles 2 and 3 defined, 2 open, before the line under test
    _SUFFIXES,  # each closes what an accepted E or X line leaves open
    _outcome,
    _pairs,
    reference_read_trace,
)

BYTE_PATH_LINES = [
    "E 5 3\ud800", "X 5\udcff2",  # lone surrogates, which strict ASCII and UTF-8 refuse
    "E 5 3é",
    "E 5\x1c3", "E 5\x1f3",  # whitespace to str.split, not to bytes.split
    "E 5\x853", "E 5\xa03",
    # The same characters where a canonical line would carry them.
    "\ud800", "é", "\x1c", "\x85", "E 5 3\x1e", "X\xa05 2", "\x1fE 5 3",
]


def _assert_matches_reference(text):
    expected = _outcome(reference_read_trace, text)
    got = _outcome(read_trace, text)
    assert got == expected, repr(text[:200])
    assert got[0] is not UnicodeEncodeError


@pytest.mark.parametrize("line", BYTE_PATH_LINES, ids=ascii)
def test_line_deep_in_canonical_runs_matches_reference(monkeypatch, line):
    for size in _CHUNK_SIZES:
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        for suffix in _SUFFIXES:
            _assert_matches_reference(
                _PREFIX + _pairs(1, 40) + line + "\n" + _pairs(9, 40)[:-1] + suffix
            )


@pytest.mark.parametrize("line", BYTE_PATH_LINES, ids=ascii)
def test_line_in_second_full_size_chunk_matches_reference(line):
    run = _pairs(1, 3000)
    for suffix in _SUFFIXES:
        _assert_matches_reference(_PREFIX + run + line + "\n" + _pairs(9, 40)[:-1] + suffix)


@pytest.mark.parametrize("name", ["f\ud800", "é", "\xa0"], ids=ascii)
def test_non_ascii_definition_between_runs_reads_back(monkeypatch, name):
    # A chunk that holds a non-ASCII D line is read by the line loop, and the
    # canonical runs around it still decode as columns.
    text = (
        'D 3 "g" "g" "b.c" 2:2\n' + _pairs(1, 3000) + f'D 2 "{name}" "{name}" "a.c" 1:1\n'
        + "E 2 2\nX 2 2\n" + _pairs(3, 3000)
    )
    for size in _CHUNK_SIZES:
        monkeypatch.setattr(runtime, "_CHUNK_CHARS", size)
        _assert_matches_reference(text)
    trace = read_trace(text)
    assert len(trace) == 2 + 4 * 3000 + 2 and trace.definitions[1].descriptor.name == name
