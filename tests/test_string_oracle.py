"""Differential oracle: the one quoted-string reader against the scanners
it replaced, plus round trips through both writers.

The IR and the trace share one quoted-string grammar: a backslash
escapes ``"`` or ``\\`` and nothing else.  ``ir._read_quoted`` reads it
for both formats and ``ir._quote`` writes it.  The ``reference_*``
functions below are the readers as they were written before that merge,
kept verbatim: the IR's ``_strip_comment``, ``_scan_quoted`` and
``_unquote``, and the string loop of the trace's ``_split_trace_line``.

The IR references decide what is accepted and how it decodes; the trace
loop decides the error message, because the IR took on its rule (the
first bad escape is reported before a missing closing quote).
"""

from __future__ import annotations

import random

import pytest

from instrumenta.ir import (
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    IrParseError,
    RegionDescriptor,
    _read_quoted,
    _strip_comment,
    _SyntaxAt,
    parse_module,
    print_module,
)
from instrumenta.runtime import Trace, TraceError, TraceEvent, read_trace, write_trace

# ---------------------------------------------------------------------------
# The reference: the scanners before the merge, verbatim.


def reference_strip_comment(line: str) -> str:
    # ';' starts a comment unless inside a quoted string.  Without a
    # quote no backslash escapes anything, so the first ';' decides.
    if '"' not in line:
        return line.partition(";")[0]
    in_quote = False
    i = 0
    while i < len(line):
        c = line[i]
        if c == "\\" and in_quote:
            i += 2
            continue
        if c == '"':
            in_quote = not in_quote
        elif c == ";" and not in_quote:
            return line[:i]
        i += 1
    return line


def reference_unquote(token: str, lineno: int, col: int) -> str:
    if len(token) < 2 or token[0] != '"' or token[-1] != '"':
        raise IrParseError("expected quoted string", lineno, col)
    body = token[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                raise IrParseError("bad escape in string", lineno, col)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def reference_scan_quoted(line: str, pos: int, lineno: int) -> tuple[str, int]:
    # Returns the raw quoted token starting at pos and the index past it.
    if pos >= len(line) or line[pos] != '"':
        raise IrParseError("expected quoted string", lineno, pos + 1)
    i = pos + 1
    while i < len(line):
        if line[i] == "\\":
            i += 2
            continue
        if line[i] == '"':
            return line[pos : i + 1], i + 1
        i += 1
    raise IrParseError("unterminated string", lineno, pos + 1)


def reference_trace_string(line: str, i: int, lineno: int) -> tuple[str, int]:
    # The quoted-field branch of the trace's _split_trace_line, as a function
    # of the field's opening quote; returns the field and the index past it.
    n = len(line)
    j = i + 1
    out: list[str] = []
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
    return "".join(out), j + 1


# ---------------------------------------------------------------------------
# Inputs.

_TOKENS = ['"', "\\", '\\"', "\\\\", ";", " ", "a", "é", "\u3000"]


def _token_lines(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(_TOKENS) for _ in range(rng.randint(0, 10)))
        for _ in range(count)
    ]


def _reference_ir_string(line: str, pos: int) -> tuple[str, int]:
    raw, end = reference_scan_quoted(line, pos, 1)
    return reference_unquote(raw, 1, 1), end


# ---------------------------------------------------------------------------
# The reader.


def test_reader_matches_reference():
    checked = rejected = 0
    for line in _token_lines(seed=5, count=20000):
        for pos in [i for i, c in enumerate(line) if c == '"']:
            try:
                expected = _reference_ir_string(line, pos)
            except IrParseError:
                expected = None
            try:
                got = _read_quoted(line, pos)
            except _SyntaxAt as exc:
                message, at = exc.args
                assert expected is None, (line, pos)
                with pytest.raises(TraceError) as trace_error:
                    reference_trace_string(line, pos, 1)
                assert f"line 1: {message}" == str(trace_error.value), (line, pos)
                # The fault is the first one: the text before it is a
                # well-formed string once closed.
                if message == "bad escape":
                    assert line[at] == "\\", (line, pos, at)
                    assert _read_quoted(line[:at] + '"', pos)
                else:
                    assert at == pos, (line, pos, at)
                    assert _read_quoted(line + '"', pos)
                rejected += 1
            else:
                assert got == expected, (line, pos)
                assert got == reference_trace_string(line, pos, 1), (line, pos)
            checked += 1
    assert checked > 20000 and 0 < rejected < checked


@pytest.mark.parametrize(
    "line, message, col",
    [
        ('"', "unterminated string", 0),
        ('"\\', "bad escape", 1),
        ('"a\\x"', "bad escape", 2),
        ('"a\\x', "bad escape", 2),
        ('"a\\"', "unterminated string", 0),
        ('"\\\\\\', "bad escape", 3),
        ("a", "expected quoted string", 0),
        ("", "expected quoted string", 0),
    ],
)
def test_reader_faults(line, message, col):
    with pytest.raises(_SyntaxAt) as exc:
        _read_quoted(line, 0)
    assert exc.value.args == (message, col)


def test_strip_comment_matches_reference():
    lines = _token_lines(seed=6, count=20000)
    lines += [f"func @f file={s} lines=1:2 ; c" for s in _token_lines(seed=7, count=5000)]
    well_formed = 0
    for line in lines:
        expected = reference_strip_comment(line)
        if _malformed(expected):
            # A malformed string keeps the whole line for the parser to reject.
            assert _strip_comment(line) == line, line
        else:
            assert _strip_comment(line) == expected, line
            well_formed += 1
    assert 0 < well_formed < len(lines)


def _malformed(text: str) -> bool:
    """Whether a quoted string in ``text`` fails the reference scanners."""
    pos = text.find('"')
    while pos != -1:
        try:
            _, end = _reference_ir_string(text, pos)
        except IrParseError:
            return True
        pos = text.find('"', end)
    return False


# ---------------------------------------------------------------------------
# Round trips through the writers, and what the writers refuse.

_ALPHABET = ['"', "\\", ";", ",", "=", ":", "\t", "\x00", "\x1f", "\xa0", "\u3000",
             "\u200b", ' file="', "a", "é"]


def _strings(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    return [
        "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 8)))
        for _ in range(count)
    ]


def _function(i: int, pretty: str, file: str) -> IrFunction:
    ret = [BasicBlock("e", [Instruction("ret")])]
    return IrFunction(f"f{i}", file, 1, 2, pretty, {"empty_body"}, ret)


def test_ir_strings_roundtrip():
    strings = _strings(seed=8, count=20000)
    for s in strings:
        m = IrModule(s)
        assert parse_module(print_module(m)) == m
    for start in range(0, len(strings), 500):
        chunk = strings[start : start + 500]
        m = IrModule(chunk[0])
        for i, s in enumerate(chunk):
            m.functions.append(_function(i, s, chunk[i - 1]))
            m.regions[i] = RegionDescriptor(i, s, chunk[i - 1], chunk[i - 2], 1, 2, i)
        assert parse_module(print_module(m)) == m


def test_trace_strings_roundtrip():
    strings = _strings(seed=9, count=20000)
    events = [
        TraceEvent("D", 0, h, RegionDescriptor(h, s, strings[h - 3], strings[h - 4], 1, 2))
        for h, s in enumerate(strings, start=2)
    ]
    trace = Trace.of(events)
    assert read_trace(write_trace(trace)) == trace


LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


def test_line_breaks_are_what_splitlines_splits_on():
    # Every line-breaking code point lies below U+2100.
    assert {c for c in map(chr, range(0x2100)) if len(f"a{c}b".splitlines()) > 1} == set(
        LINE_BREAKS
    )


@pytest.mark.parametrize("brk", LINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
def test_writers_refuse_line_breaks(brk):
    s = f"a{brk}b"
    modules = [
        IrModule(s),
        IrModule("m", [_function(0, s, "a.c")]),
        IrModule("m", [_function(0, None, s)]),
        IrModule("m", regions={0: RegionDescriptor(0, "f", s, "a.c", 1, 2)}),
    ]
    for m in modules:
        with pytest.raises(ValueError, match="line break"):
            print_module(m)
    d = TraceEvent("D", 0, 2, RegionDescriptor(2, s, "f", "a.c", 1, 2))
    with pytest.raises(ValueError, match="line break"):
        write_trace([d])
