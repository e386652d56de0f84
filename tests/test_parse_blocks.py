"""Error order of the parser that reads a function body one block at a time.

``parse_module`` parses each block's lines together and, when one of
them does not parse, reads that block again line by line to name it.
Each row below must be rejected exactly as ``reference_parse_module``,
the line-cursor parser of ``test_parse_oracle``, rejects it: the same
exception class, line, column and message.
"""

from __future__ import annotations

import pytest

from instrumenta.ir import IrParseError, parse_module
from test_parse_oracle import _outcome, reference_parse_module

_HEADER = 'module "m"\nfunc @main file="a.c" lines=1:9\n'

ROWS = {
    # Equal lines share one parse, yet the first of them is the one named.
    "same-bad-line-twice": (
        _HEADER + "{\n^e:\n  li r1, 1\n  bogus r1\n  li r2, 2\n  bogus r1\n  ret\n}\n",
        (IrParseError, 6, 1, "line 6, col 1: unknown instruction 'bogus'"),
    ),
    "bad-line-in-second-block": (
        _HEADER + "{\n^e:\n  li r1, 1\n  jmp ^x\n^x:\n  li r2, 2\n  li r99, 1\n  ret\n}\n",
        (IrParseError, 9, 1, "line 9, col 1: register r99 out of range"),
    ),
    "instruction-before-first-label": (
        _HEADER + "{\n  li r1, 1\n^e:\n  ret\n}\n",
        (IrParseError, 4, 1, "line 4, col 1: instruction before first block label"),
    ),
    # The bad instruction comes first, so it is named, not the label.
    "label-without-colon-after-bad-line": (
        _HEADER + "{\n^e:\n  add r1, r2\n^x\n  ret\n}\n",
        (IrParseError, 5, 1, "line 5, col 1: 'add' expects 3 operand(s)"),
    ),
    "label-without-colon": (
        _HEADER + "{\n^e:\n  jmp ^x\n^x\n  ret\n}\n",
        (IrParseError, 6, 1, "line 6, col 1: block label must end with ':'"),
    ),
    "missing-open-brace": (
        _HEADER + "^e:\n  ret\n}\n",
        (IrParseError, 2, 1, "line 2, col 1: expected '{' after func header"),
    ),
    "text-ends-inside-body": (
        _HEADER + "{\n^e:\n  ret\n",
        (IrParseError, 2, 1, "line 2, col 1: unterminated function body"),
    ),
    # Errors inside an unterminated body come before the missing '}'.
    "bad-line-in-unterminated-body": (
        _HEADER + "{\n^e:\n  ret\n^x:\n  jmp\n",
        (IrParseError, 7, 1, "line 7, col 1: 'jmp' expects 1 operand(s)"),
    ),
    "close-brace-first": (
        _HEADER + "{\n}\n",
        (IrParseError, 2, 1, "line 2, col 1: no-blocks at main: function has no blocks"),
    ),
    # A function after one that is not closed is read as its body.
    "header-inside-unclosed-body": (
        _HEADER + "{\n^e:\n  ret\n" + 'func @g file="a.c" lines=1:2\n{\n^e:\n  ret\n}\n',
        (IrParseError, 6, 1, "line 6, col 1: unknown instruction 'func'"),
    ),
}


@pytest.mark.parametrize("name", ROWS)
def test_rows_match_reference(name):
    text, expected = ROWS[name]
    outcome = _outcome(parse_module, text)
    assert outcome == _outcome(reference_parse_module, text)
    assert outcome == expected
