"""Differential oracle: the table-driven ``func`` header reader against the
per-key chain it replaced.

``reference_parse_func_header`` below is ``ir._parse_func_header`` as it
was written before one table gave each key its reader: an ``if``/``elif``
chain over the keys, filling five locals.  It is kept verbatim, with the
module-level patterns and ``_number`` it read, so that both readers can be
compared on seeded adversarial headers: every key order, repeated and
missing keys, tabs and other blanks, bad ``lines=`` and ``attrs=`` values,
escaped quotes and numbers with more digits than ``int()`` reads.  They
must return equal functions, or raise ``_SyntaxAt`` with the same message
and position.

The only allowed difference is a non-ASCII decimal digit in ``lines=``
(``NON_ASCII_DIGITS``): the reference read it with ``\\d`` and ``int()``,
and the reader, which takes ASCII digits only, refuses the header.
"""

from __future__ import annotations

import itertools
import random
import re

import pytest

from instrumenta.ir import (
    _NAME_RE,
    FUNCTION_ATTRS,
    IrFunction,
    _parse_func_header,
    _read_quoted,
    _SyntaxAt,
)

# ---------------------------------------------------------------------------
# The reference: the per-key header reader, verbatim.

_BLANK_RE = re.compile(r"[ \t]")
_BLANKS_RE = re.compile(r"[ \t]*")
_FUNC_KV_RE = re.compile(r"(pretty|file|lines|attrs)=")
_LINES_RE = re.compile(r"(\d+):(\d+)")
_ATTRS_RE = re.compile(r"[A-Za-z_,]+")


def reference_parse_func_header(line: str) -> IrFunction:
    pos = _BLANKS_RE.match(line, len("func")).end()
    if not line.startswith("@", pos):
        raise _SyntaxAt("func needs @name", pos)
    # name runs to the first blank
    mo = _BLANK_RE.search(line, pos)
    if mo is None:
        raise _SyntaxAt("func header needs file= and lines=", 0)
    name_end = mo.start()
    name = line[pos + 1 : name_end]
    if not _NAME_RE.match(name):
        raise _SyntaxAt(f"bad function name '{name}'", pos + 1)
    pos = name_end
    pretty: str | None = None
    file: str | None = None
    begin = end = None
    attrs: set[str] = set()
    keys: set[str] = set()
    while pos < len(line):
        if line[pos] in " \t":
            pos += 1
            continue
        mo = _FUNC_KV_RE.match(line, pos)
        if not mo:
            raise _SyntaxAt(
                f"unexpected token '{line[pos:].split()[0]}' in func header", pos
            )
        key = mo.group(1)
        if key in keys:
            raise _SyntaxAt(f"repeated key '{key}=' in func header", pos)
        keys.add(key)
        pos = mo.end()
        if key == "pretty":
            pretty, pos = _read_quoted(line, pos)
        elif key == "file":
            file, pos = _read_quoted(line, pos)
        elif key == "lines":
            mo = _LINES_RE.match(line, pos)
            if not mo:
                raise _SyntaxAt("lines= needs <a>:<b>", pos)
            begin, end = (_number(mo, k, "lines= number") for k in (1, 2))
            pos = mo.end()
        else:  # attrs
            mo = _ATTRS_RE.match(line, pos)
            if not mo:
                raise _SyntaxAt("attrs= needs a name list", pos)
            for a in mo.group(0).split(","):
                if a not in FUNCTION_ATTRS:
                    raise _SyntaxAt(f"unknown attribute '{a}'", pos)
                attrs.add(a)
                pos += len(a) + 1
            pos = mo.end()
    if file is None or begin is None:
        raise _SyntaxAt("func header needs file= and lines=", 0)
    return IrFunction(
        mangled_name=name,
        file=file,
        begin_line=begin,
        end_line=end,
        demangled_name=pretty,
        attrs=attrs,
    )


def _number(mo: re.Match[str], group: int, what: str) -> int:
    """The decimal number in ``group`` of a header's match ``mo``; one with
    more digits than int() reads is a syntax error at its column."""
    try:
        return int(mo.group(group))
    except ValueError:
        raise _SyntaxAt(f"{what} has too many digits", mo.start(group)) from None


# ---------------------------------------------------------------------------
# The comparison.

# Header -> (the reference's outcome, the reader's): see _outcome.
NON_ASCII_DIGITS = {
    'func @f file="a.c" lines=\u0661:2': (
        ("function", IrFunction("f", "a.c", 1, 2)),
        ("error", "lines= needs <a>:<b>", 25),
    ),
    'func @f file="a.c" lines=1:\u0662': (
        ("function", IrFunction("f", "a.c", 1, 2)),
        ("error", "lines= needs <a>:<b>", 25),
    ),
    'func @f lines=1:2\u0663 file="a.c"': (
        ("function", IrFunction("f", "a.c", 1, 23)),
        ("error", "unexpected token '\u0663' in func header", 17),
    ),
    'func @f lines=\uff11:2 lines=1:2': (
        ("error", "repeated key 'lines=' in func header", 18),
        ("error", "lines= needs <a>:<b>", 14),
    ),
}

BLANKS = ["", " ", " ", " ", "\t", " \t", "  ", "\t\t", "\xa0", "\u2003"]
NAMES = ["f", "main", "_Z4funci", "a.b$~", "9f", "", "f@g", "f\u00e9"]
LONG = "9" * 4301  # one digit more than int() reads by default
VALUES = {
    "pretty": ['"f()"', '"a\\"b"', '"c:\\\\d"', '""', '"a;b"', '"t\tab"', '"a\\x"',
               '"open', "bare", '"\u00e9"', '"a\\"'],
    "file": ['"a.c"', '"x y.c"', '"a\\\\"', '""', '"a\\q.c"', '"a.c', "a.c", '"\\""'],
    "lines": ["1:2", "0:0", "3:2", "01:002", "1", ":2", "1:", "a:b", "-1:2", "1 :2",
              "1:2:3", "1:2x", LONG + ":1", "1:" + LONG, "\u0661:2", "1:\u0662",
              "\u00b2:3", "", "12345678901234567890:1"],
    "attrs": ["builtin", "builtin,no_inline", "empty_body,artificial,openmp_internal",
              "builtin,builtin", "bogus", "builtin,bogus", ",", "builtin,", ",builtin",
              "", "9", "Builtin", "no_inline,x9"],
}
JUNK = ["junk", "x=1", "pretty", "PRETTY=\"a\"", "file:\"a\"", "lines =1:2", ";", "=", "@g"]


def _outcome(read, line: str) -> tuple:
    """``("function", f)`` or ``("error", message, position)``."""
    try:
        return ("function", read(line))
    except _SyntaxAt as exc:
        return ("error", *exc.args)


def _assert_same(line: str) -> None:
    ours = _outcome(_parse_func_header, line)
    theirs = _outcome(reference_parse_func_header, line)
    if ours != theirs:
        assert any(c.isdecimal() and not c.isascii() for c in line), (line, ours, theirs)
        assert ours[0] == "error", (line, ours, theirs)


def _seeded_header(rng: random.Random) -> str:
    def pick(good: list[str], share: float) -> str:
        return good[0] if rng.random() < share else rng.choice(good)

    line = "func" + pick(BLANKS[1:], 0.8) + "@" + pick(NAMES, 0.85)
    keys = [key for key in VALUES if rng.random() < 0.8]
    rng.shuffle(keys)
    if rng.random() < 0.15:  # a repeated key
        keys.insert(rng.randint(0, len(keys)), rng.choice(sorted(VALUES)))
    for key in keys:
        line += pick(BLANKS[1:7] if rng.random() < 0.95 else BLANKS, 0.6)
        line += f"{key}={pick(VALUES[key], 0.75)}"
        if rng.random() < 0.05:
            line += rng.choice(BLANKS) + rng.choice(JUNK)
    # parse_module hands the reader a stripped line.
    return (line + rng.choice(BLANKS)).strip()


def test_seeded_headers_cover_every_outcome():
    rng = random.Random(0)
    outcomes = [_outcome(_parse_func_header, _seeded_header(rng)) for _ in range(20_000)]
    functions = [o[1] for o in outcomes if o[0] == "function"]
    assert len(functions) > 2_000
    assert any(f.demangled_name is not None and f.attrs for f in functions)
    messages = {re.sub("'.*'", "'…'", o[1]) for o in outcomes if o[0] == "error"}
    assert messages >= {
        "func needs @name", "func header needs file= and lines=", "bad function name '…'",
        "unexpected token '…' in func header", "repeated key '…' in func header",
        "expected quoted string", "bad escape", "unterminated string",
        "lines= needs <a>:<b>", "lines= number has too many digits",
        "attrs= needs a name list", "unknown attribute '…'",
    }


@pytest.mark.parametrize("seed", range(4))
def test_seeded_headers_match_reference(seed):
    rng = random.Random(seed)
    for _ in range(20_000):
        _assert_same(_seeded_header(rng))


@pytest.mark.parametrize("blank", [" ", "\t", " \t "])
def test_every_key_order_matches_reference(blank):
    fields = {"pretty": 'pretty="f(int)"', "file": 'file="a.c"', "lines": "lines=3:9",
              "attrs": "attrs=builtin,no_inline"}
    for n in range(len(fields) + 1):
        for keys in itertools.permutations(fields, n):
            for repeat in [None, *keys]:
                parts = [fields[k] for k in keys] + ([fields[repeat]] if repeat else [])
                _assert_same(blank.join(["func", "@_Z1fi", *parts]))


@pytest.mark.parametrize("line", sorted(NON_ASCII_DIGITS))
def test_non_ascii_digits_are_the_one_difference(line):
    theirs, ours = NON_ASCII_DIGITS[line]
    assert _outcome(reference_parse_func_header, line) == theirs
    assert _outcome(_parse_func_header, line) == ours
