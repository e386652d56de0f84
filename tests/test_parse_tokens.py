"""``parse_module`` parses each distinct operand token once per call.

The module it builds must be the one that parsing each instruction line
alone with ``parse_instruction`` gives, stored verdicts included.  A line
that does not parse must raise what ``parse_instruction`` raises for it
alone, at its own line: also when its bad token read fine earlier as
another kind of operand, and when that token first appears in a later
distinct line.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import gens
from instrumenta.ir import (
    Instruction,
    IrParseError,
    _strip_comment,
    parse_instruction,
    parse_module,
    print_module,
)
from test_ir_oracle import _adversarial_lines

CORPUS = Path(__file__).parent / "corpus"


def _texts() -> list[str]:
    texts = [path.read_text(encoding="utf-8") for path in sorted(CORPUS.glob("*.ir"))]
    texts += [print_module(gens.terminating_module(random.Random(s))) for s in range(0, 600, 3)]
    texts += [print_module(gens.looping_module(random.Random(s))) for s in range(0, 200, 2)]
    texts += [print_module(gens.printable_module(random.Random(s))) for s in range(300)]
    return texts


def _code(raw: str) -> str:
    return (_strip_comment(raw) if ";" in raw else raw).strip()


def _instruction_lines(text: str) -> list[tuple[int, str]]:
    """(line number, code) of each instruction line of a module's text."""
    out = []
    in_body = False
    for lineno, raw in enumerate(text.splitlines(), 1):
        code = _code(raw)
        if code in ("{", "}"):
            in_body = code == "{"
        elif in_body and code and not code.startswith("^"):
            out.append((lineno, code))
    return out


def _value(ins: Instruction) -> tuple:
    """What tells two instructions apart, with their types and verdicts."""
    return ins.op, ins.args, tuple(map(type, ins.args)), vars(ins).get("_verdict")


def _raised(fn, *args) -> tuple | None:
    try:
        fn(*args)
    except IrParseError as exc:
        return str(exc), exc.line, exc.col
    return None


def test_module_is_its_lines_parsed_alone():
    texts = _texts()
    for text in texts:
        m = parse_module(text)
        got = [ins for f in m.functions for b in f.blocks for ins in b.instructions]
        alone = [parse_instruction(code, lineno) for lineno, code in _instruction_lines(text)]
        assert list(map(_value, got)) == list(map(_value, alone)), text
    assert len(texts) > 600


def test_bad_line_raises_as_it_does_alone():
    """Each adversarial line that does not parse, put before a late
    instruction line of a valid module, after lines whose tokens the
    parse has already read."""
    rng = random.Random(31)
    texts = [t for t in _texts() if len(_instruction_lines(t)) >= 4]
    checked = 0
    for bad in _adversarial_lines():
        code = _code(bad)
        if not code or code.startswith("^") or code in ("{", "}"):
            continue  # not an instruction line in module text
        text = rng.choice(texts)
        lines = text.splitlines()
        spots = _instruction_lines(text)
        lineno, _ = rng.choice(spots[len(spots) // 2 :])
        expected = _raised(parse_instruction, code, lineno)
        if expected is None:
            continue
        lines.insert(lineno - 1, "  " + bad)
        assert _raised(parse_module, "\n".join(lines) + "\n") == expected, bad
        checked += 1
    assert checked > 4_000


# (an earlier line that parses, a later one whose bad token the earlier
# one read as another kind of operand, the message).
READ_BEFORE = [
    ("li r1, 0", "work 0", "work needs n >= 1"),
    ("li r1, -2", "work -2", "work needs n >= 1"),
    ("li r1, -1", "hook.enter -1", "region id must be non-negative"),
    ("work 5", "jmp 5", "expected ^label, got '5'"),
    ("jmp ^b", "call ^b", "expected @function, got '^b'"),
    ("call @f", "jmp @f", "expected ^label, got '@f'"),
    ("li r7, 7", "li 7, 7", "expected register, got '7'"),
    ("add r1, r2, r3", "li r1, r2", "expected integer, got 'r2'"),
    ("hook.enter 0", "ret 0", "expected register, got '0'"),
]


def _module(body: list[str], later: list[str]) -> str:
    """Function ``f`` holding ``body`` then ``ret``, and after it ``g``
    holding ``later`` then ``ret``."""
    head = 'module "m"\n\nfunc @f file="a.c" lines=1:9\n{\n^b:\n'
    g = '}\n\nfunc @g file="a.c" lines=1:9\n{\n^b:\n'
    return (
        head + "".join(f"  {line}\n" for line in body) + "  ret\n"
        + g + "".join(f"  {line}\n" for line in later) + "  ret\n}\n"
    )


@pytest.mark.parametrize("earlier, bad, message", READ_BEFORE)
def test_token_read_as_another_kind_before(earlier, bad, message):
    # Line 6 holds the earlier line; g's lines start at line 13.
    for later in ([bad], [earlier, bad], [bad, earlier]):
        lineno = 13 + later.index(bad)
        text = _module([earlier], later)
        assert _raised(parse_module, text) == (f"line {lineno}, col 1: {message}", lineno, 1)
        assert _raised(parse_instruction, bad, lineno) == _raised(parse_module, text)
    # Alone, the earlier line parses and the bad one does not.
    parse_instruction(earlier, 1)
    assert _raised(parse_module, _module([], [bad])) == _raised(parse_instruction, bad, 12)


def test_bad_token_first_in_a_later_distinct_line():
    good = ["li r1, 2", "addi r2, r1, 3", "li r1, 2"]
    text = _module(good, ["li r3, 2", "li r16, 2", "add r16, r1, r2", "li r16, 2"])
    # f's lines are 6-9 (with its ret); g's start at line 15.
    assert _raised(parse_module, text) == ("line 16, col 1: register r16 out of range", 16, 1)
    # Equal to an earlier line but for its bad token.
    text = _module(good, ["li r1, x"])
    assert _raised(parse_module, text) == ("line 15, col 1: expected integer, got 'x'", 15, 1)
