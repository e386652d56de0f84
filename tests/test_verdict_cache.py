"""The verdict ``validate`` stores on an ``Instruction`` is invisible.

A checked instruction must compare, hash, print, pickle, copy and
``dataclasses.replace`` exactly as a fresh equal instruction does, and
printing a module must not depend on whether it was validated.  The
parser stores the verdict as it builds an instruction; that verdict
must be the one ``validate`` computes.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle
from pathlib import Path

from instrumenta.ir import (
    Instruction,
    IrModule,
    _check_instruction,
    _judge,
    format_instruction,
    parse_instruction,
    parse_module,
    print_module,
    validate,
)
from test_ir_oracle import _adversarial_lines, _wide_calls
from test_validate_oracle import _instructions, _mutants, _valid_modules

CORPUS = Path(__file__).parent / "corpus"
I = Instruction.make

# Well formed, defective and malformed, of every kind validate reports.
ODD = (
    I("li", 16, 0), I("add", -1, 2, 3), I("work", 0), I("work", "3"), I("li", 1),
    I("jmp", 1), I("li", True, 0), I("nop", 1), I("call", "f", *range(9)),
    I("hook.enter", 999), I("jnz", 2, "gone", "away"), I("ret"), I("ret", 20),
)


def _distinct() -> list[Instruction]:
    seen = {ins for m in _valid_modules() for ins in _instructions(m)}
    return sorted(seen, key=repr) + _wide_calls() + list(ODD)


def _stored(ins: Instruction) -> bool:
    return "_verdict" in vars(ins)


def test_checked_instruction_is_indistinguishable_from_a_fresh_one():
    m = IrModule("m")
    for ins in _distinct():
        checked, fresh = Instruction(ins.op, ins.args), Instruction(ins.op, ins.args)
        _check_instruction(m, {"f"}, {"n", "u"}, checked)
        assert _stored(checked) and not _stored(fresh)
        assert checked == fresh and not checked != fresh
        assert hash(checked) == hash(fresh)
        assert repr(checked) == repr(fresh)
        assert dataclasses.astuple(checked) == dataclasses.astuple(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(checked, protocol)
            assert data == pickle.dumps(fresh, protocol)
            assert not _stored(pickle.loads(data))
        for twin in (
            copy.copy(checked),
            copy.deepcopy(checked),
            dataclasses.replace(checked),
        ):
            assert twin == fresh and repr(twin) == repr(fresh)
            assert not _stored(twin)
    assert [f.name for f in dataclasses.fields(Instruction)] == ["op", "args"]


def test_printed_instruction_is_indistinguishable_from_a_fresh_one():
    printed_count = 0
    for ins in _distinct():
        printed, fresh = Instruction(ins.op, ins.args), Instruction(ins.op, ins.args)
        try:
            text = format_instruction(printed)
        except ValueError:  # malformed: the verdict is stored, no text
            assert _stored(printed) and "_text" not in vars(printed)
            continue
        printed_count += 1
        assert vars(printed)["_text"] == text
        assert format_instruction(Instruction(ins.op, ins.args)) == text
        assert vars(fresh) == {"op": ins.op, "args": ins.args}
        assert printed == fresh and not printed != fresh
        assert hash(printed) == hash(fresh)
        assert repr(printed) == repr(fresh)
        assert dataclasses.astuple(printed) == dataclasses.astuple(fresh)
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(printed, protocol)
            assert data == pickle.dumps(fresh, protocol)
            assert vars(pickle.loads(data)) == vars(fresh)
        for twin in (
            copy.copy(printed),
            copy.deepcopy(printed),
            dataclasses.replace(printed),
        ):
            assert twin == fresh and repr(twin) == repr(fresh)
            assert vars(twin) == vars(fresh)
    assert printed_count > 900
    assert [f.name for f in dataclasses.fields(Instruction)] == ["op", "args"]


def test_printing_does_not_depend_on_validation():
    for m in _valid_modules()[::3]:
        cold = copy.deepcopy(m)
        before = print_module(cold)
        assert validate(cold) == []
        assert print_module(cold) == before


def _parsed_instructions():
    """Every instruction the parser builds from generated and corpus
    modules, their builds, lines of defective modules and adversarial
    lines."""
    for m in _valid_modules():
        yield from _instructions(parse_module(print_module(m)))
    for path in sorted(CORPUS.glob("*.ir")):
        yield from _instructions(parse_module(path.read_text()))
    lines = _adversarial_lines()
    for m in _mutants():
        try:
            lines += print_module(m).splitlines()
        except ValueError:  # an instruction the printer refuses
            pass
    for line in lines:
        try:
            yield parse_instruction(line.strip(), 7)
        except Exception:  # rejected text, a header or a label line
            pass


def test_parser_stores_the_verdict_validate_computes():
    count = 0
    for ins in _parsed_instructions():
        assert _stored(ins), ins
        assert ins._verdict == _judge(Instruction(ins.op, ins.args)), ins
        count += 1
    assert count > 100_000
