"""Differential oracle: ``print_module`` against the printer that formatted
every instruction at every position.

``reference_format_instruction`` and ``reference_print_module`` are
``format_instruction`` and ``print_module`` as they were written before
each instruction's text was stored on it, verbatim.  Every module is
printed twice, cold and then with the texts the first print stored, and
both prints must equal the reference's bytes.  The inputs are the
corpus, generated programs through every inline level and instrumentation
mode, modules that share one object at several positions or between
them, and a module edited after its first print.
"""

from __future__ import annotations

import random
from pathlib import Path

import gens
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import instrument_module
from instrumenta.ir import (
    ALL_OPS,
    _SYNTAX,
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    RegionDescriptor,
    _bad_operands,
    _quote,
    _syntax,
    parse_module,
    print_module,
)
from instrumenta.optimizer import O0, O1, O2, O3, inline_pass

CORPUS = Path(__file__).parent / "corpus"
LEVELS = (O0, O1, O2, O3)
SEEDS = range(100)


# ---------------------------------------------------------------------------
# The reference


def reference_format_instruction(ins: Instruction) -> str:
    # Only the operand count is checked here; validate checks types.
    n = len(ins.args)
    syntax = _SYNTAX.get((ins.op, n)) or _syntax(ins.op, n)
    if syntax is None:
        if ins.op not in ALL_OPS:
            raise ValueError(f"unknown op {ins.op!r}")
        raise ValueError(_bad_operands(ins))
    return syntax.template.format(*ins.args)


def reference_print_module(m: IrModule) -> str:
    """Render a module in canonical text form.

    Printing is deterministic and idempotent: parsing the output yields
    a structurally equal module.
    """
    lines = [f"module {_quote(m.name)}"]
    for f in m.functions:
        lines.append("")
        if f.is_extern:
            lines.append(f"extern @{f.mangled_name}")
            continue
        head = f"func @{f.mangled_name}"
        if f.demangled_name is not None:
            head += f" pretty={_quote(f.demangled_name)}"
        head += f" file={_quote(f.file)} lines={f.begin_line}:{f.end_line}"
        if f.attrs:
            head += " attrs=" + ",".join(sorted(f.attrs))
        lines.append(head)
        lines.append("{")
        for b in f.blocks:
            lines.append(f"^{b.label}:")
            for ins in b.instructions:
                lines.append("  " + reference_format_instruction(ins))
        lines.append("}")
    if m.regions:
        lines.append("")
        lines.append("regions:")
        for rid in sorted(m.regions):
            d = m.regions[rid]
            lines.append(
                f"region {rid} name={_quote(d.name)} canonical={_quote(d.canonical_name)}"
                f" file={_quote(d.file)} lines={d.begin_lno}:{d.end_lno} flags={d.flags}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Inputs


def _assert_prints_as_reference(m: IrModule) -> None:
    expected = reference_print_module(m)
    assert print_module(m) == expected
    assert print_module(m) == expected


def _rule_sets(m: IrModule) -> list[tuple[str, FilterRuleSet]]:
    victim = m.functions[len(m.functions) // 2].mangled_name
    excluding = FilterRuleSet(region_rules=(RegionRule("exclude", victim, True),))
    return [("auto", FilterRuleSet()), ("plugin", FilterRuleSet()), ("plugin", excluding)]


def _builds(m: IrModule):
    """``m`` through every inline level and instrumentation variant."""
    for level in LEVELS:
        yield inline_pass(m, level)[0]
        for mode, rules in _rule_sets(m):
            yield instrument_module(m, rules, mode, level)[0]


def _function(name: str, blocks: list[BasicBlock]) -> IrFunction:
    return IrFunction(name, file="a.c", begin_line=1, end_line=9, blocks=blocks)


# ---------------------------------------------------------------------------
# Tests


def test_corpus_prints_as_reference():
    paths = sorted(CORPUS.glob("*.ir"))
    assert len(paths) == 8
    for path in paths:
        _assert_prints_as_reference(parse_module(path.read_text()))


def test_generated_builds_print_as_reference():
    count = 0
    for seed in SEEDS:
        for generate in (gens.terminating_module, gens.looping_module):
            m = generate(random.Random(seed))
            _assert_prints_as_reference(m)
            for out in _builds(m):
                _assert_prints_as_reference(out)
                count += 1
    assert count == len(SEEDS) * 2 * 16


def test_shared_objects_print_at_every_position():
    add = Instruction("add", (1, 2, 3))
    ret = Instruction("ret", (1,))
    main = _function(
        "main",
        [
            BasicBlock("e", [add, add, Instruction("jmp", ("b",))]),
            BasicBlock("b", [add, Instruction("work", (2,)), add, ret]),
        ],
    )
    one = IrModule("one", [main, _function("g", [BasicBlock("e", [add, ret])])])
    two = IrModule(
        "two",
        [_function("h", [BasicBlock("x", [ret])])],
        {0: RegionDescriptor(0, "h", "h", "a.c", 1, 9)},
    )
    for m in (one, two, one, two):
        _assert_prints_as_reference(m)
    assert print_module(one).count("  add r1, r2, r3\n") == 5


def test_module_edited_after_printing_prints_as_reference():
    for seed in SEEDS[:10]:
        m, _, _ = instrument_module(
            gens.terminating_module(random.Random(seed)), FilterRuleSet(), "auto", O2
        )
        _assert_prints_as_reference(m)
        defined = [f for f in m.functions if not f.is_extern]
        first, last = defined[0], defined[-1]
        block = first.blocks[0]
        block.instructions[0] = Instruction("li", (9, seed))
        last.blocks.append(BasicBlock("late", [block.instructions[-1], Instruction("ret")]))
        _assert_prints_as_reference(m)
