"""Each compile pass builds one ``Instruction`` object per distinct value.

A pass is one ``instrument_module`` call, with the ``inline_pass`` it
runs, or one standalone ``inline_pass``.  Among the output instructions
that are not objects of the input module, equal instructions must be
one object, and the pass's table must not outlive it.
"""

from __future__ import annotations

import gc
import random

import gens
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import enforce_finally, insert_entry_hook, instrument_module
from instrumenta.ir import Instruction, InstructionTable, IrModule
from instrumenta.optimizer import O0, O1, O2, O3, inline_pass

LEVELS = (O0, O1, O2, O3)
SEEDS = range(60)


def _instructions(m: IrModule) -> list[Instruction]:
    return [ins for f in m.functions for b in f.blocks for ins in b.instructions]


def _builds(m: IrModule):
    victim = m.functions[len(m.functions) // 2].mangled_name
    excluding = FilterRuleSet(region_rules=(RegionRule("exclude", victim, True),))
    for level in LEVELS:
        yield inline_pass(m, level)[0]
        for mode, rules in (("auto", FilterRuleSet()), ("plugin", FilterRuleSet()),
                            ("plugin", excluding)):
            yield instrument_module(m, rules, mode, level)[0]


def _assert_one_object_per_value(m: IrModule, out: IrModule) -> int:
    inputs = {id(ins) for ins in _instructions(m)}
    built = [ins for ins in _instructions(out) if id(ins) not in inputs]
    assert len({id(ins) for ins in built}) == len(set(built))
    return len(built)


def test_each_pass_builds_one_object_per_distinct_instruction():
    built = 0
    for seed in SEEDS:
        for generate in (gens.terminating_module, gens.looping_module):
            m = generate(random.Random(seed))
            for out in _builds(m):
                built += _assert_one_object_per_value(m, out)
    assert built > 10_000


def test_standalone_helpers_share_within_their_call():
    m = gens.terminating_module(random.Random(3))
    f = next(f for f in m.functions if not f.is_extern)
    out = enforce_finally(insert_entry_hook(f, 4), 4)
    hooks = [ins for b in out.blocks for ins in b.instructions if ins.op == "hook.exit"]
    assert len(hooks) >= 2 and all(h is hooks[0] for h in hooks)


def test_remap_shares_through_a_table():
    table = InstructionTable()
    a, b = Instruction("add", (1, 2, 3)), Instruction("add", (1, 2, 3))
    regs = {1: 4, 2: 5, 3: 6}
    assert a.remap(regs, None, table) is b.remap(regs, None, table)
    assert a.remap(regs, None, table) is table["add", (4, 5, 6)]
    assert a.remap(regs) == a.remap(regs, None, table)
    assert a.remap(regs) is not a.remap(regs)
    jnz = Instruction("jnz", (1, "x", "y"))
    assert jnz.remap(regs, {"x": "p", "y": "q"}, table) is table["jnz", (4, "p", "q")]


def test_no_table_outlives_its_pass():
    m = gens.terminating_module(random.Random(5))
    for _ in _builds(m):
        pass
    gc.collect()
    assert not any(isinstance(o, InstructionTable) for o in gc.get_objects())
