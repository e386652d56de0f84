"""Golden digests and non-mutation properties of the compile path.

``compile_golden.json`` pins, for each of 300 ``gens.terminating_module``
seeds, one sha256 over every variant of the compile path: ``inline_pass``
at O0-O3 (printed module plus the report's site lists) and
``instrument_module`` at O0-O3 in auto mode, in plugin mode without
rules and in plugin mode excluding one generated function (printed
module, report lists and descriptors).  A change that means to alter
compiled output regenerates the file with

    PYTHONPATH=src python tests/test_compile_golden.py --write

and says why in CHANGES.md.  The script prints every seed whose digest
changed, and a failing test names every mismatched seed.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

import pytest

import gens
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import instrument_module
from instrumenta.ir import (
    BasicBlock,
    Instruction,
    IrModule,
    RegionDescriptor,
    print_module,
)
from instrumenta.optimizer import O0, O1, O2, O3, inline_pass

GOLDEN_PATH = Path(__file__).parent / "compile_golden.json"
SEEDS = range(300)
LEVELS = (O0, O1, O2, O3)


def _module(seed: int) -> IrModule:
    return gens.terminating_module(random.Random(seed))


def _rule_sets(m: IrModule) -> list[tuple[str, str, FilterRuleSet]]:
    # The excluded function is picked by position so that every seed
    # excludes some generated function, main included.
    victim = m.functions[len(m.functions) // 2].mangled_name
    return [
        ("auto", "auto", FilterRuleSet()),
        ("plugin", "plugin", FilterRuleSet()),
        (
            f"plugin-exclude-{victim}",
            "plugin",
            FilterRuleSet(region_rules=(RegionRule("exclude", victim, True),)),
        ),
    ]


def _variants_text(m: IrModule) -> str:
    parts: list[str] = []
    for level in LEVELS:
        out, rep = inline_pass(m, level)
        parts.append(
            f"inline {level.level}\n{print_module(out)}"
            f"{rep.inlined_sites!r}\n{rep.skipped!r}\n"
        )
        for label, mode, rules in _rule_sets(m):
            out, irep, _ = instrument_module(m, rules, mode, level)
            descs = [out.regions[r] for r in sorted(out.regions)]
            parts.append(
                f"{label} {level.level}\n{print_module(out)}"
                f"{irep.instrumented!r}\n{irep.skipped!r}\n{descs!r}\n"
            )
    return "".join(parts)


def _digest(seed: int) -> str:
    text = _variants_text(_module(seed))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_compile_output_matches_golden_digests():
    golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    assert sorted(golden, key=int) == [str(s) for s in SEEDS]
    mismatched = [s for s in SEEDS if _digest(s) != golden[str(s)]]
    assert not mismatched, f"digests changed for seeds {mismatched}"


def _mutate_output(out: IrModule) -> None:
    # Grow every container a pass hands back: the function list, each
    # function's blocks, attrs and instruction lists, and the region
    # table.  None of it may reach the pass's input.
    for f in out.functions:
        f.attrs.add("mutation_probe")
        for b in f.blocks:
            b.instructions.append(Instruction("work", (1,)))
        f.blocks.append(BasicBlock("mutation_probe", [Instruction("ret")]))
    out.functions.append(out.functions[0].clone())
    out.regions[10**6] = RegionDescriptor(10**6, "probe", "probe", "p.c", 1, 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_inline_pass_leaves_input_untouched(seed):
    m = _module(seed)
    before = print_module(m)
    for level in LEVELS:
        out, _ = inline_pass(m, level)
        assert print_module(m) == before
        _mutate_output(out)
        assert print_module(m) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_instrument_module_leaves_input_untouched(seed):
    m = _module(seed)
    before = print_module(m)
    for level in LEVELS:
        for _, mode, rules in _rule_sets(m):
            out, _, _ = instrument_module(m, rules, mode, level)
            assert print_module(m) == before
            _mutate_output(out)
            assert print_module(m) == before


@pytest.mark.parametrize("seed", SEEDS)
def test_clone_is_equal_and_independent(seed):
    m = _module(seed)
    m.regions[0] = RegionDescriptor(0, "r", "r", "r.c", 1, 2)
    before = print_module(m)
    c = m.clone()
    assert c == m
    assert print_module(c) == before
    _mutate_output(c)
    assert print_module(m) == before
    # Immutable parts are shared, not copied.
    assert c.regions[0] is m.regions[0]
    assert all(
        ci is mi
        for cf, mf in zip(c.functions, m.functions)
        for cb, mb in zip(cf.blocks, mf.blocks)
        for ci, mi in zip(cb.instructions, mb.instructions)
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_compile_golden.py --write")
    old = {}
    if GOLDEN_PATH.exists():
        old = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
    digests = {str(s): _digest(s) for s in SEEDS}
    GOLDEN_PATH.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    changed = [s for s in SEEDS if old.get(str(s)) != digests[str(s)]]
    print(f"{len(changed)} seeds changed: {changed}")
