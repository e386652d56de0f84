"""What the compile path may not lose by computing each fact once.

* Every public entry point rejects an invalid module with exactly
  ``validate``'s violations, though plugin-mode ``instrument_module``
  leaves that check to ``inline_pass``.
* The inliner's register counts, kept up to date site by site, equal a
  fresh walk of caller and callee at every site; ``reference_*`` below
  is the per-site walk they replaced.
* Equal instruction lines parse to one shared ``Instruction``, and no
  pass changes a parsed module through it.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import gens
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import InstrumentError, instrument_module
from instrumenta.ir import (
    NUM_REGISTERS,
    Instruction,
    IrModule,
    IrParseError,
    IrValidationError,
    _register_operands,
    parse_module,
    print_module,
    validate,
)
from instrumenta.optimizer import O0, O1, O2, O3, _Inliner, inline_pass
from instrumenta.vm import execute

# Lines repeat within and across functions; leaf has two blocks, so
# inlining it remaps labels as well as registers.
TEXT = """\
module "m"
extern @ext
func @leaf file="a.c" lines=1:8
{
^e:
  li r1, 5
  jnz r0, ^a, ^b
^a:
  addi r0, r1, 0
  ret r0
^b:
  li r1, 5
  ret r1
}
func @mid file="a.c" lines=9:14
{
^e:
  li r1, 5
  call @leaf, r1
  addi r0, r1, 0
  call @ext, r0
  ret r0
}
func @main file="a.c" lines=15:20
{
^e:
  li r1, 5
  call @mid, r1
  call @leaf, r1
  ret r0
}
"""

RULES = FilterRuleSet()


def _unknown_attr() -> IrModule:
    m = parse_module(TEXT)
    m.function("mid").attrs.add("no_such_attr")
    return m


def _hook_without_region() -> IrModule:
    # Invalid and already instrumented: the validation error wins.
    m = parse_module(TEXT)
    m.function("mid").blocks[0].instructions.insert(0, Instruction("hook.enter", (7,)))
    return m


def _instrumented_then_broken() -> IrModule:
    m, _, _ = instrument_module(parse_module(TEXT), RULES, "plugin", O0)
    m.function("leaf").attrs.add("no_such_attr")
    return m


INVALID = {
    "unknown-attr": _unknown_attr,
    "hook-without-region": _hook_without_region,
    "instrumented-then-broken": _instrumented_then_broken,
}

ENTRY_POINTS = {
    **{f"inline_pass-{lv.level}": (lambda m, lv=lv: inline_pass(m, lv))
       for lv in (O0, O1, O2, O3)},
    **{f"instrument_module-{mode}": (
        lambda m, mode=mode: instrument_module(m, RULES, mode, O2))
       for mode in ("plugin", "auto", "unknown")},
    "execute": execute,
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("make", INVALID)
def test_entry_point_rejects_invalid_module(make, entry):
    m = INVALID[make]()
    expected = validate(m)
    assert expected
    with pytest.raises(IrValidationError) as exc:
        ENTRY_POINTS[entry](m)
    assert exc.value.violations == expected


@pytest.mark.parametrize("mode", ["plugin", "auto", "unknown"])
def test_instrumented_module_error_precedes_unknown_mode(mode):
    m, _, _ = instrument_module(parse_module(TEXT), RULES, "plugin", O0)
    assert validate(m) == []
    with pytest.raises(InstrumentError, match="already instrumented"):
        instrument_module(m, RULES, mode, O2)


def test_unknown_mode_on_a_valid_module():
    with pytest.raises(InstrumentError, match="unknown mode 'unknown'"):
        instrument_module(parse_module(TEXT), RULES, "unknown", O2)


# ---------------------------------------------------------------------------
# Register bookkeeping against a fresh walk


def reference_register_counts(f) -> Counter:
    return Counter(
        r for b in f.blocks for ins in b.instructions for r in _register_operands(ins)
    )


def reference_register_map(caller, callee) -> dict[int, int] | None:
    callee_regs = sorted(reference_register_counts(callee))
    if not callee_regs:
        return {}
    used = reference_register_counts(caller)
    free = [r for r in range(NUM_REGISTERS) if r not in used]
    if len(free) < len(callee_regs):
        return None
    return dict(zip(callee_regs, free))


@pytest.fixture
def checked_sites(monkeypatch) -> list[tuple[str, str]]:
    """Check the inliner's counts at every register_map call."""
    sites: list[tuple[str, str]] = []
    original = _Inliner.register_map

    def checked(self, caller, callee):
        expected = reference_register_map(caller, callee)
        rmap = original(self, caller, callee)
        assert rmap == expected
        for f in (caller, callee):
            counts = self.registers.get(f.mangled_name)
            assert counts == reference_register_counts(f), f.mangled_name
        sites.append((caller.mangled_name, callee.mangled_name))
        return rmap

    monkeypatch.setattr(_Inliner, "register_map", checked)
    return sites


def test_register_counts_match_fresh_walk(checked_sites):
    for seed in range(300):
        m = gens.terminating_module(random.Random(seed))
        for level in (O1, O2, O3):
            inline_pass(m, level)
            for mode in ("auto", "plugin"):
                instrument_module(m, RULES, mode, level)
    assert len(checked_sites) > 1000


def test_register_counts_on_multi_block_and_register_free_callees(checked_sites):
    m = parse_module(TEXT.replace("  li r1, 5\n  jnz", "  work 1\n  jnz"))
    m.functions.insert(1, parse_module(
        'module "n"\nfunc @nop file="a.c" lines=1:2\n{\n^e:\n  work 2\n  ret\n}\n'
    ).functions[0])
    m.function("main").blocks[0].instructions.insert(0, Instruction("call", ("nop",)))
    inlined, report = inline_pass(m, O3)
    assert {(s.caller, s.callee) for s in report.inlined_sites} >= {
        ("main", "nop"), ("mid", "leaf"), ("main", "leaf")
    }
    assert ("main", "nop") in checked_sites
    assert execute(inlined).exit_value == execute(m).exit_value


# ---------------------------------------------------------------------------
# Shared parsed instructions


def test_equal_lines_share_one_instruction():
    m = parse_module(TEXT)
    li = [
        ins
        for f in m.functions
        for b in f.blocks
        for ins in b.instructions
        if ins == Instruction("li", (1, 5))
    ]
    assert len(li) == 4
    assert all(ins is li[0] for ins in li)


UNDEFINED_TWICE = """\
module "m"
func @f file="a.c" lines=1:2
{
^e:
  jmp ^x
^x:
  ret
}
func @g file="a.c" lines=3:4
{
^e:
  jmp ^x
}
func @main file="a.c" lines=5:6
{
^e:
  jmp ^x
}
"""


@pytest.mark.parametrize(
    "text, line",
    [
        # The line is defined in f and undefined in g and main: g's is named.
        (UNDEFINED_TWICE, 12),
        # Undefined wherever it occurs: the first occurrence is named.
        (UNDEFINED_TWICE.replace("^x:\n  ret", "^y:\n  ret"), 5),
    ],
)
def test_undefined_label_names_the_first_failing_line(text, line):
    with pytest.raises(IrParseError) as exc:
        parse_module(text)
    assert exc.value.line == line
    name = {12: "g", 5: "f"}[line]
    assert f"undefined-label at {name}/^e[0]: ^x not defined" in str(exc.value)


@pytest.mark.parametrize("mode", ["plugin", "auto"])
def test_passes_leave_a_parsed_module_as_it_was(mode):
    m = parse_module(TEXT)
    before = print_module(m)
    inlined, _ = inline_pass(m, O3)
    instrumented, _, _ = instrument_module(m, RULES, mode, O3)
    assert print_module(m) == before
    assert parse_module(before) == m
    assert print_module(inlined) != before
    assert execute(instrumented).exit_value == execute(m).exit_value
