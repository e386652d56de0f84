"""Semantic equivalence of every build variant of generated programs.

A build variant is ``inline_pass`` alone, auto mode or plugin mode, at
O0-O3, run under no runtime filter, a filter excluding one generated
function, or ``EXCLUDE *``.  Every variant must leave a program's
``(exit_value, uncaught)`` as the uninstrumented O0 run has it, and
every module a pass emits must pass ``validate``.

Seeds that still break equivalence are listed with the defect they
show as strict xfails, so the change that mends one must flip it.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

import gens
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import instrument_module
from instrumenta.ir import IrModule, validate
from instrumenta.optimizer import O0, O1, O2, O3, inline_pass
from instrumenta.vm import execute

LEVELS = (O0, O1, O2, O3)
MODES = ("auto", "plugin")
RULES = FilterRuleSet()

# Inlining leaves main a lone ret in these seeds.
EMPTIED_BY_INLINING = (426, 1336, 2849)


@lru_cache(maxsize=None)
def _module(seed: int) -> IrModule:
    # Shared between tests; no pass mutates its input.
    return gens.terminating_module(random.Random(seed))


def _runtime_filters(m: IrModule) -> list[FilterRuleSet | None]:
    victim = m.functions[len(m.functions) // 2].mangled_name
    return [
        None,
        FilterRuleSet(region_rules=(RegionRule("exclude", victim, True),)),
        FilterRuleSet(region_rules=(RegionRule("exclude", "*"),)),
    ]


def _invalid_seeds(seeds, emit) -> dict[int, str]:
    bad = {}
    for seed in seeds:
        violations = validate(emit(_module(seed)))
        if violations:
            bad[seed] = str(violations[0])
    return bad


@pytest.mark.parametrize("level", LEVELS, ids=lambda lv: lv.level)
def test_inline_pass_emits_valid_modules(level):
    bad = _invalid_seeds(range(3000), lambda m: inline_pass(m, level)[0])
    assert not bad, f"invalid inline_pass output for seeds {bad}"


@pytest.mark.parametrize("level", LEVELS, ids=lambda lv: lv.level)
@pytest.mark.parametrize("mode", MODES)
def test_instrument_module_emits_valid_modules(mode, level):
    seeds = [*range(300), *EMPTIED_BY_INLINING]
    bad = _invalid_seeds(
        seeds, lambda m: instrument_module(m, RULES, mode, level)[0]
    )
    assert not bad, f"invalid {mode} output for seeds {bad}"


def _mismatched_variants(seed: int) -> list[str]:
    m = _module(seed)
    ref = execute(m)
    expected = (ref.exit_value, ref.uncaught)
    out = []
    for level in LEVELS:
        builds = [("inline_pass", inline_pass(m, level)[0])]
        builds += [
            (mode, instrument_module(m, RULES, mode, level)[0]) for mode in MODES
        ]
        for name, built in builds:
            for k, rules in enumerate(_runtime_filters(m)):
                r = execute(built, runtime_rules=rules)
                if (r.exit_value, r.uncaught) != expected:
                    out.append(f"{name} {level.level} filter {k}")
    return out


def _xfail(seed: int, defect: str):
    return pytest.param(seed, marks=pytest.mark.xfail(strict=True, reason=defect))


_CLOBBERED_R0 = (
    "ROADMAP item 1(a): the rewritten exit path of a function mixing valued "
    "and bare ret clobbers the caller's r0"
)
_NESTED_CALL_R0 = (
    "ROADMAP item 1(b): a call inside an inlined body writes the caller's "
    "real r0"
)


@pytest.mark.parametrize(
    "seed",
    [
        *EMPTIED_BY_INLINING,
        _xfail(524, _NESTED_CALL_R0),
        _xfail(1308, _NESTED_CALL_R0),
        _xfail(1603, _CLOBBERED_R0),
        _xfail(2437, _CLOBBERED_R0),
    ],
)
def test_every_variant_keeps_exit_value_and_uncaught(seed):
    assert _mismatched_variants(seed) == []


@pytest.mark.parametrize("seed", EMPTIED_BY_INLINING)
def test_plugin_mode_skips_main_once_inlining_empties_it(seed):
    for level in LEVELS:
        _, report, _ = instrument_module(_module(seed), RULES, "plugin", level)
        assert (("main", "empty_body") in report.skipped) == (level != O0)
