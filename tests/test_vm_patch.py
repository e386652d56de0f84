"""Patching a runtime-filtered region's hooks out of the lowered code.

On the first registration of a region that the runtime rules filter,
``execute`` lowers every function holding that region's hooks again,
with the hooks folded into the pure runs.  Code that is running when the
patch lands (the current block, and the resume points that callers'
frames hold) finishes in the old lowering.  These modules put a patch in
each of those places, and every run is compared with the per-instruction
``reference_execute`` of the VM oracle at every step limit.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from pathlib import Path

import pytest

import gens
from instrumenta import vm
from instrumenta.filters import FilterRuleSet, RegionRule, parse_filter
from instrumenta.instrument import instrument_module
from instrumenta.ir import HOOK_OPS, IrModule, parse_module
from instrumenta.optimizer import O0, O2
from test_vm_oracle import COST_MODELS, EXCLUDE_ALL, _outcome, _sweep, reference_execute


def _exclude(name: str) -> FilterRuleSet:
    return FilterRuleSet(region_rules=(RegionRule("exclude", name, True),))


def _hooked_functions(m: IrModule, rid: int) -> list[str]:
    return [
        f.mangled_name
        for f in m.functions
        if any(ins.is_hook and ins.args[0] == rid for b in f.blocks for ins in b.instructions)
    ]


def _region_of(m: IrModule, canonical: str) -> int:
    return next(d.region_id for d in m.regions.values() if d.canonical_name == canonical)


# An instrumented leaf called from an instrumented main (through
# call.try, never inlined) and from an artificial, uninstrumented helper
# whose plain calls auto -O2 inlines, hooks and all.
_TWO_HOLDERS = """module "two_holders"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 3
  jmp ^loop
^loop:
  call @_Z4leafv
  call @_Z6helperv
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r1
}
func @_Z4leafv file="a.c" lines=10:12
{
^e:
  work 2
  ret
}
func @_Z6helperv file="a.c" lines=13:16 attrs=artificial
{
^e:
  work 1
  call @_Z4leafv
  call @_Z4leafv
  ret
}
"""

# A recursive function, filtered: frames of every depth hold resume
# points in the lowering of the same function that the patch replaces.
_RECURSIVE = """module "recursive"
func @main file="a.c" lines=1:4
{
^e:
  li r1, 4
  call @_Z3reci, r1
  call @_Z3reci, r1
  ret r0
}
func @_Z3reci file="a.c" lines=5:12
{
^e:
  work 1
  jnz r0, ^rec, ^base
^rec:
  addi r1, r0, -1
  call @_Z3reci, r1
  addi r0, r0, 1
  ret r0
^base:
  li r0, 7
  ret r0
}
"""

# Already instrumented.  main first enters region 1 through a plain
# call, so its frame holds a resume point in block ^e while the callee
# registers region 1, and main holds region 1's hooks itself: the patch
# lowers main again under that frame.  The jmp of ^b is threaded into
# the plain call that begins ^c, whose resume point lies in ^c.
_RESUME = """module "resume"
func @main file="a.c" lines=1:20
{
^e:
  work 1
  call @_Z1gv
  hook.register 1
  hook.enter 1
  work 2
  hook.exit 1
  li r2, 2
  jmp ^b
^b:
  work 1
  jmp ^c
^c:
  call @_Z1gv
  hook.enter 1
  addi r2, r2, -1
  hook.exit 1
  jnz r2, ^b, ^end
^end:
  hook.register 0
  hook.enter 0
  call @_Z1gv
  hook.exit 0
  ret r2
}
func @_Z1gv file="a.c" lines=21:25
{
^e:
  hook.register 1
  hook.enter 1
  work 3
  jmp ^x
^x:
  hook.exit 1
  ret
}
regions:
region 0 name="main" canonical="main" file="a.c" lines=1:20 flags=0
region 1 name="g()" canonical="_Z1gv" file="a.c" lines=21:25 flags=0
"""


def _instrumented(text: str) -> list[IrModule]:
    m = parse_module(text)
    return [
        instrument_module(m, FilterRuleSet(), mode, level)[0]
        for mode in ("auto", "plugin")
        for level in (O0, O2)
    ]


def test_auto_o2_puts_a_region_in_two_functions():
    auto_o2 = _instrumented(_TWO_HOLDERS)[1]
    leaf = _region_of(auto_o2, "_Z4leafv")
    assert _hooked_functions(auto_o2, leaf) == ["_Z4leafv", "_Z6helperv"]


def test_resume_module_shape():
    m = parse_module(_RESUME)
    assert _hooked_functions(m, 1) == ["main", "_Z1gv"]
    # No op of ^b's lowering is a hook, so its jmp is threaded into the call.
    code = {f.mangled_name: [] for f in m.functions}
    main = vm._lower_function(m.function("main"), m, code, vm.CostModel(), set())
    assert main[1][-1][0] == vm._CALL and main[1][-1][6] is main[2]


CASES = [
    (m, rules)
    for text, victim in ((_TWO_HOLDERS, "_Z4leafv"), (_RECURSIVE, "_Z3reci"))
    for m in _instrumented(text)
    for rules in (None, _exclude(victim), EXCLUDE_ALL)
] + [(parse_module(_RESUME), rules) for rules in (None, _exclude("_Z1gv"), EXCLUDE_ALL)]


@pytest.mark.parametrize("case", range(len(CASES)))
@pytest.mark.parametrize("costs", COST_MODELS)
def test_patched_runs_match_reference_at_every_step_limit(case, costs):
    m, rules = CASES[case]
    assert len(_sweep(m, costs, rules)) == 6  # each module runs to completion


def _lowerings(monkeypatch) -> list[tuple[str, frozenset[int], list]]:
    """Record every function lowering that ``execute`` makes."""
    made = []
    lower = vm._lower_function

    def recording(f, m, code, costs, filtered):
        blocks = lower(f, m, code, costs, filtered)
        made.append((f.mangled_name, frozenset(filtered), blocks))
        return blocks

    monkeypatch.setattr(vm, "_lower_function", recording)
    return made


def test_patch_relowers_every_holder_once(monkeypatch):
    m = _instrumented(_TWO_HOLDERS)[1]
    leaf = _region_of(m, "_Z4leafv")
    made = _lowerings(monkeypatch)
    vm.execute(m, runtime_rules=_exclude("_Z4leafv"))
    patched = [(name, filtered) for name, filtered, _ in made if filtered]
    # The leaf's entry op becomes a ret, so its caller main is lowered
    # again, once, after both holders, and folds its call to the leaf.
    # The helper's entry op is a jmp still (threading goes one jmp deep),
    # so its calls stay: the call.try of ^__cont1 and its copy that the
    # folded call's jmp is threaded into.
    assert patched == [("_Z4leafv", {leaf}), ("_Z6helperv", {leaf}), ("main", {leaf})]
    helper = made[-2][2]
    calls = [op for block in made[-1][2] for op in block if op[0] == vm._CALL]
    assert [op[4][0] is helper[0] for op in calls] == [True, True]


@pytest.mark.parametrize("seed", range(20))
def test_execute_lowers_each_function_once_before_the_run(monkeypatch, seed):
    m = gens.terminating_module(random.Random(seed))
    m = instrument_module(m, FilterRuleSet(), "auto", O2)[0]
    defined = sorted(f.mangled_name for f in m.functions if not f.is_extern)
    for rules in (None, EXCLUDE_ALL):
        made = _lowerings(monkeypatch)
        vm.execute(m, runtime_rules=rules)
        # Patches lower with a region filtered; the first lowering has none.
        assert sorted(name for name, filtered, _ in made if not filtered) == defined


def test_recorded_regions_are_not_patched(monkeypatch):
    made = _lowerings(monkeypatch)
    vm.execute(_instrumented(_TWO_HOLDERS)[1])
    assert all(not filtered for _, filtered, _ in made)


def _filtered_compute(seed: int):
    """The hotloop module and leaf filter of the benchmark's
    ``filtered_compute`` workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up by name.
    sys.modules[spec.name] = workloads
    spec.loader.exec_module(workloads)
    w = workloads.filtered_compute(seed)
    return w.files["app.ir"], w.files["leaf.flt"]


def test_filtered_compute_leaf_lowers_to_one_op_without_hooks(monkeypatch):
    text, leaf_filter = _filtered_compute(3)
    m = instrument_module(parse_module(text), FilterRuleSet(), "auto", O2)[0]
    rules = parse_filter(leaf_filter)
    leaf = next(r.pattern for r in rules.region_rules)
    want = _outcome(reference_execute, m, rules=rules)
    assert len(want) == 6 and _outcome(vm.execute, m, rules=rules) == want
    made = _lowerings(monkeypatch)
    vm.execute(m, runtime_rules=rules)
    (blocks,) = [blocks for name, filtered, blocks in made if name == leaf and filtered]
    # The entry block is the only one a visit runs: its pure run and the
    # exit path, jmp threaded, end in one plain ret.
    assert [op[0] for op in blocks[0]] == [vm._RET]
    hook_ops = (vm._HREG, vm._HREGENTER, vm._HENTER, vm._HEXIT, vm._HEXITRET)
    assert not any(op[0] in hook_ops for block in blocks for op in block)
    assert any(ins.op in HOOK_OPS for b in m.function(leaf).blocks for ins in b.instructions)


def test_filtered_compute_inner_loop_lowers_to_one_jnz(monkeypatch):
    text, leaf_filter = _filtered_compute(3)
    m = instrument_module(parse_module(text), FilterRuleSet(), "auto", O2)[0]
    rules = parse_filter(leaf_filter)
    leaf = next(r.pattern for r in rules.region_rules)
    made = _lowerings(monkeypatch)
    vm.execute(m, runtime_rules=rules)
    # The patch turns the leaf's entry op into a ret, so main, its caller,
    # is lowered again: the call.try folds into a jmp, which is threaded
    # into ^__cont2's jnz.
    assert [name for name, filtered, _ in made if filtered] == [leaf, "main"]
    main, leaf_op = made[-1][2], made[-2][2][0][0]
    at = {b.label: i for i, b in enumerate(m.function("main").blocks)}
    inner, cont = main[at["inner"]], main[at["__cont2"]]
    assert [op[0] for op in inner] == [vm._JNZ] and [op[0] for op in cont] == [vm._JNZ]
    base = vm.CostModel().base_instruction
    assert inner[0][1:3] == (1 + leaf_op[1] + cont[0][1], base + leaf_op[2] + cont[0][2])


@pytest.mark.parametrize("seed", range(40))
def test_generated_auto_o2_runs_match_reference_with_each_region_filtered(seed):
    """Every region of a generated auto -O2 build filtered on its own."""
    m = gens.terminating_module(random.Random(seed))
    m = instrument_module(m, FilterRuleSet(), "auto", O2)[0]
    for d in m.regions.values():
        rules = _exclude(d.canonical_name)
        for costs in COST_MODELS:
            assert _outcome(vm.execute, m, costs, rules) == _outcome(
                reference_execute, m, costs, rules
            )
