"""Generated programs with counted loops against the per-instruction VM.

``gens.looping_module`` emits loops with trip counts fixed at generation
time: counting up or down by steps other than 1, tested on the counter or
on a derived register, nested, calling functions, externs and a leaf,
throwing to a caller, and starting near +-2**63 so that some wrap.  Every
run is compared with ``reference_execute`` of the VM oracle: to the end
under each build, cost model and runtime filter, at every step limit up
to a cap, at the limits that cut the batches of counted self-loops and
at the limits that fall inside an op holding a collapsed loop,
with the tier-up count at its default and lowered to 0 and 1.  Every
build variant of ``tests/test_equivalence.py`` must keep a program's exit
value.  At a step limit the Monitor's columns (the partial trace) must
match the reference's too.
"""

from __future__ import annotations

import inspect
import random
import sys

import pytest

import gens
from instrumenta import vm
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import instrument_module
from instrumenta.ir import parse_module
from instrumenta.optimizer import O0, O2
from test_equivalence import _mismatched_variants
from test_vm_batch import _check_columns, _columns, record_batches
from test_vm_oracle import COST_MODELS, EXCLUDE_ALL, _outcome, _sweep, reference_execute

# Step limits below this are each swept; beyond it, the limits that cut
# a batch are.
CAP = 24


def _looping_modules(seed: int) -> list:
    """The uninstrumented module, then auto and plugin at O0 and O2."""
    m = gens.looping_module(random.Random(seed))
    return [m] + [
        instrument_module(m, FilterRuleSet(), mode, level)[0]
        for mode in ("auto", "plugin")
        for level in (O0, O2)
    ]


def _exclude_one(m) -> FilterRuleSet:
    victim = m.functions[len(m.functions) // 2].mangled_name
    return FilterRuleSet(region_rules=(RegionRule("exclude", victim, True),))


@pytest.fixture(params=[None, 0, 1], ids=["tier_up_default", "tier_up0", "tier_up1"])
def tier_up(request, monkeypatch):
    if request.param is not None:
        monkeypatch.setattr(vm, "_TIER_UP", request.param)


def _batch_limits(monkeypatch, m, costs=None, rules=None) -> list[int]:
    """Step limits that stop a run of ``m`` at the first step of a batch,
    inside it, at its last step and just past it."""
    with monkeypatch.context() as patch:
        seen = record_batches(patch)
        _outcome(vm.execute, m, costs, rules)
    limits = set()
    for b in seen[:3] + seen[-2:]:
        start = vm.DEFAULT_STEP_LIMIT - b.room
        limits |= {start + 1, start + b.steps // 2, start + b.steps, start + b.steps + 1}
    return sorted(limits)


def _collapse_limits(monkeypatch, m, costs=None, rules=None) -> list[int]:
    """Step limits that stop a run of ``m`` at the first step of an op
    that holds a collapsed loop, inside it, at its last step and just past
    it.  Such an op is one that ``vm._collapsed`` returns, or that
    ``vm._threaded`` makes of one; where the run dispatches it is read
    off ``execute``'s frame at its step count update."""
    held = {}  # id -> op
    collapse, thread = vm._collapsed, vm._threaded

    def collapsing(op, loop, ahead):
        out = collapse(op, loop, ahead)
        if out:
            held[id(out)] = out
        return out

    def threading(jmp, to):
        out = thread(jmp, to)
        if id(jmp) in held or id(to) in held:
            held[id(out)] = out
        return out

    source, first = inspect.getsourcelines(vm.execute)
    line = first + next(i for i, text in enumerate(source) if text.strip() == "steps += ins[1]")
    ops = []  # (steps before, steps) of each such op dispatched

    def in_execute(frame, event, arg):
        if event == "line" and frame.f_lineno == line and id(frame.f_locals["ins"]) in held:
            ops.append((frame.f_locals["steps"], frame.f_locals["ins"][1]))
        return in_execute

    with monkeypatch.context() as patch:
        patch.setattr(vm, "_collapsed", collapsing)
        patch.setattr(vm, "_threaded", threading)
        tracer = sys.gettrace()
        sys.settrace(lambda frame, event, arg: in_execute if frame.f_code is vm.execute.__code__ else None)
        try:
            _outcome(vm.execute, m, costs, rules)
        finally:
            sys.settrace(tracer)
    limits = set()
    for start, steps in ops[:3] + ops[-2:]:
        limits |= {start + 1, start + steps // 2, start + steps, start + steps + 1}
    return sorted(limits)


@pytest.mark.parametrize("seed", range(60))
def test_looping_runs_match_reference(seed):
    modules = _looping_modules(seed)
    runs = [(modules[0], None)] + [
        (m, rules) for m in modules[1:] for rules in (None, _exclude_one(m), EXCLUDE_ALL)
    ]
    for module, rules in runs:
        for costs in COST_MODELS:
            want = _outcome(reference_execute, module, costs, rules)
            assert len(want) == 6  # generated programs run to completion
            assert _outcome(vm.execute, module, costs, rules) == want, (costs, rules)


@pytest.mark.parametrize("seed", range(10))
def test_looping_step_limits_match_reference(monkeypatch, tier_up, seed):
    for m in _looping_modules(seed):
        for costs in COST_MODELS:
            _sweep(m, costs, cap=CAP)
            limits = _batch_limits(monkeypatch, m, costs) + _collapse_limits(monkeypatch, m, costs)
            for limit in limits:
                want = _outcome(reference_execute, m, costs, step_limit=limit)
                assert _outcome(vm.execute, m, costs, step_limit=limit) == want, (costs, limit)


def test_generated_loops_batch_wrap_and_get_cut(monkeypatch):
    """The looping modules of the sweeps above take the batch path, in
    loops whose registers wrap, and their batch limits cut batches."""
    seen = record_batches(monkeypatch)
    for seed in range(10):
        for m in _looping_modules(seed):
            for limit in _batch_limits(monkeypatch, m):
                _outcome(vm.execute, m, step_limit=limit)
    assert sum(b.n > 1 for b in seen) > 100
    assert any(b.wrapped and not b.cut for b in seen)
    assert any(b.cut and b.n > 0 for b in seen)


def test_generated_loops_collapse_and_get_cut(monkeypatch):
    """The looping modules of the sweeps above run ops that hold collapsed
    loops, and their collapse limits stop runs inside such ops."""
    inside = 0
    for seed in range(10):
        for m in _looping_modules(seed):
            limits = _collapse_limits(monkeypatch, m)
            full = _outcome(vm.execute, m)[-1]
            inside += sum(limit <= full for limit in limits)
    assert inside > 50


@pytest.mark.parametrize("seed", range(0, 1000, 50))
def test_looping_variants_keep_exit_value_and_uncaught(seed):
    assert _mismatched_variants(gens.looping_module(random.Random(seed))) == []


# --- The partial trace at the step limit ------------------------------------


# A hooked leaf called three times from a loop.
_THREE_CALLS = """module "three_calls"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 3
  jmp ^loop
^loop:
  call @_Z4leafv
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r1
}
func @_Z4leafv file="a.c" lines=10:12
{
^e:
  hook.register 1
  hook.enter 1
  work 2
  hook.exit 1
  ret
}
regions:
region 1 name="leaf()" canonical="_Z4leafv" file="a.c" lines=10:12 flags=0
"""


def test_replay_at_the_step_limit_stamps_from_the_op_start(monkeypatch):
    """With the tier-up at 1, the third call is folded into main's loop
    op, and limits 21-25 stop inside that op after its enter (21, 22)
    or its exit (23-25): the replayed events keep the full run's stamps."""
    monkeypatch.setattr(vm, "_TIER_UP", 1)
    m = parse_module(_THREE_CALLS)
    full = vm.execute(m)
    assert [(e.kind, e.timestamp) for e in full.events][-2:] == [("E", 109), ("X", 132)]
    for limit in range(21, 26):
        _, (codes, stamps) = _columns(monkeypatch, vm.execute, m, None, None, limit)
        assert (codes[-1], stamps[-1]) == ((2, 109) if limit < 23 else (-2, 132))
    for costs in COST_MODELS:
        _check_columns(monkeypatch, m, range(1, full.steps + 1), costs)
    # The same loop with main's hooks too, as the plugin puts them.
    plain = "".join(line for line in _THREE_CALLS.splitlines(True) if "hook." not in line)
    plain = plain[: plain.index("regions:")]
    plugin = instrument_module(parse_module(plain), FilterRuleSet(), "plugin", O0)[0]
    _check_columns(monkeypatch, plugin, range(1, vm.execute(plugin).steps + 1))


@pytest.mark.parametrize("seed", range(4))
def test_looping_columns_at_the_step_limit_match_reference(monkeypatch, tier_up, seed):
    for m in _looping_modules(seed)[1:]:  # the instrumented builds
        for rules in (None, EXCLUDE_ALL):
            limits = [*range(1, CAP + 1), *_batch_limits(monkeypatch, m, None, rules)]
            limits += _collapse_limits(monkeypatch, m, None, rules)
            _check_columns(monkeypatch, m, limits, rules=rules)
