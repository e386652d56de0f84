"""Counted loops collapsed into the op that enters them.

When a ``jmp`` (or a folded ``call.try``) is threaded into a counted
self-loop and the op's own writes leave the loop's counter at a
constant, lowering solves the rest of the trip count there and folds
those iterations into the op: their steps and ticks, one closed-form
write per moving register and shifted copies of their events.  The op
then goes on at the loop's exit, so loops nested in it, and functions
whose only loops are such, lower to one op.  Every module here is
compared with the per-instruction ``reference_execute`` of the VM oracle
under each cost model, at every step limit where the run is small, and
so is the Monitor's partial trace; the tests record each collapse, so
that none passes without taking (or, for the loops a collapse refuses,
avoiding) that path.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from gens import _wrapped
from instrumenta import vm
from instrumenta.filters import FilterRuleSet, RegionRule, parse_filter
from instrumenta.instrument import instrument_module
from instrumenta.ir import parse_module
from instrumenta.optimizer import O0, O2
from test_vm_batch import _check_columns, record_batches
from test_vm_fold import _final
from test_vm_oracle import COST_MODELS, EXCLUDE_ALL, _outcome, _sweep, reference_execute
from test_vm_patch import _lowerings, _workload

_I64 = 1 << 63


class Collapse(NamedTuple):
    loop: int  # the loop's block
    n: int  # iterations folded after the first
    events: int  # events they add


@pytest.fixture
def collapses(monkeypatch) -> list[Collapse]:
    """Every loop that lowering collapses in the test."""
    seen = []
    collapse = vm._collapsed

    def recording(op, loop, ahead):
        out = collapse(op, loop, ahead)
        if out:
            n = (out[1] - op[1]) // loop[10]
            seen.append(Collapse(loop[5], n, n * len(loop[12])))
        return out

    monkeypatch.setattr(vm, "_collapsed", recording)
    return seen


@pytest.fixture(params=[0, 1, 64], ids=lambda n: f"tier_up{n}")
def tier_up(request, monkeypatch):
    monkeypatch.setattr(vm, "_TIER_UP", request.param)
    return request.param


def _ops(block) -> list[int]:
    return [op[0] for op in block]


def _check(monkeypatch, m, rules=None, columns=True):
    """``m`` against the reference at every step limit under every cost
    model, and the Monitor's columns at every limit under the default."""
    for costs in COST_MODELS:
        assert len(_sweep(m, costs, rules)) == 6  # each module runs to completion
    if columns:
        steps = _outcome(reference_execute, m, rules=rules)[-1]
        _check_columns(monkeypatch, m, range(1, steps + 1), rules=rules)


# main counts r1 from START by STEP and leaves the loop when r2 = r1 - END
# reaches 0; the loop is entered by a jmp, so its first iteration always
# runs.
_COUNT = """module "count"
func @main file="a.c" lines=1:9
{
^e:
  li r1, START
  jmp ^loop
^loop:
  work 2
  addi r4, r4, 7
  addi r1, r1, STEP
  addi r2, r1, -END
  jnz r2, ^loop, ^done
^done:
  add r4, r4, r1
  ret r4
}
"""


def _count(start: int, step: int, trips: int):
    end = _wrapped(start + step * trips)
    text = _COUNT.replace("START", str(start)).replace("STEP", str(step))
    return parse_module(text.replace("-END", str(-end)))


@pytest.mark.parametrize("trips", [1, 2, 3, 4, 201])
@pytest.mark.parametrize("step", [1, -3])
def test_trip_counts(monkeypatch, collapses, trips, step):
    m = _count(5, step, trips)
    batches = record_batches(monkeypatch)
    code = _final(monkeypatch, m)
    # The entry op runs the first iteration, then the other trips - 1.
    assert _ops(code["main"][0]) == [vm._RET]
    assert collapses == [Collapse(1, trips - 1, 0)]
    _check(monkeypatch, m, columns=trips < 10)
    assert not batches


@pytest.mark.parametrize("step", [3, -3, (1 << 62) + 1, -(1 << 62) - 1])
def test_wrapping_counters(monkeypatch, collapses, step):
    start = _I64 - 5 if step > 0 else -_I64 + 4
    m = _count(start, step, 9)
    _check(monkeypatch, m)
    assert {c.n for c in collapses} == {8}
    assert _outcome(vm.execute, m)[0] == _wrapped(_wrapped(9 * 7) + start + 9 * step)


# Loops two and three deep, each level entered by li; jmp.  r5 counts
# every innermost iteration and r6 every middle one.
_NEST2 = """module "nest2"
func @main file="a.c" lines=1:9
{
^e:
  li r1, A
  jmp ^outer
^outer:
  li r2, B
  jmp ^inner
^inner:
  work 1
  addi r5, r5, 3
  addi r2, r2, -1
  jnz r2, ^inner, ^next
^next:
  addi r1, r1, -1
  jnz r1, ^outer, ^done
^done:
  ret r5
}
"""

_NEST3 = """module "nest3"
func @main file="a.c" lines=1:9
{
^e:
  li r1, A
  jmp ^outer
^outer:
  li r3, C
  jmp ^middle
^middle:
  li r2, B
  addi r6, r6, 1
  jmp ^inner
^inner:
  work 1
  addi r5, r5, 3
  addi r2, r2, -1
  jnz r2, ^inner, ^next
^next:
  addi r3, r3, -1
  jnz r3, ^middle, ^after
^after:
  addi r1, r1, -1
  jnz r1, ^outer, ^done
^done:
  add r5, r5, r6
  ret r5
}
"""


@pytest.mark.parametrize("a,b,c", [(1, 1, 1), (2, 3, 1), (3, 2, 4), (4, 4, 2)])
@pytest.mark.parametrize("text", [_NEST2, _NEST3], ids=["two_deep", "three_deep"])
def test_nests_lower_to_one_op(monkeypatch, collapses, text, a, b, c):
    m = parse_module(text.replace("A", str(a)).replace("B", str(b)).replace("C", str(c)))
    code = _final(monkeypatch, m)
    assert _ops(code["main"][0]) == [vm._RET]
    # Each loop collapses in the op that enters it from its parent's
    # body, then, once that body is a self-loop, in the op before it.
    assert {x.n for x in collapses if x.loop == 3 - (text is _NEST2)} == {b - 1}
    assert vm.execute(m).exit_value == (3 * a * b if text is _NEST2 else 3 * a * b * c + a * c)
    _check(monkeypatch, m)


def test_two_hundred_trips_deep(monkeypatch, collapses):
    m = parse_module(_NEST3.replace("A", "200").replace("B", "3").replace("C", "2"))
    assert _outcome(vm.execute, m) == _outcome(reference_execute, m)
    assert Collapse(1, 199, 0) in collapses
    for limit in (1, 7, 8, 100, 2000, 2001, 4000):
        want = _outcome(reference_execute, m, step_limit=limit)
        assert _outcome(vm.execute, m, step_limit=limit) == want, limit


# A call.try to a leaf folds into a jmp to its normal label, here a
# counted loop, which then collapses into main's entry op.
_TRY_ENTRY = """module "try_entry"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 4
  call.try @_Z4leafv, ^loop, ^caught
^loop:
  work 2
  addi r3, r3, 6
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  add r3, r3, r0
  ret r3
^caught:
  ret r1
}
func @_Z4leafv file="a.c" lines=10:12
{
^e:
  li r5, 9
  ret r5
}
"""


def test_folded_call_try_enters_a_collapsed_loop(monkeypatch, collapses):
    m = parse_module(_TRY_ENTRY)
    code = _final(monkeypatch, m)
    assert _ops(code["main"][0]) == [vm._RET] and collapses == [Collapse(1, 3, 0)]
    r = vm.execute(m)
    assert (r.exit_value, r.max_depth) == (4 * 6 + 9, 2)
    _check(monkeypatch, m)


# g sets its counter before its entry hooks, as the instrumenters place
# them in a call-free entry block, so the jmp into the loop is an op of
# its own; h sets r0 before a call that returns into it, which the loop
# then counts down from.  Only g's loop collapses before g's region is
# folded.
_AHEAD = """module "ahead"
func @main file="a.c" lines=1:9
{
^e:
  call @_Z1gv
  call @_Z1hv
  add r0, r0, r0
  ret r0
}
func @_Z1gv file="a.c" lines=10:19
{
^e:
  li r7, 4
  hook.register 1
  hook.enter 1
  jmp ^loop
^loop:
  work 2
  addi r5, r5, 3
  addi r7, r7, -1
  jnz r7, ^loop, ^out
^out:
  hook.exit 1
  ret r5
}
func @_Z1hv file="a.c" lines=20:29
{
^e:
  li r0, 3
  call @_Z1kv
  jmp ^loop
^loop:
  addi r3, r3, 2
  addi r0, r0, -1
  jnz r0, ^loop, ^out
^out:
  ret r3
}
func @_Z1kv file="a.c" lines=30:39
{
^e:
  hook.register 2
  hook.enter 2
  li r1, 6
  hook.exit 2
  ret r1
}
regions:
region 1 name="g()" canonical="_Z1gv" file="a.c" lines=10:19 flags=0
region 2 name="k()" canonical="_Z1kv" file="a.c" lines=30:39 flags=0
"""


def test_counter_set_ahead_of_the_entry_hooks(monkeypatch, collapses):
    m = parse_module(_AHEAD)
    batches = record_batches(monkeypatch)
    code = _final(monkeypatch, m)
    assert _ops(code["_Z1gv"][0]) == [vm._HREG, vm._HENTER, vm._JMP]
    assert _ops(code["_Z1hv"][0]) == [vm._CALL, vm._JNZ]
    assert collapses == [Collapse(1, 3, 0)]
    assert [b.n for b in batches] == [5]
    assert vm.execute(m).exit_value == 2 * 6 * 2
    _check(monkeypatch, m)
    _check(monkeypatch, m, EXCLUDE_ALL)


# A loop the collapse refuses: r1 steps by 2 from an odd value, so it
# never reaches 0, or the jnz tests r3, which never moves.
_ENDLESS = """module "endless"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 1
  li r3, 1
  jmp ^loop
^loop:
  work 3
  addi r1, r1, 2
  jnz TEST, ^loop, ^done
^done:
  ret r1
}
"""


@pytest.mark.parametrize("test", ["r1", "r3"])
def test_loop_without_solution_is_not_collapsed(monkeypatch, collapses, test):
    m = parse_module(_ENDLESS.replace("TEST", test))
    batches = record_batches(monkeypatch)
    for costs in COST_MODELS:
        assert _sweep(m, costs, cap=30)[0] is vm.StepLimitExceeded
    assert _outcome(vm.execute, m, step_limit=10**5)[0] is vm.StepLimitExceeded
    assert not collapses and batches


# Two loops that exit into each other: each collapse in main's entry op
# leaves the other loop's counter at a constant, so a lowering that
# collapsed a loop a second time would never end.  Each is collapsed
# once there; the run goes on until the step limit.
_PING_PONG = """module "ping_pong"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 2
  li r2, 3
  jmp ^ping
^ping:
  work 1
  addi r1, r1, -1
  jnz r1, ^ping, ^pong
^pong:
  work 2
  addi r2, r2, -1
  jnz r2, ^pong, ^ping
}
"""


def test_loops_that_exit_into_each_other(monkeypatch, collapses):
    m = parse_module(_PING_PONG)
    for costs in COST_MODELS:
        assert _sweep(m, costs, cap=40)[0] is vm.StepLimitExceeded
    assert _outcome(vm.execute, m, step_limit=10**5)[0] is vm.StepLimitExceeded
    assert {(c.loop, c.n) for c in collapses} >= {(1, 1), (2, 2)}


# The counter of g's loop starts at g's argument, so only the call's
# caller knows the trip count: the loop runs in batches.
_FROM_ARGUMENT = """module "from_argument"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 6
  call @_Z1gi, r1
  ret r0
}
func @_Z1gi file="a.c" lines=10:19
{
^e:
  addi r1, r0, 1
  jmp ^loop
^loop:
  work 1
  addi r2, r2, 5
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r2
}
"""


def test_counter_from_an_entry_register_is_not_collapsed(monkeypatch, collapses):
    m = parse_module(_FROM_ARGUMENT)
    batches = record_batches(monkeypatch)
    _check(monkeypatch, m)
    assert not collapses
    assert {(b.n, b.cut) for b in batches if not b.cut} == {(6, False)}
    assert vm.execute(m).exit_value == 35


# main calls g from a loop; g's loop calls an instrumented leaf TRIPS
# times.  Once the leaf's region is folded, g's loop is a self-loop with
# two events per iteration, and g's entry collapses it unless that adds
# more than vm._ABSORBED events; g is then a leaf, and main's loop a
# self-loop in turn.
_CALLS_A_LOOP = """module "calls_a_loop"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 2
  li r5, 0
  jmp ^loop
^loop:
  call @_Z1gv
  add r5, r5, r0
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r5
}
func @_Z1gv file="a.c" lines=10:19
{
^e:
  li r2, TRIPS
  li r3, 100
  jmp ^l
^l:
  call @_Z4leafv
  addi r3, r3, 2
  addi r2, r2, -1
  jnz r2, ^l, ^d
^d:
  ret r3
}
func @_Z4leafv file="a.c" lines=20:29
{
^e:
  hook.register 1
  hook.enter 1
  work 1
  hook.exit 1
  ret
}
regions:
region 1 name="leaf()" canonical="_Z4leafv" file="a.c" lines=20:29 flags=0
"""


def _check_calls_a_loop(monkeypatch, collapses, trips, tier_up, cost_models=COST_MODELS):
    m = parse_module(_CALLS_A_LOOP.replace("TRIPS", str(trips)))
    code = _final(monkeypatch, m)
    if tier_up < 2 * trips:  # the leaf tiers up within the run
        entry = code["_Z1gv"][0]
        if 2 * (trips - 1) <= vm._ABSORBED:
            assert _ops(entry) == [vm._RET] and len(entry[0][4]) == 2 * trips
            assert Collapse(1, trips - 1, 2 * (trips - 1)) in collapses
            assert vm._CALL not in [op[0] for block in code["main"] for op in block]
        else:
            assert _ops(entry) == [vm._JNZ] and len(entry[0][4]) == 2
            assert not collapses
    else:
        assert not collapses
    assert vm.execute(m).exit_value == 2 * (100 + 2 * trips)
    for costs in cost_models:
        assert len(_sweep(m, costs)) == 6
    _check_columns(monkeypatch, m, range(1, _outcome(reference_execute, m)[-1] + 1))


@pytest.mark.parametrize("trips", [1, 3, 5, 6])
def test_callee_loop_collapses_into_a_leaf(monkeypatch, tier_up, collapses, trips):
    # With at most 8 events added, 5 trips collapse (8 events after the
    # first iteration) and 6 do not (10).
    monkeypatch.setattr(vm, "_ABSORBED", 8)
    _check_calls_a_loop(monkeypatch, collapses, trips, tier_up)


@pytest.mark.parametrize("trips", [1 + vm._ABSORBED // 2, 2 + vm._ABSORBED // 2])
def test_callee_loop_at_the_events_cap(monkeypatch, collapses, trips):
    # The leaf tiers up during g's second run, past the default count.
    _check_calls_a_loop(monkeypatch, collapses, trips, vm._TIER_UP, cost_models=[None])


def test_callee_loop_is_a_leaf_from_the_start(monkeypatch, collapses):
    # Without hooks g is a leaf when main is first lowered: main's loop
    # folds its calls and collapses in turn.
    text = _CALLS_A_LOOP.replace("TRIPS", "5")
    text = "".join(line for line in text.splitlines(True) if "hook." not in line)
    m = parse_module(text[: text.index("regions:")])
    code = _final(monkeypatch, m)
    assert _ops(code["_Z1gv"][0]) == [vm._RET] and _ops(code["main"][0]) == [vm._RET]
    assert [(c.loop, c.n) for c in collapses] == [(1, 4), (1, 1)]
    _check(monkeypatch, m)
    built = instrument_module(m, FilterRuleSet(), "plugin", O0)[0]
    for rules in (None, EXCLUDE_ALL):
        for costs in COST_MODELS:
            assert _outcome(vm.execute, built, costs, rules) == _outcome(reference_execute, built, costs, rules)


# Leaves that return a register they write: from an argument plus an
# offset, a constant, or the sum of two registers, which is not folded.
_VALUED = """module "valued"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 11
  li r2, 30
  li r4, 4
  jmp ^loop
^loop:
  call @_Z6offsetii, r1, r2
  add r5, r5, r0
  call @_Z5constv
  add r5, r5, r0
  call @_Z3sumii, r1, r2
  add r5, r5, r0
  addi r4, r4, -1
  jnz r4, ^loop, ^done
^done:
  ret r5
}
func @_Z6offsetii file="a.c" lines=10:12
{
^e:
  work 1
  addi r3, r1, 7
  addi r3, r3, -2
  ret r3
}
func @_Z5constv file="a.c" lines=13:15
{
^e:
  li r2, 9
  addi r2, r2, 1
  ret r2
}
func @_Z3sumii file="a.c" lines=16:18
{
^e:
  add r3, r0, r1
  ret r3
}
"""


@pytest.mark.parametrize("mode", [None, "plugin", "auto"])
def test_leaves_with_a_valued_return(monkeypatch, tier_up, mode):
    m = parse_module(_VALUED)
    if mode:
        m = instrument_module(m, FilterRuleSet(), mode, O0)[0]
    code = _final(monkeypatch, m)
    callees = [op[5] for block in code["main"] for op in block if op[0] == vm._CALL]
    if mode is None or tier_up < 4:  # every leaf is folded but the sum
        assert callees and all(c == code["_Z3sumii"] for c in callees)
    assert vm.execute(m).exit_value == 4 * (35 + 10 + 41)
    _check(monkeypatch, m, columns=False)
    _check_columns(monkeypatch, m, range(1, _outcome(reference_execute, m)[-1] + 1))
    _check_columns(monkeypatch, m, range(1, _outcome(reference_execute, m)[-1] + 1), rules=EXCLUDE_ALL)


# --- The benchmark's hotloop module ------------------------------------------


def test_filtered_compute_plain_main_lowers_to_one_op(monkeypatch, collapses):
    w = _workload("filtered_compute", 3)
    none = parse_filter(w.files["none.flt"])
    m = instrument_module(parse_module(w.files["app.ir"]), none, "plugin", O2)[0]
    batches = record_batches(monkeypatch)
    code = _final(monkeypatch, m)
    # The update function's loop makes it a leaf, the inner loop collapses
    # in ^outer's op, which becomes a self-loop, and the outer loop
    # collapses in the entry op.
    (upd,) = [f.mangled_name for f in m.functions if "no_inline" in f.attrs]
    assert _ops(code[upd][0]) == [vm._RET] and _ops(code["main"][0]) == [vm._RET]
    at = {b.label: i for i, b in enumerate(m.function("main").blocks)}
    assert [(c.loop, c.n) for c in collapses][-2:] == [(at["inner"], 19), (at["outer"], 4999)]
    r = vm.execute(m)
    assert not batches and (r.exit_value, r.steps) == _outcome(reference_execute, m)[::5]


def test_trace_loop_refiltered_outer_loop_takes_one_batch(monkeypatch, collapses):
    w = _workload("trace_loop", 3)
    app = parse_module(w.files["app.ir"])
    leaf = app.function("main").block("inner").instructions[0].args[0]
    suggested = FilterRuleSet(region_rules=(RegionRule("exclude", leaf, True),))
    m = instrument_module(app, suggested, "plugin", O0)[0]
    batches = record_batches(monkeypatch)
    made = _lowerings(monkeypatch)
    vm.execute(m)
    at = {b.label: i for i, b in enumerate(m.function("main").blocks)}
    # The leaf is not instrumented, so main's inner loop collapses in its
    # first lowering; the update function tiers up in the 65th outer
    # iteration, and main's ^outer then becomes a self-loop.
    first, last = [blocks for name, _, blocks in made if name == "main"]
    assert Collapse(at["inner"], 19, 0) in collapses
    (outer,) = last[at["outer"]]
    assert outer[0] == vm._JNZ and _ops(first[at["outer"]]) == [vm._CALL]
    assert _ops(last[outer[6]]) == [vm._LOOP]
    assert [(b.n, b.cut) for b in batches if b.n > 18] == [(5000 - vm._TIER_UP - 2, False)]
    assert _outcome(vm.execute, m) == _outcome(reference_execute, m)
