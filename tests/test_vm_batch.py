"""Counted self-loops run in batches.

A block whose one lowered op is a ``jnz`` back to the block itself, whose
register writes step by fixed amounts and whose events balance, gets a
summary: its back edge leads to a block of its own holding one ``_LOOP``
op.  Taking the back edge once solves the loop's remaining trip count
modulo 2**64, caps it by the steps left under the step limit, and applies
that many iterations at once.  Every module here is compared with the
per-instruction ``reference_execute`` of the VM oracle, at every step
limit where the run is small, and the tests record the batches a run
takes, so that none passes without taking the batch path (or, for the
loops a summary refuses, without avoiding it).
"""

from __future__ import annotations

import random
from typing import NamedTuple

import pytest

import test_vm_oracle
from gens import _wrapped
from instrumenta import vm
from instrumenta.cli import main
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import instrument_module
from instrumenta.ir import parse_module
from instrumenta.optimizer import O0
from instrumenta.runtime import Monitor
from test_vm_oracle import COST_MODELS, EXCLUDE_ALL, _outcome, _sweep, reference_execute
from test_vm_patch import _lowerings, _workload

_I64 = 1 << 63


class Batch(NamedTuple):
    n: int  # iterations
    cut: bool  # by the step limit
    room: int  # steps left under the limit when it began
    steps: int  # steps it covered
    wrapped: bool  # a register left the i64 range in it


def record_batches(monkeypatch) -> list[Batch]:
    """Record every batch ``execute`` takes from now on."""
    seen = []
    batch = vm._batch

    def recording(loop, regs, room, t0, codes, stamps):
        before = list(regs)
        n, to = batch(loop, regs, room, t0, codes, stamps)
        wrapped = any(not -_I64 <= before[r] + n * d < _I64 for r, d in loop[9])
        seen.append(Batch(n, to == loop[5], room, n * loop[10], wrapped))
        return n, to

    monkeypatch.setattr(vm, "_batch", recording)
    return seen


@pytest.fixture
def batches(monkeypatch) -> list[Batch]:
    return record_batches(monkeypatch)


def _columns(monkeypatch, run, m, costs, rules, limit):
    """The outcome of ``run`` and, when it stops at the step limit, the
    Monitor's columns at that point."""
    made = []

    class Kept(Monitor):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    with monkeypatch.context() as patch:
        patch.setattr(vm, "Monitor", Kept)
        patch.setattr(test_vm_oracle, "Monitor", Kept)
        outcome = _outcome(run, m, costs, rules, limit)
    if outcome[0] is not vm.StepLimitExceeded:
        return outcome, None
    (monitor,) = made
    return outcome, (list(monitor.events.codes), list(monitor.events.stamps))


def _check_columns(monkeypatch, m, limits, costs=None, rules=None):
    for limit in limits:
        got = _columns(monkeypatch, vm.execute, m, costs, rules, limit)
        assert got == _columns(monkeypatch, reference_execute, m, costs, rules, limit), limit
        if got[1] is not None:
            codes, stamps = got[1]
            timed = [t for code, t in zip(codes, stamps) if code]  # E and X records
            assert timed == sorted(timed), limit


def _summaries(blocks) -> list[tuple]:
    return [op for block in blocks for op in block if op[0] == vm._LOOP]


# main counts r1 from START by STEP and leaves the loop when r2 = r1 - END
# reaches 0, after a test before the first iteration.
_COUNT = """module "count"
func @main file="a.c" lines=1:9
{
^e:
  li r1, START
  addi r2, r1, -END
  jnz r2, ^loop, ^done
^loop:
  work 2
  addi r4, r4, 7
  addi r1, r1, STEP
  addi r2, r1, -END
  jnz r2, ^loop, ^done
^done:
  ret r1
}
"""


def _count(start: int, step: int, trips: int):
    end = _wrapped(start + step * trips)
    text = _COUNT.replace("START", str(start)).replace("STEP", str(step))
    return parse_module(text.replace("-END", str(-end)))


def _check(m, every_limit=True):
    for costs in COST_MODELS:
        if every_limit:
            assert len(_sweep(m, costs)) == 6
        else:
            assert _outcome(vm.execute, m, costs) == _outcome(reference_execute, m, costs)


@pytest.mark.parametrize("trips", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("step", [1, -3, 2])
def test_trip_counts_match_reference_at_every_step_limit(batches, trips, step):
    m = _count(5, step, trips)
    _check(m)
    # The first iteration runs the loop's op; the summary runs the rest.
    assert {b.n for b in batches if not b.cut} == ({trips - 1} if trips > 1 else set())


def test_two_hundred_trips(batches):
    m = _count(-40, -3, 200)
    _check(m, every_limit=False)
    assert {b.n for b in batches} == {199}
    for limit in (1, 4, 5, 6, 400, 401, 402, 403, 807, 808, 809, 1000):
        want = _outcome(reference_execute, m, step_limit=limit)
        assert _outcome(vm.execute, m, step_limit=limit) == want, limit


def test_loop_op_goes_to_a_summary_block(monkeypatch):
    made = _lowerings(monkeypatch)
    vm.execute(_count(0, 1, 3))
    ((_, _, blocks),) = made
    loop = blocks[1][0]
    assert loop[0] == vm._JNZ and blocks[loop[6]] == _summaries(blocks)
    # Loop and exit block, counter, its step of 1, the moving registers,
    # and the steps and ticks of one iteration.
    assert _summaries(blocks)[0][5:12] == (1, 2, 2, 1, ((4, 7), (1, 1), (2, 1)), 5, 6)


@pytest.mark.parametrize("step", [3, -3, (1 << 62) + 1, -(1 << 62) - 1])
def test_wrapping_counters(batches, step):
    # The counter starts near the end of the i64 range it moves towards.
    start = _I64 - 5 if step > 0 else -_I64 + 4
    m = _count(start, step, 9)
    _check(m)
    assert (8, False, True) in [(b.n, b.cut, b.wrapped) for b in batches]
    assert _outcome(vm.execute, m)[0] == _wrapped(start + 9 * step)


# r1 steps by 2 from an odd value, so it never reaches 0; r3 never moves.
_ENDLESS = """module "endless"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 1
  li r3, 1
  jnz r1, ^loop, ^done
^loop:
  work 3
  addi r1, r1, 2
  jnz TEST, ^loop, ^done
^done:
  ret r1
}
"""


@pytest.mark.parametrize("test", ["r1", "r3"])
def test_loop_without_solution_runs_to_the_step_limit(batches, test, tmp_path, capsys):
    m = parse_module(_ENDLESS.replace("TEST", test))
    for costs in COST_MODELS:
        assert _sweep(m, costs, cap=40)[0] is vm.StepLimitExceeded
    for limit in (10**3, 10**4 + 1, 10**6):
        want = _outcome(reference_execute, m, step_limit=limit) if limit < 10**5 else None
        got = _outcome(vm.execute, m, step_limit=limit)
        assert got == (vm.StepLimitExceeded, f"step limit of {limit} exceeded")
        assert want in (None, got)
    assert batches and all(b.cut for b in batches)
    path = tmp_path / "endless.ir"
    path.write_text(_ENDLESS.replace("TEST", test))
    assert main(["run", str(path), "--step-limit", "100000"]) == 2
    assert "step limit of 100000 exceeded" in capsys.readouterr().err


# main calls an instrumented leaf from a counted loop; once the leaf's
# region is folded, the call is part of the loop's op, with the leaf's
# enter and exit and a depth mark.
_HOT = """module "hot"
func @main file="a.c" lines=1:9
{
^e:
  li r1, TRIPS
  jmp ^loop
^loop:
  call @_Z4leafi, r1
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r1
}
func @_Z4leafi file="a.c" lines=10:12
{
^e:
  work 2
  ret
}
"""


def _hot(trips: int):
    m = parse_module(_HOT.replace("TRIPS", str(trips)))
    return instrument_module(m, FilterRuleSet(), "plugin", O0)[0]


@pytest.mark.parametrize("tier_up", [0, 1])
def test_folded_events_and_depth_mark(monkeypatch, batches, tier_up):
    monkeypatch.setattr(vm, "_TIER_UP", tier_up)
    m = _hot(9)
    for rules in (None, EXCLUDE_ALL):
        for costs in COST_MODELS:
            assert len(_sweep(m, costs, rules)) == 6
    assert any(not b.cut and b.n > 1 for b in batches)
    assert any(b.cut for b in batches)
    steps = _outcome(reference_execute, m)[-1]
    for costs in COST_MODELS:
        _check_columns(monkeypatch, m, range(1, steps + 1), costs)
    r = vm.execute(m)
    assert r.max_depth == 2 and len(r.events) == 2 + 2 * 10


def test_hot_loop_past_the_tier_up(batches):
    m = _hot(300)
    for costs in COST_MODELS:
        assert _outcome(vm.execute, m, costs) == _outcome(reference_execute, m, costs)
    # The 65th call tiers the leaf up, and main with it, but returns into
    # main's old lowering; the 66th runs in the loop's new op, and the
    # summary runs the rest.
    assert {(b.n, b.cut) for b in batches} == {(300 - vm._TIER_UP - 2, False)}


def test_trace_loop_inner_loop_takes_the_batch(monkeypatch, batches):
    w = _workload("trace_loop", 3)
    m = instrument_module(parse_module(w.files["app.ir"]), FilterRuleSet(), "plugin", O0)[0]
    made = _lowerings(monkeypatch)
    r = vm.execute(m)
    at = {b.label: i for i, b in enumerate(m.function("main").blocks)}
    main = [blocks for name, regions, blocks in made if name == "main"][-1]
    (inner,) = main[at["inner"]]
    assert inner[0] == vm._JNZ and inner[6] != at["inner"]
    (summary,) = main[inner[6]]
    assert summary[0] == vm._LOOP and summary[5] == at["inner"]
    assert [code for code, _ in summary[12]] == [code for code, _, _ in inner[4]]
    # Once the leaf has tiered up, ^__cont1's jmp into the inner loop
    # collapses it: the op holds all 20 iterations' events and goes on
    # into ^outer_next's jnz.  So once the update function has tiered up
    # and become a leaf, ^outer is a self-loop too, and takes one batch
    # of the outer iterations left after the first one in its new op.
    (cont,) = main[at["__cont1"]]
    assert cont[0] == vm._JNZ and cont[6] == at["outer"]
    assert [code for code, _, _ in cont[4]] == [code for code, _ in summary[12]] * 20
    (outer,) = main[at["outer"]]
    (loop,) = main[outer[6]]
    assert loop[0] == vm._LOOP and loop[5] == at["outer"] and len(loop[12]) == 2 + 40
    assert [(b.n, b.cut) for b in batches if b.n > 18] == [(5000 - vm._TIER_UP - 2, False)]
    assert r.exit_value == _outcome(reference_execute, m)[0]


# main's call.try to h resumes at ^c, a counted self-loop, in the lowering
# main had when the call was made.  During the call, h's call to g
# registers g's region, which the runtime filter excludes: g becomes a
# leaf, so main is lowered again, and its ^a loop, whose call to g now
# folds, gets a summary too.  The back edge of the old ^c must still find
# ^c's summary in the new lowering.
_STALE = """module "stale"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 3
  li r2, 4
  jmp ^b
^a:
  call @_Z1gv
  addi r1, r1, -1
  jnz r1, ^a, ^d
^b:
  call.try @_Z1hv, ^c, ^x
^c:
  addi r2, r2, -1
  addi r3, r3, 5
  jnz r2, ^c, ^a
^d:
  ret r3
^x:
  ret r2
}
func @_Z1hv file="a.c" lines=10:19
{
^e:
  call @_Z1gv
  ret
}
func @_Z1gv file="a.c" lines=20:29
{
^e:
  hook.register 1
  hook.enter 1
  work 1
  hook.exit 1
  ret
}
regions:
region 1 name="g()" canonical="_Z1gv" file="a.c" lines=20:29 flags=0
"""


def test_frame_resumes_into_an_older_lowering_of_a_loop(monkeypatch, batches):
    m = parse_module(_STALE)
    rules = FilterRuleSet(region_rules=(RegionRule("exclude", "_Z1gv", True),))
    made = _lowerings(monkeypatch)
    vm.execute(m, runtime_rules=rules)
    first, last = [blocks for name, _, blocks in made if name == "main"]
    assert [op[5] for op in _summaries(first)] == [3]
    assert [op[5] for op in _summaries(last)] == [1, 3]
    for costs in COST_MODELS:
        assert len(_sweep(m, costs, rules)) == 6
    assert {(3, False), (2, False)} <= {(b.n, b.cut) for b in batches}


def _refused(before: str, body: str, returned: str = "r1") -> str:
    """``_COUNT`` from 0 to 6 with ``before`` ahead of the loop, ``body``
    in place of ``work 2``, returning ``returned``."""
    text = _COUNT.replace("work 2", f"hook.register 1\n  {body}").replace("ret r1", f"ret {returned}")
    text = text.replace("  li r1, START\n", "  li r1, START\n" + before)
    text = text.replace("START", "0").replace("STEP", "1").replace("-END", "-6")
    return text + 'regions:\nregion 1 name="main" canonical="main" file="a.c" lines=1:9 flags=0\n'


# Loops a summary refuses: a sum of two registers, a register two
# writes away, an enter without its exit, an exit of a region that main
# entered before the loop, once for each iteration, and a register read
# before the loop writes it as a constant.  In the ``read_before_li``
# shapes the returned r5, or the jnz register r3, is 2 after the first
# iteration and 0 after every later one; the second loop is entered by
# a jnz, so its first iteration is not threaded into the entry block.
_REFUSED = {
    "sum": _refused("", "add r5, r5, r5"),
    "two_writes": _refused("", "addi r5, r6, 1\n  addi r6, r1, 3"),
    "enter_only": _refused("", "hook.enter 1"),
    "exit_only": _refused("  hook.register 1\n" + "  hook.enter 1\n" * 6, "hook.exit 1"),
    "read_before_li": _refused("  li r6, 7\n", "addi r5, r6, -5\n  li r6, 5", "r5"),
    "counter_read_before_li": """module "late"
func @main file="a.c" lines=1:9
{
^e:
  li r4, 7
  li r1, 1
  jnz r1, ^loop, ^done
^loop:
  addi r3, r4, -5
  li r4, 5
  jnz r3, ^loop, ^done
^done:
  ret r3
}
""",
}


@pytest.mark.parametrize("text", _REFUSED.values(), ids=_REFUSED)
def test_refused_loops_run_op_by_op(monkeypatch, batches, text):
    m = parse_module(text)
    _sweep(m, cap=80)
    monkeypatch.setattr(vm, "_TIER_UP", 0)
    made = _lowerings(monkeypatch)
    _sweep(m, cap=80)
    assert not [op for _, _, blocks in made for op in _summaries(blocks)]
    assert not batches


@pytest.mark.parametrize("seed", range(40))
def test_trip_count_is_the_least_solution(seed):
    rng = random.Random(seed)
    beta = rng.choice([1, -1, 3, -6, 64, _I64, rng.randrange(-(1 << 70), 1 << 70)])
    k = rng.choice([1, 2, rng.randrange(1, 500)])
    alpha = _wrapped(-beta * k)
    if alpha == 0:
        return
    n = vm._trip_count(alpha, beta)
    assert n is not None and n <= k and (alpha + beta * n) % (1 << 64) == 0
    assert all((alpha + beta * j) % (1 << 64) for j in range(1, min(n, 600)))
    assert vm._trip_count(1, 2) is None and vm._trip_count(1, 1 << 64) is None
