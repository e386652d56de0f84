"""Calls to leaves folded into the caller's pure run.

A defined function whose lowered entry op is a ``ret`` (a leaf) runs that
op and nothing else, so ``execute`` folds a call to it into the caller's
pure run, with a depth mark for the frame the call would have pushed.
Every module here is compared with the per-instruction
``reference_execute`` of the VM oracle at every step limit, and its
lowering is checked to fold (or keep) the calls it is written for.
"""

from __future__ import annotations

import pytest

from instrumenta import vm
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.ir import parse_module
from test_vm_oracle import COST_MODELS, EXCLUDE_ALL, _sweep
from test_vm_patch import _lowerings

_EXCLUDE_G = FilterRuleSet(region_rules=(RegionRule("exclude", "_Z1gv", True),))


def _final(monkeypatch, m) -> dict[str, list]:
    """Each function's lowering when a run of ``m`` ends."""
    made = _lowerings(monkeypatch)
    vm.execute(m)
    return {name: blocks for name, _, blocks in made}


def _ops(blocks) -> list[int]:
    return [op[0] for block in blocks for op in block]


def _check(m, rules_list=(None,)):
    for rules in rules_list:
        for costs in COST_MODELS:
            assert len(_sweep(m, costs, rules)) == 6  # each module runs to completion


# A plain call and a call.try to the same leaf.  The call continues the
# run, and the call.try becomes a jmp that is threaded into the jnz.
_PLAIN_AND_TRY = """module "plain_and_try"
func @main file="a.c" lines=1:20
{
^e:
  li r1, 3
  jmp ^loop
^loop:
  call @_Z4leafv
  call.try @_Z4leafv, ^next, ^caught
^next:
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r1
^caught:
  li r0, 99
  ret r0
}
func @_Z4leafv file="a.c" lines=21:25
{
^e:
  work 2
  li r3, 7
  ret
}
"""


def test_plain_call_and_call_try_fold(monkeypatch):
    m = parse_module(_PLAIN_AND_TRY)
    code = _final(monkeypatch, m)
    loop = code["main"][1]
    assert [op[0] for op in loop] == [vm._JNZ]
    leaf = code["_Z4leafv"][0][0]
    next_op = code["main"][2][0]
    assert loop[0][1:3] == (2 * (1 + leaf[1]) + next_op[1], 2 * (1 + leaf[2]) + next_op[2])
    assert vm.execute(m).max_depth == 2
    _check(m)


# ``ret rk`` of an argument register, of a register nobody set (0, and
# the caller's r0 is overwritten), of a register the leaf writes (not
# folded), and a bare ret (the caller's r0 is kept).
_RETURNS = """module "returns"
func @main file="a.c" lines=1:20
{
^e:
  li r1, 11
  li r2, 22
  call @_Z3argii, r1, r2
  add r5, r5, r0
  li r0, 3
  call @_Z5unseti, r1
  add r5, r5, r0
  call @_Z5wrotei, r1
  add r5, r5, r0
  li r0, 4
  call @_Z4barev
  add r5, r5, r0
  ret r5
}
func @_Z3argii file="a.c" lines=21:23
{
^e:
  work 1
  ret r1
}
func @_Z5unseti file="a.c" lines=24:26
{
^e:
  li r1, 5
  ret r3
}
func @_Z5wrotei file="a.c" lines=27:29
{
^e:
  addi r0, r0, 5
  ret r0
}
func @_Z4barev file="a.c" lines=30:32
{
^e:
  li r0, 8
  ret
}
"""


def test_returned_registers(monkeypatch):
    m = parse_module(_RETURNS)
    code = _final(monkeypatch, m)
    main = code["main"]
    # Only the call to the leaf that writes its returned register stays.
    calls = [op for block in main for op in block if op[0] == vm._CALL]
    assert len(calls) == 1 and calls[0][4][0] is code["_Z5wrotei"][0]
    r = vm.execute(m)
    assert r.exit_value == 22 + 0 + 16 + 4
    assert r.max_depth == 2
    _check(m)


# main -> a -> b -> c, each a leaf once its callee is folded: main runs
# as one ret whose depth mark is 3.  c returns its argument 1, and b and
# a pass their own argument 1 on as it.
_CHAIN = """module "chain"
func @main file="a.c" lines=1:5
{
^e:
  li r2, 42
  call @_Z1aii, r1, r2
  ret r0
}
func @_Z1aii file="a.c" lines=6:9
{
^e:
  work 1
  call @_Z1bii, r0, r1
  ret r1
}
func @_Z1bii file="a.c" lines=10:13
{
^e:
  work 2
  call @_Z1cii, r0, r1
  ret r1
}
func @_Z1cii file="a.c" lines=14:16
{
^e:
  work 3
  ret r1
}
"""


def test_chain_of_leaves_three_calls_deep(monkeypatch):
    m = parse_module(_CHAIN)
    code = _final(monkeypatch, m)
    assert [name for name in code] == ["_Z1cii", "_Z1bii", "_Z1aii", "main"]
    assert _ops(code["main"]) == [vm._RET]
    r = vm.execute(m)
    assert (r.exit_value, r.max_depth, r.steps) == (42, 4, 3 + 3 + 3 + 2)
    _check(m)


# The same chain reached from a frame three deep, in a loop: the depth
# marks count from the frame that runs them.
_DEEP_CHAIN = _CHAIN.replace(
    """  call @_Z1aii, r1, r2
  ret r0
}""",
    """  call @_Z1xv
  call @_Z1aii, r1, r2
  ret r0
}
func @_Z1xv file="a.c" lines=17:20
{
^e:
  call @_Z1yv
  ret
}
func @_Z1yv file="a.c" lines=21:27
{
^e:
  li r3, 2
  jmp ^l
^l:
  call @_Z1aii, r1, r3
  addi r3, r3, -1
  jnz r3, ^l, ^d
^d:
  ret
}""",
)


def test_chain_of_leaves_below_live_frames(monkeypatch):
    m = parse_module(_DEEP_CHAIN)
    code = _final(monkeypatch, m)
    assert vm._CALL not in _ops(code["_Z1yv"])
    assert vm.execute(m).max_depth == 6
    _check(m)


# A self-recursive function is never folded into itself, but folds the
# leaf it calls at every depth, and the base case's mark sets max_depth.
_RECURSIVE = """module "recursive"
func @main file="a.c" lines=1:5
{
^e:
  li r1, 3
  call @_Z3reci, r1
  ret r0
}
func @_Z3reci file="a.c" lines=6:16
{
^e:
  work 1
  jnz r0, ^rec, ^base
^rec:
  call @_Z4leafv
  addi r1, r0, -1
  call @_Z3reci, r1
  addi r0, r0, 2
  ret r0
^base:
  call @_Z4leafv
  li r0, 7
  ret r0
}
func @_Z4leafv file="a.c" lines=17:19
{
^e:
  work 4
  ret
}
"""


def test_self_recursion_is_not_folded(monkeypatch):
    m = parse_module(_RECURSIVE)
    code = _final(monkeypatch, m)
    rec = code["_Z3reci"]
    calls = [op for block in rec for op in block if op[0] == vm._CALL]
    assert len(calls) == 1 and calls[0][4][0] is rec[0]
    r = vm.execute(m)
    assert (r.exit_value, r.max_depth) == (7 + 3 * 2, 6)  # main, rec(3..0), leaf
    _check(m)


# g becomes a leaf only when its region is filtered, on its first
# registration: main's frame is live then, and main holds g's hooks too,
# so the patch lowers both holders, g first, and main folds its call.
_PATCHED = """module "patched"
func @main file="a.c" lines=1:20
{
^e:
  li r1, 3
  jmp ^loop
^loop:
  call @_Z1gv
  hook.register 1
  hook.enter 1
  work 1
  hook.exit 1
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r1
}
func @_Z1gv file="a.c" lines=21:25
{
^e:
  hook.register 1
  hook.enter 1
  work 3
  hook.exit 1
  ret
}
regions:
region 1 name="g()" canonical="_Z1gv" file="a.c" lines=21:25 flags=0
"""

# The same patch one call further away: g's caller mid becomes a leaf
# only by folding g, and main then folds mid.  The frames of main and
# mid are live when g registers.
_CASCADE = _PATCHED.replace("  call @_Z1gv\n  hook.reg", "  call @_Z3midv\n  hook.reg").replace(
    "regions:",
    """func @_Z3midv file="a.c" lines=26:29
{
^e:
  work 1
  call @_Z1gv
  ret
}
regions:""",
)


@pytest.mark.parametrize(
    "text, relowered, depth",
    [(_PATCHED, ["_Z1gv", "main"], 2), (_CASCADE, ["_Z1gv", "_Z3midv", "main"], 3)],
)
def test_leaf_made_by_a_patch_under_live_frames(monkeypatch, text, relowered, depth):
    m = parse_module(text)
    made = _lowerings(monkeypatch)
    vm.execute(m, runtime_rules=_EXCLUDE_G)
    assert [name for name, filtered, _ in made if filtered] == relowered
    main = made[-1][2]
    assert [op[0] for op in main[1]] == [vm._JNZ]
    assert vm.execute(m, runtime_rules=_EXCLUDE_G).max_depth == depth
    monkeypatch.undo()
    _check(m, (None, _EXCLUDE_G, EXCLUDE_ALL))
