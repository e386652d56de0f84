"""Recorded hooks folded into the lowered code as events.

Once a recorded region's holders are lowered again, its ``hook.enter``
and ``hook.exit`` are part of the pure run of an op, as events with the
tick and step offsets at which they happen.  The interpreter records
them in order, checks each exit against the shadow stack, and at a step
limit inside the op first replays the events within the limit.  Every
run here is compared with the per-instruction ``reference_execute`` of
the VM oracle at every step limit, with the tier-up count lowered to 0
(a recorded region is patched at its first registration) and to 1 (at
the first run of its stale ``hook.register``), so that the folded events
are reached after a few visits.
"""

from __future__ import annotations

import random

import pytest

from conftest import corpus_paths, load_corpus
from instrumenta import vm
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import instrument_module
from instrumenta.ir import parse_module
from instrumenta.optimizer import O0, O2
from instrumenta.runtime import UnbalancedExitError
from test_vm_batch import _check_columns
from test_vm_oracle import COST_MODELS, EXCLUDE_ALL, _hook_soup, _modules, _sweep
from test_vm_patch import _lowerings


@pytest.fixture(params=[0, 1], ids=lambda n: f"tier_up{n}")
def tier_up(request, monkeypatch):
    monkeypatch.setattr(vm, "_TIER_UP", request.param)
    return request.param


@pytest.mark.parametrize("seed", range(12))
def test_generated_runs_match_reference_at_every_step_limit(seed, tier_up):
    for m in _modules(seed)[1:]:  # auto and plugin at O0 and O2
        for costs in COST_MODELS:
            assert len(_sweep(m, costs)) == 6  # each module runs to completion


@pytest.mark.parametrize("seed", range(100))
def test_hook_sequences_match_reference_at_every_step_limit(seed, tier_up):
    m = _hook_soup(random.Random(seed))
    for costs in COST_MODELS:
        for rules in (None, EXCLUDE_ALL):
            _sweep(m, costs, rules)


def _lowered(monkeypatch, m, name: str) -> list[list[tuple]]:
    """The last lowering of function ``name`` in a run of ``m``."""
    with monkeypatch.context() as recording:
        made = _lowerings(recording)
        try:
            vm.execute(m)
        except UnbalancedExitError:
            pass
    return [blocks for f, _, blocks in made if f == name][-1]


_REGIONS = """regions:
region 1 name="g()" canonical="_Z1gv" file="a.c" lines=10:19 flags=0
region 2 name="main" canonical="main" file="a.c" lines=1:9 flags=0
"""

# g's enter and exit fold into the one op of its entry block, a ret, and
# main's loop folds the call to it.
_ONE_OP = (
    """module "one_op"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 4
  jmp ^loop
^loop:
  call @_Z1gv
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r1
}
func @_Z1gv file="a.c" lines=10:19
{
^e:
  work 1
  hook.register 1
  hook.enter 1
  work 3
  hook.exit 1
  ret
}
"""
    + _REGIONS
)

# g's enter folds into the op of its call to h, which is no leaf, and
# its exit into the later op that returns.
_LATER_OP = (
    """module "later_op"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 4
  jmp ^loop
^loop:
  call @_Z1gv
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret r1
}
func @_Z1gv file="a.c" lines=10:19
{
^e:
  hook.register 1
  hook.enter 1
  work 2
  call @_Z1hi, r1
  work 1
  hook.exit 1
  ret r0
}
func @_Z1hi file="a.c" lines=20:29
{
^e:
  jnz r0, ^one, ^two
^one:
  ret r0
^two:
  work 5
  ret
}
"""
    + _REGIONS
)


def _ops(blocks) -> list[tuple[int, list[int]]]:
    return [(op[0], [code for code, _, _ in op[4] or ()]) for block in blocks for op in block]


@pytest.mark.parametrize(
    "text, shape",
    [
        (_ONE_OP, [(vm._RET, [2, -2])]),
        (_LATER_OP, [(vm._CALL, [2]), (vm._RET, [-2])]),
    ],
)
def test_folded_events_match_reference_at_every_step_limit(monkeypatch, tier_up, text, shape):
    m = parse_module(text)
    assert _ops(_lowered(monkeypatch, m, "_Z1gv")) == shape
    for costs in COST_MODELS:
        assert len(_sweep(m, costs)) == 6


# g closes region 1 without opening it.  Once g is a leaf, main's loop
# folds the call, and ^loop's jmp is threaded into that op: the second
# iteration runs g's exit there, with region 2 on top of the stack (a
# wrong handle) or with the stack empty.
_MISMATCH = (
    """module "mismatch"
func @main file="a.c" lines=1:9
{
^e:
  li r1, 2
  hook.register 1
  hook.register 2
  OPEN
  jmp ^loop
^loop:
  work 1
  jmp ^body
^body:
  call @_Z1gv
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret
}
func @_Z1gv file="a.c" lines=10:19
{
^e:
  work 2
  hook.register 1
  hook.exit 1
  ret
}
"""
    + _REGIONS
)


@pytest.mark.parametrize(
    "opened, top",
    [("hook.enter 2\n  hook.enter 1", 3), ("hook.enter 1", None)],
    ids=["wrong_handle", "empty_stack"],
)
def test_mismatched_folded_exit_fails_as_unfolded(monkeypatch, tier_up, opened, top):
    m = parse_module(_MISMATCH.replace("OPEN", opened))
    assert _ops(_lowered(monkeypatch, m, "_Z1gv")) == [(vm._RET, [-2])]
    loop = _lowered(monkeypatch, m, "main")[1]
    assert _ops([loop]) == [(vm._JNZ, [-2])]
    for costs in COST_MODELS:
        assert _sweep(m, costs) == (
            UnbalancedExitError,
            f"exit for handle 2 while top of stack is {top}",
        )
        assert len(_sweep(m, costs, EXCLUDE_ALL)) == 6


# hotloop.ir runs 1.2M steps, too many to stop at each one.
_SMALL_CORPUS = [p.name for p in corpus_paths() if p.name != "hotloop.ir"]


@pytest.mark.parametrize("tier", [0, 1, vm._TIER_UP], ids=lambda n: f"tier_up{n}")
@pytest.mark.parametrize("name", _SMALL_CORPUS)
def test_corpus_columns_match_reference_at_every_step_limit(monkeypatch, name, tier):
    # Listing 1 and the throw/catch shapes, instrumented, stop at every
    # limit between a register and its enter and between an exit and its
    # ret, with the hooks dispatched and, once folded, as events.
    monkeypatch.setattr(vm, "_TIER_UP", tier)
    made = _lowerings(monkeypatch)
    for mode in ("auto", "plugin"):
        for level in (O0, O2):
            m = instrument_module(load_corpus(name), FilterRuleSet(), mode, level)[0]
            for rules in (None, EXCLUDE_ALL):
                made.clear()
                steps = vm.execute(m, runtime_rules=rules).steps
                # Excluded regions fold at their first registration.
                assert rules is None or any(regions for _, regions, _ in made)
                _check_columns(monkeypatch, m, range(1, steps + 1), rules=rules)
