"""Differential oracle: ``execute`` against the per-instruction VM.

``reference_execute`` is the interpreter loop as it was before pure
instruction runs were folded into effect ops: one dispatch, one step
check and one tick charge per instruction.  It is kept here, unchanged
but for counting ``steps`` into its result, so that every observable of
``execute`` (exit value, uncaught status, ticks, events and their
timestamps, ``max_depth``, ``steps``, or the class and message of the
error a run raises) can be compared with it on generated programs, under
several cost models and at every step limit.
"""

from __future__ import annotations

import random

import pytest

import gens
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import instrument_module
from instrumenta.ir import IrModule, IrValidationError, parse_module, validate
from instrumenta.optimizer import O0, O2
from instrumenta.runtime import (
    FILTERED_REGION,
    Monitor,
    TraceError,
    UnbalancedExitError,
)
from instrumenta.vm import (
    DEFAULT_STEP_LIMIT,
    CostModel,
    ExecutionResult,
    StepLimitExceeded,
    VmError,
    execute,
)

_I64_BIAS = 1 << 63
_I64_MASK = (1 << 64) - 1

# Lowered opcodes.
_LI, _ADDI, _ADD, _WORK, _CALL, _CALL_EXT, _CALLTRY, _CALLTRY_EXT = range(8)
_JMP, _JNZ, _RET, _THROW, _HREG, _HENTER, _HEXIT = range(8, 15)


def _wrap(v: int) -> int:
    return ((v + _I64_BIAS) & _I64_MASK) - _I64_BIAS


def _reference_lower(m: IrModule) -> dict[str, list[list[tuple]]]:
    """Resolve labels to block indices and call targets to code lists."""
    code: dict[str, list[list[tuple]]] = {
        f.mangled_name: [] for f in m.functions if not f.is_extern
    }
    externs = {f.mangled_name for f in m.functions if f.is_extern}
    for f in m.functions:
        if f.is_extern:
            continue
        label_idx = {b.label: i for i, b in enumerate(f.blocks)}
        blocks = code[f.mangled_name]
        for b in f.blocks:
            lowered: list[tuple] = []
            for ins in b.instructions:
                op = ins.op
                if op == "li":
                    lowered.append((_LI, ins.args[0], _wrap(ins.args[1])))
                elif op == "addi":
                    lowered.append((_ADDI, ins.args[0], ins.args[1], ins.args[2]))
                elif op == "add":
                    lowered.append((_ADD, *ins.args))
                elif op == "work":
                    lowered.append((_WORK, ins.args[0]))
                elif op == "call":
                    target = ins.args[0]
                    if target in externs:
                        lowered.append((_CALL_EXT,))
                    else:
                        lowered.append((_CALL, code[target], ins.args[1:]))
                elif op == "call.try":
                    target = ins.args[0]
                    nblk = label_idx[ins.args[-2]]
                    ublk = label_idx[ins.args[-1]]
                    if target in externs:
                        lowered.append((_CALLTRY_EXT, nblk))
                    else:
                        lowered.append(
                            (_CALLTRY, code[target], ins.call_arg_regs(), nblk, ublk)
                        )
                elif op == "jmp":
                    lowered.append((_JMP, label_idx[ins.args[0]]))
                elif op == "jnz":
                    lowered.append(
                        (_JNZ, ins.args[0], label_idx[ins.args[1]], label_idx[ins.args[2]])
                    )
                elif op == "ret":
                    lowered.append((_RET, ins.args[0] if ins.args else None))
                elif op in ("throw", "rethrow"):
                    lowered.append((_THROW,))
                elif op == "hook.register":
                    d = m.regions[ins.args[0]]
                    lowered.append((_HREG, d.region_id, d))
                elif op == "hook.enter":
                    lowered.append((_HENTER, ins.args[0]))
                elif op == "hook.exit":
                    lowered.append((_HEXIT, ins.args[0]))
                else:
                    raise VmError(f"cannot lower op '{op}'")
            blocks.append(lowered)
    return code


def _check_closed(open_regions: list[int]) -> None:
    if open_regions:
        raise TraceError(f"run ends with {len(open_regions)} open region(s)")


def reference_execute(
    m: IrModule,
    entry: str = "main",
    costs: CostModel | None = None,
    runtime_rules: FilterRuleSet | None = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecutionResult:
    violations = validate(m)
    if violations:
        raise IrValidationError(violations)
    if not m.has_function(entry) or m.function(entry).is_extern:
        raise VmError(f"unknown entry function '{entry}'")

    costs = costs if costs is not None else CostModel()
    monitor = Monitor(runtime_rules)
    code = _reference_lower(m)

    base = costs.base_instruction
    extern_cost = costs.extern_call
    guard = costs.hook_guard
    event = costs.hook_event
    reg_first = costs.hook_register_first
    recorded = guard + event

    # The hook fast path: the Monitor's state, written here directly.
    handle_of = monitor.handles
    codes = monitor.events.codes
    stamps = monitor.events.stamps
    open_regions = monitor.shadow_stack

    blocks = code[entry]
    blk = 0
    ip = 0
    regs = [0] * 16
    # Saved caller state: (blocks, resume_blk, resume_ip, regs, unwind_blk).
    frames: list[tuple] = []
    ticks = 0
    steps = 0
    max_depth = 1

    while True:
        ins = blocks[blk][ip]
        steps += 1
        if steps > step_limit:
            raise StepLimitExceeded(f"step limit of {step_limit} exceeded")
        op = ins[0]
        if op == _ADDI:
            regs[ins[1]] = _wrap(regs[ins[2]] + ins[3])
            ticks += base
            ip += 1
        elif op == _JNZ:
            ticks += base
            blk = ins[2] if regs[ins[1]] != 0 else ins[3]
            ip = 0
        elif op == _WORK:
            ticks += ins[1]
            ip += 1
        elif op == _LI:
            regs[ins[1]] = ins[2]
            ticks += base
            ip += 1
        elif op == _JMP:
            ticks += base
            blk = ins[1]
            ip = 0
        elif op == _CALLTRY:
            ticks += base
            frames.append((blocks, ins[3], 0, regs, ins[4]))
            if len(frames) + 1 > max_depth:
                max_depth = len(frames) + 1
            new_regs = [0] * 16
            for k, a in enumerate(ins[2]):
                new_regs[k] = regs[a]
            blocks = ins[1]
            regs = new_regs
            blk = 0
            ip = 0
        elif op == _CALL:
            ticks += base
            frames.append((blocks, blk, ip + 1, regs, None))
            if len(frames) + 1 > max_depth:
                max_depth = len(frames) + 1
            new_regs = [0] * 16
            for k, a in enumerate(ins[2]):
                new_regs[k] = regs[a]
            blocks = ins[1]
            regs = new_regs
            blk = 0
            ip = 0
        elif op == _RET:
            ticks += base
            value = regs[ins[1]] if ins[1] is not None else None
            if not frames:
                _check_closed(open_regions)
                return ExecutionResult(
                    exit_value=value if value is not None else 0,
                    uncaught=False,
                    total_ticks=ticks,
                    events=monitor.events,
                    max_depth=max_depth,
                    steps=steps,
                )
            blocks, blk, ip, regs, _ = frames.pop()
            if value is not None:
                regs[0] = value
        elif op == _HENTER:
            handle = handle_of.get(ins[1])
            if handle is None:
                raise TraceError("enter with unregistered handle")
            if handle != FILTERED_REGION:
                codes.append(handle)
                stamps.append(ticks)
                open_regions.append(handle)
                ticks += recorded
            else:
                ticks += guard
            ip += 1
        elif op == _HEXIT:
            handle = handle_of.get(ins[1])
            if handle is None:
                raise TraceError("exit with unregistered handle")
            if handle != FILTERED_REGION:
                top = open_regions.pop() if open_regions else None
                if top != handle:
                    raise UnbalancedExitError(
                        f"exit for handle {handle} while top of stack is {top}"
                    )
                codes.append(-handle)
                stamps.append(ticks)
                ticks += recorded
            else:
                ticks += guard
            ip += 1
        elif op == _HREG:
            if ins[1] not in handle_of:
                monitor.register_region(ins[2])
                ticks += reg_first
            ip += 1
        elif op == _THROW:
            ticks += base
            caught = False
            while frames:
                blocks, rblk, rip, regs, ublk = frames.pop()
                if ublk is not None:
                    blk = ublk
                    ip = 0
                    caught = True
                    break
            if not caught:
                _check_closed(open_regions)
                return ExecutionResult(
                    exit_value=None,
                    uncaught=True,
                    total_ticks=ticks,
                    events=monitor.events,
                    max_depth=max_depth,
                    steps=steps,
                )
        elif op == _ADD:
            regs[ins[1]] = _wrap(regs[ins[2]] + regs[ins[3]])
            ticks += base
            ip += 1
        elif op == _CALL_EXT:
            ticks += extern_cost
            ip += 1
        elif op == _CALLTRY_EXT:
            ticks += extern_cost
            blk = ins[1]
            ip = 0
        else:
            raise VmError(f"unknown lowered opcode {op}")


# ---------------------------------------------------------------------------

COST_MODELS = (CostModel(), CostModel(3, 7, 2, 9, 4), CostModel(0, 0, 0, 1, 0))
EXCLUDE_ALL = FilterRuleSet(region_rules=(RegionRule("exclude", "*"),))


def _outcome(run, m, costs=None, rules=None, step_limit=DEFAULT_STEP_LIMIT):
    try:
        r = run(m, costs=costs, runtime_rules=rules, step_limit=step_limit)
    except (VmError, TraceError) as e:
        return type(e), str(e)
    return r.exit_value, r.uncaught, r.total_ticks, list(r.events), r.max_depth, r.steps


def _sweep(m, costs=None, rules=None, cap=DEFAULT_STEP_LIMIT):
    """Compare at every step limit from 1 until the reference run stops
    hitting the limit (or ``cap`` is reached); return the last outcome."""
    for limit in range(1, cap + 1):
        want = _outcome(reference_execute, m, costs, rules, limit)
        assert _outcome(execute, m, costs, rules, limit) == want, (costs, rules, limit)
        if want[0] is not StepLimitExceeded:
            return want
    return want


def _modules(seed):
    """The uninstrumented module, then auto and plugin at O0 and O2."""
    m = gens.terminating_module(random.Random(seed))
    return [m] + [
        instrument_module(m, FilterRuleSet(), mode, level)[0]
        for mode in ("auto", "plugin")
        for level in (O0, O2)
    ]


@pytest.mark.parametrize("seed", range(300))
def test_terminating_runs_match_reference(seed):
    modules = _modules(seed)
    victim = modules[0].functions[-1].mangled_name
    exclude = FilterRuleSet(region_rules=(RegionRule("exclude", victim, True),))
    runs = [(modules[0], None)] + [(m, rules) for m in modules[1:] for rules in (None, exclude)]
    for module, rules in runs:
        for costs in COST_MODELS:
            want = _outcome(reference_execute, module, costs, rules)
            assert len(want) == 6  # generated programs run to completion
            assert _outcome(execute, module, costs, rules) == want, (costs, rules)


@pytest.mark.parametrize("seed", range(100))
def test_every_step_limit_matches_reference(seed):
    for module in _modules(seed):
        steps = _sweep(module)[-1]
        assert steps == _outcome(reference_execute, module)[-1]


def _hook_soup(rng):
    """main and one callee run random hook sequences over two regions,
    mixed with pure ops, so that register/enter and exit/ret pairs (and
    their errors) appear at every position."""
    pool = [
        "hook.register 0", "hook.register 1", "hook.enter 0", "hook.enter 1",
        "hook.exit 0", "hook.exit 1", "work 2", "addi r1, r1, 3", "call @ext",
        "li r1, 9223372036854775806", "add r1, r1, r1",
    ]

    def body():
        out = [f"hook.register {r}" for r in (0, 1) if rng.random() < 0.5]
        for _ in range(rng.randint(0, 6)):
            ins = rng.choice(pool)
            out.append(ins)
            if ins.startswith("hook.register") and rng.random() < 0.6:
                out.append(ins.replace("register", "enter"))
        return out

    main = body() + ["call @_Z1gv"] + body() + [rng.choice(["ret r1", "ret", "throw"])]
    callee = body() + [rng.choice(["ret r1", "ret", "throw"])]
    text = 'module "m"\nextern @ext\n'
    for name, lines in (("main", main), ("_Z1gv", callee)):
        text += f'func @{name} file="a.c" lines=1:9\n{{\n^e:\n'
        text += "".join(f"  {ins}\n" for ins in lines) + "}\n"
    text += (
        "regions:\n"
        'region 0 name="main" canonical="main" file="a.c" lines=1:9 flags=0\n'
        'region 1 name="g()" canonical="_Z1gv" file="a.c" lines=1:9 flags=0\n'
    )
    return parse_module(text)


@pytest.mark.parametrize("seed", range(200))
def test_hook_sequences_match_reference_at_every_step_limit(seed):
    m = _hook_soup(random.Random(seed))
    for costs in COST_MODELS:
        for rules in (None, EXCLUDE_ALL):
            _sweep(m, costs, rules)


@pytest.mark.parametrize("seed", range(300))
def test_printable_modules_match_reference(seed):
    """Loops, externs, throws and stray hooks: many of these runs fail
    or never halt, and must fail the same way at every limit."""
    m = gens.printable_module(random.Random(seed))
    for rules in (None, EXCLUDE_ALL):
        _sweep(m, rules=rules, cap=40)
        for costs in COST_MODELS:
            want = _outcome(reference_execute, m, costs, rules, 500)
            assert _outcome(execute, m, costs, rules, 500) == want, (costs, rules)
