"""Deterministic interpreter with an instruction-tick cost model.

Every ordinary instruction costs ``base_instruction`` ticks except
``work n``, which costs exactly n, and extern calls, which cost
``extern_call`` as a fixed intrinsic.  Hook pseudo-ops charge only
their monitoring costs: the guard on every enter/exit, the event on
top when something is recorded, and the registration cost once per
region.  That split makes runtime-filter overhead directly visible in
tick totals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .filters import FilterRuleSet
from .ir import IrModule, IrValidationError, validate
from .runtime import FILTERED_REGION, Monitor, Trace, TraceError, UnbalancedExitError

DEFAULT_STEP_LIMIT = 10**8

_I64_BIAS = 1 << 63
_I64_MASK = (1 << 64) - 1


class VmError(Exception):
    pass


class StepLimitExceeded(VmError):
    pass


@dataclass(frozen=True)
class CostModel:
    base_instruction: int = 1
    extern_call: int = 5
    hook_guard: int = 1
    hook_event: int = 20
    hook_register_first: int = 10

    def __post_init__(self):
        values = (
            self.base_instruction,
            self.extern_call,
            self.hook_guard,
            self.hook_event,
            self.hook_register_first,
        )
        if any(v < 0 for v in values):
            raise ValueError("costs must be non-negative")
        if self.hook_event <= self.hook_guard:
            raise ValueError("hook_event must exceed hook_guard")


@dataclass
class ExecutionResult:
    """Outcome of one run; ``exit_value`` is None for an uncaught throw."""

    exit_value: int | None
    uncaught: bool
    total_ticks: int
    events: Trace = field(default_factory=Trace)
    max_depth: int = 1


# Lowered opcodes.
_LI, _ADDI, _ADD, _WORK, _CALL, _CALL_EXT, _CALLTRY, _CALLTRY_EXT = range(8)
_JMP, _JNZ, _RET, _THROW, _HREG, _HENTER, _HEXIT = range(8, 15)


def _wrap(v: int) -> int:
    return ((v + _I64_BIAS) & _I64_MASK) - _I64_BIAS


def _lower(m: IrModule) -> dict[str, list[list[tuple]]]:
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


def execute(
    m: IrModule,
    entry: str = "main",
    costs: CostModel | None = None,
    runtime_rules: FilterRuleSet | None = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
) -> ExecutionResult:
    """Run a module from ``entry`` until it returns or throws uncaught.

    Identical inputs produce an identical result, events included.
    Execution aborts with StepLimitExceeded after ``step_limit``
    instructions, the guard against runaway recursion and loops, and
    with TraceError when the run ends with regions still open.
    """
    violations = validate(m)
    if violations:
        raise IrValidationError(violations)
    if not m.has_function(entry) or m.function(entry).is_extern:
        raise VmError(f"unknown entry function '{entry}'")

    costs = costs if costs is not None else CostModel()
    monitor = Monitor(runtime_rules)
    code = _lower(m)

    base = costs.base_instruction
    extern_cost = costs.extern_call
    guard = costs.hook_guard
    event = costs.hook_event
    reg_first = costs.hook_register_first
    recorded = guard + event

    # The hook fast path: the Monitor's state, written here directly.
    handle_of = monitor.registry.handles
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
