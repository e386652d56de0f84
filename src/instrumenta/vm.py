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

import heapq
from dataclasses import dataclass, field

from .filters import FilterRuleSet
from .ir import _CALL_OPS, HOOK_OPS, Instruction, IrFunction, IrModule, IrValidationError, validate
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
    """Outcome of one run; ``exit_value`` is None for an uncaught throw.

    ``steps`` is the number of instructions executed, hook ops included.
    """

    exit_value: int | None
    uncaught: bool
    total_ticks: int
    events: Trace = field(default_factory=Trace)
    max_depth: int = 1
    steps: int = 0


# Lowered code.  Only effect ops (hooks, internal calls, call.try,
# jmp, jnz, ret, throw/rethrow) are dispatched.  Every maximal run of
# pure instructions (li, addi, add, work, and plain calls to externs,
# which only cost ticks) is folded into the effect op that ends it:
#     (opcode, steps, ticks, updates, *operands)
# ``steps`` counts the folded instructions and the op itself, ``ticks``
# is their static cost including the op's own base_instruction or
# extern_call (a hook's monitoring cost is charged when it runs), and
# ``updates`` holds the run's register writes in order, each
# (dst, a, b, c) meaning regs[dst] = wrap(regs[a] + regs[b] + c), where
# register _ZERO is never written.  The instrumenter's fixed pairs
# ``hook.register r; hook.enter r`` and ``hook.exit r; ret`` lower to
# one op each; the steps of a fused ret are checked on their own, so a
# run stopped by the step limit fails exactly as it would unfused.
#
# The hooks of a region that is registered and filtered are pure too:
# they cannot fail, and they cost a fixed hook_guard (an enter or exit)
# or nothing (a register).  Such a region's functions are lowered again
# when its first registration returns FILTERED_REGION.
#
# A call to a defined function whose entry op is a _RET (a leaf) is
# pure as well: that op is all the callee runs, and it cannot fail.  The
# call adds its own step and tick and the leaf op's to the run, and, for
# ``ret rk``, the update r0 := the caller's argument k.  The frame the
# call would have pushed is recorded as a depth mark, the update
# (_ZERO, _ZERO, _ZERO, _MARK + d): d frames beyond the current one.
# Its sum is out of range, and _ZERO is never written, so the update
# loop meets a mark only on its wrapping branch.
_JNZ, _JMP, _CALL, _HREG, _HREGENTER, _HENTER, _THROW, _HEXIT, _HEXITRET, _RET = range(10)
_ZERO = 16
_MARK = 1 << 63


def _wrap(v: int) -> int:
    return ((v + _I64_BIAS) & _I64_MASK) - _I64_BIAS


def _leaf_call(callee: list[list[tuple]], call: Instruction, base: int) -> tuple | None:
    """(steps, ticks, updates) that ``call`` adds to its run when
    ``callee`` is a leaf, or None when the call is not folded: the
    callee is not a leaf, is not lowered yet (the call is recursive), or
    writes the register it returns."""
    if not callee or callee[0][0][0] != _RET:
        return None
    _, steps, ticks, updates, rk = callee[0][0]
    depth = 1 + max((c - _MARK for dst, _, _, c in updates if dst == _ZERO), default=0)
    out = [(_ZERO, _ZERO, _ZERO, _MARK + depth)]
    if rk is not None:
        if any(dst == rk for dst, *_ in updates):
            return None
        arg_regs = call.call_arg_regs()
        out.append((0, arg_regs[rk] if rk < len(arg_regs) else _ZERO, _ZERO, 0))
    return steps, base + ticks, out


def _lower_function(
    f: IrFunction,
    m: IrModule,
    code: dict[str, list[list[tuple]]],
    costs: CostModel,
    filtered: set[int],
) -> list[list[tuple]]:
    """Fold pure runs of one function, with the hooks of the regions in
    ``filtered`` and the calls to leaves already in ``code`` among them;
    resolve labels to block indices, call targets to code lists and a
    call's resume point to a block object."""
    label_idx = {b.label: i for i, b in enumerate(f.blocks)}
    blocks: list[list[tuple]] = [[] for _ in f.blocks]
    base = costs.base_instruction
    guard = costs.hook_guard
    for lowered, b in zip(blocks, f.blocks):
        steps = ticks = 0
        updates: list[tuple] = []
        instrs = b.instructions
        i = 0
        while i < len(instrs):
            ins = instrs[i]
            op, args = ins.op, ins.args
            i += 1
            steps += 1
            if op == "addi":
                updates.append((args[0], args[1], _ZERO, args[2]))
                ticks += base
                continue
            if op == "li":
                updates.append((args[0], _ZERO, _ZERO, _wrap(args[1])))
                ticks += base
                continue
            if op == "add":
                updates.append((*args, 0))
                ticks += base
                continue
            if op == "work":
                ticks += args[0]
                continue
            if op in HOOK_OPS and args[0] in filtered:
                if op != "hook.register":
                    ticks += guard
                continue
            nxt = instrs[i] if i < len(instrs) else None
            if op == "call" or op == "call.try":
                callee = code.get(args[0])
                if callee is None:  # an extern
                    pure = (0, costs.extern_call, ())
                else:
                    pure = _leaf_call(callee, ins, base)
                if pure is not None:
                    steps += pure[0]
                    ticks += pure[1]
                    updates += pure[2]
                    if op == "call":
                        continue
                    eff = (_JMP, label_idx[args[-2]])
                else:
                    ticks += base
                    # (resume_block, resume_ip, unwind_blk) for the frame.
                    if op == "call":
                        resume = (lowered, len(lowered) + 1, None)
                    else:
                        resume = (blocks[label_idx[args[-2]]], 0, label_idx[args[-1]])
                    eff = (_CALL, code[args[0]], ins.call_arg_regs(), *resume)
            elif op == "hook.register":
                eff = (_HREG, args[0], m.regions[args[0]])
                if nxt is not None and nxt.op == "hook.enter" and nxt.args == args:
                    eff = (_HREGENTER, *eff[1:])
                    steps += 1
                    i += 1
            elif op == "hook.enter":
                eff = (_HENTER, args[0])
            elif op == "hook.exit":
                eff = (_HEXIT, args[0])
                if nxt is not None and nxt.op == "ret":
                    eff = (_HEXITRET, args[0], nxt.args[0] if nxt.args else None)
                    i += 1  # the ret's step and tick are charged when it runs
            else:
                ticks += base
                if op == "jnz":
                    eff = (_JNZ, args[0], label_idx[args[1]], label_idx[args[2]])
                elif op == "jmp":
                    eff = (_JMP, label_idx[args[0]])
                elif op == "ret":
                    eff = (_RET, args[0] if args else None)
                else:  # throw, rethrow
                    eff = (_THROW,)
            lowered.append((eff[0], steps, ticks, tuple(updates), *eff[1:]))
            steps = ticks = 0
            updates = []
    # Thread each jmp into the first op of its target when that op
    # leaves its block (or resumes at a fixed place): the jmp and its
    # run cannot fail, so one check at the sum of their steps is the
    # target op's own check.
    for lowered in blocks:
        jmp = lowered[-1]
        if jmp[0] == _JMP:
            to = blocks[jmp[4]][0]
            if to[0] not in (_HREG, _HREGENTER, _HENTER, _HEXIT):
                lowered[-1] = (to[0], jmp[1] + to[1], jmp[2] + to[2], jmp[3] + to[3], *to[4:])
    return blocks


def _callees(f: IrFunction) -> list[str]:
    return [ins.args[0] for b in f.blocks for ins in b.instructions if ins.op in _CALL_OPS]


def _callees_first(defined: list[IrFunction]) -> list[IrFunction]:
    """The defined functions in post-order of the call graph, so that a
    function comes after its callees except along a recursive call."""
    by_name = {f.mangled_name: f for f in defined}
    order: list[IrFunction] = []
    seen: set[str] = set()
    for root in defined:
        if root.mangled_name in seen:
            continue
        seen.add(root.mangled_name)
        stack = [(root, iter(_callees(root)))]
        while stack:
            f, pending = stack[-1]
            for name in pending:
                if name in by_name and name not in seen:
                    seen.add(name)
                    stack.append((by_name[name], iter(_callees(by_name[name]))))
                    break
            else:
                stack.pop()
                order.append(f)
    return order


def _relower(
    todo: list[int],
    order: list[IrFunction],
    callers: dict[str, list[int]],
    m: IrModule,
    code: dict[str, list[list[tuple]]],
    costs: CostModel,
    filtered: set[int],
) -> None:
    """Lower the functions at the ``order`` positions in ``todo`` again,
    in place, then every caller of a function whose entry op has just
    become a _RET, transitively.  Callees go first and each function is
    lowered once."""
    heapq.heapify(todo)
    done: set[int] = set()
    while todo:
        i = heapq.heappop(todo)
        if i in done:
            continue
        done.add(i)
        name = order[i].mangled_name
        blocks = code[name]
        was_leaf = blocks[0][0][0] == _RET
        blocks[:] = _lower_function(order[i], m, code, costs, filtered)
        if not was_leaf and blocks[0][0][0] == _RET:
            for c in callers.get(name, ()):
                heapq.heappush(todo, c)


def _patch_index(order: list[IrFunction]) -> tuple[dict[int, list[int]], dict[str, list[int]]]:
    """Region id -> the positions in ``order`` of the functions that
    hold its hooks (inlining can copy a region's hooks into callers, so
    there may be several), and callee name -> its callers' positions."""
    holders: dict[int, list[int]] = {}
    callers: dict[str, list[int]] = {}
    for i, f in enumerate(order):
        for rid in {ins.args[0] for b in f.blocks for ins in b.instructions if ins.is_hook}:
            holders.setdefault(rid, []).append(i)
        for name in _callees(f):
            callers.setdefault(name, []).append(i)
    return holders, callers


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
    order = _callees_first([f for f in m.functions if not f.is_extern])
    code: dict[str, list[list[tuple]]] = {f.mangled_name: [] for f in order}
    filtered: set[int] = set()
    for f in order:
        code[f.mangled_name][:] = _lower_function(f, m, code, costs, filtered)
    holders = callers = None  # built at the first patch

    base = costs.base_instruction
    guard = costs.hook_guard
    reg_first = costs.hook_register_first
    recorded = guard + costs.hook_event
    over = f"step limit of {step_limit} exceeded"

    # The hook fast path: the Monitor's state, written here directly.
    handle_of = monitor.registry.handles
    codes = monitor.events.codes
    stamps = monitor.events.stamps
    open_regions = monitor.shadow_stack

    # The block being run is held as an object, so code that is running
    # when a patch lands finishes in the old lowering, which is still
    # exact; jumps and calls look up the current one.
    blocks = code[entry]
    cur = blocks[0]
    ip = 0
    regs = [0] * 17
    # Saved caller state: (blocks, resume_block, resume_ip, regs, unwind_blk).
    frames: list[tuple] = []
    ticks = 0
    steps = 0
    max_depth = 1

    while True:
        ins = cur[ip]
        steps += ins[1]
        if steps > step_limit:
            raise StepLimitExceeded(over)
        ticks += ins[2]
        for dst, a, b, c in ins[3]:
            v = regs[a] + regs[b] + c
            if -(2**63) <= v < 2**63:
                regs[dst] = v
            elif dst != _ZERO:
                regs[dst] = _wrap(v)
            elif len(frames) + 1 + v - _MARK > max_depth:  # a folded call's depth mark
                max_depth = len(frames) + 1 + v - _MARK
        op = ins[0]
        if op == _JNZ:
            cur = blocks[ins[5] if regs[ins[4]] != 0 else ins[6]]
            ip = 0
        elif op == _JMP:
            cur = blocks[ins[4]]
            ip = 0
        elif op == _CALL:
            frames.append((blocks, ins[6], ins[7], regs, ins[8]))
            if len(frames) + 1 > max_depth:
                max_depth = len(frames) + 1
            new_regs = [0] * 17
            for k, a in enumerate(ins[5]):
                new_regs[k] = regs[a]
            blocks = ins[4]
            regs = new_regs
            cur = blocks[0]
            ip = 0
        elif op <= _HENTER:  # _HREG, _HREGENTER, _HENTER
            handle = handle_of.get(ins[4])
            if handle is None and op != _HENTER:
                handle = monitor.register_region(ins[5])[0]
                ticks += reg_first
                if handle == FILTERED_REGION:
                    # Patch the region's hooks out of every function
                    # that holds them, in place: call ops and frames
                    # hold these lists, and enter or jump into the new
                    # code from here on.  Callers of a function that
                    # became a leaf fold their calls to it.
                    filtered.add(ins[4])
                    if holders is None:
                        holders, callers = _patch_index(order)
                    _relower(list(holders[ins[4]]), order, callers, m, code, costs, filtered)
            if op == _HREG:
                ip += 1
                continue
            # The enter, alone or after its register.
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
        elif op != _THROW:  # _HEXIT, _HEXITRET, _RET
            if op != _RET:
                handle = handle_of.get(ins[4])
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
                if op == _HEXIT:
                    ip += 1
                    continue
                # The ret after the exit, at its own step.
                steps += 1
                if steps > step_limit:
                    raise StepLimitExceeded(over)
                ticks += base
            # The value register is the last operand of _RET and _HEXITRET.
            value = regs[ins[-1]] if ins[-1] is not None else None
            if not frames:
                exit_value = value if value is not None else 0
                uncaught = False
                break
            blocks, cur, ip, regs, _ = frames.pop()
            if value is not None:
                regs[0] = value
        else:
            while frames:
                blocks, cur, ip, regs, unwind = frames.pop()
                if unwind is not None:
                    cur = blocks[unwind]
                    ip = 0
                    break
            else:
                exit_value = None
                uncaught = True
                break

    if open_regions:
        raise TraceError(f"run ends with {len(open_regions)} open region(s)")
    return ExecutionResult(exit_value, uncaught, ticks, monitor.events, max_depth, steps)
