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
from .ir import (
    HOOK_OPS, Instruction, IrFunction, IrModule, IrValidationError, call_graph, components, validate,
)
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
#     (opcode, steps, ticks, updates, events, *operands)
# ``steps`` counts the folded instructions and the op itself, ``ticks``
# is their static cost including the op's own base_instruction or
# extern_call (a hook's monitoring cost is charged when it runs), and
# ``updates`` holds the run's register writes in order, each
# (dst, a, b, c) meaning regs[dst] = wrap(regs[a] + regs[b] + c), where
# register _ZERO is never written.
#
# The hooks of a registered region are pure too: a hook.register costs
# one step and nothing else, and an enter or exit costs hook_guard when
# the region is filtered.  When it is recorded, the enter or exit costs
# hook_guard + hook_event and becomes one of the op's ``events``,
# (+handle or -handle, tick offset, step offset): the ticks of the op
# charged before it and its own step number within the op.  ``events``
# is None for an op without any; otherwise ``updates`` ends with
# _RECORD, whose destination _EVENTS is never written and whose sum is
# out of range, so the update loop meets it only on its wrapping branch,
# where it records the events.  A filtered region's functions are
# lowered again at its first registration, a recorded region's once its
# stale hook.register ops have run _TIER_UP times.
#
# A call to a defined function whose entry op is a _RET (a leaf) is
# pure as well: that op is all the callee runs.  The call adds its own
# step and tick and the leaf op's to the run, the leaf op's events, and,
# for ``ret rk``, the update r0 := rk's value at the ret, which the
# leaf op's writes make a constant or one of the caller's arguments
# plus a constant (a leaf that returns a sum of two registers is not
# folded; see _symbolic).  The frame
# the call would have pushed is recorded as a depth mark, the update
# (_ZERO, _ZERO, _ZERO, _MARK + d): d frames beyond the current one.
# Its sum is out of range, and _ZERO is never written, so the update
# loop meets a mark only on its wrapping branch.
#
# A block whose one op is a _JNZ back to the block itself is a counted
# self-loop when every register the op writes steps by a fixed amount
# per iteration and its events balance within one iteration (see
# _summary).  Its back edge is then retargeted to a block of its own,
# after the function's blocks, that holds one _LOOP op: taking the back
# edge once runs the rest of the loop at once (see _batch).
#
# A jmp threaded into such a loop makes an op that ends with the loop's
# first iteration.  When that op's writes (after those of the hooks
# ahead of it in its block) leave the loop's counter at a constant,
# lowering solves the rest of the trip count n there and
# collapses the loop into the op (see _collapsed): n more iterations'
# steps and ticks, one write r := r + n * step per moving register, n
# shifted copies of the iteration's events, and a _JMP to the loop's
# exit, which is threaded in turn.  So a loop nested in another's body
# leaves that body one op, a self-loop itself, and a function whose
# loops all collapse can become a leaf.  A collapse that would add more
# than _ABSORBED events is left to _batch, so an op never holds a
# long run's trace.
_JNZ, _JMP, _CALL, _HREG, _HENTER, _HEXIT, _RET, _THROW, _LOOP = range(9)
_ZERO = 16
_EVENTS = 17
_MARK = 1 << 63
_RECORD = (_EVENTS, _ZERO, _ZERO, _MARK)
# Ops that go on to the next op of their block, so a jmp is never
# threaded into one.
_STAYS = (_HREG, _HENTER, _HEXIT)
# Runs of a recorded region's stale hook.register ops after which its
# holders are lowered again.  Lowering every region again at its first
# registration costs more than it saves on a rarely visited one.
_TIER_UP = 64
# Events a loop collapsed at lowering may add to its op; a loop that
# would add more is left to run in batches.
_ABSORBED = 64


def _wrap(v: int) -> int:
    return ((v + _I64_BIAS) & _I64_MASK) - _I64_BIAS


def _shifted(events: tuple | None, steps: int, ticks: int) -> list[tuple]:
    """``events`` of an op that runs after ``steps`` steps and ``ticks``
    ticks of another run."""
    return [(code, ticks + dt, steps + ds) for code, dt, ds in events or ()]


def _leaf_call(callee: list[list[tuple]], call: Instruction, base: int) -> tuple | None:
    """(steps, ticks, updates, events) that ``call`` adds to its run when
    ``callee`` is a leaf, the events as the leaf op has them, or None when
    the call is not folded: the callee is not a leaf, is not lowered yet
    (the call is recursive), or returns the sum of two registers."""
    if not callee or callee[0][0][0] != _RET:
        return None
    _, steps, ticks, updates, events, rk = callee[0][0]
    depth = 1 + max((c - _MARK for dst, _, _, c in updates if dst == _ZERO), default=0)
    out = [(_ZERO, _ZERO, _ZERO, _MARK + depth)]
    if rk is not None:
        value = _symbolic(updates).get(rk, (rk, 0))
        if value is None:
            return None
        src, k = value
        arg_regs = call.call_arg_regs()
        out.append((0, arg_regs[src] if src is not None and src < len(arg_regs) else _ZERO, _ZERO, k))
    return steps, base + ticks, out, events


def _threaded(jmp: tuple, to: tuple) -> tuple:
    """The op ``to`` with the run of the op ``jmp`` before its own."""
    if jmp[4] is None and to[4] is None:
        return (to[0], jmp[1] + to[1], jmp[2] + to[2], jmp[3] + to[3], None, *to[5:])
    updates = [*jmp[3], *to[3]]
    events = [*(jmp[4] or ()), *_shifted(to[4], jmp[1], jmp[2])]
    if events:
        updates = [u for u in updates if u[0] != _EVENTS] + [_RECORD]
    return (to[0], jmp[1] + to[1], jmp[2] + to[2], tuple(updates), tuple(events) or None, *to[5:])


def _symbolic(updates: tuple) -> dict[int, tuple[int | None, int] | None]:
    """Register -> (source, offset) for each register ``updates`` write:
    its value after them is the source's value before them (0 for None)
    plus the offset, modulo 2**64, or None for the sum of two registers."""
    value: dict[int, tuple[int | None, int] | None] = {}
    for dst, a, b, c in updates:
        if dst >= _ZERO:  # a depth mark or the events entry
            continue
        src = None
        for r in (a, b):
            if r != _ZERO:
                v = value.get(r, (r, 0))
                if v is None or v[0] is not None and src is not None:
                    src = c = None
                    break
                src = src if v[0] is None else v[0]
                c += v[1]
        value[dst] = None if c is None else (src, _wrap(c))
    return value


def _summary(op: tuple, i: int) -> tuple | None:
    """The _LOOP op of ``op``, the one op of block ``i`` and a _JNZ back to
    it, or None when the loop is not counted.

    Each register the op writes must be an induction (r := r + c), a
    constant, or one induction (an unwritten register steps by 0) plus a
    constant.  Once the op has run, every register then moves by a fixed
    step per further iteration, which is exact modulo 2**64, so
    registers wrap once at the end of a batch.  Its events must balance
    within one iteration, so that after the first one every further
    iteration passes the same exit checks."""
    open_regions = []
    for code, _, _ in op[4] or ():
        if code > 0:
            open_regions.append(code)
        elif not open_regions or open_regions.pop() != -code:
            return None
    if open_regions:
        return None
    start = _symbolic(op[3])
    if None in start.values():  # the sum of two registers
        return None
    # Register -> its step; a constant steps by 0 once the op has run.
    step = {}
    for r, (src, k) in start.items():
        if src == r:  # an induction
            step[r] = k
        elif src is not None:  # an induction plus a constant
            s, d = start.get(src, (src, 0))
            if s != src:  # read before the op writes it, not as an induction
                return None
            step[r] = d
    # (_LOOP, 0, 0, (), None, loop block, exit block, counter, its step,
    #  the moving registers' (register, step), steps and ticks of one
    #  iteration, its events as (code, tick offset)).
    return (
        _LOOP, 0, 0, (), None, i, op[7], op[5], step.get(op[5], 0),
        tuple((r, d) for r, d in step.items() if d & _I64_MASK),
        op[1], op[2], tuple((code, dt) for code, dt, _ in op[4] or ()),
    )


def _collapsed(op: tuple, loop: tuple, ahead: list[tuple]) -> tuple | None:
    """``op``, a jmp threaded into the self-loop that the _LOOP op ``loop``
    summarises (so its run ends with the loop's first iteration), with the
    rest of the loop folded in: a _JMP to the loop's exit.  None when the
    loop's counter after ``op`` is not a constant, the loop never ends
    from it, or the rest would add more than _ABSORBED events.  The runs
    of the ops ``ahead`` of ``op`` in its block count too when they are
    hooks that go on to the next op, such as an entry block's register
    and enter after its ``li``: ``op`` then always runs after them."""
    _, _, _, _, _, _, out, counter, beta, moving, steps, ticks, events = loop
    if any(o[0] not in _STAYS for o in ahead):
        ahead = []
    value = _symbolic([u for o in ahead for u in o[3]] + list(op[3])).get(counter, (counter, 0))
    if value is None or value[0] is not None:
        return None
    n = _trip_count(value[1], beta) if value[1] else 0
    if n is None or n * len(events) > _ABSORBED:
        return None
    updates = [u for u in op[3] if u[0] != _EVENTS]
    if n:
        updates += [(r, r, _ZERO, _wrap(n * d)) for r, d in moving]
    more = ()
    if op[4]:  # the first iteration's events end the op's, then n copies
        last = op[4][len(op[4]) - len(events):]
        more = tuple((code, dt + j * ticks, ds + j * steps) for j in range(1, n + 1) for code, dt, ds in last)
        updates.append(_RECORD)
    return (_JMP, op[1] + n * steps, op[2] + n * ticks, tuple(updates), op[4] and op[4] + more, out)


def _lower_function(
    f: IrFunction,
    m: IrModule,
    code: dict[str, list[list[tuple]]],
    costs: CostModel,
    handles: dict[int, int],
) -> list[list[tuple]]:
    """Fold pure runs of one function, with the hooks of the regions that
    ``handles`` (the Monitor's region -> handle map) holds and the calls
    to leaves already in ``code`` among them; resolve labels to block
    indices, call targets to code lists and a call's resume point to a
    block object; give each counted self-loop its summary block, and
    collapse it into a jmp that enters it with a known trip count."""
    label_idx = {b.label: i for i, b in enumerate(f.blocks)}
    blocks: list[list[tuple]] = [[] for _ in f.blocks]
    base = costs.base_instruction
    guard = costs.hook_guard
    recorded = guard + costs.hook_event
    for lowered, b in zip(blocks, f.blocks):
        steps = ticks = 0
        updates: list[tuple] = []
        events: list[tuple] = []
        for ins in b.instructions:
            op, args = ins.op, ins.args
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
            if op in HOOK_OPS and args[0] in handles:
                if op != "hook.register":
                    handle = handles[args[0]]
                    if handle == FILTERED_REGION:
                        ticks += guard
                    else:
                        events.append((handle if op == "hook.enter" else -handle, ticks, steps))
                        ticks += recorded
                continue
            if op == "call" or op == "call.try":
                callee = code.get(args[0])
                if callee is None:  # an extern
                    pure = (0, costs.extern_call, (), None)
                else:
                    pure = _leaf_call(callee, ins, base)
                if pure is not None:
                    if pure[3]:  # after the call's own step and tick
                        events += _shifted(pure[3], steps, ticks + base)
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
            elif op == "hook.enter":
                eff = (_HENTER, args[0])
            elif op == "hook.exit":
                eff = (_HEXIT, args[0])
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
            if events:
                updates.append(_RECORD)
                lowered.append((eff[0], steps, ticks, tuple(updates), tuple(events), *eff[1:]))
                events = []
            else:
                lowered.append((eff[0], steps, ticks, tuple(updates), None, *eff[1:]))
            steps = ticks = 0
            updates = []
    # Thread each jmp into the first op of its target when that op
    # leaves its block (or resumes at a fixed place).  Nothing in the jmp
    # and its run can fail but an exit event, which the interpreter
    # checks in order, so one step check at the sum of their steps is
    # the target op's own check.  A block is settled after the block its
    # jmp targets, so a chain of jmps collapses into one op; a jmp that
    # closes a cycle of jmps is left as it is.  A settled self-loop gets
    # its summary, and a jmp threaded into a summarised loop may collapse
    # the loop (see _collapsed); the resulting jmp to the loop's exit is
    # threaded in turn.  The summary of block i's self-loop goes at
    # len(f.blocks) + i, so that the back edge of a block from an earlier
    # lowering, which a frame may resume into after a patch, finds the
    # same loop there.
    n = len(blocks)
    loops: dict[int, tuple] = {}  # loop block -> its summary
    collapsed: set[tuple[int, int]] = set()  # (block, loop) pairs
    state = [0] * n  # 0: not settled, 1: on the stack, 2: settled
    for root in range(n):
        stack = [] if state[root] else [root]
        while stack:
            i = stack[-1]
            state[i] = 1
            op = blocks[i][-1]
            to = op[5] if op[0] == _JMP else None
            if to is not None and not state[to]:
                stack.append(to)
                continue
            if to is not None and state[to] == 2 and blocks[to][0][0] not in _STAYS:
                op = blocks[i][-1] = _threaded(op, blocks[to][0])
                # A loop met twice on the way is an endless run.
                if to in loops and (i, to) not in collapsed:
                    rest = _collapsed(op, loops[to], blocks[i][:-1])
                    if rest:  # go on at the loop's exit
                        blocks[i][-1] = rest
                        collapsed.add((i, to))
                        continue
            stack.pop()
            state[i] = 2
            if len(blocks[i]) == 1 and op[0] == _JNZ and op[6] == i:
                summary = _summary(op, i)
                if summary:
                    loops[i] = summary
                    blocks[i][0] = (*op[:6], n + i, op[7])
    for i, summary in sorted(loops.items()):
        blocks += [[]] * (n + i - len(blocks))
        blocks.append([summary])
    return blocks


def _record(events: tuple, t0: int, room: int, codes, stamps, open_regions) -> None:
    """Record the events of an op whose run starts at tick ``t0``, up to
    its step ``room``; an exit that does not close the innermost open
    region raises as it would unfolded."""
    for code, dt, ds in events:
        if ds > room:
            return
        if code > 0:
            open_regions.append(code)
        else:
            top = open_regions.pop() if open_regions else None
            if top != -code:
                raise UnbalancedExitError(f"exit for handle {-code} while top of stack is {top}")
        codes.append(code)
        stamps.append(t0 + dt)


def _trip_count(alpha: int, beta: int) -> int | None:
    """The least k >= 1 with alpha + beta * k = 0 (mod 2**64), or None:
    -alpha // g times the inverse of beta // g modulo m = 2**64 // g, for
    g = gcd(beta, 2**64).  ``alpha`` is a nonzero i64, so k = 0 is never
    a solution."""
    beta &= _I64_MASK
    g = beta & -beta
    if not g or alpha % g:
        return None
    m = (1 << 64) // g
    return -alpha // g * pow(beta // g, -1, m) % m


def _batch(loop: tuple, regs: list[int], room: int, t0: int, codes, stamps) -> tuple[int, int]:
    """Run the rest of the self-loop that the _LOOP op ``loop`` summarises,
    after its op has run once and taken the back edge at tick ``t0``: as
    many iterations as its counter asks for and ``room`` steps allow.
    Apply them to ``regs`` and append their events as interleaved
    progressions; return their number and the block to go on at: the
    loop's exit, or the loop itself when the steps run out first, where
    the next iteration stops at the step limit as it would unbatched."""
    _, _, _, _, _, at, out, counter, beta, moving, steps, ticks, events = loop
    cap = room // steps
    n = _trip_count(regs[counter], beta)
    if n is None or n > cap:
        n, out = cap, at
    for r, d in moving:
        regs[r] = _wrap(regs[r] + n * d)
    if events and n:
        k = len(events)
        first = len(codes)
        pad = [0] * (n * k)
        codes += pad
        stamps += pad
        for j, (code, dt) in enumerate(events, first):
            codes[j::k] = [code] * n
            stamps[j::k] = range(t0 + dt, t0 + dt + n * ticks, ticks)
    return n, out


def _relower(
    todo: list[int],
    order: list[IrFunction],
    callers: dict[str, list[int]],
    m: IrModule,
    code: dict[str, list[list[tuple]]],
    costs: CostModel,
    handles: dict[int, int],
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
        blocks[:] = _lower_function(order[i], m, code, costs, handles)
        if not was_leaf and blocks[0][0][0] == _RET:
            for c in callers.get(name, ()):
                heapq.heappush(todo, c)


def _patch_index(
    order: list[IrFunction], graph: dict[str, dict[str, None]]
) -> tuple[dict[int, list[int]], dict[str, list[int]]]:
    """Region id -> the positions in ``order`` of the functions that
    hold its hooks (inlining can copy a region's hooks into callers, so
    there may be several), and callee name -> its callers' positions,
    read off the call graph."""
    holders: dict[int, list[int]] = {}
    callers: dict[str, list[int]] = {}
    for i, f in enumerate(order):
        for rid in {ins.args[0] for b in f.blocks for ins in b.instructions if ins.is_hook}:
            holders.setdefault(rid, []).append(i)
        for name in graph[f.mangled_name]:
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
    # The hook fast path: the Monitor's state, written here directly.
    handle_of = monitor.handles
    codes = monitor.events.codes
    stamps = monitor.events.stamps
    open_regions = monitor.shadow_stack

    # Callees first: only a call inside a recursive component can find
    # its callee not yet lowered.
    graph = call_graph(m)
    defined = {f.mangled_name: f for f in m.functions if not f.is_extern}
    order = [defined[name] for comp in components(graph) for name in comp if name in defined]
    code: dict[str, list[list[tuple]]] = {f.mangled_name: [] for f in order}
    for f in order:
        code[f.mangled_name][:] = _lower_function(f, m, code, costs, handle_of)
    holders = callers = None  # built at the first patch
    # Region id -> the runs of its stale hook.register ops left before
    # its holders are lowered again.
    stale: dict[int, int] = {}

    guard = costs.hook_guard
    reg_first = costs.hook_register_first
    recorded = guard + costs.hook_event
    over = f"step limit of {step_limit} exceeded"

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
            if ins[4] is not None:  # the events within the limit run first
                _record(ins[4], ticks, step_limit - steps + ins[1], codes, stamps, open_regions)
            raise StepLimitExceeded(over)
        ticks += ins[2]
        for dst, a, b, c in ins[3]:
            v = regs[a] + regs[b] + c
            if -(2**63) <= v < 2**63:
                regs[dst] = v
            elif dst == _ZERO:  # a folded call's depth mark
                if len(frames) + 1 + v - _MARK > max_depth:
                    max_depth = len(frames) + 1 + v - _MARK
            elif dst == _EVENTS:
                _record(ins[4], ticks - ins[2], ins[1], codes, stamps, open_regions)
            else:
                regs[dst] = _wrap(v)
        op = ins[0]
        if op == _JNZ:
            cur = blocks[ins[6] if regs[ins[5]] != 0 else ins[7]]
            ip = 0
        elif op == _JMP:
            cur = blocks[ins[5]]
            ip = 0
        elif op == _CALL:
            frames.append((blocks, ins[7], ins[8], regs, ins[9]))
            if len(frames) + 1 > max_depth:
                max_depth = len(frames) + 1
            new_regs = [0] * 17
            for k, a in enumerate(ins[6]):
                new_regs[k] = regs[a]
            blocks = ins[5]
            regs = new_regs
            cur = blocks[0]
            ip = 0
        elif op == _HREG:
            rid = ins[5]
            if rid not in handle_of:
                handle = monitor.register_region(ins[6])[0]
                ticks += reg_first
                stale[rid] = 0 if handle == FILTERED_REGION else _TIER_UP
            else:
                stale[rid] -= 1
            if stale[rid] == 0:
                # Fold the region's hooks into the pure runs of every
                # function that holds them, in place: call ops and frames
                # hold these lists, and enter or jump into the new code
                # from here on.  Callers of a function that became a leaf
                # fold their calls to it.
                if holders is None:
                    holders, callers = _patch_index(order, graph)
                _relower(list(holders[rid]), order, callers, m, code, costs, handle_of)
            ip += 1
        elif op == _HENTER or op == _HEXIT:
            handle = handle_of.get(ins[5])
            if handle is None:
                raise TraceError(f"{'enter' if op == _HENTER else 'exit'} with unregistered handle")
            if handle == FILTERED_REGION:
                ticks += guard
            else:
                event = (handle if op == _HENTER else -handle, 0, 0)
                _record((event,), ticks, 0, codes, stamps, open_regions)
                ticks += recorded
            ip += 1
        elif op == _RET:
            value = regs[ins[5]] if ins[5] is not None else None
            if not frames:
                exit_value = value if value is not None else 0
                uncaught = False
                break
            blocks, cur, ip, regs, _ = frames.pop()
            if value is not None:
                regs[0] = value
        elif op == _THROW:
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
        else:  # _LOOP: the back edge of a counted self-loop, taken once
            n, to = _batch(ins, regs, step_limit - steps, ticks, codes, stamps)
            steps += n * ins[10]
            ticks += n * ins[11]
            cur = blocks[to]
            ip = 0

    if open_regions:
        raise TraceError(f"run ends with {len(open_regions)} open region(s)")
    return ExecutionResult(exit_value, uncaught, ticks, monitor.events, max_depth, steps)
