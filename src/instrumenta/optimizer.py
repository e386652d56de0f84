"""Function inlining at optimization levels O0 through O3.

Each level fixes an instruction-count threshold; call sites whose
callee stays under it are expanded in place.  Recursive callees,
``no_inline`` callees and ``call.try`` sites are never touched, and the
pass iterates to a fixpoint under a bounded round budget.  Hook
pseudo-ops are ordinary instructions here, so instrumentation already
present in a callee travels with its body into the caller.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, islice

from .ir import (
    BasicBlock,
    Instruction,
    InstructionTable,
    IrFunction,
    IrModule,
    IrValidationError,
    NUM_REGISTERS,
    _CALL_OPS,
    _register_operands,
    call_graph,
    components,
    validate,
)

INLINE_THRESHOLDS = {"O0": 0, "O1": 4, "O2": 16, "O3": 64}

MAX_ROUNDS = 10


@dataclass(frozen=True)
class OptLevel:
    level: str

    def __post_init__(self):
        if self.level not in INLINE_THRESHOLDS:
            raise ValueError(f"unknown optimization level '{self.level}'")

    @property
    def inline_threshold(self) -> int:
        return INLINE_THRESHOLDS[self.level]


O0 = OptLevel("O0")
O1 = OptLevel("O1")
O2 = OptLevel("O2")
O3 = OptLevel("O3")


@dataclass(frozen=True)
class InlineSite:
    caller: str
    callee: str
    block: str
    index: int


@dataclass
class InlineReport:
    inlined_sites: list[InlineSite] = field(default_factory=list)
    skipped: list[tuple[InlineSite, str]] = field(default_factory=list)


def inline_cost(f: IrFunction) -> int:
    """Total instruction count of the body; hooks count like any other."""
    if f.is_extern:
        raise ValueError(f"extern function @{f.mangled_name} has no body cost")
    return sum(len(b.instructions) for b in f.blocks)


def _register_counts(runs: Iterable[list[Instruction]]) -> Counter:
    """How often each register occurs as an operand in the runs."""
    return Counter(chain.from_iterable(map(_register_operands, chain.from_iterable(runs))))


class _RegisterCounts(dict):
    """Register operand counts by function name, counted on first use and
    then updated at every expanded site: a register is in use while its
    count is positive."""

    def __init__(self, functions: dict[str, IrFunction]):
        super().__init__()
        self.functions = functions

    def __missing__(self, name: str) -> Counter:
        blocks = self.functions[name].blocks
        counts = self[name] = _register_counts(b.instructions for b in blocks)
        return counts


class _Inliner:
    def __init__(self, module: IrModule, threshold: int, table: InstructionTable):
        self.module = module
        self.threshold = threshold
        self.table = table
        self.report = InlineReport()
        self.skip_seen: set[tuple[InlineSite, str]] = set()
        self.functions = {f.mangled_name: f for f in module.functions}
        # Eligibility is judged on the input module's costs so that the
        # site set grows monotonically with the level.
        self.frozen_cost = {
            f.mangled_name: inline_cost(f)
            for f in module.functions
            if not f.is_extern
        }
        self.fresh = 0
        self.registers = _RegisterCounts(self.functions)
        # The functions whose next scan may change something.
        self.dirty = {f.mangled_name for f in module.functions if not f.is_extern}

    # Built on first use, which auto mode's call.try sites may never make.
    @cached_property
    def calls(self) -> dict[str, dict[str, None]]:
        """Who may call whom: edges are added, never removed."""
        return call_graph(self.module)

    @cached_property
    def recursive(self) -> set[str]:
        """The functions that can reach themselves along calls: those in a
        component of two or more, and those that call themselves."""
        calls = self.calls
        return {
            name
            for component in components(calls)
            if len(component) > 1 or component[0] in calls[component[0]]
            for name in component
        }

    def ineligible_reason(self, callee_name: str) -> str | None:
        callee = self.functions[callee_name]
        if callee.is_extern:
            return "extern"
        if callee_name in self.recursive:
            return "recursive"
        if "no_inline" in callee.attrs:
            return "no_inline"
        if self.frozen_cost[callee_name] > self.threshold:
            return f"cost {self.frozen_cost[callee_name]} over threshold"
        return None

    def run(self) -> None:
        """Scan the dirty functions in module order, round after round,
        until a round changes nothing.  A scan that expands nothing leaves
        its function as it was, and the next one can only differ once a
        callee uses fewer registers; ``recount`` marks its callers dirty,
        so a later one is scanned in the same round, as in a full rescan."""
        dirty = self.dirty
        for _ in range(MAX_ROUNDS):
            changed = False
            for f in self.module.functions:
                if f.mangled_name in dirty:
                    dirty.discard(f.mangled_name)
                    if self.scan_function(f):
                        dirty.add(f.mangled_name)
                        changed = True
            if not changed:
                return

    def scan_function(self, caller: IrFunction) -> bool:
        changed = False
        bi = ii = 0
        while bi < len(caller.blocks):
            block = caller.blocks[bi]
            for ii, ins in enumerate(islice(block.instructions, ii, None), ii):
                if ins.op not in _CALL_OPS:
                    continue
                target = ins.call_target()
                site = InlineSite(caller.mangled_name, target, block.label, ii)
                if ins.op == "call.try":
                    self.note_skip(site, "exception-edge")
                    continue
                reason = self.ineligible_reason(target)
                if reason is not None:
                    self.note_skip(site, reason)
                    continue
                callee = self.functions[target]
                rmap = self.register_map(caller, callee)
                if rmap is None:
                    self.note_skip(site, "register-pressure")
                    continue
                # The block changes here: go on from just past the site.
                bi, ii = self.inline_at(caller, bi, ii, ins, callee, rmap)
                self.report.inlined_sites.append(site)
                changed = True
                break
            else:
                bi, ii = bi + 1, 0
        return changed

    def note_skip(self, site: InlineSite, reason: str) -> None:
        if (site, reason) not in self.skip_seen:
            self.skip_seen.add((site, reason))
            self.report.skipped.append((site, reason))

    def register_map(
        self, caller: IrFunction, callee: IrFunction
    ) -> dict[int, int] | None:
        # Counted before the caller's body holds a copy of the callee.
        used = self.registers[caller.mangled_name]
        callee_regs = sorted(self.registers[callee.mangled_name])
        if not callee_regs:
            return {}
        free = [r for r in range(NUM_REGISTERS) if r not in used]
        if len(free) < len(callee_regs):
            return None
        return dict(zip(callee_regs, free))

    def fresh_prefix(self, caller: IrFunction, callee: IrFunction) -> str:
        taken = caller.labels()
        while True:
            self.fresh += 1
            prefix = f"inl{self.fresh}"
            wanted = {f"{prefix}_{b.label}" for b in callee.blocks}
            wanted.add(f"{prefix}_cont")
            if not (wanted & taken):
                return prefix

    def _copy_body(
        self, body: list[Instruction], rmap: dict[int, int],
        lmap: dict[str, str] | None = None, cont: str | None = None,
    ) -> list[Instruction]:
        """``body`` renamed through ``rmap`` and ``lmap``; a ``ret`` becomes a copy
        of its register, if any, into the caller's r0, then ``jmp cont`` if given."""
        table = self.table
        out: list[Instruction] = []
        for ins in body:
            if ins.op != "ret":
                out.append(ins.remap(rmap, lmap, table))
                continue
            for r in _register_operands(ins):
                out.append(table["addi", (0, rmap[r], 0)])
            if cont is not None:
                out.append(table["jmp", (cont,)])
        return out

    def inline_at(
        self,
        caller: IrFunction,
        bi: int,
        ii: int,
        call: Instruction,
        callee: IrFunction,
        rmap: dict[int, int],
    ) -> tuple[int, int]:
        """Expand one call site; returns the (block, index) just past it.

        A single-block callee is spliced in place; any other becomes blocks
        after the call's block, then a continuation block holding the rest
        of it.  Calls copied from the callee wait for the next round.
        """
        args = call.call_arg_regs()
        # Parameters land in callee r0..r(k-1); every other callee
        # register starts at zero, so the move/zero split is keyed on
        # the register index itself; rmap lists it in ascending order.
        init: list[Instruction] = []
        for creg in rmap:
            if creg < len(args):
                init.append(self.table["addi", (rmap[creg], args[creg], 0)])
            else:
                init.append(self.table["li", (rmap[creg], 0)])

        # The caller now makes the callee's calls too.
        self.calls[caller.mangled_name] |= self.calls[callee.mangled_name]

        block = caller.blocks[bi]
        # Validated blocks are never empty.
        if len(callee.blocks) == 1 and callee.blocks[0].instructions[-1].op == "ret":
            inserted = init + self._copy_body(callee.blocks[0].instructions, rmap)
            block.instructions[ii : ii + 1] = inserted
            self.recount(caller, call, [inserted])
            return bi, ii + len(inserted)

        prefix = self.fresh_prefix(caller, callee)
        lmap = {b.label: f"{prefix}_{b.label}" for b in callee.blocks}
        cont_label = f"{prefix}_cont"
        new_blocks = [
            BasicBlock(
                lmap[b.label], self._copy_body(b.instructions, rmap, lmap, cont_label)
            )
            for b in callee.blocks
        ]
        cont = BasicBlock(cont_label, block.instructions[ii + 1 :])
        head = init + [self.table["jmp", (lmap[callee.blocks[0].label],)]]
        block.instructions = block.instructions[:ii] + head
        caller.blocks[bi + 1 : bi + 1] = new_blocks + [cont]
        self.recount(caller, call, [head] + [nb.instructions for nb in new_blocks])
        return bi + len(new_blocks) + 1, 0

    def recount(
        self, caller: IrFunction, call: Instruction, inserted: list[list[Instruction]]
    ) -> None:
        """Count the instructions that replaced ``call`` in ``caller``; if it
        now uses fewer registers, its callers may now expand it: those
        whose calls, copied ones included, reach it."""
        counts = self.registers[caller.mangled_name]
        before = len(counts)
        counts += _register_counts(inserted)
        # In-place subtraction drops the registers no longer used.
        regs = _register_operands(call)
        if regs:
            counts -= Counter(regs)
        if len(counts) < before:
            self.dirty.update(f for f, to in self.calls.items() if caller.mangled_name in to)


def inline_pass(
    m: IrModule, level: OptLevel, table: InstructionTable | None = None
) -> tuple[IrModule, InlineReport]:
    """Inline eligible call sites in a copy; O0 returns the copy unchanged.

    The input module is never mutated.  Semantics are preserved: the
    transformed module computes the same exit value, with tick totals
    differing only by removed call overhead and inserted plumbing.  The
    instructions it builds come from ``table``, the table of the pass
    this call is part of, or else from a table of its own.
    """
    violations = validate(m)
    if violations:
        raise IrValidationError(violations)
    if table is None:
        table = InstructionTable()
    result = m.clone()
    return result, inline_in_place(result, level, table)


def inline_in_place(
    m: IrModule, level: OptLevel, table: InstructionTable
) -> InlineReport:
    """``inline_pass`` on ``m`` itself, which its caller has validated."""
    if level.inline_threshold <= 0:
        return InlineReport()
    worker = _Inliner(m, level.inline_threshold, table)
    worker.run()
    return worker.report
