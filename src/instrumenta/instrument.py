"""Per-function instrumentation: region descriptors, guarded entry hooks,
and try/finally restructuring of the exit paths.

Each instrumented function gets a ``hook.register``/``hook.enter`` pair
near its entry, a single ``hook.exit`` on the return path and a single
``hook.exit`` on the unwind path.  Plugin mode runs after inlining and
honors compile-time filter rules; auto mode runs before inlining and
instruments unconditionally.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Literal

from .filters import FilterRuleSet, classify
from .ir import (
    BasicBlock,
    HOOK_OPS,
    Instruction,
    IrFunction,
    IrModule,
    IrValidationError,
    RegionDescriptor,
    is_empty_body,
    validate,
)
from .optimizer import OptLevel, inline_pass

InstrumentationMode = Literal["auto", "plugin"]

# The staging register for return values on the rewritten exit path.
# It is only written when the function is already returning, so any
# prior user value in it is dead.
RET_REG = 15

SKIP_ATTRS = ("builtin", "openmp_internal", "artificial")


class InstrumentError(Exception):
    pass


@dataclass(frozen=True)
class InstrumentDecision:
    instrument: bool
    reason: str


@dataclass
class InstrumentationReport:
    """Every module function lands in exactly one of the two lists."""

    instrumented: list[tuple[str, int]] = field(default_factory=list)
    skipped: list[tuple[str, str]] = field(default_factory=list)


def should_instrument(
    f: IrFunction, rules: FilterRuleSet, mode: InstrumentationMode
) -> InstrumentDecision:
    """Decide whether one function receives hooks.

    Externs, functions whose body is a lone ``ret`` and functions with
    a skip attribute are never instrumented.  Plugin mode additionally
    applies the compile-time rule set; auto mode never consults it.
    """
    if f.is_extern:
        return InstrumentDecision(False, "extern")
    if is_empty_body(f):
        return InstrumentDecision(False, "empty_body")
    for attr in SKIP_ATTRS:
        if attr in f.attrs:
            return InstrumentDecision(False, attr)
    if mode == "plugin":
        decision = classify(rules, f.mangled_name, f.pretty_name, f.file)
        if decision.outcome == "filtered":
            return InstrumentDecision(False, f"compile_time_filter({decision.reason})")
    return InstrumentDecision(True, "instrument")


def make_region_descriptor(f: IrFunction, next_id: int) -> RegionDescriptor:
    """Build the static descriptor for a function; ids are caller-assigned."""
    if f.is_extern:
        raise InstrumentError(f"extern @{f.mangled_name} has no region")
    return RegionDescriptor(
        region_id=next_id,
        name=f.pretty_name,
        canonical_name=f.mangled_name,
        file=f.file,
        begin_lno=f.begin_line,
        end_lno=f.end_line,
        flags=0,
    )


def _has_hooks(f: IrFunction) -> bool:
    return any(
        ins.op in HOOK_OPS for b in f.blocks for ins in b.instructions
    )


def insert_entry_hook(f: IrFunction, region_id: int) -> IrFunction:
    """Insert the register/enter pair into the entry block.

    The pair goes immediately before the first call of the entry block
    when there is one, so the enter event precedes any callee's events;
    otherwise it goes just before the block's terminator.
    """
    if f.is_extern or not f.blocks:
        raise InstrumentError(f"@{f.mangled_name} has no entry block")
    if _has_hooks(f):
        raise InstrumentError(f"@{f.mangled_name} is already instrumented")
    out = f.clone()
    entry = out.entry_block()
    at = len(entry.instructions) - 1
    for i, ins in enumerate(entry.instructions):
        if ins.op in ("call", "call.try"):
            at = i
            break
    entry.instructions[at:at] = [
        Instruction("hook.register", (region_id,)),
        Instruction("hook.enter", (region_id,)),
    ]
    return out


def _fresh_label(taken: set[str], base: str) -> str:
    """Return ``base`` or ``base<n>``, whichever is free, and reserve it."""
    label = base
    n = 2
    while label in taken:
        label = f"{base}{n}"
        n += 1
    taken.add(label)
    return label


def enforce_finally(
    f: IrFunction, region_id: int, extern_names: frozenset[str] = frozenset()
) -> IrFunction:
    """Rewrite the body so the exit hook runs on every way out.

    A fresh exit block holds ``hook.exit; ret`` and every original ret
    jumps there (the return value staged through r15).  A fresh landing
    block holds ``hook.exit; rethrow``; every plain call to a non-extern
    function becomes a ``call.try`` unwinding there, and every ``throw``
    or ``rethrow`` jumps there (a handler re-raising must still run the
    finally).  Unwind edges of pre-existing ``call.try`` instructions
    are left alone: their handlers catch the exception inside this
    function, which therefore has not exited.  Calls to the names in
    ``extern_names`` stay plain; intrinsics cannot unwind.
    """
    if not any(
        ins.op == "hook.enter" for b in f.blocks for ins in b.instructions
    ):
        raise InstrumentError(f"@{f.mangled_name} has no entry hook yet")
    if any(ins.op == "hook.exit" for b in f.blocks for ins in b.instructions):
        raise InstrumentError(f"@{f.mangled_name} already has exit hooks")
    out = f.clone()
    taken = out.labels()
    fin_ret = _fresh_label(taken, "__fin_ret")
    fin_unwind = _fresh_label(taken, "__fin_unwind")
    valued = any(
        ins.op == "ret" and ins.args
        for b in out.blocks
        for ins in b.instructions
    )

    for block in out.blocks:
        term = block.instructions[-1]
        if term.op == "ret":
            repl: list[Instruction] = []
            if term.args:
                repl.append(Instruction("addi", (RET_REG, term.args[0], 0)))
            elif valued:
                repl.append(Instruction("li", (RET_REG, 0)))
            repl.append(Instruction("jmp", (fin_ret,)))
            block.instructions[-1:] = repl
        elif term.op in ("throw", "rethrow"):
            block.instructions[-1] = Instruction("jmp", (fin_unwind,))

    # Split blocks so every unwind-capable plain call gets its own
    # try edge into the landing block.
    cont_n = 0
    bi = 0
    while bi < len(out.blocks):
        block = out.blocks[bi]
        for ii, ins in enumerate(block.instructions):
            if ins.op == "call" and ins.args[0] not in extern_names:
                cont_n += 1
                cont = _fresh_label(taken, f"__cont{cont_n}")
                rest = block.instructions[ii + 1 :]
                block.instructions[ii:] = [
                    Instruction(
                        "call.try", (*ins.args, cont, fin_unwind)
                    )
                ]
                out.blocks.insert(bi + 1, BasicBlock(cont, rest))
                break
        bi += 1

    ret = Instruction("ret", (RET_REG,)) if valued else Instruction("ret")
    out.blocks.append(
        BasicBlock(fin_ret, [Instruction("hook.exit", (region_id,)), ret])
    )
    out.blocks.append(
        BasicBlock(
            fin_unwind,
            [Instruction("hook.exit", (region_id,)), Instruction("rethrow")],
        )
    )
    return out


def instrument_module(
    m: IrModule,
    rules: FilterRuleSet,
    mode: InstrumentationMode,
    level: OptLevel,
) -> tuple[IrModule, InstrumentationReport, list[RegionDescriptor]]:
    """Run the whole pipeline for one module.

    Plugin mode inlines first and then instruments what survived under
    the rule set; auto mode instruments everything first and inlines
    afterwards, so hooks of inlined bodies travel into their callers.
    """
    if mode == "plugin":
        # inline_pass validates m before it copies it.
        work, _ = inline_pass(m, level)
    else:
        violations = validate(m)
        if violations:
            raise IrValidationError(violations)
    if m.regions or any(_has_hooks(f) for f in m.functions):
        raise InstrumentError("module is already instrumented")
    if mode == "auto":
        work = m.clone()
    elif mode != "plugin":
        raise InstrumentError(f"unknown mode '{mode}'")

    externs = frozenset(f.mangled_name for f in work.functions if f.is_extern)
    report = InstrumentationReport()
    next_id = 0
    for idx, f in enumerate(work.functions):
        decision = should_instrument(f, rules, mode)
        if not decision.instrument:
            report.skipped.append((f.mangled_name, decision.reason))
            continue
        desc = make_region_descriptor(f, next_id)
        if not desc.file and work.source_file_default:
            desc = replace(desc, file=work.source_file_default)
        next_id += 1
        g = insert_entry_hook(f, desc.region_id)
        g = enforce_finally(g, desc.region_id, externs)
        work.functions[idx] = g
        work.regions[desc.region_id] = desc
        report.instrumented.append((f.mangled_name, desc.region_id))

    if mode == "auto":
        work, _ = inline_pass(work, level)
    descriptors = [work.regions[rid] for rid in sorted(work.regions)]
    return work, report, descriptors
