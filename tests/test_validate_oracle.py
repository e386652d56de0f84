"""Differential oracle: ``validate`` against the validator that checked
every instruction at every position.

``reference_validate`` is ``validate`` as it was written before each
instruction's context-free verdict was stored on it, verbatim, with its
per-instruction check pointed at the IR oracle's
``reference_check_instruction``.  That reference predates the
operand-type check, so ``_reference_check`` makes that check first, from
``SIGNATURES`` alone, with the message ``validate`` gave.

Every input is validated three ways and must give the reference's
violations, in the reference's order: cold (a deep copy, so no
instruction carries a verdict), warm (the same objects again), and
after a change to the context alone (a clone that shares the validated
instructions, with a called function deleted, a region entry dropped, a
branch target renamed, or a validated terminator inserted mid-block).
"""

from __future__ import annotations

import copy
import functools
import random
import re
from dataclasses import replace
from pathlib import Path

import gens
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import InstrumentError, instrument_module
from instrumenta.ir import (
    FUNCTION_ATTRS,
    SIGNATURES,
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    Violation,
    parse_module,
    print_module,
    validate,
)
from instrumenta.optimizer import O0, O1, O2, O3
from test_ir_oracle import (
    REFERENCE_OPS,
    reference_branch_labels,
    reference_check_instruction,
)

CORPUS = Path(__file__).parent / "corpus"
I = Instruction.make

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NAME_RE = re.compile(r"[A-Za-z_.$~][A-Za-z0-9_.$~]*\Z")


# ---------------------------------------------------------------------------
# The reference


def _fits_signature(ins: Instruction) -> bool:
    """Whether the operand types follow the mnemonic's signature: ``*`` is
    any number of ints and ``?`` at most one."""
    pattern = "".join(
        {"*": "i*", "?": "i?", "l": "s", "f": "s"}.get(k, "i")
        for k in SIGNATURES[ins.op]
    )
    kinds = "".join(
        "i" if type(a) is int else "s" if type(a) is str else "x" for a in ins.args
    )
    return re.fullmatch(pattern, kinds) is not None


def _reference_check(
    m: IrModule, names: set[str], labels: set[str], where: str, ins: Instruction
) -> list[Violation]:
    if ins.op in REFERENCE_OPS and not _fits_signature(ins):
        message = f"'{ins.op}' takes operands {SIGNATURES[ins.op]!r}, got {ins.args!r}"
        return [Violation("bad-operands", where, message)]
    return reference_check_instruction(m, names, labels, where, ins)


def reference_validate(m: IrModule) -> list[Violation]:
    out: list[Violation] = []
    seen: set[str] = set()
    for f in m.functions:
        if f.mangled_name in seen:
            out.append(
                Violation("duplicate-name", f.mangled_name, "function defined twice")
            )
        seen.add(f.mangled_name)

    for f in m.functions:
        where = f.mangled_name
        if not _NAME_RE.match(f.mangled_name):
            out.append(Violation("bad-name", where, "not a valid function name"))
        if f.is_extern:
            if f.blocks:
                out.append(Violation("extern-with-body", where, "extern has blocks"))
            continue
        if f.begin_line < 1:
            out.append(Violation("bad-line", where, "begin line not positive"))
        if f.begin_line > f.end_line:
            out.append(Violation("line-range", where, "begin line after end line"))
        for a in f.attrs:
            if a not in FUNCTION_ATTRS:
                out.append(Violation("unknown-attr", where, f"attribute '{a}'"))
        if not f.blocks:
            out.append(Violation("no-blocks", where, "function has no blocks"))
            continue
        targets = f.labels()
        labels: set[str] = set()
        for b in f.blocks:
            bwhere = f"{where}/^{b.label}"
            if not _LABEL_RE.match(b.label):
                out.append(Violation("bad-label", bwhere, "not a valid identifier"))
            if b.label in labels:
                out.append(Violation("duplicate-label", bwhere, "label reused"))
            labels.add(b.label)
            if not b.instructions:
                out.append(Violation("missing-terminator", bwhere, "block is empty"))
                continue
            if not b.instructions[-1].is_terminator:
                out.append(
                    Violation(
                        "missing-terminator", bwhere, "block does not end in terminator"
                    )
                )
            for i, ins in enumerate(b.instructions[:-1]):
                if ins.is_terminator:
                    out.append(
                        Violation(
                            "terminator-mid-block",
                            f"{bwhere}[{i}]",
                            f"'{ins.op}' before end of block",
                        )
                    )
            for i, ins in enumerate(b.instructions):
                out += _reference_check(m, seen, targets, f"{bwhere}[{i}]", ins)
    for rid, desc in m.regions.items():
        if rid != desc.region_id:
            out.append(
                Violation(
                    "region-id-mismatch",
                    f"region {rid}",
                    f"descriptor says {desc.region_id}",
                )
            )
    return out


# ---------------------------------------------------------------------------
# Inputs


def _instructions(m: IrModule) -> list[Instruction]:
    return [ins for f in m.functions for b in f.blocks for ins in b.instructions]


def _builds(m: IrModule) -> list[IrModule]:
    out = [m]
    for mode in ("auto", "plugin"):
        for level in (O0, O1, O2, O3):
            try:
                out.append(instrument_module(m, FilterRuleSet(), mode, level)[0])
            except InstrumentError:  # a corpus module that is already hooked
                pass
    return out


@functools.lru_cache(maxsize=None)
def _valid_modules() -> tuple[IrModule, ...]:
    """A stride of generated programs and the corpus, each with its auto
    and plugin O0-O3 builds, and each of those printed and parsed back."""
    out = []
    for seed in range(0, 3000, 150):
        out += _builds(gens.terminating_module(random.Random(seed)))
    for seed in range(0, 1000, 100):
        out += _builds(gens.looping_module(random.Random(seed)))
    for seed in range(0, 300, 30):
        out += _builds(gens.printable_module(random.Random(seed)))
    for path in sorted(CORPUS.glob("*.ir")):
        out += _builds(parse_module(path.read_text()))
    return tuple(out) + tuple(parse_module(print_module(m)) for m in out)


def _defined(m: IrModule) -> list[IrFunction]:
    return [f for f in m.functions if not f.is_extern]


def _filled_blocks(m: IrModule) -> list[BasicBlock]:
    return [b for f in _defined(m) for b in f.blocks if b.instructions]


def _any_block(m: IrModule, rng: random.Random) -> BasicBlock:
    """A block that holds an instruction; every valid module has one."""
    return rng.choice(_filled_blocks(m))


def _put(m: IrModule, rng: random.Random, ins: Instruction) -> IrModule:
    """``ins`` placed before a random instruction of a clone of ``m``."""
    m = m.clone()
    b = _any_block(m, rng)
    b.instructions.insert(rng.randrange(len(b.instructions)), ins)
    return m


def _set_function(m: IrModule, rng: random.Random, **changes) -> IrModule:
    m = m.clone()
    i = m.functions.index(rng.choice(_defined(m)))
    m.functions[i] = replace(m.functions[i], **changes)
    return m


def _duplicate_name(m, rng):
    m = m.clone()
    m.functions.append(rng.choice(m.functions).clone())
    return m


def _bad_name(m, rng):
    return _set_function(m, rng, mangled_name="9lives")


def _extern_with_body(m, rng):
    m = m.clone()
    body = [BasicBlock("e", [I("ret")])]
    m.functions.append(IrFunction("ext_body", is_extern=True, blocks=body))
    return m


def _bad_line(m, rng):
    return _set_function(m, rng, begin_line=0, end_line=0)


def _line_range(m, rng):
    return _set_function(m, rng, begin_line=9, end_line=3)


def _unknown_attr(m, rng):
    return _set_function(m, rng, attrs={"no_inline", "hot"})


def _no_blocks(m, rng):
    return _set_function(m, rng, blocks=[])


def _bad_label(m, rng):
    m = m.clone()
    _any_block(m, rng).label = "1st"
    return m


def _duplicate_label(m, rng):
    m = m.clone()
    f = rng.choice(_defined(m))
    f.blocks.append(BasicBlock(f.blocks[0].label, [I("ret")]))
    return m


def _empty_block(m, rng):
    m = m.clone()
    rng.choice(_defined(m)).blocks.append(BasicBlock("empty"))
    return m


def _no_terminator(m, rng):
    m = m.clone()
    _any_block(m, rng).instructions[-1] = I("work", 2)
    return m


MUTANTS = {
    "duplicate-name": _duplicate_name,
    "bad-name": _bad_name,
    "extern-with-body": _extern_with_body,
    "bad-line": _bad_line,
    "line-range": _line_range,
    "unknown-attr": _unknown_attr,
    "bad-label": _bad_label,
    "duplicate-label": _duplicate_label,
    "missing-terminator": _empty_block,
    "no-terminator": _no_terminator,
    "terminator-mid-block": lambda m, rng: _put(m, rng, I("throw")),
    "unknown-op": lambda m, rng: _put(m, rng, I("nop", 1)),
    "bad-operands": lambda m, rng: _put(m, rng, I("work", "3")),
    "bad-operand-count": lambda m, rng: _put(m, rng, I("li", 1)),
    "bad-operands-terminator": lambda m, rng: _put(m, rng, I("jmp", 1)),
    "bool-operand": lambda m, rng: _put(m, rng, I("li", True, 0)),
    "bad-register": lambda m, rng: _put(m, rng, I("add", 16, -1, 3)),
    "bad-work-count": lambda m, rng: _put(m, rng, I("work", 0)),
    "too-many-args": lambda m, rng: _put(
        m, rng, I("call", m.functions[0].mangled_name, *range(9))
    ),
    "undefined-call-target": lambda m, rng: _put(m, rng, I("call", "nowhere", 1)),
    "undefined-label": lambda m, rng: _put(m, rng, I("jnz", 2, "gone", "away")),
    "unknown-region": lambda m, rng: _put(m, rng, I("hook.enter", 999)),
    "region-id-mismatch": lambda m, rng: replace(
        m.clone(), regions={**m.regions, 7: replace(_DESCRIPTOR, region_id=8)}
    ),
    "no-blocks": _no_blocks,
}

_DESCRIPTOR = parse_module(
    'module "m"\n\nregions:\nregion 0 name="f" canonical="f" file="a.c" '
    "lines=1:2 flags=0\n"
).regions[0]


@functools.lru_cache(maxsize=None)
def _mutants() -> tuple[IrModule, ...]:
    """Every tenth valid module with one defect of each kind, and every
    hundredth with all of them at once (``no-blocks`` last, so that the
    others find a block)."""
    rng = random.Random(20)
    out = []
    for k, m in enumerate(_valid_modules()[::10]):
        for mutate in MUTANTS.values():
            out.append(mutate(m, rng))
        if k % 10 == 0:
            for mutate in MUTANTS.values():
                m = mutate(m, rng)
            out.append(m)
    return tuple(out)


# Context-only changes: the clone shares every instruction object.


def _delete_called_function(m, rng):
    called = {ins.call_target() for ins in _instructions(m)} - {None}
    if not called:
        return None
    m = m.clone()
    gone = rng.choice(sorted(called))
    m.functions = [f for f in m.functions if f.mangled_name != gone]
    return m


def _drop_region(m, rng):
    if not m.regions:
        return None
    m = m.clone()
    del m.regions[rng.choice(sorted(m.regions))]
    return m


def _rename_branch_target(m, rng):
    spots = []
    for i, f in enumerate(m.functions):
        branched = {
            label for ins in _instructions(IrModule("f", [f]))
            for label in reference_branch_labels(ins)
        }
        spots += [(i, j) for j, b in enumerate(f.blocks) if b.label in branched]
    if not spots:
        return None
    m = m.clone()
    i, j = rng.choice(spots)
    m.functions[i].blocks[j].label += "_renamed"
    return m


def _insert_terminator(m, rng):
    terminators = [ins for ins in _instructions(m) if ins.is_terminator]
    if not terminators or not _filled_blocks(m):
        return None
    return _put(m, rng, rng.choice(terminators))


CONTEXT_CHANGES = (
    _delete_called_function,
    _drop_region,
    _rename_branch_target,
    _insert_terminator,
)


# ---------------------------------------------------------------------------
# The differential


def _cold_warm_context(m: IrModule, rng: random.Random) -> int:
    """Check one input each way; the number of validate calls made.  The
    input itself is checked warm too: its instructions carry the verdicts
    the parser or earlier calls stored."""
    cold = copy.deepcopy(m)
    assert all("_verdict" not in vars(ins) for ins in _instructions(cold))
    expected = reference_validate(cold)
    assert validate(cold) == expected
    calls = 1
    for module in (cold, m):
        assert validate(module) == expected
        for change in CONTEXT_CHANGES:
            changed = change(module, rng)
            if changed is not None:
                assert validate(changed) == reference_validate(changed), change
                calls += 1
        # The context of one module leaves no trace on the verdicts it shares.
        assert validate(module) == expected
        calls += 2
    return calls


def test_valid_modules_match_reference():
    rng = random.Random(1)
    calls = sum(_cold_warm_context(m, rng) for m in _valid_modules())
    assert all(validate(m) == [] for m in _valid_modules())
    assert len(_valid_modules()) > 400
    assert calls > 5 * len(_valid_modules())


def test_mutants_match_reference():
    rng = random.Random(2)
    codes = set()
    for m in _mutants():
        codes.update(v.code for v in reference_validate(m))
        _cold_warm_context(m, rng)
    assert codes == {
        "duplicate-name", "bad-name", "extern-with-body", "bad-line", "line-range",
        "unknown-attr", "no-blocks", "bad-label", "duplicate-label",
        "missing-terminator", "terminator-mid-block", "unknown-op", "bad-operands",
        "bad-register", "bad-work-count", "too-many-args", "undefined-call-target",
        "undefined-label", "unknown-region", "region-id-mismatch",
    }


def test_context_changes_are_seen():
    """Each context-only change makes some valid module invalid, so the
    warm verdicts cannot hide a defect that the context brings."""
    rng = random.Random(3)
    for change in CONTEXT_CHANGES:
        found = set()
        for m in _valid_modules()[::7]:
            changed = change(m, rng)
            if changed is not None:
                found.update(v.code for v in validate(changed))
        assert found, change.__name__
