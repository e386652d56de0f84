"""Differential oracle: the inliner against the one that rescanned every
function in every round.

``ReferenceInliner`` is ``optimizer._Inliner`` as it was written before
the inliner kept a set of the functions worth rescanning: its ``run``,
which scans every defined function in every round, its
``scan_function``, which steps through every instruction, and its
register counts, made for every function up front, verbatim.  The
eligibility checks and the expansion itself are the current ones.

Generated modules, terminating, looping and crowded with registers, and
one written out below, at O1-O3, must come out of
``inline_pass`` and of both modes of ``instrument_module`` with the same
printed module and the same ``InlineReport``: the same inlined sites and
the same skipped sites, in the same order, on both inliners.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import gens
from instrumenta import optimizer
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import instrument_module
from instrumenta.ir import (
    NUM_REGISTERS,
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    _register_operands,
    parse_module,
    print_module,
    validate,
)
from instrumenta.optimizer import (
    MAX_ROUNDS,
    O1,
    O2,
    O3,
    InlineSite,
    _Inliner,
    _register_counts,
    inline_pass,
)

I = Instruction.make

# ---------------------------------------------------------------------------
# The reference: full rescans and eager register counts, verbatim.


class ReferenceInliner(_Inliner):
    def __init__(self, module, threshold, table):
        super().__init__(module, threshold, table)
        # Register operand counts per function, updated at every expanded
        # site: a register is in use while its count is positive.
        self.registers = {
            f.mangled_name: _register_counts(b.instructions for b in f.blocks)
            for f in module.functions
        }

    def run(self) -> None:
        for _ in range(MAX_ROUNDS):
            changed = False
            for f in self.module.functions:
                if not f.is_extern:
                    changed |= self.scan_function(f)
            if not changed:
                return

    def scan_function(self, caller: IrFunction) -> bool:
        changed = False
        bi = ii = 0
        while bi < len(caller.blocks):
            block = caller.blocks[bi]
            if ii >= len(block.instructions):
                bi, ii = bi + 1, 0
                continue
            ins = block.instructions[ii]
            if ins.op != "call":
                if ins.op == "call.try":
                    site = InlineSite(
                        caller.mangled_name, ins.call_target(), block.label, ii
                    )
                    self.note_skip(site, "exception-edge")
                ii += 1
                continue
            target = ins.call_target()
            site = InlineSite(caller.mangled_name, target, block.label, ii)
            reason = self.ineligible_reason(target)
            if reason is not None:
                self.note_skip(site, reason)
                ii += 1
                continue
            callee = self.functions[target]
            rmap = self.register_map(caller, callee)
            if rmap is None:
                self.note_skip(site, "register-pressure")
                ii += 1
                continue
            bi, ii = self.inline_at(caller, bi, ii, ins, callee, rmap)
            self.report.inlined_sites.append(site)
            changed = True
        return changed

    def register_map(
        self, caller: IrFunction, callee: IrFunction
    ) -> dict[int, int] | None:
        callee_regs = sorted(self.registers[callee.mangled_name])
        if not callee_regs:
            return {}
        used = self.registers[caller.mangled_name]
        free = [r for r in range(NUM_REGISTERS) if r not in used]
        if len(free) < len(callee_regs):
            return None
        return dict(zip(callee_regs, free))

    def recount(self, caller, call, inserted) -> None:
        """Count the instructions that replaced ``call`` in ``caller``."""
        counts = self.registers[caller.mangled_name]
        counts += _register_counts(inserted)
        # In-place subtraction drops the registers no longer used.
        counts -= Counter(_register_operands(call))


# ---------------------------------------------------------------------------
# Running both


def _outcome(monkeypatch, inliner: type, m) -> list:
    """Each level's printed ``inline_pass`` result and the printed modules
    of both ``instrument_module`` modes, then every report the inliner
    made, in the order it made them."""
    reports: list = []
    scans: list[str] = []

    class Recording(inliner):
        def run(self) -> None:
            super().run()
            reports.append(self.report)

        def scan_function(self, caller):
            scans.append(caller.mangled_name)
            return super().scan_function(caller)

    out: list = []
    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_Inliner", Recording)
        for level in (O1, O2, O3):
            inlined, report = inline_pass(m, level)
            out.append((level.level, print_module(inlined), report))
            for mode in ("auto", "plugin"):
                built, _, _ = instrument_module(m, FilterRuleSet(), mode, level)
                out.append((level.level, mode, print_module(built)))
    return out + reports, scans


def _agree(monkeypatch, m) -> tuple[int, int]:
    """Assert that both inliners agree on ``m``; returns how many scans
    each made."""
    got, scans = _outcome(monkeypatch, _Inliner, m)
    want, reference_scans = _outcome(monkeypatch, ReferenceInliner, m)
    assert got == want
    return len(scans), len(reference_scans)


@pytest.mark.parametrize("start", range(0, 400, 100))
def test_terminating_modules_match_reference(monkeypatch, start):
    scans = reference_scans = 0
    for seed in range(start, start + 100):
        m = gens.terminating_module(random.Random(seed))
        a, b = _agree(monkeypatch, m)
        scans, reference_scans = scans + a, reference_scans + b
    # The set of functions worth rescanning leaves some scans out.
    assert scans < reference_scans


@pytest.mark.parametrize("start", range(0, 200, 100))
def test_looping_modules_match_reference(monkeypatch, start):
    for seed in range(start, start + 100):
        _agree(monkeypatch, gens.looping_module(random.Random(seed)))


def _crowded_module(rng: random.Random) -> IrModule:
    """A call DAG whose functions hold many registers, so that sites are
    skipped for register pressure, and whose call arguments are often
    used by the call alone, so that expanding a site can free registers.
    Callees come before or after their callers in module order."""
    names = ["main"] + [f"f{i}" for i in range(1, rng.randint(3, 8))]
    functions = []
    for i, name in enumerate(names):
        regs = rng.sample(range(NUM_REGISTERS), rng.randint(0, 14))
        body = [I("add", *rng.choices(regs, k=3)) for _ in range(len(regs) // 3)]
        body += [I("li", r, rng.randint(0, 9)) for r in regs[len(regs) // 3 * 3 :]]
        for _ in range(rng.randint(0, 3) if i + 1 < len(names) else 0):
            args = rng.sample(range(NUM_REGISTERS), rng.randint(0, 2))
            call = I("call", rng.choice(names[i + 1 :]), *args)
            body.insert(rng.randint(0, len(body)), call)
        if not body or rng.random() < 0.5:
            body.append(I("work", rng.randint(1, 3)))
        ret = I("ret", rng.choice(regs)) if regs and rng.random() < 0.5 else I("ret")
        blocks = [BasicBlock("e", body + [ret])]
        if rng.random() < 0.3:
            blocks = [BasicBlock("e", body + [I("jmp", "x")]), BasicBlock("x", [ret])]
        functions.append(IrFunction(name, "a.c", 1, 2, blocks=blocks))
    rng.shuffle(functions)
    return IrModule("m", functions)


@pytest.mark.parametrize("start", range(0, 600, 150))
def test_crowded_modules_match_reference(monkeypatch, start):
    for seed in range(start, start + 150):
        m = _crowded_module(random.Random(seed))
        assert validate(m) == []
        _agree(monkeypatch, m)


# h frees r9 in round 1, so g and k, which hold 15 registers and skipped
# h then, expand it in round 2; so g frees r12 and r13, and f, which
# comes after g but before k, expands g in that same round, as a full
# rescan does.  Rescanning in round 2 only what round 1 changed or
# freed would leave f to round 3, after k.
SHRINK_EARLIER_IN_THE_ROUND = """\
module "m"
func @g file="a.c" lines=1:9
{
^e:
  add r0, r1, r2
  add r3, r4, r5
  add r6, r7, r8
  add r9, r10, r11
  call @h, r12, r13
  add r14, r14, r14
  ret r0
}
func @f file="a.c" lines=10:13
{
^e:
  add r0, r1, r1
  call @g
  ret r0
}
func @k file="a.c" lines=14:22
{
^e:
  add r0, r1, r2
  add r3, r4, r5
  add r6, r7, r8
  add r9, r10, r11
  add r12, r13, r14
  call @h
  ret r0
}
func @h file="a.c" lines=23:26
{
^e:
  li r5, 1
  call @leaf, r9
  ret r5
}
func @leaf file="a.c" lines=27:29
{
^e:
  work 1
  ret
}
"""


def test_shrink_earlier_in_the_round_matches_reference(monkeypatch):
    m = parse_module(SHRINK_EARLIER_IN_THE_ROUND)
    _agree(monkeypatch, m)
    _, report = inline_pass(m, O3)
    assert [(s.caller, s.callee) for s in report.inlined_sites] == [
        ("h", "leaf"), ("g", "h"), ("f", "g"), ("k", "h"),
    ]
