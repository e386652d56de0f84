"""Differential oracle: the table-driven instruction syntax against the
per-op code it replaced.

The ``reference_*`` functions below are the instruction-syntax layer as
it was written before ``ir.SIGNATURES`` drove it: one ``if`` chain per
mnemonic in ``parse_instruction``, ``format_instruction``,
``_register_operands``, ``Instruction.call_arg_regs``/``branch_labels``,
the inliner's ``_remap_registers``/``_remap_labels`` and validate's
``_check_instruction``.  They are kept verbatim (methods as functions,
and the checker's operand queries pointed at the reference copies), so
that printing, parsing, the operand queries, renaming and the
per-instruction checks can be compared on every instruction of
generated programs, before and after instrumentation, and on
adversarial text.

The only allowed difference is the wording of three arity errors, now
generated from the table (``REWORDED``).
"""

from __future__ import annotations

import functools
import random
import re

import gens
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import InstrumentError, instrument_module
from instrumenta.ir import (
    Instruction,
    IrModule,
    IrParseError,
    Violation,
    _check_instruction,
    _register_operands,
    format_instruction,
    parse_instruction,
)
from instrumenta.optimizer import O0, O3

I = Instruction.make

REFERENCE_OPS = frozenset(
    {"li", "addi", "add", "work", "call", "call.try", "jmp", "jnz", "ret", "throw",
     "rethrow", "hook.register", "hook.enter", "hook.exit"}
)
REFERENCE_HOOK_OPS = frozenset({"hook.register", "hook.enter", "hook.exit"})

# Old arity message -> the message generated from the table.
REWORDED = {
    "call needs a target": "'call' expects at least 1 operand(s)",
    "call.try needs target and two labels": "'call.try' expects at least 3 operand(s)",
    "ret takes at most one register": "'ret' expects at most 1 operand(s)",
}


# ---------------------------------------------------------------------------
# The reference: the per-op syntax code, verbatim.


def reference_call_target(ins: Instruction) -> str | None:
    if ins.op in ("call", "call.try"):
        return ins.args[0]
    return None


def reference_call_arg_regs(ins: Instruction) -> tuple[int, ...]:
    if ins.op == "call":
        return ins.args[1:]
    if ins.op == "call.try":
        return ins.args[1:-2]
    return ()


def reference_branch_labels(ins: Instruction) -> tuple[str, ...]:
    if ins.op == "jmp":
        return (ins.args[0],)
    if ins.op == "jnz":
        return (ins.args[1], ins.args[2])
    if ins.op == "call.try":
        return (ins.args[-2], ins.args[-1])
    return ()


def reference_register_operands(ins: Instruction) -> tuple[int, ...]:
    if ins.op == "li":
        return (ins.args[0],)
    if ins.op == "addi":
        return (ins.args[0], ins.args[1])
    if ins.op == "add":
        return ins.args
    if ins.op == "jnz":
        return (ins.args[0],)
    if ins.op == "ret":
        return ins.args
    if ins.op in ("call", "call.try"):
        return reference_call_arg_regs(ins)
    return ()


def reference_check_instruction(
    m: IrModule, names: set[str], labels: set[str], where: str, ins: Instruction
) -> list[Violation]:
    out: list[Violation] = []
    if ins.op not in REFERENCE_OPS:
        return [Violation("unknown-op", where, f"'{ins.op}'")]
    for r in reference_register_operands(ins):
        if not (0 <= r < 16):
            out.append(Violation("bad-register", where, f"r{r} out of range"))
    if ins.op == "work" and ins.args[0] < 1:
        out.append(Violation("bad-work-count", where, "work needs n >= 1"))
    target = reference_call_target(ins)
    if target is not None:
        if len(reference_call_arg_regs(ins)) > 8:
            out.append(Violation("too-many-args", where, "more than 8 call args"))
        if target not in names:
            out.append(
                Violation("undefined-call-target", where, f"@{target} not defined")
            )
    for label in reference_branch_labels(ins):
        if label not in labels:
            out.append(Violation("undefined-label", where, f"^{label} not defined"))
    if ins.op in REFERENCE_HOOK_OPS and ins.args[0] not in m.regions:
        out.append(
            Violation("unknown-region", where, f"region {ins.args[0]} not in table")
        )
    return out


def reference_format_instruction(ins: Instruction) -> str:
    op = ins.op
    if op in ("li", "addi", "add"):
        regs = reference_register_operands(ins)
        parts = [f"r{r}" for r in regs]
        if op in ("li", "addi"):
            parts.append(str(ins.args[-1]))
        return f"{op} " + ", ".join(parts)
    if op == "work":
        return f"work {ins.args[0]}"
    if op == "call":
        parts = [f"@{ins.args[0]}"] + [f"r{r}" for r in ins.args[1:]]
        return "call " + ", ".join(parts)
    if op == "call.try":
        parts = [f"@{ins.args[0]}"]
        parts += [f"r{r}" for r in reference_call_arg_regs(ins)]
        parts += [f"^{ins.args[-2]}", f"^{ins.args[-1]}"]
        return "call.try " + ", ".join(parts)
    if op == "jmp":
        return f"jmp ^{ins.args[0]}"
    if op == "jnz":
        return f"jnz r{ins.args[0]}, ^{ins.args[1]}, ^{ins.args[2]}"
    if op == "ret":
        return "ret" if not ins.args else f"ret r{ins.args[0]}"
    if op in ("throw", "rethrow"):
        return op
    if op in REFERENCE_HOOK_OPS:
        return f"{op} {ins.args[0]}"
    raise ValueError(f"unknown op {op!r}")


_REF_REG_RE = re.compile(r"r\d+\Z")
_REF_IMM_RE = re.compile(r"-?\d+\Z")
_REF_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_REF_NAME_RE = re.compile(r"[A-Za-z_.$~][A-Za-z0-9_.$~]*\Z")


def _ref_parse_reg(token: str, lineno: int) -> int:
    if not _REF_REG_RE.match(token):
        raise IrParseError(f"expected register, got '{token}'", lineno)
    idx = int(token[1:])
    if idx >= 16:
        raise IrParseError(f"register r{idx} out of range", lineno)
    return idx


def _ref_parse_imm(token: str, lineno: int) -> int:
    if not _REF_IMM_RE.match(token):
        raise IrParseError(f"expected integer, got '{token}'", lineno)
    return int(token)


def _ref_parse_label_ref(token: str, lineno: int) -> str:
    if not token.startswith("^") or not _REF_LABEL_RE.match(token[1:]):
        raise IrParseError(f"expected ^label, got '{token}'", lineno)
    return token[1:]


def _ref_parse_target(token: str, lineno: int) -> str:
    if not token.startswith("@") or not _REF_NAME_RE.match(token[1:]):
        raise IrParseError(f"expected @function, got '{token}'", lineno)
    return token[1:]


def reference_parse_instruction(line: str, lineno: int) -> Instruction:
    head, _, rest = line.partition(" ")
    operands = [t.strip() for t in rest.split(",")] if rest.strip() else []
    op = head.strip()
    if op not in REFERENCE_OPS:
        raise IrParseError(f"unknown instruction '{op}'", lineno)

    def arity(n: int) -> None:
        if len(operands) != n:
            raise IrParseError(f"'{op}' expects {n} operand(s)", lineno)

    if op == "li":
        arity(2)
        return Instruction(op, (_ref_parse_reg(operands[0], lineno), _ref_parse_imm(operands[1], lineno)))
    if op == "addi":
        arity(3)
        return Instruction(
            op,
            (
                _ref_parse_reg(operands[0], lineno),
                _ref_parse_reg(operands[1], lineno),
                _ref_parse_imm(operands[2], lineno),
            ),
        )
    if op == "add":
        arity(3)
        return Instruction(op, tuple(_ref_parse_reg(t, lineno) for t in operands))
    if op == "work":
        arity(1)
        n = _ref_parse_imm(operands[0], lineno)
        if n < 1:
            raise IrParseError("work needs n >= 1", lineno)
        return Instruction(op, (n,))
    if op == "call":
        if not operands:
            raise IrParseError("call needs a target", lineno)
        target = _ref_parse_target(operands[0], lineno)
        regs = tuple(_ref_parse_reg(t, lineno) for t in operands[1:])
        if len(regs) > 8:
            raise IrParseError("more than 8 call arguments", lineno)
        return Instruction(op, (target, *regs))
    if op == "call.try":
        if len(operands) < 3:
            raise IrParseError("call.try needs target and two labels", lineno)
        target = _ref_parse_target(operands[0], lineno)
        regs = tuple(_ref_parse_reg(t, lineno) for t in operands[1:-2])
        if len(regs) > 8:
            raise IrParseError("more than 8 call arguments", lineno)
        normal = _ref_parse_label_ref(operands[-2], lineno)
        unwind = _ref_parse_label_ref(operands[-1], lineno)
        return Instruction(op, (target, *regs, normal, unwind))
    if op == "jmp":
        arity(1)
        return Instruction(op, (_ref_parse_label_ref(operands[0], lineno),))
    if op == "jnz":
        arity(3)
        return Instruction(
            op,
            (
                _ref_parse_reg(operands[0], lineno),
                _ref_parse_label_ref(operands[1], lineno),
                _ref_parse_label_ref(operands[2], lineno),
            ),
        )
    if op == "ret":
        if len(operands) > 1:
            raise IrParseError("ret takes at most one register", lineno)
        if operands:
            return Instruction(op, (_ref_parse_reg(operands[0], lineno),))
        return Instruction(op)
    if op in ("throw", "rethrow"):
        arity(0)
        return Instruction(op)
    # hook ops
    arity(1)
    rid = _ref_parse_imm(operands[0], lineno)
    if rid < 0:
        raise IrParseError("region id must be non-negative", lineno)
    return Instruction(op, (rid,))


def reference_remap_registers(ins: Instruction, rmap: dict[int, int]) -> Instruction:
    op = ins.op
    if op == "li":
        return Instruction(op, (rmap[ins.args[0]], ins.args[1]))
    if op == "addi":
        return Instruction(op, (rmap[ins.args[0]], rmap[ins.args[1]], ins.args[2]))
    if op == "add":
        return Instruction(op, tuple(rmap[r] for r in ins.args))
    if op == "jnz":
        return Instruction(op, (rmap[ins.args[0]], ins.args[1], ins.args[2]))
    if op == "ret":
        return Instruction(op, tuple(rmap[r] for r in ins.args))
    if op == "call":
        return Instruction(op, (ins.args[0], *(rmap[r] for r in ins.args[1:])))
    if op == "call.try":
        regs = tuple(rmap[r] for r in reference_call_arg_regs(ins))
        return Instruction(op, (ins.args[0], *regs, ins.args[-2], ins.args[-1]))
    return ins


def reference_remap_labels(ins: Instruction, lmap: dict[str, str]) -> Instruction:
    op = ins.op
    if op == "jmp":
        return Instruction(op, (lmap[ins.args[0]],))
    if op == "jnz":
        return Instruction(op, (ins.args[0], lmap[ins.args[1]], lmap[ins.args[2]]))
    if op == "call.try":
        return Instruction(
            op, (*ins.args[:-2], lmap[ins.args[-2]], lmap[ins.args[-1]])
        )
    return ins


# ---------------------------------------------------------------------------
# Inputs


@functools.lru_cache(maxsize=None)
def _modules() -> tuple[IrModule, ...]:
    """Generated programs, seeds 0-299 of both generators, each as built
    and after auto and plugin instrumentation at O0 and O3."""
    out = []
    for seed in range(300):
        for generate in (gens.terminating_module, gens.printable_module):
            m = generate(random.Random(seed))
            out.append(m)
            for mode in ("auto", "plugin"):
                for level in (O0, O3):
                    try:
                        instrumented, _, _ = instrument_module(
                            m, FilterRuleSet(), mode, level
                        )
                    except InstrumentError:  # a printable module with hooks
                        continue
                    out.append(instrumented)
    return tuple(out)


def _wide_calls() -> list[Instruction]:
    """``call`` and ``call.try`` with 0 to 9 argument registers."""
    rng = random.Random(5)
    out = []
    for k in range(10):
        regs = [rng.randrange(16) for _ in range(k)]
        out.append(I("call", "f", *regs))
        out.append(I("call.try", "f", *regs, "n", "u"))
    return out


@functools.lru_cache(maxsize=None)
def _instructions() -> tuple[Instruction, ...]:
    seen = {
        ins
        for m in _modules()
        for f in m.functions
        for b in f.blocks
        for ins in b.instructions
    }
    return tuple(sorted(seen, key=repr)) + tuple(_wide_calls())


def test_inputs_cover_every_op_and_arity():
    shapes = {(ins.op, len(ins.args)) for ins in _instructions()}
    assert {op for op, _ in shapes} == REFERENCE_OPS
    assert {("ret", 0), ("ret", 1), ("call", 10), ("call.try", 12)} <= shapes
    assert len(_modules()) > 2_000


# ---------------------------------------------------------------------------
# Printing, reparsing and operand queries


def test_printed_text_matches_reference():
    for ins in _instructions():
        text = reference_format_instruction(ins)
        assert format_instruction(ins) == text, ins


def test_printed_text_parses_as_reference():
    for ins in _instructions():
        line = reference_format_instruction(ins)
        assert _outcome(parse_instruction, line) == _reference_outcome(line), line


def test_operand_queries_match_reference():
    # The hand-built calls first: they need no pipeline run.
    for inputs in (_wide_calls, _instructions):
        for ins in inputs():
            assert _register_operands(ins) == reference_register_operands(ins), ins
            assert ins.call_arg_regs() == reference_call_arg_regs(ins), ins
            assert ins.call_target() == reference_call_target(ins), ins


def test_remap_matches_reference():
    rng = random.Random(11)
    for ins in _instructions():
        for _ in range(3):
            perm = list(range(16))
            rng.shuffle(perm)
            rmap = dict(enumerate(perm))
            lmap = {
                label: f"x{rng.randrange(10**6)}_{label}"
                for label in reference_branch_labels(ins)
            }
            regs_only = reference_remap_registers(ins, rmap)
            assert ins.remap(rmap) == regs_only, ins
            assert ins.remap(rmap, lmap) == reference_remap_labels(regs_only, lmap), ins


def test_check_instruction_matches_reference():
    checked = 0
    for m in _modules():
        names = {f.mangled_name for f in m.functions}
        for f in m.functions:
            labels = f.labels()
            for b in f.blocks:
                for ins in b.instructions:
                    expected = reference_check_instruction(m, names, labels, "w", ins)
                    found = _check_instruction(m, names, labels, ins)
                    assert found == [(v.code, v.message) for v in expected], ins
                    checked += 1
    # Out-of-range registers, undefined targets, labels and regions, and
    # too many call arguments, each checked against the reference too.
    m = IrModule(name="m")
    for ins in _wide_calls() + [
        I("li", 16, 0), I("addi", -1, 3, 0), I("add", 1, 99, 2), I("jnz", 20, "a", "zz"),
        I("ret", 16), I("work", 0), I("work", -4), I("hook.enter", 3),
        I("call.try", "g", 17, "nope", "u"), I("jmp", "gone"), I("bogus", 1),
    ]:
        expected = reference_check_instruction(m, {"f"}, {"n", "u", "a"}, "w", ins)
        found = _check_instruction(m, {"f"}, {"n", "u", "a"}, ins)
        assert found == [(v.code, v.message) for v in expected], ins
        checked += 1
    assert checked > 50_000


# ---------------------------------------------------------------------------
# Adversarial text


def _outcome(parse, line: str):
    try:
        return ("ok", parse(line, 7))
    except Exception as exc:  # the class and message are what is compared
        line_col = (getattr(exc, "line", None), getattr(exc, "col", None))
        return (type(exc), *line_col, str(exc))


def _reference_outcome(line: str):
    outcome = _outcome(reference_parse_instruction, line)
    if outcome[0] is IrParseError:
        prefix, _, message = outcome[3].partition(": ")
        if message in REWORDED:
            return (*outcome[:3], f"{prefix}: {REWORDED[message]}")
    return outcome


_TOKENS = [
    "r0", "r7", "r15", "r16", "r99", "r-1", "R1", "r", "r1 r2", "r01",
    "0", "1", "-1", "42", "-0", "+3", "3.0", "0x1", "1_000", "x",
    "^L", "^e", "^", "^1bad", "^a b", "^^L", "@f", "@", "@1", "@a.b$~",
    "@f g", "@@f", "L", "f", "", " ", "\t", "^L;",
]


def _adversarial_lines() -> list[str]:
    rng = random.Random(3)
    ops = sorted(REFERENCE_OPS) + ["", "bogus", "LI", "call.tr", "hook", "ret;"]
    lines = []
    for op in ops:
        for n in range(0, 5):
            for _ in range(40):
                operands = [rng.choice(_TOKENS) for _ in range(n)]
                lines.append(f"{op} {', '.join(operands)}".rstrip())
        # Long operand lists, mostly well formed, around the call limit.
        for n in range(6, 13):
            for _ in range(20):
                regs = [rng.choice(["r1", "r15", "r0", "r7"]) for _ in range(n)]
                if rng.random() < 0.3:
                    regs[rng.randrange(n)] = rng.choice(["r16", "x", "^n"])
                labels = ["^n", "^u"] if rng.random() < 0.8 else ["n", "@u"]
                lines.append(f"{op} {', '.join(['@f', *regs, *labels])}")
    well_formed = [
        "li r1, 2", "addi r3, r4, -5", "add r0, r1, r2", "work 3", "call @f",
        "call @f, r1, r2", "call.try @f, ^n, ^u", "call.try @f, r3, ^n, ^u",
        "jmp ^L", "jnz r2, ^a, ^b", "ret", "ret r4", "throw", "rethrow",
        "hook.register 0", "hook.enter 5", "hook.exit 12",
    ]
    for line in well_formed:
        lines.append(line)
        lines.append(line + ",")  # trailing comma
        lines.append(line + ", r1")  # one operand too many
        lines.append(line.replace(", ", ","))  # no space after commas
        lines.append(line.replace(", ", " , "))
        lines.append(line.replace(" ", "\t", 1))  # tab after the mnemonic
        lines.append(line.replace("r", "", 1))  # a lost register sigil
        lines.append(line.replace("^", "@").replace("@f", "^f"))  # swapped sigils
    lines += ["work 0", "work -2", "hook.enter -1", "hook.exit -0", "li r16, 0"]
    return lines


def test_adversarial_lines_match_reference():
    lines = _adversarial_lines()
    messages = set()
    for line in lines:
        expected = _reference_outcome(line)
        assert _outcome(parse_instruction, line) == expected, line
        messages.add("ok" if expected[0] == "ok" else expected[3].partition(": ")[2])
    assert len(lines) > 6_000
    assert {
        "ok",
        "more than 8 call arguments",
        "work needs n >= 1",
        "region id must be non-negative",
        "register r16 out of range",
        "expected ^label, got 'n'",
        "expected @function, got '^f'",
        "'li' expects 2 operand(s)",
        *REWORDED.values(),
    } <= messages
