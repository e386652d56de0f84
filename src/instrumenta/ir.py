"""Textual intermediate representation: module, functions, blocks, instructions.

The layering mirrors what an optimizing compiler exposes to its passes:
a module holds functions, a function holds basic blocks, a block holds
instructions and ends in exactly one terminator.  The grammar is line
oriented; ``;`` starts a comment.  An instrumented module additionally
carries a ``regions:`` table mapping the region ids referenced by hook
pseudo-ops to their static descriptors.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace

from .symbols import demangle

# Instruction set.  Plain `call` does not terminate a block; `call.try`
# is the unwind-aware call and does.
TERMINATORS = frozenset({"call.try", "jmp", "jnz", "ret", "throw", "rethrow"})
HOOK_OPS = frozenset({"hook.register", "hook.enter", "hook.exit"})
ALL_OPS = frozenset(
    {"li", "addi", "add", "work", "call", "call.try", "jmp", "jnz", "ret", "throw",
     "rethrow"}
) | HOOK_OPS

NUM_REGISTERS = 16
MAX_CALL_ARGS = 8

FUNCTION_ATTRS = frozenset(
    {"empty_body", "builtin", "openmp_internal", "artificial", "no_inline"}
)

_LABEL_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_NAME_RE = re.compile(r"[A-Za-z_.$~][A-Za-z0-9_.$~]*\Z")


class IrError(Exception):
    """Base class for IR parse and validation failures."""


class IrParseError(IrError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class IrValidationError(IrError):
    def __init__(self, violations: list["Violation"]):
        super().__init__(
            "invalid module: " + "; ".join(str(v) for v in violations)
        )
        self.violations = violations


@dataclass(frozen=True)
class Instruction:
    """One instruction: mnemonic plus operand tuple.

    Operand conventions per mnemonic (registers are ints, labels and
    call targets are bare strings without their ``^``/``@`` sigils):

        li rd, imm            -> ("li", (rd, imm))
        addi rd, rs, imm      -> ("addi", (rd, rs, imm))
        add rd, ra, rb        -> ("add", (rd, ra, rb))
        work n                -> ("work", (n,))
        call @f, r...         -> ("call", (f, r...))
        call.try @f, r..., ^n, ^u -> ("call.try", (f, r..., n, u))
        jmp ^L                -> ("jmp", (L,))
        jnz r, ^T, ^F         -> ("jnz", (r, T, F))
        ret [r]               -> ("ret", ()) or ("ret", (r,))
        throw / rethrow       -> no operands
        hook.register <id>    -> ("hook.register", (id,)); same for enter/exit
    """

    op: str
    args: tuple = ()

    @classmethod
    def make(cls, op: str, *args) -> "Instruction":
        return cls(op, tuple(args))

    @property
    def is_terminator(self) -> bool:
        return self.op in TERMINATORS

    @property
    def is_hook(self) -> bool:
        return self.op in HOOK_OPS

    def call_target(self) -> str | None:
        if self.op in ("call", "call.try"):
            return self.args[0]
        return None

    def call_arg_regs(self) -> tuple[int, ...]:
        if self.op == "call":
            return self.args[1:]
        if self.op == "call.try":
            return self.args[1:-2]
        return ()

    def branch_labels(self) -> tuple[str, ...]:
        if self.op == "jmp":
            return (self.args[0],)
        if self.op == "jnz":
            return (self.args[1], self.args[2])
        if self.op == "call.try":
            return (self.args[-2], self.args[-1])
        return ()


@dataclass
class BasicBlock:
    label: str
    instructions: list[Instruction] = field(default_factory=list)


@dataclass
class IrFunction:
    """A function definition, or an extern declaration (no blocks)."""

    mangled_name: str
    file: str = ""
    begin_line: int = 1
    end_line: int = 1
    demangled_name: str | None = None
    attrs: set[str] = field(default_factory=set)
    blocks: list[BasicBlock] = field(default_factory=list)
    is_extern: bool = False

    @property
    def pretty_name(self) -> str:
        """Explicit pretty name if given, else derived by demangling."""
        if self.demangled_name is not None:
            return self.demangled_name
        return demangle(self.mangled_name)

    def entry_block(self) -> BasicBlock:
        return self.blocks[0]

    def block(self, label: str) -> BasicBlock:
        for b in self.blocks:
            if b.label == label:
                return b
        raise KeyError(label)

    def labels(self) -> set[str]:
        return {b.label for b in self.blocks}

    def clone(self) -> "IrFunction":
        """Copy blocks, instruction lists and attrs; share the instructions."""
        blocks = [BasicBlock(b.label, list(b.instructions)) for b in self.blocks]
        return replace(self, attrs=set(self.attrs), blocks=blocks)


@dataclass(frozen=True)
class RegionDescriptor:
    """Static per-function record registered lazily on first entry."""

    region_id: int
    name: str
    canonical_name: str
    file: str
    begin_lno: int
    end_lno: int
    flags: int = 0


@dataclass
class IrModule:
    name: str
    functions: list[IrFunction] = field(default_factory=list)
    regions: dict[int, RegionDescriptor] = field(default_factory=dict)
    # Provenance of the text this module came from; diagnostic only, so
    # not serialized and not part of structural equality.
    source_file_default: str = field(default="", compare=False)

    def function(self, mangled_name: str) -> IrFunction:
        for f in self.functions:
            if f.mangled_name == mangled_name:
                return f
        raise KeyError(mangled_name)

    def has_function(self, mangled_name: str) -> bool:
        return any(f.mangled_name == mangled_name for f in self.functions)

    def clone(self) -> "IrModule":
        """Copy every function and the region table; share the descriptors."""
        functions = [f.clone() for f in self.functions]
        return replace(self, functions=functions, regions=dict(self.regions))


def is_empty_body(f: IrFunction) -> bool:
    """True iff the body is a single block holding only a bare ``ret``."""
    return (
        not f.is_extern
        and len(f.blocks) == 1
        and len(f.blocks[0].instructions) == 1
        and f.blocks[0].instructions[0] == Instruction("ret")
    )


# ---------------------------------------------------------------------------
# Violations and validation


@dataclass(frozen=True)
class Violation:
    code: str
    where: str
    message: str

    def __str__(self) -> str:
        return f"{self.code} at {self.where}: {self.message}"


def validate(m: IrModule) -> list[Violation]:
    """Check every structural invariant; an empty list means well formed.

    Violations are data, one entry per defect, each naming the function,
    block and instruction index concerned.
    """
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
        if ("empty_body" in f.attrs) != is_empty_body(f):
            out.append(
                Violation(
                    "empty-body-attr",
                    where,
                    "empty_body attribute inconsistent with body shape",
                )
            )
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
                where_i = f"{bwhere}[{i}]"
                out.extend(_check_instruction(m, seen, targets, where_i, ins))
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


def _check_instruction(
    m: IrModule, names: set[str], labels: set[str], where: str, ins: Instruction
) -> list[Violation]:
    out: list[Violation] = []
    if ins.op not in ALL_OPS:
        return [Violation("unknown-op", where, f"'{ins.op}'")]
    for r in _register_operands(ins):
        if not (0 <= r < NUM_REGISTERS):
            out.append(Violation("bad-register", where, f"r{r} out of range"))
    if ins.op == "work" and ins.args[0] < 1:
        out.append(Violation("bad-work-count", where, "work needs n >= 1"))
    target = ins.call_target()
    if target is not None:
        if len(ins.call_arg_regs()) > MAX_CALL_ARGS:
            out.append(Violation("too-many-args", where, "more than 8 call args"))
        if target not in names:
            out.append(
                Violation("undefined-call-target", where, f"@{target} not defined")
            )
    for label in ins.branch_labels():
        if label not in labels:
            out.append(Violation("undefined-label", where, f"^{label} not defined"))
    if ins.is_hook and ins.args[0] not in m.regions:
        out.append(
            Violation("unknown-region", where, f"region {ins.args[0]} not in table")
        )
    return out


def _register_operands(ins: Instruction) -> tuple[int, ...]:
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
        return ins.call_arg_regs()
    return ()


# ---------------------------------------------------------------------------
# Printing


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def format_instruction(ins: Instruction) -> str:
    op = ins.op
    if op in ("li", "addi", "add"):
        regs = _register_operands(ins)
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
        parts += [f"r{r}" for r in ins.call_arg_regs()]
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
    if op in HOOK_OPS:
        return f"{op} {ins.args[0]}"
    raise ValueError(f"unknown op {op!r}")


def print_module(m: IrModule) -> str:
    """Render a module in canonical text form.

    Printing is deterministic and idempotent: parsing the output yields
    a structurally equal module.
    """
    lines = [f"module {_quote(m.name)}"]
    for f in m.functions:
        lines.append("")
        if f.is_extern:
            lines.append(f"extern @{f.mangled_name}")
            continue
        head = f"func @{f.mangled_name}"
        if f.demangled_name is not None:
            head += f" pretty={_quote(f.demangled_name)}"
        head += f" file={_quote(f.file)} lines={f.begin_line}:{f.end_line}"
        if f.attrs:
            head += " attrs=" + ",".join(sorted(f.attrs))
        lines.append(head)
        lines.append("{")
        for b in f.blocks:
            lines.append(f"^{b.label}:")
            for ins in b.instructions:
                lines.append("  " + format_instruction(ins))
        lines.append("}")
    if m.regions:
        lines.append("")
        lines.append("regions:")
        for rid in sorted(m.regions):
            d = m.regions[rid]
            lines.append(
                f"region {rid} name={_quote(d.name)} canonical={_quote(d.canonical_name)}"
                f" file={_quote(d.file)} lines={d.begin_lno}:{d.end_lno} flags={d.flags}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Parsing


def _strip_comment(line: str) -> str:
    # ';' starts a comment unless inside a quoted string.  Without a
    # quote no backslash escapes anything, so the first ';' decides.
    if '"' not in line:
        return line.partition(";")[0]
    in_quote = False
    i = 0
    while i < len(line):
        c = line[i]
        if c == "\\" and in_quote:
            i += 2
            continue
        if c == '"':
            in_quote = not in_quote
        elif c == ";" and not in_quote:
            return line[:i]
        i += 1
    return line


def _unquote(token: str, lineno: int, col: int) -> str:
    if len(token) < 2 or token[0] != '"' or token[-1] != '"':
        raise IrParseError("expected quoted string", lineno, col)
    body = token[1:-1]
    out: list[str] = []
    i = 0
    while i < len(body):
        c = body[i]
        if c == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                raise IrParseError("bad escape in string", lineno, col)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(c)
            i += 1
    return "".join(out)


def _scan_quoted(line: str, pos: int, lineno: int) -> tuple[str, int]:
    # Returns the raw quoted token starting at pos and the index past it.
    if pos >= len(line) or line[pos] != '"':
        raise IrParseError("expected quoted string", lineno, pos + 1)
    i = pos + 1
    while i < len(line):
        if line[i] == "\\":
            i += 2
            continue
        if line[i] == '"':
            return line[pos : i + 1], i + 1
        i += 1
    raise IrParseError("unterminated string", lineno, pos + 1)


class _Parser:
    def __init__(self, text: str):
        self.lines = text.splitlines()
        self.pos = 0

    def next_line(self) -> tuple[int, str] | None:
        while self.pos < len(self.lines):
            raw = self.lines[self.pos]
            self.pos += 1
            stripped = _strip_comment(raw).strip()
            if stripped:
                return self.pos, stripped
        return None

    def peek_line(self) -> tuple[int, str] | None:
        save = self.pos
        item = self.next_line()
        self.pos = save
        return item


_REG_RE = re.compile(r"r\d+\Z")
_IMM_RE = re.compile(r"-?\d+\Z")


def _parse_reg(token: str, lineno: int) -> int:
    if not _REG_RE.match(token):
        raise IrParseError(f"expected register, got '{token}'", lineno)
    idx = int(token[1:])
    if idx >= NUM_REGISTERS:
        raise IrParseError(f"register r{idx} out of range", lineno)
    return idx


def _parse_imm(token: str, lineno: int) -> int:
    if not _IMM_RE.match(token):
        raise IrParseError(f"expected integer, got '{token}'", lineno)
    return int(token)


def _parse_label_ref(token: str, lineno: int) -> str:
    if not token.startswith("^") or not _LABEL_RE.match(token[1:]):
        raise IrParseError(f"expected ^label, got '{token}'", lineno)
    return token[1:]


def _parse_target(token: str, lineno: int) -> str:
    if not token.startswith("@") or not _NAME_RE.match(token[1:]):
        raise IrParseError(f"expected @function, got '{token}'", lineno)
    return token[1:]


def parse_instruction(line: str, lineno: int) -> Instruction:
    head, _, rest = line.partition(" ")
    operands = [t.strip() for t in rest.split(",")] if rest.strip() else []
    op = head.strip()
    if op not in ALL_OPS:
        raise IrParseError(f"unknown instruction '{op}'", lineno)

    def arity(n: int) -> None:
        if len(operands) != n:
            raise IrParseError(f"'{op}' expects {n} operand(s)", lineno)

    if op == "li":
        arity(2)
        return Instruction(op, (_parse_reg(operands[0], lineno), _parse_imm(operands[1], lineno)))
    if op == "addi":
        arity(3)
        return Instruction(
            op,
            (
                _parse_reg(operands[0], lineno),
                _parse_reg(operands[1], lineno),
                _parse_imm(operands[2], lineno),
            ),
        )
    if op == "add":
        arity(3)
        return Instruction(op, tuple(_parse_reg(t, lineno) for t in operands))
    if op == "work":
        arity(1)
        n = _parse_imm(operands[0], lineno)
        if n < 1:
            raise IrParseError("work needs n >= 1", lineno)
        return Instruction(op, (n,))
    if op == "call":
        if not operands:
            raise IrParseError("call needs a target", lineno)
        target = _parse_target(operands[0], lineno)
        regs = tuple(_parse_reg(t, lineno) for t in operands[1:])
        if len(regs) > MAX_CALL_ARGS:
            raise IrParseError("more than 8 call arguments", lineno)
        return Instruction(op, (target, *regs))
    if op == "call.try":
        if len(operands) < 3:
            raise IrParseError("call.try needs target and two labels", lineno)
        target = _parse_target(operands[0], lineno)
        regs = tuple(_parse_reg(t, lineno) for t in operands[1:-2])
        if len(regs) > MAX_CALL_ARGS:
            raise IrParseError("more than 8 call arguments", lineno)
        normal = _parse_label_ref(operands[-2], lineno)
        unwind = _parse_label_ref(operands[-1], lineno)
        return Instruction(op, (target, *regs, normal, unwind))
    if op == "jmp":
        arity(1)
        return Instruction(op, (_parse_label_ref(operands[0], lineno),))
    if op == "jnz":
        arity(3)
        return Instruction(
            op,
            (
                _parse_reg(operands[0], lineno),
                _parse_label_ref(operands[1], lineno),
                _parse_label_ref(operands[2], lineno),
            ),
        )
    if op == "ret":
        if len(operands) > 1:
            raise IrParseError("ret takes at most one register", lineno)
        if operands:
            return Instruction(op, (_parse_reg(operands[0], lineno),))
        return Instruction(op)
    if op in ("throw", "rethrow"):
        arity(0)
        return Instruction(op)
    # hook ops
    arity(1)
    rid = _parse_imm(operands[0], lineno)
    if rid < 0:
        raise IrParseError("region id must be non-negative", lineno)
    return Instruction(op, (rid,))


_FUNC_KV_RE = re.compile(r"(pretty|file|lines|attrs)=")


def _parse_func_header(line: str, lineno: int) -> IrFunction:
    rest = line[len("func") :].strip()
    if not rest.startswith("@"):
        raise IrParseError("func needs @name", lineno)
    # name runs to the first space
    name_end = rest.find(" ")
    if name_end == -1:
        raise IrParseError("func header needs file= and lines=", lineno)
    name = rest[1:name_end]
    if not _NAME_RE.match(name):
        raise IrParseError(f"bad function name '{name}'", lineno)
    pos = name_end
    pretty: str | None = None
    file: str | None = None
    begin = end = None
    attrs: set[str] = set()
    while pos < len(rest):
        if rest[pos] == " ":
            pos += 1
            continue
        mo = _FUNC_KV_RE.match(rest, pos)
        if not mo:
            raise IrParseError(
                f"unexpected token '{rest[pos:].split()[0]}' in func header", lineno,
                pos + 1,
            )
        key = mo.group(1)
        pos = mo.end()
        if key in ("pretty", "file"):
            raw, pos = _scan_quoted(rest, pos, lineno)
            value = _unquote(raw, lineno, pos)
            if key == "pretty":
                pretty = value
            else:
                file = value
        elif key == "lines":
            mo2 = re.match(r"(\d+):(\d+)", rest[pos:])
            if not mo2:
                raise IrParseError("lines= needs <a>:<b>", lineno, pos + 1)
            begin, end = int(mo2.group(1)), int(mo2.group(2))
            pos += mo2.end()
        else:  # attrs
            mo2 = re.match(r"[A-Za-z_,]+", rest[pos:])
            if not mo2:
                raise IrParseError("attrs= needs a name list", lineno, pos + 1)
            for a in mo2.group(0).split(","):
                if a not in FUNCTION_ATTRS:
                    raise IrParseError(f"unknown attribute '{a}'", lineno, pos + 1)
                attrs.add(a)
            pos += mo2.end()
    if file is None or begin is None:
        raise IrParseError("func header needs file= and lines=", lineno)
    return IrFunction(
        mangled_name=name,
        file=file,
        begin_line=begin,
        end_line=end,
        demangled_name=pretty,
        attrs=attrs,
    )


def _parse_region_line(line: str, lineno: int) -> RegionDescriptor:
    rest = line[len("region") :].strip()
    mo = re.match(r"(\d+)\s+name=", rest)
    if not mo:
        raise IrParseError("region line needs <id> name=...", lineno)
    rid = int(mo.group(1))
    pos = mo.end()
    raw, pos = _scan_quoted(rest, pos, lineno)
    name = _unquote(raw, lineno, pos)
    for key in ("canonical", "file"):
        mo = re.match(rf"\s+{key}=", rest[pos:])
        if not mo:
            raise IrParseError(f"region line needs {key}=", lineno)
        pos += mo.end()
        raw, pos = _scan_quoted(rest, pos, lineno)
        if key == "canonical":
            canonical = _unquote(raw, lineno, pos)
        else:
            file = _unquote(raw, lineno, pos)
    mo = re.match(r"\s+lines=(\d+):(\d+)\s+flags=(\d+)\s*\Z", rest[pos:])
    if not mo:
        raise IrParseError("region line needs lines=<a>:<b> flags=<u32>", lineno)
    return RegionDescriptor(
        region_id=rid,
        name=name,
        canonical_name=canonical,
        file=file,
        begin_lno=int(mo.group(1)),
        end_lno=int(mo.group(2)),
        flags=int(mo.group(3)),
    )


def parse_module(text: str, source_name: str = "") -> IrModule:
    """Parse and validate module text; raises with line/column on errors."""
    p = _Parser(text)
    item = p.next_line()
    if item is None:
        raise IrParseError("missing module line", 1)
    lineno, line = item
    if not line.startswith("module"):
        raise IrParseError("first line must be module \"<name>\"", lineno)
    pos = len("module")
    while pos < len(line) and line[pos] == " ":
        pos += 1
    raw, end = _scan_quoted(line, pos, lineno)
    if line[end:].strip():
        raise IrParseError("unexpected text after module name", lineno, end + 1)
    module = IrModule(
        name=_unquote(raw, lineno, 1), source_file_default=source_name
    )
    seen_names: dict[str, int] = {}
    instr_lines: dict[tuple[str, str, int], int] = {}

    while True:
        item = p.next_line()
        if item is None:
            break
        lineno, line = item
        if line.startswith("extern"):
            rest = line[len("extern") :].strip()
            name = _parse_target(rest, lineno)
            if name in seen_names:
                raise IrParseError(f"duplicate function name '{name}'", lineno)
            seen_names[name] = lineno
            module.functions.append(IrFunction(mangled_name=name, is_extern=True))
        elif line.startswith("func"):
            f = _parse_func_header(line, lineno)
            if f.mangled_name in seen_names:
                raise IrParseError(
                    f"duplicate function name '{f.mangled_name}'", lineno
                )
            seen_names[f.mangled_name] = lineno
            _parse_body(p, f, instr_lines, lineno)
            if is_empty_body(f):
                f.attrs.add("empty_body")
            module.functions.append(f)
        elif line == "regions:":
            while True:
                peeked = p.peek_line()
                if peeked is None or not peeked[1].startswith("region "):
                    break
                rlineno, rline = p.next_line()
                desc = _parse_region_line(rline, rlineno)
                if desc.region_id in module.regions:
                    raise IrParseError(
                        f"duplicate region id {desc.region_id}", rlineno
                    )
                module.regions[desc.region_id] = desc
        else:
            raise IrParseError(f"unexpected top-level line '{line}'", lineno)

    _check_references(module, instr_lines)
    violations = validate(module)
    if violations:
        raise IrValidationError(violations)
    return module


def _parse_body(
    p: _Parser,
    f: IrFunction,
    instr_lines: dict[tuple[str, str, int], int],
    header_line: int,
) -> None:
    item = p.next_line()
    if item is None or item[1] != "{":
        raise IrParseError("expected '{' after func header", header_line)
    current: BasicBlock | None = None
    labels: set[str] = set()
    while True:
        item = p.next_line()
        if item is None:
            raise IrParseError("unterminated function body", header_line)
        lineno, line = item
        if line == "}":
            return
        if line.startswith("^"):
            if not line.endswith(":"):
                raise IrParseError("block label must end with ':'", lineno)
            label = line[1:-1]
            if not _LABEL_RE.match(label):
                raise IrParseError(f"bad block label '{label}'", lineno)
            if label in labels:
                raise IrParseError(f"duplicate block label '{label}'", lineno)
            labels.add(label)
            current = BasicBlock(label)
            f.blocks.append(current)
            continue
        if current is None:
            raise IrParseError("instruction before first block label", lineno)
        ins = parse_instruction(line, lineno)
        instr_lines[(f.mangled_name, current.label, len(current.instructions))] = lineno
        current.instructions.append(ins)


def _check_references(
    module: IrModule, instr_lines: dict[tuple[str, str, int], int]
) -> None:
    # Undefined call targets and branch labels are reported with the
    # source line of the offending instruction.
    names = {f.mangled_name for f in module.functions}
    for f in module.functions:
        labels = f.labels()
        for b in f.blocks:
            for i, ins in enumerate(b.instructions):
                lineno = instr_lines.get((f.mangled_name, b.label, i), 1)
                target = ins.call_target()
                if target is not None and target not in names:
                    raise IrParseError(
                        f"undefined call target '@{target}'", lineno
                    )
                for label in ins.branch_labels():
                    if label not in labels:
                        raise IrParseError(f"undefined label '^{label}'", lineno)
