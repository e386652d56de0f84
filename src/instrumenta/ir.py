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
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import NamedTuple, NoReturn

from .symbols import demangle

# Instruction set: one operand signature per mnemonic, one letter per
# operand.  ``r`` register, ``i`` immediate, ``n`` count >= 1, ``h``
# region id >= 0, ``l`` ^label, ``f`` @function, ``*`` a call's argument
# registers (0 to MAX_CALL_ARGS), ``?`` an optional register.  Parsing,
# printing, validation and every operand query are derived from it.
SIGNATURES = {
    "li": "ri",
    "addi": "rri",
    "add": "rrr",
    "work": "n",
    "call": "f*",
    "call.try": "f*ll",
    "jmp": "l",
    "jnz": "rll",
    "ret": "?",
    "throw": "",
    "rethrow": "",
    "hook.register": "h",
    "hook.enter": "h",
    "hook.exit": "h",
}
ALL_OPS = frozenset(SIGNATURES)
# Plain `call` does not terminate a block; `call.try` is the
# unwind-aware call and does.
TERMINATORS = frozenset({"call.try", "jmp", "jnz", "ret", "throw", "rethrow"})
HOOK_OPS = frozenset({"hook.register", "hook.enter", "hook.exit"})

NUM_REGISTERS = 16
MAX_CALL_ARGS = 8


_NONE = slice(0, 0)


def _operand_slice(sig: str, kinds: str) -> slice:
    """Where the operands of ``kinds``, which are contiguous, sit in every
    args tuple of ``sig``: offsets past the variadic letter count from
    the end.  No such operand gives the shared empty slice ``_NONE``."""
    at = [i for i, k in enumerate(sig) if k in kinds]
    if not at:
        return _NONE
    variadic = next((i for i, k in enumerate(sig) if k in "*?"), len(sig))
    start = at[0] if at[0] <= variadic else at[0] - len(sig)
    stop = at[-1] + 1 if at[-1] < variadic else at[-1] + 1 - len(sig)
    return slice(start, stop or None)


_REGISTERS = {op: _operand_slice(sig, "r*?") for op, sig in SIGNATURES.items()}
_ARG_REGISTERS = {op: _operand_slice(sig, "*") for op, sig in SIGNATURES.items()}
_LABELS = {op: _operand_slice(sig, "l") for op, sig in SIGNATURES.items()}
# A call target is always the first operand.
_CALL_OPS = frozenset(op for op, sig in SIGNATURES.items() if sig.startswith("f"))

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

    The operands follow the mnemonic's SIGNATURES entry in order.
    Registers, immediates, counts and region ids are ints; labels and
    call targets are bare strings without their ``^``/``@`` sigils, so
    ``call.try @f, r1, ^n, ^u`` is ``("call.try", ("f", 1, "n", "u"))``
    and a bare ``ret`` is ``("ret", ())``.
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
        return self.args[0] if self.op in _CALL_OPS else None

    def call_arg_regs(self) -> tuple[int, ...]:
        return self.args[_ARG_REGISTERS.get(self.op, _NONE)]

    def branch_labels(self) -> tuple[str, ...]:
        return self.args[_LABELS.get(self.op, _NONE)]

    def remap(
        self, regs: dict[int, int], labels: dict[str, str] | None = None
    ) -> "Instruction":
        """This instruction with its registers renamed through ``regs``
        and, when ``labels`` is given, its labels renamed through it."""
        at_regs = _REGISTERS[self.op]
        at_labels = _NONE if labels is None else _LABELS[self.op]
        if at_regs is _NONE and at_labels is _NONE:
            return self
        args = list(self.args)
        if at_regs is not _NONE:
            args[at_regs] = [regs[r] for r in args[at_regs]]
        if at_labels is not _NONE:
            args[at_labels] = [labels[label] for label in args[at_labels]]
        return Instruction(self.op, tuple(args))


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
                for code, message in _check_instruction(m, seen, targets, ins):
                    out.append(Violation(code, f"{bwhere}[{i}]", message))
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
    m: IrModule, names: set[str], labels: set[str], ins: Instruction
) -> list[tuple[str, str]]:
    """The (code, message) of each defect of one instruction."""
    op, args = ins.op, ins.args
    syntax = _SHAPES.get((op, *map(type, args)))
    if syntax is None:
        # A call with too many arguments still fits its signature.
        syntax = _syntax(op, len(args))
        if syntax is None or syntax.shape != (op, *map(type, args)):
            if op not in ALL_OPS:
                return [("unknown-op", f"'{op}'")]
            return [("bad-operands", _bad_operands(ins))]
    out: list[tuple[str, str]] = []
    for r in args[_REGISTERS[op]]:
        if not (0 <= r < NUM_REGISTERS):
            out.append(("bad-register", f"r{r} out of range"))
    if syntax.kinds == "n" and args[0] < 1:
        out.append(("bad-work-count", "work needs n >= 1"))
    if op in _CALL_OPS:
        if len(args[_ARG_REGISTERS[op]]) > MAX_CALL_ARGS:
            out.append(("too-many-args", "more than 8 call args"))
        if args[0] not in names:
            out.append(("undefined-call-target", f"@{args[0]} not defined"))
    for label in args[_LABELS[op]]:
        if label not in labels:
            out.append(("undefined-label", f"^{label} not defined"))
    if syntax.kinds == "h" and args[0] not in m.regions:
        out.append(("unknown-region", f"region {args[0]} not in table"))
    return out


def _bad_operands(ins: Instruction) -> str:
    return f"'{ins.op}' takes operands {SIGNATURES[ins.op]!r}, got {ins.args!r}"


def _register_operands(ins: Instruction) -> tuple[int, ...]:
    return ins.args[_REGISTERS[ins.op]]


# ---------------------------------------------------------------------------
# Printing


# The quoted-string grammar of the IR and the trace: a backslash escapes
# `"` or `\` and nothing else.  _quote writes it and _read_quoted reads it.
_STRING = r'"([^"\\]*(?:\\["\\][^"\\]*)*)'
_STRING_RE = re.compile(_STRING + '(")?')
_ESCAPE_RE = re.compile(r"\\(.)")
# Both readers split lines with str.splitlines first, so a string holding
# any of these characters could not be read back.
_LINE_BREAK_RE = re.compile("[\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")


class _SyntaxAt(Exception):
    """A syntax error in one line; ``args`` are the message and its index
    in the line.  Whoever split the text into lines adds the line number."""


def _quote(s: str) -> str:
    if _LINE_BREAK_RE.search(s):
        raise ValueError(f"string {s!r} holds a line break")
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _read_quoted(line: str, pos: int) -> tuple[str, int]:
    """The string quoted at ``line[pos]``, decoded, and the index past its
    closing quote.  The first bad escape is reported at its backslash,
    before a missing closing quote, which is reported at the opening one."""
    mo = _STRING_RE.match(line, pos)
    if mo is None:
        raise _SyntaxAt("expected quoted string", pos)
    body = mo.group(1)
    if mo.group(2) is None:
        # The body stops at a closing quote, a bad escape or the line's end.
        if mo.end(1) < len(line):
            raise _SyntaxAt("bad escape", mo.end(1))
        raise _SyntaxAt("unterminated string", pos)
    if "\\" in body:
        body = _ESCAPE_RE.sub(r"\1", body)
    return body, mo.end()


def format_instruction(ins: Instruction) -> str:
    # Only the operand count is checked here; validate checks types.
    n = len(ins.args)
    syntax = _SYNTAX.get((ins.op, n)) or _syntax(ins.op, n)
    if syntax is None:
        if ins.op not in ALL_OPS:
            raise ValueError(f"unknown op {ins.op!r}")
        raise ValueError(_bad_operands(ins))
    return syntax.template.format(*ins.args)


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


# Text before the first ';' outside a well-formed quoted string.
_CODE_RE = re.compile(f'(?:[^;"]+|{_STRING}")*')


def _strip_comment(line: str) -> str:
    # ';' starts a comment unless inside a quoted string.  Without a
    # quote no backslash escapes anything, so the first ';' decides.
    if '"' not in line:
        return line.partition(";")[0]
    end = _CODE_RE.match(line).end()
    # Short of a ';', a malformed string stopped the match: keep the
    # whole line, which the parser then rejects.
    return line[:end] if line.startswith(";", end) else line


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


def _parse_count(token: str, lineno: int) -> int:
    n = _parse_imm(token, lineno)
    if n < 1:
        raise IrParseError("work needs n >= 1", lineno)
    return n


def _parse_region(token: str, lineno: int) -> int:
    rid = _parse_imm(token, lineno)
    if rid < 0:
        raise IrParseError("region id must be non-negative", lineno)
    return rid


# Each operand kind's token parser and printed sigil.
_KINDS = {
    "r": (_parse_reg, "r"),
    "i": (_parse_imm, ""),
    "n": (_parse_count, ""),
    "h": (_parse_region, ""),
    "l": (_parse_label_ref, "^"),
    "f": (_parse_target, "@"),
}


class _Syntax(NamedTuple):
    """One mnemonic at one arity."""

    kinds: str
    parsers: tuple[Callable[[str, int], int | str], ...]
    template: str
    shape: tuple  # the mnemonic, then each operand's type


def _syntax(op: str, n: int) -> _Syntax | None:
    """``op`` with ``n`` operands, or None when it has no such arity.
    ``*`` takes any number of registers here: the call-argument limit is
    a range check, like a register's."""
    sig = SIGNATURES.get(op, "")
    spare = n - len(sig) + sig.count("*") + sig.count("?")
    if op not in SIGNATURES or spare < 0:
        return None
    if "*" not in sig and spare > sig.count("?"):
        return None
    kinds = sig.replace("*", "r" * spare).replace("?", "r" * spare)
    operands = ", ".join(_KINDS[k][1] + "{}" for k in kinds)
    parsers = tuple(_KINDS[k][0] for k in kinds)
    shape = (op, *[str if k in "lf" else int for k in kinds])
    return _Syntax(kinds, parsers, f"{op} {operands}".rstrip(), shape)


# Every (op, arity) the parser accepts, and the same keyed by operand
# types for validate.
_SYNTAX = {
    (op, n): syntax
    for op, sig in SIGNATURES.items()
    for n in range(len(sig) + MAX_CALL_ARGS)
    if (syntax := _syntax(op, n)) is not None
}
_SHAPES = {syntax.shape: syntax for syntax in _SYNTAX.values()}


def parse_instruction(line: str, lineno: int) -> Instruction:
    head, _, rest = line.partition(" ")
    operands = [t.strip() for t in rest.split(",")] if rest.strip() else []
    op = head.strip()
    syntax = _SYNTAX.get((op, len(operands)))
    if syntax is None:
        _reject_operand_count(op, operands, lineno)
    for i, parse in enumerate(syntax.parsers):
        operands[i] = parse(operands[i], lineno)
    return Instruction(op, tuple(operands))


def _reject_operand_count(op: str, operands: list[str], lineno: int) -> NoReturn:
    sig = SIGNATURES.get(op)
    if sig is None:
        raise IrParseError(f"unknown instruction '{op}'", lineno)
    syntax = _syntax(op, len(operands))
    if syntax is not None:
        # Too many call arguments, once the operands up to the last one parse.
        last_arg = syntax.kinds.rindex("r")
        for parse, token in zip(syntax.parsers[: last_arg + 1], operands):
            parse(token, lineno)
        raise IrParseError(f"more than {MAX_CALL_ARGS} call arguments", lineno)
    bound = "at least " if "*" in sig else "at most " if "?" in sig else ""
    count = len(sig) - sig.count("*")
    raise IrParseError(f"'{op}' expects {bound}{count} operand(s)", lineno)


_FUNC_KV_RE = re.compile(r"(pretty|file|lines|attrs)=")
_LINES_RE = re.compile(r"(\d+):(\d+)")
_ATTRS_RE = re.compile(r"[A-Za-z_,]+")


def _parse_func_header(line: str) -> IrFunction:
    pos = len(line) - len(line[len("func") :].lstrip())
    if not line.startswith("@", pos):
        raise _SyntaxAt("func needs @name", pos)
    # name runs to the first space
    name_end = line.find(" ", pos)
    if name_end == -1:
        raise _SyntaxAt("func header needs file= and lines=", 0)
    name = line[pos + 1 : name_end]
    if not _NAME_RE.match(name):
        raise _SyntaxAt(f"bad function name '{name}'", pos + 1)
    pos = name_end
    pretty: str | None = None
    file: str | None = None
    begin = end = None
    attrs: set[str] = set()
    while pos < len(line):
        if line[pos] == " ":
            pos += 1
            continue
        mo = _FUNC_KV_RE.match(line, pos)
        if not mo:
            raise _SyntaxAt(
                f"unexpected token '{line[pos:].split()[0]}' in func header", pos
            )
        key = mo.group(1)
        pos = mo.end()
        if key == "pretty":
            pretty, pos = _read_quoted(line, pos)
        elif key == "file":
            file, pos = _read_quoted(line, pos)
        elif key == "lines":
            mo = _LINES_RE.match(line, pos)
            if not mo:
                raise _SyntaxAt("lines= needs <a>:<b>", pos)
            begin, end = int(mo.group(1)), int(mo.group(2))
            pos = mo.end()
        else:  # attrs
            mo = _ATTRS_RE.match(line, pos)
            if not mo:
                raise _SyntaxAt("attrs= needs a name list", pos)
            for a in mo.group(0).split(","):
                if a not in FUNCTION_ATTRS:
                    raise _SyntaxAt(f"unknown attribute '{a}'", pos)
                attrs.add(a)
                pos += len(a) + 1
            pos = mo.end()
    if file is None or begin is None:
        raise _SyntaxAt("func header needs file= and lines=", 0)
    return IrFunction(
        mangled_name=name,
        file=file,
        begin_line=begin,
        end_line=end,
        demangled_name=pretty,
        attrs=attrs,
    )


_REGION_ID_RE = re.compile(r"(\d+)\s+name=")
_REGION_KEY_RES = {key: re.compile(rf"\s+{key}=") for key in ("canonical", "file")}
_REGION_TAIL_RE = re.compile(r"\s+lines=(\d+):(\d+)\s+flags=(\d+)\s*\Z")


def _parse_region_line(line: str) -> RegionDescriptor:
    pos = len(line) - len(line[len("region") :].lstrip())
    mo = _REGION_ID_RE.match(line, pos)
    if not mo:
        raise _SyntaxAt("region line needs <id> name=...", pos)
    rid = int(mo.group(1))
    name, pos = _read_quoted(line, mo.end())
    strings = []
    for key, key_re in _REGION_KEY_RES.items():
        mo = key_re.match(line, pos)
        if not mo:
            raise _SyntaxAt(f"region line needs {key}=", pos)
        value, pos = _read_quoted(line, mo.end())
        strings.append(value)
    canonical, file = strings
    mo = _REGION_TAIL_RE.match(line, pos)
    if not mo:
        raise _SyntaxAt("region line needs lines=<a>:<b> flags=<u32>", pos)
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
    try:
        return _parse_lines(p, source_name)
    except _SyntaxAt as exc:
        # A header's error, on the line read last; columns count its indent.
        message, pos = exc.args
        raw = p.lines[p.pos - 1]
        col = len(raw) - len(raw.lstrip()) + pos + 1
        raise IrParseError(message, p.pos, col) from None


def _parse_lines(p: _Parser, source_name: str) -> IrModule:
    item = p.next_line()
    if item is None:
        raise IrParseError("missing module line", 1)
    lineno, line = item
    if not line.startswith("module"):
        raise IrParseError("first line must be module \"<name>\"", lineno)
    pos = len("module")
    while pos < len(line) and line[pos] == " ":
        pos += 1
    name, end = _read_quoted(line, pos)
    rest = line[end:].lstrip()
    if rest:
        raise _SyntaxAt("unexpected text after module name", len(line) - len(rest))
    module = IrModule(name=name, source_file_default=source_name)
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
            f = _parse_func_header(line)
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
                desc = _parse_region_line(rline)
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
