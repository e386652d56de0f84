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
from bisect import bisect_left
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, replace
from itertools import compress, count, repeat
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

# Nothing reads empty_body: is_empty_body reads that fact from the body.
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
    # validate's context-free verdict (_judge) and the printed text
    # (format_instruction), each stored on this object the first time it
    # is computed.  Not fields: equality, hash and repr ignore them, and
    # copies and pickles leave them behind (__getstate__).
    _verdict = None
    _text = None

    def __getstate__(self) -> dict:
        return {"op": self.op, "args": self.args}

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

    def remap(
        self,
        regs: dict[int, int],
        labels: dict[str, str] | None = None,
        table: InstructionTable | None = None,
    ) -> "Instruction":
        """This instruction with its registers renamed through ``regs``
        and, when ``labels`` is given, its labels renamed through it.  A
        renamed copy comes from ``table`` when one is given."""
        at_regs = _REGISTERS[self.op]
        at_labels = _NONE if labels is None else _LABELS[self.op]
        if at_regs is _NONE and at_labels is _NONE:
            return self
        args = list(self.args)
        if at_regs is not _NONE:
            args[at_regs] = [regs[r] for r in args[at_regs]]
        if at_labels is not _NONE:
            args[at_labels] = [labels[label] for label in args[at_labels]]
        key = (self.op, tuple(args))
        return Instruction(*key) if table is None else table[key]


class InstructionTable(dict):
    """The instructions one compile pass builds, by ``(op, args)``:
    ``table[op, args]`` is the one object of that value, built on first
    use, so each is checked and printed once.  A pass owns its table,
    which dies with it."""

    def __missing__(self, key: tuple) -> Instruction:
        ins = self[key] = Instruction(*key)
        return ins


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
# The call graph


def call_graph(m: IrModule) -> dict[str, dict[str, None]]:
    """Each function's callees, each once, in the order of its first call.
    They are dict keys rather than a set, so an order derived from the
    graph does not depend on string hashing; ``|=`` adds edges."""
    return {
        f.mangled_name: dict.fromkeys(
            [ins.args[0] for b in f.blocks for ins in b.instructions if ins.op in _CALL_OPS]
        )
        for f in m.functions
    }


def components(graph: dict[str, Iterable[str]]) -> list[list[str]]:
    """The strongly connected components of ``graph``, callees first: a
    component comes after every one it calls into.  Tarjan's algorithm
    with an explicit stack, from the keys in order and along each one's
    callees in order; a name that is not a key has no calls."""
    index: dict[str, int] = {}  # order of discovery
    low: dict[str, int] = {}  # lowest index reachable within the open path
    path: list[str] = []  # discovered names whose component is not yet closed
    on_path: set[str] = set()
    work: list[tuple[str, Iterator[str]]] = []  # (name, callees left to visit)
    out: list[list[str]] = []

    def discover(name: str) -> None:
        index[name] = low[name] = len(index)
        path.append(name)
        on_path.add(name)
        work.append((name, iter(graph[name])))

    for root in graph:
        if root not in index:
            discover(root)
        while work:
            node, callees = work[-1]
            for callee in callees:
                if callee in on_path:
                    if index[callee] < low[node]:
                        low[node] = index[callee]
                elif callee in graph and callee not in index:
                    discover(callee)
                    break
            else:  # every callee visited
                work.pop()
                if work:
                    caller = work[-1][0]
                    if low[node] < low[caller]:
                        low[caller] = low[node]
                if low[node] == index[node]:
                    component = [path.pop()]
                    while component[-1] != node:
                        component.append(path.pop())
                    on_path.difference_update(component)
                    out.append(component)
    return out


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
            last = len(b.instructions) - 1
            if b.instructions[last].op not in TERMINATORS:
                out.append(
                    Violation(
                        "missing-terminator", bwhere, "block does not end in terminator"
                    )
                )
            # A block's misplaced terminators come before its other defects.
            found: list[Violation] = []
            for i, ins in enumerate(b.instructions):
                verdict = ins._verdict or _judge(ins)
                if verdict is _SOUND:
                    continue
                if i < last and ins.op in TERMINATORS:
                    out.append(
                        Violation(
                            "terminator-mid-block",
                            f"{bwhere}[{i}]",
                            f"'{ins.op}' before end of block",
                        )
                    )
                for code, message in _defects(ins, verdict, seen, targets, m.regions):
                    found.append(Violation(code, f"{bwhere}[{i}]", message))
            out += found
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
    return _defects(ins, ins._verdict or _judge(ins), names, labels, m.regions)


# A verdict is what validate finds in an instruction wherever it stands:
# its defects as (code, message) pairs, and whether the checks that depend
# on its position apply (not to a malformed one).  Without a defect, a
# plain op, which has no such check, shares _SOUND, which validate skips,
# and any other op _CONTEXT.
_SOUND = ((), False)
_CONTEXT = ((), True)
_PLAIN_OPS = ALL_OPS - TERMINATORS - HOOK_OPS - _CALL_OPS


def _judge(ins: Instruction) -> tuple:
    """The verdict on ``ins``, stored on it."""
    op, args = ins.op, ins.args
    syntax = _fit(ins)
    if syntax is None:
        if op not in ALL_OPS:
            verdict = ((("unknown-op", f"'{op}'"),), False)
        else:
            verdict = ((("bad-operands", _bad_operands(ins)),), False)
    else:
        defects: list[tuple[str, str]] = []
        for r in args[_REGISTERS[op]]:
            if not (0 <= r < NUM_REGISTERS):
                defects.append(("bad-register", f"r{r} out of range"))
        if syntax.kinds == "n" and args[0] < 1:
            defects.append(("bad-work-count", "work needs n >= 1"))
        if op in _CALL_OPS and len(args[_ARG_REGISTERS[op]]) > MAX_CALL_ARGS:
            defects.append(("too-many-args", "more than 8 call args"))
        if defects:
            verdict = (tuple(defects), True)
        else:
            verdict = _SOUND if op in _PLAIN_OPS else _CONTEXT
    object.__setattr__(ins, "_verdict", verdict)
    return verdict


def _fit(ins: Instruction) -> _Syntax | None:
    """The syntax whose operand count and types ``ins`` has, or None."""
    op, args = ins.op, ins.args
    # A call with too many arguments still fits its signature.
    syntax = _SYNTAX.get((op, len(args))) or _syntax(op, len(args))
    if syntax is None or syntax.shape != (op, *map(type, args)):
        return None
    return syntax


def _defects(
    ins: Instruction, verdict: tuple, names: set[str], labels: set[str], regions: dict
) -> list[tuple[str, str]]:
    """The verdict's defects, then those of the checks at this position:
    call target, branch labels and region id."""
    defects, in_context = verdict
    out = list(defects)
    if not in_context:
        return out
    op, args = ins.op, ins.args
    if op in _CALL_OPS and args[0] not in names:
        out.append(("undefined-call-target", f"@{args[0]} not defined"))
    for label in args[_LABELS[op]]:
        if label not in labels:
            out.append(("undefined-label", f"^{label} not defined"))
    if op in HOOK_OPS and args[0] not in regions:
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
_LINE_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_LINE_BREAK_RE = re.compile(f"[{_LINE_BREAKS}]")


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
    return _unescape(body), mo.end()


def _unescape(body: str) -> str:
    """A string's text from its body as written between the quotes."""
    return _ESCAPE_RE.sub(r"\1", body) if "\\" in body else body


def format_instruction(ins: Instruction) -> str:
    """The text of ``ins``, stored on it the first time.  An unknown op
    or operands that do not fit its signature in count or type raise
    ValueError; range defects, which validate reports, still print."""
    if ins._text is not None:
        return ins._text
    # Only the shape: the range checks are validate's.
    syntax = _fit(ins)
    if syntax is None:
        _judge(ins)  # stores the verdict validate would
        if ins.op not in ALL_OPS:
            raise ValueError(f"unknown op {ins.op!r}")
        raise ValueError(_bad_operands(ins))
    text = syntax.template.format(*ins.args)
    object.__setattr__(ins, "_text", text)
    return text


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
                lines.append("  " + (ins._text or format_instruction(ins)))
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
    # ';' starts a comment unless inside a quoted string.
    end = _CODE_RE.match(line).end()
    # Short of a ';', a malformed string stopped the match: keep the
    # whole line, which the parser then rejects.
    return line[:end] if line.startswith(";", end) else line


_REG_RE = re.compile(r"r[0-9]+\Z")
_IMM_RE = re.compile(r"-?[0-9]+\Z")


def _parse_reg(token: str, lineno: int) -> int:
    if not _REG_RE.match(token):
        raise IrParseError(f"expected register, got '{token}'", lineno)
    try:
        idx = int(token[1:])
    except ValueError:  # more digits than int() reads
        raise IrParseError(f"register {token} out of range", lineno) from None
    if idx >= NUM_REGISTERS:
        raise IrParseError(f"register r{idx} out of range", lineno)
    return idx


def _parse_imm(token: str, lineno: int) -> int:
    if not _IMM_RE.match(token):
        raise IrParseError(f"expected integer, got '{token}'", lineno)
    try:
        return int(token)
    except ValueError:  # more digits than int() reads
        raise IrParseError(f"integer '{token}' has too many digits", lineno) from None


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


# Every (op, arity) that the parser and validate accept.
_SYNTAX = {
    (op, n): syntax
    for op, sig in SIGNATURES.items()
    for n in range(len(sig) + MAX_CALL_ARGS)
    if (syntax := _syntax(op, n)) is not None
}


def parse_instruction(line: str, lineno: int) -> Instruction:
    return _parse_instruction(line, lineno, {})


def _parse_instruction(line: str, lineno: int, tokens: dict) -> Instruction:
    """``parse_instruction``, with each operand's value looked up in
    ``tokens`` by its parser and text first, and stored there once it
    parses."""
    head, _, rest = line.partition(" ")
    operands = [t.strip() for t in rest.split(",")] if rest.strip() else []
    op = head.strip()
    syntax = _SYNTAX.get((op, len(operands)))
    if syntax is None:
        _reject_operand_count(op, operands, lineno)
    for i, parse in enumerate(syntax.parsers):
        key = (parse, operands[i])
        value = tokens.get(key)
        if value is None:
            value = tokens[key] = parse(operands[i], lineno)
        operands[i] = value
    ins = Instruction(op, tuple(operands))
    # What parses has no defect that validate could find in it alone.
    object.__setattr__(ins, "_verdict", _SOUND if op in _PLAIN_OPS else _CONTEXT)
    return ins


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


# A module, func or region line separates its fields by spaces or tabs.
_BLANK_RE = re.compile(r"[ \t]")
_BLANKS_RE = re.compile(r"[ \t]*")
_LINES_RE = re.compile(r"([0-9]+):([0-9]+)")
_ATTRS_RE = re.compile(r"[A-Za-z_,]+")


def _read_range(line: str, pos: int) -> tuple[tuple[int, int], int]:
    mo = _LINES_RE.match(line, pos)
    if not mo:
        raise _SyntaxAt("lines= needs <a>:<b>", pos)
    return (_number(mo, 1, "lines= number"), _number(mo, 2, "lines= number")), mo.end()


def _read_attrs(line: str, pos: int) -> tuple[set[str], int]:
    mo = _ATTRS_RE.match(line, pos)
    if not mo:
        raise _SyntaxAt("attrs= needs a name list", pos)
    attrs = mo.group(0).split(",")
    for a in attrs:
        if a not in FUNCTION_ATTRS:
            raise _SyntaxAt(f"unknown attribute '{a}'", pos)
        pos += len(a) + 1
    return set(attrs), mo.end()


# Each func header key's reader: the value at a position, and the index past it.
_FUNC_FIELDS = {
    "pretty": _read_quoted, "file": _read_quoted, "lines": _read_range, "attrs": _read_attrs
}
_FUNC_KV_RE = re.compile(f"({'|'.join(_FUNC_FIELDS)})=")


def _parse_func_header(line: str) -> IrFunction:
    pos = _BLANKS_RE.match(line, len("func")).end()
    if not line.startswith("@", pos):
        raise _SyntaxAt("func needs @name", pos)
    # name runs to the first blank
    mo = _BLANK_RE.search(line, pos)
    if mo is None:
        raise _SyntaxAt("func header needs file= and lines=", 0)
    name_end = mo.start()
    name = line[pos + 1 : name_end]
    if not _NAME_RE.match(name):
        raise _SyntaxAt(f"bad function name '{name}'", pos + 1)
    pos = name_end
    fields: dict = {}
    while pos < len(line):
        if line[pos] in " \t":
            pos += 1
            continue
        mo = _FUNC_KV_RE.match(line, pos)
        if not mo:
            raise _SyntaxAt(
                f"unexpected token '{line[pos:].split()[0]}' in func header", pos
            )
        key = mo.group(1)
        if key in fields:
            raise _SyntaxAt(f"repeated key '{key}=' in func header", pos)
        fields[key], pos = _FUNC_FIELDS[key](line, mo.end())
    if "file" not in fields or "lines" not in fields:
        raise _SyntaxAt("func header needs file= and lines=", 0)
    begin, end = fields["lines"]
    return IrFunction(
        name, fields["file"], begin, end, fields.get("pretty"), fields.get("attrs", set())
    )


_REGION_ID_RE = re.compile(r"([0-9]+)[ \t]+name=")
_REGION_KEY_RES = {key: re.compile(rf"[ \t]+{key}=") for key in ("canonical", "file")}
_REGION_TAIL_RE = re.compile(r"[ \t]+lines=([0-9]+):([0-9]+)[ \t]+flags=([0-9]+)[ \t]*\Z")


def _parse_region_line(line: str) -> RegionDescriptor:
    pos = _BLANKS_RE.match(line, len("region")).end()
    mo = _REGION_ID_RE.match(line, pos)
    if not mo:
        raise _SyntaxAt("region line needs <id> name=...", pos)
    rid = _number(mo, 1, "region id")
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
        begin_lno=_number(mo, 1, "lines= number"),
        end_lno=_number(mo, 2, "lines= number"),
        flags=_number(mo, 3, "flags= number"),
    )


def _number(mo: re.Match[str], group: int, what: str) -> int:
    """The decimal number in ``group`` of a header's match ``mo``; one with
    more digits than int() reads is a syntax error at its column."""
    try:
        return int(mo.group(group))
    except ValueError:
        raise _SyntaxAt(f"{what} has too many digits", mo.start(group)) from None


class _ParsedLines(dict):
    """Instructions by line, each parsed on first use, so that equal lines
    share one; beside them, the operand values by parser and token.  A
    line that does not parse raises with line 0: only its reader knows
    where it stands."""

    def __init__(self):
        super().__init__()
        self.tokens: dict = {}

    def __missing__(self, line: str) -> Instruction:
        ins = self[line] = _parse_instruction(line, 0, self.tokens)
        return ins


def parse_module(text: str, source_name: str = "") -> IrModule:
    """Parse and validate module text; raises with line/column on errors."""
    # The code lines, their numbers in the text and the indices of the
    # block labels among them.  Only a line with a ';' can hold a comment.
    stripped = [
        (_strip_comment(raw) if ";" in raw else raw).strip()
        for raw in text.splitlines()
    ]
    lines = list(filter(None, stripped))
    if not lines:
        raise IrParseError("missing module line", 1)
    linenos = list(compress(count(1), stripped))
    labels = list(compress(count(), map(str.startswith, lines, repeat("^"))))
    # validate's names, a function or its block, by the index in code of
    # the header or label line.
    heads: dict[str, int] = {}
    parsed = _ParsedLines()
    lineno, line = linenos[0], lines[0]
    try:
        if not line.startswith("module"):
            raise IrParseError("first line must be module \"<name>\"", lineno)
        pos = _BLANKS_RE.match(line, len("module")).end()
        name, end = _read_quoted(line, pos)
        rest = line[end:].lstrip()
        if rest:
            raise _SyntaxAt("unexpected text after module name", len(line) - len(rest))
        module = IrModule(name=name, source_file_default=source_name)
        # Region lines follow `regions:` or another region line.
        in_table = False
        index = 1
        while index < len(lines):
            lineno, line = linenos[index], lines[index]
            if in_table and line.startswith("region "):
                desc = _parse_region_line(line)
                if desc.region_id in module.regions:
                    raise IrParseError(f"duplicate region id {desc.region_id}", lineno)
                module.regions[desc.region_id] = desc
                index += 1
                continue
            in_table = line == "regions:"
            if line.startswith("extern"):
                name = _parse_target(line[len("extern") :].strip(), lineno)
                f = IrFunction(name, is_extern=True)
            elif line.startswith("func"):
                f = _parse_func_header(line)
            elif in_table:
                index += 1
                continue
            else:
                raise IrParseError(f"unexpected top-level line '{line}'", lineno)
            if f.mangled_name in heads:
                raise IrParseError(f"duplicate function name '{f.mangled_name}'", lineno)
            heads[f.mangled_name] = index
            if not f.is_extern:
                index = _parse_body(lines, linenos, labels, index, f, heads, parsed)
            module.functions.append(f)
            index += 1
    except _SyntaxAt as exc:
        # A header's error; columns count its indent.
        message, pos = exc.args
        raw = text.splitlines()[lineno - 1]
        col = len(raw) - len(raw.lstrip()) + pos + 1
        raise IrParseError(message, lineno, col) from None

    violations = validate(module)
    if violations:
        # validate judges structure; the parser only names the source line
        # of its first violation: a function's header, a block's label, or
        # the code line that an instruction index places after its label.
        # Region violations have none.
        v = violations[0]
        where, _, i = v.where.removesuffix("]").partition("[")
        if where in heads:
            index = heads[where] + (int(i) + 1 if i else 0)
            raise IrParseError(str(v), linenos[index])
        raise IrValidationError(violations)
    return module


def _parse_body(
    lines: list[str], linenos: list[int], labels: list[int], at: int,
    f: IrFunction, heads: dict[str, int], parsed: _ParsedLines,
) -> int:
    """Read the body of ``f``, whose header is code line ``at``, one block
    at a time; returns the index of its closing ``}``.  Errors come in
    line order: those of a block, then those of the next one, then a
    missing ``}``."""
    header_line = linenos[at]
    if lines[at + 1 : at + 2] != ["{"]:
        raise IrParseError("expected '{' after func header", header_line)
    start = at + 2
    try:
        end = lines.index("}", start)
    except ValueError:
        end = len(lines)
    own = labels[bisect_left(labels, start) : bisect_left(labels, end)]
    if start < end and own[:1] != [start]:
        raise IrParseError("instruction before first block label", linenos[start])
    for k, stop in zip(own, own[1:] + [end]):
        line = lines[k]
        if not line.endswith(":"):
            raise IrParseError("block label must end with ':'", linenos[k])
        label = line[1:-1]
        if not _LABEL_RE.match(label):
            raise IrParseError(f"bad block label '{label}'", linenos[k])
        where = f"{f.mangled_name}/^{label}"
        if where in heads:
            raise IrParseError(f"duplicate block label '{label}'", linenos[k])
        heads[where] = k
        try:
            instructions = list(map(parsed.__getitem__, lines[k + 1 : stop]))
        except IrParseError:
            # The block's first line that did not parse, with its number.
            bad = next(i for i in range(k + 1, stop) if lines[i] not in parsed)
            parse_instruction(lines[bad], linenos[bad])
            raise
        f.blocks.append(BasicBlock(label, instructions))
    if end == len(lines):
        raise IrParseError("unterminated function body", header_line)
    return end
