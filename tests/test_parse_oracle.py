"""Differential oracle: ``parse_module`` against the parser that walked
its text through a line cursor.

``reference_parse_module`` is ``parse_module`` as it was written before
the parser read one list of code lines: its ``_Parser`` cursor (with
``next_line``/``peek_line``), ``_parse_lines``, ``_parse_body`` and the
stores that kept a source line for every function, block and
instruction, verbatim.  The instruction, header and region readers they
call are the current ones, which this change leaves alone.

Every text, seeded mutants of the corpus, its instrumented prints and a
benchmark program, and the explicit rows below, must give the same
outcome on both parsers: an equal ``repr`` for a module either accepts,
and the same exception class, line, column and message for one either
rejects.
"""

from __future__ import annotations

import functools
import random

import pytest

from conftest import corpus_paths
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import InstrumentError, instrument_module
from instrumenta.ir import (
    _BLANKS_RE,
    _LABEL_RE,
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    IrParseError,
    IrValidationError,
    _parse_func_header,
    _parse_region_line,
    _parse_target,
    _read_quoted,
    _strip_comment,
    _SyntaxAt,
    parse_instruction,
    parse_module,
    print_module,
    validate,
)
from instrumenta.optimizer import O0, O2
from test_vm_patch import _workload


# ---------------------------------------------------------------------------
# The reference: the cursor-driven parser, verbatim.


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


def reference_parse_module(text: str, source_name: str = "") -> IrModule:
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
    pos = _BLANKS_RE.match(line, len("module")).end()
    name, end = _read_quoted(line, pos)
    rest = line[end:].lstrip()
    if rest:
        raise _SyntaxAt("unexpected text after module name", len(line) - len(rest))
    module = IrModule(name=name, source_file_default=source_name)
    # Source lines by validate's where: function, block, instruction.
    seen_names: dict[str, int] = {}
    block_lines: dict[str, int] = {}
    instr_lines: dict[tuple[str, int], int] = {}
    parsed: dict[str, Instruction] = {}

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
            _parse_body(p, f, block_lines, instr_lines, parsed, lineno)
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

    violations = validate(module)
    if violations:
        # validate judges structure; the parser only names the source line
        # of its first violation.  Region violations have none.
        v = violations[0]
        lines = {**seen_names, **block_lines}
        lines.update((f"{where}[{i}]", n) for (where, i), n in instr_lines.items())
        if v.where in lines:
            raise IrParseError(str(v), lines[v.where])
        raise IrValidationError(violations)
    return module


def _parse_body(
    p: _Parser,
    f: IrFunction,
    block_lines: dict[str, int],
    instr_lines: dict[tuple[str, int], int],
    parsed: dict[str, Instruction],
    header_line: int,
) -> None:
    item = p.next_line()
    if item is None or item[1] != "{":
        raise IrParseError("expected '{' after func header", header_line)
    current: BasicBlock | None = None
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
            where = f"{f.mangled_name}/^{label}"
            if where in block_lines:
                raise IrParseError(f"duplicate block label '{label}'", lineno)
            block_lines[where] = lineno
            current = BasicBlock(label)
            f.blocks.append(current)
            continue
        if current is None:
            raise IrParseError("instruction before first block label", lineno)
        # Instructions are immutable, so equal lines share one parse.
        ins = parsed.get(line)
        if ins is None:
            ins = parsed[line] = parse_instruction(line, lineno)
        instr_lines[(where, len(current.instructions))] = lineno
        current.instructions.append(ins)


# ---------------------------------------------------------------------------
# Inputs


def _outcome(parse, text: str) -> tuple:
    try:
        return ("accepted", repr(parse(text, source_name="m.ir")))
    except Exception as exc:  # any rejection, as long as both agree
        return (type(exc), getattr(exc, "line", None), getattr(exc, "col", None),
                str(exc))


@functools.lru_cache(maxsize=None)
def _sources() -> tuple[str, ...]:
    """The corpus, its plugin -O0 and auto -O2 prints, and trace_loop's
    program."""
    out = []
    for path in corpus_paths():
        text = path.read_text(encoding="utf-8")
        out.append(text)
        m = parse_module(text)
        for mode, level in (("plugin", O0), ("auto", O2)):
            try:
                built, _, _ = instrument_module(m, FilterRuleSet(), mode, level)
            except InstrumentError:  # a corpus module that is already hooked
                continue
            out.append(print_module(built))
    out.append(_workload("trace_loop", 7).files["app.ir"])
    return tuple(out)


# Tokens that the parser treats specially, placed at random.
_STRAY = ["{", "}", "^b:", "^entry:", "ret", "jmp ^entry", "regions:", "region 0",
          "func", "extern @f", ";", '"', "\t", ",", "@", "^", "attrs=builtin",
          "lines=3:1", 'file="x.c"', "r99", "-1", "hook.enter 7", "\r"]


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` with 1 to 3 line deletions, duplications, swaps, stray
    tokens or junk suffixes."""
    lines = text.split("\n")
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(lines))
        kind = rng.randrange(5)
        if kind == 0 and len(lines) > 1:
            del lines[i]
        elif kind == 1:
            lines.insert(i, lines[i])
        elif kind == 2:
            j = rng.randrange(len(lines))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == 3:
            at = rng.randint(0, len(lines[i]))
            lines[i] = lines[i][:at] + rng.choice(_STRAY) + lines[i][at:]
        else:
            lines[i] += rng.choice([" x", ",", " ; c", '"', " r1", ":", " 0"])
    return "\n".join(lines)


def _mutants(seed: int, count: int) -> list[str]:
    rng = random.Random(seed)
    sources = _sources()
    return [_mutate(rng.choice(sources), rng) for _ in range(count)]


# ---------------------------------------------------------------------------
# Tests


def test_sources_match_reference():
    for text in _sources():
        assert _outcome(parse_module, text) == _outcome(reference_parse_module, text)
        assert _outcome(parse_module, text)[0] == "accepted"


@pytest.mark.parametrize("seed", [1, 2])
def test_mutants_match_reference(seed):
    rejected: set[str] = set()
    accepted = 0
    for text in _mutants(seed, 4000):
        outcome = _outcome(parse_module, text)
        assert outcome == _outcome(reference_parse_module, text), text
        if outcome[0] == "accepted":
            accepted += 1
        else:
            rejected.add(outcome[3])
    # Both outcomes occur, and the lines derived from a block's label do.
    assert accepted > 0
    for code in ("missing-terminator", "terminator-mid-block", "unknown-region",
                 "undefined-label"):
        assert any(f": {code} at " in message for message in rejected), code


_HEADER = 'func @{} file="a.c" lines=1:9'
_REGION = 'region {0} name="r{0}" canonical="r{0}" file="a.c" lines=1:2 flags=0'

ROWS = {
    # The third instruction's line, past blank and comment lines.
    "third-instruction": (
        'module "m"\n' + _HEADER.format("main") + "\n{\n^entry:\n  li r1, 1\n\n"
        "  ; between\n  li r2, 2\n  ; again\n\n  jmp ^nowhere\n}\n",
        (IrParseError, 11, 1,
         "line 11, col 1: undefined-label at main/^entry[2]: ^nowhere not defined"),
    ),
    # A region line after a func that follows the table is top-level.
    "stray-region": (
        'module "m"\n' + _HEADER.format("main") + "\n{\n^entry:\n  hook.enter 0\n"
        "  ret\n}\nregions:\n" + _REGION.format(0) + "\n" + _HEADER.format("g")
        + "\n{\n^entry:\n  ret\n}\n" + _REGION.format(1) + "\n",
        (IrParseError, 15, 1, "line 15, col 1: unexpected top-level line '"
         + _REGION.format(1) + "'"),
    ),
    "second-table": (
        'module "m"\n' + _HEADER.format("main") + "\n{\n^entry:\n  hook.enter 0\n"
        "  hook.exit 1\n  ret\n}\nregions:\n" + _REGION.format(0) + "\n"
        + "extern @g\nregions:\n\n" + _REGION.format(1) + "\n",
        ("accepted",),
    ),
    "second-table-repeats-id": (
        'module "m"\nregions:\n' + _REGION.format(0) + "\nregions:\n"
        + _REGION.format(0) + "\n",
        (IrParseError, 5, 1, "line 5, col 1: duplicate region id 0"),
    ),
    "ends-after-header": (
        'module "m"\n; nothing follows\n' + _HEADER.format("main") + "\n\n",
        (IrParseError, 3, 1, "line 3, col 1: expected '{' after func header"),
    ),
    "tab-indented-header": (
        'module "m"\n\t\tfunc @main file="a.c" lines=1:9 attrs=bogus\n{\n^e:\n ret\n}\n',
        (IrParseError, 2, 41, "line 2, col 41: unknown attribute 'bogus'"),
    ),
    "crlf": (
        'module "m"\r\n' + _HEADER.format("main") + "\r\n{\r\n^entry:\r\n  ret\r\n}\r\n",
        ("accepted",),
    ),
    "comment-only": (
        "; a comment\n\n   ; another\n",
        (IrParseError, 1, 1, "line 1, col 1: missing module line"),
    ),
}


@pytest.mark.parametrize("name", ROWS)
def test_rows_match_reference(name):
    text, expected = ROWS[name]
    outcome = _outcome(parse_module, text)
    assert outcome == _outcome(reference_parse_module, text)
    assert outcome[: len(expected)] == expected


def test_crlf_parses_like_lf():
    text = ROWS["crlf"][0]
    assert parse_module(text) == parse_module(text.replace("\r\n", "\n"))
