"""Numbers with more digits than ``int()`` reads.

Python refuses to convert a decimal string of more than 4,300 digits by
default.  In IR text such a number, wherever the grammar takes one, is
an ``IrParseError`` that names its line (and, on a header or region
line, its column), and the CLI reports it like any other parse error.
Every number ``int()`` does read parses as before.  The trace reader
refuses such numbers as malformed records, and the demangler leaves a
name whose length prefix is one unchanged, so a module that defines and
calls such a function instruments and runs.
"""

from __future__ import annotations

import pytest

from instrumenta.cli import main
from instrumenta.ir import IrParseError, parse_module, print_module
from instrumenta.runtime import TraceError, read_trace


def _int_refuses(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return True
    return False


LONG = "9" * 5000

pytestmark = pytest.mark.skipif(
    not _int_refuses(LONG), reason="this interpreter's int() reads any number of digits"
)

_HEAD = 'module "m"\n\nfunc @main file="a.c" lines=1:9\n{\n^e:\n'


def _body(*lines: str) -> str:
    """A module whose main holds ``lines`` (from line 6 on) and returns."""
    return _HEAD + "".join(f"  {line}\n" for line in lines) + "  li r0, 0\n  ret r0\n}\n"


def _region(line: str) -> str:
    return _body() + "\nregions:\n" + line + "\n"


REGION = 'region 0 name="a" canonical="b" file="c" lines={}:{} flags={}'

# (module text, line, column, message)
CASES = [
    (_body(f"li r1, {LONG}"), 6, 1, f"integer '{LONG}' has too many digits"),
    (_body(f"li r1, -{LONG}"), 6, 1, f"integer '-{LONG}' has too many digits"),
    (_body("li r1, 1", f"add r1, r{LONG}, r1"), 7, 1, f"register r{LONG} out of range"),
    (_body(f"work {LONG}"), 6, 1, f"integer '{LONG}' has too many digits"),
    (_body(f"hook.enter {LONG}"), 6, 1, f"integer '{LONG}' has too many digits"),
    (_body(f"call @main, r1, r{LONG}"), 6, 1, f"register r{LONG} out of range"),
    (_HEAD.replace("lines=1:9", f"lines={LONG}:9") + "  ret\n}\n", 3, 29,
     "lines= number has too many digits"),
    (_HEAD.replace("lines=1:9", f"lines=1:{LONG}") + "  ret\n}\n", 3, 31,
     "lines= number has too many digits"),
    (_region(f'region {LONG} name="a" canonical="b" file="c" lines=1:1 flags=0'), 11, 8,
     "region id has too many digits"),
    (_region(REGION.format(LONG, 1, 0)), 11, 48, "lines= number has too many digits"),
    (_region(REGION.format(1, LONG, 0)), 11, 50, "lines= number has too many digits"),
    (_region(REGION.format(1, 1, LONG)), 11, 58, "flags= number has too many digits"),
]


@pytest.mark.parametrize("text, line, col, message", CASES)
def test_parse_module_names_the_line(text, line, col, message):
    with pytest.raises(IrParseError) as exc:
        parse_module(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


@pytest.mark.parametrize("command", [["instrument", "--mode", "plugin", "-O0"], ["run"]])
@pytest.mark.parametrize("text, line, col, message", CASES)
def test_cli_reports_the_line(tmp_path, capsys, command, text, line, col, message):
    src = tmp_path / "long.ir"
    src.write_text(text, encoding="utf-8")
    argv = [command[0], str(src), *command[1:]]
    if command[0] == "instrument":
        argv += ["-o", str(tmp_path / "out.ir")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: line {line}, col {col}: {message}\n"


@pytest.mark.parametrize(
    "line, message",
    [
        # The longest numbers int() reads, leading zeros included, as before.
        ("li r1, " + "9" * 4300, None),
        ("li r1, " + "0" * 4290 + "7", None),
        ("li r" + "0" * 4290 + "16, 1", "register r16 out of range"),
        ("work " + "0" * 4290, "work needs n >= 1"),
        ("hook.enter -" + "0" * 4290 + "1", "region id must be non-negative"),
    ],
)
def test_numbers_int_reads_keep_their_messages(line, message):
    text = _body(line)
    if message is None:
        parse_module(text)
        return
    with pytest.raises(IrParseError) as exc:
        parse_module(text)
    assert str(exc.value) == f"line 6, col 1: {message}"


def test_header_numbers_int_reads_parse():
    m = parse_module(_region(REGION.format("0" * 4290 + "3", "0" * 10 + "4", "0" * 4290 + "5")))
    d = m.regions[0]
    assert (d.begin_lno, d.end_lno, d.flags) == (3, 4, 5)


@pytest.mark.parametrize(
    "record",
    [
        f"E {LONG} 2",
        f"E 1 {LONG}",
        f"X 1 {LONG}",
        f'D {LONG} "a" "b" "c" 1:2',
        f'D 2 "a" "b" "c" {LONG}:2',
        f'D 2 "a" "b" "c" 1:{LONG}',
    ],
)
def test_trace_reader_refuses_long_numbers(record):
    text = 'D 2 "f" "f" "a.c" 1:2\n' if not record.startswith("D") else ""
    lineno = text.count("\n") + 1
    kind = record[0]
    with pytest.raises(TraceError, match=f"^line {lineno}: malformed {kind} record$"):
        read_trace(text + record + "\n")


def test_long_length_prefix_instruments_and_runs(tmp_path, capsys):
    name = f"_Z{LONG}a"
    text = (
        'module "m"\n\nfunc @main file="a.c" lines=1:5\n{\n^e:\n'
        f"  call @{name}\n  li r0, 0\n  ret r0\n}}\n\n"
        f'func @{name} file="a.c" lines=6:9\n{{\n^e:\n  work 1\n  ret\n}}\n'
    )
    src, out = tmp_path / "m.ir", tmp_path / "out.ir"
    src.write_text(text, encoding="utf-8")
    assert main(["instrument", str(src), "-o", str(out), "--mode", "plugin", "-O0"]) == 0
    m = parse_module(out.read_text(encoding="utf-8"))
    assert [f.pretty_name for f in m.functions] == ["main", name]
    assert sorted(d.name for d in m.regions.values()) == [name, "main"]
    assert print_module(m) == out.read_text(encoding="utf-8")
    assert main(["run", str(out)]) == 0
    assert main(["run", str(src)]) == 0
    capsys.readouterr()
