import random

import pytest

import gens
from conftest import corpus_paths, load_corpus
from instrumenta.filters import FilterRuleSet, RegionRule
from instrumenta.instrument import instrument_module
from instrumenta.ir import (
    BasicBlock,
    Instruction,
    IrError,
    IrFunction,
    IrModule,
    IrParseError,
    IrValidationError,
    format_instruction,
    is_empty_body,
    parse_module,
    print_module,
    validate,
)
from instrumenta.optimizer import O0, O1, O2, O3, inline_pass
from instrumenta.vm import execute

I = Instruction.make


class TestParse:
    def test_empty_module(self):
        m = parse_module('module "m"')
        assert m.name == "m"
        assert m.functions == []

    def test_listing1_structure(self, listing1):
        assert [f.mangled_name for f in listing1.functions] == ["main", "_Z4funci"]
        main = listing1.function("main")
        assert [b.label for b in main.blocks] == ["init", "loop", "exit"]
        func = listing1.function("_Z4funci")
        assert func.pretty_name == "func(int)"
        assert func.file == "listing1.c"
        assert (func.begin_line, func.end_line) == (13, 20)

    def test_undefined_label(self):
        text = 'module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  jmp ^nowhere\n}\n'
        with pytest.raises(IrParseError, match="nowhere") as err:
            parse_module(text)
        assert err.value.line == 5

    def test_undefined_call_target(self):
        text = 'module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  call @ghost\n  ret\n}\n'
        with pytest.raises(IrParseError, match="ghost"):
            parse_module(text)

    def test_duplicate_function_name(self):
        body = '{\n^e:\n  ret\n}\n'
        text = (
            'module "m"\n'
            'func @_Z4funci file="a.c" lines=1:2\n' + body +
            'func @_Z4funci file="a.c" lines=3:4\n' + body
        )
        with pytest.raises(IrParseError, match="duplicate"):
            parse_module(text)

    def test_extern_resolves_call(self):
        text = 'module "m"\nextern @puts\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  call @puts\n  ret\n}\n'
        m = parse_module(text)
        assert m.function("puts").is_extern

    def test_syntax_error_has_position(self):
        with pytest.raises(IrParseError) as err:
            parse_module('module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  bogus r0\n}\n')
        assert err.value.line == 5

    def test_register_out_of_range(self):
        with pytest.raises(IrParseError, match="r16"):
            parse_module('module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  li r16, 0\n  ret\n}\n')

    def test_too_many_call_args(self):
        args = ", ".join(f"r{i}" for i in range(9))
        with pytest.raises(IrParseError, match="8"):
            parse_module(
                f'module "m"\nfunc @f file="a.c" lines=1:2\n{{\n^e:\n  call @f, {args}\n  ret\n}}\n'
            )

    def test_comments_and_whitespace(self):
        text = (
            'module "m"  ; trailing comment\n'
            "\n"
            '; full line comment\n'
            'func @f file="a;b.c" lines=1:2\n'
            "{\n"
            "^e:\n"
            "  work 3   ; cost\n"
            "  ret\n"
            "}\n"
        )
        m = parse_module(text)
        assert m.function("f").file == "a;b.c"
        assert m.function("f").blocks[0].instructions[0] == I("work", 3)

    def test_empty_body_attr_is_derived(self):
        # The fact is read from the body; the parser stores no attribute.
        text = 'module "m"\n\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  ret\n}\n'
        m = parse_module(text)
        assert m.function("f").attrs == set()
        assert is_empty_body(m.function("f"))
        assert print_module(m) == text

    def test_missing_terminator_rejected(self):
        with pytest.raises(IrError):
            parse_module('module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  work 1\n}\n')

    def test_quoted_escapes(self):
        text = 'module "a\\"b"\nfunc @f file="c:\\\\dir" lines=1:2\n{\n^e:\n  ret\n}\n'
        m = parse_module(text)
        assert m.name == 'a"b'
        assert m.function("f").file == "c:\\dir"

    def test_trailing_junk_after_module_name(self):
        with pytest.raises(IrParseError, match="after module name"):
            parse_module('module "m" stuff')

    def test_unterminated_body(self):
        with pytest.raises(IrParseError, match="unterminated"):
            parse_module('module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  ret\n')

    def test_missing_brace(self):
        with pytest.raises(IrParseError, match="expected"):
            parse_module('module "m"\nfunc @f file="a.c" lines=1:2\n^e:\n  ret\n}\n')

    def test_instruction_before_label(self):
        with pytest.raises(IrParseError, match="before first block label"):
            parse_module('module "m"\nfunc @f file="a.c" lines=1:2\n{\n  ret\n}\n')

    def test_unexpected_top_level(self):
        with pytest.raises(IrParseError, match="top-level"):
            parse_module('module "m"\nret\n')

    def test_func_header_missing_file(self):
        with pytest.raises(IrParseError, match="file="):
            parse_module('module "m"\nfunc @f lines=1:2\n{\n^e:\n  ret\n}\n')

    def test_bad_region_line(self):
        with pytest.raises(IrParseError):
            parse_module('module "m"\nregions:\nregion x name="f"\n')

    def test_regions_section_roundtrip(self):
        text = (
            'module "m"\n'
            'func @f file="a.c" lines=1:2\n{\n^e:\n  hook.register 0\n  hook.enter 0\n'
            "  hook.exit 0\n  ret\n}\n"
            "regions:\n"
            'region 0 name="f()" canonical="_Z1fv" file="a.c" lines=1:2 flags=0\n'
        )
        m = parse_module(text)
        assert m.regions[0].canonical_name == "_Z1fv"
        assert parse_module(print_module(m)) == m

    def test_duplicate_region_id(self):
        text = (
            'module "m"\nregions:\n'
            'region 0 name="a" canonical="a" file="x" lines=1:1 flags=0\n'
            'region 0 name="b" canonical="b" file="x" lines=1:1 flags=0\n'
        )
        with pytest.raises(IrParseError, match="duplicate region"):
            parse_module(text)


_BODY = "\n{\n^e:\n  ret\n}\n"


def _func(header):
    return 'module "m"\n' + header + _BODY


def _region(line):
    return 'module "m"\nfunc @f file="a.c" lines=1:2' + _BODY + "regions:\n" + line


@pytest.mark.parametrize(
    "text, line, col, message",
    [
        ('module "a\\x"', 1, 10, "bad escape"),
        ('module "a\\x', 1, 10, "bad escape"),
        ('module "a', 1, 8, "unterminated string"),
        ("module a", 1, 8, "expected quoted string"),
        ('module "a" b', 1, 12, "unexpected text after module name"),
        ('  module "a\\x"', 1, 12, "bad escape"),
        ('module "a\\x" ; "b"', 1, 10, "bad escape"),
        (_func('func @f pretty="a\\x" file="a.c" lines=1:2'), 2, 18, "bad escape"),
        (_func('\tfunc @f pretty="a\\x" file="a.c" lines=1:2'), 2, 19, "bad escape"),
        (_func('func @f file="a.c lines=1:2'), 2, 14, "unterminated string"),
        (_func("func @f file=a.c lines=1:2"), 2, 14, "expected quoted string"),
        (_func('func @f file="a.c" lines=1'), 2, 26, "lines= needs <a>:<b>"),
        (_func('func @f file="a.c" lines=1:2 attrs=9'), 2, 36,
         "attrs= needs a name list"),
        (_func('func @f file="a.c" lines=1:2 attrs=builtin,bogus'), 2, 44,
         "unknown attribute 'bogus'"),
        (_func('func @f file="a.c" lines=1:2 junk'), 2, 30,
         "unexpected token 'junk' in func header"),
        (_func('func f file="a.c" lines=1:2'), 2, 6, "func needs @name"),
        (_func('func @9f file="a.c" lines=1:2'), 2, 7, "bad function name '9f'"),
        (_func('func @f file="a.c"'), 2, 1, "func header needs file= and lines="),
        (_func('func @f file="a.c" lines=1:2 file="b.c"'), 2, 30,
         "repeated key 'file=' in func header"),
        (_func('func @main file="a.c" lines=1:2 lines=5:9 file="b.c"'), 2, 33,
         "repeated key 'lines=' in func header"),
        (_func('func @f pretty="f()" file="a.c" pretty="g()" lines=1:2'), 2, 33,
         "repeated key 'pretty=' in func header"),
        (_func('func @f file="a.c" lines=1:2 attrs=builtin attrs=builtin'), 2, 44,
         "repeated key 'attrs=' in func header"),
        (_func('  func @f lines=1:2 file="a.c"\tlines=1:2'), 2, 32,
         "repeated key 'lines=' in func header"),
        (_region('region 0 name="a\\x" canonical="b" file="c" lines=1:1 flags=0'),
         8, 17, "bad escape"),
        (_region('region 0 name="a" canonicl="b" file="c" lines=1:1 flags=0'),
         8, 18, "region line needs canonical="),
        (_region('region 0 name="a" canonical="b" fil="c" lines=1:1 flags=0'),
         8, 32, "region line needs file="),
        (_region('region 0 name="a" canonical="b" file=c lines=1:1 flags=0'),
         8, 38, "expected quoted string"),
        (_region('region 0 name="a" canonical="b" file="c'), 8, 38,
         "unterminated string"),
        (_region('region 0 name="a" canonical="b" file="c" lines=1:1 flags=x'),
         8, 41, "region line needs lines=<a>:<b> flags=<u32>"),
        (_region('region x name="a"'), 8, 8, "region line needs <id> name=..."),
    ],
)
def test_header_error_position(text, line, col, message):
    with pytest.raises(IrParseError) as exc:
        parse_module(text)
    assert (exc.value.line, exc.value.col) == (line, col)
    assert str(exc.value) == f"line {line}, col {col}: {message}"


_SPACED = (
    'module "m"\n'
    'func @f pretty="f()" file="a.c" lines=1:2 attrs=builtin' + _BODY
)


@pytest.mark.parametrize(
    "module_line, header",
    [
        ('module\t"m"',
         'func\t@f\tpretty="f()"\tfile="a.c"\tlines=1:2\tattrs=builtin'),
        ('module \t "m"',
         'func @f \t pretty="f()"  file="a.c"\t lines=1:2 attrs=builtin'),
        ('\tmodule\t"m"\t',
         '\tfunc@f\tpretty="f()"file="a.c"\t\tlines=1:2\tattrs=builtin\t'),
    ],
)
def test_header_tabs_parse_like_spaces(module_line, header):
    assert parse_module(module_line + "\n" + header + _BODY) == parse_module(_SPACED)


@pytest.mark.parametrize(
    "text, col, message",
    [
        (_func('func\t@9f\tfile="a.c"\tlines=1:2'), 7, "bad function name '9f'"),
        (_func('func\t@f\tfile="a.c"\tlines=1'), 26, "lines= needs <a>:<b>"),
        (_func('func\t@f\tfile="a.c"\tlines=1:2\tjunk'), 30,
         "unexpected token 'junk' in func header"),
        (_func("func\t@f"), 1, "func header needs file= and lines="),
    ],
)
def test_tabbed_header_error_position(text, col, message):
    with pytest.raises(IrParseError) as exc:
        parse_module(text)
    assert str(exc.value) == f"line 2, col {col}: {message}"


def _body(*lines):
    return 'module "m"\nfunc @f file="a.c" lines=1:2\n{\n' + "\n".join(lines) + "\n}\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ('module "m"\nextern @puts\nextern @puts\n', 3, "duplicate function name 'puts'"),
        (_func('func @puts file="a.c" lines=1:2') + "extern @puts\n", 7,
         "duplicate function name 'puts'"),
        (_body("^e", "  ret"), 4, "block label must end with ':'"),
        (_body("^9e:", "  ret"), 4, "bad block label '9e'"),
        (_body("^e:", "  jmp ^e", "^e:", "  ret"), 6, "duplicate block label 'e'"),
    ],
)
def test_extern_and_block_label_error_position(text, line, message):
    with pytest.raises(IrParseError) as exc:
        parse_module(text)
    assert str(exc.value) == f"line {line}, col 1: {message}"


def test_instruction_lines_take_no_tab_after_the_mnemonic():
    with pytest.raises(IrParseError, match="unknown instruction 'ret\\tr0'"):
        parse_module('module "m"\nfunc @f file="a.c" lines=1:2\n{\n^e:\n  ret\tr0\n}\n')


# A valid function, a comment and a blank line, then the function under
# test, whose header is line 9 of the text.
_BEFORE = (
    'module "m"\nfunc @ok file="a.c" lines=1:2\n{\n^e:\n  ret\n}\n'
    "; the next function is the one checked\n\n"
)


@pytest.mark.parametrize(
    "func, line, violation",
    [
        ('func @main file="a.c" lines=1:2\n{\n^e:\n  jmp ^f\n^f:\n  li r0, 1\n}\n',
         13, "missing-terminator at main/^f: block does not end in terminator"),
        ('func @main file="a.c" lines=1:2\n{\n^e:\n^f:\n  ret\n}\n',
         11, "missing-terminator at main/^e: block is empty"),
        ('func @main file="a.c" lines=1:2\n{\n^e:\n  li r0, 1\n  ret\n  ret\n}\n',
         13, "terminator-mid-block at main/^e[1]: 'ret' before end of block"),
        ('func @main file="a.c" lines=1:2\n{\n}\n',
         9, "no-blocks at main: function has no blocks"),
        ('func @main file="a.c" lines=0:2\n{\n^e:\n  ret\n}\n',
         9, "bad-line at main: begin line not positive"),
        ('func @main file="a.c" lines=3:2\n{\n^e:\n  ret\n}\n',
         9, "line-range at main: begin line after end line"),
        ('func @main file="a.c" lines=1:2\n{\n^e:\n  li r0, 1\n  hook.enter 4\n  ret\n}\n',
         13, "unknown-region at main/^e[1]: region 4 not in table"),
        ('func @main file="a.c" lines=1:2\n{\n^e:\n  jmp ^f\n^f:\n  jnz r0, ^e, ^zz\n}\n',
         14, "undefined-label at main/^f[0]: ^zz not defined"),
        ('func @main file="a.c" lines=1:2\n{\n^e:\n  li r0, 1\n  call @zz, r0\n  ret\n}\n',
         13, "undefined-call-target at main/^e[1]: @zz not defined"),
    ],
    ids=[
        "missing-terminator", "empty-block", "terminator-mid-block", "no-blocks",
        "bad-line", "line-range", "unknown-region",
        "undefined-label", "undefined-call-target",
    ],
)
def test_validate_violation_names_its_source_line(func, line, violation):
    with pytest.raises(IrParseError) as exc:
        parse_module(_BEFORE + func)
    assert exc.value.line == line
    assert str(exc.value) == f"line {line}, col 1: {violation}"


_TWO_DEFECTS = """\
module "m"

func @a file="a.c" lines=1:2
{
^e:
  li r0, 1
}
func @main file="a.c" lines=3:4
{
^e:
  li r0, 1
  jmp ^zz
}
"""


@pytest.mark.parametrize(
    "text, line, violation",
    [
        # validate lists a's block before main's instruction.
        (_TWO_DEFECTS, 5, "missing-terminator at a/^e: block does not end in terminator"),
        # With a ended, main's undefined label is the first violation.
        (_TWO_DEFECTS.replace("li r0, 1\n}", "ret\n}", 1), 12,
         "undefined-label at main/^e[1]: ^zz not defined"),
    ],
)
def test_first_violation_in_validate_order_is_reported(text, line, violation):
    with pytest.raises(IrParseError) as exc:
        parse_module(text)
    assert str(exc.value) == f"line {line}, col 1: {violation}"



@pytest.mark.parametrize("seed", range(300))
def test_compiled_golden_variants_parse_back_byte_identically(seed):
    """No printed module of the compile-golden seeds repeats a header key."""
    m = gens.terminating_module(random.Random(seed))
    victim = m.functions[len(m.functions) // 2].mangled_name
    rules = FilterRuleSet(region_rules=(RegionRule("exclude", victim, True),))
    variants = [m] + [
        out
        for level in (O0, O1, O2, O3)
        for out in (
            inline_pass(m, level)[0],
            instrument_module(m, FilterRuleSet(), "auto", level)[0],
            instrument_module(m, FilterRuleSet(), "plugin", level)[0],
            instrument_module(m, rules, "plugin", level)[0],
        )
    ]
    for v in variants:
        text = print_module(v)
        assert print_module(parse_module(text)) == text


class TestPrint:
    def test_empty_module_exact(self):
        assert print_module(IrModule(name="m")) == 'module "m"\n'

    @pytest.mark.parametrize("path", corpus_paths(), ids=lambda p: p.name)
    def test_corpus_roundtrip(self, path):
        m = parse_module(path.read_text(encoding="utf-8"))
        printed = print_module(m)
        again = parse_module(printed)
        assert again == m
        # printing is idempotent: one normalize pass, then byte-stable
        assert print_module(again) == printed

    def test_instrumented_module_prints_hooks_and_regions(self, listing1):
        instrumented, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        printed = print_module(instrumented)
        assert "hook.enter 0" in printed
        assert "hook.enter 1" in printed
        assert "regions:" in printed
        assert 'region 1 name="func(int)" canonical="_Z4funci"' in printed
        assert parse_module(printed) == instrumented


def _valid_function(name="f"):
    return IrFunction(
        mangled_name=name,
        file="a.c",
        begin_line=1,
        end_line=2,
        blocks=[BasicBlock("e", [I("work", 1), I("ret")])],
    )


class TestValidate:
    def test_corpus_is_clean(self):
        for path in corpus_paths():
            assert validate(load_corpus(path.name)) == []

    def test_missing_terminator(self):
        f = _valid_function()
        f.blocks[0].instructions = [I("work", 1)]
        found = validate(IrModule(name="m", functions=[f]))
        assert [v.code for v in found] == ["missing-terminator"]

    def test_duplicate_name(self):
        m = IrModule(name="m", functions=[_valid_function("_Z4funci"), _valid_function("_Z4funci")])
        assert "duplicate-name" in [v.code for v in validate(m)]

    def test_terminator_mid_block(self):
        f = _valid_function()
        f.blocks[0].instructions = [I("ret"), I("work", 1), I("ret")]
        codes = [v.code for v in validate(IrModule(name="m", functions=[f]))]
        assert "terminator-mid-block" in codes

    def test_line_range(self):
        f = _valid_function()
        f.begin_line, f.end_line = 9, 3
        assert "line-range" in [v.code for v in validate(IrModule(name="m", functions=[f]))]

    def test_undefined_references(self):
        f = _valid_function()
        f.blocks[0].instructions = [I("call", "ghost"), I("jmp", "missing")]
        codes = {v.code for v in validate(IrModule(name="m", functions=[f]))}
        assert "undefined-call-target" in codes
        assert "undefined-label" in codes

    def test_bad_register_and_work(self):
        f = _valid_function()
        f.blocks[0].instructions = [I("li", 99, 0), I("work", 0), I("ret")]
        codes = {v.code for v in validate(IrModule(name="m", functions=[f]))}
        assert "bad-register" in codes
        assert "bad-work-count" in codes

    def test_empty_body_attr_is_inert(self):
        # The attribute may sit on any body, and a lone ret needs none.
        plain = _valid_function()
        plain.attrs = {"empty_body"}  # body is not a lone ret
        lone = IrFunction(
            mangled_name="g", file="a.c", begin_line=1, end_line=1,
            blocks=[BasicBlock("e", [I("ret")])],
        )
        assert validate(IrModule(name="m", functions=[plain, lone])) == []
        lone.attrs = {"empty_body"}
        assert validate(IrModule(name="m", functions=[plain, lone])) == []

    def test_extern_with_body(self):
        f = _valid_function()
        f.is_extern = True
        assert "extern-with-body" in [
            v.code for v in validate(IrModule(name="m", functions=[f]))
        ]

    def test_unknown_region(self):
        f = _valid_function()
        f.blocks[0].instructions = [I("hook.enter", 3), I("ret")]
        assert "unknown-region" in [
            v.code for v in validate(IrModule(name="m", functions=[f]))
        ]

    @pytest.mark.parametrize(
        "ins",
        [
            I("add", 1, 2),
            I("li", 1),
            I("li", 1, True),
            I("jmp"),
            I("jnz", 1, "e"),
            I("hook.enter"),
            I("work", "3"),
        ],
        ids=lambda ins: f"{ins.op}{ins.args}",
    )
    def test_bad_operands(self, ins):
        f = _valid_function("main")
        f.blocks[0].instructions = [ins] if ins.is_terminator else [ins, I("ret")]
        m = IrModule(name="m", functions=[f])
        assert [v.code for v in validate(m)] == ["bad-operands"]
        with pytest.raises(IrValidationError, match="bad-operands at main/\\^e\\[0\\]"):
            execute(m)

    def test_bad_operand_count_is_not_printed(self):
        with pytest.raises(ValueError, match="'li' takes operands 'ri', got \\(1,\\)"):
            format_instruction(I("li", 1))

    def test_violations_name_the_spot(self):
        f = _valid_function()
        f.blocks[0].instructions = [I("ret"), I("ret")]
        v = validate(IrModule(name="m", functions=[f]))[0]
        assert "f/^e[0]" in str(v)


class TestFuzz:
    def test_random_valid_modules_roundtrip(self):
        rng = random.Random(1)
        for _ in range(150):
            m = gens.printable_module(rng)
            assert validate(m) == []
            assert parse_module(print_module(m)) == m

    def test_fuzzed_text_never_crashes_parser(self):
        rng = random.Random(2)
        for _ in range(400):
            text = gens.garbage_text(rng)
            try:
                parse_module(text)
            except IrError:
                pass
