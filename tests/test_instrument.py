import pytest

from conftest import load_corpus
from instrumenta.filters import FilterRuleSet, parse_filter
from instrumenta.instrument import (
    InstrumentError,
    enforce_finally,
    insert_entry_hook,
    instrument_module,
    make_region_descriptor,
    should_instrument,
)
from instrumenta.ir import (
    BasicBlock,
    Instruction,
    IrFunction,
    parse_module,
    print_module,
    validate,
)
from instrumenta.optimizer import O0, O1, O2, O3
from instrumenta.runtime import read_trace, write_trace
from instrumenta.vm import execute

I = Instruction.make

EXCLUDE_FUNC_STAR = parse_filter(
    "REGION_NAMES_BEGIN\nEXCLUDE func*\nREGION_NAMES_END\n"
)


def _plain_function(body=None, **kwargs):
    fields = dict(mangled_name="_Z4funci", file="a.c", begin_line=1, end_line=4)
    fields.update(kwargs)
    blocks = [BasicBlock("e", body or [I("work", 1), I("ret")])]
    return IrFunction(blocks=blocks, **fields)


class TestShouldInstrument:
    def test_builtin_is_skipped(self):
        f = _plain_function(attrs={"builtin"})
        d = should_instrument(f, FilterRuleSet(), "plugin")
        assert not d.instrument and d.reason == "builtin"

    @pytest.mark.parametrize(
        "attr", ["empty_body", "builtin", "openmp_internal", "artificial"]
    )
    def test_each_skip_attr(self, attr):
        body = [I("ret")] if attr == "empty_body" else None
        f = _plain_function(body=body, attrs={attr})
        for mode in ("plugin", "auto"):
            d = should_instrument(f, FilterRuleSet(), mode)
            assert not d.instrument and d.reason == attr

    def test_extern_is_skipped(self):
        f = IrFunction(mangled_name="puts", is_extern=True)
        d = should_instrument(f, FilterRuleSet(), "plugin")
        assert not d.instrument and d.reason == "extern"

    def test_compile_time_filter_in_plugin_mode(self):
        f = _plain_function()  # demangles to func(int)
        d = should_instrument(f, EXCLUDE_FUNC_STAR, "plugin")
        assert not d.instrument
        assert d.reason.startswith("compile_time_filter(")

    def test_auto_mode_ignores_rules(self):
        f = _plain_function()
        d = should_instrument(f, EXCLUDE_FUNC_STAR, "auto")
        assert d.instrument

    def test_plain_function_is_instrumented(self):
        d = should_instrument(_plain_function(), FilterRuleSet(), "plugin")
        assert d.instrument


class TestMakeRegionDescriptor:
    def test_fields_from_metadata(self):
        f = IrFunction(
            mangled_name="_Z4funci", file="jacobi.c", begin_line=13, end_line=21,
            blocks=[BasicBlock("e", [I("work", 1), I("ret")])],
        )
        d = make_region_descriptor(f, 0)
        assert d.name == "func(int)"
        assert d.canonical_name == "_Z4funci"
        assert d.file == "jacobi.c"
        assert (d.begin_lno, d.end_lno) == (13, 21)
        assert d.flags == 0

    def test_explicit_pretty_wins(self):
        f = _plain_function(demangled_name="my func")
        assert make_region_descriptor(f, 0).name == "my func"

    def test_successive_ids(self):
        f = _plain_function()
        assert make_region_descriptor(f, 5).region_id == 5
        assert make_region_descriptor(f, 6).region_id == 6

    def test_extern_rejected(self):
        with pytest.raises(InstrumentError):
            make_region_descriptor(IrFunction(mangled_name="x", is_extern=True), 0)


class TestInsertEntryHook:
    def test_before_terminator_when_no_call(self):
        f = _plain_function(body=[I("work", 5), I("ret")])
        out = insert_entry_hook(f, 3)
        assert out.blocks[0].instructions == [
            I("work", 5), I("hook.register", 3), I("hook.enter", 3), I("ret"),
        ]

    def test_before_first_call(self):
        f = _plain_function(body=[I("li", 0, 1), I("call", "g"), I("ret")])
        out = insert_entry_hook(f, 0)
        assert out.blocks[0].instructions == [
            I("li", 0, 1),
            I("hook.register", 0),
            I("hook.enter", 0),
            I("call", "g"),
            I("ret"),
        ]

    def test_terminator_only_block(self):
        f = IrFunction(
            mangled_name="f", file="a.c", begin_line=1, end_line=2,
            blocks=[
                BasicBlock("e", [I("jmp", "next")]),
                BasicBlock("next", [I("ret")]),
            ],
        )
        out = insert_entry_hook(f, 0)
        assert out.blocks[0].instructions == [
            I("hook.register", 0), I("hook.enter", 0), I("jmp", "next"),
        ]

    def test_double_instrumentation_rejected(self):
        out = insert_entry_hook(_plain_function(), 0)
        with pytest.raises(InstrumentError, match="already"):
            insert_entry_hook(out, 0)

    def test_extern_rejected(self):
        with pytest.raises(InstrumentError, match="^@puts has no entry block$"):
            insert_entry_hook(IrFunction(mangled_name="puts", is_extern=True), 0)

    def test_input_not_mutated(self):
        f = _plain_function()
        before = [i.op for i in f.blocks[0].instructions]
        insert_entry_hook(f, 0)
        assert [i.op for i in f.blocks[0].instructions] == before


class TestEnforceFinally:
    def test_single_bare_ret(self):
        f = _plain_function(
            body=[I("hook.register", 0), I("hook.enter", 0), I("ret")]
        )
        out = enforce_finally(f, 0)
        assert out.blocks[0].instructions[-1] == I("jmp", "__fin_ret")
        fin = out.block("__fin_ret")
        assert fin.instructions == [I("hook.exit", 0), I("ret")]
        unwind = out.block("__fin_unwind")
        assert unwind.instructions == [I("hook.exit", 0), I("rethrow")]

    def test_two_rets_share_one_exit_block(self):
        f = IrFunction(
            mangled_name="f", file="a.c", begin_line=1, end_line=9,
            blocks=[
                BasicBlock(
                    "e",
                    [
                        I("hook.register", 0),
                        I("hook.enter", 0),
                        I("jnz", 0, "a", "b"),
                    ],
                ),
                BasicBlock("a", [I("li", 1, 1), I("ret", 1)]),
                BasicBlock("b", [I("li", 2, 2), I("ret", 2)]),
            ],
        )
        out = enforce_finally(f, 0)
        assert out.block("a").instructions[-1] == I("jmp", "__fin_ret")
        assert out.block("b").instructions[-1] == I("jmp", "__fin_ret")
        # exactly one exit hook on the return path, one on the unwind path
        ret_path_exits = [
            i for i in out.block("__fin_ret").instructions if i.op == "hook.exit"
        ]
        all_exits = [
            i for b in out.blocks for i in b.instructions if i.op == "hook.exit"
        ]
        assert len(ret_path_exits) == 1
        assert len(all_exits) == 2

    def test_valued_ret_staged_through_r15(self):
        f = _plain_function(
            body=[I("hook.register", 0), I("hook.enter", 0), I("li", 3, 9), I("ret", 3)]
        )
        out = enforce_finally(f, 0)
        entry = out.blocks[0].instructions
        assert entry[-2:] == [I("addi", 15, 3, 0), I("jmp", "__fin_ret")]
        assert out.block("__fin_ret").instructions == [
            I("hook.exit", 0), I("ret", 15),
        ]

    def test_mixed_rets_get_a_bare_exit_block(self):
        f = IrFunction(
            mangled_name="f", file="a.c", begin_line=1, end_line=9,
            blocks=[
                BasicBlock(
                    "e",
                    [I("hook.register", 0), I("hook.enter", 0), I("jnz", 0, "a", "b")],
                ),
                BasicBlock("a", [I("li", 1, 1), I("ret", 1)]),
                BasicBlock("b", [I("ret")]),
            ],
        )
        out = enforce_finally(f, 0)
        assert out.block("a").instructions[-2:] == [I("addi", 15, 1, 0), I("jmp", "__fin_ret")]
        assert out.block("b").instructions == [I("jmp", "__fin_ret_bare")]
        assert out.block("__fin_ret").instructions == [I("hook.exit", 0), I("ret", 15)]
        assert out.block("__fin_ret_bare").instructions == [I("hook.exit", 0), I("ret")]

    @pytest.mark.parametrize("mode", ["auto", "plugin"])
    def test_bare_ret_of_a_mixed_function_keeps_the_callers_r0(self, mode):
        m = parse_module(
            'module "m"\n'
            'func @main file="a.c" lines=1:5\n{\n^e:\n  li r0, 7\n'
            "  call @_Z1fi, r1\n  ret r0\n}\n"
            'func @_Z1fi file="a.c" lines=6:12\n{\n^e:\n  jnz r0, ^v, ^b\n'
            "^v:\n  li r2, 5\n  ret r2\n^b:\n  ret\n}\n"
        )
        assert execute(m).exit_value == 7
        out = instrument_module(m, FilterRuleSet(), mode, O0)[0]
        assert not validate(out)
        assert execute(out).exit_value == 7

    def test_plain_calls_become_try_edges(self):
        f = _plain_function(
            body=[
                I("hook.register", 0),
                I("hook.enter", 0),
                I("call", "g"),
                I("work", 1),
                I("ret"),
            ]
        )
        out = enforce_finally(f, 0)
        entry = out.blocks[0].instructions
        assert entry[-1].op == "call.try"
        assert entry[-1].args[-1] == "__fin_unwind"
        cont = out.block(entry[-1].args[-2])
        assert cont.instructions[0] == I("work", 1)

    def test_extern_calls_stay_plain(self):
        f = _plain_function(
            body=[I("hook.register", 0), I("hook.enter", 0), I("call", "puts"), I("ret")]
        )
        out = enforce_finally(f, 0, extern_names=frozenset({"puts"}))
        ops = [i.op for b in out.blocks for i in b.instructions]
        assert "call" in ops and "call.try" not in ops

    def test_throw_routes_through_unwind_block(self):
        f = _plain_function(
            body=[I("hook.register", 0), I("hook.enter", 0), I("throw")]
        )
        out = enforce_finally(f, 0)
        assert out.blocks[0].instructions[-1] == I("jmp", "__fin_unwind")

    def test_rethrowing_handler_still_runs_exit_hook(self):
        # A handler that re-raises leaves the function; the finally must
        # fire on that path too or traces lose an exit.
        f = IrFunction(
            mangled_name="f", file="a.c", begin_line=1, end_line=9,
            blocks=[
                BasicBlock(
                    "e",
                    [
                        I("hook.register", 0),
                        I("hook.enter", 0),
                        I("call.try", "g", "ok", "handler"),
                    ],
                ),
                BasicBlock("ok", [I("ret")]),
                BasicBlock("handler", [I("rethrow")]),
            ],
        )
        out = enforce_finally(f, 0)
        assert out.block("handler").instructions == [I("jmp", "__fin_unwind")]

    def test_user_handler_edges_untouched(self):
        f = IrFunction(
            mangled_name="f", file="a.c", begin_line=1, end_line=9,
            blocks=[
                BasicBlock(
                    "e",
                    [
                        I("hook.register", 0),
                        I("hook.enter", 0),
                        I("call.try", "g", "ok", "handler"),
                    ],
                ),
                BasicBlock("ok", [I("ret")]),
                BasicBlock("handler", [I("work", 1), I("ret")]),
            ],
        )
        out = enforce_finally(f, 0)
        assert out.blocks[0].instructions[-1] == I("call.try", "g", "ok", "handler")

    def test_requires_entry_hook(self):
        with pytest.raises(InstrumentError, match="entry hook"):
            enforce_finally(_plain_function(), 0)

    def test_existing_exit_hooks_rejected(self):
        out = enforce_finally(insert_entry_hook(_plain_function(), 0), 0)
        with pytest.raises(InstrumentError, match="^@_Z4funci already has exit hooks$"):
            enforce_finally(out, 0)

    def test_taken_exit_label_gets_a_number(self):
        m = parse_module(
            'module "m"\nfunc @main file="a.c" lines=1:4\n'
            "{\n^e:\n  li r0, 7\n  jmp ^__fin_ret\n^__fin_ret:\n  ret r0\n}\n"
        )
        out, _, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        main = out.function("main")
        assert [b.label for b in main.blocks] == [
            "e", "__fin_ret", "__fin_ret2", "__fin_unwind",
        ]
        assert main.block("__fin_ret").instructions[-1] == I("jmp", "__fin_ret2")
        assert execute(out).exit_value == execute(m).exit_value == 7


_EMPTIED_BY_INLINING = """\
module "m"

func @main file="a.c" lines=1:5
{
^e:
  li r1, 7
  call @mid
  addi r0, r1, 0
  ret r0
}

func @mid file="a.c" lines=6:9
{
^e:
  call @empty
  ret
}

func @empty file="a.c" lines=10:11
{
^e:
  ret
}
"""


class TestInstrumentModule:
    def test_listing1_plugin_o0(self, listing1):
        out, report, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        descs = [out.regions[r] for r in sorted(out.regions)]
        assert report.instrumented == [("main", 0), ("_Z4funci", 1)]
        assert report.skipped == []
        assert [d.region_id for d in descs] == [0, 1]
        assert descs[1].name == "func(int)"
        result = execute(out)
        kinds = [e.kind for e in result.events]
        assert kinds.count("E") == 7
        assert kinds.count("X") == 7
        read_trace(write_trace(result.events))  # nesting-valid

    def test_compile_time_filter_removes_hooks_entirely(self, listing1):
        out, report, _ = instrument_module(listing1, EXCLUDE_FUNC_STAR, "plugin", O0)
        assert [name for name, _ in report.instrumented] == ["main"]
        skipped = dict(report.skipped)
        assert skipped["_Z4funci"].startswith("compile_time_filter(")
        func = out.function("_Z4funci")
        assert not any(i.is_hook for b in func.blocks for i in b.instructions)
        result = execute(out)
        kinds = [e.kind for e in result.events]
        assert kinds.count("E") == 1
        assert kinds.count("X") == 1

    def test_file_rules_exclude_whole_source_files(self, listing1):
        rules = parse_filter(
            "FILE_NAMES_BEGIN\nEXCLUDE listing1.c\nFILE_NAMES_END\n"
        )
        out, report, _ = instrument_module(listing1, rules, "plugin", O0)
        assert report.instrumented == []
        assert execute(out).events == []

    def test_auto_vs_plugin_event_counts(self, inline_leaves):
        def enters(mode, level):
            out, _, _ = instrument_module(inline_leaves, FilterRuleSet(), mode, level)
            return sum(1 for e in execute(out).events if e.kind == "E")

        auto = [enters("auto", lv) for lv in (O0, O1, O2, O3)]
        plugin = [enters("plugin", lv) for lv in (O0, O1, O2, O3)]
        assert len(set(auto)) == 1
        assert plugin == sorted(plugin, reverse=True)
        assert plugin[3] < plugin[0]
        assert auto[0] == plugin[0]  # identical at O0

    def test_report_covers_every_function_once(self):
        m = load_corpus("attrs_skip.ir")
        _, report, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        names = [n for n, _ in report.instrumented] + [n for n, _ in report.skipped]
        assert sorted(names) == sorted(f.mangled_name for f in m.functions)
        skipped = dict(report.skipped)
        assert skipped["_Z5emptyv"] == "empty_body"
        assert skipped["_Z7builtini"] == "builtin"
        assert skipped["omp_helper"] == "openmp_internal"
        assert skipped[".omp_outlined."] == "artificial"

    def test_function_emptied_by_inlining_is_skipped_in_plugin_mode(self):
        # At O1 inlining @empty leaves @mid a lone ret: plugin mode, which
        # instruments the optimised code, skips it like one written empty;
        # auto mode instruments the body as written.
        m = parse_module(_EMPTIED_BY_INLINING)
        expected = execute(m).exit_value
        assert expected == 7
        out, report, _ = instrument_module(m, FilterRuleSet(), "plugin", O1)
        assert ("mid", "empty_body") in report.skipped
        assert execute(out).exit_value == expected
        out, report, _ = instrument_module(m, FilterRuleSet(), "auto", O1)
        assert "mid" in dict(report.instrumented)
        assert execute(out).exit_value == expected

    def test_empty_body_attr_on_a_real_body_is_inert(self):
        text = (
            'module "m"\n\nfunc @main file="a.c" lines=1:2 attrs=empty_body\n'
            "{\n^e:\n  li r0, 3\n  ret r0\n}\n"
        )
        m = parse_module(text)
        assert print_module(m) == text
        out, report, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        assert report.instrumented == [("main", 0)]
        assert report.skipped == []
        assert execute(out).exit_value == 3

    def test_extern_skipped(self):
        m = load_corpus("extern_call.ir")
        _, report, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        skipped = dict(report.skipped)
        assert skipped["puts"] == "extern"

    def test_instrumented_module_is_valid_and_prints(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        assert validate(out) == []
        assert parse_module(print_module(out)) == out

    def test_double_instrumentation_rejected(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        with pytest.raises(InstrumentError, match="already instrumented"):
            instrument_module(out, FilterRuleSet(), "plugin", O0)

    def test_hook_pairing_invariant(self, listing1, hotloop, inline_leaves):
        for m in (listing1, hotloop, inline_leaves):
            out, report, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
            for name, _ in report.instrumented:
                f = out.function(name)
                flat = [i for b in f.blocks for i in b.instructions]
                registers = [i for i in flat if i.op == "hook.register"]
                assert len(registers) == 1
                idx = flat.index(registers[0])
                assert flat[idx + 1].op == "hook.enter"
                assert sum(1 for i in flat if i.op == "hook.exit") == 2

    def test_region_file_falls_back_to_module_source(self):
        text = 'module "m"\nfunc @f file="" lines=1:2\n{\n^e:\n  work 1\n  ret\n}\n'
        m = parse_module(text, source_name="origin.ir")
        out, _, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        assert out.regions[0].file == "origin.ir"

    def test_balance_over_exception_corpus(self):
        for name in ("throw_catch.ir", "throw_uncaught.ir", "throw_deep.ir"):
            m = load_corpus(name)
            for mode in ("plugin", "auto"):
                out, _, _ = instrument_module(m, FilterRuleSet(), mode, O1)
                result = execute(out)
                read_trace(write_trace(result.events))
                per_handle = {}
                for ev in result.events:
                    if ev.kind in ("E", "X"):
                        key = (ev.handle, ev.kind)
                        per_handle[key] = per_handle.get(key, 0) + 1
                handles = {h for h, _ in per_handle}
                for h in handles:
                    assert per_handle.get((h, "E"), 0) == per_handle.get((h, "X"), 0)

    def test_mode_law_on_generated_modules(self):
        # Whatever the module, auto-mode enter counts are level-
        # independent and plugin-mode counts never grow with the level.
        import random

        import gens

        rng = random.Random(99)
        for _ in range(20):
            m = gens.terminating_module(rng)
            auto, plugin = [], []
            for level in (O0, O1, O2, O3):
                a, _, _ = instrument_module(m, FilterRuleSet(), "auto", level)
                p, _, _ = instrument_module(m, FilterRuleSet(), "plugin", level)
                auto.append(
                    sum(1 for e in execute(a, step_limit=10**6).events if e.kind == "E")
                )
                plugin.append(
                    sum(1 for e in execute(p, step_limit=10**6).events if e.kind == "E")
                )
            assert len(set(auto)) == 1
            assert all(x >= y for x, y in zip(plugin, plugin[1:]))

    def test_throw_catch_event_order(self):
        m = load_corpus("throw_catch.ir")
        out, _, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        result = execute(out)
        names = {
            e.handle: e.descriptor.name for e in result.events if e.kind == "D"
        }
        seq = [(e.kind, names[e.handle]) for e in result.events if e.kind in "EX"]
        assert seq == [("E", "main"), ("E", "f()"), ("X", "f()"), ("X", "main")]
        assert result.exit_value == 0
        assert not result.uncaught
