import pytest

from conftest import corpus_paths, load_corpus
from instrumenta.filters import FilterRuleSet
from instrumenta.instrument import insert_entry_hook, instrument_module
from instrumenta.ir import (
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    RegionDescriptor,
    parse_module,
    print_module,
    validate,
)
from instrumenta.optimizer import (
    INLINE_THRESHOLDS,
    O0,
    O1,
    O2,
    O3,
    OptLevel,
    inline_cost,
    inline_pass,
)
from instrumenta.vm import execute

I = Instruction.make

LEVELS = [O0, O1, O2, O3]


def _module(text):
    return parse_module(text)


CALLER_LEAF = '''\
module "m"

func @main file="a.c" lines=1:5
{
^e:
  li r1, 9
  call @_Z4leafv
  ret r1
}

func @_Z4leafv file="a.c" lines=7:9
{
^e:
  work 1
  ret
}
'''


class TestOptLevel:
    def test_thresholds_increase(self):
        values = [INLINE_THRESHOLDS[name] for name in ("O1", "O2", "O3")]
        assert values == sorted(values)
        assert all(a < b for a, b in zip(values, values[1:]))
        assert INLINE_THRESHOLDS["O0"] == 0

    def test_unknown_level(self):
        with pytest.raises(ValueError):
            OptLevel("O7")

    def test_threshold_is_read_from_the_table(self):
        assert {lv.level: lv.inline_threshold for lv in LEVELS} == INLINE_THRESHOLDS
        with pytest.raises(TypeError):
            OptLevel("O2", 99)


class TestInlineCost:
    def test_single_ret(self):
        f = IrFunction(
            mangled_name="f", file="a.c", begin_line=1, end_line=1,
            blocks=[BasicBlock("e", [I("ret")])], attrs={"empty_body"},
        )
        assert inline_cost(f) == 1

    def test_listing1_func_count(self, listing1):
        # entry jnz + (addi, call, jmp) + (li, ret) in the hand encoding
        assert inline_cost(listing1.function("_Z4funci")) == 6

    def test_extern_is_an_error(self):
        f = IrFunction(mangled_name="x", is_extern=True)
        with pytest.raises(ValueError):
            inline_cost(f)

    def test_hooks_count_as_instructions(self, listing1):
        func = listing1.function("_Z4funci")
        before = inline_cost(func)
        hooked = insert_entry_hook(func, 0)
        assert inline_cost(hooked) == before + 2


class TestInlinePass:
    def test_o0_is_identity(self, listing1):
        out, report = inline_pass(listing1, O0)
        assert out == listing1
        assert out is not listing1
        assert report.inlined_sites == []
        assert report.skipped == []

    def test_leaf_splice(self):
        m = _module(CALLER_LEAF)
        out, report = inline_pass(m, O2)
        body = out.function("main").blocks[0].instructions
        assert body == [I("li", 1, 9), I("work", 1), I("ret", 1)]
        assert len(report.inlined_sites) == 1
        site = report.inlined_sites[0]
        assert (site.caller, site.callee, site.block, site.index) == (
            "main", "_Z4leafv", "e", 1,
        )

    def test_recursive_never_inlined(self, listing1):
        for level in LEVELS:
            out, report = inline_pass(listing1, level)
            assert report.inlined_sites == []
            assert out == listing1
            if level is not O0:
                reasons = {r for s, r in report.skipped if s.callee == "_Z4funci"}
                assert reasons == {"recursive"}

    def test_no_inline_attr(self, hotloop):
        _, report = inline_pass(hotloop, O3)
        skipped = {s.callee: r for s, r in report.skipped}
        assert skipped.get("_Z6updatei") == "no_inline"
        assert all(s.callee != "_Z6updatei" for s in report.inlined_sites)

    def test_call_try_sites_never_inlined(self):
        m = _module(
            'module "m"\n'
            'func @main file="a.c" lines=1:6\n'
            "{\n^e:\n  call.try @_Z4leafv, ^ok, ^bad\n^ok:\n  ret\n^bad:\n  ret\n}\n"
            'func @_Z4leafv file="a.c" lines=8:9\n{\n^e:\n  work 1\n  ret\n}\n'
        )
        out, report = inline_pass(m, O3)
        assert report.inlined_sites == []
        assert ("exception-edge" in {r for _, r in report.skipped})
        assert out == m

    def test_multi_block_inline(self):
        m = _module(
            'module "m"\n'
            'func @main file="a.c" lines=1:6\n'
            "{\n^e:\n  li r1, 1\n  call @_Z3absi, r1\n  ret r0\n}\n"
            'func @_Z3absi file="a.c" lines=8:14\n'
            "{\n^e:\n  jnz r0, ^pos, ^zero\n^pos:\n  ret r0\n^zero:\n  li r1, 0\n  ret r1\n}\n"
        )
        out, report = inline_pass(m, O3)
        assert len(report.inlined_sites) == 1
        assert validate(out) == []
        assert "call" not in print_module(out).replace("call.try", "")
        # behavior is preserved
        assert execute(out).exit_value == execute(m).exit_value

    def test_monotone_site_multisets(self, inline_leaves):
        def multiset(report):
            sites = {}
            for s in report.inlined_sites:
                key = (s.caller, s.callee)
                sites[key] = sites.get(key, 0) + 1
            return sites

        previous = {}
        for level in LEVELS:
            _, report = inline_pass(inline_leaves, level)
            current = multiset(report)
            for key, count in previous.items():
                assert current.get(key, 0) >= count
            previous = current

    def test_transitive_inlining_reaches_fixpoint(self):
        m = _module(
            'module "m"\n'
            'func @main file="a.c" lines=1:4\n{\n^e:\n  call @_Z1av\n  ret\n}\n'
            'func @_Z1av file="a.c" lines=6:9\n{\n^e:\n  call @_Z1bv\n  work 1\n  ret\n}\n'
            'func @_Z1bv file="a.c" lines=11:13\n{\n^e:\n  work 2\n  ret\n}\n'
        )
        out, report = inline_pass(m, O2)
        pairs = {(s.caller, s.callee) for s in report.inlined_sites}
        assert ("main", "_Z1av") in pairs
        assert ("_Z1av", "_Z1bv") in pairs
        # main ends up fully flattened: the copied call to b is expanded too
        main_ops = [i.op for b in out.function("main").blocks for i in b.instructions]
        assert "call" not in main_ops

    def test_register_pressure_skip(self):
        callee_body = [I("li", r, r) for r in range(12)] + [I("ret")]
        caller_body = [I("li", r, 0) for r in range(8)] + [I("call", "busy"), I("ret")]
        m = IrModule(
            name="m",
            functions=[
                IrFunction("main", "a.c", 1, 2, blocks=[BasicBlock("e", caller_body)]),
                IrFunction("busy", "a.c", 3, 4, blocks=[BasicBlock("e", callee_body)]),
            ],
        )
        assert validate(m) == []
        out, report = inline_pass(m, O3)
        assert report.inlined_sites == []
        assert ("register-pressure" in {r for _, r in report.skipped})
        assert out == m

    def test_semantic_preservation_over_corpus(self):
        for path in corpus_paths():
            m = load_corpus(path.name)
            base = execute(m)
            for level in (O1, O2, O3):
                out, _ = inline_pass(m, level)
                assert validate(out) == []
                got = execute(out)
                assert got.exit_value == base.exit_value
                assert got.uncaught == base.uncaught
                assert got.events == base.events  # no hooks in either

    def test_hooks_travel_with_inlined_bodies(self):
        # A hook-bearing callee spliced into its caller keeps producing
        # the same events; hooks are ordinary instructions to this pass.
        leaf = IrFunction(
            "leaf", "a.c", 1, 2,
            blocks=[
                BasicBlock(
                    "e",
                    [
                        I("hook.register", 0),
                        I("hook.enter", 0),
                        I("work", 1),
                        I("hook.exit", 0),
                        I("ret"),
                    ],
                )
            ],
        )
        main = IrFunction(
            "main", "a.c", 4, 8,
            blocks=[BasicBlock("e", [I("call", "leaf"), I("call", "leaf"), I("ret")])],
        )
        m = IrModule(
            name="m",
            functions=[main, leaf],
            regions={0: RegionDescriptor(0, "leaf", "leaf", "a.c", 1, 2)},
        )
        assert validate(m) == []
        out, report = inline_pass(m, O2)
        assert len(report.inlined_sites) == 2
        main_ops = [i.op for b in out.function("main").blocks for i in b.instructions]
        assert main_ops.count("hook.enter") == 2
        before = [(e.kind, e.handle) for e in execute(m).events]
        after = [(e.kind, e.handle) for e in execute(out).events]
        assert before == after

    def test_instrumented_plugin_module_events_survive_inlining(self, inline_leaves):
        # Auto-style check at the module level: counts stay put because
        # every level sees the same already-instrumented plain calls.
        instrumented, _, _ = instrument_module(
            inline_leaves, FilterRuleSet(), "auto", O0
        )
        base_events = execute(instrumented).events
        for level in (O1, O2, O3):
            out, _ = inline_pass(instrumented, level)
            assert validate(out) == []
            got = execute(out).events
            assert len(got) == len(base_events)
