import pytest

from conftest import corpus_paths, load_corpus
from instrumenta.filters import FilterRuleSet, parse_filter
from instrumenta.instrument import instrument_module
from instrumenta.ir import (
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    IrValidationError,
    parse_module,
)
from instrumenta.optimizer import O0
from instrumenta.runtime import (
    Trace,
    TraceError,
    TraceEvent,
    UnbalancedExitError,
    read_trace,
    write_trace,
)
from instrumenta.vm import CostModel, StepLimitExceeded, VmError, execute

I = Instruction.make

# Hand count for the fixed listing1 encoding, one tick per instruction:
#   main: init 2 + loop 3*(call+addi+addi+jnz) 12 + exit 2      = 16
#   func: three arg=0 visits of 3 plus three arg>0 visits of 6   = 27
LISTING1_TICKS = 43


class TestBasics:
    def test_uninstrumented_listing1(self, listing1):
        r = execute(listing1)
        assert r.exit_value == 0
        assert not r.uncaught
        assert r.events == []
        assert r.total_ticks == LISTING1_TICKS
        assert r.max_depth == 4  # main > func(2) > func(1) > func(0)

    def test_instrumented_listing1_closed_form(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        costs = CostModel()
        r = execute(out, costs=costs)
        kinds = [e.kind for e in r.events]
        assert kinds.count("E") == 7 and kinds.count("X") == 7
        # 7 visits: each pays 2 extra plumbing instructions and one
        # guarded+recorded event at entry and at exit; two regions
        # register once each.
        expected = LISTING1_TICKS + (
            14 * costs.base_instruction
            + 14 * (costs.hook_guard + costs.hook_event)
            + 2 * costs.hook_register_first
        )
        assert r.total_ticks == expected

    def test_work_charges_exactly_n(self):
        m = parse_module(
            'module "m"\nfunc @main file="a.c" lines=1:2\n{\n^e:\n  work 7\n  ret\n}\n'
        )
        assert execute(m).total_ticks == 7 + 1  # work + ret

    def test_arithmetic_and_exit_value(self):
        m = parse_module(
            'module "m"\nfunc @main file="a.c" lines=1:5\n'
            "{\n^e:\n  li r1, 40\n  addi r2, r1, 1\n  add r3, r2, r1\n  ret r3\n}\n"
        )
        assert execute(m).exit_value == 81

    def test_i64_wraparound(self):
        m = parse_module(
            'module "m"\nfunc @main file="a.c" lines=1:5\n'
            "{\n^e:\n  li r1, 9223372036854775807\n  addi r1, r1, 1\n  ret r1\n}\n"
        )
        assert execute(m).exit_value == -(2**63)

    def test_return_value_lands_in_caller_r0(self):
        m = parse_module(
            'module "m"\n'
            'func @main file="a.c" lines=1:5\n{\n^e:\n  call @_Z3onev\n  ret r0\n}\n'
            'func @_Z3onev file="a.c" lines=7:9\n{\n^e:\n  li r4, 11\n  ret r4\n}\n'
        )
        assert execute(m).exit_value == 11

    def test_bare_ret_leaves_caller_r0_alone(self):
        m = parse_module(
            'module "m"\n'
            'func @main file="a.c" lines=1:6\n'
            "{\n^e:\n  li r0, 9\n  call @_Z4voidv\n  ret r0\n}\n"
            'func @_Z4voidv file="a.c" lines=8:10\n{\n^e:\n  work 1\n  ret\n}\n'
        )
        assert execute(m).exit_value == 9

    def test_callee_registers_start_zeroed(self):
        m = parse_module(
            'module "m"\n'
            'func @main file="a.c" lines=1:6\n'
            "{\n^e:\n  li r1, 5\n  li r2, 8\n  call @_Z1fi, r2\n  ret r0\n}\n"
            'func @_Z1fi file="a.c" lines=8:11\n{\n^e:\n  add r3, r0, r1\n  ret r3\n}\n'
        )
        # callee r0 = 8 (argument), callee r1 = 0, so the sum is 8
        assert execute(m).exit_value == 8

    def test_call_try_normal_edge(self):
        m = parse_module(
            'module "m"\n'
            'func @main file="a.c" lines=1:8\n'
            "{\n^e:\n  call.try @_Z2okv, ^good, ^bad\n"
            "^good:\n  ret r0\n^bad:\n  li r0, -1\n  ret r0\n}\n"
            'func @_Z2okv file="a.c" lines=10:12\n{\n^e:\n  li r1, 3\n  ret r1\n}\n'
        )
        assert execute(m).exit_value == 3

    def test_call_try_on_extern_takes_normal_edge(self):
        m = parse_module(
            'module "m"\nextern @lib\n'
            'func @main file="a.c" lines=1:8\n'
            "{\n^e:\n  call.try @lib, ^good, ^bad\n"
            "^good:\n  li r0, 1\n  ret r0\n^bad:\n  li r0, 2\n  ret r0\n}\n"
        )
        r = execute(m)
        assert r.exit_value == 1
        assert r.total_ticks == CostModel().extern_call + 2

    def test_deep_recursion_depth_tracking(self):
        m = parse_module(
            'module "m"\n'
            'func @main file="a.c" lines=1:4\n'
            "{\n^e:\n  li r1, 50\n  call @_Z4downi, r1\n  ret r0\n}\n"
            'func @_Z4downi file="a.c" lines=6:12\n'
            "{\n^e:\n  jnz r0, ^go, ^stop\n^go:\n  addi r1, r0, -1\n"
            "  call @_Z4downi, r1\n  jmp ^stop\n^stop:\n  ret\n}\n"
        )
        assert execute(m).max_depth == 52


class TestErrors:
    def test_invalid_module_refused(self):
        bad = IrModule(
            name="m",
            functions=[
                IrFunction("main", "a.c", 1, 2, blocks=[BasicBlock("e", [I("work", 1)])])
            ],
        )
        with pytest.raises(IrValidationError):
            execute(bad)

    def test_unknown_entry(self, listing1):
        with pytest.raises(VmError, match="entry"):
            execute(listing1, entry="nope")

    def test_extern_entry_rejected(self):
        m = load_corpus("extern_call.ir")
        with pytest.raises(VmError, match="entry"):
            execute(m, entry="puts")

    def test_step_limit(self):
        m = parse_module(
            'module "m"\nfunc @main file="a.c" lines=1:4\n'
            "{\n^loop:\n  jmp ^loop\n}\n"
        )
        with pytest.raises(StepLimitExceeded):
            execute(m, step_limit=1000)

    def test_negative_costs_rejected(self):
        with pytest.raises(ValueError):
            CostModel(base_instruction=-1)
        with pytest.raises(ValueError):
            CostModel(hook_event=1, hook_guard=1)


class TestExterns:
    def test_extern_fixed_cost(self):
        m = load_corpus("extern_call.ir")
        r = execute(m)
        assert r.exit_value == 0
        # base ticks: main li+call+li+ret = 4, fix ret = 1; extern calls
        # three at the fixed intrinsic cost; plus work 3.
        costs = CostModel()
        expected = 5 * costs.base_instruction + 3 * costs.extern_call + 3
        assert r.total_ticks == expected

    def test_extern_never_produces_events(self):
        m = load_corpus("extern_call.ir")
        out, _, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        r = execute(out)
        names = {e.descriptor.canonical_name for e in r.events if e.kind == "D"}
        assert names == {"main", "_Z3fixv"}


class TestExceptions:
    def test_catch_returns_zero(self):
        m = load_corpus("throw_catch.ir")
        out, _, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        r = execute(out)
        assert r.exit_value == 0 and not r.uncaught
        names = {e.handle: e.descriptor.name for e in r.events if e.kind == "D"}
        seq = [(e.kind, names[e.handle]) for e in r.events if e.kind in "EX"]
        assert seq == [("E", "main"), ("E", "f()"), ("X", "f()"), ("X", "main")]

    def test_uncaught_reaches_top(self):
        m = load_corpus("throw_uncaught.ir")
        r = execute(m)
        assert r.uncaught and r.exit_value is None

    def test_unwind_through_plain_calls(self):
        m = load_corpus("throw_deep.ir")
        r = execute(m)
        assert r.exit_value == 0 and not r.uncaught
        out, _, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
        r2 = execute(out)
        assert r2.exit_value == 0
        read_trace(write_trace(r2.events))

    def test_exception_balance_over_corpus(self):
        for path in corpus_paths():
            m = load_corpus(path.name)
            out, _, _ = instrument_module(m, FilterRuleSet(), "plugin", O0)
            r = execute(out)
            read_trace(write_trace(r.events))


class TestDeterminismAndFiltering:
    def test_byte_identical_runs(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        a = execute(out)
        b = execute(out)
        assert a == b
        assert write_trace(a.events) == write_trace(b.events)

    def test_trace_without_definitions_writes_each_record(self):
        # No D record, so no code 0: every line form is an E or an X one,
        # written across more than one block of records.
        events = [TraceEvent(kind, 10 * t, 2 + t % 3) for t in range(20000) for kind in "EX"]
        text = "".join(f"{ev.kind} {ev.timestamp} {ev.handle}\n" for ev in events)
        trace = Trace.of(events)
        assert not trace.definitions and 0 not in trace.codes
        assert write_trace(trace) == write_trace(events) == text
        assert write_trace(Trace()) == ""

    def test_runtime_filter_silences_all_events(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        rules = parse_filter("REGION_NAMES_BEGIN\nEXCLUDE *\nREGION_NAMES_END\n")
        r = execute(out, runtime_rules=rules)
        assert r.events == []
        assert r.exit_value == 0

    def test_runtime_filter_charges_guards_only(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        costs = CostModel()
        full = execute(out, costs=costs)
        rules = parse_filter("REGION_NAMES_BEGIN\nEXCLUDE *\nREGION_NAMES_END\n")
        filtered = execute(out, costs=costs, runtime_rules=rules)
        # Filtering drops the event cost of all 14 hook visits but keeps
        # the guards, the plumbing and the (filtered) registrations.
        assert full.total_ticks - filtered.total_ticks == 14 * costs.hook_event

    def test_timestamps_non_decreasing(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        r = execute(out)
        stamps = [e.timestamp for e in r.events if e.kind in "EX"]
        assert stamps == sorted(stamps)


_TWO_REGIONS = (
    "regions:\n"
    'region 0 name="main" canonical="main" file="a.c" lines=1:9 flags=0\n'
    'region 1 name="g()" canonical="_Z1gv" file="a.c" lines=1:9 flags=0\n'
)


def _hooked_main(*body):
    """A hand-written module: main runs ``body``, regions 0 and 1 exist."""
    lines = "".join(f"  {ins}\n" for ins in body)
    return parse_module(
        f'module "m"\nfunc @main file="a.c" lines=1:9\n{{\n^e:\n{lines}}}\n' + _TWO_REGIONS
    )


def _raised(m):
    with pytest.raises(TraceError) as info:
        execute(m)
    return type(info.value), str(info.value)


class TestHookErrors:
    """Hook misuse in hand-written modules fails the run."""

    def test_enter_before_register(self):
        m = _hooked_main("hook.enter 0", "ret")
        assert _raised(m) == (TraceError, "enter with unregistered handle")

    def test_exit_before_register(self):
        m = _hooked_main("hook.exit 1", "ret")
        assert _raised(m) == (TraceError, "exit with unregistered handle")

    def test_exit_mismatching_top_of_stack(self):
        m = _hooked_main(
            "hook.register 0", "hook.register 1", "hook.enter 0", "hook.exit 1", "ret"
        )
        assert _raised(m) == (
            UnbalancedExitError, "exit for handle 3 while top of stack is 2"
        )

    def test_exit_on_empty_stack(self):
        m = _hooked_main("hook.register 0", "hook.exit 0", "ret")
        assert _raised(m) == (
            UnbalancedExitError, "exit for handle 2 while top of stack is None"
        )

    def test_return_with_open_region(self):
        m = _hooked_main("hook.register 0", "hook.enter 0", "ret")
        assert _raised(m) == (TraceError, "run ends with 1 open region(s)")

    def test_uncaught_throw_with_open_regions(self):
        m = _hooked_main(
            "hook.register 0", "hook.register 1", "hook.enter 0", "hook.enter 1", "throw"
        )
        assert _raised(m) == (TraceError, "run ends with 2 open region(s)")

    def test_filtered_regions_stay_silent(self):
        rules = parse_filter("REGION_NAMES_BEGIN\nEXCLUDE g*\nREGION_NAMES_END\n")
        m = _hooked_main(
            "hook.register 0", "hook.register 1", "hook.enter 0", "hook.enter 1",
            "hook.exit 1", "hook.exit 0", "hook.register 1", "ret",
        )
        costs = CostModel()
        r = execute(m, costs=costs, runtime_rules=rules)
        registered = 2 * costs.hook_register_first  # once per region, filtered or not
        recorded = costs.hook_guard + costs.hook_event
        assert [(e.kind, e.timestamp, e.handle) for e in r.events] == [
            ("D", 0, 2),
            ("E", registered, 2),
            ("X", registered + recorded + 2 * costs.hook_guard, 2),
        ]
        assert r.total_ticks == registered + 2 * recorded + 2 * costs.hook_guard + 1


def _failure(m, **kw):
    with pytest.raises((TraceError, VmError)) as info:
        execute(m, **kw)
    return type(info.value), str(info.value)


_BOUNDARY_CASES = [
    ("listing1.ir", None),
    ("listing1.ir", "plugin"),
    ("extern_call.ir", "plugin"),
    ("throw_catch.ir", "plugin"),
    ("throw_deep.ir", "auto"),
    ("throw_uncaught.ir", None),
    ("hotloop.ir", "plugin"),
]


class TestSteps:
    """``steps`` counts instructions, and the limit stops a run at exactly
    the instruction that would exceed it, fused or not."""

    def test_steps_count_instructions_not_ticks(self, listing1):
        assert execute(listing1).steps == LISTING1_TICKS  # no work, one tick each
        m = parse_module(
            'module "m"\nextern @lib\nfunc @main file="a.c" lines=1:2\n'
            "{\n^e:\n  work 7\n  call @lib\n  ret\n}\n"
        )
        r = execute(m)
        assert (r.steps, r.total_ticks) == (3, 7 + CostModel().extern_call + 1)

    @pytest.mark.parametrize("name,mode", _BOUNDARY_CASES)
    def test_exact_step_limit_boundary(self, name, mode):
        m = load_corpus(name)
        if mode is not None:
            m, _, _ = instrument_module(m, FilterRuleSet(), mode, O0)
        full = execute(m)
        n = full.steps
        assert execute(m, step_limit=n) == full
        assert _failure(m, step_limit=n - 1) == (
            StepLimitExceeded, f"step limit of {n - 1} exceeded"
        )

    def test_exit_error_precedes_the_limit_of_its_fused_ret(self):
        # hook.exit is step 2 and fails there; the ret after it would be
        # step 3, so a limit of 2 must report the exit's error.
        m = _hooked_main("hook.register 0", "hook.exit 0", "ret")
        unbalanced = (UnbalancedExitError, "exit for handle 2 while top of stack is None")
        assert _failure(m) == unbalanced
        assert _failure(m, step_limit=2) == unbalanced
        assert _failure(m, step_limit=1) == (StepLimitExceeded, "step limit of 1 exceeded")

    def test_limit_between_exit_and_its_ret(self):
        m = _hooked_main(
            "hook.register 0", "hook.register 1", "hook.enter 0", "hook.enter 1",
            "hook.exit 1", "ret",
        )
        assert _failure(m, step_limit=5) == (StepLimitExceeded, "step limit of 5 exceeded")
        assert _failure(m, step_limit=6) == (TraceError, "run ends with 1 open region(s)")

    def test_limit_between_register_and_its_enter(self):
        m = _hooked_main("work 3", "hook.register 0", "hook.enter 0", "hook.exit 0", "ret")
        assert _failure(m, step_limit=2) == (StepLimitExceeded, "step limit of 2 exceeded")
        assert execute(m, step_limit=5).steps == 5

    def test_non_default_costs_on_fused_runs(self):
        costs = CostModel(3, 7, 2, 9, 4)
        m = _hooked_main(
            "li r1, 2", "work 5", "hook.register 0", "hook.enter 0",
            "addi r1, r1, 1", "work 4", "hook.exit 0", "ret r1",
        )
        r = execute(m, costs=costs)
        enter_at = 3 + 5 + costs.hook_register_first
        exit_at = enter_at + costs.hook_guard + costs.hook_event + 3 + 4
        assert [(e.kind, e.timestamp) for e in r.events] == [
            ("D", 0), ("E", enter_at), ("X", exit_at),
        ]
        assert r.total_ticks == exit_at + costs.hook_guard + costs.hook_event + 3
        assert (r.exit_value, r.steps) == (3, 8)
