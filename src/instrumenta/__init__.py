"""instrumenta: selective function instrumentation over a small IR,
with a deterministic cost-model VM and trace analysis."""

from .analysis import Profile, build_profile, compare_runs, suggest_filter
from .filters import FilterRuleSet, MatchDecision, classify, parse_filter, wildcard_match
from .instrument import (
    InstrumentationReport,
    enforce_finally,
    insert_entry_hook,
    instrument_module,
    make_region_descriptor,
    should_instrument,
)
from .ir import (
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    RegionDescriptor,
    parse_module,
    print_module,
    validate,
)
from .optimizer import InlineReport, OptLevel, inline_cost, inline_pass
from .runtime import (
    FILTERED_REGION,
    Monitor,
    Trace,
    TraceEvent,
    read_trace,
    write_trace,
)
from .symbols import demangle, is_mangled
from .vm import CostModel, ExecutionResult, execute

__version__ = "0.1.0"

__all__ = [
    "BasicBlock",
    "CostModel",
    "ExecutionResult",
    "FILTERED_REGION",
    "FilterRuleSet",
    "InlineReport",
    "Instruction",
    "InstrumentationReport",
    "IrFunction",
    "IrModule",
    "MatchDecision",
    "Monitor",
    "OptLevel",
    "Profile",
    "RegionDescriptor",
    "Trace",
    "TraceEvent",
    "build_profile",
    "classify",
    "compare_runs",
    "demangle",
    "enforce_finally",
    "execute",
    "inline_cost",
    "inline_pass",
    "insert_entry_hook",
    "instrument_module",
    "is_mangled",
    "make_region_descriptor",
    "parse_filter",
    "parse_module",
    "print_module",
    "read_trace",
    "should_instrument",
    "suggest_filter",
    "validate",
    "wildcard_match",
    "write_trace",
]
