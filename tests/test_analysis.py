import random

import pytest

import gens
from instrumenta.analysis import (
    Profile,
    ProfileEntry,
    build_profile,
    compare_runs,
    format_profile,
    suggest_filter,
)
from instrumenta.filters import FilterRuleSet, parse_filter
from instrumenta.instrument import instrument_module
from instrumenta.ir import RegionDescriptor
from instrumenta.optimizer import O0, O1, O2, O3
from instrumenta.runtime import TraceError, TraceEvent, read_trace, write_trace
from instrumenta.vm import execute


def _events(*items):
    out = []
    for item in items:
        if item[0] == "D":
            _, handle, name = item
            out.append(
                TraceEvent("D", 0, handle, RegionDescriptor(handle, name, name, "a.c", 1, 2))
            )
        else:
            kind, ts, handle = item
            out.append(TraceEvent(kind, ts, handle))
    return out


class TestBuildProfile:
    def test_empty(self):
        p = build_profile([])
        assert p.entries == {} and p.total_events == 0

    def test_single_region(self):
        p = build_profile(_events(("D", 2, "f"), ("E", 0, 2), ("X", 10, 2)))
        e = p.entries[2]
        assert e.visits == 1
        assert e.inclusive_ticks == e.exclusive_ticks == 10
        assert p.total_events == 2

    def test_exclusive_subtracts_children(self):
        p = build_profile(
            _events(
                ("D", 2, "a"), ("D", 3, "b"),
                ("E", 0, 2), ("E", 2, 3), ("X", 5, 3), ("X", 10, 2),
            )
        )
        assert p.entries[2].inclusive_ticks == 10
        assert p.entries[2].exclusive_ticks == 7
        assert p.entries[3].inclusive_ticks == p.entries[3].exclusive_ticks == 3

    def test_recursion_counts_each_visit(self):
        p = build_profile(
            _events(
                ("D", 2, "f"),
                ("E", 0, 2), ("E", 1, 2), ("X", 3, 2), ("X", 4, 2),
            )
        )
        assert p.entries[2].visits == 2
        assert p.entries[2].inclusive_ticks == 4 + 2
        assert p.entries[2].exclusive_ticks == 4  # inner interval removed once

    def test_listing1_visits(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        p = build_profile(execute(out).events)
        by_name = {e.name: e for e in p.entries.values()}
        assert by_name["main"].visits == 1
        assert by_name["func(int)"].visits == 6
        assert p.total_events == 14
        for e in p.entries.values():
            assert e.exclusive_ticks <= e.inclusive_ticks

    def test_unbalanced_rejected(self):
        with pytest.raises(TraceError):
            build_profile(_events(("D", 2, "f"), ("E", 0, 2)))

    def test_enter_of_undefined_handle_rejected(self):
        with pytest.raises(TraceError, match="^enter for undefined handle 2$"):
            build_profile(_events(("E", 0, 2), ("X", 1, 2)))

    def test_crossed_exit_rejected(self):
        events = _events(("D", 2, "f"), ("D", 3, "g"), ("E", 0, 2), ("E", 1, 3), ("X", 2, 2))
        with pytest.raises(TraceError, match="^unbalanced exit for handle 2$"):
            build_profile(events)

    def test_survives_trace_io(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        events = execute(out).events
        assert build_profile(read_trace(write_trace(events))) == build_profile(events)

    def test_format_is_aligned(self):
        p = build_profile(_events(("D", 2, "f"), ("E", 0, 2), ("X", 10, 2)))
        text = format_profile(p)
        lines = text.splitlines()
        assert lines[0].split() == ["region", "visits", "incl", "excl"]
        assert lines[1].split() == ["f", "1", "10", "10"]

    def test_format_empty_profile(self):
        text = format_profile(Profile())
        assert text.splitlines() == ["region  visits  incl  excl"]


class TestCompareRuns:
    def test_auto_counts_constant(self, inline_leaves):
        runs = []
        for level in (O0, O1, O2, O3):
            out, _, _ = instrument_module(inline_leaves, FilterRuleSet(), "auto", level)
            runs.append((level.level, execute(out).events))
        table = compare_runs(runs)
        counts = [c for _, c in table.rows]
        assert len(set(counts)) == 1

    def test_plugin_counts_non_increasing(self, inline_leaves):
        runs = []
        for level in (O0, O1, O2, O3):
            out, _, _ = instrument_module(inline_leaves, FilterRuleSet(), "plugin", level)
            runs.append((level.level, execute(out).events))
        table = compare_runs(runs)
        counts = [c for _, c in table.rows]
        assert counts == sorted(counts, reverse=True)
        assert counts[-1] < counts[0]

    def test_identical_traces_zero_deltas(self, listing1):
        out, _, _ = instrument_module(listing1, FilterRuleSet(), "plugin", O0)
        events = execute(out).events
        table = compare_runs([("a", events), ("b", events)])
        assert table.rows[0][1] == table.rows[1][1] == 7
        for region in table.per_region:
            assert region.deltas == [0, 0]

    def test_needs_at_least_one(self):
        with pytest.raises(ValueError):
            compare_runs([])

    def test_enter_of_undefined_handle_rejected(self):
        events = [TraceEvent("E", 0, 5), TraceEvent("X", 1, 5)]
        with pytest.raises(TraceError, match="^enter for undefined handle 5$"):
            compare_runs([("a", events)])

    def test_enter_before_its_definition_rejected_like_build_profile(self):
        events = _events(("E", 0, 5), ("D", 5, "f"), ("X", 1, 5))
        for analyse in (build_profile, lambda e: compare_runs([("a", e)])):
            with pytest.raises(TraceError, match="^enter for undefined handle 5$"):
                analyse(events)

    def test_first_enter_of_an_undefined_handle_named(self):
        events = _events(
            ("D", 2, "f"), ("E", 0, 2), ("E", 1, 7), ("X", 2, 7), ("D", 7, "g"),
            ("E", 3, 6), ("X", 4, 6), ("X", 5, 2),
        )
        with pytest.raises(TraceError, match="^enter for undefined handle 7$"):
            compare_runs([("a", events)])
        with pytest.raises(TraceError, match="^enter for undefined handle 6$"):
            compare_runs([("a", events[:1] + events[4:])])

    @pytest.mark.parametrize(
        "items, message",
        [
            ((("D", 2, "f"), ("E", 0, 2)), r"^handle 2 has 1 enter\(s\) and 0 exit\(s\)$"),
            ((("D", 2, "f"), ("X", 0, 2)), r"^handle 2 has 0 enter\(s\) and 1 exit\(s\)$"),
            ((("D", 2, "f"), ("E", 0, 2), ("X", 1, 2), ("X", 2, 2)), "^handle 2 has 1 enter"),
            ((("D", 2, "f"), ("E", 0, 2), ("X", 1, 9)), "^handle 2 has 1 enter"),
        ],
    )
    def test_exits_that_do_not_match_enters_rejected(self, items, message):
        with pytest.raises(TraceError, match=message):
            compare_runs([("a", _events(*items))])

    def test_crossed_exits_are_left_to_read_trace(self):
        events = _events(
            ("D", 2, "f"), ("D", 3, "g"), ("E", 0, 2), ("E", 1, 3), ("X", 2, 2), ("X", 3, 3)
        )
        assert compare_runs([("a", events)]).rows == [("a", 2)]

    def test_agrees_with_build_profile_on_damaged_traces(self):
        # Whatever build_profile accepts, compare_runs accepts with the same
        # visits; whatever compare_runs rejects, build_profile rejects; and an
        # undefined enter that build_profile meets first, compare_runs names.
        rng = random.Random(22)
        checked = {"accepted": 0, "undefined": 0, "unbalanced": 0}
        for seed in range(800):
            events = gens.trace_events(random.Random(seed))
            if events:
                i, j = rng.randrange(len(events)), rng.randrange(len(events))
                rest = events[:i] + events[i + 1:]
                events = rng.choice([rest, rest[:j] + [events[i]] + rest[j:]])
            try:
                profile = build_profile(events)
            except TraceError as exc:
                profile, error = None, str(exc)
            try:
                table = compare_runs([("a", events)])
            except TraceError as exc:
                assert profile is None, events
                if error.startswith("enter for undefined"):
                    assert str(exc) == error
                    checked["undefined"] += 1
                else:
                    checked["unbalanced"] += str(exc).startswith("handle ")
                continue
            assert profile is not None or not error.startswith("enter for undefined"), events
            if profile is not None:
                visits = {e.canonical: e.visits for e in profile.entries.values()}
                assert {r.canonical: r.counts[0] for r in table.per_region} == visits
                checked["accepted"] += 1
        assert min(checked.values()) > 50, checked


class TestSuggestFilter:
    def _profile(self, *entries):
        p = Profile()
        for handle, name, visits, incl in entries:
            p.entries[handle] = ProfileEntry(name, name, visits, incl, incl)
        return p

    def test_hot_cheap_region_excluded(self):
        p = self._profile((2, "leaf()", 10**5, 2 * 10**5))  # 2 ticks per visit
        text = suggest_filter(p, max_ticks_per_visit=10, min_visits=1000)
        assert text == "REGION_NAMES_BEGIN\n  EXCLUDE leaf()\nREGION_NAMES_END\n"

    def test_rare_region_kept(self):
        p = self._profile((2, "rare()", 3, 6))
        text = suggest_filter(p, max_ticks_per_visit=10, min_visits=1000)
        assert "rare()" not in text

    def test_expensive_region_kept(self):
        p = self._profile((2, "slow()", 5000, 5000 * 99))
        assert "slow()" not in suggest_filter(p, 10, 1000)

    def test_empty_profile(self):
        text = suggest_filter(Profile(), 10, 1000)
        assert text == "REGION_NAMES_BEGIN\nREGION_NAMES_END\n"
        assert parse_filter(text) == FilterRuleSet()

    def test_output_parses_and_matches_whole_names(self):
        p = self._profile((2, "get(int)", 5000, 5000))
        rules = parse_filter(suggest_filter(p, 10, 1000))
        assert rules.region_rules[0].pattern == "get(int)"

    @pytest.mark.parametrize("name", [
        "f(char*)", "get(T?)", " lead()", "trail() ", "tab()\t", "MANGLED", "MANGLED g()",
        "", "a\nb", "a b",
    ])
    def test_names_that_would_not_match_alone_are_excluded_by_mangled_name(self, name):
        p = Profile()
        p.entries[2] = ProfileEntry(name, "_Z4hotv", 5000, 5000, 5000)
        text = suggest_filter(p, 10, 1000)
        assert text == "REGION_NAMES_BEGIN\n  EXCLUDE MANGLED _Z4hotv\nREGION_NAMES_END\n"
        assert parse_filter(text).region_rules[0].match_mangled

    def test_shared_pretty_name_is_excluded_by_mangled_name(self):
        p = Profile()
        p.entries[2] = ProfileEntry("tick()", "_ZN1a4tickEv", 5000, 5000, 5000)
        p.entries[3] = ProfileEntry("tick()", "_ZN1b4tickEv", 10, 10**4, 10**4)  # not hot
        p.entries[4] = ProfileEntry("MANGLEDx()", "_Z9MANGLEDxv", 5000, 5000, 5000)
        p.entries[5] = ProfileEntry("op[](int)", "_Zixi", 5000, 5000, 5000)
        assert suggest_filter(p, 10, 1000) == (
            "REGION_NAMES_BEGIN\n  EXCLUDE MANGLED _ZN1a4tickEv\n  EXCLUDE MANGLEDx()\n"
            "  EXCLUDE op[](int)\nREGION_NAMES_END\n"
        )
