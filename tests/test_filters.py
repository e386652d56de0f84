import random

import pytest

from instrumenta.filters import (
    FileRule,
    FilterParseError,
    FilterRuleSet,
    RegionRule,
    classify,
    parse_filter,
    selects_alone,
    wildcard_match,
)
from instrumenta.instrument import instrument_module
from instrumenta.ir import parse_module
from instrumenta.optimizer import O0
from instrumenta.vm import execute


def reference_wildcard_match(pattern: str, name: str) -> bool:
    """Whole-name glob match by two pointers and one backtrack point.

    ``*`` is tested before the literal compare, so a ``*`` in the pattern
    is always a wildcard, even where the name holds a ``*`` too.
    """
    px = nx = 0
    star_px = star_nx = -1
    plen, nlen = len(pattern), len(name)
    while nx < nlen:
        if px < plen and pattern[px] == "*":
            star_px, star_nx = px, nx
            px += 1
        elif px < plen and (pattern[px] == "?" or pattern[px] == name[nx]):
            px += 1
            nx += 1
        elif star_px >= 0:
            px = star_px + 1
            star_nx += 1
            nx = star_nx
        else:
            return False
    while px < plen and pattern[px] == "*":
        px += 1
    return px == plen


class TestParseFilter:
    def test_empty_text(self):
        assert parse_filter("") == FilterRuleSet()

    def test_single_exclude(self):
        rs = parse_filter("REGION_NAMES_BEGIN\nEXCLUDE foo\nREGION_NAMES_END\n")
        assert rs.region_rules == (RegionRule("exclude", "foo", False),)
        assert rs.file_rules == ()

    def test_mangled_keyword(self):
        rs = parse_filter(
            "REGION_NAMES_BEGIN\nEXCLUDE MANGLED _Z4funci\nREGION_NAMES_END\n"
        )
        assert rs.region_rules == (RegionRule("exclude", "_Z4funci", True),)

    @pytest.mark.parametrize("pattern", ["MANGLED x.c", "MANGLED", "MANGLED  *.c"])
    def test_file_block_reads_mangled_as_pattern(self, pattern):
        # Only a region block knows the MANGLED word.
        rs = parse_filter(f"FILE_NAMES_BEGIN\nEXCLUDE {pattern}\nFILE_NAMES_END\n")
        assert rs.file_rules == (FileRule("exclude", pattern),)

    def test_file_rules_and_order(self):
        rs = parse_filter(
            "REGION_NAMES_BEGIN\n"
            "  INCLUDE main\n"
            "  EXCLUDE helper*\n"
            "REGION_NAMES_END\n"
            "FILE_NAMES_BEGIN\n"
            "  EXCLUDE vendor/*.c\n"
            "FILE_NAMES_END\n"
        )
        assert [r.kind for r in rs.region_rules] == ["include", "exclude"]
        assert rs.file_rules == (FileRule("exclude", "vendor/*.c"),)

    def test_pattern_keeps_inner_spaces(self):
        rs = parse_filter(
            "REGION_NAMES_BEGIN\nEXCLUDE run(int, int)\nREGION_NAMES_END\n"
        )
        assert rs.region_rules[0].pattern == "run(int, int)"

    def test_comments_and_blanks(self):
        rs = parse_filter(
            "# header\n\nREGION_NAMES_BEGIN\n  # inner\n  EXCLUDE f\nREGION_NAMES_END\n"
        )
        assert len(rs.region_rules) == 1

    def test_unknown_directive(self):
        with pytest.raises(FilterParseError) as err:
            parse_filter("REGION_NAMES_BEGIN\nDROP foo\nREGION_NAMES_END\n")
        assert err.value.line == 2

    def test_rule_outside_block(self):
        with pytest.raises(FilterParseError):
            parse_filter("EXCLUDE foo\n")

    def test_unterminated_block(self):
        with pytest.raises(FilterParseError, match="unterminated"):
            parse_filter("FILE_NAMES_BEGIN\nEXCLUDE x.c\n")

    def test_mismatched_end(self):
        with pytest.raises(FilterParseError):
            parse_filter("REGION_NAMES_BEGIN\nFILE_NAMES_END\n")

    def test_missing_pattern(self):
        with pytest.raises(FilterParseError):
            parse_filter("REGION_NAMES_BEGIN\nEXCLUDE\nREGION_NAMES_END\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("REGION_NAMES_BEGIN\nFILE_NAMES_BEGIN\n", "nested block 'FILE_NAMES_BEGIN'"),
            ("FILE_NAMES_BEGIN\nINCLUDE\nFILE_NAMES_END\n", "rule without pattern"),
        ],
    )
    def test_error_names_line_two(self, text, message):
        with pytest.raises(FilterParseError) as err:
            parse_filter(text)
        assert str(err.value) == f"line 2: {message}"
        assert err.value.line == 2


class TestWildcardMatch:
    def test_substring_bug_does_not_reproduce(self):
        # A bare name must not drag in longer names that contain it.
        assert not wildcard_match("foo", "foobar")
        assert not wildcard_match("foo", "myfoo")
        assert not wildcard_match("foo", "another_foo_func")
        assert wildcard_match("foo", "foo")

    def test_star_suffix(self):
        assert wildcard_match("foo*", "foobar")
        assert wildcard_match("foo*", "foo")
        assert not wildcard_match("foo*", "xfoo")

    def test_star_alone(self):
        for name in ("", "a", "anything at all", "*"):
            assert wildcard_match("*", name)

    def test_question_mark(self):
        assert wildcard_match("f?o", "foo")
        assert not wildcard_match("f?o", "fo")
        assert not wildcard_match("f?o", "fooo")

    def test_star_in_middle(self):
        assert wildcard_match("a*z", "az")
        assert wildcard_match("a*z", "abcz")
        assert not wildcard_match("a*z", "abc")
        assert wildcard_match("*::get*", "vec::get(int)")

    def test_brackets_are_literal(self):
        assert wildcard_match("f[ab]", "f[ab]")
        assert not wildcard_match("f[ab]", "fa")

    @pytest.mark.parametrize(
        "pattern, name, expected",
        [
            ("*", "*b", True),
            ("a*", "a*b", True),
            ("*a*", "xa*b", True),
            ("f(char*)", "f(char*, int)", True),
            ("ns::op*", "ns::op*(int)", True),
            ("a?c", "a*c", True),
            ("f[ab]", "fa", False),
            ("f[!a]", "fb", False),
            ("f[a-c]", "f[a-c]", True),
            ("a\\*", "a\\b", True),
            ("a*", "a\nb", True),
        ],
    )
    def test_explicit_rows(self, pattern, name, expected):
        assert wildcard_match(pattern, name) is expected
        assert reference_wildcard_match(pattern, name) is expected

    def test_matches_the_reference_on_random_globs(self):
        rng = random.Random(21)
        alphabet = "ab*?[]!\\-^\né"
        for _ in range(20_000):
            pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 7)))
            name = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            assert wildcard_match(pattern, name) == reference_wildcard_match(pattern, name), (
                pattern,
                name,
            )

    def test_whole_name_property(self):
        # Wildcard-free patterns only ever match themselves.
        rng = random.Random(7)
        alphabet = "abcf_:()0"
        for _ in range(500):
            pattern = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            name = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
            if wildcard_match(pattern, name):
                assert pattern == name
            assert wildcard_match(pattern, pattern)


class TestClassify:
    def test_default_is_instrument(self):
        d = classify(FilterRuleSet(), "_Z1fv", "f()", "a.c")
        assert d.outcome == "instrument"
        assert d.deciding_rule is None
        assert "default" in d.reason

    EX_ALL_IN_MAIN = FilterRuleSet(
        region_rules=(
            RegionRule("exclude", "*"),
            RegionRule("include", "main"),
        )
    )

    def test_last_match_wins(self):
        d = classify(self.EX_ALL_IN_MAIN, "main", "main", "a.c")
        assert d.outcome == "instrument"
        assert d.deciding_rule == 1

    def test_exclude_when_only_exclude_matches(self):
        d = classify(self.EX_ALL_IN_MAIN, "_Z4funci", "func(int)", "a.c")
        assert d.outcome == "filtered"
        assert d.deciding_rule == 0

    def test_order_sensitivity_regression(self):
        flipped = FilterRuleSet(
            region_rules=(
                RegionRule("include", "main"),
                RegionRule("exclude", "*"),
            )
        )
        assert classify(flipped, "main", "main", "a.c").outcome == "filtered"
        assert classify(self.EX_ALL_IN_MAIN, "main", "main", "a.c").outcome == "instrument"

    def test_mangled_rules_test_mangled_names_only(self):
        rs = FilterRuleSet(region_rules=(RegionRule("exclude", "_Z4funci", True),))
        assert classify(rs, "_Z4funci", "func(int)", "a.c").outcome == "filtered"
        # The demangled name never sees a MANGLED rule.
        assert classify(rs, "other", "_Z4funci", "a.c").outcome == "instrument"

    def test_demangled_rules_skip_mangled_names(self):
        rs = FilterRuleSet(region_rules=(RegionRule("exclude", "func(int)"),))
        assert classify(rs, "_Z4funci", "func(int)", "a.c").outcome == "filtered"
        rs2 = FilterRuleSet(region_rules=(RegionRule("exclude", "_Z4funci"),))
        assert classify(rs2, "_Z4funci", "func(int)", "a.c").outcome == "instrument"

    def test_file_exclude(self):
        rs = FilterRuleSet(file_rules=(FileRule("exclude", "vendor/*"),))
        assert classify(rs, "_Z1fv", "f()", "vendor/x.c").outcome == "filtered"
        assert classify(rs, "_Z1fv", "f()", "src/x.c").outcome == "instrument"

    def test_either_list_can_exclude(self):
        rs = FilterRuleSet(
            region_rules=(RegionRule("include", "*"),),
            file_rules=(FileRule("exclude", "*"),),
        )
        assert classify(rs, "_Z1fv", "f()", "a.c").outcome == "filtered"

    def test_empty_file_skips_file_rules(self):
        rs = FilterRuleSet(file_rules=(FileRule("exclude", "*"),))
        assert classify(rs, "_Z1fv", "f()", "").outcome == "instrument"

    def test_deterministic(self):
        rs = self.EX_ALL_IN_MAIN
        first = classify(rs, "main", "main", "a.c")
        for _ in range(10):
            assert classify(rs, "main", "main", "a.c") == first


# A pattern whose `*` meets a literal `*` in the name, through both callers
# of classify: the instrumenter's compile-time filter and the runtime's.
_OPS = """module "ops"

func @main file="a.c" lines=1:9
{
^e:
  call @_ZN2nsmlEi
  call @_ZN2ns5otherEi
  li r0, 0
  ret r0
}

func @_ZN2nsmlEi pretty="ns::op*(int)" file="a.c" lines=10:12
{
^e:
  work 2
  ret
}

func @_ZN2ns5otherEi pretty="ns::other(int)" file="a.c" lines=13:15
{
^e:
  work 3
  ret
}
"""
_EXCLUDE_OP_STAR = parse_filter("REGION_NAMES_BEGIN\nEXCLUDE ns::op*\nREGION_NAMES_END\n")


class TestFilterThroughCallers:
    def test_compile_time_filter_skips_a_name_holding_a_star(self):
        out, report, _ = instrument_module(
            parse_module(_OPS), _EXCLUDE_OP_STAR, "plugin", O0
        )
        descriptors = [out.regions[r] for r in sorted(out.regions)]
        assert report.skipped == [
            ("_ZN2nsmlEi", "compile_time_filter(region rule 0: EXCLUDE ns::op*)")
        ]
        assert [d.name for d in descriptors] == ["main", "ns::other(int)"]

    def test_runtime_filter_records_no_event_for_a_name_holding_a_star(self):
        out, _, _ = instrument_module(parse_module(_OPS), FilterRuleSet(), "plugin", O0)
        events = execute(out, runtime_rules=_EXCLUDE_OP_STAR).events
        names = {ev.handle: ev.descriptor.name for ev in events if ev.kind == "D"}
        assert [names[ev.handle] for ev in events if ev.kind == "E"] == [
            "main",
            "ns::other(int)",
        ]


@pytest.mark.parametrize(
    "name, alone",
    [
        ("f(int)", True),
        ("f[ab]", True),
        ("# f", True),
        ("a  b", True),
        ("MANGLEDx()", True),
        ("MANGLED\tg()", True),
        ("f(char*)", False),
        ("get(T?)", False),
        ("", False),
        (" lead()", False),
        ("trail() ", False),
        ("MANGLED", False),
        ("MANGLED g()", False),
        *((f"a{c}b", False) for c in "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"),
    ],
)
def test_selects_alone(name, alone):
    # EXCLUDE <name> reads back as one rule on the demangled name, without wildcards.
    assert selects_alone(name) is alone
