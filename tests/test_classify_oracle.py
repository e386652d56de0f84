"""``classify`` matches a name once per rule list.

``reference_classify`` is the per-rule loop that the one-pattern-per-list
matchers replaced: it tests every rule in file order and keeps the last
that matches.  Both must give the same outcome, deciding rule and reason
on seeded rule sets over an alphabet full of glob and regex syntax, with
MANGLED rules, empty file names and one set of 2,000 rules.  The
matchers are built once per rule set and stored on it outside its
fields, so a rule set compares, hashes, prints and pickles as before.
"""

from __future__ import annotations

import copy
import fnmatch
import itertools
import pickle
import random
import re

import pytest

from instrumenta import filters
from instrumenta.filters import (
    FileRule,
    FilterRuleSet,
    MatchDecision,
    RegionRule,
    classify,
    parse_filter,
    wildcard_match,
)

ALPHABET = "ab*?[]().\\^$+{}|: _Z9"
NAME_CHARS = ALPHABET.replace("*", "").replace("?", "")


def reference_classify(
    rules: FilterRuleSet, mangled: str, demangled: str, file: str
) -> MatchDecision:
    region_hit: tuple[int, RegionRule] | None = None
    for i, rule in enumerate(rules.region_rules):
        name = mangled if rule.match_mangled else demangled
        if wildcard_match(rule.pattern, name):
            region_hit = (i, rule)
    file_hit: tuple[int, FileRule] | None = None
    if file:
        for i, frule in enumerate(rules.file_rules):
            if wildcard_match(frule.pattern, file):
                file_hit = (i, frule)

    if region_hit is not None and region_hit[1].kind == "exclude":
        i, rule = region_hit
        return MatchDecision("filtered", i, f"region rule {i}: EXCLUDE {rule.pattern}")
    if file_hit is not None and file_hit[1].kind == "exclude":
        i, frule = file_hit
        return MatchDecision("filtered", i, f"file rule {i}: EXCLUDE {frule.pattern}")
    if region_hit is not None:
        i, rule = region_hit
        return MatchDecision(
            "instrument", i, f"region rule {i}: INCLUDE {rule.pattern}"
        )
    if file_hit is not None:
        i, frule = file_hit
        return MatchDecision("instrument", i, f"file rule {i}: INCLUDE {frule.pattern}")
    return MatchDecision("instrument", None, "default: no matching rule")


def _word(rng: random.Random, chars: str, longest: int) -> str:
    return "".join(rng.choice(chars) for _ in range(rng.randint(0, longest)))


def _glob(rng: random.Random) -> str:
    # Seldom empty, which parse_filter rejects; the empty glob matches
    # only the empty name.
    glob = _word(rng, ALPHABET, 6)
    return glob if glob or rng.random() < 0.2 else "a"


def _instance(rng: random.Random, glob: str) -> str:
    """A name that ``glob`` matches, or nearly: now and then one more
    character, so that a rule misses by a little."""
    out = []
    for ch in glob:
        if ch == "*":
            out.append(_word(rng, NAME_CHARS, 3))
        elif ch == "?":
            out.append(rng.choice(NAME_CHARS))
        else:
            out.append(ch)
    if rng.random() < 0.1:
        out.insert(rng.randint(0, len(out)), rng.choice(NAME_CHARS))
    return "".join(out)


def _mangled(rng: random.Random) -> str:
    word = _word(rng, NAME_CHARS, 5)
    return f"_Z{len(word)}{word}" if rng.random() < 0.7 else word


def _rule_set(rng: random.Random, n_region: int, n_file: int) -> FilterRuleSet:
    kinds = ("include", "exclude")
    region = tuple(
        RegionRule(rng.choice(kinds), _glob(rng), rng.random() < 0.3) for _ in range(n_region)
    )
    # Repeated globs: the last of equal rules decides.
    if region and rng.random() < 0.3:
        region += (RegionRule(rng.choice(kinds), rng.choice(region).pattern, rng.random() < 0.3),)
    files = tuple(FileRule(rng.choice(kinds), _glob(rng)) for _ in range(n_file))
    return FilterRuleSet(region, files)


def _names(rng: random.Random, rules: FilterRuleSet, count: int):
    """``count`` (mangled, demangled, file) triples, mostly instances of
    the set's own globs."""
    region = [r.pattern for r in rules.region_rules] or ["a*"]
    mangled = [r.pattern for r in rules.region_rules if r.match_mangled] or ["_Z*"]
    files = [r.pattern for r in rules.file_rules] or ["*.c"]
    for _ in range(count):
        m = _instance(rng, rng.choice(mangled)) if rng.random() < 0.6 else _mangled(rng)
        d = _instance(rng, rng.choice(region)) if rng.random() < 0.7 else _word(rng, NAME_CHARS, 8)
        roll = rng.random()
        if roll < 0.2:
            f = ""
        elif roll < 0.8:
            f = _instance(rng, rng.choice(files))
        else:
            f = _word(rng, NAME_CHARS, 8)
        yield m, d, f


def _cases(seed: int, sets: int, per_set: int):
    rng = random.Random(seed)
    for _ in range(sets):
        rules = _rule_set(rng, rng.randint(0, 40), rng.randint(0, 12))
        for names in _names(rng, rules, per_set):
            yield rules, names


def _check(cases) -> tuple[int, int]:
    """The number of cases checked, and of those a rule decided."""
    checked = decided = 0
    for rules, names in cases:
        got = classify(rules, *names)
        want = reference_classify(rules, *names)
        assert (got.outcome, got.deciding_rule, got.reason) == (
            want.outcome, want.deciding_rule, want.reason
        ), (rules, names)
        checked += 1
        decided += want.deciding_rule is not None
    return checked, decided


@pytest.mark.parametrize("seed", range(4))
def test_classify_matches_the_per_rule_loop(seed):
    checked, decided = _check(_cases(seed, 300, 50))
    assert checked == 15_000
    # The names are built to hit: most cases are decided by a rule.
    assert decided > checked // 2


def test_two_thousand_rules():
    rng = random.Random(2000)
    rules = _rule_set(rng, 2000, 400)
    checked, decided = _check((rules, names) for names in _names(rng, rules, 500))
    assert checked == 500 and decided > 400


def test_parsed_rules_with_spaces_and_brackets():
    rules = parse_filter(
        "REGION_NAMES_BEGIN\n"
        "EXCLUDE *\n"
        "INCLUDE MANGLED _Z*\n"
        "INCLUDE ns::f(int, [2])\n"
        "EXCLUDE MANGLED _Z3fooi\n"
        "REGION_NAMES_END\n"
        "FILE_NAMES_BEGIN\n"
        "EXCLUDE *.h\n"
        "INCLUDE a(b)|c.h\n"
        "FILE_NAMES_END\n"
    )
    names = [
        ("_Z3fooi", "foo(int)", "x.c"),
        ("_Z3bari", "bar(int)", "x.h"),
        ("g", "ns::f(int, [2])", "a(b)|c.h"),
        ("g", "ns::f(int, 2)", ""),
        ("g", "", "a(b)|c.h"),
    ]
    assert _check((rules, n) for n in names) == (5, 5)


def _snapshot(rules: FilterRuleSet):
    return rules, hash(rules), repr(rules), pickle.dumps(rules), pickle.dumps(copy.copy(rules))


def test_rule_set_compares_hashes_prints_and_pickles_as_before():
    rng = random.Random(7)
    for _ in range(50):
        rules = _rule_set(rng, rng.randint(0, 10), rng.randint(0, 5))
        twin = FilterRuleSet(rules.region_rules, rules.file_rules)
        before = _snapshot(rules)
        for names in _names(rng, rules, 5):
            classify(rules, *names)
        assert rules._matchers is not None and twin._matchers is None
        after = _snapshot(rules)
        assert after[0] == before[0] == twin and after[1:] == before[1:] == _snapshot(twin)[1:]
        # A copy or a pickle leaves the matchers behind and builds its own.
        for other in (pickle.loads(after[3]), copy.copy(rules), copy.deepcopy(rules)):
            assert "_matchers" not in vars(other)
            assert other == rules and hash(other) == hash(rules)
            for names in _names(rng, rules, 5):
                assert classify(other, *names) == reference_classify(rules, *names)


def test_patterns_are_compiled_once_per_rule_set(monkeypatch):
    calls = []
    compile_ = re.compile
    monkeypatch.setattr(re, "compile", lambda *a: calls.append(a) or compile_(*a))
    rng = random.Random(11)
    rules = _rule_set(rng, 30, 7)
    assert any(r.match_mangled for r in rules.region_rules)
    assert not all(r.match_mangled for r in rules.region_rules)
    names = list(itertools.islice(itertools.cycle(_names(rng, rules, 20)), 200))
    for n in names:
        classify(rules, *n)
    # One pattern for each of the three lists.
    assert len(calls) == 3
    # An empty list has no pattern to compile.
    calls.clear()
    one = FilterRuleSet(rules.region_rules[:1])
    for n in names:
        classify(one, *n)
    assert len(calls) == 1


def test_translations_that_hold_groups_of_their_own(monkeypatch):
    """Python 3.10's fnmatch.translate puts named groups of its own
    (``g0``, ``g1``, ... numbered per call) into a glob with two or more
    stars.  Wrapping each translation in such groups must not move the
    rule found, also where a list holds one glob twice."""
    translate = fnmatch.translate
    number = itertools.count()

    def grouped(pattern: str) -> str:
        a, b = next(number), next(number)
        return f"(?P<g{a}>)(?P<g{b}>{translate(pattern)})"

    monkeypatch.setattr(fnmatch, "translate", grouped)
    # Translations are kept per glob: start and end without any.
    filters._translate.cache_clear()
    try:
        checked, _ = _check(_cases(99, 60, 20))
    finally:
        filters._translate.cache_clear()
        filters._glob.cache_clear()
    assert checked == 1_200 and next(number) > 0
