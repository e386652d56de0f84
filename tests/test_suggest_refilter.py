"""The suggest -> refilter loop excludes exactly what it suggested.

Seeded profiles of 1 to 12 regions, with pretty names full of what a
filter file reads specially: the wildcards, bracket and call syntax,
blanks and ``#``, a leading ``MANGLED`` word, every character that
``str.splitlines`` breaks a line on, names that several regions share
and the empty name.  ``suggest_filter``'s text must parse, and a region
must be filtered by it, classified by its canonical and pretty names,
exactly when it qualified for a rule.
"""

from __future__ import annotations

import random

import pytest

from instrumenta.analysis import Profile, ProfileEntry, suggest_filter
from instrumenta.filters import classify, parse_filter

LINE_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
CLEAN = ["f", "g", "ns", "::", "(", ")", "int", ",", " ", "#", "[", "]", "MANGLED"]
ODD = ["\t", "*", "?", "MANGLED ", "INCLUDE", "\r\n", *LINE_BREAKS]


def _pretty(rng: random.Random, taken: list[str]) -> str:
    roll = rng.random()
    if roll < 0.1:
        return ""
    if roll < 0.25 and taken:
        return rng.choice(taken)  # shared with an earlier region
    pieces = CLEAN if roll < 0.6 else CLEAN + ODD
    name = "".join(rng.choice(pieces) for _ in range(rng.randint(1, 6)))
    if rng.random() < 0.2:
        name = rng.choice(["MANGLED ", "MANGLED", " ", "# ", "\t"]) + name
    return name


def _profile(rng: random.Random) -> Profile:
    p = Profile()
    names: list[str] = []
    for handle in range(2, 2 + rng.randint(1, 12)):
        name = _pretty(rng, names)
        names.append(name)
        visits = rng.randint(0, 6)
        ticks = visits * rng.randint(0, 6)
        p.entries[handle] = ProfileEntry(name, f"_Z{handle}r{rng.randint(0, 99)}v", visits, ticks, ticks)
    return p


@pytest.mark.parametrize("seed", range(5))
def test_refilter_excludes_exactly_the_suggested_regions(seed):
    rng = random.Random(seed)
    for _ in range(1_000):
        p = _profile(rng)
        max_ticks, min_visits = rng.randint(0, 5), rng.randint(1, 4)
        rules = parse_filter(suggest_filter(p, max_ticks, min_visits))
        for e in p.entries.values():
            suggested = e.visits >= min_visits and e.inclusive_ticks <= max_ticks * e.visits
            decision = classify(rules, e.canonical, e.name, "")
            assert (decision.outcome == "filtered") == suggested, (e, rules)


def test_profiles_exercise_both_rule_forms():
    rng = random.Random(0)
    pretty = mangled = 0
    for _ in range(1_000):
        text = suggest_filter(_profile(rng), 3, 1)
        mangled += text.count("EXCLUDE MANGLED ")
        pretty += text.count("  EXCLUDE ") - text.count("EXCLUDE MANGLED ")
    assert pretty > 500 and mangled > 500

