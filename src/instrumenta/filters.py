"""User filter rule sets deciding which functions get instrumented.

A filter file holds an ordered list of include/exclude rules over
region (function) names and over source file names.  Patterns are
globs with ``*`` and ``?`` only and always match the whole name;
substring matching is deliberately not offered.
"""

from __future__ import annotations

import fnmatch
import functools
import re
from dataclasses import dataclass
from typing import Callable, Literal

RuleKind = Literal["include", "exclude"]


class FilterParseError(Exception):
    """Raised for malformed filter files; carries the offending line."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class RegionRule:
    kind: RuleKind
    pattern: str
    match_mangled: bool = False


@dataclass(frozen=True)
class FileRule:
    kind: RuleKind
    pattern: str


@dataclass(frozen=True)
class FilterRuleSet:
    """Ordered rules, preserving file order; immutable after parse."""

    region_rules: tuple[RegionRule, ...] = ()
    file_rules: tuple[FileRule, ...] = ()
    # classify's three matchers (_matchers), stored on this object the
    # first time they are built.  Not a field: equality, hash and repr
    # ignore it, and copies and pickles leave it behind (__getstate__).
    _matchers = None

    def __getstate__(self) -> dict:
        return {"region_rules": self.region_rules, "file_rules": self.file_rules}


@dataclass(frozen=True)
class MatchDecision:
    """Outcome of classifying one function against a rule set.

    ``deciding_rule`` is the index of the rule that fixed the outcome,
    within its own list (the reason string names the list); it is None
    only when the default applied.
    """

    outcome: Literal["instrument", "filtered"]
    deciding_rule: int | None
    reason: str


@functools.cache
def _translate(pattern: str) -> str:
    # "[" becomes the class "[[]", which matches only itself, so fnmatch's
    # bracket sets never apply and * and ? are the only wildcards.
    return fnmatch.translate(pattern.replace("[", "[[]"))


@functools.cache
def _glob(pattern: str) -> Callable[[str], re.Match[str] | None]:
    return re.compile(_translate(pattern)).match


def wildcard_match(pattern: str, name: str) -> bool:
    """Whole-name glob match; ``*`` spans any run, ``?`` one char.

    A pattern without wildcards matches only the exact name, never a
    substring of a longer one.
    """
    return _glob(pattern)(name) is not None


def parse_filter(text: str) -> FilterRuleSet:
    """Parse a filter file.

    Grammar (line oriented, ``#`` lines are comments)::

        REGION_NAMES_BEGIN
          (INCLUDE|EXCLUDE) [MANGLED] <pattern>
        REGION_NAMES_END
        FILE_NAMES_BEGIN
          (INCLUDE|EXCLUDE) <pattern>
        FILE_NAMES_END

    The pattern is the rest of the line, so demangled names containing
    spaces need no quoting.
    """
    region_rules: list[RegionRule] = []
    file_rules: list[FileRule] = []
    block: str | None = None
    block_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line in ("REGION_NAMES_BEGIN", "FILE_NAMES_BEGIN"):
            if block is not None:
                raise FilterParseError(f"nested block '{line}'", lineno)
            block = "region" if line.startswith("REGION") else "file"
            block_line = lineno
            continue
        if line in ("REGION_NAMES_END", "FILE_NAMES_END"):
            expected = "region" if line.startswith("REGION") else "file"
            if block != expected:
                raise FilterParseError(f"'{line}' without matching begin", lineno)
            block = None
            continue
        if block is None:
            raise FilterParseError(f"unknown directive '{line.split()[0]}'", lineno)
        head, _, rest = line.partition(" ")
        if head not in ("INCLUDE", "EXCLUDE"):
            raise FilterParseError(f"unknown directive '{head}'", lineno)
        kind: RuleKind = "include" if head == "INCLUDE" else "exclude"
        rest = rest.strip()
        mangled = block == "region" and rest.partition(" ")[0] == "MANGLED"
        if mangled:
            rest = rest[len("MANGLED") :].strip()
        if not rest:
            raise FilterParseError("rule without pattern", lineno)
        if block == "region":
            region_rules.append(RegionRule(kind, rest, mangled))
        else:
            file_rules.append(FileRule(kind, rest))
    if block is not None:
        raise FilterParseError(
            f"unterminated {block.upper()}_NAMES block", block_line
        )
    return FilterRuleSet(tuple(region_rules), tuple(file_rules))


def selects_alone(name: str) -> bool:
    """Whether the region rule ``EXCLUDE <name>`` selects the demangled name
    ``name`` alone: it reads back as that one rule and holds no wildcard."""
    try:
        rules = parse_filter(f"REGION_NAMES_BEGIN\nEXCLUDE {name}\nREGION_NAMES_END")
    except FilterParseError:
        return False
    return rules.region_rules == (RegionRule("exclude", name),) and not (
        "*" in name or "?" in name
    )


def classify(
    rules: FilterRuleSet, mangled: str, demangled: str, file: str
) -> MatchDecision:
    """Decide instrument-or-filter for one function.

    Within each rule list the last matching rule wins; the function is
    filtered when either list's last match is an exclude.  With no
    matching rule at all the default is to instrument.  Region rules
    test the demangled name unless marked MANGLED; file rules are
    skipped entirely for an empty file name (synthetic functions).
    """
    on_mangled, on_demangled, on_file = rules._matchers or _matchers(rules)
    ri = max(on_mangled(mangled), on_demangled(demangled))
    fi = on_file(file) if file else -1
    rule = rules.region_rules[ri] if ri >= 0 else None
    frule = rules.file_rules[fi] if fi >= 0 else None

    if rule is not None and rule.kind == "exclude":
        return MatchDecision("filtered", ri, f"region rule {ri}: EXCLUDE {rule.pattern}")
    if frule is not None and frule.kind == "exclude":
        return MatchDecision("filtered", fi, f"file rule {fi}: EXCLUDE {frule.pattern}")
    if rule is not None:
        return MatchDecision(
            "instrument", ri, f"region rule {ri}: INCLUDE {rule.pattern}"
        )
    if frule is not None:
        return MatchDecision("instrument", fi, f"file rule {fi}: INCLUDE {frule.pattern}")
    return MatchDecision("instrument", None, "default: no matching rule")


def _matchers(rules: FilterRuleSet) -> tuple[Callable[[str], int], ...]:
    """The last-match finders of the region rules on the mangled name, of
    those on the demangled name and of the file rules, stored on ``rules``."""
    region = list(enumerate(rules.region_rules))
    matchers = (
        _last_match([(i, r.pattern) for i, r in region if r.match_mangled]),
        _last_match([(i, r.pattern) for i, r in region if not r.match_mangled]),
        _last_match(list(enumerate(r.pattern for r in rules.file_rules))),
    )
    object.__setattr__(rules, "_matchers", matchers)
    return matchers


def _last_match(rules: list[tuple[int, str]]) -> Callable[[str], int]:
    """A function from a name to the index of the last of ``rules``, (index,
    glob) pairs, whose glob matches it, or -1.  Its one pattern holds the
    globs last rule first, each in a group of its own, so the alternative
    that matches, whose group ``lastindex`` gives, is the last rule that
    does.  The groups are named because fnmatch's translation may hold
    groups of its own (Python 3.10 names them g0, g1, ... per call)."""
    if not rules:
        return lambda name: -1
    # Of equal globs only the last can be found.  Each glob's translation
    # is made once, so the same glob twice would repeat its group names.
    last: dict[str, int] = {}
    for i, glob in reversed(rules):
        last.setdefault(glob, i)
    pattern = re.compile(
        "|".join(f"(?P<r{i}>{_translate(glob)})" for glob, i in last.items())
    )
    rule_at = [-1] * (pattern.groups + 1)
    for i in last.values():
        rule_at[pattern.groupindex[f"r{i}"]] = i
    match = pattern.match

    def last_rule(name: str) -> int:
        mo = match(name)
        return -1 if mo is None else rule_at[mo.lastindex]

    return last_rule
