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
def _glob(pattern: str) -> Callable[[str], re.Match[str] | None]:
    # "[" becomes the class "[[]", which matches only itself, so fnmatch's
    # bracket sets never apply and * and ? are the only wildcards.
    return re.compile(fnmatch.translate(pattern.replace("[", "[[]"))).match


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
        if block == "region":
            mangled = False
            if rest.startswith("MANGLED ") or rest == "MANGLED":
                mangled = True
                rest = rest[len("MANGLED") :].strip()
            if not rest:
                raise FilterParseError("rule without pattern", lineno)
            region_rules.append(RegionRule(kind, rest, mangled))
        else:
            if not rest:
                raise FilterParseError("rule without pattern", lineno)
            file_rules.append(FileRule(kind, rest))
    if block is not None:
        raise FilterParseError(
            f"unterminated {block.upper()}_NAMES block", block_line
        )
    return FilterRuleSet(tuple(region_rules), tuple(file_rules))


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
