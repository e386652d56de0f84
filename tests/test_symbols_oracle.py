"""``demangle`` reads every length-prefixed name in one loop.

``reference_demangle`` is the demangler that loop replaced, copied
verbatim but for its name: it read ``_Z<len><name>`` and ``_ZN...E`` on
two branches and took any character that ``str.isdigit`` accepts into a
length prefix.  On ASCII names both must agree, over every short name of
a small alphabet and seeded names of every shape: plain and nested,
truncated, with leading zeros, wrong lengths, ``E`` in odd places and
every parameter code.  A length prefix is ASCII digits only, and one
that ``int()`` cannot read ends the read, so names whose prefix holds a
superscript, an Arabic-Indic or a fullwidth digit, or 5,000 digits, come
back unchanged; the reference raised on some of them.  ``demangle``
never raises.
"""

from __future__ import annotations

import itertools
import random

import pytest

from instrumenta.symbols import demangle


# The reference, as it stood before the one-loop reader.

_PARAM_CODES = {
    "v": "void",
    "i": "int",
    "l": "long",
    "c": "char",
    "d": "double",
    "b": "bool",
}


def is_mangled(name: str) -> bool:
    """True iff the name carries the ``_Z`` mangling prefix."""
    return name.startswith("_Z")


def reference_demangle(mangled: str) -> str:
    """Return the human-readable form of a mangled name.

    Names that do not start with ``_Z`` pass through untouched; names
    that start with ``_Z`` but fall outside the supported subset are
    returned unchanged as well.  Total: never raises.
    """
    if not is_mangled(mangled):
        return mangled
    pretty = _try_demangle(mangled)
    return pretty if pretty is not None else mangled


def _read_source_name(text: str, pos: int) -> tuple[str, int] | None:
    # <len><name> with len a positive decimal number.
    start = pos
    while pos < len(text) and text[pos].isdigit():
        pos += 1
    if pos == start:
        return None
    length = int(text[start:pos])
    if length <= 0 or pos + length > len(text):
        return None
    return text[pos : pos + length], pos + length


def _try_demangle(mangled: str) -> str | None:
    pos = 2  # past "_Z"
    parts: list[str] = []
    if pos < len(mangled) and mangled[pos] == "N":
        pos += 1
        while pos < len(mangled) and mangled[pos] != "E":
            item = _read_source_name(mangled, pos)
            if item is None:
                return None
            name, pos = item
            parts.append(name)
        if pos >= len(mangled) or not parts:
            return None
        pos += 1  # consume "E"
    else:
        item = _read_source_name(mangled, pos)
        if item is None:
            return None
        name, pos = item
        parts.append(name)

    codes = mangled[pos:]
    if not codes or any(c not in _PARAM_CODES for c in codes):
        return None
    if codes == "v":
        params: list[str] = []
    elif "v" in codes:
        return None  # void only appears alone in this subset
    else:
        params = [_PARAM_CODES[c] for c in codes]
    return "{}({})".format("::".join(parts), ", ".join(params))



# The comparison.

CODES = "vilcdb"
IDENT = "abfxyzNE_Z019"


def _source_name(rng: random.Random) -> str:
    """``<len><name>``: sometimes with leading zeros, sometimes with a
    length that is off by one or zero."""
    name = "".join(rng.choice(IDENT) for _ in range(rng.randint(1, 12)))
    length = len(name) + rng.choice((0, 0, 0, 0, 0, 0, -1, 1, -len(name)))
    return "0" * rng.choice((0, 0, 0, 0, 1, 3)) + str(length) + name


def _seeded_name(rng: random.Random) -> str:
    nested = rng.random() < 0.5
    names = "".join(_source_name(rng) for _ in range(rng.randint(1, 4) if nested else 1))
    codes = "".join(rng.choice(CODES + "xE") for _ in range(rng.randint(0, 4)))
    if rng.random() < 0.3:
        codes = rng.choice(CODES)
    name = ("_ZN" + names + "E" if nested else "_Z" + names) + codes
    damage = rng.random()
    if damage < 0.2:  # truncated
        name = name[: rng.randint(0, len(name))]
    elif damage < 0.35:  # an "E" anywhere
        at = rng.randint(0, len(name))
        name = name[:at] + "E" + name[at:]
    elif damage < 0.45:  # one character replaced
        at = rng.randrange(len(name))
        name = name[:at] + rng.choice("0123456789NEZ_v") + name[at + 1 :]
    elif damage < 0.5:  # any short name over the alphabet
        name = "_Z" + "".join(rng.choice("N0123456789E" + CODES) for _ in range(rng.randint(0, 10)))
    return name


def _seeded_names(seed: int, n: int) -> list[str]:
    rng = random.Random(seed)
    return [_seeded_name(rng) for _ in range(n)]


def test_seeded_names_cover_every_shape():
    names = _seeded_names(0, 20_000)
    pretty = [reference_demangle(name) for name in names]
    assert sum(p != n for p, n in zip(pretty, names)) > 2_000  # many demangle
    assert any("::" in p for p in pretty) and any(p.endswith("()") for p in pretty)
    for code in ("int", "long", "char", "double", "bool"):
        assert any(code in p and p != n for p, n in zip(pretty, names))
    assert any(n.startswith("_Z0") and p != n for p, n in zip(pretty, names))  # leading zeros


@pytest.mark.parametrize("seed", range(5))
def test_seeded_names_match_reference(seed):
    for name in _seeded_names(seed, 24_000):
        assert demangle(name) == reference_demangle(name), name


def test_every_short_name_matches_reference():
    for length in range(5):
        for chars in itertools.product("_ZN0123Eavi", repeat=length):
            for name in ("_Z" + "".join(chars), "".join(chars)):
                assert demangle(name) == reference_demangle(name), name


LONG = "9" * 5000


@pytest.mark.parametrize(
    "name",
    [
        "_Z²ab", "_Z1²ai", "_ZN²abE", "_ZN1a²bEv",
        "_Z١ai", "_ZN١a١bEv", "_Z１ai", "_ZN１a１bEi",
        f"_Z{LONG}a", f"_ZN{LONG}aEv", f"_ZN1a{LONG}bEv", f"_Z{'0' * 5000}1ai",
    ],
)
def test_non_ascii_or_long_prefix_returns_name(name):
    assert demangle(name) == name


def test_reference_raises_on_a_superscript_prefix():
    with pytest.raises(ValueError):
        reference_demangle("_Z²ab")
    assert reference_demangle("_Z١ai") == "a(int)"


def test_demangle_never_raises():
    rng = random.Random(3)
    alphabet = "_ZNE0129vilcdb²١１٣\u0660\uff10\u00b3\U0001d7ce\x00 "
    for _ in range(20_000):
        name = "_Z" + "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        assert isinstance(demangle(name), str)
        name = "_Z" + "".join(chr(rng.randrange(0x110000)) for _ in range(rng.randint(0, 6)))
        assert isinstance(demangle(name), str)
