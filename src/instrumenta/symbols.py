"""Demangling of compiler-decorated function names.

Only a small, documented subset of the Itanium C++ ABI scheme is
understood: plain names (``_Z<len><name>``), nested names
(``_ZN(<len><name>)+E``), and the builtin parameter codes v, i, l, c,
d, b.  Everything else passes through unchanged, which keeps the
function total and idempotent.
"""

from __future__ import annotations

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


def demangle(mangled: str) -> str:
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
