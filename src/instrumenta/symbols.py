"""Demangling of compiler-decorated function names.

Only a small, documented subset of the Itanium C++ ABI scheme is
understood: plain names (``_Z<len><name>``), nested names
(``_ZN(<len><name>)+E``), and the builtin parameter codes v, i, l, c,
d, b, with ``<len>`` in ASCII digits.  Everything else passes through
unchanged, which keeps the function total and idempotent.
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


def _try_demangle(mangled: str) -> str | None:
    # One <len><name> after "_Z", or one or more between "_ZN" and "E";
    # <len> is a positive decimal number in ASCII digits.
    end = len(mangled)
    nested = mangled[2:3] == "N"
    pos = 3 if nested else 2
    parts: list[str] = []
    while True:
        start = pos
        while pos < end and "0" <= mangled[pos] <= "9":
            pos += 1
        try:
            length = int(mangled[start:pos])
        except ValueError:  # no digits, or more than int() reads
            return None
        if length <= 0 or pos + length > end:
            return None
        parts.append(mangled[pos : pos + length])
        pos += length
        if not nested or mangled[pos : pos + 1] == "E":
            break

    codes = mangled[pos + nested :]  # past the "E" of a nested name
    if not codes or any(c not in _PARAM_CODES for c in codes):
        return None
    if codes == "v":
        params: list[str] = []
    elif "v" in codes:
        return None  # void only appears alone in this subset
    else:
        params = [_PARAM_CODES[c] for c in codes]
    return "{}({})".format("::".join(parts), ", ".join(params))
