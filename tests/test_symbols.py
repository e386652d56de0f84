import random

import pytest

from instrumenta.symbols import demangle, is_mangled

# Expected forms confirmed against a standard Itanium-ABI demangler
# (c++filt) before being frozen here.
CXXFILT_CASES = [
    ("_Z4funci", "func(int)"),
    ("_Z4funcv", "func()"),
    ("_ZN3app4initEv", "app::init()"),
    ("_Z3barb", "bar(bool)"),
    ("_ZN3foo3bar3bazEil", "foo::bar::baz(int, long)"),
    ("_Z1fd", "f(double)"),
    ("_Z1fc", "f(char)"),
    ("_Z1fl", "f(long)"),
    ("_Z3runii", "run(int, int)"),
]


@pytest.mark.parametrize("mangled,expected", CXXFILT_CASES)
def test_demangle_subset(mangled, expected):
    assert demangle(mangled) == expected


@pytest.mark.parametrize("name", ["main", "func", "", "printf", ".omp_outlined."])
def test_passthrough(name):
    assert demangle(name) == name


@pytest.mark.parametrize(
    "raw",
    [
        "_Z",                 # nothing after prefix
        "_Zx",                # no length digit
        "_Z4fun",             # name runs past the end
        "_Z4funcz",           # parameter code outside the subset
        "_Z4func",            # no parameter codes at all
        "_ZN3appE",           # nested name without parameters
        "_ZN3app",            # unterminated nested name
        "_Z4funcvi",          # void mixed with other parameters
        "_ZSt4cout",          # substitutions are not supported
    ],
)
def test_out_of_subset_returns_unchanged(raw):
    assert demangle(raw) == raw
    assert is_mangled(demangle(raw))  # the raw marker


def test_is_mangled():
    assert is_mangled("_Z4funci")
    assert not is_mangled("func")
    assert not is_mangled("")
    assert not is_mangled("Z4funci")


def test_idempotence_property():
    rng = random.Random(20170)
    pool = [m for m, _ in CXXFILT_CASES] + [
        "main",
        "_Zbroken",
        "x",
        "_ZN1a1bEv",
        "operator new",
    ]
    for _ in range(300):
        name = rng.choice(pool) + rng.choice(["", "x", "i", "_"])
        once = demangle(name)
        assert demangle(once) == once


def test_passthrough_property():
    rng = random.Random(20171)
    alphabet = "abcZ_019$.~"
    for _ in range(300):
        name = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 12)))
        if not name.startswith("_Z"):
            assert demangle(name) == name
