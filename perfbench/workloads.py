"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into the files the toolchain sees and the
command sequence one iteration runs.  Every expected answer (exit
values, visit counts per region, tick totals, filtered sets) is derived
here from the generator's own parameters and instrumenta's documented
cost model, never by running the toolchain.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# instrumenta's default CostModel.
GUARD = 1
EVENT = 20
REGISTER = 10
HOOKS_PER_VISIT = 2 * (GUARD + EVENT)

# suggest-filter arguments used by trace_loop.
MAX_TICKS_PER_VISIT = 30
MIN_VISITS = 1000

@dataclass
class Step:
    """One CLI command of an iteration and what its output must show.

    ``phase`` is compile, run or analyze.  ``expect`` holds the answers
    the checks compare against; see ``checks.check_step``.
    """

    label: str
    phase: str
    argv: list[str]
    expect: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    seed: int
    files: dict[str, str]
    steps: list[Step]


def mangle(ns: str, name: str, codes: str) -> str:
    return f"_ZN{len(ns)}{ns}{len(name)}{name}E{codes}"


_PARAMS = {"v": "void", "i": "int", "l": "long", "c": "char", "d": "double", "b": "bool"}


def pretty(ns: str, name: str, codes: str) -> str:
    params = [] if codes == "v" else [_PARAMS[c] for c in codes]
    return f"{ns}::{name}({', '.join(params)})"


def _filter_file(region_rules: list[str], file_rules: list[str] = ()) -> str:
    lines = ["REGION_NAMES_BEGIN", *(f"  {r}" for r in region_rules), "REGION_NAMES_END"]
    if file_rules:
        lines += ["FILE_NAMES_BEGIN", *(f"  {r}" for r in file_rules), "FILE_NAMES_END"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# The hotloop family: main runs OUTER x INNER calls of a 3-instruction
# leaf, OUTER calls of a no_inline callee with a small loop, and some
# work of its own.  The loop counts are fixed so that every seed does
# the same amount of work; the seed varies names, files and constants.

OUTER = 5000
INNER = 20


@dataclass
class Hotloop:
    text: str
    leaf: str
    leaf_pretty: str
    upd: str
    upd_pretty: str
    exit_value: int
    visits: dict[str, int]          # pretty name -> visits
    o0_ticks: int                    # uninstrumented, no inlining
    ret_extra: dict[str, int]        # ticks the exit rewrite adds per visit


def hotloop(rng: random.Random) -> Hotloop:
    ns = rng.choice(["kern", "sim", "app", "solver", "engine"])
    leaf_name = f"{rng.choice(['step', 'tick', 'advance', 'bump'])}{rng.randrange(100)}"
    upd_name = f"{rng.choice(['update', 'refresh', 'sync', 'flush'])}{rng.randrange(100)}"
    leaf = mangle(ns, leaf_name, "v")
    upd = mangle(ns, upd_name, "i")
    src = f"{ns}_{rng.randrange(1000)}.c"
    a, b = rng.randint(1, 3), rng.randint(1, 3)
    loops, w = rng.randint(3, 5), rng.randint(2, 5)
    k, c = rng.randint(1, 4), rng.randint(1, 9)
    text = f"""\
; hotloop family: {OUTER} x {INNER} leaf calls
module "hotloop_{rng.randrange(10**6)}"

func @main file="{src}" lines=1:30
{{
^init:
  li r1, 0
  li r4, 0
  jmp ^outer
^outer:
  call @{upd}, r1
  li r2, 0
  jmp ^inner
^inner:
  call @{leaf}
  addi r2, r2, 1
  addi r3, r2, -{INNER}
  jnz r3, ^inner, ^outer_next
^outer_next:
  work {k}
  addi r4, r4, {c}
  addi r1, r1, 1
  addi r3, r1, -{OUTER}
  jnz r3, ^outer, ^exit
^exit:
  ret r4
}}

func @{leaf} file="{src}" lines=32:35
{{
^e:
  work {a}
  work {b}
  ret
}}

func @{upd} file="{src}" lines=37:45 attrs=no_inline
{{
^e:
  li r1, {loops}
  jmp ^loop
^loop:
  work {w}
  addi r1, r1, -1
  jnz r1, ^loop, ^done
^done:
  ret
}}
"""
    leaf_ticks = a + b + 1
    upd_ticks = 2 + loops * (w + 2) + 1
    per_outer = (1 + upd_ticks + 2) + INNER * (1 + leaf_ticks + 3) + (k + 4)
    o0 = 3 + OUTER * per_outer + 1
    leaf_p, upd_p = pretty(ns, leaf_name, "v"), pretty(ns, upd_name, "i")
    return Hotloop(
        text=text,
        leaf=leaf,
        leaf_pretty=leaf_p,
        upd=upd,
        upd_pretty=upd_p,
        exit_value=OUTER * c,
        visits={"main": 1, upd_p: OUTER, leaf_p: OUTER * INNER},
        o0_ticks=o0,
        # A valued ret becomes addi r15 + jmp + ret, a bare one jmp + ret.
        ret_extra={"main": 2, upd_p: 1, leaf_p: 1},
    )


def _plugin_o0_ticks(h: Hotloop, instrumented: set[str]) -> int:
    """Ticks of the plugin -O0 module: no inlining, hooks on ``instrumented``."""
    extra = sum(
        h.visits[f] * (HOOKS_PER_VISIT + h.ret_extra[f]) + REGISTER for f in instrumented
    )
    return h.o0_ticks + extra


def trace_loop(seed: int) -> Workload:
    h = hotloop(random.Random(seed))
    defined = {"main", h.leaf, h.upd}
    everyone = set(h.visits)
    kept = everyone - {h.leaf_pretty}
    # Only the leaf qualifies for suggestion: the enter hook of a
    # call-free entry block sits right before its terminator, so the
    # leaf's measured inclusive cost is the exit path alone (22 ticks),
    # while the loop of the no_inline callee lies inside its region.
    steps = [
        Step("instrument", "compile",
             ["instrument", "app.ir", "-o", "app.instr.ir", "--mode", "plugin", "-O0"],
             {"instrumented": defined, "defined": defined}),
        Step("run", "run", ["run", "app.instr.ir", "--trace", "app.trc"],
             {"exit": h.exit_value, "ticks": _plugin_o0_ticks(h, everyone),
              "visits": h.visits, "trace": "app.trc"}),
        Step("report", "analyze", ["report", "app.trc"], {"visits": h.visits}),
        Step("suggest-filter", "analyze",
             ["suggest-filter", "app.trc", "--max-ticks-per-visit", str(MAX_TICKS_PER_VISIT),
              "--min-visits", str(MIN_VISITS), "-o", "suggested.flt"],
             {"suggested": {h.leaf_pretty}}),
        Step("instrument-refiltered", "compile",
             ["instrument", "app.ir", "-o", "app.refiltered.ir", "--mode", "plugin", "-O0",
              "--filter", "suggested.flt"],
             {"instrumented": {"main", h.upd}, "defined": defined}),
        Step("run-refiltered", "run",
             ["run", "app.refiltered.ir", "--trace", "refiltered.trc"],
             {"exit": h.exit_value, "ticks": _plugin_o0_ticks(h, kept),
              "visits": {f: h.visits[f] for f in kept}, "trace": "refiltered.trc"}),
        Step("compare", "analyze", ["compare", "before=app.trc", "after=refiltered.trc"],
             {"enters": [sum(h.visits.values()), sum(h.visits[f] for f in kept)],
              "deltas": {f: (0 if f in kept else -h.visits[f]) for f in everyone}}),
    ]
    return Workload("trace_loop", seed, {"app.ir": h.text}, steps)


def filtered_compute(seed: int) -> Workload:
    h = hotloop(random.Random(seed))
    defined = {"main", h.leaf, h.upd}
    kept = {f: v for f, v in h.visits.items() if f != h.leaf_pretty}
    files = {
        "app.ir": h.text,
        "leaf.flt": _filter_file([f"EXCLUDE MANGLED {h.leaf}"]),
        "none.flt": _filter_file(["EXCLUDE *"]),
        "empty.flt": _filter_file([]),
    }
    steps = [
        Step("instrument-auto", "compile",
             ["instrument", "app.ir", "-o", "auto.ir", "--mode", "auto", "-O2"],
             {"instrumented": defined, "defined": defined}),
        Step("run-guarded", "run",
             ["run", "auto.ir", "--runtime-filter", "leaf.flt", "--trace", "guarded.trc"],
             {"exit": h.exit_value, "visits": kept, "trace": "guarded.trc"}),
        Step("report", "analyze", ["report", "guarded.trc"], {"visits": kept}),
        Step("instrument-none", "compile",
             ["instrument", "app.ir", "-o", "plain.ir", "--mode", "plugin", "-O2",
              "--filter", "none.flt"],
             {"instrumented": set(), "defined": defined}),
        Step("run-uninstrumented", "run",
             ["run", "plain.ir", "--runtime-filter", "empty.flt"],
             {"exit": h.exit_value, "visits": {}}),
    ]
    return Workload("filtered_compute", seed, files, steps)


# ---------------------------------------------------------------------------
# compile_wide: many mangled functions over many files, a call DAG with
# self-recursive callees, skip attributes, no_inline, and body sizes on
# both sides of the O1/O2/O3 inline thresholds (4, 16, 64).  The shape
# (kinds, sizes, registers, call edges) comes from a fixed generator so
# every seed costs the same to compile; a random shape per seed moved
# compile time by 20-40%.  The seed picks names, namespaces, files and
# constants, and with them the filtered set.

SHAPE_SEED = 20171205

WIDE_FUNCTIONS = 200
VISIT_CAP = 12        # dynamic visits per function stay small: a short run
SIZES = (2, 3, 4, 5, 6, 14, 15, 16, 17, 20, 30, 60, 63, 64, 65, 70, 90)
NAMESPACES = ("core", "util", "io", "math", "net", "gfx", "mem", "sched", "dbg", "trace")
WORDS = ("solve", "scan", "pack", "merge", "split", "hash", "probe", "emit", "load", "fold")
CODES = ("v", "i", "il", "ld", "ic", "b", "lli")
SKIP_KINDS = ("empty_body", "builtin", "openmp_internal", "artificial")
EXTERNS = ("ext_log", "ext_alloc")

# Rules that match no generated function: the classifier still pays for them.
DECOY_REGION = (
    "EXCLUDE legacy::*", "EXCLUDE MANGLED _ZN6legacy*", "EXCLUDE *::*_cold(*)",
    "EXCLUDE *::unused_?*", "INCLUDE zz_*", "EXCLUDE MANGLED _Z*unused*",
    "EXCLUDE test::*", "EXCLUDE *::mock_*(*)", "EXCLUDE MANGLED _ZN4test*",
    "EXCLUDE ?::*", "EXCLUDE *::stub?(*)", "EXCLUDE MANGLED *Dummy*",
)
DECOY_FILE = ("EXCLUDE tests/*", "EXCLUDE *.cpp", "EXCLUDE */mock_*.c", "EXCLUDE build/*")


@dataclass
class _Fn:
    mangled: str
    pretty: str | None       # None: derived by demangling
    shown: str               # the name report and traces show
    file: str
    skip: str | None = None
    recursive: bool = False
    no_inline: bool = False
    size: int = 0
    callees: list = field(default_factory=list)   # (index, depth or None)
    region_excluded: bool = False
    file_excluded: bool = False


def _wide_functions(shape: random.Random, rng: random.Random) -> list[_Fn]:
    fns: list[_Fn] = []
    for i in range(WIDE_FUNCTIONS):
        roll = shape.random()
        if roll < 0.08:
            kind = SKIP_KINDS[i % len(SKIP_KINDS)]
            if kind == "openmp_internal":
                fn = _Fn(f"omp_task_{i}", f"omp task {i}", f"omp task {i}", "", skip=kind)
            elif kind == "artificial":
                name = f".omp_outlined.{i}"
                fn = _Fn(name, name, name, f"src/omp/outlined_{i % 3}.c", skip=kind)
            else:
                ns = rng.choice(NAMESPACES[:4])
                name = f"{kind}_{i}"
                fn = _Fn(mangle(ns, name, "v"), None, pretty(ns, name, "v"),
                         f"src/{ns}/{ns}_{i % 5}.c", skip=kind)
            fns.append(fn)
            continue
        ns = rng.choice(NAMESPACES)
        keep = ns in ("dbg", "trace") and rng.random() < 0.3
        name = f"{'keep_' if keep else ''}{rng.choice(WORDS)}_{i}"
        codes = "i" if roll < 0.13 else rng.choice(CODES)
        place = rng.random()
        if place < 0.10:
            file = f"third_party/lib{rng.randrange(4)}/impl_{rng.randrange(6)}.c"
            file_excluded = True
        elif place < 0.15:
            file = f"third_party/keep/vendored_{rng.randrange(3)}.c"
            file_excluded = False
        elif place < 0.22:
            file = f"src/{ns}/generated_{rng.randrange(3)}.c"
            file_excluded = True
        else:
            file = f"src/{ns}/{ns}_{rng.randrange(8)}.c"
            file_excluded = False
        fn = _Fn(mangle(ns, name, codes), None, pretty(ns, name, codes), file,
                 recursive=roll < 0.13, no_inline=shape.random() < 0.1,
                 size=shape.choice(SIZES),
                 region_excluded=ns in ("dbg", "trace") and not keep,
                 file_excluded=file_excluded)
        fns.append(fn)
    return fns


def _wide_calls(shape: random.Random, fns: list[_Fn]) -> tuple[list, list[int]]:
    """Choose call edges top-down; returns main's calls and the visits."""
    n = len(fns)
    visits = [0] * n
    main_calls: list[tuple[int, int | None]] = []

    def add(caller_visits: int, callee: int) -> tuple[int, int | None] | None:
        depth = shape.randint(1, 4) if fns[callee].recursive else None
        per_call = depth + 1 if depth is not None else 1
        if visits[callee] + caller_visits * per_call > VISIT_CAP:
            return None
        visits[callee] += caller_visits * per_call
        return callee, depth

    for i, fn in enumerate(fns):
        if visits[i] == 0:
            main_calls.append(add(1, i))
        if fn.skip or fn.recursive:
            continue
        for _ in range(min(fn.size // 6, 4)):
            if i + 1 >= n:
                break
            edge = add(visits[i], shape.randrange(i + 1, n))
            if edge is not None:
                fn.callees.append(edge)
    return main_calls, visits


def _call(dst: list[str], fns: list[_Fn], callee: int, depth: int | None, reg: int) -> None:
    target = fns[callee]
    if depth is not None:
        dst.append(f"  li r{reg}, {depth}")
        dst.append(f"  call @{target.mangled}, r{reg}")
    else:
        dst.append(f"  call @{target.mangled}")


def _wide_body(shape: random.Random, rng: random.Random, fns: list[_Fn], fn: _Fn) -> list[str]:
    if fn.skip == "empty_body":
        return ["^e:", "  ret"]
    if fn.skip:
        return ["^e:", f"  work {rng.randint(1, 3)}", "  ret"]
    if fn.recursive:
        return ["^e:", "  jnz r0, ^rec, ^done", "^rec:", "  addi r1, r0, -1",
                f"  work {rng.randint(1, 4)}", f"  call @{fn.mangled}, r1",
                "  jmp ^done", "^done:", "  ret"]
    nregs = shape.randint(2, 6)
    valued = shape.random() < 0.5
    head = ["^e:", f"  work {rng.randint(1, 5)}"]
    for callee, depth in fn.callees:
        _call(head, fns, callee, depth, shape.randrange(nregs))
    if shape.random() < 0.1:
        head.append(f"  call @{shape.choice(EXTERNS)}")
    filler = max(fn.size - len(head) + 1, 0)
    tail: list[str] = []
    loop = fn.size >= 14 and shape.random() < 0.5
    if loop:
        # r7 is reserved for the loop counter.
        head += [f"  li r7, {shape.randint(2, 4)}", "  jmp ^loop", "^loop:",
                 f"  work {rng.randint(1, 3)}", "  addi r7, r7, -1",
                 "  jnz r7, ^loop, ^out", "^out:"]
        filler = max(filler - 6, 0)
    for _ in range(filler):
        pick = shape.randrange(4)
        r = shape.randrange(nregs)
        if pick == 0:
            tail.append(f"  li r{r}, {rng.randint(-50, 50)}")
        elif pick == 1:
            tail.append(f"  addi r{r}, r{shape.randrange(nregs)}, {rng.randint(-9, 9)}")
        elif pick == 2:
            tail.append(f"  add r{r}, r{shape.randrange(nregs)}, r{shape.randrange(nregs)}")
        else:
            tail.append(f"  work {rng.randint(1, 4)}")
    tail.append(f"  ret r{shape.randrange(nregs)}" if valued else "  ret")
    return head + tail


def compile_wide(seed: int) -> Workload:
    shape, rng = random.Random(SHAPE_SEED), random.Random(seed)
    fns = _wide_functions(shape, rng)
    main_calls, visits = _wide_calls(shape, fns)
    plain = [i for i, fn in enumerate(fns) if not fn.skip]

    # Exact-name rules, applied last so they win over the includes.
    exact = rng.sample(plain, 14)
    for i in exact:
        fns[i].region_excluded = True
    region_rules = [
        "INCLUDE main",
        "EXCLUDE dbg::*",
        "INCLUDE dbg::keep_*",
        "EXCLUDE MANGLED _ZN5trace*",
        "INCLUDE trace::keep_*",
        *DECOY_REGION[:6],
        *(f"EXCLUDE MANGLED {fns[i].mangled}" for i in exact[:8]),
        *(f"EXCLUDE {fns[i].shown}" for i in exact[8:]),
        *DECOY_REGION[6:],
    ]
    file_rules = [
        "EXCLUDE third_party/*",
        "INCLUDE third_party/keep/*",
        *DECOY_FILE,
        "EXCLUDE */generated_*.c",
    ]

    lines = [f'module "wide_{seed}"', ""]
    lines += [f"extern @{e}" for e in EXTERNS]
    exit_value = 0
    body = ["^e:", "  li r5, 0"]
    for callee, depth in main_calls:
        _call(body, fns, callee, depth, 1)
        c = rng.randint(1, 9)
        exit_value += c
        body.append(f"  addi r5, r5, {c}")
    body.append("  ret r5")
    lines += ["", 'func @main file="src/main.c" lines=1:400', "{", *body, "}"]
    next_line: dict[str, int] = {}
    for fn in fns:
        begin = next_line.get(fn.file, 1)
        code = _wide_body(shape, rng, fns, fn)
        end = begin + len(code)
        next_line[fn.file] = end + 2
        head = f"func @{fn.mangled}"
        if fn.pretty is not None:
            head += f' pretty="{fn.pretty}"'
        head += f' file="{fn.file}" lines={begin}:{end}'
        attrs = [a for a in (fn.skip, "no_inline" if fn.no_inline else None) if a]
        if attrs:
            head += " attrs=" + ",".join(sorted(attrs))
        lines += ["", head, "{", *code, "}"]
    text = "\n".join(lines) + "\n"

    defined = {"main"} | {fn.mangled for fn in fns}
    hookable = {"main"} | {fn.mangled for fn in fns if not fn.skip}
    filtered = {fn.mangled for fn in fns
                if not fn.skip and (fn.region_excluded or fn.file_excluded)}
    expect_visits = {"main": 1}
    expect_visits.update(
        (fn.shown, visits[i]) for i, fn in enumerate(fns) if not fn.skip and visits[i]
    )
    files = {"wide.ir": text, "rules.flt": _filter_file(region_rules, file_rules)}
    steps = [
        Step("instrument-plugin", "compile",
             ["instrument", "wide.ir", "-o", "plugin.ir", "--mode", "plugin", "-O3",
              "--filter", "rules.flt"],
             {"instrumented": hookable - filtered, "defined": defined}),
        Step("instrument-auto", "compile",
             ["instrument", "wide.ir", "-o", "auto.ir", "--mode", "auto", "-O3"],
             {"instrumented": hookable, "defined": defined}),
        Step("run", "run", ["run", "auto.ir", "--trace", "wide.trc"],
             {"exit": exit_value, "visits": expect_visits, "trace": "wide.trc"}),
        Step("report", "analyze", ["report", "wide.trc"], {"visits": expect_visits}),
    ]
    return Workload("compile_wide", seed, files, steps)


GENERATORS = {"trace_loop": trace_loop, "filtered_compute": filtered_compute,
            "compile_wide": compile_wide}
WORKLOADS = tuple(GENERATORS)


def build(name: str, seed: int) -> Workload:
    return GENERATORS[name](seed)
