"""Seeded random generators shared by the property-style tests.

Three module flavors: ``terminating_module`` builds programs whose call
graph and control flow are both forward-only DAGs, so every run halts
without a step limit; ``looping_module`` adds counted loops whose trip
counts are fixed when they are generated, so every run halts too;
``printable_module`` covers the wider grammar (loops, hooks, externs,
odd strings) for print/parse round-trips.
"""

from __future__ import annotations

import random
import string

from instrumenta.ir import (
    BasicBlock,
    Instruction,
    IrFunction,
    IrModule,
    RegionDescriptor,
    is_empty_body,
)
from instrumenta.runtime import TraceEvent

I = Instruction.make


def _straightline(rng: random.Random, regs: range) -> list[Instruction]:
    out = []
    for _ in range(rng.randint(0, 3)):
        pick = rng.randrange(4)
        if pick == 0:
            out.append(I("li", rng.choice(regs), rng.randint(-99, 99)))
        elif pick == 1:
            out.append(I("addi", rng.choice(regs), rng.choice(regs), rng.randint(-9, 9)))
        elif pick == 2:
            out.append(I("add", rng.choice(regs), rng.choice(regs), rng.choice(regs)))
        else:
            out.append(I("work", rng.randint(1, 5)))
    return out


def terminating_module(rng: random.Random) -> IrModule:
    n = rng.randint(2, 5)
    names = ["main"] + [
        rng.choice([f"fn{i}", f"_Z2f{i}v" if i < 10 else f"fn{i}"])
        for i in range(1, n)
    ]
    module = IrModule(name=f"gen{rng.randrange(10**6)}")
    regs = range(0, 8)
    for i, name in enumerate(names):
        callees = names[i + 1 :]
        nblocks = rng.randint(1, 3)
        labels = [f"b{j}" for j in range(nblocks)]
        handlers: list[BasicBlock] = []
        blocks: list[BasicBlock] = []
        for j, label in enumerate(labels):
            body = _straightline(rng, regs)
            for _ in range(rng.randint(0, 2)):
                if callees and rng.random() < 0.7:
                    target = rng.choice(callees)
                    args = tuple(
                        rng.choice(regs) for _ in range(rng.randint(0, 2))
                    )
                    body.append(I("call", target, *args))
            last = j == nblocks - 1
            roll = rng.random()
            if not last and callees and roll < 0.25:
                handler = f"h{len(handlers)}"
                handlers.append(
                    BasicBlock(
                        handler,
                        _straightline(rng, regs)
                        + [
                            I("ret", rng.choice(regs))
                            if rng.random() < 0.7
                            else I("rethrow")
                        ],
                    )
                )
                target = rng.choice(callees)
                body.append(I("call.try", target, labels[j + 1], handler))
            elif not last and roll < 0.5:
                body.append(I("jmp", labels[j + 1]))
            elif not last and roll < 0.7 and j + 2 < nblocks:
                body.append(I("jnz", rng.choice(regs), labels[j + 1], labels[j + 2]))
            elif not last and roll < 0.7:
                body.append(I("jnz", rng.choice(regs), labels[j + 1], labels[j + 1]))
            elif roll < 0.9 or i == 0:
                if rng.random() < 0.6:
                    body.append(I("ret", rng.choice(regs)))
                else:
                    body.append(I("ret"))
            else:
                body.append(I("throw"))
            blocks.append(BasicBlock(label, body))
        attrs: set[str] = set()
        if i > 0 and rng.random() < 0.15:
            attrs.add(rng.choice(["artificial", "builtin", "openmp_internal"]))
        f = IrFunction(
            mangled_name=name,
            file=f"gen{i}.c",
            begin_line=1 + i * 10,
            end_line=9 + i * 10,
            attrs=attrs,
            blocks=blocks + handlers,
        )
        if is_empty_body(f):
            f.attrs.add("empty_body")
        module.functions.append(f)
    return module


_I64 = 1 << 63

# Registers of looping_module: straight-line code and calls use r0-r7,
# loop nest level k keeps its counter in r8+2k and its exit test in
# r9+2k, r12 is the throw test and r13 an induction that wraps.
_LOOP_REGS = range(0, 8)


def _wrapped(v: int) -> int:
    return (v + _I64) % (1 << 64) - _I64


class _BlockList:
    """The blocks of one function, built front to back."""

    def __init__(self):
        self.blocks: list[BasicBlock] = []
        self.label = "e"
        self.body: list[Instruction] = []
        self.labels = 0

    def fresh(self, stem: str) -> str:
        self.labels += 1
        return f"{stem}{self.labels}"

    def close(self, terminator: Instruction, nxt: str | None = None) -> None:
        self.blocks.append(BasicBlock(self.label, self.body + [terminator]))
        self.label, self.body = nxt, []


def _affine(rng: random.Random) -> list[Instruction]:
    """Straight-line code that mostly keeps a loop countable: a sum of
    two registers (``add``) is the one write a counted loop refuses."""
    out = []
    for _ in range(rng.randint(0, 3)):
        pick = rng.randrange(10)
        if pick < 3:
            r = rng.choice(_LOOP_REGS)
            out.append(I("addi", r, r, rng.randint(-9, 9)))
        elif pick < 5:
            out.append(I("addi", rng.choice(_LOOP_REGS), rng.choice(_LOOP_REGS), rng.randint(-9, 9)))
        elif pick < 7:
            out.append(I("li", rng.choice(_LOOP_REGS), rng.randint(-99, 99)))
        elif pick < 9:
            out.append(I("work", rng.randint(1, 5)))
        else:
            out.append(I("add", *(rng.choice(_LOOP_REGS) for _ in range(3))))
    return out


def _loop_body(rng, fb: _BlockList, level: int, calls, budget: int, may_throw: bool) -> int:
    """Emit one iteration's body into ``fb`` and return its steps at most.

    ``calls`` maps each callee (a later function or an extern) to the
    most steps one call to it runs; only callees that fit ``budget`` are
    called."""
    cost = 0
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        affordable = [f for f, c in calls.items() if c + 1 <= budget - cost]
        if roll < 0.35:
            code = _affine(rng)
            fb.body += code
            cost += len(code)
        elif roll < 0.65 and affordable:
            target = rng.choice(affordable)
            args = tuple(rng.choice(_LOOP_REGS) for _ in range(rng.randint(0, 2)))
            fb.body.append(I("call", target, *args))
            cost += 1 + calls[target]
        elif roll < 0.75 and affordable:
            # call.try ends the block; its handler rejoins or leaves.
            target = rng.choice(affordable)
            nxt, handler = fb.fresh("n"), fb.fresh("h")
            fb.close(I("call.try", target, nxt, handler), handler)
            fb.body += _affine(rng)
            fb.close(rng.choice([I("jmp", nxt), I("rethrow"), I("ret", rng.choice(_LOOP_REGS))]), nxt)
            cost += 2 + calls[target] + 4
        elif roll < 0.85 and level == 0 and budget - cost > 30:
            cost += _loop(rng, fb, 1, calls, (budget - cost) // 2, may_throw)
        elif roll < 0.92 and may_throw:
            # Leave the loop by a throw when the counter reaches a value
            # it may or may not take.
            rc = 8 + 2 * level
            go, thr = fb.fresh("g"), fb.fresh("t")
            fb.body.append(I("addi", 12, rc, rng.randint(-40, 40)))
            fb.close(I("jnz", 12, go, thr), thr)
            fb.close(I("throw"), go)
            cost += 3
    return cost


def _loop(rng, fb: _BlockList, level: int, calls, budget: int, may_throw: bool) -> int:
    """Emit a counted loop at nest ``level`` into ``fb`` that runs about
    ``budget`` steps at most, and return its steps at most."""
    rc, rt = 8 + 2 * level, 9 + 2 * level
    step = rng.choice([1, -1, 2, -2, 3, -3, 5, -7, 64])
    near_edge = rng.random() < 0.2
    derived = near_edge or rng.random() < 0.5
    head, after = fb.fresh("loop"), fb.fresh("after")
    body_budget = max(budget // rng.choice([1, 2, 8, 60]) - 6, 0)
    # The body goes into its own block list first, so that its cost picks
    # the trip count.
    inner = _BlockList()
    inner.labels, inner.label = fb.labels, head
    body_cost = _loop_body(rng, inner, level, calls, body_budget, may_throw)
    inner.body.append(I("addi", rc, rc, step))
    if rng.random() < 0.3:
        inner.body.append(I("addi", 13, 13, rng.choice([1 << 62, -(1 << 61) - 3, _I64 - 1])))
    per_trip = body_cost + 3 + (1 if derived else 0)
    most = max(0, (budget - 6) // per_trip)
    pick = rng.random()
    if pick < 0.15:
        trips = 0
    elif pick < 0.3:
        trips = min(1, most)
    elif pick < 0.45:
        trips = min(2, most)
    else:
        trips = rng.randint(0, min(most, 200))
    if near_edge:  # reaches an end of the i64 range after 0 to trips iterations
        start = _wrapped(rng.choice([_I64 - 1, -_I64]) - rng.randint(0, trips) * step)
    else:
        start = rng.randint(-50, 50)
    end = _wrapped(start + trips * step)
    if not derived:
        start, end = _wrapped(-trips * step), 0
    test = rt if derived else rc
    fb.body.append(I("li", rc, start))
    if trips == 0 or rng.random() < 0.3:
        if derived:
            fb.body.append(I("addi", rt, rc, -end))
        fb.close(I("jnz", test, head, after), None)
    else:
        fb.close(I("jmp", head), None)
    if derived:
        inner.body.append(I("addi", rt, rc, -end))
    inner.close(I("jnz", test, head, after), after)
    fb.blocks += inner.blocks
    fb.labels, fb.label = inner.labels, after
    return 3 + trips * per_trip


def looping_module(rng: random.Random) -> IrModule:
    """Programs with counted loops, each with a trip count of 0 to about
    200 fixed when it is generated, so every run halts.

    Loops count up or down by steps other than 1, exit on the counter
    or on a derived register (``addi r9, r8, -N``), nest two deep, call
    later functions, externs and a leaf by ``call`` and ``call.try``,
    and may throw out of the loop to a caller that catches.  Some
    counters start near -2**63 or 2**63 - 1 and wrap.  Main often calls
    the leaf from a loop of 65 to 200 trips, so that its region passes
    the VM's tier-up count, and sometimes ends in a loop whose counter
    reads a register before the loop writes it as a constant.  The call
    graph is a DAG, as in ``terminating_module``."""
    n = rng.randint(2, 4)
    names = ["main"] + [f"_Z2f{i}v" if rng.random() < 0.7 else f"fn{i}" for i in range(1, n)]
    names.append("_Z4leafv")
    module = IrModule(name=f"loops{rng.randrange(10**6)}")
    calls: dict[str, int] = {}
    if rng.random() < 0.5:
        module.functions.append(IrFunction(mangled_name="ext", is_extern=True))
        calls["ext"] = 1
    functions = []
    for i in reversed(range(len(names))):
        name = names[i]
        fb = _BlockList()
        if name == "_Z4leafv":
            fb.body = [I("work", rng.randint(1, 3)), *_affine(rng)]
            cost = len(fb.body) + 1
            fb.close(rng.choice([I("ret"), I("ret", rng.choice(_LOOP_REGS))]))
        else:
            budget = 2500 if name == "main" else rng.choice([40, 150, 400])
            cost = 0
            may_throw = i > 0 and rng.random() < 0.5
            if name == "main" and rng.random() < 0.5:
                # The leaf from a hot loop, past the tier-up count.
                trips = rng.randint(65, 200)
                fb.body.append(I("li", 8, 0))
                fb.close(I("jmp", "hot"), "hot")
                fb.body += [I("call", "_Z4leafv"), *_affine(rng)[:1], I("addi", 8, 8, 1), I("addi", 9, 8, -trips)]
                fb.close(I("jnz", 9, "hot", "cool"), "cool")
                cost += trips * (calls["_Z4leafv"] + 5)
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.7:
                    cost += _loop(rng, fb, 0, calls, (budget - cost) // 2, may_throw)
                else:
                    fb.body += _affine(rng)
                    cost += 3
                if i == 0 and len(names) > 1 and rng.random() < 0.4:
                    # Catch what a callee throws.
                    target = rng.choice(names[1:])
                    if calls[target] < budget - cost:
                        nxt, handler = fb.fresh("n"), fb.fresh("h")
                        fb.close(I("call.try", target, nxt, handler), handler)
                        fb.body.append(I("li", 0, -1))
                        fb.close(I("jmp", nxt), nxt)
                        cost += calls[target] + 4
            cost += 2
            fb.close(rng.choice([I("ret", rng.choice(_LOOP_REGS)), I("ret")] + [I("throw")] * (i > 0)))
        calls[name] = cost
        functions.append(
            IrFunction(
                mangled_name=name,
                file=f"loop{i}.c",
                begin_line=1 + i * 10,
                end_line=9 + i * 10,
                blocks=fb.blocks,
            )
        )
    if rng.random() < 0.3:
        # Before main returns, a self-loop entered by a jnz whose counter
        # r8 reads r9 before the loop writes r9 as a constant: r8 is r9's
        # entry value minus 5 after the first iteration and 0 after the
        # second.  r8 and r9 are dead there, and the draw comes last, so
        # the rest of the module is what it would be without it.
        main = functions[-1]
        ret = main.blocks[-1].instructions.pop()
        main.blocks[-1].instructions += [I("li", 9, rng.randint(-9, 9)), I("li", 8, 1), I("jnz", 8, "stale", "fin")]
        main.blocks += [
            BasicBlock("stale", [I("addi", 8, 9, -5), I("li", 9, 5), I("jnz", 8, "stale", "fin")]),
            BasicBlock("fin", [ret]),
        ]
    module.functions += reversed(functions)
    return module


_ODD_STRINGS = [
    "plain.c",
    "dir/with space.c",
    'quo"te.c',
    "back\\slash.c",
    "semi;colon.c",
    "",
]


def printable_module(rng: random.Random) -> IrModule:
    module = IrModule(name=rng.choice(["m", "hot loop", 'with"quote', "x\\y"]))
    n = rng.randint(1, 3)
    fnames = [f"fn{i}" if i else "main" for i in range(n)]
    externs = [f"ext{i}" for i in range(rng.randint(0, 2))]
    targets = fnames + externs
    nregions = rng.randint(0, 2)
    for rid in range(nregions):
        module.regions[rid] = RegionDescriptor(
            region_id=rid,
            name=rng.choice(["f()", "ns::g(int)", 'odd"name']),
            canonical_name=f"_Z1f{rid}",
            file=rng.choice(_ODD_STRINGS),
            begin_lno=rng.randint(1, 5),
            end_lno=rng.randint(5, 99),
        )
    for ext in externs:
        module.functions.append(IrFunction(mangled_name=ext, is_extern=True))
    for i, name in enumerate(fnames):
        nblocks = rng.randint(1, 3)
        labels = [f"L{j}" for j in range(nblocks)]
        blocks = []
        for j, label in enumerate(labels):
            body = _straightline(rng, range(0, 16))
            if rng.random() < 0.4 and nregions:
                rid = rng.randrange(nregions)
                body.append(I(rng.choice(["hook.register", "hook.enter", "hook.exit"]), rid))
            if rng.random() < 0.3:
                target = rng.choice(targets)
                args = tuple(rng.randrange(16) for _ in range(rng.randint(0, 8)))
                body.append(I("call", target, *args))
            roll = rng.random()
            if roll < 0.35:  # backward or forward jump: loops are fine here
                body.append(I("jmp", rng.choice(labels)))
            elif roll < 0.5:
                body.append(
                    I("jnz", rng.randrange(16), rng.choice(labels), rng.choice(labels))
                )
            elif roll < 0.6 and targets:
                body.append(
                    I(
                        "call.try",
                        rng.choice(targets),
                        rng.choice(labels),
                        rng.choice(labels),
                    )
                )
            elif roll < 0.8:
                body.append(I("ret", rng.randrange(16)) if rng.random() < 0.5 else I("ret"))
            elif roll < 0.9:
                body.append(I("throw"))
            else:
                body.append(I("rethrow"))
            blocks.append(BasicBlock(label, body))
        attrs = set(rng.sample(["no_inline", "builtin", "artificial"], rng.randint(0, 1)))
        pretty = rng.choice([None, "pretty name()", 'gna"rly'])
        f = IrFunction(
            mangled_name=name,
            file=rng.choice(_ODD_STRINGS),
            begin_line=rng.randint(1, 9),
            end_line=rng.randint(9, 200),
            demangled_name=pretty,
            attrs=attrs,
            blocks=blocks,
        )
        if is_empty_body(f):
            f.attrs.add("empty_body")
        module.functions.append(f)
    return module


def trace_events(rng: random.Random) -> list[TraceEvent]:
    events: list[TraceEvent] = []
    defined: list[int] = []
    stack: list[int] = []
    ts = 0
    next_handle = 2
    for _ in range(rng.randint(0, 30)):
        ts += rng.randint(0, 5)
        if stack and rng.random() < 0.45:
            events.append(TraceEvent("X", ts, stack.pop()))
            continue
        if not defined or rng.random() < 0.3:
            handle = next_handle
            next_handle += 1
            defined.append(handle)
            events.append(
                TraceEvent(
                    "D",
                    0,
                    handle,
                    RegionDescriptor(
                        region_id=handle,
                        name=rng.choice(["f()", "a b", 'q"x']),
                        canonical_name=f"_Z{handle}",
                        file=rng.choice(_ODD_STRINGS),
                        begin_lno=1,
                        end_lno=rng.randint(1, 9),
                    ),
                )
            )
        handle = rng.choice(defined)
        events.append(TraceEvent("E", ts, handle))
        stack.append(handle)
    while stack:
        ts += rng.randint(0, 3)
        events.append(TraceEvent("X", ts, stack.pop()))
    return events


_GARBAGE_TOKENS = [
    "module", "func", "extern", "regions:", "region", "{", "}", "^b:", "^b",
    "li", "addi", "call", "call.try", "jmp", "jnz", "ret", "throw", "work",
    "hook.enter", "@f", "r0", "r99", "-3", '"str', '"a"', "lines=1:2",
    "file=", "pretty=", "attrs=xyz", ";", ",", "%%", "\t", "0:0",
]


def garbage_text(rng: random.Random) -> str:
    lines = []
    for _ in range(rng.randint(0, 12)):
        k = rng.randint(0, 6)
        toks = [rng.choice(_GARBAGE_TOKENS) for _ in range(k)]
        if rng.random() < 0.2:
            toks.append("".join(rng.choice(string.printable[:95]) for _ in range(8)))
        lines.append(" ".join(toks))
    return "\n".join(lines)
