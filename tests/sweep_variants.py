"""Every build variant over every generated seed.

Runs the check of ``test_equivalence.test_every_variant_keeps_exit_value_and_uncaught``
(``inline_pass`` alone, auto and plugin mode, at O0-O3, under three
runtime filters, must keep each program's exit value and uncaught status)
over ``gens.terminating_module`` seeds 0-2,999 and ``gens.looping_module``
seeds 0-999, the looping seeds a second time with the VM's tier-up count
at 0, so that recorded regions are folded at their first registration.
Tier-1 runs only a stride of these seeds.  The seeds in
``EXPECTED_FAILURES`` must fail, as strict xfails do; the script exits 1
when any other seed fails or one of those passes.

    PYTHONPATH=src python tests/sweep_variants.py
"""

from __future__ import annotations

import random
import sys
import time

import gens
from instrumenta import vm
from test_equivalence import _NESTED_CALL_R0, _mismatched_variants, _module

EXPECTED_FAILURES = {("terminating", 524): _NESTED_CALL_R0, ("terminating", 1308): _NESTED_CALL_R0}


def _looping(seed: int):
    return gens.looping_module(random.Random(seed))


def main() -> int:
    sweeps = [
        ("terminating", _module, 3000, vm._TIER_UP),
        ("looping", _looping, 1000, vm._TIER_UP),
        ("looping, tier-up 0", _looping, 1000, 0),
    ]
    failed = 0
    for name, generate, seeds, tier_up in sweeps:
        vm._TIER_UP = tier_up
        start = time.perf_counter()
        for seed in range(seeds):
            bad = _mismatched_variants(generate(seed))
            defect = EXPECTED_FAILURES.get((name, seed))
            if bad and defect is None:
                print(f"{name} seed {seed}: {len(bad)} variant(s) differ: {', '.join(bad)}")
                failed += 1
            elif defect is not None and not bad:
                print(f"{name} seed {seed} passes but is expected to fail ({defect})")
                failed += 1
        print(f"{name}: seeds 0-{seeds - 1} in {time.perf_counter() - start:.1f} s")
    print("failed:", failed)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
