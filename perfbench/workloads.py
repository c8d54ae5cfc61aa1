"""Workload input generator.

A call is the argument tuple of `sl2frob.cli.run_command`:
(command, p, ext, r, d_seed, window, seed).  An op is a tuple of calls
timed together.  The workload seed fixes the op order, the RNG seed of
every call and the order of the weight seeds; it never changes the kind or
size of the work, so runs at different seeds measure the same cost.
"""

from __future__ import annotations

import random

WORKLOADS = ("zero-char", "generic-sweep", "twisted-window")

# RNG seeds a call may get; golden digests exist for every one of them.
RNG_SEEDS = (0, 1, 2)

ZERO_CHAR = [("projectives", 3, 2), ("relations", 3, 2), ("center", 3, 2),
             ("projectives", 5, 1)]


def generic_seeds(p: int) -> list[str]:
    """Every weight seed c0 + c1*x of F_{p^2} outside F_p, as 'c0,c1'."""
    return [f"{c0},{c1}" for c1 in range(1, p) for c0 in range(p)]


def _ops(workload: str, pick_seed) -> list[tuple]:
    if workload == "zero-char":
        return [((cmd, p, 2, r, "auto", 2, pick_seed()),) for cmd, p, r in ZERO_CHAR]
    if workload == "generic-sweep":
        # twist, steinberg and hat-borel take no RNG seed
        return [(("twist", 5, 2, 1, d, 2, 0),
                 ("steinberg", 5, 2, 1, d, 2, 0),
                 ("hat-borel", 5, 2, 2, d, 2, 0)) for d in generic_seeds(5)]
    if workload == "twisted-window":
        ops = []
        for d in generic_seeds(3):
            s = pick_seed()
            ops.append((("equivalence", 3, 2, 1, d, 3, s),
                        ("hom-iso", 3, 2, 1, d, 2, s)))
        return ops
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def generate(workload: str, seed: int) -> list[tuple]:
    """The workload's op list for this seed."""
    rng = random.Random(f"{workload}:{seed}")
    ops = _ops(workload, lambda: rng.choice(RNG_SEEDS))
    rng.shuffle(ops)
    return ops


def all_calls() -> list[tuple]:
    """Every call any seed of any workload can generate (the golden-digest keys)."""
    return sorted({call for w in WORKLOADS for s in RNG_SEEDS
                   for op in _ops(w, lambda: s) for call in op})


def call_key(call: tuple) -> str:
    """Stable text key of a call, as written in golden.json."""
    return " ".join(str(a) for a in call)
