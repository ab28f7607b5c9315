"""Time the three ``relalg`` kernels against the bit loops they replaced.

Standard library only.  From the repository root:

    python3 tools/kernel_probe.py            # the timing table
    python3 tools/kernel_probe.py --check    # equality only, no timing

Each shape is a seeded random relation ``r`` at each density.  The probe runs
``transpose(r)``, ``left_residual(r, r)`` and ``right_residual(r, r)`` (the
residuals of a relation by itself are the orders a concept lattice is built
from) and the reference loops of ``tests/oracles.py``: the transpose bit loop,
the residual row sweep and the columns-and-scatter right residual.  Every
timing is the best of 7 runs, kernel and loop in turn, each on a fresh copy of
``r``, so a right residual pays for its ``columns`` as a first call does.
``--check`` compares every result with its reference loop and exits 1 on a
difference.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conceptual.relalg import Relation, left_residual, right_residual, transpose  # noqa: E402
from oracles import (  # noqa: E402
    left_residual_sweep_oracle,
    right_residual_scatter_oracle,
    transpose_oracle,
)

# the probe shapes of ROADMAP item 4: small and square, the bench's large
# lattices, and the lattice workload's wide and tall contexts
SHAPES = [(3, 3), (8, 8), (16, 16), (128, 128), (752, 752), (100, 22), (1500, 40), (40, 1500)]
DENSITIES = (0.05, 0.5)
# timed runs of each function; the best is kept
REPEAT = 7
KERNELS = [
    ("transpose", transpose, transpose_oracle),
    ("left_residual", lambda r: left_residual(r, r), lambda r: left_residual_sweep_oracle(r, r)),
    (
        "right_residual",
        lambda r: right_residual(r, r),
        lambda r: right_residual_scatter_oracle(r, r),
    ),
]


def random_relation(rng: random.Random, m: int, n: int, p: float) -> Relation:
    rows = (sum(1 << b for b in range(n) if rng.random() < p) for _ in range(m))
    return Relation(m, n, tuple(rows))


def best_of(kernel, loop, r: Relation) -> tuple[float, float]:
    """The best time of each function over ``REPEAT`` alternating runs."""
    best = [float("inf"), float("inf")]
    for _ in range(REPEAT):
        for i, f in enumerate((kernel, loop)):
            fresh = Relation(r.src_size, r.dst_size, r.rows)
            start = perf_counter()
            f(fresh)
            best[i] = min(best[i], perf_counter() - start)
    return best[0], best[1]


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true", help="compare results only, time nothing")
    args = p.parse_args(argv)
    rng = random.Random(1)
    if not args.check:
        print(f"{'shape':>9} {'density':>7} {'kernel':>14} {'kernel ms':>10} {'loop ms':>10}"
              f" {'speed-up':>8}")
    differ = 0
    for m, n in SHAPES:
        for density in DENSITIES:
            r = random_relation(rng, m, n, density)
            for name, kernel, loop in KERNELS:
                if args.check:
                    if kernel(r) != loop(r):
                        differ += 1
                        print(f"differs: {name} on {m}x{n} at density {density}")
                    continue
                k, ref = best_of(kernel, loop, r)
                print(
                    f"{m:>4}x{n:<4} {density:>7} {name:>14} {k * 1e3:>10.3f} {ref * 1e3:>10.3f}"
                    f" {ref / k:>7.2f}x"
                )
    if args.check:
        total = len(SHAPES) * len(DENSITIES) * len(KERNELS)
        print(f"{total - differ} results equal, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
