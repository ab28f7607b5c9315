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

A second table times the two ``colimit`` enumerators, of functional
infomorphisms and of concept lattice morphisms, from the apex of a sum of
two seeded random contexts into a third.  On 2x3+2x3 into 2x3 it runs them
against the brute-force loops of ``tests/oracles.py``, each pair of an
instance and a type function; on 3x3+3x3 into 3x3, 531,441 such pairs, it
runs them alone, and ``--check`` compares the instance and type functions
of the two sides, which are the same pairs in the same order.

A third table times ``functors.embedding_bonds``, which checks the pair by
the derivation identities of a concept lattice, against
``embedding_bonds_oracle``, which validates both bonds and compares both
composites: over the 698 contexts of the verify corpus of one seed at size
3, and on the order classification of the boolean lattice 2^7.  The
lattices are built before timing, so a row times the checks alone.
``--check`` compares the two sides' bonds, endpoints and relations.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from conceptual import functors, verify  # noqa: E402
from conceptual.classification import Classification, contranominal_classification  # noqa: E402
from conceptual.colimit import (  # noqa: E402
    _enumerate_lattice_morphisms,
    coproduct_sum,
    enumerate_infomorphisms,
)
from conceptual.relalg import Relation, left_residual, right_residual, transpose  # noqa: E402
from oracles import (  # noqa: E402
    embedding_bonds_oracle,
    infomorphisms_oracle,
    lattice_morphisms_oracle,
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

# summand and target shapes (instances, types); the seed draws diagrams
# with mediators on both (6 and 81 of them)
DIAGRAMS = [((2, 3), True), ((3, 3), False)]
DIAGRAM_SEED = 28

# the verify corpus whose contexts the embedding rows check: the first
# seed of the verify workload, at its size
CORPUS_SEED = 7


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


def sum_diagram(rng: random.Random, m: int, n: int) -> tuple[Classification, Classification]:
    """The apex of the sum of two random m x n contexts, and a third."""
    A, B, C = (
        Classification(
            tuple(f"i{a}" for a in range(m)),
            tuple(f"t{t}" for t in range(n)),
            Relation(m, n, tuple(rng.getrandbits(n) for _ in range(m))),
        )
        for _ in range(3)
    )
    return coproduct_sum(A, B).apex, C


def enumerators(apex: Classification, C: Classification) -> list:
    """Each enumerator with its brute-force loop, as functions of nothing."""
    L, M = functors.concept_lattice_of(apex), functors.concept_lattice_of(C)
    return [
        (
            "infomorphisms",
            lambda: list(enumerate_infomorphisms(apex, C)),
            lambda: list(infomorphisms_oracle(apex, C)),
        ),
        (
            "lattice",
            lambda: _enumerate_lattice_morphisms(L, M),
            lambda: lattice_morphisms_oracle(L, M),
        ),
    ]


def best_time(f) -> float:
    best = float("inf")
    for _ in range(REPEAT):
        start = perf_counter()
        f()
        best = min(best, perf_counter() - start)
    return best


def probe_enumerators(check: bool) -> tuple[int, int]:
    """Print the enumerator rows, or compare their results; the number of
    comparisons made and of those that differ."""
    if not check:
        print(f"\n{'diagram':>13} {'enumerator':>14} {'found':>6} {'lookup ms':>10}"
              f" {'brute ms':>10} {'speed-up':>8}")
    compared = differ = 0
    rng = random.Random(DIAGRAM_SEED)
    for (m, n), brute in DIAGRAMS:
        apex, C = sum_diagram(rng, m, n)
        shape = f"{m}x{n}+{m}x{n}>{m}x{n}"
        rows = enumerators(apex, C)
        if check:
            found = [kernel() for _, kernel, _ in rows]
            checks = [
                (f"{name} against the brute force", got == loop())
                for (name, _, loop), got in zip(rows, found)
                if brute
            ]
            pairs = [[(x.f, x.g) for x in side] for side in found]
            checks.append(("the (f, g) pairs of the two sides", pairs[0] == pairs[1]))
            for what, ok in checks:
                if not ok:
                    differ += 1
                    print(f"differs: {what} on {shape}")
            compared += len(checks)
            continue
        for name, kernel, loop in rows:
            k = best_time(kernel)
            if brute:
                ref = best_time(loop)
                tail = f"{ref * 1e3:>10.3f} {ref / k:>7.2f}x"
            else:
                tail = f"{'-':>10} {'-':>8}"
            print(f"{shape:>13} {name:>14} {len(kernel()):>6} {k * 1e3:>10.3f} {tail}")
    return compared, differ


def embedding_inputs() -> list[tuple[str, list[Classification]]]:
    """The contexts of the embedding rows, by name."""
    corpus = [K for _, K in verify.context_corpus(3, random.Random(CORPUS_SEED))]
    boolean = functors.concept_lattice_of(contranominal_classification(7))
    return [
        (f"corpus seed {CORPUS_SEED}", corpus),
        ("order of 2^7", [functors.complete_lattice_of(boolean).classification]),
    ]


def probe_embeddings(check: bool) -> tuple[int, int]:
    """Print the embedding rows, or compare the bonds of the two sides; the
    number of comparisons made and of those that differ."""
    if not check:
        print(f"\n{'contexts':>17} {'count':>6} {'identities ms':>14} {'oracle ms':>10}"
              f" {'speed-up':>8}")
    compared = differ = 0
    for name, contexts in embedding_inputs():
        def kernel():
            return [functors.embedding_bonds(A) for A in contexts]

        def loop():
            return [embedding_bonds_oracle(A) for A in contexts]

        if check:
            compared += 1
            if kernel() != loop():
                differ += 1
                print(f"differs: embedding bonds on {name}")
            continue
        loop()  # builds the lattices and their views
        k, ref = best_time(kernel), best_time(loop)
        print(f"{name:>17} {len(contexts):>6} {k * 1e3:>14.3f} {ref * 1e3:>10.3f}"
              f" {ref / k:>7.2f}x")
    return compared, differ


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
    compared, enum_differ = probe_enumerators(args.check)
    embedding_compared, embedding_differ = probe_embeddings(args.check)
    compared += embedding_compared
    differ += enum_differ + embedding_differ
    if args.check:
        total = len(SHAPES) * len(DENSITIES) * len(KERNELS) + compared
        print(f"{total - differ} results equal, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
