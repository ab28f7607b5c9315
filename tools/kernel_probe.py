"""Time the ``relalg`` kernels against the bit loops they replaced.

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

The ``right_residual`` rows take the per-cell subset tests up to 16x16;
the complement tables at density .5 on 128x128, 752x752 and 100x22, and at
both densities on 1500x40; and the AND-product at density .05 on 128x128,
752x752 and 100x22, and at both densities on 40x1500.

A second table times the two ``colimit`` enumerators, of functional
infomorphisms and of concept lattice morphisms, from the apex of a sum of
two seeded random contexts into a third.  On 2x3+2x3 into 2x3 it runs them
against the brute-force loops of ``tests/oracles.py``, each pair of an
instance and a type function; on 3x3+3x3 into 3x3, 531,441 such pairs, it
runs them alone, and ``--check`` compares the instance and type functions
of the two sides, which are the same pairs in the same order.

A third table times the inverse images of a map's principal up-sets,
the batch of every adjointness check: the fiber loop of ``tests/oracles.py``
against the gather and ``transpose`` and against ``relalg.pullback``, which
picks one of its two branches.  The inputs are the up-sets of 2^a, with
their down-sets as columns, pulled back along a seeded boolean homomorphism
2^c -> 2^a (the inverse image along an injection [a] -> [c]) for c = a and
c = a + 2, a = 3..7; and, at verify sizes, both principal batches of the
139 homs of the verify hom corpora of seeds 0-11 at size 3, timed as one
row.  ``--check`` compares all three sides.

A fourth table times ``functors.embedding_bonds``, which checks the pair by
the derivation identities of a concept lattice, against
``embedding_bonds_oracle``, which validates both bonds and compares both
composites: over the 698 contexts of the verify corpus of one seed at size
3, and on the order classification of the boolean lattice 2^7.  The
lattices are built before timing, so a row times the checks alone.
``--check`` compares the two sides' bonds, endpoints and relations.

A fifth table times ``lattice.build_lattice``, whose walk visits only the
types an extent's rows meet where they cannot meet every free type, against
``fcbo_oracle``, the walk that tests every free type: on the lattice
benchmark's shapes, wide 100x22 at .3 and tall 1500x40 at .05 (every row
with the rounded share of crosses), and on the order classification of the
boolean lattice 2^7.  ``--check`` compares the two sides' concept tuples.

A sixth table times the concept order of the same three lattices from each
side of the context: ``tau_rel/tau_rel``, a right residual over the types,
and ``iota_rel\\iota_rel``, a left residual over the instances, each side
building its membership relation as a fresh lattice does (``iota_rel`` is
a transpose of the extents), and names the side ``ConceptLattice.order``
takes.  ``--check`` compares both sides and ``order`` with
``extent_inclusion_oracle``.

A last table, printed without ``--check``, counts the ``right_residual``
calls of one cycle of each benchmark workload by the branch they take:
per-cell subset tests, complement tables or AND-product.  Both library
caches are cleared before each op, as the benchmark worker does.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import random
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from conceptual import functors, relalg, verify  # noqa: E402
from conceptual.classification import Classification, contranominal_classification  # noqa: E402
from conceptual.lattice import build_lattice  # noqa: E402
from conceptual.colimit import (  # noqa: E402
    _enumerate_lattice_morphisms,
    coproduct_sum,
    enumerate_infomorphisms,
)
from conceptual.relalg import (  # noqa: E402
    FunctionGraph,
    Relation,
    bits,
    left_residual,
    pullback,
    right_residual,
    transpose,
)
from workloads import WORKLOADS  # noqa: E402
from oracles import (  # noqa: E402
    embedding_bonds_oracle,
    extent_inclusion_oracle,
    fcbo_oracle,
    infomorphisms_oracle,
    lattice_morphisms_oracle,
    left_residual_sweep_oracle,
    preimages_oracle,
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

# the seed of the boolean homs the pullback rows pull back along
PULLBACK_SEED = 25

# the verify corpus whose contexts the embedding rows check: the first
# seed of the verify workload, at its size
CORPUS_SEED = 7

# the lattice benchmark's context shapes (instances, types, density), and
# the seed of the contexts the build rows draw
BUILD_SHAPES = [(100, 22, 0.3), (1500, 40, 0.05)]
BUILD_SEED = 3


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


def boolean_hom(rng: random.Random, c: int, a: int) -> FunctionGraph:
    """``S -> f^-1(S)`` for a seeded injection ``f: [a] -> [c]``, a complete
    homomorphism from 2^c onto 2^a, as a map between the two lattices'
    element indices."""
    LC = functors.concept_lattice_of(contranominal_classification(c))
    LA = functors.concept_lattice_of(contranominal_classification(a))
    f = rng.sample(range(c), a)
    return FunctionGraph(
        tuple(
            LA.extent_index[sum(1 << y for y in range(a) if e >> f[y] & 1)]
            for e in LC.extents
        ),
        LA.size,
    )


def pullback_inputs() -> list[tuple[str, list[tuple]]]:
    """The batches of the pullback rows, by name: ``(rows, cols, psi)``."""
    rng = random.Random(PULLBACK_SEED)
    inputs = []
    for a in range(3, 8):
        K = functors.complete_lattice_of(
            functors.concept_lattice_of(contranominal_classification(a))
        )
        for c in (a, a + 2):
            inputs.append((f"2^{c}>2^{a}", [(K.up, K.down, boolean_hom(rng, c, a))]))
    batches = []
    for seed in range(12):
        corpus_rng = random.Random(seed)
        contexts = verify.context_corpus(3, corpus_rng)
        morphisms = verify.infomorphism_corpus(contexts, corpus_rng)
        bonds = verify.bond_corpus(contexts, morphisms, corpus_rng)
        verify.adjoint_corpus(contexts, bonds, corpus_rng)
        for _, h in verify.hom_corpus(contexts, corpus_rng):
            K = h.target
            batches += [(K.up, K.down, h.psi), (K.down, K.up, h.psi)]
    inputs.append(("verify homs", batches))
    return inputs


def gather(rows, cols, psi: FunctionGraph) -> tuple[int, ...]:
    """``pullback``'s gather branch alone."""
    gathered = tuple(map(cols.__getitem__, psi.targets))
    return transpose(Relation(psi.src_size, len(rows), gathered)).rows


def probe_pullbacks(check: bool) -> tuple[int, int]:
    """Print the pullback rows, or compare the three sides; the number of
    comparisons made and of those that differ."""
    if not check:
        print(f"\n{'batches':>12} {'count':>6} {'loop ms':>10} {'gather ms':>10}"
              f" {'pullback ms':>12} {'speed-up':>8}")
    compared = differ = 0
    for name, batches in pullback_inputs():
        sides = [
            lambda: [preimages_oracle(psi, rows) for rows, _, psi in batches],
            lambda: [gather(rows, cols, psi) for rows, cols, psi in batches],
            lambda: [pullback(rows, cols, psi) for rows, cols, psi in batches],
        ]
        if check:
            expected = sides[0]()
            for side, what in zip(sides[1:], ("gather", "pullback")):
                compared += 1
                if side() != expected:
                    differ += 1
                    print(f"differs: {what} on {name}")
            continue
        loop, gathered, kernel = (best_time(side) for side in sides)
        print(f"{name:>12} {len(batches):>6} {loop * 1e3:>10.3f} {gathered * 1e3:>10.3f}"
              f" {kernel * 1e3:>12.3f} {loop / kernel:>7.2f}x")
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


def build_inputs() -> list[tuple[str, Classification]]:
    """The contexts of the build rows, by name."""
    rng = random.Random(BUILD_SEED)
    inputs = []
    for m, n, p in BUILD_SHAPES:
        k = round(p * n)
        rows = tuple(sum(1 << t for t in rng.sample(range(n), k)) for _ in range(m))
        K = Classification(
            tuple(f"i{a}" for a in range(m)), tuple(f"t{t}" for t in range(n)), Relation(m, n, rows)
        )
        inputs.append((f"{m}x{n} at {p}", K))
    boolean = functors.concept_lattice_of(contranominal_classification(7))
    inputs.append(("order of 2^7", functors.complete_lattice_of(boolean).classification))
    return inputs


def probe_builds(check: bool) -> tuple[int, int]:
    """Print the build rows, or compare the two sides' concepts; the number
    of comparisons made and of those that differ."""
    if not check:
        print(f"\n{'context':>17} {'concepts':>8} {'build ms':>10} {'fcbo ms':>10} {'speed-up':>8}")
    compared = differ = 0
    for name, K in build_inputs():
        if check:
            compared += 1
            if build_lattice(K).concepts != fcbo_oracle(K).concepts:
                differ += 1
                print(f"differs: concepts on {name}")
            continue
        k, ref = best_time(lambda: build_lattice(K)), best_time(lambda: fcbo_oracle(K))
        print(f"{name:>17} {build_lattice(K).size:>8} {k * 1e3:>10.3f} {ref * 1e3:>10.3f}"
              f" {ref / k:>7.2f}x")
    return compared, differ


def order_sides(L) -> list:
    """The two residuals the concept order of ``L`` comes from, as functions
    of nothing, each building its membership relation afresh."""
    m, n = len(L.instance_labels), len(L.type_labels)

    def types():
        tau = Relation(L.size, n, L.intents)
        return right_residual(tau, tau)

    def instances():
        iota = transpose(Relation(L.size, m, L.extents))
        return left_residual(iota, iota)

    return [types, instances]


def probe_orders(check: bool) -> tuple[int, int]:
    """Print the order rows, or compare both sides and ``order`` with the
    oracle; the number of comparisons made and of those that differ."""
    if not check:
        print(f"\n{'context':>17} {'concepts':>8} {'order':>9} {'types ms':>9}"
              f" {'instances ms':>12} {'speed-up':>8}")
    compared = differ = 0
    for name, K in build_inputs():
        L = build_lattice(K)
        order = L.order
        side = "instances" if "iota_rel" in vars(L) else "types"
        sides = order_sides(L)
        if check:
            expected = extent_inclusion_oracle([set(bits(e)) for e in L.extents])
            for what, got in zip(("types", "instances", "order"), [f() for f in sides] + [order]):
                compared += 1
                if got != expected:
                    differ += 1
                    print(f"differs: the order by {what} on {name}")
            continue
        by_types, by_instances = (best_time(f) for f in sides)
        print(f"{name:>17} {L.size:>8} {side:>9} {by_types * 1e3:>9.3f}"
              f" {by_instances * 1e3:>12.3f} {by_instances / by_types:>7.2f}x")
    return compared, differ


def probe_branches(check: bool) -> tuple[int, int]:
    """Print the branch counts of one cycle of each benchmark workload."""
    if check:
        return 0, 0
    print(f"\n{'workload':>9} {'calls':>7} {'per-cell':>9} {'tables':>7} {'AND-product':>12}")
    names = ("classification", "relalg", "lattice", "functors", "bond", "io", "cli")
    mods = SimpleNamespace(**{n: importlib.import_module(f"conceptual.{n}") for n in names})
    original, tables = relalg.right_residual, relalg._complement_tables
    counts = collections.Counter()

    def counted_residual(t, s):
        counts["calls"] += 1
        counts["cells"] += t.src_size * s.src_size < relalg._SMALL_CELLS
        return original(t, s)

    def counted_tables(t, s):
        counts["tables"] += 1
        return tables(t, s)

    # every module that imported the kernel by name, as the tracer finds them
    bound = [
        (module, key)
        for name, module in list(sys.modules.items())
        if name.startswith("conceptual")
        for key, value in vars(module).items()
        if value is original
    ]
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS.values():
            ops = list(workload(mods, 1, "full", Path(workdir) / workload.name).ops())
            counts.clear()
            for module, key in bound:
                setattr(module, key, counted_residual)
            relalg._complement_tables = counted_tables
            try:
                for _, op, _ in ops:
                    mods.lattice.concept_lattice_of.cache_clear()
                    mods.functors.complete_lattice_of.cache_clear()
                    op()
            finally:
                for module, key in bound:
                    setattr(module, key, original)
                relalg._complement_tables = tables
            ands = counts["calls"] - counts["cells"] - counts["tables"]
            print(f"{workload.name:>9} {counts['calls']:>7} {counts['cells']:>9}"
                  f" {counts['tables']:>7} {ands:>12}")
    return 0, 0


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
    compared = 0
    probes = (
        probe_enumerators,
        probe_pullbacks,
        probe_embeddings,
        probe_builds,
        probe_orders,
        probe_branches,
    )
    for probe in probes:
        more, more_differ = probe(args.check)
        compared += more
        differ += more_differ
    if args.check:
        total = len(SHAPES) * len(DENSITIES) * len(KERNELS) + compared
        print(f"{total - differ} results equal, {differ} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
