"""Time the ``relalg`` kernels against the bit loops they replaced, count
the branches ``relalg.branch`` picks, and compare every fast path with its
reference.

Standard library only.  From the repository root:

    python3 tools/kernel_probe.py            # the timing and branch tables
    python3 tools/kernel_probe.py --check    # equality only, no timing

Each shape is a seeded random relation ``r`` at each density.  The probe runs
``transpose(r)``, ``left_residual(r, r)`` and ``right_residual(r, r)`` (the
residuals of a relation by itself are the orders a concept lattice is built
from) and the reference loops of ``tests/oracles.py``: the transpose bit loop,
the residual row sweep and the columns-and-scatter right residual, and names
the branch ``relalg.branch`` picks for each.  Every timing is the best of 7
runs, kernel and loop in turn, each on a fresh copy of ``r``, so a right
residual pays for its ``columns`` as a first call does.

A second table times the inverse images of a map's principal up-sets,
the batch of every adjointness check: the fiber loop of ``tests/oracles.py``
against the gather and ``transpose`` and against ``relalg.pullback``, which
picks one of its two branches.  The inputs are the up-sets of 2^a, with
their down-sets as columns, pulled back along a seeded boolean homomorphism
2^c -> 2^a (the inverse image along an injection [a] -> [c]) for c = a and
c = a + 2, a = 3..7; and, at verify sizes, both principal batches of the
139 homs of the verify hom corpora of seeds 0-11 at size 3, timed as one
row.

A third table times the concept order of seeded contexts from each side:
``tau_rel/tau_rel``, a right residual over the types, and
``iota_rel\\iota_rel``, a left residual over the instances, each side
building its membership relation as a fresh lattice does (``iota_rel`` is a
transpose of the extents), and names the side ``ConceptLattice.order``
takes.  The contexts are the lattice benchmark's shapes, wide 100x22 at .3
and tall 1500x40 at .05, three more with a fixed number of crosses per row,
and the order classifications of the boolean lattices 2^5 to 2^7.

A fourth table times ``build_lattice`` on the same contexts with its FCbO
walk reading the visit masks by bits and by bytes, each reading forced by
rebinding ``relalg.branch`` as the branch counts below do, and names the
reading the rule picks.  These four tables are the data the weights of
``relalg.branch`` were fitted to.

A fifth table counts the kernel calls of one cycle of each benchmark
workload, nested calls included, by the branch ``relalg.branch`` picks:
``transpose``, both residuals, ``pullback`` (the gather, or the fiber loop
by how it reads its masks), ``compose``, the side of each concept order and
the reading of each walk.  A sixth counts the kernel calls of each op of
the bonding workload by the stage of the op that makes them: parsing the
pair, ``is_bonding_pair``, ``hom_of_pair``, and the pair and hom round
trips.  Both library caches are cleared before each op, as the benchmark
worker does.

``--check`` compares every kernel and pullback result above with its
reference loop and every order side with ``extent_inclusion_oracle``, and
besides: the two ``colimit`` enumerators with their brute-force loops on
2x3+2x3 into 2x3 and with each other on 3x3+3x3 into 3x3;
``functors.embedding_bonds`` with ``embedding_bonds_oracle`` over the verify
corpus of one seed and on the order of 2^7; ``build_lattice`` with
``fcbo_oracle``, under the reading the rule picks and under each forced
reading, and its derived embeddings with ``embeddings_oracle``; the
columns ``parse_cxt`` and ``from_matrix`` store with ``transpose``; and the
order bond and pairing checks of ``functors`` with ``bond.is_bond`` and
``bond.is_bonding_pair`` on the bonding benchmark's boolean homs, on seeded
flips of their bonds and across injections.  It exits 1 on a difference.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import importlib
import json
import random
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from conceptual import bond, functors, relalg, verify  # noqa: E402
from conceptual.io import emit_cxt, parse_cxt  # noqa: E402
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
    embeddings_oracle,
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
    (
        "transpose",
        transpose,
        transpose_oracle,
        lambda r: relalg.branch("transpose", r.rows, r.dst_size),
    ),
    (
        "left_residual",
        lambda r: left_residual(r, r),
        lambda r: left_residual_sweep_oracle(r, r),
        lambda r: relalg.branch("left_residual", r.rows, r.dst_size),
    ),
    (
        "right_residual",
        lambda r: right_residual(r, r),
        lambda r: right_residual_scatter_oracle(r, r),
        lambda r: relalg.branch("right_residual", r.rows, r.dst_size, r.src_size),
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

# the boolean homs 2^a -> 2^b of the bonding benchmark, the seed of their
# injections, and the seeded one-cell flips of each bond that --check tries
ORDER_HOMS = [(6, 4), (6, 6), (7, 5), (7, 7)]
ORDER_SEED = 29
FLIPS = 8

# the kernels the stage table counts
STAGE_KERNELS = ("compose", "transpose", "left_residual", "right_residual", "pullback")

# the contexts of the order rows, (instances, types, crosses per row), each
# drawn from its own generator at ``CONTEXT_SEED``: the lattice benchmark's
# wide 100x22 at .3 and tall 1500x40 at .05 first
CONTEXT_SHAPES = [(100, 22, 7), (1500, 40, 2), (100, 90, 9), (60, 50, 6), (200, 150, 8)]
CONTEXT_SEED = 3
# the boolean lattices 2^a whose order classifications follow those contexts
ORDER_POWERS = (5, 6, 7)
# the two readings of the FCbO walk's visit masks
READINGS = ("bits", "bytes")


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


def check_enumerators() -> tuple[int, int]:
    """Compare the enumerators with their brute force and with each other;
    the number of comparisons made and of those that differ."""
    compared = differ = 0
    rng = random.Random(DIAGRAM_SEED)
    for (m, n), brute in DIAGRAMS:
        apex, C = sum_diagram(rng, m, n)
        shape = f"{m}x{n}+{m}x{n}>{m}x{n}"
        rows = enumerators(apex, C)
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
            inputs.append((f"2^{c}>2^{a}", [(K.intents, K.extents, boolean_hom(rng, c, a))]))
    batches = []
    for seed in range(12):
        corpus_rng = random.Random(seed)
        contexts = verify.context_corpus(3, corpus_rng)
        morphisms = verify.infomorphism_corpus(contexts, corpus_rng)
        bonds = verify.bond_corpus(contexts, morphisms, corpus_rng)
        verify.adjoint_corpus(contexts, bonds, corpus_rng)
        for _, h in verify.hom_corpus(contexts, corpus_rng):
            K = h.target
            batches += [(K.intents, K.extents, h.psi), (K.extents, K.intents, h.psi)]
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


def check_embeddings() -> tuple[int, int]:
    """Compare ``embedding_bonds`` with its oracle over the verify corpus of
    one seed and on the order of 2^7; the number of comparisons made and of
    those that differ."""
    corpus = [K for _, K in verify.context_corpus(3, random.Random(CORPUS_SEED))]
    boolean = functors.concept_lattice_of(contranominal_classification(7))
    compared = differ = 0
    for name, contexts in (
        (f"corpus seed {CORPUS_SEED}", corpus),
        ("order of 2^7", [functors.complete_lattice_of(boolean).classification]),
    ):
        compared += 1
        if [functors.embedding_bonds(A) for A in contexts] != [
            embedding_bonds_oracle(A) for A in contexts
        ]:
            differ += 1
            print(f"differs: embedding bonds on {name}")
    return compared, differ


def context_inputs() -> list[tuple[str, Classification]]:
    """The contexts of the order rows, by name."""
    inputs = []
    for m, n, k in CONTEXT_SHAPES:
        rng = random.Random(CONTEXT_SEED)
        rows = tuple(sum(1 << t for t in rng.sample(range(n), k)) for _ in range(m))
        K = Classification(
            tuple(f"i{a}" for a in range(m)), tuple(f"t{t}" for t in range(n)), Relation(m, n, rows)
        )
        inputs.append((f"{m}x{n} by {k}", K))
    for a in ORDER_POWERS:
        boolean = functors.concept_lattice_of(contranominal_classification(a))
        inputs.append((f"order of 2^{a}", functors.complete_lattice_of(boolean).classification))
    return inputs


def check_builds() -> tuple[int, int]:
    """Compare ``build_lattice``'s concepts with ``fcbo_oracle`` and its
    embeddings with ``embeddings_oracle``, and the columns both text readers
    store with ``transpose``; the number of comparisons made and of those
    that differ."""
    compared = differ = 0
    for name, K in context_inputs():
        L = build_lattice(K)
        rel = K.incidence
        read = [parse_cxt(emit_cxt(K)).incidence, Relation.from_matrix(rel.matrix(), rel.dst_size)]
        checks = [
            ("concepts", L.concepts == fcbo_oracle(K).concepts),
            ("embeddings", (L.iota, L.tau) == embeddings_oracle(L)),
        ] + [
            (f"the columns {what} stores", vars(got).get("columns") == transpose(rel).rows)
            for what, got in zip(("parse_cxt", "from_matrix"), read)
        ]
        for what, ok in checks:
            compared += 1
            if not ok:
                differ += 1
                print(f"differs: {what} on {name}")
    return compared, differ


@contextlib.contextmanager
def walk_reading(reading: str):
    """``build_lattice`` reads its visit masks by ``reading`` while the
    block runs: ``relalg.branch`` is rebound, as ``probe_branches`` counts
    it, with every other kernel's pick left as it is."""
    rule = relalg.branch
    relalg.branch = lambda kernel, rows, n, k=0: (
        reading if kernel == "walk" else rule(kernel, rows, n, k)
    )
    try:
        yield
    finally:
        relalg.branch = rule


def probe_walks(check: bool) -> tuple[int, int]:
    """Print the build time of each context under each reading of the walk,
    or compare both builds with ``fcbo_oracle``; the number of comparisons
    made and of those that differ."""
    if not check:
        print(f"\n{'context':>17} {'concepts':>8} {'walk':>9} {'bits ms':>9}"
              f" {'bytes ms':>12} {'speed-up':>8}")
    compared = differ = 0
    for name, K in context_inputs():
        if check:
            expected = fcbo_oracle(K)
            for reading in READINGS:
                with walk_reading(reading):
                    got = build_lattice(K)
                compared += 1
                if got != expected:
                    differ += 1
                    print(f"differs: the walk by {reading} on {name}")
            continue
        times = []
        for reading in READINGS:
            with walk_reading(reading):
                times.append(best_time(lambda: build_lattice(K)))
        by_bits, by_bytes = times
        pick = relalg.branch("walk", K.rows, len(K.types), K.incidence.count())
        print(f"{name:>17} {build_lattice(K).size:>8} {pick:>9} {by_bits * 1e3:>9.3f}"
              f" {by_bytes * 1e3:>12.3f} {by_bits / by_bytes:>7.2f}x")
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
    for name, K in context_inputs():
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


def order_pairs(seed: int) -> list[tuple[str, functors.CompleteHomomorphism, bond.BondingPair]]:
    """The rebuilt pairs of the order rows, by name, with their homs, whose
    injections ``seed`` draws."""
    rng = random.Random(seed)
    lattices = {
        k: functors.complete_lattice_of(
            functors.concept_lattice_of(contranominal_classification(k))
        )
        for hom in ORDER_HOMS
        for k in hom
    }
    out = []
    for a, b in ORDER_HOMS:
        h = functors.CompleteHomomorphism(lattices[a], lattices[b], boolean_hom(rng, a, b))
        out.append((f"2^{a}>2^{b}", h, functors.pair_of_hom(h)))
    return out


def variants(rng: random.Random, L, rel: Relation) -> list[Relation]:
    """``rel``, a bond out of the order classification of ``L``, with
    ``FLIPS`` seeded one-cell flips, which mostly fail at a row, and
    ``FLIPS`` rows each set to a seeded principal filter of ``L``, which
    keep every row closed and so reach the column check."""
    out = [rel]
    for value in (
        lambda y: rel.rows[y] ^ 1 << rng.randrange(rel.dst_size),
        lambda y: L.intents[rng.randrange(L.size)],
    ):
        for _ in range(FLIPS):
            y = rng.randrange(rel.src_size)
            rows = rel.rows[:y] + (value(y),) + rel.rows[y + 1:]
            out.append(Relation(rel.src_size, rel.dst_size, rows))
    return out


def check_orders() -> tuple[int, int]:
    """Compare the order checks with ``is_bond`` and ``is_bonding_pair``;
    the number of comparisons made and of those that differ."""
    compared = differ = 0
    rng = random.Random(ORDER_SEED)
    # the same homs on other injections: their bonds pass, but do not pair
    # with the first homs' bonds
    others = order_pairs(ORDER_SEED + 1)
    for (name, h, p), (_, _, q) in zip(order_pairs(ORDER_SEED), others):
        L, K = h.source, h.target
        for F, G in ((p.forward, q.backward), (q.forward, p.backward)):
            compared += 1
            if bool(functors._order_pairing_check(L, K, F, G)) != bool(
                bond.is_bonding_pair(F, G)
            ):
                differ += 1
                print(f"differs: the pairing check across injections on {name}")
        for src, tgt, b in ((L, K, p.forward), (K, L, p.backward)):
            for rel in variants(rng, src, b.rel):
                got = functors._order_bond_check(src, tgt, rel)
                compared += 1
                if got != bond.is_bond(src.classification, tgt.classification, rel):
                    differ += 1
                    print(f"differs: the bond check of {rel!r} on {name}")
                if not got:
                    continue
                other = bond.Bond(src.classification, tgt.classification, rel, validate=False)
                F, G = (other, p.backward) if b is p.forward else (p.forward, other)
                compared += 1
                if bool(functors._order_pairing_check(L, K, F, G)) != bool(
                    bond.is_bonding_pair(F, G)
                ):
                    differ += 1
                    print(f"differs: the pairing check on {name}")
    return compared, differ


def bindings(original) -> list[tuple[object, str]]:
    """Every module attribute bound to ``original``, as the tracer finds
    them: a module that imported a kernel by name holds its own binding."""
    return [
        (module, key)
        for name, module in list(sys.modules.items())
        if name.startswith("conceptual")
        for key, value in vars(module).items()
        if value is original
    ]


def library_modules() -> SimpleNamespace:
    """The modules a benchmark workload is built from."""
    names = ("classification", "relalg", "lattice", "functors", "bond", "io", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"conceptual.{n}") for n in names})


def probe_branches() -> None:
    """Print the branch counts of one cycle of each benchmark workload."""
    print(f"\n{'workload':>9} {'kernel':>15} {'calls':>7}  branches")
    mods = library_modules()
    rule, compose = relalg.branch, relalg.compose
    counts = collections.Counter()

    def counted_rule(kernel, rows, n, k=0):
        kind = rule(kernel, rows, n, k)
        counts[kernel, kind] += 1
        return kind

    def counted_compose(r, s):
        counts["compose", ""] += 1
        return compose(r, s)

    bound = bindings(compose)
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS.values():
            ops = list(workload(mods, 1, "full", Path(workdir) / workload.name).ops())
            counts.clear()
            relalg.branch = counted_rule
            for module, key in bound:
                setattr(module, key, counted_compose)
            try:
                for _, op, _ in ops:
                    mods.lattice.concept_lattice_of.cache_clear()
                    mods.functors.complete_lattice_of.cache_clear()
                    op()
            finally:
                relalg.branch = rule
                for module, key in bound:
                    setattr(module, key, compose)
            for kernel in sorted({kernel for kernel, _ in counts}):
                kinds = sorted((kind, n) for (name, kind), n in counts.items() if name == kernel)
                total = sum(n for _, n in kinds)
                spread = ", ".join(f"{n} {kind}" for kind, n in kinds if kind)
                print(f"{workload.name:>9} {kernel:>15} {total:>7}  {spread}")


def probe_stages() -> None:
    """Print the kernel calls of each op of the bonding workload by stage."""
    stages = ("parse", "is_pair", "hom", "pair_rt", "hom_rt")
    print(f"\n{'op':>13} " + " ".join(f"{name:>7}" for name in stages) + f" {'total':>7}")
    mods = library_modules()
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS["bonding"](mods, 1, "full", Path(workdir) / "bonding")
    counts = collections.Counter()
    stage = [""]

    def counted(original):
        def kernel(*args, **kwargs):
            counts[stage[0]] += 1
            return original(*args, **kwargs)

        return kernel

    patches = [
        (module, key, original, counted(original))
        for original in (getattr(relalg, name) for name in STAGE_KERNELS)
        for module, key in bindings(original)
    ]
    for label, _, text in workload.pairs:
        mods.lattice.concept_lattice_of.cache_clear()
        mods.functors.complete_lattice_of.cache_clear()
        counts.clear()
        for module, key, _, kernel in patches:
            setattr(module, key, kernel)
        try:
            # the stages of the bonding op, in its order
            stage[0] = "parse"
            q = mods.io.morphism_from_obj(json.loads(text), validate=False)
            stage[0] = "is_pair"
            mods.bond.is_bonding_pair(q.forward, q.backward)
            stage[0] = "hom"
            h = mods.functors.hom_of_pair(q)
            stage[0] = "pair_rt"
            mods.functors.pair_roundtrip_holds(q)
            stage[0] = "hom_rt"
            mods.functors.hom_roundtrip_holds(h)
        finally:
            for module, key, original, _ in patches:
                setattr(module, key, original)
        print(f"{label:>13} " + " ".join(f"{counts[name]:>7}" for name in stages)
              + f" {sum(counts.values()):>7}")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--check", action="store_true", help="compare results only, time nothing")
    args = p.parse_args(argv)
    rng = random.Random(1)
    if not args.check:
        print(f"{'shape':>9} {'density':>7} {'kernel':>14} {'branch':>7} {'kernel ms':>10}"
              f" {'loop ms':>10} {'speed-up':>8}")
    differ = 0
    for m, n in SHAPES:
        for density in DENSITIES:
            r = random_relation(rng, m, n, density)
            for name, kernel, loop, rule in KERNELS:
                if args.check:
                    if kernel(r) != loop(r):
                        differ += 1
                        print(f"differs: {name} on {m}x{n} at density {density}")
                    continue
                k, ref = best_of(kernel, loop, r)
                print(
                    f"{m:>4}x{n:<4} {density:>7} {name:>14} {rule(r):>7} {k * 1e3:>10.3f}"
                    f" {ref * 1e3:>10.3f} {ref / k:>7.2f}x"
                )
    results = [probe(args.check) for probe in (probe_pullbacks, probe_orders, probe_walks)]
    if args.check:
        checks = (check_enumerators, check_embeddings, check_builds, check_orders)
        results += [check() for check in checks]
        compared = sum(more for more, _ in results)
        differ += sum(more for _, more in results)
        total = len(SHAPES) * len(DENSITIES) * len(KERNELS) + compared
        print(f"{total - differ} results equal, {differ} differ")
        return 1 if differ else 0
    probe_branches()
    probe_stages()
    return 0


if __name__ == "__main__":
    sys.exit(main())
