"""Time the ``relalg`` kernels against the bit loops they replaced, count
the branches ``relalg.branch`` picks, and compare every fast path with its
reference.

Standard library only.  From the repository root:

    python3 tools/kernel_probe.py            # the timing and branch tables
    python3 tools/kernel_probe.py --check    # equality only, no timing

Four tables are the data the weights of ``relalg.branch`` were fitted to.
Each is its rows, its reference and its sides: the library call of a row,
with its kernel's branch forced by ``oracles.branches`` or picked by the
rule.  Timing prints each row's pick and the best of 7 runs of each timed
column, the columns taking turns, each run on a fresh input; ``--check``
compares every side with the reference.

- The kernels ``compose(r, transpose(r))``, ``transpose(r)``,
  ``left_residual(r, r)`` and ``right_residual(r, r)`` (the residuals of a
  relation by itself are the orders a concept lattice is built from), on a
  seeded random relation ``r`` of each shape at each density, against the
  compose and transpose bit loops, the residual row sweep and the
  columns-and-scatter right residual of ``tests/oracles.py``.  Each run
  takes a fresh copy of ``r``, so a right residual pays for its
  ``columns`` as a first call does.
- ``relalg.pullback``, with its gather forced and as the rule picks,
  against the fiber loop: the inverse images of a map's principal up-sets,
  the batch of every adjointness check.  The inputs are the up-sets of 2^a,
  with their down-sets as columns, pulled back along a seeded boolean
  homomorphism 2^c -> 2^a (the inverse image along an injection [a] -> [c])
  for c = a and c = a + 2, a = 3..7; and, at verify sizes, both principal
  batches of the 139 homs of the verify hom corpora of seeds 0-11 at size 3,
  as one row.
- ``ConceptLattice.order`` on a fresh lattice, forced to ``tau_rel/tau_rel``
  over the types and to ``iota_rel\\iota_rel`` over the instances, against
  ``extent_inclusion_oracle``, on seeded contexts: the lattice benchmark's
  shapes, wide 100x22 at .3 and tall 1500x40 at .05, three more with a fixed
  number of crosses per row, and the order classifications of the boolean
  lattices 2^5 to 2^7.
- ``build_lattice`` on the same contexts, its FCbO walk reading the visit
  masks by bits and by bytes, against ``fcbo_oracle``.

A fifth table counts the kernel calls of one cycle of each benchmark
workload, nested calls included, by the branch ``relalg.branch`` picks:
``compose`` and ``FunctionGraph.preimages`` by how they read their rows,
``transpose``, both residuals, ``pullback`` (the gather, or the reading of
its masks), the side of each concept order and the reading of each walk.
A sixth counts the kernel calls of each op of the bonding workload by the
stage of the op that makes them: parsing the pair, ``is_bonding_pair``,
``hom_of_pair``, and the pair and hom round trips.  Both library caches are
cleared before each op, as the benchmark worker does.

``--check`` also rebuilds every kernel result and order through the public
``Relation`` constructor, which must accept the fields the kernels store
unchecked and build an equal relation with the same hash; and it compares
the two ``colimit`` enumerators with their brute-force loops on 2x3+2x3
into 2x3 and with each other on 3x3+3x3 into 3x3;
``functors.embedding_bonds`` with ``embedding_bonds_oracle`` over the verify
corpus of one seed and on the order of 2^7; ``build_lattice``'s concepts
with ``fcbo_oracle`` and its derived embeddings with ``embeddings_oracle``;
the columns ``parse_cxt`` and ``from_matrix`` store with ``transpose``; the
order bond and pairing checks of ``functors`` with ``bond.is_bond`` and
``bond.is_bonding_pair`` on the bonding benchmark's boolean homs, on seeded
flips of their bonds and across injections; and the lattice check of
``functors.CompleteLattice``, ``lattice.check_lattice``, with
``check_lattice_oracle``, message and witness, on the order of every concept
lattice the bonding benchmark's pairs join (16 to 128 elements) and on two
orders that are no lattices, the bowtie and the crown on 40 elements, each
with both caches cleared.  It exits 1 on a difference.
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
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from conceptual import bond, functors, relalg, verify  # noqa: E402
from conceptual.io import emit_cxt, parse_cxt  # noqa: E402
from conceptual.classification import Classification, contranominal_classification  # noqa: E402
from conceptual.errors import ValidationError  # noqa: E402
from conceptual.lattice import ConceptLattice, build_lattice  # noqa: E402
from conceptual.colimit import (  # noqa: E402
    _enumerate_lattice_morphisms,
    coproduct_sum,
    enumerate_infomorphisms,
)
from conceptual.relalg import (  # noqa: E402
    FunctionGraph,
    Relation,
    bits,
    compose,
    left_residual,
    pullback,
    right_residual,
    transpose,
)
from workloads import WORKLOADS  # noqa: E402
from oracles import (  # noqa: E402
    branches,
    check_lattice_oracle,
    compose_loop_oracle,
    embedding_bonds_oracle,
    embeddings_oracle,
    extent_inclusion_oracle,
    fcbo_oracle,
    infomorphisms_oracle,
    lattice_morphisms_oracle,
    left_residual_sweep_oracle,
    preimages_oracle,
    raised,
    right_residual_scatter_oracle,
    transpose_oracle,
)

# the shapes the kernel table times: small and square, the bench's large
# lattices, and the lattice workload's wide and tall contexts
SHAPES = [(3, 3), (8, 8), (16, 16), (128, 128), (752, 752), (100, 22), (1500, 40), (40, 1500)]
DENSITIES = (0.05, 0.5)
# timed runs of each function; the best is kept
REPEAT = 7
# each kernel, by name, with its call on ``r`` and the reference loop's
KERNELS = [
    ("compose", lambda r: compose(r, transpose(r)), lambda r: compose_loop_oracle(r, transpose(r))),
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


def random_relation(rng: random.Random, m: int, n: int, p: float) -> Relation:
    rows = (sum(1 << b for b in range(n) if rng.random() < p) for _ in range(m))
    return Relation(m, n, tuple(rows))


def rebuilds(r: Relation) -> bool:
    """Whether the public constructor accepts ``r``'s fields and builds an
    equal relation with the same hash."""
    try:
        again = Relation(r.src_size, r.dst_size, r.rows)
    except ValidationError:
        return False
    return again == r and hash(again) == hash(r)


class Tally:
    """The comparisons made and those that differ, each of which is printed."""

    def __init__(self) -> None:
        self.compared = self.differ = 0

    def __call__(self, ok: bool, what: str) -> None:
        self.compared += 1
        if not ok:
            self.differ += 1
            print(f"differs: {what}")


class Table(NamedTuple):
    """A table of rows ``(labels, kernel, x, reference, run)``: ``run`` calls
    the library on ``fresh(x)`` under each side, a branch of ``kernel``
    forced or ``""``, the rule's pick, and ``--check`` compares it with
    ``reference(fresh(x))``.  The timed columns are sides or ``"loop"``, the
    reference; the speed-up is one of them over another."""

    labels: tuple[str, ...]
    rows: list[tuple]
    sides: dict[str, str]
    timed: tuple[str, ...]
    ratio: tuple[str, str]
    fresh: Callable = lambda x: x


def best_time(fresh, kernel: str, columns: list) -> list[float]:
    """The best time of each ``(f, kind)`` in ``columns`` over ``REPEAT``
    rounds, the functions taking turns: ``f(fresh())``, with ``kind``, if
    any, forced on ``kernel``."""
    best = [float("inf")] * len(columns)
    for _ in range(REPEAT):
        for i, (f, kind) in enumerate(columns):
            x = fresh()
            with branches(kernel, kind) if kind else contextlib.nullcontext():
                start = perf_counter()
                f(x)
                best[i] = min(best[i], perf_counter() - start)
    return best


def run_table(table: Table, check: bool, tally: Tally) -> None:
    """Compare every side of every row with its reference, or print each
    row with the branch the rule picks and its timed columns."""
    widths = [
        max(len(h), *(len(row[0][i]) for row in table.rows)) for i, h in enumerate(table.labels)
    ]
    widths += [9] + [max(10, len(c) + 3) for c in table.timed] + [8]

    def line(cells) -> None:
        print(" ".join(f"{cell:>{w}}" for cell, w in zip(cells, widths)))

    if not check:
        line((*table.labels, "rule", *(f"{c} ms" for c in table.timed), "speed-up"))
    num, den = map(table.timed.index, table.ratio)
    for labels, kernel, x, reference, run in table.rows:
        if check:
            expected = reference(table.fresh(x))
            for side, kind in table.sides.items():
                with branches(kernel, kind):
                    got = run(table.fresh(x))
                ok = got == expected and (type(got) is not Relation or rebuilds(got))
                tally(ok, f"{side} on {' '.join(labels)}")
            continue
        with branches() as picks:
            run(table.fresh(x))
        pick = "/".join(sorted({kind for name, kind in picks if name == kernel}))
        columns = [(reference, "") if c == "loop" else (run, table.sides[c]) for c in table.timed]
        times = best_time(lambda: table.fresh(x), kernel, columns)
        line((*labels, pick, *(f"{t * 1e3:.3f}" for t in times), f"{times[num] / times[den]:.2f}x"))
    if not check:
        print()


def kernel_table() -> Table:
    """The kernels against their bit loops, on each shape at each density."""
    rng = random.Random(1)
    rows = []
    for m, n in SHAPES:
        for density in DENSITIES:
            r = random_relation(rng, m, n, density)
            labels = (f"{m}x{n}", str(density))
            rows += [((*labels, name), name, r, loop, run) for name, run, loop in KERNELS]
    # each run on a fresh copy of r, so a right residual pays for its columns
    # as a first call does
    copy = lambda r: Relation(r.src_size, r.dst_size, r.rows)  # noqa: E731
    labels = ("shape", "density", "kernel")
    return Table(labels, rows, {"kernel": ""}, ("kernel", "loop"), ("loop", "kernel"), copy)


def pullback_table() -> Table:
    """``pullback``, gathering and as the rule picks, against the fiber loop."""
    rows = [
        (
            (name, str(len(batches))),
            "pullback",
            batches,
            lambda batches: [preimages_oracle(psi, rows) for rows, _, psi in batches],
            lambda batches: [pullback(rows, cols, psi) for rows, cols, psi in batches],
        )
        for name, batches in pullback_inputs()
    ]
    sides, timed = {"gather": "gather", "pullback": ""}, ("loop", "gather", "pullback")
    return Table(("batches", "count"), rows, sides, timed, ("loop", "pullback"))


def context_tables() -> list[Table]:
    """The order of each context's lattice from each side, and its walk by
    each reading."""
    orders, walks = [], []
    inclusions = lambda L: extent_inclusion_oracle([set(bits(e)) for e in L.extents])  # noqa: E731
    for name, K in context_inputs():
        L = build_lattice(K)
        labels = (name, str(L.size))
        orders.append((labels, "order", L, inclusions, lambda L: L.order))
        walks.append((labels, "walk", K, fcbo_oracle, build_lattice))
    sides = {"types": "types", "instances": "instances", "order": ""}
    fresh = lambda L: ConceptLattice._of(L.concepts, L.classification)  # noqa: E731
    labels, readings = ("context", "concepts"), ("bits", "bytes")
    return [
        Table(labels, orders, sides, ("types", "instances"), ("instances", "types"), fresh),
        Table(labels, walks, dict(zip(readings, readings)), readings, readings),
    ]


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


def check_enumerators(tally: Tally) -> None:
    """Compare the enumerators with their brute force and with each other."""
    rng = random.Random(DIAGRAM_SEED)
    for (m, n), brute in DIAGRAMS:
        apex, C = sum_diagram(rng, m, n)
        L, M = functors.concept_lattice_of(apex), functors.concept_lattice_of(C)
        infos = list(enumerate_infomorphisms(apex, C))
        morphisms = _enumerate_lattice_morphisms(L, M)
        on = f"on {m}x{n}+{m}x{n}>{m}x{n}"
        if brute:
            tally(infos == list(infomorphisms_oracle(apex, C)), f"infomorphisms, brute force {on}")
            ok = morphisms == lattice_morphisms_oracle(L, M)
            tally(ok, f"lattice morphisms, brute force {on}")
        pairs = [[(x.f, x.g) for x in side] for side in (infos, morphisms)]
        tally(pairs[0] == pairs[1], f"the (f, g) pairs of the two sides {on}")


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


def check_embeddings(tally: Tally) -> None:
    """Compare ``embedding_bonds`` with its oracle over the verify corpus of
    one seed and on the order of 2^7."""
    corpus = [K for _, K in verify.context_corpus(3, random.Random(CORPUS_SEED))]
    boolean = functors.concept_lattice_of(contranominal_classification(7))
    for name, contexts in (
        (f"corpus seed {CORPUS_SEED}", corpus),
        ("order of 2^7", [functors.complete_lattice_of(boolean).classification]),
    ):
        got = [functors.embedding_bonds(A) for A in contexts]
        tally(got == [embedding_bonds_oracle(A) for A in contexts], f"embedding bonds on {name}")


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


def check_builds(tally: Tally) -> None:
    """Compare ``build_lattice``'s concepts with ``fcbo_oracle`` and its
    embeddings with ``embeddings_oracle``, and the columns both text readers
    store with ``transpose``."""
    for name, K in context_inputs():
        L = build_lattice(K)
        rel = K.incidence
        read = [parse_cxt(emit_cxt(K)).incidence, Relation.from_matrix(rel.matrix(), rel.dst_size)]
        tally(L.concepts == fcbo_oracle(K).concepts, f"concepts on {name}")
        tally((L.iota, L.tau) == embeddings_oracle(L), f"embeddings on {name}")
        for what, got in zip(("parse_cxt", "from_matrix"), read):
            ok = vars(got).get("columns") == transpose(rel).rows
            tally(ok, f"the columns {what} stores on {name}")


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


def pairing_agrees(L, K, F, G) -> bool:
    """Whether the order pairing check and ``is_bonding_pair`` agree."""
    return bool(functors._order_pairing_check(L, K, F, G)) == bool(bond.is_bonding_pair(F, G))


def check_orders(tally: Tally) -> None:
    """Compare the order checks with ``is_bond`` and ``is_bonding_pair``."""
    rng = random.Random(ORDER_SEED)
    # the same homs on other injections: their bonds pass, but do not pair
    # with the first homs' bonds
    others = order_pairs(ORDER_SEED + 1)
    for (name, h, p), (_, _, q) in zip(order_pairs(ORDER_SEED), others):
        L, K = h.source, h.target
        for F, G in ((p.forward, q.backward), (q.forward, p.backward)):
            tally(pairing_agrees(L, K, F, G), f"the pairing check across injections on {name}")
        for src, tgt, b in ((L, K, p.forward), (K, L, p.backward)):
            for rel in variants(rng, src, b.rel):
                got = functors._order_bond_check(src, tgt, rel)
                ok = got == bond.is_bond(src.classification, tgt.classification, rel)
                tally(ok, f"the bond check of {rel!r} on {name}")
                if got:
                    other = bond.Bond._of(src.classification, tgt.classification, rel)
                    F, G = (other, p.backward) if b is p.forward else (p.forward, other)
                    tally(pairing_agrees(L, K, F, G), f"the pairing check on {name}")


def lattice_orders() -> list[tuple[str, Relation]]:
    """The orders of the lattice check rows, by name: of every concept
    lattice the bonding benchmark's pairs join, then the bowtie, bounded
    with two minimal upper bounds for a pair, and the crown on 40 elements,
    ``a_i`` below ``b_j`` iff ``i != j``, with no top and over 2^20
    concepts in its order classification."""
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS["bonding"](library_modules(), 1, "full", Path(workdir) / "bonding")
    orders = {}
    for label, pair, _ in workload.pairs:
        for end, K in (("source", pair.source), ("target", pair.target)):
            orders.setdefault(build_lattice(K).order, f"{label} {end}")
    out = [(name, order) for order, name in orders.items()]
    bowtie = (0b111111, 0b111010, 0b111100, 0b101000, 0b110000, 0b100000)
    k = 20
    tops = ((1 << k) - 1) << k
    crown = [1 << i | tops & ~(1 << k + i) for i in range(k)] + [1 << k + j for j in range(k)]
    out += [("bowtie", Relation(6, 6, bowtie)), ("crown", Relation(2 * k, 2 * k, tuple(crown)))]
    return out


def check_lattices(tally: Tally) -> None:
    """Compare the lattice check of ``CompleteLattice`` with
    ``check_lattice_oracle``, and a lattice's down-sets with the columns of
    its order."""
    for name, order in lattice_orders():
        labels = tuple(f"e{i}" for i in range(order.src_size))
        functors.concept_lattice_of.cache_clear()
        functors.complete_lattice_of.cache_clear()
        got = raised(functors.CompleteLattice, labels, order)
        expected = raised(check_lattice_oracle, Classification(labels, labels, order))
        on = f"on {name} ({order.src_size} elements)"
        tally(got == expected, f"the lattice check's verdict {on}")
        if got is None:
            down = functors.CompleteLattice(labels, order).extents
            tally(down == transpose(order).rows, f"the lattice check's down-sets {on}")


def library_modules() -> SimpleNamespace:
    """The modules a benchmark workload is built from."""
    names = ("classification", "relalg", "lattice", "functors", "bond", "io", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"conceptual.{n}") for n in names})


def probe_branches() -> None:
    """Print the branch counts of one cycle of each benchmark workload."""
    print(f"{'workload':>9} {'kernel':>15} {'calls':>7}  branches")
    mods = library_modules()
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS.values():
            ops = list(workload(mods, 1, "full", Path(workdir) / workload.name).ops())
            with branches() as picks:
                for _, op, _ in ops:
                    mods.lattice.concept_lattice_of.cache_clear()
                    mods.functors.complete_lattice_of.cache_clear()
                    op()
            counts = collections.Counter(picks)
            for kernel in sorted({kernel for kernel, _ in counts}):
                kinds = sorted((kind, n) for (name, kind), n in counts.items() if name == kernel)
                total = sum(n for _, n in kinds)
                spread = ", ".join(f"{n} {kind}" for kind, n in kinds)
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

    # every module attribute bound to a counted kernel, as the tracer finds
    # them: a module that imported a kernel by name holds its own binding
    kernels = {id(getattr(relalg, name)) for name in STAGE_KERNELS}
    patches = [
        (module, key, original, counted(original))
        for name, module in list(sys.modules.items())
        if name.startswith("conceptual")
        for key, original in vars(module).items()
        if id(original) in kernels
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
    tally = Tally()
    for table in (kernel_table(), pullback_table(), *context_tables()):
        run_table(table, args.check, tally)
    if not args.check:
        probe_branches()
        probe_stages()
        return 0
    for check in (check_enumerators, check_embeddings, check_builds, check_orders, check_lattices):
        check(tally)
    print(f"{tally.compared - tally.differ} results equal, {tally.differ} differ")
    return 1 if tally.differ else 0


if __name__ == "__main__":
    sys.exit(main())
