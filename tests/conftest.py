import csv
import functools
import importlib
import importlib.util
import io
import random
from pathlib import Path
from types import MappingProxyType, SimpleNamespace

import pytest

from conceptual import verify
from conceptual.classification import Classification, contranominal_classification
from conceptual.colimit import (
    CoproductDiagram,
    _lattice_candidates,
    coproduct_sum,
    enumerate_infomorphisms,
)
from conceptual.functors import CompleteHomomorphism, complete_lattice_of
from conceptual.infomorphism import FunctionalInfomorphism, RelationalInfomorphism
from conceptual.lattice import concept_lattice_of
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    compose,
    identity,
    left_residual,
    right_residual,
    transpose,
)

from oracles import (
    compose_loop_oracle,
    left_residual_sweep_oracle,
    right_residual_scatter_oracle,
    transpose_oracle,
)


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def k1():
    return Classification.from_pairs(
        ("1", "2"), ("a", "b"), [("1", "a"), ("2", "a"), ("2", "b")]
    )


def all_contexts(max_inst: int, max_typ: int):
    """Every context with at most the given dimensions, exhaustively."""
    for m in range(max_inst + 1):
        for n in range(max_typ + 1):
            inst = tuple(f"i{k}" for k in range(m))
            typ = tuple(f"t{k}" for k in range(n))
            for code in range(1 << (m * n)):
                rows = tuple(code >> a * n & (1 << n) - 1 for a in range(m))
                yield Classification(inst, typ, Relation(m, n, rows))


# seeded random shapes beyond the exhaustive 3x3: empty carriers on either
# side, thin ones, and up to 8x8
RANDOM_SHAPES = ((0, 5), (5, 0), (1, 8), (8, 1), (5, 7), (7, 5), (8, 8), (8, 8))


def identity_relational(K: Classification) -> RelationalInfomorphism:
    """The identity arrow of ``K`` as a relational infomorphism."""
    return RelationalInfomorphism(K, K, identity(len(K.instances)), identity(len(K.types)))


def emit_csv(K: Classification) -> str:
    """``K`` as the CSV table ``io.parse_csv`` reads: a header row of the
    types after an empty cell, then one row per instance, its label then its
    0/1 cells."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(K.types))
    for label, cells in zip(K.instances, K.incidence.matrix()):
        writer.writerow([label, *cells])
    return buf.getvalue()


def order_from_covers(n: int, covers) -> Relation:
    """Reflexive-transitive closure of the pairs ``(i, j)``, ``i`` below ``j``."""
    up = [1 << i for i in range(n)]
    for _ in range(n):
        for i, j in covers:
            up[i] |= up[j]
    return Relation(n, n, tuple(up))


# bottom 0 < a 1, b 2 < c 3, d 4 < top 5: bounded, but a and b have two minimal
# upper bounds and c and d two maximal lower bounds, so not a lattice
BOWTIE = order_from_covers(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])


def crown(k: int) -> tuple[tuple[str, ...], Relation]:
    """The crown on ``2k`` elements, ``a_i`` below ``b_j`` iff ``i != j``:
    an order with no top, whose order classification has about ``2^k``
    concepts."""
    labels = tuple(f"a{i}" for i in range(k)) + tuple(f"b{j}" for j in range(k))
    tops = ((1 << k) - 1) << k
    rows = tuple(1 << i | tops & ~(1 << k + i) for i in range(k))
    return labels, Relation(2 * k, 2 * k, rows + tuple(1 << k + j for j in range(k)))


def random_context(rng, m: int, n: int) -> Classification:
    inst = tuple(f"i{k}" for k in range(m))
    typ = tuple(f"t{k}" for k in range(n))
    rows = tuple(rng.getrandbits(n) for _ in range(m))
    return Classification(inst, typ, Relation(m, n, rows))


def sparse_context(rng, m: int, n: int, k: int) -> Classification:
    """m x n context, each row with exactly ``k`` crosses at random columns:
    the tall sparse shape of the lattice benchmark."""
    inst = tuple(f"i{a}" for a in range(m))
    typ = tuple(f"t{t}" for t in range(n))
    rows = tuple(sum(1 << t for t in rng.sample(range(n), k)) for _ in range(m))
    return Classification(inst, typ, Relation(m, n, rows))


def bench_contexts() -> tuple[Classification, Classification]:
    """One seeded context of each shape of the lattice benchmark: wide
    100 x 22 at density .3, seven crosses per row, and tall 1500 x 40 at
    .05, two per row."""
    return (
        sparse_context(random.Random(15), 100, 22, 7),
        sparse_context(random.Random(16), 1500, 40, 2),
    )


def boolean_map(a: int, b: int, f: tuple[int, ...]) -> FunctionGraph:
    """Inverse image along the injection ``f: [b] -> [a]``, a complete
    homomorphism from the boolean lattice 2^a onto 2^b, as a map between
    the two lattices' concept indices, unchecked."""
    LA = concept_lattice_of(contranominal_classification(a))
    LB = concept_lattice_of(contranominal_classification(b))
    targets = tuple(
        LB.extent_index[sum(1 << y for y in range(b) if c.extent >> f[y] & 1)]
        for c in LA.concepts
    )
    return FunctionGraph.from_targets(targets, LB.size)


def boolean_hom(a: int, b: int, f: tuple[int, ...]) -> CompleteHomomorphism:
    """``boolean_map(a, b, f)`` as the checked ``CompleteHomomorphism``."""
    return CompleteHomomorphism(
        *(complete_lattice_of(concept_lattice_of(contranominal_classification(k))) for k in (a, b)),
        boolean_map(a, b, f),
    )


def verify_hom_corpora():
    """The homs of the hom corpora of ``verify_equivalences`` at
    ``--max-size 3``, seeds 0-11, built with the same draws."""
    for seed in range(12):
        rng = random.Random(seed)
        contexts = verify.context_corpus(3, rng)
        morphisms = verify.infomorphism_corpus(contexts, rng)
        verify.adjoint_corpus(contexts, verify.bond_corpus(contexts, morphisms, rng), rng)
        for _, h in verify.hom_corpus(contexts, rng):
            yield h


def library_modules() -> SimpleNamespace:
    """The modules a benchmark workload is built from."""
    names = ("classification", "relalg", "lattice", "functors", "bond", "io", "cli")
    return SimpleNamespace(**{n: importlib.import_module(f"conceptual.{n}") for n in names})


def bonding_workload(workdir: Path):
    """The benchmark's ``bonding`` workload, seed 1, full scale, built from
    ``perfbench/workloads.py`` on ``library_modules()``; its ``pairs`` are
    ``(label, pair, text)``, ``text`` the pair's JSON."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS["bonding"](library_modules(), 1, "full", workdir)


# -- the inputs of the timing tables of tools/kernel_probe.py ------------------
#
# The tables time the library on these seeded inputs, and the tests check
# it on them.  Each builder is cached: the inputs are immutable values.

# the kernels, by name, each with its call on ``r`` and the reference loop's
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
# the shapes of the kernels' relations: small and square, the bonding
# benchmark's large lattices, and the lattice benchmark's wide and tall
# contexts; each at each density
KERNEL_SHAPES = [
    (3, 3), (8, 8), (16, 16), (128, 128), (752, 752), (100, 22), (1500, 40), (40, 1500)
]
KERNEL_DENSITIES = (0.05, 0.5)


@functools.cache
def kernel_inputs() -> tuple[tuple[tuple[str, str], Relation], ...]:
    """A seeded relation of each shape at each density, by its labels."""
    rng = random.Random(1)
    out = []
    for m, n in KERNEL_SHAPES:
        for p in KERNEL_DENSITIES:
            rows = tuple(sum(1 << b for b in range(n) if rng.random() < p) for _ in range(m))
            out.append(((f"{m}x{n}", str(p)), Relation(m, n, rows)))
    return tuple(out)


@functools.cache
def pullback_inputs() -> tuple[tuple[str, tuple[tuple, ...]], ...]:
    """Batches ``(rows, cols, psi)`` for ``pullback``, by name: the up-sets
    of 2^a, with their down-sets as columns, pulled back along a seeded
    boolean homomorphism 2^c -> 2^a for c = a and c = a + 2, a = 3..7; and
    both principal batches of each hom of ``verify_hom_corpora``."""
    rng = random.Random(25)
    inputs = []
    for a in range(3, 8):
        K = complete_lattice_of(concept_lattice_of(contranominal_classification(a)))
        for c in (a, a + 2):
            psi = boolean_map(c, a, tuple(rng.sample(range(c), a)))
            inputs.append((f"2^{c}>2^{a}", ((K.intents, K.extents, psi),)))
    batches = []
    for h in verify_hom_corpora():
        K = h.target
        batches += [(K.intents, K.extents, h.psi), (K.extents, K.intents, h.psi)]
    inputs.append(("verify homs", tuple(batches)))
    return tuple(inputs)


# the contexts of ``context_inputs``, (instances, types, crosses per row):
# the lattice benchmark's wide 100x22 at .3 and tall 1500x40 at .05 first
CONTEXT_SHAPES = [(100, 22, 7), (1500, 40, 2), (100, 90, 9), (60, 50, 6), (200, 150, 8)]
# the boolean lattices 2^a whose order classifications follow them
ORDER_POWERS = (5, 6, 7)
CONTEXT_NAMES = [f"{m}x{n} by {k}" for m, n, k in CONTEXT_SHAPES] + [
    f"order of 2^{a}" for a in ORDER_POWERS
]


@functools.cache
def context_inputs() -> MappingProxyType:
    """The contexts of ``CONTEXT_NAMES``, by name: each shape drawn by
    ``sparse_context`` from a generator of its own at seed 3, then the order
    classifications."""
    contexts = [sparse_context(random.Random(3), m, n, k) for m, n, k in CONTEXT_SHAPES]
    contexts += [
        complete_lattice_of(concept_lattice_of(contranominal_classification(a))).classification
        for a in ORDER_POWERS
    ]
    return MappingProxyType(dict(zip(CONTEXT_NAMES, contexts)))


# ``i0`` has no type and ``i1`` only ``t0``: the bottom concept, of the empty
# extent, is reached only through the child at the lowest type missing from
# an intent, at a node where the concept walk skips the types its extent
# cannot meet
PRUNED_BOTTOM = Classification(("i0", "i1"), ("t0", "t1", "t2"), Relation(2, 3, (0b000, 0b001)))


def duplicated_instance_sum(A, B) -> CoproductDiagram:
    """The sum of A and B with apex instance 0 repeated: the injections stay
    valid, but a cocone can have two mediators, so records fail with a count."""
    d = coproduct_sum(A, B)
    rows = d.apex.rows + d.apex.rows[:1]
    apex = Classification(
        d.apex.instances + ("copy",), d.apex.types, Relation(len(rows), len(d.apex.types), rows)
    )

    def leg(inj):
        f = FunctionGraph(inj.f.targets + inj.f.targets[:1], inj.f.dst_size)
        return FunctionalInfomorphism(inj.source, apex, f, inj.g)

    return CoproductDiagram(A, B, apex, leg(d.left_injection), leg(d.right_injection), "sum")


def lattice_images(L, M) -> list:
    """The lattice functor's image of every infomorphism between the
    classifications of ``L`` and ``M``, in enumeration order, taken as
    ``colimit.transport_coproduct`` takes its candidates."""
    return _lattice_candidates(list(enumerate_infomorphisms(L.classification, M.classification)))


# .cxt headers with one negative count, id -> (text, line of the count):
# -100 and -1 as the instance or the type count, after an empty name line or
# with no name line.  Each file ends after the header, so a negative count
# that slipped through would index its lines from the end.
NEGATIVE_COUNT_CXT = {
    f"{n}-{which}-{'named' if named else 'unnamed'}": (
        ("B\n\n" if named else "B\n")
        + ("{}\n{}\n\n".format(*((n, 2) if which == "instances" else (2, n)))),
        (3 if named else 2) + (which == "types"),
    )
    for n in (-100, -1)
    for which in ("instances", "types")
    for named in (True, False)
}
