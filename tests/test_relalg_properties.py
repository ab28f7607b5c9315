"""Bounded property tests of the residuation laws the library relies on, on
random shapes up to 7x7x7, 0-sized carriers included (Schmidt & Stroehlein,
*Relations and Graphs*, Springer 1993, ch. 4), of each kernel's branches
against the reference loops of ``tests/oracles.py``, of the digit reader
that fills a relation's columns as it reads its rows, and of the invariant
the unchecked constructors rely on: what the library builds without the
check, the public constructor accepts.  The kernels and the readers are
also checked on the seeded inputs ``tools/kernel_probe.py`` times."""

import dataclasses
import itertools
import random
import re

import pytest

from hypothesis_or_skip import given, settings, st

from conceptual.classification import Classification
from conceptual.errors import ValidationError
from conceptual.bond import collective_from_function, collective_transport, identity_bond
from conceptual.colimit import enumerate_infomorphisms
from conceptual.functors import (
    adjoint_of_bond,
    canonical_adjoints,
    classification_of_lattice,
    complete_lattice_of,
    embedding_bonds,
    identity_hom,
    lattice_equivalence_witness,
    lattice_of_morphism,
)
from conceptual.infomorphism import identity_functional
from conceptual.io import emit_cxt, parse_cxt
from conceptual.lattice import concept_lattice_of
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    bits,
    complement,
    compose,
    identity,
    intersect_rows,
    left_residual,
    mask_of,
    pullback,
    right_residual,
    subrelation,
    transpose,
    union,
)
from conceptual.verify import context_corpus, hom_corpus

from conftest import CONTEXT_NAMES, KERNELS, context_inputs, kernel_inputs
from oracles import (
    branches,
    compose_oracle,
    extent_oracle,
    from_matrix_oracle,
    intent_oracle,
    left_residual_oracle,
    right_residual_oracle,
    transpose_oracle,
)


def relations(draw, src: int, dst: int) -> Relation:
    """Rows are often empty or full, so residuals over vacuous and total
    quantifiers both come up.  Three draws per relation, whatever its size:
    the cells, then the rows made empty and the rows made full."""
    full = (1 << dst) - 1
    cells = draw(st.integers(0, (1 << src * dst) - 1))
    empty, filled = (draw(st.integers(0, (1 << src) - 1)) for _ in range(2))
    rows = (
        0 if empty >> a & 1 else full if filled >> a & 1 else cells >> a * dst & full
        for a in range(src)
    )
    return Relation(src, dst, tuple(rows))


@st.composite
def triples(draw, max_size: int = 7):
    """``r: a x b``, ``s: b x c`` and ``t: a x c``; half the time ``t``
    contains ``r;s``, so both sides of the adjunction are met."""
    a, b, c = (draw(st.integers(0, max_size)) for _ in range(3))
    r = relations(draw, a, b)
    s = relations(draw, b, c)
    t = relations(draw, a, c)
    if draw(st.booleans()):
        t = union(t, compose(r, s))
    return r, s, t


@settings(max_examples=100, deadline=None, database=None)
@given(triples())
def test_residuals_are_adjoint_to_composition(rst):
    r, s, t = rst
    below = subrelation(compose(r, s), t)
    assert subrelation(s, left_residual(r, t)) == below
    assert subrelation(r, right_residual(t, s)) == below


@settings(max_examples=100, deadline=None, database=None)
@given(triples())
def test_right_residual_is_transposed_left_residual(rst):
    _, s, t = rst
    assert right_residual(t, s) == transpose(left_residual(transpose(s), transpose(t)))


# -- the kernels' branches against the reference loops -------------------------
#
# The shapes sit at the edges a branch's loop can get wrong: the empty
# carriers, 7/8/9 and 15/16/17 columns around a byte, shorter sides of
# 8/9, 16/17, 32/33, 64/65 and 128/129 around a tile side (a wider tile from
# 129 cut into several), and long thin shapes.
SHAPES = [
    (0, 9), (9, 0), (1, 300), (300, 1),
    (3, 5), (4, 4), (1, 7), (9, 8), (8, 9), (1, 16), (16, 1), (1, 17), (17, 1),
    (15, 17), (17, 15), (16, 16), (2, 64), (43, 3), (5, 51), (2, 128), (128, 2),
    (7, 73), (16, 32), (32, 16), (32, 33), (17, 17), (17, 40), (64, 65), (65, 70),
    (128, 129), (129, 129),
]
DENSITIES = ("empty", "sparse", "half", "nearly full", "full")


def dense_relation(draw, src: int, dst: int, density: str) -> Relation:
    """A ``src`` x ``dst`` relation: no cell, fewer than 1/32 of the cells
    (none below 32), each cell with probability 1/2, every cell but at most
    one per row, or every cell.  Nearly full rows make residuals neither empty
    nor full: a row of ``s`` lies in a row of ``t`` that lacks one cell about
    half the time, so each column the kernel reads decides some cells."""
    full = (1 << dst) - 1
    if density in ("empty", "full"):
        return Relation(src, dst, (0 if density == "empty" else full,) * src)
    rng = random.Random(draw(st.integers(0, 2**32)))
    if density == "half":
        return Relation(src, dst, tuple(rng.getrandbits(dst) for _ in range(src)))
    if density == "nearly full":
        return Relation(src, dst, tuple(full & ~(1 << rng.randrange(dst + 1)) for _ in range(src)))
    rows = [0] * src
    for cell in rng.sample(range(src * dst), max(0, src * dst - 1) // 32):
        rows[cell // dst] |= 1 << cell % dst
    return Relation(src, dst, tuple(rows))


@st.composite
def shaped(draw, src=None, dst=None):
    """A relation of one of ``SHAPES`` and ``DENSITIES``; ``src`` or ``dst``
    fixes that side instead."""
    m, n = draw(st.sampled_from(SHAPES))
    density = draw(st.sampled_from(DENSITIES))
    return dense_relation(draw, m if src is None else src, n if dst is None else dst, density)


@settings(max_examples=150, deadline=None, database=None)
@given(shaped())
def test_transpose_is_the_bit_loop(r):
    assert transpose(r) == transpose_oracle(r)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_left_residual_is_the_oracle(data):
    """``r`` takes the shapes above; ``t`` has a few columns and is
    sometimes full, whose rows the sweep skips."""
    r = data.draw(shaped())
    t = data.draw(shaped(src=r.src_size, dst=data.draw(st.sampled_from((0, 1, 5, 17)))))
    assert left_residual(r, t) == left_residual_oracle(r, t)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_right_residual_is_the_oracle(data):
    """The output ``t.src_size`` x ``s.src_size`` takes the shapes above;
    the shared columns run from none to 17, around a byte."""
    m, k = data.draw(st.sampled_from(SHAPES))
    n = data.draw(st.sampled_from((0, 1, 7, 8, 16, 17)))
    t = data.draw(shaped(src=m, dst=n))
    s = data.draw(shaped(src=k, dst=n))
    assert right_residual(t, s) == right_residual_oracle(t, s)


# every branch ``relalg.branch`` can pick for each kernel
BRANCHES = {
    "compose": ("bits", "bytes"),
    "transpose": ("bits", "tiles"),
    "left_residual": ("bits", "bytes"),
    "right_residual": ("cells", "tables", "bytes"),
}


@settings(max_examples=200, deadline=None, database=None)
@given(st.data())
def test_every_branch_is_the_oracle(data):
    """Each branch of each kernel, forced whatever the rule would pick, on
    the shapes and densities above, equals the reference loop; a right
    residual's shared side runs from none to 17 columns, and so do the
    output columns of a composition and a left residual."""
    kernel = data.draw(st.sampled_from(sorted(BRANCHES)))
    kind = data.draw(st.sampled_from(BRANCHES[kernel]))
    with branches(kernel, kind):
        if kernel == "transpose":
            r = data.draw(shaped())
            assert transpose(r) == transpose_oracle(r)
        elif kernel == "compose":
            r = data.draw(shaped())
            s = data.draw(shaped(src=r.dst_size, dst=data.draw(st.sampled_from((0, 1, 5, 17)))))
            assert compose(r, s) == compose_oracle(r, s)
        elif kernel == "left_residual":
            r = data.draw(shaped())
            t = data.draw(shaped(src=r.src_size, dst=data.draw(st.sampled_from((0, 1, 5, 17)))))
            assert left_residual(r, t) == left_residual_oracle(r, t)
        else:
            m, k = data.draw(st.sampled_from(SHAPES))
            n = data.draw(st.sampled_from((0, 1, 7, 8, 16, 17)))
            t, s = data.draw(shaped(src=m, dst=n)), data.draw(shaped(src=k, dst=n))
            assert right_residual(t, s) == right_residual_oracle(t, s)


def subset(draw, full: int) -> int:
    """A subset of ``full``, of about ``1/2**j`` of its bits for ``j`` in 0..4."""
    mask = full
    for _ in range(draw(st.integers(0, 4))):
        mask &= draw(st.integers(0, full))
    return mask


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_intersect_rows_is_the_derivation(data):
    """``intersect_rows`` is the intent of a set of instances and the
    extent of a set of types."""
    r = data.draw(shaped())
    m, n = r.shape
    K = Classification(tuple(f"i{a}" for a in range(m)), tuple(f"t{t}" for t in range(n)), r)
    imask, tmask = subset(data.draw, K.full_instances), subset(data.draw, K.full_types)
    intent = intersect_rows(K.rows, imask, K.full_types)
    assert intent == mask_of(intent_oracle(K, set(bits(imask))))
    extent = intersect_rows(K.cols, tmask, K.full_instances)
    assert extent == mask_of(extent_oracle(K, set(bits(tmask))))


# the right residual's complement tables against the per-cell oracle: the
# shared side runs over every width from 0 to 70 columns, whole bytes and
# broken ones, and the output from an empty side to 300 rows or columns;
# a short ``t`` against a long, dense ``s`` takes the tables, a long ``t``
# against a short or sparse ``s`` the AND-product
OUTPUT_SHAPES = [
    (0, 300), (300, 0), (1, 300), (300, 1), (20, 300), (300, 20),
    (40, 200), (200, 40), (64, 64), (90, 90), (120, 70), (70, 120),
]


@settings(max_examples=80, deadline=None, database=None)
@given(st.data())
def test_complement_tables_are_the_oracle(data):
    m, k = data.draw(st.sampled_from(OUTPUT_SHAPES))
    n = data.draw(st.integers(0, 70))
    t = data.draw(shaped(src=m, dst=n))
    s = data.draw(shaped(src=k, dst=n))
    assert right_residual(t, s) == right_residual_oracle(t, s)


# -- the digit reader ----------------------------------------------------------
#
# ``relalg.from_digits`` reads a relation's rows and its columns off one digit
# string; both text readers go through it.  The widths sit on both sides of a
# byte and of a machine word, and 0 rows or 0 columns give the empty carriers.
READ_WIDTHS = (0, 1, 7, 8, 9, 63, 64, 65)
# the cells JSON can hold for each bit; ``from_matrix`` reads each as its digit
ZEROS = (0, False, 0.0)
ONES = (1, True, 1.0)


@settings(max_examples=120, deadline=None, database=None)
@given(st.integers(0, 12), st.sampled_from(READ_WIDTHS), st.randoms(use_true_random=False))
def test_read_relations_carry_their_columns(m, n, rnd):
    """A relation read by ``parse_cxt(emit_cxt(K))`` or by ``from_matrix`` has
    the rows it was written from, and its ``columns`` are stored by the
    reader, equal to the rows of its transpose."""
    rel = Relation(m, n, tuple(rnd.getrandbits(n) if n else 0 for _ in range(m)))
    K = Classification(tuple(f"i{a}" for a in range(m)), tuple(f"t{b}" for b in range(n)), rel)
    cells = [[rnd.choice(ONES if row >> b & 1 else ZEROS) for b in range(n)] for row in rel.rows]
    read_back(K, cells)


@pytest.mark.parametrize("name", CONTEXT_NAMES)
def test_read_probe_contexts_carry_their_columns(name):
    """The same on the seeded contexts the kernel probe times, up to
    1500 x 40 and 200 x 150."""
    read_back(context_inputs()[name])


def read_back(K: Classification, *matrices) -> None:
    """``K``'s incidence, read by ``parse_cxt(emit_cxt(K))`` and by
    ``from_matrix`` from its matrix and from each of ``matrices``, has its
    rows, and the ``columns`` each reader stores."""
    rel = K.incidence
    readers = [parse_cxt(emit_cxt(K)).incidence]
    readers += [Relation.from_matrix(cells, rel.dst_size) for cells in (rel.matrix(), *matrices)]
    for read in readers:
        assert (read.shape, read.rows) == (rel.shape, rel.rows)
        assert vars(read)["columns"] == transpose(rel).rows


MATRIX_CELLS = (0, 1, True, False, 0.0, 1.0, 2, -1, 256, "1", None)


@st.composite
def matrices(draw):
    """A matrix and a ``dst_size`` for ``from_matrix``: rows of one width,
    or a quarter of the time ragged, cells of 0 and 1 or of ``MATRIX_CELLS``,
    whose odd ones ``bytes`` refuses (``1.0``, ``"1"``, ``None``, ``-1``,
    ``256``) or takes as a byte other than 0 or 1 (``2``)."""
    width = draw(st.integers(0, 9))
    cells = st.sampled_from(MATRIX_CELLS if draw(st.booleans()) else (0, 1))
    rows = st.lists(cells, min_size=width, max_size=width)
    if not draw(st.integers(0, 3)):
        rows = st.lists(cells, max_size=9)
    matrix = draw(st.lists(rows, max_size=6))
    return matrix, draw(st.sampled_from((None, width, width + 1)))


@settings(max_examples=300, deadline=None, database=None)
@given(matrices())
def test_from_matrix_is_the_per_cell_reader(drawn):
    """``from_matrix`` builds what the per-cell reader it replaced built,
    its stored columns those of the transpose, or raises the same error
    with the same message."""

    def outcome(read, columns):
        try:
            r = read(*drawn)
        except Exception as e:
            return type(e), str(e)
        return r.shape, r.rows, columns(r)

    got = outcome(Relation.from_matrix, lambda r: vars(r).get("columns"))
    assert got == outcome(from_matrix_oracle, lambda r: transpose(r).rows)


# -- the unchecked constructors ------------------------------------------------
#
# Kernels, composites, rebuilt classifications and the arrows built from
# checked ones store their results with ``_of``, unchecked: each result must
# pass the public constructor, which builds an equal value with the same
# hash.  The shapes open with the empty carriers.
REBUILD_SHAPES = [(0, 0), (0, 5), (5, 0), (1, 1), (3, 7), (9, 8), (17, 40), (40, 17), (130, 9)]


def rebuilt(r: Relation) -> None:
    out = Relation(r.src_size, r.dst_size, r.rows)
    assert out == r and hash(out) == hash(r)


@pytest.mark.parametrize("name, run, loop", KERNELS, ids=[name for name, _, _ in KERNELS])
def test_kernels_are_the_loops_on_the_probe_relations(name, run, loop):
    """Each kernel as ``relalg.branch`` picks, on the seeded relations the
    kernel probe times, up to 752 x 752 and 1500 x 40 at densities .05 and
    .5, each on a fresh copy, builds what its reference loop builds, and
    what the constructor accepts."""
    for labels, r in kernel_inputs():
        out = run(Relation(r.src_size, r.dst_size, r.rows))
        assert out == loop(r), (name, labels)
        rebuilt(out)


def rough(rng: random.Random, m: int, n: int) -> Relation:
    """A relation whose rows are empty, full or random, a third each."""
    full = (1 << n) - 1
    return Relation(m, n, tuple(rng.choice((0, full, rng.getrandbits(n))) for _ in range(m)))


@pytest.mark.parametrize("kernel", sorted(BRANCHES))
def test_every_branch_builds_what_the_constructor_accepts(kernel):
    """Each branch of each kernel, forced, on the shapes above, with a third
    side of no cells and of five."""
    rng = random.Random(kernel)
    for kind in BRANCHES[kernel]:
        with branches(kernel, kind):
            for (m, n), p in itertools.product(REBUILD_SHAPES, (0, 5)):
                r = rough(rng, m, n)
                if kernel == "transpose":
                    out = transpose(r)
                elif kernel == "compose":
                    out = compose(r, rough(rng, n, p))
                elif kernel == "left_residual":
                    out = left_residual(r, rough(rng, m, p))
                else:
                    out = right_residual(r, rough(rng, p, n))
                rebuilt(out)


def test_the_other_unchecked_relations_pass_the_constructor():
    """``complement``, ``union``, ``identity``, the two readers, a map's
    graph, the rows of each branch of ``pullback`` and the covers of a
    concept lattice."""
    rng = random.Random(38)
    for m, n in REBUILD_SHAPES:
        r = rough(rng, m, n)
        K = Classification(tuple(f"i{a}" for a in range(m)), tuple(f"t{b}" for b in range(n)), r)
        # a map of six sources into r's columns, none where there is no column
        g = FunctionGraph(tuple(rng.randrange(n) for _ in range(6 if n else 0)), n)
        for out in (
            complement(r),
            union(r, rough(rng, m, n)),
            identity(m),
            Relation.from_matrix(r.matrix(), n),
            parse_cxt(emit_cxt(K)).incidence,
            g.rel,
        ):
            rebuilt(out)
        if m * n <= 200:
            rebuilt(concept_lattice_of(K).covers)
        for kind in ("gather", "bits", "bytes"):
            with branches("pullback", kind):
                rows = pullback(r.rows, r.columns, g)
            assert Relation(m, g.src_size, rows) == compose(r, transpose(g.rel))


FUNCTION_SHAPES = [(0, 0, 0), (0, 3, 2), (0, 0, 4), (2, 1, 1), (3, 4, 2), (5, 5, 5), (9, 2, 7)]


def test_function_composites_and_identities_pass_the_constructor():
    """``then`` on maps ``src -> mid -> dst``, and ``identity`` from 0 up."""
    rng = random.Random(38)
    built = [FunctionGraph.identity(n) for n in range(6)]
    for src, mid, dst in FUNCTION_SHAPES:
        for _ in range(5):
            f = FunctionGraph(tuple(rng.randrange(mid) for _ in range(src)), mid)
            g = FunctionGraph(tuple(rng.randrange(dst) for _ in range(mid)), dst)
            built.append(f.then(g))
    for out in built:
        again = FunctionGraph(out.targets, out.dst_size)
        assert again == out and hash(again) == hash(out)


def test_rebuilt_classifications_pass_the_constructor():
    """``classification_of_lattice`` on the exhaustive contexts up to 3x3
    and on random ones with empty carriers, the order classification of a
    complete lattice, and the contexts of the verify corpus."""
    rng = random.Random(38)
    built = []
    contexts = [K for _, K in context_corpus(3, rng)]
    for m, n in REBUILD_SHAPES[:7]:
        r = rough(rng, m, n)
        contexts.append(
            Classification(tuple(f"i{a}" for a in range(m)), tuple(f"t{b}" for b in range(n)), r)
        )
    for K in contexts:
        L = concept_lattice_of(K)
        built += [K, classification_of_lattice(L), complete_lattice_of(L).classification]
    for out in built:
        inc = out.incidence
        again = Classification(out.instances, out.types, Relation(*inc.shape, inc.rows))
        assert again == out and hash(again) == hash(out)


def test_lattice_maps_pass_the_constructor():
    """The embeddings of a concept lattice, the maps of its rebuild witness
    and of ``lattice_of_morphism``, the adjoint pair of a bond, and the
    adjoints and adjointness bonds of a complete homomorphism, on a sample
    of the verify corpus up to 3x3."""
    rng = random.Random(38)
    contexts = rng.sample([K for _, K in context_corpus(3, rng)], 40)
    maps, relations = [], []
    for K in contexts:
        L = concept_lattice_of(K)
        h = identity_hom(complete_lattice_of(L))
        for m in (
            lattice_equivalence_witness(L),
            lattice_of_morphism(identity_functional(K)),
            adjoint_of_bond(identity_bond(K)),
        ):
            maps += [m.phi, m.psi]
        maps += [L.iota, L.tau, *canonical_adjoints(h)]
        relations += [h.pair.forward.rel, h.pair.backward.rel]
    for f in maps:
        again = FunctionGraph(f.targets, f.dst_size)
        assert again == f and hash(again) == hash(f)
    for r in relations:
        rebuilt(r)


def test_arrows_stored_by_of_pass_the_constructor():
    """The bonds, bonding pairs and infomorphisms the library stores with
    ``_of``: both bonds of ``embedding_bonds``, the ``pair`` of a complete
    homomorphism and its two bonds, the collective concepts of
    ``collective_from_function`` and of ``collective_transport`` on both
    sides, and the output of ``enumerate_infomorphisms``, on a sample of the
    verify corpus up to 3x3.  Each is rebuilt from its fields."""
    rng = random.Random(38)
    corpus = context_corpus(3, rng)
    contexts = [K for _, K in rng.sample(corpus, 40)]
    built = []
    for K in contexts:
        L = concept_lattice_of(K)
        f = FunctionGraph(tuple(rng.choices(range(L.size), k=3)), L.size)
        F = collective_from_function(L, f)
        built += [
            *embedding_bonds(K),
            F,
            collective_transport(F, rough(rng, 3, 2), "left"),
            collective_transport(F, rough(rng, 2, 3), "right"),
        ]
    for _, h in hom_corpus(corpus, rng):
        built += [h.pair, h.pair.forward, h.pair.backward]
    for A, C in zip(contexts[:20], contexts[20:]):
        built += itertools.islice(enumerate_infomorphisms(A, C), 10)
    for out in built:
        again = type(out)(*(getattr(out, field.name) for field in dataclasses.fields(out)))
        assert again == out and hash(again) == hash(out)
    kinds = {type(out).__name__ for out in built}
    assert kinds == {"Bond", "BondingPair", "FunctionalInfomorphism"}


# each public constructor, on values from outside the library, and the
# message it refuses them with, which is the row's id but for the ragged
# matrix, named by its input; rows and targets that are no tuple of ints are
# in ``test_relalg.py``
REFUSED = [
    (lambda: Relation(-1, 0, ()), "relation sizes must be nonnegative"),
    (lambda: Relation(0, -2, ()), "relation sizes must be nonnegative"),
    (lambda: Relation(2, 2, (1,)), "expected 2 rows, got 1"),
    (lambda: Relation(0, 2, (0,)), "expected 0 rows, got 1"),
    (lambda: Relation(2, 2, (1, 4)), "row 1 has bits outside 0..1"),
    (lambda: Relation(1, 0, (-1,)), "row 0 has bits outside 0..-1"),
    (lambda: Relation.from_pairs(2, 2, [(0, 2)]), "pair (0, 2) out of range 2x2"),
    pytest.param(
        lambda: Relation.from_matrix([[0, 1], [1]]),
        "row 1 must have 2 cells, got 1",
        id="ragged incidence matrix",
    ),
    (lambda: Relation.from_matrix([], -1), "relation sizes must be nonnegative"),
    (lambda: FunctionGraph((), -1), "function sizes must be nonnegative"),
    (lambda: FunctionGraph((0, 2), 2), "target 2 of 1 out of range 0..1"),
    (lambda: FunctionGraph((-1,), 2), "target -1 of 0 out of range 0..1"),
    (lambda: FunctionGraph.from_targets([0, 5], 2), "target 5 of 1 out of range 0..1"),
    (lambda: FunctionGraph.identity(-1), "function sizes must be nonnegative"),
    pytest.param(
        lambda: Classification(("a", "a"), ("t",), Relation(2, 1, (0, 0))),
        "duplicate instance label 'a'",
        id="duplicate instance labels",
    ),
    pytest.param(
        lambda: Classification(("a",), ("t", "t"), Relation(1, 2, (0,))),
        "duplicate type label 't'",
        id="duplicate type labels",
    ),
    (
        lambda: Classification(("a",), ("t",), Relation(1, 2, (0,))),
        "incidence shape (1, 2) does not match 1 instances x 1 types",
    ),
]


@pytest.mark.parametrize("build, message", REFUSED, ids=[row[-1] for row in REFUSED])
def test_public_constructors_still_refuse_bad_values(build, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()
