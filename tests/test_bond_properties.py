"""Bounded property tests of the bond laws, on random contexts up to 7x7
(8x8 for the embedding bonds), 0-sized carriers included (Ganter & Wille, *Formal Concept Analysis*,
Springer 1999, ch. 7; Schmidt & Stroehlein, *Relations and Graphs*,
Springer 1993, ch. 4); and of collective concepts as bonds into their
index scales, against the pair formulas they replaced, on contexts up to
4x4 and index sets up to 3.  The order bond and pairing checks are also
compared with ``is_bond`` and ``is_bonding_pair`` on the bonding
benchmark's boolean homs."""

import itertools
import random

from hypothesis_or_skip import given, settings, st

from conceptual import functors
from conceptual.bond import (
    Bond,
    bond_of,
    close_to_bond,
    collective_from_function,
    collective_transport,
    compose_bonds,
    identity_bond,
    identity_bonding_pair,
    infomorphism_of,
    is_bond,
    is_bonding_pair,
    mediating_function,
)
from conceptual.classification import Classification, contranominal_classification
from conceptual.functors import (
    CompleteHomomorphism,
    complete_lattice_of,
    embedding_bonding_pairs,
    embedding_bonds,
    hom_of_pair,
    identity_hom,
    is_complete_homomorphism,
    pair_of_hom,
)
from conceptual.infomorphism import RelationalInfomorphism, check_relational
from conceptual.lattice import concept_lattice_of
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    left_residual,
    right_residual,
    subrelation,
    union,
)

from conftest import boolean_hom
from oracles import (
    collective_closed_oracle,
    collective_from_function_oracle,
    collective_image_oracle,
    collective_transport_oracle,
    embedding_bonds_oracle,
)
from test_relalg_properties import relations

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def context(draw, max_size: int = 7, min_size: int = 0) -> Classification:
    """A context of ``min_size`` to ``max_size`` instances and types, each
    cell a drawn coin, so its lattice is seldom a chain of two."""
    m, n = (draw(st.integers(min_size, max_size)) for _ in range(2))
    cells = draw(st.lists(st.booleans(), min_size=m * n, max_size=m * n))
    rows = tuple(sum(cells[a * n + t] << t for t in range(n)) for a in range(m))
    return Classification(
        tuple(f"i{k}" for k in range(m)), tuple(f"t{k}" for k in range(n)), Relation(m, n, rows)
    )


def bond(draw, A: Classification, B: Classification) -> Bond:
    """The least bond above a drawn relation."""
    return Bond(A, B, close_to_bond(A, B, relations(draw, len(B.instances), len(A.types))))


@st.composite
def bond_chains(draw):
    """Three composable bonds ``A -> B -> C -> D``."""
    A, B, C, D = (context(draw) for _ in range(4))
    return bond(draw, A, B), bond(draw, B, C), bond(draw, C, D)


@PROPERTY
@given(bond_chains())
def test_composition_is_associative_with_identity_units(chain):
    F, G, H = chain
    assert compose_bonds(compose_bonds(F, G), H) == compose_bonds(F, compose_bonds(G, H))
    assert compose_bonds(identity_bond(F.source), F) == F
    assert compose_bonds(F, identity_bond(F.target)) == F


@st.composite
def bonds(draw):
    return bond(draw, context(draw), context(draw))


@PROPERTY
@given(bonds())
def test_bond_of_canonical_infomorphism(F):
    assert bond_of(infomorphism_of(F)) == F


@st.composite
def candidates(draw):
    """Two contexts and a relation between them; half the time closed to a
    bond, so both verdicts are met."""
    A, B = context(draw), context(draw)
    rel = relations(draw, len(B.instances), len(A.types))
    if draw(st.booleans()):
        rel = close_to_bond(A, B, rel)
    return A, B, rel


@PROPERTY
@given(candidates())
def test_bond_iff_residual_infomorphism(candidate):
    # rel is a bond iff (I_A/rel, rel\I_B) is a relational infomorphism whose
    # common residual is rel
    A, B, rel = candidate
    m = RelationalInfomorphism._of(
        A, B, right_residual(A.incidence, rel), left_residual(rel, B.incidence)
    )
    holds = bool(check_relational(m)) and left_residual(m.r, A.incidence) == rel
    assert bool(is_bond(A, B, rel)) == holds


@st.composite
def closure_inputs(draw, max_size: int = 7):
    """An incidence ``I: m x n`` and two relations ``m x k``."""
    m, n, k = (draw(st.integers(0, max_size)) for _ in range(3))
    return relations(draw, m, n), relations(draw, m, k), relations(draw, m, k)


@PROPERTY
@given(closure_inputs())
def test_column_closure_is_a_closure(inputs):
    # X -> I/(X\I) closes each column of X to an extent: extensive,
    # monotone and idempotent
    I, X, Z = inputs

    def close(R):
        return right_residual(I, left_residual(R, I))

    closed = close(X)
    assert subrelation(X, closed)
    assert subrelation(closed, close(union(X, Z)))
    assert close(closed) == closed


@st.composite
def contexts_up_to_8x8(draw):
    return context(draw, 8)


@PROPERTY
@given(contexts_up_to_8x8())
def test_embedding_bonds_are_the_oracles(A):
    # checked by the derivation identities, the pair is the one the oracle
    # validates bond by bond, and each bond passes is_bond on its own
    got = embedding_bonds(A)
    assert got == embedding_bonds_oracle(A)
    for F in got:
        assert is_bond(F.source, F.target, F.rel)


@st.composite
def complete_homs(draw):
    """A complete homomorphism between lattices of drawn contexts up to 4x4:
    the identity of the first; the isomorphism of one of its embedding
    pairs; a split of the first at an element ``a``, sent to the top of the
    second at and above ``a`` and to its bottom elsewhere, drawn among the
    splits that are complete homomorphisms; or a boolean hom 2^a -> 2^b,
    ``a`` up to 4."""
    A, B = (context(draw, 4, min_size=1) for _ in range(2))
    L, K = (complete_lattice_of(concept_lattice_of(C)) for C in (A, B))
    kind = draw(st.sampled_from(("split", "boolean", "embedding", "identity")))
    if kind == "embedding":
        return hom_of_pair(embedding_bonding_pairs(A)[draw(st.integers(0, 1))])
    if kind == "boolean":
        a = draw(st.integers(0, 4))
        f = draw(st.permutations(range(a)))[: draw(st.integers(0, a))]
        return boolean_hom(a, len(f), tuple(f))
    splits = [
        psi
        for psi in (
            FunctionGraph(tuple(K.top if up >> x & 1 else K.bottom for x in range(L.size)), K.size)
            for up in L.intents
        )
        if is_complete_homomorphism(L, K, psi)
    ]
    if kind == "split" and splits:
        return CompleteHomomorphism(L, K, draw(st.sampled_from(splits)))
    return identity_hom(L)


# the boolean homs 2^a -> 2^b of the bonding benchmark
BOOLEAN_HOMS = [(6, 4), (6, 6), (7, 5), (7, 7)]


def order_checks_agree(L, K, p, variants) -> None:
    """For each bond of ``p``, a pair between the lattices ``L`` and ``K``,
    and each relation ``variants(rel, src)`` gives for its relation and its
    source lattice: the order bond check is ``is_bond``, by verdict, reason
    and witness, and where the relation is a bond, the index pairing check
    of ``p`` with it in place of that bond has the verdict of
    ``is_bonding_pair``."""
    for bond, (src, tgt) in ((p.forward, (L, K)), (p.backward, (K, L))):
        for rel in variants(bond.rel, src):
            got = functors._order_bond_check(src, tgt, rel)
            assert got == is_bond(src.classification, tgt.classification, rel)
            if got:
                other = Bond._of(src.classification, tgt.classification, rel)
                F, G = (other, p.backward) if bond is p.forward else (p.forward, other)
                verdict = functors._order_pairing_check(L, K, F, G)
                assert bool(verdict) == bool(is_bonding_pair(F, G))


@PROPERTY
@given(complete_homs())
def test_order_checks_are_is_bond_and_is_bonding_pair(h):
    # the rebuilt pair, and every one-cell flip of either of its bonds
    p = pair_of_hom(h)
    L, K = h.source, h.target
    assert functors._order_pairing_check(L, K, p.forward, p.backward)
    assert is_bonding_pair(p.forward, p.backward)

    def flips(rel: Relation, src) -> list[Relation]:
        rows = rel.rows
        return [rel] + [
            Relation(rel.src_size, rel.dst_size, rows[:y] + (rows[y] ^ 1 << x,) + rows[y + 1 :])
            for y, x in itertools.product(range(rel.src_size), range(src.size))
        ]

    order_checks_agree(L, K, p, flips)


def test_order_checks_on_the_bonding_benchmarks_boolean_homs():
    """The pairs of the bonding benchmark's boolean homs along seeded
    injections.  Each bond with eight seeded one-cell flips, which mostly
    fail at a row, and eight seeded rows each set to a principal filter,
    which keep every row closed and so reach the column check; and the
    bonds of each pair with those of the same hom along other injections,
    which are bonds but do not pair with them."""
    rng = random.Random(29)

    def pairs(seed: int) -> list:
        draw = random.Random(seed)
        homs = [boolean_hom(a, b, tuple(draw.sample(range(a), b))) for a, b in BOOLEAN_HOMS]
        return [(h.source, h.target, pair_of_hom(h)) for h in homs]

    def variants(rel: Relation, src) -> list[Relation]:
        out = [rel]
        for value in (
            lambda y: rel.rows[y] ^ 1 << rng.randrange(rel.dst_size),
            lambda y: src.intents[rng.randrange(src.size)],
        ):
            for _ in range(8):
                y = rng.randrange(rel.src_size)
                rows = rel.rows[:y] + (value(y),) + rel.rows[y + 1 :]
                out.append(Relation(rel.src_size, rel.dst_size, rows))
        return out

    for (L, K, p), (_, _, q) in zip(pairs(29), pairs(30)):
        for F, G in ((p.forward, q.backward), (q.forward, p.backward)):
            assert bool(functors._order_pairing_check(L, K, F, G)) == bool(is_bonding_pair(F, G))
        order_checks_agree(L, K, p, variants)


@st.composite
def collective_inputs(draw):
    """A bonding pair ``p`` out of a context up to 4x4 (its identity or an
    embedding pair) or between the lattices of two such contexts (the pair
    of a drawn complete homomorphism); two functions ``f`` and ``g`` from up
    to 3 indices into the concept lattice of ``p.source``; an index
    relation ``r`` from the indices of ``f`` to those of ``g``; and a drawn
    pair ``(a, alpha)`` of ``p.source``, half the time with ``a == I/alpha``."""
    A = context(draw, 4)
    kind = draw(st.sampled_from(("identity", "embedding", "hom")))
    if kind == "identity":
        p = identity_bonding_pair(A)
    elif kind == "embedding":
        p = embedding_bonding_pairs(A)[draw(st.integers(0, 1))]
    else:
        p = pair_of_hom(draw(complete_homs()))
    K = p.source
    size = concept_lattice_of(K).size
    f, g = (
        FunctionGraph(tuple(draw(st.integers(0, size - 1)) for _ in range(k)), size)
        for k in (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
    )
    r = relations(draw, f.src_size, g.src_size)
    n = draw(st.integers(0, 3))
    alpha = relations(draw, n, len(K.types))
    if draw(st.booleans()):
        a = right_residual(K.incidence, alpha)
    else:
        a = relations(draw, len(K.instances), n)
    return p, f, g, r, (a, alpha)


@PROPERTY
@given(collective_inputs())
def test_collective_bonds_are_the_pair_formulas(inputs):
    # a collective concept (a, alpha) is the bond alpha into its index
    # scale, with view r the a: closedness, the concept of a function, both
    # transports and the image along a bonding pair are the pair formulas,
    # the transports are adjoint under the order of the r, and the mediating
    # function reads the function back
    p, f, g, r, (a, alpha) = inputs
    K = p.source
    L = concept_lattice_of(K)
    scale = contranominal_classification(alpha.src_size)
    closed = bool(is_bond(K, scale, alpha)) and Bond._of(K, scale, alpha).r == a
    assert closed == collective_closed_oracle(K, a, alpha)
    F, G = collective_from_function(L, f), collective_from_function(L, g)
    for H, h in ((F, f), (G, g)):
        assert collective_closed_oracle(K, H.r, H.rel)
        assert (H.r, H.rel) == collective_from_function_oracle(L, h)
        assert mediating_function(H) == h
    left = collective_transport(F, r, "left")
    right = collective_transport(G, r, "right")
    assert (left.r, left.rel) == collective_transport_oracle(K, r, F.r, F.rel, "left")
    assert (right.r, right.rel) == collective_transport_oracle(K, r, G.r, G.rel, "right")
    assert subrelation(left.r, G.r) == subrelation(F.r, right.r)
    image = compose_bonds(p.backward, F)
    assert (image.r, image.rel) == collective_image_oracle(p, F.r, F.rel)
