"""Bounded property tests of ``build_lattice`` on random contexts up to 7x7,
against the brute-force closure of every instance subset (the concept set)
and against NextClosure (the lectic order); of its pruned walk against
NextClosure and the unpruned FCbO walk, on tall sparse contexts up to
40x12, contexts with empty columns or carriers, and order classifications;
of the derived embeddings against the Basic Theorem on coin-cell contexts
up to 6x6; and of ``right_residual`` against its oracle, on incidences,
orders and relations that are neither."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from conceptual.bond import close_to_bond, collective_from_function
from conceptual.classification import (
    Classification,
    chain_classification,
    contranominal_classification,
)
from conceptual.errors import ShapeError
from conceptual.functors import CompleteLattice, complete_lattice_of
from conceptual.lattice import ConceptLattice, build_lattice, concept_lattice_of
from conceptual.relalg import FunctionGraph, Relation, right_residual

from conftest import PRUNED_BOTTOM
from test_bond_properties import context
from oracles import (
    closed_pairs_oracle,
    concept_set,
    embeddings_oracle,
    fcbo_oracle,
    next_closure_oracle,
    right_residual_oracle,
)


@st.composite
def contexts(draw, max_size: int = 7) -> Classification:
    """Carriers of 0..max_size elements; rows are often empty, and a drawn
    column mask empties whole columns."""
    m = draw(st.integers(0, max_size))
    n = draw(st.integers(0, max_size))
    full = (1 << n) - 1
    kept_columns = draw(st.one_of(st.just(full), st.integers(0, full)))
    row = st.one_of(st.just(0), st.integers(0, full))
    rows = tuple(r & kept_columns for r in draw(st.lists(row, min_size=m, max_size=m)))
    return Classification(
        tuple(f"i{k}" for k in range(m)),
        tuple(f"t{k}" for k in range(n)),
        Relation(m, n, rows),
    )


@settings(max_examples=200, deadline=None, database=None)
@given(contexts())
def test_build_lattice_matches_oracles(K):
    L = build_lattice(K)
    assert concept_set(L) == closed_pairs_oracle(K)
    assert [(c.extent, c.intent) for c in L.concepts] == next_closure_oracle(K)


@settings(max_examples=200, deadline=None, database=None)
@given(st.composite(context)(6), st.randoms(use_true_random=False))
@example(
    complete_lattice_of(concept_lattice_of(contranominal_classification(5))).classification,
    random.Random(0),
)
def test_embeddings_are_the_basic_theorems(K, rnd):
    """``iota`` and ``tau``, derived through ``intent_index`` and
    ``extent_index``, are the oracle's meets of extents and of intents, on
    the built concepts and on the same concepts in a shuffled order; the
    pinned example is the order classification of 2^5."""
    L = build_lattice(K)
    assert (L.iota, L.tau) == embeddings_oracle(L)
    shuffled = list(L.concepts)
    rnd.shuffle(shuffled)
    S = ConceptLattice(tuple(shuffled), K)
    assert (S.iota, S.tau) == embeddings_oracle(S)


@st.composite
def tall_sparse_contexts(draw) -> Classification:
    """Up to 40 x 12, each row with 0-2 crosses: the extents are small beside
    the free types, so the walk skips the children they cannot reach."""
    m = draw(st.integers(0, 40))
    n = draw(st.integers(0, 12))
    crosses = st.sets(st.integers(0, n - 1), max_size=2) if n else st.just(set())
    rows = tuple(sum(1 << t for t in draw(crosses)) for _ in range(m))
    return Classification(
        tuple(f"i{k}" for k in range(m)),
        tuple(f"t{k}" for k in range(n)),
        Relation(m, n, rows),
    )


@st.composite
def order_classifications(draw) -> Classification:
    """A lattice classified by its own order: a chain of 1..64 elements,
    the boolean lattice of 1..128 elements, or the concept lattice of a
    context up to 3x3.  The walk reads chains of 21 elements and more, and
    boolean lattices from 2^5 up, by bytes."""
    kind = draw(st.sampled_from(("chain", "boolean", "concepts")))
    if kind == "chain":
        return chain_classification(draw(st.integers(1, 64)))
    if kind == "boolean":
        K = contranominal_classification(draw(st.integers(0, 7)))
    else:
        K = draw(contexts(max_size=3))
    return complete_lattice_of(concept_lattice_of(K)).classification


@settings(max_examples=300, deadline=None, database=None)
@given(st.one_of(tall_sparse_contexts(), contexts(), order_classifications()))
@example(PRUNED_BOTTOM)
def test_pruned_walk_matches_both_walks(K):
    """The walk that skips the children its extent cannot reach keeps the
    concepts and their lectic order of NextClosure and of the FCbO walk
    that tests every free type.  The pinned example reaches its bottom
    concept only through the lowest type missing from an intent."""
    L = build_lattice(K)
    assert [(c.extent, c.intent) for c in L.concepts] == next_closure_oracle(K)
    assert L == fcbo_oracle(K)


@st.composite
def dividends(draw) -> tuple[Relation, tuple[int, ...]]:
    """A dividend and the principal down-sets of it, if it is an order: the
    incidences of random contexts up to 7x7 (0xn and nx0 among them); the
    order classifications of chains of 1..8 elements, of boolean lattices
    of 1..8 elements and of concept lattices of contexts up to 3x3; and two
    relations that are no incidence, the least bond above a random relation
    between contexts up to 4x4, and the instance relation ``a``, the bond's
    view ``r``, of the collective concept of a random function into a
    concept lattice."""
    kinds = ("context", "chain", "boolean", "concepts", "bond", "collective")
    kind = draw(st.sampled_from(kinds))
    if kind == "context":
        return draw(contexts()).incidence, ()
    if kind == "bond":
        A, B = draw(contexts(max_size=4)), draw(contexts(max_size=4))
        row = st.integers(0, (1 << len(A.types)) - 1)
        rows = draw(st.lists(row, min_size=len(B.instances), max_size=len(B.instances)))
        return close_to_bond(A, B, Relation(len(B.instances), len(A.types), tuple(rows))), ()
    if kind == "collective":
        K = draw(contexts(max_size=4))
        L = concept_lattice_of(K)
        targets = draw(st.lists(st.integers(0, L.size - 1), max_size=4))
        return collective_from_function(L, FunctionGraph(tuple(targets), L.size)).r, ()
    if kind == "chain":
        K = chain_classification(draw(st.integers(1, 8)))
        L = CompleteLattice(K.instances, K.incidence)
    elif kind == "boolean":
        K = contranominal_classification(draw(st.integers(0, 3)))
        L = complete_lattice_of(concept_lattice_of(K))
    else:
        L = complete_lattice_of(concept_lattice_of(draw(contexts(max_size=3))))
    return L.classification.incidence, L.extents


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_right_residual_is_the_oracle(data):
    """0..6 divisor rows, each empty, full, a row of the dividend (a
    principal up-set of an order), a principal down-set or random; a
    divisor of the wrong width raises ``right_residual``'s ``ShapeError``."""
    t, down = data.draw(dividends())
    n = t.dst_size
    full = (1 << n) - 1
    principal = [st.sampled_from(sets) for sets in (t.rows, down) if sets]
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full), *principal)
    rows = data.draw(st.lists(row, max_size=6))
    s = Relation(len(rows), n, tuple(rows))
    assert right_residual(t, s) == right_residual_oracle(t, s)
    wrong = Relation.empty(len(rows), n + 1)
    with pytest.raises(ShapeError) as e:
        right_residual(t, wrong)
    assert str(e.value) == f"right_residual: incompatible shapes {t.shape} and {wrong.shape}"
