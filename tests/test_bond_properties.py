"""Bounded property tests of the bond laws, on random contexts up to 7x7
(8x8 for the embedding bonds), 0-sized carriers included (Ganter & Wille, *Formal Concept Analysis*,
Springer 1999, ch. 7; Schmidt & Stroehlein, *Relations and Graphs*,
Springer 1993, ch. 4)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual.bond import (
    Bond,
    bond_of,
    close_to_bond,
    compose_bonds,
    identity_bond,
    infomorphism_of,
    is_bond,
)
from conceptual.classification import Classification
from conceptual.functors import embedding_bonds
from conceptual.infomorphism import RelationalInfomorphism, check_relational
from conceptual.relalg import left_residual, right_residual, subrelation, union

from oracles import embedding_bonds_oracle
from test_relalg_properties import relations

PROPERTY = settings(max_examples=100, deadline=None, database=None)


def context(draw, max_size: int = 7) -> Classification:
    m, n = draw(st.integers(0, max_size)), draw(st.integers(0, max_size))
    inst = tuple(f"i{k}" for k in range(m))
    typ = tuple(f"t{k}" for k in range(n))
    return Classification(inst, typ, relations(draw, m, n))


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
    m = RelationalInfomorphism(
        A, B, right_residual(A.incidence, rel), left_residual(rel, B.incidence), validate=False
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
