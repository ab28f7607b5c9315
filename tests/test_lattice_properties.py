"""Bounded property tests of ``build_lattice`` on random contexts up to 7x7,
against the brute-force closure of every instance subset (the concept set)
and against NextClosure (the lectic order)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual.classification import Classification
from conceptual.lattice import build_lattice
from conceptual.relalg import Relation

from oracles import closed_pairs_oracle, concept_set, next_closure_oracle


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
