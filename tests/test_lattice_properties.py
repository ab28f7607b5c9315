"""Bounded property tests of ``build_lattice`` on random contexts up to 7x7,
against the brute-force closure of every instance subset (the concept set)
and against NextClosure (the lectic order); and of the residual into an
incidence, taken from extents, against the generic kernel."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual.classification import (
    Classification,
    chain_classification,
    contranominal_classification,
    incidence_residual,
)
from conceptual.errors import ShapeError
from conceptual.functors import CompleteLattice, complete_lattice_of
from conceptual.lattice import build_lattice, concept_lattice_of
from conceptual.relalg import Relation, right_residual

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


@st.composite
def dividends(draw) -> tuple[Classification, tuple[int, ...]]:
    """A classification and the principal down-sets of its incidence, if
    any: random contexts up to 7x7 (0xn and nx0 among them), and the order
    classifications of chains of 1..8 elements, of boolean lattices of 1..8
    elements and of concept lattices of contexts up to 3x3."""
    kind = draw(st.sampled_from(("context", "chain", "boolean", "concepts")))
    if kind == "context":
        return draw(contexts()), ()
    if kind == "chain":
        K = chain_classification(draw(st.integers(1, 8)))
        L = CompleteLattice(K.instances, K.incidence)
    elif kind == "boolean":
        L = complete_lattice_of(concept_lattice_of(contranominal_classification(draw(st.integers(0, 3)))))
    else:
        L = complete_lattice_of(concept_lattice_of(draw(contexts(max_size=3))))
    return L.classification, L.down


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_incidence_residual_is_the_kernel(data):
    """0..6 rows, each empty, full, a principal up- or down-set, or random;
    a divisor of the wrong width raises the kernel's ``ShapeError``."""
    K, down = data.draw(dividends())
    n = len(K.types)
    full = (1 << n) - 1
    principal = [st.sampled_from(sets) for sets in (K.rows, down) if sets]
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full), *principal)
    rows = data.draw(st.lists(row, max_size=6))
    s = Relation(len(rows), n, tuple(rows))
    assert incidence_residual(K, s) == right_residual(K.incidence, s)
    wrong = Relation.empty(len(rows), n + 1)
    with pytest.raises(ShapeError) as by_extents:
        incidence_residual(K, wrong)
    with pytest.raises(ShapeError) as by_kernel:
        right_residual(K.incidence, wrong)
    assert str(by_extents.value) == str(by_kernel.value)
