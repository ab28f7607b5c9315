"""Bounded property tests of a function's fibers, the inverse images read
from them and the adjointness equation built on them, on random shapes up to
7 -> 7, 0-sized domains and codomains included."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual.classification import Classification
from conceptual.infomorphism import FunctionalInfomorphism, check_functional
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    adjoint_failure,
    compose,
    first_difference,
    transpose,
)

from conftest import order_from_covers
from test_relalg_properties import relations


@st.composite
def functions(draw, max_size: int = 7):
    """A function ``range(src) -> range(dst)``; a nonempty domain needs a
    nonempty codomain."""
    dst = draw(st.integers(0, max_size))
    src = draw(st.integers(0, max_size)) if dst else 0
    return FunctionGraph(tuple(draw(st.integers(0, dst - 1)) for _ in range(src)), dst)


def preimage(f: FunctionGraph, mask: int) -> int:
    """``{a : f(a) in mask}``, by definition."""
    return sum(1 << a for a in range(f.src_size) if mask >> f(a) & 1)


@settings(max_examples=100, deadline=None, database=None)
@given(st.data())
def test_fibers_and_batch_preimages_follow_the_definition(data):
    f = data.draw(functions())
    masks = relations(data.draw, data.draw(st.integers(0, 7)), f.dst_size)
    assert f.fibers == tuple(preimage(f, 1 << b) for b in range(f.dst_size))
    assert f.fibers == transpose(f.rel).rows
    expected = tuple(preimage(f, mask) for mask in masks.rows)
    assert f.preimages(masks.rows) == expected
    assert compose(masks, transpose(f.rel)).rows == expected
    assert tuple(f.preimages((mask,))[0] for mask in masks.rows) == expected


@st.composite
def orders_and_maps(draw, max_size: int = 7):
    """A partial order on ``K`` (the closure of random pairs ``i < j``) and a
    map ``psi`` into it."""
    k = draw(st.integers(0, max_size))
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    chosen = draw(st.integers(0, (1 << len(pairs)) - 1))
    leq = order_from_covers(k, [p for n, p in enumerate(pairs) if chosen >> n & 1])
    l = draw(st.integers(0, max_size)) if k else 0
    psi = FunctionGraph(tuple(draw(st.integers(0, k - 1)) for _ in range(l)), k)
    return leq, psi


@settings(max_examples=100, deadline=None, database=None)
@given(orders_and_maps())
def test_composite_rows_are_inverse_images_of_up_sets(leq_psi):
    leq, psi = leq_psi
    rows = compose(leq, transpose(psi.rel)).rows
    assert psi.preimages(leq.rows) == rows
    for y in range(leq.src_size):
        up = sum(1 << z for z in range(leq.dst_size) if leq.bit(y, z))
        assert rows[y] == preimage(psi, up)


def labelled(instance: str, type_: str, incidence: Relation) -> Classification:
    """Instances ``instance0, ...`` and types ``type_0, ...``."""
    m, n = incidence.shape
    return Classification(
        tuple(f"{instance}{k}" for k in range(m)), tuple(f"{type_}{k}" for k in range(n)), incidence
    )


@st.composite
def candidate_infomorphisms(draw, max_size: int = 6):
    """Unchecked ``f: B's instances -> A's`` and ``g: A's types -> B's``
    between random classifications.  Half the time each ``b`` carries
    ``g(t)`` exactly when ``f(b)`` carries ``t``, the last such ``t``
    winning, so the property holds unless ``g`` merges types that ``f(b)``
    tells apart."""
    f = draw(functions(max_size))
    g = draw(functions(max_size))
    IA = relations(draw, f.dst_size, g.src_size)
    IB = relations(draw, f.src_size, g.dst_size)
    rows = list(IB.rows)
    if draw(st.booleans()):
        for b in range(f.src_size):
            for t in range(g.src_size):
                rows[b] &= ~(1 << g(t))
                rows[b] |= (IA.rows[f(b)] >> t & 1) << g(t)
    A = labelled("a", "t", IA)
    B = labelled("b", "u", Relation(f.src_size, g.dst_size, tuple(rows)))
    return FunctionalInfomorphism(A, B, f, g, validate=False)


@settings(max_examples=150, deadline=None, database=None)
@given(candidate_infomorphisms())
def test_fundamental_property_is_the_adjointness_equation(m):
    """``check_functional`` and ``adjoint_failure`` on the incidences agree
    with the composite form ``compose(f, I_A) == compose(I_B, g^T)``: the
    verdict, and the first differing (target instance, source type)."""
    lhs = compose(m.f.rel, m.source.incidence)
    rhs = compose(m.target.incidence, transpose(m.g.rel))
    expected = first_difference(lhs.rows, rhs.rows)
    assert adjoint_failure(m.source.rows, m.target.rows, m.f.targets, m.g) == expected
    verdict = check_functional(m)
    assert bool(verdict) == (expected is None)
    if expected is not None:
        b, t = expected
        assert verdict.witness == (m.target.instances[b], m.source.types[t])
