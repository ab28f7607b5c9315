"""Bounded property tests of the residuation laws the library relies on, on
random shapes up to 7x7x7, 0-sized carriers included (Schmidt & Stroehlein,
*Relations and Graphs*, Springer 1993, ch. 4)."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual.relalg import (
    Relation,
    compose,
    left_residual,
    right_residual,
    subrelation,
    transpose,
    union,
)


def relations(draw, src: int, dst: int) -> Relation:
    """Rows are often empty or full, so residuals over vacuous and total
    quantifiers both come up."""
    full = (1 << dst) - 1
    row = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    return Relation(src, dst, tuple(draw(st.lists(row, min_size=src, max_size=src))))


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
