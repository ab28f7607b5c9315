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
