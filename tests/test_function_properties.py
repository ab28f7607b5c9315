"""Bounded property tests of a function's fibers and the inverse images read
from them, on random shapes up to 7 -> 7, 0-sized domains and codomains
included."""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual.relalg import FunctionGraph, compose, transpose

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
    assert tuple(map(f.inverse_image, masks.rows)) == expected


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
