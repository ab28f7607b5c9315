"""Bounded property tests of the residuation laws the library relies on, on
random shapes up to 7x7x7, 0-sized carriers included (Schmidt & Stroehlein,
*Relations and Graphs*, Springer 1993, ch. 4), and of each kernel's branches
against the reference loops of ``tests/oracles.py``."""

import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual import relalg
from conceptual.relalg import (
    Relation,
    compose,
    left_residual,
    right_residual,
    subrelation,
    transpose,
    union,
)

from oracles import left_residual_oracle, right_residual_oracle, transpose_oracle


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
# Each kernel picks its branch from the shape and the popcount: transpose tiles
# from a shorter side of 17 (tiles 32 to 128 wide, a wider tile from 65 and 129
# cut into several) and 4/side of the cells set, byte enumeration from 16
# columns and half the row bytes, the right residual's columns from 512 output
# cells.  These shapes sit on both sides of each: 15/16/17, 127/128/129,
# 255/256/257 and 511/512/513 cells, the shorter sides 16/17, 64/65 and
# 128/129, the empty carriers and the long thin shapes.
SHAPES = [
    (0, 9), (9, 0), (1, 300), (300, 1),
    (3, 5), (15, 1), (4, 4), (1, 16), (16, 1), (1, 17), (17, 1),
    (1, 127), (127, 1), (8, 16), (16, 8), (2, 64), (3, 43), (43, 3),
    (15, 17), (17, 15), (5, 51), (16, 16), (2, 128), (128, 2), (1, 257), (257, 1),
    (7, 73), (16, 32), (32, 16), (19, 27), (27, 19),
    (17, 17), (17, 40), (64, 65), (65, 70), (128, 129), (129, 129),
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
    """``r`` takes the threshold shapes, so its columns (16 for byte
    enumeration) and its density straddle the branch; ``t`` has a few
    columns and is sometimes full, whose rows the sweep skips."""
    r = data.draw(shaped())
    t = data.draw(shaped(src=r.src_size, dst=data.draw(st.sampled_from((0, 1, 5, 17)))))
    assert left_residual(r, t) == left_residual_oracle(r, t)


@settings(max_examples=150, deadline=None, database=None)
@given(st.data())
def test_right_residual_is_the_oracle(data):
    """The output ``t.src_size`` x ``s.src_size`` takes the threshold shapes;
    the shared columns run from none to 17, so that the rows of ``s`` are
    read bit by bit below 16 columns and byte by byte, when dense, from 16."""
    m, k = data.draw(st.sampled_from(SHAPES))
    n = data.draw(st.sampled_from((0, 1, 7, 8, 16, 17)))
    t = data.draw(shaped(src=m, dst=n))
    s = data.draw(shaped(src=k, dst=n))
    assert right_residual(t, s) == right_residual_oracle(t, s)


class _Untouched:
    def __getitem__(self, key):
        raise AssertionError("byte enumeration on a sparse relation")


@settings(max_examples=60, deadline=None, database=None)
@given(st.data())
def test_sparse_relations_keep_the_bit_loops(data):
    """Under 1/32 of the cells set, the transpose runs no tiles and the left
    residual enumerates no bytes, which on the sparse order residuals of
    ``lattice`` cost more than the bit loops they replace."""
    m = data.draw(st.integers(16, 200))
    n = data.draw(st.integers(16, 800))
    r = dense_relation(data.draw, m, n, "sparse")
    t = dense_relation(data.draw, m, 3, "half")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(relalg, "_BYTE_BITS", _Untouched())
        patch.setattr(relalg, "_transpose_tiles", None)
        assert left_residual(r, t) == left_residual_oracle(r, t)
        assert transpose(r) == transpose_oracle(r)


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
