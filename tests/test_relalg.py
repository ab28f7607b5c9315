import dataclasses
import functools
import json
import random
import re

import pytest

from conceptual import relalg
from conceptual.errors import ShapeError, ValidationError, quote
from conceptual.relalg import (
    FunctionGraph,
    view,
    Relation,
    complement,
    compose,
    first_difference,
    identity,
    left_residual,
    right_residual,
    subrelation,
    transpose,
    union,
)

from oracles import (
    best_left_residual,
    best_right_residual,
    branches,
    compose_oracle,
    enumerate_relations,
    left_residual_oracle,
    matrix_oracle,
    preimages_oracle,
    random_relation,
    right_residual_oracle,
    right_residual_scatter_oracle,
    transpose_oracle,
)

M = Relation.from_matrix


def random_shapes(rng, count, max_size=6):
    for _ in range(count):
        yield rng.randint(0, max_size), rng.randint(0, max_size), rng.randint(0, max_size)


class TestCompose:
    def test_identity_is_left_unit(self):
        r = M([[1, 0], [1, 1]])
        assert compose(identity(2), r) == r

    def test_frozen_example_matches_oracle(self):
        r = M([[1, 1], [0, 1]])
        s = M([[1, 0], [1, 1]])
        expected = M([[1, 1], [1, 1]])
        assert compose(r, s) == expected
        assert compose_oracle(r, s) == expected

    def test_empty_relation_annihilates(self):
        empty = Relation.empty(2, 2)
        for s in enumerate_relations(2, 2):
            assert compose(empty, s) == empty

    def test_matches_oracle_on_random_shapes(self, rng):
        for a, b, c in random_shapes(rng, 40):
            r = random_relation(rng, a, b)
            s = random_relation(rng, b, c)
            assert compose(r, s) == compose_oracle(r, s)

    def test_associative(self, rng):
        for a, b, c in random_shapes(rng, 25, max_size=5):
            d = rng.randint(0, 5)
            r = random_relation(rng, a, b)
            s = random_relation(rng, b, c)
            t = random_relation(rng, c, d)
            assert compose(compose(r, s), t) == compose(r, compose(s, t))

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            compose(Relation.empty(2, 3), Relation.empty(2, 2))


class TestFirstDifference:
    def test_matches_row_major_search(self, rng):
        for _ in range(300):
            n, width = rng.randint(0, 6), rng.randint(1, 6)
            xs = [rng.getrandbits(width) for _ in range(n)]
            # flip a few random bits, sometimes none
            ys = list(xs)
            for _ in range(rng.randint(0, 3)):
                if n:
                    ys[rng.randrange(n)] ^= 1 << rng.randrange(width)
            cells = [
                (a, b) for a in range(n) for b in range(width) if (xs[a] ^ ys[a]) >> b & 1
            ]
            assert first_difference(xs, ys) == (cells[0] if cells else None)

    def test_stops_at_the_first_difference(self):
        consumed = []

        def rows():
            for row in (0b10, 0b11, 0b00):
                consumed.append(row)
                yield row

        assert first_difference(rows(), [0b10, 0b01, 0b01]) == (1, 1)
        assert consumed == [0b10, 0b11]


class TestIdentityTransposeComplement:
    def test_identity_en_zero_and_two(self):
        assert identity(0) == Relation(0, 0, ())
        assert identity(2) == M([[1, 0], [0, 1]])

    def test_identity_is_right_unit(self, rng):
        for _ in range(10):
            r = random_relation(rng, 3, rng.randint(0, 4))
            assert compose(identity(3), r) == r

    def test_transpose_involution(self, rng):
        for a, b, _ in random_shapes(rng, 20):
            r = random_relation(rng, a, b)
            assert transpose(transpose(r)) == r

    def test_transpose_tiles_stay_bounded(self, rng):
        """A 1500 x 715 transpose runs in tiles of at most 128 x 128, so the
        cached delta-swap masks stay at a few kilobytes."""
        r = Relation(1500, 715, tuple(rng.getrandbits(715) for _ in range(1500)))
        assert transpose(r) == transpose_oracle(r)
        assert relalg._SWAP_MASKS and max(relalg._SWAP_MASKS) <= 128

    @pytest.mark.parametrize(
        "m, n", [(33, 40), (40, 33), (129, 200), (200, 129), (1, 300), (300, 1), (0, 300), (300, 0)]
    )
    def test_transpose_tiles_overhang_the_last_rows_and_columns(self, m, n, rng):
        """With every tile side, a last strip of rows or a last tile of
        columns that is one past a whole tile, or cut short, and a relation
        with no rows or no columns, transposes as the cell loop does."""
        r = Relation(m, n, tuple(rng.getrandbits(n) for _ in range(m)))
        for side in (8, 16, 32, 64, 128):
            assert tuple(relalg._transpose_tiles(r.rows, m, n, side)) == transpose_oracle(r).rows

    @pytest.mark.parametrize("tiles", [True, False])
    def test_transpose_keeps_its_input_rows_as_its_columns(self, tiles, monkeypatch):
        """On the tile branch (40 x 40, half the cells) and on the bit loop
        (40 x 40, one cell per row), the converse stores ``r``'s rows as its
        ``columns`` view, so reading that view transposes nothing."""
        half = tuple(0x5555555555 >> a % 2 for a in range(40))
        sparse = tuple(1 << 7 * a % 40 for a in range(40))
        r = Relation(40, 40, half if tiles else sparse)
        ran = []
        original = relalg._transpose_tiles
        monkeypatch.setattr(relalg, "_transpose_tiles", lambda *a: ran.append(1) or original(*a))
        t = transpose(r)
        assert bool(ran) is tiles
        monkeypatch.setattr(relalg, "transpose", None)
        assert t.columns is r.rows
        assert t == transpose_oracle(r)

    def test_transpose_example(self):
        assert transpose(M([[1, 1], [0, 1]])) == M([[1, 0], [1, 1]])

    def test_transpose_fixes_identity(self):
        for n in range(5):
            assert transpose(identity(n)) == identity(n)

    def test_transpose_reverses_composition(self, rng):
        for a, b, c in random_shapes(rng, 20, max_size=5):
            r = random_relation(rng, a, b)
            s = random_relation(rng, b, c)
            assert transpose(compose(r, s)) == compose(transpose(s), transpose(r))

    def test_complement(self):
        assert complement(Relation.empty(2, 2)) == Relation.full(2, 2)
        assert complement(M([[1, 0]])) == M([[0, 1]])

    def test_complement_involution(self, rng):
        for a, b, _ in random_shapes(rng, 15):
            r = random_relation(rng, a, b)
            assert complement(complement(r)) == r


class TestResiduals:
    def test_left_residual_identity_law(self, rng):
        for _ in range(10):
            t = random_relation(rng, 3, rng.randint(0, 4))
            assert left_residual(identity(3), t) == t

    def test_left_residual_frozen_example(self):
        r = M([[1], [1]])
        t = M([[1, 0], [0, 1]])
        expected = M([[0, 0]])
        assert left_residual(r, t) == expected
        assert left_residual_oracle(r, t) == expected

    def test_left_residual_is_largest_solution(self):
        # exhaustive maximality over all 16 candidate factors at 2x2
        for r in enumerate_relations(2, 2):
            for t in enumerate_relations(2, 2):
                assert left_residual(r, t) == best_left_residual(r, t)

    def test_right_residual_identity_law(self, rng):
        for _ in range(10):
            t = random_relation(rng, rng.randint(0, 4), 3)
            assert right_residual(t, identity(3)) == t

    def test_right_residual_frozen_example(self):
        t = M([[1, 0], [0, 1]])
        s = M([[1, 1]])
        expected = M([[0], [0]])
        assert right_residual(t, s) == expected
        assert right_residual_oracle(t, s) == expected

    def test_right_residual_is_largest_solution(self):
        for t in enumerate_relations(2, 2):
            for s in enumerate_relations(2, 2):
                assert right_residual(t, s) == best_right_residual(t, s)

    def test_residuals_match_oracle_on_random_shapes(self, rng):
        for a, b, c in random_shapes(rng, 40):
            r = random_relation(rng, a, b)
            t = random_relation(rng, a, c)
            assert left_residual(r, t) == left_residual_oracle(r, t)
            u = random_relation(rng, b, c)
            v = random_relation(rng, a, c)
            assert right_residual(v, u) == right_residual_oracle(v, u)

    def test_transpose_dualizes_residuation_on_3x3(self, rng):
        for _ in range(60):
            r = random_relation(rng, 3, 3)
            t = random_relation(rng, 3, 3)
            assert transpose(left_residual(r, t)) == right_residual(
                transpose(t), transpose(r)
            )
            assert transpose(right_residual(t, r)) == left_residual(
                transpose(r), transpose(t)
            )

    def test_vacuous_quantifiers_yield_full(self):
        # no source instances: both residuals are full relations
        r = Relation.empty(0, 2)
        t = Relation.empty(0, 3)
        assert left_residual(r, t) == Relation.full(2, 3)
        assert right_residual(Relation.empty(2, 0), Relation.empty(3, 0)) == Relation.full(2, 3)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            left_residual(Relation.empty(2, 2), Relation.empty(3, 2))
        with pytest.raises(ShapeError):
            right_residual(Relation.empty(2, 2), Relation.empty(2, 3))

    def test_complement_tables_run_where_they_count_fewer_steps(self, monkeypatch):
        """The tables run exactly where ``relalg.branch`` counts fewest
        steps for them: a short ``t`` against a long, half-full ``s`` over a
        narrow side; not for a sparse ``s``, a side wide enough that the
        tables outweigh the output, or an output small enough for the
        per-cell tests."""
        rng = random.Random(27)

        def half(src, dst):
            return Relation(src, dst, tuple(rng.getrandbits(dst) for _ in range(src)))

        calls = []
        original = relalg._complement_tables
        monkeypatch.setattr(
            relalg, "_complement_tables", lambda t, s: calls.append(1) or original(t, s)
        )
        cases = [
            (half(40, 20), half(300, 20), True),
            (half(90, 70), Relation(90, 70, tuple(1 << a % 70 for a in range(90))), False),
            (half(300, 300), half(40, 300), False),
            (half(8, 20), half(8, 20), False),
        ]
        for t, s, tables in cases:
            calls.clear()
            got = right_residual(t, s)
            assert calls == ([1] if tables else [])
            kind = relalg.branch("right_residual", s.rows, s.dst_size, t.src_size)
            assert (kind == "tables") == tables
            assert got == right_residual_scatter_oracle(t, s)


def _dense(rng, m, n, bits_per_row):
    """``m`` x ``n`` with ``bits_per_row`` set bits in each row."""
    return Relation(m, n, tuple(sum(1 << b for b in rng.sample(range(n), bits_per_row))
                                for _ in range(m)))


def _branch_cases():
    """``(kernel, branch, args, run)``: for each branch of each kernel, an
    input on which ``relalg.branch(kernel, *args)`` picks that branch, and
    ``run``, which gives the kernel's result on it and its oracle's."""
    rng = random.Random(31)
    thin, square, sparse = _dense(rng, 7, 40, 20), _dense(rng, 64, 64, 32), _dense(rng, 100, 100, 1)
    full4 = Relation.full(30, 4)
    t300, s_half = _dense(rng, 300, 300, 150), _dense(rng, 40, 300, 150)
    t40, s_long, small = _dense(rng, 40, 20, 10), _dense(rng, 300, 20, 10), _dense(rng, 8, 8, 4)
    masks32, masks128 = _dense(rng, 32, 32, 24), _dense(rng, 128, 128, 64)
    psi1000 = FunctionGraph(tuple(rng.randrange(32) for _ in range(1000)), 32)
    psi512 = FunctionGraph(tuple(rng.randrange(128) for _ in range(512)), 128)
    masks4 = _dense(rng, 5, 4, 2)
    psi6 = FunctionGraph(tuple(rng.randrange(4) for _ in range(6)), 4)
    cases = []
    for kind, r in (("bits", thin), ("bits", sparse), ("tiles", square)):
        cases.append(
            ("transpose", kind, (r.rows, r.dst_size),
             lambda r=r: (transpose(r), transpose_oracle(r)))
        )
    for kind, r in (("bits", full4), ("bits", sparse), ("bytes", square)):
        t = _dense(rng, r.src_size, 9, 4)
        cases.append(
            ("left_residual", kind, (r.rows, r.dst_size),
             lambda r=r, t=t: (left_residual(r, t), left_residual_oracle(r, t)))
        )
    for kind, t, s in (
        ("cells", small, small), ("tables", t40, s_long), ("bytes", t300, s_half),
    ):
        cases.append(
            ("right_residual", kind, (s.rows, s.dst_size, t.src_size),
             lambda t=t, s=s: (right_residual(t, s), right_residual_oracle(t, s)))
        )
    for kind, r, psi in (("bits", masks4, psi6), ("bytes", masks32, psi1000),
                         ("gather", masks128, psi512)):
        cases.append(
            ("pullback", kind, (r.rows, r.dst_size, psi.src_size),
             lambda r=r, psi=psi: (relalg.pullback(r.rows, r.columns, psi),
                                   preimages_oracle(psi, r.rows)))
        )
    for kind, r in (("bits", small), ("bytes", square)):
        s = _dense(rng, r.dst_size, 9, 4)
        cases.append(
            ("compose", kind, (r.rows, r.dst_size),
             lambda r=r, s=s: (compose(r, s), compose_oracle(r, s)))
        )
    return cases


BRANCH_CASES = _branch_cases()


@pytest.mark.parametrize(
    "kernel, kind, args, run", BRANCH_CASES, ids=[f"{k}-{b}" for k, b, *_ in BRANCH_CASES]
)
def test_each_branch_is_picked_on_its_input(kernel, kind, args, run):
    """One input per branch of each kernel: ``relalg.branch`` picks that
    branch, and the kernel's result is its oracle's."""
    assert relalg.branch(kernel, *args) == kind
    got, expected = run()
    assert got == expected


def test_a_forced_branch_is_reached_at_any_shape():
    """A kernel runs a call that its shape decides without asking
    ``relalg.branch``; forced, a kernel asks at every shape.  A tiles
    transpose of a 2 x 3 relation and a bytes left residual of a 3 x 3 one
    are picked, and equal their oracles."""
    r = M([[1, 0, 1], [0, 1, 1]])
    with branches("transpose", "tiles") as picks:
        got = transpose(r)
    assert picks == [("transpose", "tiles")]
    assert got == transpose_oracle(r)
    r, t = M([[1, 1, 0], [0, 1, 1], [1, 0, 1]]), M([[1, 0], [1, 1], [0, 1]])
    with branches("left_residual", "bytes") as picks:
        got = left_residual(r, t)
    assert picks == [("left_residual", "bytes")]
    assert got == left_residual_oracle(r, t)


def test_an_unforced_block_records_every_kernel_call():
    """Unforced, ``branches`` still records each kernel call that its shape
    decides: one pick for a 2 x 2 transpose, the rule's, and the converse."""
    r = M([[1, 0], [1, 1]])
    with branches() as picks:
        got = transpose(r)
    assert picks == [("transpose", "bits")]
    assert got == transpose_oracle(r)


def test_the_shape_constants_only_shortcut_the_counts():
    """The rule's counts pick the bit loop on every call of up to
    ``_SHAPE_BITS`` cells, and the subset tests on every right residual of
    up to ``_SHAPE_CELLS``, even with every bit set: what the kernels run
    unasked."""
    bits_most, cells_most = relalg._SHAPE_BITS, relalg._SHAPE_CELLS
    assert (bits_most, cells_most) == (73, 120)
    for m in range(bits_most + 1):
        for n in range(bits_most // max(m, 1) + 1):
            rows = ((1 << n) - 1,) * m
            for kernel in ("transpose", "compose", "left_residual"):
                assert relalg.branch(kernel, rows, n) == "bits", (kernel, m, n)
            for k in (0, 1, 100, 1000):
                assert relalg.branch("pullback", rows, n, k) == "bits", (m, n, k)
    for k in range(cells_most + 1):
        for m in range(cells_most // max(k, 1) + 1):
            for n in (0, 1, 7, 8, 9, 64, 300):
                rows = ((1 << n) - 1,) * k
                assert relalg.branch("right_residual", rows, n, m) == "cells", (k, m, n)


class TestAdjointness:
    def test_exhaustive_small(self):
        for r in enumerate_relations(2, 2):
            for s in enumerate_relations(2, 2):
                rs = compose(r, s)
                for t in enumerate_relations(2, 2):
                    below = subrelation(rs, t)
                    assert below == subrelation(s, left_residual(r, t))
                    assert below == subrelation(r, right_residual(t, s))

    def test_random_shapes(self, rng):
        for a, b, c in random_shapes(rng, 60):
            r = random_relation(rng, a, b)
            s = random_relation(rng, b, c)
            t = random_relation(rng, a, c)
            below = subrelation(compose(r, s), t)
            assert below == subrelation(s, left_residual(r, t))
            assert below == subrelation(r, right_residual(t, s))


class TestDerivedLaws:
    def test_residuation_preserves_composition(self, rng):
        for a, b, c in random_shapes(rng, 30, max_size=5):
            d = rng.randint(0, 5)
            r1 = random_relation(rng, a, b)
            r2 = random_relation(rng, b, c)
            t = random_relation(rng, a, d)
            assert left_residual(compose(r1, r2), t) == left_residual(
                r2, left_residual(r1, t)
            )
            s1 = random_relation(rng, c, b)
            s2 = random_relation(rng, b, a)
            u = random_relation(rng, d, a)
            assert right_residual(u, compose(s1, s2)) == right_residual(
                right_residual(u, s2), s1
            )

    def test_unconstrained_associative_law(self, rng):
        # (r\t)/s == r\(t/s)
        for _ in range(40):
            a, b, c, d = (rng.randint(0, 4) for _ in range(4))
            t = random_relation(rng, a, b)
            r = random_relation(rng, a, c)
            s = random_relation(rng, d, b)
            assert right_residual(left_residual(r, t), s) == left_residual(
                r, right_residual(t, s)
            )

    def test_constrained_associative_law(self, rng):
        # close both operands against an endo-relation first
        for _ in range(40):
            a, b, c = rng.randint(1, 4), rng.randint(0, 4), rng.randint(0, 4)
            t = random_relation(rng, a, a)
            r0 = random_relation(rng, a, b)
            s0 = random_relation(rng, c, a)
            r = right_residual(t, left_residual(r0, t))
            s = left_residual(right_residual(t, s0), t)
            assert r == right_residual(t, left_residual(r, t))
            assert s == left_residual(right_residual(t, s), t)
            assert left_residual(right_residual(t, s), r) == right_residual(
                s, left_residual(r, t)
            )

    def test_function_laws(self, rng):
        # residuating by the transpose of a function graph is composition:
        # transpose(f)\r == f.rel o r, and s/g == s o transpose(g)
        for _ in range(30):
            a, b, c = rng.randint(1, 4), rng.randint(1, 4), rng.randint(0, 4)
            f = FunctionGraph.from_targets(
                tuple(rng.randrange(b) for _ in range(a)), b
            )
            r = random_relation(rng, b, c)
            assert left_residual(transpose(f.rel), r) == compose(f.rel, r)
            s = random_relation(rng, c, b)
            g = FunctionGraph.from_targets(
                tuple(rng.randrange(b) for _ in range(a)), b
            )
            assert right_residual(s, g.rel) == compose(s, transpose(g.rel))


# JSON matrix text and dst_size (None: from the first row) -> the rows built,
# or the error type and message; one case per kind of cell JSON can hold.  The
# first bad row is named, whichever its fault: a bad cell before a row of
# another length names the cell, such a row before a bad cell names the row
FROM_MATRIX = [
    ("[[1, 0, 1], [0, 0, 0], [1, 1, 1]]", 3, (5, 0, 7)),
    ("[[true, false], [false, true]]", 2, (1, 2)),
    ("[[1.0, 0.0, -0.0], [0, 1, 1.0]]", 3, (1, 6)),
    ("[[true, 1, 1.0], [false, 0, 0.0]]", 3, (7, 0)),
    ("[[1e0, 1]]", 2, (3,)),
    ("[]", 4, ()),
    ("[[], []]", 0, (0, 0)),
    ("[[1], [0]]", None, (1, 0)),
    ("[[0, 2, 1]]", 3, (ValidationError, "matrix cell must be 0/1, got 2")),
    ("[[3, 1, 2]]", 3, (ValidationError, "matrix cell must be 0/1, got 3")),
    ("[[-1, 0]]", 2, (ValidationError, "matrix cell must be 0/1, got -1")),
    ("[[0.5, 1]]", 2, (ValidationError, "matrix cell must be 0/1, got 0.5")),
    ("[[NaN, 1]]", 2, (ValidationError, "matrix cell must be 0/1, got nan")),
    ('[[1, "1"]]', 2, (ValidationError, "matrix cell must be 0/1, got '1'")),
    ("[[0, null]]", 2, (ValidationError, "matrix cell must be 0/1, got None")),
    ("[[0, [1]]]", 2, (ValidationError, "matrix cell must be 0/1, got [1]")),
    ("[[0, {}]]", 2, (ValidationError, "matrix cell must be 0/1, got {}")),
    ("[[1, 0, 1], [1, 0]]", 3, (ValidationError, "row 1 must have 3 cells, got 2")),
    ("[[1, 0], [1, 0, 1]]", 2, (ValidationError, "row 1 must have 2 cells, got 3")),
    ("[[1, 2], [1]]", 2, (ValidationError, "matrix cell must be 0/1, got 2")),
    ("[[1], [2, 0]]", 1, (ValidationError, "row 1 must have 1 cells, got 2")),
    ("[[1, 0], [0, 2, 1]]", 2, (ValidationError, "row 1 must have 2 cells, got 3")),
    ('["01", "10"]', 2, (ValidationError, "matrix cell must be 0/1, got '0'")),
    ('[{"a": 1}]', 1, (ValidationError, "matrix cell must be 0/1, got 'a'")),
    ("[5]", 1, (TypeError, "object of type 'int' has no len()")),
    ("[[1, 1], null]", 2, (TypeError, "object of type 'NoneType' has no len()")),
    ("[[1, 0, 1], [0, 2]]", 2, (ValidationError, "row 0 must have 2 cells, got 3")),
]


@pytest.mark.parametrize("text, dst_size, expected", FROM_MATRIX)
def test_from_matrix_verdicts_and_messages(text, dst_size, expected):
    matrix = json.loads(text)
    if expected and isinstance(expected[0], type):
        error, message = expected
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Relation.from_matrix(matrix, dst_size)
    else:
        r = Relation.from_matrix(matrix, dst_size)
        width = dst_size if dst_size is not None else len(matrix[0])
        assert (r.src_size, r.dst_size, r.rows) == (len(matrix), width, expected)


def test_matrix_is_the_per_cell_form(rng):
    """Empty shapes, and random ones up to 130 columns, past two 64-bit
    words; every cell an exact ``int``, which JSON writes as a digit."""
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1)]
    shapes += [(rng.randint(1, 12), rng.randint(1, 130)) for _ in range(40)]
    for m, n in shapes:
        r = random_relation(rng, m, n)
        matrix = r.matrix()
        assert matrix == matrix_oracle(r)
        assert {type(cell) for row in matrix for cell in row} <= {int}
        assert Relation.from_matrix(matrix, n) == r


def test_from_matrix_quotes_a_long_bad_cell_cut_short():
    cell = "x" * 100_000
    with pytest.raises(ValidationError) as info:
        Relation.from_matrix(json.loads(f'[[1, 0], [0, "{cell}"]]'))
    assert str(info.value) == f"matrix cell must be 0/1, got {quote(cell)}"
    assert len(str(info.value)) < 100


class TestView:
    def test_is_a_cached_property_computed_once_per_instance(self):
        calls = []

        class Box:
            def __init__(self, x):
                self.x = x

            @view
            def double(self):
                calls.append(self.x)
                return 2 * self.x

        assert isinstance(Box.__dict__["double"], functools.cached_property)
        assert Box.double is Box.__dict__["double"]
        a, b = Box(1), Box(5)
        assert (a.double, a.double, b.double, a.double) == (2, 2, 10, 2)
        assert calls == [1, 5] and vars(a)["double"] == 2

    def test_every_library_view_is_a_view(self):
        """Every ``cached_property`` of the package is the lock-free
        ``view``, and each stays a ``functools.cached_property``."""
        import conceptual
        from conceptual import bond, classification, functors, lattice, relalg

        found = 0
        for module in (relalg, classification, lattice, bond, functors, conceptual):
            for cls in vars(module).values():
                if isinstance(cls, type) and cls.__module__ == module.__name__:
                    for attr in vars(cls).values():
                        if isinstance(attr, functools.cached_property):
                            assert type(attr) is view, attr
                            found += 1
        assert found > 20

    def test_frozen_dataclass_view_is_kept(self):
        r = Relation(2, 3, (0b101, 0b010))
        cols = r.columns
        assert r.columns is cols == transpose(r).rows
        assert vars(r)["columns"] is cols


class TestValuesAndValidation:
    def test_value_semantics(self):
        r1 = M([[1, 0], [0, 1]])
        r2 = identity(2)
        assert r1 == r2 and hash(r1) == hash(r2)
        assert r1 != M([[1, 0], [1, 1]])

    def test_frozen_with_the_generated_methods(self):
        """``__init__`` is written by hand; the fields stay frozen, keyword
        arguments and ``dataclasses.replace`` still work, and ``==``,
        ``hash`` and ``repr`` are those of the fields."""
        r = Relation(2, 3, (0b101, 0b010))
        for name, value in (("src_size", 3), ("dst_size", 1), ("rows", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(r, name, value)
        assert r.rows == (0b101, 0b010)
        assert [f.name for f in dataclasses.fields(r)] == ["src_size", "dst_size", "rows"]
        assert Relation(src_size=2, dst_size=3, rows=(0b101, 0b010)) == r
        assert dataclasses.replace(r, rows=(0, 0)) == Relation.empty(2, 3)
        assert hash(r) == hash((2, 3, (0b101, 0b010)))
        assert repr(r) == "Relation(2x3: [101, 010])"
        with pytest.raises(ValidationError, match="expected 2 rows, got 1"):
            dataclasses.replace(r, rows=(0,))

    def test_repr_shows_the_cells_a_row_has(self):
        """Each row is its cells, cell 0 first: none for a row of no cells."""
        assert repr(Relation(2, 0, (0, 0))) == "Relation(2x0: [, ])"
        assert repr(Relation.empty(0, 3)) == "Relation(0x3: [])"
        assert repr(Relation(0, 0, ())) == "Relation(0x0: [])"
        assert repr(Relation(2, 4, (0b0001, 0b1110))) == "Relation(2x4: [1000, 0111])"

    def test_row_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Relation(1, 2, (4,))
        with pytest.raises(ValidationError):
            Relation(2, 2, (1,))

    def test_first_offending_row_is_named(self):
        cases = [
            ((0, -1, 1), "row 1 has bits outside 0..1"),
            ((1, 2, 0b100), "row 2 has bits outside 0..1"),
            ((3, 0b100, -1), "row 1 has bits outside 0..1"),
            ((3, -2, 0b100), "row 1 has bits outside 0..1"),
        ]
        for rows, message in cases:
            with pytest.raises(ValidationError, match=re.escape(message)):
                Relation(3, 2, rows)
        with pytest.raises(ValidationError, match=re.escape("row 0 has bits outside 0..-1")):
            Relation(1, 0, (1,))

    def test_rows_and_targets_must_be_tuples_of_ints(self):
        """A list of rows, or a row that is no int, is refused where it
        enters, not in a later ``hash``; a ``bool`` is an int."""
        for rows in ([1, 2], (1, 2.0), (1, "2"), (1, None)):
            with pytest.raises(ValidationError, match="^relation rows must be a tuple of ints$"):
                Relation(2, 2, rows)
        # ``from_targets`` makes a tuple of any sequence
        for build, targets in (
            (FunctionGraph, [0, 1]),
            (FunctionGraph, (0, 1.0)),
            (FunctionGraph.from_targets, [0, 1.0]),
        ):
            with pytest.raises(ValidationError, match="^function targets must be a tuple of ints$"):
                build(targets, 2)
        assert Relation(2, 2, (True, False)) == Relation(2, 2, (1, 0))
        assert FunctionGraph((True,), 2) == FunctionGraph((1,), 2)

    def test_zero_rows_accepted(self):
        for dst in (0, 3):
            assert Relation(0, dst, ()).rows == ()
        assert Relation(2, 0, (0, 0)).count() == 0

    def test_from_pairs_bounds(self):
        with pytest.raises(ValidationError):
            Relation.from_pairs(2, 2, [(2, 0)])

    def test_union_intersection(self, rng):
        for _ in range(10):
            r = random_relation(rng, 3, 3)
            t = random_relation(rng, 3, 3)
            u = union(r, t)
            # the meet of r and t, by De Morgan: relalg has no kernel for it
            i = complement(union(complement(r), complement(t)))
            assert subrelation(r, u) and subrelation(t, u)
            assert subrelation(i, r) and subrelation(i, t)

    def test_function_graph_rejects_out_of_range_targets(self):
        cases = [
            ((0, 2), 2, "target 2 of 1 out of range 0..1"),
            ((-1,), 3, "target -1 of 0 out of range 0..2"),
            ((0,), 0, "target 0 of 0 out of range 0..-1"),
        ]
        for targets, dst_size, message in cases:
            for build in (FunctionGraph, FunctionGraph.from_targets):
                with pytest.raises(ValidationError, match=re.escape(message)):
                    build(targets, dst_size)
        with pytest.raises(ValidationError, match="must be nonnegative"):
            FunctionGraph.identity(-1)

    def test_function_graph_agrees_with_its_relation(self, rng):
        def random_function(src, dst):
            return FunctionGraph(tuple(rng.randrange(dst) for _ in range(src)), dst)

        outcomes = set()
        shapes = [
            (0, 0, 0), (0, 0, 2), (0, 3, 1), (1, 1, 1), (3, 1, 2), (2, 2, 2), (4, 4, 3), (6, 3, 5)
        ]
        for src, mid, dst in shapes:
            for _ in range(20):
                f, h = random_function(src, mid), random_function(src, mid)
                g = random_function(mid, dst)
                assert f.then(g).rel == compose(f.rel, g.rel)
                assert all(row.bit_count() == 1 for row in f.rel.rows + g.rel.rows)
                assert f.rel.shape == f.shape == (src, mid)
                assert (f == h) == (f.rel == h.rel)
                outcomes.add(f == h)
        assert outcomes == {True, False}

    def test_function_graph_composition_and_inverse_image(self):
        f = FunctionGraph.from_targets((1, 0, 1), 2)
        g = FunctionGraph.from_targets((0, 0), 1)
        assert f.then(g).targets == (0, 0, 0)
        assert f.preimages((0b10,)) == (0b101,)
        assert FunctionGraph.identity(3).is_identity()
