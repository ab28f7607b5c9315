"""Bounded property tests of a function's fibers, the inverse images read
from them and the adjointness equation built on them, on random shapes up to
7 -> 7, 0-sized domains and codomains included; and of ``pullback`` and the
byte steps of ``preimages`` against the fiber loop, each branch forced and
as ``relalg.branch`` picks it, also on the seeded batches
``tools/kernel_probe.py`` times."""

import random

import pytest

from hypothesis_or_skip import given, settings, st

from conceptual import relalg
from conceptual.classification import Classification
from conceptual.infomorphism import FunctionalInfomorphism, check_functional
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    adjoint_failure,
    compose,
    first_difference,
    pullback,
    transpose,
)

from conftest import order_from_covers, pullback_inputs
from oracles import branches, preimages_oracle
from test_relalg_properties import DENSITIES, dense_relation, relations


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
    return FunctionalInfomorphism._of(A, B, f, g)


@settings(max_examples=150, deadline=None, database=None)
@given(candidate_infomorphisms())
def test_fundamental_property_is_the_adjointness_equation(m):
    """``check_functional`` and ``adjoint_failure`` on the incidences agree
    with the composite form ``compose(f, I_A) == compose(I_B, g^T)``: the
    verdict, and the first differing (target instance, source type)."""
    lhs = compose(m.f.rel, m.source.incidence)
    rhs = compose(m.target.incidence, transpose(m.g.rel))
    expected = first_difference(lhs.rows, rhs.rows)
    diff = adjoint_failure(m.source.rows, m.target.rows, m.target.cols, m.f.targets, m.g)
    assert diff == expected
    verdict = check_functional(m)
    assert bool(verdict) == (expected is None)
    if expected is not None:
        b, t = expected
        assert verdict.witness == (m.target.instances[b], m.source.types[t])


# -- pullback and the byte steps against the fiber loop -------------------------
#
# The shapes (masks, sources, targets) run from empty carriers to outputs of
# a few thousand cells, the targets around a byte (7/8/9 and 15/16/17), and
# the densities from no bit to every bit of the masks.
PULLBACK_SHAPES = [
    (0, 40, 5), (40, 0, 5), (0, 0, 0), (6, 0, 0), (3, 4, 2), (1, 1100, 3), (1100, 1, 3),
    (31, 33, 7), (32, 32, 8), (41, 25, 9), (32, 32, 15), (32, 32, 16), (33, 31, 17),
    (16, 64, 16), (64, 16, 17), (45, 45, 45), (20, 60, 40), (70, 70, 16),
]


@st.composite
def pullbacks(draw):
    """Masks ``R``, ``k`` x ``n`` at one of ``DENSITIES``, and a function
    ``psi`` from ``m`` sources into the ``n`` targets."""
    k, m, n = draw(st.sampled_from(PULLBACK_SHAPES))
    r = dense_relation(draw, k, n, draw(st.sampled_from(DENSITIES)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    return r, FunctionGraph(tuple(rng.randrange(n) for _ in range(m)), n)


@settings(max_examples=200, deadline=None, database=None)
@given(pullbacks(), st.integers(0, 2**70))
def test_pullback_is_the_fiber_loop(r_psi, high):
    """Both branches, with and without bits past the targets in the masks:
    the columns stay ``R``'s own, which have none."""
    r, psi = r_psi
    expected = preimages_oracle(psi, r.rows)
    assert expected == compose(r, transpose(psi.rel)).rows
    assert pullback(r.rows, r.columns, psi) == expected
    assert psi.preimages(r.rows) == expected
    past = tuple(row | (high << a) << r.dst_size for a, row in enumerate(r.rows))
    assert pullback(past, r.columns, psi) == expected
    assert psi.preimages(past) == expected


@settings(max_examples=150, deadline=None, database=None)
@given(pullbacks(), st.sampled_from(("gather", "bits", "bytes")))
def test_every_pullback_branch_is_the_fiber_loop(r_psi, kind):
    """The gather and the fiber loop reading by bits or by bytes, each
    forced whatever ``relalg.branch`` would pick, give the fiber loop's
    rows."""
    r, psi = r_psi
    with branches("pullback", kind):
        assert pullback(r.rows, r.columns, psi) == preimages_oracle(psi, r.rows)


@pytest.mark.parametrize("kind", ["gather", ""], ids=["gather", "rule"])
def test_pullback_is_the_fiber_loop_on_the_probe_batches(kind):
    """Gathering, and as ``relalg.branch`` picks, on the batches the kernel
    probe times: the up-sets of 2^a pulled back along seeded boolean homs
    2^a -> 2^a and 2^(a+2) -> 2^a, a = 3..7, and both principal batches of
    each hom of the verify corpora of seeds 0-11 at size 3."""
    for name, batches in pullback_inputs():
        with branches("pullback", kind):
            got = [pullback(rows, cols, psi) for rows, cols, psi in batches]
        assert got == [preimages_oracle(psi, rows) for rows, _, psi in batches], name


def test_pullback_gathers_where_the_rule_counts_fewer_steps(monkeypatch):
    """The gather, the one ``transpose`` call, runs exactly where
    ``relalg.branch`` picks it: on many masks dense enough that reading
    their bits costs more than turning the gathered columns into rows, as
    with many sources, or with so few that the gathered columns are short;
    not on sparse masks or few masks."""
    gathered = []
    original = relalg.transpose

    def counted(r):
        gathered.append(r.shape)
        return original(r)

    monkeypatch.setattr(relalg, "transpose", counted)
    n = 64
    for k, m, per_row, gathers in (
        (128, 512, 32, True), (128, 4, 32, True), (128, 512, 1, False), (4, 512, 32, False)
    ):
        rows = tuple((1 << per_row) - 1 << y % (n - per_row + 1) for y in range(k))
        r = Relation(k, n, rows)
        psi = FunctionGraph(tuple(a % n for a in range(m)), n)
        cols = r.columns
        gathered.clear()
        assert (relalg.branch("pullback", rows, n, m) == "gather") == gathers
        assert pullback(rows, cols, psi) == preimages_oracle(psi, rows)
        assert gathered == ([(m, k)] if gathers else [])
