import itertools
import random

import pytest

from conceptual.classification import (
    Classification,
    chain_classification,
    contranominal_classification,
)
from conceptual.errors import ResourceLimitError, ShapeError, ValidationError
from conceptual.functors import complete_lattice_of
from conceptual.bond import (
    Bond,
    collective_from_function,
    collective_transport,
    is_bond,
    mediating_function,
)
from conceptual.lattice import (
    ConceptLattice,
    build_lattice,
    concept_lattice_of,
    decomposition_check,
    instance_concept,
    join,
    meet,
    type_concept,
)
from conceptual import relalg
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    bits,
    compose,
    left_residual,
    right_residual,
    transpose,
)

from conftest import PRUNED_BOTTOM, RANDOM_SHAPES, all_contexts, random_context, sparse_context
from oracles import (
    closed_pairs_oracle,
    collective_closed_oracle,
    collective_from_function_oracle,
    collective_transport_oracle,
    concept_set,
    covers_oracle,
    extent_inclusion_oracle,
    extent_oracle,
    fcbo_oracle,
    inf_oracle,
    next_closure_oracle,
    sup_oracle,
)


# tall sparse shapes (instances, types, crosses per row)
TALL_SPARSE = ((40, 12, 0), (40, 12, 1), (40, 12, 2), (60, 12, 2), (300, 30, 2), (1500, 40, 2))


def order_classifications():
    """Lattices classified by their own order: chains, boolean lattices and
    random lattices, up to 128 elements.  Their concepts are the principal
    (down-set, up-set) pairs, so most canonicity tests fail and the failures
    handed down prune the most.  The random contexts come from a seed of
    their own, so the lattices are the same whichever test asks first."""
    rng = random.Random(0)
    for K in (
        [chain_classification(n) for n in (1, 2, 5, 32, 128)]
        + [contranominal_classification(n) for n in range(8)]
        + [random_context(rng, m, n) for m, n in ((5, 5), (8, 8), (12, 12), (16, 12))]
    ):
        L = complete_lattice_of(build_lattice(K))
        assert L.size <= 128
        yield L.classification


class TestBuildLattice:
    def test_k1(self, k1):
        L = build_lattice(k1)
        got = [(L.extent_labels(c), L.intent_labels(c)) for c in L.concepts]
        assert got == [(("1", "2"), ("a",)), (("2",), ("a", "b"))]
        assert L.top == 0 and L.bottom == 1

    def test_contranominal_3_is_boolean(self):
        L = build_lattice(contranominal_classification(3))
        assert L.size == 8
        assert L.covers.count() == 12

    def test_chain_concepts_are_principal(self):
        K = chain_classification(3)
        L = build_lattice(K)
        assert L.size == 3
        got = {(c.extent, c.intent) for c in L.concepts}
        # each concept is (down-set, up-set) of one element
        expected = {(0b001, 0b111), (0b011, 0b110), (0b111, 0b100)}
        assert got == expected

    def test_matches_oracle_exhaustively(self):
        for K in all_contexts(3, 3):
            L = build_lattice(K)
            assert concept_set(L) == closed_pairs_oracle(K)
            assert len({c.intent for c in L.concepts}) == L.size

    def test_closure_oracles_agree(self):
        """The two brute-force references, subset closure and NextClosure,
        find the same concepts."""
        for K in all_contexts(3, 3):
            m, n = len(K.instances), len(K.types)
            by_next_closure = {
                (
                    frozenset(a for a in range(m) if e >> a & 1),
                    frozenset(t for t in range(n) if i >> t & 1),
                )
                for e, i in next_closure_oracle(K)
            }
            assert closed_pairs_oracle(K) == by_next_closure

    def test_lectic_order_matches_next_closure(self, rng):
        contexts = itertools.chain(
            all_contexts(3, 3),
            (random_context(rng, m, n) for m, n in RANDOM_SHAPES),
            (contranominal_classification(n) for n in range(9)),
            order_classifications(),
            (sparse_context(rng, m, n, k) for m, n, k in TALL_SPARSE),
        )
        for K in contexts:
            got = [(c.extent, c.intent) for c in build_lattice(K).concepts]
            assert got == next_closure_oracle(K)

    def test_bottom_through_the_pruned_branch(self):
        """At the concept ``({i1}, {t0})`` of ``PRUNED_BOTTOM`` one row cannot
        meet both free types (1 x 3 < 2 x 2), so the walk visits the types
        the row meets, none, and ``t1``, the lowest type the intent lacks.
        There the empty extent closes to every type: the bottom concept,
        canonical at that type alone."""
        K = PRUNED_BOTTOM
        L = build_lattice(K)
        got = [(c.extent, c.intent) for c in L.concepts]
        assert got == [(0b11, 0b000), (0b10, 0b001), (0b00, 0b111)]
        assert got == next_closure_oracle(K)
        assert L == fcbo_oracle(K)

    def test_pruned_walk_is_the_fcbo_walk(self, rng):
        """Skipping the children an extent cannot reach, and skipping a test
        while a witness type of a failed closure is still free, change
        neither the concepts, nor their order, nor the embeddings: on tall
        sparse contexts, where the first skip runs at most nodes, up to the
        lattice benchmark's 1500 x 40 with two crosses per row; on the order
        classifications of 2^5 to 2^7, where most loop steps take the second
        (on 2^7, 9,582 of 9,829); and on every context up to 3x3, where a
        descendant's intent also takes in a whole witness and must test."""
        boolean = (
            complete_lattice_of(build_lattice(contranominal_classification(n))).classification
            for n in (5, 6, 7)
        )
        contexts = itertools.chain(
            (sparse_context(rng, m, n, k) for m, n, k in TALL_SPARSE),
            boolean,
            all_contexts(3, 3),
        )
        for K in contexts:
            assert build_lattice(K) == fcbo_oracle(K)

    def test_walk_takes_the_reading_the_rule_picks(self, monkeypatch):
        """``relalg.branch`` picks once per build how the walk reads its
        visit masks: by bytes on the order classifications of 2^6 and 2^7,
        whose full bottom row lets every node test its free types, most of
        them skipped; by bits on the lattice benchmark's wide 100 x 22 at .3
        and tall 1500 x 40 with two crosses per row, and on every context up
        to 3x3.  Either way the concepts come in the lectic order of both
        oracles."""
        boolean = [
            complete_lattice_of(build_lattice(contranominal_classification(n))).classification
            for n in (6, 7)
        ]
        picks = []
        rule = relalg.branch

        def spy(kernel, rows, n, k=0):
            kind = rule(kernel, rows, n, k)
            if kernel == "walk":
                picks.append(kind)
            return kind

        monkeypatch.setattr(relalg, "branch", spy)
        cases = [(K, "bytes") for K in boolean] + [
            (sparse_context(random.Random(3), 100, 22, 7), "bits"),
            (sparse_context(random.Random(3), 1500, 40, 2), "bits"),
        ]
        cases += [(K, "bits") for K in all_contexts(3, 3)]
        for K, reading in cases:
            picks.clear()
            L = build_lattice(K)
            assert picks == [reading]
            assert [(c.extent, c.intent) for c in L.concepts] == next_closure_oracle(K)
            assert L == fcbo_oracle(K)

    @pytest.mark.parametrize("reading", ["bits", "bytes"])
    def test_either_reading_is_the_fcbo_walk(self, reading, rng, monkeypatch):
        """Forced either way, the walk finds the concepts of ``fcbo_oracle``
        in its order: on every context up to 3x3 (0 x n and n x 0 among
        them), random and tall sparse contexts, and lattices classified by
        their own order up to 128 types, which read 16 bytes a node."""
        rule = relalg.branch
        monkeypatch.setattr(
            relalg,
            "branch",
            lambda kernel, rows, n, k=0: reading if kernel == "walk" else rule(kernel, rows, n, k),
        )
        contexts = itertools.chain(
            all_contexts(3, 3),
            (random_context(rng, m, n) for m, n in RANDOM_SHAPES),
            (sparse_context(rng, m, n, k) for m, n, k in TALL_SPARSE),
            order_classifications(),
        )
        for K in contexts:
            assert build_lattice(K) == fcbo_oracle(K)

    def test_lectic_output_is_deterministic(self, rng):
        K = random_context(rng, 5, 5)
        assert build_lattice(K) == build_lattice(K)

    def test_concept_cap(self):
        with pytest.raises(ResourceLimitError):
            build_lattice(contranominal_classification(5), max_concepts=10)

    def test_concept_cap_boundary(self):
        K = contranominal_classification(5)
        assert build_lattice(K, max_concepts=32).size == 32
        with pytest.raises(ResourceLimitError, match="more than 31 concepts"):
            build_lattice(K, max_concepts=31)

    def test_order_byte_cap(self, monkeypatch):
        """The documented cap: 2 GiB of order is 131,072 concepts.  Patched
        low, the order of a 16-concept lattice (32 bytes) passes at a cap of
        32 and raises at 31, before allocating, as do ``covers``,
        ``complete_lattice_of`` and the irreducibles, which read it."""
        from conceptual import lattice
        from conceptual.functors import meet_irreducibles

        assert lattice.ORDER_BYTE_CAP == 131_072**2 // 8 == 2 << 30
        K = contranominal_classification(4)
        monkeypatch.setattr(lattice, "ORDER_BYTE_CAP", 32)
        assert build_lattice(K).order.shape == (16, 16)
        monkeypatch.setattr(lattice, "ORDER_BYTE_CAP", 31)
        L = build_lattice(K)
        for read in (
            lambda: L.order,
            lambda: L.covers,
            lambda: complete_lattice_of(L),
            lambda: meet_irreducibles(L),
        ):
            with pytest.raises(ResourceLimitError, match="order of 16 concepts needs 32 bytes"):
                read()
        assert "order" not in vars(L) and "covers" not in vars(L)

    def test_order_is_extent_inclusion_and_reverse_intents(self, rng):
        for m, n in ((4, 4),) * 10 + RANDOM_SHAPES:
            K = random_context(rng, m, n)
            L = build_lattice(K)
            for i, ci in enumerate(L.concepts):
                for j, cj in enumerate(L.concepts):
                    leq = L.order.bit(i, j)
                    assert leq == (ci.extent & ~cj.extent == 0)
                    assert leq == (cj.intent & ~ci.intent == 0)

    def test_order_from_either_side_is_extent_inclusion(self, rng, monkeypatch):
        """Both residuals give the order of the Basic Theorem, extent
        inclusion, on contexts wider than tall, taller than wide, square,
        0 x n and n x 0.  ``order`` takes the side ``relalg.branch`` picks:
        the type side, through the complement tables, on a tall sparse
        200 x 16 (302 concepts), and the instance side on 60 x 50 with six
        crosses per row, whose type side would read 50 columns for each of
        302 concepts."""
        tables = []
        original = relalg._complement_tables
        monkeypatch.setattr(
            relalg, "_complement_tables", lambda t, s: tables.append(t) or original(t, s)
        )
        tall_sparse = sparse_context(random.Random(14), 200, 16, 3)
        wide_rows = sparse_context(random.Random(3), 60, 50, 6)
        contexts = [random_context(rng, m, n) for m, n in RANDOM_SHAPES + ((3, 9), (9, 3))]
        contexts += [sparse_context(rng, m, n, k) for m, n, k in TALL_SPARSE[:5]]
        contexts += [tall_sparse, wide_rows]
        contexts += [contranominal_classification(5), chain_classification(6)]
        for K in contexts:
            L = build_lattice(K)
            inclusion = extent_inclusion_oracle(
                [extent_oracle(K, set(bits(c.intent))) for c in L.concepts]
            )
            assert right_residual(L.tau_rel, L.tau_rel) == inclusion
            assert left_residual(L.iota_rel, L.iota_rel) == inclusion
            fresh = build_lattice(K)
            side = relalg.branch("order", fresh.extents, len(K.instances), len(K.types))
            tables.clear()
            assert fresh.order == inclusion
            assert ("iota_rel" in vars(fresh)) == (side == "instances")
            if K is tall_sparse:
                assert fresh.size == 302 and tables == [fresh.tau_rel]
            if K is wide_rows:
                assert fresh.size == 302 and side == "instances" and not tables

    @pytest.mark.parametrize(
        "m, n, crosses, side",
        [(100, 90, 9, "instances"), (100, 22, 7, "types"), (1500, 40, 2, "types")],
    )
    def test_order_takes_the_side_of_fewer_steps(self, m, n, crosses, side):
        """On 100 x 90 with nine crosses per row (974 concepts) the instance
        side counts fewer steps than the complement tables of the type side,
        and is the faster; the lattice benchmark's wide 100 x 22 at .3 and
        tall 1500 x 40 at .05 keep the type side.  Either way the order is
        extent inclusion, and so is the other side."""
        L = build_lattice(sparse_context(random.Random(3), m, n, crosses))
        inclusion = extent_inclusion_oracle([set(bits(e)) for e in L.extents])
        assert L.order == inclusion
        assert ("iota_rel" in vars(L)) == (side == "instances")
        assert right_residual(L.tau_rel, L.tau_rel) == inclusion
        assert left_residual(L.iota_rel, L.iota_rel) == inclusion

    def test_covers_are_the_reduction_of_extent_inclusion(self, rng):
        contexts = itertools.chain(
            all_contexts(3, 3), (random_context(rng, m, n) for m, n in RANDOM_SHAPES)
        )
        for K in contexts:
            L = build_lattice(K)
            extents = [extent_oracle(K, set(bits(c.intent))) for c in L.concepts]
            assert set(L.covers.pairs()) == covers_oracle(extents)

    def test_covers_off_the_lectic_order(self, rng):
        # the skip in the covers loop is exact for any index order; shuffled
        # concept indices make lower elements come before higher ones
        lattices = [build_lattice(random_context(rng, 6, 6)) for _ in range(20)]
        lattices += [build_lattice(contranominal_classification(4))]
        lattices += [build_lattice(chain_classification(6))]
        for L in lattices:
            for _ in range(10):
                perm = list(range(L.size))
                rng.shuffle(perm)
                concepts = tuple(L.concepts[i] for i in sorted(range(L.size), key=perm.__getitem__))
                shuffled = ConceptLattice(concepts, L.classification)
                # the derived embeddings are the permuted ones
                assert shuffled.iota.targets == tuple(perm[c] for c in L.iota.targets)
                assert shuffled.tau.targets == tuple(perm[c] for c in L.tau.targets)
                extents = [set(bits(e)) for e in shuffled.extents]
                assert set(shuffled.covers.pairs()) == covers_oracle(extents)
                expected = {(perm[i], perm[j]) for i, j in L.covers.pairs()}
                assert set(shuffled.covers.pairs()) == expected

    def test_covers_build_no_second_order(self):
        """The covers walk reads the order rows in place: beside the order,
        its peak is about its own output, where a strict copy of the order
        would double it.  On contranominal 10 (1,024 concepts) every covers
        row has the bit length of its strict up-set, so a copy costs as
        much as the output."""
        import sys
        import tracemalloc

        L = build_lattice(contranominal_classification(10))
        L.order
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            covers = L.covers
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        output = sys.getsizeof(covers.rows) + sum(map(sys.getsizeof, covers.rows))
        assert peak < 1.5 * output

    def test_embeddings_reconstruct_membership(self, rng):
        for _ in range(10):
            K = random_context(rng, 4, 4)
            L = build_lattice(K)
            for a in range(4):
                for ci, c in enumerate(L.concepts):
                    assert L.iota_rel.bit(a, ci) == bool(c.extent >> a & 1)
            for t in range(4):
                for ci, c in enumerate(L.concepts):
                    assert L.tau_rel.bit(ci, t) == bool(c.intent >> t & 1)

    def test_derived_views_agree_with_embeddings(self, rng):
        # the order is the residual of the membership relation by itself, and
        # the membership relations are the embeddings saturated by the order
        contexts = itertools.chain(
            all_contexts(3, 3), (random_context(rng, m, n) for m, n in RANDOM_SHAPES)
        )
        for K in contexts:
            L = build_lattice(K)
            members = transpose(Relation(L.size, len(K.instances), L.extents))
            assert L.order == left_residual(members, members)
            assert L.iota_rel == compose(L.iota.rel, L.order)
            assert L.tau_rel == compose(L.order, transpose(L.tau.rel))


class TestMeetJoin:
    def test_empty_meet_and_join(self, k1):
        L = build_lattice(k1)
        assert meet(L, []) == L.concepts[L.top]
        assert join(L, []) == L.concepts[L.bottom]

    def test_contranominal_coatom_meet(self):
        L = build_lattice(contranominal_classification(3))
        coatoms = [L.concepts[i] for i in bits(L.covers.columns[L.top])]
        assert len(coatoms) == 3
        m = meet(L, coatoms[:2])
        assert m.extent.bit_count() == 1
        got = inf_oracle(L, [L.concept_index[c] for c in coatoms[:2]])
        assert L.concepts[got] == m

    def test_formulas_agree_with_order_oracle(self, rng):
        for _ in range(8):
            K = random_context(rng, 4, 4)
            L = build_lattice(K)
            for i in range(L.size):
                for j in range(L.size):
                    assert L.meet_index([i, j]) == inf_oracle(L, [i, j])
                    assert L.join_index([i, j]) == sup_oracle(L, [i, j])

    def test_foreign_concept_rejected(self, k1):
        L = build_lattice(k1)
        from conceptual.lattice import FormalConcept

        with pytest.raises(ValidationError, match="belong"):
            meet(L, [FormalConcept(1, 1)])


class TestEmbeddingsAndDecomposition:
    def test_k1_instance_and_type_concepts(self, k1):
        L = build_lattice(k1)
        c = instance_concept(L, "2")
        assert (L.extent_labels(c), L.intent_labels(c)) == (("2",), ("a", "b"))
        c = type_concept(L, "a")
        assert (L.extent_labels(c), L.intent_labels(c)) == (("1", "2"), ("a",))

    def test_instance_concept_extensive(self, rng):
        for _ in range(10):
            K = random_context(rng, 4, 3)
            L = build_lattice(K)
            for a, label in enumerate(K.instances):
                assert instance_concept(L, label).extent >> a & 1

    def test_unknown_labels(self, k1):
        L = build_lattice(k1)
        with pytest.raises(ValidationError):
            instance_concept(L, "zz")
        with pytest.raises(ValidationError):
            type_concept(L, "zz")

    def test_a_missing_concept_raises_naming_its_label(self):
        """A concept list without an instance's row among its intents raises
        on ``iota`` naming that instance, and one without a type's column
        among its extents raises on ``tau`` naming that type.  Only ``i0``
        has ``t0``: the top has the row of ``i1``, the atom the row of
        ``i0`` and the column of ``t0``."""
        K = Classification.from_pairs(("i0", "i1"), ("t0",), [("i0", "t0")])
        top, atom = build_lattice(K).concepts
        no_top, no_atom = ConceptLattice((atom,), K), ConceptLattice((top,), K)
        cases = ((no_top, "iota", "i1"), (no_atom, "iota", "i0"), (no_atom, "tau", "t0"))
        for L, name, label in cases:
            with pytest.raises(ValidationError) as e:
                getattr(L, name)
            assert e.value.witness == (label,)
            assert f"{label!r}" in str(e.value)
        assert no_top.tau.targets == (0,)

    def test_decomposition(self, k1, rng):
        L = build_lattice(k1)
        assert decomposition_check(k1, L)
        for _ in range(15):
            K = random_context(rng, 4, 4)
            assert decomposition_check(K, build_lattice(K))

    def test_decomposition_is_exact(self, k1):
        L = build_lattice(k1)
        rows = list(k1.incidence.rows)
        rows[0] ^= 0b10
        mutated = Classification(k1.instances, k1.types, Relation(2, 2, tuple(rows)))
        assert not decomposition_check(mutated, L)

    def test_density(self, rng):
        for _ in range(10):
            K = random_context(rng, 4, 4)
            L = build_lattice(K)
            for i, c in enumerate(L.concepts):
                below = [L.iota(a) for a in bits(c.extent)]
                assert L.join_index(below) == i
                above = [L.tau(t) for t in bits(c.intent)]
                assert L.meet_index(above) == i


class TestCollectiveConcepts:
    """A collective concept ``(a, alpha)`` is the bond ``alpha`` into the
    contranominal scale of its index set, whose view ``r`` is ``a``."""

    def test_embedding_pair_is_collective(self, k1):
        L = build_lattice(k1)
        F = scaled(k1, L.tau_rel)
        assert is_bond(k1, F.target, F.rel)
        assert F.r == L.iota_rel
        assert collective_closed_oracle(k1, L.iota_rel, L.tau_rel)

    def test_full_pair_usually_is_not(self, k1):
        # the full alpha is the bottom intent, a bond, but its a is not the
        # full column; an alpha whose row is no intent fails as a bond
        a, alpha = Relation.full(2, 1), Relation.full(1, 2)
        assert not collective_closed_oracle(k1, a, alpha)
        assert scaled(k1, alpha).r != a
        empty = Relation.empty(1, 2)
        assert not collective_closed_oracle(k1, right_residual(k1.incidence, empty), empty)
        assert is_bond(k1, contranominal_classification(1), empty).witness == ("row", "0")

    def test_empty_index_set(self, k1):
        F = Bond(k1, contranominal_classification(0), Relation.empty(0, 2))
        assert F.r == Relation.empty(2, 0)
        assert collective_closed_oracle(k1, F.r, F.rel)

    def test_mediating_of_embeddings_is_identity(self, k1):
        L = concept_lattice_of(k1)
        F = Bond(k1, contranominal_classification(L.size), L.tau_rel)
        assert mediating_function(F).is_identity()

    def test_function_collective_roundtrip(self, k1):
        L = concept_lattice_of(k1)
        for targets in itertools.product(range(L.size), repeat=3):
            f = FunctionGraph.from_targets(targets, L.size)
            F = collective_from_function(L, f)
            assert F.target == contranominal_classification(3)
            assert is_bond(k1, F.target, F.rel)
            assert (F.r, F.rel) == collective_from_function_oracle(L, f)
            assert mediating_function(F) == f

    def test_collective_determines_function_pointwise(self, k1):
        L = concept_lattice_of(k1)
        f = FunctionGraph.from_targets((L.top,), L.size)
        F = collective_from_function(L, f)
        g = mediating_function(F)
        assert g(0) == L.top
        # columns of a (the view r) / rows of alpha (the bond) read back the concept
        assert F.r.columns[0] == L.concepts[L.top].extent
        assert F.rel.rows[0] == L.concepts[L.top].intent

    def test_mediating_requires_collective(self, k1):
        # mediating_function takes a bond, and a pair that is not closed is none
        with pytest.raises(ValidationError) as e:
            Bond(k1, contranominal_classification(1), Relation.empty(1, 2))
        assert e.value.witness == ("row", "0")
        with pytest.raises(ShapeError):
            collective_from_function(concept_lattice_of(k1), FunctionGraph((0,), 5))


def scaled(K, alpha) -> Bond:
    """The unchecked bond ``alpha`` from ``K`` into the scale of its rows."""
    return Bond(K, contranominal_classification(alpha.src_size), alpha, validate=False)


def all_collectives(L, size):
    for targets in itertools.product(range(L.size), repeat=size):
        yield collective_from_function(L, FunctionGraph.from_targets(targets, L.size))


class TestCollectiveTransport:
    def test_identity_relation_fixes_closed_concepts(self, k1):
        L = concept_lattice_of(k1)
        from conceptual.relalg import identity

        for c in all_collectives(L, 2):
            assert collective_transport(c, identity(2), side="left") == c
            assert collective_transport(c, identity(2), side="right") == c

    def test_outputs_are_collective(self, k1, rng):
        L = concept_lattice_of(k1)
        for _ in range(20):
            r = Relation(2, 2, (rng.getrandbits(2), rng.getrandbits(2)))
            for c in all_collectives(L, 2):
                for side in ("left", "right"):
                    out = collective_transport(c, r, side=side)
                    assert is_bond(k1, out.target, out.rel)
                    oracle = collective_transport_oracle(k1, r, c.r, c.rel, side)
                    assert (out.r, out.rel) == oracle

    def test_adjointness_exhaustive(self, k1):
        # collectives are ordered by their a, the view r
        L = concept_lattice_of(k1)
        xs = list(all_collectives(L, 2))
        for code in range(16):
            r = Relation(2, 2, (code & 3, code >> 2))
            for c2 in xs:
                image = collective_transport(c2, r, side="left")
                for c1 in xs:
                    lhs = relalg.subrelation(image.r, c1.r)
                    rhs = relalg.subrelation(c2.r, collective_transport(c1, r, side="right").r)
                    assert lhs == rhs

    def test_triple_transport_idempotence(self, k1):
        L = concept_lattice_of(k1)
        for code in range(16):
            r = Relation(2, 2, (code & 3, code >> 2))
            for c in all_collectives(L, 2):
                once = collective_transport(c, r, side="left")
                back = collective_transport(once, r, side="right")
                again = collective_transport(back, r, side="left")
                assert once == again
