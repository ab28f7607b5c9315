import collections
import itertools
import json
import random
import sys
from types import SimpleNamespace

import pytest

from conceptual import bond as bond_module
from conceptual import functors, relalg, verify
from conceptual.bond import (
    Bond,
    BondingPair,
    close_to_bond,
    collective_from_function,
    compose_bonding_pairs,
    compose_bonds,
    identity_bond,
    identity_bonding_pair,
    is_bond,
    is_bonding_pair,
)
from conceptual.classification import (
    Classification,
    chain_classification,
    contranominal_classification,
    extent_of,
)
from conceptual.colimit import enumerate_infomorphisms
from conceptual.errors import ConceptualError, ResourceLimitError, ShapeError, ValidationError
from conceptual.functors import (
    CompleteHomomorphism,
    CompleteLattice,
    ConceptLatticeMorphism,
    adjoint_of_bond,
    adjoint_roundtrip_holds,
    bond_naturality_holds,
    bond_of_adjoint,
    canonical_adjoints,
    classification_of_lattice,
    complete_lattice_of,
    compose_homs,
    compose_lattice_morphisms,
    down_up_witness,
    embedding_bonding_pairs,
    embedding_bonds,
    hom_of_pair,
    hom_roundtrip_holds,
    identity_hom,
    identity_lattice_morphism,
    is_complete_homomorphism,
    is_instance_reduced,
    is_type_reduced,
    join_irreducibles,
    lattice_equivalence_witness,
    lattice_of_morphism,
    meet_irreducibles,
    morphism_of_lattice_morphism,
    pair_of_hom,
    pair_roundtrip_holds,
)
from conceptual.infomorphism import (
    check_functional,
    compose_functional,
    identity_functional,
    instance_infomorphism,
)
from conceptual.io import dumps, morphism_from_obj, morphism_to_obj
from conceptual.lattice import ConceptLattice, FormalConcept, build_lattice, concept_lattice_of
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    bits,
    compose,
    left_residual,
    right_residual,
    transpose,
)
from conceptual.report import FAIL, VerificationReport
from conceptual.verify import verify_equivalences

from conftest import (
    BOWTIE,
    all_contexts,
    bonding_workload,
    boolean_hom,
    context_inputs,
    crown,
    order_from_covers,
    random_context,
    verify_hom_corpora,
)
from oracles import (
    adjoint_masks_oracle,
    adjoint_oracle,
    canonical_adjoints_oracle,
    check_lattice_oracle,
    complete_hom_oracle,
    embedding_bonds_oracle,
    hom_by_adjoint_pairs_oracle,
    inf_oracle,
    lattice_order_oracle,
    pair_roundtrip_by_composition,
    raised,
    random_relation,
    right_residual_oracle,
    sup_oracle,
)
from test_bond import random_bond


PENTAGON = order_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
DIAMOND = order_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def chain_lattice(n):
    labels = tuple(str(i) for i in range(n))
    rows = tuple(((1 << n) - 1) >> i << i for i in range(n))
    return CompleteLattice(labels, Relation(n, n, rows))


def adjoint_pair(L, K, phi, psi):
    """The adjoint pair ``(phi, psi)`` between complete lattices: the
    concept lattice morphism with ``f = phi`` and ``g = psi``."""
    return ConceptLatticeMorphism(L, K, phi, psi, phi, psi)


def small_lattices():
    """Every lattice of up to 4 elements (up to isomorphism), then the two
    5-element lattices that are not distributive."""
    return [
        chain_lattice(1),
        chain_lattice(2),
        chain_lattice(3),
        chain_lattice(4),
        CompleteLattice(tuple("0ab1"), order_from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])),
        CompleteLattice(tuple("0abt1"), PENTAGON),
        CompleteLattice(tuple("0abc1"), DIAMOND),
    ]


def relabelled(leq: Relation, perm) -> Relation:
    """The order with element ``i`` renamed ``perm[i]``."""
    rows = [0] * leq.src_size
    for i, j in leq.pairs():
        rows[perm[i]] |= 1 << perm[j]
    return Relation(leq.src_size, leq.dst_size, tuple(rows))


def order_flaw(leq: Relation) -> str | None:
    """``"transitive"`` or ``"antisymmetric"``, the first partial-order law a
    reflexive relation breaks, from the single bits; ``None`` for an order."""
    n = leq.src_size
    if not all(
        leq.bit(i, k) or not (leq.bit(i, j) and leq.bit(j, k))
        for i, j, k in itertools.product(range(n), repeat=3)
    ):
        return "transitive"
    if any(
        i != j and leq.bit(i, j) and leq.bit(j, i)
        for i, j in itertools.product(range(n), repeat=2)
    ):
        return "antisymmetric"
    return None


def reflexive_relations(n):
    """Every reflexive relation on ``n`` elements."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    for code in range(1 << len(off)):
        rows = [1 << i for i in range(n)]
        for k, (i, j) in enumerate(off):
            if code >> k & 1:
                rows[i] |= 1 << j
        yield Relation(n, n, tuple(rows))


class TestCompleteLattice:
    def test_chain_valid(self):
        L = chain_lattice(3)
        assert L.top == 2 and L.bottom == 0
        assert L.meet_of(0b101) == 0
        assert L.join_of(0b101) == 2

    def test_is_the_concept_lattice_of_its_order_classification(self):
        """Element ``x`` is the concept (down-set, up-set) of ``x``: the
        concepts are those the order classification has, the order is the
        given one, and both embeddings are the identity."""
        for L in small_lattices():
            assert isinstance(L, ConceptLattice)
            assert L.order is L.classification.incidence
            assert L.iota.is_identity() and L.tau.is_identity()
            assert L.concepts == tuple(map(FormalConcept, L.extents, L.intents))
            assert set(L.concepts) == set(concept_lattice_of(L.classification).concepts)
            assert L == CompleteLattice(L.elements, L.order) and L != CompleteLattice(
                tuple(f"{x}'" for x in L.elements), L.order
            )

    def test_concept_lattice_views_read_the_order(self, rng):
        for K in (contranominal_classification(3), random_context(rng, 5, 4)):
            L = concept_lattice_of(K)
            assert complete_lattice_of(L).covers == L.covers
        for C in small_lattices():
            w = lattice_equivalence_witness(C)
            assert w.target is C and w.source.size == C.size

    def test_constructor_errors_keep_their_messages(self):
        """The order shape is checked first, then the labels, then the
        order.  The shape is refused as every wrongly shaped field is, with
        the shape expected; the other messages are those of the lattice
        before it was a concept lattice."""
        with pytest.raises(ShapeError, match=r"^order shape \(3, 3\), expected \(2, 2\)$"):
            CompleteLattice(("x", "x"), Relation.full(3, 3))
        with pytest.raises(ValidationError, match="^duplicate element label 'x'$"):
            CompleteLattice(("x", "x"), Relation.full(2, 2))
        with pytest.raises(ValidationError, match="^no meet for element set 0x18$"):
            CompleteLattice(tuple("0abcd1"), BOWTIE)

    def test_rejects_unbounded_antichain(self):
        with pytest.raises(ValidationError, match="no (meet|join)"):
            CompleteLattice(("x", "y"), Relation.from_matrix([[1, 0], [0, 1]]))
        with pytest.raises(ValidationError, match="no (meet|join)"):
            CompleteLattice(tuple("0abcd1"), BOWTIE)

    def test_meets_and_joins_match_oracles_on_every_subset(self, rng):
        lattices = [
            chain_lattice(1),
            chain_lattice(4),
            CompleteLattice(tuple("0abt1"), PENTAGON),
            CompleteLattice(tuple("0abc1"), DIAMOND),
            complete_lattice_of(concept_lattice_of(contranominal_classification(3))),
        ]
        while len(lattices) < 10:
            L = complete_lattice_of(concept_lattice_of(random_context(rng, 5, 5)))
            if L.size <= 10:
                lattices.append(L)
        for L in lattices:
            ref = SimpleNamespace(order=L.order, size=L.size)
            for mask in range(1 << L.size):
                assert L.meet_of(mask) == inf_oracle(ref, list(bits(mask)))
                assert L.join_of(mask) == sup_oracle(ref, list(bits(mask)))

    def test_rejects_cycles(self):
        with pytest.raises(ValidationError, match="antisymmetric") as exc:
            CompleteLattice(("x", "y"), Relation.full(2, 2))
        assert exc.value.witness == ("x", "y")

    def test_every_reflexive_relation_against_definitions(self):
        # 4,166 relations on up to 4 elements: every outcome of the
        # validator, each checked against its definition
        outcomes = {"transitive": 0, "antisymmetric": 0, "top": 0, "pair": 0, "lattice": 0}
        for n in range(5):
            labels = tuple(f"e{i}" for i in range(n))
            for leq in reflexive_relations(n):
                kind = order_flaw(leq)
                if kind is not None:
                    with pytest.raises(ValidationError, match=kind):
                        CompleteLattice(labels, leq)
                    outcomes[kind] += 1
                    continue
                ref = SimpleNamespace(order=leq, size=n)
                if inf_oracle(ref, []) is None:
                    with pytest.raises(ValidationError, match="no meet for element set 0x0"):
                        CompleteLattice(labels, leq)
                    outcomes["top"] += 1
                    continue
                pair = lattice_order_oracle(leq)
                if pair is None:
                    assert CompleteLattice(labels, leq).order == leq
                    outcomes["lattice"] += 1
                    continue
                mask = 1 << pair[0] | 1 << pair[1]
                with pytest.raises(ValidationError) as exc:
                    CompleteLattice(labels, leq)
                assert str(exc.value) == f"no meet for element set {mask:#x}"
                assert exc.value.witness == (mask,)
                outcomes["pair"] += 1
        assert sum(outcomes.values()) == 4166 and all(outcomes.values()), outcomes

    def test_every_relation_on_up_to_3_elements_against_the_oracle(self):
        """Every relation on at most 3 elements, reflexive or not: the
        constructor raises what ``check_lattice_oracle`` raises, message and
        witness, and accepts exactly what it accepts."""
        verdicts = collections.Counter()
        for n in range(4):
            labels = tuple(f"e{i}" for i in range(n))
            for code in range(1 << n * n):
                leq = Relation(n, n, tuple(code >> n * i & (1 << n) - 1 for i in range(n)))
                expected = raised(check_lattice_oracle, Classification(labels, labels, leq))
                assert raised(CompleteLattice, labels, leq) == expected, leq
                verdicts[expected is None] += 1
        # the lattices: 1 on one element, 2 on two and 6 on three
        assert verdicts == {True: 9, False: 1 + 2 + 16 + 512 - 9}

    def test_exactly_the_lattice_orders_on_4_elements_pass(self):
        """Of the 66,066 relations on 1 to 4 elements, exactly the 45
        labelled lattice orders pass: 1, 2, 6, and 24 chains and 12 squares
        on four; each is an order with a top in which
        ``lattice_order_oracle`` finds no pair without a meet."""
        passed = 0
        for n in range(1, 5):
            labels = tuple(f"e{i}" for i in range(n))
            for code in range(1 << n * n):
                leq = Relation(n, n, tuple(code >> n * i & (1 << n) - 1 for i in range(n)))
                try:
                    CompleteLattice(labels, leq)
                except ValidationError:
                    continue
                ref = SimpleNamespace(order=leq, size=n)
                assert all(leq.bit(i, i) for i in range(n)) and order_flaw(leq) is None
                assert inf_oracle(ref, []) is not None and lattice_order_oracle(leq) is None
                passed += 1
        concept_lattice_of.cache_clear()
        assert passed == 45

    def test_a_crown_is_refused_with_at_most_n_concepts_built(self, monkeypatch):
        """The 40-element crown is an order with no top, and its order
        classification has over 2^20 concepts: the lattice check builds at
        most 40 of them, stores none, and raises what the oracle raises."""
        from conceptual import lattice

        caps = []
        original = lattice.build_lattice

        def spy(K, max_concepts=lattice.DEFAULT_CONCEPT_CAP):
            caps.append(max_concepts)
            return original(K, max_concepts)

        monkeypatch.setattr(lattice, "build_lattice", spy)
        labels, leq = crown(20)
        concept_lattice_of.cache_clear()
        with pytest.raises(ValidationError) as exc:
            CompleteLattice(labels, leq)
        assert (str(exc.value), exc.value.witness) == ("no meet for element set 0x0", (0,))
        assert raised(check_lattice_oracle, Classification(labels, labels, leq)) == (
            "no meet for element set 0x0",
            (0,),
        )
        assert caps and max(caps) <= 40
        assert concept_lattice_of.cache_info().currsize == 0

    def test_the_check_shares_the_concept_lattice_cache(self):
        """A capped miss that overflows stores nothing, and a later call
        builds the whole lattice; a lattice order's concept lattice is stored
        and found again, and lends the lattice its classification."""
        labels, leq = crown(3)
        K = Classification(labels, labels, leq)
        concept_lattice_of.cache_clear()
        with pytest.raises(ValidationError, match="^no meet for element set 0x0$"):
            CompleteLattice(labels, leq)
        assert concept_lattice_of.cache_info() == (0, 1, 4096, 0)
        assert concept_lattice_of(K).size == len(build_lattice(K).concepts) > 6
        assert concept_lattice_of.cache_info() == (0, 2, 4096, 1)
        L = chain_lattice(5)
        M = concept_lattice_of(Classification(L.elements, L.elements, L.order))
        assert concept_lattice_of.cache_info()[:2] == (1, 3)
        assert L.classification is M.classification and L.extents is M.classification.cols
        assert chain_lattice(5).classification is M.classification
        concept_lattice_of.cache_clear()

    def test_bounded_non_lattices_name_their_first_pair(self, rng):
        # bottom and top around every partial order on 3 or 4 elements: the
        # 6-element non-lattices (the bowtie among them) are bounded, so only
        # the pairwise check rejects them; each order is also relabelled
        seen = {"lattice": 0, "not a lattice": 0}
        for middle in (3, 4):
            n = middle + 2
            for inner in reflexive_relations(middle):
                if order_flaw(inner) is not None:
                    continue
                rows = [(1 << n) - 1]
                rows += [inner.rows[i] << 1 | 1 << n - 1 for i in range(middle)]
                rows.append(1 << n - 1)
                bounded = Relation(n, n, tuple(rows))
                perm = list(range(n))
                rng.shuffle(perm)
                for leq in (bounded, relabelled(bounded, perm)):
                    pair = lattice_order_oracle(leq)
                    labels = tuple(f"e{i}" for i in range(n))
                    if pair is None:
                        assert CompleteLattice(labels, leq).order == leq
                        seen["lattice"] += 1
                        continue
                    mask = 1 << pair[0] | 1 << pair[1]
                    with pytest.raises(ValidationError) as exc:
                        CompleteLattice(labels, leq)
                    assert str(exc.value) == f"no meet for element set {mask:#x}"
                    assert exc.value.witness == (mask,)
                    seen["not a lattice"] += 1
        assert all(seen.values()), seen
        # 1 and 2 meet at 0, but 3 and 4 have the lower bounds 0, 1 and 2
        assert lattice_order_oracle(BOWTIE) == (3, 4)
        labels, expected = tuple("0abcd1"), ("no meet for element set 0x18", (0x18,))
        assert raised(CompleteLattice, labels, BOWTIE) == expected
        assert raised(check_lattice_oracle, Classification(labels, labels, BOWTIE)) == expected

    def test_the_lattices_of_the_bonding_benchmark_against_the_oracle(self, tmp_path):
        """The order of each of the seven concept lattices the pairs of the
        bonding benchmark join, 16 to 128 elements, with both caches
        cleared: the constructor accepts it, as ``check_lattice_oracle``
        does, and the lattice's down-sets are the columns of its order."""
        ends = [K for _, p, _ in bonding_workload(tmp_path).pairs for K in (p.source, p.target)]
        orders = list(dict.fromkeys(build_lattice(K).order for K in ends))
        assert len(orders) == 7
        for order in orders:
            labels = tuple(f"e{i}" for i in range(order.src_size))
            concept_lattice_of.cache_clear()
            complete_lattice_of.cache_clear()
            assert raised(check_lattice_oracle, Classification(labels, labels, order)) is None
            assert CompleteLattice(labels, order).extents == transpose(order).rows


class TestFunctionalEquivalence:
    def test_identity_maps_to_identity(self, k1):
        L = concept_lattice_of(k1)
        ident = ConceptLatticeMorphism(
            L,
            L,
            FunctionGraph.identity(L.size),
            FunctionGraph.identity(L.size),
            FunctionGraph.identity(len(L.instance_labels)),
            FunctionGraph.identity(len(L.type_labels)),
        )
        assert lattice_of_morphism(identity_functional(k1)) == ident

    def test_eta_morphism_action(self, k1):
        eta = instance_infomorphism(k1)
        cm = lattice_of_morphism(eta)
        LA = concept_lattice_of(k1)
        LP = concept_lattice_of(eta.target)
        bottom_idx = LA.concept_index[LA.concepts[LA.bottom]]
        image = LP.concepts[cm.psi(bottom_idx)]
        # psi sends ({2},{a,b}) to the powerset concept with extent {2}
        assert LP.extent_labels(image) == ("2",)

    def test_functoriality(self, rng):
        for _ in range(4):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            C = random_context(rng, 2, 2)
            for m1 in itertools.islice(enumerate_infomorphisms(A, B), 3):
                for m2 in itertools.islice(enumerate_infomorphisms(B, C), 3):
                    lhs = lattice_of_morphism(compose_functional(m1, m2))
                    rhs = compose_lattice_morphisms(
                        lattice_of_morphism(m1), lattice_of_morphism(m2)
                    )
                    assert lhs == rhs

    def test_classification_roundtrip_is_strict(self, rng):
        for _ in range(20):
            K = random_context(rng, rng.randint(0, 4), rng.randint(0, 4))
            assert classification_of_lattice(concept_lattice_of(K)) == K

    def test_morphism_roundtrip_is_strict(self, rng):
        for _ in range(5):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            for m in itertools.islice(enumerate_infomorphisms(A, B), 4):
                assert morphism_of_lattice_morphism(lattice_of_morphism(m)) == m

    def test_witness_on_built_lattice(self, k1):
        w = lattice_equivalence_witness(concept_lattice_of(k1))
        assert w.psi.is_identity() and w.phi.is_identity()

    def test_witness_on_abstract_chain(self):
        L = chain_lattice(3)
        w = lattice_equivalence_witness(L)
        # elements map to their principal down/up-set concepts
        for x in range(3):
            c = w.source.concepts[w.phi(x)]
            assert c.extent == L.concepts[x].extent
            assert c.intent == L.concepts[x].intent

    def test_witness_on_contranominal(self):
        L = concept_lattice_of(contranominal_classification(3))
        w = lattice_equivalence_witness(L)
        assert w.source.size == 8

    def test_witness_with_non_injective_embeddings(self):
        # the 2-chain ({}, {t}) < ({a0, a1}, {}) of the empty 2x1 context,
        # with both instances at the top
        concepts = (FormalConcept(0b00, 0b1), FormalConcept(0b11, 0b0))
        L = ConceptLattice(concepts, Classification.from_pairs(("a0", "a1"), ("t",), []))
        assert L.iota.targets == (1, 1)
        assert L.tau.targets == (0,)
        w = lattice_equivalence_witness(L)
        assert w.source.size == 2

    def test_witness_fails_on_an_extent_the_rebuild_lacks(self):
        # the concepts of the 2x1 context in which only i0 has t0, over the
        # full 2x1 context: iota sends both instances to ({i0}, {t0}) and tau
        # sends t0 to the top, so the lattice's own classification is the
        # full context, whose one concept has extent {i0, i1}; concept 1,
        # extent {i0}, is not rebuilt.  The error is a ValidationError, so a
        # verify record fails, not the run
        concepts = (FormalConcept(0b11, 0b0), FormalConcept(0b01, 0b1))
        full = Classification.from_pairs(("i0", "i1"), ("t0",), [("i0", "t0"), ("i1", "t0")])
        L = ConceptLattice(concepts, full)
        with pytest.raises(ValidationError) as exc:
            lattice_equivalence_witness(L)
        assert exc.value.witness == (1,)
        assert str(exc.value) == "extent is not an extent of the rebuilt lattice"
        report = VerificationReport()
        report.attempt("lattice-roundtrip", "skewed", lambda: lattice_equivalence_witness(L), None)
        assert [(r.verdict, r.witness) for r in report.records] == [(FAIL, str(exc.value))]

    def test_witness_fails_on_a_concept_listed_twice(self):
        # the one concept of the full 1x1 context, listed twice: both extents
        # are rebuilt, but not one to one
        full = Classification(("i0",), ("t0",), Relation.full(1, 1))
        L = ConceptLattice((FormalConcept(1, 1),) * 2, full)
        message = "^the extents do not match the rebuilt lattice's one to one$"
        with pytest.raises(ValidationError, match=message):
            lattice_equivalence_witness(L)

    def test_witness_fails_on_an_intent_the_rebuild_lacks(self):
        # a has t1 and b has t2; the top is listed with intent {t3} where its
        # intent is {}.  No instance maps to the top, so iota never reads that
        # intent, and every extent is rebuilt one to one
        K = Classification.from_pairs(("a", "b"), ("t1", "t2", "t3"), [("a", "t1"), ("b", "t2")])
        concepts = (
            FormalConcept(0b11, 0b100),
            FormalConcept(0b01, 0b001),
            FormalConcept(0b10, 0b010),
            FormalConcept(0b00, 0b111),
        )
        L = ConceptLattice(concepts, K)
        with pytest.raises(ValidationError) as exc:
            lattice_equivalence_witness(L)
        assert exc.value.witness == (0,)
        assert str(exc.value) == "intent is not the intent of the rebuilt concept"


class TestRelationalEquivalence:
    def test_identity_bond_gives_identity_morphism(self, k1):
        p = adjoint_of_bond(identity_bond(k1))
        assert p == identity_lattice_morphism(complete_lattice_of(concept_lattice_of(k1)))

    def test_adjoint_functorial(self, k1, rng):
        B = contranominal_classification(2)
        C = chain_classification(2)
        for _ in range(6):
            F = random_bond(rng, k1, B)
            G = random_bond(rng, B, C)
            lhs = adjoint_of_bond(compose_bonds(F, G))
            rhs = compose_lattice_morphisms(adjoint_of_bond(F), adjoint_of_bond(G))
            assert lhs == rhs

    def test_factorization_through_bond_lattice(self, k1, rng):
        # psi equals derivation into the bond's own lattice then projection
        B = contranominal_classification(2)
        for _ in range(6):
            F = random_bond(rng, k1, B)
            p = adjoint_of_bond(F)
            LA = concept_lattice_of(k1)
            LB = concept_lattice_of(B)
            F_cls = Classification(B.instances, k1.types, F.rel)
            LF = concept_lattice_of(F_cls)
            for i, c in enumerate(LA.concepts):
                mid_ext = extent_of(F_cls, c.intent)
                mid = LF.extent_index[mid_ext]
                down = LB.extent_index[LF.concepts[mid].extent]
                assert p.psi(i) == down

    def test_bond_of_identity_morphism_is_order(self):
        L = chain_lattice(3)
        F = bond_of_adjoint(identity_lattice_morphism(L))
        assert F.rel == L.order

    def test_bond_of_a_morphism_between_concept_lattices_is_refused(self):
        """Its rows would be intents over types, not principal filters of the
        order; the relation is built unchecked, so it is refused first."""
        wide = Classification(("a",), ("x", "y"), Relation(1, 2, (1,)))
        for K in (contranominal_classification(2), wide):
            with pytest.raises(ValidationError, match="between complete lattices"):
                bond_of_adjoint(identity_lattice_morphism(concept_lattice_of(K)))

    def test_bond_functor_preserves_composition(self, rng):
        for _ in range(5):
            A = random_context(rng, 2, 2)
            p1 = adjoint_of_bond(random_bond(rng, A, A))
            p2 = adjoint_of_bond(random_bond(rng, A, A))
            if p1.target == p2.source:
                lhs = bond_of_adjoint(compose_lattice_morphisms(p1, p2))
                rhs = compose_bonds(bond_of_adjoint(p1), bond_of_adjoint(p2))
                assert lhs == rhs

    def test_adjoint_roundtrip(self, k1, rng):
        B = contranominal_classification(2)
        for _ in range(6):
            F = random_bond(rng, k1, B)
            assert adjoint_roundtrip_holds(adjoint_of_bond(F))

    def test_adjoint_pairs_are_infomorphisms_of_order_classifications(self):
        """Every adjoint pair of the verify adjoint corpus at ``--max-size
        3``, seed 7, built with the same draws, is a functional infomorphism
        between the two order classifications: ``f(y) <= x`` iff ``y <=
        g(x)`` is adjointness, with ``(f, g) == (phi, psi)``."""
        rng = random.Random(7)
        contexts = verify.context_corpus(3, rng)
        bonds = verify.bond_corpus(contexts, verify.infomorphism_corpus(contexts, rng), rng)
        pairs = verify.adjoint_corpus(contexts, bonds, rng)
        for _, p in pairs:
            m = morphism_of_lattice_morphism(p)
            assert check_functional(m)
            assert (m.source, m.target) == (p.source.classification, p.target.classification)
            assert (m.f, m.g) == (p.phi, p.psi)
        assert len(pairs) == 24

    def test_embedding_bonds_examples(self, k1):
        embedding_bonds(k1)
        embedding_bonds(contranominal_classification(2))
        one = Classification(("x",), ("t",), Relation.full(1, 1))
        embedding_bonds(one)

    def test_embedding_composites_are_compose_bonds(self):
        # embedding_bonds compares each composite, as a relation, with an
        # identity incidence: the relation of the validated composite bond
        for K in all_contexts(3, 3):
            inst, typ = embedding_bonds(K)
            there = left_residual(typ.r, inst.rel)
            back = left_residual(inst.r, typ.rel)
            assert there == compose_bonds(inst, typ).rel == inst.source.incidence
            assert back == compose_bonds(typ, inst).rel == K.incidence

    def test_adjoint_of_bond_matches_set_derivation(self, rng):
        # on closed bonds and, every other time, on unchecked relations, the
        # outcome is that of the pair built from the set-derivation masks:
        # the pair itself, or the ValidationError naming the concept of the
        # first mask that is no extent (psi, first) or no intent (phi).
        # Derivation along any relation is a Galois connection, so
        # well-defined maps are adjoint
        def outcome(build):
            try:
                return build()
            except (KeyError, ValidationError) as e:
                return type(e), str(e), getattr(e, "witness", None)

        def lookup(masks, index, at, what, closed):
            missing = [x for x, mask in enumerate(masks) if mask not in index]
            if missing:
                c = at.concepts[missing[0]]
                extent, intent = at.extent_labels(c), at.intent_labels(c)
                raise ValidationError(
                    f"relation is not a bond: the {what} concept with extent {extent!r} "
                    f"is not an {closed}",
                    witness=("concept", extent, intent),
                )
            return [index[mask] for mask in masks]

        kinds = set()
        for k in range(120):
            A, B = (random_context(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2))
            if k % 2:
                rel = random_relation(rng, len(B.instances), len(A.types))
                F = Bond._of(A, B, rel)
            else:
                F = random_bond(rng, A, B)
            LA, LB = concept_lattice_of(A), concept_lattice_of(B)
            psi, phi = adjoint_masks_oracle(F)

            def reference():
                images = lookup(
                    psi, LB.extent_index, LA, "image of the source", "extent of the target"
                )
                preimages = lookup(
                    phi, LA.intent_index, LB, "preimage of the target", "intent of the source"
                )
                psi_fn = FunctionGraph.from_targets(images, LB.size)
                phi_fn = FunctionGraph.from_targets(preimages, LA.size)
                L, K = complete_lattice_of(LA), complete_lattice_of(LB)
                return adjoint_pair(L, K, phi_fn, psi_fn)

            expected = outcome(reference)
            assert outcome(lambda: adjoint_of_bond(F)) == expected
            failed = isinstance(expected, tuple)
            kinds.add(expected[1].partition(" concept ")[0] if failed else ConceptLatticeMorphism)
        assert kinds == {
            ConceptLatticeMorphism,
            "relation is not a bond: the image of the source",
            "relation is not a bond: the preimage of the target",
        }

    def test_a_non_bond_fails_an_attempt_instead_of_escaping_it(self):
        """Every relation between two contexts of up to 2x2, unchecked as a
        bond: ``adjoint_of_bond`` and ``mediating_function`` raise nothing
        but ``ValidationError``, so ``report.attempt`` records each
        refusal as a failure; a bond is never refused."""
        report = VerificationReport()
        bonds = refused = 0
        contexts = list(all_contexts(2, 2))
        for A, B in itertools.product(contexts, repeat=2):
            m, n = len(B.instances), len(A.types)
            for code in range(1 << (m * n)):
                rows = tuple(code >> (b * n) & ((1 << n) - 1) for b in range(m))
                F = Bond._of(A, B, Relation(m, n, rows))
                bond = bool(is_bond(A, B, F.rel))
                bonds += bond
                for build in (adjoint_of_bond, bond_module.mediating_function):
                    report.attempt(build.__name__, "-", lambda: build(F), None)
                    failed = report.records[-1].verdict == FAIL
                    assert not (bond and failed)
                    refused += failed
        assert bonds and refused

    def test_bond_naturality(self, k1, rng):
        B = contranominal_classification(2)
        for _ in range(8):
            F = random_bond(rng, k1, B)
            assert bond_naturality_holds(F)

    def test_down_up_witness_bijective(self):
        for L in (chain_lattice(1), chain_lattice(4)):
            w = down_up_witness(L)
            assert sorted(w.targets) == list(range(L.size))


class TestCompleteRelationalEquivalence:
    def test_identity_pair_gives_identity_hom(self, k1):
        h = hom_of_pair(identity_bonding_pair(k1))
        assert h == identity_hom(complete_lattice_of(concept_lattice_of(k1)))

    def test_identity_hom_gives_identity_pair(self):
        L = chain_lattice(3)
        p = pair_of_hom(identity_hom(L))
        ident = L.classification.incidence
        assert p.forward.rel == ident
        assert p.backward.rel == ident

    def test_constant_to_top_rejected_with_witness(self):
        L = chain_lattice(3)
        psi = FunctionGraph.from_targets((2, 2, 2), 3)
        verdict = is_complete_homomorphism(L, L, psi)
        assert not verdict and verdict.witness == ("bottom",)
        with pytest.raises(ValidationError):
            CompleteHomomorphism(L, L, psi)

    def test_hom_check_matches_oracle_on_small_lattices(self, rng):
        # every map between each ordered pair, or a seeded sample of MAP_CAP
        # distinct maps where there are more; verdict and witness, so the
        # first failing element is pinned too
        MAP_CAP = 5000
        lattices = small_lattices() + [
            complete_lattice_of(concept_lattice_of(contranominal_classification(3)))
        ]
        verdicts = {True: 0, "top": 0, "bottom": 0, "meet": 0, "join": 0}
        for L, K in itertools.product(lattices, repeat=2):
            total = K.size**L.size
            codes = range(total) if total <= MAP_CAP else rng.sample(range(total), MAP_CAP)
            for code in codes:
                psi = FunctionGraph.from_targets(
                    tuple(code // K.size**i % K.size for i in range(L.size)), K.size
                )
                verdict = is_complete_homomorphism(L, K, psi)
                assert (bool(verdict), verdict.witness) == complete_hom_oracle(L, K, psi)
                verdicts[True if verdict else verdict.witness[0]] += 1
        assert all(verdicts.values()), verdicts

    def test_adjoint_pair_witness_matches_oracle(self, rng):
        # every psi between lattices of up to 4 elements, and between the two
        # 5-element ones and those of up to 3; phi is psi's left adjoint
        # when it has one, that map with one value moved, and a seeded
        # random map
        lattices = small_lattices()
        outcomes = {"adjoint": 0, "not adjoint": 0}
        for L, K in itertools.product(lattices, repeat=2):
            if max(L.size, K.size) == 5 and min(L.size, K.size) > 3:
                continue
            ref = SimpleNamespace(order=L.order, size=L.size)
            for psi_t in itertools.product(range(K.size), repeat=L.size):
                psi = FunctionGraph(psi_t, K.size)
                # the meet of {x : y <= psi(x)}, the only candidate value
                left = [
                    inf_oracle(ref, [x for x in range(L.size) if K.order.bit(y, psi(x))])
                    for y in range(K.size)
                ]
                moved = list(left)
                y = rng.randrange(K.size)
                moved[y] = (moved[y] + 1) % L.size
                randomly = [rng.randrange(L.size) for _ in range(K.size)]
                for phi_t in (left, moved, randomly):
                    phi = FunctionGraph(tuple(phi_t), L.size)
                    expected = adjoint_oracle(L, K, phi, psi)
                    if expected is None:
                        assert adjoint_pair(L, K, phi, psi).phi == phi
                        outcomes["adjoint"] += 1
                        continue
                    with pytest.raises(ValidationError) as exc:
                        adjoint_pair(L, K, phi, psi)
                    assert exc.value.witness == expected
                    assert str(exc.value) == "not a concept lattice morphism: adjointness fails"
                    outcomes["not adjoint"] += 1
        assert all(outcomes.values()), outcomes

    def test_canonical_adjoints_are_adjoint(self):
        L = chain_lattice(3)
        K = chain_lattice(2)
        for psi_t in itertools.product(range(2), repeat=3):
            psi = FunctionGraph.from_targets(psi_t, 2)
            if not is_complete_homomorphism(L, K, psi):
                continue
            h = CompleteHomomorphism(L, K, psi)
            phi, theta = canonical_adjoints(h)
            adjoint_pair(L, K, phi, psi)  # validates
            adjoint_pair(K, L, psi, theta)

    def test_pair_of_hom_is_bonding_pair(self, k1, rng):
        LA = complete_lattice_of(concept_lattice_of(k1))
        LB = complete_lattice_of(concept_lattice_of(contranominal_classification(2)))
        count = 0
        for psi_t in itertools.product(range(LB.size), repeat=LA.size):
            psi = FunctionGraph.from_targets(psi_t, LB.size)
            if is_complete_homomorphism(LA, LB, psi):
                pair_of_hom(CompleteHomomorphism(LA, LB, psi))  # validates
                count += 1
        assert count > 0

    def test_hom_roundtrip(self):
        L = chain_lattice(3)
        K = chain_lattice(2)
        for psi_t in itertools.product(range(2), repeat=3):
            psi = FunctionGraph.from_targets(psi_t, 2)
            if is_complete_homomorphism(L, K, psi):
                assert hom_roundtrip_holds(CompleteHomomorphism(L, K, psi))

    def test_pair_roundtrip_and_psi_phi_agreement(self, k1, rng):
        from test_bond import _some_pairs

        other = contranominal_classification(2)
        for p in _some_pairs(k1, other, rng):
            hom_of_pair(p)
            assert pair_roundtrip_holds(p)

    def test_embedding_pairs_mutually_inverse(self, k1):
        to_lattice, from_lattice = embedding_bonding_pairs(k1)
        round1 = compose_bonding_pairs(to_lattice, from_lattice)
        assert round1 == identity_bonding_pair(k1)
        order_cls = to_lattice.target
        round2 = compose_bonding_pairs(from_lattice, to_lattice)
        assert round2 == identity_bonding_pair(order_cls)

    def test_hom_functoriality(self):
        L, K, M = chain_lattice(3), chain_lattice(2), chain_lattice(3)
        hs1 = [
            CompleteHomomorphism(L, K, FunctionGraph.from_targets(t, 2))
            for t in itertools.product(range(2), repeat=3)
            if is_complete_homomorphism(L, K, FunctionGraph.from_targets(t, 2))
        ]
        hs2 = [
            CompleteHomomorphism(K, M, FunctionGraph.from_targets(t, 3))
            for t in itertools.product(range(3), repeat=2)
            if is_complete_homomorphism(K, M, FunctionGraph.from_targets(t, 3))
        ]
        for h1 in hs1:
            for h2 in hs2:
                lhs = pair_of_hom(compose_homs(h1, h2))
                rhs = compose_bonding_pairs(pair_of_hom(h1), pair_of_hom(h2))
                assert lhs == rhs


class TestAdjointsByLookup:
    """``canonical_adjoints`` reads both adjoints, as ``intent_index`` and
    ``extent_index`` lookups, from the preimage batches the hom's check kept;
    ``canonical_adjoints_oracle`` folds ``meet_of`` and ``join_of`` over
    preimages computed afresh."""

    def test_on_the_hom_corpora(self):
        """The hom corpus of ``verify_equivalences`` at ``--max-size 3``,
        seeds 0-11, built with the same draws."""
        homs = 0
        for h in verify_hom_corpora():
            assert canonical_adjoints(h) == canonical_adjoints_oracle(h)
            homs += 1
        assert homs == 139

    def test_on_seeded_boolean_homs(self):
        """Inverse images along seeded functions ``[b] -> [a]``, homs from
        2^a to 2^b, for every ``a, b <= 7`` with such a function."""
        rng = random.Random(24)
        homs = 0
        for a, b in itertools.product(range(8), repeat=2):
            if a or not b:
                f = tuple(rng.randrange(a) for _ in range(b))
                h = boolean_hom(a, b, f)
                assert canonical_adjoints(h) == canonical_adjoints_oracle(h)
                homs += 1
        assert homs == 57

    def test_constructor_verdicts_are_the_oracles(self):
        """Every map between each ordered pair of small lattices, through the
        constructor, whose check reads the hom's own batches: a hom exactly
        where the oracle says so, with the oracle's adjoints, and otherwise
        the oracle's witness."""
        verdicts = collections.Counter()
        for L, K in itertools.product(small_lattices(), repeat=2):
            for psi_t in itertools.product(range(K.size), repeat=L.size):
                psi = FunctionGraph(psi_t, K.size)
                ok, witness = complete_hom_oracle(L, K, psi)
                if ok:
                    h = CompleteHomomorphism(L, K, psi)
                    assert is_complete_homomorphism(L, K, h)
                    assert canonical_adjoints(h) == canonical_adjoints_oracle(h)
                else:
                    with pytest.raises(ValidationError) as exc:
                        CompleteHomomorphism(L, K, psi)
                    assert exc.value.witness == witness
                verdicts[witness[0] if witness else True] += 1
        assert set(verdicts) == {True, "top", "bottom", "meet", "join"}


class TestOrderLattice:
    """A lattice owns its order classification as a view, and residuals into
    any incidence, an order or not, go through one kernel."""

    def test_order_classification_is_a_view_of_the_lattice(self):
        L = complete_lattice_of(concept_lattice_of(contranominal_classification(3)))
        K = L.classification
        bare = Classification(L.elements, L.elements, L.order)
        assert K is L.classification
        assert K == bare and hash(K) == hash(bare) and repr(K) == repr(bare)
        assert concept_lattice_of(K) is concept_lattice_of(bare)

    def test_right_residual_is_the_oracle(self):
        """Dividends: the order classifications of chains, the pentagon, the
        diamond and the 8-element boolean lattice; random contexts with 0x3
        and 3x0 among them; and relations that are no incidence, random
        bonds and the instance relations ``a`` of collective concepts, their
        bonds' views ``r``.
        Divisor rows are empty, full, the dividend's own rows, down-sets or
        random."""
        rng = random.Random(13)
        lattices = (
            chain_lattice(1),
            chain_lattice(4),
            CompleteLattice(tuple("0abt1"), PENTAGON),
            CompleteLattice(tuple("0abc1"), DIAMOND),
            complete_lattice_of(concept_lattice_of(contranominal_classification(3))),
        )
        cases = [
            (L.classification.incidence, Relation(L.size, L.size, L.extents))
            for L in lattices
        ]
        for m, n in ((0, 3), (3, 0), (4, 5), (6, 2)):
            cases.append((random_context(rng, m, n).incidence, random_relation(rng, 3, n)))
        for m, n in ((3, 4), (4, 3), (0, 2)):
            A, B = random_context(rng, m, n), random_context(rng, n, m)
            cases.append((random_bond(rng, A, B).rel, random_relation(rng, 3, n)))
            L = concept_lattice_of(A)
            f = FunctionGraph(tuple(rng.randrange(L.size) for _ in range(3)), L.size)
            cases.append((collective_from_function(L, f).r, random_relation(rng, 2, 3)))
        for t, other in cases:
            n = t.dst_size
            for s in (
                Relation.empty(0, n),
                Relation.empty(2, n),
                Relation.full(2, n),
                t,
                other,
                random_relation(rng, 5, n),
            ):
                assert right_residual(t, s) == right_residual_oracle(t, s)

    def test_residual_shape_error_is_the_kernels(self):
        for t, s in (
            (chain_classification(3).incidence, Relation.empty(2, 4)),
            (random_context(random.Random(2), 0, 3).incidence, Relation.empty(1, 0)),
        ):
            with pytest.raises(ShapeError) as e:
                right_residual(t, s)
            assert str(e.value) == f"right_residual: incompatible shapes {t.shape} and {s.shape}"

    def test_embedding_bonds_divide_only_incidences(self, monkeypatch):
        """A 10x10 context at density .5, the shape of the benchmark's
        embedding pairs: every ``right_residual`` dividend is the context's
        incidence or its lattice order's, the very objects whose cached
        columns the kernel reads."""
        A = random_context(random.Random(5), 10, 10)
        dividends = []
        original = relalg.right_residual

        def recorded(t, s):
            dividends.append(t)
            return original(t, s)

        for name, module in list(sys.modules.items()):
            if name.startswith("conceptual"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, recorded)
        inst, _ = embedding_bonds(A)
        order = inst.source.incidence
        assert order.src_size > 10
        assert dividends and {id(t) for t in dividends} <= {id(A.incidence), id(order)}


class TestCompleteLatticeByOrder:
    """``complete_lattice_of`` keeps one validated lattice per order value."""

    @staticmethod
    def equal_orders():
        """Two distinct concept lattices, of a context and of a relabelled
        copy, whose orders are equal."""
        K = random_context(random.Random(7), 4, 4)
        renamed = Classification(
            tuple(f"x{a}" for a in range(4)), tuple(f"y{t}" for t in range(4)), K.incidence
        )
        L1, L2 = concept_lattice_of(K), concept_lattice_of(renamed)
        assert L1 != L2 and L1.order == L2.order and L1.order is not L2.order
        return L1, L2

    def test_equal_orders_share_one_lattice_and_its_views(self):
        L1, L2 = self.equal_orders()
        complete_lattice_of.cache_clear()
        C = complete_lattice_of(L1)
        assert complete_lattice_of(L2) is C
        assert C.extents is complete_lattice_of(L2).extents
        assert C.classification.cols is C.extents

    def test_cache_clear_and_info(self):
        L1, L2 = self.equal_orders()
        complete_lattice_of.cache_clear()
        info = complete_lattice_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (0, 0, 0)
        first = complete_lattice_of(L1)
        complete_lattice_of(L2)
        complete_lattice_of(L1)
        info = complete_lattice_of.cache_info()
        assert (info.hits, info.misses, info.currsize) == (2, 1, 1)
        complete_lattice_of.cache_clear()
        rebuilt = complete_lattice_of(L2)
        assert rebuilt is not first and rebuilt == first
        assert complete_lattice_of.cache_info().misses == 1

    def test_check_lattice_runs_once_per_object(self, monkeypatch):
        calls = []
        original = functors.check_lattice

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(functors, "check_lattice", counted)
        L1, L2 = self.equal_orders()
        complete_lattice_of.cache_clear()
        C = complete_lattice_of(L1)
        complete_lattice_of(L2)
        assert calls == [C.classification]
        complete_lattice_of.cache_clear()
        complete_lattice_of(L2)
        assert len(calls) == 2

    def test_order_cap_raises_past_a_warm_cache(self, monkeypatch):
        """A lattice whose order is over the cap raises, even when a lattice
        with an equal order was cached under a larger cap."""
        from conceptual import lattice

        L1, _ = self.equal_orders()
        K = contranominal_classification(4)
        complete_lattice_of.cache_clear()
        complete_lattice_of(concept_lattice_of(K))
        monkeypatch.setattr(lattice, "ORDER_BYTE_CAP", 31)
        with pytest.raises(ResourceLimitError, match="order of 16 concepts needs 32 bytes"):
            complete_lattice_of(lattice.build_lattice(K))
        assert complete_lattice_of(L1).size == L1.size

    def test_classification_of_lattice_is_the_composite(self, rng):
        """The incidence read as ``tau``'s inverse images equals the
        composite ``iota_rel ; tau^T`` it replaces, and the context."""
        contexts = [random_context(rng, m, n) for m, n in ((0, 3), (3, 0), (4, 4), (6, 5))]
        contexts += [contranominal_classification(3), chain_classification(4)]
        for K in contexts:
            L = concept_lattice_of(K)
            got = classification_of_lattice(L)
            assert got.incidence == compose(L.iota_rel, transpose(L.tau.rel))
            assert got == K


class TestDerivedViews:
    """A bonding pair owns its homomorphism and a homomorphism its pair,
    each built and checked once, neither seeded from the other."""

    def test_views_are_kept_and_not_seeded(self, k1):
        h = boolean_hom(3, 2, (2, 0))
        p = pair_of_hom(h)
        assert pair_of_hom(h) is p
        assert hom_of_pair(p) is hom_of_pair(p)
        assert h.pair.hom is not h
        q = embedding_bonding_pairs(k1)[0]
        assert hom_of_pair(q) is hom_of_pair(q)
        assert q.hom.pair is not q

    def test_failing_pair_raises_on_every_access(self, k1):
        m, n = len(k1.instances), len(k1.types)
        everything = Bond(k1, k1, Relation(m, n, ((1 << n) - 1,) * m))
        p = BondingPair._of(identity_bond(k1), everything)
        raised = []
        for _ in range(2):
            with pytest.raises(ValidationError) as exc:
                hom_of_pair(p)
            raised.append((str(exc.value), exc.value.witness))
        assert raised[0] == raised[1]
        assert raised[0] == ("forward right adjoint and backward left adjoint disagree", (0,))

    def test_bonding_op_builds_each_view_once(self, monkeypatch):
        """The benchmark's ``bonding`` op on a parsed spread boolean hom:
        three pairs of canonical adjoints, one to check the parsed pair's hom
        against its bonds' maps, one to spread that hom, and one to check the
        spread pair's hom, and no bond adjoint pair, for a hom that passes
        builds none."""
        text = dumps(morphism_to_obj(pair_of_hom(boolean_hom(3, 2, (2, 0)))))
        calls = collections.Counter()
        for name in ("canonical_adjoints", "adjoint_of_bond"):
            original = getattr(functors, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(functors, name, counted)
        q = morphism_from_obj(json.loads(text), validate=False)
        assert is_bonding_pair(q.forward, q.backward)
        h = hom_of_pair(q)
        assert pair_roundtrip_holds(q)
        assert hom_roundtrip_holds(h)
        assert calls == {"canonical_adjoints": 3}

    def test_spread_hom_pulls_back_each_principal_batch_once(self, monkeypatch):
        """From construction through ``pair_of_hom`` on ``boolean_hom(5, 3,
        (4, 1, 2))``: the target's up-sets and down-sets are each pulled back
        along ``psi`` once, by the hom's check, and the forward bond is read
        off the up batch; the backward bond reads ``psi`` alone, so no batch
        is pulled back along the right adjoint ``theta``.  The pair is the one
        the two validated adjoint pairs give."""
        batches = collections.Counter()
        original = relalg.pullback

        def counted(rows, cols, psi):
            batches[tuple(rows), psi.targets] += 1
            return original(rows, cols, psi)

        for module in (relalg, functors):
            monkeypatch.setattr(module, "pullback", counted)
        h = boolean_hom(5, 3, (4, 1, 2))
        p = pair_of_hom(h)
        L, K = h.source, h.target
        theta = canonical_adjoints(h)[1]
        assert batches == {(K.intents, h.psi.targets): 1, (K.extents, h.psi.targets): 1}
        assert p == BondingPair(
            bond_of_adjoint(adjoint_pair(L, K, canonical_adjoints(h)[0], h.psi)),
            bond_of_adjoint(adjoint_pair(K, L, h.psi, theta)),
        )

    def test_spread_pair_is_the_adjoint_pairs_bonds_on_the_hom_corpora(self):
        """On every hom of the verify hom corpora, the spread pair equals the
        bonds of the two adjoint pairs, each validated, that the backward
        bond no longer builds."""
        homs = 0
        for h in verify_hom_corpora():
            phi, theta = canonical_adjoints(h)
            L, K = h.source, h.target
            assert pair_of_hom(h) == BondingPair(
                bond_of_adjoint(adjoint_pair(L, K, phi, h.psi)),
                bond_of_adjoint(adjoint_pair(K, L, h.psi, theta)),
            )
            homs += 1
        assert homs == 139


class TestPairRoundtripByResiduals:
    """The pair round trip compares the conjugation, taken as relations, with
    the one validated pair it builds, the rebuilt one."""

    @staticmethod
    def parsed(p: BondingPair) -> BondingPair:
        """``p`` as the benchmark's op reads it: serialized, then parsed
        without validation."""
        return morphism_from_obj(json.loads(dumps(morphism_to_obj(p))), validate=False)

    def test_agrees_with_validated_composition_on_the_verify_corpus(self, monkeypatch):
        """Every pair ``verify_equivalences`` round-trips at ``--max-size 3``,
        seeds 0-3."""
        original = functors.pair_roundtrip_holds
        seen = []

        def compared(p):
            got = original(p)
            seen.append((got, pair_roundtrip_by_composition(p)))
            return got

        monkeypatch.setattr(functors, "pair_roundtrip_holds", compared)
        for seed in range(4):
            assert verify_equivalences(max_size=3, seed=seed).exit_code == 0
        assert len(seen) > 100
        assert all(got == expected for got, expected in seen)
        assert all(got for got, _ in seen)

    @staticmethod
    def benchmark_shapes() -> list[BondingPair]:
        """The benchmark's shapes, small: the embedding pairs of a
        contranominal, spread boolean homs 2^a -> 2^b, and a composite of an
        embedding pair with two spreads."""
        pairs = list(embedding_bonding_pairs(contranominal_classification(3)))
        for a, b, f in ((2, 1, (1,)), (3, 2, (2, 0)), (5, 3, (4, 1, 2))):
            pairs.append(pair_of_hom(boolean_hom(a, b, f)))
        composite = embedding_bonding_pairs(contranominal_classification(3))[0]
        for hom in (boolean_hom(3, 2, (0, 2)), boolean_hom(2, 1, (1,))):
            composite = compose_bonding_pairs(composite, pair_of_hom(hom))
        pairs.append(composite)
        return pairs

    def test_agrees_with_validated_composition_on_benchmark_shapes(self):
        """``benchmark_shapes``, each also as parsed; on each the first
        pairing constraint holds as ``forward.images ==
        backward.preimage_extents``, the right residual that view stands
        for."""
        for p in self.benchmark_shapes():
            for q in (p, self.parsed(p)):
                assert pair_roundtrip_holds(q) is True
                assert pair_roundtrip_by_composition(q) is True
                G = q.backward
                assert G.preimage_extents == right_residual(G.source.incidence, G.preimages)
                assert q.forward.images == G.preimage_extents

    @staticmethod
    def verify_bonds_and_pairs(seed: int) -> tuple[list[Bond], list[BondingPair]]:
        """The bond and pair corpora of ``verify_equivalences`` at
        ``--max-size 3``, built with the same draws."""
        rng = random.Random(seed)
        contexts = verify.context_corpus(3, rng)
        bonds = verify.bond_corpus(contexts, verify.infomorphism_corpus(contexts, rng), rng)
        verify.adjoint_corpus(contexts, bonds, rng)
        pairs = verify.pair_corpus(contexts, verify.hom_corpus(contexts, rng), rng)
        return [F for _, F in bonds], [p for _, p in pairs]

    @pytest.mark.parametrize("seed", range(7, 12))
    def test_the_first_constraint_reads_the_backward_view_on_the_verify_corpora(self, seed):
        """Every bond of the bond and pair corpora at size 3: ``preimage_extents``
        is ``I_A/preimages``; every pair meets its first pairing constraint
        as ``forward.images == backward.preimage_extents``."""
        bonds, pairs = self.verify_bonds_and_pairs(seed)
        assert bonds and pairs
        for F in bonds + [G for p in pairs for G in (p.forward, p.backward)]:
            assert F.preimage_extents == right_residual(F.source.incidence, F.preimages)
        for p in pairs:
            assert p.forward.images == p.backward.preimage_extents

    def test_the_bonding_op_takes_one_residual_of_each_side_less(self, monkeypatch):
        """On a parsed spread boolean hom 2^5 -> 2^3, ``is_bonding_pair`` then
        ``pair_roundtrip_holds`` take 6 right and 12 left residuals, against
        9 and 13 when each computed its own ``I_B/preimages``: the round
        trip reads the backward bond's ``preimage_extents``, which the first
        pairing constraint built, in place of a middle composite and its
        right residual.  Both ends are order classifications numbered as
        their own lattices, so each end's two embedding bonds are one, and
        its ``r`` is computed once, not twice.  Both lattice caches are
        cleared first, as the benchmark clears them between ops, so the
        counts hold the orders of the two ends' lattices too.  The counting
        patch is seen to count."""
        q = self.parsed(pair_of_hom(boolean_hom(5, 3, (4, 1, 2))))
        concept_lattice_of.cache_clear()
        complete_lattice_of.cache_clear()
        calls = collections.Counter()
        for name in ("right_residual", "left_residual"):
            original = getattr(relalg, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("conceptual"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, counted)
        assert is_bonding_pair(q.forward, q.backward)
        assert calls == {"right_residual": 2, "left_residual": 2}
        assert pair_roundtrip_holds(q)
        assert calls == {"right_residual": 6, "left_residual": 12}

    def test_a_rebuild_that_differs_is_false_not_an_error(self, monkeypatch):
        """With ``pair_of_hom`` patched to give a valid pair other than the
        rebuild, on the same endpoints or on other ones, the round trip is
        false and raises nothing."""
        p = pair_of_hom(boolean_hom(2, 1, (0,)))
        original = functors.pair_of_hom
        rebuilt = original(hom_of_pair(p))
        h = hom_of_pair(rebuilt)
        others = []
        for t in itertools.product(range(h.target.size), repeat=h.source.size):
            psi = FunctionGraph.from_targets(t, h.target.size)
            if is_complete_homomorphism(h.source, h.target, psi):
                q = original(CompleteHomomorphism(h.source, h.target, psi))
                if q != rebuilt:
                    others.append(q)
        assert others and all(
            (q.source, q.target) == (rebuilt.source, rebuilt.target) for q in others
        )
        others.append(identity_bonding_pair(rebuilt.source))
        others.append(identity_bonding_pair(rebuilt.target))
        for q in [rebuilt, *others]:
            monkeypatch.setattr(functors, "pair_of_hom", lambda _h, q=q: q)
            assert pair_roundtrip_holds(p) is (q is rebuilt)

    def test_builds_only_the_rebuilt_pair(self, monkeypatch):
        """On a parsed spread boolean hom 2^5 -> 2^3 no bond is checked by
        ``is_bond`` or ``is_bonding_pair`` and none is composed: the rebuilt
        pair is checked by its principal sets, the embeddings by their
        derivation identities.  The counting patch is seen to count."""
        q = self.parsed(pair_of_hom(boolean_hom(5, 3, (4, 1, 2))))
        hom_of_pair(q)
        calls = collections.Counter()
        for name in ("is_bond", "is_bonding_pair", "compose_bonds"):
            original = getattr(bond_module, name)

            def counted(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("conceptual"):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, key, counted)
        assert pair_roundtrip_holds(q)
        assert calls == {}
        assert bond_module.is_bonding_pair(q.forward, q.backward)
        assert calls == {"is_bonding_pair": 1}

    def test_the_rebuilt_pair_is_still_checked(self, monkeypatch):
        """With ``canonical_adjoints`` patched to give a ``phi`` that is not
        ``psi``'s left adjoint, ``pair_of_hom`` raises: at the bond check
        when ``phi`` has no right adjoint (the constant top), and at the
        pairing check when its right adjoint is another hom."""
        h = boolean_hom(5, 3, (4, 1, 2))
        top = FunctionGraph((h.source.top,) * h.target.size, h.source.size)
        other = canonical_adjoints(boolean_hom(5, 3, (1, 4, 2)))[0]
        for phi, message in (
            (top, "relation is not a bond: column of "),
            (other, "pairing constraints fail: "),
        ):
            monkeypatch.setattr(functors, "canonical_adjoints", lambda _h, phi=phi: (phi, phi))
            # a fresh hom each time, whose pair is not built yet
            with pytest.raises(ValidationError, match=message):
                pair_of_hom(boolean_hom(5, 3, (4, 1, 2)))


class TestHomByCanonicalAdjoints:
    """``BondingPair.hom`` decides both bonds' adjointness from the hom's
    canonical adjoints, and builds an adjoint pair only on failure: its
    result, or its exception's type, message and witness, is that of
    ``hom_by_adjoint_pairs_oracle``, the two checked adjoint pairs."""

    @staticmethod
    def outcome(of, p: BondingPair) -> tuple:
        """The lattices and ``psi`` targets of the hom ``of(p)``, or the
        type, message and witness of what it raises."""
        try:
            h = of(p)
        except ConceptualError as e:
            return type(e), str(e), getattr(e, "witness", None)
        return h.source, h.target, h.psi.targets

    def agrees(self, p: BondingPair) -> tuple:
        """The outcome of ``hom_of_pair(p)``, checked equal to the oracle's."""
        got = self.outcome(hom_of_pair, p)
        assert got == self.outcome(hom_by_adjoint_pairs_oracle, p)
        return got

    @pytest.mark.parametrize("seed", range(7, 12))
    def test_agrees_on_the_verify_pair_corpora(self, seed):
        _, pairs = TestPairRoundtripByResiduals.verify_bonds_and_pairs(seed)
        outcomes = [self.agrees(BondingPair._of(p.forward, p.backward)) for p in pairs]
        assert outcomes and all(isinstance(o[0], CompleteLattice) for o in outcomes)

    def test_agrees_on_the_bonding_benchmark_pairs(self, tmp_path):
        pairs = bonding_workload(tmp_path).pairs
        assert len(pairs) == 9
        for _, p, text in pairs:
            got = self.agrees(morphism_from_obj(json.loads(text), validate=False))
            assert got[2] == hom_of_pair(p).psi.targets

    def test_agrees_on_the_disagreeing_pair(self, k1):
        m, n = len(k1.instances), len(k1.types)
        everything = Bond(k1, k1, Relation(m, n, ((1 << n) - 1,) * m))
        p = BondingPair._of(identity_bond(k1), everything)
        message = "forward right adjoint and backward left adjoint disagree"
        assert self.agrees(p) == (ValidationError, message, (0,))

    @staticmethod
    def seeded_relation(rng, A: Classification, B: Classification, kind: str) -> Relation:
        """A relation of the shape of a bond from ``A`` to ``B``: seeded
        (``raw``), its ``close_to_bond`` closure (``closed``), or that
        closure with one bit flipped (``flipped``)."""
        m, n = len(B.instances), len(A.types)
        rel = random_relation(rng, m, n)
        if kind == "raw":
            return rel
        rel = close_to_bond(A, B, rel)
        if kind == "flipped" and m and n:
            rows = list(rel.rows)
            rows[rng.randrange(m)] ^= 1 << rng.randrange(n)
            rel = Relation(m, n, tuple(rows))
        return rel

    def test_agrees_on_seeded_unchecked_pairs(self):
        """600 unchecked pairs between seeded contexts up to 3x3, each bond
        raw, closed or closed with one bit flipped; in one pair of four the
        backward bond joins two other contexts of the same shapes.  They
        reach every outcome: a hom, a forward or a backward relation that is
        no bond, at a source concept's image or a target concept's
        preimage, two adjoints that disagree, and, where the backward bond
        joins other contexts, adjoints that agree on a map that is no
        complete homomorphism of the forward bond's lattices."""
        rng = random.Random(51)
        kinds = ("raw", "closed", "flipped")
        seen = collections.Counter()
        for _ in range(600):
            A, B = (random_context(rng, rng.randint(0, 3), rng.randint(0, 3)) for _ in "AB")
            B2, A2 = B, A
            if rng.random() < 0.25:
                B2, A2 = (random_context(rng, *K.incidence.shape) for K in (B, A))
            F = Bond._of(A, B, self.seeded_relation(rng, A, B, rng.choice(kinds)))
            G = Bond._of(B2, A2, self.seeded_relation(rng, B2, A2, rng.choice(kinds)))
            got = self.agrees(BondingPair._of(F, G))
            seen[got[1].split(" concept")[0] if got[0] is ValidationError else "hom"] += 1
        assert set(seen) == {
            "hom",
            "relation is not a bond: the image of the source",
            "relation is not a bond: the preimage of the target",
            "forward right adjoint and backward left adjoint disagree",
            "not a complete homomorphism: bottom is not preserved",
        }, seen

    def test_a_parsed_spread_pair_pulls_back_each_batch_once(self, monkeypatch):
        """On the parsed spread pair of ``boolean_hom(5, 3, (4, 1, 2))``,
        after ``is_bonding_pair``, ``hom_of_pair`` pulls the target's up-sets
        and down-sets back along ``psi`` once each, in the hom's check, and
        checks no ``ConceptLatticeMorphism``.  The oracle, on the same pair,
        checks two, and pulls the up-sets back along ``psi`` twice, in the
        forward pair's check and in the hom's, so the patches are seen to
        count."""
        q = TestPairRoundtripByResiduals.parsed(pair_of_hom(boolean_hom(5, 3, (4, 1, 2))))
        assert is_bonding_pair(q.forward, q.backward)
        batches = collections.Counter()
        original_pullback = relalg.pullback
        original_check = functors.check_lattice_morphism

        def counted_pullback(rows, cols, psi):
            batches[tuple(rows), psi.targets] += 1
            return original_pullback(rows, cols, psi)

        def counted_check(m):
            batches["check_lattice_morphism"] += 1
            return original_check(m)

        for module in (relalg, functors):
            monkeypatch.setattr(module, "pullback", counted_pullback)
        monkeypatch.setattr(functors, "check_lattice_morphism", counted_check)
        h = hom_of_pair(q)
        K = h.target
        assert batches == {(K.intents, h.psi.targets): 1, (K.extents, h.psi.targets): 1}
        batches.clear()
        hom_by_adjoint_pairs_oracle(q)
        assert batches["check_lattice_morphism"] == 2
        assert batches[K.intents, h.psi.targets] == 2


class TestEmbeddingBondsByIdentities:
    """``embedding_bonds`` checks the pair by the derivation identities of a
    concept lattice and validates neither bond; ``embedding_bonds_oracle``
    validates both bonds by ``is_bond`` and compares both composites."""

    def test_every_context_up_to_3x3(self):
        for A in all_contexts(3, 3):
            got = embedding_bonds(A)
            assert got == embedding_bonds_oracle(A)
            for bond in got:
                assert is_bond(bond.source, bond.target, bond.rel)

    def test_the_verify_corpus_and_the_order_of_2_7(self):
        """The contexts of the verify corpus of seed 7 at size 3, the first
        seed of the verify benchmark, and the order classification of 2^7."""
        corpus = [A for _, A in verify.context_corpus(3, random.Random(7))]
        for contexts in (corpus, [context_inputs()["order of 2^7"]]):
            got = [embedding_bonds(A) for A in contexts]
            assert got == [embedding_bonds_oracle(A) for A in contexts]

    @staticmethod
    def self_numbered(k: int) -> Classification:
        """The order classification of the boolean lattice 2^k, numbered as
        its own concept lattice."""
        L = concept_lattice_of(contranominal_classification(k))
        return complete_lattice_of(L).classification

    def test_equal_bonds_are_one_bond(self):
        """``embedding_bonds`` returns one bond twice exactly when the
        oracle's two bonds are equal: on the self-numbered order
        classifications of 2^2 to 2^7, the last three those of
        ``context_inputs``, and on no context up to 3x3 nor any order
        classification of a lattice of up to 5 elements renumbered by a
        permutation that its concept lattice does not keep.  Everywhere the
        bonds equal the oracle's."""
        for k in range(2, 8):
            A = self.self_numbered(k)
            assert k < 5 or A == context_inputs()[f"order of 2^{k}"]
            instance_bond, type_bond = embedding_bonds(A)
            assert instance_bond is type_bond
            assert (instance_bond, type_bond) == embedding_bonds_oracle(A)
        outcomes = collections.Counter()
        renumbered = [
            Classification(labels, labels, relabelled(L.order, perm))
            for L in small_lattices()
            for labels in [tuple(f"c{i}" for i in range(L.size))]
            for perm in itertools.permutations(range(L.size))
        ]
        for A in [*all_contexts(3, 3), *renumbered]:
            got = embedding_bonds(A)
            expected = embedding_bonds_oracle(A)
            assert got == expected
            outcomes[got[0] is got[1], expected[0] == expected[1]] += 1
        assert set(outcomes) == {(False, False), (True, True)}

    @staticmethod
    def skews(L: ConceptLattice):
        """``L`` with the extents of two concepts swapped, for each pair, and
        with one concept dropped, for each concept but the first, over the
        same classification."""
        c = L.concepts
        for i, j in itertools.combinations(range(L.size), 2):
            swapped = list(c)
            swapped[i], swapped[j] = c[i]._replace(extent=c[j].extent), c[j]._replace(
                extent=c[i].extent
            )
            yield ConceptLattice(tuple(swapped), L.classification)
        for k in range(1, L.size):
            yield ConceptLattice(c[:k] + c[k + 1:], L.classification)

    @staticmethod
    def raises(monkeypatch, A: Classification, L: ConceptLattice) -> tuple[bool, bool]:
        """Whether ``embedding_bonds`` and its oracle raise on ``A`` when
        ``concept_lattice_of`` gives ``L`` for it."""
        genuine = functors.concept_lattice_of

        def raised(check) -> bool:
            try:
                check(A)
            except ValidationError:
                return True
            return False

        monkeypatch.setattr(functors, "concept_lattice_of", lambda K: L if K == A else genuine(K))
        outcome = raised(embedding_bonds), raised(embedding_bonds_oracle)
        monkeypatch.setattr(functors, "concept_lattice_of", genuine)
        return outcome

    def test_skewed_lattices_raise_where_the_oracle_does(self, monkeypatch):
        """Two skews: the two atoms of 2^2 with their extents swapped, which
        the identities catch and the oracle catches at a composite; and 2^2
        with an atom dropped, which both catch at the type;instance
        composite."""
        square = contranominal_classification(2)
        skews = list(self.skews(concept_lattice_of(square)))
        swapped_atoms, dropped_atom = skews[3], skews[-2]
        assert [c.extent for c in swapped_atoms.concepts] == [0b11, 0b10, 0b01, 0b00]
        assert [c.extent for c in dropped_atom.concepts] == [0b11, 0b01, 0b00]
        outcomes = [
            self.raises(monkeypatch, A, S)
            for A, S in ((square, swapped_atoms), (square, dropped_atom))
        ]
        assert outcomes == [(True, True), (True, True)]

    def test_every_skew_of_a_self_numbered_order_raises_where_the_oracle_does(
        self, monkeypatch
    ):
        """Every skew of ``skews`` of the lattice of the self-numbered order
        classification of 2^2, whose two embedding bonds are one: 9 of
        them, and both checks raise on each."""
        A = self.self_numbered(2)
        instance_bond, type_bond = embedding_bonds(A)
        assert instance_bond is type_bond
        seen = collections.Counter(
            self.raises(monkeypatch, A, S) for S in self.skews(concept_lattice_of(A))
        )
        assert seen == {(True, True): 9}

    def test_every_skew_up_to_2x3_raises_where_the_oracle_does(self, monkeypatch):
        """Every skew of ``skews`` of the lattice of each context up to 2x3:
        408 of them, and both checks raise on each."""
        seen = collections.Counter()
        for A in all_contexts(2, 3):
            for S in self.skews(concept_lattice_of(A)):
                seen[self.raises(monkeypatch, A, S)] += 1
        assert seen == {(True, True): 408}

    @pytest.mark.parametrize("holds", [pair_roundtrip_holds, bond_naturality_holds])
    def test_equal_endpoints_build_the_embeddings_once(self, monkeypatch, holds):
        """One ``embedding_bonds`` call when source and target are equal,
        two otherwise."""
        square = contranominal_classification(2)
        endo = pair_of_hom(boolean_hom(2, 2, (1, 0)))
        spread = pair_of_hom(boolean_hom(2, 1, (1,)))
        calls = []
        original = functors.embedding_bonds

        def counted(A):
            calls.append(A)
            return original(A)

        monkeypatch.setattr(functors, "embedding_bonds", counted)
        for arrow, expected in (
            (identity_bonding_pair(square), 1),
            (endo, 1),
            (spread, 2),
            (embedding_bonding_pairs(square)[0], 2),
        ):
            if holds is bond_naturality_holds:
                arrow = arrow.forward
            calls.clear()
            assert holds(arrow)
            assert len(calls) == expected


class TestOrderBondChecks:
    """Between order classifications of lattices, ``_order_bond_check`` is
    ``is_bond``, by verdict, reason and witness, and
    ``_order_pairing_check`` has the verdict of ``is_bonding_pair`` on two
    bonds."""

    def test_every_relation_between_lattices_of_contexts_up_to_2x3(self):
        """Every relation between the order classifications of two lattices
        of contexts up to 2x3, sizes multiplying to at most 16: 74,954
        relations, 63 of them bonds, and the 515 pairs of opposed bonds."""
        lattices = {}
        for A in all_contexts(2, 3):
            L = complete_lattice_of(concept_lattice_of(A))
            lattices.setdefault(L.order, L)
        bonds = collections.defaultdict(list)
        relations = 0
        for L, K in itertools.product(lattices.values(), repeat=2):
            m, n = K.size, L.size
            if m * n > 16:
                continue
            for code in range(1 << m * n):
                rel = Relation(m, n, tuple(code >> y * n & (1 << n) - 1 for y in range(m)))
                got = functors._order_bond_check(L, K, rel)
                assert got == is_bond(L.classification, K.classification, rel)
                relations += 1
                if got:
                    bonds[L, K].append(Bond(L.classification, K.classification, rel))
        pairs = 0
        for (L, K), forwards in bonds.items():
            for F, G in itertools.product(forwards, bonds.get((K, L), ())):
                got = functors._order_pairing_check(L, K, F, G)
                assert bool(got) == bool(is_bonding_pair(F, G))
                pairs += 1
        assert (relations, sum(map(len, bonds.values())), pairs) == (74_954, 63, 515)


class TestIrreducibility:
    def test_boolean_lattice_irreducibles(self):
        L = concept_lattice_of(contranominal_classification(3))
        assert meet_irreducibles(L).bit_count() == 3
        assert join_irreducibles(L).bit_count() == 3
        assert is_type_reduced(L)
        assert is_instance_reduced(L)

    def test_chain_context_not_type_reduced(self):
        # the greatest type's concept is the top, which is never
        # meet-irreducible
        L = concept_lattice_of(chain_classification(3))
        assert not is_type_reduced(L)

    def test_full_column_breaks_reducedness(self):
        wide = Classification.from_pairs(
            ("1", "2"), ("a", "b", "c"),
            [("1", "a"), ("2", "a"), ("2", "b"), ("1", "c"), ("2", "c")],
        )
        L = concept_lattice_of(wide)
        assert not is_type_reduced(L)
