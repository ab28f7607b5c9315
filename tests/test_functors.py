import collections
import itertools
import json
import random
import sys
from types import SimpleNamespace

import pytest

from conceptual import functors, relalg
from conceptual.bond import (
    Bond,
    BondingPair,
    compose_bonds,
    identity_bond,
    identity_bonding_pair,
    is_bonding_pair,
)
from conceptual.classification import (
    Classification,
    chain_classification,
    contranominal_classification,
    extent_of,
    incidence_residual,
)
from conceptual.colimit import enumerate_infomorphisms
from conceptual.errors import ShapeError, ValidationError
from conceptual.functors import (
    AdjointPair,
    CompleteHomomorphism,
    CompleteLattice,
    abstract_concept_lattice,
    adjoint_of_bond,
    adjoint_roundtrip_holds,
    bond_naturality_holds,
    bond_of_adjoint,
    canonical_adjoints,
    check_adjoint,
    classification_of_lattice,
    complete_lattice_of,
    compose_adjoints,
    compose_homs,
    compose_lattice_morphisms,
    down_up_witness,
    embedding_bonding_pairs,
    embedding_bonds,
    hom_of_pair,
    hom_roundtrip_holds,
    identity_adjoint,
    identity_hom,
    identity_lattice_morphism,
    is_complete_homomorphism,
    is_instance_reduced,
    is_type_reduced,
    join_irreducibles,
    lattice_classification,
    lattice_equivalence_witness,
    lattice_of_morphism,
    meet_irreducibles,
    morphism_of_lattice_morphism,
    pair_of_hom,
    pair_roundtrip_holds,
)
from conceptual.infomorphism import (
    compose_functional,
    identity_functional,
    instance_infomorphism,
)
from conceptual.io import dumps, morphism_from_obj, morphism_to_obj
from conceptual.lattice import concept_lattice_of
from conceptual.relalg import FunctionGraph, Relation, bits, left_residual, right_residual

from conftest import BOWTIE, all_contexts, order_from_covers, random_context
from oracles import (
    adjoint_masks_oracle,
    adjoint_oracle,
    complete_hom_oracle,
    inf_oracle,
    lattice_order_oracle,
    random_relation,
    sup_oracle,
)
from test_bond import random_bond


PENTAGON = order_from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])
DIAMOND = order_from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def chain_lattice(n):
    labels = tuple(str(i) for i in range(n))
    rows = tuple(((1 << n) - 1) >> i << i for i in range(n))
    return CompleteLattice(labels, Relation(n, n, rows))


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
            ref = SimpleNamespace(order=L.leq, size=L.size)
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
                    assert CompleteLattice(labels, leq).leq == leq
                    outcomes["lattice"] += 1
                    continue
                mask = 1 << pair[0] | 1 << pair[1]
                with pytest.raises(ValidationError) as exc:
                    CompleteLattice(labels, leq)
                assert str(exc.value) == f"no meet for element set {mask:#x}"
                assert exc.value.witness == (mask,)
                outcomes["pair"] += 1
        assert sum(outcomes.values()) == 4166 and all(outcomes.values()), outcomes

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
                        assert CompleteLattice(labels, leq).leq == leq
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
        with pytest.raises(ValidationError, match="no meet for element set 0x18"):
            CompleteLattice(tuple("0abcd1"), BOWTIE)


class TestFunctionalEquivalence:
    def test_identity_maps_to_identity(self, k1):
        L = concept_lattice_of(k1)
        assert lattice_of_morphism(identity_functional(k1)) == identity_lattice_morphism(L)

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
        assert w.forward.is_identity() and w.backward.is_identity()

    def test_witness_on_abstract_chain(self):
        L = abstract_concept_lattice(chain_lattice(3))
        w = lattice_equivalence_witness(L)
        # elements map to their principal down/up-set concepts
        for x in range(3):
            c = w.rebuilt.concepts[w.backward(x)]
            assert c.extent == L.concepts[x].extent
            assert c.intent == L.concepts[x].intent

    def test_witness_on_contranominal(self):
        L = concept_lattice_of(contranominal_classification(3))
        w = lattice_equivalence_witness(L)
        assert w.rebuilt.size == 8

    def test_witness_with_non_injective_embeddings(self):
        from conceptual.lattice import assemble_lattice

        order = Relation.from_matrix([[1, 1], [0, 1]])
        iota = FunctionGraph.from_targets((1, 1), 2)
        tau = FunctionGraph.from_targets((0,), 2)
        L = assemble_lattice(order, ("a0", "a1"), ("t",), iota, tau)
        w = lattice_equivalence_witness(L)
        assert w.rebuilt.size == 2


class TestRelationalEquivalence:
    def test_identity_bond_gives_identity_adjoint(self, k1):
        p = adjoint_of_bond(identity_bond(k1))
        assert p == identity_adjoint(complete_lattice_of(concept_lattice_of(k1)))

    def test_adjoint_functorial(self, k1, rng):
        B = contranominal_classification(2)
        C = chain_classification(2)
        for _ in range(6):
            F = random_bond(rng, k1, B)
            G = random_bond(rng, B, C)
            lhs = adjoint_of_bond(compose_bonds(F, G))
            rhs = compose_adjoints(adjoint_of_bond(F), adjoint_of_bond(G))
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

    def test_bond_of_identity_adjoint_is_order(self):
        L = chain_lattice(3)
        F = bond_of_adjoint(identity_adjoint(L))
        assert F.rel == L.leq

    def test_bond_functor_preserves_composition(self, rng):
        for _ in range(5):
            A = random_context(rng, 2, 2)
            p1 = adjoint_of_bond(random_bond(rng, A, A))
            p2 = adjoint_of_bond(random_bond(rng, A, A))
            if p1.target == p2.source:
                lhs = bond_of_adjoint(compose_adjoints(p1, p2))
                rhs = compose_bonds(bond_of_adjoint(p1), bond_of_adjoint(p2))
                assert lhs == rhs

    def test_adjoint_roundtrip(self, k1, rng):
        B = contranominal_classification(2)
        for _ in range(6):
            F = random_bond(rng, k1, B)
            assert adjoint_roundtrip_holds(adjoint_of_bond(F))

    def test_embedding_bonds_examples(self, k1):
        embedding_bonds(k1)
        embedding_bonds(contranominal_classification(2))
        one = Classification(("x",), ("t",), Relation.full(1, 1))
        embedding_bonds(one)

    def test_embedding_composites_are_compose_bonds(self):
        # embedding_bonds compares each composite, as a relation, with an
        # identity incidence: the relation of the validated composite bond
        for K in all_contexts(3, 3):
            emb = embedding_bonds(K)
            inst, typ = emb.instance_bond, emb.type_bond
            there = left_residual(typ.r, inst.rel)
            back = left_residual(inst.r, typ.rel)
            assert there == compose_bonds(inst, typ).rel == emb.order_classification.incidence
            assert back == compose_bonds(typ, inst).rel == K.incidence

    def test_adjoint_of_bond_matches_set_derivation(self, rng):
        # on closed bonds and, every other time, on unchecked relations, the
        # outcome is that of the pair built from the set-derivation masks:
        # the pair itself, or the KeyError of the first mask that is no
        # extent (psi, first) or no intent (phi).  Derivation along any
        # relation is a Galois connection, so well-defined maps are adjoint
        def outcome(build):
            try:
                return build()
            except (KeyError, ValidationError) as e:
                return type(e), str(e), getattr(e, "witness", None)

        kinds = set()
        for k in range(120):
            A, B = (random_context(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2))
            if k % 2:
                rel = random_relation(rng, len(B.instances), len(A.types))
                F = Bond(A, B, rel, validate=False)
            else:
                F = random_bond(rng, A, B)
            LA, LB = concept_lattice_of(A), concept_lattice_of(B)
            psi, phi = adjoint_masks_oracle(F)

            def reference():
                psi_fn = FunctionGraph.from_targets([LB.extent_index[e] for e in psi], LB.size)
                phi_fn = FunctionGraph.from_targets([LA.intent_index[t] for t in phi], LA.size)
                return AdjointPair(complete_lattice_of(LA), complete_lattice_of(LB), phi_fn, psi_fn)

            expected = outcome(reference)
            assert outcome(lambda: adjoint_of_bond(F)) == expected
            kinds.add(expected[0] if isinstance(expected, tuple) else AdjointPair)
        assert kinds == {AdjointPair, KeyError}

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
        ident = lattice_classification(L).incidence
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
            ref = SimpleNamespace(order=L.leq, size=L.size)
            for psi_t in itertools.product(range(K.size), repeat=L.size):
                psi = FunctionGraph(psi_t, K.size)
                # the meet of {x : y <= psi(x)}, the only candidate value
                left = [
                    inf_oracle(ref, [x for x in range(L.size) if K.leq.bit(y, psi(x))])
                    for y in range(K.size)
                ]
                moved = list(left)
                y = rng.randrange(K.size)
                moved[y] = (moved[y] + 1) % L.size
                randomly = [rng.randrange(L.size) for _ in range(K.size)]
                for phi_t in (left, moved, randomly):
                    phi = FunctionGraph(tuple(phi_t), L.size)
                    expected = adjoint_oracle(L, K, phi, psi)
                    verdict = check_adjoint(AdjointPair(L, K, phi, psi, validate=False))
                    if expected is None:
                        assert verdict and AdjointPair(L, K, phi, psi).phi == phi
                        outcomes["adjoint"] += 1
                        continue
                    y, x = expected
                    assert not verdict
                    assert verdict.witness == (K.elements[y], L.elements[x])
                    with pytest.raises(ValidationError) as exc:
                        AdjointPair(L, K, phi, psi)
                    assert exc.value.witness == verdict.witness
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
            assert check_adjoint(AdjointPair(L, K, phi, psi))
            assert check_adjoint(AdjointPair(K, L, psi, theta))

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
        from conceptual.bond import compose_bonding_pairs

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
        from conceptual.bond import compose_bonding_pairs

        for h1 in hs1:
            for h2 in hs2:
                lhs = pair_of_hom(compose_homs(h1, h2))
                rhs = compose_bonding_pairs(pair_of_hom(h1), pair_of_hom(h2))
                assert lhs == rhs


class TestOrderLattice:
    """A lattice owns its order classification as a view, and residuals into
    any incidence, an order or not, go through one kernel."""

    def test_order_classification_is_a_view_of_the_lattice(self):
        L = complete_lattice_of(concept_lattice_of(contranominal_classification(3)))
        K = lattice_classification(L)
        bare = Classification(L.elements, L.elements, L.leq)
        assert lattice_classification(L) is K is L.classification
        assert K == bare and hash(K) == hash(bare) and repr(K) == repr(bare)
        assert concept_lattice_of(K) is concept_lattice_of(bare)

    def test_incidence_residual_is_the_kernel(self):
        """Order classifications of chains, the pentagon, the diamond and
        the 8-element boolean lattice, and random contexts with 0x3 and 3x0
        among them; rows empty, full, the incidence's own rows, down-sets or
        random."""
        rng = random.Random(13)
        lattices = (
            chain_lattice(1),
            chain_lattice(4),
            CompleteLattice(tuple("0abt1"), PENTAGON),
            CompleteLattice(tuple("0abc1"), DIAMOND),
            complete_lattice_of(concept_lattice_of(contranominal_classification(3))),
        )
        cases = [(lattice_classification(L), Relation(L.size, L.size, L.down)) for L in lattices]
        for m, n in ((0, 3), (3, 0), (4, 5), (6, 2)):
            cases.append((random_context(rng, m, n), random_relation(rng, 3, n)))
        for K, other in cases:
            n = len(K.types)
            for s in (
                Relation.empty(0, n),
                Relation.empty(2, n),
                Relation.full(2, n),
                K.incidence,
                other,
                random_relation(rng, 5, n),
            ):
                assert incidence_residual(K, s) == right_residual(K.incidence, s)

    def test_residual_shape_error_is_the_kernels(self):
        for K, s in (
            (chain_classification(3), Relation.empty(2, 4)),
            (random_context(random.Random(2), 0, 3), Relation.empty(1, 0)),
        ):
            with pytest.raises(ShapeError) as by_extents:
                incidence_residual(K, s)
            with pytest.raises(ShapeError) as by_kernel:
                right_residual(K.incidence, s)
            assert str(by_extents.value) == str(by_kernel.value)

    def test_embedding_bonds_divide_no_order_by_the_kernel(self, monkeypatch):
        """A 10x10 context at density .5, the shape of the benchmark's
        embedding pairs: every residual into an incidence, the context's or
        its lattice order's, is taken from extents, so the generic
        ``right_residual`` is never called."""
        A = random_context(random.Random(5), 10, 10)
        calls = []
        original = relalg.right_residual

        def recorded(t, s):
            calls.append(t)
            return original(t, s)

        for name, module in list(sys.modules.items()):
            if name.startswith("conceptual"):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, recorded)
        emb = embedding_bonds(A)
        assert emb.order_classification.incidence.src_size > 10
        assert calls == []


class TestDerivedViews:
    """A bonding pair owns its homomorphism and a homomorphism its pair,
    each built and checked once, neither seeded from the other."""

    @staticmethod
    def boolean_hom(a: int, b: int, f: tuple[int, ...]) -> CompleteHomomorphism:
        """Inverse image along the injection ``f: [b] -> [a]``, a complete
        homomorphism from the boolean lattice 2^a onto 2^b."""
        LA = concept_lattice_of(contranominal_classification(a))
        LB = concept_lattice_of(contranominal_classification(b))
        targets = tuple(
            LB.extent_index[sum(1 << y for y in range(b) if c.extent >> f[y] & 1)]
            for c in LA.concepts
        )
        return CompleteHomomorphism(
            complete_lattice_of(LA),
            complete_lattice_of(LB),
            FunctionGraph.from_targets(targets, LB.size),
        )

    def test_views_are_kept_and_not_seeded(self, k1):
        h = self.boolean_hom(3, 2, (2, 0))
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
        p = BondingPair(identity_bond(k1), everything, validate=False)
        raised = []
        for _ in range(2):
            with pytest.raises(ValidationError) as exc:
                hom_of_pair(p)
            raised.append((str(exc.value), exc.value.witness))
        assert raised[0] == raised[1]
        assert raised[0] == ("forward right adjoint and backward left adjoint disagree", (0,))

    def test_bonding_op_builds_each_view_once(self, monkeypatch):
        """The benchmark's ``bonding`` op on a parsed spread boolean hom: one
        pair of canonical adjoints, to spread the parsed pair's hom, and four
        bond adjoints, two for that hom and two for the spread pair's hom."""
        text = dumps(morphism_to_obj(pair_of_hom(self.boolean_hom(3, 2, (2, 0)))))
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
        assert calls == {"canonical_adjoints": 1, "adjoint_of_bond": 4}


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
