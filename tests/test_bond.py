import itertools

import pytest

from conceptual.bond import (
    Bond,
    BondingPair,
    bond_of,
    bonds_equivalent,
    close_to_bond,
    collective_from_function,
    compose_bonding_pairs,
    compose_bonds,
    identity_bond,
    identity_bonding_pair,
    infomorphism_of,
    is_bond,
    is_bonding_pair,
)
from conceptual.classification import (
    Classification,
    contranominal_classification,
    dual,
    extent_of,
    instance_preorder,
    intent_of,
    type_preorder,
)
from conceptual.colimit import enumerate_infomorphisms
from conceptual.errors import ShapeError, ValidationError
from conceptual.infomorphism import (
    RelationalInfomorphism,
    fn2rel,
    instance_infomorphism,
)
from conceptual.lattice import concept_lattice_of
from conceptual.relalg import (
    FunctionGraph,
    Relation,
    bits,
    compose,
    left_residual,
    right_residual,
    transpose,
)

from conftest import RANDOM_SHAPES, all_contexts, identity_relational, random_context
from oracles import (
    collective_image_oracle,
    enumerate_relations,
    extent_oracle,
    intent_oracle,
    pointwise_pair_constraints,
    random_relation,
)


def random_bond(rng, A, B):
    seed = Relation(
        len(B.instances),
        len(A.types),
        tuple(rng.getrandbits(len(A.types)) for _ in range(len(B.instances))),
    )
    return Bond(A, B, close_to_bond(A, B, seed))


class TestIsBond:
    def test_identity_bond(self, k1):
        assert is_bond(k1, k1, k1.incidence)
        assert identity_bond(k1).rel == k1.incidence

    def test_full_relation_is_a_bond(self, k1):
        # full rows are the (vacuous) intent of the empty instance set,
        # full columns the extent of the empty type set
        assert is_bond(k1, k1, Relation.full(2, 2))

    def test_identity_bond_of_dual_is_transpose(self, k1, rng):
        for _ in range(5):
            K = random_context(rng, 3, 2)
            assert identity_bond(dual(K)).rel == transpose(identity_bond(K).rel)

    def test_one_bit_failure_names_a_witness(self, k1):
        candidate = Relation.from_pairs(2, 2, [(0, 1)])  # instance 1 only of type b
        verdict = is_bond(k1, k1, candidate)
        assert not verdict
        kind, label = verdict.witness
        assert kind in ("row", "column")

    def test_rows_are_intents_columns_are_extents(self, k1, rng):
        for _ in range(10):
            B = random_context(rng, 3, 3)
            F = random_bond(rng, k1, B)
            for row in F.rel.rows:
                assert intent_of(k1, extent_of(k1, row)) == row
            for col in transpose(F.rel).rows:
                assert extent_of(B, intent_of(B, col)) == col

    def test_order_closure(self, rng):
        for _ in range(10):
            A = random_context(rng, 3, 3)
            B = random_context(rng, 3, 3)
            F = random_bond(rng, A, B)
            pre_b = instance_preorder(B)
            pre_a = type_preorder(A)
            for b in range(3):
                for b2 in bits(pre_b.rows[b]):
                    # b <= b2 means b has the larger row
                    assert F.rel.rows[b2] & ~F.rel.rows[b] == 0
            for t in range(3):
                for t2 in bits(pre_a.rows[t]):
                    assert F.rel.columns[t] & ~F.rel.columns[t2] == 0

    def test_shape_check(self, k1, rng):
        with pytest.raises(ShapeError):
            is_bond(k1, k1, Relation.empty(3, 2))


def assert_views_are_residuals(F):
    """Each view of ``F`` equals the free residual it stands for, and
    ``images`` is also the transposed left residual ``adjoint_of_bond``
    reads it as."""
    LA, LB = concept_lattice_of(F.source), concept_lattice_of(F.target)
    assert F.r == right_residual(F.source.incidence, F.rel)
    assert F.s == left_residual(F.rel, F.target.incidence)
    assert F.images == right_residual(F.rel, LA.tau_rel)
    assert transpose(F.images) == left_residual(transpose(LA.tau_rel), transpose(F.rel))
    assert F.preimages == left_residual(LB.iota_rel, F.rel)
    assert F.preimage_extents == right_residual(F.source.incidence, F.preimages)


def bad_row_oracle(A, B, rel):
    """Witness and reason of the first row of ``rel`` that is not an intent
    of ``A``, by set derivation; ``None`` if every row is one."""
    for b in range(len(B.instances)):
        row = {t for t in range(len(A.types)) if rel.bit(b, t)}
        if intent_oracle(A, extent_oracle(A, row)) != row:
            label = B.instances[b]
            return ("row", label), f"row of {label!r} is not an intent of the source"
    return None


def bad_column_oracle(A, B, rel):
    """Dually, the first column that is not an extent of ``B``."""
    for t in range(len(A.types)):
        col = {b for b in range(len(B.instances)) if rel.bit(b, t)}
        if extent_oracle(B, intent_oracle(B, col)) != col:
            label = A.types[t]
            return ("column", label), f"column of {label!r} is not an extent of the target"
    return None


class TestBondViews:
    def test_every_bond_up_to_2x2(self):
        contexts = list(all_contexts(2, 2))
        bonds = 0
        for A in contexts:
            for B in contexts:
                for rel in enumerate_relations(len(B.instances), len(A.types)):
                    if is_bond(A, B, rel):
                        assert_views_are_residuals(Bond(A, B, rel))
                        bonds += 1
        assert bonds > 1000

    def test_random_bonds_and_unchecked_relations(self, rng):
        # close_to_bond results, and unchecked relations stored by Bond._of
        for m, n in RANDOM_SHAPES:
            for _ in range(3):
                A = random_context(rng, m, n)
                B = random_context(rng, rng.randint(0, 8), rng.randint(0, 8))
                assert_views_are_residuals(random_bond(rng, A, B))
                rel = random_relation(rng, len(B.instances), len(A.types))
                assert_views_are_residuals(Bond._of(A, B, rel))

    def test_rejection_matches_is_bond(self, rng):
        # every relation between random 3x3 contexts: the constructor raises
        # with is_bond's reason and witness, which the set-derivation
        # reference names; row failures, column failures and ties (both
        # fail, and the row is named) all occur
        kinds = set()
        for _ in range(4):
            A = random_context(rng, 3, 3)
            B = random_context(rng, 3, 3)
            for rel in enumerate_relations(3, 3):
                bad_row = bad_row_oracle(A, B, rel)
                bad_column = bad_column_oracle(A, B, rel)
                verdict = is_bond(A, B, rel)
                if bad_row is None and bad_column is None:
                    assert verdict and Bond(A, B, rel).rel == rel
                    continue
                witness, reason = bad_row or bad_column
                assert (verdict.witness, verdict.reason) == (witness, reason)
                with pytest.raises(ValidationError) as exc:
                    Bond(A, B, rel)
                assert str(exc.value) == f"relation is not a bond: {reason}"
                assert exc.value.witness == witness
                kinds.add((bad_row is not None, bad_column is not None))
        assert kinds == {(True, False), (False, True), (True, True)}


class TestBondOfInfomorphism:
    def test_identity_gives_identity_bond(self, k1):
        assert bond_of(identity_relational(k1)).rel == k1.incidence

    def test_fn2rel_of_eta_gives_a_bond(self, k1):
        F = bond_of(fn2rel(instance_infomorphism(k1)))
        assert is_bond(F.source, F.target, F.rel)

    def test_respects_dual(self, rng):
        for _ in range(6):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            for m in itertools.islice(enumerate_infomorphisms(A, B), 3):
                rel = fn2rel(m)
                dual_rel = RelationalInfomorphism(
                    dual(rel.target), dual(rel.source), transpose(rel.s), transpose(rel.r)
                )
                assert bond_of(dual_rel).rel == transpose(bond_of(rel).rel)

    def test_invalid_input_rejected(self, k1):
        bad = RelationalInfomorphism._of(k1, k1, Relation.full(2, 2), Relation.empty(2, 2))
        with pytest.raises(ValidationError):
            bond_of(bad)


class TestInfomorphismOfBond:
    def test_identity_bond_gives_preorder_pair(self, k1):
        m = infomorphism_of(identity_bond(k1))
        assert m.r == instance_preorder(k1)
        assert m.s == type_preorder(k1)

    def test_roundtrip_on_random_bonds(self, rng):
        for _ in range(12):
            A = random_context(rng, 3, 3)
            B = random_context(rng, 3, 3)
            F = random_bond(rng, A, B)
            m = infomorphism_of(F)
            assert bond_of(m).rel == F.rel

    def test_degenerate_zero_instance_target(self, k1):
        empty = Classification((), ("t",), Relation.empty(0, 1))
        F = Bond(k1, empty, Relation.empty(0, 2))
        m = infomorphism_of(F)
        assert bond_of(m).rel == F.rel


class TestComposition:
    def test_unit_laws(self, k1, rng):
        for _ in range(8):
            B = random_context(rng, 3, 3)
            F = random_bond(rng, k1, B)
            assert compose_bonds(identity_bond(k1), F) == F
            assert compose_bonds(F, identity_bond(B)) == F

    def test_two_formulas_agree(self, rng):
        for _ in range(10):
            A = random_context(rng, rng.randint(1, 4), rng.randint(1, 4))
            B = random_context(rng, rng.randint(1, 4), rng.randint(1, 4))
            C = random_context(rng, rng.randint(1, 4), rng.randint(1, 4))
            F = random_bond(rng, A, B)
            G = random_bond(rng, B, C)
            composite = compose_bonds(F, G)
            other = right_residual(G.rel, left_residual(F.rel, B.incidence))
            assert composite.rel == other

    def test_pointwise_formula(self, rng):
        # (c, t) in F;G iff the F-column of t contains the B-closure of the
        # G-row of c
        for _ in range(10):
            A = random_context(rng, 3, 3)
            B = random_context(rng, 3, 3)
            C = random_context(rng, 3, 3)
            F = random_bond(rng, A, B)
            G = random_bond(rng, B, C)
            composite = compose_bonds(F, G)
            for c in range(3):
                derived = extent_of(B, G.rel.rows[c])
                for t in range(3):
                    expected = derived & ~F.rel.columns[t] == 0
                    assert composite.rel.bit(c, t) == expected

    def test_associativity(self, rng):
        for _ in range(8):
            A = random_context(rng, 2, 3)
            B = random_context(rng, 3, 2)
            C = random_context(rng, 2, 2)
            D = random_context(rng, 3, 3)
            F = random_bond(rng, A, B)
            G = random_bond(rng, B, C)
            H = random_bond(rng, C, D)
            assert compose_bonds(compose_bonds(F, G), H) == compose_bonds(
                F, compose_bonds(G, H)
            )

    def test_bond_of_composite_is_composite_of_bonds(self, rng):
        for _ in range(5):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            C = random_context(rng, 2, 2)
            for m1 in itertools.islice(enumerate_infomorphisms(A, B), 3):
                for m2 in itertools.islice(enumerate_infomorphisms(B, C), 3):
                    r1, r2 = fn2rel(m1), fn2rel(m2)
                    from conceptual.infomorphism import compose_relational

                    lhs = bond_of(compose_relational(r1, r2))
                    rhs = compose_bonds(bond_of(r1), bond_of(r2))
                    assert lhs == rhs


class TestEquivalence:
    def test_canonical_representative(self, rng):
        for _ in range(8):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            for m in itertools.islice(enumerate_infomorphisms(A, B), 3):
                rel = fn2rel(m)
                assert bonds_equivalent(rel, infomorphism_of(bond_of(rel)))

    def test_identity_equivalent_to_order_pair(self, k1):
        ident = identity_relational(k1)
        orders = RelationalInfomorphism(
            k1, k1, instance_preorder(k1), type_preorder(k1)
        )
        assert bonds_equivalent(ident, orders)

    def test_inequivalent_witness(self, k1):
        ident = identity_relational(k1)
        empty = RelationalInfomorphism(
            k1, k1, Relation.empty(2, 2), Relation.empty(2, 2)
        )
        assert not bonds_equivalent(ident, empty)


class TestCloseToBond:
    def test_result_is_a_bond_and_contains_seed(self, rng):
        for _ in range(15):
            A = random_context(rng, 3, 3)
            B = random_context(rng, 3, 3)
            seed = Relation(3, 3, tuple(rng.getrandbits(3) for _ in range(3)))
            closed = close_to_bond(A, B, seed)
            assert is_bond(A, B, closed)
            for s_row, c_row in zip(seed.rows, closed.rows):
                assert s_row & ~c_row == 0

    def test_least_bond_above_seed(self, rng):
        # exhaustively on a tiny pair: the closure is contained in every bond
        # that contains the seed
        A = random_context(rng, 2, 2)
        B = random_context(rng, 2, 2)
        bonds = [
            rel for rel in enumerate_relations(2, 2) if is_bond(A, B, rel)
        ]
        for seed in enumerate_relations(2, 2):
            closed = close_to_bond(A, B, seed)
            for bond_rel in bonds:
                if all(s & ~b == 0 for s, b in zip(seed.rows, bond_rel.rows)):
                    assert all(
                        c & ~b == 0 for c, b in zip(closed.rows, bond_rel.rows)
                    )


class TestBondingPairs:
    def test_identity_pair(self, k1):
        p = identity_bonding_pair(k1)
        assert is_bonding_pair(p.forward, p.backward)

    def test_pointwise_and_categorical_agree(self, k1, rng):
        # the verdict agrees with the pointwise reference, a failure's witness
        # names the first concept the reference flags, and its reason the
        # constraint that fails at that concept, the first if both do; a
        # counterexample where the second fails at the witness and the first
        # only later, k1 against contranominal 2, then random contexts with
        # empty carriers.  Between bonds the two constraints fail at the same
        # concepts; between unchecked relations, every other pair, they can
        # fail apart
        A = Classification(("i0", "i1", "i2"), ("t0",), Relation.from_matrix([[0], [1], [0]]))
        B = Classification(
            ("i0", "i1"), ("t0", "t1", "t2"), Relation.from_matrix([[0, 1, 1], [1, 1, 0]])
        )
        F = Bond._of(A, B, Relation.from_matrix([[1], [0]]))
        G = Bond._of(B, A, Relation.from_matrix([[0, 0, 1], [1, 0, 0], [0, 1, 0]]))
        assert pointwise_pair_constraints(F, G) == [(False, True), (True, True)]
        unchecked = [(F, G)]
        pairs = [(k1, contranominal_classification(2))] * 30 + [
            tuple(random_context(rng, rng.randint(0, 4), rng.randint(0, 4)) for _ in range(2))
            for _ in range(80)
        ]
        for k, (A, B) in enumerate(pairs):
            if k % 2:
                F = Bond._of(A, B, random_relation(rng, len(B.instances), len(A.types)))
                G = Bond._of(B, A, random_relation(rng, len(A.instances), len(B.types)))
            else:
                F = random_bond(rng, A, B)
                G = random_bond(rng, B, A)
            unchecked.append((F, G))
        reasons = []
        for F, G in unchecked:
            verdict = is_bonding_pair(F, G)
            flags = pointwise_pair_constraints(F, G)
            failing = [first or second for first, second in flags]
            assert bool(verdict) == (not any(failing))
            if not verdict:
                LA = concept_lattice_of(F.source)
                at = failing.index(True)
                c = LA.concepts[at]
                assert verdict.witness == ("concept", LA.extent_labels(c), LA.intent_labels(c))
                which = "first" if flags[at][0] else "second"
                assert verdict.reason == f"{which} pairing constraint fails"
                reasons.append(which)
        assert reasons[0] == "second"
        assert set(reasons) == {"first", "second"}

    def test_non_paired_bonds_fail_with_concept_witness(self, k1, rng):
        other = contranominal_classification(2)
        found = False
        for _ in range(50):
            F = random_bond(rng, k1, other)
            G = random_bond(rng, other, k1)
            verdict = is_bonding_pair(F, G)
            if not verdict:
                found = True
                assert verdict.witness[0] == "concept"
                break
        assert found

    def test_compose_units(self, k1, rng):
        other = contranominal_classification(2)
        pairs = _some_pairs(k1, other, rng)
        for p in pairs:
            assert compose_bonding_pairs(identity_bonding_pair(k1), p) == p
            assert compose_bonding_pairs(p, identity_bonding_pair(other)) == p

    def test_compose_associativity(self, k1, rng):
        other = contranominal_classification(2)
        ps = _some_pairs(k1, other, rng)
        qs = _some_pairs(other, k1, rng)
        for p1 in ps[:2]:
            for p2 in qs[:2]:
                for p3 in ps[:2]:
                    lhs = compose_bonding_pairs(compose_bonding_pairs(p1, p2), p3)
                    rhs = compose_bonding_pairs(p1, compose_bonding_pairs(p2, p3))
                    assert lhs == rhs

    def test_collective_image(self, k1):
        # the image of a collective concept, the bond F into its index
        # scale, along a bonding pair p is compose_bonds(p.backward, F)
        LA = concept_lattice_of(k1)
        p = identity_bonding_pair(k1)
        basic = Bond(k1, contranominal_classification(LA.size), LA.tau_rel)
        image = compose_bonds(p.backward, basic)
        assert is_bond(k1, image.target, image.rel)
        assert (image.r, image.rel) == collective_image_oracle(p, LA.iota_rel, LA.tau_rel)
        # the identity pair fixes an already-closed collective concept
        assert image == basic and image.r == LA.iota_rel

    def test_collective_image_two_step_factorization(self, k1, rng):
        LA = concept_lattice_of(k1)
        other = contranominal_classification(2)
        pairs = _some_pairs(k1, other, rng)[:3]
        basic = Bond(k1, contranominal_classification(LA.size), LA.tau_rel)
        for p in pairs:
            basic_image = compose_bonds(p.backward, basic)
            for targets in itertools.product(range(LA.size), repeat=2):
                f = FunctionGraph.from_targets(targets, LA.size)
                c = collective_from_function(LA, f)
                direct = compose_bonds(p.backward, c)
                assert is_bond(other, direct.target, direct.rel)
                assert (direct.r, direct.rel) == collective_image_oracle(p, c.r, c.rel)
                assert direct.r == compose(basic_image.r, transpose(f.rel))
                assert direct.rel == compose(f.rel, basic_image.rel)


def _some_pairs(A, B, rng):
    """Bonding pairs A <-> B found by pairing random bonds."""
    out = []
    for _ in range(60):
        F = random_bond(rng, A, B)
        G = random_bond(rng, B, A)
        if is_bonding_pair(F, G):
            out.append(BondingPair(F, G))
        if len(out) >= 4:
            break
    assert out, "no bonding pairs found for the test corpus"
    return out
