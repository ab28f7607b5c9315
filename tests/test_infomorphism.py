import itertools

import pytest

from conceptual.classification import (
    antichain_classification,
    dual,
    extent_of,
    instance_preorder,
    type_preorder,
)
from conceptual.colimit import enumerate_infomorphisms
from conceptual.errors import ShapeError, ValidationError
from conceptual.infomorphism import (
    FunctionalInfomorphism,
    RelationalInfomorphism,
    check_functional,
    check_relational,
    compose_functional,
    compose_relational,
    dual_functional,
    fn2rel,
    identity_functional,
    identity_relational,
    instance_infomorphism,
)
from conceptual.relalg import FunctionGraph, Relation, identity, left_residual

from conftest import random_context


def violates(m, b, t):
    lhs = m.source.incidence.bit(m.f(b), t)
    rhs = m.target.incidence.bit(b, m.g(t))
    return lhs != rhs


class TestFunctional:
    def test_identity_is_valid(self, k1):
        assert check_functional(identity_functional(k1))

    def test_instance_infomorphism_valid(self, k1):
        eta = instance_infomorphism(k1)
        assert check_functional(eta)
        # the type map is extent-of
        assert eta.target.types[eta.g(0)] == "{1,2}"
        assert eta.target.types[eta.g(1)] == "{2}"

    def test_swapped_types_fail_with_genuine_witness(self, k1):
        m = FunctionalInfomorphism._of(
            k1,
            k1,
            FunctionGraph.identity(2),
            FunctionGraph.from_targets((1, 0), 2),
        )
        verdict = check_functional(m)
        assert not verdict
        b_label, t_label = verdict.witness
        b = k1.instance_index[b_label]
        t = k1.type_index[t_label]
        assert violates(m, b, t)

    def test_eager_validation_raises(self, k1):
        with pytest.raises(ValidationError):
            FunctionalInfomorphism(
                k1, k1, FunctionGraph.identity(2), FunctionGraph.from_targets((1, 0), 2)
            )

    def test_shape_check(self, k1):
        with pytest.raises(ShapeError):
            FunctionalInfomorphism(
                k1, k1, FunctionGraph.identity(3), FunctionGraph.identity(2)
            )

    def test_compose_units(self, k1, rng):
        eta = instance_infomorphism(k1)
        assert compose_functional(identity_functional(k1), eta) == eta
        assert compose_functional(eta, identity_functional(eta.target)) == eta

    def test_compose_associative_by_enumeration(self, rng):
        for _ in range(4):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            C = random_context(rng, 2, 2)
            ms1 = list(itertools.islice(enumerate_infomorphisms(A, B), 3))
            ms2 = list(itertools.islice(enumerate_infomorphisms(B, C), 3))
            ms3 = list(itertools.islice(enumerate_infomorphisms(C, A), 3))
            for m1, m2, m3 in itertools.product(ms1, ms2, ms3):
                assert compose_functional(compose_functional(m1, m2), m3) == (
                    compose_functional(m1, compose_functional(m2, m3))
                )

    def test_compose_with_eta_stays_valid(self, rng):
        for _ in range(5):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 3, 2)
            for m in itertools.islice(enumerate_infomorphisms(A, B), 4):
                composite = compose_functional(m, instance_infomorphism(B))
                assert check_functional(composite)

    def test_endpoint_mismatch(self, k1, rng):
        other = random_context(rng, 3, 3)
        with pytest.raises(ShapeError):
            compose_functional(identity_functional(k1), identity_functional(other))


class TestDualFunctional:
    def test_identity_dualizes_to_identity(self, k1):
        assert dual_functional(identity_functional(k1)) == identity_functional(dual(k1))

    def test_dual_of_eta_is_valid(self, k1):
        assert check_functional(dual_functional(instance_infomorphism(k1)))

    def test_involution(self, rng):
        for _ in range(5):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            for m in itertools.islice(enumerate_infomorphisms(A, B), 4):
                assert dual_functional(dual_functional(m)) == m


class TestRelational:
    def test_identity_valid_with_incidence_bond(self, k1):
        m = identity_relational(k1)
        assert check_relational(m)
        assert left_residual(m.r, k1.incidence) == k1.incidence

    def test_empty_relations_valid(self, k1):
        m = RelationalInfomorphism(
            k1, k1, Relation.empty(2, 2), Relation.empty(2, 2)
        )
        assert check_relational(m)
        assert left_residual(m.r, k1.incidence) == Relation.full(2, 2)

    def test_fn2rel_always_valid(self, rng):
        for _ in range(6):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            for m in itertools.islice(enumerate_infomorphisms(A, B), 5):
                rel = fn2rel(m)
                assert check_relational(rel)
                # the bond is the biconditional relation of the original
                from conceptual.relalg import compose

                assert left_residual(rel.r, A.incidence) == compose(
                    m.f.rel, A.incidence
                )

    def test_fn2rel_of_identity_is_preorder_pair(self, k1):
        m = fn2rel(identity_functional(k1))
        assert m.r == instance_preorder(k1)
        assert m.s == type_preorder(k1)

    def test_fn2rel_identity_strictness_on_antichain(self):
        K = antichain_classification(3)
        assert fn2rel(identity_functional(K)) == identity_relational(K)

    def test_fn2rel_preserves_composition(self, rng):
        for _ in range(4):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            C = random_context(rng, 2, 2)
            for m1 in itertools.islice(enumerate_infomorphisms(A, B), 3):
                for m2 in itertools.islice(enumerate_infomorphisms(B, C), 3):
                    assert fn2rel(compose_functional(m1, m2)) == compose_relational(
                        fn2rel(m1), fn2rel(m2)
                    )

    def test_compose_units_and_associativity(self, k1, rng):
        m = fn2rel(instance_infomorphism(k1))
        idA = identity_relational(k1)
        idB = identity_relational(m.target)
        assert compose_relational(idA, m) == m
        assert compose_relational(m, idB) == m
        for _ in range(4):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            C = random_context(rng, 2, 2)
            ms1 = [fn2rel(x) for x in itertools.islice(enumerate_infomorphisms(A, B), 2)]
            ms2 = [fn2rel(x) for x in itertools.islice(enumerate_infomorphisms(B, C), 2)]
            ms3 = [fn2rel(x) for x in itertools.islice(enumerate_infomorphisms(C, A), 2)]
            for m1, m2, m3 in itertools.product(ms1, ms2, ms3):
                assert compose_relational(compose_relational(m1, m2), m3) == (
                    compose_relational(m1, compose_relational(m2, m3))
                )

    def test_four_formulations_agree(self, rng):
        # pointwise, set-lifted, and residuation forms of the property
        for _ in range(10):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            r = Relation(2, 2, (rng.getrandbits(2), rng.getrandbits(2)))
            s = Relation(2, 2, (rng.getrandbits(2), rng.getrandbits(2)))
            m = RelationalInfomorphism._of(A, B, r, s)
            residual_form = bool(check_relational(m))
            pointwise = all(
                _pointwise_ok(m, b, t) for b in range(2) for t in range(2)
            )
            set_lifted = all(
                _set_lifted_ok(m, bs, ts) for bs in range(4) for ts in range(4)
            )
            assert residual_form == pointwise == set_lifted


def _pointwise_ok(m, b, t):
    rb = {a for a in range(len(m.source.instances)) if m.r.bit(a, b)}
    ts = {u for u in range(len(m.target.types)) if m.s.bit(t, u)}
    lhs = all(m.source.incidence.bit(a, t) for a in rb)
    rhs = all(m.target.incidence.bit(b, u) for u in ts)
    return lhs == rhs


def _set_lifted_ok(m, b_mask, t_mask):
    r_image = 0
    for b in range(2):
        if b_mask >> b & 1:
            for a in range(2):
                if m.r.bit(a, b):
                    r_image |= 1 << a
    s_image = 0
    for t in range(2):
        if t_mask >> t & 1:
            for u in range(2):
                if m.s.bit(t, u):
                    s_image |= 1 << u
    lhs = r_image & ~extent_of(m.source, t_mask) == 0
    rhs = s_image & ~_common_types(m.target, b_mask) == 0
    return lhs == rhs


def _common_types(K, instance_mask):
    from conceptual.classification import intent_of

    return intent_of(K, instance_mask)
