import collections
import itertools
import random

import pytest

from conceptual import colimit, functors
from conceptual.classification import (
    Classification,
    antichain_classification,
    chain_classification,
    contranominal_classification,
    dual,
    powerset_classification,
)
from conceptual.colimit import (
    DualInvariant,
    _by_restrictions,
    _enumerate_lattice_morphisms,
    apposition,
    check_coproduct_property,
    check_dual_invariant,
    coproduct_mediator,
    coproduct_sum,
    dual_quotient,
    enumerate_infomorphisms,
    fiber_initial,
    fiber_terminal,
    product,
    subposition,
    transport_coproduct,
)
from conceptual.errors import ShapeError, ValidationError
from conceptual.infomorphism import (
    check_functional,
    compose_functional,
    instance_infomorphism,
)
from conceptual.relalg import FunctionGraph, Relation, bits
from conceptual.report import VerificationReport

import oracles
from conftest import duplicated_instance_sum, random_context


class TestSum:
    def test_type_count_is_disjoint_union(self, k1, rng):
        B = random_context(rng, 2, 3)
        d = coproduct_sum(k1, B)
        assert len(d.apex.types) == 2 + 3
        assert len(d.apex.instances) == 2 * 2

    def test_injections_valid_by_construction(self, k1, rng):
        for _ in range(5):
            A = random_context(rng, 2, 2)
            B = random_context(rng, 2, 2)
            d = coproduct_sum(A, B)
            assert check_functional(d.left_injection)
            assert check_functional(d.right_injection)

    def test_sum_with_typeless_singleton_is_relabelled_k1(self, k1):
        E = Classification(("e",), (), Relation.empty(1, 0))
        d = coproduct_sum(k1, E)
        assert len(d.apex.instances) == 2
        assert d.apex.incidence == k1.incidence
        assert [t.split(":", 1)[1] for t in d.apex.types] == list(k1.types)

    def test_universal_property_and_unique_mediator(self, k1, rng):
        report = VerificationReport()
        A = random_context(rng, 2, 2)
        d = coproduct_sum(k1, A)
        check_coproduct_property(d, [k1, A], report)
        assert report.records and report.ok

    def test_mediator_equations(self, k1, rng):
        A = random_context(rng, 2, 2)
        d = coproduct_sum(k1, A)
        legs_a = list(enumerate_infomorphisms(k1, A))
        legs_b = list(enumerate_infomorphisms(A, A))
        if legs_a and legs_b:
            m = coproduct_mediator(d, legs_a[0], legs_b[0])
            assert compose_functional(d.left_injection, m) == legs_a[0]
            assert compose_functional(d.right_injection, m) == legs_b[0]


class TestProduct:
    def test_dual_coherence(self, k1, rng):
        B = random_context(rng, 2, 3)
        p = product(k1, B)
        s = coproduct_sum(dual(k1), dual(B))
        assert dual(p.apex) == s.apex

    def test_projections_valid(self, k1, rng):
        for _ in range(5):
            B = random_context(rng, 3, 2)
            p = product(k1, B)
            assert check_functional(p.left_projection)
            assert check_functional(p.right_projection)

    def test_universal_property_of_cones(self, k1):
        B = antichain_classification(2)
        p = product(k1, B)
        for C in (k1, B):
            mediators = list(enumerate_infomorphisms(C, p.apex))
            legs_a = list(enumerate_infomorphisms(C, k1))
            legs_b = list(enumerate_infomorphisms(C, B))
            for na in legs_a:
                for nb in legs_b:
                    found = [
                        m
                        for m in mediators
                        if compose_functional(m, p.left_projection) == na
                        and compose_functional(m, p.right_projection) == nb
                    ]
                    assert len(found) == 1


class TestFiberConstructions:
    def test_apposition_duplicates_types(self, k1):
        d = apposition(k1, k1)
        assert len(d.apex.instances) == 2
        assert len(d.apex.types) == 4

    def test_apposition_with_typeless_context_keeps_incidence(self, k1):
        zero = Classification(k1.instances, (), Relation.empty(2, 0))
        d = apposition(k1, zero)
        assert d.apex.incidence == k1.incidence

    def test_apposition_requires_shared_instances(self, k1):
        other = Classification(("x", "y"), ("t",), Relation.empty(2, 1))
        with pytest.raises(ShapeError):
            apposition(k1, other)

    def test_apposition_universal_in_fiber(self, k1, rng):
        report = VerificationReport()
        other = Classification(
            k1.instances, ("u", "v"), Relation(2, 2, (rng.getrandbits(2), rng.getrandbits(2)))
        )
        d = apposition(k1, other)
        check_coproduct_property(d, [k1, other], report)
        assert report.records and report.ok

    def test_subposition_stacks_instances(self, k1):
        d = subposition(k1, k1)
        assert len(d.apex.instances) == 4
        assert d.apex.types == k1.types
        assert check_functional(d.left_projection)
        assert check_functional(d.right_projection)

    def test_subposition_mirrors_apposition_under_duality(self, k1):
        d = subposition(k1, k1)
        a = apposition(dual(k1), dual(k1))
        assert dual(d.apex).incidence == a.apex.incidence

    def test_fiber_initial_and_terminal(self, k1):
        zero = fiber_initial(k1.instances)
        assert zero.types == ()
        # initial: exactly one fiber morphism into any context over the
        # same instances
        assert len(list(enumerate_infomorphisms(zero, k1, instance_identity=True))) == 1
        top = fiber_terminal(k1.instances)
        assert top == powerset_classification(k1.instances)

    def test_eta_is_the_unique_fiber_morphism_to_terminal(self, k1):
        top = fiber_terminal(k1.instances)
        found = list(enumerate_infomorphisms(k1, top, instance_identity=True))
        assert found == [instance_infomorphism(k1)]

    def test_fiber_of_empty_instance_set(self):
        zero = fiber_initial(())
        top = fiber_terminal(())
        assert len(list(enumerate_infomorphisms(zero, top, instance_identity=True))) == 1


class TestDualQuotient:
    def test_identity_relation_relabels_only(self, k1):
        J = DualInvariant(k1.full_instances, Relation.empty(2, 2))
        Q, proj = dual_quotient(k1, J)
        assert Q.incidence == k1.incidence
        assert Q.types == ("[a]", "[b]")
        assert check_functional(proj)

    def test_k1_merge_on_kept_two(self, k1):
        J = DualInvariant(k1.instance_mask(["2"]), Relation.from_pairs(2, 2, [(0, 1)]))
        Q, proj = dual_quotient(k1, J)
        assert len(Q.instances) == 1
        assert len(Q.types) == 1
        assert Q.incidence == Relation.full(1, 1)

    def test_k1_merge_on_all_instances_rejected(self, k1):
        J = DualInvariant(k1.full_instances, Relation.from_pairs(2, 2, [(0, 1)]))
        verdict = check_dual_invariant(k1, J)
        assert not verdict
        assert verdict.witness == ("1", "a", "b")
        with pytest.raises(ValidationError):
            dual_quotient(k1, J)

    def test_equivalence_closure_merges_chains(self):
        K = Classification.from_pairs(
            ("1",), ("a", "b", "c"), [("1", "a"), ("1", "b"), ("1", "c")]
        )
        J = DualInvariant(1, Relation.from_pairs(3, 3, [(0, 1), (1, 2)]))
        Q, _ = dual_quotient(K, J)
        assert Q.types == ("[a,b,c]",)

    def test_compatibility_quantifies_only_over_kept(self, k1):
        # instance 1 separates a and b but is not kept
        J = DualInvariant(k1.instance_mask(["2"]), Relation.from_pairs(2, 2, [(1, 0)]))
        assert check_dual_invariant(k1, J)


class TestTransport:
    def test_sum_transport_passes(self, k1):
        d = coproduct_sum(k1, antichain_classification(2))
        report = transport_coproduct(d, targets=[k1])
        assert report.records and report.ok

    def test_apposition_transport_passes(self, k1):
        d = apposition(k1, k1)
        report = transport_coproduct(d, targets=[k1])
        assert report.records and report.ok

    def test_duplicated_instance_apex_fails_with_count(self, k1):
        """A second copy of an apex instance gives some cocones two
        mediators; both families fail them, with the count as witness."""
        report = transport_coproduct(duplicated_instance_sum(k1, k1), targets=[k1])
        assert not report.ok
        witnesses = {(r.check, r.witness) for r in report.failures}
        assert ("sum-universal", "2 mediators found") in witnesses
        assert ("sum-transport", "2 lattice mediators found") in witnesses


# -- the mediator index against the per-cocone filter --------------------------


def _small_contexts(k1):
    """k1, chain-2, contranominal-2 and two seeded 2x2 contexts, all over the
    instances ("0", "1") so that any two of them appose."""
    rng = random.Random(4)
    contexts = [
        k1,
        chain_classification(2),
        contranominal_classification(2),
        random_context(rng, 2, 2),
        random_context(rng, 2, 2),
    ]
    return [Classification(("0", "1"), K.types, K.incidence) for K in contexts]


def _diagrams(k1):
    Ks = _small_contexts(k1)
    pairs = [(A, B) for A in Ks for B in Ks]
    return (
        [coproduct_sum(A, B) for A, B in pairs]
        + [apposition(A, B) for A, B in pairs]
        + [duplicated_instance_sum(Ks[0], Ks[0])]
    )


def _filtered_report(d, targets) -> VerificationReport:
    """``transport_coproduct``'s records, each cocone's mediators found by
    ``oracles.cocone_mediators`` over every candidate."""
    report = VerificationReport()
    fiber = d.kind == "apposition"

    def legs(source, C):
        return list(enumerate_infomorphisms(source, C, instance_identity=fiber))

    for t_i, C in enumerate(targets):
        legs_a, legs_b = legs(d.left, C), legs(d.right, C)
        if not legs_a or not legs_b:
            report.add(f"{d.kind}-universal", f"target-{t_i}", True)
            continue
        candidates = legs(d.apex, C)
        for ca, mA in enumerate(legs_a):
            for cb, mB in enumerate(legs_b):
                found = oracles.cocone_mediators(
                    candidates, compose_functional, d.left_injection, d.right_injection, mA, mB
                )
                ok = len(found) == 1 and found[0] == coproduct_mediator(d, mA, mB)
                report.add(
                    f"{d.kind}-universal",
                    f"target-{t_i}-cocone-{ca}-{cb}",
                    ok,
                    f"{len(found)} mediators found",
                )
    L_apex = functors.concept_lattice_of(d.apex)
    L_left, L_right = (
        functors.lattice_of_morphism(m) for m in (d.left_injection, d.right_injection)
    )
    for t_i, C in enumerate(targets):
        M = functors.concept_lattice_of(C)
        iso = functors.witness_as_lattice_morphism(functors.lattice_equivalence_witness(M))
        candidates = _enumerate_lattice_morphisms(L_apex, M)
        for ca, mA in enumerate(legs(d.left, C)):
            for cb, mB in enumerate(legs(d.right, C)):
                found = oracles.cocone_mediators(
                    candidates,
                    functors.compose_lattice_morphisms,
                    L_left,
                    L_right,
                    functors.lattice_of_morphism(mA),
                    functors.lattice_of_morphism(mB),
                )
                formula = functors.compose_lattice_morphisms(
                    functors.lattice_of_morphism(coproduct_mediator(d, mA, mB)), iso
                )
                report.add(
                    f"{d.kind}-transport",
                    f"target-{t_i}-cocone-{ca}-{cb}",
                    len(found) == 1 and found[0] == formula,
                    f"{len(found)} lattice mediators found",
                )
    return report


class TestMediatorIndex:
    def test_records_match_the_per_cocone_filter(self, k1):
        failing = 0
        for d in _diagrams(k1):
            targets = [d.left, d.right]
            expected = _filtered_report(d, targets)
            universal = VerificationReport()
            check_coproduct_property(d, targets, universal)
            assert universal.records == [
                r for r in expected.records if r.check.endswith("-universal")
            ]
            assert transport_coproduct(d).records == expected.records
            failing += len(expected.failures)
        # the duplicated-instance apex makes some cocones fail with a count
        assert failing

    def test_index_entries_are_the_filtered_lists(self, k1):
        for d in _diagrams(k1):
            fiber = d.kind == "apposition"
            L_left, L_right = (
                functors.lattice_of_morphism(m) for m in (d.left_injection, d.right_injection)
            )
            for C in (d.left, d.right):
                legs_a = list(enumerate_infomorphisms(d.left, C, instance_identity=fiber))
                legs_b = list(enumerate_infomorphisms(d.right, C, instance_identity=fiber))
                mediators = list(enumerate_infomorphisms(d.apex, C, instance_identity=fiber))
                lattice_mediators = _enumerate_lattice_morphisms(
                    functors.concept_lattice_of(d.apex), functors.concept_lattice_of(C)
                )
                index = _by_restrictions(
                    mediators, compose_functional, d.left_injection, d.right_injection
                )
                lattice_index = _by_restrictions(
                    lattice_mediators, functors.compose_lattice_morphisms, L_left, L_right
                )
                for mA in legs_a:
                    for mB in legs_b:
                        assert index.get((mA, mB), []) == oracles.cocone_mediators(
                            mediators,
                            compose_functional,
                            d.left_injection,
                            d.right_injection,
                            mA,
                            mB,
                        )
                        gammas = tuple(functors.lattice_of_morphism(m) for m in (mA, mB))
                        assert lattice_index.get(gammas, []) == oracles.cocone_mediators(
                            lattice_mediators,
                            functors.compose_lattice_morphisms,
                            L_left,
                            L_right,
                            *gammas,
                        )

    def test_universal_check_returns_the_cocones_it_reported(self, k1):
        for d in _diagrams(k1):
            report = VerificationReport()
            cocones = check_coproduct_property(d, [d.left, d.right], report)
            assert len(cocones) == 2
            flat = [c for target_cocones in cocones for c in target_cocones]
            assert [c[0] for c in flat] == [
                r.item for r in report.records if "cocone" in r.item
            ]
            for _, mA, mB, mediator in flat:
                assert mediator == coproduct_mediator(d, mA, mB)

    def test_transport_builds_each_mediator_and_image_once(self, k1, monkeypatch):
        """One ``coproduct_mediator`` per cocone, one enumeration of each
        list of legs per target, and one lattice image per injection, per
        distinct leg of a target and per mediator."""
        diagrams = _diagrams(k1)
        expected = []
        for d in diagrams:
            fiber = d.kind == "apposition"
            cocones = images = 0
            for C in (d.left, d.right):
                legs_a, legs_b = (
                    list(enumerate_infomorphisms(X, C, instance_identity=fiber))
                    for X in (d.left, d.right)
                )
                if legs_a and legs_b:
                    cocones += len(legs_a) * len(legs_b)
                    images += len(set(legs_a) | set(legs_b))
            expected.append((cocones, images))
        calls = collections.Counter()
        for module, name in (
            (colimit, "coproduct_mediator"),
            (colimit, "enumerate_infomorphisms"),
            (functors, "lattice_of_morphism"),
        ):
            monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
        for d, (cocones, images) in zip(diagrams, expected):
            calls.clear()
            transport_coproduct(d)
            assert calls["coproduct_mediator"] == cocones
            assert calls["lattice_of_morphism"] == 2 + images + cocones
            enumerations = collections.Counter(
                ("enumerate_infomorphisms", X, C)
                for C in (d.left, d.right)
                for X in (d.apex, d.left, d.right)
            )
            assert {
                k: n for k, n in calls.items() if k[0] == "enumerate_infomorphisms" and len(k) == 3
            } == enumerations


def _validated_lattice_morphisms(L, M) -> list:
    """Every forced candidate of ``_enumerate_lattice_morphisms`` that the
    validating ``ConceptLatticeMorphism`` constructor accepts, in order."""
    out = []
    for f_t in itertools.product(range(len(L.instance_labels)), repeat=len(M.instance_labels)):
        f = FunctionGraph.from_targets(f_t, len(L.instance_labels))
        for g_t in itertools.product(range(len(M.type_labels)), repeat=len(L.type_labels)):
            g = FunctionGraph.from_targets(g_t, len(M.type_labels))
            psi_t = tuple(
                M.meet_index(M.tau(g(t)) for t in bits(L.intents[x])) for x in range(L.size)
            )
            phi_t = tuple(
                L.join_index(L.iota(f(b)) for b in bits(M.extents[y])) for y in range(M.size)
            )
            phi = FunctionGraph.from_targets(phi_t, L.size)
            psi = FunctionGraph.from_targets(psi_t, M.size)
            try:
                out.append(functors.ConceptLatticeMorphism(L, M, phi, psi, f, g))
            except ValidationError:
                continue
    return out


def test_lattice_morphisms_are_the_validated_candidates(k1):
    """On every lattice pair the transport check meets, the apex lattice
    and a target's, the check-filtered enumeration keeps exactly the
    candidates the validating constructor accepts."""
    pairs = {
        (functors.concept_lattice_of(d.apex), functors.concept_lattice_of(C))
        for d in _diagrams(k1)
        for C in (d.left, d.right)
    }
    kept = 0
    for L, M in pairs:
        found = _enumerate_lattice_morphisms(L, M)
        assert found == _validated_lattice_morphisms(L, M)
        kept += len(found)
    assert kept


def _counting(calls: collections.Counter, name: str, fn):
    """``fn``, counting its calls under ``name`` and, for two or more
    arguments, under ``(name, first, second)``."""

    def wrapper(*args, **kwargs):
        calls[name] += 1
        if len(args) >= 2:
            calls[(name, *args[:2])] += 1
        return fn(*args, **kwargs)

    return wrapper
