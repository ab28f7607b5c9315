import collections
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
    _infomorphism_maps,
    _key,
    _lattice_maps,
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
    transport_families,
)
from conceptual.errors import ShapeError, ValidationError
from conceptual.infomorphism import (
    check_functional,
    compose_functional,
    instance_infomorphism,
)
from conceptual.relalg import Relation
from conceptual.report import VerificationReport
from conceptual.verify import verify_equivalences

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

    def test_matches_the_search_oracle(self):
        """The closure by squaring against the breadth-first classes, on
        seeded compatible invariants: empty relations, cycles, every pair
        reversed too, self-loops and random pairs, some with no kept
        instance; each kept row is constant on the oracle's classes."""
        rng = random.Random(19)
        for trial in range(150):
            m, n = rng.randint(0, 5), rng.randint(0, 6)
            style = trial % 5
            if style == 0:
                pairs = []
            elif style == 1:
                cycle = rng.sample(range(n), rng.randint(0, n))
                pairs = list(zip(cycle, cycle[1:] + cycle[:1]))
            else:
                count = n and rng.randint(1, n)
                pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(count)]
                if style == 2:
                    pairs += [(b, a) for a, b in pairs]
                elif style == 3:
                    pairs += [(a, a) for a in range(n) if rng.random() < 0.5]
            rng.shuffle(pairs)
            rel = Relation.from_pairs(n, n, pairs)
            kept = 0 if trial % 7 == 0 else rng.getrandbits(m)
            classes = oracles.equivalence_classes_oracle(n, rel)
            rows = tuple(
                sum(c for c in classes if rng.random() < 0.5)
                if kept >> a & 1
                else rng.getrandbits(n)
                for a in range(m)
            )
            inst = tuple(f"i{k}" for k in range(m))
            A = Classification(inst, tuple(f"t{k}" for k in range(n)), Relation(m, n, rows))
            J = DualInvariant(kept, rel)
            Q, proj = dual_quotient(A, J)
            got = (Q.instances, Q.types, Q.rows, proj.f.targets, proj.g.targets)
            assert got == oracles.dual_quotient_oracle(A, J), (trial, pairs, kept)
            assert proj.source == A and proj.target == Q
            assert check_functional(proj)

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
        iso = functors.lattice_equivalence_witness(M)
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
            assert transport_coproduct(d, targets).records == expected.records
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
                    mediators, _infomorphism_maps, d.left_injection, d.right_injection
                )
                lattice_index = _by_restrictions(
                    lattice_mediators, _lattice_maps, L_left, L_right
                )
                for mA in legs_a:
                    for mB in legs_b:
                        legs = (_key(_infomorphism_maps, mA), _key(_infomorphism_maps, mB))
                        assert index.get(legs, []) == oracles.cocone_mediators(
                            mediators,
                            compose_functional,
                            d.left_injection,
                            d.right_injection,
                            mA,
                            mB,
                        )
                        gammas = tuple(functors.lattice_of_morphism(m) for m in (mA, mB))
                        keys = tuple(_key(_lattice_maps, gamma) for gamma in gammas)
                        assert lattice_index.get(keys, []) == oracles.cocone_mediators(
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
        """A checked ``coproduct_mediator`` only per cocone that fails the
        universal check, a checked lattice image per injection, per distinct
        leg of a target and per cocone that fails the transport check, one
        reading of the functor's maps per cocone beside those images, and one
        enumeration of each list of legs per target."""
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
            failures = collections.Counter(
                r.check for r in _filtered_report(d, [d.left, d.right]).failures
            )
            expected.append((cocones, images, *transport_families(d.kind), failures))
        # the duplicated-instance apex fails cocones before and after the functor
        total = sum((failures for *_, failures in expected), collections.Counter())
        assert total["sum-universal"] and total["sum-transport"]
        calls = collections.Counter()
        for module, name in (
            (colimit, "coproduct_mediator"),
            (colimit, "enumerate_infomorphisms"),
            (functors, "lattice_of_morphism"),
            (functors, "_functor_maps"),
        ):
            monkeypatch.setattr(module, name, _counting(calls, name, getattr(module, name)))
        for d, (cocones, images, universal, transport, failures) in zip(diagrams, expected):
            calls.clear()
            transport_coproduct(d, [d.left, d.right])
            assert calls["coproduct_mediator"] == failures[universal]
            assert calls["lattice_of_morphism"] == 2 + images + failures[transport]
            assert calls["_functor_maps"] == cocones + calls["lattice_of_morphism"]
            enumerations = collections.Counter(
                ("enumerate_infomorphisms", X, C)
                for C in (d.left, d.right)
                for X in (d.apex, d.left, d.right)
            )
            assert {
                k: n for k, n in calls.items() if k[0] == "enumerate_infomorphisms" and len(k) == 3
            } == enumerations


def test_lattice_morphisms_are_the_validated_candidates(k1):
    """On every lattice pair the transport check meets, the apex lattice
    and a target's, the enumeration keeps exactly the brute-force
    candidates the validating constructor accepts."""
    pairs = {
        (functors.concept_lattice_of(d.apex), functors.concept_lattice_of(C))
        for d in _diagrams(k1)
        for C in (d.left, d.right)
    }
    kept = 0
    for L, M in pairs:
        found = _enumerate_lattice_morphisms(L, M)
        assert found == oracles.lattice_morphisms_oracle(L, M)
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


class TestTransportBeyondTheBruteForce:
    """Seed 36 draws summands ``A`` and ``B`` with 11 and 13 infomorphisms
    into a target ``T``: 143 cocones.  The sum's apex has 9 instances and 6
    types, so the brute force would try 9^3 x 3^6 = 531,441 candidates on
    each side."""

    def contexts(self):
        rng = random.Random(36)
        return tuple(random_context(rng, 3, 3) for _ in range(3))

    @staticmethod
    def passed(kind: str, n: int) -> dict:
        """The counts of a transport report whose ``n`` cocones all pass."""
        return {f"{kind}-{row}": {"pass": n, "fail": 0, "no-coverage": 0}
                for row in ("universal", "transport")}

    def test_sum_of_3x3_summands(self):
        A, B, T = self.contexts()
        report = transport_coproduct(coproduct_sum(A, B), targets=[T])
        assert report.counts() == self.passed("sum", 143)

    def test_apposition_of_3x3_contexts(self):
        """4 endomorphisms of ``T`` in its instance fiber, 16 cocones on each
        of the two targets, its summands."""
        T = self.contexts()[2]
        d = apposition(T, T)
        assert transport_coproduct(d, [d.left, d.right]).counts() == self.passed("apposition", 32)


class TestIndexKeyedByMaps:
    """``_by_restrictions`` keys each candidate by the target tuples of its
    composites with the injections; ``oracles.by_restrictions_oracle`` keys
    it by the checked composites themselves.  The two indexes hold the same
    mediator lists under corresponding keys, in the same order."""

    @staticmethod
    def same_index(candidates, maps, left, right) -> int:
        """Compare the two indexes; the number of entries."""
        compose = {
            _infomorphism_maps: compose_functional,
            _lattice_maps: functors.compose_lattice_morphisms,
        }[maps]
        expected = oracles.by_restrictions_oracle(candidates, compose, left, right)
        assert list(_by_restrictions(candidates, maps, left, right).items()) == [
            ((_key(maps, a), _key(maps, b)), found) for (a, b), found in expected.items()
        ]
        return len(expected)

    def both_sides(self, d, C) -> tuple[int, int]:
        """The classification side and the lattice side of ``d`` into ``C``:
        the entries of each."""
        fiber = d.kind == "apposition"
        L_left, L_right = (
            functors.lattice_of_morphism(m) for m in (d.left_injection, d.right_injection)
        )
        return self.same_index(
            list(enumerate_infomorphisms(d.apex, C, instance_identity=fiber)),
            _infomorphism_maps,
            d.left_injection,
            d.right_injection,
        ), self.same_index(
            _enumerate_lattice_morphisms(
                functors.concept_lattice_of(d.apex), functors.concept_lattice_of(C)
            ),
            _lattice_maps,
            L_left,
            L_right,
        )

    def test_beyond_the_brute_force(self):
        """The sum and the apposition of ``TestTransportBeyondTheBruteForce``:
        143 and 16 cocones, one entry each on the classification side.  The
        lattice side indexes every lattice morphism out of the apex, in the
        instance fiber or not, so the apposition has more entries there."""
        A, B, T = TestTransportBeyondTheBruteForce().contexts()
        assert self.both_sides(coproduct_sum(A, B), T) == (143, 143)
        assert self.both_sides(apposition(T, T), T) == (16, 576)

    def test_on_the_verify_corpora(self, monkeypatch):
        """Every index ``transport_coproduct`` builds for the sum and
        apposition rows of ``verify_equivalences`` at ``--max-size 3``,
        seeds 0-11."""
        original = colimit._by_restrictions
        sides = collections.Counter()

        def compared(candidates, maps, left, right):
            sides[maps.__name__] += 1
            self.same_index(candidates, maps, left, right)
            return original(candidates, maps, left, right)

        monkeypatch.setattr(colimit, "_by_restrictions", compared)
        for seed in range(12):
            assert verify_equivalences(max_size=3, seed=seed).exit_code == 0
        assert min(sides["_infomorphism_maps"], sides["_lattice_maps"]) > 12


def test_dual_invariant_witness_is_the_pair_loops():
    """The grouped check names the pair loop's first separating
    ``(instance, alpha, beta)`` on seeded contexts and relations, sparse
    enough that some pass."""
    rng = random.Random(9)
    verdicts = set()
    for _ in range(400):
        m, n = rng.randint(0, 5), rng.randint(0, 5)
        A = random_context(rng, m, n)
        density = rng.choice((0.05, 0.2, 0.5))
        rows = tuple(
            sum(1 << b for b in range(n) if rng.random() < density) for _ in range(n)
        )
        J = DualInvariant(rng.getrandbits(m) if m else 0, Relation(n, n, rows))
        verdict = check_dual_invariant(A, J)
        assert verdict == oracles.dual_invariant_oracle(A, J)
        verdicts.add(verdict.ok)
    assert verdicts == {True, False}
