import json
import random
import sys

import pytest

from conceptual import colimit, functors, verify
from conceptual.classification import chain_classification
from conceptual.cli import main
from conceptual.errors import ShapeError, ValidationError
from conceptual.report import FAIL, NO_COVERAGE, CheckRecord, VerificationReport
from conceptual.verify import (
    CHECK_FAMILIES,
    MAX_CORPUS_SIZE,
    _composites,
    adjoint_corpus,
    bond_corpus,
    context_corpus,
    hom_corpus,
    infomorphism_corpus,
    pair_corpus,
    verify_equivalences,
)

from oracles import composites_oracle, report_obj_oracle


class TestVerifyEquivalences:
    def test_default_corpus_passes(self):
        report = verify_equivalences(max_size=2, seed=3)
        assert report.ok
        assert report.exit_code == 0

    def test_every_family_covered_at_size_two(self):
        report = verify_equivalences(max_size=2, seed=3)
        covered = {r.check for r in report.records if r.verdict != NO_COVERAGE}
        assert covered == set(CHECK_FAMILIES)

    def test_bug_injection_fails_with_witness(self):
        report = verify_equivalences(max_size=2, seed=3, inject_bug=True)
        assert not report.ok
        assert report.exit_code == 1
        assert all(r.witness for r in report.failures)

    @pytest.mark.parametrize("max_size", range(MAX_CORPUS_SIZE + 1))
    def test_bug_injection_fails_at_every_size(self, max_size):
        report = verify_equivalences(max_size=max_size, seed=3, inject_bug=True)
        assert report.exit_code == 1
        assert all(r.witness for r in report.failures)

    @pytest.mark.parametrize("max_size", range(1, MAX_CORPUS_SIZE + 1))
    def test_bug_injection_fails_one_roundtrip_and_nothing_else(self, max_size):
        """Where a context has a bit to flip, the injected report is the
        clean one with one record changed: a classification round trip, now
        failing.  Every family in it is one the suite names."""
        for seed in range(12):
            clean = verify_equivalences(max_size=max_size, seed=seed).records
            injected = verify_equivalences(max_size=max_size, seed=seed, inject_bug=True).records
            assert len(injected) == len(clean), seed
            changed = [(was, now) for was, now in zip(clean, injected) if was != now]
            assert len(changed) == 1, seed
            ((was, now),) = changed
            assert (now.check, now.item) == (was.check, was.item)
            assert now.check == "classification-roundtrip" and now.verdict == FAIL
            assert {r.check for r in injected} <= set(CHECK_FAMILIES)

    def test_bug_injection_with_nothing_to_perturb_adds_one_failure(self):
        """The size-0 corpus holds only the 0x0 context and no coproducts:
        the report is the clean one with one failing record after the
        context's round trip."""
        clean = verify_equivalences(max_size=0, seed=3).records
        injected = verify_equivalences(max_size=0, seed=3, inject_bug=True).records
        planted = CheckRecord(
            "classification-roundtrip",
            "inject-bug",
            FAIL,
            "no context has an instance and a type to perturb",
        )
        assert injected == clean[:1] + [planted] + clean[1:]

    def test_empty_corpus_flags_no_coverage(self):
        report = verify_equivalences(max_size=0, seed=3)
        assert report.ok
        verdicts = {r.verdict for r in report.records}
        assert NO_COVERAGE in verdicts

    @pytest.mark.parametrize("size", [-1, MAX_CORPUS_SIZE + 1])
    def test_max_size_out_of_range_is_rejected(self, size):
        with pytest.raises(ValidationError, match="max_size"):
            verify_equivalences(max_size=size, seed=3)

    @pytest.mark.parametrize("seed", [7, 10])
    @pytest.mark.parametrize("max_size", [4, 5, 6])
    def test_random_tiers_pass_and_cover_every_family(self, max_size, seed):
        report = verify_equivalences(max_size=max_size, seed=seed)
        assert report.failures == []
        covered = {r.check for r in report.records if r.verdict != NO_COVERAGE}
        assert covered == set(CHECK_FAMILIES)
        assert any(r.item.startswith(f"rand-{max_size}x{max_size}-") for r in report.records)

    def test_deterministic_under_seed(self):
        a = verify_equivalences(max_size=2, seed=9).to_json()
        b = verify_equivalences(max_size=2, seed=9).to_json()
        assert a == b

    def test_report_rendering(self):
        report = verify_equivalences(max_size=1, seed=3)
        text = report.to_text()
        assert "checks" in text or "passed" in text
        obj = json.loads(report.to_json())
        assert obj["summary"]["failed"] == 0
        assert obj["summary"]["total"] == len(report.records)


class TestReportType:
    def test_fail_records_keep_witnesses(self):
        r = VerificationReport()
        r.add("family", "item", False, witness="boom")
        r.add("family", "item2", True, witness="ignored")
        assert r.failures[0].witness == "boom"
        assert r.records[1].witness is None
        assert r.exit_code == 1

    def test_attempt_fails_a_raising_check_with_its_message(self):
        r = VerificationReport()

        def raises():
            raise ShapeError("shapes differ")

        def raises_other():
            raise KeyError("not ours")

        r.attempt("family", "built", lambda: object(), None)
        r.attempt("family", "false", lambda: False, "it is false")
        r.attempt("family", "raised", raises, "it is false")
        assert [(x.item, x.verdict, x.witness) for x in r.records] == [
            ("built", "pass", None),
            ("false", "fail", "it is false"),
            ("raised", "fail", "shapes differ"),
        ]
        with pytest.raises(KeyError):
            r.attempt("family", "other", raises_other, None)

    def test_extend_prefixes_items(self):
        sub = VerificationReport()
        sub.add("family", "item", False, witness="boom")
        sub.flag_no_coverage("other")
        r = VerificationReport()
        r.extend(sub, "a+b:")
        assert [(x.check, x.item, x.verdict, x.witness) for x in r.records] == [
            ("family", "a+b:item", "fail", "boom"),
            ("other", "a+b:-", "no-coverage", None),
        ]

    def test_json_is_dumps_of_the_object(self):
        """The fused emitter against ``json.dumps``: an empty report, labels
        JSON must escape next to ones it must not, and whole reports with
        failures and no-coverage records."""
        empty = VerificationReport()
        odd = VerificationReport()
        odd.add('q"uote\\', "tab\tctl\x01\x1f\x7f", False, witness="café 日本 \U0001F600\n")
        odd.add("family", "", True)
        odd.flag_no_coverage("none")
        reports = [
            empty,
            odd,
            verify_equivalences(max_size=0, seed=3),
            verify_equivalences(max_size=2, seed=3, inject_bug=True),
        ]
        for report in reports:
            expected = json.dumps(report_obj_oracle(report), indent=2, ensure_ascii=False)
            assert report.to_json() == expected + "\n"



@pytest.mark.parametrize(
    "max_size, seed", [(3, seed) for seed in range(7, 12)] + [(6, seed) for seed in range(3)]
)
def test_composites_are_the_scan_over_all_pairs(max_size, seed):
    """On each corpus of arrows ``verify_equivalences`` builds, the grouped
    ``_composites`` samples the pairs the scan over all pairs sampled, in
    the same order, and leaves the generator where the scan left it."""
    rng = random.Random(seed)
    contexts = context_corpus(max_size, rng)
    morphisms = infomorphism_corpus(contexts, rng)
    bonds = bond_corpus(contexts, morphisms, rng)
    adjoints = adjoint_corpus(contexts, bonds, rng)
    homs = hom_corpus(contexts, rng)
    pairs = pair_corpus(contexts, homs, rng)
    for items in (morphisms, bonds, adjoints, homs, pairs):
        for k in (1, 8, len(items) ** 2):
            got, expected = random.Random(k), random.Random(k)
            assert _composites(got, items, k, ";") == composites_oracle(expected, items, k, ";")
            assert got.getstate() == expected.getstate()


# -- mutants --------------------------------------------------------------------

_MEDIATOR_MAPS = colimit._mediator_maps


def _swapped_cocone(d, mA, mB):
    """The mediator maps of the cocone with its legs exchanged: on a sum
    ``K+K`` the mediator of a cocone still, but of the wrong one wherever
    the two legs differ."""
    return _MEDIATOR_MAPS(d, mB, mA)


_LATTICE_CANDIDATES = colimit._lattice_candidates


def _duplicated_lattice_mediator(mediators):
    """The lattice candidates with the first one listed twice: a cocone whose
    mediator it is finds two after the lattice functor."""
    found = _LATTICE_CANDIDATES(mediators)
    return found[:1] + found


# name -> (module, function, plausible wrong formula, families that must fail):
# the mutants of ROADMAP item 9, each a rebinding the checks must catch
MUTANTS = {
    "swapped-cocone": (
        colimit,
        "_mediator_maps",
        _swapped_cocone,
        colimit.transport_families("sum"),
    ),
    "duplicated-lattice-mediator": (
        colimit,
        "_lattice_candidates",
        _duplicated_lattice_mediator,
        colimit.transport_families("sum")[1:] + colimit.transport_families("apposition")[1:],
    ),
}


@pytest.mark.parametrize("name", sorted(MUTANTS))
def test_a_mutant_fails_its_families_on_the_seed_7_report(name, monkeypatch):
    """Under the mutant, each of its families records a FAIL on the size-3,
    seed-7 report, with no exception, and the CLI exits 1."""
    module, function, mutant, families = MUTANTS[name]
    monkeypatch.setattr(module, function, mutant)
    report = verify_equivalences(3, 7)
    assert {r.check for r in report.failures} >= set(families)
    assert main(["verify-equivalences", "--max-size", "3", "--seed", "7"]) == 1


def test_swapped_cocones_fail_where_their_legs_differ(monkeypatch):
    """On the sum of a two-element chain with itself, the two legs into the
    chain give four cocones: the swapped formula fails the two whose legs
    differ, before and after the lattice functor, and passes the others."""
    monkeypatch.setattr(colimit, "_mediator_maps", _swapped_cocone)
    K = chain_classification(2)
    report = colimit.transport_coproduct(colimit.coproduct_sum(K, K), [K])
    failed = [(r.check, r.item) for r in report.failures]
    assert failed == [
        (family, f"target-0-cocone-{ca}-{cb}")
        for family in colimit.transport_families("sum")
        for ca, cb in ((0, 1), (1, 0))
    ]
    assert len(report.records) == 8


def test_a_duplicated_lattice_mediator_is_counted(monkeypatch):
    """Under the duplicated first candidate, the seed-7 report fails exactly
    the transport records whose cocone the first lattice candidate mediates,
    two of sums and two of appositions, each with the count of lattice
    mediators it found."""
    monkeypatch.setattr(colimit, "_lattice_candidates", _duplicated_lattice_mediator)
    failures = verify_equivalences(3, 7).failures
    assert [(r.check, r.witness) for r in failures] == [
        (family, "2 lattice mediators found")
        for family in ("sum-transport",) * 2 + ("apposition-transport",) * 2
    ]



def test_cl_naturality_builds_one_witness_per_lattice(monkeypatch):
    """At seed 7, size 3, the naturality squares take each endpoint's
    rebuild witness from the run's dict: the 24 squares have 48 endpoints
    on 9 distinct lattices, and 9 witnesses are built for them.
    ``lattice-roundtrip`` still builds its own witness for each of its 18
    items."""
    built = []
    endpoints = []
    build, take = functors.lattice_equivalence_witness, verify._witness_of

    def counted_build(L):
        built.append((sys._getframe(1).f_code.co_name, L))
        return build(L)

    def counted_take(witnesses, L):
        endpoints.append(L)
        return take(witnesses, L)

    monkeypatch.setattr(functors, "lattice_equivalence_witness", counted_build)
    monkeypatch.setattr(verify, "_witness_of", counted_take)
    report = verify_equivalences(3, 7)
    squares = [r for r in report.records if r.check == "cl-naturality"]
    roundtrips = [r for r in report.records if r.check == "lattice-roundtrip"]
    assert len(squares) == 24 and all(r.verdict == "pass" for r in squares)
    assert len(endpoints) == 48 and len(set(endpoints)) == 9
    assert [L for caller, L in built if caller == "_witness_of"] == list(dict.fromkeys(endpoints))
    assert len([L for caller, L in built if caller == "<lambda>"]) == len(roundtrips) == 18
