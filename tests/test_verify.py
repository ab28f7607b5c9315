import pytest

from conceptual.errors import ShapeError, ValidationError
from conceptual.io import dumps
from conceptual.report import FAIL, NO_COVERAGE, CheckRecord, VerificationReport
from conceptual.verify import CHECK_FAMILIES, MAX_CORPUS_SIZE, verify_equivalences


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
        a = verify_equivalences(max_size=2, seed=9).to_obj()
        b = verify_equivalences(max_size=2, seed=9).to_obj()
        assert a == b

    def test_report_rendering(self):
        report = verify_equivalences(max_size=1, seed=3)
        text = report.to_text()
        assert "checks" in text or "passed" in text
        obj = report.to_obj()
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
            assert report.to_json() == dumps(report.to_obj())

