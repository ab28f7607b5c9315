import pytest

from conceptual.errors import ValidationError
from conceptual.report import NO_COVERAGE, VerificationReport
from conceptual.verify import CHECK_FAMILIES, MAX_CORPUS_SIZE, verify_equivalences


class TestVerifyEquivalences:
    def test_default_corpus_passes(self):
        report = verify_equivalences(max_size=2, seed=3)
        assert report.ok
        assert report.exit_code == 0

    def test_every_family_covered_at_size_two(self):
        report = verify_equivalences(max_size=2, seed=3)
        covered = {r.check for r in report.records if r.verdict != NO_COVERAGE}
        assert set(CHECK_FAMILIES) <= covered | {"transport-injection-valid"}

    def test_bug_injection_fails_with_witness(self):
        report = verify_equivalences(max_size=2, seed=3, inject_bug=True)
        assert not report.ok
        assert report.exit_code == 1
        assert all(r.witness for r in report.failures)

    def test_empty_corpus_flags_no_coverage(self):
        report = verify_equivalences(max_size=0, seed=3)
        assert report.ok
        verdicts = {r.verdict for r in report.records}
        assert NO_COVERAGE in verdicts

    @pytest.mark.parametrize("size", [-1, MAX_CORPUS_SIZE + 1])
    def test_max_size_out_of_range_is_rejected(self, size):
        with pytest.raises(ValidationError, match="max_size"):
            verify_equivalences(max_size=size, seed=3)

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
