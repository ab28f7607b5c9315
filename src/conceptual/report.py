"""Deterministic pass/fail records shared by the verification harnesses."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from json.encoder import encode_basestring
from typing import Callable

from .errors import ConceptualError

PASS = "pass"
FAIL = "fail"
NO_COVERAGE = "no-coverage"


@dataclass(frozen=True)
class CheckRecord:
    check: str
    item: str
    verdict: str
    witness: str | None = None

    @classmethod
    def _of(cls, check: str, item: str, verdict: str, witness: str | None) -> "CheckRecord":
        """The record with these fields, stored as ``relalg.Relation._of``
        stores a relation: one instance dict store per field, for the
        records a report makes by the thousand."""
        out = object.__new__(cls)
        d = out.__dict__
        d["check"] = check
        d["item"] = item
        d["verdict"] = verdict
        d["witness"] = witness
        return out


@dataclass
class VerificationReport:
    records: list[CheckRecord] = field(default_factory=list)

    def add(self, check: str, item: str, ok: bool, witness: str | None = None):
        self.records.append(
            CheckRecord._of(check, item, PASS if ok else FAIL, None if ok else witness)
        )

    def attempt(self, check: str, item: str, test: Callable[[], object], witness: str | None):
        """Record whether ``test()`` holds; a ``ConceptualError`` it raises fails
        the record with its message as the witness.  A build that checks passes."""
        try:
            ok = bool(test())
        except ConceptualError as e:
            ok, witness = False, str(e)
        self.add(check, item, ok, witness)

    def flag_no_coverage(self, check: str):
        self.records.append(CheckRecord._of(check, "-", NO_COVERAGE, None))

    def extend(self, other: "VerificationReport", prefix: str):
        """Append ``other``'s records, each item prefixed by ``prefix``."""
        for r in other.records:
            self.records.append(CheckRecord._of(r.check, prefix + r.item, r.verdict, r.witness))

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.verdict == FAIL]

    @property
    def ok(self) -> bool:
        return not self.failures

    def counts(self) -> dict[str, dict[str, int]]:
        out: dict[str, dict[str, int]] = {}
        for r in self.records:
            slot = out.setdefault(r.check, {PASS: 0, FAIL: 0, NO_COVERAGE: 0})
            slot[r.verdict] += 1
        return out

    def _summary(self) -> dict:
        return {
            "total": len(self.records),
            "failed": len(self.failures),
            "families": self.counts(),
        }

    def to_json(self) -> str:
        """The report's object, its records under ``"checks"`` and their
        counts under ``"summary"``, as ``json.dumps(..., indent=2,
        ensure_ascii=False)`` writes it, byte for byte.

        With ``indent`` set, ``json.dumps`` runs the standard library's
        pure-Python encoder over every field of every record.  This emitter
        encodes each string once, with the encoder's own
        ``encode_basestring``, and lays each record out as ``indent=2``
        does; only the small summary goes through ``json.dumps``, indented
        one level further.
        """
        enc = encode_basestring
        records = ",\n".join(
            [
                f'    {{\n      "check": {enc(r.check)},\n      "item": {enc(r.item)},\n'
                f'      "verdict": {enc(r.verdict)},\n'
                f'      "witness": {"null" if r.witness is None else enc(r.witness)}\n    }}'
                for r in self.records
            ]
        )
        checks = "[\n" + records + "\n  ]" if records else "[]"
        summary = json.dumps(self._summary(), indent=2, ensure_ascii=False).replace("\n", "\n  ")
        return '{\n  "checks": ' + checks + ',\n  "summary": ' + summary + "\n}\n"

    def to_text(self) -> str:
        lines = []
        for check, slot in self.counts().items():
            mark = "FAIL" if slot[FAIL] else ("NO-COVERAGE" if not slot[PASS] else "ok")
            lines.append(
                f"[{mark}] {check}: {slot[PASS]} passed, {slot[FAIL]} failed"
            )
        for r in self.failures:
            lines.append(f"  FAIL {r.check} on {r.item}: {r.witness or 'no witness'}")
        lines.append(
            f"{len(self.records)} checks, {len(self.failures)} failures"
        )
        return "\n".join(lines)

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1
