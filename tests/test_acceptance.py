"""Acceptance suite: one test per criterion, each printing a verdict line.

Every comparison here is bit-exact (the whole library is boolean), so the
stated tolerance of each criterion is exact equality.
"""

import itertools
import json
import random

import pytest

from conceptual.classification import (
    Classification,
    chain_classification,
    contranominal_classification,
)
from conceptual.colimit import (
    apposition,
    coproduct_sum,
    transport_coproduct,
    transport_families,
)
from conceptual.io import (
    classification_to_obj,
    emit_cxt,
    parse_classification,
)
from conceptual.lattice import build_lattice
from conceptual.relalg import (
    Relation,
    bits,
    compose,
    identity,
    left_residual,
    right_residual,
    subrelation,
    transpose,
)
from conceptual.report import NO_COVERAGE
from conceptual.verify import verify_equivalences

from conftest import duplicated_instance_sum, emit_csv, random_context
from oracles import closed_pairs_oracle, concept_set, random_relation

SEED = 7


@pytest.fixture(scope="module")
def equivalence_report():
    return verify_equivalences(max_size=3, seed=SEED)


def _families_pass(report, families):
    failed = [r for r in report.failures if r.check in families]
    covered = {
        r.check
        for r in report.records
        if r.check in families and r.verdict != NO_COVERAGE
    }
    return not failed and covered == set(families), failed


def test_acceptance_1_residuation_adjointness():
    checked = 0
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for r_rows in itertools.product(range(1 << b), repeat=a):
                    r = Relation(a, b, r_rows)
                    for s_rows in itertools.product(range(1 << c), repeat=b):
                        s = Relation(b, c, s_rows)
                        rs = compose(r, s)
                        for t_rows in itertools.product(range(1 << c), repeat=a):
                            t = Relation(a, c, t_rows)
                            below = subrelation(rs, t)
                            assert below == subrelation(s, left_residual(r, t))
                            assert below == subrelation(r, right_residual(t, s))
                            checked += 1
    rng = random.Random(SEED)
    for _ in range(1000):
        a, b, c = (rng.randint(0, 6) for _ in range(3))
        r = random_relation(rng, a, b)
        s = random_relation(rng, b, c)
        t = random_relation(rng, a, c)
        below = subrelation(compose(r, s), t)
        assert below == subrelation(s, left_residual(r, t))
        assert below == subrelation(r, right_residual(t, s))
    print(
        f"\nACCEPTANCE 1 residuation adjointness: PASS "
        f"({checked} exhaustive triples <= 2x2x2, 1000 random <= 6x6, zero violations)"
    )


def test_acceptance_2_derived_laws():
    rng = random.Random(SEED)
    for _ in range(1000):
        a, b, c, d = (rng.randint(0, 5) for _ in range(4))
        # residuation preserves composition
        r1 = random_relation(rng, a, b)
        r2 = random_relation(rng, b, c)
        t = random_relation(rng, a, d)
        assert left_residual(compose(r1, r2), t) == left_residual(r2, left_residual(r1, t))
        u = random_relation(rng, d, a)
        s1 = random_relation(rng, c, b)
        s2 = random_relation(rng, b, a)
        assert right_residual(u, compose(s1, s2)) == right_residual(right_residual(u, s2), s1)
        # residuation preserves identity
        v = random_relation(rng, a, b)
        assert left_residual(identity(a), v) == v
        assert right_residual(v, identity(b)) == v
        # transpose dualizes residuation
        r = random_relation(rng, a, b)
        w = random_relation(rng, a, c)
        assert transpose(left_residual(r, w)) == right_residual(transpose(w), transpose(r))
        # unconstrained associative law
        t2 = random_relation(rng, a, b)
        r3 = random_relation(rng, a, c)
        s3 = random_relation(rng, d, b)
        assert right_residual(left_residual(r3, t2), s3) == left_residual(
            r3, right_residual(t2, s3)
        )
    print(
        "\nACCEPTANCE 2 derived residuation laws: PASS "
        "(4 law families x 1000 random compatible inputs, bit-exact)"
    )


def test_acceptance_3_lattice_oracle_exhaustive():
    contexts = 0
    for m in range(5):
        inst = tuple(f"i{k}" for k in range(m))
        for n in range(5):
            typ = tuple(f"t{k}" for k in range(n))
            mask = (1 << n) - 1
            for code in range(1 << (m * n)):
                rows = tuple(code >> a * n & mask for a in range(m))
                K = Classification(inst, typ, Relation(m, n, rows))
                L = build_lattice(K)
                assert concept_set(L) == closed_pairs_oracle(K)
                # join-density, meet-density, and the decomposition
                for i, c in enumerate(L.concepts):
                    assert L.join_index(L.iota(aa) for aa in bits(c.extent)) == i
                    assert L.meet_index(L.tau(tt) for tt in bits(c.intent)) == i
                recomposed = compose(
                    compose(L.iota.rel, L.order), transpose(L.tau.rel)
                )
                assert recomposed == K.incidence
                contexts += 1
    print(
        f"\nACCEPTANCE 3 lattice oracle: PASS "
        f"({contexts} exhaustive contexts <= 4x4; brute-force closure agreement, "
        f"density, and decomposition all bit-exact)"
    )


def test_acceptance_4_named_scale_counts():
    for n in range(1, 9):
        L = build_lattice(chain_classification(n))
        assert L.size == n
    for n in range(0, 11):
        K = contranominal_classification(n)
        L = build_lattice(K)
        assert L.size == 2**n
        if n <= 4:
            assert concept_set(L) == closed_pairs_oracle(K)
    print(
        "\nACCEPTANCE 4 named-scale counts: PASS "
        "(chains n<=8 give n concepts; contranominal n<=10 gives 2^n, "
        "oracle-checked through n=4)"
    )


def test_acceptance_5_functional_equivalence(equivalence_report):
    families = (
        "classification-roundtrip",
        "infomorphism-roundtrip",
        "lattice-roundtrip",
        "cl-naturality",
    )
    ok, failed = _families_pass(equivalence_report, families)
    assert ok, failed
    counts = equivalence_report.counts()
    print(
        "\nACCEPTANCE 5 Classification = Concept Lattice: PASS "
        f"(strict roundtrip on {counts['classification-roundtrip']['pass']} contexts, "
        f"{counts['infomorphism-roundtrip']['pass']} morphisms, witness isomorphisms "
        f"on {counts['lattice-roundtrip']['pass']} lattices, "
        f"{counts['cl-naturality']['pass']} naturality squares)"
    )


def test_acceptance_6_relational_equivalence(equivalence_report):
    families = (
        "adjoint-functoriality",
        "bond-functoriality",
        "bond-naturality",
        "adjoint-roundtrip",
    )
    ok, failed = _families_pass(equivalence_report, families)
    assert ok, failed
    counts = equivalence_report.counts()
    print(
        "\nACCEPTANCE 6 Bond = Complete Adjoint: PASS "
        f"(functoriality both ways, {counts['bond-naturality']['pass']} bit-exact "
        f"naturality equations, {counts['adjoint-roundtrip']['pass']} round trips)"
    )


def test_acceptance_7_complete_relational_equivalence(equivalence_report):
    families = (
        "pair-psi-phi",
        "pair-roundtrip",
        "hom-roundtrip",
        "pair-functoriality",
        "hom-functoriality",
        "embedding-inverse",
    )
    ok, failed = _families_pass(equivalence_report, families)
    assert ok, failed
    counts = equivalence_report.counts()
    print(
        "\nACCEPTANCE 7 Bonding Pair = Complete Lattice: PASS "
        f"(psi/phi agreement on {counts['pair-psi-phi']['pass']} pairs, "
        f"round trips both ways, embedding bonds mutually inverse on "
        f"{counts['embedding-inverse']['pass']} contexts)"
    )


def test_acceptance_8_colimit_transport(k1):
    rng = random.Random(SEED)
    R = random_context(rng, 2, 2)
    # each summand maps into the target (the identity at least), so every
    # diagram has cocones and transports a mediator for each
    diagrams = [coproduct_sum(k1, k1), coproduct_sum(R, R), apposition(k1, k1)]
    total = 0
    for d in diagrams:
        report = transport_coproduct(d, targets=[d.left])
        assert report.ok and report.records, report.failures
        checks = {r.check for r in report.records}
        assert transport_families(d.kind)[1] in checks, checks
        total += len(report.records)
    # a second copy of an apex instance gives a cocone two mediators
    broken = transport_coproduct(duplicated_instance_sum(k1, k1), targets=[k1])
    assert not broken.ok
    assert "2 mediators found" in {r.witness for r in broken.failures}
    print(
        f"\nACCEPTANCE 8 colimit transport: PASS ({total} universal-property and "
        f"transported-mediator checks across sums and appositions; a duplicated "
        f"apex instance fails with witness {broken.failures[0].witness!r})"
    )


def test_acceptance_9_cli_roundtrips(tmp_path, capsys):
    rng = random.Random(SEED)
    count = 0
    for i in range(50):
        K = random_context(rng, rng.randint(0, 5), rng.randint(0, 5))
        kind = ("cxt", "csv", "json")[i % 3]
        if kind == "cxt":
            text = emit_cxt(K)
        elif kind == "csv":
            text = emit_csv(K)
        else:
            text = json.dumps(classification_to_obj(K))
        parsed = parse_classification(text)
        assert parsed == K
        if kind == "cxt":
            assert emit_cxt(parsed) == text
        elif kind == "csv":
            assert emit_csv(parsed) == text
        count += 1

    from conceptual.cli import main

    assert main(["verify-equivalences", "--max-size", "2", "--seed", "11", "--json"]) == 0
    first = capsys.readouterr().out
    assert main(["verify-equivalences", "--max-size", "2", "--seed", "11", "--json"]) == 0
    second = capsys.readouterr().out
    assert first == second
    print(
        f"\nACCEPTANCE 9 CLI round-trips: PASS ({count} generated files "
        f"parse-serialize-parse to identity; verification report byte-identical "
        f"across runs under a fixed seed)"
    )
