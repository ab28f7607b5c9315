"""Executable verification of the three equivalences over a generated corpus.

The corpus holds every context up to 3x3, seeded random contexts beyond,
and the named scales; morphisms are found by exhaustive search between
small pairs and by construction elsewhere.  Everything is deterministic
under a fixed seed, and the report orders records by corpus position.
"""

from __future__ import annotations

import itertools
import random

from . import colimit, functors
from .bond import (
    Bond,
    BondingPair,
    bond_of,
    close_to_bond,
    compose_bonding_pairs,
    compose_bonds,
    identity_bond,
    identity_bonding_pair,
)
from .classification import (
    Classification,
    antichain_classification,
    chain_classification,
    contranominal_classification,
    powerset_classification,
)
from .errors import ConceptualError, ValidationError
from .infomorphism import (
    FunctionalInfomorphism,
    compose_functional,
    dual_functional,
    fn2rel,
    identity_functional,
    instance_infomorphism,
)
from .lattice import concept_lattice_of
from .relalg import FunctionGraph, Relation, bits
from .report import VerificationReport

CHECK_FAMILIES = (
    "classification-roundtrip",
    "infomorphism-roundtrip",
    "lattice-roundtrip",
    "cl-naturality",
    "embedding-inverse",
    "bond-naturality",
    "adjoint-functoriality",
    "bond-functoriality",
    "adjoint-roundtrip",
    "pair-psi-phi",
    "pair-roundtrip",
    "hom-roundtrip",
    "pair-functoriality",
    "hom-functoriality",
    "irreducibility",
    "sum-universal",
    "sum-transport",
    "apposition-universal",
    "apposition-transport",
)


def k1_classification() -> Classification:
    return Classification.from_pairs(
        ("1", "2"), ("a", "b"), [("1", "a"), ("2", "a"), ("2", "b")]
    )


# random square contexts go up to this size, and the corpus has no larger tier
MAX_CORPUS_SIZE = 6


def context_corpus(max_size: int, rng: random.Random) -> list[tuple[str, Classification]]:
    if not 0 <= max_size <= MAX_CORPUS_SIZE:
        raise ValidationError(f"max_size must be in 0..{MAX_CORPUS_SIZE}, got {max_size}")
    items: list[tuple[str, Classification]] = []
    exh = min(3, max_size)
    for m in range(exh + 1):
        for n in range(exh + 1):
            inst = tuple(f"i{k}" for k in range(m))
            typ = tuple(f"t{k}" for k in range(n))
            for code in range(1 << (m * n)):
                rows = tuple(code >> a * n & (1 << n) - 1 for a in range(m))
                items.append(
                    (f"exh-{m}x{n}-{code}", Classification(inst, typ, Relation(m, n, rows)))
                )
    for size in range(exh + 1, max_size + 1):
        inst = tuple(f"i{k}" for k in range(size))
        typ = tuple(f"t{k}" for k in range(size))
        for trial in range(2):
            rows = tuple(rng.getrandbits(size) for _ in range(size))
            items.append(
                (f"rand-{size}x{size}-{trial}", Classification(inst, typ, Relation(size, size, rows)))
            )
    if max_size >= 2:
        items.append(("k1", k1_classification()))
    for n in range(1, min(4, max_size) + 1):
        items.append((f"chain-{n}", chain_classification(n)))
    for n in (2, 3):
        if n <= max_size:
            items.append((f"antichain-{n}", antichain_classification(n)))
            items.append((f"contranominal-{n}", contranominal_classification(n)))
    if max_size >= 2:
        items.append(("powerset-2", powerset_classification(("x", "y"))))
    return items


def _sample(rng: random.Random, items: list, k: int) -> list:
    if len(items) <= k:
        return list(items)
    return rng.sample(items, k)


def _composable(items) -> list[tuple[int, int]]:
    """Index pairs ``(i, j)`` of ``(id, morphism)`` items whose morphisms
    compose: the target of ``i`` is the source of ``j``."""
    return [
        (i, j)
        for i in range(len(items))
        for j in range(len(items))
        if items[i][1].target == items[j][1].source
    ]


def _small(items, max_inst, max_typ):
    return [
        (i, K)
        for i, K in items
        if len(K.instances) <= max_inst and len(K.types) <= max_typ
    ]


def infomorphism_corpus(
    contexts, rng: random.Random
) -> list[tuple[str, FunctionalInfomorphism]]:
    items: list[tuple[str, FunctionalInfomorphism]] = []
    for cid, K in _sample(rng, contexts, 10):
        items.append((f"id-{cid}", identity_functional(K)))
    for cid, K in _sample(rng, _small(contexts, 3, 3), 6):
        items.append((f"eta-{cid}", instance_infomorphism(K)))
    small = _small(contexts, 2, 2)
    for sid, tid in _sample(rng, list(itertools.product(range(len(small)), repeat=2)), 6):
        a_id, A = small[sid]
        b_id, B = small[tid]
        found = list(itertools.islice(colimit.enumerate_infomorphisms(A, B), 4))
        for k, m in enumerate(found):
            items.append((f"enum-{a_id}>{b_id}-{k}", m))
    for mid, m in list(items):
        if len(m.source.types) <= 3 and len(m.target.types) <= 3 and len(items) < 60:
            items.append((f"dual-{mid}", dual_functional(m)))
    for i1, i2 in _sample(rng, _composable(items), 8):
        items.append(
            (
                f"comp-{items[i1][0]}-{items[i2][0]}",
                compose_functional(items[i1][1], items[i2][1]),
            )
        )
    return items


def bond_corpus(contexts, morphisms, rng: random.Random) -> list[tuple[str, Bond]]:
    items: list[tuple[str, Bond]] = []
    for cid, K in _sample(rng, contexts, 8):
        items.append((f"idbond-{cid}", identity_bond(K)))
    for mid, m in _sample(rng, morphisms, 10):
        items.append((f"fnbond-{mid}", bond_of(fn2rel(m))))
    small = _small(contexts, 3, 3)
    for _ in range(8):
        a_id, A = rng.choice(small)
        b_id, B = rng.choice(small)
        seed = Relation(
            len(B.instances),
            len(A.types),
            tuple(rng.getrandbits(len(A.types)) for _ in range(len(B.instances))),
        )
        items.append((f"closed-{a_id}>{b_id}", Bond(A, B, close_to_bond(A, B, seed))))
    for cid, K in _sample(rng, small, 3):
        emb = functors.embedding_bonds(K)
        items.append((f"iota-{cid}", emb.instance_bond))
        items.append((f"tau-{cid}", emb.type_bond))
    return items


def _first_maps(contexts, rng: random.Random, pairs: int, prefix: str, make):
    """For each of ``pairs`` sampled pairs of lattices of contexts up to
    2x2, the first three maps ``make(L, K, psi)`` builds without raising, in
    the enumeration order of ``psi``."""
    lattices = []
    for cid, K in _sample(rng, _small(contexts, 2, 2), 5):
        lattices.append((cid, functors.complete_lattice_of(concept_lattice_of(K))))
    items = []
    for (aid, L), (bid, Kl) in _sample(
        rng, list(itertools.product(lattices, repeat=2)), pairs
    ):
        count = 0
        for psi_t in itertools.product(range(Kl.size), repeat=L.size):
            try:
                m = make(L, Kl, FunctionGraph(psi_t, Kl.size))
            except ConceptualError:
                continue
            items.append((f"{prefix}-{aid}>{bid}-{count}", m))
            count += 1
            if count >= 3:
                break
    return items


def _with_left_adjoint(L, Kl, psi) -> functors.AdjointPair:
    """``psi`` with its left adjoint by the meet formula, validated."""
    phi_t = tuple(map(L.meet_of, psi.preimages(Kl.up)))
    return functors.AdjointPair(L, Kl, FunctionGraph(phi_t, L.size), psi)


def adjoint_corpus(contexts, bonds, rng: random.Random):
    items = []
    for cid, K in _sample(rng, contexts, 6):
        L = functors.complete_lattice_of(concept_lattice_of(K))
        items.append((f"idadj-{cid}", functors.identity_adjoint(L)))
    for bid, F in _sample(rng, bonds, 10):
        items.append((f"adj-{bid}", functors.adjoint_of_bond(F)))
    return items + _first_maps(contexts, rng, 4, "enumadj", _with_left_adjoint)


def hom_corpus(contexts, rng: random.Random):
    items = []
    for cid, K in _sample(rng, contexts, 5):
        L = functors.complete_lattice_of(concept_lattice_of(K))
        items.append((f"idhom-{cid}", functors.identity_hom(L)))
    return items + _first_maps(contexts, rng, 5, "enumhom", functors.CompleteHomomorphism)


def pair_corpus(contexts, homs, rng: random.Random) -> list[tuple[str, BondingPair]]:
    items: list[tuple[str, BondingPair]] = []
    for cid, K in _sample(rng, contexts, 8):
        items.append((f"idpair-{cid}", identity_bonding_pair(K)))
    for cid, K in _sample(rng, _small(contexts, 3, 3), 4):
        to_lattice, from_lattice = functors.embedding_bonding_pairs(K)
        items.append((f"embto-{cid}", to_lattice))
        items.append((f"embfrom-{cid}", from_lattice))
    for hid, h in homs:
        items.append((f"spread-{hid}", functors.pair_of_hom(h)))
    for i1, i2 in _sample(rng, _composable(items), 6):
        items.append(
            (
                f"comp-{items[i1][0]}-{items[i2][0]}",
                compose_bonding_pairs(items[i1][1], items[i2][1]),
            )
        )
    return items


def abstract_lattice_corpus(contexts, adjoints, rng: random.Random):
    lattices = []
    for cid, K in _sample(rng, contexts, 12):
        lattices.append((f"built-{cid}", concept_lattice_of(K)))
    for cid, K in _sample(rng, _small(contexts, 3, 3), 6):
        L = functors.complete_lattice_of(concept_lattice_of(K))
        lattices.append((f"selfdual-{cid}", functors.abstract_concept_lattice(L)))
    morphisms = []
    for aid, p in adjoints:
        src = functors.abstract_concept_lattice(p.source)
        tgt = functors.abstract_concept_lattice(p.target)
        morphisms.append(
            (
                f"abs-{aid}",
                functors.ConceptLatticeMorphism(src, tgt, p.phi, p.psi, p.phi, p.psi),
            )
        )
    return lattices, morphisms


def _naturality_holds(cm: functors.ConceptLatticeMorphism) -> bool:
    """The rebuild isomorphisms ``iso`` (rebuilt lattice to lattice) make
    the square ``L(C(cm)) ; iso_tgt == iso_src ; cm`` commute."""
    iso_src, iso_tgt = (
        functors.witness_as_lattice_morphism(functors.lattice_equivalence_witness(M))
        for M in (cm.source, cm.target)
    )
    rebuilt = functors.lattice_of_morphism(functors.morphism_of_lattice_morphism(cm))
    lhs = functors.compose_lattice_morphisms(rebuilt, iso_tgt)
    return lhs == functors.compose_lattice_morphisms(iso_src, cm)


def _functoriality(report, check, items, pairs, compose, functor, compose_image, witness):
    """For each ``(i, j)`` of ``pairs``: ``functor`` sends the composite of
    items ``i`` and ``j`` to the composite of their images."""
    for i, j in pairs:
        (aid, a), (bid, b) = items[i], items[j]
        lhs = functor(compose(a, b))
        report.add(check, f"{aid};{bid}", lhs == compose_image(functor(a), functor(b)), witness)


def verify_equivalences(
    max_size: int = 3, seed: int = 0, inject_bug: bool = False
) -> VerificationReport:
    rng = random.Random(seed)
    report = VerificationReport()
    contexts = context_corpus(max_size, rng)
    morphisms = infomorphism_corpus(contexts, rng)
    bonds = bond_corpus(contexts, morphisms, rng)
    adjoints = adjoint_corpus(contexts, bonds, rng)
    homs = hom_corpus(contexts, rng)
    pairs = pair_corpus(contexts, homs, rng)
    abstract_lattices, abstract_morphisms = abstract_lattice_corpus(contexts, adjoints, rng)

    # functional equivalence
    injected = inject_bug
    for cid, K in contexts:
        L = concept_lattice_of(K)
        back = functors.classification_of_lattice(L)
        if injected and K.instances and K.types:
            rows = list(back.incidence.rows)
            rows[0] ^= 1
            back = Classification(back.instances, back.types, Relation(len(rows), len(K.types), tuple(rows)))
            injected = False
        report.add(
            "classification-roundtrip",
            cid,
            back == K,
            witness=f"incidence differs: {back.incidence!r} vs {K.incidence!r}",
        )
    for mid, m in morphisms:
        rebuilt = functors.morphism_of_lattice_morphism(functors.lattice_of_morphism(m))
        report.add("infomorphism-roundtrip", mid, rebuilt == m, witness="C(L(m)) != m")
    for lid, L in abstract_lattices:
        report.attempt(
            "lattice-roundtrip", lid, lambda: functors.lattice_equivalence_witness(L), None
        )
    for mid, cm in abstract_morphisms:
        report.attempt("cl-naturality", mid, lambda: _naturality_holds(cm), "naturality square broke")

    # relational equivalence
    for cid, K in contexts:
        report.attempt("embedding-inverse", cid, lambda: functors.embedding_bonds(K), None)
    for bid, F in bonds:
        report.add(
            "bond-naturality", bid, functors.bond_naturality_holds(F), witness="paths differ"
        )
    _functoriality(
        report, "adjoint-functoriality", bonds, _sample(rng, _composable(bonds), 10),
        compose_bonds, functors.adjoint_of_bond, functors.compose_adjoints,
        "composite adjoint differs",
    )
    for cid, K in _sample(rng, contexts, 6):
        lhs = functors.adjoint_of_bond(identity_bond(K))
        rhs = functors.identity_adjoint(
            functors.complete_lattice_of(concept_lattice_of(K))
        )
        report.add("adjoint-functoriality", f"identity-{cid}", lhs == rhs)
    _functoriality(
        report, "bond-functoriality", adjoints, _sample(rng, _composable(adjoints), 10),
        functors.compose_adjoints, functors.bond_of_adjoint, compose_bonds,
        "composite bond differs",
    )
    for aid, p in adjoints:
        report.add(
            "adjoint-roundtrip", aid, functors.adjoint_roundtrip_holds(p), witness="conjugated round trip differs"
        )

    # complete relational equivalence
    for pid, p in pairs:
        report.attempt("pair-psi-phi", pid, lambda: functors.hom_of_pair(p), None)
        report.attempt(
            "pair-roundtrip",
            pid,
            lambda: functors.pair_roundtrip_holds(p),
            "conjugation differs from rebuild",
        )
    for hid, h in homs:
        report.add(
            "hom-roundtrip", hid, functors.hom_roundtrip_holds(h), witness="witness maps do not intertwine"
        )
    _functoriality(
        report, "pair-functoriality", pairs, _sample(rng, _composable(pairs), 8),
        compose_bonding_pairs, functors.hom_of_pair, functors.compose_homs,
        "composite homomorphism differs",
    )
    _functoriality(
        report, "hom-functoriality", homs, _sample(rng, _composable(homs), 8),
        functors.compose_homs, functors.pair_of_hom, compose_bonding_pairs,
        "composite pair differs",
    )

    # irreducibility preservation
    for mid, m in morphisms:
        LA = concept_lattice_of(m.source)
        LB = concept_lattice_of(m.target)
        cm = functors.lattice_of_morphism(m)
        ok = True
        if functors.is_type_reduced(LB):
            irr_a = functors.meet_irreducibles(LA)
            irr_b = functors.meet_irreducibles(LB)
            ok = all(irr_b >> cm.psi(x) & 1 for x in bits(irr_a))
        if ok and functors.is_instance_reduced(LA):
            irr_b = functors.join_irreducibles(LB)
            irr_a = functors.join_irreducibles(LA)
            ok = all(irr_a >> cm.phi(y) & 1 for y in bits(irr_b))
        report.add("irreducibility", mid, ok, witness="irreducibility lost")

    # colimit transport
    small = _small(contexts, 2, 2)
    summands = _sample(rng, [item for item in small if item[1].instances], 2)
    first_transport = True
    for (aid, A), (bid, B) in itertools.product(summands, repeat=2):
        d = colimit.coproduct_sum(A, B)
        sub = colimit.transport_coproduct(
            d, targets=[A], inject_bug=inject_bug and first_transport
        )
        first_transport = False
        report.extend(sub, f"{aid}+{bid}:")
    for cid, K in _sample(rng, [item for item in small if item[1].instances], 2):
        sub = colimit.transport_coproduct(colimit.apposition(K, K), targets=[K])
        report.extend(sub, f"{cid}|{cid}:")

    present = {r.check for r in report.records}
    for family in CHECK_FAMILIES:
        if family not in present:
            report.flag_no_coverage(family)
    return report
