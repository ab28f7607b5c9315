"""Executable verification of the three equivalences over a generated corpus.

The corpus holds every context up to 3x3, seeded random contexts beyond,
and the named scales; morphisms are found by exhaustive search between
small pairs and by construction elsewhere.  Everything is deterministic
under a fixed seed, and the report orders records by corpus position.
"""

from __future__ import annotations

import itertools
import random
from types import SimpleNamespace

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
from .relalg import FunctionGraph, Relation, bits, pullback
from .report import VerificationReport


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
            K = Classification(inst, typ, Relation(size, size, rows))
            items.append((f"rand-{size}x{size}-{trial}", K))
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


def _composites(rng: random.Random, items: list, k: int, sep: str) -> list:
    """``k`` sampled pairs of ``(id, morphism)`` items whose morphisms
    compose, the target of the first the source of the second, each as
    ``(first id + sep + second id, (first, second))``."""
    composable = [(a, b) for a in items for b in items if a[1].target == b[1].source]
    return [(f"{aid}{sep}{bid}", (a, b)) for (aid, a), (bid, b) in _sample(rng, composable, k)]


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
    for ab, (a, b) in _composites(rng, items, 8, "-"):
        items.append((f"comp-{ab}", compose_functional(a, b)))
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
        instance_bond, type_bond = functors.embedding_bonds(K)
        items.append((f"iota-{cid}", instance_bond))
        items.append((f"tau-{cid}", type_bond))
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
    phi_t = tuple(map(L.meet_of, pullback(Kl.up, Kl.down, psi)))
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
    for ab, (a, b) in _composites(rng, items, 6, "-"):
        items.append((f"comp-{ab}", compose_bonding_pairs(a, b)))
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


def _rebuilds(c):
    """Each context, with whether its rebuild carries the injected bug: the
    first context with an instance and a type does.  A corpus with no such
    context gets one more item, whose check fails for want of a bit to flip."""
    pending = c.inject_bug
    for cid, K in c.contexts:
        yield cid, (K, pending and bool(K.instances and K.types))
        pending = pending and not (K.instances and K.types)
    if pending:
        yield "inject-bug", (c.contexts[0][1], True)


def _classification_roundtrip(item) -> bool:
    """Whether ``C(L(K)) == K``, raising both incidences when not.  With
    ``plant``, the rebuild's first bit is flipped first; a ``K`` without one fails."""
    K, plant = item
    back = functors.classification_of_lattice(concept_lattice_of(K))
    if plant:
        if not (K.instances and K.types):
            raise ValidationError("no context has an instance and a type to perturb")
        rows = (back.incidence.rows[0] ^ 1,) + back.incidence.rows[1:]
        back = Classification(back.instances, back.types, Relation(len(rows), len(K.types), rows))
    if back != K:
        raise ValidationError(f"incidence differs: {back.incidence!r} vs {K.incidence!r}")
    return True


def _naturality_holds(cm: functors.ConceptLatticeMorphism) -> bool:
    """The rebuild isomorphisms ``iso`` (rebuilt lattice to lattice) make
    the square ``L(C(cm)) ; iso_tgt == iso_src ; cm`` commute."""
    iso_src, iso_tgt = map(functors.lattice_equivalence_witness, (cm.source, cm.target))
    rebuilt = functors.lattice_of_morphism(functors.morphism_of_lattice_morphism(cm))
    lhs = functors.compose_lattice_morphisms(rebuilt, iso_tgt)
    return lhs == functors.compose_lattice_morphisms(iso_src, cm)


def _irreducibility_kept(m: FunctionalInfomorphism) -> bool:
    """The lattice image of ``m`` keeps meet-irreducibles when the target is
    type-reduced, and join-irreducibles when the source is instance-reduced."""
    LA, LB = concept_lattice_of(m.source), concept_lattice_of(m.target)
    cm = functors.lattice_of_morphism(m)
    if functors.is_type_reduced(LB):
        irr_a, irr_b = functors.meet_irreducibles(LA), functors.meet_irreducibles(LB)
        if not all(irr_b >> cm.psi(x) & 1 for x in bits(irr_a)):
            return False
    if functors.is_instance_reduced(LA):
        irr_b, irr_a = functors.join_irreducibles(LB), functors.join_irreducibles(LA)
        return all(irr_a >> cm.phi(y) & 1 for y in bits(irr_b))
    return True


def _summands(c) -> list:
    return _sample(c.rng, [item for item in _small(c.contexts, 2, 2) if item[1].instances], 2)


def _sums(c):
    """The sum of each ordered pair of sampled summands, transported."""
    for (aid, A), (bid, B) in itertools.product(_summands(c), repeat=2):
        d = colimit.coproduct_sum(A, B)
        yield f"{aid}+{bid}:", colimit.transport_coproduct(d, targets=[A])


def _appositions(c):
    for cid, K in _summands(c):
        yield f"{cid}|{cid}:", colimit.transport_coproduct(colimit.apposition(K, K), targets=[K])


_ADJOINT_FUNCTORIALITY = "adjoint-functoriality"

# The checks, in report order.  A row is a function of the corpora ``c``
# giving ``(item id, item)`` pairs, called when the driver reaches the row so
# every ``rng`` draw keeps its place, then the ``(family, check, witness)``
# triples run on each item in turn.  A coproduct row's items are sub-reports
# of ``colimit.transport_coproduct``, and its triples only name families.
# Checks name library calls in their bodies, so a rebound function is seen.
FAMILIES = (
    # functional equivalence
    (_rebuilds, ("classification-roundtrip", _classification_roundtrip, None)),
    (lambda c: c.morphisms, (
        "infomorphism-roundtrip",
        lambda m: functors.morphism_of_lattice_morphism(functors.lattice_of_morphism(m)) == m,
        "C(L(m)) != m",
    )),
    (lambda c: c.lattices, (
        "lattice-roundtrip", lambda L: functors.lattice_equivalence_witness(L), None,
    )),
    (lambda c: c.lattice_morphisms, (
        "cl-naturality", _naturality_holds, "naturality square broke",
    )),
    # relational equivalence
    (lambda c: c.contexts, ("embedding-inverse", lambda K: functors.embedding_bonds(K), None)),
    (lambda c: c.bonds, (
        "bond-naturality", lambda F: functors.bond_naturality_holds(F), "paths differ",
    )),
    (lambda c: _composites(c.rng, c.bonds, 10, ";"), (
        _ADJOINT_FUNCTORIALITY,
        lambda ab: functors.adjoint_of_bond(compose_bonds(*ab))
        == functors.compose_adjoints(*map(functors.adjoint_of_bond, ab)),
        "composite adjoint differs",
    )),
    (lambda c: [(f"identity-{cid}", K) for cid, K in _sample(c.rng, c.contexts, 6)], (
        _ADJOINT_FUNCTORIALITY,
        lambda K: functors.adjoint_of_bond(identity_bond(K))
        == functors.identity_adjoint(functors.complete_lattice_of(concept_lattice_of(K))),
        None,
    )),
    (lambda c: _composites(c.rng, c.adjoints, 10, ";"), (
        "bond-functoriality",
        lambda pq: functors.bond_of_adjoint(functors.compose_adjoints(*pq))
        == compose_bonds(*map(functors.bond_of_adjoint, pq)),
        "composite bond differs",
    )),
    (lambda c: c.adjoints, (
        "adjoint-roundtrip",
        lambda p: functors.adjoint_roundtrip_holds(p),
        "conjugated round trip differs",
    )),
    # complete relational equivalence
    (lambda c: c.pairs, ("pair-psi-phi", lambda p: functors.hom_of_pair(p), None), (
        "pair-roundtrip",
        lambda p: functors.pair_roundtrip_holds(p),
        "conjugation differs from rebuild",
    )),
    (lambda c: c.homs, (
        "hom-roundtrip",
        lambda h: functors.hom_roundtrip_holds(h),
        "witness maps do not intertwine",
    )),
    (lambda c: _composites(c.rng, c.pairs, 8, ";"), (
        "pair-functoriality",
        lambda pq: functors.hom_of_pair(compose_bonding_pairs(*pq))
        == functors.compose_homs(*map(functors.hom_of_pair, pq)),
        "composite homomorphism differs",
    )),
    (lambda c: _composites(c.rng, c.homs, 8, ";"), (
        "hom-functoriality",
        lambda hk: functors.pair_of_hom(functors.compose_homs(*hk))
        == compose_bonding_pairs(*map(functors.pair_of_hom, hk)),
        "composite pair differs",
    )),
    # irreducibility preservation
    (lambda c: c.morphisms, ("irreducibility", _irreducibility_kept, "irreducibility lost")),
    # colimit transport
    (_sums, *((family, None, None) for family in colimit.transport_families("sum"))),
    (_appositions, *((family, None, None) for family in colimit.transport_families("apposition"))),
)

CHECK_FAMILIES = tuple(dict.fromkeys(family for _, *checks in FAMILIES for family, _, _ in checks))


def verify_equivalences(
    max_size: int = 3, seed: int = 0, inject_bug: bool = False
) -> VerificationReport:
    c = SimpleNamespace(rng=random.Random(seed), inject_bug=inject_bug)
    c.contexts = context_corpus(max_size, c.rng)
    c.morphisms = infomorphism_corpus(c.contexts, c.rng)
    c.bonds = bond_corpus(c.contexts, c.morphisms, c.rng)
    c.adjoints = adjoint_corpus(c.contexts, c.bonds, c.rng)
    c.homs = hom_corpus(c.contexts, c.rng)
    c.pairs = pair_corpus(c.contexts, c.homs, c.rng)
    c.lattices, c.lattice_morphisms = abstract_lattice_corpus(c.contexts, c.adjoints, c.rng)
    report = VerificationReport()
    for items, *checks in FAMILIES:
        for item_id, item in items(c):
            if isinstance(item, VerificationReport):
                report.extend(item, item_id)
                continue
            for family, check, witness in checks:
                report.attempt(family, item_id, lambda: check(item), witness)
    present = {r.check for r in report.records}
    for family in CHECK_FAMILIES:
        if family not in present:
            report.flag_no_coverage(family)
    return report
