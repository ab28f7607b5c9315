"""Bonds and bonding pairs: the relation-level morphisms of classifications.

A bond from A to B is a relation between B's instances and A's types whose
rows are intents of A and whose columns are extents of B.  Bond composition
is pure residuation.  Bonding pairs add the pairing constraints tying two
opposed bonds to a single lattice homomorphism.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass

from . import relalg
from .classification import Classification, extent_of, intent_of
from .errors import CheckResult, ShapeError, ValidationError
from .infomorphism import RelationalInfomorphism, check_relational
from .lattice import (
    CollectiveConcept,
    ConceptLattice,
    concept_lattice_of,
    is_collective_concept,
)
from .relalg import Relation, left_residual, right_residual


@dataclass(frozen=True)
class Bond:
    source: Classification
    target: Classification
    rel: Relation  # inst(target) x typ(source)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        expected = (len(self.target.instances), len(self.source.types))
        if self.rel.shape != expected:
            raise ShapeError(f"bond relation shape {self.rel.shape}, expected {expected}")
        if validate:
            is_bond(self.source, self.target, self.rel).require("relation is not a bond")

    def __repr__(self):
        return f"Bond({self.source!r} -> {self.target!r})"


def is_bond(A: Classification, B: Classification, rel: Relation) -> CheckResult:
    """Both closure equalities; on failure names the offending row or column."""
    expected = (len(B.instances), len(A.types))
    if rel.shape != expected:
        raise ShapeError(f"bond relation shape {rel.shape}, expected {expected}")
    row_closed = left_residual(right_residual(A.incidence, rel), A.incidence)
    if row_closed != rel:
        b = B.instances[relalg.first_difference(rel.rows, row_closed.rows)[0]]
        return CheckResult(
            False, witness=("row", b), reason=f"row of {b!r} is not an intent of the source"
        )
    col_closed = right_residual(B.incidence, left_residual(rel, B.incidence))
    if col_closed != rel:
        t = A.types[relalg.first_difference(rel.columns, col_closed.columns)[0]]
        return CheckResult(
            False, witness=("column", t), reason=f"column of {t!r} is not an extent of the target"
        )
    return CheckResult(True)


def identity_bond(A: Classification) -> Bond:
    """The classification relation itself."""
    return Bond(A, A, A.incidence)


def bond_of(m: RelationalInfomorphism) -> Bond:
    """The common residual of a valid relational infomorphism."""
    check_relational(m).require("invalid relational infomorphism")
    return Bond(m.source, m.target, left_residual(m.r, m.source.incidence))


def infomorphism_of(F: Bond) -> RelationalInfomorphism:
    """The canonical closed relational infomorphism with bond ``F``."""
    r = right_residual(F.source.incidence, F.rel)
    s = left_residual(F.rel, F.target.incidence)
    return RelationalInfomorphism(F.source, F.target, r, s)


def compose_bonds(F: Bond, G: Bond) -> Bond:
    """Residuate out the middle classification."""
    if F.target != G.source:
        raise ShapeError("compose_bonds: middle classifications differ")
    mid = F.target.incidence
    rel = left_residual(right_residual(mid, G.rel), F.rel)
    return Bond(F.source, G.target, rel)


def bonds_equivalent(m1: RelationalInfomorphism, m2: RelationalInfomorphism) -> bool:
    """Same endpoints and same bond."""
    if m1.source != m2.source or m1.target != m2.target:
        raise ShapeError("bonds_equivalent: endpoints differ")
    return bond_of(m1).rel == bond_of(m2).rel


def close_to_bond(A: Classification, B: Classification, rel: Relation) -> Relation:
    """Smallest bond containing ``rel``: alternate row- and column-closure.

    Each sweep only adds pairs forced by closure, and bonds are closed under
    intersection, so the fixpoint is the least bond above the input.
    """
    expected = (len(B.instances), len(A.types))
    if rel.shape != expected:
        raise ShapeError(f"bond seed shape {rel.shape}, expected {expected}")
    cur = rel
    while True:
        rows = tuple(intent_of(A, extent_of(A, row)) for row in cur.rows)
        cur2 = Relation(cur.src_size, cur.dst_size, rows)
        cols = relalg.transpose(cur2)
        closed_cols = tuple(extent_of(B, intent_of(B, col)) for col in cols.rows)
        cur3 = relalg.transpose(Relation(cols.src_size, cols.dst_size, closed_cols))
        if cur3 == cur:
            return cur
        cur = cur3


@dataclass(frozen=True)
class BondingPair:
    forward: Bond  # A -> B
    backward: Bond  # B -> A
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if (
            self.forward.source != self.backward.target
            or self.forward.target != self.backward.source
        ):
            raise ShapeError("bonding pair endpoints do not oppose each other")
        if validate:
            is_bonding_pair(self.forward, self.backward).require("pairing constraints fail")

    @property
    def source(self) -> Classification:
        return self.forward.source

    @property
    def target(self) -> Classification:
        return self.forward.target


def is_bonding_pair(F: Bond, G: Bond) -> CheckResult:
    """The two pairing constraints, computed over the source concept lattice."""
    if F.source != G.target or F.target != G.source:
        raise ShapeError("bonds do not oppose each other")
    LA = concept_lattice_of(F.source)
    B = F.target
    fwd = right_residual(F.rel, LA.tau_rel)  # inst(B) x L(A)
    bwd = left_residual(LA.iota_rel, G.rel)  # L(A) x typ(B)
    if fwd != right_residual(B.incidence, bwd):
        c = _pair_witness(F, G, LA)
        return CheckResult(False, witness=c, reason="first pairing constraint fails")
    if bwd != left_residual(fwd, B.incidence):
        c = _pair_witness(F, G, LA)
        return CheckResult(False, witness=c, reason="second pairing constraint fails")
    return CheckResult(True)


def _pair_witness(F: Bond, G: Bond, LA: ConceptLattice) -> tuple | None:
    """First concept violating the pointwise constraints, if any."""
    for i, violated in enumerate(pointwise_pair_violations(F, G)):
        if violated:
            c = LA.concepts[i]
            return ("concept", LA.extent_labels(c), LA.intent_labels(c))
    return None


def pointwise_pair_violations(F: Bond, G: Bond) -> list[bool]:
    """Per-concept failure flags for the pointwise pairing constraints.

    For each concept (E, I) of the source lattice the forward image by
    intent-derivation along F must match the closed instance image along G,
    and symmetrically.
    """
    LA = concept_lattice_of(F.source)
    B = F.target
    F_cls = Classification(B.instances, F.source.types, F.rel)
    G_cls = Classification(F.source.instances, B.types, G.rel)
    out = []
    for c in LA.concepts:
        gamma_f = extent_of(F_cls, c.intent)  # instances of B below the intent via F
        a_g = intent_of(G_cls, c.extent)  # types of B above the extent via G
        ok = gamma_f == extent_of(B, a_g) and a_g == intent_of(B, gamma_f)
        out.append(not ok)
    return out


def identity_bonding_pair(A: Classification) -> BondingPair:
    return BondingPair(identity_bond(A), identity_bond(A))


def compose_bonding_pairs(p1: BondingPair, p2: BondingPair) -> BondingPair:
    if p1.target != p2.source:
        raise ShapeError("compose_bonding_pairs: middle classifications differ")
    return BondingPair(
        compose_bonds(p1.forward, p2.forward), compose_bonds(p2.backward, p1.backward)
    )


def collective_image(p: BondingPair, c: CollectiveConcept) -> CollectiveConcept:
    """Image of a collective source concept under a bonding pair."""
    if not is_collective_concept(p.source, c):
        raise ValidationError("input is not a collective concept over the source")
    a = right_residual(p.forward.rel, c.alpha)
    alpha = left_residual(c.a, p.backward.rel)
    return CollectiveConcept(c.index_labels, a, alpha)
