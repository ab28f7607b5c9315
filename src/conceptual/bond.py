"""Bonds and bonding pairs: the relation-level morphisms of classifications.

A bond from A to B is a relation between B's instances and A's types whose
rows are intents of A and whose columns are extents of B.  Bond composition
is pure residuation.  Bonding pairs add the pairing constraints tying two
opposed bonds to a single lattice homomorphism.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import TYPE_CHECKING

from . import relalg
from .classification import Classification
from .errors import CheckResult, ShapeError, ValidationError, quote
from .infomorphism import RelationalInfomorphism, check_relational
from .lattice import CollectiveConcept, concept_lattice_of, is_collective_concept
from .relalg import Relation, left_residual, right_residual, view

if TYPE_CHECKING:
    from .functors import CompleteHomomorphism


@dataclass(frozen=True)
class Bond:
    """A bond ``rel`` from ``source`` (A) to ``target`` (B), checked by
    ``is_bond`` unless ``validate`` is false.

    The residuals a bond determines on its own are derived views, built on
    first use and kept by the instance, so the checks, compositions and
    adjoints that meet one bond share them:

    - ``r``, inst(A) x inst(B), is ``I_A/rel``: ``(a, b)`` when ``a`` has
      every type in ``b``'s row.  It is the instance relation of the
      canonical infomorphism and the inner residual of the row check.
    - ``s``, typ(A) x typ(B), is ``rel\\I_B``: ``(t, u)`` when every
      instance ``rel`` gives ``t`` has type ``u``.  It is the type relation
      of the canonical infomorphism and the inner residual of the column
      check.
    - ``images``, inst(B) x L(A), is ``rel/tau_A``: column ``c`` holds the
      target instances whose row contains the intent of source concept
      ``c``, the extent the right adjoint sends ``c`` to.
    - ``preimages``, L(B) x typ(A), is ``iota_B\\rel``: row ``c`` holds the
      source types that the bond gives all of the extent of target concept
      ``c``, the intent the left adjoint sends ``c`` to.
    """

    source: Classification
    target: Classification
    rel: Relation  # inst(target) x typ(source)
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        expected = (len(self.target.instances), len(self.source.types))
        if self.rel.shape != expected:
            raise ShapeError(f"bond relation shape {self.rel.shape}, expected {expected}")
        if validate:
            is_bond(self.source, self.target, self).require("relation is not a bond")

    @view
    def r(self) -> Relation:
        return right_residual(self.source.incidence, self.rel)

    @view
    def s(self) -> Relation:
        return left_residual(self.rel, self.target.incidence)

    @view
    def images(self) -> Relation:
        return right_residual(self.rel, concept_lattice_of(self.source).tau_rel)

    @view
    def preimages(self) -> Relation:
        return left_residual(concept_lattice_of(self.target).iota_rel, self.rel)

    def __repr__(self):
        return f"Bond({self.source!r} -> {self.target!r})"


def is_bond(A: Classification, B: Classification, rel: Relation | Bond) -> CheckResult:
    """Both closure equalities, ``(I_A/rel)\\I_A == rel`` on the rows and
    ``I_B/(rel\\I_B) == rel`` on the columns; on failure names the first
    offending row, else the first offending column.

    ``rel`` is a ``Bond`` from ``A`` to ``B``, or a raw relation, which is
    wrapped as one unchecked; the bond's views ``r`` and ``s`` serve as the
    two inner residuals.
    """
    bond = rel if isinstance(rel, Bond) else Bond(A, B, rel, validate=False)
    rel = bond.rel
    row_closed = left_residual(bond.r, A.incidence)
    if row_closed != rel:
        b = B.instances[relalg.first_difference(rel.rows, row_closed.rows)[0]]
        return CheckResult(
            False, witness=("row", b), reason=f"row of {quote(b)} is not an intent of the source"
        )
    col_closed = right_residual(B.incidence, bond.s)
    if col_closed != rel:
        t = A.types[relalg.first_difference(rel.columns, col_closed.columns)[0]]
        return CheckResult(
            False,
            witness=("column", t),
            reason=f"column of {quote(t)} is not an extent of the target",
        )
    return CheckResult(True)


def _close_rows(A: Classification, rel: Relation) -> Relation:
    """Each row closed to an intent of ``A``: the residual ``(I/rel)\\I``
    sends an instance of the target to the types shared by every source
    instance carrying its whole row."""
    return left_residual(right_residual(A.incidence, rel), A.incidence)


def _close_columns(B: Classification, rel: Relation) -> Relation:
    """Each column closed to an extent of ``B``: ``I/(rel\\I)``, dually."""
    return right_residual(B.incidence, left_residual(rel, B.incidence))


def identity_bond(A: Classification) -> Bond:
    """The classification relation itself."""
    return Bond(A, A, A.incidence)


def bond_of(m: RelationalInfomorphism) -> Bond:
    """The common residual of a valid relational infomorphism."""
    check_relational(m).require("invalid relational infomorphism")
    return Bond(m.source, m.target, left_residual(m.r, m.source.incidence))


def infomorphism_of(F: Bond) -> RelationalInfomorphism:
    """The canonical closed relational infomorphism with bond ``F``: the
    bond's views ``r`` and ``s``."""
    return RelationalInfomorphism(F.source, F.target, F.r, F.s)


def compose_bonds(F: Bond, G: Bond) -> Bond:
    """Residuate out the middle classification: ``G.r\\F``, where ``G.r``
    is ``I_mid/G``."""
    if F.target != G.source:
        raise ShapeError("compose_bonds: middle classifications differ")
    return Bond(F.source, G.target, left_residual(G.r, F.rel))


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
        closed = _close_columns(B, _close_rows(A, cur))
        if closed == cur:
            return cur
        cur = closed


@dataclass(frozen=True)
class BondingPair:
    """Two opposed bonds, checked by ``is_bonding_pair`` unless ``validate``
    is false; the homomorphism they determine, ``hom``, is built on first use."""

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

    @view
    def hom(self) -> CompleteHomomorphism:
        """Right adjoint of the forward bond; checked against the left
        adjoint of the backward bond, which must agree pointwise."""
        # functors imports this module, so it is imported on first use
        from .functors import CompleteHomomorphism, adjoint_of_bond

        fwd = adjoint_of_bond(self.forward)
        bwd = adjoint_of_bond(self.backward)
        diff = relalg.first_difference(fwd.psi.targets, bwd.phi.targets)
        if diff is not None:
            raise ValidationError(
                "forward right adjoint and backward left adjoint disagree", witness=(diff[0],)
            )
        return CompleteHomomorphism(fwd.source, fwd.target, fwd.psi)


def is_bonding_pair(F: Bond, G: Bond) -> CheckResult:
    """The two pairing constraints, computed over the source concept lattice.

    ``fwd`` is ``F``'s view ``images``: column ``c`` holds the target
    instances whose ``F`` row contains the intent of concept ``c``.  ``bwd``
    is ``G``'s view ``preimages``: row ``c`` holds the target types that
    ``G`` gives its whole extent.  The first constraint asks each such
    instance set to be the extent of the type set, the second the type set
    to be the intent of the instance set; the witness is the first concept
    at which either fails.
    """
    if F.source != G.target or F.target != G.source:
        raise ShapeError("bonds do not oppose each other")
    B = F.target
    fwd = F.images  # inst(B) x L(A)
    bwd = G.preimages  # L(A) x typ(B)
    first = right_residual(B.incidence, bwd)
    second = left_residual(fwd, B.incidence)
    if fwd == first and bwd == second:
        return CheckResult(True)
    diffs = (
        relalg.first_difference(fwd.columns, first.columns),
        relalg.first_difference(bwd.rows, second.rows),
    )
    LA = concept_lattice_of(F.source)
    c = LA.concepts[min(d[0] for d in diffs if d is not None)]
    which = "first" if diffs[0] is not None else "second"
    return CheckResult(
        False,
        witness=("concept", LA.extent_labels(c), LA.intent_labels(c)),
        reason=f"{which} pairing constraint fails",
    )


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
