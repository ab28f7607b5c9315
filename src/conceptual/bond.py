"""Bonds and bonding pairs: the relation-level morphisms of classifications.

A bond from A to B is a relation between B's instances and A's types whose
rows are intents of A and whose columns are extents of B.  Bond composition
is pure residuation.  Bonding pairs add the pairing constraints tying two
opposed bonds to a single lattice homomorphism.

An X-indexed collective concept ``(a, alpha)`` of ``K``, ``a`` inst(K) x X
and ``alpha`` X x typ(K), is closed when ``a == I/alpha`` and
``alpha == a\\I``.  That is the bond ``alpha`` from ``K`` into the
contranominal scale of X, whose view ``r`` is ``a``: its row check is
``alpha == (I/alpha)\\I``, and its column check always holds, for every
index set is an extent of the scale (Ganter & Wille, *Formal Concept
Analysis*, 1999, on bonds and scales).  So a collective concept is that
``Bond``: two are ordered by ``subrelation`` of their ``r``, and the image
of one along a bonding pair ``p`` is ``compose_bonds(p.backward, F)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from . import relalg
from .classification import Classification, contranominal_classification
from .errors import CheckResult, ShapeError, ValidationError, quote, require_shape
from .infomorphism import RelationalInfomorphism, check_relational
from .lattice import ConceptLattice, concept_lattice_of
from .relalg import FunctionGraph, Relation, _new, left_residual, right_residual, view

if TYPE_CHECKING:
    from .functors import CompleteHomomorphism


@dataclass(frozen=True)
class Bond:
    """A bond ``rel`` from ``source`` (A) to ``target`` (B): the constructor
    checks the shape of ``rel`` and raises unless ``is_bond`` holds, and
    ``_of`` stores a bond built from checked values unchecked.

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
    - ``preimage_extents``, inst(A) x L(B), is ``I_A/preimages``: column
      ``c`` holds the source instances that have every type of row ``c`` of
      ``preimages``, the extent of that intent.  It is the right-hand side
      of the first pairing constraint, and the pair round trip's backward
      conjugation reads it.
    """

    source: Classification
    target: Classification
    rel: Relation  # inst(target) x typ(source)

    def __post_init__(self):
        _require_shape(self.source, self.target, self.rel, "bond relation")
        is_bond(self.source, self.target, self).require("relation is not a bond")

    @classmethod
    def _of(cls, source: Classification, target: Classification, rel: Relation) -> "Bond":
        """The bond with these fields, stored unchecked, as
        ``Classification._of``: only for a relation of the bond's shape that
        is a bond by construction or is judged afterwards by ``is_bond``."""
        out = _new(cls)
        d = out.__dict__
        d["source"] = source
        d["target"] = target
        d["rel"] = rel
        return out

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

    @view
    def preimage_extents(self) -> Relation:
        return right_residual(self.source.incidence, self.preimages)

    def __repr__(self):
        return f"Bond({self.source!r} -> {self.target!r})"


def _require_shape(A: Classification, B: Classification, rel: Relation, what: str) -> None:
    """``require_shape`` of ``rel``, named ``what``: inst(B) x typ(A), the
    shape of a bond from ``A`` to ``B``."""
    require_shape(what, rel.shape, (len(B.instances), len(A.types)))


def is_bond(A: Classification, B: Classification, rel: Relation | Bond) -> CheckResult:
    """Both closure equalities, ``(I_A/rel)\\I_A == rel`` on the rows and
    ``I_B/(rel\\I_B) == rel`` on the columns; on failure names the first
    offending row, else the first offending column.

    ``rel`` is a ``Bond`` from ``A`` to ``B``, or a raw relation, whose
    shape is checked before it is wrapped as one unchecked; the bond's views
    ``r`` and ``s`` serve as the two inner residuals.
    """
    if isinstance(rel, Bond):
        bond = rel
    else:
        _require_shape(A, B, rel, "bond relation")
        bond = Bond._of(A, B, rel)
    rel = bond.rel
    row_closed = left_residual(bond.r, A.incidence)
    if row_closed != rel:
        b = B.instances[relalg.first_difference(rel.rows, row_closed.rows)[0]]
        return _closure_failure("row", b)
    col_closed = right_residual(B.incidence, bond.s)
    if col_closed != rel:
        t = A.types[relalg.first_difference(rel.columns, col_closed.columns)[0]]
        return _closure_failure("column", t)
    return CheckResult(True)


def _closure_failure(side: str, label) -> CheckResult:
    """A failed bond check at the row of the target instance ``label`` or at
    the column of the source type ``label``."""
    closed = "an intent of the source" if side == "row" else "an extent of the target"
    return CheckResult(
        False, witness=(side, label), reason=f"{side} of {quote(label)} is not {closed}"
    )


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
    _require_shape(A, B, rel, "bond seed")
    cur = rel
    while True:
        closed = _close_columns(B, _close_rows(A, cur))
        if closed == cur:
            return cur
        cur = closed


@dataclass(frozen=True)
class BondingPair:
    """Two opposed bonds: the constructor raises unless their endpoints
    oppose and ``is_bonding_pair`` holds, and ``_of`` stores a pair built
    from checked values unchecked.  The homomorphism they determine,
    ``hom``, is built on first use."""

    forward: Bond  # A -> B
    backward: Bond  # B -> A

    def __post_init__(self):
        if (
            self.forward.source != self.backward.target
            or self.forward.target != self.backward.source
        ):
            raise ShapeError("bonding pair endpoints do not oppose each other")
        is_bonding_pair(self.forward, self.backward).require("pairing constraints fail")

    @classmethod
    def _of(cls, forward: Bond, backward: Bond) -> "BondingPair":
        """The pair with these fields, stored unchecked, as ``Bond._of``:
        only for opposed bonds that meet the pairing constraints by
        construction or are judged afterwards by ``is_bonding_pair``."""
        out = _new(cls)
        d = out.__dict__
        d["forward"] = forward
        d["backward"] = backward
        return out

    @property
    def source(self) -> Classification:
        return self.forward.source

    @property
    def target(self) -> Classification:
        return self.forward.target

    @view
    def hom(self) -> CompleteHomomorphism:
        """Right adjoint of the forward bond; checked against the left
        adjoint of the backward bond, which must agree pointwise.

        ``functors._adjoint_maps`` reads the derived maps ``(phi_F, psi_F)``
        of the forward bond, between the complete lattices ``L`` and ``K``
        of its ends, and ``(phi_G, psi_G)`` of the backward one.  The hom
        ``CompleteHomomorphism(L, K, psi_F)`` is checked, and its
        ``canonical_adjoints`` ``(left, right)`` are read off the two batches
        that check pulled back, ``ups[y] = psi_F^-1(up y)`` and
        ``downs[y] = psi_F^-1(down y)``.  Each adjoint pair of the bonds is a
        ``ConceptLatticeMorphism`` between complete lattices, whose embedding
        squares compare a tuple with itself, so two tuple identities decide
        both adjointness tests and no morphism is built:

        - ``left == phi_F`` says ``L.intents[phi_F(y)] == ups[y]`` for every
          ``y``, the forward pair's adjointness, row by row;
        - ``right == psi_G``, with ``phi_G == psi_F`` and the backward pair
          between the same two lattices, says ``L.extents[psi_G(y)] ==
          downs[y]``, that is, ``x <= psi_G(y)`` iff ``psi_F(x) <= y``: the
          backward pair's adjointness, read by columns.

        A ``ValidationError`` on the way, or a tuple that differs, runs the
        full sequence instead, which raises the failure: both adjoint pairs
        of ``adjoint_of_bond``, each checked, then ``psi_F`` against
        ``phi_G``, then the hom.  The backward bond is read only once the
        forward pair is adjoint, as in that sequence, so any other error
        arises where it arises there."""
        # functors imports this module, so it is imported on first use
        from .functors import (
            CompleteHomomorphism,
            _adjoint_maps,
            adjoint_of_bond,
            canonical_adjoints,
        )

        try:
            L, K, phi, psi = _adjoint_maps(self.forward)
            h = CompleteHomomorphism(L, K, psi)
            left, right = canonical_adjoints(h)
            if left.targets == phi.targets:
                K_G, L_G, phi_G, psi_G = _adjoint_maps(self.backward)
                if (
                    (K_G, L_G) == (K, L)
                    and phi_G.targets == psi.targets
                    and right.targets == psi_G.targets
                ):
                    return h
        except ValidationError:
            pass
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
    instance set to be the extent of the type set, ``G``'s view
    ``preimage_extents``, the second the type set to be the intent of the
    instance set; the witness is the first concept at which either fails,
    and the reason names the constraint that fails there, the first if both
    do.
    """
    if F.source != G.target or F.target != G.source:
        raise ShapeError("bonds do not oppose each other")
    B = F.target
    fwd = F.images  # inst(B) x L(A)
    bwd = G.preimages  # L(A) x typ(B)
    first = G.preimage_extents  # I_B/bwd
    second = left_residual(fwd, B.incidence)
    if fwd == first and bwd == second:
        return CheckResult(True)
    diffs = (
        relalg.first_difference(fwd.columns, first.columns),
        relalg.first_difference(bwd.rows, second.rows),
    )
    LA = concept_lattice_of(F.source)
    at = min(d[0] for d in diffs if d is not None)
    c = LA.concepts[at]
    which = "first" if diffs[0] is not None and diffs[0][0] == at else "second"
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


# -- collective concepts -------------------------------------------------------


def collective_from_function(L: ConceptLattice, f: FunctionGraph) -> Bond:
    """The collective concept picked out by a function into the lattice:
    row ``x`` is the intent of concept ``f(x)``.  Every row is an intent and
    every column an extent of the scale, so it is built unchecked.
    ``mediating_function`` reads ``f`` back when ``L`` is
    ``concept_lattice_of(L.classification)``; a ``CompleteLattice`` numbers
    its elements in its own order."""
    require_shape("function", f.shape, (f.src_size, L.size))
    K = L.classification
    rel = Relation(f.src_size, len(K.types), tuple(map(L.intents.__getitem__, f.targets)))
    return Bond._of(K, contranominal_classification(f.src_size), rel)


def mediating_function(F: Bond) -> FunctionGraph:
    """The unique function sending each index to its concept in
    ``concept_lattice_of(F.source)``: index ``x`` goes to the concept whose
    intent is row ``x`` of ``F.rel``.  A relation with a row that is no
    intent raises ``ValidationError``, as ``Bond`` does, at the first such
    row."""
    L = concept_lattice_of(F.source)
    rows = F.rel.rows
    try:
        return FunctionGraph._of(tuple(map(L.intent_index.__getitem__, rows)), L.size)
    except KeyError as missing:
        first = rows.index(missing.args[0])
    failure = _closure_failure("row", F.target.instances[first])
    raise ValidationError(f"relation is not a bond: {failure.reason}", witness=failure.witness)


def collective_transport(F: Bond, r: Relation, side: str) -> Bond:
    """Transport a collective concept along an index relation ``r``, X x Y.

    With ``side="left"`` (the left adjoint) ``F`` is indexed by X and the
    result, ``r\\F``, by Y; ``side="right"`` (the right adjoint) goes the
    other way, to ``(F.r/r)\\I``.  Every row of either is an intent, an
    intersection of rows of ``F.rel`` or a residual into ``I``, so each is
    built unchecked.
    """
    if side == "left":
        rel, n = left_residual(r, F.rel), r.dst_size
    elif side == "right":
        rel, n = left_residual(right_residual(F.r, r), F.source.incidence), r.src_size
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return Bond._of(F.source, contranominal_classification(n), rel)
