"""The six structure maps between the relation world and the lattice world,
with constructive witnesses for all three equivalences.

Naming follows the directions of travel: ``lattice_of_morphism`` /
``classification_of_lattice`` mediate the functional equivalence,
``adjoint_of_bond`` / ``bond_of_adjoint`` the relational one, and
``hom_of_pair`` / ``pair_of_hom`` the complete-relational one.  The
witnesses are arrows of the categories themselves: the rebuild isomorphism
of a concept lattice is a ``ConceptLatticeMorphism``, and a classification's
isomorphism with its order classification is a pair of ``Bond``s.  Each is
validated on the spot and raises with a witness if the books do not
balance.  The arrow types here have no unchecked mode: construction is the
check, and a caller that sifts candidates catches ``ValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bond import Bond, BondingPair, compose_bonds
from .classification import Classification
from .errors import CheckResult, ShapeError, ValidationError
from .infomorphism import FunctionalInfomorphism
from .lattice import (
    ConceptLattice,
    FormalConcept,
    bound_of,
    build_lattice,
    check_lattice,
    concept_lattice_of,
)
from .relalg import (
    FunctionGraph,
    Relation,
    adjoint_failure,
    bits,
    left_residual,
    mask_of,
    pullback,
    right_residual,
    transpose,
    view,
)


# -- complete lattices -------------------------------------------------------


@dataclass(frozen=True)
class CompleteLattice:
    """A finite lattice presented by its order relation; always complete.

    Construction runs ``check_lattice``; meets and joins are looked up on
    demand from the principal down- and up-sets.  The lattice owns its order
    classification, ``classification``, so residuals into its order are
    taken from the down-sets, as into any incidence."""

    elements: tuple[str, ...]
    leq: Relation

    def __post_init__(self):
        n = len(self.elements)
        if self.leq.shape != (n, n):
            raise ShapeError(f"order shape {self.leq.shape} for {n} elements")
        if len(set(self.elements)) != n:
            raise ValidationError("duplicate element labels")
        check_lattice(self.leq, self.elements, self.down, self.down_index)

    @property
    def size(self) -> int:
        return len(self.elements)

    @view
    def down(self) -> tuple[int, ...]:
        """The principal down-sets: the type columns of ``classification``."""
        return self.classification.cols

    @property
    def up(self) -> tuple[int, ...]:
        return self.leq.rows

    @view
    def down_index(self) -> dict[int, int]:
        return {d: x for x, d in enumerate(self.down)}

    @view
    def up_index(self) -> dict[int, int]:
        return {u: x for x, u in enumerate(self.up)}

    def meet_of(self, mask: int) -> int:
        """Greatest lower bound of a set of elements; top for the empty set."""
        return bound_of(self.down, self.down_index, (1 << len(self.elements)) - 1, mask, "meet")

    def join_of(self, mask: int) -> int:
        return bound_of(self.up, self.up_index, (1 << len(self.elements)) - 1, mask, "join")

    @view
    def top(self) -> int:
        return self.meet_of(0)

    @view
    def bottom(self) -> int:
        return self.join_of(0)

    @view
    def classification(self) -> Classification:
        """The lattice classified by its own order (instances = types =
        elements); its type columns are the principal down-sets."""
        return Classification(self.elements, self.elements, self.leq)

    def __repr__(self):
        return f"CompleteLattice({self.size} elements)"


@lru_cache(maxsize=4096)
def _complete_lattice_of_order(order: Relation) -> CompleteLattice:
    return CompleteLattice(tuple(f"c{i}" for i in range(order.src_size)), order)


def complete_lattice_of(L: ConceptLattice) -> CompleteLattice:
    """Forget the embeddings; elements are named by concept position.

    A complete lattice is its order, so the cache is keyed by ``L.order``:
    concept lattices with equal orders share one validated lattice and its
    views (hash-consing).  ``cache_clear`` and ``cache_info`` are the
    cache's own."""
    return _complete_lattice_of_order(L.order)


complete_lattice_of.cache_clear = _complete_lattice_of_order.cache_clear
complete_lattice_of.cache_info = _complete_lattice_of_order.cache_info


def abstract_concept_lattice(L: CompleteLattice) -> ConceptLattice:
    """A complete lattice as a concept lattice over itself, both embeddings
    the identity."""
    n = L.size
    ident = FunctionGraph.identity(n)
    concepts = tuple(FormalConcept(L.down[x], L.up[x]) for x in range(n))
    return ConceptLattice(concepts, L.elements, L.elements, ident, ident)


# -- functional equivalence ---------------------------------------------------


@dataclass(frozen=True)
class ConceptLatticeMorphism:
    """Adjoint lattice maps riding on instance/type functions.

    ``psi`` runs forward and respects the type embeddings through ``g``;
    ``phi`` runs backward and respects the instance embeddings through
    ``f``; the two are adjoint.
    """

    source: ConceptLattice
    target: ConceptLattice
    phi: FunctionGraph  # target lattice -> source lattice
    psi: FunctionGraph  # source lattice -> target lattice
    f: FunctionGraph  # target instances -> source instances
    g: FunctionGraph  # source types -> target types

    def __post_init__(self):
        if self.phi.shape != (self.target.size, self.source.size):
            raise ShapeError(f"phi shape {self.phi.shape} is wrong")
        if self.psi.shape != (self.source.size, self.target.size):
            raise ShapeError(f"psi shape {self.psi.shape} is wrong")
        check_lattice_morphism(self).require("not a concept lattice morphism")


def check_lattice_morphism(m: ConceptLatticeMorphism) -> CheckResult:
    src, tgt = m.source, m.target
    order = tgt.order
    diff = adjoint_failure(src.order.rows, order.rows, order.columns, m.phi.targets, m.psi)
    if diff is not None:
        return CheckResult(False, witness=diff, reason="adjointness fails")
    # both squares end in one lattice, so their composites compare as targets
    if src.tau.then_targets(m.psi) != m.g.then_targets(tgt.tau):
        return CheckResult(False, reason="psi does not preserve type concepts")
    if tgt.iota.then_targets(m.phi) != m.f.then_targets(src.iota):
        return CheckResult(False, reason="phi does not preserve instance concepts")
    return CheckResult(True)


def compose_lattice_morphisms(
    m1: ConceptLatticeMorphism, m2: ConceptLatticeMorphism
) -> ConceptLatticeMorphism:
    if m1.target != m2.source:
        raise ShapeError("compose_lattice_morphisms: middle lattices differ")
    return ConceptLatticeMorphism(
        m1.source,
        m2.target,
        m2.phi.then(m1.phi),
        m1.psi.then(m2.psi),
        m2.f.then(m1.f),
        m1.g.then(m2.g),
    )


def lattice_of_morphism(m: FunctionalInfomorphism) -> ConceptLatticeMorphism:
    """Functional equivalence, object-to-lattice direction on morphisms.

    ``psi`` sends a concept to the closure of the inverse image of its
    extent; ``phi`` dually via inverse images of intents.  The inverse
    images of all extents (all intents) are one ``pullback`` along ``f``
    (along ``g``) of the extents, whose columns are the rows of ``iota_rel``
    (of the intents, the rows of ``tau_rel``).
    """
    LA = concept_lattice_of(m.source)
    LB = concept_lattice_of(m.target)
    extents = pullback(LA.extents, LA.iota_rel.rows, m.f)
    intents = pullback(LB.intents, LB.tau_rel.columns, m.g)
    psi = FunctionGraph.from_targets(tuple(map(LB.extent_index.__getitem__, extents)), LB.size)
    phi = FunctionGraph.from_targets(tuple(map(LA.intent_index.__getitem__, intents)), LA.size)
    return ConceptLatticeMorphism(LA, LB, phi, psi, m.f, m.g)


def classification_of_lattice(L: ConceptLattice) -> Classification:
    """Instances and types of the lattice, classified through the embeddings:
    ``compose(iota_rel, transpose(tau.rel))``, the ``pullback`` of
    ``iota_rel`` along ``tau``."""
    m, n, iota_rel = len(L.instance_labels), len(L.type_labels), L.iota_rel
    incidence = Relation(m, n, pullback(iota_rel.rows, iota_rel.columns, L.tau))
    return Classification(L.instance_labels, L.type_labels, incidence)


def morphism_of_lattice_morphism(cm: ConceptLatticeMorphism) -> FunctionalInfomorphism:
    """Functional equivalence, lattice-to-classification direction."""
    return FunctionalInfomorphism(
        classification_of_lattice(cm.source),
        classification_of_lattice(cm.target),
        cm.f,
        cm.g,
    )


def lattice_equivalence_witness(L: ConceptLattice) -> ConceptLatticeMorphism:
    """Rebuild the lattice from its own classification and exhibit the
    isomorphism, the morphism from the rebuilt lattice to ``L`` that is the
    identity on instances and types.

    Raises if a concept's extent is not rebuilt, if the maps fail to invert,
    or if the morphism check fails; two inverse maps that are adjoint are
    monotone both ways, so no separate order check is made."""
    K = classification_of_lattice(L)
    M = build_lattice(K)
    back = tuple(map(M.extent_index.get, L.extents))
    if None in back:
        raise ValidationError(
            "extent is not an extent of the rebuilt lattice", witness=(back.index(None),)
        )
    backward = FunctionGraph.from_targets(back, M.size)
    fwd = []
    for c in M.concepts:
        via_join = L.join_index([L.iota(a) for a in bits(c.extent)])
        via_meet = L.meet_index([L.tau(t) for t in bits(c.intent)])
        if via_join != via_meet:
            raise ValidationError(
                "join-of-instances and meet-of-types disagree", witness=(c,)
            )
        fwd.append(via_join)
    forward = FunctionGraph.from_targets(tuple(fwd), L.size)
    for x in range(L.size):
        if forward(backward(x)) != x:
            raise ValidationError("round trip lattice->rebuilt->lattice fails", witness=(x,))
    for i in range(M.size):
        if backward(forward(i)) != i:
            raise ValidationError("round trip rebuilt->lattice->rebuilt fails", witness=(i,))
    return ConceptLatticeMorphism(
        M,
        L,
        backward,
        forward,
        FunctionGraph.identity(len(L.instance_labels)),
        FunctionGraph.identity(len(L.type_labels)),
    )


# -- relational equivalence ---------------------------------------------------


@dataclass(frozen=True)
class AdjointPair:
    """Contravariant adjoint maps between two complete lattices."""

    source: CompleteLattice
    target: CompleteLattice
    phi: FunctionGraph  # target -> source, left adjoint
    psi: FunctionGraph  # source -> target, right adjoint

    def __post_init__(self):
        if self.phi.shape != (self.target.size, self.source.size):
            raise ShapeError(f"phi shape {self.phi.shape} is wrong")
        if self.psi.shape != (self.source.size, self.target.size):
            raise ShapeError(f"psi shape {self.psi.shape} is wrong")
        check_adjoint(self).require("not an adjoint pair")


def check_adjoint(p: AdjointPair) -> CheckResult:
    diff = adjoint_failure(p.source.up, p.target.up, p.target.down, p.phi.targets, p.psi)
    if diff is None:
        return CheckResult(True)
    y, x = diff
    return CheckResult(
        False,
        witness=(p.target.elements[y], p.source.elements[x]),
        reason="adjointness fails",
    )


def identity_adjoint(L: CompleteLattice) -> AdjointPair:
    ident = FunctionGraph.identity(L.size)
    return AdjointPair(L, L, ident, ident)


def compose_adjoints(p1: AdjointPair, p2: AdjointPair) -> AdjointPair:
    if p1.target != p2.source:
        raise ShapeError("compose_adjoints: middle lattices differ")
    return AdjointPair(
        p1.source, p2.target, p2.phi.then(p1.phi), p1.psi.then(p2.psi)
    )


def adjoint_of_bond(F: Bond) -> AdjointPair:
    """Derivation along the bond, in both directions, read off the bond's
    views.

    ``psi`` sends a source concept to the target instances whose bond row
    holds its intent, the columns of ``F.images`` (``F/tau_A``); ``phi``
    sends a target concept to the source types the bond gives all of its
    extent, the rows of ``F.preimages`` (``iota_B\\F``).  For a bond both
    are extents and intents."""
    LA = concept_lattice_of(F.source)
    LB = concept_lattice_of(F.target)
    psi = FunctionGraph.from_targets(
        tuple(LB.extent_index[e] for e in F.images.columns), LB.size
    )
    phi = FunctionGraph.from_targets(
        tuple(LA.intent_index[t] for t in F.preimages.rows), LA.size
    )
    return AdjointPair(complete_lattice_of(LA), complete_lattice_of(LB), phi, psi)


def bond_of_adjoint(p: AdjointPair) -> Bond:
    """The adjointness relation itself, as a bond between order
    classifications."""
    return _adjointness_bond(p.source, p.target, p.phi)


def _adjointness_bond(L: CompleteLattice, K: CompleteLattice, phi: FunctionGraph) -> Bond:
    """The bond from ``L`` to ``K`` whose row ``y`` is ``L.up[phi(y)]``."""
    rows = tuple(map(L.up.__getitem__, phi.targets))
    return Bond(L.classification, K.classification, Relation(K.size, L.size, rows))


def embedding_bonds(A: Classification) -> tuple[Bond, Bond]:
    """Exhibit ``A``'s isomorphism with its own concept lattice in the bond
    category: the instance bond, ``iota = LA.iota_rel``, from the order
    classification of ``A``'s lattice ``LA`` (its ``source``) to ``A``, and
    the type bond, ``tau = LA.tau_rel``, back.  The two are mutually inverse
    (checked).

    The check reads the bonds' own views, so later readers find them built.
    In a concept lattice the extents derive to the intents and back
    (Ganter & Wille, *Formal Concept Analysis*, 1999, Thm. 3): the instance
    bond's ``s``, ``iota\\I``, is ``tau``, and the type bond's ``r``,
    ``I/tau``, is ``iota``.  These two identities give the instance bond's
    column closure and the type bond's row closure, and they make the
    instance;type composite ``G.r\\F`` of ``compose_bonds`` the order
    ``iota\\iota``.  The other two closures, over the order, and the
    type;instance composite are computed.  Both bonds' ``is_bond`` and both
    composites follow, so the check is no weaker than validating the
    bonds."""
    LA = concept_lattice_of(A)
    order_cls = complete_lattice_of(LA).classification
    leq, iota, tau = order_cls.incidence, LA.iota_rel, LA.tau_rel
    instance_bond = Bond(order_cls, A, iota, validate=False)
    type_bond = Bond(A, order_cls, tau, validate=False)
    if instance_bond.s != tau:
        raise ValidationError("the extents do not derive to the intents")
    if type_bond.r != iota:
        raise ValidationError("the intents do not derive to the extents")
    if left_residual(instance_bond.r, leq) != iota:
        raise ValidationError("instance bond rows are not principal filters of the order")
    if right_residual(leq, type_bond.s) != tau:
        raise ValidationError("type bond columns are not principal ideals of the order")
    if LA.order != leq:
        raise ValidationError("instance;type composite is not the lattice identity bond")
    if left_residual(instance_bond.r, tau) != A.incidence:
        raise ValidationError("type;instance composite is not the identity bond")
    return instance_bond, type_bond


def _end_embeddings(F: Bond | BondingPair) -> tuple[tuple[Bond, Bond], tuple[Bond, Bond]]:
    """The embedding bonds of the source and of the target of ``F``, built
    once when the two are equal."""
    src = embedding_bonds(F.source)
    return src, src if F.target == F.source else embedding_bonds(F.target)


def bond_naturality_holds(F: Bond) -> bool:
    """Rebuilt bond against embedding bonds: both composition paths agree."""
    (inst_src, _), (inst_tgt, _) = _end_embeddings(F)
    rebuilt = bond_of_adjoint(adjoint_of_bond(F))
    lhs = compose_bonds(rebuilt, inst_tgt)
    rhs = compose_bonds(inst_src, F)
    return lhs == rhs


def down_up_witness(L: CompleteLattice) -> FunctionGraph:
    """Each element to its principal concept in the rebuilt order lattice."""
    M = concept_lattice_of(L.classification)
    targets = tuple(M.extent_index[L.down[x]] for x in range(L.size))
    if len(set(targets)) != M.size:
        raise ValidationError("principal concepts do not exhaust the rebuilt lattice")
    return FunctionGraph.from_targets(targets, M.size)


def adjoint_roundtrip_holds(p: AdjointPair) -> bool:
    """Conjugating the rebuilt adjoint by the principal-concept witnesses
    recovers the original pair."""
    q = adjoint_of_bond(bond_of_adjoint(p))
    w_src = down_up_witness(p.source)
    w_tgt = down_up_witness(p.target)
    return (
        w_src.then(q.psi) == p.psi.then(w_tgt)
        and w_tgt.then(q.phi) == p.phi.then(w_src)
    )


# -- complete relational equivalence ------------------------------------------


@dataclass(frozen=True)
class CompleteHomomorphism:
    """Monotone map preserving all meets and joins, empty ones included."""

    source: CompleteLattice
    target: CompleteLattice
    psi: FunctionGraph

    def __post_init__(self):
        if self.psi.shape != (self.source.size, self.target.size):
            raise ShapeError(f"psi shape {self.psi.shape} is wrong")
        is_complete_homomorphism(self.source, self.target, self).require(
            "not a complete homomorphism"
        )

    @view
    def principal_preimages(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """``psi``'s inverse images of the target's principal up-sets, then of
        its principal down-sets: the two batches the check finds principal,
        from which ``canonical_adjoints`` reads the adjoints."""
        return _principal_preimages(self.psi, self.target)

    @view
    def pair(self) -> BondingPair:
        """The hom spread into its two adjunction bonds, built on first use.

        ``phi`` is read off the up batch of ``principal_preimages``, so the
        adjointness of ``phi`` and ``psi``, that batch against the up-sets at
        ``phi``, holds by construction and the forward bond is built without
        an ``AdjointPair``.  The backward bond is the adjointness relation of
        ``psi`` and its right adjoint, which the hom's join check has shown
        to exist; that relation reads ``psi`` alone, so the adjoint itself is
        not built.  Both bonds are checked as bonds and as a pair."""
        phi = canonical_adjoints(self)[0]
        forward = _adjointness_bond(self.source, self.target, phi)
        backward = _adjointness_bond(self.target, self.source, self.psi)
        return BondingPair(forward, backward)


def _principal_preimages(
    psi: FunctionGraph, K: CompleteLattice
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``psi``'s inverse images of ``K``'s principal up-sets, then of its
    down-sets: two ``pullback``s of the order, each with the other as its
    columns."""
    return pullback(K.up, K.down, psi), pullback(K.down, K.up, psi)


def is_complete_homomorphism(
    L: CompleteLattice, K: CompleteLattice, psi: FunctionGraph | CompleteHomomorphism
) -> CheckResult:
    """``psi`` preserves all meets iff it has a left adjoint, and all joins
    iff it has a right adjoint (Davey & Priestley, *Introduction to Lattices
    and Order*, ch. 7).

    By residuation theory (Blyth & Janowitz, *Residuation Theory*, 1972), a
    map between complete lattices has a left adjoint iff the preimage of
    every principal up-set is a principal up-set, whose generator is then
    the adjoint's value: ``up[meet(S)] == S`` holds exactly when ``S`` is
    principal.  So the meet check asks that every row of
    ``compose(<=', psi^T)``, the preimages of the up-sets of ``K``, be a key
    of ``L.up_index``, and the join check that every preimage of a down-set
    of ``K`` be a key of ``L.down_index``; no meet or join is computed.

    ``psi`` is a map or a ``CompleteHomomorphism`` from ``L`` to ``K``,
    whose view ``principal_preimages`` serves as the two batches and keeps
    them for its adjoints.  Top and bottom, the empty meet and join, are
    cheap early exits.  A failing check names the first ``K`` element ``y``
    where it fails, the meet check first.
    """
    hom = psi if isinstance(psi, CompleteHomomorphism) else None
    if hom is not None:
        psi = hom.psi
    if psi(L.top) != K.top:
        return CheckResult(False, witness=("top",), reason="top is not preserved")
    if psi(L.bottom) != K.bottom:
        return CheckResult(False, witness=("bottom",), reason="bottom is not preserved")
    batches = _principal_preimages(psi, K) if hom is None else hom.principal_preimages
    for kind, preimages, principal in zip(("meet", "join"), batches, (L.up_index, L.down_index)):
        y = next((y for y, s in enumerate(preimages) if s not in principal), None)
        if y is not None:
            return CheckResult(
                False, witness=(kind, K.elements[y]), reason=f"a {kind} is not preserved"
            )
    return CheckResult(True)


def identity_hom(L: CompleteLattice) -> CompleteHomomorphism:
    return CompleteHomomorphism(L, L, FunctionGraph.identity(L.size))


def compose_homs(
    h1: CompleteHomomorphism, h2: CompleteHomomorphism
) -> CompleteHomomorphism:
    if h1.target != h2.source:
        raise ShapeError("compose_homs: middle lattices differ")
    return CompleteHomomorphism(h1.source, h2.target, h1.psi.then(h2.psi))


def canonical_adjoints(h: CompleteHomomorphism) -> tuple[FunctionGraph, FunctionGraph]:
    """Left and right adjoints of a complete homomorphism: ``phi(y)`` is the
    meet of ``psi^-1(up y)`` and ``theta(y)`` the join of ``psi^-1(down y)``.

    The check found each preimage principal, and the meet of a principal
    up-set (the join of a principal down-set) is its generator, so both
    adjoints are ``up_index`` and ``down_index`` lookups of the hom's
    ``principal_preimages``."""
    L = h.source
    ups, downs = h.principal_preimages
    return (
        FunctionGraph(tuple(map(L.up_index.__getitem__, ups)), L.size),
        FunctionGraph(tuple(map(L.down_index.__getitem__, downs)), L.size),
    )


def hom_of_pair(p: BondingPair) -> CompleteHomomorphism:
    """The pair's view ``hom``, the right adjoint of its forward bond."""
    return p.hom


def pair_of_hom(h: CompleteHomomorphism) -> BondingPair:
    """The hom's view ``pair``: its two adjunction bonds."""
    return h.pair


def embedding_bonding_pairs(A: Classification) -> tuple[BondingPair, BondingPair]:
    """The mutually inverse pairs between ``A`` and its order classification:
    first A to the lattice side, then the lattice side back to A."""
    instance_bond, type_bond = embedding_bonds(A)
    return BondingPair(type_bond, instance_bond), BondingPair(instance_bond, type_bond)


def pair_roundtrip_holds(p: BondingPair) -> bool:
    """Conjugation by the embedding pairs equals the rebuilt pair, bit-exact.

    The conjugation, from the lattice side of the source through ``p`` to
    the lattice side of the target, is taken as the two relations
    ``compose_bonding_pairs`` would give, each a ``G.r\\F`` as in
    ``compose_bonds``, and compared bit for bit with the rebuilt pair, the
    one object built here; its endpoints must be the order classifications.
    The rebuilt pair is validated, so a conjugation equal to it is a bonding
    pair, which is stronger than checking each composite for being a bond.
    The embedding pairs' own pairing constraints are checked where that fact
    is claimed, by ``embedding_bonding_pairs``; a conjugation that is not a
    bond returns false."""
    (inst_src, type_src), (inst_tgt, type_tgt) = _end_embeddings(p)
    forward = left_residual(type_tgt.r, left_residual(p.forward.r, inst_src.rel))
    # the middle composite, B to the source's lattice side; its r is I_B/middle
    middle = left_residual(type_src.r, p.backward.rel)
    backward = left_residual(right_residual(p.target.incidence, middle), inst_tgt.rel)
    rebuilt = pair_of_hom(hom_of_pair(p))
    return (
        rebuilt.source == inst_src.source
        and rebuilt.target == inst_tgt.source
        and rebuilt.forward.rel == forward
        and rebuilt.backward.rel == backward
    )


def hom_roundtrip_holds(h: CompleteHomomorphism) -> bool:
    """Principal-concept witnesses intertwine a hom with its rebuilt hom."""
    rebuilt = hom_of_pair(pair_of_hom(h))
    w_src = down_up_witness(h.source)
    w_tgt = down_up_witness(h.target)
    return w_src.then(rebuilt.psi) == h.psi.then(w_tgt)


# -- irreducibility ------------------------------------------------------------


def meet_irreducibles(L: ConceptLattice) -> int:
    """Mask of elements with exactly one upper cover."""
    cov = L.covers
    return mask_of(i for i in range(L.size) if cov.rows[i].bit_count() == 1)


def join_irreducibles(L: ConceptLattice) -> int:
    cov_down = transpose(L.covers)
    return mask_of(i for i in range(L.size) if cov_down.rows[i].bit_count() == 1)


def is_type_reduced(L: ConceptLattice) -> bool:
    """Every type concept is meet-irreducible."""
    irr = meet_irreducibles(L)
    return all(irr >> L.tau(t) & 1 for t in range(len(L.type_labels)))


def is_instance_reduced(L: ConceptLattice) -> bool:
    irr = join_irreducibles(L)
    return all(irr >> L.iota(a) & 1 for a in range(len(L.instance_labels)))
