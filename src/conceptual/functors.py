"""The six structure maps between the relation world and the lattice world,
with constructive witnesses for all three equivalences.

Naming follows the directions of travel: ``lattice_of_morphism`` /
``classification_of_lattice`` mediate the functional equivalence,
``adjoint_of_bond`` / ``bond_of_adjoint`` the relational one, and
``hom_of_pair`` / ``pair_of_hom`` the complete-relational one.  Every
witness construction validates its round trips on the spot and raises with
a witness if the books do not balance.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from functools import cached_property, lru_cache

from .bond import Bond, BondingPair, compose_bonding_pairs, compose_bonds
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
    compose,
    left_residual,
    mask_of,
    subrelation,
    transpose,
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

    @cached_property
    def down(self) -> tuple[int, ...]:
        """The principal down-sets: the type columns of ``classification``."""
        return self.classification.cols

    @property
    def up(self) -> tuple[int, ...]:
        return self.leq.rows

    @cached_property
    def down_index(self) -> dict[int, int]:
        return {d: x for x, d in enumerate(self.down)}

    @cached_property
    def up_index(self) -> dict[int, int]:
        return {u: x for x, u in enumerate(self.up)}

    def meet_of(self, mask: int) -> int:
        """Greatest lower bound of a set of elements; top for the empty set."""
        return bound_of(self.down, self.down_index, (1 << len(self.elements)) - 1, mask, "meet")

    def join_of(self, mask: int) -> int:
        return bound_of(self.up, self.up_index, (1 << len(self.elements)) - 1, mask, "join")

    @cached_property
    def top(self) -> int:
        return self.meet_of(0)

    @cached_property
    def bottom(self) -> int:
        return self.join_of(0)

    @cached_property
    def classification(self) -> Classification:
        """The lattice classified by its own order (instances = types =
        elements); its type columns are the principal down-sets."""
        return Classification(self.elements, self.elements, self.leq)

    def __repr__(self):
        return f"CompleteLattice({self.size} elements)"


@lru_cache(maxsize=4096)
def complete_lattice_of(L: ConceptLattice) -> CompleteLattice:
    """Forget the embeddings; elements are named by concept position."""
    return CompleteLattice(tuple(f"c{i}" for i in range(L.size)), L.order)


def lattice_classification(L: CompleteLattice) -> Classification:
    """The lattice classified by its own order: its view ``classification``."""
    return L.classification


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
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if self.phi.shape != (self.target.size, self.source.size):
            raise ShapeError(f"phi shape {self.phi.shape} is wrong")
        if self.psi.shape != (self.source.size, self.target.size):
            raise ShapeError(f"psi shape {self.psi.shape} is wrong")
        if validate:
            check_lattice_morphism(self).require("not a concept lattice morphism")


def check_lattice_morphism(m: ConceptLatticeMorphism) -> CheckResult:
    src, tgt = m.source, m.target
    diff = adjoint_failure(src.order.rows, tgt.order.rows, m.phi.targets, m.psi)
    if diff is not None:
        return CheckResult(False, witness=diff, reason="adjointness fails")
    if m.source.tau.then(m.psi) != m.g.then(m.target.tau):
        return CheckResult(False, reason="psi does not preserve type concepts")
    if m.target.iota.then(m.phi) != m.f.then(m.source.iota):
        return CheckResult(False, reason="phi does not preserve instance concepts")
    return CheckResult(True)


def identity_lattice_morphism(L: ConceptLattice) -> ConceptLatticeMorphism:
    return ConceptLatticeMorphism(
        L,
        L,
        FunctionGraph.identity(L.size),
        FunctionGraph.identity(L.size),
        FunctionGraph.identity(len(L.instance_labels)),
        FunctionGraph.identity(len(L.type_labels)),
    )


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
    images of all extents (all intents) come from one ``preimages`` pass
    over the fibers of ``f`` (of ``g``).
    """
    LA = concept_lattice_of(m.source)
    LB = concept_lattice_of(m.target)
    psi = FunctionGraph.from_targets(
        tuple(map(LB.extent_index.__getitem__, m.f.preimages(LA.extents))), LB.size
    )
    phi = FunctionGraph.from_targets(
        tuple(map(LA.intent_index.__getitem__, m.g.preimages(LB.intents))), LA.size
    )
    return ConceptLatticeMorphism(LA, LB, phi, psi, m.f, m.g)


def classification_of_lattice(L: ConceptLattice) -> Classification:
    """Instances and types of the lattice, classified through the embeddings."""
    incidence = compose(L.iota_rel, transpose(L.tau.rel))
    return Classification(L.instance_labels, L.type_labels, incidence)


def morphism_of_lattice_morphism(cm: ConceptLatticeMorphism) -> FunctionalInfomorphism:
    """Functional equivalence, lattice-to-classification direction."""
    return FunctionalInfomorphism(
        classification_of_lattice(cm.source),
        classification_of_lattice(cm.target),
        cm.f,
        cm.g,
    )


@dataclass(frozen=True)
class LatticeWitness:
    """Inverse monotone maps between a lattice and the lattice it rebuilds."""

    lattice: ConceptLattice
    rebuilt: ConceptLattice
    forward: FunctionGraph  # rebuilt -> lattice
    backward: FunctionGraph  # lattice -> rebuilt


def lattice_equivalence_witness(L: ConceptLattice) -> LatticeWitness:
    """Rebuild the lattice from its own classification and exhibit the
    isomorphism; raises if the maps fail to invert or to respect order."""
    K = classification_of_lattice(L)
    M = build_lattice(K)
    backward = FunctionGraph.from_targets(
        tuple(M.extent_index[e] for e in L.extents), M.size
    )
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
    if not _monotone(M.order, L.order, forward) or not _monotone(L.order, M.order, backward):
        raise ValidationError("equivalence witness is not monotone")
    return LatticeWitness(L, M, forward, backward)


def _monotone(src_order: Relation, dst_order: Relation, fn: FunctionGraph) -> bool:
    """``i <= j`` implies ``fn(i) <= fn(j)``: ``<= ; fn`` lies within ``fn ; <=``."""
    return subrelation(compose(src_order, fn.rel), compose(fn.rel, dst_order))


def witness_as_lattice_morphism(w: LatticeWitness) -> ConceptLatticeMorphism:
    """The rebuild isomorphism as a concept lattice morphism (identity on
    instances and types)."""
    return ConceptLatticeMorphism(
        w.rebuilt,
        w.lattice,
        w.backward,
        w.forward,
        FunctionGraph.identity(len(w.lattice.instance_labels)),
        FunctionGraph.identity(len(w.lattice.type_labels)),
    )


# -- relational equivalence ---------------------------------------------------


@dataclass(frozen=True)
class AdjointPair:
    """Contravariant adjoint maps between two complete lattices."""

    source: CompleteLattice
    target: CompleteLattice
    phi: FunctionGraph  # target -> source, left adjoint
    psi: FunctionGraph  # source -> target, right adjoint
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if self.phi.shape != (self.target.size, self.source.size):
            raise ShapeError(f"phi shape {self.phi.shape} is wrong")
        if self.psi.shape != (self.source.size, self.target.size):
            raise ShapeError(f"psi shape {self.psi.shape} is wrong")
        if validate:
            check_adjoint(self).require("not an adjoint pair")


def check_adjoint(p: AdjointPair) -> CheckResult:
    diff = adjoint_failure(p.source.up, p.target.up, p.phi.targets, p.psi)
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
    rows = tuple(p.source.up[p.phi(y)] for y in range(p.target.size))
    rel = Relation(p.target.size, p.source.size, rows)
    return Bond(
        lattice_classification(p.source), lattice_classification(p.target), rel
    )


@dataclass(frozen=True)
class EmbeddingBonds:
    """The two embedding bonds tying a classification to its lattice."""

    classification: Classification
    order_classification: Classification
    instance_bond: Bond  # lattice classification -> classification
    type_bond: Bond  # classification -> lattice classification


def embedding_bonds(A: Classification) -> EmbeddingBonds:
    """Exhibit ``A``'s isomorphism with its own concept lattice in the bond
    category; the two bonds are mutually inverse (checked).

    Each composite is computed as the relation ``compose_bonds`` would
    give, ``G.r\\F``, and compared with the identity bond's incidence, which
    is stronger than being a bond."""
    LA = concept_lattice_of(A)
    order_cls = lattice_classification(complete_lattice_of(LA))
    instance_bond = Bond(order_cls, A, LA.iota_rel)
    type_bond = Bond(A, order_cls, LA.tau_rel)
    if left_residual(type_bond.r, instance_bond.rel) != order_cls.incidence:
        raise ValidationError("instance;type composite is not the lattice identity bond")
    if left_residual(instance_bond.r, type_bond.rel) != A.incidence:
        raise ValidationError("type;instance composite is not the identity bond")
    return EmbeddingBonds(A, order_cls, instance_bond, type_bond)


def bond_naturality_holds(F: Bond) -> bool:
    """Rebuilt bond against embedding bonds: both composition paths agree."""
    emb_src = embedding_bonds(F.source)
    emb_tgt = embedding_bonds(F.target)
    rebuilt = bond_of_adjoint(adjoint_of_bond(F))
    lhs = compose_bonds(rebuilt, emb_tgt.instance_bond)
    rhs = compose_bonds(emb_src.instance_bond, F)
    return lhs == rhs


def down_up_witness(L: CompleteLattice) -> FunctionGraph:
    """Each element to its principal concept in the rebuilt order lattice."""
    M = concept_lattice_of(lattice_classification(L))
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
    validate: InitVar[bool] = True

    def __post_init__(self, validate: bool):
        if self.psi.shape != (self.source.size, self.target.size):
            raise ShapeError(f"psi shape {self.psi.shape} is wrong")
        if validate:
            is_complete_homomorphism(self.source, self.target, self.psi).require(
                "not a complete homomorphism"
            )

    @cached_property
    def pair(self) -> BondingPair:
        """The hom spread into its two adjunction bonds, built on first use."""
        phi, theta = canonical_adjoints(self)
        forward = bond_of_adjoint(AdjointPair(self.source, self.target, phi, self.psi))
        backward = bond_of_adjoint(AdjointPair(self.target, self.source, self.psi, theta))
        return BondingPair(forward, backward)


def is_complete_homomorphism(
    L: CompleteLattice, K: CompleteLattice, psi: FunctionGraph
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

    Top and bottom, the empty meet and join, are cheap early exits.  A
    failing check names the first ``K`` element ``y`` where it fails, the
    meet check first.
    """
    if psi(L.top) != K.top:
        return CheckResult(False, witness=("top",), reason="top is not preserved")
    if psi(L.bottom) != K.bottom:
        return CheckResult(False, witness=("bottom",), reason="bottom is not preserved")
    for kind, tgt_rows, principal in (
        ("meet", K.up, L.up_index),
        ("join", K.down, L.down_index),
    ):
        preimages = enumerate(psi.preimages(tgt_rows))
        y = next((y for y, s in preimages if s not in principal), None)
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
    """Left and right adjoints of a complete homomorphism, by meet/join
    formulas over the preimages: ``phi(y)`` is the meet of ``psi^-1(up y)``
    and ``theta(y)`` the join of ``psi^-1(down y)``."""
    L, K, psi = h.source, h.target, h.psi
    return (
        FunctionGraph(tuple(map(L.meet_of, psi.preimages(K.up))), L.size),
        FunctionGraph(tuple(map(L.join_of, psi.preimages(K.down))), L.size),
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
    emb = embedding_bonds(A)
    to_lattice = BondingPair(emb.type_bond, emb.instance_bond)
    from_lattice = BondingPair(emb.instance_bond, emb.type_bond)
    return to_lattice, from_lattice


def pair_roundtrip_holds(p: BondingPair) -> bool:
    """Conjugation by the embedding pairs equals the rebuilt pair, bit-exact.

    Of ``embedding_bonding_pairs``, only the pair from the lattice side of
    the source and the pair to the lattice side of the target are built."""
    emb_src = embedding_bonds(p.source)
    emb_tgt = embedding_bonds(p.target)
    to_src = BondingPair(emb_src.instance_bond, emb_src.type_bond)
    to_tgt = BondingPair(emb_tgt.type_bond, emb_tgt.instance_bond)
    conjugated = compose_bonding_pairs(compose_bonding_pairs(to_src, p), to_tgt)
    rebuilt = pair_of_hom(hom_of_pair(p))
    return conjugated == rebuilt


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
