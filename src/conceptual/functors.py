"""The six structure maps between the relation world and the lattice world,
with constructive witnesses for all three equivalences.

Naming follows the directions of travel: ``lattice_of_morphism`` /
``classification_of_lattice`` mediate the functional equivalence,
``adjoint_of_bond`` / ``bond_of_adjoint`` the relational one, and
``hom_of_pair`` / ``pair_of_hom`` the complete-relational one.  The
witnesses are arrows of the categories themselves: the rebuild isomorphism
of a concept lattice is a ``ConceptLatticeMorphism``, and a classification's
isomorphism with its order classification is a pair of ``Bond``s.  A
complete lattice, ``CompleteLattice``, is the concept lattice of its order
classification (the Basic Theorem), so the lattice world has one lattice
type and each lattice one meet and one join.  Its arrows are one type too:
an infomorphism between two order classifications is an adjoint pair,
``f(y) <= x`` iff ``y <= g(x)``, so an adjoint pair ``(phi, psi)`` is the
``ConceptLatticeMorphism`` between complete lattices whose ``f`` and ``g``
are ``phi`` and ``psi``, composed by ``compose_lattice_morphisms``.  Each
witness is checked on the spot and raises, naming what fails, if the
books do not balance.
The arrow types here have no unchecked mode: construction is the check,
and a caller that sifts candidates catches ``ValidationError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .bond import Bond, BondingPair, _closure_failure, compose_bonds
from .classification import Classification, _require_distinct
from .errors import CheckResult, ShapeError, ValidationError, quote, require_shape
from .infomorphism import FunctionalInfomorphism
from .lattice import (
    ConceptLattice,
    FormalConcept,
    build_lattice,
    check_lattice,
    concept_lattice_of,
)
from .relalg import (
    FunctionGraph,
    Relation,
    adjoint_failure,
    first_difference,
    left_residual,
    mask_of,
    pullback,
    transpose,
    view,
)


# -- complete lattices -------------------------------------------------------


class CompleteLattice(ConceptLattice):
    """A finite lattice presented by its order relation; always complete.

    It is the concept lattice of its order classification ``(elements,
    elements, leq)`` (the Basic Theorem, Ganter & Wille 1999, Thm. 3):
    element ``x`` is the concept (principal down-set of ``x``, principal
    up-set of ``x``), so ``extents`` are the down-sets, ``intents`` the
    up-sets, ``order`` is ``leq`` and both embeddings are the identity.  The
    three views are preset from the order, so none is derived again, and
    residuals into the order are taken from the down-sets, as into any
    incidence.  Construction runs ``check_lattice``, and the concept lattice
    that proves the order a lattice lends its classification, an equal one
    whose columns, the down-sets, are already read."""

    def __init__(self, elements: tuple[str, ...], leq: Relation):
        n = len(elements)
        require_shape("order", leq.shape, (n, n))
        _require_distinct("element", elements)
        self.__dict__["classification"] = Classification._of(elements, elements, leq)
        self.__post_init__()

    def __post_init__(self):
        # the proving lattice's classification equals this one, and FCbO
        # has read its columns, the down-sets
        classification = check_lattice(self.classification).classification
        leq, down = classification.incidence, classification.cols
        d = self.__dict__
        d["classification"] = classification
        d["concepts"] = tuple(map(FormalConcept, down, leq.rows))
        d["extents"] = down
        d["intents"] = leq.rows
        d["order"] = leq

    @property
    def elements(self) -> tuple[str, ...]:
        return self.classification.instances

    def __repr__(self):
        return f"CompleteLattice({self.size} elements)"


@lru_cache(maxsize=4096)
def _complete_lattice_of_order(order: Relation) -> CompleteLattice:
    return CompleteLattice(tuple(f"c{i}" for i in range(order.src_size)), order)


def complete_lattice_of(L: ConceptLattice) -> CompleteLattice:
    """The concept lattice of ``L``'s order classification: the embeddings
    of ``L`` are forgotten, and elements are named by concept position.

    A complete lattice is its order, so the cache is keyed by ``L.order``:
    concept lattices with equal orders share one checked lattice and its
    views (hash-consing).  ``cache_clear`` and ``cache_info`` are the
    cache's own."""
    return _complete_lattice_of_order(L.order)


complete_lattice_of.cache_clear = _complete_lattice_of_order.cache_clear
complete_lattice_of.cache_info = _complete_lattice_of_order.cache_info


# -- functional equivalence ---------------------------------------------------


@dataclass(frozen=True)
class ConceptLatticeMorphism:
    """Adjoint lattice maps riding on instance/type functions.

    ``psi`` runs forward and respects the type embeddings through ``g``;
    ``phi`` runs backward and respects the instance embeddings through
    ``f``; the two are adjoint.  Between complete lattices, whose embeddings
    are identities, the squares hold exactly when ``(f, g) == (phi, psi)``,
    so the morphism with those maps is the adjoint pair ``(phi, psi)``.
    All four maps are checked for shape before any check runs.
    """

    source: ConceptLattice
    target: ConceptLattice
    phi: FunctionGraph  # target lattice -> source lattice
    psi: FunctionGraph  # source lattice -> target lattice
    f: FunctionGraph  # target instances -> source instances
    g: FunctionGraph  # source types -> target types

    def __post_init__(self):
        src, tgt = self.source, self.target
        require_shape("phi", self.phi.shape, (tgt.size, src.size))
        require_shape("psi", self.psi.shape, (src.size, tgt.size))
        require_shape("f", self.f.shape, (len(tgt.instance_labels), len(src.instance_labels)))
        require_shape("g", self.g.shape, (len(src.type_labels), len(tgt.type_labels)))
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


def identity_lattice_morphism(L: ConceptLattice) -> ConceptLatticeMorphism:
    """The identity arrow of ``L``: elements, instances and types each map
    to themselves."""
    elements = FunctionGraph.identity(L.size)
    return ConceptLatticeMorphism(
        L,
        L,
        elements,
        elements,
        FunctionGraph.identity(len(L.instance_labels)),
        FunctionGraph.identity(len(L.type_labels)),
    )


def compose_lattice_morphisms(
    m1: ConceptLatticeMorphism, m2: ConceptLatticeMorphism
) -> ConceptLatticeMorphism:
    _require_middle(m1.target, m2)
    return ConceptLatticeMorphism(
        m1.source,
        m2.target,
        m2.phi.then(m1.phi),
        m1.psi.then(m2.psi),
        m2.f.then(m1.f),
        m1.g.then(m2.g),
    )


def _require_middle(middle: ConceptLattice, m2: ConceptLatticeMorphism) -> None:
    """Refuse to follow a morphism into ``middle`` by ``m2`` unless ``m2``
    starts at ``middle``."""
    if middle != m2.source:
        raise ShapeError("compose_lattice_morphisms: middle lattices differ")


def _image_then_key(LA: ConceptLattice, LB: ConceptLattice, m2: ConceptLatticeMorphism):
    """The function from an infomorphism ``m`` between the classifications
    of ``LA`` and ``LB`` to the key of
    ``compose_lattice_morphisms(lattice_of_morphism(m), m2)``: the target
    tuples of its ``phi``, ``f``, ``psi`` and ``g``, read with
    ``then_targets``, no morphism built or checked.  The middle lattices
    are compared once, here, as the composite compares them.  The ``f`` and
    ``psi`` parts read ``m.f`` alone and the ``phi`` and ``g`` parts
    ``m.g`` alone, so each pair is computed once per distinct map."""
    _require_middle(LB, m2)
    parts = _once_per_map(
        lambda f: (m2.f.then_targets(f), _psi_along(LA, LB, f).then_targets(m2.psi)),
        lambda g: (m2.phi.then_targets(_phi_along(LA, LB, g)), g.then_targets(m2.g)),
    )

    def key(m: FunctionalInfomorphism) -> tuple:
        (f, psi), (phi, g) = parts(m.f, m.g)
        return phi, f, psi, g

    return key


def lattice_of_morphism(m: FunctionalInfomorphism) -> ConceptLatticeMorphism:
    """Functional equivalence, object-to-lattice direction on morphisms.

    ``psi`` sends a concept to the closure of the inverse image of its
    extent; ``phi`` dually via inverse images of intents.  The inverse
    images of all extents (all intents) are one ``pullback`` along ``f``
    (along ``g``) of the extents, whose columns are the rows of ``iota_rel``
    (of the intents, the rows of ``tau_rel``).
    """
    LA, LB = concept_lattice_of(m.source), concept_lattice_of(m.target)
    phi, psi = _phi_along(LA, LB, m.g), _psi_along(LA, LB, m.f)
    return ConceptLatticeMorphism(LA, LB, phi, psi, m.f, m.g)


def _psi_along(LA: ConceptLattice, LB: ConceptLattice, f: FunctionGraph) -> FunctionGraph:
    """The forward map ``psi`` of ``lattice_of_morphism(m)`` for an
    infomorphism ``m`` with instance map ``f`` between the classifications
    of ``LA`` and ``LB``, unchecked: it reads ``f`` alone."""
    extents = pullback(LA.extents, LA.iota_rel.rows, f)
    return FunctionGraph._of(tuple(map(LB.extent_index.__getitem__, extents)), LB.size)


def _phi_along(LA: ConceptLattice, LB: ConceptLattice, g: FunctionGraph) -> FunctionGraph:
    """The backward map ``phi`` of ``lattice_of_morphism(m)`` for an
    infomorphism ``m`` with type map ``g``, unchecked: it reads ``g`` alone."""
    intents = pullback(LB.intents, LB.tau_rel.columns, g)
    return FunctionGraph._of(tuple(map(LA.intent_index.__getitem__, intents)), LA.size)


def _once_per_map(of_f, of_g):
    """The function ``(f, g) -> (of_f(f), of_g(g))`` for the maps of
    infomorphisms with one pair of endpoints, each value computed once per
    distinct target tuple, in two dicts that live as long as the function:
    maps of one shape are equal iff their target tuples are."""
    by_f: dict = {}
    by_g: dict = {}

    def read(f: FunctionGraph, g: FunctionGraph) -> tuple:
        a = by_f.get(f.targets)
        if a is None:
            a = by_f[f.targets] = of_f(f)
        b = by_g.get(g.targets)
        if b is None:
            b = by_g[g.targets] = of_g(g)
        return a, b

    return read


def _functor_maps_once(LA: ConceptLattice, LB: ConceptLattice):
    """The function ``(f, g) -> (psi, phi)`` giving the lattice maps of
    ``lattice_of_morphism(m)`` for the infomorphisms ``m`` with maps ``f``
    and ``g`` between the classifications of ``LA`` and ``LB``:
    ``psi`` is computed once per distinct ``f`` and ``phi`` once per
    distinct ``g``."""
    return _once_per_map(lambda f: _psi_along(LA, LB, f), lambda g: _phi_along(LA, LB, g))


def classification_of_lattice(L: ConceptLattice) -> Classification:
    """Instances and types of the lattice, classified through the embeddings:
    ``compose(iota_rel, transpose(tau.rel))``, the ``pullback`` of
    ``iota_rel`` along ``tau``."""
    m, n, iota_rel = len(L.instance_labels), len(L.type_labels), L.iota_rel
    incidence = Relation._of(m, n, pullback(iota_rel.rows, iota_rel.columns, L.tau))
    return Classification._of(L.instance_labels, L.type_labels, incidence)


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

    Each concept of ``L`` goes to the rebuilt concept with its extent, and
    the forward map is the inverse of that bijection.  Raises if a concept's
    extent is not rebuilt, if the extents do not match one to one, or if a
    concept's intent is not that of the rebuilt concept with its extent, so
    the concepts of ``L`` are those of its classification; the morphism
    check then finds the two inverse maps adjoint, monotone both ways, and
    respecting the instances and types."""
    K = classification_of_lattice(L)
    M = build_lattice(K)
    back = tuple(map(M.extent_index.get, L.extents))
    if None in back:
        raise ValidationError(
            "extent is not an extent of the rebuilt lattice", witness=(back.index(None),)
        )
    if len(back) != M.size or len(set(back)) != M.size:
        raise ValidationError("the extents do not match the rebuilt lattice's one to one")
    wrong = [x for x, i in enumerate(back) if L.intents[x] != M.intents[i]]
    if wrong:
        raise ValidationError(
            "intent is not the intent of the rebuilt concept", witness=(wrong[0],)
        )
    backward = FunctionGraph._of(back, M.size)
    # the positions of a permutation, sorted by its values, are its inverse
    forward = FunctionGraph._of(tuple(sorted(range(M.size), key=back.__getitem__)), L.size)
    return ConceptLatticeMorphism(
        M,
        L,
        backward,
        forward,
        FunctionGraph.identity(len(L.instance_labels)),
        FunctionGraph.identity(len(L.type_labels)),
    )


# -- relational equivalence ---------------------------------------------------


def adjoint_of_bond(F: Bond) -> ConceptLatticeMorphism:
    """Derivation along the bond, in both directions, read off the bond's
    views, as the adjoint pair between the two complete lattices: the maps
    of ``_adjoint_maps``, checked as a ``ConceptLatticeMorphism``."""
    L, K, phi, psi = _adjoint_maps(F)
    return ConceptLatticeMorphism(L, K, phi, psi, phi, psi)


def _adjoint_maps(
    F: Bond,
) -> tuple[CompleteLattice, CompleteLattice, FunctionGraph, FunctionGraph]:
    """The complete lattices of the bond's ends and its two derived maps,
    ``(L, K, phi, psi)``, not checked for adjointness.

    ``psi`` sends a source concept to the target instances whose bond row
    holds its intent, the columns of ``F.images`` (``F/tau_A``); ``phi``
    sends a target concept to the source types the bond gives all of its
    extent, the rows of ``F.preimages`` (``iota_B\\F``).  For a bond both
    are extents and intents; a relation that is no bond raises
    ``ValidationError`` at the first source concept whose image is no
    extent, else at the first target concept whose preimage is no intent."""
    LA = concept_lattice_of(F.source)
    LB = concept_lattice_of(F.target)
    images, preimages = F.images.columns, F.preimages.rows
    psi = _derived_map(
        images, LB.extent_index, LB.size, LA, "image of the source", "extent of the target"
    )
    phi = _derived_map(
        preimages, LA.intent_index, LA.size, LB, "preimage of the target", "intent of the source"
    )
    return complete_lattice_of(LA), complete_lattice_of(LB), phi, psi


def _derived_map(
    sets: tuple[int, ...],
    index: dict[int, int],
    size: int,
    at: ConceptLattice,
    what: str,
    closed: str,
) -> FunctionGraph:
    """The map sending concept ``c`` of ``at`` to ``index[sets[c]]``, one of
    ``size`` concepts, in the style of ``ConceptLattice._embedding``: where
    a set is no key of ``index``, not ``closed``, the relation derived along
    is no bond, and ``ValidationError`` names the first such concept, with
    its extent and intent labels as the witness."""
    try:
        return FunctionGraph._of(tuple(map(index.__getitem__, sets)), size)
    except KeyError as missing:
        c = at.concepts[sets.index(missing.args[0])]
    extent, intent = at.extent_labels(c), at.intent_labels(c)
    raise ValidationError(
        f"relation is not a bond: the {what} concept with extent {quote(extent)} "
        f"is not an {closed}",
        witness=("concept", extent, intent),
    )


def bond_of_adjoint(p: ConceptLatticeMorphism) -> Bond:
    """The adjointness relation of an adjoint pair between complete
    lattices, as a bond between their order classifications; a morphism
    between other concept lattices raises ``ValidationError``."""
    if not (isinstance(p.source, CompleteLattice) and isinstance(p.target, CompleteLattice)):
        raise ValidationError("not an adjoint pair between complete lattices")
    return _adjointness_bond(p.source, p.target, p.phi)


def _adjointness_bond(L: CompleteLattice, K: CompleteLattice, phi: FunctionGraph) -> Bond:
    """The bond from ``L`` to ``K`` whose row ``y`` is ``L.intents[phi(y)]``.

    It is checked by ``_order_bond_check``, which is ``is_bond`` between
    order classifications, and then built unchecked.  Every row is a
    principal filter by construction, so the columns decide: column ``x``,
    ``{y : phi(y) <= x}``, is a principal ideal of ``K`` for every ``x``
    exactly when ``phi`` has a right adjoint."""
    rel = Relation._of(K.size, L.size, tuple(map(L.intents.__getitem__, phi.targets)))
    _order_bond_check(L, K, rel).require("relation is not a bond")
    return Bond._of(L.classification, K.classification, rel)


def _order_bond_check(L: CompleteLattice, K: CompleteLattice, rel: Relation) -> CheckResult:
    """``is_bond`` from the order classification of ``L`` to that of ``K``,
    with the same verdict, reason and witness, by principal sets alone.

    Each lattice is the concept lattice of its order classification, so a
    row of ``rel`` is closed iff it is an intent of ``L``, a key of
    ``L.intent_index``, and a column iff it is an extent of ``K``, a key of
    ``K.extent_index``.  No residual is taken."""
    intents, extents = L.intent_index, K.extent_index
    y = next((y for y, row in enumerate(rel.rows) if row not in intents), None)
    if y is not None:
        return _closure_failure("row", K.elements[y])
    x = next((x for x, col in enumerate(rel.columns) if col not in extents), None)
    if x is not None:
        return _closure_failure("column", L.elements[x])
    return CheckResult(True)


def _order_pairing_check(L: CompleteLattice, K: CompleteLattice, F: Bond, G: Bond) -> CheckResult:
    """``is_bonding_pair``'s verdict on bonds ``F`` from the order
    classification of ``L`` to that of ``K`` and ``G`` back, both of which
    pass ``_order_bond_check``.

    At element ``x`` of ``L``, the first pairing constraint reads ``F``'s
    column ``x``, an extent of ``K``, and the second ``G``'s row ``x``, an
    intent of ``K``; each constraint holds iff the two belong to one element
    of ``K``.  So the pair is checked by index, ``K.extent_index`` of each
    column of ``F`` against ``K.intent_index`` of each row of ``G``, and a
    failure names the first element of ``L`` where they differ."""
    diff = first_difference(
        map(K.extent_index.__getitem__, F.rel.columns),
        map(K.intent_index.__getitem__, G.rel.rows),
    )
    if diff is None:
        return CheckResult(True)
    x = L.elements[diff[0]]
    return CheckResult(
        False, witness=(x,), reason=f"the bonds' column and row of {quote(x)} name two elements"
    )


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
    ``iota\\iota``.  The other two closures are over the order
    classification, whose concept lattice is ``complete_lattice_of(LA)``, so
    they are membership tests: the rows of ``iota`` in its ``intent_index``
    and the columns of ``tau`` in its ``extent_index``.  The type;instance composite is
    computed.  That is 4 residuals; both bonds' ``is_bond`` and both
    composites follow, so the check is no weaker than validating the
    bonds.  When the two bonds are equal, as for an order classification
    numbered as its own lattice, they are one ``Bond``, returned twice: its
    ``r`` and ``s`` are computed once, so the six identities take 3
    residuals."""
    LA = concept_lattice_of(A)
    lattice = complete_lattice_of(LA)
    order_cls = lattice.classification
    leq, iota, tau = order_cls.incidence, LA.iota_rel, LA.tau_rel
    instance_bond = Bond._of(order_cls, A, iota)
    if iota.shape == tau.shape and iota == tau and A == order_cls:
        type_bond = instance_bond
    else:
        type_bond = Bond._of(A, order_cls, tau)
    if instance_bond.s != tau:
        raise ValidationError("the extents do not derive to the intents")
    if type_bond.r != iota:
        raise ValidationError("the intents do not derive to the extents")
    if not lattice.intent_index.keys() >= set(iota.rows):
        raise ValidationError("instance bond rows are not principal filters of the order")
    if not lattice.extent_index.keys() >= set(tau.columns):
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
    """Each element to its principal concept in the rebuilt order lattice,
    whose extent is its down-set: that lattice's type embedding ``tau``."""
    tau = concept_lattice_of(L.classification).tau
    if len(set(tau.targets)) != tau.dst_size:
        raise ValidationError("principal concepts do not exhaust the rebuilt lattice")
    return tau


def adjoint_roundtrip_holds(p: ConceptLatticeMorphism) -> bool:
    """Conjugating the rebuilt adjoint by the principal-concept witnesses
    recovers the original pair, an adjoint pair between complete lattices."""
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
        require_shape("psi", self.psi.shape, (self.source.size, self.target.size))
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
        checking the adjoint pair as a ``ConceptLatticeMorphism``.  The
        backward bond is the adjointness relation of ``psi`` and its right
        adjoint, which the hom's join check has shown to exist; that relation
        reads ``psi`` alone, so the adjoint itself is not built.  Both bonds
        are still checked as bonds, by their principal sets
        (``_adjointness_bond``), and as a pair, by index
        (``_order_pairing_check``); a failing pair raises ``ValidationError``
        naming the first element of the source where the bonds disagree."""
        L, K = self.source, self.target
        forward = _adjointness_bond(L, K, canonical_adjoints(self)[0])
        backward = _adjointness_bond(K, L, self.psi)
        _order_pairing_check(L, K, forward, backward).require("pairing constraints fail")
        return BondingPair._of(forward, backward)


def _principal_preimages(
    psi: FunctionGraph, K: CompleteLattice
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``psi``'s inverse images of ``K``'s principal up-sets, then of its
    down-sets: two ``pullback``s of the order, each with the other as its
    columns."""
    return pullback(K.intents, K.extents, psi), pullback(K.extents, K.intents, psi)


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
    ``compose(<=', psi^T)``, the preimages of the up-sets of ``K``, be an
    intent of ``L``, a principal up-set, and the join check that every
    preimage of a down-set of ``K`` be an extent; each is a key lookup in
    ``L.intent_index`` or ``L.extent_index``, and no meet or join is
    computed.

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
    principal_sets = (L.intent_index, L.extent_index)
    for kind, preimages, principal in zip(("meet", "join"), batches, principal_sets):
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
    adjoints are ``intent_index`` and ``extent_index`` lookups of the hom's
    ``principal_preimages``."""
    L = h.source
    ups, downs = h.principal_preimages
    return (
        FunctionGraph._of(tuple(map(L.intent_index.__getitem__, ups)), L.size),
        FunctionGraph._of(tuple(map(L.extent_index.__getitem__, downs)), L.size),
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
    The backward one's middle composite, ``type_src.r\\p.backward``, is
    ``p.backward.preimages``: ``embedding_bonds`` has raised unless
    ``type_src.r`` is ``iota_rel`` of the source's lattice, and the backward
    bond ends at the source.  Its ``r``, ``I_B/preimages``, is
    ``p.backward.preimage_extents``, which the first pairing constraint
    reads, so the backward conjugation is
    ``p.backward.preimage_extents\\inst_tgt``.
    The rebuilt pair is checked, as bonds by their principal sets and as a
    pair by index (``CompleteHomomorphism.pair``), with the verdicts of
    ``is_bond`` and ``is_bonding_pair``, so a conjugation equal to it is a
    bonding pair, which is stronger than checking each composite for being a
    bond; no bond check or composition of ``conceptual.bond`` runs here.
    The embedding pairs' own pairing constraints are checked where that fact
    is claimed, by ``embedding_bonding_pairs``; a conjugation that is not a
    bond returns false."""
    (inst_src, _), (inst_tgt, type_tgt) = _end_embeddings(p)
    forward = left_residual(type_tgt.r, left_residual(p.forward.r, inst_src.rel))
    backward = left_residual(p.backward.preimage_extents, inst_tgt.rel)
    rebuilt = pair_of_hom(hom_of_pair(p))
    return (
        rebuilt.source == inst_src.source
        and rebuilt.target == inst_tgt.source
        and rebuilt.forward.rel == forward
        and rebuilt.backward.rel == backward
    )


def hom_roundtrip_holds(h: CompleteHomomorphism) -> bool:
    """Principal-concept witnesses intertwine a hom with its rebuilt hom.

    The rebuilt hom, through ``_adjoint_maps``, and the witnesses,
    ``down_up_witness``, read each end's lattice rebuilt from its order
    classification by ``concept_lattice_of``.  The rebuilt pair's own checks
    read only principal sets, so that build happens here, not in
    ``pair_of_hom``."""
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
