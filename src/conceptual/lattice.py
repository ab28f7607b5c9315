"""Concept lattices: construction, order structure, embeddings, and the
collective-concept machinery.

``build_lattice`` enumerates concepts by FCbO (Outrata & Vychodil, *Fast
algorithm for computing fixpoints of Galois connections induced by
object-attribute relational data*, Inf. Sci. 185, 2012): a depth-first walk
of the tree in which each concept's parent is the one it extends canonically.
A child's extent is one AND of its parent's with a type column, and closures
that fail the canonicity test are handed down so that descendants skip the
test; where an extent's rows are too few to meet every type left to add,
only the types they meet are tried, and the one place the empty extent may
be canonical.  The walk visits every concept exactly once, in the lectic
order of intents that Ganter's NextClosure produces.

The order structure is relational, as in the rest of the package.  By the
Basic Theorem (Ganter & Wille, *Formal Concept Analysis*, 1999, Thm. 3)
concept ``i`` is below ``j`` iff extent ``i`` lies within extent ``j`` iff
intent ``j`` lies within intent ``i``, so the concept order is both the left
residual ``M\\M`` of the instance x concept membership relation ``M`` by
itself and the right residual ``N/N`` of the concept x type membership
relation ``N``; ``ConceptLattice.order`` takes the type side where the
context is taller than wide and the right residual's complement tables
run on it.  The two preorders of a classification are the residuals of its
incidence (see ``classification``).  ``check_lattice`` is the one validator
of lattice orders and ``bound_of`` the one meet/join lookup;
``functors.CompleteLattice`` uses both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import relalg
from .classification import Classification, check_preorder
from .errors import ResourceLimitError, ShapeError, ValidationError, quote
from .relalg import (
    FunctionGraph,
    Relation,
    bits,
    compose,
    left_residual,
    right_residual,
    transpose,
    view,
)

DEFAULT_CONCEPT_CAP = 1_000_000
# the most bytes the concept order, n x n bits, may take: 2 GiB is 131,072
# concepts; ``covers`` adds only its output, the Hasse diagram
ORDER_BYTE_CAP = 2 << 30


class FormalConcept(NamedTuple):
    """Closed (extent, intent) pair, both as index bitmasks."""

    extent: int
    intent: int


@dataclass(frozen=True)
class ConceptLattice:
    """The concept lattice of a classification, plus both embeddings.

    Stored: the ``concepts``, the two label tuples, and the embeddings:
    ``iota`` sends an instance to its smallest containing concept, ``tau`` a
    type to its largest.  Everything else is derived on first use from the
    extents and intents: the membership relations ``iota_rel`` (instance x
    concept, the extents as columns) and ``tau_rel`` (concept x type, the
    intents as rows), and ``order``, extent inclusion, which is the left
    residual ``iota_rel\\iota_rel`` and the right residual
    ``tau_rel/tau_rel``.
    """

    concepts: tuple[FormalConcept, ...]
    instance_labels: tuple[str, ...]
    type_labels: tuple[str, ...]
    iota: FunctionGraph
    tau: FunctionGraph

    @property
    def size(self) -> int:
        return len(self.concepts)

    def __len__(self) -> int:
        return len(self.concepts)

    @view
    def iota_rel(self) -> Relation:
        """instance x concept: the instance lies in the concept's extent."""
        return transpose(Relation(self.size, len(self.instance_labels), self.extents))

    @view
    def tau_rel(self) -> Relation:
        """concept x type: the type lies in the concept's intent."""
        return Relation(self.size, len(self.type_labels), self.intents)

    @view
    def order(self) -> Relation:
        """Concept ``i`` below ``j`` iff extent ``i`` is within extent ``j``:
        every instance in ``i`` is in ``j``; equally, iff intent ``j`` is
        within intent ``i``.

        The order is taken from the narrower side of the context: with
        fewer types than instances, and where ``right_residual`` takes its
        complement tables there (``relalg.takes_complement_tables``), it is
        ``tau_rel/tau_rel``, a right residual over the types whose rows are
        the stored intents, so the long side is never swept and no
        ``iota_rel`` is transposed.  Otherwise it is ``iota_rel\\iota_rel``,
        a sweep of the instances: where the type side would take the
        AND-product, the transpose of its ``n x n`` output costs more than
        the sweep saves.

        Raises ``ResourceLimitError`` before allocating if its ``n * n / 8``
        bytes exceed ``ORDER_BYTE_CAP``, so ``covers`` and everything built
        on the order fail fast rather than exhaust memory."""
        n = self.size
        if n * n > 8 * ORDER_BYTE_CAP:
            raise ResourceLimitError(
                f"order of {n} concepts needs {n * n // 8} bytes, over the cap {ORDER_BYTE_CAP}"
            )
        if len(self.type_labels) < len(self.instance_labels):
            tau = self.tau_rel
            if relalg.takes_complement_tables(tau, tau):
                return right_residual(tau, tau)
        return left_residual(self.iota_rel, self.iota_rel)

    @view
    def extents(self) -> tuple[int, ...]:
        return tuple(c.extent for c in self.concepts)

    @view
    def intents(self) -> tuple[int, ...]:
        return tuple(c.intent for c in self.concepts)

    @view
    def extent_index(self) -> dict[int, int]:
        return {e: i for i, e in enumerate(self.extents)}

    @view
    def intent_index(self) -> dict[int, int]:
        return {t: i for i, t in enumerate(self.intents)}

    @view
    def concept_index(self) -> dict[FormalConcept, int]:
        return {c: i for i, c in enumerate(self.concepts)}

    @view
    def top(self) -> int:
        return self.meet_index(())

    @view
    def bottom(self) -> int:
        return self.join_index(())

    def meet_index(self, indices: Iterable[int]) -> int:
        """Meet by the extent-intersection formula."""
        full = (1 << len(self.instance_labels)) - 1
        return bound_of(self.extents, self.extent_index, full, relalg.mask_of(indices), "meet")

    def join_index(self, indices: Iterable[int]) -> int:
        """Join by the intent-intersection formula."""
        full = (1 << len(self.type_labels)) - 1
        return bound_of(self.intents, self.intent_index, full, relalg.mask_of(indices), "join")

    @view
    def covers(self) -> Relation:
        """Transitive reduction of the strict order (the Hasse diagram).

        Row ``i`` is the strict up-set of ``i`` minus the strict up-set of
        each element in it.  The elements of the up-set are visited from the
        highest index down, and a candidate already removed is skipped: it
        lies above a kept ``k``, so its strict up-set is inside that of
        ``k``, which is removed already.  That is exact for any index order.
        In lectic order a concept above another has the smaller index (its
        intent is a proper subset), so the descending walk meets every
        element before any element above it, and each element it visits is
        a cover of ``i``.

        The order rows are read in place, so no second n x n relation is
        built beside the order: removing the up-set of ``j`` and setting
        ``j`` again removes its strict up-set, and the candidates left are
        the bits of the row below ``j``.
        """
        n = self.size
        rows = self.order.rows
        out = []
        for i, row in enumerate(rows):
            row &= ~(1 << i)
            rest = row
            while rest:
                j = rest.bit_length() - 1
                bit = 1 << j
                row = row & ~rows[j] | bit
                rest = row & bit - 1
            out.append(row)
        return Relation(n, n, tuple(out))

    def extent_labels(self, c: FormalConcept) -> tuple[str, ...]:
        return tuple(self.instance_labels[i] for i in bits(c.extent))

    def intent_labels(self, c: FormalConcept) -> tuple[str, ...]:
        return tuple(self.type_labels[i] for i in bits(c.intent))

    def __repr__(self):
        return f"ConceptLattice({self.size} concepts)"


def build_lattice(K: Classification, max_concepts: int = DEFAULT_CONCEPT_CAP) -> ConceptLattice:
    """All formal concepts of ``K``, in lectic order of their intents.

    Intents compare lectically by their lowest differing type: the set holding
    it is the larger.  FCbO walks the canonical-extension tree from the
    closure of the empty type set.  The child of intent ``B`` at type ``j``
    (not in ``B``, above the type that made ``B``) has the extent
    ``ext & cols[j]`` and its intent ``D``; it is kept when ``D`` adds no type
    below ``j``, so that every concept has exactly one parent.  A concept
    precedes its descendants (their intents contain its own), and the
    subtree at a higher ``j`` precedes the one at a lower ``j`` (the lower
    subtree holds ``j`` where the higher one does not).  Children are pushed
    in ascending ``j`` on a stack, so the highest pops first and the
    pre-order is the lectic order.

    A closure failing at ``j`` is recorded for the node's children: below a
    node, every closure at ``j`` contains it, so if it adds a type below ``j``
    that the child's intent lacks, the child's closure at ``j`` fails too and
    is not computed.  A child's closure stops once it has narrowed to
    ``B | {j}``: every instance of its extent has those types, so its intent
    contains that set, and no further row can remove a type from it.

    A child at a type that no row of ``ext`` has gets the empty extent, whose
    closure is every type.  It adds every type below ``j`` that ``B`` lacks,
    so it is canonical only at the lowest type ``B`` lacks, where it is the
    bottom concept.  Where the extent's rows hold too few crosses to meet
    every free type (those from ``start`` up that ``B`` lacks), by the gate
    ``|ext| * (1 + mean row weight) < n - start``, a property of the input
    and not a tuned constant, the walk ORs those rows into ``meet`` and
    visits only the free types in ``meet`` and that lowest missing type
    (after Andrews, ICFCA 2017, LNCS 10308, on pruning empty intersections
    in CbO).  The skipped children record no failed closure: ``failed`` only
    lets a descendant skip a test it would fail, so a missing entry costs at
    most a test and changes no result.  Every other node keeps the loop over
    all free types, for there ``meet`` costs more than the tests it saves.
    ``ResourceLimitError`` is raised once more than ``max_concepts``
    concepts are found.
    """
    m = len(K.instances)
    n = len(K.types)
    rows = K.rows
    cols = K.cols
    full_i = (1 << m) - 1
    full_t = (1 << n) - 1

    # the closure stops at ``floor``, a set the intent is known to contain
    def intent(imask: int, floor: int = 0) -> int:
        t = full_t
        while imask and t != floor:
            low = imask & -imask
            t &= rows[low.bit_length() - 1]
            imask ^= low
        return t

    # the gate ``|ext| * (1 + mean row weight) < n - start``, times ``m``,
    # is ``|ext| * weight < (n - start) * m``
    weight = m + sum(map(int.bit_count, rows))

    pairs: list[FormalConcept] = []
    # each entry: extent, intent, the first type index its children may add,
    # and the closures that failed the canonicity test, by type index
    stack = [(full_i, intent(full_i), 0, [0] * n)]
    while stack:
        ext, cur, start, inherited = stack.pop()
        pairs.append(FormalConcept(ext, cur))
        if len(pairs) > max_concepts:
            raise ResourceLimitError(
                f"more than {max_concepts} concepts; raise max_concepts to proceed"
            )
        if start == n or cur == full_t:
            continue  # no type left to add: a leaf needs no failure list
        # shared by every child pushed below; final before the first of them pops
        failed = inherited.copy()
        visit = range(start, n)
        if ext.bit_count() * weight < (n - start) * m:
            meet = 0
            rest = ext
            while rest:
                low = rest & -rest
                meet |= rows[low.bit_length() - 1]
                rest ^= low
            missing = full_t & ~cur
            # the free types the rows meet, and where the bottom may be canonical
            visit = bits((meet | missing & -missing) & missing >> start << start)
        for j in visit:
            bit = 1 << j
            if cur & bit:
                continue
            below = bit - 1
            # a closure that failed at j in an ancestor lies inside this one's
            if failed[j] & below & ~cur:
                continue
            child_ext = ext & cols[j]
            child = intent(child_ext, cur | bit)
            if child & below == cur & below:
                stack.append((child_ext, child, j + 1, failed))
            else:
                failed[j] = child

    nc = len(pairs)
    intent_idx = {c.intent: k for k, c in enumerate(pairs)}
    extent_idx = {c.extent: k for k, c in enumerate(pairs)}
    iota = FunctionGraph.from_targets(tuple(intent_idx[rows[a]] for a in range(m)), nc)
    tau = FunctionGraph.from_targets(tuple(extent_idx[cols[t]] for t in range(n)), nc)

    return ConceptLattice(tuple(pairs), K.instances, K.types, iota, tau)


@lru_cache(maxsize=4096)
def concept_lattice_of(K: Classification) -> ConceptLattice:
    """Cached ``build_lattice``; bonds and functors share lattices through it."""
    return build_lattice(K)


def bound_of(
    sets: Sequence[int], index: Mapping[int, int], full: int, mask: int, kind: str
) -> int:
    """The element whose principal set is the intersection of the principal
    sets of the elements in ``mask``; the intersection over no element is
    ``full``.

    ``sets[i]`` is the principal set of element ``i`` and ``index`` inverts
    ``sets``.  With down-sets (or extents) this is the meet, with up-sets (or
    intents) the join: in a finite poset the meet of a set is the element
    whose down-set is the intersection of the set's down-sets (Davey &
    Priestley, *Introduction to Lattices and Order*, ch. 2).
    """
    acc = full
    rest = mask
    while rest:
        low = rest & -rest
        acc &= sets[low.bit_length() - 1]
        rest ^= low
    found = index.get(acc)
    if found is None:
        raise ValidationError(f"no {kind} for element set {mask:#x}", witness=(mask,))
    return found


def check_lattice(
    leq: Relation, labels: Sequence, down: Sequence[int], down_index: Mapping[int, int]
) -> None:
    """Raise ``ValidationError`` unless ``leq`` orders a finite lattice.

    ``down`` holds the principal down-sets (the columns of ``leq``) and
    ``down_index`` inverts it.  Past the preorder check, antisymmetry means
    the down-sets are pairwise distinct.  A finite poset is a lattice when
    the full down-set (a top) is present and the intersection of every two
    down-sets is a principal down-set again: then every meet exists, and so
    every join.  The pairs are tested one element at a time, by one set
    membership pass over ``down[i] & down[j]`` for all ``j > i``; only on a
    failure is the first failing pair ``(i, j)`` looked for, and reported
    as ``bound_of`` reports it.  Witnesses are labels.
    """
    check_preorder(leq, labels)
    n = len(down)
    if len(down_index) != n:
        i = next(i for i, d in enumerate(down) if down_index[d] != i)
        j = down_index[down[i]]
        raise ValidationError(
            f"order not antisymmetric between {quote(labels[i])} and {quote(labels[j])}",
            witness=(labels[i], labels[j]),
        )
    full = (1 << n) - 1
    bound_of(down, down_index, full, 0, "meet")
    principal = set(down_index)
    for i, d in enumerate(down):
        if not principal.issuperset(map(d.__and__, down[i + 1 :])):
            j = next(j for j in range(i + 1, n) if d & down[j] not in principal)
            bound_of(down, down_index, full, 1 << i | 1 << j, "meet")


def meet(L: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Meet by extent intersection; the empty meet is the top concept."""
    return L.concepts[L.meet_index(_indices(L, concepts))]


def join(L: ConceptLattice, concepts: Iterable[FormalConcept]) -> FormalConcept:
    """Join by intent intersection; the empty join is the bottom concept."""
    return L.concepts[L.join_index(_indices(L, concepts))]


def _indices(L: ConceptLattice, concepts: Iterable[FormalConcept]) -> list[int]:
    idx = L.concept_index
    out = []
    for c in concepts:
        if c not in idx:
            raise ValidationError(f"concept {c} does not belong to this lattice", witness=(c,))
        out.append(idx[c])
    return out


def instance_concept(L: ConceptLattice, label: str) -> FormalConcept:
    """Closure of a singleton instance."""
    try:
        a = L.instance_labels.index(label)
    except ValueError:
        raise ValidationError(f"unknown instance label {quote(label)}") from None
    return L.concepts[L.iota(a)]


def type_concept(L: ConceptLattice, label: str) -> FormalConcept:
    try:
        t = L.type_labels.index(label)
    except ValueError:
        raise ValidationError(f"unknown type label {quote(label)}") from None
    return L.concepts[L.tau(t)]


def decomposition_check(K: Classification, L: ConceptLattice) -> bool:
    """Incidence must equal instance-embedding ; order ; type-embedding-op."""
    recomposed = compose(compose(L.iota.rel, L.order), transpose(L.tau.rel))
    return recomposed == K.incidence


# -- collective concepts -----------------------------------------------------


@dataclass(frozen=True)
class CollectiveConcept:
    """An indexed family of concepts given by a closed relation pair.

    ``a`` relates instances to the index set, ``alpha`` the index set to
    types; closedness means each coordinate is the residuation of the other
    against the incidence.
    """

    index_labels: tuple[str, ...]
    a: Relation
    alpha: Relation


def is_collective_concept(K: Classification, c: CollectiveConcept) -> bool:
    x = len(c.index_labels)
    if c.a.shape != (len(K.instances), x) or c.alpha.shape != (x, len(K.types)):
        raise ShapeError(
            f"collective concept shapes {c.a.shape}/{c.alpha.shape} do not fit "
            f"{len(K.instances)} instances x {len(K.types)} types over {x} indices"
        )
    return (
        c.a == right_residual(K.incidence, c.alpha)
        and c.alpha == left_residual(c.a, K.incidence)
    )


def mediating_function(K: Classification, L: ConceptLattice, c: CollectiveConcept) -> FunctionGraph:
    """The unique function sending each index to its concept in the lattice:
    index ``x`` goes to the concept whose extent is column ``x`` of ``c.a``."""
    if not is_collective_concept(K, c):
        raise ValidationError("not a collective concept")
    return FunctionGraph(tuple(map(L.extent_index.__getitem__, c.a.columns)), L.size)


def collective_from_function(
    K: Classification,
    L: ConceptLattice,
    f: FunctionGraph,
    index_labels: Sequence[str] | None = None,
) -> CollectiveConcept:
    """The collective concept picked out by a function into the lattice."""
    if f.dst_size != L.size:
        raise ShapeError(f"function lands in {f.dst_size} elements, lattice has {L.size}")
    if index_labels is None:
        index_labels = tuple(f"x{i}" for i in range(f.src_size))
    a = compose(L.iota_rel, transpose(f.rel))
    alpha = compose(f.rel, L.tau_rel)
    return CollectiveConcept(tuple(index_labels), a, alpha)


def collective_leq(c1: CollectiveConcept, c2: CollectiveConcept) -> bool:
    """Componentwise extent inclusion (equivalently reversed intents)."""
    return relalg.subrelation(c1.a, c2.a)


def collective_transport(
    K: Classification, r: Relation, c: CollectiveConcept, side: str
) -> CollectiveConcept:
    """Transport a collective concept along an index relation ``r``.

    With ``side="left"`` (the left adjoint) the input is indexed by the
    source of ``r`` and the result by its destination; ``side="right"`` (the
    right adjoint) goes the other way.
    """
    A = K.incidence
    if side == "left":
        if c.a.dst_size != r.src_size:
            raise ShapeError(f"left transport: index set {c.a.dst_size} vs relation {r.shape}")
        alpha = left_residual(r, c.alpha)
        a = right_residual(A, left_residual(compose(c.a, r), A))
        labels = tuple(f"y{i}" for i in range(r.dst_size))
        return CollectiveConcept(labels, a, alpha)
    if side == "right":
        if c.a.dst_size != r.dst_size:
            raise ShapeError(f"right transport: index set {c.a.dst_size} vs relation {r.shape}")
        a = right_residual(c.a, r)
        alpha = left_residual(right_residual(A, compose(r, c.alpha)), A)
        labels = tuple(f"x{i}" for i in range(r.src_size))
        return CollectiveConcept(labels, a, alpha)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")
