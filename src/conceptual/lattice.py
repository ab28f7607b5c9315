"""Concept lattices: construction, order structure and embeddings.

``build_lattice`` enumerates concepts by FCbO (Outrata & Vychodil, *Fast
algorithm for computing fixpoints of Galois connections induced by
object-attribute relational data*, Inf. Sci. 185, 2012): a depth-first walk
of the tree in which each concept's parent is the one it extends canonically.
A child's extent is one AND of its parent's with a type column, and closures
that fail the canonicity test are handed down so that descendants skip the
test; where an extent's rows are too few to meet every type left to add,
only the types they meet are tried, and the one place the empty extent may
be canonical.  A node's free types are read off its visit mask bit by bit,
or byte by byte through ``relalg._BYTE_BITS``, as ``relalg.branch`` picks
once per build.  The walk visits every concept exactly once, in the lectic
order of intents that Ganter's NextClosure produces.

The order structure is relational, as in the rest of the package.  By the
Basic Theorem (Ganter & Wille, *Formal Concept Analysis*, 1999, Thm. 3)
concept ``i`` is below ``j`` iff extent ``i`` lies within extent ``j`` iff
intent ``j`` lies within intent ``i``, so the concept order is both the left
residual ``M\\M`` of the instance x concept membership relation ``M`` by
itself and the right residual ``N/N`` of the concept x type membership
relation ``N``; ``ConceptLattice.order`` takes the side ``relalg.branch``
picks.  The two preorders of a classification are the residuals of its
incidence (see ``classification``).  ``bound_of`` is the one meet/join
lookup, behind ``ConceptLattice.meet_of`` and ``join_of``, and
``check_lattice`` the one validator of lattice orders: a complete lattice,
``functors.CompleteLattice``, is the concept lattice of its order
classification, and its construction runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import relalg
from .classification import Classification, check_preorder
from .errors import ResourceLimitError, ValidationError, quote
from .relalg import (
    _BYTE_BITS,
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
    """The concept lattice of a classification: its ``concepts`` and the
    ``classification`` they are the concepts of.

    The embeddings are functions of the two (the Basic Theorem), derived, so
    they cannot disagree with the concepts: ``iota`` sends an instance to its
    smallest containing concept, whose intent is its row, ``tau`` a type to
    its largest, whose extent is its column; a row or column that is no
    intent or extent raises ``ValidationError`` naming its label.  From the
    extents and intents come ``iota_rel`` (instance x concept, the extents as
    columns), ``tau_rel`` (concept x type, the intents as rows), and
    ``order``, extent inclusion: ``iota_rel\\iota_rel`` and ``tau_rel/tau_rel``.
    """

    concepts: tuple[FormalConcept, ...]
    classification: Classification

    @property
    def size(self) -> int:
        return len(self.concepts)

    def __len__(self) -> int:
        return len(self.concepts)

    @view
    def instance_labels(self) -> tuple[str, ...]:
        return self.classification.instances

    @view
    def type_labels(self) -> tuple[str, ...]:
        return self.classification.types

    @view
    def iota(self) -> FunctionGraph:
        """Each instance to the concept whose intent is its row."""
        return self._embedding(self.classification.rows, self.intent_index, "instance")

    @view
    def tau(self) -> FunctionGraph:
        """Each type to the concept whose extent is its column."""
        return self._embedding(self.classification.cols, self.extent_index, "type")

    def _embedding(self, sets, index: Mapping[int, int], kind: str) -> FunctionGraph:
        try:
            return FunctionGraph(tuple(map(index.__getitem__, sets)), self.size)
        except KeyError as missing:
            first = sets.index(missing.args[0])
        label = (self.instance_labels if kind == "instance" else self.type_labels)[first]
        raise ValidationError(f"{kind} {quote(label)} has no {kind} concept", witness=(label,))

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

        It is the side ``relalg.branch`` picks: ``tau_rel/tau_rel`` over the
        types, whose rows are the stored intents, or ``iota_rel\\iota_rel``
        over the instances.

        Raises ``ResourceLimitError`` before allocating if its ``n * n / 8``
        bytes exceed ``ORDER_BYTE_CAP``, so ``covers`` and everything built
        on the order fail fast rather than exhaust memory."""
        n = self.size
        if n * n > 8 * ORDER_BYTE_CAP:
            raise ResourceLimitError(
                f"order of {n} concepts needs {n * n // 8} bytes, over the cap {ORDER_BYTE_CAP}"
            )
        m, k = len(self.instance_labels), len(self.type_labels)
        if relalg.branch("order", self.extents, m, k) == "types":
            return right_residual(self.tau_rel, self.tau_rel)
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
        return self.meet_of(0)

    @view
    def bottom(self) -> int:
        return self.join_of(0)

    def meet_of(self, mask: int) -> int:
        """Meet of the concepts in ``mask`` by the extent-intersection
        formula; the top for the empty set."""
        full = self.classification.full_instances
        return bound_of(self.extents, self.extent_index, full, mask, "meet")

    def join_of(self, mask: int) -> int:
        """Join of the concepts in ``mask`` by the intent-intersection
        formula; the bottom for the empty set."""
        full = self.classification.full_types
        return bound_of(self.intents, self.intent_index, full, mask, "join")

    def meet_index(self, indices: Iterable[int]) -> int:
        return self.meet_of(relalg.mask_of(indices))

    def join_index(self, indices: Iterable[int]) -> int:
        return self.join_of(relalg.mask_of(indices))

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

    The free types of a node are those ``B`` lacks, and the walk visits
    those from ``start`` up as the bits of one mask.  A child at ``j`` fails
    the test when its witness types, ``D & (bit - 1) & free``, the free
    types below ``j`` that ``D`` adds, are not empty, and those are what
    ``failed[j]`` keeps for the node's children.  Below a node, every
    closure at ``j`` contains the failed one, so while a witness type is
    still free in a descendant, the descendant's closure at ``j`` adds it
    too and fails: the whole skip test is ``failed[j] & free``, and the
    closure is not computed.  A child's closure stops once it has narrowed
    to ``B | {j}``: every instance of its extent has those types, so its
    intent contains that set, and no further row can remove a type from it.

    A child at a type that no row of ``ext`` has gets the empty extent, whose
    closure is every type.  It adds every type below ``j`` that ``B`` lacks,
    so it is canonical only at the lowest type ``B`` lacks, where it is the
    bottom concept.  Where the extent's rows hold too few crosses to meet
    every free type from ``start`` up, by the gate
    ``|ext| * (1 + mean row weight) < n - start``, a property of the input
    and not a tuned constant, the walk ORs those rows into ``meet`` and
    visits only the free types in ``meet`` and that lowest missing type
    (after Andrews, ICFCA 2017, LNCS 10308, on pruning empty intersections
    in CbO).  The skipped children record no failed closure: ``failed`` only
    lets a descendant skip a test it would fail, so a missing entry costs at
    most a test and changes no result.  Every other node keeps the loop over
    all free types, for there ``meet`` costs more than the tests it saves.

    The visit mask is read either bit by bit, each type cut off the mask,
    or by its bytes, each nonzero byte giving its types from
    ``relalg._BYTE_BITS``; both read the types in ascending order, so the
    pushes and the output are the same.  Reading by bytes costs a
    conversion per node and saves on every type, and most types a node
    visits are skipped by the failure lists where every extent holds a full
    row, as in a lattice classified by its own order.  ``relalg.branch``
    picks the reading once, from the rows.  ``ResourceLimitError`` is raised
    once more than ``max_concepts`` concepts are found.
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
    crosses = sum(map(int.bit_count, rows))
    weight = m + crosses
    bytewise = relalg.branch("walk", rows, n, crosses) == "bytes"
    width = (n + 7) // 8
    offsets = range(0, 8 * width, 8)

    pairs: list[FormalConcept] = []
    # each entry: extent, intent, the first type index its children may add,
    # and the witness types of the closures that failed, by type index
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
        free = full_t ^ cur
        visit = free >> start << start
        if ext.bit_count() * weight < (n - start) * m:
            meet = 0
            rest = ext
            while rest:
                low = rest & -rest
                meet |= rows[low.bit_length() - 1]
                rest ^= low
            # the free types the rows meet, and where the bottom may be canonical
            visit &= meet | free & -free
        # the two loops below differ only in how they read ``visit``, and must
        # stay so: one body fed by a generator of types loses the bytes' gain
        if bytewise:
            # the same types in the same order, read by the bytes of ``visit``
            for base, byte in zip(offsets, visit.to_bytes(width, "little")):
                if not byte:
                    continue
                for j in _BYTE_BITS[byte]:
                    j += base
                    if failed[j] & free:
                        continue
                    bit = 1 << j
                    child_ext = ext & cols[j]
                    child = intent(child_ext, cur | bit)
                    witness = child & (bit - 1) & free
                    if witness:
                        failed[j] = witness
                    else:
                        stack.append((child_ext, child, j + 1, failed))
            continue
        while visit:
            bit = visit & -visit
            visit ^= bit
            j = bit.bit_length() - 1
            # a witness of a closure that failed at j above is still free here
            if failed[j] & free:
                continue
            child_ext = ext & cols[j]
            child = intent(child_ext, cur | bit)
            witness = child & (bit - 1) & free
            if witness:
                failed[j] = witness
            else:
                stack.append((child_ext, child, j + 1, failed))

    return ConceptLattice(tuple(pairs), K)


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


def check_lattice(L: ConceptLattice) -> None:
    """Raise ``ValidationError`` unless ``L.order`` orders a finite lattice,
    for ``L`` the concept lattice of an order classification, whose
    instances are its elements (``functors.CompleteLattice``).

    ``L``'s extents are then the principal down-sets, the columns of the
    order.  Past the preorder check, antisymmetry means the down-sets are
    pairwise distinct.  A finite poset is a lattice when the full down-set
    (a top) is present and the intersection of every two down-sets is a
    principal down-set again: then every meet exists, and so every join.
    The pairs are tested one element at a time, by one set membership pass
    over ``down[i] & down[j]`` for all ``j > i``; only on a failure is the
    first failing pair ``(i, j)`` looked for, and reported by ``meet_of``.
    Witnesses are labels.
    """
    labels, down, down_index = L.instance_labels, L.extents, L.extent_index
    check_preorder(L.order, labels)
    n = len(down)
    if len(down_index) != n:
        i = next(i for i, d in enumerate(down) if down_index[d] != i)
        j = down_index[down[i]]
        raise ValidationError(
            f"order not antisymmetric between {quote(labels[i])} and {quote(labels[j])}",
            witness=(labels[i], labels[j]),
        )
    L.meet_of(0)
    principal = set(down_index)
    for i, d in enumerate(down):
        if not principal.issuperset(map(d.__and__, down[i + 1 :])):
            j = next(j for j in range(i + 1, n) if d & down[j] not in principal)
            L.meet_of(1 << i | 1 << j)


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
