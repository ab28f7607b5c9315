"""Concept lattices: construction, order structure and embeddings.

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

A square context whose incidence is a lattice order gets its concepts
without the walk.  By the Basic Theorem (Ganter & Wille, *Formal Concept
Analysis*, 1999, Thm. 3) they are its principal pairs, concept ``x`` being
``(cols[x], rows[x])``, sorted into the same lectic order.  ``build_lattice``
looks for a full row, the least element's, by one membership test, and
``_principal_pairs`` tests the rest in one read of the rows: reflexivity,
distinct rows, transitivity along the covers walk of
``ConceptLattice.covers``, and a join for every two upper covers of an
element.  That suffices by a lemma: a finite order with a least element, in
which any two upper covers of a common element have a join, is a lattice.
By induction down from the top, all ``x, y >= m`` have a join: if neither
is ``m``, take covers ``x1 <= x`` and ``y1 <= y`` of ``m``; then
``x1 v y1``, ``x v (x1 v y1)`` and ``y v (x v (x1 v y1))`` exist by the
hypothesis at ``m``, ``x1`` and ``y1``, and the last is ``x v y``
(``build_lattice`` gives the proof in full).  Every order that fails a
test, and every other context, is walked.

The order structure is relational, as in the rest of the package.  By the
Basic Theorem (Ganter & Wille, *Formal Concept Analysis*, 1999, Thm. 3)
concept ``i`` is below ``j`` iff extent ``i`` lies within extent ``j`` iff
intent ``j`` lies within intent ``i``, so the concept order is both the left
residual ``M\\M`` of the instance x concept membership relation ``M`` by
itself and the right residual ``N/N`` of the concept x type membership
relation ``N``; ``ConceptLattice.order`` takes the side ``relalg.branch``
picks.  The two preorders of a classification are the residuals of its
incidence (see ``classification``).  ``bound_of`` is the one meet/join
lookup, behind ``ConceptLattice.meet_of`` and ``join_of``.

``concept_lattice_of`` is ``build_lattice`` behind a least-recently-used
cache keyed by classification, which bonds and functors share; a lookup
through ``_lattice_within`` caps the build on a miss.
``check_lattice`` is the one validator of lattice orders, and it reads the
same theorem the other way: a complete lattice, ``functors.CompleteLattice``,
is the concept lattice of its order classification, so an order is a lattice
exactly when the concepts of its order classification are its principal
pairs.  It takes that concept lattice from the cache, or builds it there
with no more concepts than elements, where a lattice order takes the
principal-pairs path, and names a failure only when the test fails.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, repeat, starmap
from operator import and_
from typing import Iterable, Mapping, NamedTuple, Sequence

from . import relalg
from .classification import Classification, check_preorder
from .errors import ResourceLimitError, ValidationError, quote
from .relalg import (
    FunctionGraph,
    Relation,
    _new,
    _require_ints,
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

    The constructor refuses concepts that are no ``FormalConcept``s of
    int masks within the classification's instances and types, so the
    views store their relations unchecked; ``build_lattice`` stores the
    concepts it finds through ``_of``, with no check.
    """

    concepts: tuple[FormalConcept, ...]
    classification: Classification

    def __post_init__(self):
        concepts, K = self.concepts, self.classification
        if not (isinstance(concepts, tuple) and all(type(c) is FormalConcept for c in concepts)):
            raise ValidationError("concepts must be a tuple of FormalConcepts")
        for kind, sets, size in (
            ("extent", self.extents, len(K.instances)),
            ("intent", self.intents, len(K.types)),
        ):
            _require_ints(sets, f"concept {kind}s")
            full = (1 << size) - 1
            if sets and (min(sets) < 0 or max(sets) > full):
                i = next(i for i, s in enumerate(sets) if s < 0 or s > full)
                raise ValidationError(
                    f"{kind} of concept {i} has bits outside 0..{size - 1}", witness=(i,)
                )

    @classmethod
    def _of(
        cls, concepts: tuple[FormalConcept, ...], classification: Classification
    ) -> "ConceptLattice":
        """The lattice with these fields, stored unchecked, as ``Relation._of``:
        only for concepts found in ``classification``."""
        out = _new(cls)
        d = out.__dict__
        d["concepts"] = concepts
        d["classification"] = classification
        return out

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
            return FunctionGraph._of(tuple(map(index.__getitem__, sets)), self.size)
        except KeyError as missing:
            first = sets.index(missing.args[0])
        label = (self.instance_labels if kind == "instance" else self.type_labels)[first]
        raise ValidationError(f"{kind} {quote(label)} has no {kind} concept", witness=(label,))

    @view
    def iota_rel(self) -> Relation:
        """instance x concept: the instance lies in the concept's extent."""
        return transpose(Relation._of(self.size, len(self.instance_labels), self.extents))

    @view
    def tau_rel(self) -> Relation:
        """concept x type: the type lies in the concept's intent."""
        return Relation._of(self.size, len(self.type_labels), self.intents)

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

        Row ``i`` holds the minimal elements of the strict up-set of ``i``.
        The walk starts with ``rest``, the candidates, equal to that up-set,
        and ``cov``, the covers found, empty.  It takes the highest index
        ``j`` left in ``rest``, removes the up-set of ``j`` from ``rest`` and
        sets ``j`` in ``cov``; the ints shrink as the walk goes down.

        That is exact for any index order.  A minimal element leaves
        ``rest`` only when it is taken, so every one is taken, and it is
        cleared from ``cov`` only by its own up-set, just before it is set.
        A ``j`` taken that is not minimal lies above a minimal ``k`` still in
        ``rest``, at a lower index as ``j`` was the highest; when ``k`` is
        taken, its up-set holds ``j``, an index above its own, and clears
        ``cov`` of it.  Only such an up-set runs the clear, and in lectic
        order there is none: a concept above another has the smaller index
        (its intent is a proper subset), so every element taken is a cover.

        The order rows are read in place, so no second n x n relation is
        built beside the order.
        """
        n = self.size
        rows = self.order.rows
        out = []
        for i, row in enumerate(rows):
            rest = row & ~(1 << i)
            cov = 0
            while rest:
                j = rest.bit_length() - 1
                above = rows[j]
                rest ^= rest & above
                if above >> j > 1:
                    cov &= ~above
                cov |= 1 << j
            out.append(cov)
        return Relation._of(n, n, tuple(out))

    def extent_labels(self, c: FormalConcept) -> tuple[str, ...]:
        return tuple(self.instance_labels[i] for i in bits(c.extent))

    def intent_labels(self, c: FormalConcept) -> tuple[str, ...]:
        return tuple(self.type_labels[i] for i in bits(c.intent))

    def __repr__(self):
        return f"ConceptLattice({self.size} concepts)"


def _principal_pairs(
    rows: Sequence[int], cols: Sequence[int]
) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    """The extents and intents of the concepts of a square context, with
    these rows and columns and a full row, in lectic order when its
    incidence is a lattice order, ``i <= j`` at bit ``j`` of row ``i``;
    else ``None``.

    By the Basic Theorem (Ganter & Wille 1999, Thm. 3) the concepts of a
    lattice's order classification are its principal pairs: concept ``x``
    is ``(cols[x], rows[x])``, the down-set and the up-set of ``x``.  They
    are sorted into the walk's lectic order of intents, the string order of
    ``relalg.row_digits`` of the rows.  The test reads each row once.

    ``build_lattice`` has refused cheaply first: a lattice order needs a
    full row, its least element's, found by one C-level membership test.
    Here come the reflexive diagonal and distinct rows.  Then each row
    ``i`` is walked as ``ConceptLattice.covers`` walks it, highest index
    first, which is exact for any index order, and every ``j`` the walk
    takes must have ``rows[j]`` within ``rows[i]``.  That is transitivity:
    every element the walk skips lies in a row it took, which is smaller,
    for rows are distinct, and so closed by induction on row size.  Last,
    for every two upper covers ``a`` and ``b`` of ``i``, ``rows[a] &
    rows[b]``, their common upper bounds, must be a row: their join exists.
    If every row passes, the relation is an order, so the covers found
    were its covers.

    That suffices, by the lemma proved in ``build_lattice``.  Where an
    element has many covers, its cover pairs are the ``n**2 / 2`` pair
    scan; that still replaces a walk of the whole context.
    """
    unit = 1
    for row in rows:
        if not row & unit:
            return None
        unit <<= 1
    index = {row: x for x, row in enumerate(rows)}
    if len(index) != len(rows):
        return None
    joined = index.__contains__
    for i, row in enumerate(rows):
        rest = row ^ 1 << i
        cov = taken = 0
        ups = []  # the rows taken: the covers' rows, unless a take cleared one
        while rest:
            j = rest.bit_length() - 1
            above = rows[j]
            ups.append(above)
            taken |= above
            rest &= ~above
            if above >> j > 1:
                cov &= ~above
            cov |= 1 << j
        if taken & ~row:
            return None
        if len(ups) > 1:
            if len(ups) > cov.bit_count():
                ups = list(map(rows.__getitem__, bits(cov)))
            if not all(map(joined, starmap(and_, combinations(ups, 2)))):
                return None
    # ``relalg.row_digits`` of each row, written out
    digits = f"0{len(rows)}b"
    keys = [format(row, digits)[::-1] for row in rows]
    _, extents, intents = zip(*sorted(zip(keys, cols, rows)))
    return extents, intents


def _too_many(max_concepts: int) -> ResourceLimitError:
    return ResourceLimitError(f"more than {max_concepts} concepts; raise max_concepts to proceed")


def build_lattice(K: Classification, max_concepts: int = DEFAULT_CONCEPT_CAP) -> ConceptLattice:
    """All formal concepts of ``K``, in lectic order of their intents.

    Intents compare lectically by their lowest differing type: the set holding
    it is the larger.  A square context whose incidence is a lattice order
    has its principal pairs as concepts, by the Basic Theorem, and
    ``_principal_pairs`` reads them off the order, sorted by the string
    order of ``relalg.row_digits`` of the rows, which is the lectic order;
    every other context, and every order that fails one of its tests, runs
    the walk below.  Its tests are a least element, reflexivity, distinct
    rows, transitivity, and a join for every two upper covers of an
    element; they suffice.

    **Lemma.** A finite order with a least element, in which any two upper
    covers of a common element have a join, is a lattice.  **Proof.** All
    ``x, y >= m`` have a join, by induction down from the top.  If ``x`` or
    ``y`` is ``m``, this is done.  Otherwise take covers ``x1 <= x`` and
    ``y1 <= y`` of ``m``.  If ``x1 == y1``, use the hypothesis at ``x1``.
    If not, ``j = x1 v y1`` exists by assumption, ``k = x v j`` by the
    hypothesis at ``x1`` and ``l = y v k`` by the hypothesis at ``y1``.  Any
    upper bound of ``x`` and ``y`` lies above ``j``, then ``k``, then
    ``l``, so ``l = x v y``.  At ``m = 0`` every pair has a join, and a
    finite order with a least element and all binary joins is a lattice.

    FCbO walks the canonical-extension tree from the
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
    closure is not computed.  A child's closure is the AND of its extent's
    rows, written into the loop and stopped at the floor ``B | {j}``:
    every instance of its extent has those types, so its intent contains
    that set, and the AND stops once it has narrowed to it, for no further
    row can remove a type.

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

    The walk makes no object per concept: it appends each extent and intent
    to two int lists, and ``ResourceLimitError`` is raised once they hold
    more than ``max_concepts``; a lattice order of more than ``max_concepts``
    elements raises the same.  At the end every ``FormalConcept`` is made
    in one C-level pass, and the extents and intents, as tuples, are stored
    as the lattice's ``extents`` and ``intents``, as
    ``functors.CompleteLattice`` presets its own views.
    """
    m = len(K.instances)
    n = len(K.types)
    rows = K.rows
    cols = K.cols
    full_i = (1 << m) - 1
    full_t = (1 << n) - 1

    # a lattice order has a full row, its least element's
    found = m == n and full_t in rows and _principal_pairs(rows, cols)
    if found:
        if n > max_concepts:
            raise _too_many(max_concepts)
        extents, intents = found
    else:
        # the gate ``|ext| * (1 + mean row weight) < n - start``, times ``m``,
        # is ``|ext| * weight < (n - start) * m``
        weight = m + sum(map(int.bit_count, rows))
        exts: list[int] = []
        ints: list[int] = []
        # each entry: extent, intent, the first type index its children may add,
        # and the witness types of the closures that failed, by type index
        stack = [(full_i, relalg.intersect_rows(rows, full_i, full_t), 0, [0] * n)]
        while stack:
            ext, cur, start, inherited = stack.pop()
            exts.append(ext)
            ints.append(cur)
            if len(exts) > max_concepts:
                raise _too_many(max_concepts)
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
            while visit:
                bit = visit & -visit
                visit ^= bit
                j = bit.bit_length() - 1
                # a witness of a closure that failed at j above is still free here
                if failed[j] & free:
                    continue
                child_ext = rest = ext & cols[j]
                child, floor = full_t, cur | bit
                while rest and child != floor:
                    low = rest & -rest
                    child &= rows[low.bit_length() - 1]
                    rest ^= low
                witness = child & (bit - 1) & free
                if witness:
                    failed[j] = witness
                else:
                    stack.append((child_ext, child, j + 1, failed))
        extents, intents = tuple(exts), tuple(ints)

    # ``tuple.__new__`` makes the instances ``FormalConcept(e, i)`` would,
    # without a Python-level ``__new__`` call each
    concepts = tuple(map(tuple.__new__, repeat(FormalConcept), zip(extents, intents)))
    out = ConceptLattice._of(concepts, K)
    d = out.__dict__
    d["extents"] = extents
    d["intents"] = intents
    return out


# the concept cap of a build on a cache miss, lowered by ``_lattice_within``
# for one lookup; a context variable, so each thread and task has its own
_MISS_CAP: ContextVar[int] = ContextVar("_MISS_CAP", default=DEFAULT_CONCEPT_CAP)


@lru_cache(maxsize=4096)
def concept_lattice_of(K: Classification) -> ConceptLattice:
    """Cached ``build_lattice``; bonds and functors share lattices through it."""
    return build_lattice(K, _MISS_CAP.get())


def _lattice_within(K: Classification, max_concepts: int) -> ConceptLattice | None:
    """``concept_lattice_of(K)``, built with at most ``max_concepts``
    concepts if it is not cached; ``None`` if it has more, and then, as
    ``lru_cache`` keeps no exception, nothing is stored and a later call
    builds the whole lattice."""
    token = _MISS_CAP.set(max_concepts)
    try:
        return concept_lattice_of(K)
    except ResourceLimitError:
        return None
    finally:
        _MISS_CAP.reset(token)


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
    Priestley, *Introduction to Lattices and Order*, ch. 2).  The
    intersection is ``relalg.intersect_rows``; a mask with a bit outside
    ``sets``, or a negative one, raises ``ValidationError`` with the mask as
    witness, as does one whose intersection is no principal set.
    """
    if mask < 0 or mask >> len(sets):
        raise ValidationError(
            f"element set {mask:#x} outside the {len(sets)} elements", witness=(mask,)
        )
    found = index.get(relalg.intersect_rows(sets, mask, full))
    if found is None:
        raise ValidationError(f"no {kind} for element set {mask:#x}", witness=(mask,))
    return found


def check_lattice(K: Classification) -> ConceptLattice:
    """Raise ``ValidationError`` unless the incidence of ``K``, an order
    classification ``(P, P, <=)`` as ``functors.CompleteLattice`` builds it,
    orders a finite lattice; return the concept lattice of ``K``, which
    proves it.

    A finite lattice is the concept lattice of its order classification
    (the Basic Theorem, Ganter & Wille 1999, Thm. 3), which is the order's
    Dedekind-MacNeille completion (MacNeille, *Partially ordered sets*,
    Trans. AMS 42, 1937): a relation on ``n`` elements orders a lattice iff
    the concepts of its classification are exactly the ``n`` distinct pairs
    (column ``x``, row ``x``).  Each such concept puts ``x`` in its column,
    so the relation is reflexive, and every ``z`` of row ``y`` in
    ``{t : column y within column t}``, so it is transitive; distinct pairs
    make it antisymmetric, and with every concept principal the order is its
    own completion.  Whole pairs are compared: with extents alone, some
    intransitive relations pass.  The concept lattice comes from
    ``concept_lattice_of``, and one missing there is built with at most
    ``n`` concepts, so an order with a larger completion fails fast and
    stores nothing.  On a lattice order that build reads the principal
    pairs off the order with no walk (``_principal_pairs``): it finds a
    least element, reflexivity, distinct rows, transitivity along the
    covers walk, and a join for every two upper covers of an element.  By
    a lemma, a finite order with a least element in which any two upper
    covers of an element have a join is a lattice: by induction down from
    the top, ``x, y >= m`` other than ``m`` have the join
    ``y v (x v (x1 v y1))`` for covers ``x1 <= x`` and ``y1 <= y`` of
    ``m``, each join existing by the hypothesis at ``m``, ``x1`` or ``y1``
    (``build_lattice`` gives the proof in full).

    Only when that test fails are the laws checked one by one, to name the
    first that fails: the preorder (``check_preorder``); antisymmetry, which
    means the down-sets, the columns, are pairwise distinct; a top, the full
    down-set; and, for every two down-sets, an intersection that is a
    principal down-set, whence every meet exists, and so every join.  The
    pairs are tested one element at a time, by one set membership pass over
    ``down[i] & down[j]`` for all ``j > i``; only on a failure is the first
    failing pair ``(i, j)`` looked for.  A preorder or antisymmetry failure
    names labels; a missing top or meet is reported by ``bound_of``, whose
    witness is the element set as a mask, ``(0x18,)`` for the pair 3 and 4.
    """
    n = len(K.instances)
    M = _lattice_within(K, n)
    # M's classification equals K, and the build has read its columns
    if M is not None and M.size == n:
        if set(M.concepts) == set(zip(M.classification.cols, K.rows)):
            return M
    labels, down = K.instances, K.cols
    check_preorder(K.incidence, labels)
    down_index = {d: i for i, d in enumerate(down)}
    if len(down_index) != n:
        i = next(i for i, d in enumerate(down) if down_index[d] != i)
        j = down_index[down[i]]
        raise ValidationError(
            f"order not antisymmetric between {quote(labels[i])} and {quote(labels[j])}",
            witness=(labels[i], labels[j]),
        )
    full = K.full_instances
    bound_of(down, down_index, full, 0, "meet")
    principal = set(down_index)
    for i, d in enumerate(down):
        if not principal.issuperset(map(d.__and__, down[i + 1 :])):
            j = next(j for j in range(i + 1, n) if d & down[j] not in principal)
            bound_of(down, down_index, full, 1 << i | 1 << j, "meet")
    raise AssertionError("a lattice order whose concepts are not its principal pairs")


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
