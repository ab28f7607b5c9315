"""Independent brute-force references for the tests.

Everything here runs on explicit index loops and Python sets, touching
relations only through the single-bit accessor, so agreement with the
word-parallel kernels is a meaningful check.  The exceptions are the five
bit loops the kernels ran on every input before their word-parallel
branches (``compose_loop_oracle``, ``transpose_oracle``,
``left_residual_sweep_oracle``, ``right_residual_scatter_oracle`` and
``preimages_oracle``): they share no tile, table, byte step or gather with
the kernels, and they are fast enough to check them, and to time them
against (``tools/kernel_probe.py``), on the seeded inputs of ``conftest.py``
at sizes the per-cell oracles cannot reach.

The enumerator oracles (``infomorphisms_oracle``, ``lattice_morphism_candidates``
and ``lattice_morphisms_oracle``) try every pair of an instance and a type
function in lexicographic order and keep those the library's own checks
pass: they share the verdict with the propagating enumerator of
``colimit`` and the lattice functor's image of what it finds, not the
search, which is what they check.  ``lattice_morphisms_per_pair`` shares
the search and computes both forced lattice maps for every pair by
density, which checks the maps the functor reads through two pullbacks.

The collective oracles are the formulas on pairs ``(a, alpha)`` that the
bond form of a collective concept replaced, run on the per-cell kernels.

``fcbo_oracle`` is the concept walk the library replaced, kept as it was:
it tests every free type at every node, and checks the walk that skips the
types an extent cannot meet on inputs too large for NextClosure.

``check_lattice_oracle`` is the validator of lattice orders the library
replaced, kept as it was: it tests the order laws one by one, and every
pair of down-sets, where ``lattice.check_lattice`` reads the concepts of
the order classification.

``branches`` is the one rebinding of ``relalg.branch``: the tests force a
kernel's branch through it, and ``tools/kernel_probe.py``, which imports
this module and the seeded inputs of ``conftest.py``, forces the branches
it times and counts what the rule picks; it checks nothing, for the tests
compare every branch it times with its reference on the same inputs.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
from types import SimpleNamespace

from conceptual import colimit, relalg
from conceptual.classification import check_preorder
from conceptual.errors import CheckResult, ResourceLimitError, ValidationError, quote
from conceptual.functors import CompleteHomomorphism, ConceptLatticeMorphism, adjoint_of_bond
from conceptual.infomorphism import FunctionalInfomorphism, check_functional
from conceptual.lattice import DEFAULT_CONCEPT_CAP, ConceptLattice, FormalConcept, bound_of
from conceptual.relalg import FunctionGraph, Relation, bits


def compose_oracle(r: Relation, s: Relation) -> Relation:
    pairs = []
    for a in range(r.src_size):
        for c in range(s.dst_size):
            if any(r.bit(a, b) and s.bit(b, c) for b in range(r.dst_size)):
                pairs.append((a, c))
    return Relation.from_pairs(r.src_size, s.dst_size, pairs)


def compose_loop_oracle(r: Relation, s: Relation) -> Relation:
    """The bit loop ``relalg.compose`` ran on every input before its byte
    steps: row ``a`` is the OR of the rows of ``s`` at the bits of row ``a``
    of ``r``, one bit at a time, lowest first."""
    srows = s.rows
    out = []
    for row in r.rows:
        acc = 0
        while row:
            low = row & -row
            acc |= srows[low.bit_length() - 1]
            row ^= low
        out.append(acc)
    return Relation(r.src_size, s.dst_size, tuple(out))


def matrix_oracle(r: Relation) -> list[list[int]]:
    """The per-cell form ``Relation.matrix`` replaced: one ``int`` 0 or 1
    per cell, read by the single-bit accessor."""
    return [[int(r.bit(a, b)) for b in range(r.dst_size)] for a in range(r.src_size)]


def transpose_oracle(r: Relation) -> Relation:
    """The bit loop ``relalg.transpose`` ran on every input before its
    delta-swap tiles: each set bit ``(a, b)``, lowest first, becomes bit
    ``a`` of row ``b``."""
    out = [0] * r.dst_size
    for a, row in enumerate(r.rows):
        abit = 1 << a
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= abit
            row ^= low
    return Relation(r.dst_size, r.src_size, tuple(out))


def preimages_oracle(f: FunctionGraph, masks) -> tuple[int, ...]:
    """The fiber loop ``FunctionGraph.preimages`` and ``relalg.pullback``
    ran on every input before their byte steps and gather: the inverse image
    of each mask, one OR of a fiber per set bit, lowest first; bits past the
    targets are ignored.  The fibers are the function's own view, which
    ``test_function_properties`` checks by definition."""
    fibers = f.fibers
    full = (1 << f.dst_size) - 1
    out = []
    for mask in masks:
        mask &= full
        acc = 0
        while mask:
            low = mask & -mask
            acc |= fibers[low.bit_length() - 1]
            mask ^= low
        out.append(acc)
    return tuple(out)


def left_residual_sweep_oracle(r: Relation, t: Relation) -> Relation:
    """``r\\t`` as a row sweep that ANDs row ``a`` of ``t`` into the output
    row of each bit of row ``a`` of ``r``, one bit at a time."""
    full = (1 << t.dst_size) - 1
    out = [full] * r.dst_size
    for row, ta in zip(r.rows, t.rows):
        while row:
            low = row & -row
            out[low.bit_length() - 1] &= ta
            row ^= low
    return Relation(r.dst_size, t.dst_size, tuple(out))


def right_residual_scatter_oracle(t: Relation, s: Relation) -> Relation:
    """``t/s`` column by column: column ``b`` is the AND of the columns of
    ``t`` over the bits of row ``b`` of ``s``, scattered bit by bit into the
    output rows."""
    cols = transpose_oracle(t).rows
    out = [0] * t.src_size
    for b, sb in enumerate(s.rows):
        col = (1 << t.src_size) - 1
        while sb:
            low = sb & -sb
            col &= cols[low.bit_length() - 1]
            sb ^= low
        while col:
            low = col & -col
            out[low.bit_length() - 1] |= 1 << b
            col ^= low
    return Relation(t.src_size, s.src_size, tuple(out))


def left_residual_oracle(r: Relation, t: Relation) -> Relation:
    pairs = []
    for b in range(r.dst_size):
        for c in range(t.dst_size):
            if all(not r.bit(a, b) or t.bit(a, c) for a in range(r.src_size)):
                pairs.append((b, c))
    return Relation.from_pairs(r.dst_size, t.dst_size, pairs)


def right_residual_oracle(t: Relation, s: Relation) -> Relation:
    pairs = []
    for a in range(t.src_size):
        for b in range(s.src_size):
            if all(not s.bit(b, c) or t.bit(a, c) for c in range(t.dst_size)):
                pairs.append((a, b))
    return Relation.from_pairs(t.src_size, s.src_size, pairs)


def subrelation_oracle(r: Relation, t: Relation) -> bool:
    return all(
        not r.bit(a, b) or t.bit(a, b)
        for a in range(r.src_size)
        for b in range(r.dst_size)
    )


def enumerate_relations(src: int, dst: int):
    for code in range(1 << (src * dst)):
        rows = tuple(code >> a * dst & (1 << dst) - 1 for a in range(src))
        yield Relation(src, dst, rows)


def best_left_residual(r: Relation, t: Relation) -> Relation:
    """Union of every s with compose(r, s) contained in t, by enumeration."""
    rows = [0] * r.dst_size
    for s in enumerate_relations(r.dst_size, t.dst_size):
        if subrelation_oracle(compose_oracle(r, s), t):
            rows = [x | y for x, y in zip(rows, s.rows)]
    return Relation(r.dst_size, t.dst_size, tuple(rows))


def best_right_residual(t: Relation, s: Relation) -> Relation:
    rows = [0] * t.src_size
    for r in enumerate_relations(t.src_size, s.src_size):
        if subrelation_oracle(compose_oracle(r, s), t):
            rows = [x | y for x, y in zip(rows, r.rows)]
    return Relation(t.src_size, s.src_size, tuple(rows))


def random_relation(rng, src: int, dst: int) -> Relation:
    return Relation(src, dst, tuple(rng.getrandbits(dst) for _ in range(src)))


# -- set-based derivation and concepts ------------------------------------------


def instance_types(K, a: int) -> set[int]:
    return {t for t in range(len(K.types)) if K.incidence.bit(a, t)}


def intent_oracle(K, instance_set: set[int]) -> set[int]:
    out = set(range(len(K.types)))
    for a in instance_set:
        out &= instance_types(K, a)
    return out


def extent_oracle(K, type_set: set[int]) -> set[int]:
    return {
        a
        for a in range(len(K.instances))
        if all(K.incidence.bit(a, t) for t in type_set)
    }


def extent_inclusion_oracle(extents: list[set[int]]) -> Relation:
    """The concept order by its definition: ``(i, j)`` with extent ``i``
    inside extent ``j``, pair by pair."""
    n = len(extents)
    pairs = ((i, j) for i, e in enumerate(extents) for j, f in enumerate(extents) if e <= f)
    return Relation.from_pairs(n, n, pairs)


def covers_oracle(extents: list[set[int]]) -> set[tuple[int, int]]:
    """The Hasse diagram of extent inclusion by its definition: ``(i, j)``
    with extent ``i`` strictly inside extent ``j`` and no extent strictly
    between them.  The strict inclusions are tested pair by pair, and a pair
    is a cover when no index is both above ``i`` and below ``j``."""
    n = len(extents)
    above = [{j for j in range(n) if extents[i] < extents[j]} for i in range(n)]
    below = [set() for _ in range(n)]
    for i in range(n):
        for j in above[i]:
            below[j].add(i)
    return {(i, j) for i in range(n) for j in above[i] if above[i].isdisjoint(below[j])}


def closed_pairs_oracle(K) -> set[tuple[frozenset, frozenset]]:
    """Close every instance subset and dedupe.

    Each instance's type set is read once; the intent of a subset is the
    intersection of its members' sets, and its closure the instances whose
    set contains that intent."""
    out = set()
    n = len(K.instances)
    rows = [instance_types(K, a) for a in range(n)]
    everything = set(range(len(K.types)))
    for code in range(1 << n):
        intent = everything.intersection(*(rows[a] for a in range(n) if code >> a & 1))
        extent = frozenset(a for a in range(n) if intent <= rows[a])
        out.add((extent, frozenset(intent)))
    return out


def next_closure_oracle(K) -> list[tuple[int, int]]:
    """Every concept of ``K`` as an (extent, intent) bitmask pair, in lectic
    order of the intents, by Ganter's NextClosure: from the closure of the
    empty type set, the lectically next closed intent is the closure of
    ``(cur & below) | bit`` for the highest type ``bit`` not in ``cur`` whose
    closure adds no type below it.  Every candidate is closed from scratch."""
    m, n = len(K.instances), len(K.types)
    rows = [sum(1 << t for t in range(n) if K.incidence.bit(a, t)) for a in range(m)]
    cols = [sum(1 << a for a in range(m) if K.incidence.bit(a, t)) for t in range(n)]
    full_i, full_t = (1 << m) - 1, (1 << n) - 1

    def extent(tmask: int) -> int:
        e = full_i
        for t in range(n):
            if tmask >> t & 1:
                e &= cols[t]
        return e

    def intent(imask: int) -> int:
        t = full_t
        for a in range(m):
            if imask >> a & 1:
                t &= rows[a]
        return t

    out = []
    cur = intent(full_i)
    while True:
        out.append((extent(cur), cur))
        for i in range(n - 1, -1, -1):
            bit = 1 << i
            if cur & bit:
                continue
            below = bit - 1
            cand = intent(extent((cur & below) | bit))
            if cand & below == cur & below:
                cur = cand
                break
        else:
            return out


def fcbo_oracle(K, max_concepts: int = DEFAULT_CONCEPT_CAP) -> ConceptLattice:
    """The FCbO walk ``lattice.build_lattice`` ran before it skipped the
    children its extent cannot reach: every free type ``j`` from ``start``
    up is tested at every node, and each failed closure is recorded for the
    node's children.  Same concepts, same lectic order."""
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
        for j in range(start, n):
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

    return ConceptLattice(tuple(pairs), K)


def embeddings_oracle(L: ConceptLattice) -> tuple[FunctionGraph, FunctionGraph]:
    """``iota`` and ``tau`` of ``L`` by the Basic Theorem, from its concepts
    alone: instance ``a`` goes to the concept whose extent is the
    intersection of every extent holding ``a``, type ``t`` to the concept
    whose intent is the intersection of every intent holding ``t``; each is
    found by a scan of the concept list."""
    full_i = (1 << len(L.instance_labels)) - 1
    full_t = (1 << len(L.type_labels)) - 1

    def least(sets, full, x) -> int:
        meet = functools.reduce(int.__and__, (s for s in sets if s >> x & 1), full)
        return next(k for k, s in enumerate(sets) if s == meet)

    extents = [c.extent for c in L.concepts]
    intents = [c.intent for c in L.concepts]
    iota = [least(extents, full_i, a) for a in range(len(L.instance_labels))]
    tau = [least(intents, full_t, t) for t in range(len(L.type_labels))]
    return FunctionGraph(tuple(iota), L.size), FunctionGraph(tuple(tau), L.size)


def emit_dot_oracle(L: ConceptLattice) -> str:
    """The text ``io.emit_dot`` writes, written plainly: a node per concept,
    labelled with the types and then the instances that ``embeddings_oracle``
    sends to it, each part's labels joined by a space and escaped, the
    parts by DOT's ``\\n``; then one edge ``cJ -> cI`` per ``covers_oracle``
    pair ``(I, J)``, by ``I`` and then ``J``."""
    iota, tau = embeddings_oracle(L)
    lines = ["digraph lattice {", "  node [shape=box];"]
    for c in range(L.size):
        types = [label for label, t in zip(L.type_labels, tau.targets) if t == c]
        instances = [label for label, a in zip(L.instance_labels, iota.targets) if a == c]
        parts = []
        for part in (types, instances):
            if part:
                parts.append(" ".join(part).replace("\\", "\\\\").replace('"', '\\"'))
        label = "\\n".join(parts)
        lines.append(f'  c{c} [label="{label}"];')
    m = len(L.instance_labels)
    extents = [{a for a in range(m) if c.extent >> a & 1} for c in L.concepts]
    for i, j in sorted(covers_oracle(extents)):
        lines.append(f"  c{j} -> c{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def pointwise_pair_constraints(F, G) -> list[tuple[bool, bool]]:
    """Per-concept failure flags of the two pointwise pairing constraints,
    by set derivation.

    For each concept (E, I) of the source lattice, the target instances whose
    ``F`` row contains I must be the extent of the target types that ``G``
    gives every instance of E (the first constraint), and those types the
    intent of those instances (the second).
    """
    from conceptual.lattice import concept_lattice_of

    B = F.target
    out = []
    for c in concept_lattice_of(F.source).concepts:
        extent = {a for a in range(len(F.source.instances)) if c.extent >> a & 1}
        intent = {t for t in range(len(F.source.types)) if c.intent >> t & 1}
        gamma = {
            b for b in range(len(B.instances)) if all(F.rel.bit(b, t) for t in intent)
        }
        alpha = {s for s in range(len(B.types)) if all(G.rel.bit(a, s) for a in extent)}
        out.append((gamma != extent_oracle(B, alpha), alpha != intent_oracle(B, gamma)))
    return out


def adjoint_masks_oracle(F) -> tuple[list[int], list[int]]:
    """What ``adjoint_of_bond`` sends each concept to, as masks, by set
    derivation: for each source concept the target instances whose ``F`` row
    holds its intent, for each target concept the source types ``F`` gives
    every instance of its extent."""
    from conceptual.lattice import concept_lattice_of

    A, B = F.source, F.target
    psi = []
    for c in concept_lattice_of(A).concepts:
        intent = [t for t in range(len(A.types)) if c.intent >> t & 1]
        psi.append(
            sum(
                1 << b
                for b in range(len(B.instances))
                if all(F.rel.bit(b, t) for t in intent)
            )
        )
    phi = []
    for d in concept_lattice_of(B).concepts:
        extent = [b for b in range(len(B.instances)) if d.extent >> b & 1]
        phi.append(
            sum(1 << t for t in range(len(A.types)) if all(F.rel.bit(b, t) for b in extent))
        )
    return psi, phi


def concept_set(L) -> set[tuple[frozenset, frozenset]]:
    """The library lattice as comparably-typed closed pairs."""
    out = set()
    for c in L.concepts:
        extent = frozenset(i for i in range(len(L.instance_labels)) if c.extent >> i & 1)
        intent = frozenset(t for t in range(len(L.type_labels)) if c.intent >> t & 1)
        out.add((extent, intent))
    return out


def inf_oracle(L, indices: list[int]) -> int | None:
    """Order-theoretic infimum: the greatest common lower bound, by search."""
    candidates = [
        x
        for x in range(L.size)
        if all(L.order.bit(x, i) for i in indices)
    ]
    for x in candidates:
        if all(L.order.bit(y, x) for y in candidates):
            return x
    return None


def sup_oracle(L, indices: list[int]) -> int | None:
    candidates = [
        x
        for x in range(L.size)
        if all(L.order.bit(i, x) for i in indices)
    ]
    for x in candidates:
        if all(L.order.bit(x, y) for y in candidates):
            return x
    return None


@functools.lru_cache(maxsize=None)
def subset_bounds(leq: Relation) -> tuple[tuple, tuple]:
    """Infimum and supremum of every subset of a finite order, by search,
    indexed by subset mask."""
    ref = SimpleNamespace(order=leq, size=leq.src_size)
    subsets = [[i for i in range(ref.size) if mask >> i & 1] for mask in range(1 << ref.size)]
    return tuple(inf_oracle(ref, s) for s in subsets), tuple(sup_oracle(ref, s) for s in subsets)


def complete_hom_oracle(L, K, psi) -> tuple[bool, tuple | None]:
    """Verdict and witness of ``is_complete_homomorphism``, from the
    definitions.

    The verdict: ``psi`` sends the top, the bottom, and the meet and the
    join of every subset of ``L`` to those of its image in ``K``.  The
    witness of a failure: ``("top",)`` or ``("bottom",)`` when those are
    not preserved, else ``("meet", y)`` for the first ``y`` of ``K`` at which
    no element of ``L`` can be a left adjoint's value (``x0 <= x`` iff
    ``y <= psi(x)`` for every ``x``), else ``("join", y)`` for the first ``y``
    with no right adjoint value (``x <= x0`` iff ``psi(x) <= y``)."""
    L_inf, L_sup = subset_bounds(L.order)
    K_inf, K_sup = subset_bounds(K.order)
    if psi(L_inf[0]) != K_inf[0]:
        return False, ("top",)
    if psi(L_sup[0]) != K_sup[0]:
        return False, ("bottom",)
    preserved = True
    for mask in range(1 << L.size):
        image = 0
        for i in range(L.size):
            if mask >> i & 1:
                image |= 1 << psi(i)
        if psi(L_inf[mask]) != K_inf[image] or psi(L_sup[mask]) != K_sup[image]:
            preserved = False
            break
    if preserved:
        return True, None
    for kind, below in (
        ("meet", lambda x0, x, y: L.order.bit(x0, x) == K.order.bit(y, psi(x))),
        ("join", lambda x0, x, y: L.order.bit(x, x0) == K.order.bit(psi(x), y)),
    ):
        for y in range(K.size):
            if not any(all(below(x0, x, y) for x in range(L.size)) for x0 in range(L.size)):
                return False, (kind, K.elements[y])
    raise AssertionError("some bound is not preserved, yet both adjoints exist")


def canonical_adjoints_oracle(h) -> tuple[FunctionGraph, FunctionGraph]:
    """The adjoints of a complete homomorphism by the meet and join folds:
    ``phi(y)`` is the meet of ``psi^-1(up y)`` and ``theta(y)`` the join of
    ``psi^-1(down y)``, each found by ``meet_of``/``join_of``.  The inverse
    images are ``preimages_oracle``'s fiber loop, not ``pullback``, the
    gather behind the ``principal_preimages`` that ``canonical_adjoints``
    reads."""
    L, K, psi = h.source, h.target, h.psi
    return (
        FunctionGraph(tuple(map(L.meet_of, preimages_oracle(psi, K.intents))), L.size),
        FunctionGraph(tuple(map(L.join_of, preimages_oracle(psi, K.extents))), L.size),
    )


def adjoint_oracle(L, K, phi, psi) -> tuple[int, int] | None:
    """First ``(y, x)``, ``y`` of ``K`` and then ``x`` of ``L`` ascending, at
    which ``phi(y) <= x`` and ``y <= psi(x)`` disagree; ``None`` when
    ``phi: K -> L`` and ``psi: L -> K`` are adjoint."""
    for y in range(K.size):
        for x in range(L.size):
            if L.order.bit(phi(y), x) != K.order.bit(y, psi(x)):
                return y, x
    return None


def check_lattice_oracle(K) -> None:
    """Raise ``ValidationError`` unless the incidence of the order
    classification ``K`` orders a finite lattice on its instances, by the
    laws one at a time, as ``lattice.check_lattice`` did before it read the
    concepts of ``K``.

    Past the preorder check, antisymmetry means the down-sets, the columns,
    are pairwise distinct.  A finite poset is a lattice when the full
    down-set (a top) is present and the intersection of every two down-sets
    is a principal down-set again.  The pairs are tested one element at a
    time, and the first failing pair ``(i, j)`` is reported by ``bound_of``
    with its mask as witness, as a missing top is with mask 0."""
    labels, down = K.instances, K.cols
    check_preorder(K.incidence, labels)
    n = len(down)
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


def raised(check, *args) -> tuple[str, tuple] | None:
    """The message and witness of the ``ValidationError`` that
    ``check(*args)`` raises; ``None`` when it raises none."""
    try:
        check(*args)
    except ValidationError as e:
        return str(e), e.witness
    return None


@contextlib.contextmanager
def branches(kernel: str = "", kind: str = ""):
    """While the block runs, ``relalg.branch`` picks ``kind`` for
    ``kernel``, where both are given, and what the rule picks everywhere
    else; the block gets the list of its picks, one ``(kernel, branch)`` per
    call, in call order.

    A kernel runs a call that its shape alone decides without asking
    ``branch``, so while the block runs both shape constants are lowered
    below every shape: every kernel call asks, and is recorded, and a forced
    one is forced at any size.  The rule's answers do not change, for its
    counts pick what the constants shortcut."""
    rule, shape = relalg.branch, (relalg._SHAPE_BITS, relalg._SHAPE_CELLS)
    picks = []

    def rebound(name, rows, n, k=0):
        pick = name == kernel and kind or rule(name, rows, n, k)
        picks.append((name, pick))
        return pick

    relalg.branch = rebound
    relalg._SHAPE_BITS = relalg._SHAPE_CELLS = -1
    try:
        yield picks
    finally:
        relalg.branch = rule
        relalg._SHAPE_BITS, relalg._SHAPE_CELLS = shape


def lattice_order_oracle(leq: Relation) -> tuple[int, int] | None:
    """First pair ``(i, j)``, ``i < j`` in lexicographic order, with no
    greatest lower bound in the order ``leq``; ``None`` when every pair has
    one."""
    ref = SimpleNamespace(order=leq, size=leq.src_size)
    for i in range(ref.size):
        for j in range(i + 1, ref.size):
            if inf_oracle(ref, [i, j]) is None:
                return i, j
    return None


def all_functions(src: int, dst: int):
    yield from itertools.product(range(dst), repeat=src)


# -- coproduct mediators ----------------------------------------------------------


def infomorphisms_oracle(A, C, instance_identity: bool = False):
    """Every functional infomorphism from A to C by brute force: each pair of
    an instance and a type function, lexicographically, kept by
    ``check_functional``.  ``instance_identity`` fixes ``f`` as the identity."""
    na, nc = len(A.instances), len(C.instances)
    if instance_identity:
        if A.instances != C.instances:
            return
        f_candidates = [tuple(range(na))]
    else:
        f_candidates = itertools.product(range(na), repeat=nc)
    for f_t in f_candidates:
        f = FunctionGraph(f_t, na)
        for g_t in all_functions(len(A.types), len(C.types)):
            m = FunctionalInfomorphism._of(A, C, f, FunctionGraph(g_t, len(C.types)))
            if check_functional(m):
                yield m


def lattice_morphism_candidates(L, M):
    """For each pair of an instance and a type function, lexicographically,
    the lattice maps they force, ``psi`` by meet-density and ``phi`` by
    join-density, as the tuple ``(phi, psi, f, g)``: unchecked maps, which
    only the checking ``ConceptLatticeMorphism`` constructor makes a
    morphism."""
    for f_t in all_functions(len(M.instance_labels), len(L.instance_labels)):
        f = FunctionGraph(f_t, len(L.instance_labels))
        for g_t in all_functions(len(L.type_labels), len(M.type_labels)):
            g = FunctionGraph(g_t, len(M.type_labels))
            psi_t = tuple(
                M.meet_index(M.tau(g(t)) for t in bits(L.intents[x])) for x in range(L.size)
            )
            phi_t = tuple(
                L.join_index(L.iota(f(b)) for b in bits(M.extents[y])) for y in range(M.size)
            )
            yield FunctionGraph(phi_t, L.size), FunctionGraph(psi_t, M.size), f, g


def lattice_morphisms_oracle(L, M) -> list:
    """Every concept lattice morphism from L to M by brute force: the
    candidates the constructor's ``check_lattice_morphism`` keeps, in
    candidate order."""
    out = []
    for maps in lattice_morphism_candidates(L, M):
        try:
            out.append(ConceptLatticeMorphism(L, M, *maps))
        except ValidationError:
            continue
    return out


def lattice_morphisms_per_pair(L, M) -> list:
    """Every concept lattice morphism from L to M by density, in order: for
    each pair ``(f, g)`` that ``colimit._propagate`` finds on the two
    lattices' classifications, ``psi`` by meet-density and ``phi`` by
    join-density, each morphism built by the checking constructor."""
    out = []
    source, target = L.classification, M.classification
    f_candidates = itertools.product(range(len(source.instances)), repeat=len(target.instances))
    for f, g in colimit._propagate(f_candidates, source.cols, source.rows, target.cols):
        psi_t = tuple(
            M.meet_index(M.tau(g(t)) for t in bits(L.intents[x])) for x in range(L.size)
        )
        phi_t = tuple(
            L.join_index(L.iota(f(b)) for b in bits(M.extents[y])) for y in range(M.size)
        )
        phi, psi = FunctionGraph(phi_t, L.size), FunctionGraph(psi_t, M.size)
        out.append(ConceptLatticeMorphism(L, M, phi, psi, f, g))
    return out



def by_restrictions_oracle(candidates, compose, left, right) -> dict:
    """Candidates grouped by their two composites with the injections, each
    a morphism built and checked by ``compose`` and used as a dict key; each
    list in candidate order."""
    index: dict = {}
    for m in candidates:
        index.setdefault((compose(left, m), compose(right, m)), []).append(m)
    return index


def cocone_mediators(candidates, compose, left, right, leg_a, leg_b) -> list:
    """One cocone's mediators by the per-cocone filter: every candidate whose
    composites with the two injections are the cocone's legs, in order."""
    return [m for m in candidates if compose(left, m) == leg_a and compose(right, m) == leg_b]


# -- dual quotients ----------------------------------------------------------------


def equivalence_classes_oracle(n: int, rel: Relation) -> list[int]:
    """Classes of the reflexive-symmetric-transitive closure of ``rel`` on
    ``range(n)``, as masks in order of least member: a breadth-first search
    from each type not yet in a class."""
    sym = [1 << i for i in range(n)]
    for i in range(n):
        for j in range(n):
            if rel.bit(i, j):
                sym[i] |= 1 << j
                sym[j] |= 1 << i
    classes = []
    seen = 0
    for i in range(n):
        if seen >> i & 1:
            continue
        frontier = 1 << i
        members = 0
        while frontier:
            members |= frontier
            nxt = 0
            for j in range(n):
                if frontier >> j & 1:
                    nxt |= sym[j]
            frontier = nxt & ~members
        classes.append(members)
        seen |= members
    return classes


def dual_invariant_oracle(A, J) -> CheckResult:
    """``check_dual_invariant`` as a loop over the related pairs in order:
    the first pair that a kept instance separates, with the lowest such
    instance."""
    for alpha in range(len(A.types)):
        for beta in range(len(A.types)):
            if not J.type_relation.bit(alpha, beta):
                continue
            for a in range(len(A.instances)):
                if J.kept_instances >> a & 1 and A.incidence.bit(a, alpha) != A.incidence.bit(
                    a, beta
                ):
                    return CheckResult(
                        False,
                        witness=(A.instances[a], A.types[alpha], A.types[beta]),
                        reason="a kept instance separates related types",
                    )
    return CheckResult(True)


def dual_quotient_oracle(A, J) -> tuple:
    """The dual quotient of ``A`` by ``J``, from the classes: the kept
    instance labels, the class labels, each kept row read at every class's
    least member, and the projection's instance and type targets."""
    n = len(A.types)
    classes = equivalence_classes_oracle(n, J.type_relation)
    members = [[t for t in range(n) if c >> t & 1] for c in classes]
    kept = [a for a in range(len(A.instances)) if J.kept_instances >> a & 1]
    rows = []
    for a in kept:
        row = 0
        for k, ts in enumerate(members):
            if A.incidence.bit(a, ts[0]):
                row |= 1 << k
        rows.append(row)
    class_of = {t: k for k, ts in enumerate(members) for t in ts}
    return (
        tuple(A.instances[a] for a in kept),
        tuple("[" + ",".join(A.types[t] for t in ts) + "]" for ts in members),
        tuple(rows),
        tuple(kept),
        tuple(class_of[t] for t in range(n)),
    )


# -- bonding-pair round trip ------------------------------------------------------


def pair_roundtrip_by_composition(p) -> bool:
    """The pair round trip as validated objects: the embedding pairs built as
    ``BondingPair``s, conjugated by ``compose_bonding_pairs``, which
    validates each composite bond and pair, and compared with the rebuilt
    pair as dataclasses."""
    from conceptual.bond import BondingPair, compose_bonding_pairs
    from conceptual.functors import embedding_bonds, hom_of_pair, pair_of_hom

    inst_src, type_src = embedding_bonds(p.source)
    inst_tgt, type_tgt = embedding_bonds(p.target)
    from_src = BondingPair(inst_src, type_src)
    to_tgt = BondingPair(type_tgt, inst_tgt)
    conjugated = compose_bonding_pairs(compose_bonding_pairs(from_src, p), to_tgt)
    return conjugated == pair_of_hom(hom_of_pair(p))


# -- the hom of a bonding pair ------------------------------------------------------


def hom_by_adjoint_pairs_oracle(p) -> CompleteHomomorphism:
    """``BondingPair.hom`` as both bonds' adjoint pairs: each built and
    checked as a ``ConceptLatticeMorphism`` by ``adjoint_of_bond``, the
    forward right adjoint compared with the backward left adjoint, then the
    hom checked.  The library decides both adjointness tests from the hom's
    canonical adjoints, and runs this sequence only to raise a failure."""
    fwd = adjoint_of_bond(p.forward)
    bwd = adjoint_of_bond(p.backward)
    diff = relalg.first_difference(fwd.psi.targets, bwd.phi.targets)
    if diff is not None:
        raise ValidationError(
            "forward right adjoint and backward left adjoint disagree", witness=(diff[0],)
        )
    return CompleteHomomorphism(fwd.source, fwd.target, fwd.psi)


# -- embedding bonds ----------------------------------------------------------------


def embedding_bonds_oracle(A) -> tuple:
    """The embedding bonds of ``A`` as two ``Bond``s, each checked by
    ``is_bond``, then both composites, each the relation ``compose_bonds``
    would give, compared with an identity incidence.  The lattice is read
    through ``functors.concept_lattice_of``, so a test that replaces it
    reaches this oracle too."""
    from conceptual import functors
    from conceptual.bond import Bond
    from conceptual.relalg import left_residual

    LA = functors.concept_lattice_of(A)
    order_cls = functors.complete_lattice_of(LA).classification
    instance_bond = Bond(order_cls, A, LA.iota_rel)
    type_bond = Bond(A, order_cls, LA.tau_rel)
    if left_residual(type_bond.r, instance_bond.rel) != order_cls.incidence:
        raise ValidationError("instance;type composite is not the lattice identity bond")
    if left_residual(instance_bond.r, type_bond.rel) != A.incidence:
        raise ValidationError("type;instance composite is not the identity bond")
    return instance_bond, type_bond


# -- collective concepts ------------------------------------------------------------


def collective_closed_oracle(K, a: Relation, alpha: Relation) -> bool:
    """The pair test the bond form replaced: ``a == I/alpha`` and
    ``alpha == a\\I``."""
    I = K.incidence
    return a == right_residual_oracle(I, alpha) and alpha == left_residual_oracle(a, I)


def collective_from_function_oracle(L, f: FunctionGraph) -> tuple[Relation, Relation]:
    """``(a, alpha)`` of the concepts ``f`` picks, as the pair form built it:
    ``iota;f^T`` and ``f;tau``."""
    a = compose_oracle(L.iota_rel, transpose_oracle(f.rel))
    return a, compose_oracle(f.rel, L.tau_rel)


def collective_transport_oracle(K, r: Relation, a: Relation, alpha: Relation, side: str):
    """``(a, alpha)`` transported along ``r`` as the pair form did it: on the
    left ``(I/((a;r)\\I), r\\alpha)``, on the right ``(a/r, (I/(r;alpha))\\I)``."""
    I = K.incidence
    if side == "left":
        closed = left_residual_oracle(compose_oracle(a, r), I)
        return right_residual_oracle(I, closed), left_residual_oracle(r, alpha)
    closed = right_residual_oracle(I, compose_oracle(r, alpha))
    return right_residual_oracle(a, r), left_residual_oracle(closed, I)


def collective_image_oracle(p, a: Relation, alpha: Relation) -> tuple[Relation, Relation]:
    """The image of ``(a, alpha)`` along the bonding pair ``p`` as the pair
    form built it: ``(F/alpha, a\\G)`` for ``p``'s forward bond ``F`` and
    backward bond ``G``."""
    return right_residual_oracle(p.forward.rel, alpha), left_residual_oracle(a, p.backward.rel)


# -- verification report ------------------------------------------------------------


def report_obj_oracle(report) -> dict:
    """The object ``VerificationReport.to_json`` writes, built record by
    record, so that ``json.dumps(..., indent=2, ensure_ascii=False)`` of it
    is the reference for that emitter."""
    return {
        "checks": [
            {"check": r.check, "item": r.item, "verdict": r.verdict, "witness": r.witness}
            for r in report.records
        ],
        "summary": {
            "total": len(report.records),
            "failed": len(report.failures),
            "families": report.counts(),
        },
    }


def composites_oracle(rng, items: list, k: int, sep: str) -> list:
    """``verify._composites`` by the scan it replaced, which compares every
    pair of items with ``==``."""
    composable = [(a, b) for a in items for b in items if a[1].target == b[1].source]
    if len(composable) > k:
        composable = rng.sample(composable, k)
    return [(f"{aid}{sep}{bid}", (a, b)) for (aid, a), (bid, b) in composable]


# -- readers and writers ------------------------------------------------------------


def from_matrix_oracle(matrix, dst_size: int | None = None) -> Relation:
    """``Relation.from_matrix`` as it read every cell through a dict, with
    the same errors: a cell is a digit exactly when it equals 0 or 1, the
    rows are built through the checked constructor, and only a matrix that
    fails is walked row by row to name its first row of another length or
    its first bad cell."""
    if dst_size is None:
        dst_size = len(matrix[0]) if matrix else 0
    digit = {0: 0, 1: 1}
    try:
        if set(map(len, matrix)) <= {dst_size}:
            rows = tuple(sum(digit[cell] << b for b, cell in enumerate(row)) for row in matrix)
            return Relation(len(matrix), dst_size, rows)
    except (KeyError, TypeError):
        pass
    for a, cells in enumerate(matrix):
        if len(cells) != dst_size:
            raise ValidationError(f"row {a} must have {dst_size} cells, got {len(cells)}")
        for cell in cells:
            if cell not in (0, 1):
                raise ValidationError(f"matrix cell must be 0/1, got {quote(cell)}")
    raise ValidationError("matrix cells must be 0/1")


def emit_cxt_oracle(K, name: str = "") -> str:
    """The Burmeister text of ``K`` by the per-cell writer ``io.emit_cxt``
    replaced, which tests every cell of every row; labels are not checked."""
    out = ["B", name, str(len(K.instances)), str(len(K.types)), ""]
    out.extend(K.instances)
    out.extend(K.types)
    for row in K.rows:
        out.append("".join("X" if row >> b & 1 else "." for b in range(len(K.types))))
    return "\n".join(out) + "\n"
