"""Sums, products, appositions, subpositions, fiber objects, dual quotients,
and the check that the lattice functor transports coproducts.

The sum puts instances in a cartesian product and types side by side; its
universal property, not the formula, is the contract, and the checkers here
enumerate every mediator.  They do it by propagation: once the instance
function ``f`` is fixed, each type ``t`` can go only to a type of the target
whose column is column ``t`` of the source pulled back along ``f``, so the
type functions for ``f`` are a product of lookups, not a search.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from . import functors
from .classification import Classification, powerset_classification
from .classification import dual as dual_classification
from .errors import CheckResult, ShapeError, ValidationError, require_shape
from .infomorphism import FunctionalInfomorphism, dual_functional
from .relalg import (
    FunctionGraph,
    Relation,
    bits,
    compose,
    first_difference,
    identity,
    pullback,
    transpose,
    union,
)
from .report import VerificationReport


def _pair_label(a: str, b: str) -> str:
    return json.dumps([a, b], separators=(",", ":"))


def _tag(side: int, label: str) -> str:
    return f"{side}:{label}"


@dataclass(frozen=True)
class CoproductDiagram:
    left: Classification
    right: Classification
    apex: Classification
    left_injection: FunctionalInfomorphism
    right_injection: FunctionalInfomorphism
    kind: str


@dataclass(frozen=True)
class ProductDiagram:
    left: Classification
    right: Classification
    apex: Classification
    left_projection: FunctionalInfomorphism
    right_projection: FunctionalInfomorphism
    kind: str


@dataclass(frozen=True)
class DualInvariant:
    """Kept instances plus a type relation they cannot tell apart."""

    kept_instances: int
    type_relation: Relation


def _side_by_side(A: Classification, B: Classification):
    """The types of A then of B, tagged by side, and the two type injections
    into them: ``range(ta)`` and ``range(ta, ta + tb)``."""
    ta, tb = len(A.types), len(B.types)
    types = tuple(_tag(0, t) for t in A.types) + tuple(_tag(1, t) for t in B.types)
    return (
        types,
        FunctionGraph(tuple(range(ta)), ta + tb),
        FunctionGraph(tuple(range(ta, ta + tb)), ta + tb),
    )


def coproduct_sum(A: Classification, B: Classification) -> CoproductDiagram:
    """Coproduct in the full category: instance pairs, disjoint types."""
    na, nb = len(A.instances), len(B.instances)
    ta = len(A.types)
    types, g_left, g_right = _side_by_side(A, B)
    instances = tuple(_pair_label(x, y) for x in A.instances for y in B.instances)
    rows = tuple(ra | rb << ta for ra in A.rows for rb in B.rows)
    apex = Classification(instances, types, Relation(na * nb, len(types), rows))
    left = FunctionalInfomorphism(
        A, apex, FunctionGraph(tuple(k // nb for k in range(na * nb)), na), g_left
    )
    right = FunctionalInfomorphism(
        B, apex, FunctionGraph(tuple(k % nb for k in range(na * nb)), nb), g_right
    )
    return CoproductDiagram(A, B, apex, left, right, "sum")


def coproduct_mediator(
    d: CoproductDiagram, mA: FunctionalInfomorphism, mB: FunctionalInfomorphism
) -> FunctionalInfomorphism:
    """The unique morphism out of the apex agreeing with a cocone."""
    if mA.source != d.left or mB.source != d.right or mA.target != mB.target:
        raise ShapeError("cocone endpoints do not match the diagram")
    return FunctionalInfomorphism(d.apex, mA.target, *_mediator_maps(d, mA, mB))


def _mediator_maps(
    d: CoproductDiagram, mA: FunctionalInfomorphism, mB: FunctionalInfomorphism
) -> tuple[FunctionGraph, FunctionGraph]:
    """The maps ``(f, g)`` of the mediator of the cocone ``(mA, mB)``: on a
    sum, ``f`` pairs the two legs' instances; on an apposition it is their
    shared instance map.  ``g`` puts the legs' type maps side by side."""
    if d.kind == "sum":
        nb = len(d.right.instances)
        f = FunctionGraph(
            tuple(a * nb + b for a, b in zip(mA.f.targets, mB.f.targets)),
            len(d.apex.instances),
        )
    elif d.kind == "apposition":
        if mA.f != mB.f:
            raise ValidationError("fiber cocone legs disagree on instances")
        f = mA.f
    else:
        raise ValidationError(f"unknown coproduct kind {d.kind!r}")
    return f, FunctionGraph(mA.g.targets + mB.g.targets, len(mA.target.types))


def _dual_diagram(d: CoproductDiagram, kind: str) -> ProductDiagram:
    """The dual of a coproduct of duals: the summands, the apex and both
    legs dualized, the injections becoming the projections."""
    return ProductDiagram(
        dual_classification(d.left),
        dual_classification(d.right),
        dual_classification(d.apex),
        dual_functional(d.left_injection),
        dual_functional(d.right_injection),
        kind,
    )


def product(A: Classification, B: Classification) -> ProductDiagram:
    """The dual construction: dualize, sum, dualize back."""
    return _dual_diagram(
        coproduct_sum(dual_classification(A), dual_classification(B)), "product"
    )


def apposition(A0: Classification, A1: Classification) -> CoproductDiagram:
    """Coproduct in the instance fiber: shared instances, types side by side."""
    if A0.instances != A1.instances:
        raise ShapeError("apposition requires identical ordered instance sets")
    types, g_left, g_right = _side_by_side(A0, A1)
    t0 = len(A0.types)
    rows = tuple(r0 | r1 << t0 for r0, r1 in zip(A0.rows, A1.rows))
    apex = Classification(A0.instances, types, Relation(len(rows), len(types), rows))
    ident = FunctionGraph.identity(len(A0.instances))
    left = FunctionalInfomorphism(A0, apex, ident, g_left)
    right = FunctionalInfomorphism(A1, apex, ident, g_right)
    return CoproductDiagram(A0, A1, apex, left, right, "apposition")


def subposition(A0: Classification, A1: Classification) -> ProductDiagram:
    """Product in the type fiber: shared types, instances stacked.  The dual
    construction of apposition: dualize, appose, dualize back."""
    if A0.types != A1.types:
        raise ShapeError("subposition requires identical ordered type sets")
    return _dual_diagram(
        apposition(dual_classification(A0), dual_classification(A1)), "subposition"
    )


def fiber_initial(labels: tuple[str, ...]) -> Classification:
    """No types at all: the initial object over a fixed instance set."""
    return Classification(tuple(labels), (), Relation(len(labels), 0, (0,) * len(labels)))


def fiber_terminal(labels: tuple[str, ...]) -> Classification:
    return powerset_classification(labels)


# -- dual quotients ------------------------------------------------------------


def check_dual_invariant(A: Classification, J: DualInvariant) -> CheckResult:
    """Related types must agree on every kept instance.

    The types fall into groups by their columns restricted to the kept
    instances, and row ``alpha`` of ``J`` fails where it leaves the group of
    ``alpha``.  The witness is the first failing row, its lowest type outside
    the group and the lowest kept instance telling the two apart: the first
    separating pair in ``(alpha, beta)`` order."""
    require_shape("type relation", J.type_relation.shape, (len(A.types), len(A.types)))
    if J.kept_instances < 0 or J.kept_instances & ~A.full_instances:
        raise ShapeError("kept instance set out of range")
    kept = tuple(col & J.kept_instances for col in A.cols)
    group: dict[int, int] = {}
    for t, col in enumerate(kept):
        group[col] = group.get(col, 0) | 1 << t
    rows = J.type_relation.rows
    diff = first_difference(rows, (row & group[col] for row, col in zip(rows, kept)))
    if diff is None:
        return CheckResult(True)
    alpha, beta = diff
    a = next(bits(kept[alpha] ^ kept[beta]))
    return CheckResult(
        False,
        witness=(A.instances[a], A.types[alpha], A.types[beta]),
        reason="a kept instance separates related types",
    )


def dual_quotient(
    A: Classification, J: DualInvariant
) -> tuple[Classification, FunctionalInfomorphism]:
    """Restrict to the kept instances and merge related types.

    The type equivalence ``E`` is the least relation above ``J``, its
    transpose and the identity with ``E = compose(E, E)``, reached by
    squaring.  Its distinct rows are the classes, in order of their least
    members, and the class map ``g`` reads them off; the quotient incidence
    is ``compose`` of the kept rows of ``A`` with ``g``.  Returns the
    quotient classification and the projection infomorphism from ``A`` onto
    it.
    """
    check_dual_invariant(A, J).require("incompatible dual invariant")
    n = len(A.types)
    E = union(union(J.type_relation, transpose(J.type_relation)), identity(n))
    while (square := compose(E, E)) != E:
        E = square
    class_of = {row: k for k, row in enumerate(dict.fromkeys(E.rows))}
    g = FunctionGraph(tuple(map(class_of.__getitem__, E.rows)), len(class_of))
    kept = tuple(bits(J.kept_instances))
    quotient = Classification(
        tuple(A.instances[a] for a in kept),
        tuple("[" + ",".join(A.types[t] for t in bits(row)) + "]" for row in class_of),
        compose(Relation(len(kept), n, tuple(A.rows[a] for a in kept)), g.rel),
    )
    projection = FunctionalInfomorphism(
        A, quotient, FunctionGraph(kept, len(A.instances)), g
    )
    return quotient, projection


# -- universal properties -------------------------------------------------------


def _propagate(f_candidates, source_cols, source_rows, target_cols):
    """Each ``(f, g)`` with ``f`` from ``f_candidates``, target tuples into
    the source instances, and ``g`` sending each source column, pulled back
    along ``f``, to an equal target column: ``pullback(source_cols,
    source_rows, f)[t] == target_cols[g(t)]``.  ``source_rows`` are
    the source's instance rows, the columns of ``source_cols``.
    Lexicographic in ``f``, then in ``g``: for each ``f`` the ``g`` are the
    product of the ascending types of each pulled-back column.  Both maps
    are in range by construction and stored unchecked."""
    types_of: dict[int, list[int]] = {}
    for u, col in enumerate(target_cols):
        types_of.setdefault(col, []).append(u)
    n, f_size = len(target_cols), len(source_rows)
    for f_t in f_candidates:
        f = FunctionGraph._of(f_t, f_size)
        choices = [types_of.get(col, ()) for col in pullback(source_cols, source_rows, f)]
        for g_t in itertools.product(*choices):
            yield f, FunctionGraph._of(g_t, n)


def enumerate_infomorphisms(A: Classification, C: Classification, instance_identity: bool = False):
    """All valid functional infomorphisms from A to C, in lexicographic order
    of their instance, then type, target tuples.

    The fundamental property says ``f(c)`` carries ``t`` iff ``c`` carries
    ``g(t)``: column ``g(t)`` of C is column ``t`` of A pulled back along
    ``f``, so the pairs are ``_propagate`` over every instance function.
    ``instance_identity`` restricts the search to the instance fiber.
    """
    na, nc = len(A.instances), len(C.instances)
    if instance_identity:
        if A.instances != C.instances:
            return
        f_candidates = [tuple(range(na))]
    else:
        # no instance functions exist into an empty source unless C is empty too
        f_candidates = itertools.product(range(na), repeat=nc)
    for f, g in _propagate(f_candidates, A.cols, A.rows, C.cols):
        yield FunctionalInfomorphism._of(A, C, f, g)


def _infomorphism_maps(m: FunctionalInfomorphism):
    """An infomorphism's maps: those that run backward, then forward."""
    return (m.f,), (m.g,)


def _lattice_maps(m: functors.ConceptLatticeMorphism):
    return (m.phi, m.f), (m.psi, m.g)


def _key(maps, m) -> tuple:
    """The target tuples of a morphism's maps, backward then forward: two
    morphisms with the same endpoints are equal iff their keys are."""
    back, forward = maps(m)
    return tuple(x.targets for x in back + forward)


def _composite_key(first, second) -> tuple:
    """The key of the composite ``first;second`` from the maps of both,
    backward then forward: it runs each backward map of ``second`` then that
    of ``first``, and each forward map of ``first`` then that of ``second``,
    as ``compose_functional`` and ``compose_lattice_morphisms`` do.  Read
    with ``then_targets``; no composite is built or checked."""
    (back1, forward1), (back2, forward2) = first, second
    then = FunctionGraph.then_targets
    return (*map(then, back2, back1), *map(then, forward1, forward2))


def _by_restrictions(candidates, maps, left, right) -> dict:
    """Candidates grouped by the keys of their two composites with the
    injections, each list in candidate order: a cocone's mediators are the
    entry at the keys of its two legs.

    Every composite with ``left`` (``right``) has the endpoints of a left
    (right) leg, so equal keys mean equal morphisms."""
    injections = (maps(left), maps(right))
    index: dict = {}
    for m in candidates:
        m_maps = maps(m)
        key = tuple(_composite_key(inj, m_maps) for inj in injections)
        index.setdefault(key, []).append(m)
    return index


def transport_families(kind: str) -> tuple[str, str]:
    """The families ``transport_coproduct`` records for a coproduct of this
    kind: the universal property, then its image under the lattice functor."""
    return f"{kind}-universal", f"{kind}-transport"


def check_coproduct_property(
    d: CoproductDiagram, targets: list[Classification], report: VerificationReport
) -> list[list[tuple]]:
    """Enumerate cocones over the given targets and confirm a unique mediator,
    equal to the formula-built one, for each.

    The formula's maps, ``_mediator_maps``, are compared with the found
    mediator's as target tuples: the two share their endpoints, so equal
    keys mean equal morphisms, and the found one is checked already.  Only
    a cocone that fails builds the checked ``coproduct_mediator``, which
    raises where the formula is no infomorphism.

    Returns the cocones of each target, in report order: the item, the two
    legs and the mediator ``coproduct_mediator`` builds from them."""
    fiber = d.kind == "apposition"
    cocones = []
    for t_i, C in enumerate(targets):
        all_mediators, legs_a, legs_b = (
            list(enumerate_infomorphisms(X, C, instance_identity=fiber))
            for X in (d.apex, d.left, d.right)
        )
        cocones.append([])
        if not legs_a or not legs_b:
            report.add(transport_families(d.kind)[0], f"target-{t_i}", True)
            continue
        mediators = _by_restrictions(
            all_mediators, _infomorphism_maps, d.left_injection, d.right_injection
        )
        keys_b = [_key(_infomorphism_maps, mB) for mB in legs_b]
        for ca, mA in enumerate(legs_a):
            key_a = _key(_infomorphism_maps, mA)
            for cb, mB in enumerate(legs_b):
                item = f"target-{t_i}-cocone-{ca}-{cb}"
                found = mediators.get((key_a, keys_b[cb]), [])
                f, g = _mediator_maps(d, mA, mB)
                formula = (f.targets, g.targets)
                ok = len(found) == 1 and _key(_infomorphism_maps, found[0]) == formula
                built = found[0] if ok else coproduct_mediator(d, mA, mB)
                report.add(
                    transport_families(d.kind)[0],
                    item,
                    ok,
                    witness=f"{len(found)} mediators found",
                )
                cocones[-1].append((item, mA, mB, built))
    return cocones


def transport_coproduct(d: CoproductDiagram, targets: list[Classification]) -> VerificationReport:
    """Check a coproduct before and after the lattice functor.

    The transported mediator is rebuilt by the equivalence recipe: take the
    classification mediator of the pulled-back cocone, apply the lattice
    functor, and compose with the rebuild isomorphism of the target lattice.
    The cocones and their mediators are those ``check_coproduct_property``
    enumerated; each leg's lattice image is computed once per target.

    The recipe's key, from ``functors._image_then_key``, is compared with
    the found lattice mediator's, whose endpoints it shares, so equal keys
    mean equal morphisms.  The two middle lattices are compared once per
    target, and only a cocone that fails builds the checked composite,
    which raises where the recipe gives no lattice morphism.
    """
    report = VerificationReport()
    cocones = check_coproduct_property(d, targets, report)

    L_apex = functors.concept_lattice_of(d.apex)
    L_left_inj = functors.lattice_of_morphism(d.left_injection)
    L_right_inj = functors.lattice_of_morphism(d.right_injection)
    for C, target_cocones in zip(targets, cocones):
        M = functors.concept_lattice_of(C)
        iso = functors.lattice_equivalence_witness(M)
        # the middle lattices are compared only where a cocone composes
        recipe_key = functors._image_then_key(L_apex, M, iso) if target_cocones else None
        image_key = functools.cache(
            lambda m: _key(_lattice_maps, functors.lattice_of_morphism(m))
        )
        mediators = _by_restrictions(
            _enumerate_lattice_morphisms(L_apex, M), _lattice_maps, L_left_inj, L_right_inj
        )
        for item, mA, mB, mediator in target_cocones:
            found = mediators.get((image_key(mA), image_key(mB)), [])
            formula = recipe_key(mediator)
            ok = len(found) == 1 and _key(_lattice_maps, found[0]) == formula
            if not ok:
                # the checked composite, which raises where it is no morphism
                functors.compose_lattice_morphisms(functors.lattice_of_morphism(mediator), iso)
            report.add(
                transport_families(d.kind)[1],
                item,
                ok,
                witness=f"{len(found)} lattice mediators found",
            )
    return report


def _enumerate_lattice_morphisms(L, M) -> list:
    """All concept lattice morphisms between two concept lattices, in
    lexicographic order of their instance, then type, functions.

    Adjointness with ``phi.iota_M = iota_L.f`` and ``psi.tau_L = tau_M.g``
    gives ``iota_L(f(c)) <= tau_L(t)`` iff ``iota_M(c) <= tau_M(g(t))``, and
    ``iota(a) <= tau(t)`` iff ``a`` has ``t`` in the lattice's
    classification, so the pairs ``(f, g)`` of a morphism are among those
    ``_propagate`` finds on the two classifications: the infomorphisms.  The
    lattice maps are forced, ``psi`` by meet-density and ``phi`` by
    join-density, and the checking constructor rejects none of them.  The
    maps are indices of the two lattices, stored unchecked; each morphism
    is checked."""
    out = []
    source, target = L.classification, M.classification
    f_candidates = itertools.product(range(len(source.instances)), repeat=len(target.instances))
    for f, g in _propagate(f_candidates, source.cols, source.rows, target.cols):
        psi_t = tuple(
            M.meet_index(M.tau(g(t)) for t in bits(L.intents[x])) for x in range(L.size)
        )
        phi_t = tuple(
            L.join_index(L.iota(f(b)) for b in bits(M.extents[y])) for y in range(M.size)
        )
        phi = FunctionGraph._of(phi_t, L.size)
        psi = FunctionGraph._of(psi_t, M.size)
        out.append(functors.ConceptLatticeMorphism(L, M, phi, psi, f, g))
    return out
