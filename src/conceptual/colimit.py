"""Sums, products, appositions, subpositions, fiber objects, dual quotients,
and the check that the lattice functor transports coproducts.

The sum puts instances in a cartesian product and types side by side; its
universal property, not the formula, is the contract, and the checkers here
enumerate candidate mediators outright at desk scale.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass

from . import functors
from .classification import Classification, powerset_classification
from .classification import dual as dual_classification
from .errors import CheckResult, ShapeError, ValidationError
from .infomorphism import (
    FunctionalInfomorphism,
    check_functional,
    compose_functional,
    dual_functional,
)
from .relalg import FunctionGraph, Relation, bits
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


def coproduct_sum(A: Classification, B: Classification) -> CoproductDiagram:
    """Coproduct in the full category: instance pairs, disjoint types."""
    na, nb = len(A.instances), len(B.instances)
    ta, tb = len(A.types), len(B.types)
    instances = tuple(
        _pair_label(x, y) for x in A.instances for y in B.instances
    )
    types = tuple(_tag(0, t) for t in A.types) + tuple(_tag(1, t) for t in B.types)
    rows = []
    for i in range(na):
        for j in range(nb):
            rows.append(A.rows[i] | B.rows[j] << ta)
    apex = Classification(instances, types, Relation(na * nb, ta + tb, tuple(rows)))
    left = FunctionalInfomorphism(
        A,
        apex,
        FunctionGraph.from_targets(tuple(k // nb for k in range(na * nb)), na),
        FunctionGraph.from_targets(tuple(range(ta)), ta + tb),
    )
    right = FunctionalInfomorphism(
        B,
        apex,
        FunctionGraph.from_targets(tuple(k % nb for k in range(na * nb)), nb),
        FunctionGraph.from_targets(tuple(ta + t for t in range(tb)), ta + tb),
    )
    return CoproductDiagram(A, B, apex, left, right, "sum")


def coproduct_mediator(
    d: CoproductDiagram, mA: FunctionalInfomorphism, mB: FunctionalInfomorphism
) -> FunctionalInfomorphism:
    """The unique morphism out of the apex agreeing with a cocone."""
    if mA.source != d.left or mB.source != d.right or mA.target != mB.target:
        raise ShapeError("cocone endpoints do not match the diagram")
    C = mA.target
    if d.kind == "sum":
        nb = len(d.right.instances)
        f = FunctionGraph.from_targets(
            tuple(mA.f(c) * nb + mB.f(c) for c in range(len(C.instances))),
            len(d.apex.instances),
        )
    elif d.kind == "apposition":
        if mA.f != mB.f:
            raise ValidationError("fiber cocone legs disagree on instances")
        f = mA.f
    else:
        raise ValidationError(f"unknown coproduct kind {d.kind!r}")
    g = FunctionGraph(mA.g.targets + mB.g.targets, len(C.types))
    return FunctionalInfomorphism(d.apex, C, f, g)


def product(A: Classification, B: Classification) -> ProductDiagram:
    """The dual construction: dualize, sum, dualize back."""
    s = coproduct_sum(dual_classification(A), dual_classification(B))
    return ProductDiagram(
        A,
        B,
        dual_classification(s.apex),
        dual_functional(s.left_injection),
        dual_functional(s.right_injection),
        "product",
    )


def apposition(A0: Classification, A1: Classification) -> CoproductDiagram:
    """Coproduct in the instance fiber: shared instances, types side by side."""
    if A0.instances != A1.instances:
        raise ShapeError("apposition requires identical ordered instance sets")
    t0 = len(A0.types)
    types = tuple(_tag(0, t) for t in A0.types) + tuple(_tag(1, t) for t in A1.types)
    rows = tuple(r0 | r1 << t0 for r0, r1 in zip(A0.rows, A1.rows))
    apex = Classification(
        A0.instances, types, Relation(len(A0.instances), len(types), rows)
    )
    ident = FunctionGraph.identity(len(A0.instances))
    left = FunctionalInfomorphism(
        A0, apex, ident, FunctionGraph.from_targets(tuple(range(t0)), len(types))
    )
    right = FunctionalInfomorphism(
        A1,
        apex,
        ident,
        FunctionGraph.from_targets(tuple(t0 + t for t in range(len(A1.types))), len(types)),
    )
    return CoproductDiagram(A0, A1, apex, left, right, "apposition")


def subposition(A0: Classification, A1: Classification) -> ProductDiagram:
    """Product in the type fiber: shared types, instances stacked.  The dual
    construction of apposition: dualize, appose, dualize back."""
    if A0.types != A1.types:
        raise ShapeError("subposition requires identical ordered type sets")
    a = apposition(dual_classification(A0), dual_classification(A1))
    return ProductDiagram(
        A0,
        A1,
        dual_classification(a.apex),
        dual_functional(a.left_injection),
        dual_functional(a.right_injection),
        "subposition",
    )


def fiber_initial(labels: tuple[str, ...]) -> Classification:
    """No types at all: the initial object over a fixed instance set."""
    return Classification(tuple(labels), (), Relation(len(labels), 0, (0,) * len(labels)))


def fiber_terminal(labels: tuple[str, ...]) -> Classification:
    return powerset_classification(labels)


# -- dual quotients ------------------------------------------------------------


def check_dual_invariant(A: Classification, J: DualInvariant) -> CheckResult:
    """Related types must agree on every kept instance."""
    if J.type_relation.shape != (len(A.types), len(A.types)):
        raise ShapeError(
            f"type relation shape {J.type_relation.shape} for {len(A.types)} types"
        )
    if J.kept_instances < 0 or J.kept_instances & ~A.full_instances:
        raise ShapeError("kept instance set out of range")
    for alpha in range(len(A.types)):
        for beta in bits(J.type_relation.rows[alpha]):
            diff = (A.cols[alpha] ^ A.cols[beta]) & J.kept_instances
            if diff:
                a = next(bits(diff))
                return CheckResult(
                    False,
                    witness=(A.instances[a], A.types[alpha], A.types[beta]),
                    reason="a kept instance separates related types",
                )
    return CheckResult(True)


def _equivalence_classes(n: int, rel: Relation) -> list[int]:
    """Classes of the reflexive-symmetric-transitive closure, by least member."""
    sym = [rel.rows[i] | 1 << i for i in range(n)]
    for i in range(n):
        for j in bits(sym[i]):
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
            for j in bits(frontier):
                nxt |= sym[j]
            frontier = nxt & ~members
        classes.append(members)
        seen |= members
    return classes


def dual_quotient(
    A: Classification, J: DualInvariant
) -> tuple[Classification, FunctionalInfomorphism]:
    """Restrict to the kept instances and merge related types.

    Returns the quotient classification and the projection infomorphism from
    ``A`` onto it.
    """
    check_dual_invariant(A, J).require("incompatible dual invariant")
    classes = _equivalence_classes(len(A.types), J.type_relation)
    kept = list(bits(J.kept_instances))
    instances = tuple(A.instances[a] for a in kept)
    type_labels = tuple(
        "[" + ",".join(A.types[t] for t in bits(members)) + "]" for members in classes
    )
    rows = []
    for a in kept:
        row = 0
        for k, members in enumerate(classes):
            rep = next(bits(members))
            if A.rows[a] >> rep & 1:
                row |= 1 << k
        rows.append(row)
    quotient = Classification(
        instances, type_labels, Relation(len(kept), len(classes), tuple(rows))
    )
    class_of = {}
    for k, members in enumerate(classes):
        for t in bits(members):
            class_of[t] = k
    projection = FunctionalInfomorphism(
        A,
        quotient,
        FunctionGraph.from_targets(tuple(kept), len(A.instances)),
        FunctionGraph.from_targets(
            tuple(class_of[t] for t in range(len(A.types))), len(classes)
        ),
    )
    return quotient, projection


# -- universal properties -------------------------------------------------------


def enumerate_infomorphisms(A: Classification, C: Classification, instance_identity: bool = False):
    """All valid functional infomorphisms from A to C, by brute force.

    ``instance_identity`` restricts the search to the instance fiber.
    """
    na, nc = len(A.instances), len(C.instances)
    ta, tc = len(A.types), len(C.types)
    if instance_identity:
        if A.instances != C.instances:
            return
        f_candidates = [tuple(range(na))]
    else:
        # no instance functions exist into an empty source unless C is empty too
        f_candidates = itertools.product(range(na), repeat=nc)
    for f_t in f_candidates:
        f = FunctionGraph.from_targets(f_t, na)
        for g_t in itertools.product(range(tc), repeat=ta):
            m = FunctionalInfomorphism(
                A, C, f, FunctionGraph.from_targets(g_t, tc), validate=False
            )
            if check_functional(m):
                yield m


def _by_restrictions(candidates, compose, left, right) -> dict:
    """Candidates grouped by their two composites with the injections, each
    list in candidate order: a cocone's mediators are its entry."""
    index: dict = {}
    for m in candidates:
        index.setdefault((compose(left, m), compose(right, m)), []).append(m)
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
            all_mediators, compose_functional, d.left_injection, d.right_injection
        )
        for ca, mA in enumerate(legs_a):
            for cb, mB in enumerate(legs_b):
                item = f"target-{t_i}-cocone-{ca}-{cb}"
                found = mediators.get((mA, mB), [])
                built = coproduct_mediator(d, mA, mB)
                ok = len(found) == 1 and found[0] == built
                report.add(
                    transport_families(d.kind)[0],
                    item,
                    ok,
                    witness=f"{len(found)} mediators found",
                )
                cocones[-1].append((item, mA, mB, built))
    return cocones


def transport_coproduct(
    d: CoproductDiagram, targets: list[Classification] | None = None
) -> VerificationReport:
    """Check a coproduct before and after the lattice functor.

    The transported mediator is rebuilt by the equivalence recipe: take the
    classification mediator of the pulled-back cocone, apply the lattice
    functor, and compose with the rebuild isomorphism of the target lattice.
    The cocones and their mediators are those ``check_coproduct_property``
    enumerated; each leg's lattice image is computed once per target.
    """
    report = VerificationReport()
    if targets is None:
        targets = [d.left, d.right]
    cocones = check_coproduct_property(d, targets, report)

    L_apex = functors.concept_lattice_of(d.apex)
    L_left_inj = functors.lattice_of_morphism(d.left_injection)
    L_right_inj = functors.lattice_of_morphism(d.right_injection)
    for C, target_cocones in zip(targets, cocones):
        M = functors.concept_lattice_of(C)
        iso = functors.witness_as_lattice_morphism(functors.lattice_equivalence_witness(M))
        image = functools.cache(functors.lattice_of_morphism)
        mediators = _by_restrictions(
            _enumerate_lattice_morphisms(L_apex, M),
            functors.compose_lattice_morphisms,
            L_left_inj,
            L_right_inj,
        )
        for item, mA, mB, mediator in target_cocones:
            found = mediators.get((image(mA), image(mB)), [])
            formula = functors.compose_lattice_morphisms(
                functors.lattice_of_morphism(mediator), iso
            )
            ok = len(found) == 1 and found[0] == formula
            report.add(
                transport_families(d.kind)[1],
                item,
                ok,
                witness=f"{len(found)} lattice mediators found",
            )
    return report


def _enumerate_lattice_morphisms(L, M) -> list:
    """All concept lattice morphisms between two built lattices, enumerated
    over the instance/type functions (the lattice maps are forced by
    density) and kept by ``check_lattice_morphism``, in candidate order."""
    out = []
    n_inst_m = len(M.instance_labels)
    n_inst_l = len(L.instance_labels)
    n_typ_l = len(L.type_labels)
    n_typ_m = len(M.type_labels)
    for f_t in itertools.product(range(n_inst_l), repeat=n_inst_m):
        f = FunctionGraph.from_targets(f_t, n_inst_l)
        for g_t in itertools.product(range(n_typ_m), repeat=n_typ_l):
            g = FunctionGraph.from_targets(g_t, n_typ_m)
            # the lattice legs are forced: psi by meet-density, phi by join-density
            psi_t = tuple(
                M.meet_index(M.tau(g(t)) for t in bits(L.intents[x]))
                for x in range(L.size)
            )
            phi_t = tuple(
                L.join_index(L.iota(f(b)) for b in bits(M.extents[y]))
                for y in range(M.size)
            )
            cm = functors.ConceptLatticeMorphism(
                L,
                M,
                FunctionGraph.from_targets(phi_t, L.size),
                FunctionGraph.from_targets(psi_t, M.size),
                f,
                g,
                validate=False,
            )
            if functors.check_lattice_morphism(cm):
                out.append(cm)
    return out
