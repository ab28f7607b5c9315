"""Functional and relational infomorphisms between classifications.

Both variants are contravariant pairs: the constructors check the shapes
of the two maps and raise unless the fundamental property holds
(``check_functional``/``check_relational``).  A pair built from checked
values, or read from a file to be checked afterwards, is stored unchecked
by its class's ``_of``, as ``Classification._of``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import relalg
from .classification import (
    Classification,
    instance_preorder,
    powerset_classification,
    type_preorder,
    dual as dual_classification,
)
from .errors import CheckResult, ShapeError, require_shape
from .relalg import FunctionGraph, Relation, _new, _setattr, compose, left_residual, transpose


@dataclass(frozen=True)
class FunctionalInfomorphism:
    """Type function forward, instance function backward, biconditionally tied."""

    source: Classification
    target: Classification
    f: FunctionGraph  # instances: target -> source
    g: FunctionGraph  # types: source -> target

    def __post_init__(self):
        src, tgt = self.source, self.target
        require_shape("instance function", self.f.shape, (len(tgt.instances), len(src.instances)))
        require_shape("type function", self.g.shape, (len(src.types), len(tgt.types)))
        check_functional(self).require("not a functional infomorphism")

    @classmethod
    def _of(
        cls, source: Classification, target: Classification, f: FunctionGraph, g: FunctionGraph
    ) -> "FunctionalInfomorphism":
        """The infomorphism with these fields, stored unchecked, as
        ``Classification._of``: only for maps of the right shapes that meet
        the fundamental property by construction or are judged afterwards
        by ``check_functional``."""
        out = _new(cls)
        _setattr(out, "source", source)
        _setattr(out, "target", target)
        _setattr(out, "f", f)
        _setattr(out, "g", g)
        return out

    def __repr__(self):
        return f"FunctionalInfomorphism({self.source!r} => {self.target!r})"


def _instance_type_witness(m, diff: tuple[int, int] | None, reason: str) -> CheckResult:
    """The verdict on a first differing (target instance, source type) cell;
    the witness labels it."""
    if diff is None:
        return CheckResult(True)
    b, t = diff
    return CheckResult(False, witness=(m.target.instances[b], m.source.types[t]), reason=reason)


def check_functional(m: FunctionalInfomorphism) -> CheckResult:
    """Fundamental property: f(b) carries t in the source iff b carries g(t),
    the equation of ``relalg.adjoint_failure`` on the two incidences:
    ``compose(f, I_A) == compose(I_B, g^T)``."""
    diff = relalg.adjoint_failure(m.source.rows, m.target.rows, m.target.cols, m.f.targets, m.g)
    return _instance_type_witness(m, diff, "fundamental property fails")


def identity_functional(K: Classification) -> FunctionalInfomorphism:
    return FunctionalInfomorphism(
        K,
        K,
        FunctionGraph.identity(len(K.instances)),
        FunctionGraph.identity(len(K.types)),
    )


def compose_functional(
    m1: FunctionalInfomorphism, m2: FunctionalInfomorphism
) -> FunctionalInfomorphism:
    """Diagrammatic composite: types run forward, instances backward."""
    if m1.target != m2.source:
        raise ShapeError("compose_functional: middle classifications differ")
    return FunctionalInfomorphism(
        m1.source, m2.target, m2.f.then(m1.f), m1.g.then(m2.g)
    )


def dual_functional(m: FunctionalInfomorphism) -> FunctionalInfomorphism:
    """Swap roles over the dual classifications; an involution."""
    return FunctionalInfomorphism(
        dual_classification(m.target), dual_classification(m.source), m.g, m.f
    )


def instance_infomorphism(K: Classification) -> FunctionalInfomorphism:
    """The instance-identity infomorphism into the instance powerset: each
    type goes to its extent, its column, a mask of the instances and so in
    range."""
    p = powerset_classification(K.instances)
    g = FunctionGraph._of(K.cols, 1 << len(K.instances))
    return FunctionalInfomorphism(K, p, FunctionGraph.identity(len(K.instances)), g)


@dataclass(frozen=True)
class RelationalInfomorphism:
    """Relations in place of functions; the two residuals must coincide."""

    source: Classification
    target: Classification
    r: Relation  # instances: source -> target
    s: Relation  # types: source -> target

    def __post_init__(self):
        src, tgt = self.source, self.target
        require_shape("instance relation", self.r.shape, (len(src.instances), len(tgt.instances)))
        require_shape("type relation", self.s.shape, (len(src.types), len(tgt.types)))
        check_relational(self).require("not a relational infomorphism")

    @classmethod
    def _of(
        cls, source: Classification, target: Classification, r: Relation, s: Relation
    ) -> "RelationalInfomorphism":
        """The infomorphism with these fields, stored unchecked, as
        ``FunctionalInfomorphism._of``: only for relations of the right
        shapes, judged afterwards by ``check_relational``."""
        out = _new(cls)
        _setattr(out, "source", source)
        _setattr(out, "target", target)
        _setattr(out, "r", r)
        _setattr(out, "s", s)
        return out

    def __repr__(self):
        return f"RelationalInfomorphism({self.source!r} => {self.target!r})"


def check_relational(m: RelationalInfomorphism) -> CheckResult:
    """Fundamental property: the two residuals agree (their value is the bond)."""
    lhs = left_residual(m.r, m.source.incidence)
    rhs = relalg.right_residual(m.target.incidence, m.s)
    diff = relalg.first_difference(lhs.rows, rhs.rows)
    return _instance_type_witness(m, diff, "residuals differ")


def compose_relational(
    m1: RelationalInfomorphism, m2: RelationalInfomorphism
) -> RelationalInfomorphism:
    if m1.target != m2.source:
        raise ShapeError("compose_relational: middle classifications differ")
    return RelationalInfomorphism(
        m1.source, m2.target, compose(m1.r, m2.r), compose(m1.s, m2.s)
    )


def fn2rel(m: FunctionalInfomorphism) -> RelationalInfomorphism:
    """Relational widening of a functional infomorphism via the induced orders."""
    src_pre = instance_preorder(m.source)
    tgt_pre = type_preorder(m.target)
    # r(a, b) iff a <= f(b) in the source instance preorder
    r = compose(src_pre, transpose(m.f.rel))
    # s(t, u) iff g(t) <= u in the target type preorder
    s = compose(m.g.rel, tgt_pre)
    return RelationalInfomorphism(m.source, m.target, r, s)
