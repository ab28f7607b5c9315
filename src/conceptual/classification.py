"""Classifications: labelled instance/type sets with a boolean incidence.

Labels are opaque strings used only at the API surface; all algebra runs on
indices and bitmasks.  Subsets of instances or types are plain ints, bit
``i`` standing for the ``i``-th label.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import relalg
from .errors import ResourceLimitError, ValidationError, quote
from .relalg import Relation, _new, bits, view

POWERSET_CAP = 16


def _require_distinct(kind: str, labels: tuple[str, ...]) -> None:
    """Refuse repeated labels, naming the first that repeats an earlier one,
    with that label as the witness."""
    if len(set(labels)) != len(labels):
        seen: set = set()
        label = next(x for x in labels if x in seen or seen.add(x))
        raise ValidationError(f"duplicate {kind} label {quote(label)}", witness=(label,))


@dataclass(frozen=True)
class Classification:
    instances: tuple[str, ...]
    types: tuple[str, ...]
    incidence: Relation

    def __post_init__(self):
        if self.incidence.shape != (len(self.instances), len(self.types)):
            raise ValidationError(
                f"incidence shape {self.incidence.shape} does not match "
                f"{len(self.instances)} instances x {len(self.types)} types"
            )
        _require_distinct("instance", self.instances)
        _require_distinct("type", self.types)

    @classmethod
    def _of(
        cls, instances: tuple[str, ...], types: tuple[str, ...], incidence: Relation
    ) -> "Classification":
        """The classification with these fields, stored unchecked, as
        ``Relation._of``: only for distinct labels and an incidence of their
        shape by construction."""
        out = _new(cls)
        d = out.__dict__
        d["instances"] = instances
        d["types"] = types
        d["incidence"] = incidence
        return out

    @classmethod
    def from_pairs(
        cls,
        instances: Sequence[str],
        types: Sequence[str],
        pairs: Iterable[tuple[str, str]],
    ) -> "Classification":
        instances = tuple(instances)
        types = tuple(types)
        ii = {label: i for i, label in enumerate(instances)}
        ti = {label: i for i, label in enumerate(types)}
        index_pairs = [(ii[a], ti[t]) for a, t in pairs]
        rel = Relation.from_pairs(len(instances), len(types), index_pairs)
        return cls(instances, types, rel)

    @view
    def instance_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.instances)}

    @view
    def type_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.types)}

    @view
    def rows(self) -> tuple[int, ...]:
        """Per-instance type masks."""
        return self.incidence.rows

    @view
    def cols(self) -> tuple[int, ...]:
        """Per-type instance masks: the incidence's own columns."""
        return self.incidence.columns

    @property
    def full_instances(self) -> int:
        return (1 << len(self.instances)) - 1

    @property
    def full_types(self) -> int:
        return (1 << len(self.types)) - 1

    def instance_mask(self, labels: Iterable[str]) -> int:
        idx = self.instance_index
        return relalg.mask_of(idx[l] for l in labels)

    def type_mask(self, labels: Iterable[str]) -> int:
        idx = self.type_index
        return relalg.mask_of(idx[l] for l in labels)

    def instance_labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.instances[i] for i in bits(mask))

    def type_labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.types[i] for i in bits(mask))

    def __repr__(self):
        return (
            f"Classification({len(self.instances)} instances, "
            f"{len(self.types)} types, {self.incidence.count()} incidences)"
        )


def intent_of(K: Classification, instance_set: int) -> int:
    """Types common to every instance in the set; all types when empty:
    ``relalg.intersect_rows`` of the instances' rows."""
    if instance_set < 0 or instance_set & ~K.full_instances:
        raise ValidationError("instance set out of range")
    return relalg.intersect_rows(K.rows, instance_set, K.full_types)


def extent_of(K: Classification, type_set: int) -> int:
    """Instances carrying every type in the set; all instances when empty:
    ``relalg.intersect_rows`` of the types' columns."""
    if type_set < 0 or type_set & ~K.full_types:
        raise ValidationError("type set out of range")
    return relalg.intersect_rows(K.cols, type_set, K.full_instances)


def dual(K: Classification) -> Classification:
    """Swap instances with types and transpose the incidence."""
    return Classification(K.types, K.instances, relalg.transpose(K.incidence))


def powerset_classification(labels: Sequence[str]) -> Classification:
    """Instances ``labels``, one type per subset, membership incidence.

    Subset types are materialised in binary counting order, so the integer
    value of a subset mask doubles as its type index, and the membership
    relation from subsets to labels has each subset's mask as its row: the
    incidence is its transpose.  More than ``POWERSET_CAP`` labels raise
    ``ResourceLimitError``.
    """
    labels = tuple(labels)
    if len(labels) > POWERSET_CAP:
        raise ResourceLimitError(f"powerset of {len(labels)} labels exceeds cap {POWERSET_CAP}")
    n = len(labels)
    type_labels = tuple(subset_label(labels, m) for m in range(1 << n))
    members = Relation(1 << n, n, tuple(range(1 << n)))
    return Classification(labels, type_labels, relalg.transpose(members))


def subset_label(labels: Sequence[str], mask: int) -> str:
    return "{" + ",".join(labels[i] for i in bits(mask)) + "}"


def check_preorder(leq: Relation, labels: Sequence) -> None:
    """Raise ``ValidationError`` unless ``leq`` is reflexive and transitive.

    A reflexive relation is transitive iff it equals its own left residual
    ``leq\\leq``: ``(j, k)`` is in the residual iff every ``i <= j`` has
    ``i <= k``.  The witness is a labelled failing element or triple.
    """
    up = leq.rows
    for i, row in enumerate(up):
        if not row >> i & 1:
            raise ValidationError(f"not reflexive at {quote(labels[i])}", witness=(labels[i],))
    # reflexivity puts the residual inside leq, so a difference (j, k) has
    # j <= k and some i <= j without i <= k
    diff = relalg.first_difference(up, relalg.left_residual(leq, leq).rows)
    if diff is not None:
        j, k = diff
        i = next(i for i, r in enumerate(up) if r >> j & 1 and not r >> k & 1)
        x, y, z = labels[i], labels[j], labels[k]
        qx, qy, qz = quote(x), quote(y), quote(z)
        raise ValidationError(
            f"not transitive: {qx} <= {qy} <= {qz} but not {qx} <= {qz}", witness=(x, y, z)
        )


def preorder_as_classification(labels: Sequence[str], leq: Relation) -> Classification:
    """A preorder as a classification of its own elements by its order."""
    labels = tuple(labels)
    n = len(labels)
    if leq.shape != (n, n):
        raise ValidationError(f"order relation shape {leq.shape} does not match {n} labels")
    check_preorder(leq, labels)
    return Classification(labels, labels, leq)


def chain_classification(n: int) -> Classification:
    """The n-chain 0 <= 1 <= ... as a classification."""
    labels = tuple(str(i) for i in range(n))
    rows = tuple(((1 << n) - 1) >> i << i for i in range(n))
    return Classification(labels, labels, Relation(n, n, rows))


def antichain_classification(n: int) -> Classification:
    labels = tuple(str(i) for i in range(n))
    return Classification(labels, labels, relalg.identity(n))


def contranominal_classification(n: int) -> Classification:
    """The scale (S, S, !=); its concept lattice is the full boolean lattice."""
    labels = tuple(str(i) for i in range(n))
    full = (1 << n) - 1
    rows = tuple(full ^ (1 << i) for i in range(n))
    return Classification(labels, labels, Relation(n, n, rows))


def instance_preorder(K: Classification) -> Relation:
    """``a <= a'`` iff the types of ``a`` include the types of ``a'``: the
    right residual ``I/I`` of the incidence by itself."""
    return relalg.right_residual(K.incidence, K.incidence)


def type_preorder(K: Classification) -> Relation:
    """``t <= t'`` iff the extent of ``t`` is within the extent of ``t'``: the
    left residual ``I\\I`` of the incidence by itself."""
    return relalg.left_residual(K.incidence, K.incidence)
