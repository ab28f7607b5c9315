"""Classifications: labelled instance/type sets with a boolean incidence.

Labels are opaque strings used only at the API surface; all algebra runs on
indices and bitmasks.  Subsets of instances or types are plain ints, bit
``i`` standing for the ``i``-th label.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from . import relalg
from .errors import ResourceLimitError, ValidationError
from .relalg import Relation, bits

POWERSET_CAP = 16


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
        if len(set(self.instances)) != len(self.instances):
            raise ValidationError("duplicate instance labels")
        if len(set(self.types)) != len(self.types):
            raise ValidationError("duplicate type labels")

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

    @cached_property
    def instance_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.instances)}

    @cached_property
    def type_index(self) -> dict[str, int]:
        return {label: i for i, label in enumerate(self.types)}

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Per-instance type masks."""
        return self.incidence.rows

    @cached_property
    def cols(self) -> tuple[int, ...]:
        """Per-type instance masks."""
        return relalg.transpose(self.incidence).rows

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
    """Types common to every instance in the set; all types when empty."""
    if instance_set < 0 or instance_set & ~K.full_instances:
        raise ValidationError("instance set out of range")
    out = K.full_types
    rows = K.rows
    for a in bits(instance_set):
        out &= rows[a]
        if not out:
            break
    return out


def extent_of(K: Classification, type_set: int) -> int:
    """Instances carrying every type in the set; all instances when empty."""
    if type_set < 0 or type_set & ~K.full_types:
        raise ValidationError("type set out of range")
    out = K.full_instances
    cols = K.cols
    for t in bits(type_set):
        out &= cols[t]
        if not out:
            break
    return out


def incidence_residual(K: Classification, s: Relation) -> Relation:
    """``right_residual(K.incidence, s)``, by derivation, with the same
    shape rule.

    ``(a, b)`` is in ``I/s`` iff ``a`` carries every type in row ``b`` of
    ``s``, so column ``b`` is the extent of that row: the AND of the type
    columns of ``K`` over its bits, all instances for an empty row.
    """
    t = K.incidence
    relalg._require(t.dst_size == s.dst_size, "right_residual", t, s)
    cols = K.cols
    m = t.src_size
    full = (1 << m) - 1
    out = [0] * m
    for b, sb in enumerate(s.rows):
        ext = full
        while sb and ext:
            low = sb & -sb
            ext &= cols[low.bit_length() - 1]
            sb ^= low
        bbit = 1 << b
        while ext:
            low = ext & -ext
            out[low.bit_length() - 1] |= bbit
            ext ^= low
    return Relation(m, s.src_size, tuple(out))


def dual(K: Classification) -> Classification:
    """Swap instances with types and transpose the incidence."""
    return Classification(K.types, K.instances, relalg.transpose(K.incidence))


def powerset_classification(labels: Sequence[str], cap: int = POWERSET_CAP) -> Classification:
    """Instances ``labels``, one type per subset, membership incidence.

    Subset types are materialised in binary counting order, so the integer
    value of a subset mask doubles as its type index.
    """
    labels = tuple(labels)
    if len(labels) > cap:
        raise ResourceLimitError(
            f"powerset of {len(labels)} labels exceeds cap {cap}"
        )
    n = len(labels)
    type_labels = tuple(subset_label(labels, m) for m in range(1 << n))
    rows = []
    for i in range(n):
        row = 0
        for m in range(1 << n):
            if m >> i & 1:
                row |= 1 << m
        rows.append(row)
    return Classification(labels, type_labels, Relation(n, 1 << n, tuple(rows)))


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
            raise ValidationError(f"not reflexive at {labels[i]!r}", witness=(labels[i],))
    # reflexivity puts the residual inside leq, so a difference (j, k) has
    # j <= k and some i <= j without i <= k
    diff = relalg.first_difference(up, relalg.left_residual(leq, leq).rows)
    if diff is not None:
        j, k = diff
        i = next(i for i, r in enumerate(up) if r >> j & 1 and not r >> k & 1)
        x, y, z = labels[i], labels[j], labels[k]
        raise ValidationError(
            f"not transitive: {x!r} <= {y!r} <= {z!r} but not {x!r} <= {z!r}",
            witness=(x, y, z),
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
    return incidence_residual(K, K.incidence)


def type_preorder(K: Classification) -> Relation:
    """``t <= t'`` iff the extent of ``t`` is within the extent of ``t'``: the
    left residual ``I\\I`` of the incidence by itself."""
    return relalg.left_residual(K.incidence, K.incidence)
