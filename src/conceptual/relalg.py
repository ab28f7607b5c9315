"""Finite boolean relations with composition, transpose, complement and the
two residuals.

A relation is stored row-major as one Python int per source index: bit ``b``
of ``rows[a]`` holds exactly when ``(a, b)`` is in the relation.  Arbitrary-
precision ints act as dense bitset blocks, so composition and both residuals
sweep whole machine words along the destination axis instead of visiting
cells one at a time.

Empty carriers (0 x n, n x 0) are legal everywhere; residuals over a vacuous
quantifier come out full, which keeps the adjunction laws total.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import ShapeError, ValidationError, quote


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def first_difference(xs: Iterable[int], ys: Iterable[int]) -> tuple[int, int] | None:
    """First row where two row sequences differ, with its lowest differing
    bit; ``None`` when they agree.  Consumes lazy rows only up to the first
    difference."""
    for row, (x, y) in enumerate(zip(xs, ys)):
        if x != y:
            diff = x ^ y
            return row, (diff & -diff).bit_length() - 1
    return None


class view(cached_property):
    """A value derived from a frozen object on first read and kept in its
    instance dict: ``functools.cached_property`` without the lock that
    Python 3.11 takes on every first read (3.12 dropped it).

    The descriptor defines no ``__set__``, so once the value is stored the
    instance dict answers every later read and ``__get__`` runs once per
    object and name.  Concurrent first reads may each compute the value;
    views are pure functions of the object, so either result is kept."""

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.attrname] = self.func(instance)
        return value


# the binary digit of a matrix cell: a lookup by hash and ``==``, so a cell
# is a digit exactly when it equals 0 or 1 (``False``, ``True`` and ``1.0`` too)
_DIGITS = {0: "0", 1: "1"}


@dataclass(frozen=True)
class Relation:
    """Boolean matrix between two finite index sets, value semantics."""

    src_size: int
    dst_size: int
    rows: tuple[int, ...]

    def __post_init__(self):
        if self.src_size < 0 or self.dst_size < 0:
            raise ValidationError("relation sizes must be nonnegative")
        if len(self.rows) != self.src_size:
            raise ValidationError(
                f"expected {self.src_size} rows, got {len(self.rows)}"
            )
        # every row lies in 0..full: two C-level scans, and the offending row
        # is searched for only on failure
        rows = self.rows
        full = (1 << self.dst_size) - 1
        if rows and (min(rows) < 0 or max(rows) > full):
            a = next(a for a, row in enumerate(rows) if row < 0 or row > full)
            raise ValidationError(f"row {a} has bits outside 0..{self.dst_size - 1}")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_pairs(
        cls, src_size: int, dst_size: int, pairs: Iterable[tuple[int, int]]
    ) -> "Relation":
        rows = [0] * src_size
        for a, b in pairs:
            if not (0 <= a < src_size and 0 <= b < dst_size):
                raise ValidationError(f"pair ({a}, {b}) out of range {src_size}x{dst_size}")
            rows[a] |= 1 << b
        return cls(src_size, dst_size, tuple(rows))

    @classmethod
    def from_matrix(
        cls, matrix: Sequence[Sequence[int]], dst_size: int | None = None
    ) -> "Relation":
        """Build from a 0/1 row-of-rows; ``dst_size`` disambiguates 0 rows.

        Each row is checked once and read as a binary numeral, last cell
        first, as ``io.parse_cxt`` reads its rows; the cells are scanned one
        by one only to name a bad one."""
        if dst_size is None:
            dst_size = len(matrix[0]) if matrix else 0
        rows = []
        for cells in matrix:
            if len(cells) != dst_size:
                raise ValidationError("ragged incidence matrix")
            try:
                rows.append(int("".join(map(_DIGITS.__getitem__, reversed(cells))) or "0", 2))
            except (KeyError, TypeError):
                bad = next(cell for cell in cells if cell not in (0, 1))
                raise ValidationError(f"matrix cell must be 0/1, got {quote(bad)}") from None
        return cls(len(matrix), dst_size, tuple(rows))

    @classmethod
    def empty(cls, src_size: int, dst_size: int) -> "Relation":
        return cls(src_size, dst_size, (0,) * src_size)

    @classmethod
    def full(cls, src_size: int, dst_size: int) -> "Relation":
        return cls(src_size, dst_size, ((1 << dst_size) - 1,) * src_size)

    # -- element access ----------------------------------------------------

    def bit(self, a: int, b: int) -> bool:
        return bool(self.rows[a] >> b & 1)

    @view
    def columns(self) -> tuple[int, ...]:
        return transpose(self).rows

    def pairs(self) -> Iterator[tuple[int, int]]:
        for a, row in enumerate(self.rows):
            for b in bits(row):
                yield a, b

    def matrix(self) -> list[list[int]]:
        return [[row >> b & 1 for b in range(self.dst_size)] for row in self.rows]

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.src_size, self.dst_size)

    def __repr__(self):
        body = ", ".join(format(row, f"0{self.dst_size}b")[::-1] for row in self.rows)
        return f"Relation({self.src_size}x{self.dst_size}: [{body}])"


def _require(cond: bool, op: str, r: Relation, s: Relation):
    if not cond:
        raise ShapeError(f"{op}: incompatible shapes {r.shape} and {s.shape}")


def compose(r: Relation, s: Relation) -> Relation:
    """Boolean matrix product: ``(a, c)`` iff some ``b`` links both legs."""
    _require(r.dst_size == s.src_size, "compose", r, s)
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


def identity(n: int) -> Relation:
    if n < 0:
        raise ValidationError("identity size must be nonnegative")
    return Relation(n, n, tuple(1 << i for i in range(n)))


def transpose(r: Relation) -> Relation:
    out = [0] * r.dst_size
    for a, row in enumerate(r.rows):
        abit = 1 << a
        while row:
            low = row & -row
            out[low.bit_length() - 1] |= abit
            row ^= low
    return Relation(r.dst_size, r.src_size, tuple(out))


def complement(r: Relation) -> Relation:
    full = (1 << r.dst_size) - 1
    return Relation(r.src_size, r.dst_size, tuple(row ^ full for row in r.rows))


def left_residual(r: Relation, t: Relation) -> Relation:
    """Largest ``s`` with ``compose(r, s) <= t``.

    ``(b, c)`` is in ``r\\t`` iff every ``a`` related to ``b`` by ``r`` is
    related to ``c`` by ``t``; computed as a row sweep intersecting ``t``
    rows into the output.
    """
    _require(r.src_size == t.src_size, "left_residual", r, t)
    full = (1 << t.dst_size) - 1
    out = [full] * r.dst_size
    for a, row in enumerate(r.rows):
        ta = t.rows[a]
        if ta == full:
            continue
        while row:
            low = row & -row
            out[low.bit_length() - 1] &= ta
            row ^= low
    return Relation(r.dst_size, t.dst_size, tuple(out))


def right_residual(t: Relation, s: Relation) -> Relation:
    """Largest ``r`` with ``compose(r, s) <= t``.

    ``(a, b)`` is in ``t/s`` iff the ``s``-row of ``b`` is contained in the
    ``t``-row of ``a``, so column ``b`` is the AND of the columns of ``t``
    (its cached ``columns`` view) over the bits of that row: every row of
    ``t`` for an empty one.  Each column is then scattered into the rows.
    """
    _require(t.dst_size == s.dst_size, "right_residual", t, s)
    cols = t.columns
    m = t.src_size
    full = (1 << m) - 1
    out = [0] * m
    for b, sb in enumerate(s.rows):
        col = full
        while sb and col:
            low = sb & -sb
            col &= cols[low.bit_length() - 1]
            sb ^= low
        bbit = 1 << b
        while col:
            low = col & -col
            out[low.bit_length() - 1] |= bbit
            col ^= low
    return Relation(m, s.src_size, tuple(out))


def subrelation(r: Relation, t: Relation) -> bool:
    """Containment ``r <= t`` of equally-shaped relations."""
    _require(r.shape == t.shape, "subrelation", r, t)
    return all(a & ~b == 0 for a, b in zip(r.rows, t.rows))


def union(r: Relation, t: Relation) -> Relation:
    _require(r.shape == t.shape, "union", r, t)
    return Relation(r.src_size, r.dst_size, tuple(a | b for a, b in zip(r.rows, t.rows)))


def intersection(r: Relation, t: Relation) -> Relation:
    _require(r.shape == t.shape, "intersection", r, t)
    return Relation(r.src_size, r.dst_size, tuple(a & b for a, b in zip(r.rows, t.rows)))


@dataclass(frozen=True)
class FunctionGraph:
    """Total function ``range(len(targets)) -> range(dst_size)``, stored as
    its target tuple; the graph relation is derived on first use."""

    targets: tuple[int, ...]
    dst_size: int

    def __post_init__(self):
        if self.dst_size < 0:
            raise ValidationError("function sizes must be nonnegative")
        # every target lies in 0..dst_size - 1: two C-level scans, as in
        # ``Relation``, and the offending target is searched for only on failure
        targets = self.targets
        if targets and (min(targets) < 0 or max(targets) >= self.dst_size):
            a, b = next((a, b) for a, b in enumerate(targets) if not 0 <= b < self.dst_size)
            raise ValidationError(f"target {b} of {a} out of range 0..{self.dst_size - 1}")

    @classmethod
    def from_targets(cls, targets: Sequence[int], dst_size: int) -> "FunctionGraph":
        return cls(tuple(targets), dst_size)

    @classmethod
    def identity(cls, n: int) -> "FunctionGraph":
        return cls(tuple(range(n)), n)

    @view
    def rel(self) -> Relation:
        """The graph: row ``a`` holds the single bit ``targets[a]``."""
        return Relation(len(self.targets), self.dst_size, tuple(1 << b for b in self.targets))

    @view
    def fibers(self) -> tuple[int, ...]:
        """The rows of the transposed graph, built in one pass over
        ``targets``: row ``b`` holds the sources sent to ``b``."""
        out = [0] * self.dst_size
        for a, b in enumerate(self.targets):
            out[b] |= 1 << a
        return tuple(out)

    def __call__(self, a: int) -> int:
        return self.targets[a]

    @property
    def src_size(self) -> int:
        return len(self.targets)

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.targets), self.dst_size)

    def then(self, other: "FunctionGraph") -> "FunctionGraph":
        """Diagrammatic composition: first self, then other."""
        if self.dst_size != other.src_size:
            raise ShapeError(f"then: incompatible shapes {self.shape} and {other.shape}")
        return FunctionGraph(tuple(other.targets[b] for b in self.targets), other.dst_size)

    def preimages(self, masks: Iterable[int]) -> tuple[int, ...]:
        """The inverse image of each mask, the union of the fibers of its
        bits; bits past the targets are ignored.

        With the masks as the rows of a relation ``R`` into the targets, this
        is ``compose(R, transpose(rel)).rows``, the same loop on the fibers
        without the two relations: each mask costs its popcount, not the
        number of sources."""
        fibers = self.fibers
        full = (1 << self.dst_size) - 1
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

    def is_identity(self) -> bool:
        return self.targets == tuple(range(self.dst_size))


def adjoint_failure(
    src_rows: Sequence[int], tgt_rows: Iterable[int], phi: Iterable[int], psi: FunctionGraph
) -> tuple[int, int] | None:
    """First ``(y, x)`` breaking ``compose(phi, R) == compose(S, psi^T)``,
    for ``R`` and ``S`` with rows ``src_rows`` and ``tgt_rows`` and ``phi``
    yielding ``phi(0), phi(1), ...``; ``None`` when it holds.

    Row ``y`` of the right side is ``psi``'s inverse image of row ``y`` of
    ``S``, and ``psi.preimages`` reads them all from its fibers.  On two
    orders this is adjointness, ``phi(y) <= x iff y <= psi(x)``; on the
    incidences of two classifications it is the fundamental property of an
    infomorphism, ``f(b)`` carries ``t`` iff ``b`` carries ``g(t)``.  Rows
    are compared in order, so the first failing ``y`` is reported.
    """
    return first_difference(map(src_rows.__getitem__, phi), psi.preimages(tgt_rows))
