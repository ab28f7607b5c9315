"""Finite boolean relations with composition, transpose, complement and the
two residuals.

A relation is stored row-major as one Python int per source index: bit ``b``
of ``rows[a]`` holds exactly when ``(a, b)`` is in the relation.  Arbitrary-
precision ints act as dense bitset blocks, so composition and both residuals
sweep whole machine words along the destination axis instead of visiting
cells one at a time.

Four kernels pick their branch from what they see in their input, its cell
count and its popcount; each keeps its plain bit loop as the branch for small
or sparse input:

- ``transpose`` packs each square tile of 32 x 32 to 128 x 128 cells into
  one int, swaps its off-diagonal blocks in log2 N masked delta swaps
  (Warren, *Hacker's Delight*, 2nd ed., section 7-3) and unpacks it by
  bytes, when the shorter side is over 16 and the popcount at least
  ``4 / side`` of the cells (1/32 at 128); either way the converse keeps
  the input's rows as its ``columns``;
- ``right_residual`` tests every output cell as a subset test on the rows
  below 512 output cells.  Above, it has two branches and takes the one
  that counts fewer big-int steps: the complement tables, which OR the
  columns of ``s`` outside each row of ``t`` one byte at a time through
  256-entry tables of OR-ed columns (the "Four Russians" of Albrecht, Bard
  & Hart, *Algorithm 898*, ACM TOMS 37(1), 2010), for narrow shared sides
  and long outputs such as the type side of a concept lattice; and the
  AND-product, which ANDs ``t``'s cached ``columns`` along each row of
  ``s`` and turns those columns into rows with ``transpose``;
- ``left_residual`` sweeps the rows of ``r``;
- ``pullback``, ``compose(R, transpose(psi.rel))`` for a function ``psi``,
  gathers the columns of ``R`` along the targets of ``psi`` and turns them
  into rows with ``transpose``, from 1024 output cells and 3 set bits of
  ``R`` per output row and column; below, ``FunctionGraph.preimages`` ORs
  one fiber of ``psi`` per set bit of each row of ``R``.

Both residuals read the bits of a row (of ``s``, of ``r``) byte by byte
through a table when ``_bytewise`` holds, at least 16 columns and a popcount
of at least half the row bytes, and one big-int step per bit otherwise;
``preimages`` reads its masks through the same table from 16 targets.

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


_setattr = object.__setattr__

# the binary digit of a matrix cell: a lookup by hash and ``==``, so a cell
# is a digit exactly when it equals 0 or 1 (``False``, ``True`` and ``1.0`` too)
_DIGITS = {0: "0", 1: "1"}


@dataclass(frozen=True, init=False)
class Relation:
    """Boolean matrix between two finite index sets, value semantics."""

    src_size: int
    dst_size: int
    rows: tuple[int, ...]

    # written by hand, not generated, to check the fields before storing them
    # without a ``__post_init__`` call; ``object.__setattr__`` passes the
    # frozen guard and keeps the fields in the instance's compact inline
    # values, where a ``__dict__.update`` would give every relation a dict of
    # its own (about 250 bytes against 105)
    def __init__(self, src_size: int, dst_size: int, rows: tuple[int, ...]):
        if src_size < 0 or dst_size < 0:
            raise ValidationError("relation sizes must be nonnegative")
        if len(rows) != src_size:
            raise ValidationError(f"expected {src_size} rows, got {len(rows)}")
        # every row lies in 0..full: two C-level scans, and the offending row
        # is searched for only on failure
        full = (1 << dst_size) - 1
        if rows and (min(rows) < 0 or max(rows) > full):
            a = next(a for a, row in enumerate(rows) if row < 0 or row > full)
            raise ValidationError(f"row {a} has bits outside 0..{dst_size - 1}")
        _setattr(self, "src_size", src_size)
        _setattr(self, "dst_size", dst_size)
        _setattr(self, "rows", rows)

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


# below this many output cells the right residual's subset tests, about
# 0.1 us each, beat the columns, their AND-product and its transpose
_SMALL_CELLS = 512
# ``pullback`` gathers from this many output cells and this many set bits
# of its masks per output row and column, below which the fiber loop wins
_GATHER_CELLS = 1024
_GATHER_BITS = 3
# the largest tile side of the delta-swap transpose: its cached masks take
# log2(side) * side**2 / 8 bytes, 14 kB at 128
_MAX_TILE = 128
# tile side -> the (distance, mask) of each delta swap; a pure cache, so two
# first calls racing store equal values
_SWAP_MASKS: dict[int, tuple[tuple[int, int], ...]] = {}
# byte value -> the indices of its set bits
_BYTE_BITS = tuple(tuple(i for i in range(8) if v >> i & 1) for v in range(256))


def _bytewise(r: Relation) -> bool:
    """Whether the residuals read the bits of ``r``'s rows byte by byte
    through ``_BYTE_BITS``: from 16 columns and a popcount of half the row
    bytes (1/16 of the cells), below which one big-int step per bit wins."""
    n = r.dst_size
    return n >= 16 and 2 * sum(map(int.bit_count, r.rows)) >= r.src_size * ((n + 7) // 8)


def _swap_masks(side: int) -> tuple[tuple[int, int], ...]:
    """The delta swaps that transpose a ``side`` x ``side`` tile packed row
    by row into one int, cell ``(a, b)`` at bit ``a * side + b``.

    The swap at ``j`` exchanges cells ``(a, b)`` and ``(a + j, b - j)`` for
    each ``a`` with bit ``j`` clear and ``b`` with bit ``j`` set: the two
    off-diagonal ``j`` x ``j`` blocks of every ``2j`` x ``2j`` block."""
    masks = _SWAP_MASKS.get(side)
    if masks is None:
        width = side // 8
        swaps = []
        j = side >> 1
        while j:
            row = sum(1 << b for b in range(side) if b & j).to_bytes(width, "little")
            blank = bytes(width)
            mask = b"".join(blank if a & j else row for a in range(side))
            swaps.append((j * (side - 1), int.from_bytes(mask, "little")))
            j >>= 1
        masks = _SWAP_MASKS[side] = tuple(swaps)
    return masks


def _transpose_tiles(rows: Sequence[int], m: int, n: int, side: int) -> list[int]:
    """The ``n`` rows of the transpose of ``m`` rows of ``n`` bits, one
    ``side`` x ``side`` tile at a time."""
    width = side // 8
    nbytes = -(-n // side) * width
    padded = [row.to_bytes(nbytes, "little") for row in rows]
    padded += [bytes(nbytes)] * (-m % side)
    swaps = _swap_masks(side)
    pieces: list[list[bytes]] = [[] for _ in range(n)]
    for c0 in range(0, nbytes, width):
        cols = pieces[c0 * 8:c0 * 8 + side]
        for a0 in range(0, len(padded), side):
            x = int.from_bytes(b"".join([r[c0:c0 + width] for r in padded[a0:a0 + side]]), "little")
            for delta, mask in swaps:
                d = (x ^ x >> delta) & mask
                x ^= d ^ d << delta
            tile = x.to_bytes(side * width, "little")
            for k, col in enumerate(cols):
                col.append(tile[k * width:(k + 1) * width])
    return [int.from_bytes(b"".join(p), "little") for p in pieces]


def transpose(r: Relation) -> Relation:
    """The converse: ``(b, a)`` iff ``(a, b)``, with ``r``'s rows as its
    ``columns``, so a converse is never transposed back.

    The tile side is the least power of two, at most 128, that covers the
    shorter side.  Tiles cost about one pass over the bytes of the rows, so
    they beat the bit loop once the tiles are at least 32 wide and the rows
    hold at least ``4 / side`` of the cells (1/32 at 128)."""
    m, n = r.src_size, r.dst_size
    side = min(_MAX_TILE, 1 << (min(m, n) - 1).bit_length()) if m > 16 and n > 16 else 0
    if side and sum(map(int.bit_count, r.rows)) * side >= 4 * m * n:
        cols = _transpose_tiles(r.rows, m, n, side)
    else:
        cols = [0] * n
        for a, row in enumerate(r.rows):
            abit = 1 << a
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= abit
                row ^= low
    out = Relation(n, m, tuple(cols))
    _setattr(out, "columns", r.rows)
    return out


def complement(r: Relation) -> Relation:
    full = (1 << r.dst_size) - 1
    return Relation(r.src_size, r.dst_size, tuple(row ^ full for row in r.rows))


def left_residual(r: Relation, t: Relation) -> Relation:
    """Largest ``s`` with ``compose(r, s) <= t``.

    ``(b, c)`` is in ``r\\t`` iff every ``a`` related to ``b`` by ``r`` is
    related to ``c`` by ``t``; computed as a row sweep intersecting ``t``
    rows into the output, the bits of each row read as ``_bytewise`` picks.
    """
    _require(r.src_size == t.src_size, "left_residual", r, t)
    full = (1 << t.dst_size) - 1
    n = r.dst_size
    out = [full] * n
    if _bytewise(r):
        width = (n + 7) // 8
        for row, ta in zip(r.rows, t.rows):
            if ta == full or not row:
                continue
            for base, byte in enumerate(row.to_bytes(width, "little")):
                if byte:
                    base *= 8
                    for i in _BYTE_BITS[byte]:
                        out[base + i] &= ta
        return Relation(n, t.dst_size, tuple(out))
    for row, ta in zip(r.rows, t.rows):
        if ta == full:
            continue
        while row:
            low = row & -row
            out[low.bit_length() - 1] &= ta
            row ^= low
    return Relation(n, t.dst_size, tuple(out))


def right_residual(t: Relation, s: Relation) -> Relation:
    """Largest ``r`` with ``compose(r, s) <= t``.

    ``(a, b)`` is in ``t/s`` iff the ``s``-row of ``b`` is contained in the
    ``t``-row of ``a``.  Below ``_SMALL_CELLS`` output cells each cell is that
    subset test.  Above, for ``m`` rows of ``t``, ``k`` rows of ``s`` and
    ``n`` shared columns, the output comes one of two ways:

    - the complement tables, ``_complement_tables``: row ``a`` is the full
      row minus the OR of the columns of ``s`` outside row ``a`` of ``t``,
      one step per table entry (``T`` in all, 256 per whole byte of the
      ``n`` columns, fewer for a last broken byte) and one per lookup, ``G``
      per row for ``G = ceil(n / 8)`` bytes: ``T + G * m`` steps;
    - the AND-product: column ``b`` is the AND of the columns of ``t`` (its
      cached ``columns`` view) over the bits of row ``b`` of ``s``, every
      row of ``t`` for an empty one, and ``transpose`` turns the columns
      into rows: one step per set bit of ``s``, and about one per machine
      word of the ``k x m`` output the tiles swap, ``k * m / 64``.

    The tables run where their count is the smaller, as
    ``takes_complement_tables`` decides: the type side of a concept lattice,
    few columns against many concepts.  Wide shared sides and short outputs
    keep the AND-product, which reads the bits of each row of ``s`` as
    ``_bytewise`` picks.
    """
    _require(t.dst_size == s.dst_size, "right_residual", t, s)
    m, k = t.src_size, s.src_size
    if m * k < _SMALL_CELLS:
        srows = s.rows
        out = []
        for ta in t.rows:
            row = 0
            bbit = 1
            for sb in srows:
                if not sb & ~ta:
                    row |= bbit
                bbit <<= 1
            out.append(row)
        return Relation(m, k, tuple(out))
    if takes_complement_tables(t, s):
        return _complement_tables(t, s)
    cols = t.columns
    full = (1 << m) - 1
    ands = []
    if _bytewise(s):
        width = (s.dst_size + 7) // 8
        for sb in s.rows:
            col = full
            for base, byte in enumerate(sb.to_bytes(width, "little")):
                if byte:
                    base *= 8
                    for i in _BYTE_BITS[byte]:
                        col &= cols[base + i]
            ands.append(col)
    else:
        for sb in s.rows:
            col = full
            while sb and col:
                low = sb & -sb
                col &= cols[low.bit_length() - 1]
                sb ^= low
            ands.append(col)
    return transpose(Relation(k, m, tuple(ands)))


def takes_complement_tables(t: Relation, s: Relation) -> bool:
    """Whether ``right_residual(t, s)`` takes the complement tables: from
    ``_SMALL_CELLS`` output cells, where they count fewer steps than the
    AND-product, ``64 (T + G m) < 64 |s| + k m`` in its terms.

    Each step counts as one, though an AND of the loop and a word of the
    transpose cost more than a table step, so the count leans to the
    AND-product: on every probe shape of ``tools/kernel_probe.py`` and
    every call of the benchmark workloads that it hands to the tables,
    they were the faster branch."""
    m, k, n = t.src_size, s.src_size, s.dst_size
    if m * k < _SMALL_CELLS:
        return False
    entries = sum(1 << min(8, n - c) for c in range(0, n, 8))
    return 64 * (entries + (n + 7) // 8 * m) < 64 * sum(map(int.bit_count, s.rows)) + k * m


def _complement_tables(t: Relation, s: Relation) -> Relation:
    """``t/s`` by rows: row ``a`` is the full row of ``k`` bits minus the OR
    of the columns of ``s`` at the columns outside row ``a`` of ``t``.

    The columns are taken eight at a time.  The table of a group holds the
    OR of every subset of its columns, indexed by the subset's byte, and is
    built by doubling, one OR per entry; each row's complement then takes
    one lookup per byte.  One table of at most 256 rows of ``k`` bits is
    live at a time, so beside the output's rows, accumulated group by
    group, the branch keeps that table and the complement of each row of
    ``t`` as bytes; no transpose runs."""
    m, k, n = t.src_size, s.src_size, s.dst_size
    cols = s.columns
    width = (n + 7) // 8
    full_n = (1 << n) - 1
    outside = [(full_n ^ ta).to_bytes(width, "little") for ta in t.rows]
    acc = [0] * m
    for g in range(width):
        table = [0]
        for col in cols[8 * g:8 * g + 8]:
            table += [x | col for x in table]
        acc = [x | table[row[g]] for x, row in zip(acc, outside)]
    full_k = (1 << k) - 1
    return Relation(m, k, tuple(full_k ^ x for x in acc))


def subrelation(r: Relation, t: Relation) -> bool:
    """Containment ``r <= t`` of equally-shaped relations."""
    _require(r.shape == t.shape, "subrelation", r, t)
    return all(a & ~b == 0 for a, b in zip(r.rows, t.rows))


def union(r: Relation, t: Relation) -> Relation:
    _require(r.shape == t.shape, "union", r, t)
    return Relation(r.src_size, r.dst_size, tuple(a | b for a, b in zip(r.rows, t.rows)))


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
        return FunctionGraph(self.then_targets(other), other.dst_size)

    def then_targets(self, other: "FunctionGraph") -> tuple[int, ...]:
        """The targets of ``self.then(other)``, without building the graph:
        two composites compare as these tuples when their codomains agree."""
        if self.dst_size != other.src_size:
            raise ShapeError(f"then: incompatible shapes {self.shape} and {other.shape}")
        return tuple(map(other.targets.__getitem__, self.targets))

    def preimages(self, masks: Iterable[int]) -> tuple[int, ...]:
        """The inverse image of each mask, the union of the fibers of its
        bits; bits past the targets are ignored.

        With the masks as the rows of a relation ``R`` into the targets, this
        is ``compose(R, transpose(rel)).rows``, the same loop on the fibers
        without the two relations: each mask costs its popcount, not the
        number of sources.  From 16 targets the bits are read byte by byte
        through ``_BYTE_BITS``.  ``pullback`` turns to a gather where the
        masks' columns are at hand and the output is large."""
        fibers = self.fibers
        n = self.dst_size
        full = (1 << n) - 1
        out = []
        if n >= 16:
            width = (n + 7) // 8
            for mask in masks:
                acc = 0
                for base, byte in enumerate((mask & full).to_bytes(width, "little")):
                    if byte:
                        base *= 8
                        for i in _BYTE_BITS[byte]:
                            acc |= fibers[base + i]
                out.append(acc)
            return tuple(out)
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


def pullback(rows: Sequence[int], cols: Sequence[int], psi: FunctionGraph) -> tuple[int, ...]:
    """The rows of ``compose(R, transpose(psi.rel))`` for the relation ``R``
    into ``psi``'s targets with rows ``rows`` and columns ``cols``: row
    ``y`` is ``psi``'s inverse image of row ``y`` of ``R``, and column ``a``
    is column ``psi(a)`` of ``R``.

    The fiber loop, ``psi.preimages``, costs one OR per set bit of
    ``rows``; the gather, the columns read along the targets in one C-level
    ``map`` and turned into rows by ``transpose``, costs about a pass over
    the bytes of the output and a few steps per output row and column.  So
    the gather runs from ``_GATHER_CELLS`` output cells when ``rows`` hold
    at least ``_GATHER_BITS`` set bits per output row and column, and the
    loop otherwise.  Bits of ``rows`` past the targets are ignored either
    way."""
    k, m = len(rows), len(psi.targets)
    if k * m >= _GATHER_CELLS and sum(map(int.bit_count, rows)) >= _GATHER_BITS * (k + m):
        return transpose(Relation(m, k, tuple(map(cols.__getitem__, psi.targets)))).rows
    return psi.preimages(rows)


def adjoint_failure(
    src_rows: Sequence[int],
    tgt_rows: Sequence[int],
    tgt_cols: Sequence[int],
    phi: Iterable[int],
    psi: FunctionGraph,
) -> tuple[int, int] | None:
    """First ``(y, x)`` breaking ``compose(phi, R) == compose(S, psi^T)``,
    for ``R`` with rows ``src_rows``, ``S`` with rows ``tgt_rows`` and
    columns ``tgt_cols``, and ``phi`` yielding ``phi(0), phi(1), ...``;
    ``None`` when it holds.

    The right side is ``pullback(tgt_rows, tgt_cols, psi)``.  On two orders
    this is adjointness, ``phi(y) <= x iff y <= psi(x)``; on the incidences
    of two classifications it is the fundamental property of an
    infomorphism, ``f(b)`` carries ``t`` iff ``b`` carries ``g(t)``.  Rows
    are compared in order, so the first failing ``y`` is reported.
    """
    return first_difference(map(src_rows.__getitem__, phi), pullback(tgt_rows, tgt_cols, psi))
