"""Finite boolean relations with composition, transpose, complement and the
two residuals.

A relation is stored row-major as one Python int per source index: bit ``b``
of ``rows[a]`` holds exactly when ``(a, b)`` is in the relation.  Arbitrary-
precision ints act as dense bitset blocks, so composition and both residuals
sweep whole machine words along the destination axis instead of visiting
cells one at a time.

Every kernel with more than one branch, and ``lattice.ConceptLattice.order``
for its side, runs the branch for which ``branch`` counts the fewest big-int
steps, one step being one pass of a bit loop, from the call's shape and the
popcount of the rows it reads.  Every branch but the bit loops has a fixed
cost, so a small call is decided from its shape alone: a bit loop at up to
``_SHAPE_BITS`` cells, the right residual's subset tests at up to
``_SHAPE_CELLS``.  The kernels run those calls without calling ``branch``,
whose counts pick the same branches there, so the rule stays one.
The weights were fitted to the timing tables of ``tools/kernel_probe.py``,
on the seeded inputs of ``tests/conftest.py``, and to replays of the calls
of one cycle of each benchmark workload.

Each gather is written once.  ``_unions``, the OR of a table's rows at the
bits of each mask, by bits or by bytes, is ``compose`` and the inverse
images of ``FunctionGraph.preimages`` and ``pullback``; ``intersect_rows``,
the AND of rows at the bits of one mask, is the derivations of a
classification and the meets and joins of a lattice, and the FCbO walk
writes its loop inline.

``transpose`` is one of two places that fill a relation's ``columns``
view on the way; the other is ``from_digits``, the reader of a block of
0/1 digits (``io.parse_cxt`` and ``Relation.from_matrix``), which reads
each column as a strided slice of the same digit string as the rows, so
no relation read from text is transposed.

Empty carriers (0 x n, n x 0) are legal everywhere; residuals over a vacuous
quantifier come out full, which keeps the adjunction laws total.

Values are checked where they enter.  The public constructors,
``Relation(...)``, ``from_pairs``, ``from_matrix``, ``FunctionGraph(...)``
and ``from_targets``, refuse negative sizes, wrong row counts, rows or
targets out of range, and rows or targets that are no tuple of ints.  Both
classes are plain frozen dataclasses that check in ``__post_init__``, as
every checked dataclass of the package does; a class whose fields must meet
a shape refuses a wrong one through ``errors.require_shape``.  A
value built from checked operands is in range by construction and is
stored unchecked by its class's ``_of``: the result of each kernel,
``complement``, ``union`` and ``identity``, ``from_digits`` (whose callers
check the digits), ``pullback``'s gather, a map's graph ``rel``, and
``FunctionGraph.then`` and ``identity``; elsewhere, the lattice maps of
``functors.lattice_of_morphism``, the maps ``colimit``'s enumerations
propose and the mediator maps of its cocones.  This is the package's one
unchecked path: nine classes have an ``_of``, ``Relation``,
``FunctionGraph``, ``classification.Classification``,
``lattice.ConceptLattice``, ``bond.Bond``, ``bond.BondingPair``,
``infomorphism.FunctionalInfomorphism``,
``infomorphism.RelationalInfomorphism`` and ``report.CheckRecord``, and
their constructors always check.  An ``_of`` writes its fields into the
new instance's dict, one subscript store per key, as ``view`` stores a
derived value and as ``transpose``, ``from_digits``, ``build_lattice`` and
``functors.CompleteLattice`` preset theirs; nothing stores through
``object.__setattr__``, which costs about twice as much per field.
``io.morphism_from_obj`` checks the shapes of what it reads and stores a
morphism that ``conceptual check`` checks afterwards with ``_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from operator import getitem
from typing import Iterable, Iterator, Sequence

from .errors import ShapeError, ValidationError, quote


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    """The mask with the bits ``indices``; a negative index raises
    ``ValidationError``."""
    m = 0
    for i in indices:
        if i < 0:
            raise ValidationError(f"negative index {i}", witness=(i,))
        m |= 1 << i
    return m


# the bytes of ``row_digits``' characters ``0`` and ``1`` to the values 0 and 1,
# and back
_DIGIT_BITS = bytes.maketrans(b"01", b"\x00\x01")
_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def row_digits(row: int, n: int) -> str:
    """The ``n`` cells of a row as ``0``/``1`` digits, cell 0 first; a row
    of no cells is the empty string."""
    return format(row, f"0{n}b")[::-1] if n else ""


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


_new = object.__new__


def _require_ints(values, what: str) -> None:
    """Raise ``ValidationError`` unless ``values`` is a tuple of ints: one
    C-level scan, for ``int.bit_count`` refuses every other value but a
    ``bool``, which is an int."""
    try:
        if isinstance(values, tuple):
            sum(map(int.bit_count, values))
            return
    except TypeError:
        pass
    raise ValidationError(f"{what} must be a tuple of ints")


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
        src_size, dst_size, rows = self.src_size, self.dst_size, self.rows
        if src_size < 0 or dst_size < 0:
            raise ValidationError("relation sizes must be nonnegative")
        _require_ints(rows, "relation rows")
        if len(rows) != src_size:
            raise ValidationError(f"expected {src_size} rows, got {len(rows)}")
        # every row lies in 0..full: two C-level scans, and the offending row
        # is searched for only on failure
        full = (1 << dst_size) - 1
        if rows and (min(rows) < 0 or max(rows) > full):
            a = next(a for a, row in enumerate(rows) if row < 0 or row > full)
            raise ValidationError(f"row {a} has bits outside 0..{dst_size - 1}")

    @classmethod
    def _of(cls, src_size: int, dst_size: int, rows: tuple[int, ...]) -> "Relation":
        """The relation with these fields, stored unchecked: only for rows
        in range by construction, built from checked operands."""
        out = _new(cls)
        d = out.__dict__
        d["src_size"] = src_size
        d["dst_size"] = dst_size
        d["rows"] = rows
        return out

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

        The row lengths are checked in one scan and the cells joined in one
        pass into a digit string, ``_cell_digits``, which ``from_digits``
        reads backwards, as ``io.parse_cxt`` reads its row block: the
        relation comes with its ``columns``.  Only a matrix that fails is
        walked row by row, to name its first row of another length or its
        first bad cell."""
        if dst_size is None:
            dst_size = len(matrix[0]) if matrix else 0
        try:
            if set(map(len, matrix)) <= {dst_size}:
                # only a matrix of no rows gets here with a negative size
                if dst_size < 0:
                    raise ValidationError("relation sizes must be nonnegative")
                digits = _cell_digits(matrix, len(matrix) * dst_size)
                return from_digits(len(matrix), dst_size, digits[::-1])
        except (KeyError, TypeError):
            pass
        for a, cells in enumerate(matrix):
            if len(cells) != dst_size:
                raise ValidationError(f"row {a} must have {dst_size} cells, got {len(cells)}")
            for cell in cells:
                if cell not in (0, 1):
                    raise ValidationError(f"matrix cell must be 0/1, got {quote(cell)}")
        # a cell equal to 0 or 1 that does not hash as one
        raise ValidationError("matrix cells must be 0/1")

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
        """The rows as lists of 0s and 1s: each row's digits, ``row_digits``,
        translated to byte values 0 and 1 in one pass."""
        n = self.dst_size
        return [list(row_digits(row, n).encode().translate(_DIGIT_BITS)) for row in self.rows]

    def count(self) -> int:
        return sum(row.bit_count() for row in self.rows)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.src_size, self.dst_size)

    def __repr__(self):
        body = ", ".join(row_digits(row, self.dst_size) for row in self.rows)
        return f"Relation({self.src_size}x{self.dst_size}: [{body}])"


def _cell_digits(matrix: Sequence[Sequence[int]], size: int) -> str:
    """The ``size`` cells of a matrix as one string of ``0``/``1`` digits,
    row by row.  Rows that ``bytes`` takes, ints 0..255, are joined in one
    C-level pass and kept when every byte is 0 or 1; otherwise each cell
    is read through ``_DIGITS``, which raises ``KeyError`` or ``TypeError``
    on a cell that is no digit."""
    try:
        cells = b"".join(map(bytes, matrix))
    except (TypeError, ValueError):
        pass
    else:
        # a row of wider items, such as an ``array('i')``, gives more bytes
        if len(cells) == size and not cells.translate(None, b"\x00\x01"):
            return cells.translate(_BIT_DIGITS).decode()
    return "".join(map(_DIGITS.__getitem__, chain.from_iterable(matrix)))


def from_digits(m: int, n: int, digits: str) -> Relation:
    """The ``m`` x ``n`` relation whose cell block, read last cell first, is
    the digit string ``digits`` of ``m * n`` characters ``0`` and ``1``,
    which the caller has checked: row ``m - 1`` comes first, each row's
    last cell first.

    So row ``a`` is the numeral ``digits[(m - 1 - a) * n:(m - a) * n]`` and
    column ``b`` the numeral of every ``n``-th digit from ``n - 1 - b``, the
    column's last cell first too; both are read with ``int(..., 2)``, and the
    columns are stored as the relation's ``columns``, as ``transpose``
    stores its input's rows."""
    if m and n:
        rows = [int(digits[c:c + n], 2) for c in range(0, m * n, n)]
        rows.reverse()
        cols = [int(digits[c::n], 2) for c in range(n - 1, -1, -1)]
    else:
        rows, cols = [0] * m, [0] * n
    out = Relation._of(m, n, tuple(rows))
    out.__dict__["columns"] = tuple(cols)
    return out


def _require(cond: bool, op: str, r: Relation, s: Relation):
    if not cond:
        raise ShapeError(f"{op}: incompatible shapes {r.shape} and {s.shape}")


def compose(r: Relation, s: Relation) -> Relation:
    """Boolean matrix product: ``(a, c)`` iff some ``b`` links both legs.

    Row ``a`` is the OR of the rows of ``s`` at the bits of row ``a`` of
    ``r``, read by bits or by bytes as ``branch`` picks."""
    _require(r.dst_size == s.src_size, "compose", r, s)
    n = s.src_size
    reading = "bits" if r.src_size * n <= _SHAPE_BITS else branch("compose", r.rows, n)
    rows = _unions(r.rows, s.rows, reading)
    return Relation._of(r.src_size, s.dst_size, rows)


def _unions(masks: Sequence[int], table: Sequence[int], reading: str) -> tuple[int, ...]:
    """The OR of the rows of ``table`` at the bits of each mask, each mask
    read by ``"bits"`` or by ``"bytes"``; bits past the table are ignored."""
    n = len(table)
    full = (1 << n) - 1
    out = []
    if reading == "bytes":
        width = (n + 7) // 8
        for mask in masks:
            acc = 0
            for base, byte in enumerate((mask & full).to_bytes(width, "little")):
                if byte:
                    base *= 8
                    for i in _BYTE_BITS[byte]:
                        acc |= table[base + i]
            out.append(acc)
        return tuple(out)
    for mask in masks:
        mask &= full
        acc = 0
        while mask:
            low = mask & -mask
            acc |= table[low.bit_length() - 1]
            mask ^= low
        out.append(acc)
    return tuple(out)


def intersect_rows(rows: Sequence[int], mask: int, full: int) -> int:
    """The AND of ``full`` and the rows at the bits of ``mask``, lowest
    first, stopped once it is empty."""
    while mask and full:
        low = mask & -mask
        full &= rows[low.bit_length() - 1]
        mask ^= low
    return full


def identity(n: int) -> Relation:
    if n < 0:
        raise ValidationError("identity size must be nonnegative")
    return Relation._of(n, n, tuple(1 << i for i in range(n)))


# the largest tile side of the delta-swap transpose: its cached masks take
# log2(side) * side**2 / 8 bytes, 14 kB at 128
_MAX_TILE = 128
# tile side -> the (distance, mask) of each delta swap; a pure cache, so two
# first calls racing store equal values
_SWAP_MASKS: dict[int, tuple[tuple[int, int], ...]] = {}
# byte value -> the indices of its set bits
_BYTE_BITS = tuple(tuple(i for i in range(8) if v >> i & 1) for v in range(256))

# the weights of ``branch``, in steps of a bit loop
_BYTE_FIXED = 48  # reading rows by bytes: per call,
_ROW_STEP = 2.8  # per row,
_BYTE_STEP = 0.1  # per byte of a row
_BYTE_BIT_STEP = 0.35  # and per set bit
_TILE_FIXED = 80  # the tiled transpose: per call
_TILE_STEP = 2.5  # and per cell over the tile side
_CELL_STEP = 0.5  # a subset test of the right residual
_TABLE_FIXED = 150  # the complement tables: per call
_TABLE_STEP = 0.35  # and per entry or lookup
_BUILD_FIXED = 60  # the AND-product or the gather, before its transpose

# the most cells of a call that its shape alone sends to a bit loop, at one
# step a cell at most: 73, for the bytes cost more even at one set bit a cell,
# and the tiles more still; and the most cells of a right residual whose subset
# tests cost less than ``_BUILD_FIXED``: 120.  A kernel runs such a call
# without asking ``branch``, whose counts pick the same branch there.
_SHAPE_BITS = int(_BYTE_FIXED / (1 - _BYTE_BIT_STEP))
_SHAPE_CELLS = int(_BUILD_FIXED / _CELL_STEP)


def _tile_side(m: int, n: int) -> int:
    """The least power of two from 8 to ``_MAX_TILE`` that covers ``min(m, n)``."""
    return min(_MAX_TILE, max(8, 1 << (min(m, n) - 1).bit_length()))


def _tile_steps(m: int, n: int) -> float:
    return _TILE_FIXED + _TILE_STEP * m * n / _tile_side(m, n)


def _table_steps(m: int, n: int) -> float:
    """The steps of the complement tables over ``n`` columns for ``m`` rows:
    256 entries per byte of columns, fewer for a broken one, and a lookup
    per byte of each row."""
    entries = 256 * (n // 8) + (1 << n % 8 if n % 8 else 0)
    return _TABLE_FIXED + _TABLE_STEP * (entries + (n + 7) // 8 * m)


def _bytewise(m: int, n: int, p: int) -> float:
    """The steps of reading ``p`` bits set in ``m`` rows of ``n`` by bytes."""
    return _BYTE_FIXED + m * (_ROW_STEP + (n + 7) // 8 * _BYTE_STEP) + _BYTE_BIT_STEP * p


def _reads(m: int, n: int, p: int) -> tuple[float, str]:
    """The steps and the way, bits or bytes, of reading ``p`` bits set in ``m`` rows of ``n``."""
    bytewise = _bytewise(m, n, p)
    return (bytewise, "bytes") if bytewise < p else (p, "bits")


def branch(kernel: str, rows: Sequence[int], n: int, k: int = 0) -> str:
    """The branch of ``kernel`` with the fewest steps on a call reading
    ``rows``, ``len(rows)`` rows of ``n`` bits, by ``"bits"`` or ``"bytes"``:
    ``"bits"`` or ``"tiles"`` for their ``"transpose"``; a reading for
    ``"left_residual"`` and ``"compose"``; ``"cells"``, ``"tables"`` or
    ``"bytes"``, the AND-product, for a ``"right_residual"`` of ``k`` rows of
    ``t`` by ``s``; ``"gather"`` or a reading for their ``"pullback"`` along
    ``k`` sources; ``"instances"`` or ``"types"`` for the ``"order"`` of a
    lattice with these extents, ``n`` instances and ``k`` types.  The
    popcount of ``rows`` is taken only where the shape leaves the choice
    open."""
    m = len(rows)
    most = m * n
    if kernel == "transpose":
        tiles = _tile_steps(m, n)
        return "tiles" if most > tiles and sum(map(int.bit_count, rows)) > tiles else "bits"
    if kernel == "order":
        # the instance side transposes the ``m`` extents and sweeps ``n``
        # rows of ``m`` bits, each reading every set bit of the extents once
        if 2 * most <= _TABLE_FIXED:
            return "instances"
        types = _table_steps(m, k) + _tile_steps(m, k)
        p = sum(map(int.bit_count, rows))
        transposes = min(p, _tile_steps(m, n))
        return "instances" if transposes + _reads(n, m, p)[0] <= types else "types"
    if kernel == "right_residual":
        cells = _CELL_STEP * m * k
        # the AND-product reads the rows by bytes, unless that takes more than
        # the ``limit`` steps of the ``other`` branch, less its transpose's
        limit, other = min((cells, "cells"), (_table_steps(k, n), "tables"))
        limit -= _BUILD_FIXED + _tile_steps(m, k)
        if limit < 0:
            return other
        return "bytes" if _bytewise(m, n, sum(map(int.bit_count, rows))) <= limit else other
    # the rows are read, by bits or by bytes, unless that takes more than
    # the ``limit`` steps of ``pullback``'s gather
    limit = _BUILD_FIXED + _tile_steps(k, m) if kernel == "pullback" else most
    if most <= limit and _reads(m, n, most)[1] == "bits":
        return "bits"
    steps, reading = _reads(m, n, sum(map(int.bit_count, rows)))
    return reading if steps <= limit else "gather"


def _swap_masks(side: int) -> tuple[tuple[int, int], ...]:
    """The delta swaps (Warren, *Hacker's Delight*, 2nd ed., section 7-3)
    that transpose a ``side`` x ``side`` tile packed row by row into one
    int, cell ``(a, b)`` at bit ``a * side + b``.

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
    ``side`` x ``side`` tile at a time.

    Each strip of ``side`` rows is swapped tile by tile into one string
    that holds its piece of every column, and each column joins its pieces
    of the strips, so a relation one tile covers is packed, swapped and
    sliced once."""
    width = side // 8
    nbytes = -(-n // side) * width
    packed = list(map(int.to_bytes, rows, repeat(nbytes), repeat("little")))
    swaps = _swap_masks(side)
    cells = range(0, n * width, width)
    pieces: list[list[bytes]] = []
    # a relation with no rows still has one strip, of empty columns
    for a0 in range(0, max(m, 1), side):
        strip = packed[a0:a0 + side]
        tiles = []
        for c0 in range(0, nbytes, width):
            piece = slice(c0, c0 + width)
            x = int.from_bytes(b"".join(map(getitem, strip, repeat(piece))), "little")
            for delta, mask in swaps:
                d = (x ^ x >> delta) & mask
                x ^= d ^ d << delta
            tiles.append(x.to_bytes(side * width, "little"))
        swapped = b"".join(tiles)
        pieces.append([swapped[c:c + width] for c in cells])
    return list(map(int.from_bytes, map(b"".join, zip(*pieces)), repeat("little")))


def transpose(r: Relation) -> Relation:
    """The converse: ``(b, a)`` iff ``(a, b)``, with ``r``'s rows as its
    ``columns``, so a converse is never transposed back.

    ``branch`` picks the bit loop or the tiles."""
    m, n = r.src_size, r.dst_size
    if m * n > _SHAPE_BITS and branch("transpose", r.rows, n) == "tiles":
        cols = _transpose_tiles(r.rows, m, n, _tile_side(m, n))
    else:
        cols = [0] * n
        for a, row in enumerate(r.rows):
            abit = 1 << a
            while row:
                low = row & -row
                cols[low.bit_length() - 1] |= abit
                row ^= low
    out = Relation._of(n, m, tuple(cols))
    out.__dict__["columns"] = r.rows
    return out


def complement(r: Relation) -> Relation:
    full = (1 << r.dst_size) - 1
    return Relation._of(r.src_size, r.dst_size, tuple(row ^ full for row in r.rows))


def left_residual(r: Relation, t: Relation) -> Relation:
    """Largest ``s`` with ``compose(r, s) <= t``.

    ``(b, c)`` is in ``r\\t`` iff every ``a`` related to ``b`` by ``r`` is
    related to ``c`` by ``t``; computed as a row sweep intersecting ``t``
    rows into the output, the bits of each row read as ``branch`` picks.
    """
    _require(r.src_size == t.src_size, "left_residual", r, t)
    full = (1 << t.dst_size) - 1
    n = r.dst_size
    out = [full] * n
    if r.src_size * n > _SHAPE_BITS and branch("left_residual", r.rows, n) == "bytes":
        width = (n + 7) // 8
        for row, ta in zip(r.rows, t.rows):
            if ta == full or not row:
                continue
            for base, byte in enumerate(row.to_bytes(width, "little")):
                if byte:
                    base *= 8
                    for i in _BYTE_BITS[byte]:
                        out[base + i] &= ta
        return Relation._of(n, t.dst_size, tuple(out))
    for row, ta in zip(r.rows, t.rows):
        if ta == full:
            continue
        while row:
            low = row & -row
            out[low.bit_length() - 1] &= ta
            row ^= low
    return Relation._of(n, t.dst_size, tuple(out))


def right_residual(t: Relation, s: Relation) -> Relation:
    """Largest ``r`` with ``compose(r, s) <= t``.

    ``(a, b)`` is in ``t/s`` iff the ``s``-row of ``b`` is contained in the
    ``t``-row of ``a``.  ``branch`` picks the per-cell subset tests, the
    complement tables of ``_complement_tables``, or the AND-product: column
    ``b`` is the AND of the columns of ``t`` (its cached ``columns`` view)
    over the bits of row ``b`` of ``s``, read by its bytes, every row of
    ``t`` for an empty one, and ``transpose`` turns the columns into rows.
    """
    _require(t.dst_size == s.dst_size, "right_residual", t, s)
    m, k = t.src_size, s.src_size
    kind = "cells" if m * k <= _SHAPE_CELLS else branch("right_residual", s.rows, s.dst_size, m)
    if kind == "cells":
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
        return Relation._of(m, k, tuple(out))
    if kind == "tables":
        return _complement_tables(t, s)
    cols = t.columns
    full = (1 << m) - 1
    width = (s.dst_size + 7) // 8
    ands = []
    for sb in s.rows:
        col = full
        for base, byte in enumerate(sb.to_bytes(width, "little")):
            if byte:
                base *= 8
                for i in _BYTE_BITS[byte]:
                    col &= cols[base + i]
        ands.append(col)
    return transpose(Relation._of(k, m, tuple(ands)))


def _complement_tables(t: Relation, s: Relation) -> Relation:
    """``t/s`` by rows: row ``a`` is the full row of ``k`` bits minus the OR
    of the columns of ``s`` at the columns outside row ``a`` of ``t``.

    The columns are taken eight at a time, as in the "Four Russians" method
    (Albrecht, Bard & Hart, *Algorithm 898*, ACM TOMS 37(1), 2010).  The
    table of a group holds the OR of every subset of its columns, indexed
    by the subset's byte, and is built by doubling, one OR per entry; each
    row's complement then takes one lookup per byte.  One table of at most
    256 rows of ``k`` bits is live at a time, so beside the output's rows
    the branch keeps that table and the complement of each row of ``t`` as
    bytes; no transpose runs."""
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
    return Relation._of(m, k, tuple(full_k ^ x for x in acc))


def subrelation(r: Relation, t: Relation) -> bool:
    """Containment ``r <= t`` of equally-shaped relations."""
    _require(r.shape == t.shape, "subrelation", r, t)
    return all(a & ~b == 0 for a, b in zip(r.rows, t.rows))


def union(r: Relation, t: Relation) -> Relation:
    _require(r.shape == t.shape, "union", r, t)
    return Relation._of(r.src_size, r.dst_size, tuple(a | b for a, b in zip(r.rows, t.rows)))


@dataclass(frozen=True)
class FunctionGraph:
    """Total function ``range(len(targets)) -> range(dst_size)``, stored as
    its target tuple; the graph relation is derived on first use."""

    targets: tuple[int, ...]
    dst_size: int

    def __post_init__(self):
        if self.dst_size < 0:
            raise ValidationError("function sizes must be nonnegative")
        targets = self.targets
        _require_ints(targets, "function targets")
        # every target lies in 0..dst_size - 1: two C-level scans, as in
        # ``Relation``, and the offending target is searched for only on failure
        if targets and (min(targets) < 0 or max(targets) >= self.dst_size):
            a, b = next((a, b) for a, b in enumerate(targets) if not 0 <= b < self.dst_size)
            raise ValidationError(f"target {b} of {a} out of range 0..{self.dst_size - 1}")

    @classmethod
    def _of(cls, targets: tuple[int, ...], dst_size: int) -> "FunctionGraph":
        """The function with these fields, stored unchecked, as
        ``Relation._of``: only for targets in range by construction."""
        out = _new(cls)
        d = out.__dict__
        d["targets"] = targets
        d["dst_size"] = dst_size
        return out

    @classmethod
    def from_targets(cls, targets: Sequence[int], dst_size: int) -> "FunctionGraph":
        return cls(tuple(targets), dst_size)

    @classmethod
    def identity(cls, n: int) -> "FunctionGraph":
        if n < 0:
            raise ValidationError("function sizes must be nonnegative")
        return cls._of(tuple(range(n)), n)

    @view
    def rel(self) -> Relation:
        """The graph: row ``a`` holds the single bit ``targets[a]``."""
        return Relation._of(len(self.targets), self.dst_size, tuple(1 << b for b in self.targets))

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
        return FunctionGraph._of(self.then_targets(other), other.dst_size)

    def then_targets(self, other: "FunctionGraph") -> tuple[int, ...]:
        """The targets of ``self.then(other)``, without building the graph:
        two composites compare as these tuples when their codomains agree."""
        if self.dst_size != len(other.targets):
            raise ShapeError(f"then: incompatible shapes {self.shape} and {other.shape}")
        return tuple(map(other.targets.__getitem__, self.targets))

    def preimages(self, masks: Sequence[int]) -> tuple[int, ...]:
        """The inverse image of each mask, the union of the fibers of its
        bits; bits past the targets are ignored.  With the masks as the rows
        of ``R``, this is ``compose(R, transpose(rel)).rows`` without the two
        relations, by the loop and the reading ``compose`` takes."""
        n = self.dst_size
        reading = "bits" if len(masks) * n <= _SHAPE_BITS else branch("compose", masks, n)
        return _unions(masks, self.fibers, reading)

    def is_identity(self) -> bool:
        return self.targets == tuple(range(self.dst_size))


def pullback(rows: Sequence[int], cols: Sequence[int], psi: FunctionGraph) -> tuple[int, ...]:
    """The rows of ``compose(R, transpose(psi.rel))`` for the relation ``R``
    into ``psi``'s targets with rows ``rows`` and columns ``cols``: row
    ``y`` is ``psi``'s inverse image of row ``y`` of ``R``, and column ``a``
    is column ``psi(a)`` of ``R``.

    ``branch`` picks the loop of ``compose`` over ``psi``'s fibers, reading
    ``rows`` by bits or by bytes, or the gather: the columns read along the
    targets in one C-level ``map`` and turned into rows by ``transpose``.
    Bits of ``rows`` past the targets are ignored either way."""
    k, m = len(rows), len(psi.targets)
    n = psi.dst_size
    kind = "bits" if k * n <= _SHAPE_BITS else branch("pullback", rows, n, m)
    if kind == "gather":
        return transpose(Relation._of(m, k, tuple(map(cols.__getitem__, psi.targets)))).rows
    return _unions(rows, psi.fibers, kind)


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
