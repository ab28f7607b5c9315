"""Error types and the check-result value shared across the package."""

from __future__ import annotations

from dataclasses import dataclass

# the most characters of an input value that a message quotes
QUOTE_LIMIT = 60


def quote(value: object) -> str:
    """``repr(value)`` for a message that quotes input, cut to
    ``QUOTE_LIMIT`` characters.

    A longer repr keeps its head and tail around ``...``, so a short value
    reads exactly as ``repr`` and no input is echoed back unbounded.  A
    value ``repr`` cannot render, an int past the digit limit or a nesting
    past the recursion limit, is named by its type."""
    try:
        text = repr(value)
    except (ValueError, RecursionError):
        return f"<{type(value).__name__}>"
    if len(text) <= QUOTE_LIMIT:
        return text
    head = (QUOTE_LIMIT - 3) // 2
    tail = QUOTE_LIMIT - 3 - head
    return text[:head] + "..." + text[-tail:]


class ConceptualError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(ConceptualError):
    """Operands have incompatible shapes, or a field has the wrong one; the
    message names both operands' shapes, or the field's and the one
    expected."""


def require_shape(what: str, got: tuple[int, int], expected: tuple[int, int]) -> None:
    """Raise ``ShapeError("<what> shape <got>, expected <expected>")``
    unless the field ``what`` has the shape ``expected``: the one refusal
    of a wrongly shaped field."""
    if got != expected:
        raise ShapeError(f"{what} shape {got}, expected {expected}")


class ValidationError(ConceptualError):
    """A structural invariant failed; carries a witness when one exists."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class ResourceLimitError(ConceptualError):
    """A configured cap (powerset size, concept count) was exceeded."""


class ParseError(ConceptualError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class CheckResult:
    """Verdict of a structural check, with a minimal witness on failure."""

    ok: bool
    witness: tuple | None = None
    reason: str = ""

    def __bool__(self) -> bool:
        return self.ok

    def require(self, what: str) -> None:
        """Raise ``ValidationError("<what>: <reason>")`` with the witness on failure."""
        if not self.ok:
            raise ValidationError(f"{what}: {self.reason}", witness=self.witness)
