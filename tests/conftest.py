import random

import pytest

from conceptual.classification import Classification
from conceptual.colimit import CoproductDiagram, coproduct_sum
from conceptual.infomorphism import FunctionalInfomorphism
from conceptual.relalg import FunctionGraph, Relation


@pytest.fixture
def rng():
    return random.Random(20240817)


@pytest.fixture
def k1():
    return Classification.from_pairs(
        ("1", "2"), ("a", "b"), [("1", "a"), ("2", "a"), ("2", "b")]
    )


def all_contexts(max_inst: int, max_typ: int):
    """Every context with at most the given dimensions, exhaustively."""
    for m in range(max_inst + 1):
        for n in range(max_typ + 1):
            inst = tuple(f"i{k}" for k in range(m))
            typ = tuple(f"t{k}" for k in range(n))
            for code in range(1 << (m * n)):
                rows = tuple(code >> a * n & (1 << n) - 1 for a in range(m))
                yield Classification(inst, typ, Relation(m, n, rows))


# seeded random shapes beyond the exhaustive 3x3: empty carriers on either
# side, thin ones, and up to 8x8
RANDOM_SHAPES = ((0, 5), (5, 0), (1, 8), (8, 1), (5, 7), (7, 5), (8, 8), (8, 8))


def order_from_covers(n: int, covers) -> Relation:
    """Reflexive-transitive closure of the pairs ``(i, j)``, ``i`` below ``j``."""
    up = [1 << i for i in range(n)]
    for _ in range(n):
        for i, j in covers:
            up[i] |= up[j]
    return Relation(n, n, tuple(up))


# bottom 0 < a 1, b 2 < c 3, d 4 < top 5: bounded, but a and b have two minimal
# upper bounds and c and d two maximal lower bounds, so not a lattice
BOWTIE = order_from_covers(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)])


def random_context(rng, m: int, n: int) -> Classification:
    inst = tuple(f"i{k}" for k in range(m))
    typ = tuple(f"t{k}" for k in range(n))
    rows = tuple(rng.getrandbits(n) for _ in range(m))
    return Classification(inst, typ, Relation(m, n, rows))


def duplicated_instance_sum(A, B) -> CoproductDiagram:
    """The sum of A and B with apex instance 0 repeated: the injections stay
    valid, but a cocone can have two mediators, so records fail with a count."""
    d = coproduct_sum(A, B)
    rows = d.apex.rows + d.apex.rows[:1]
    apex = Classification(
        d.apex.instances + ("copy",), d.apex.types, Relation(len(rows), len(d.apex.types), rows)
    )

    def leg(inj):
        return FunctionalInfomorphism(
            inj.source, apex, FunctionGraph(inj.f.targets + inj.f.targets[:1], inj.f.dst_size), inj.g
        )

    return CoproductDiagram(A, B, apex, leg(d.left_injection), leg(d.right_injection), "sum")


# .cxt headers with one negative count, id -> (text, line of the count):
# -100 and -1 as the instance or the type count, after an empty name line or
# with no name line.  Each file ends after the header, so a negative count
# that slipped through would index its lines from the end.
NEGATIVE_COUNT_CXT = {
    f"{n}-{which}-{'named' if named else 'unnamed'}": (
        ("B\n\n" if named else "B\n")
        + ("{}\n{}\n\n".format(*((n, 2) if which == "instances" else (2, n)))),
        (3 if named else 2) + (which == "types"),
    )
    for n in (-100, -1)
    for which in ("instances", "types")
    for named in (True, False)
}
