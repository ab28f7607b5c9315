"""Pinned witnesses of the structural checks on failing inputs.

Each input fails in several rows and several bits, so the pinned value is
the first failing row, then its lowest failing bit, and not some other
failure the check could have named.
"""

import pytest

from conceptual.bond import Bond, is_bond
from conceptual.classification import (
    Classification,
    chain_classification,
    check_preorder,
    contranominal_classification,
)
from conceptual.errors import ShapeError, ValidationError
from conceptual.functors import (
    CompleteLattice,
    CompleteHomomorphism,
    ConceptLatticeMorphism,
    is_complete_homomorphism,
)
from conceptual.infomorphism import (
    FunctionalInfomorphism,
    RelationalInfomorphism,
    check_functional,
    check_relational,
)
from conceptual.lattice import concept_lattice_of
from conceptual.relalg import FunctionGraph, Relation

fg = FunctionGraph.from_targets


def context(rows, m, n):
    inst = tuple(f"i{k}" for k in range(m))
    typ = tuple(f"t{k}" for k in range(n))
    return Classification(inst, typ, Relation(m, n, tuple(rows)))


A = context((0b0011, 0b0110, 0b1100, 0b1001), 4, 4)
B = context((0b011, 0b101, 0b110, 0b001, 0b111), 5, 3)
CHAIN3 = CompleteLattice(("0", "1", "2"), Relation(3, 3, (0b111, 0b110, 0b100)))
SQUARE = CompleteLattice(tuple("0ab1"), Relation(4, 4, (0b1111, 0b1010, 0b1100, 0b1000)))


def test_check_functional():
    m = FunctionalInfomorphism(A, A, fg((2, 1, 1, 2), 4), fg((3, 3, 1, 1), 4), validate=False)
    verdict = check_functional(m)
    assert verdict.witness == ("i1", "t1")
    assert verdict.reason == "fundamental property fails"
    with pytest.raises(ValidationError) as exc:
        FunctionalInfomorphism(A, A, m.f, m.g)
    assert exc.value.witness == ("i1", "t1")


def test_check_relational():
    r = Relation(4, 4, (12, 1, 10, 15))
    s = Relation(4, 4, (15, 4, 14, 5))
    verdict = check_relational(RelationalInfomorphism(A, A, r, s, validate=False))
    assert verdict.witness == ("i1", "t1")
    assert verdict.reason == "residuals differ"


def test_is_bond_row():
    rel = Relation(5, 4, (0b0011, 0b0101, 0b1111, 0b0000, 0b0110))
    verdict = is_bond(A, B, rel)
    assert verdict.witness == ("row", "i1")
    assert verdict.reason == "row of 'i1' is not an intent of the source"


def test_is_bond_column():
    # every row is an intent of A; columns t1, t2 and t3 are not extents of B
    verdict = is_bond(A, B, Relation(5, 4, (4, 4, 12, 6, 1)))
    assert verdict.witness == ("column", "t1")
    assert verdict.reason == "column of 't1' is not an extent of the target"


def test_check_lattice_morphism_on_complete_lattices():
    # the adjoint pair (phi, psi) is the morphism with f = phi and g = psi:
    # phi(1) = 0 <= a, but 1 is not below psi(a) = 0
    phi, psi = fg((0, 0, 1), 4), fg((1, 0, 0, 1), 3)
    with pytest.raises(ValidationError) as exc:
        ConceptLatticeMorphism(SQUARE, CHAIN3, phi, psi, phi, psi)
    assert exc.value.witness == (1, 1)
    assert str(exc.value) == "not a concept lattice morphism: adjointness fails"


def test_complete_lattice_morphism_with_f_not_phi_is_refused():
    # the identity of CHAIN3 is adjoint to itself, and the instance square
    # holds only with f = phi, the embeddings being identities
    ident = fg((0, 1, 2), 3)
    message = "^not a concept lattice morphism: phi does not preserve instance concepts$"
    with pytest.raises(ValidationError, match=message):
        ConceptLatticeMorphism(CHAIN3, CHAIN3, ident, ident, fg((0, 0, 2), 3), ident)


def test_complete_lattice_morphism_with_g_not_psi_is_refused():
    # the type square of two complete lattices holds only with g = psi
    ident = fg((0, 1, 2), 3)
    message = "^not a concept lattice morphism: psi does not preserve type concepts$"
    with pytest.raises(ValidationError, match=message):
        ConceptLatticeMorphism(CHAIN3, CHAIN3, ident, ident, ident, fg((0, 2, 2), 3))


def test_check_lattice_morphism():
    LA = concept_lattice_of(contranominal_classification(2))
    LB = concept_lattice_of(chain_classification(3))
    with pytest.raises(ValidationError) as exc:
        ConceptLatticeMorphism(
            LA, LB, fg((2, 0, 0), 4), fg((0, 1, 0, 1), 3), fg((0, 1, 1), 2), fg((0, 2), 3)
        )
    assert exc.value.witness == (1, 1)
    assert str(exc.value) == "not a concept lattice morphism: adjointness fails"


def test_check_preorder_transitivity():
    leq = Relation(5, 5, (7, 22, 12, 26, 28))
    with pytest.raises(ValidationError, match="not transitive") as exc:
        check_preorder(leq, tuple("vwxyz"))
    assert exc.value.witness == ("y", "w", "x")


def test_complete_homomorphism_names_the_target_element():
    # a, b -> 1 keeps top and bottom, but the preimage of up(1) is {a, b, 1}
    verdict = is_complete_homomorphism(SQUARE, CHAIN3, fg((0, 1, 1, 2), 3))
    assert verdict.witness == ("meet", "1")
    assert verdict.reason == "a meet is not preserved"
    # a -> 0, b -> 1 keeps every meet, but the preimage of down(1) is {0, a, b}
    psi = fg((0, 0, 1, 2), 3)
    assert is_complete_homomorphism(SQUARE, CHAIN3, psi).witness == ("join", "1")
    message = "^not a complete homomorphism: a join is not preserved$"
    with pytest.raises(ValidationError, match=message):
        CompleteHomomorphism(SQUARE, CHAIN3, psi)


LA = concept_lattice_of(contranominal_classification(2))
LB = concept_lattice_of(chain_classification(3))
# each morphism class with one map of the wrong shape -> the error's message
WRONG_SHAPES = {
    "functional-f": (
        lambda: FunctionalInfomorphism(A, B, fg((0,) * 4, 4), fg((0,) * 4, 3)),
        "instance function shape (4, 4) does not map target instances to source instances",
    ),
    "functional-g": (
        lambda: FunctionalInfomorphism(A, B, fg((0,) * 5, 4), fg((0,) * 3, 3)),
        "type function shape (3, 3) does not map source types to target types",
    ),
    "relational-r": (
        lambda: RelationalInfomorphism(A, B, Relation.empty(4, 4), Relation.empty(4, 3)),
        "instance relation shape (4, 4) is wrong",
    ),
    "relational-s": (
        lambda: RelationalInfomorphism(A, B, Relation.empty(4, 5), Relation.empty(3, 3)),
        "type relation shape (3, 3) is wrong",
    ),
    "bond": (
        lambda: Bond(A, B, Relation.empty(4, 4)),
        "bond relation shape (4, 4), expected (5, 4)",
    ),
    "lattice-morphism-phi": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 4, 4), fg((0,) * 4, 3), fg((0,) * 3, 2), fg((0,) * 2, 3)
        ),
        "phi shape (4, 4) is wrong",
    ),
    "lattice-morphism-psi": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 3, 4), fg((0,) * 3, 3), fg((0,) * 3, 2), fg((0,) * 2, 3)
        ),
        "psi shape (3, 3) is wrong",
    ),
    "lattice-morphism-f": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 3, 4), fg((0,) * 4, 3), fg((0,) * 2, 2), fg((0,) * 2, 3)
        ),
        "f shape (2, 2) is wrong",
    ),
    "lattice-morphism-g": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 3, 4), fg((0,) * 4, 3), fg((0,) * 3, 2), fg((0,) * 2, 2)
        ),
        "g shape (2, 2) is wrong",
    ),
    # an adjoint pair between complete lattices, f and g being phi and psi
    "adjoint-phi": (
        lambda: ConceptLatticeMorphism(
            SQUARE, CHAIN3, fg((0,) * 4, 4), fg((0,) * 4, 3), fg((0,) * 4, 4), fg((0,) * 4, 3)
        ),
        "phi shape (4, 4) is wrong",
    ),
    "adjoint-psi": (
        lambda: ConceptLatticeMorphism(
            SQUARE, CHAIN3, fg((0,) * 3, 4), fg((0,) * 3, 3), fg((0,) * 3, 4), fg((0,) * 3, 3)
        ),
        "psi shape (3, 3) is wrong",
    ),
    "complete-homomorphism": (
        lambda: CompleteHomomorphism(SQUARE, CHAIN3, fg((0,) * 3, 3)),
        "psi shape (3, 3) is wrong",
    ),
}


@pytest.mark.parametrize("build, message", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
def test_wrong_shape_is_a_shape_error(build, message):
    """A map of the wrong shape is refused before any check runs."""
    with pytest.raises(ShapeError) as exc:
        build()
    assert str(exc.value) == message
