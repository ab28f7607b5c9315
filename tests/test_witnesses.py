"""Pinned witnesses of the structural checks on failing inputs.

Each input fails in several rows and several bits, so the pinned value is
the first failing row, then its lowest failing bit, and not some other
failure the check could have named.
"""

import re
from types import SimpleNamespace

import pytest

from conceptual.bond import (
    Bond,
    BondingPair,
    close_to_bond,
    collective_from_function,
    collective_transport,
    compose_bonding_pairs,
    identity_bond,
    identity_bonding_pair,
    is_bond,
    is_bonding_pair,
)
from conceptual.classification import (
    Classification,
    chain_classification,
    check_preorder,
    contranominal_classification,
    extent_of,
    intent_of,
)
from conceptual.colimit import (
    DualInvariant,
    apposition,
    check_dual_invariant,
    coproduct_mediator,
    coproduct_sum,
)
from conceptual.errors import ShapeError, ValidationError
from conceptual.functors import (
    CompleteLattice,
    CompleteHomomorphism,
    ConceptLatticeMorphism,
    compose_homs,
    compose_lattice_morphisms,
    identity_hom,
    identity_lattice_morphism,
    is_complete_homomorphism,
)
from conceptual.infomorphism import (
    FunctionalInfomorphism,
    RelationalInfomorphism,
    check_functional,
    check_relational,
    identity_functional,
)
from conceptual.io import morphism_to_obj
from conceptual.lattice import concept_lattice_of
from conceptual.relalg import FunctionGraph, Relation, identity

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
    m = FunctionalInfomorphism._of(A, A, fg((2, 1, 1, 2), 4), fg((3, 3, 1, 1), 4))
    verdict = check_functional(m)
    assert verdict.witness == ("i1", "t1")
    assert verdict.reason == "fundamental property fails"
    with pytest.raises(ValidationError) as exc:
        FunctionalInfomorphism(A, A, m.f, m.g)
    assert exc.value.witness == ("i1", "t1")


def test_check_relational():
    r = Relation(4, 4, (12, 1, 10, 15))
    s = Relation(4, 4, (15, 4, 14, 5))
    verdict = check_relational(RelationalInfomorphism._of(A, A, r, s))
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
        "instance function shape (4, 4), expected (5, 4)",
    ),
    "functional-g": (
        lambda: FunctionalInfomorphism(A, B, fg((0,) * 5, 4), fg((0,) * 3, 3)),
        "type function shape (3, 3), expected (4, 3)",
    ),
    "relational-r": (
        lambda: RelationalInfomorphism(A, B, Relation.empty(4, 4), Relation.empty(4, 3)),
        "instance relation shape (4, 4), expected (4, 5)",
    ),
    "relational-s": (
        lambda: RelationalInfomorphism(A, B, Relation.empty(4, 5), Relation.empty(3, 3)),
        "type relation shape (3, 3), expected (4, 3)",
    ),
    "bond": (
        lambda: Bond(A, B, Relation.empty(4, 4)),
        "bond relation shape (4, 4), expected (5, 4)",
    ),
    "lattice-morphism-phi": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 4, 4), fg((0,) * 4, 3), fg((0,) * 3, 2), fg((0,) * 2, 3)
        ),
        "phi shape (4, 4), expected (3, 4)",
    ),
    "lattice-morphism-psi": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 3, 4), fg((0,) * 3, 3), fg((0,) * 3, 2), fg((0,) * 2, 3)
        ),
        "psi shape (3, 3), expected (4, 3)",
    ),
    "lattice-morphism-f": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 3, 4), fg((0,) * 4, 3), fg((0,) * 2, 2), fg((0,) * 2, 3)
        ),
        "f shape (2, 2), expected (3, 2)",
    ),
    "lattice-morphism-g": (
        lambda: ConceptLatticeMorphism(
            LA, LB, fg((0,) * 3, 4), fg((0,) * 4, 3), fg((0,) * 3, 2), fg((0,) * 2, 2)
        ),
        "g shape (2, 2), expected (2, 3)",
    ),
    # an adjoint pair between complete lattices, f and g being phi and psi
    "adjoint-phi": (
        lambda: ConceptLatticeMorphism(
            SQUARE, CHAIN3, fg((0,) * 4, 4), fg((0,) * 4, 3), fg((0,) * 4, 4), fg((0,) * 4, 3)
        ),
        "phi shape (4, 4), expected (3, 4)",
    ),
    "adjoint-psi": (
        lambda: ConceptLatticeMorphism(
            SQUARE, CHAIN3, fg((0,) * 3, 4), fg((0,) * 3, 3), fg((0,) * 3, 4), fg((0,) * 3, 3)
        ),
        "psi shape (3, 3), expected (4, 3)",
    ),
    "complete-homomorphism": (
        lambda: CompleteHomomorphism(SQUARE, CHAIN3, fg((0,) * 3, 3)),
        "psi shape (3, 3), expected (4, 3)",
    ),
    "complete-lattice-order": (
        lambda: CompleteLattice(("x", "y"), Relation.full(3, 3)),
        "order shape (3, 3), expected (2, 2)",
    ),
    "is-bond": (
        lambda: is_bond(A, B, Relation.empty(4, 4)),
        "bond relation shape (4, 4), expected (5, 4)",
    ),
    "bond-seed": (
        lambda: close_to_bond(A, B, Relation.empty(4, 4)),
        "bond seed shape (4, 4), expected (5, 4)",
    ),
    # a function into a lattice of 3 elements where ``LA`` has 4
    "collective-function": (
        lambda: collective_from_function(LA, fg((0, 2), 3)),
        "function shape (2, 3), expected (2, 4)",
    ),
    "bonding-pair-ends": (
        lambda: BondingPair(identity_bond(A), identity_bond(B)),
        "bonding pair endpoints do not oppose each other",
    ),
    "is-bonding-pair-ends": (
        lambda: is_bonding_pair(identity_bond(A), identity_bond(B)),
        "bonds do not oppose each other",
    ),
    "compose-bonding-pairs": (
        lambda: compose_bonding_pairs(identity_bonding_pair(A), identity_bonding_pair(B)),
        "compose_bonding_pairs: middle classifications differ",
    ),
    "compose-lattice-morphisms": (
        lambda: compose_lattice_morphisms(
            identity_lattice_morphism(LA), identity_lattice_morphism(LB)
        ),
        "compose_lattice_morphisms: middle lattices differ",
    ),
    "compose-homs": (
        lambda: compose_homs(identity_hom(SQUARE), identity_hom(CHAIN3)),
        "compose_homs: middle lattices differ",
    ),
    "dual-invariant": (
        lambda: check_dual_invariant(A, DualInvariant(0, Relation.empty(3, 3))),
        "type relation shape (3, 3), expected (4, 4)",
    ),
    "dual-invariant-kept": (
        lambda: check_dual_invariant(A, DualInvariant(1 << 4, Relation.empty(4, 4))),
        "kept instance set out of range",
    ),
    "mediator-ends": (
        lambda: coproduct_mediator(
            coproduct_sum(A, B), identity_functional(B), identity_functional(B)
        ),
        "cocone endpoints do not match the diagram",
    ),
    "then": (
        lambda: fg((0,), 2).then(fg((0,), 1)),
        "then: incompatible shapes (1, 2) and (1, 1)",
    ),
}


@pytest.mark.parametrize("build, message", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES))
def test_wrong_shape_is_a_shape_error(build, message):
    """A map of the wrong shape is refused before any check runs."""
    with pytest.raises(ShapeError) as exc:
        build()
    assert str(exc.value) == message


# a wrongly shaped field, refused by ``errors.require_shape``; the other rows
# of ``WRONG_SHAPES`` refuse operands or endpoints that do not meet
FIELD_SHAPE = re.compile(r"[a-z ]+ shape \(\d+, \d+\), expected \(\d+, \d+\)")


def test_each_wrong_field_names_the_shape_expected():
    fields = [key for key, (_, message) in WRONG_SHAPES.items() if FIELD_SHAPE.fullmatch(message)]
    assert fields == [
        "functional-f",
        "functional-g",
        "relational-r",
        "relational-s",
        "bond",
        "lattice-morphism-phi",
        "lattice-morphism-psi",
        "lattice-morphism-f",
        "lattice-morphism-g",
        "adjoint-phi",
        "adjoint-psi",
        "complete-homomorphism",
        "complete-lattice-order",
        "is-bond",
        "bond-seed",
        "collective-function",
        "dual-invariant",
    ]


# the other refusals of bad arguments: the exception and its message
ROTATION = FunctionalInfomorphism(A, A, fg((1, 2, 3, 0), 4), fg((3, 0, 1, 2), 4))
REFUSED = {
    "intent-of": (lambda: intent_of(A, 1 << 4), ValidationError, "instance set out of range"),
    "extent-of": (lambda: extent_of(A, -1), ValidationError, "type set out of range"),
    "identity": (lambda: identity(-1), ValidationError, "identity size must be nonnegative"),
    # two legs of a cocone over an apposition must share their instance map
    "mediator-legs": (
        lambda: coproduct_mediator(apposition(A, A), identity_functional(A), ROTATION),
        ValidationError,
        "fiber cocone legs disagree on instances",
    ),
    "transport-side": (
        lambda: collective_transport(identity_bond(A), Relation.empty(4, 4), "up"),
        ValueError,
        "side must be 'left' or 'right', got 'up'",
    ),
    "serialize": (
        lambda: morphism_to_obj(SimpleNamespace(source=A, target=B)),
        TypeError,
        "cannot serialize SimpleNamespace",
    ),
    # the type is read before any field, so a value with no ``source`` too
    "serialize-int": (lambda: morphism_to_obj(5), TypeError, "cannot serialize int"),
}


@pytest.mark.parametrize("build, error, message", list(REFUSED.values()), ids=list(REFUSED))
def test_bad_argument_is_refused_with_its_message(build, error, message):
    with pytest.raises(error) as exc:
        build()
    assert exc.type is error and str(exc.value) == message
