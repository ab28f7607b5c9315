"""Boolean relation algebra, classifications, concept lattices, bonds, and
executable equivalences between the relational and conceptual views."""

from .classification import (
    Classification,
    antichain_classification,
    chain_classification,
    contranominal_classification,
    dual,
    extent_of,
    instance_preorder,
    intent_of,
    powerset_classification,
    preorder_as_classification,
    type_preorder,
)
from .errors import (
    CheckResult,
    ConceptualError,
    ParseError,
    ResourceLimitError,
    ShapeError,
    ValidationError,
)
from .lattice import (
    ConceptLattice,
    FormalConcept,
    build_lattice,
    concept_lattice_of,
    decomposition_check,
    instance_concept,
    join,
    meet,
    type_concept,
)
from .relalg import (
    FunctionGraph,
    Relation,
    complement,
    compose,
    identity,
    left_residual,
    right_residual,
    transpose,
)

__version__ = "0.1.0"

__all__ = [
    "CheckResult",
    "Classification",
    "ConceptLattice",
    "ConceptualError",
    "FormalConcept",
    "FunctionGraph",
    "ParseError",
    "Relation",
    "ResourceLimitError",
    "ShapeError",
    "ValidationError",
    "antichain_classification",
    "build_lattice",
    "chain_classification",
    "complement",
    "compose",
    "concept_lattice_of",
    "contranominal_classification",
    "decomposition_check",
    "dual",
    "extent_of",
    "identity",
    "instance_concept",
    "instance_preorder",
    "intent_of",
    "join",
    "left_residual",
    "meet",
    "powerset_classification",
    "preorder_as_classification",
    "right_residual",
    "transpose",
    "type_concept",
    "type_preorder",
]
