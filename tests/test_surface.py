"""Every definition of the package is reached, public, or allowlisted.

A top-level function or class of ``src/conceptual``, or a method of one
whose name is not a dunder, passes when one of these holds:

- its name is read in ``src/conceptual/*.py`` or ``perfbench/*.py``: as a
  name, an attribute or an imported name, and a method's only as an
  attribute or an imported name, for a local variable of the same name
  reads no method.  A ``def`` or ``class`` statement reads nothing, so a
  definition's own name does not count;
- it is in ``conceptual.__all__``, or is a method of a class there;
- it is in ``UNREACHED``, with the reason it stays.

An ``UNREACHED`` entry that is reached or no longer defined fails as well,
so the list only shrinks as its definitions gain readers or go.

An unchecked mode is surface too.  A value is stored unchecked only by its
class's private ``_of``, so no class declares an ``InitVar`` switch, and
the one public ``validate`` parameter is ``io.morphism_from_obj``'s, which
picks between a constructor and ``_of`` for what ``conceptual check``
reads from files.  The checked path has one form too: no dataclass writes
its own ``__init__``, each checks in ``__post_init__``.  So has the
unchecked one: every ``_of`` stores its fields into the instance dict, one
subscript store per key, and no module calls ``object.__setattr__``.

Each module imports alone, in a fresh interpreter, and no line of the
package, the tests or the tools passes 100 columns.  No test module but
``tests/hypothesis_or_skip.py`` imports ``hypothesis``, so the suite runs
without it.
"""

import ast
import dataclasses
import importlib
import importlib.util
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import conceptual
from conceptual.bond import Bond, BondingPair, close_to_bond
from conceptual.classification import Classification
from conceptual.colimit import enumerate_infomorphisms
from conceptual.infomorphism import FunctionalInfomorphism, RelationalInfomorphism, fn2rel
from conceptual.lattice import ConceptLattice, build_lattice
from conceptual.relalg import FunctionGraph, Relation
from conceptual.report import CheckRecord

from conftest import boolean_hom, random_context
from oracles import random_relation

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "conceptual"
READERS = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
TRACER = ROOT / "perfbench" / "tracer.py"

PAPER_CLAIM = "a paper claim that no verify family checks yet (ROADMAP item 3)"
UNREACHED = {
    "bond.mediating_function": PAPER_CLAIM,
    "bond.collective_from_function": PAPER_CLAIM,
    "bond.collective_transport": PAPER_CLAIM,
    "relalg.subrelation": PAPER_CLAIM + ": the order of collective concepts, by their views r",
    "colimit.fiber_initial": PAPER_CLAIM,
    "colimit.fiber_terminal": PAPER_CLAIM,
    "bond.infomorphism_of": PAPER_CLAIM + ": bonds as relational infomorphisms",
    "bond.bonds_equivalent": PAPER_CLAIM + ": bonds as relational infomorphisms",
}


def definitions() -> dict[str, tuple[str, str | None]]:
    """``module.name`` or ``module.Class.method`` -> (name, class or None)."""
    out = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            out[f"{path.stem}.{node.name}"] = (node.name, None)
            if isinstance(node, ast.ClassDef):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not (
                        m.name.startswith("__") and m.name.endswith("__")
                    ):
                        out[f"{path.stem}.{node.name}.{m.name}"] = (m.name, node.name)
    return out


def names_read() -> tuple[set[str], set[str]]:
    """The names read as bare names, then those read as attributes or
    imported names."""
    names, attributes = set(), set()
    for path in READERS:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                attributes.add(node.name.rpartition(".")[2])
    return names, attributes


def unreached(allowlist) -> list[str]:
    """The definitions that pass none of the three tests."""
    (names, attributes), public = names_read(), set(conceptual.__all__)
    return [
        key
        for key, (name, cls) in definitions().items()
        if name not in attributes
        and (cls or name not in names)
        and (cls or name) not in public
        and key not in allowlist
    ]


def stale(allowlist) -> list[str]:
    """The allowlist entries that are reached or defined no more."""
    flagged = set(unreached(()))
    return [key for key in allowlist if key not in flagged]


def test_every_definition_is_reached_public_or_allowlisted():
    assert unreached(UNREACHED) == []


def test_the_allowlist_has_no_stale_entry():
    assert stale(UNREACHED) == []


def test_reached_public_and_missing_entries_are_stale():
    entries = {"lattice.check_lattice": "", "lattice.build_lattice": "", "io.gone": ""}
    assert stale(entries) == list(entries)


def package_trees() -> dict[str, ast.Module]:
    """Module name -> syntax tree, for each module of ``src/conceptual``."""
    return {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }


def classes_with_init_vars(trees) -> set[str]:
    """``module.Class`` for each class with a field annotated ``InitVar``."""
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            isinstance(field, ast.AnnAssign) and "InitVar" in ast.unparse(field.annotation)
            for field in node.body
        )
    }


def functions_with_validate(trees) -> set[str]:
    """``module.name`` for each function or method with a ``validate``
    parameter."""
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(
            a.arg == "validate"
            for a in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        )
    }


def test_no_class_declares_an_init_var():
    assert classes_with_init_vars(package_trees()) == set()


def test_only_morphism_from_obj_takes_validate():
    assert functions_with_validate(package_trees()) == {"io.morphism_from_obj"}


def test_a_validate_switch_is_found():
    """Both finders see the switch the four arrow classes used to carry."""
    tree = ast.parse(
        "class Bond:\n"
        "    rel: Relation\n"
        "    validate: InitVar[bool] = True\n"
        "    def __post_init__(self, validate: bool):\n"
        "        pass\n"
        "def read(obj, *, validate=True):\n"
        "    pass\n"
    )
    assert classes_with_init_vars({"bond": tree}) == {"bond.Bond"}
    assert functions_with_validate({"bond": tree}) == {"bond.__post_init__", "bond.read"}


def dataclasses_with_init(trees) -> set[str]:
    """``module.Class`` for each class decorated ``@dataclass``, called or
    not, whose own body defines ``__init__``."""
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(
            ast.unparse(d.func if isinstance(d, ast.Call) else d).endswith("dataclass")
            for d in node.decorator_list
        )
        and any(isinstance(m, ast.FunctionDef) and m.name == "__init__" for m in node.body)
    }


def test_no_dataclass_writes_its_own_init():
    """A dataclass checks its fields in ``__post_init__`` after the
    generated ``__init__`` stores them, and stores unchecked through
    ``_of``.  ``functors.CompleteLattice`` is an undecorated subclass and
    keeps its ``(elements, leq)`` constructor."""
    assert dataclasses_with_init(package_trees()) == set()


def test_a_hand_written_dataclass_init_is_found():
    """The finder sees the constructor ``Relation`` used to write, and
    passes a plain dataclass and an undecorated subclass."""
    tree = ast.parse(
        "@dataclass(frozen=True, init=False)\n"
        "class Relation:\n"
        "    rows: tuple\n"
        "    def __init__(self, rows):\n"
        "        pass\n"
        "@dataclasses.dataclass\n"
        "class Bond:\n"
        "    def __init__(self):\n"
        "        pass\n"
        "@dataclass(frozen=True)\n"
        "class FunctionGraph:\n"
        "    targets: tuple\n"
        "class CompleteLattice(Relation):\n"
        "    def __init__(self, elements, leq):\n"
        "        pass\n"
    )
    assert dataclasses_with_init({"relalg": tree}) == {"relalg.Relation", "relalg.Bond"}


def setattr_stores(trees) -> list[str]:
    """``module:line``, in order, for each line that reads
    ``object.__setattr__`` or a name ``_setattr``: a call, or an alias that
    would make one."""
    found = {
        (module, node.lineno)
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__setattr__")
        or (isinstance(node, ast.Name) and node.id == "_setattr")
    }
    return [f"{module}:{line}" for module, line in sorted(found)]


def test_no_module_stores_through_setattr():
    assert setattr_stores(package_trees()) == []


def test_a_setattr_store_is_found():
    """The finder sees the alias and both calls the ``_of``s used to make,
    and passes a store into the instance dict."""
    tree = ast.parse(
        "_setattr = object.__setattr__\n"
        "def _of(cls, rows):\n"
        "    out = _new(cls)\n"
        "    _setattr(out, 'rows', rows)\n"
        "    object.__setattr__(out, 'columns', rows)\n"
        "    out.__dict__['rows'] = rows\n"
        "    return out\n"
    )
    assert setattr_stores({"relalg": tree}) == ["relalg:1", "relalg:4", "relalg:5"]


def classes_with_of(trees) -> set[str]:
    """``module.Class`` for each class whose own body defines ``_of``."""
    return {
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(m, ast.FunctionDef) and m.name == "_of" for m in node.body)
    }


def seeded_values(rng) -> dict[type, object]:
    """One checked value of each class with an ``_of``, from ``rng``."""
    A, B = random_context(rng, 3, 3), random_context(rng, 2, 3)
    K = Classification(A.instances, A.types, random_relation(rng, 3, 3))
    m = rng.choice(list(enumerate_infomorphisms(A, A)))
    values = [
        K.incidence,
        FunctionGraph(tuple(rng.randrange(4) for _ in range(5)), 4),
        K,
        build_lattice(K),
        Bond(A, B, close_to_bond(A, B, random_relation(rng, 2, 3))),
        boolean_hom(3, 2, tuple(rng.sample(range(3), 2))).pair,
        m,
        fn2rel(m),
        CheckRecord("sum-transport", f"target-0-cocone-{rng.randrange(9)}-0", "fail", "w"),
    ]
    return {type(v): v for v in values}


OF_CLASSES = seeded_values(random.Random(11))


def test_the_classes_with_an_of_are_the_nine():
    assert classes_with_of(package_trees()) == {
        f"{cls.__module__.rpartition('.')[2]}.{cls.__name__}" for cls in OF_CLASSES
    }


@pytest.mark.parametrize("cls", OF_CLASSES, ids=lambda cls: cls.__name__)
def test_of_stores_what_the_constructor_stores(cls):
    """From the fields of a checked value, ``_of`` and the checking
    constructor build equal values of one hash; the one ``_of`` builds
    holds exactly the fields in its instance dict, and neither takes an
    assignment to a field."""
    names = [f.name for f in dataclasses.fields(cls)]
    fields = [getattr(OF_CLASSES[cls], name) for name in names]
    checked, unchecked = cls(*fields), cls._of(*fields)
    assert unchecked == checked and hash(unchecked) == hash(checked)
    assert vars(unchecked) == dict(zip(names, fields))
    assert list(vars(unchecked)) == names
    for value in (checked, unchecked):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, names[0], fields[0])


def tracer_layers() -> dict[str, list[str]]:
    """``LAYERS`` of the benchmark's tracer: span name -> hook targets."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def unresolved_hooks(layers) -> list[str]:
    """The targets the tracer cannot wrap: a ``module:name`` target must be
    an attribute of the module, and a ``module:Class.attr`` target an entry
    of the class's own ``__dict__``, which is where the tracer looks."""
    out = []
    for targets in layers.values():
        for target in targets:
            mod_name, attr = target.split(":")
            try:
                module = importlib.import_module(f"conceptual.{mod_name}")
            except ImportError:
                out.append(target)
                continue
            if "." in attr:
                cls_name, name = attr.split(".")
                found = name in vars(getattr(module, cls_name, object))
            else:
                found = hasattr(module, attr)
            if not found:
                out.append(target)
    return out


def test_every_tracer_hook_resolves():
    assert unresolved_hooks(tracer_layers()) == []


def test_inherited_and_missing_hooks_are_unresolved():
    layers = {
        "inherited": ["functors:CompleteLattice.covers", "functors:CompleteLattice.__post_init__"],
        "missing": ["functors:gone", "gone:compose", "lattice:Gone.covers"],
    }
    assert unresolved_hooks(layers) == [
        "functors:CompleteLattice.covers",
        "functors:gone",
        "gone:compose",
        "lattice:Gone.covers",
    ]


# -- imports and width ----------------------------------------------------------

MODULES = ["conceptual"] + [
    f"conceptual.{path.stem}" for path in sorted(PACKAGE.glob("*.py")) if path.stem != "__init__"
]


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    """Some modules import others when first used, so each is imported
    first in a fresh interpreter, as a user's script would."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(PACKAGE.parent), env.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", f"import {module}"], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr


def long_lines(paths, width: int = 100) -> list[str]:
    """``path:line: columns`` for each line of ``paths`` wider than ``width``."""
    return [
        f"{path.relative_to(ROOT)}:{n}: {len(line)} columns"
        for path in paths
        for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if len(line) > width
    ]


def test_no_source_line_passes_100_columns():
    """A shorter module must not be a wider one, so line counts stay honest;
    the tests and tools are held to the same width."""
    dirs = ("src/conceptual", "tests", "tools")
    assert long_lines(p for d in dirs for p in sorted((ROOT / d).glob("*.py"))) == []


def hypothesis_imports(trees) -> set[str]:
    """Each module of ``trees`` that imports ``hypothesis``, or a submodule
    of it, by an ``import`` or an absolute ``from`` statement."""
    return {
        module
        for module, tree in trees.items()
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "hypothesis" for alias in node.names)
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.level == 0
            and node.module.split(".")[0] == "hypothesis"
        )
    }


def test_only_hypothesis_or_skip_imports_hypothesis():
    """CI's tests-without-hypothesis job runs the suite with no
    ``hypothesis`` installed.  Through ``hypothesis_or_skip`` each
    ``@given`` test skips there; a module that imported ``hypothesis``
    itself would fail to collect, and its seeded tests would not run."""
    trees = {
        path.stem: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted((ROOT / "tests").glob("*.py"))
    }
    assert hypothesis_imports(trees) == {"hypothesis_or_skip"}


def test_a_direct_hypothesis_import_is_found():
    sources = {
        "plain": "import hypothesis",
        "submodule": "import pytest, hypothesis.strategies as st",
        "from": "from hypothesis import given",
        "from_submodule": "from hypothesis.strategies import integers",
        "stand_ins": "from hypothesis_or_skip import given, st",
        "relative": "from .hypothesis import given",
        "other": "import hypothesis_extra",
    }
    trees = {module: ast.parse(text) for module, text in sources.items()}
    assert hypothesis_imports(trees) == {"plain", "submodule", "from", "from_submodule"}
