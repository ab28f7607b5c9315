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
its own ``__init__``, each checks in ``__post_init__``.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import conceptual

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
