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

An unchecked mode is surface too: only the kinds ``conceptual check``
reads from files, built by ``io.morphism_from_obj``, take ``validate``.
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
    "infomorphism.identity_relational": "a fixture of test_bond, test_cli and test_infomorphism",
    "io.emit_csv": "the writer of the CSV round trip in test_acceptance_9",
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


# the kinds io.morphism_from_obj builds with validate=validate
READ_FROM_FILES = {"FunctionalInfomorphism", "RelationalInfomorphism", "Bond", "BondingPair"}


def classes_with_validate() -> set[str]:
    """The classes of ``src/conceptual`` with a ``validate: InitVar[...]`` field."""
    out = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(field, ast.AnnAssign)
                and isinstance(field.target, ast.Name)
                and field.target.id == "validate"
                and isinstance(field.annotation, ast.Subscript)
                and ast.unparse(field.annotation.value) in ("InitVar", "dataclasses.InitVar")
                for field in node.body
            ):
                out.add(node.name)
    return out


def built_with_validate() -> set[str]:
    """The names ``io.morphism_from_obj`` calls with a ``validate`` keyword."""
    tree = ast.parse((PACKAGE / "io.py").read_text(encoding="utf-8"))
    (fn,) = (n for n in tree.body if getattr(n, "name", None) == "morphism_from_obj")
    return {
        ast.unparse(node.func)
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and any(k.arg == "validate" for k in node.keywords)
    }


def test_only_the_kinds_read_from_files_take_validate():
    assert built_with_validate() == READ_FROM_FILES
    assert classes_with_validate() == READ_FROM_FILES


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
