"""Hypothesis properties of the command line, run in process through
``main``.  A seeded valid input of each format ``conceptual`` reads (a
``.cxt``, CSV or JSON context, a bond, a dual invariant), mutated by a few
edits, exits cleanly from every command that reads it: 0 or 3, or 1 where
``check`` finds a well-formed bond that is no bond, and no exception escapes
``main``.  A valid JSON file of each schema ``io`` reads (a classification,
the four morphism kinds, an invariant) with one field deleted or set to a
value of the wrong type exits 3 with one line that names the field and holds
no Python text."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis_or_skip import given, settings, st

from conceptual.bond import identity_bond, identity_bonding_pair
from conceptual.classification import Classification
from conceptual.cli import main
from conceptual.infomorphism import identity_functional
from conceptual.io import classification_to_obj, dumps, emit_cxt, morphism_to_obj

from conftest import emit_csv, identity_relational
from test_cli import _mutate

K = Classification.from_pairs(
    ("1", "2", "3"), ("a", "b", "c"), [("1", "a"), ("2", "a"), ("2", "b"), ("3", "c")]
)
# file name -> its valid text
VALID = {
    "k.cxt": emit_cxt(K),
    "k.csv": emit_csv(K),
    "k.json": json.dumps(classification_to_obj(K)),
    "bond.json": dumps(morphism_to_obj(identity_bond(K))),
    "invariant.json": json.dumps({"kept_instances": ["2", "3"], "related_types": [["a", "b"]]}),
}
CONTEXTS = ("k.cxt", "k.csv", "k.json")


def commands(mutated: str) -> list[list[str]]:
    """The argument lists that read the file ``mutated``; every other file
    they name is valid."""
    if mutated in CONTEXTS:
        return [
            ["lattice", mutated],
            ["lattice", mutated, "--dot"],
            ["dual", mutated],
            ["sum", mutated, "k.cxt"],
            ["quotient", mutated, "invariant.json"],
        ]
    if mutated == "bond.json":
        return [["check", "bond", mutated]]
    return [["quotient", "k.cxt", mutated]]


@settings(max_examples=150, deadline=None, database=None)
@given(st.sampled_from(sorted(VALID)), st.randoms(use_true_random=False))
def test_mutated_inputs_exit_cleanly(name, rnd):
    with tempfile.TemporaryDirectory() as workdir:
        root = Path(workdir)
        for other, text in VALID.items():
            (root / other).write_text(text, encoding="utf-8")
        (root / name).write_text(_mutate(VALID[name], rnd), encoding="utf-8")
        for argv in commands(name):
            code, _, err = run(root, argv)
            allowed = (0, 1, 3) if argv[0] == "check" else (0, 3)
            assert code in allowed, (argv, (root / name).read_text(encoding="utf-8"))
            assert "Traceback" not in err


def run(root: Path, argv: list[str]) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of ``main`` on ``argv``, whose file
    names are in ``root``."""
    argv = [str(root / arg) if arg.endswith((".cxt", ".csv", ".json")) else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# a valid object of each JSON schema and the command that reads it as
# ``f.json``, beside ``k.cxt``
SCHEMAS = {
    "classification": (["lattice", "f.json"], classification_to_obj(K)),
    "bond": (["check", "bond", "f.json"], morphism_to_obj(identity_bond(K))),
    "bonding-pair": (
        ["check", "bonding-pair", "f.json"], morphism_to_obj(identity_bonding_pair(K))
    ),
    "relational": (["check", "relational", "f.json"], morphism_to_obj(identity_relational(K))),
    "functional": (["check", "infomorphism", "f.json"], morphism_to_obj(identity_functional(K))),
    "invariant": (
        ["quotient", "k.cxt", "f.json"],
        {"kept_instances": ["2", "3"], "related_types": [["a", "b"]]},
    ),
}
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
DICTS = st.dictionaries(st.text(max_size=3), SCALARS, max_size=2)
SCALAR_LISTS = st.lists(SCALARS, min_size=1, max_size=3)
# a value of the wrong type for a field of each type; a list whose items are
# scalars is no matrix, and no list of label pairs
WRONG = {
    "kind": SCALARS.filter(lambda v: v not in ("functional", "relational", "bond", "bonding-pair")),
    "object": st.one_of(SCALARS, SCALAR_LISTS),
    "labels": st.one_of(
        SCALARS, DICTS, SCALAR_LISTS.filter(lambda v: not all(isinstance(x, str) for x in v))
    ),
    "rows": st.one_of(SCALARS, DICTS, SCALAR_LISTS),
}
# the type of each field, by its key
FIELDS = {
    "kind": "kind",
    **dict.fromkeys(("source", "target", "data"), "object"),
    **dict.fromkeys(
        ("instances", "types", "instance_map", "type_map", "kept_instances"), "labels"
    ),
    **dict.fromkeys(
        ("incidence", "rel", "forward", "backward", "instance_rel", "type_rel", "related_types"),
        "rows",
    ),
}
# what a message that echoes Python rather than the schema holds
PYTHON_TEXT = ("Traceback", "Error", "object is not", "has no len", "not iterable", "NoneType")


def paths(obj: dict, prefix: tuple = ()) -> list[tuple]:
    """The key path of every field of ``obj`` and of the objects in it."""
    out = []
    for key, value in obj.items():
        out.append((*prefix, key))
        if isinstance(value, dict):
            out += paths(value, (*prefix, key))
    return out


@settings(max_examples=300, deadline=None, database=None)
@given(st.data())
def test_a_corrupted_field_is_named(data):
    argv, obj = SCHEMAS[data.draw(st.sampled_from(sorted(SCHEMAS)))]
    obj = json.loads(json.dumps(obj))
    *parents, key = data.draw(st.sampled_from(paths(obj)))
    node = obj
    for parent in parents:
        node = node[parent]
    if data.draw(st.booleans()):
        del node[key]
    else:
        node[key] = data.draw(WRONG[FIELDS[key]])
    with tempfile.TemporaryDirectory() as workdir:
        root = Path(workdir)
        (root / "k.cxt").write_text(VALID["k.cxt"], encoding="utf-8")
        (root / "f.json").write_text(json.dumps(obj), encoding="utf-8")
        code, out, err = run(root, argv)
    assert (code, out) == (3, ""), err
    assert err.startswith("error: ") and err.count("\n") == 1 and key in err, err
    assert not any(text in err for text in PYTHON_TEXT), err
