"""A hypothesis property of the command line: a seeded valid input of each
format ``conceptual`` reads (a ``.cxt``, CSV or JSON context, a bond, a dual
invariant), mutated by a few edits, run in process through ``main`` by every
command that reads it, exits cleanly: 0 or 3, or 1 where ``check`` finds a
well-formed bond that is no bond, and no exception escapes ``main``."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from conceptual.bond import identity_bond
from conceptual.classification import Classification
from conceptual.cli import main
from conceptual.io import classification_to_obj, dumps, emit_csv, emit_cxt, morphism_to_obj

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
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main([str(root / arg) if arg in VALID else arg for arg in argv])
            allowed = (0, 1, 3) if argv[0] == "check" else (0, 3)
            assert code in allowed, (argv, (root / name).read_text(encoding="utf-8"))
            assert "Traceback" not in err.getvalue()
