import json
import random
import re

import pytest

from conceptual import cli as cli_module
from conceptual.cli import main
from conceptual.io import (
    classification_to_obj,
    dumps,
    morphism_to_obj,
    parse_classification,
)
from conceptual.bond import Bond, identity_bond, identity_bonding_pair
from conceptual.classification import Classification, powerset_classification
from conceptual.errors import QUOTE_LIMIT, quote
from conceptual.infomorphism import (
    fn2rel,
    identity_functional,
    instance_infomorphism,
)
from conceptual.io import emit_cxt
from conceptual.lattice import build_lattice
from conceptual.relalg import Relation

from conftest import NEGATIVE_COUNT_CXT, identity_relational

K1_CXT = "B\n\n2\n2\n\n1\n2\na\nb\nX.\nXX\n"


@pytest.fixture
def k1_file(tmp_path):
    path = tmp_path / "k1.cxt"
    path.write_text(K1_CXT)
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestLatticeCommand:
    def test_json_concepts(self, capsys, k1_file):
        code, out = run(capsys, "lattice", k1_file)
        assert code == 0
        got = json.loads(out)
        assert got["concepts"] == [
            {"extent": ["1", "2"], "intent": ["a"]},
            {"extent": ["2"], "intent": ["a", "b"]},
        ]

    def test_dot_output(self, capsys, k1_file):
        code, out = run(capsys, "lattice", k1_file, "--dot")
        assert code == 0
        assert out.startswith("digraph")
        assert out.count("->") == 1

    def test_dot_over_the_order_cap_is_a_structural_error(self, capsys, monkeypatch, tmp_path):
        """Over ``ORDER_BYTE_CAP`` (patched low), ``--dot``, which needs the
        order, exits 3 with the cap in its message; the JSON path, which
        does not, is unchanged."""
        from conceptual import lattice

        path = tmp_path / "k.cxt"
        path.write_text(emit_cxt(powerset_classification(("a", "b", "c"))))
        code, expected = run(capsys, "lattice", str(path))
        assert code == 0
        monkeypatch.setattr(lattice, "ORDER_BYTE_CAP", 1)
        assert run(capsys, "lattice", str(path)) == (0, expected)
        code = main(["lattice", str(path), "--dot"])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == "error: order of 8 concepts needs 8 bytes, over the cap 1\n"

    def test_stdin(self, capsys, monkeypatch):
        import io as stdlib_io

        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(K1_CXT))
        code, out = run(capsys, "lattice", "-")
        assert code == 0
        assert len(json.loads(out)["concepts"]) == 2

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_stdin_reads_crlf_as_a_path_does(self, capsys, monkeypatch, k1_file, end):
        import io as stdlib_io

        by_path = run(capsys, "lattice", k1_file)
        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(K1_CXT.replace("\n", end)))
        assert run(capsys, "lattice", "-") == by_path
        assert by_path[0] == 0

    @pytest.mark.parametrize("source", ["path", "stdin"])
    def test_csv_field_over_the_reader_limit_is_malformed(
        self, capsys, monkeypatch, tmp_path, source
    ):
        """A CSV field longer than the ``csv`` module reads is a parse error
        naming its line (exit 3), from a path as from stdin, not a
        ``csv.Error`` traceback."""
        import csv
        import io as stdlib_io

        limit = csv.field_size_limit()
        text = ",a\n1," + "0" * (limit + 1) + "\n"
        if source == "path":
            path = tmp_path / "k.csv"
            path.write_text(text)
            arg = str(path)
        else:
            monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(text))
            arg = "-"
        code = main(["lattice", arg])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {arg}: line 2: field larger than field limit ({limit})\n"
        assert csv.field_size_limit() == limit

    @pytest.mark.parametrize(
        "text, message",
        [
            (",a\n\n\n1,x\n", "line 4: cell must be 0 or 1, got 'x'"),
            (",a\n\n1,0\n\n2,0,1\n", "line 5: row has 2 cells, expected 1"),
        ],
    )
    def test_csv_error_after_blank_lines_names_its_line(self, capsys, tmp_path, text, message):
        path = tmp_path / "k.csv"
        path.write_text(text)
        code = main(["lattice", str(path)])
        captured = capsys.readouterr()
        assert code == 3 and captured.out == ""
        assert captured.err == f"error: {path}: {message}\n"


DOT_NODE = re.compile(r'^  c(\d+) \[label="((?:[^"\\]|\\.)*)"\];$', re.M)


def dot_label_parts(label: str) -> list[list[str]]:
    """A DOT node label read back: escapes undone, split into its lines and
    each line into its labels."""
    escapes = {"n": "\n", "\\": "\\", '"': '"'}
    text = re.sub(r"\\(.)", lambda m: escapes[m.group(1)], label)
    return [line.split(" ") for line in text.split("\n")] if text else []


class TestDotLabels:
    def test_trailing_backslash_from_csv(self, capsys, tmp_path):
        path = tmp_path / "bs.csv"
        path.write_text(",t\\\na\\,1\n")
        code, out = run(capsys, "lattice", str(path), "--dot")
        assert code == 0
        assert '  c0 [label="t\\\\\\na\\\\"];' in out.split("\n")

    def test_labels_read_back(self, capsys, tmp_path):
        instances = ("a\\", 'q"', '\\"x', "p\\\\", "n\\n")
        types = ("t\\", '"', '\\"', "\\\\", 'e"\\')
        rows = (0b00011, 0b00110, 0b01100, 0b11000, 0b10001)
        K = Classification(instances, types, Relation(5, 5, rows))
        path = tmp_path / "awkward.cxt"
        path.write_text(emit_cxt(K), encoding="utf-8")
        code, out = run(capsys, "lattice", str(path), "--dot")
        assert code == 0
        L = build_lattice(K)
        nodes = DOT_NODE.findall(out)
        assert [int(i) for i, _ in nodes] == list(range(L.size))
        for i, label in nodes:
            expected = [
                [types[t] for t in range(5) if L.tau(t) == int(i)],
                [instances[a] for a in range(5) if L.iota(a) == int(i)],
            ]
            assert dot_label_parts(label) == [part for part in expected if part]


class TestCheckCommand:
    def test_valid_bond_exits_zero(self, capsys, tmp_path, k1):
        path = tmp_path / "bond.json"
        path.write_text(dumps(morphism_to_obj(identity_bond(k1))))
        code, out = run(capsys, "check", "bond", str(path))
        assert code == 0
        assert "ok" in out

    def test_invalid_bond_exits_one_with_witness(self, capsys, tmp_path, k1):
        bad = Bond._of(k1, k1, Relation.from_pairs(2, 2, [(0, 1)]))
        path = tmp_path / "bad.json"
        path.write_text(dumps(morphism_to_obj(bad)))
        code, out = run(capsys, "check", "bond", str(path), "--json")
        assert code == 1
        results = json.loads(out)["results"]
        assert results[0]["ok"] is False
        assert results[0]["witness"]

    def test_kind_mismatch_is_structural_error(self, capsys, tmp_path, k1):
        path = tmp_path / "bond.json"
        path.write_text(dumps(morphism_to_obj(identity_bond(k1))))
        code, _ = run(capsys, "check", "infomorphism", str(path))
        assert code == 3


class TestComposeCommand:
    def test_compose_bonds(self, capsys, tmp_path, k1):
        path = tmp_path / "id.json"
        path.write_text(dumps(morphism_to_obj(identity_bond(k1))))
        code, out = run(capsys, "compose", "bonds", str(path), str(path))
        assert code == 0
        got = json.loads(out)
        assert got["kind"] == "bond"
        assert got["data"]["rel"] == k1.incidence.matrix()


    @pytest.mark.parametrize("kind", ["functional", "relational"])
    def test_compose_infos_with_the_identity(self, capsys, tmp_path, k1, kind):
        """The identity then the instance infomorphism of k1, or their
        relational widenings: the composite is the second morphism."""
        if kind == "functional":
            ident, m = identity_functional(k1), instance_infomorphism(k1)
        else:
            ident, m = identity_relational(k1), fn2rel(instance_infomorphism(k1))
        paths = []
        for name, morphism in (("id", ident), ("m", m)):
            paths.append(tmp_path / f"{name}.json")
            paths[-1].write_text(dumps(morphism_to_obj(morphism)))
        code, out = run(capsys, "compose", "infos", *map(str, paths))
        assert code == 0
        assert out == dumps(morphism_to_obj(m))

    @pytest.mark.parametrize(
        "kind, first, second",
        [
            ("infos", "functional", "relational"),
            ("infos", "bond", "bond"),
            ("bonds", "functional", "functional"),
        ],
        ids=["infos-mixed", "infos-bonds", "bonds-infos"],
    )
    def test_wrong_kind_is_structural_error(self, capsys, tmp_path, k1, kind, first, second):
        message = {
            "infos": "compose infos expects two infomorphisms of the same kind",
            "bonds": "compose bonds expects two bond files",
        }[kind]
        morphisms = {
            "functional": identity_functional(k1),
            "relational": identity_relational(k1),
            "bond": identity_bond(k1),
        }
        paths = []
        for i, name in enumerate((first, second)):
            paths.append(tmp_path / f"{i}.json")
            paths[-1].write_text(dumps(morphism_to_obj(morphisms[name])))
        code = main(["compose", kind, *map(str, paths)])
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")


class TestConstructions:
    def test_sum(self, capsys, k1_file):
        code, out = run(capsys, "sum", k1_file, k1_file)
        assert code == 0
        got = json.loads(out)
        assert len(got["apex"]["instances"]) == 4
        assert len(got["apex"]["types"]) == 4

    def test_appose_and_subpose(self, capsys, k1_file):
        code, out = run(capsys, "appose", k1_file, k1_file)
        assert code == 0
        assert len(json.loads(out)["apex"]["types"]) == 4
        code, out = run(capsys, "subpose", k1_file, k1_file)
        assert code == 0
        assert len(json.loads(out)["apex"]["instances"]) == 4

    def test_product(self, capsys, k1_file):
        code, out = run(capsys, "product", k1_file, k1_file)
        assert code == 0
        assert len(json.loads(out)["apex"]["types"]) == 4

    def test_dual(self, capsys, k1_file, k1):
        code, out = run(capsys, "dual", k1_file)
        assert code == 0
        got = parse_classification(out)
        assert got.instances == k1.types

    def test_powerset(self, capsys):
        code, out = run(capsys, "powerset", "x", "y")
        assert code == 0
        got = parse_classification(out)
        assert got == powerset_classification(("x", "y"))

    def test_quotient(self, capsys, tmp_path, k1_file):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"kept_instances": ["2"], "related_types": [["a", "b"]]}))
        code, out = run(capsys, "quotient", k1_file, str(inv))
        assert code == 0
        got = json.loads(out)
        assert got["classification"]["instances"] == ["2"]
        assert got["classification"]["types"] == ["[a,b]"]

    def test_quotient_closes_reversed_pairs(self, capsys, tmp_path):
        """Related pairs listed reversed and out of order give the bytes of
        the forward listing: the type equivalence is closed under symmetry
        and transitivity, not read pair by pair."""
        ctx = tmp_path / "k.cxt"
        # on the kept instances 1 and 3, a, b and c agree, and so do d and e
        ctx.write_text("B\n\n3\n5\n\n1\n2\n3\na\nb\nc\nd\ne\nXXX..\n.X.XX\n...XX\n")
        outs = []
        for pairs in ([["a", "b"], ["b", "c"], ["d", "e"]], [["e", "d"], ["c", "b"], ["b", "a"]]):
            inv = tmp_path / "inv.json"
            inv.write_text(json.dumps({"kept_instances": ["3", "1"], "related_types": pairs}))
            code, out = run(capsys, "quotient", str(ctx), str(inv))
            assert code == 0
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["classification"]["types"] == ["[a,b,c]", "[d,e]"]

    def test_incompatible_quotient_is_structural_error(self, capsys, tmp_path, k1_file):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"kept_instances": ["1", "2"], "related_types": [["a", "b"]]}))
        code, _ = run(capsys, "quotient", k1_file, str(inv))
        assert code == 3


K1 = parse_classification(K1_CXT)
# a context on K1's instances with other types
K2 = powerset_classification(K1.instances)
FIVE = {**morphism_to_obj(identity_bond(K1)), "data": 5}


def short_refusals() -> dict:
    """A matrix or map one row or label short, through ``check``, which
    reads it unchecked, and through ``compose``, which reads it checked:
    the reader refuses the shape either way."""
    out = {}
    for m, kind, compose, fields in (
        (identity_bond(K1), "bond", "bonds", ("rel",)),
        (identity_bonding_pair(K1), "bonding-pair", "bonds", ("forward", "backward")),
        (identity_relational(K1), "relational", "infos", ("instance_rel", "type_rel")),
        (identity_functional(K1), "infomorphism", "infos", ("instance_map", "type_map")),
    ):
        for key in fields:
            obj = morphism_to_obj(m)
            obj["data"][key] = obj["data"][key][:-1]
            unit = "labels" if key.endswith("_map") else "rows"
            message = f"a.json: bad morphism object: {key} must have 2 {unit}, got 1"
            for argv in (["check", kind, "a.json"], ["compose", compose, "a.json", "a.json"]):
                out[f"short-{key}-{argv[0]}"] = (argv, {"a.json": dumps(obj)}, message)
    return out


# argv, the files it reads (a morphism is written as its JSON text) and the
# one line on stderr: a refusal in reading or decoding one file starts with
# its name, as given, and one about two files names neither
REFUSALS = {
    "compose-bonds": (
        ["compose", "bonds", "a.json", "b.json"],
        {"a.json": identity_bond(K1), "b.json": identity_bond(K2)},
        "compose_bonds: middle classifications differ",
    ),
    "compose-infos": (
        ["compose", "infos", "a.json", "b.json"],
        {"a.json": identity_relational(K1), "b.json": identity_relational(K2)},
        "compose_relational: middle classifications differ",
    ),
    "subpose": (
        ["subpose", "a.cxt", "b.cxt"],
        {"a.cxt": emit_cxt(K1), "b.cxt": emit_cxt(K2)},
        "subposition requires identical ordered type sets",
    ),
    "blank-csv": (["lattice", "a.csv"], {"a.csv": "\n\n\n"}, "a.csv: line 1: empty CSV input"),
    "csv-types": (
        ["lattice", "a.csv"],
        {"a.csv": ",a,a\n1,0,1\n"},
        "a.csv: duplicate type label 'a'",
    ),
    "cxt-end": (["lattice", "a.cxt"], {"a.cxt": "B\n"}, "a.cxt: line 2: unexpected end of file"),
    "cxt-count": (
        ["lattice", "bad.cxt"],
        {"bad.cxt": "B\n\n2\n\n"},
        "bad.cxt: line 4: expected a count, got ''",
    ),
    "missing-file": (["lattice", "none.cxt"], {}, "none.cxt: No such file or directory"),
    # the second of two files is the one at fault
    "json-second": (
        ["check", "bonding-pair", "good.json", "bad.json"],
        {"good.json": identity_bonding_pair(K1), "bad.json": '{"kind": '},
        "bad.json: Expecting value: line 1 column 10 (char 9)",
    ),
    "invalid-second": (
        ["compose", "bonds", "a.json", "b.json"],
        {"a.json": identity_bond(K1), "b.json": dumps({**FIVE, "data": {"rel": [[0, 0]] * 2}})},
        "b.json: relation is not a bond: row of '1' is not an intent of the source",
    ),
    "data": (
        ["check", "bond", "a.json"],
        {"a.json": dumps(FIVE)},
        "a.json: bad morphism object: data must be a JSON object",
    ),
    "top-level": (
        ["check", "bond", "a.json"],
        {"a.json": dumps([FIVE])},
        "a.json: bad morphism object: the top level must be a JSON object",
    ),
    "matrix": (
        ["check", "bond", "a.json"],
        {"a.json": dumps({**FIVE, "data": {"rel": 5}})},
        "a.json: bad morphism object: rel must be a list of rows",
    ),
    "source": (
        ["check", "bond", "a.json"],
        {"a.json": dumps({**FIVE, "source": 5})},
        "a.json: bad morphism object: source must be a JSON object",
    ),
    "incidence": (
        ["check", "bond", "a.json"],
        {"a.json": dumps({**FIVE, "target": {**classification_to_obj(K1), "incidence": 5}})},
        "a.json: bad classification object: incidence must be a list of rows",
    ),
    "incidence-row": (
        ["lattice", "a.json"],
        {"a.json": dumps({**classification_to_obj(K1), "incidence": [[1, 0], [1]]})},
        "a.json: bad classification object: incidence row 1 must have 2 cells, got 1",
    ),
    "classification-top-level": (
        ["lattice", "a.json"],
        {"a.json": dumps([classification_to_obj(K1)])},
        "a.json: bad classification object: the top level must be a JSON object",
    ),
    "incidence-cell": (
        ["lattice", "a.json"],
        {"a.json": dumps({**classification_to_obj(K1), "incidence": [[1, 0], [2, 1]]})},
        "a.json: bad classification object: incidence matrix cell must be 0/1, got 2",
    ),
    # an object's keys and a string's characters are no rows
    "incidence-object": (
        ["lattice", "a.json"],
        {"a.json": dumps({**classification_to_obj(K1), "incidence": {"ab": 1, "cd": 0}})},
        "a.json: bad classification object: incidence must be a list of rows",
    ),
    "incidence-string": (
        ["lattice", "a.json"],
        {"a.json": dumps({**classification_to_obj(K1), "incidence": "10"})},
        "a.json: bad classification object: incidence must be a list of rows",
    ),
    "incidence-row-string": (
        ["lattice", "a.json"],
        {"a.json": dumps({**classification_to_obj(K1), "incidence": ["10", "11"]})},
        "a.json: bad classification object: incidence row 0 must be a list of cells",
    ),
    "rel-string": (
        ["check", "bond", "a.json"],
        {"a.json": dumps({**FIVE, "data": {"rel": "1011"}})},
        "a.json: bad morphism object: rel must be a list of rows",
    ),
    "incidence-missing": (
        ["lattice", "a.json"],
        {"a.json": dumps({"instances": ["1", "2"], "types": ["a", "b"]})},
        "a.json: bad classification object: missing or invalid 'incidence'",
    ),
    "incidence-short": (
        ["lattice", "a.json"],
        {"a.json": dumps({**classification_to_obj(K1), "incidence": [[1, 0]]})},
        "a.json: bad classification object: incidence must have 2 rows, got 1",
    ),
    "cell": (
        ["check", "bond", "a.json"],
        {"a.json": dumps({**FIVE, "data": {"rel": [[1, 0], [0, "1"]]}})},
        "a.json: bad morphism object: rel matrix cell must be 0/1, got '1'",
    ),
    **short_refusals(),
    **{
        f"ragged-{argv[0]}": (
            argv,
            {"a.json": dumps({**FIVE, "data": {"rel": [[1], [1]]}})},
            "a.json: bad morphism object: rel row 0 must have 2 cells, got 1",
        )
        for argv in (["check", "bond", "a.json"], ["compose", "bonds", "a.json", "a.json"])
    },
    **{
        f"invariant-{name}": (
            ["quotient", "k.cxt", "inv.json"],
            {"k.cxt": K1_CXT, "inv.json": text},
            f"inv.json: bad invariant object: {message}",
        )
        for name, text, message in (
            ("top-level", "[1]", "the top level must be a JSON object"),
            ("missing", '{"kept_instances": []}', "missing or invalid 'related_types'"),
            ("kept", '{"related_types": []}', "missing or invalid 'kept_instances'"),
            (
                "kept-labels",
                '{"kept_instances": "12", "related_types": []}',
                "kept_instances must be a list of strings",
            ),
            (
                "related-types",
                '{"kept_instances": [], "related_types": {"a": "b"}}',
                "related_types must be a list of label pairs",
            ),
            (
                "pair",
                '{"kept_instances": [], "related_types": [["a", "b"], ["a"]]}',
                "related_types pair 1 must have 2 labels, got 1",
            ),
            (
                "pair-labels",
                '{"kept_instances": [], "related_types": ["ab"]}',
                "related_types pair 0 must be a list of strings",
            ),
            (
                "instance",
                '{"kept_instances": ["tz"], "related_types": []}',
                "unknown instance label 'tz'",
            ),
            (
                "type",
                '{"kept_instances": ["1"], "related_types": [["a", "tz"]]}',
                "unknown type label 'tz'",
            ),
        )
    },
}


class TestMalformedInput:
    """Malformed input is a structural error (exit 3) with a message, never a
    traceback."""

    def run_malformed(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        return err

    @pytest.mark.parametrize("argv, files, message", list(REFUSALS.values()), ids=list(REFUSALS))
    def test_message_of_each_refusal(self, capsys, monkeypatch, tmp_path, argv, files, message):
        """Files of the wrong shape or kind, and text that is no context, give
        exit 3 and one line on stderr."""
        monkeypatch.chdir(tmp_path)
        for name, content in files.items():
            text = content if isinstance(content, str) else dumps(morphism_to_obj(content))
            (tmp_path / name).write_text(text)
        code = main(argv)
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == (3, "", f"error: {message}\n")

    @pytest.mark.parametrize("command", ["lattice", "dual"])
    def test_non_utf8_file(self, capsys, tmp_path, command):
        path = tmp_path / "bin.cxt"
        path.write_bytes(b"\xff\xfe")
        assert "not UTF-8" in self.run_malformed(capsys, command, str(path))

    @pytest.mark.parametrize(
        "invariant",
        [
            [],
            {"kept_instances": ["2"], "related_types": [["a"]]},
            {"kept_instances": "2", "related_types": []},
            {"kept_instances": [], "related_types": ["ab"]},
        ],
        ids=[
            "list",
            "related-types-entry-not-a-pair",
            "string-as-kept-instances",
            "string-as-related-pair",
        ],
    )
    def test_malformed_invariant(self, capsys, tmp_path, k1_file, invariant):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps(invariant))
        assert "bad invariant" in self.run_malformed(capsys, "quotient", k1_file, str(inv))

    @pytest.mark.parametrize(
        "argv, text",
        [
            (("lattice", "{deep}"), '{"a":' * 100_000),
            (("check", "bond", "{deep}"), "[" * 100_000),
            (("quotient", "{k1}", "{deep}"), "[" * 100_000),
        ],
        ids=["lattice", "check", "quotient"],
    )
    def test_deeply_nested_json(self, capsys, tmp_path, k1_file, argv, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        argv = [arg.format(deep=path, k1=k1_file) for arg in argv]
        err = self.run_malformed(capsys, *argv)
        assert "nested too deeply" in err
        assert "Traceback" not in err

    def test_cxt_label_with_a_line_break(self, capsys, tmp_path):
        path = tmp_path / "k.json"
        obj = {"instances": ["a\nb"], "types": ["t", "u"], "incidence": [[1, 0]]}
        path.write_text(json.dumps(obj))
        err = self.run_malformed(capsys, "dual", str(path), "--cxt")
        assert repr("a\nb") in err

    @pytest.mark.parametrize(
        "obj, argv",
        [
            (
                {"instances": [1, 2], "types": ["a"], "incidence": [[1], [0]]},
                ("lattice", "--dot"),
            ),
            ({"instances": "ab", "types": ["a"], "incidence": [[1], [0]]}, ("lattice",)),
        ],
        ids=["int-labels", "string-as-labels"],
    )
    def test_labels_not_a_list_of_strings(self, capsys, tmp_path, obj, argv):
        path = tmp_path / "x.json"
        path.write_text(json.dumps(obj))
        err = self.run_malformed(capsys, argv[0], str(path), *argv[1:])
        assert "instances must be a list of strings" in err

    @pytest.mark.parametrize(
        "text, line", list(NEGATIVE_COUNT_CXT.values()), ids=list(NEGATIVE_COUNT_CXT)
    )
    def test_negative_cxt_count(self, capsys, tmp_path, text, line):
        path = tmp_path / "neg.cxt"
        path.write_text(text)
        err = self.run_malformed(capsys, "lattice", str(path))
        assert f"line {line}: expected a nonnegative count" in err
        assert "Traceback" not in err

    def test_morphism_source_with_int_labels(self, capsys, tmp_path, k1):
        obj = morphism_to_obj(identity_bond(k1))
        obj["source"]["instances"] = [1, 2]
        path = tmp_path / "bond.json"
        path.write_text(json.dumps(obj))
        err = self.run_malformed(capsys, "check", "bond", str(path))
        assert "instances must be a list of strings" in err

    @pytest.mark.parametrize(
        "command", [("check", "infomorphism"), ("compose", "infos")], ids=["check", "compose"]
    )
    @pytest.mark.parametrize("key", ["instance_map", "type_map"])
    @pytest.mark.parametrize("form", ["string", "dict"], ids=["string-as-map", "dict-as-map"])
    def test_morphism_map_not_a_list_of_strings(self, capsys, tmp_path, k1, command, key, form):
        """A map written as a string of one-character labels, or as a dict
        keyed by the labels, is refused, not iterated as its labels."""
        obj = morphism_to_obj(identity_functional(k1))
        labels = obj["data"][key]
        obj["data"][key] = "".join(labels) if form == "string" else dict(zip(labels, labels))
        path = tmp_path / "m.json"
        path.write_text(json.dumps(obj))
        paths = (str(path),) if command[0] == "check" else (str(path), str(path))
        err = self.run_malformed(capsys, *command, *paths)
        assert f"bad morphism object: {key} must be a list of strings" in err


LONG = "x" * 100_000


def _long_morphism_text(k1, path: str, value: str) -> str:
    """A serialized identity bond (or, for ``instance_map``, functional
    infomorphism) of ``k1`` with the field at ``path`` set to ``value``,
    which is JSON text spliced in as is."""
    m = identity_functional(k1) if path.startswith("data.instance_map") else identity_bond(k1)
    obj = morphism_to_obj(m)
    *keys, last = path.split(".")
    node = obj
    for key in keys:
        node = node[int(key)] if key.isdigit() else node[key]
    node[int(last) if last.isdigit() else last] = "@SPLICE@"
    return json.dumps(obj).replace('"@SPLICE@"', value)


# pieces a mutation inserts: the formats' own syntax, line breaks, a NUL,
# non-ASCII text and numbers too large for the shapes they sit in
MUTATION_PIECES = (
    "X", ".", "B", "\n", "\r", "\t", " ", "0", "7", "-1", "99999", "1e9", "[", "]", "{",
    "}", '"', ",", ":", "null", "true", "\x00", "\u00e9", "\u2028", "\\",
)


def _mutate(text: str, rng: random.Random) -> str:
    """``text`` after one to three seeded edits: a piece inserted or put in
    place of a character, a span deleted, or a span repeated."""
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randint(1, 8))
        op = rng.randrange(4)
        if op == 0:
            text = text[:i] + rng.choice(MUTATION_PIECES) + text[i:]
        elif op == 1:
            text = text[:i] + rng.choice(MUTATION_PIECES) + text[i + 1:]
        elif op == 2:
            text = text[:i] + text[j:]
        else:
            text = text[:j] + text[i:j] + text[j:]
    return text


class TestMutatedInputs:
    """Seeded mutations of a valid 3x3 context, as ``.cxt`` and as JSON, run
    through ``lattice``, ``lattice --dot`` and ``dual``: every run exits 0-3
    with a bounded message, and none raises out of ``main``."""

    @pytest.mark.parametrize("suffix", [".cxt", ".json"])
    def test_mutations_exit_cleanly(self, capsys, tmp_path, suffix):
        K = Classification.from_pairs(
            ("1", "2", "3"), ("a", "b", "c"), [("1", "a"), ("2", "a"), ("2", "b"), ("3", "c")]
        )
        valid = emit_cxt(K) if suffix == ".cxt" else json.dumps(classification_to_obj(K))
        rng = random.Random(20261018)
        codes = set()
        for n in range(150):
            path = tmp_path / f"m{n}{suffix}"
            path.write_text(_mutate(valid, rng), encoding="utf-8")
            for command, *flags in (("lattice",), ("lattice", "--dot"), ("dual",)):
                code = main([command, str(path), *flags])
                err = capsys.readouterr().err
                assert code in (0, 1, 2, 3), (path.read_text(encoding="utf-8"), command, flags)
                assert "Traceback" not in err and len(err.encode()) <= 2048
                codes.add(code)
        assert codes == {0, 3}


class TestLongInputIsQuotedWithinBounds:
    """A message that quotes a long input value quotes at most
    ``QUOTE_LIMIT`` characters of it, so stderr stays small: exit 3, an
    ``error:`` line under 1 KB, no traceback."""

    @pytest.mark.parametrize(
        "files, argv, needle",
        [
            (
                {"m.json": ("data.rel.0.0", json.dumps(LONG))},
                ("check", "bond", "{0}"),
                "matrix cell must be 0/1",
            ),
            (
                {"m.json": ("data.rel.0.0", "1" * 5000)},
                ("check", "bond", "{0}"),
                "integer too long",
            ),
            (
                {"m.json": ("kind", json.dumps(LONG))},
                ("check", "bond", "{0}"),
                "unknown morphism kind",
            ),
            (
                {"m.json": ("data.instance_map.0", json.dumps(LONG))},
                ("check", "infomorphism", "{0}"),
                "missing or invalid",
            ),
            ({"k.cxt": LONG + "\n\n2\n2\n"}, ("lattice", "{0}"), "expected header"),
            (
                {"k.cxt": "B\n\n-" + "9" * 4000 + "\n2\n\n"},
                ("lattice", "{0}"),
                "expected a nonnegative count",
            ),
            ({"k.csv": ",a\n1," + LONG + "\n"}, ("lattice", "{0}"), "cell must be 0 or 1"),
            (
                {
                    "k.json": json.dumps(
                        {"instances": ["a\n" + LONG], "types": [], "incidence": [[]]}
                    )
                },
                ("dual", "{0}", "--cxt"),
                "holds a line break",
            ),
            (
                {
                    "k.cxt": K1_CXT,
                    "inv.json": json.dumps({"kept_instances": [], "related_types": [[LONG, "a"]]}),
                },
                ("quotient", "{0}", "{1}"),
                "bad invariant object",
            ),
        ],
        ids=[
            "bond-cell",
            "bond-cell-digits",
            "morphism-kind",
            "instance-map-label",
            "cxt-header",
            "cxt-count",
            "csv-cell",
            "cxt-label-line-break",
            "invariant-label",
        ],
    )
    def test_error_line_is_short(self, capsys, tmp_path, k1, files, argv, needle):
        paths = []
        for name, content in files.items():
            if isinstance(content, tuple):
                content = _long_morphism_text(k1, *content)
            (tmp_path / name).write_text(content)
            paths.append(str(tmp_path / name))
        code = main([arg.format(*paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ") and needle in err
        assert len(err.encode()) < 1024
        assert "Traceback" not in err

    def test_short_values_read_as_repr(self):
        for value in ("", "a\nb", "x" * 58, 0, -1, 0.5, float("nan"), None, [1], {"b": 1, "a": 2}):
            assert quote(value) == repr(value)

    def test_long_values_keep_head_and_tail(self):
        x = []
        for _ in range(5000):
            x = [x]
        for value, head, tail in (
            ("a" + LONG + "z", "'ax", "xz'"),
            (list(range(1000)), "[0, 1, ", "998, 999]"),
            (10 ** 5000, "<int>", "<int>"),
            (x, "<list>", "<list>"),
        ):
            text = quote(value)
            assert len(text) <= QUOTE_LIMIT
            assert text.startswith(head) and text.endswith(tail)


class TestVerifyCommand:
    def test_deterministic_output(self, capsys):
        code1, out1 = run(capsys, "verify-equivalences", "--max-size", "2", "--seed", "5", "--json")
        code2, out2 = run(capsys, "verify-equivalences", "--max-size", "2", "--seed", "5", "--json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_inject_bug_fails(self, capsys):
        code, out = run(
            capsys, "verify-equivalences", "--max-size", "1", "--seed", "5", "--inject-bug"
        )
        assert code == 1
        assert "FAIL" in out

    def test_inject_bug_fails_with_nothing_to_perturb(self, capsys):
        code, out = run(
            capsys, "verify-equivalences", "--max-size", "0", "--seed", "3", "--inject-bug"
        )
        assert code == 1
        assert "FAIL classification-roundtrip on inject-bug" in out

    def test_no_coverage_flagging(self, capsys):
        code, out = run(capsys, "verify-equivalences", "--max-size", "0", "--seed", "5", "--json")
        assert code == 0
        got = json.loads(out)
        verdicts = {c["verdict"] for c in got["checks"]}
        assert "no-coverage" in verdicts
        assert "fail" not in verdicts


class TestUsage:
    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["lattice"])
        assert exc.value.code == 2

    def test_two_calls_build_one_parser(self, capsys):
        cli_module.build_parser.cache_clear()
        assert main(["powerset", "a"]) == 0
        assert main(["powerset", "a", "--cxt"]) == 0
        info = cli_module.build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        out = capsys.readouterr().out
        assert out.startswith('{\n  "instances"') and out.endswith("X\n")

    def test_json_does_not_carry_into_the_next_call(self, capsys, tmp_path, k1):
        path = tmp_path / "bond.json"
        path.write_text(dumps(morphism_to_obj(identity_bond(k1))))
        assert run(capsys, "check", "bond", str(path), "--json") == (
            0,
            dumps(
                {"results": [{"file": str(path), "ok": True, "witness": None, "reason": None}]}
            ),
        )
        assert run(capsys, "check", "bond", str(path)) == (0, f"{path}: ok\n")

    def test_usage_error_after_a_good_call_exits_two(self, capsys, k1_file):
        assert run(capsys, "lattice", k1_file)[0] == 0
        with pytest.raises(SystemExit) as exc:
            main(["lattice"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(["check", "bonds", k1_file])
        assert exc.value.code == 2
        assert "invalid choice: 'bonds'" in capsys.readouterr().err
        assert run(capsys, "lattice", k1_file)[0] == 0

    def test_negative_max_size_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-equivalences", "--max-size", "-1"])
        assert exc.value.code == 2
        assert "nonnegative" in capsys.readouterr().err

    def test_max_size_above_corpus_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify-equivalences", "--max-size", "7"])
        assert exc.value.code == 2
        assert "at most 6" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, message",
        [("--max-size", "invalid corpus_size value"), ("--seed", "invalid int value")],
    )
    def test_bad_int_values_are_quoted(self, capsys, option, message):
        """A short bad value reads as argparse words it; a 100,000-digit one
        is quoted, not echoed whole."""
        with pytest.raises(SystemExit) as exc:
            main(["verify-equivalences", option, "abc"])
        assert exc.value.code == 2
        assert f"{option}: {message}: 'abc'\n" in capsys.readouterr().err
        huge = "9" * 100_000
        with pytest.raises(SystemExit) as exc:
            main(["verify-equivalences", option, huge])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{option}: {message}: {quote(huge)}\n" in err
        assert len(err) < 1000

    def test_out_of_range_max_size_is_quoted(self, capsys):
        huge = "-" + "9" * 4000
        with pytest.raises(SystemExit) as exc:
            main(["verify-equivalences", f"--max-size={huge}"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"must be nonnegative, got {quote(int(huge))}" in err and len(err) < 1000

    def test_bad_cxt_count_is_quoted(self, capsys, tmp_path):
        path = tmp_path / "bad.cxt"
        path.write_text("B\n\nfoo\n3\n\n")
        code = main(["lattice", str(path)])
        assert code == 3
        assert "line 3: expected a count, got 'foo'" in capsys.readouterr().err

    def test_missing_file_is_reported(self, capsys):
        code = main(["lattice", "/nonexistent/path.cxt"])
        assert code == 3
