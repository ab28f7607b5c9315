import json
import re

import pytest

from conceptual.cli import main
from conceptual.io import (
    dumps,
    morphism_to_obj,
    parse_classification,
)
from conceptual.bond import Bond, identity_bond
from conceptual.classification import Classification, powerset_classification
from conceptual.io import emit_cxt
from conceptual.lattice import build_lattice
from conceptual.relalg import Relation

from conftest import NEGATIVE_COUNT_CXT

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

    def test_stdin(self, capsys, monkeypatch):
        import io as stdlib_io

        monkeypatch.setattr("sys.stdin", stdlib_io.StringIO(K1_CXT))
        code, out = run(capsys, "lattice", "-")
        assert code == 0
        assert len(json.loads(out)["concepts"]) == 2


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
        bad = Bond(k1, k1, Relation.from_pairs(2, 2, [(0, 1)]), validate=False)
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

    def test_incompatible_quotient_is_structural_error(self, capsys, tmp_path, k1_file):
        inv = tmp_path / "inv.json"
        inv.write_text(json.dumps({"kept_instances": ["1", "2"], "related_types": [["a", "b"]]}))
        code, _ = run(capsys, "quotient", k1_file, str(inv))
        assert code == 3


class TestMalformedInput:
    """Malformed input is a structural error (exit 3) with a message, never a
    traceback."""

    def run_malformed(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ")
        return err

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


class TestVerifyCommand:
    def test_deterministic_output(self, capsys):
        code1, out1 = run(capsys, "verify-equivalences", "--max-size", "2", "--seed", "5", "--json")
        code2, out2 = run(capsys, "verify-equivalences", "--max-size", "2", "--seed", "5", "--json")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_inject_bug_fails(self, capsys):
        code, out = run(capsys, "verify-equivalences", "--max-size", "1", "--seed", "5", "--inject-bug")
        assert code == 1
        assert "FAIL" in out

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

    def test_missing_file_is_reported(self, capsys):
        code = main(["lattice", "/nonexistent/path.cxt"])
        assert code == 3
