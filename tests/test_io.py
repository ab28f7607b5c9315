import json
import re

import pytest

from conceptual.bond import identity_bond, identity_bonding_pair
from conceptual.classification import Classification, contranominal_classification
from conceptual.errors import ParseError, ValidationError
from conceptual.functors import complete_lattice_of, identity_hom, pair_of_hom
from conceptual.infomorphism import fn2rel, identity_functional, instance_infomorphism
from conceptual.io import (
    classification_from_obj,
    classification_to_obj,
    dumps,
    emit_csv,
    emit_cxt,
    emit_dot,
    lattice_json,
    morphism_from_obj,
    morphism_to_obj,
    parse_classification,
    parse_csv,
    parse_cxt,
)
from conceptual.lattice import build_lattice, concept_lattice_of
from conceptual.relalg import Relation

from conftest import NEGATIVE_COUNT_CXT, all_contexts, bench_contexts, random_context
from oracles import emit_cxt_oracle, emit_dot_oracle

K1_CXT = "B\n\n2\n2\n\n1\n2\na\nb\nX.\nXX\n"


class TestCxt:
    def test_minimal_example_parses_to_k1(self, k1):
        assert parse_cxt(K1_CXT) == k1

    def test_named_header_variant(self, k1):
        assert parse_cxt("B\nexample\n2\n2\n\n1\n2\na\nb\nX.\nXX\n") == k1

    def test_numeric_name_disambiguated_by_blank_line(self):
        K = parse_cxt("B\n2\n1\n1\n\nonly\nt\nX\n")
        assert K.instances == ("only",)

    def test_empty_context(self):
        K = parse_cxt("B\n\n0\n0\n\n")
        assert K.instances == () and K.types == ()

    def test_bad_header(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_cxt("C\n\n0\n0\n\n")

    def test_illegal_row_character_carries_line_number(self):
        with pytest.raises(ParseError, match="line 11.*'Y'"):
            parse_cxt("B\n\n2\n2\n\n1\n2\na\nb\nX.\nXY\n")

    @pytest.mark.parametrize("ch", ["_", " ", "+", "-", "0", "1", "x"])
    def test_cells_other_than_x_and_dot_rejected(self, ch):
        # int(..., 2) would accept most of these
        for row in (f"X{ch}X", f"{ch}..", f"..{ch}"):
            text = f"B\n\n2\n3\n\n1\n2\na\nb\nc\nX.X\n{row}\n"
            message = re.escape(f"line 12: illegal cell character {ch!r}")
            with pytest.raises(ParseError, match=message):
                parse_cxt(text)

    def test_first_illegal_cell_is_named(self):
        with pytest.raises(ParseError, match="line 11: illegal cell character '_'"):
            parse_cxt("B\n\n1\n4\n\n1\na\nb\nc\nd\nX_-Y\n")

    @pytest.mark.parametrize(
        "rows, message",
        [
            (("X", "XY", "Y"), "line 11: row has 1 cells, expected 2"),
            (("XY", "X", "Y"), "line 11: illegal cell character 'Y'"),
            ((".X", "X", "XY"), "line 12: row has 1 cells, expected 2"),
            ((".X", "_X", "XXX"), "line 12: illegal cell character '_'"),
        ],
    )
    def test_first_bad_row_is_named(self, rows, message):
        """The row block is checked in bulk; of several bad rows, the first
        is named, whichever way it is bad."""
        text = "B\n\n3\n2\n\n1\n2\n3\na\nb\n" + "\n".join(rows) + "\n"
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_cxt(text)

    @pytest.mark.parametrize(
        "tail, message",
        [
            ("X.\n.X", "line 12: unexpected end of file"),
            ("X.\n.X\n", "line 13: row has 0 cells, expected 2"),
            ("X.", "line 11: unexpected end of file"),
            ("X.\nX", "line 12: row has 1 cells, expected 2"),
        ],
    )
    def test_truncated_row_block(self, tail, message):
        """A file that ends inside the row block fails at its end, after the
        rows it holds are checked: a bad row among them is named first."""
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_cxt("B\n\n3\n2\n\n1\n2\n3\na\nb\n" + tail)

    def test_context_without_types(self):
        K = parse_cxt("B\n\n2\n0\n\n1\n2\n\n\n")
        assert K.instances == ("1", "2") and K.types == ()
        assert K.incidence == Relation.empty(2, 0)

    @pytest.mark.parametrize(
        "text, line", list(NEGATIVE_COUNT_CXT.values()), ids=list(NEGATIVE_COUNT_CXT)
    )
    def test_negative_count_names_its_line(self, text, line):
        with pytest.raises(ParseError, match=f"line {line}: expected a nonnegative count"):
            parse_cxt(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("B\n\nfoo\n3\n\n", "line 3: expected a count, got 'foo'"),
            ("B\nname\n2\nx\n\n", "line 4: expected a count, got 'x'"),
            ("B\nname\n1\n1\nX\n", "line 5: expected a blank line after the counts"),
        ],
    )
    def test_bad_count_line_is_quoted(self, text, message):
        """A layout that is not ``counts, blank`` right after the header is
        read as having a name line, so the bad count is named on its line."""
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_cxt(text)

    def test_both_layouts_still_parse(self):
        body = "\na\nt\nX\n"
        unnamed = parse_cxt("B\n1\n1\n" + body)
        for name in ("", "7", "name"):
            assert parse_cxt(f"B\n{name}\n1\n1\n" + body) == unnamed

    def test_row_width_mismatch(self):
        with pytest.raises(ParseError, match="cells"):
            parse_cxt("B\n\n2\n2\n\n1\n2\na\nb\nX\nXX\n")

    def test_roundtrip(self, rng):
        for _ in range(15):
            K = random_context(rng, rng.randint(0, 4), rng.randint(0, 4))
            assert parse_cxt(emit_cxt(K)) == K

    def test_writer_is_the_per_cell_writer(self, rng):
        """Rows written as their digits give the bytes of the per-cell
        writer: with no instances, no types, neither, and seeded shapes."""
        shapes = [(0, 0), (0, 3), (3, 0), (1, 1)]
        shapes += [(rng.randint(1, 9), rng.randint(1, 70)) for _ in range(20)]
        for m, n in shapes:
            K = random_context(rng, m, n)
            assert emit_cxt(K, "k") == emit_cxt_oracle(K, "k")
        full = Classification(("a", "b"), ("s", "t", "u"), Relation.full(2, 3))
        assert emit_cxt(full) == emit_cxt_oracle(full) == "B\n\n2\n3\n\na\nb\ns\nt\nu\nXXX\nXXX\n"

    def test_every_label_emitted_reads_back(self, rng, tmp_path):
        """Labels and names drawn from characters the format could trip on:
        ``emit_cxt`` refuses exactly those holding ``\\n`` or ``\\r``, and
        everything else reads back equal from a file read as text."""
        alphabet = ["a", "B", "0", "3", "X", ".", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x1c"]
        alphabet += ["\x85", "\u2028", "\\", '"', "é"]

        def label():
            return "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 3)))

        path = tmp_path / "k.cxt"
        refused = 0
        for _ in range(400):
            name = label()
            instances = tuple(dict.fromkeys(label() for _ in range(rng.randint(0, 3))))
            types = tuple(dict.fromkeys(label() for _ in range(rng.randint(0, 3))))
            rows = tuple(rng.getrandbits(len(types)) for _ in instances)
            K = Classification(instances, types, Relation(len(instances), len(types), rows))
            breaks = [l for l in (name, *instances, *types) if "\n" in l or "\r" in l]
            if breaks:
                refused += 1
                with pytest.raises(ValidationError, match=re.escape(repr(breaks[0]))):
                    emit_cxt(K, name)
                continue
            path.write_text(emit_cxt(K, name), encoding="utf-8")
            assert parse_cxt(path.read_text(encoding="utf-8")) == K
        assert 0 < refused < 400


class TestCsv:
    def test_roundtrip(self, rng):
        for _ in range(15):
            K = random_context(rng, rng.randint(0, 4), rng.randint(0, 4))
            assert parse_csv(emit_csv(K)) == K

    def test_quoted_labels_roundtrip(self):
        K = Classification(
            ('wei,rd', 'qu"ote'), ("t 1",), Relation.from_matrix([[1], [0]])
        )
        assert parse_csv(emit_csv(K)) == K

    def test_cell_validation(self):
        with pytest.raises(ParseError, match="0 or 1"):
            parse_csv(",t\ni,2\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (",a\n\n\n1,x\n", "line 4: cell must be 0 or 1, got 'x'"),
            (",a\n\n1,0\n\n2,0,1\n", "line 5: row has 2 cells, expected 1"),
            ('\n,a\n"1\n",0\n\n2,2\n', "line 6: cell must be 0 or 1, got '2'"),
        ],
    )
    def test_error_names_the_line_after_blank_lines(self, text, message):
        """A row's line is the reader's line count as it is read, not its
        place among the non-empty rows; a quoted line break counts too."""
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            parse_csv(text)

    def test_matches_cxt_parse(self, k1):
        csv_text = ",a,b\n1,1,0\n2,1,1\n"
        assert parse_csv(csv_text) == parse_cxt(K1_CXT)


class TestJsonAndSniffing:
    def test_classification_roundtrip(self, rng):
        for _ in range(10):
            K = random_context(rng, 3, 3)
            assert classification_from_obj(classification_to_obj(K)) == K

    def test_sniffing(self, k1):
        assert parse_classification(K1_CXT) == k1
        assert parse_classification(json.dumps(classification_to_obj(k1))) == k1
        assert parse_classification(",a,b\n1,1,0\n2,1,1\n") == k1

    def test_morphism_roundtrips(self, k1):
        eta = instance_infomorphism(k1)
        for m in (
            identity_functional(k1),
            eta,
            fn2rel(eta),
            identity_bond(k1),
            identity_bonding_pair(k1),
        ):
            assert morphism_from_obj(morphism_to_obj(m)) == m

    def test_unknown_kind(self, k1):
        obj = morphism_to_obj(identity_bond(k1))
        obj["kind"] = "mystery"
        with pytest.raises(ParseError):
            morphism_from_obj(obj)

    def test_missing_data_key_is_a_parse_error(self, k1):
        obj = morphism_to_obj(identity_bond(k1))
        obj["data"] = {}
        with pytest.raises(ParseError, match="rel"):
            morphism_from_obj(obj)

    def test_unknown_label_is_a_parse_error(self, k1):
        obj = morphism_to_obj(identity_functional(k1))
        obj["data"]["instance_map"] = ["zz", "2"]
        with pytest.raises(ParseError, match="zz"):
            morphism_from_obj(obj)


# labels that JSON must escape, or must pass through unescaped
AWKWARD_LABELS = (
    'q"uote',
    "back\\slash",
    "\\",
    '\\"',
    "tab\tnew\nline\rcr",
    "\x00\x01\x1f",
    "\x7f",
    " ",
    "",
    "café",
    "\U0001F600 non-BMP",
    "\u2028\u2029",
)


def stdlib_dumps(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


class TestDumps:
    """``io.dumps`` against the standard library's ``indent=2`` text; the
    hypothesis property is in ``test_io_properties.py``."""

    @pytest.mark.parametrize(
        "value",
        [
            {"a": [0, 1, 1], "b": [], "c": {}, "d": None},
            [[0, 1], [1, 0], []],
            [True, 0, False, 1, None],
            [2**70, -3, 0, 1],
            list(AWKWARD_LABELS),
            (("x",), ["y", 1], {"z": [True]}),
            {label: label for label in AWKWARD_LABELS},
            "\ud800 lone",
            7,
            False,
            None,
        ],
    )
    def test_matches_the_standard_library(self, value):
        assert dumps(value) == stdlib_dumps(value)

    @pytest.mark.parametrize(
        "value", [1.0, [0, 1, 0.5], {"a": {1, 2}}, {1: "a"}, {("a",): 1}, [b"01"]]
    )
    def test_other_values_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            dumps(value)

    def test_bonding_pair_of_128_element_lattices(self):
        L = complete_lattice_of(concept_lattice_of(contranominal_classification(7)))
        assert L.size == 128
        obj = morphism_to_obj(pair_of_hom(identity_hom(L)))
        assert dumps(obj) == stdlib_dumps(obj)


class TestLatticeJson:
    @staticmethod
    def reference(L) -> str:
        """The report as ``conceptual lattice`` built it with ``dumps``."""
        concepts = [
            {"extent": list(L.extent_labels(c)), "intent": list(L.intent_labels(c))}
            for c in L.concepts
        ]
        return json.dumps({"concepts": concepts}, indent=2, ensure_ascii=False) + "\n"

    def test_matches_dumps_on_awkward_labels(self, rng):
        labels = list(AWKWARD_LABELS)
        for _ in range(40):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            rng.shuffle(labels)
            K = random_context(rng, m, n)
            K = Classification(tuple(labels[:m]), tuple(labels[-n:] if n else ()), K.incidence)
            L = build_lattice(K)
            assert lattice_json(L) == self.reference(L)

    @pytest.mark.parametrize("m, n", [(0, 0), (0, 4), (4, 0), (1, 1)])
    def test_empty_carriers(self, m, n):
        for rows in ((0,) * m, ((1 << n) - 1,) * m):
            K = Classification(
                AWKWARD_LABELS[:m], AWKWARD_LABELS[-n:] if n else (), Relation(m, n, rows)
            )
            L = build_lattice(K)
            assert lattice_json(L) == self.reference(L)

    def test_empty_extent_and_intent(self):
        # top has no common type, bottom no instance with every type
        K = Classification(("a", "b"), ("s", "t"), Relation(2, 2, (0b01, 0b10)))
        L = build_lattice(K)
        assert 0 in L.extents and 0 in L.intents
        assert lattice_json(L) == self.reference(L)

    @pytest.mark.parametrize("shape", [0, 1], ids=["wide-100x22", "tall-1500x40"])
    def test_matches_dumps_at_the_bench_shapes(self, shape):
        L = build_lattice(bench_contexts()[shape])
        assert lattice_json(L) == self.reference(L)


class TestDot:
    def test_k1_two_nodes_one_edge(self, k1):
        text = emit_dot(build_lattice(k1))
        assert text.count("[label=") == 2
        assert text.count("->") == 1

    def test_single_concept_lattice(self):
        K = Classification(("a",), (), Relation.empty(1, 0))
        text = emit_dot(build_lattice(K))
        assert text.count("[label=") == 1
        assert "->" not in text

    def test_contranominal_3_counts(self):
        text = emit_dot(build_lattice(contranominal_classification(3)))
        assert text.count("[label=") == 8
        assert text.count("->") == 12

    def test_deterministic(self, k1):
        L = build_lattice(k1)
        assert emit_dot(L) == emit_dot(L)

    def test_matches_the_oracle_up_to_3x3(self):
        for K in all_contexts(3, 3):
            L = build_lattice(K)
            assert emit_dot(L) == emit_dot_oracle(L)

    @pytest.mark.parametrize("shape", [0, 1], ids=["wide-100x22", "tall-1500x40"])
    def test_matches_the_oracle_at_the_bench_shapes(self, shape):
        L = build_lattice(bench_contexts()[shape])
        assert emit_dot(L) == emit_dot_oracle(L)
