"""File formats: Burmeister .cxt, CSV, canonical JSON, and DOT emission.

The JSON schema keeps a stable field order; all emitters are
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import csv
import io as _io
import json
from json.encoder import encode_basestring

from .bond import Bond, BondingPair
from .classification import Classification
from .errors import ParseError, ValidationError, quote
from .infomorphism import FunctionalInfomorphism, RelationalInfomorphism
from .lattice import ConceptLattice
from .relalg import FunctionGraph, Relation, bits


# -- Burmeister context format -------------------------------------------------


# a .cxt row read backwards is the binary numeral of its bitmask
_CELL_DIGITS = str.maketrans("X.", "10")
# deletes the two cell characters, so a row block holding no other is empty
_NOT_CELLS = str.maketrans("", "", "X.")


def parse_cxt(text: str) -> Classification:
    """Parse a Burmeister context: ``B``, an optional name line, the two
    counts, a blank line, the instance and type labels, then one row of
    ``X`` (incidence) and ``.`` per instance.

    The row block is checked in bulk, one scan of the row lengths and one
    ``translate`` that deletes ``X`` and ``.`` from the joined rows, and
    read as one binary numeral per row, least significant cell first.  The
    character check comes first because ``int(..., 2)`` alone also accepts
    ``_``, whitespace and a sign.  Only a block that fails is walked row by
    row, to name its first bad row, and a block cut short by the end of the
    file is reported after the rows it does hold.
    """
    lines = text.split("\n")

    def end_of_file() -> ParseError:
        return ParseError("unexpected end of file", line=len(lines))

    def get(idx: int) -> str:
        if idx >= len(lines):
            raise end_of_file()
        return lines[idx]

    if get(0).strip() != "B":
        raise ParseError(f"expected header 'B', got {quote(get(0))}", line=1)

    def int_at(idx: int) -> int:
        try:
            return int(get(idx).strip())
        except ValueError:
            raise ParseError(f"expected a count, got {quote(get(idx))}", line=idx + 1) from None

    # the name line is optional: without it the two counts are
    # immediately followed by the blank separator; any other layout is read
    # as having a name line, so a bad count is quoted on its own line
    def looks_like_counts(idx: int) -> bool:
        try:
            int_at(idx)
            int_at(idx + 1)
        except ParseError:
            return False
        return get(idx + 2).strip() == ""

    pos = 1 if looks_like_counts(1) else 2
    n_inst = int_at(pos)
    n_typ = int_at(pos + 1)
    # a negative count would index the label and row lines from the end
    for idx, n in ((pos, n_inst), (pos + 1, n_typ)):
        if n < 0:
            raise ParseError(f"expected a nonnegative count, got {quote(n)}", line=idx + 1)
    if get(pos + 2).strip() != "":
        raise ParseError("expected a blank line after the counts", line=pos + 3)
    pos += 3
    labels = lines[pos:pos + n_inst + n_typ]
    if len(labels) < n_inst + n_typ:
        raise end_of_file()
    instances = tuple(labels[:n_inst])
    types = tuple(labels[n_inst:])
    pos += n_inst + n_typ
    block = lines[pos:pos + n_inst]
    cells = "".join(block)
    if set(map(len, block)) - {n_typ} or cells.translate(_NOT_CELLS):
        for i, raw in enumerate(block):
            if len(raw) != n_typ:
                raise ParseError(
                    f"row has {len(raw)} cells, expected {n_typ}", line=pos + i + 1
                )
            if raw.strip("X."):
                ch = next(ch for ch in raw if ch not in "X.")
                raise ParseError(f"illegal cell character {ch!r}", line=pos + i + 1)
    if len(block) < n_inst:
        raise end_of_file()
    # the joined block read backwards holds the rows last to first, each
    # row's cells reversed: its binary numeral
    digits = cells.translate(_CELL_DIGITS)[::-1]
    if n_typ:
        rows = [int(digits[c:c + n_typ], 2) for c in range(0, len(digits), n_typ)]
        rows.reverse()
    else:
        rows = [0] * n_inst
    try:
        return Classification(instances, types, Relation(n_inst, n_typ, tuple(rows)))
    except ValidationError as e:
        raise ParseError(str(e)) from None


def emit_cxt(K: Classification, name: str = "") -> str:
    """The Burmeister text of ``K``.  A label or name holding ``\\n`` or
    ``\\r``, a line break when read as text, raises ``ValidationError``."""
    for label in (name, *K.instances, *K.types):
        if "\n" in label or "\r" in label:
            raise ValidationError(f"label {quote(label)} holds a line break, which .cxt cannot")
    out = ["B", name, str(len(K.instances)), str(len(K.types)), ""]
    out.extend(K.instances)
    out.extend(K.types)
    for row in K.rows:
        out.append(
            "".join("X" if row >> b & 1 else "." for b in range(len(K.types)))
        )
    return "\n".join(out) + "\n"


# -- CSV ------------------------------------------------------------------------


def parse_csv(text: str) -> Classification:
    reader = csv.reader(_io.StringIO(text))
    table = [row for row in reader if row]
    if not table:
        raise ParseError("empty CSV input", line=1)
    types = tuple(table[0][1:])
    instances = []
    rows = []
    for li, cells in enumerate(table[1:], start=2):
        if len(cells) != len(types) + 1:
            raise ParseError(
                f"row has {len(cells) - 1} cells, expected {len(types)}", line=li
            )
        instances.append(cells[0])
        row = 0
        for b, cell in enumerate(cells[1:]):
            if cell == "1":
                row |= 1 << b
            elif cell != "0":
                raise ParseError(f"cell must be 0 or 1, got {quote(cell)}", line=li)
        rows.append(row)
    try:
        return Classification(
            tuple(instances), types, Relation(len(instances), len(types), tuple(rows))
        )
    except ValidationError as e:
        raise ParseError(str(e)) from None


def emit_csv(K: Classification) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow([""] + list(K.types))
    for label, row in zip(K.instances, K.rows):
        writer.writerow([label] + [row >> b & 1 for b in range(len(K.types))])
    return buf.getvalue()


# -- JSON -----------------------------------------------------------------------


def classification_to_obj(K: Classification) -> dict:
    return {
        "instances": list(K.instances),
        "types": list(K.types),
        "incidence": K.incidence.matrix(),
    }


def classification_from_obj(obj: dict) -> Classification:
    try:
        instances = _labels(obj, "instances")
        types = _labels(obj, "types")
        rel = Relation.from_matrix(obj["incidence"], dst_size=len(types))
    except (KeyError, TypeError, ValidationError) as e:
        raise ParseError(f"bad classification object: {e}") from None
    if rel.src_size != len(instances):
        raise ParseError("incidence row count does not match instances")
    return Classification(instances, types, rel)


def is_labels(value) -> bool:
    """Whether a JSON value is a list of label strings; a string, whose
    characters would iterate as labels, is not."""
    return isinstance(value, list) and all(isinstance(label, str) for label in value)


def _labels(obj: dict, key: str) -> tuple[str, ...]:
    labels = obj[key]
    if not is_labels(labels):
        raise ParseError(f"bad classification object: {key} must be a list of strings")
    return tuple(labels)


def loads(text: str):
    """``json.loads``; input nested too deeply, or an integer with more
    digits than ``int`` reads, is a ``ParseError``."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ParseError("JSON input is nested too deeply") from None
    except json.JSONDecodeError:
        raise
    except ValueError:
        raise ParseError("JSON input holds an integer too long to read") from None


def parse_classification(text: str) -> Classification:
    """Sniff the format: .cxt starts with 'B', JSON with '{', else CSV."""
    if text.lstrip().startswith("{"):
        return classification_from_obj(loads(text))
    if text.split("\n", 1)[0].strip() == "B":
        return parse_cxt(text)
    return parse_csv(text)


def morphism_to_obj(m) -> dict:
    src = classification_to_obj(m.source)
    tgt = classification_to_obj(m.target)
    if isinstance(m, FunctionalInfomorphism):
        data = {
            "instance_map": [m.source.instances[m.f(b)] for b in range(len(m.target.instances))],
            "type_map": [m.target.types[m.g(t)] for t in range(len(m.source.types))],
        }
        kind = "functional"
    elif isinstance(m, RelationalInfomorphism):
        data = {"instance_rel": m.r.matrix(), "type_rel": m.s.matrix()}
        kind = "relational"
    elif isinstance(m, Bond):
        data = {"rel": m.rel.matrix()}
        kind = "bond"
    elif isinstance(m, BondingPair):
        data = {"forward": m.forward.rel.matrix(), "backward": m.backward.rel.matrix()}
        kind = "bonding-pair"
    else:
        raise TypeError(f"cannot serialize {type(m).__name__}")
    return {"kind": kind, "source": src, "target": tgt, "data": data}


def morphism_from_obj(obj: dict, validate: bool = True):
    try:
        kind = obj["kind"]
        source = classification_from_obj(obj["source"])
        target = classification_from_obj(obj["target"])
        data = obj["data"]
        if kind == "functional":
            for key in ("instance_map", "type_map"):
                if not is_labels(data[key]):
                    raise ParseError(f"bad morphism object: {key} must be a list of strings")
            f = FunctionGraph.from_targets(
                tuple(source.instance_index[l] for l in data["instance_map"]),
                len(source.instances),
            )
            g = FunctionGraph.from_targets(
                tuple(target.type_index[l] for l in data["type_map"]), len(target.types)
            )
            return FunctionalInfomorphism(source, target, f, g, validate=validate)
        if kind == "relational":
            r = Relation.from_matrix(data["instance_rel"], dst_size=len(target.instances))
            s = Relation.from_matrix(data["type_rel"], dst_size=len(target.types))
            return RelationalInfomorphism(source, target, r, s, validate=validate)
        if kind == "bond":
            rel = Relation.from_matrix(data["rel"], dst_size=len(source.types))
            return Bond(source, target, rel, validate=validate)
        if kind == "bonding-pair":
            fwd = Bond(
                source,
                target,
                Relation.from_matrix(data["forward"], dst_size=len(source.types)),
                validate=validate,
            )
            bwd = Bond(
                target,
                source,
                Relation.from_matrix(data["backward"], dst_size=len(target.types)),
                validate=validate,
            )
            return BondingPair(fwd, bwd, validate=validate)
    except KeyError as e:
        raise ParseError(f"bad morphism object: missing or invalid {quote(e.args[0])}") from None
    except TypeError as e:
        raise ParseError(f"bad morphism object: missing or invalid {e}") from None
    raise ParseError(f"unknown morphism kind {quote(kind)}")


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def lattice_json(L: ConceptLattice) -> str:
    """``dumps({"concepts": [{"extent": [...], "intent": [...]}, ...]})``,
    byte for byte, for the concepts of ``L`` with their labels.

    With ``indent`` set, ``json.dumps`` runs the standard library's
    pure-Python encoder over every label of every concept.  This emitter
    encodes each label once, with the encoder's own ``encode_basestring``,
    and joins the encoded labels of each extent and intent in the
    ``indent=2`` layout.  The bits of a mask are read in place, highest
    first, one ``bit_length`` and one XOR each, and the labels reversed:
    no generator is resumed per label.
    """
    inst = [encode_basestring(label) for label in L.instance_labels]
    typ = [encode_basestring(label) for label in L.type_labels]

    def labels(enc: list[str], mask: int) -> str:
        if not mask:
            return "[]"
        out = []
        while mask:
            i = mask.bit_length() - 1
            out.append(enc[i])
            mask ^= 1 << i
        out.reverse()
        return "[\n        " + ",\n        ".join(out) + "\n      ]"

    # a concept lattice always has a top concept, so the list is not empty
    body = ",\n".join(
        [
            f'    {{\n      "extent": {labels(inst, c.extent)},\n'
            f'      "intent": {labels(typ, c.intent)}\n    }}'
            for c in L.concepts
        ]
    )
    return '{\n  "concepts": [\n' + body + "\n  ]\n}\n"


# -- DOT ------------------------------------------------------------------------


def emit_dot(L: ConceptLattice) -> str:
    """Hasse diagram with reduced labelling, top rendered uppermost.

    Each concept is labelled with the types whose concept it is (``tau``),
    then the instances whose concept it is (``iota``), each in label index
    order; the two lines are joined by DOT's ``\\n``.  Inside the quoted
    label, ``\\`` is escaped before ``"``, so that no label can end the
    string or escape its closing quote.
    """
    own: list[list[list[str]]] = [[[], []] for _ in range(L.size)]
    for t, c in enumerate(L.tau.targets):
        own[c][0].append(L.type_labels[t])
    for a, c in enumerate(L.iota.targets):
        own[c][1].append(L.instance_labels[a])
    lines = ["digraph lattice {", "  node [shape=box];"]
    for i, parts in enumerate(own):
        label = "\\n".join(
            " ".join(part).replace("\\", "\\\\").replace('"', '\\"') for part in parts if part
        )
        lines.append(f'  c{i} [label="{label}"];')
    for i in range(L.size):
        for j in bits(L.covers.rows[i]):
            lines.append(f"  c{j} -> c{i};")
    lines.append("}")
    return "\n".join(lines) + "\n"
