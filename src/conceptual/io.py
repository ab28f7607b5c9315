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
from .colimit import DualInvariant
from .errors import ParseError, ValidationError, quote
from .infomorphism import FunctionalInfomorphism, RelationalInfomorphism
from .lattice import ConceptLattice
from .relalg import FunctionGraph, Relation, from_digits, row_digits


# -- Burmeister context format -------------------------------------------------


# a .cxt row read backwards is the binary numeral of its bitmask
_CELL_DIGITS = str.maketrans("X.", "10")
# its inverse: a row's digits, cell 0 first, written as cells
_DIGIT_CELLS = str.maketrans("10", "X.")
# deletes the two cell characters, so a row block holding no other is empty
_NOT_CELLS = str.maketrans("", "", "X.")


def parse_cxt(text: str) -> Classification:
    """Parse a Burmeister context: ``B``, an optional name line, the two
    counts, a blank line, the instance and type labels, then one row of
    ``X`` (incidence) and ``.`` per instance; lines end in ``\n``, as text-mode reads give.

    The row block is checked in bulk, one scan of the row lengths and one
    ``translate`` that deletes ``X`` and ``.`` from the joined rows, and
    read by ``relalg.from_digits``: one binary numeral per row, least
    significant cell first, and one per column, so the context comes with
    its ``cols`` and FCbO transposes nothing.  The character check comes
    first because ``int(..., 2)`` alone also accepts ``_``, whitespace and a
    sign.  Only a block that fails is walked row by row, to name its first
    bad row, and a block cut short by the end of the file is reported after
    the rows it does hold.
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
    # row's cells reversed: the digits ``from_digits`` reads
    incidence = from_digits(n_inst, n_typ, cells.translate(_CELL_DIGITS)[::-1])
    try:
        return Classification(instances, types, incidence)
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
    n = len(K.types)
    out.extend(row_digits(row, n).translate(_DIGIT_CELLS) for row in K.rows)
    return "\n".join(out) + "\n"


# -- CSV ------------------------------------------------------------------------


def parse_csv(text: str) -> Classification:
    """A header row of types after one empty cell, then one row per
    instance: its label and a ``0`` or ``1`` per type.  Empty lines are
    skipped, and an error names the line its row ends on, ``reader.line_num``
    as the row is read."""
    reader = csv.reader(_io.StringIO(text))
    try:
        table = [(reader.line_num, row) for row in reader if row]
    except csv.Error as e:
        # a field over ``csv.field_size_limit()``, process-wide state left as it is
        raise ParseError(str(e), line=reader.line_num) from None
    if not table:
        raise ParseError("empty CSV input", line=1)
    types = tuple(table[0][1][1:])
    instances = []
    rows = []
    for li, cells in table[1:]:
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


# -- JSON -----------------------------------------------------------------------


def classification_to_obj(K: Classification) -> dict:
    return {
        "instances": list(K.instances),
        "types": list(K.types),
        "incidence": K.incidence.matrix(),
    }


def classification_from_obj(obj) -> Classification:
    """The classification ``classification_to_obj`` wrote.  A malformed
    object is a ``ParseError`` naming the field: the object must be a JSON
    object, the labels lists of strings, the incidence a list of rows, one
    per instance, of one cell per type."""
    obj = _object(obj, "classification")
    try:
        instances = _labels(obj["instances"], "classification", "instances")
        types = _labels(obj["types"], "classification", "types")
        rel = _matrix(obj["incidence"], "classification", "incidence", len(instances), len(types))
    except KeyError as e:
        raise _missing("classification", e) from None
    return Classification(instances, types, rel)


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
    """The JSON object of an infomorphism, bond or bonding pair; any other
    value raises ``TypeError`` naming its type."""
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
    src = classification_to_obj(m.source)
    tgt = classification_to_obj(m.target)
    return {"kind": kind, "source": src, "target": tgt, "data": data}


def _object(value, kind: str, key: str = "the top level") -> dict:
    """``value``, the top level or the field ``key`` of a ``kind`` object,
    if it is a JSON object."""
    if not isinstance(value, dict):
        raise ParseError(f"bad {kind} object: {key} must be a JSON object")
    return value


def _labels(value, kind: str, key: str, size: int | None = None) -> tuple[str, ...]:
    """The labels of the field ``key`` of a ``kind`` object, ``size`` of
    them when given; a string, whose characters would iterate as labels, is
    no list."""
    if not isinstance(value, list) or not all(isinstance(label, str) for label in value):
        raise ParseError(f"bad {kind} object: {key} must be a list of strings")
    if size is not None and len(value) != size:
        raise ParseError(f"bad {kind} object: {key} must have {size} labels, got {len(value)}")
    return tuple(value)


def _matrix(value, kind: str, key: str, src_size: int, dst_size: int) -> Relation:
    """The relation of the matrix field ``key`` of a ``kind`` object,
    ``src_size`` rows of ``dst_size`` cells, read by ``Relation.from_matrix``,
    whose refusals, a first row of another length or a first bad cell, are
    prefixed with the field.  A value that is no list is refused as no list
    of rows, and its first row that is no list as no list of cells: of
    either, ``from_matrix`` would read the keys or characters as cells."""
    if not isinstance(value, list):
        raise ParseError(f"bad {kind} object: {key} must be a list of rows")
    # one C-level scan; the first row of another type is searched for only on failure
    if not set(map(type, value)) <= {list}:
        a = next(a for a, row in enumerate(value) if type(row) is not list)
        raise ParseError(f"bad {kind} object: {key} row {a} must be a list of cells")
    try:
        rel = Relation.from_matrix(value, dst_size=dst_size)
    except ValidationError as e:
        raise ParseError(f"bad {kind} object: {key} {e}") from None
    if rel.src_size != src_size:
        raise ParseError(f"bad {kind} object: {key} must have {src_size} rows, got {rel.src_size}")
    return rel


def _missing(kind: str, error: KeyError) -> ParseError:
    """The refusal of a ``kind`` object lacking the key, or label, ``error`` names."""
    return ParseError(f"bad {kind} object: missing or invalid {quote(error.args[0])}")


def morphism_from_obj(obj, validate: bool = True):
    """The morphism ``morphism_to_obj`` wrote.  A malformed object is a
    ``ParseError`` naming the field: the object, its ``source``, ``target``
    and ``data`` must be JSON objects, the maps lists of labels and the
    matrices lists of rows, each of the length its morphism's shape asks.
    So the shape is checked here, and ``validate`` only picks between the
    checking constructor and ``_of``, which stores the morphism unchecked
    for the caller to check, as ``conceptual check`` does."""
    obj = _object(obj, "morphism")
    try:
        kind = obj["kind"]
        source = classification_from_obj(_object(obj["source"], "morphism", "source"))
        target = classification_from_obj(_object(obj["target"], "morphism", "target"))
        data = _object(obj["data"], "morphism", "data")
        # the sizes of the source A and of the target B
        a_inst, a_typ = len(source.instances), len(source.types)
        b_inst, b_typ = len(target.instances), len(target.types)
        if kind == "functional":
            fs = _labels(data["instance_map"], "morphism", "instance_map", b_inst)
            f = FunctionGraph(tuple(map(source.instance_index.__getitem__, fs)), a_inst)
            gs = _labels(data["type_map"], "morphism", "type_map", a_typ)
            g = FunctionGraph(tuple(map(target.type_index.__getitem__, gs)), b_typ)
            build = FunctionalInfomorphism if validate else FunctionalInfomorphism._of
            return build(source, target, f, g)
        if kind == "relational":
            r = _matrix(data["instance_rel"], "morphism", "instance_rel", a_inst, b_inst)
            s = _matrix(data["type_rel"], "morphism", "type_rel", a_typ, b_typ)
            build = RelationalInfomorphism if validate else RelationalInfomorphism._of
            return build(source, target, r, s)
        bond = Bond if validate else Bond._of
        if kind == "bond":
            return bond(source, target, _matrix(data["rel"], "morphism", "rel", b_inst, a_typ))
        if kind == "bonding-pair":
            fwd = _matrix(data["forward"], "morphism", "forward", b_inst, a_typ)
            bwd = _matrix(data["backward"], "morphism", "backward", a_inst, b_typ)
            return (BondingPair if validate else BondingPair._of)(
                bond(source, target, fwd), bond(target, source, bwd)
            )
    except KeyError as e:
        raise _missing("morphism", e) from None
    raise ParseError(f"unknown morphism kind {quote(kind)}")


def invariant_from_obj(obj, K: Classification) -> DualInvariant:
    """The dual invariant of ``K`` in the file of ``conceptual quotient``:
    ``kept_instances``, a list of instance labels, and ``related_types``, a
    list of pairs of type labels.  A malformed object, or a label ``K``
    lacks, is a ``ParseError`` naming the field or the label."""
    obj = _object(obj, "invariant")
    try:
        kept = _labels(obj["kept_instances"], "invariant", "kept_instances")
        pairs = obj["related_types"]
    except KeyError as e:
        raise _missing("invariant", e) from None
    if not isinstance(pairs, list):
        raise ParseError("bad invariant object: related_types must be a list of label pairs")
    pairs = [_labels(p, "invariant", f"related_types pair {i}", 2) for i, p in enumerate(pairs)]
    side = "instance"
    try:
        kept = K.instance_mask(kept)
        side = "type"
        pairs = [(K.type_index[a], K.type_index[b]) for a, b in pairs]
    except KeyError as e:
        raise ParseError(f"bad invariant object: unknown {side} label {quote(e.args[0])}") from None
    return DualInvariant(kept, Relation.from_pairs(len(K.types), len(K.types), pairs))


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2, ensure_ascii=False) + "\\n"``, byte for
    byte, for ``obj`` built of dicts with ``str`` keys, lists, tuples,
    ``str``, ``int``, ``bool`` and ``None``.  Any other value, such as a
    float or a set, and any key that is not a ``str`` raise ``TypeError``.

    With ``indent`` set, ``json.dumps`` runs the standard library's
    pure-Python encoder over every value.  This writer encodes each string
    once, with the encoder's own ``encode_basestring``, and writes a list
    whose items are all ``str``, or all exact ``int``, with one
    ``str.join``: a matrix row of 0s and 1s takes its cells from a
    two-entry table.  Dicts and mixed lists recurse.
    """
    return _encode(obj, "\n") + "\n"


# the text of a matrix cell
_BIT_TEXT = {0: "0", 1: "1"}
_BITS = frozenset(_BIT_TEXT)


def _encode(value, newline: str) -> str:
    """The ``indent=2`` text of ``value``, whose enclosing lines start with
    ``newline``: a line break and the indent of the value's own line."""
    if isinstance(value, str):
        return encode_basestring(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = newline + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        kinds = set(map(type, value))
        if kinds == {str}:
            items = map(encode_basestring, value)
        elif kinds == {int}:
            items = map(_BIT_TEXT.__getitem__ if _BITS.issuperset(value) else int.__repr__, value)
        else:
            items = [_encode(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(encode_basestring(key) + ": " + _encode(item, inner))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def lattice_json(L: ConceptLattice) -> str:
    """``dumps({"concepts": [{"extent": [...], "intent": [...]}, ...]})``,
    byte for byte, for the concepts of ``L`` with their labels.

    With ``indent`` set, ``json.dumps`` runs the standard library's
    pure-Python encoder over every label of every concept.  This emitter
    encodes each label once, with the encoder's own ``encode_basestring``,
    and joins the encoded labels of each extent and intent in the
    ``indent=2`` layout.  It reads the masks from ``L.extents`` and
    ``L.intents``, no concept object, and the bits of each in place,
    highest first, one ``bit_length`` and one XOR each, and the labels
    reversed: no generator is resumed and no function called per label.
    """
    inst = [encode_basestring(label) for label in L.instance_labels]
    typ = [encode_basestring(label) for label in L.type_labels]
    items = []
    for extent, intent in zip(L.extents, L.intents):
        ext = []
        while extent:
            i = extent.bit_length() - 1
            ext.append(inst[i])
            extent ^= 1 << i
        int_ = []
        while intent:
            i = intent.bit_length() - 1
            int_.append(typ[i])
            intent ^= 1 << i
        ext.reverse()
        int_.reverse()
        items.append(
            '    {\n      "extent": '
            + ("[\n        " + ",\n        ".join(ext) + "\n      ]" if ext else "[]")
            + ',\n      "intent": '
            + ("[\n        " + ",\n        ".join(int_) + "\n      ]" if int_ else "[]")
            + "\n    }"
        )
    # a concept lattice always has a top concept, so the list is not empty
    return '{\n  "concepts": [\n' + ",\n".join(items) + "\n  ]\n}\n"


# -- DOT ------------------------------------------------------------------------


def emit_dot(L: ConceptLattice) -> str:
    """Hasse diagram with reduced labelling, top rendered uppermost.

    Each concept is labelled with the types whose concept it is (``tau``),
    then the instances whose concept it is (``iota``), each in label index
    order; the two lines are joined by DOT's ``\\n``.  Inside the quoted
    label, ``\\`` is escaped before ``"``, so that no label can end the
    string or escape its closing quote.

    Every node is written from the one ``label=""`` template, and only the
    nodes that own a label, no more than there are instances and types, are
    formatted again.  An edge line is the upper node's head,
    ``"  cJ -> c"``, and the lower node's tail, ``"I;"``, each formatted
    once per node.  The heads of a node's upper covers are read off the
    bits of its ``covers`` row in place, highest first, and reversed, and
    the row's edge lines are one join of them with its tail.
    """
    own: dict[int, tuple[list[str], list[str]]] = {}
    for t, c in enumerate(L.tau.targets):
        own.setdefault(c, ([], []))[0].append(L.type_labels[t])
    for a, c in enumerate(L.iota.targets):
        own.setdefault(c, ([], []))[1].append(L.instance_labels[a])
    nodes = [f'  c{i} [label=""];' for i in range(L.size)]
    for c, parts in own.items():
        label = "\\n".join(
            " ".join(part).replace("\\", "\\\\").replace('"', '\\"') for part in parts if part
        )
        nodes[c] = f'  c{c} [label="{label}"];'
    lines = ["digraph lattice {", "  node [shape=box];", *nodes]
    heads = [f"  c{j} -> c" for j in range(L.size)]
    for i, row in enumerate(L.covers.rows):
        if not row:
            continue
        ups = []
        while row:
            j = row.bit_length() - 1
            ups.append(heads[j])
            row ^= 1 << j
        ups.reverse()
        tail = f"{i};"
        lines.append((tail + "\n").join(ups) + tail)
    lines.append("}")
    return "\n".join(lines) + "\n"
