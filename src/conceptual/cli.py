"""Command-line surface.

Exit codes: 0 success, 1 failed check or failed verification, 2 usage
errors, 3 structural errors in the inputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import io as fmt
from .bond import Bond, BondingPair, compose_bonds, is_bond, is_bonding_pair
from .classification import (
    Classification,
    dual,
    powerset_classification,
)
from .colimit import (
    DualInvariant,
    apposition,
    coproduct_sum,
    dual_quotient,
    product,
    subposition,
)
from .errors import ConceptualError, ParseError, quote
from .infomorphism import (
    FunctionalInfomorphism,
    RelationalInfomorphism,
    check_functional,
    check_relational,
    compose_functional,
    compose_relational,
)
from .lattice import build_lattice
from .relalg import Relation
from .verify import MAX_CORPUS_SIZE, verify_equivalences


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not UTF-8 text: {e}") from None


def _load_classification(path: str) -> Classification:
    text = _read(path)
    if path.endswith(".cxt"):
        return fmt.parse_cxt(text)
    if path.endswith(".csv"):
        return fmt.parse_csv(text)
    if path.endswith(".json"):
        return fmt.classification_from_obj(fmt.loads(text))
    return fmt.parse_classification(text)


def _print_classification(K: Classification, args) -> None:
    if getattr(args, "cxt", False):
        sys.stdout.write(fmt.emit_cxt(K))
    else:
        sys.stdout.write(fmt.dumps(fmt.classification_to_obj(K)))


def cmd_lattice(args) -> int:
    K = _load_classification(args.context)
    L = build_lattice(K)
    if args.dot:
        sys.stdout.write(fmt.emit_dot(L))
        return 0
    sys.stdout.write(fmt.lattice_json(L))
    return 0


# kind -> (class, its name in the mismatch message, check); each check calls
# the library by its name in this module, so a wrapper bound to that name sees it
CHECKS = {
    "infomorphism": (
        FunctionalInfomorphism, "a functional infomorphism", lambda m: check_functional(m)
    ),
    "relational": (
        RelationalInfomorphism, "a relational infomorphism", lambda m: check_relational(m)
    ),
    "bond": (Bond, "a bond", lambda m: is_bond(m.source, m.target, m)),
    "bonding-pair": (
        BondingPair, "a bonding pair", lambda m: is_bonding_pair(m.forward, m.backward)
    ),
}


def cmd_check(args) -> int:
    cls, name, check = CHECKS[args.kind]
    failures = 0
    results = []
    for path in args.files:
        m = fmt.morphism_from_obj(fmt.loads(_read(path)), validate=False)
        if not isinstance(m, cls):
            raise ConceptualError(f"{path}: expected {name}")
        verdict = check(m)
        results.append(
            {
                "file": path,
                "ok": bool(verdict),
                "witness": list(verdict.witness) if verdict.witness else None,
                "reason": verdict.reason or None,
            }
        )
        if not verdict:
            failures += 1
    if args.json:
        sys.stdout.write(fmt.dumps({"results": results}))
    else:
        for r in results:
            status = "ok" if r["ok"] else f"FAIL ({r['reason']}; witness {r['witness']})"
            print(f"{r['file']}: {status}")
    return 1 if failures else 0


def cmd_compose(args) -> int:
    a = fmt.morphism_from_obj(fmt.loads(_read(args.first)))
    b = fmt.morphism_from_obj(fmt.loads(_read(args.second)))
    if args.kind == "bonds":
        if not isinstance(a, Bond) or not isinstance(b, Bond):
            raise ConceptualError("compose bonds expects two bond files")
        out = compose_bonds(a, b)
    else:
        if isinstance(a, FunctionalInfomorphism) and isinstance(b, FunctionalInfomorphism):
            out = compose_functional(a, b)
        elif isinstance(a, RelationalInfomorphism) and isinstance(b, RelationalInfomorphism):
            out = compose_relational(a, b)
        else:
            raise ConceptualError("compose infos expects two infomorphisms of the same kind")
    sys.stdout.write(fmt.dumps(fmt.morphism_to_obj(out)))
    return 0


# command -> (construction, name of its two legs, help)
BINARY_CONSTRUCTIONS = {
    "sum": (coproduct_sum, "injection", "coproduct of two contexts"),
    "appose": (apposition, "injection", "apposition (shared instances)"),
    "subpose": (subposition, "projection", "subposition (shared types)"),
    "product": (product, "projection", "product of two contexts"),
}


def cmd_binary_construction(args) -> int:
    construct, leg, _ = BINARY_CONSTRUCTIONS[args.command]
    d = construct(_load_classification(args.first), _load_classification(args.second))
    obj = {"apex": fmt.classification_to_obj(d.apex)}
    for side in ("left", "right"):
        obj[f"{side}_{leg}"] = fmt.morphism_to_obj(getattr(d, f"{side}_{leg}"))
    sys.stdout.write(fmt.dumps(obj))
    return 0


def cmd_quotient(args) -> int:
    K = _load_classification(args.context)
    invariant = fmt.loads(_read(args.invariant))
    try:
        kept, pairs = invariant["kept_instances"], invariant["related_types"]
        if not fmt.is_labels(kept) or not isinstance(pairs, list) or not all(
            fmt.is_labels(pair) and len(pair) == 2 for pair in pairs
        ):
            raise ParseError("bad invariant object: need a list of labels and of label pairs")
        kept = K.instance_mask(kept)
        rel_pairs = [(K.type_index[a], K.type_index[b]) for a, b in pairs]
    except KeyError as e:
        raise ParseError(f"bad invariant object: {quote(e.args[0])}") from None
    except TypeError as e:
        raise ParseError(f"bad invariant object: {e}") from None
    rel = Relation.from_pairs(len(K.types), len(K.types), rel_pairs)
    quotient, projection = dual_quotient(K, DualInvariant(kept, rel))
    sys.stdout.write(
        fmt.dumps(
            {
                "classification": fmt.classification_to_obj(quotient),
                "projection": fmt.morphism_to_obj(projection),
            }
        )
    )
    return 0


def cmd_dual(args) -> int:
    _print_classification(dual(_load_classification(args.context)), args)
    return 0


def cmd_powerset(args) -> int:
    _print_classification(powerset_classification(tuple(args.labels)), args)
    return 0


def cmd_verify(args) -> int:
    report = verify_equivalences(
        max_size=args.max_size, seed=args.seed, inject_bug=args.inject_bug
    )
    if args.json:
        sys.stdout.write(report.to_json())
    else:
        print(report.to_text())
    return report.exit_code


def _int_value(text: str, name: str) -> int:
    """``int(text)``, failing as argparse words a bad value, ``invalid
    <name> value: '...'``, but with the value quoted by ``errors.quote``, so
    a huge argument is not echoed whole."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid {name} value: {quote(text)}") from None


def seed_value(text: str) -> int:
    return _int_value(text, "int")


def corpus_size(text: str) -> int:
    value = _int_value(text, "corpus_size")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {quote(value)}")
    if value > MAX_CORPUS_SIZE:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_CORPUS_SIZE}, got {quote(value)}")
    return value


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``parse_args`` keeps no
    state between calls, so every ``main`` call shares it."""
    parser = argparse.ArgumentParser(
        prog="conceptual",
        description="Classifications, concept lattices, bonds, and the equivalences between them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="print the concept lattice of a context")
    p.add_argument("context", help="context file (.cxt/.csv/.json) or - for stdin")
    p.add_argument("--dot", action="store_true", help="emit the Hasse diagram as DOT")
    p.set_defaults(fn=cmd_lattice)

    p = sub.add_parser("check", help="check a serialized morphism")
    p.add_argument("kind", choices=list(CHECKS))
    p.add_argument("files", nargs="+")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("compose", help="compose two serialized morphisms")
    p.add_argument("kind", choices=["bonds", "infos"])
    p.add_argument("first")
    p.add_argument("second")
    p.set_defaults(fn=cmd_compose)

    for name, (_, _, help_text) in BINARY_CONSTRUCTIONS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("first")
        p.add_argument("second")
        p.set_defaults(fn=cmd_binary_construction)

    p = sub.add_parser("quotient", help="dual quotient by an invariant")
    p.add_argument("context")
    p.add_argument("invariant", help="JSON file with kept_instances and related_types")
    p.set_defaults(fn=cmd_quotient)

    p = sub.add_parser("dual", help="dual classification")
    p.add_argument("context")
    p.add_argument("--cxt", action="store_true", help="emit .cxt instead of JSON")
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("powerset", help="instance powerset classification")
    p.add_argument("labels", nargs="*")
    p.add_argument("--cxt", action="store_true")
    p.set_defaults(fn=cmd_powerset)

    p = sub.add_parser("verify-equivalences", help="run the equivalence suite")
    p.add_argument("--max-size", type=corpus_size, default=3)
    p.add_argument("--seed", type=seed_value, default=0)
    p.add_argument("--inject-bug", action="store_true")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ConceptualError, OSError, json.JSONDecodeError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
