"""Span tracer for the traced benchmark run.

The tracer never edits the library.  ``Tracer.install`` replaces each traced
function wherever a ``conceptual.*`` module has bound it (``from .relalg import
compose`` copies the name into the importing module), and wraps methods on
their class.  Every wrapped call opens a span: name, start, end, parent span
and op id.  Self time is a span's duration minus the time its direct child
spans cover; it is accumulated as spans close, so the per-layer totals count
every span even when the in-memory span log is capped.
"""

from __future__ import annotations

import functools
import json
import sys
from pathlib import Path
from time import perf_counter

# span name -> traced callables, as "module:attribute" or "module:Class.attribute"
LAYERS = {
    "relalg.compose": ["relalg:compose"],
    "relalg.transpose": ["relalg:transpose"],
    "relalg.left_residual": ["relalg:left_residual"],
    "relalg.right_residual": ["relalg:right_residual"],
    "relalg.function_graph": ["relalg:FunctionGraph.__init__", "relalg:FunctionGraph.then"],
    "classification.derivation": ["classification:intent_of", "classification:extent_of"],
    "classification.preorder": [
        "classification:instance_preorder",
        "classification:type_preorder",
    ],
    "lattice.build": ["lattice:build_lattice"],
    "lattice.covers": ["lattice:ConceptLattice.covers"],
    "infomorphism.check": ["infomorphism:check_functional", "infomorphism:check_relational"],
    "infomorphism.fn2rel": ["infomorphism:fn2rel"],
    "bond.is_bond": ["bond:is_bond"],
    "bond.is_bonding_pair": ["bond:is_bonding_pair"],
    "bond.compose_bonds": ["bond:compose_bonds"],
    "bond.close_to_bond": ["bond:close_to_bond"],
    "functors.complete_lattice": ["functors:CompleteLattice.__post_init__"],
    "functors.is_complete_homomorphism": ["functors:is_complete_homomorphism"],
    "functors.adjoint_of_bond": ["functors:adjoint_of_bond"],
    "functors.embedding_bonds": ["functors:embedding_bonds"],
    "functors.lattice_equivalence_witness": ["functors:lattice_equivalence_witness"],
    "functors.lattice_morphism_check": ["functors:check_lattice_morphism"],
    "colimit.transport_coproduct": ["colimit:transport_coproduct"],
    "colimit.check_coproduct_property": ["colimit:check_coproduct_property"],
    "colimit.enumerate_infomorphisms": ["colimit:enumerate_infomorphisms"],
    "verify.corpus": [
        f"verify:{name}_corpus"
        for name in ("context", "infomorphism", "bond", "adjoint", "hom", "pair")
    ]
    + ["verify:abstract_lattice_corpus"],
    "io.parse": [
        "io:parse_cxt",
        "io:parse_csv",
        "io:parse_classification",
        "io:classification_from_obj",
        "io:morphism_from_obj",
    ],
    "io.emit": ["io:dumps", "io:emit_dot", "io:morphism_to_obj"],
    "cli": ["cli:main"],
}

# generator functions: each resumption is one span, so consumer code that
# runs between two yields is not charged to the generator
GENERATORS = {"colimit:enumerate_infomorphisms"}

SPAN_LOG_CAP = 50_000


def _set_bits(r) -> int:
    return sum(row.bit_count() for row in r.rows)


def _words(nbits: int) -> int:
    """64-bit words in a bitset row of ``nbits`` bits (at least one)."""
    return max(1, (nbits + 63) // 64)


# counters per span name: (metric name, function of (args, result));
# word_ops is a model of each kernel's loop, not an instrumented count:
# one row-wide OR or AND per visited bit, each spanning the row's words
COUNTERS = {
    "relalg.compose": [
        ("relalg.compose.word_ops", lambda a, res: _set_bits(a[0]) * _words(a[1].dst_size))
    ],
    "relalg.transpose": [
        ("relalg.transpose.word_ops", lambda a, res: _set_bits(a[0]) * _words(a[0].src_size))
    ],
    "relalg.left_residual": [
        ("relalg.left_residual.word_ops", lambda a, res: _set_bits(a[0]) * _words(a[1].dst_size))
    ],
    "relalg.right_residual": [
        (
            "relalg.right_residual.word_ops",
            lambda a, res: a[0].src_size * a[1].src_size * _words(a[1].dst_size),
        )
    ],
    "lattice.build": [("lattice.concepts", lambda a, res: res.size)],
    "functors.complete_lattice": [
        ("functors.complete_lattice.elements", lambda a, res: len(a[0].elements))
    ],
    "io.emit": [
        ("io.bytes_out", lambda a, res: len(res.encode("utf-8")) if isinstance(res, str) else 0)
    ],
}


class Tracer:
    def __init__(self, cap: int = SPAN_LOG_CAP):
        self.cap = cap
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, op id)
        self.n_spans = 0
        self.stack: list[list] = []  # [id, name, start, child time]
        self.op_id = -1
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.depth: dict[str, int] = {}
        self.counters: dict[str, int] = {}

    # -- spans ------------------------------------------------------------

    def push(self, name: str) -> list:
        frame = [self.n_spans, name, 0.0, 0.0]
        self.n_spans += 1
        self.depth[name] = self.depth.get(name, 0) + 1
        self.stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def pop(self, frame: list) -> None:
        end = perf_counter()
        sid, name, start, child = self.stack.pop()
        dur = end - start
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.depth[name] -= 1
        if not self.depth[name]:
            # outermost span of this name: its duration counts once in total_s
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        parent = -1
        if self.stack:
            top = self.stack[-1]
            top[3] += dur
            parent = top[0]
        if len(self.spans) < self.cap:
            self.spans.append((sid, name, start, end, parent, self.op_id))

    def count(self, key: str, value: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, fn, name: str):
        hooks = COUNTERS.get(name, ())
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.pop(frame)
            if hooks:
                t0 = perf_counter()
                for key, hook in hooks:
                    tracer.count(key, hook(args, result))
                if tracer.stack:
                    # counting is tracer work: keep it out of the parent's self time
                    tracer.stack[-1][3] += perf_counter() - t0
            return result

        return traced

    def _wrap_generator(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = tracer.push(name)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    tracer.pop(frame)
                yield item

        return traced

    def install(self) -> None:
        """Wrap every traced callable of the imported ``conceptual`` package."""
        modules = [
            m for k, m in list(sys.modules.items())
            if m is not None and (k == "conceptual" or k.startswith("conceptual."))
        ]
        for name, targets in LAYERS.items():
            for target in targets:
                mod_name, attr = target.split(":")
                module = sys.modules[f"conceptual.{mod_name}"]
                if "." in attr:
                    self._install_method(module, attr, name)
                    continue
                original = getattr(module, attr)
                wrap = self._wrap_generator if target in GENERATORS else self._wrap
                traced = wrap(original, name)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, traced)

    def _install_method(self, module, attr: str, name: str) -> None:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        original = cls.__dict__[meth]
        if isinstance(original, functools.cached_property):
            traced = functools.cached_property(self._wrap(original.func, name))
            traced.__set_name__(cls, meth)
        else:
            traced = self._wrap(original, name)
        setattr(cls, meth, traced)

    # -- output -----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the span log, capped at ``cap`` spans, as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["id", "name", "start", "end", "parent", "op"],
                    "spans_recorded": self.n_spans,
                    "spans_kept": len(self.spans),
                    "spans": self.spans,
                },
                fh,
            )
