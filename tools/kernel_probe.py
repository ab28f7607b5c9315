"""Time the ``relalg`` kernels against the bit loops they replaced, and
count the branches ``relalg.branch`` picks.

Standard library and pytest, which ``tests/conftest.py`` imports.  From
the repository root:

    python3 tools/kernel_probe.py

Three tables are the data the weights of ``relalg.branch`` were fitted to.
Each is its rows, its reference and its columns: the library call of a
row, with its kernel's branch forced by ``oracles.branches`` or picked by
the rule, or the reference.  Each row prints its pick and the best of 7
runs of each column, the columns taking turns, each run on a fresh input.
The inputs are the seeded ones of ``tests/conftest.py``, on which the
tests check every column against its reference.

- The kernels ``compose(r, transpose(r))``, ``transpose(r)``,
  ``left_residual(r, r)`` and ``right_residual(r, r)`` (the residuals of a
  relation by itself are the orders a concept lattice is built from), on
  ``kernel_inputs``, against the compose and transpose bit loops, the
  residual row sweep and the columns-and-scatter right residual of
  ``tests/oracles.py``.  Each run takes a fresh copy of ``r``, so a right
  residual pays for its ``columns`` as a first call does.
- ``relalg.pullback``, with its gather forced and as the rule picks,
  against the fiber loop, on ``pullback_inputs``: the inverse images of a
  map's principal up-sets, the batch of every adjointness check.
- ``ConceptLattice.order`` on a fresh lattice, forced to ``tau_rel/tau_rel``
  over the types and to ``iota_rel\\iota_rel`` over the instances, on
  ``context_inputs``: the lattice benchmark's shapes, three more with a
  fixed number of crosses per row, and the order classifications of the
  boolean lattices 2^5 to 2^7.

A fourth table counts the kernel calls of one cycle of each benchmark
workload, nested calls included, by the branch ``relalg.branch`` picks:
``compose`` and ``FunctionGraph.preimages`` by how they read their rows,
``transpose``, both residuals, ``pullback`` (the gather, or the reading of
its masks) and the side of each concept order.
A fifth counts the kernel calls of each op of the bonding workload by the
stage of the op that makes them: parsing the pair, ``is_bonding_pair``,
``hom_of_pair``, and the pair and hom round trips.  Both library caches are
cleared before each op, as the benchmark worker does.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import json
import sys
import tempfile
from pathlib import Path
from time import perf_counter
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(ROOT / "perfbench")]

from conceptual.lattice import ConceptLattice, build_lattice  # noqa: E402
from conceptual.relalg import Relation, bits, pullback  # noqa: E402
from workloads import WORKLOADS  # noqa: E402
from conftest import (  # noqa: E402
    KERNELS,
    context_inputs,
    kernel_inputs,
    library_modules,
    pullback_inputs,
)
from oracles import branches, extent_inclusion_oracle, preimages_oracle  # noqa: E402

# timed runs of each function; the best is kept
REPEAT = 7
# the kernels the stage table counts
STAGE_KERNELS = ("compose", "transpose", "left_residual", "right_residual", "pullback")


class Table(NamedTuple):
    """A table of rows ``(labels, kernel, x, reference, run)``: ``run``
    calls the library on ``fresh(x)``.  Each column is a branch of
    ``kernel`` to force, ``""`` for the rule's pick, or ``None`` for
    ``reference(fresh(x))``; the speed-up is one column over another."""

    labels: tuple[str, ...]
    rows: list[tuple]
    columns: dict[str, str | None]
    ratio: tuple[str, str]
    fresh: Callable = lambda x: x


def best_time(fresh, kernel: str, columns: list) -> list[float]:
    """The best time of each ``(f, kind)`` in ``columns`` over ``REPEAT``
    rounds, the functions taking turns: ``f(fresh())``, with ``kind``, if
    any, forced on ``kernel``."""
    best = [float("inf")] * len(columns)
    for _ in range(REPEAT):
        for i, (f, kind) in enumerate(columns):
            x = fresh()
            with branches(kernel, kind) if kind else contextlib.nullcontext():
                start = perf_counter()
                f(x)
                best[i] = min(best[i], perf_counter() - start)
    return best


def run_table(table: Table) -> None:
    """Print each row with the branch the rule picks and its timed columns."""
    widths = [
        max(len(h), *(len(row[0][i]) for row in table.rows)) for i, h in enumerate(table.labels)
    ]
    widths += [9] + [max(10, len(c) + 3) for c in table.columns] + [8]

    def line(cells) -> None:
        print(" ".join(f"{cell:>{w}}" for cell, w in zip(cells, widths)))

    line((*table.labels, "rule", *(f"{c} ms" for c in table.columns), "speed-up"))
    num, den = map(list(table.columns).index, table.ratio)
    for labels, kernel, x, reference, run in table.rows:
        with branches() as picks:
            run(table.fresh(x))
        pick = "/".join(sorted({kind for name, kind in picks if name == kernel}))
        columns = [
            (reference, "") if kind is None else (run, kind) for kind in table.columns.values()
        ]
        times = best_time(lambda: table.fresh(x), kernel, columns)
        line((*labels, pick, *(f"{t * 1e3:.3f}" for t in times), f"{times[num] / times[den]:.2f}x"))
    print()


def kernel_table() -> Table:
    """The kernels against their bit loops, on each shape at each density."""
    rows = [
        ((*labels, name), name, r, loop, run)
        for labels, r in kernel_inputs()
        for name, run, loop in KERNELS
    ]
    # each run on a fresh copy of r, so a right residual pays for its columns
    # as a first call does
    copy = lambda r: Relation(r.src_size, r.dst_size, r.rows)  # noqa: E731
    labels = ("shape", "density", "kernel")
    return Table(labels, rows, {"kernel": "", "loop": None}, ("loop", "kernel"), copy)


def pullback_table() -> Table:
    """``pullback``, gathering and as the rule picks, against the fiber loop."""
    rows = [
        (
            (name, str(len(batches))),
            "pullback",
            batches,
            lambda batches: [preimages_oracle(psi, rows) for rows, _, psi in batches],
            lambda batches: [pullback(rows, cols, psi) for rows, cols, psi in batches],
        )
        for name, batches in pullback_inputs()
    ]
    columns = {"loop": None, "gather": "gather", "pullback": ""}
    return Table(("batches", "count"), rows, columns, ("loop", "pullback"))


def order_table() -> Table:
    """The order of each context's lattice from each side."""
    orders = []
    inclusions = lambda L: extent_inclusion_oracle([set(bits(e)) for e in L.extents])  # noqa: E731
    for name, K in context_inputs().items():
        L = build_lattice(K)
        orders.append(((name, str(L.size)), "order", L, inclusions, lambda L: L.order))
    fresh = lambda L: ConceptLattice._of(L.concepts, L.classification)  # noqa: E731
    labels, sides = ("context", "concepts"), ("types", "instances")
    return Table(labels, orders, dict(zip(sides, sides)), ("instances", "types"), fresh)


def probe_branches() -> None:
    """Print the branch counts of one cycle of each benchmark workload."""
    print(f"{'workload':>9} {'kernel':>15} {'calls':>7}  branches")
    mods = library_modules()
    with tempfile.TemporaryDirectory() as workdir:
        for workload in WORKLOADS.values():
            ops = list(workload(mods, 1, "full", Path(workdir) / workload.name).ops())
            with branches() as picks:
                for _, op, _ in ops:
                    mods.lattice.concept_lattice_of.cache_clear()
                    mods.functors.complete_lattice_of.cache_clear()
                    op()
            counts = collections.Counter(picks)
            for kernel in sorted({kernel for kernel, _ in counts}):
                kinds = sorted((kind, n) for (name, kind), n in counts.items() if name == kernel)
                total = sum(n for _, n in kinds)
                spread = ", ".join(f"{n} {kind}" for kind, n in kinds)
                print(f"{workload.name:>9} {kernel:>15} {total:>7}  {spread}")


def probe_stages() -> None:
    """Print the kernel calls of each op of the bonding workload by stage:
    each call of a counted kernel runs ``relalg.branch`` once, so the
    stage's picks of those kernels are its calls (a call of
    ``FunctionGraph.preimages``, which picks as ``compose`` does, counts as
    one of ``compose``)."""
    stages = ("parse", "is_pair", "hom", "pair_rt", "hom_rt")
    print(f"\n{'op':>13} " + " ".join(f"{name:>7}" for name in stages) + f" {'total':>7}")
    mods = library_modules()
    with tempfile.TemporaryDirectory() as workdir:
        workload = WORKLOADS["bonding"](mods, 1, "full", Path(workdir) / "bonding")
    for label, _, text in workload.pairs:
        mods.lattice.concept_lattice_of.cache_clear()
        mods.functors.complete_lattice_of.cache_clear()
        with branches() as picks:
            # the stages of the bonding op, in its order, each ending at a mark
            q = mods.io.morphism_from_obj(json.loads(text), validate=False)
            marks = [len(picks)]
            mods.bond.is_bonding_pair(q.forward, q.backward)
            marks.append(len(picks))
            h = mods.functors.hom_of_pair(q)
            marks.append(len(picks))
            mods.functors.pair_roundtrip_holds(q)
            marks.append(len(picks))
            mods.functors.hom_roundtrip_holds(h)
            marks.append(len(picks))
        counts = [
            sum(name in STAGE_KERNELS for name, _ in picks[start:end])
            for start, end in zip([0, *marks], marks)
        ]
        print(f"{label:>13} " + " ".join(f"{n:>7}" for n in counts) + f" {sum(counts):>7}")


def main(argv: list[str] | None = None) -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    for table in (kernel_table(), pullback_table(), order_table()):
        run_table(table)
    probe_branches()
    probe_stages()
    return 0


if __name__ == "__main__":
    sys.exit(main())
