"""The benchmark's workloads.

A workload object is built once per set-up: it imports nothing itself but
takes the freshly imported ``conceptual`` modules, turns the benchmark seed
into inputs, and serialises them the way a user would hand them to the
library.  ``ops()`` is one cycle: every input once, in a fixed order.  Each op
is a closure called in the timed interval; ``check`` judges its output
outside that interval, against references computed here independently of
the library where one exists.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _stdio
import json
import random
import re
from pathlib import Path

# input shapes; "tiny" exists for the self-test.  shape name -> (instances,
# types, density).  Every row holds exactly round(density * types) crosses at
# random columns.  Each context is drawn from a fixed seed, and the benchmark
# seed only permutes its rows and columns: drawn from the benchmark seed, the
# wide contexts' concept counts varied by 3% from seed to seed, and the build
# cost, quadratic in it, by twice that.
LATTICE_SHAPES = {
    "full": {"wide": (100, 22, 0.3), "tall": (1500, 40, 0.05)},
    "tiny": {"wide": (12, 6, 0.3), "tall": (60, 10, 0.2)},
}
LATTICE_CONTEXTS_PER_SHAPE = {"full": 4, "tiny": 1}

# random contexts for the identity pair and the embedding pairs: a search from
# a fixed seed finds a context whose lattice has exactly the given number of
# concepts, and the benchmark seed only permutes its rows and columns.  The
# lattice is then isomorphic for every seed, so neither the set-up nor an op
# costs more on one seed than on another.
BONDING_RANDOM = {"full": ((10, 10, 0.5), (48, 54)), "tiny": ((4, 4, 0.5), (7, 9))}
# contranominal sizes (a, b) of the boolean homomorphisms 2^a -> 2^b, and the
# chains a -> b -> ... of the composites, which start with the embedding
# pair of contranominal a
BONDING_HOMS = {"full": [(6, 4), (6, 6), (7, 5), (7, 7)], "tiny": [(3, 2), (3, 3)]}
BONDING_COMPOSITES = {"full": [(7, 5), (7, 7, 5)], "tiny": [(3, 2)]}

VERIFY_BASE_SEED = 7
VERIFY_BLOCK = {"full": 5, "tiny": 3}
VERIFY_MAX_SIZE = {"full": 3, "tiny": 2}


def run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """``conceptual.cli.main(argv)`` with stdout captured."""
    buf = _stdio.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def random_context(mods, rng: random.Random, m: int, n: int, p: float):
    """m x n context, each row with round(p * n) crosses at random columns."""
    k = round(p * n)
    rows = tuple(sum(1 << b for b in rng.sample(range(n), k)) for _ in range(m))
    return mods.classification.Classification(
        tuple(f"g{i}" for i in range(m)),
        tuple(f"m{j}" for j in range(n)),
        mods.relalg.Relation(m, n, rows),
    )


def permuted_context(mods, rng: random.Random, K):
    """K with its rows and its columns shuffled: an isomorphic concept lattice."""
    m, n = len(K.instances), len(K.types)
    cols = rng.sample(range(n), n)
    rows = tuple(
        sum(1 << cols[j] for j in range(n) if K.incidence.rows[i] >> j & 1)
        for i in rng.sample(range(m), m)
    )
    return mods.classification.Classification(
        K.instances, K.types, mods.relalg.Relation(m, n, rows)
    )


def _derive(masks: tuple[int, ...], members: int, full: int) -> int:
    out = full
    while members:
        low = members & -members
        out &= masks[low.bit_length() - 1]
        members ^= low
    return out


def _mask(index: dict[str, int], labels: list[str]) -> int:
    out = 0
    for label in labels:
        out |= 1 << index[label]
    return out


class _Context:
    """A generated context with independent reference data for the checks."""

    def __init__(self, K, path: Path):
        self.path = path
        self.instances = K.instances
        self.types = K.types
        self.rows = K.incidence.rows
        n = len(K.types)
        self.cols = tuple(
            sum(1 << a for a, row in enumerate(self.rows) if row >> t & 1) for t in range(n)
        )
        self._count = None

    @property
    def concept_count(self) -> int:
        """Concepts counted as the intersection closure of the row intents."""
        if self._count is None:
            intents = {(1 << len(self.types)) - 1}
            for row in self.rows:
                intents.update([x & row for x in intents])
            self._count = len(intents)
        return self._count


_DOT_NODE = re.compile(r'^  c(\d+) \[label="(.*)"\];$', re.M)
_DOT_EDGE = re.compile(r"^  c(\d+) -> c(\d+);$", re.M)


class LatticeWorkload:
    """``conceptual lattice FILE [--dot]`` on generated ``.cxt`` files."""

    name = "lattice"

    def __init__(self, mods, seed: int, scale: str, workdir: Path):
        self.cli = mods.cli
        workdir.mkdir(parents=True, exist_ok=True)
        self.contexts: list[_Context] = []
        shapes = LATTICE_SHAPES[scale]
        for k in range(LATTICE_CONTEXTS_PER_SHAPE[scale]):
            for shape, (m, n, p) in shapes.items():
                K = random_context(mods, random.Random(f"lattice/{shape}/{k}"), m, n, p)
                K = permuted_context(mods, random.Random(f"lattice/{seed}/{shape}/{k}"), K)
                path = workdir / f"{shape}{k}.cxt"
                path.write_text(mods.io.emit_cxt(K, f"{shape}{k}"), encoding="utf-8")
                self.contexts.append(_Context(K, path))
        self.digests: dict[str, str] = {}

    def ops(self):
        for ctx in self.contexts:
            for dot in (False, True):
                argv = ["lattice", str(ctx.path)] + (["--dot"] if dot else [])
                label = f"{ctx.path.stem}{'.dot' if dot else '.json'}"
                yield label, (lambda argv=argv: run_cli(self.cli, argv)), (
                    lambda out, ctx=ctx, dot=dot, label=label: self.check(label, ctx, dot, out)
                )

    def check(self, label: str, ctx: _Context, dot: bool, out) -> bool:
        code, text = out
        if code != 0:
            return False
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        if label in self.digests:
            # byte-identical to an output that passed the full check
            return self.digests[label] == digest
        ok = self._check_dot(ctx, text) if dot else self._check_json(ctx, text)
        if ok:
            self.digests[label] = digest
        return ok

    def _check_json(self, ctx: _Context, text: str) -> bool:
        concepts = json.loads(text)["concepts"]
        inst = {label: i for i, label in enumerate(ctx.instances)}
        typ = {label: i for i, label in enumerate(ctx.types)}
        full_i = (1 << len(ctx.instances)) - 1
        full_t = (1 << len(ctx.types)) - 1
        extents = set()
        for c in concepts:
            extent = _mask(inst, c["extent"])
            intent = _mask(typ, c["intent"])
            if _derive(ctx.rows, extent, full_t) != intent:
                return False
            if _derive(ctx.cols, intent, full_i) != extent:
                return False
            extents.add(extent)
        return len(extents) == len(concepts) == ctx.concept_count

    def _check_dot(self, ctx: _Context, text: str) -> bool:
        count = ctx.concept_count
        nodes = _DOT_NODE.findall(text)
        edges = _DOT_EDGE.findall(text)
        if not (text.startswith("digraph lattice {\n") and text.endswith("}\n")):
            return False
        if sorted(int(i) for i, _ in nodes) != list(range(count)):
            return False
        if len(text.split("\n")) != len(nodes) + len(edges) + 4:
            return False
        # reduced labelling: every label sits on exactly one node
        tokens = [
            tok for _, label in nodes for part in label.split("\\n") for tok in part.split()
        ]
        if sorted(tokens) != sorted(ctx.instances + ctx.types):
            return False
        return len(edges) >= count - 1 and all(
            int(a) < count and int(b) < count for a, b in edges
        )

    def counts(self) -> dict:
        return {
            "concepts": {c.path.stem: c.concept_count for c in self.contexts},
            "stdout_sha256": _combined_digest(self.digests),
        }


class BondingWorkload:
    """``check bonding-pair`` parsing plus the complete-relational round trips."""

    name = "bonding"

    def __init__(self, mods, seed: int, scale: str, workdir: Path):
        self.mods = mods
        rng = random.Random(f"bonding/{seed}")
        bond, functors = mods.bond, mods.functors
        (m, n, p), sizes = BONDING_RANDOM[scale]

        def sized_context(size):
            search = random.Random(f"bonding/search/{size}")
            for _ in range(10_000):
                K = random_context(mods, search, m, n, p)
                if mods.lattice.build_lattice(K).size == size:
                    return permuted_context(mods, rng, K)
            raise RuntimeError(f"no {m}x{n} context with {size} concepts in 10000 draws")

        pairs = [("id", bond.identity_bonding_pair(sized_context(sizes[0])))]
        to_lattice, from_lattice = functors.embedding_bonding_pairs(sized_context(sizes[1]))
        pairs += [("embto", to_lattice), ("embfrom", from_lattice)]
        for a, b in BONDING_HOMS[scale]:
            pairs.append((f"hom{a}>{b}", functors.pair_of_hom(self._boolean_hom(rng, a, b))))
        for chain in BONDING_COMPOSITES[scale]:
            contra = mods.classification.contranominal_classification(chain[0])
            composite = functors.embedding_bonding_pairs(contra)[0]
            for a, b in zip(chain, chain[1:]):
                spread = functors.pair_of_hom(self._boolean_hom(rng, a, b))
                composite = bond.compose_bonding_pairs(composite, spread)
            pairs.append(("comp" + ">".join(map(str, chain)), composite))
        self.pairs = [
            (label, pair, mods.io.dumps(mods.io.morphism_to_obj(pair)))
            for label, pair in pairs
        ]
        self.elements: dict[str, str] = {}

    def _boolean_hom(self, rng: random.Random, a: int, b: int):
        """psi(S) = inverse image of S along a seeded injection f: [b] -> [a], a
        complete homomorphism from the boolean lattice 2^a onto 2^b.  All
        injections give isomorphic pairs, so the op's cost does not depend
        on the seed."""
        mods = self.mods
        contra = mods.classification.contranominal_classification
        LA = mods.lattice.concept_lattice_of(contra(a))
        LB = mods.lattice.concept_lattice_of(contra(b))
        f = rng.sample(range(a), b)
        targets = tuple(
            LB.extent_index[sum(1 << y for y in range(b) if c.extent >> f[y] & 1)]
            for c in LA.concepts
        )
        return mods.functors.CompleteHomomorphism(
            mods.functors.complete_lattice_of(LA),
            mods.functors.complete_lattice_of(LB),
            mods.relalg.FunctionGraph.from_targets(targets, LB.size),
        )

    def _op(self, text: str):
        mods = self.mods
        q = mods.io.morphism_from_obj(json.loads(text), validate=False)
        is_pair = bool(mods.bond.is_bonding_pair(q.forward, q.backward))
        h = mods.functors.hom_of_pair(q)
        pair_rt = mods.functors.pair_roundtrip_holds(q)
        hom_rt = mods.functors.hom_roundtrip_holds(h)
        return q, h, is_pair, pair_rt, hom_rt

    def ops(self):
        for label, pair, text in self.pairs:
            yield label, (lambda text=text: self._op(text)), (
                lambda out, label=label, pair=pair: self.check(label, pair, out)
            )

    def check(self, label: str, pair, out) -> bool:
        q, h, is_pair, pair_rt, hom_rt = out
        self.elements[label] = f"{h.source.size}>{h.target.size}"
        return q == pair and is_pair and pair_rt and hom_rt

    def counts(self) -> dict:
        return {"lattice_elements": self.elements}


class VerifyWorkload:
    """``conceptual verify-equivalences --max-size 3 --seed S --json``.

    One cycle runs every seed of a fixed block of contiguous seeds starting at
    7 (7-11 at full scale), so each cycle holds the same mix of fast seeds and
    of the slow seed 10, whose colimit transport dominates; the benchmark seed
    picks the seed the cycle starts from.
    """

    name = "verify"

    def __init__(self, mods, seed: int, scale: str, workdir: Path, inject_bug: bool = False):
        self.cli = mods.cli
        block = [VERIFY_BASE_SEED + k for k in range(VERIFY_BLOCK[scale])]
        start = seed % len(block)
        self.seeds = block[start:] + block[:start]
        self.max_size = VERIFY_MAX_SIZE[scale]
        self.inject_bug = inject_bug
        self.records: dict[int, int] = {}
        self.failed_records: dict[int, int] = {}

    def ops(self):
        for s in self.seeds:
            argv = ["verify-equivalences", "--max-size", str(self.max_size), "--seed", str(s), "--json"]
            if self.inject_bug:
                argv.append("--inject-bug")
            yield f"seed{s}", (lambda argv=argv: run_cli(self.cli, argv)), (
                lambda out, s=s: self.check(s, out)
            )

    def check(self, s: int, out) -> bool:
        code, text = out
        summary = json.loads(text)["summary"]
        self.records[s] = summary["total"]
        self.failed_records[s] = summary["failed"]
        return code == 0 and summary["failed"] == 0

    def counts(self) -> dict:
        return {"records": self.records, "failed_records": self.failed_records}


def _combined_digest(digests: dict[str, str]) -> str:
    h = hashlib.sha256()
    for label in sorted(digests):
        h.update(f"{label}:{digests[label]}\n".encode("utf-8"))
    return h.hexdigest()


WORKLOADS = {w.name: w for w in (LatticeWorkload, BondingWorkload, VerifyWorkload)}
