"""Byte identity of the CLI's reports, pinned by SHA-256.

An intended change of any of these outputs must update its digest here, and
say why.  The contexts are two seeded random ones, the contranominal scale
on four elements, whose lattice is the boolean lattice of 16 concepts, a
tall sparse one, 60 x 12 with two crosses per row, on which the concept walk
skips the children its extents cannot reach, a tall sparse 200 x 16 with
three crosses per row, whose concept order comes from the type side through
the right residual's complement tables, one seeded context of each shape of
the lattice benchmark, 100 x 22 with seven crosses per row and 1500 x 40
with two, and a small context whose labels JSON must escape: quotes,
backslashes and control characters, next to non-ASCII ones it must not.  The
bond commands read seeded bonds and bonding pairs between the two random
contexts, valid and invalid, and the spread pair of a boolean hom 2^3 -> 2^2,
both of whose ends are order classifications numbered as their own
lattices, valid and with one bit of its backward bond flipped, where the
first pairing constraint fails, and the same at bench size, the spread pair
of a boolean hom 2^6 -> 2^5, valid and with one backward bit flipped, where
the second constraint fails at a concept of eight elements: that witness is
the first failing concept, so it pins the lectic order of a 64-element
lattice order.  ``check infomorphism`` reads an injection
into the sum of the two random contexts, and the same map with one instance
moved; ``check relational`` reads the relational widening of that injection,
and the widening with one instance pair flipped.  ``compose infos`` chains
the injection with the left injection of its apex into a second sum,
functional and widened.  The four
binary constructions pin their apex and legs: sum and product of the two
random contexts, apposition and subposition of a context with itself.
``quotient`` keeps three instances of a random context, on which three of
its types agree, and merges those types.
"""

import contextlib
import hashlib
import io
import random

import pytest

from conceptual.bond import Bond, BondingPair, close_to_bond
from conceptual.classification import Classification, contranominal_classification
from conceptual.cli import main
from conceptual.colimit import coproduct_sum
from conceptual.functors import embedding_bonding_pairs, pair_of_hom
from conceptual.infomorphism import FunctionalInfomorphism, RelationalInfomorphism, fn2rel
from conceptual.io import dumps, emit_cxt, morphism_to_obj
from conceptual.relalg import FunctionGraph, Relation

from conftest import bench_contexts, boolean_hom, random_context, sparse_context

CONTEXTS = {
    "rand-6x5": lambda: random_context(random.Random(11), 6, 5),
    "rand-5x7": lambda: random_context(random.Random(12), 5, 7),
    "contranominal-4": lambda: contranominal_classification(4),
    "tall-60x12": lambda: sparse_context(random.Random(13), 60, 12, 2),
    "tall-200x16": lambda: sparse_context(random.Random(14), 200, 16, 3),
    "bench-wide-100x22": lambda: bench_contexts()[0],
    "bench-tall-1500x40": lambda: bench_contexts()[1],
    "escapes": lambda: Classification(
        ('q"uote', "back\\slash", "tab\tctl\x01\x1f\x7f", "café 日本 \U0001F600"),
        ('"', "\\", '\\"', "é\x08", "t\\"),
        Relation(4, 5, (0b00011, 0b00110, 0b11100, 0b10001)),
    ),
}



def seeded_relation(seed: int, m: int, n: int) -> Relation:
    rng = random.Random(seed)
    return Relation(m, n, tuple(rng.getrandbits(n) for _ in range(m)))


def seeded_bond(A: Classification, B: Classification, seed: int) -> Bond:
    """The least bond above a seeded relation."""
    rel = seeded_relation(seed, len(B.instances), len(A.types))
    return Bond(A, B, close_to_bond(A, B, rel))


def _contexts(*names):
    return tuple(CONTEXTS[name]() for name in names)


def injection():
    return coproduct_sum(*_contexts("rand-6x5", "rand-5x7")).right_injection


def next_injection():
    """The left injection of ``injection()``'s apex into its sum with the
    contranominal scale, so the two compose."""
    apex = injection().target
    return coproduct_sum(apex, CONTEXTS["contranominal-4"]()).left_injection


def flipped_instance_pair(m: RelationalInfomorphism) -> RelationalInfomorphism:
    """``m`` with its first instance pair flipped, unchecked."""
    rows = (m.r.rows[0] ^ 1,) + m.r.rows[1:]
    r = Relation(m.r.src_size, m.r.dst_size, rows)
    return RelationalInfomorphism._of(m.source, m.target, r, m.s)


def spread_pair() -> BondingPair:
    """The pair of the boolean hom 2^3 -> 2^2 that drops element 1: both
    ends are order classifications numbered as their own lattices."""
    return pair_of_hom(boolean_hom(3, 2, (2, 0)))


def bench_spread_pair() -> BondingPair:
    """The pair of the boolean hom 2^6 -> 2^5 that drops element 3, of the
    sizes of the bonding benchmark's pairs."""
    return pair_of_hom(boolean_hom(6, 5, (4, 0, 5, 2, 1)))


def flipped_backward_bit(p: BondingPair, row: int, column: int) -> BondingPair:
    """``p`` with one bit of its backward bond flipped, unchecked."""
    rel = p.backward.rel
    rows = list(rel.rows)
    rows[row] ^= 1 << column
    flipped = Bond._of(p.backward.source, p.backward.target, Relation(*rel.shape, tuple(rows)))
    return BondingPair._of(p.forward, flipped)


def moved_instance(m: FunctionalInfomorphism, b: int) -> FunctionalInfomorphism:
    """``m`` with the source instance of target instance ``b`` moved by one,
    unchecked."""
    t = list(m.f.targets)
    t[b] = (t[b] + 1) % m.f.dst_size
    f = FunctionGraph(tuple(t), m.f.dst_size)
    return FunctionalInfomorphism._of(m.source, m.target, f, m.g)


MORPHISMS = {
    "infomorphism": injection,
    "non-infomorphism": lambda: moved_instance(injection(), 13),
    "infomorphism-next": next_injection,
    "relational": lambda: fn2rel(injection()),
    "relational-next": lambda: fn2rel(next_injection()),
    "non-relational": lambda: flipped_instance_pair(fn2rel(injection())),
    "bond": lambda: seeded_bond(*_contexts("rand-6x5", "rand-5x7"), 13),
    "bond-next": lambda: seeded_bond(*_contexts("rand-5x7", "contranominal-4"), 14),
    "non-bond": lambda: Bond._of(*_contexts("rand-6x5", "rand-5x7"), seeded_relation(15, 5, 5)),
    "pair": lambda: embedding_bonding_pairs(CONTEXTS["rand-6x5"]())[0],
    "non-pair": lambda: BondingPair._of(
        seeded_bond(*_contexts("rand-6x5", "rand-5x7"), 16),
        seeded_bond(*_contexts("rand-5x7", "rand-6x5"), 17),
    ),
    "spread-pair": spread_pair,
    "spread-non-pair": lambda: flipped_backward_bit(spread_pair(), 1, 2),
    "bench-spread-pair": bench_spread_pair,
    "bench-spread-non-pair": lambda: flipped_backward_bit(bench_spread_pair(), 45, 14),
}

# the invariant file of ``quotient``: on i1, i3 and i4, t0, t3 and t4 agree
INVARIANTS = {
    "invariant": {
        "kept_instances": ["i1", "i3", "i4"],
        "related_types": [["t0", "t4"], ["t3", "t4"]],
    },
}

# argv, with "{ctx}" standing for the context file -> (exit code, SHA-256 of stdout)
GOLDEN = {
    ("lattice", "{rand-6x5}"): (
        0,
        "788d7838620745580755bbf519a077f2cf0c3f0d36ac77a2d47ffc5156f07114",
    ),
    ("lattice", "{rand-6x5}", "--dot"): (
        0,
        "19c54262430add0a215f9e09ea6ffb30ebabac4e9728faceefd7bd28afb6431e",
    ),
    ("lattice", "{rand-5x7}"): (
        0,
        "c5623f5a4c4c956abea013ea9cd808cb32de7c1e9ceb0c3e473a2718e9a5f782",
    ),
    ("lattice", "{rand-5x7}", "--dot"): (
        0,
        "608b7a94561d2c87fad704e1dde39220c4b77b8c213f9bd12437987c72411d21",
    ),
    ("lattice", "{contranominal-4}"): (
        0,
        "d98528f6d61a6922accc3c827ad1331ca8b1a92150a28ffd599c7076e271fb68",
    ),
    ("lattice", "{contranominal-4}", "--dot"): (
        0,
        "572141b59d2aceed0d956e3bda4f9ccbbb9cb5fc09e7e9bbcd2f854763094b13",
    ),
    ("lattice", "{tall-60x12}"): (
        0,
        "d617ee12d9889af5aa4f30ed5fa6b65c34ad1b0671a91c3c77e58c4fd955b79e",
    ),
    ("lattice", "{tall-60x12}", "--dot"): (
        0,
        "32e019e460541bdf8e53c98e1f28fd926ab7b0dc78506ebe76868947c091e18e",
    ),
    # pinned before the concept order was taken from the type side
    ("lattice", "{tall-200x16}", "--dot"): (
        0,
        "6d6a5df7e018f1d88f69dc3ee8df6c1cb58c1c14c100ff7cc4665db3354cba0d",
    ),
    # the lattice benchmark's two shapes, pinned before the concepts were
    # built in bulk and the covers walk shrank its candidates
    ("lattice", "{bench-wide-100x22}"): (
        0,
        "b94c7e9bbd9789dc282622d1d936ebe2e4cf829b2b478d8ffccaf60d76984f67",
    ),
    ("lattice", "{bench-wide-100x22}", "--dot"): (
        0,
        "555f8df124363b56a3b514a8d1ce4aa3d3201e33ebb97938a59112945e41a039",
    ),
    ("lattice", "{bench-tall-1500x40}"): (
        0,
        "0312ca425314f340d3335f859cc1444e1f5d21b4fd7ebcebb9718e2033329916",
    ),
    ("lattice", "{bench-tall-1500x40}", "--dot"): (
        0,
        "e2478301770c0492e238c339cc321919d5e777f2b4f01304a2824a8beece9d4f",
    ),
    ("lattice", "{escapes}"): (
        0,
        "baf7825c39215330b5f213f1600253b10fd2b0eb1e1b01b56072b53f1024437d",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "7", "--json"): (
        0,
        "a9bce591d71cc6684ac49d7407fb30cd6e29d4ff6f03cb0e0a4163ef86b3479d",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "8", "--json"): (
        0,
        "1500829901e32c400a08aabe47c25484558895f98069580e498b3d8c5f4cca26",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "9", "--json"): (
        0,
        "798c7abd5e7c592dfe115b514590e6f1cab3d292ad7ba1715962f2ca910de519",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "10", "--json"): (
        0,
        "e2d756337f679132464a2c3c62e5237b76c69cdc42f5a275655b47b62f7b4b6e",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "11", "--json"): (
        0,
        "e8e1045c7763957331403b478483745e6753eaa9f81ffe44e22ad3a423fecb71",
    ),
    # the clean report of seed 10 with one classification round trip failed
    # (re-pinned when the first sum stopped carrying a second injected bug)
    ("verify-equivalences", "--max-size", "3", "--seed", "10", "--inject-bug", "--json"): (
        1,
        "e7644fb7d7035782d121b8d6fc1c0c54a1f2a7c3dd0aa8ad2ff1efa5ae6f4f54",
    ),
    ("check", "bond", "{bond}"): (
        0,
        "439c75779c238b3edfab84c500047cd69853f7fafbb4290416ed35e0bd1aa4e4",
    ),
    ("check", "bond", "{bond}", "--json"): (
        0,
        "00f8d2b7e8e49fac3af464f39d74e670ad378fa7901c8baf89dfb6f7d6fad43f",
    ),
    ("check", "bond", "{non-bond}"): (
        1,
        "b4068dae763313aa9a605f515850f54ab7b352162deb47be345cb0376a5e90af",
    ),
    ("check", "bond", "{non-bond}", "--json"): (
        1,
        "692c765c4670ed6e62f6f35db0a232f789dc8c2f0540e6c44bf02ff67bcb2f49",
    ),
    ("check", "bonding-pair", "{pair}"): (
        0,
        "2f1b0c801aa8a369278da2d2ef0e506caae00029025947f4f6cdc246d34f8108",
    ),
    ("check", "bonding-pair", "{pair}", "--json"): (
        0,
        "44b37560c970cfc6de2b1c37f2e2ac55ea59882982311060215128c37c8f2020",
    ),
    ("check", "bonding-pair", "{non-pair}"): (
        1,
        "51398f5f05f26b7b95b4a38e196629fafebeb5f0958e68aff0a2ab87dedf2b0a",
    ),
    ("check", "bonding-pair", "{non-pair}", "--json"): (
        1,
        "9717dc0efa58938036cbbb87ee21bccabd545097bfcd47d8f5f7400da9deb9bf",
    ),
    # pinned before the first pairing constraint and the pair round trip
    # shared the backward bond's view ``preimage_extents``
    ("check", "bonding-pair", "{spread-pair}"): (
        0,
        "53b596294ab6d0f0d468596afe834d2ab4046324a0c11f556a7725ac897e60b8",
    ),
    ("check", "bonding-pair", "{spread-pair}", "--json"): (
        0,
        "87c48982bb2507ab5bb6a20a568600a4cf04c5a7ce485dfb53b6c0e6d685be52",
    ),
    ("check", "bonding-pair", "{spread-non-pair}"): (
        1,
        "d547b923f566b9e9d143fe16b96507ba1c96329068910bd078ffd5bc58e518f7",
    ),
    ("check", "bonding-pair", "{spread-non-pair}", "--json"): (
        1,
        "91553e3d3b61b132d98a43ce4711f177c0a60d69d03271ff161bab6138d70b5b",
    ),
    # pinned before a lattice order's concepts were read off the order
    ("check", "bonding-pair", "{bench-spread-pair}"): (
        0,
        "6d22782eab9407f8872c8df341cd09b442b75f6454b678f11e0b2fc3a297ab0d",
    ),
    ("check", "bonding-pair", "{bench-spread-pair}", "--json"): (
        0,
        "3d147ea54c8f90db2b2473cb1dbc5d2e760d5a713f37615ac6d39f3435ffacfc",
    ),
    ("check", "bonding-pair", "{bench-spread-non-pair}"): (
        1,
        "6582f5ccd74de041f775ec486102851862303cd5ca3428983013e03ddd620d2d",
    ),
    ("check", "bonding-pair", "{bench-spread-non-pair}", "--json"): (
        1,
        "10e8f31b477663a4fe237ef2815e3e599f5498406f3de10e603c1432e5ce3f37",
    ),
    ("check", "infomorphism", "{infomorphism}"): (
        0,
        "807715ad8c21e4b4d02e22daab55c31648aca5b83c68a0b61ca1c4351be72bd3",
    ),
    ("check", "infomorphism", "{infomorphism}", "--json"): (
        0,
        "390a407df9ea2f2bf6fc33915f8a00bf9cb7f3a32e7b95ff9bbef32d77a337ec",
    ),
    ("check", "infomorphism", "{non-infomorphism}"): (
        1,
        "006fd712b6abbf9e47a669cebb2f5bfa87b3f4b8ac4ca0d28b15bbf650770c0a",
    ),
    ("check", "infomorphism", "{non-infomorphism}", "--json"): (
        1,
        "5445c7c57d284cb279378ab9f01c207ba3299679c427fa117ce23835c3413253",
    ),
    ("check", "relational", "{relational}"): (
        0,
        "ab5407bdc7a4b323ad592f593249abdd175ef2461934d77e247e29bd5cc85958",
    ),
    ("check", "relational", "{relational}", "--json"): (
        0,
        "d0df28df6d20ecfb11d86f5b825636bda9b108296dfe2ebd6ba6abe3cbf1c84b",
    ),
    ("check", "relational", "{non-relational}"): (
        1,
        "72f6c232fe424de2df7c02da421c6838421e2f998dc8ba8bf5a57c9e43d0a24c",
    ),
    ("check", "relational", "{non-relational}", "--json"): (
        1,
        "77f540e6aa825b3a3febad30a372431bcde3a73b655d2d50a47262cc41811ff6",
    ),
    ("compose", "infos", "{infomorphism}", "{infomorphism-next}"): (
        0,
        "1d9afc7544e6eb88f0c136f0bf36351e139713f292fea017baeb60bd92e4e448",
    ),
    ("compose", "infos", "{relational}", "{relational-next}"): (
        0,
        "99298840a21e479cd28b8bb18e2524f40f04f848099ea36ae491ee1ce7cba54c",
    ),
    ("compose", "bonds", "{bond}", "{bond-next}"): (
        0,
        "e8494ee8c5ebdc2fc1d2156a58f2240350cd02327a85862fab4da8c332dba1b1",
    ),
    ("sum", "{rand-6x5}", "{rand-5x7}"): (
        0,
        "fe01f8a4ab0518ed90caa3627bd7f9234fc955d2b763e3ae09e66cd5fcb8787e",
    ),
    ("product", "{rand-6x5}", "{rand-5x7}"): (
        0,
        "4a85e60799f6f054e00182f87e9f7900c57b2c629acff03c565642a9c763ed18",
    ),
    ("appose", "{rand-6x5}", "{rand-6x5}"): (
        0,
        "41d12c1770137f486abfe6288e5362bba2a10df0e427b3985dce334f6821d7e2",
    ),
    ("subpose", "{rand-6x5}", "{rand-6x5}"): (
        0,
        "d4a21e6a0d344d4907cc971cbd9edfb49b261d97351578d63e9ab9355c0683a3",
    ),
    ("appose", "{escapes}", "{escapes}"): (
        0,
        "17e3574be8b3a8524bdbb412158c1df394fbe66dfd43e0ced6ff4c94bef7b2ea",
    ),
    ("subpose", "{escapes}", "{escapes}"): (
        0,
        "cfc2b3e2546831c82c52e23e71ac92d62a262328315ae74661a09c0bc392db04",
    ),
    ("quotient", "{rand-6x5}", "{invariant}"): (
        0,
        "6cf4dd34b6dc5698515f3cc638e84cf5d2e91f3094ae466ca25484d54e577234",
    ),
    ("dual", "{rand-6x5}"): (
        0,
        "636b93e02380e269956147a85a7ef6af22cd998e36699f11e66a949f58367051",
    ),
    ("dual", "{escapes}"): (
        0,
        "d4d9cfc016e55a310ec0e3dfdc089b8bc9d6a7879b7ec7c164705cabc2629890",
    ),
    ("dual", "{rand-6x5}", "--cxt"): (
        0,
        "2b80180f3d71567f15b3dabc96f9201aa341320cbcc8468025ac791c1db00667",
    ),
    ("dual", "{escapes}", "--cxt"): (
        0,
        "eff5baff4d658f920526802e4cef841661a4e7961a84e253a7d37abdde6074c4",
    ),
    ("powerset", "x", "y", "z"): (
        0,
        "13c91507a074376bddc14086baa6363add98de65db60f0e19ec27f7d107b8224",
    ),
    ("powerset", "x", "y", "z", "--cxt"): (
        0,
        "6f35307e7775b8c2be85745068c2f5233de061bf7c746b9acd0ce25a18956bd0",
    ),
}

# verify-equivalences --max-size 6 --json at seeds 0-9, beyond the 3x3 corpus,
# where the residuals take their meet form on larger lattices; pinned before
# the coproduct checks compared target tuples instead of built mediators
SIZE_6_DIGESTS = (
    "35541e6d83de29dbdd006922ff06e424b3e7280caf824c1f2ee9e8f8ef439204",
    "fac6acdc009538bc6870f448512ba698bcf89240a07ae775c59d0b8d01757159",
    "0f9ef7dd8c6e05b14fa2bb1fa3d98ea6f263c067cba46cb4ba292b741428bd6c",
    "b087cce6fe22bd2c30f44799147f85185c6a016c7b8f37ac9b87d81d8d803a8d",
    "8bc8543f466ae88a87c917727f8e168f7711bcbe35f639506ab61793a4ab0f40",
    "de574031d4c5d395eb5a99ce008e7137f41ae51bce4ee424298952093a5323bb",
    "7f69081514d919622c70d49bf2e78f8cd2af786947ceac64f8dda09c66c75fc8",
    "4531ccd03dfdb02eb398d25340a1a670b2f4daadcdbd03c2a91ce10c186b8d21",
    "efc4b97367986224d7c9a7703eb12c5734d9315b8ad93e6e42fe37a1f1284acb",
    "17499f7f35824bd93e240932006e6895e1597bbc6dfce57337a9444cb05ffe5c",
)
GOLDEN.update(
    {
        ("verify-equivalences", "--max-size", "6", "--seed", str(seed), "--json"): (0, digest)
        for seed, digest in enumerate(SIZE_6_DIGESTS)
    }
)


def golden_output(argv, tmp_path, monkeypatch) -> tuple[int, str]:
    """Run ``main`` on ``argv`` in ``tmp_path``, with each context placeholder
    written to a ``.cxt`` file and each morphism or invariant placeholder to a
    ``.json`` one, all named relatively because ``check`` prints the name; the exit
    code and the SHA-256 of stdout."""
    monkeypatch.chdir(tmp_path)
    args = []
    for arg in argv:
        if arg.startswith("{"):
            name = arg[1:-1]
            if name in CONTEXTS:
                arg = f"{name}.cxt"
                text = emit_cxt(CONTEXTS[name]())
            elif name in MORPHISMS:
                arg = f"{name}.json"
                text = dumps(morphism_to_obj(MORPHISMS[name]()))
            else:
                arg = f"{name}.json"
                text = dumps(INVARIANTS[name])
            (tmp_path / arg).write_text(text, encoding="utf-8")
        args.append(arg)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=[" ".join(a) for a in GOLDEN])
def test_output_digest(argv, tmp_path, monkeypatch):
    assert golden_output(argv, tmp_path, monkeypatch) == GOLDEN[argv]
