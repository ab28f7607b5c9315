"""Byte identity of the CLI's reports, pinned by SHA-256.

An intended change of any of these outputs must update its digest here, and
say why.  The contexts are two seeded random ones, the contranominal scale
on four elements, whose lattice is the boolean lattice of 16 concepts, and a
small context whose labels JSON must escape: quotes, backslashes and control
characters, next to non-ASCII ones it must not.
"""

import contextlib
import hashlib
import io
import random

import pytest

from conceptual.classification import Classification, contranominal_classification
from conceptual.cli import main
from conceptual.io import emit_cxt
from conceptual.relalg import Relation

from conftest import random_context

CONTEXTS = {
    "rand-6x5": lambda: random_context(random.Random(11), 6, 5),
    "rand-5x7": lambda: random_context(random.Random(12), 5, 7),
    "contranominal-4": lambda: contranominal_classification(4),
    "escapes": lambda: Classification(
        ('q"uote', "back\\slash", "tab\tctl\x01\x1f\x7f", "café 日本 \U0001F600"),
        ('"', "\\", '\\"', "é\x08", "t\\"),
        Relation(4, 5, (0b00011, 0b00110, 0b11100, 0b10001)),
    ),
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
    ("lattice", "{escapes}"): (
        0,
        "baf7825c39215330b5f213f1600253b10fd2b0eb1e1b01b56072b53f1024437d",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "7", "--json"): (
        0,
        "a9bce591d71cc6684ac49d7407fb30cd6e29d4ff6f03cb0e0a4163ef86b3479d",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "10", "--json"): (
        0,
        "e2d756337f679132464a2c3c62e5237b76c69cdc42f5a275655b47b62f7b4b6e",
    ),
    ("verify-equivalences", "--max-size", "3", "--seed", "10", "--inject-bug", "--json"): (
        1,
        "2250260674b3a750c873f3aafa90aeed25ed70f42220f690ab16d5ec18fc6bc9",
    ),
}


def golden_output(argv, tmp_path) -> tuple[int, str]:
    """Run ``main`` on ``argv``, with each context placeholder written to a
    ``.cxt`` file; the exit code and the SHA-256 of stdout."""
    args = []
    for arg in argv:
        if arg.startswith("{"):
            path = tmp_path / f"{arg[1:-1]}.cxt"
            path.write_text(emit_cxt(CONTEXTS[arg[1:-1]]()), encoding="utf-8")
            arg = str(path)
        args.append(arg)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("argv", list(GOLDEN), ids=[" ".join(a) for a in GOLDEN])
def test_output_digest(argv, tmp_path):
    assert golden_output(argv, tmp_path) == GOLDEN[argv]
