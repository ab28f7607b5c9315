"""The propagating enumerator of ``colimit``, and the lattice functor's
image of what it finds, against the brute-force loops of
``tests/oracles.py``, order included, on contexts up to 3x3 with empty
instance or type sets on either end, and on a seeded sum of 2x3 contexts;
on a seeded sum of 3x3 contexts, too large for the brute force, the image
against the density formula.  Equal to the brute force over every
``(f, g)``, the image is every lattice morphism, each once: the functor is
full and faithful on each of these hom-sets."""

import inspect
import itertools
import random

import pytest

from hypothesis_or_skip import example, given, settings, st

from conceptual import colimit, functors
from conceptual.classification import (
    Classification,
    chain_classification,
    contranominal_classification,
)
from conceptual.colimit import coproduct_sum, enumerate_infomorphisms
from conceptual.relalg import Relation

import oracles
from conftest import lattice_images, random_context


def context(m: int, cols) -> Classification:
    """The context on instances ``i0..`` whose type ``t<j>`` has column
    ``cols[j]``."""
    rows = tuple(sum((col >> a & 1) << t for t, col in enumerate(cols)) for a in range(m))
    return Classification(
        tuple(f"i{a}" for a in range(m)),
        tuple(f"t{t}" for t in range(len(cols))),
        Relation(m, len(cols), rows),
    )


@st.composite
def contexts(draw, max_inst: int = 3, max_typ: int = 3, inst=None, pool: int | None = None):
    """Contexts up to ``max_inst`` x ``max_typ`` (``inst`` instances when
    given).  With ``pool``, the columns are drawn from that many masks, so
    several types share a column."""
    m = draw(st.integers(0, max_inst)) if inst is None else inst
    n = draw(st.integers(0, max_typ))
    mask = st.integers(0, (1 << m) - 1)
    if pool is None:
        return context(m, [draw(mask) for _ in range(n)])
    masks = [draw(mask) for _ in range(pool)]
    return context(m, [draw(st.sampled_from(masks)) for _ in range(n)])


# the corner shapes, 0 or 3 instances and 0 or 3 types on each end
CORNERS = [(m, n) for m in (0, 3) for n in (0, 3)]

# two seeded diagrams ``A, B, C``, summands and target, with mediators from
# the apex of the sum into the target on both sides: 6 on 2x3, 81 on 3x3
SEEDED = random.Random(28)
SUM_2X3, SUM_3X3 = ([random_context(SEEDED, m, n) for _ in range(3)] for m, n in ((2, 3), (3, 3)))


# one seeded context of each shape up to 2x2, the chain and the contranominal
# scale on two elements, and the all-zero 2x2 context, whose self-sum into it
# has 256 lattice mediators
SMALL = [random_context(random.Random(47), m, n) for m in range(3) for n in range(3)]
NAMED = [
    chain_classification(2),
    contranominal_classification(2),
    Classification(("i0", "i1"), ("t0", "t1"), Relation(2, 2, (0, 0))),
]


def _targets(morphisms) -> list[tuple]:
    return [(x.phi.targets, x.f.targets, x.psi.targets, x.g.targets) for x in morphisms]


def _lists(A, C, instance_identity=False):
    return (
        list(enumerate_infomorphisms(A, C, instance_identity=instance_identity)),
        list(oracles.infomorphisms_oracle(A, C, instance_identity=instance_identity)),
    )


class TestClassificationSide:
    @settings(max_examples=150, deadline=None)
    @given(contexts(), contexts())
    def test_equals_the_brute_force(self, A, C):
        found, expected = _lists(A, C)
        assert found == expected

    @settings(max_examples=100, deadline=None)
    @given(contexts(), contexts(pool=2))
    def test_targets_with_duplicate_columns(self, A, C):
        found, expected = _lists(A, C)
        assert found == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_instance_fiber(self, data):
        A = data.draw(contexts())
        C = data.draw(contexts(inst=len(A.instances), pool=data.draw(st.sampled_from([2, 3]))))
        found, expected = _lists(A, C, instance_identity=True)
        assert found == expected
        renamed = Classification(tuple("x" + a for a in C.instances), C.types, C.incidence)
        if A.instances:
            assert _lists(A, renamed, instance_identity=True) == ([], [])

    @pytest.mark.parametrize("source", CORNERS)
    @pytest.mark.parametrize("target", CORNERS)
    def test_empty_ends(self, source, target):
        rng = random.Random(f"{source}{target}")
        A, C = random_context(rng, *source), random_context(rng, *target)
        found, expected = _lists(A, C)
        assert found == expected
        found, expected = _lists(A, C, instance_identity=True)
        assert found == expected

    @settings(max_examples=60, deadline=None)
    @given(contexts(), contexts(pool=2))
    def test_first_four_is_the_brute_force_prefix(self, A, C):
        """``verify.infomorphism_corpus`` reads four candidates through
        ``islice``; the tracer wraps the enumerator as a generator."""
        assert inspect.isgeneratorfunction(colimit.enumerate_infomorphisms)
        assert list(itertools.islice(enumerate_infomorphisms(A, C), 4)) == list(
            itertools.islice(oracles.infomorphisms_oracle(A, C), 4)
        )


class TestLatticeSide:
    """``lattice_images``: the lattice morphisms ``transport_coproduct``
    takes as candidates, the functor's image of the infomorphisms between
    the two lattices' classifications."""

    @settings(max_examples=60, deadline=None)
    @given(contexts(), contexts(pool=3))
    def test_equals_the_brute_force(self, A, C):
        """Full and faithful: the images are the lattice morphisms the
        checking constructor keeps among every ``(f, g)``, in order."""
        L, M = functors.concept_lattice_of(A), functors.concept_lattice_of(C)
        assert lattice_images(L, M) == oracles.lattice_morphisms_oracle(L, M)

    @settings(max_examples=40, deadline=None)
    @given(contexts(2, 2), contexts(2, 2), contexts(2, 2))
    @example(*SUM_2X3)
    def test_sum_apex_into_a_target(self, A, B, C):
        """The pairs the transport check meets: both sides on the apex of a
        sum, which has repeated rows and columns when a summand does, each
        equal to its brute force."""
        apex = coproduct_sum(A, B).apex
        L, M = functors.concept_lattice_of(apex), functors.concept_lattice_of(C)
        morphisms = lattice_images(L, M)
        assert morphisms == oracles.lattice_morphisms_oracle(L, M)
        found, expected = _lists(apex, C)
        assert found == expected
        assert [(x.f, x.g) for x in found] == [(x.f, x.g) for x in morphisms]

    def test_both_sides_have_the_same_pairs_on_a_seeded_3x3_sum(self):
        """Too many candidates for the brute force: the images against the
        density formula over the same ``(f, g)`` pairs."""
        A, B, C = SUM_3X3
        apex = coproduct_sum(A, B).apex
        L, M = functors.concept_lattice_of(apex), functors.concept_lattice_of(C)
        found = _targets(lattice_images(L, M))
        assert found == _targets(oracles.lattice_morphisms_per_pair(L, M))
        assert len(found) == 81

    @pytest.mark.parametrize("source", CORNERS)
    @pytest.mark.parametrize("target", CORNERS)
    def test_empty_ends(self, source, target):
        rng = random.Random(f"{source}{target}")
        A, C = random_context(rng, *source), random_context(rng, *target)
        L, M = functors.concept_lattice_of(A), functors.concept_lattice_of(C)
        assert lattice_images(L, M) == oracles.lattice_morphisms_oracle(L, M)

    def test_one_map_per_function_is_the_per_pair_formula(self):
        """The functor reads ``psi`` and ``phi`` through two pullbacks; the
        density formula computed for every pair gives the same morphisms in
        the same order, on every ordered pair of the small lattices and from
        the apex of each named context's self-sum."""
        lattices = [functors.concept_lattice_of(K) for K in SMALL + NAMED]
        pairs = list(itertools.product(lattices, repeat=2)) + [
            (functors.concept_lattice_of(coproduct_sum(K, K).apex), functors.concept_lattice_of(K))
            for K in NAMED
        ]
        counts = []
        for L, M in pairs:
            found = _targets(lattice_images(L, M))
            assert found == _targets(oracles.lattice_morphisms_per_pair(L, M))
            counts.append(len(found))
        assert counts[-1] == 256
