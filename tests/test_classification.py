import pytest

from conceptual.classification import (
    Classification,
    antichain_classification,
    chain_classification,
    contranominal_classification,
    dual,
    extent_of,
    instance_preorder,
    intent_of,
    powerset_classification,
    preorder_as_classification,
    type_preorder,
)
from conceptual.errors import ResourceLimitError, ValidationError
from conceptual.functors import CompleteLattice
from conceptual.relalg import Relation, bits, left_residual, right_residual

from conftest import RANDOM_SHAPES, all_contexts, random_context
from oracles import extent_oracle, intent_oracle


def to_set(mask):
    return set(bits(mask))


class TestDerivation:
    def test_empty_sets_give_everything(self, k1):
        assert intent_of(k1, 0) == k1.full_types
        assert extent_of(k1, 0) == k1.full_instances

    def test_k1_examples(self, k1):
        assert to_set(intent_of(k1, k1.instance_mask(["1", "2"]))) == {0}
        assert to_set(intent_of(k1, k1.instance_mask(["2"]))) == {0, 1}
        assert to_set(extent_of(k1, k1.type_mask(["a", "b"]))) == {1}
        assert to_set(extent_of(k1, k1.type_mask(["a"]))) == {0, 1}

    def test_matches_set_oracle_exhaustively(self):
        for K in all_contexts(3, 3):
            m, n = len(K.instances), len(K.types)
            for code in range(1 << m):
                assert to_set(intent_of(K, code)) == intent_oracle(K, to_set(code))
            for code in range(1 << n):
                assert to_set(extent_of(K, code)) == extent_oracle(K, to_set(code))

    def test_agrees_with_residuation_route(self, rng):
        # subset-as-column-relation residuated against the incidence
        for _ in range(20):
            K = random_context(rng, rng.randint(0, 4), rng.randint(0, 4))
            for code in range(1 << len(K.instances)):
                n = len(K.instances)
                as_rel = Relation(n, 1, tuple(code >> a & 1 for a in range(n)))
                via_residual = left_residual(as_rel, K.incidence).rows[0]
                assert via_residual == intent_of(K, code)
            for code in range(1 << len(K.types)):
                as_rel = Relation(1, len(K.types), (code,))
                via_residual = right_residual(K.incidence, as_rel)
                assert transposed_column(via_residual) == extent_of(K, code)

    def test_columns_are_the_incidences_one_transpose(self, k1):
        """``cols`` reads the incidence's own cached columns."""
        assert k1.cols is k1.incidence.columns
        assert k1.cols == tuple(extent_of(k1, 1 << b) for b in range(len(k1.types)))

    def test_galois_property(self, rng):
        for _ in range(12):
            K = random_context(rng, 3, 3)
            for a_code in range(8):
                for t_code in range(8):
                    lhs = a_code & ~extent_of(K, t_code) == 0
                    rhs = t_code & ~intent_of(K, a_code) == 0
                    assert lhs == rhs

    def test_derivation_antitone(self, rng):
        for _ in range(12):
            K = random_context(rng, 4, 4)
            for small in range(16):
                for big in range(16):
                    if small & ~big == 0:
                        assert intent_of(K, big) & ~intent_of(K, small) == 0

    def test_double_derivation_is_closure(self, rng):
        for _ in range(8):
            K = random_context(rng, 5, 3)
            close = lambda code: extent_of(K, intent_of(K, code))
            for code in range(1 << 5):
                c = close(code)
                assert code & ~c == 0  # extensive
                assert close(c) == c  # idempotent
                for other in range(1 << 5):
                    if code & ~other == 0:
                        assert c & ~close(other) == 0  # monotone


def transposed_column(rel):
    mask = 0
    for a, row in enumerate(rel.rows):
        if row & 1:
            mask |= 1 << a
    return mask


class TestConstructors:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Classification(("a", "a"), ("t",), Relation.empty(2, 1))
        with pytest.raises(ValidationError):
            Classification(("a",), ("t", "t"), Relation.empty(1, 2))
        with pytest.raises(ValidationError):
            Classification(("a",), ("t",), Relation.empty(2, 1))

    @pytest.mark.parametrize(
        "build, message, label",
        [
            (
                lambda: Classification(tuple("abba"), ("t",), Relation.empty(4, 1)),
                "duplicate instance label 'b'",
                "b",
            ),
            (
                lambda: Classification(("a",), ("s", "t", "s", "t"), Relation.empty(1, 4)),
                "duplicate type label 's'",
                "s",
            ),
            (
                lambda: CompleteLattice(("y", "x", "z", "x"), Relation.empty(4, 4)),
                "duplicate element label 'x'",
                "x",
            ),
        ],
        ids=["instances", "types", "elements"],
    )
    def test_a_duplicate_label_is_named_with_its_witness(self, build, message, label):
        """The refusal names the first label that repeats an earlier one,
        quoted, and carries it as the witness."""
        with pytest.raises(ValidationError, match=f"^{message}$") as caught:
            build()
        assert caught.value.witness == (label,)

    def test_dual_involution(self, rng, k1):
        assert dual(dual(k1)) == k1
        for _ in range(10):
            K = random_context(rng, 3, 4)
            assert dual(dual(K)) == K
            assert dual(K).incidence.bit(1, 2) == K.incidence.bit(2, 1)

    def test_dual_of_preorder_reverses_order(self):
        P = chain_classification(3)
        D = dual(P)
        for i in range(3):
            for j in range(3):
                assert D.incidence.bit(i, j) == P.incidence.bit(j, i)

    def test_powerset_empty(self):
        P = powerset_classification(())
        assert P.instances == ()
        assert P.types == ("{}",)
        assert P.incidence == Relation.empty(0, 1)

    def test_powerset_singleton(self):
        P = powerset_classification(("x",))
        assert P.types == ("{}", "{x}")
        assert not P.incidence.bit(0, 0)
        assert P.incidence.bit(0, 1)

    def test_powerset_membership_intents(self):
        P = powerset_classification(("1", "2"))
        # {1} is classified exactly by the subsets containing 1
        got = to_set(intent_of(P, P.instance_mask(["1"])))
        assert {P.types[t] for t in got} == {"{1}", "{1,2}"}
        # every cell: label i is a member of subset m iff bit i of m is set
        for n in range(7):
            P = powerset_classification(tuple(str(i) for i in range(n)))
            assert P.incidence.matrix() == [[m >> i & 1 for m in range(1 << n)] for i in range(n)]

    def test_powerset_cap(self):
        with pytest.raises(ResourceLimitError):
            powerset_classification(tuple(str(i) for i in range(17)))

    def test_preorder_validation(self):
        not_reflexive = Relation.from_matrix([[0, 1], [0, 1]])
        with pytest.raises(ValidationError, match="reflexive"):
            preorder_as_classification(("x", "y"), not_reflexive)
        not_transitive = Relation.from_matrix(
            [[1, 1, 0], [0, 1, 1], [0, 0, 1]]
        )
        with pytest.raises(ValidationError, match="transitive") as exc:
            preorder_as_classification(("x", "y", "z"), not_transitive)
        assert exc.value.witness == ("x", "y", "z")

    def test_preorder_as_classification(self):
        """A preorder classifies its elements by itself; an order relation
        of another size than the labels is refused."""
        leq = Relation.from_matrix([[1, 1, 1], [0, 1, 1], [0, 1, 1]])
        P = preorder_as_classification(["x", "y", "z"], leq)
        assert P == Classification(("x", "y", "z"), ("x", "y", "z"), leq)
        with pytest.raises(ValidationError) as exc:
            preorder_as_classification(("x", "y"), leq)
        assert str(exc.value) == "order relation shape (3, 3) does not match 2 labels"

    def test_labels_of_invert_the_masks(self, rng):
        """``instance_labels_of`` and ``type_labels_of`` send each mask to
        its labels in carrier order, and back through the masks."""
        K = random_context(rng, 4, 3)
        for labels_of, mask, carrier in (
            (K.instance_labels_of, K.instance_mask, K.instances),
            (K.type_labels_of, K.type_mask, K.types),
        ):
            for m in range(1 << len(carrier)):
                labels = labels_of(m)
                assert labels == tuple(l for i, l in enumerate(carrier) if m >> i & 1)
                assert mask(labels) == m

    def test_chain_and_antichain_shapes(self):
        one = chain_classification(1)
        assert one.incidence == Relation.full(1, 1)
        three = chain_classification(3)
        assert three.incidence == Relation.from_matrix(
            [[1, 1, 1], [0, 1, 1], [0, 0, 1]]
        )
        assert antichain_classification(2).incidence == Relation.from_matrix(
            [[1, 0], [0, 1]]
        )

    def test_contranominal(self):
        C = contranominal_classification(3)
        for i in range(3):
            for j in range(3):
                assert C.incidence.bit(i, j) == (i != j)


class TestInducedPreorders:
    def test_k1_instance_preorder(self, k1):
        pre = instance_preorder(k1)
        # instance 2 carries more types, so it sits below 1
        assert pre.bit(1, 0)
        assert not pre.bit(0, 1)

    def test_k1_type_preorder(self, k1):
        pre = type_preorder(k1)
        assert pre.bit(1, 0)  # extent of b inside extent of a
        assert not pre.bit(0, 1)

    def test_reflexive_and_transitive(self, rng):
        for _ in range(15):
            K = random_context(rng, 4, 4)
            for pre, n in (
                (instance_preorder(K), 4),
                (type_preorder(K), 4),
            ):
                for i in range(n):
                    assert pre.bit(i, i)
                    for j in bits(pre.rows[i]):
                        assert pre.rows[j] & ~pre.rows[i] == 0

    def test_preorder_against_derivation(self, rng):
        for m, n in ((4, 3),) * 10 + RANDOM_SHAPES:
            K = random_context(rng, m, n)
            pre = instance_preorder(K)
            assert pre.shape == (m, m)
            for i in range(m):
                for j in range(m):
                    expected = intent_oracle(K, {j}) <= intent_oracle(K, {i})
                    assert pre.bit(i, j) == expected
            pre = type_preorder(K)
            assert pre.shape == (n, n)
            for s in range(n):
                for t in range(n):
                    expected = extent_oracle(K, {s}) <= extent_oracle(K, {t})
                    assert pre.bit(s, t) == expected
