"""Evidence extraction from term-set overlap regions."""

from collections.abc import Set
from itertools import product

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from polyrep.evidence import (
    PositiveRule,
    consensus_evidence,
    recommendation_evidence,
)

term_sets = st.frozensets(st.sampled_from("abcdefgh"), max_size=8)

Q = frozenset("abc")
A = frozenset("abd")
B = frozenset("bde")


class TestConsensusEvidence:
    def test_worked_example_union(self):
        pair = consensus_evidence(A, B, Q, PositiveRule.UNION)
        assert (pair.for_a.positive, pair.for_a.negative) == (3, 0)
        assert (pair.for_b.positive, pair.for_b.negative) == (2, 1)

    def test_worked_example_intersection(self):
        pair = consensus_evidence(A, B, Q, PositiveRule.INTERSECTION)
        # A & B & Q == {b}
        assert (pair.for_a.positive, pair.for_a.negative) == (1, 0)
        assert (pair.for_b.positive, pair.for_b.negative) == (1, 1)

    def test_identical_sets(self):
        s = frozenset("a")
        pair = consensus_evidence(s, s, s)
        assert (pair.for_a.positive, pair.for_a.negative) == (1, 0)
        assert (pair.for_b.positive, pair.for_b.negative) == (1, 0)

    def test_pairwise_disjoint(self):
        a, b, q = frozenset("ab"), frozenset("cd"), frozenset("ef")
        pair = consensus_evidence(a, b, q)
        assert (pair.for_a.positive, pair.for_a.negative) == (0, 2)
        assert (pair.for_b.positive, pair.for_b.negative) == (0, 2)

    @pytest.mark.parametrize("rule", list(PositiveRule))
    def test_rule_given_by_value(self, rule):
        assert consensus_evidence(A, B, Q, rule.value) == consensus_evidence(A, B, Q, rule)

    def test_unknown_rule_rejected(self):
        with pytest.raises(ValueError, match="'bogus' is not a valid PositiveRule"):
            consensus_evidence(A, B, Q, "bogus")

    def test_empty_sets_allowed(self):
        pair = consensus_evidence(frozenset(), frozenset(), frozenset())
        assert pair.for_a.total == 0 and pair.for_b.total == 0

    @given(term_sets, term_sets, term_sets)
    def test_swapping_operands_swaps_sides(self, a, b, q):
        for rule in PositiveRule:
            forward = consensus_evidence(a, b, q, rule)
            swapped = consensus_evidence(b, a, q, rule)
            assert forward.for_a == swapped.for_b
            assert forward.for_b == swapped.for_a

    @given(term_sets, term_sets, term_sets)
    def test_intersection_rule_never_exceeds_union_rule(self, a, b, q):
        union = consensus_evidence(a, b, q, PositiveRule.UNION)
        inter = consensus_evidence(a, b, q, PositiveRule.INTERSECTION)
        assert inter.for_a.positive <= union.for_a.positive
        assert inter.for_b.positive <= union.for_b.positive
        assert inter.for_a.negative == union.for_a.negative
        assert inter.for_b.negative == union.for_b.negative

    @given(term_sets, term_sets, term_sets)
    def test_shared_term_only_helps(self, a, b, q):
        fresh = "z"  # outside the generator alphabet, so new to all three sets
        before = consensus_evidence(a, b, q)
        after = consensus_evidence(a | {fresh}, b | {fresh}, q | {fresh})
        assert after.for_a.positive >= before.for_a.positive
        assert after.for_b.positive >= before.for_b.positive
        assert after.for_a.negative <= before.for_a.negative
        assert after.for_b.negative <= before.for_b.negative

    @given(term_sets, term_sets, term_sets)
    def test_union_positive_is_the_union_of_both_lenses(self, a, b, q):
        pair = consensus_evidence(a, b, q, PositiveRule.UNION)
        assert pair.for_a.positive == len((a & b) | (a & q))
        assert pair.for_b.positive == len((a & b) | (b & q))
        assert pair.for_a.total == len(a) and pair.for_b.total == len(b)

    @given(term_sets, term_sets, term_sets)
    def test_counts_bounded_by_set_sizes(self, a, b, q):
        for rule in PositiveRule:
            pair = consensus_evidence(a, b, q, rule)
            assert pair.for_a.positive <= len(a) and pair.for_a.negative <= len(a)
            assert pair.for_b.positive <= len(b) and pair.for_b.negative <= len(b)


class TestRecommendationEvidence:
    def test_worked_example(self):
        pair = recommendation_evidence(A, B, Q)
        assert (pair.for_a.positive, pair.for_a.negative) == (2, 0)
        assert (pair.for_b.positive, pair.for_b.negative) == (2, 1)

    def test_empty_intersection(self):
        pair = recommendation_evidence(frozenset("ab"), frozenset("cd"), Q)
        assert pair.for_a.positive == 0 and pair.for_b.positive == 0

    def test_identical_representations_have_no_negatives(self):
        pair = recommendation_evidence(A, A, Q)
        assert pair.for_a.positive == len(A)
        assert pair.for_a.negative == 0 and pair.for_b.negative == 0

    @given(term_sets, term_sets, term_sets)
    def test_positive_counts_equal_on_both_sides(self, a, b, q):
        pair = recommendation_evidence(a, b, q)
        assert pair.for_a.positive == pair.for_b.positive

    @given(term_sets, term_sets, term_sets)
    def test_negatives_match_consensus_regions(self, a, b, q):
        rec = recommendation_evidence(a, b, q)
        con = consensus_evidence(a, b, q)
        assert rec.for_a.negative == con.for_a.negative
        assert rec.for_b.negative == con.for_b.negative


class _Terms(Set):
    """An AbstractSet that is neither a set nor a frozenset."""

    def __init__(self, terms=()):
        self._terms = frozenset(terms)

    def __contains__(self, term):
        return term in self._terms

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)


_SET_KINDS = (frozenset, set, lambda terms: dict.fromkeys(terms).keys(), _Terms)


def _set_definitions(a, b, q):
    """Both functions' (positive, negative) pairs, read off the regions as sets."""
    negative_a, negative_b = len(a - (b | q)), len(b - (a | q))
    return {
        PositiveRule.UNION: ((len((a & b) | (a & q)), negative_a),
                             (len((a & b) | (b & q)), negative_b)),
        PositiveRule.INTERSECTION: ((len(a & b & q), negative_a), (len(a & b & q), negative_b)),
        "recommendation": ((len(a & b), negative_a), (len(a & b), negative_b)),
    }


_EMPTY = frozenset()


@given(term_sets, term_sets, term_sets)
@example(_EMPTY, _EMPTY, _EMPTY)
@example(_EMPTY, B, Q)
@example(A, _EMPTY, Q)
@example(A, B, _EMPTY)
def test_every_kind_of_abstract_set_gives_the_same_regions(a, b, q):
    """Both functions equal the set definitions, in both argument orders and every set kind."""
    for x, y in ((a, b), (b, a)):
        expected = _set_definitions(x, y, q)
        for kinds in product(_SET_KINDS, repeat=3):
            sets = [kind(terms) for kind, terms in zip(kinds, (x, y, q))]
            for rule in PositiveRule:
                assert consensus_evidence(*sets, rule) == expected[rule]
            assert recommendation_evidence(*sets) == expected["recommendation"]
