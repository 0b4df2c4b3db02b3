"""Opinion construction, evidence mapping, expectation and fusion operators."""

import math
from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrep import opinions as opinions_module
from polyrep.opinions import (
    DogmaticConflictError,
    EvidenceCounts,
    Opinion,
    consensus,
    expectation,
    from_evidence,
    recommendation,
)

TOL = 1e-9

_unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, allow_infinity=False)


@st.composite
def opinions(draw, min_uncertainty=0.0):
    """Valid opinions with b + d + u = 1 by construction."""
    belief = draw(_unit)
    disbelief = draw(
        st.floats(min_value=0.0, max_value=1.0 - belief, allow_nan=False, allow_infinity=False)
    )
    committed = belief + disbelief
    limit = 1.0 - min_uncertainty
    if committed > limit and committed > 0.0:
        scale = limit / committed
        belief *= scale
        disbelief *= scale
    uncertainty = 1.0 - belief - disbelief
    return Opinion(belief, disbelief, uncertainty, draw(_unit))


def guarded_opinions():
    # keeps uncertainty far enough from zero for stable chained divisions
    return opinions(min_uncertainty=1e-6)


def assert_opinions_close(first, second, tol=TOL):
    assert first.belief == pytest.approx(second.belief, abs=tol)
    assert first.disbelief == pytest.approx(second.disbelief, abs=tol)
    assert first.uncertainty == pytest.approx(second.uncertainty, abs=tol)


class TestOpinionValidation:
    def test_full_belief_boundary(self):
        opinion = Opinion(1.0, 0.0, 0.0, 0.5)
        assert opinion.belief == 1.0

    def test_vacuous_opinion(self):
        opinion = Opinion(0.0, 0.0, 1.0, 0.5)
        assert opinion.uncertainty == 1.0

    def test_additivity_violation_rejected(self):
        with pytest.raises(ValueError):
            Opinion(0.5, 0.5, 0.5, 0.5)

    @pytest.mark.parametrize("component", range(4))
    def test_out_of_range_component_rejected(self, component):
        values = [0.0, 0.0, 1.0, 0.5]
        values[component] = 1.5
        if component < 3:
            values[2] = -0.5  # keep the sum at 1 so the bound check trips
        with pytest.raises(ValueError):
            Opinion(*values)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError):
            Opinion(bad, 0.0, 1.0, 0.5)

    @pytest.mark.parametrize("field", range(4))
    def test_bool_field_rejected_naming_it(self, field):
        values = [0.0, 0.0, 1.0, 0.5]
        values[field] = bool(values[field])
        with pytest.raises(TypeError, match=f"^{Opinion._fields[field]} must be a real number, "
                                            "got bool$"):
            Opinion(*values)

    def test_tolerated_rounding_noise(self):
        Opinion(0.1 + 0.2, 0.7 - 1e-12, 0.0, 0.5)  # sum within 1e-9 of one

    @given(opinions())
    def test_generated_opinions_are_valid(self, opinion):
        assert abs(opinion.belief + opinion.disbelief + opinion.uncertainty - 1.0) <= TOL


def _reference_opinion(*values):
    """The per-field checks Opinion made before its fast path, plus the bool rule."""
    for name, value in zip(Opinion._fields, values):
        if type(value) is bool:
            raise TypeError(f"{name} must be a real number, got bool")
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if not -TOL <= value <= 1.0 + TOL:
            raise ValueError(f"{name} outside [0, 1]: {value!r}")
    total = values[0] + values[1] + values[2]
    if abs(total - 1.0) > TOL:
        raise ValueError(f"belief + disbelief + uncertainty must equal 1, got {total!r}")
    return values


def _reference_counts(*values):
    """The per-field checks EvidenceCounts made before its fast path."""
    for name, value in zip(EvidenceCounts._fields, values):
        if type(value) is not int:
            raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
        if value < 0:
            raise ValueError(f"{name} must be nonnegative, got {value}")
    return values


def _outcome(build, values):
    try:
        return "accepted", build(*values)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def _assert_same_outcome(outcome, expected, values):
    assert outcome[0] == expected[0]
    if expected[0] == "accepted":
        assert all(kept is value for kept, value in zip(outcome[1], values))
    else:
        assert outcome[1] == expected[1]


@contextmanager
def _counting_field_loops():
    """Count the per-field loops the record constructors run, through their zip calls."""
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(opinions_module, "zip", lambda *args: calls.append(args) or zip(*args),
                      raising=False)
        yield calls


_IN_RANGE_EDGES = [-TOL, -0.0, 0.0, TOL, 1.0 - TOL, 1.0, 1.0 + TOL]
_EDGES = [*_IN_RANGE_EDGES, math.nextafter(-TOL, -math.inf),
          math.nextafter(1.0 + TOL, math.inf), math.nan, math.inf, -math.inf]
_masses = st.one_of(st.sampled_from(_EDGES), st.floats(), st.integers(-2, 2), st.booleans(),
                    st.text(max_size=2), st.none())
_edge_or_unit = st.one_of(st.sampled_from(_IN_RANGE_EDGES), _unit)


@st.composite
def _near_additive(draw):
    """(b, d, u): two masses drawn, the third putting the sum within ulps of 1 or 1 +- TOL."""
    masses = [draw(_edge_or_unit), draw(_edge_or_unit)]
    rest = draw(st.sampled_from([1.0, 1.0 + TOL, 1.0 - TOL])) - masses[0] - masses[1]
    steps = draw(st.integers(-2, 2))
    for _ in range(abs(steps)):
        rest = math.nextafter(rest, math.copysign(math.inf, steps))
    masses.insert(draw(st.integers(0, 2)), rest)
    return masses


_quadruples = st.one_of(
    st.lists(_masses, min_size=4, max_size=4),
    st.tuples(_near_additive(), st.one_of(_edge_or_unit, _masses)).map(
        lambda drawn: [*drawn[0], drawn[1]]),
)


class TestValidatorOracle:
    """The constructors against the checks they made before their fast paths."""

    @settings(max_examples=600)
    @given(_quadruples)
    # every field at both ends of its tolerated range, in an additive quadruple
    @example([-TOL, 0.0, 1.0 + TOL, 1.0 + TOL])
    @example([1.0 + TOL, -TOL, 0.0, -TOL])
    @example([0.0, 1.0 + TOL, -TOL, 0.5])
    def test_opinion_agrees_with_the_reference(self, values):
        with _counting_field_loops() as loops:
            outcome = _outcome(Opinion, values)
        expected = _outcome(_reference_opinion, values)
        _assert_same_outcome(outcome, expected, values)
        # In-range plain floats skip the per-field loop; every other input runs it.
        plain = all(type(value) is float for value in values)
        assert (not loops) == (plain and expected[0] == "accepted")

    @settings(max_examples=300)
    @given(st.lists(st.one_of(st.integers(-2, 2), st.integers(), st.booleans(), st.floats(),
                              st.text(max_size=1), st.none()), min_size=2, max_size=2))
    def test_evidence_counts_agree_with_the_reference(self, values):
        with _counting_field_loops() as loops:
            outcome = _outcome(EvidenceCounts, values)
        expected = _outcome(_reference_counts, values)
        _assert_same_outcome(outcome, expected, values)
        plain = all(type(value) is int for value in values)
        assert (not loops) == (plain and expected[0] == "accepted")


class TestEvidenceCounts:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            EvidenceCounts(-1, 0)
        with pytest.raises(ValueError):
            EvidenceCounts(0, -2)

    def test_rejects_non_integer(self):
        with pytest.raises(TypeError):
            EvidenceCounts(1.5, 0)

    @pytest.mark.parametrize("counts, named", [((True, 0), "positive"), ((1, False), "negative")])
    def test_rejects_bool(self, counts, named):
        with pytest.raises(TypeError, match=f"^{named} must be an integer, got bool$"):
            EvidenceCounts(*counts)

    def test_total(self):
        assert EvidenceCounts(3, 4).total == 7


class TestFromEvidence:
    def test_no_evidence_is_vacuous(self):
        opinion = from_evidence(EvidenceCounts(0, 0), 0.5)
        assert (opinion.belief, opinion.disbelief, opinion.uncertainty) == (0.0, 0.0, 1.0)

    def test_balanced_evidence(self):
        opinion = from_evidence(EvidenceCounts(2, 2), 0.5)
        assert opinion.belief == 1 / 3
        assert opinion.disbelief == 1 / 3
        assert opinion.uncertainty == 1 / 3

    def test_purely_positive_evidence(self):
        opinion = from_evidence(EvidenceCounts(3, 0), 0.5)
        assert (opinion.belief, opinion.disbelief, opinion.uncertainty) == (0.6, 0.0, 0.4)

    def test_base_rate_must_be_probability(self):
        with pytest.raises(ValueError):
            from_evidence(EvidenceCounts(1, 1), 1.5)

    @given(st.integers(0, 400), st.integers(0, 400))
    def test_additivity_is_exact(self, positive, negative):
        opinion = from_evidence(EvidenceCounts(positive, negative), 0.5)
        assert opinion.belief + opinion.disbelief + opinion.uncertainty == 1.0
        assert opinion.uncertainty == 2.0 / (positive + negative + 2)

    @given(st.integers(0, 400), st.integers(0, 400))
    def test_components_match_quotients(self, positive, negative):
        opinion = from_evidence(EvidenceCounts(positive, negative), 0.5)
        denominator = positive + negative + 2
        assert opinion.belief == pytest.approx(positive / denominator, abs=TOL)
        assert opinion.disbelief == pytest.approx(negative / denominator, abs=TOL)

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_belief_nondecreasing_in_support(self, positive, negative):
        lower = from_evidence(EvidenceCounts(positive, negative), 0.5)
        higher = from_evidence(EvidenceCounts(positive + 1, negative), 0.5)
        assert higher.belief >= lower.belief - TOL

    @given(st.integers(0, 200), st.integers(0, 200))
    def test_uncertainty_strictly_decreasing_in_total(self, positive, negative):
        current = from_evidence(EvidenceCounts(positive, negative), 0.5)
        bigger = from_evidence(EvidenceCounts(positive + 1, negative), 0.5)
        assert bigger.uncertainty < current.uncertainty

    @settings(max_examples=1000)
    @given(
        st.integers(0, 200_000).flatmap(
            lambda total: st.tuples(st.integers(0, total), st.just(total))
        ),
        _unit,
    )
    def test_additivity_is_exact_for_pooled_totals(self, split, base_rate):
        # pooled aggregation sums evidence over topics, far past the exhaustively checked range
        positive, total = split
        opinion = from_evidence(EvidenceCounts(positive, total - positive), base_rate)
        assert (opinion.belief + opinion.disbelief) + opinion.uncertainty == 1.0

    def test_no_additive_nudge_is_an_error_naming_the_counts(self, monkeypatch):
        # (1, 4) needs the nudge; an unmoved complement still closes its sum, so offer nothing
        assert (1 / 7 + 4 / 7) + 2 / 7 != 1.0
        monkeypatch.setattr("polyrep.opinions._ulp_neighbours", lambda value, steps: [])
        with pytest.raises(ValueError, match=r"^no additive masses .* for r=1, s=4$"):
            from_evidence(EvidenceCounts(1, 4), 0.5)

    def test_uncertainty_vanishes_with_mass_of_evidence(self):
        assert from_evidence(EvidenceCounts(10**6, 10**6), 0.5).uncertainty < 1e-5


class TestExpectation:
    def test_certainty(self):
        assert expectation(Opinion(1.0, 0.0, 0.0, 0.5)) == 1.0

    def test_vacuous_collapses_to_prior(self):
        assert expectation(Opinion(0.0, 0.0, 1.0, 0.5)) == 0.5

    def test_direct_substitution(self):
        assert expectation(Opinion(0.5, 0.3, 0.2, 0.5)) == pytest.approx(0.6, abs=TOL)

    @given(opinions())
    def test_bounded_by_belief_and_belief_plus_uncertainty(self, opinion):
        value = expectation(opinion)
        assert opinion.belief - TOL <= value <= opinion.belief + opinion.uncertainty + TOL
        assert -TOL <= value <= 1.0 + TOL


class TestConsensus:
    def test_two_vacuous_stay_vacuous(self):
        vacuous = Opinion(0.0, 0.0, 1.0, 0.5)
        assert_opinions_close(consensus(vacuous, vacuous), vacuous)

    def test_worked_example(self):
        fused = consensus(Opinion(0.6, 0.0, 0.4, 0.5), Opinion(0.4, 0.2, 0.4, 0.5))
        assert_opinions_close(fused, Opinion(0.625, 0.125, 0.25, 0.5))

    def test_second_worked_example(self):
        fused = consensus(Opinion(0.6, 0.2, 0.2, 0.5), Opinion(0.4, 0.2, 0.4, 0.5))
        assert fused.belief == pytest.approx(0.32 / 0.52, abs=TOL)
        assert fused.disbelief == pytest.approx(0.12 / 0.52, abs=TOL)
        assert fused.uncertainty == pytest.approx(0.08 / 0.52, abs=TOL)

    def test_base_rate_comes_from_first_operand(self):
        fused = consensus(Opinion(0.2, 0.2, 0.6, 0.3), Opinion(0.1, 0.1, 0.8, 0.9))
        assert fused.base_rate == 0.3

    def test_dogmatic_conflict(self):
        dogmatic = Opinion(0.7, 0.3, 0.0, 0.5)
        with pytest.raises(DogmaticConflictError):
            consensus(dogmatic, Opinion(1.0, 0.0, 0.0, 0.5))

    def test_one_dogmatic_operand_is_fine(self):
        fused = consensus(Opinion(1.0, 0.0, 0.0, 0.5), Opinion(0.0, 0.0, 1.0, 0.5))
        assert_opinions_close(fused, Opinion(1.0, 0.0, 0.0, 0.5))

    @given(opinions(), opinions(min_uncertainty=1e-9))
    def test_additivity_preserved(self, first, second):
        fused = consensus(first, second)
        assert abs(fused.belief + fused.disbelief + fused.uncertainty - 1.0) <= TOL

    @given(opinions(), opinions(min_uncertainty=1e-9))
    def test_commutative(self, first, second):
        assert_opinions_close(consensus(first, second), consensus(second, first))

    @settings(max_examples=300)
    @given(guarded_opinions(), guarded_opinions(), guarded_opinions())
    def test_associative(self, a, b, c):
        left = consensus(consensus(a, b), c)
        right = consensus(a, consensus(b, c))
        assert_opinions_close(left, right)


class TestRecommendation:
    def test_full_trust_passes_advice_through(self):
        advice = Opinion(0.5, 0.3, 0.2, 0.5)
        assert_opinions_close(recommendation(Opinion(1.0, 0.0, 0.0, 0.5), advice), advice)

    def test_full_distrust_yields_vacuous(self):
        fused = recommendation(Opinion(0.0, 1.0, 0.0, 0.5), Opinion(0.5, 0.3, 0.2, 0.5))
        assert_opinions_close(fused, Opinion(0.0, 0.0, 1.0, 0.5))

    def test_worked_example(self):
        fused = recommendation(Opinion(0.8, 0.1, 0.1, 0.5), Opinion(0.5, 0.3, 0.2, 0.5))
        assert_opinions_close(fused, Opinion(0.4, 0.24, 0.36, 0.5))

    def test_base_rate_comes_from_advice(self):
        fused = recommendation(Opinion(0.5, 0.2, 0.3, 0.1), Opinion(0.2, 0.2, 0.6, 0.8))
        assert fused.base_rate == 0.8

    @given(opinions(), opinions())
    def test_additivity_preserved(self, trust, advice):
        fused = recommendation(trust, advice)
        assert abs(fused.belief + fused.disbelief + fused.uncertainty - 1.0) <= TOL

    @settings(max_examples=300)
    @given(opinions(), opinions(), opinions())
    def test_associative(self, a, b, c):
        left = recommendation(recommendation(a, b), c)
        right = recommendation(a, recommendation(b, c))
        assert_opinions_close(left, right)

    def test_not_commutative(self):
        # The belief product is symmetric by construction, so the order gap
        # shows up in disbelief, uncertainty and the expectation.
        x = Opinion(0.9, 0.05, 0.05, 0.5)
        y = Opinion(0.3, 0.5, 0.2, 0.5)
        xy = recommendation(x, y)
        yx = recommendation(y, x)
        assert abs(xy.disbelief - yx.disbelief) > 1e-3
        assert abs(xy.uncertainty - yx.uncertainty) > 1e-3
        assert abs(expectation(xy) - expectation(yx)) > 1e-3
