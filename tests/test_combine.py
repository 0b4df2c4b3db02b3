"""Per-topic combination, the matrix runner, the best-cell rule and topic parsing."""

import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrep import combine, textprep
from polyrep.cli import main
from polyrep.combine import (
    TOPIC_TEXTS,
    AggregationMode,
    CombinationOrder,
    CombinationResult,
    CombinationSpec,
    EmptyTopicListError,
    FusionOperator,
    Topic,
    TopicParseError,
    combine_topic,
    load_topics,
    matrix_specs,
    run_matrix,
    topic_term_sets,
    write_report,
)
from polyrep.evidence import PositiveRule, consensus_evidence, recommendation_evidence
from polyrep.opinions import EvidenceCounts, consensus, expectation, from_evidence, recommendation
from polyrep.porter import porter_stem
from polyrep.textprep import PrepLevel, term_sets, tokenize

TOL = 1e-9
DATA = Path(__file__).parent / "data"

ALL_LEVELS = list(PrepLevel)


def make_topic(**overrides):
    fields = dict(
        id="t",
        information_need="a b d",
        background="x y",
        work_task="b d e",
        ideal_answer="m n",
        keywords="a b c",
    )
    fields.update(overrides)
    return Topic(**fields)


def spec_for(operator, order=None, level=PrepLevel.RAW, **overrides):
    fields = dict(
        rep_a="information_need",
        rep_b="work_task",
        operator=operator,
        level=level,
        order=order,
    )
    fields.update(overrides)
    return CombinationSpec(**fields)


@pytest.fixture(scope="module")
def fixture_topics():
    return load_topics(DATA / "topics.jsonl")


class TestCombineTopic:
    def test_worked_consensus_chain(self):
        # Q={a,b,c}, A={a,b,d}, B={b,d,e} under the union rule
        fused, value = combine_topic(make_topic(), spec_for(FusionOperator.CONSENSUS))
        assert fused.belief == pytest.approx(0.625, abs=TOL)
        assert fused.disbelief == pytest.approx(0.125, abs=TOL)
        assert fused.uncertainty == pytest.approx(0.25, abs=TOL)
        assert value == pytest.approx(0.75, abs=TOL)

    def test_all_representations_identical(self):
        topic = make_topic(information_need="a b c", work_task="a b c")
        spec = spec_for(FusionOperator.CONSENSUS)
        fused, value = combine_topic(topic, spec)
        # each side maps to (n/(n+2), 0, 2/(n+2)) for n = 3
        single = 3 / 5 + 0.5 * (2 / 5)
        assert fused.disbelief == pytest.approx(0.0, abs=TOL)
        assert value > single

    def test_pairwise_disjoint_sets(self):
        topic = make_topic(information_need="p q", work_task="r s", keywords="a b c")
        fused, value = combine_topic(topic, spec_for(FusionOperator.CONSENSUS))
        assert fused.belief == pytest.approx(0.0, abs=TOL)
        assert value == pytest.approx(0.5 * fused.uncertainty, abs=TOL)

    def test_recommendation_orders_differ(self):
        # trust side swaps: A(2 pos, 0 neg) vs B(2 pos, 1 neg)
        topic = make_topic()
        _, value_ab = combine_topic(topic, spec_for(FusionOperator.RECOMMENDATION, CombinationOrder.AB))
        _, value_ba = combine_topic(topic, spec_for(FusionOperator.RECOMMENDATION, CombinationOrder.BA))
        assert value_ab == pytest.approx(0.55, abs=TOL)
        assert value_ba == pytest.approx(0.60, abs=TOL)

    def test_empty_representation_is_weak_not_fatal(self):
        topic = make_topic(work_task="")
        fused, value = combine_topic(topic, spec_for(FusionOperator.CONSENSUS))
        assert 0.0 <= value <= 1.0
        fused, _ = combine_topic(
            topic, spec_for(FusionOperator.RECOMMENDATION, CombinationOrder.AB)
        )
        assert fused.belief == pytest.approx(0.0, abs=TOL)

    def test_fixture_topic_one_level_two_hand_check(self, fixture_topics):
        # Sets written out by hand from the fixture text:
        #   A = {recent studies of quark gluon plasma in heavy ion collisions}
        #   B = {survey of plasma signatures for heavy ion collision experiments}
        #   Q = {quark gluon plasma signatures}
        # union positives: A -> 6, B -> 5; negatives: A -> 4, B -> 4,
        # hence sides (1/2, 1/3, 1/6) and (5/11, 4/11, 2/11); kappa = 7/22.
        spec = spec_for(FusionOperator.CONSENSUS, level=PrepLevel.CASE_PUNCT)
        fused, value = combine_topic(fixture_topics[0], spec)
        assert fused.belief == pytest.approx(11 / 21, abs=TOL)
        assert fused.disbelief == pytest.approx(8 / 21, abs=TOL)
        assert fused.uncertainty == pytest.approx(2 / 21, abs=TOL)
        assert value == pytest.approx(4 / 7, abs=TOL)

    def test_alpha_zero_reduces_expectation_to_belief(self):
        fused, value = combine_topic(make_topic(), spec_for(FusionOperator.CONSENSUS), alpha=0.0)
        assert value == fused.belief


class TestSpecValidation:
    def test_identical_representations_rejected(self):
        with pytest.raises(ValueError):
            CombinationSpec(
                "work_task", "work_task", FusionOperator.CONSENSUS, PrepLevel.RAW
            )

    def test_unknown_representation_rejected(self):
        with pytest.raises(ValueError):
            CombinationSpec("keywords", "work_task", FusionOperator.CONSENSUS, PrepLevel.RAW)

    def test_recommendation_needs_an_order(self):
        with pytest.raises(ValueError, match="recommendation cell needs one"):
            spec_for(FusionOperator.RECOMMENDATION)

    @pytest.mark.parametrize("order", list(CombinationOrder))
    def test_consensus_takes_no_order(self, order):
        # a consensus cell with an order would equal no run_matrix cell
        with pytest.raises(ValueError, match="consensus cell takes no order"):
            spec_for(FusionOperator.CONSENSUS, order=order)

    @pytest.mark.parametrize(
        "fields, named",
        [
            # a string is never CombinationOrder.AB, so "AB" would fuse the BA cell
            (dict(operator=FusionOperator.RECOMMENDATION, order="AB"), "order 'AB'"),
            # a string is never FusionOperator.CONSENSUS, so it would fuse as a recommendation
            (dict(operator="consensus", order=CombinationOrder.AB), "operator 'consensus'"),
            (dict(operator="consensus"), "operator 'consensus'"),
            # a string level is no step of the level cascade
            (dict(operator=FusionOperator.CONSENSUS, level="I"), "level 'I'"),
        ],
    )
    def test_fields_that_are_not_enum_members_rejected(self, fields, named):
        with pytest.raises(ValueError, match=f"^{named} is not a "):
            spec_for(**fields)

    def test_topic_requires_id_and_keywords(self):
        with pytest.raises(ValueError):
            make_topic(id=" ")
        with pytest.raises(ValueError):
            make_topic(keywords="")

    @pytest.mark.parametrize("field, value", [
        ("id", 1), ("information_need", None), ("background", 2.5), ("work_task", b"x"),
        ("ideal_answer", ["y"]), ("keywords", 0),
    ])
    def test_topic_fields_must_be_strings(self, field, value):
        kind = type(value).__name__
        with pytest.raises(TypeError, match=f"^topic field {field} must be a str, got {kind}$"):
            make_topic(**{field: value})


class TestTopicTermSets:
    """The first stage of ``run_matrix``, which ``prep`` dumps."""

    def test_each_topic_with_its_texts_term_sets(self, fixture_topics):
        levels = [PrepLevel.STEM, PrepLevel.RAW]
        assert list(topic_term_sets(fixture_topics, levels)) == [
            (topic, {name: term_sets(getattr(topic, name), levels) for name in TOPIC_TEXTS})
            for topic in fixture_topics
        ]

    def test_repeated_level_rejected_before_the_first_topic(self):
        stage = topic_term_sets([], [PrepLevel.STOP, PrepLevel.RAW, PrepLevel.STOP])
        with pytest.raises(ValueError, match="^preprocessing level III is given more than once$"):
            next(stage)


class TestRunMatrix:
    def test_empty_topic_list(self):
        with pytest.raises(EmptyTopicListError):
            run_matrix([], [PrepLevel.RAW])

    def test_no_level_rejected(self, fixture_topics):
        with pytest.raises(ValueError, match="^at least one preprocessing level is required$"):
            run_matrix(fixture_topics, [])

    @pytest.mark.parametrize("levels", [
        [PrepLevel.RAW, PrepLevel.RAW],
        [PrepLevel.RAW, PrepLevel.STEM, PrepLevel.RAW],
    ])
    def test_repeated_level_rejected(self, fixture_topics, levels):
        with pytest.raises(ValueError, match="^preprocessing level I is given more than once$"):
            run_matrix(fixture_topics, levels)

    def test_matrix_shape(self, fixture_topics):
        results = run_matrix(fixture_topics, ALL_LEVELS)
        assert len(results) == 18 * len(ALL_LEVELS)
        per_level = [r for r in results if r.spec.level is PrepLevel.RAW]
        consensus_rows = [r for r in per_level if r.spec.operator is FusionOperator.CONSENSUS]
        rec_rows = [r for r in per_level if r.spec.operator is FusionOperator.RECOMMENDATION]
        assert len(consensus_rows) == 6 and len(rec_rows) == 12

    def test_single_topic_aggregate_equals_expectation(self, fixture_topics):
        results = run_matrix(fixture_topics[:1], [PrepLevel.CASE_PUNCT])
        for res in results:
            assert res.aggregate_probability == pytest.approx(res.per_topic[0][2], abs=TOL)

    def test_duplicated_topic_does_not_move_macro_mean(self, fixture_topics):
        topic = fixture_topics[0]
        once = run_matrix([topic], [PrepLevel.STOP])
        twice = run_matrix([topic, topic], [PrepLevel.STOP])
        for res_once, res_twice in zip(once, twice):
            assert res_twice.aggregate_probability == pytest.approx(
                res_once.aggregate_probability, abs=TOL
            )

    def test_aggregates_stay_probabilities(self, fixture_topics):
        for mode in AggregationMode:
            for res in run_matrix(fixture_topics, ALL_LEVELS, mode=mode):
                assert 0.0 <= res.aggregate_probability <= 1.0

    def test_macro_aggregate_within_per_topic_range(self, fixture_topics):
        for res in run_matrix(fixture_topics, ALL_LEVELS):
            values = [value for _, _, value in res.per_topic]
            assert min(values) - TOL <= res.aggregate_probability <= max(values) + TOL

    def test_consensus_is_order_insensitive(self, fixture_topics):
        forward = spec_for(FusionOperator.CONSENSUS, level=PrepLevel.STOP)
        backward = spec_for(
            FusionOperator.CONSENSUS,
            level=PrepLevel.STOP,
            rep_a="work_task",
            rep_b="information_need",
        )
        for topic in fixture_topics:
            _, forward_value = combine_topic(topic, forward)
            _, backward_value = combine_topic(topic, backward)
            assert forward_value == pytest.approx(backward_value, abs=TOL)

    def test_some_recommendation_pair_is_order_sensitive(self, fixture_topics):
        results = run_matrix(fixture_topics, ALL_LEVELS)
        by_key = {}
        for res in results:
            spec = res.spec
            if spec.operator is FusionOperator.RECOMMENDATION:
                key = (spec.level, spec.rep_a, spec.rep_b)
                by_key.setdefault(key, {})[spec.order] = res.aggregate_probability
        gaps = [
            abs(orders[CombinationOrder.AB] - orders[CombinationOrder.BA])
            for orders in by_key.values()
        ]
        assert max(gaps) > 1e-6

    def test_pooled_mode_fuses_summed_counts(self, fixture_topics):
        pooled = run_matrix(fixture_topics, [PrepLevel.CASE_PUNCT], mode=AggregationMode.POOLED)
        macro = run_matrix(fixture_topics, [PrepLevel.CASE_PUNCT])
        assert [r.spec for r in pooled] == [r.spec for r in macro]
        assert [r.per_topic for r in pooled] == [r.per_topic for r in macro]
        assert any(
            abs(p.aggregate_probability - m.aggregate_probability) > 1e-12
            for p, m in zip(pooled, macro)
        )

    @pytest.mark.parametrize("name, member", [
        ("mode", AggregationMode.MACRO), ("mode", AggregationMode.POOLED),
        ("positive_rule", PositiveRule.UNION), ("positive_rule", PositiveRule.INTERSECTION),
    ])
    def test_run_parameter_given_by_value(self, fixture_topics, name, member):
        by_value = run_matrix(fixture_topics, [PrepLevel.STOP], **{name: member.value})
        assert by_value == run_matrix(fixture_topics, [PrepLevel.STOP], **{name: member})

    @pytest.mark.parametrize("name", ["mode", "positive_rule"])
    def test_unknown_run_parameter_rejected(self, fixture_topics, name):
        with pytest.raises(ValueError, match="'bogus' is not a valid"):
            run_matrix(fixture_topics, [PrepLevel.STOP], **{name: "bogus"})

    def test_matrix_specs_cover_all_pairs_once(self):
        specs = matrix_specs(PrepLevel.RAW)
        consensus_pairs = {
            (s.rep_a, s.rep_b) for s in specs if s.operator is FusionOperator.CONSENSUS
        }
        assert len(consensus_pairs) == 6
        rec = [s for s in specs if s.operator is FusionOperator.RECOMMENDATION]
        assert len(rec) == 12 and len({(s.rep_a, s.rep_b, s.order) for s in rec}) == 12


# Words that split, lowercase, stop and stem differently across the levels.
_WORDS = ["plasma", "Plasma", "signatures", "signature", "the", "of", "running", "runs",
          "ion", "ions", "quark-gluon", "Quark", "data,", "2017", "a", "b"]
_texts = st.lists(st.sampled_from(_WORDS), max_size=8).map(" ".join)


@st.composite
def topic_lists(draw):
    """Topics built from a few texts; reused picks give topics with identical text."""
    texts = draw(st.lists(
        st.tuples(_texts, _texts, _texts, _texts,
                  st.lists(st.sampled_from(_WORDS), min_size=1, max_size=4).map(" ".join)),
        min_size=1, max_size=3,
    ))
    picks = draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=5))
    return [Topic(f"t{number}", *texts[pick]) for number, pick in enumerate(picks)]


def reference_evidence(topic, spec, rule):
    """One topic's evidence for a cell, from its three texts tokenized at the cell's level."""
    set_a, set_b, query = (tokenize(getattr(topic, name), spec.level)
                           for name in (spec.rep_a, spec.rep_b, "keywords"))
    if spec.operator is FusionOperator.CONSENSUS:
        return consensus_evidence(set_a, set_b, query, rule)
    return recommendation_evidence(set_a, set_b, query)


def reference_matrix(topics, levels, alpha, rule, mode):
    """``run_matrix`` rebuilt cell by cell from ``combine_topic`` and ``reference_evidence``."""
    results = []
    for level in levels:
        for spec in matrix_specs(level):
            per_topic = tuple(
                (topic.id, *combine_topic(topic, spec, alpha, rule)) for topic in topics
            )
            if mode is AggregationMode.MACRO:
                aggregate = sum(value for _, _, value in per_topic) / len(per_topic)
            else:
                pairs = [reference_evidence(topic, spec, rule) for topic in topics]
                side_a = from_evidence(EvidenceCounts(
                    sum(p.for_a.positive for p in pairs), sum(p.for_a.negative for p in pairs)
                ), alpha)
                side_b = from_evidence(EvidenceCounts(
                    sum(p.for_b.positive for p in pairs), sum(p.for_b.negative for p in pairs)
                ), alpha)
                if spec.operator is FusionOperator.CONSENSUS:
                    fused = consensus(side_a, side_b)
                elif spec.order is CombinationOrder.AB:
                    fused = recommendation(trust=side_a, advice=side_b)
                else:
                    fused = recommendation(trust=side_b, advice=side_a)
                aggregate = expectation(fused)
            results.append(CombinationResult(spec, per_topic, aggregate))
    return results


class TestRunMatrixOracle:
    @pytest.mark.parametrize("mode", list(AggregationMode))
    @pytest.mark.parametrize("rule", list(PositiveRule))
    @settings(max_examples=40, deadline=None)
    @given(
        topics=topic_lists(),
        levels=st.lists(st.sampled_from(ALL_LEVELS), min_size=1, max_size=4, unique=True),
        alpha=st.floats(min_value=0.0, max_value=1.0),
    )
    def test_equals_cell_by_cell_reference(self, rule, mode, topics, levels, alpha):
        assert run_matrix(topics, levels, alpha, rule, mode) == reference_matrix(
            topics, levels, alpha, rule, mode
        )


class TestCellLookup:
    @settings(max_examples=40, deadline=None)
    @given(
        topics=topic_lists(),
        levels=st.lists(st.sampled_from(ALL_LEVELS), min_size=1, max_size=4, unique=True),
        alpha=st.floats(min_value=0.0, max_value=1.0),
        rule=st.sampled_from(PositiveRule),
        mode=st.sampled_from(AggregationMode),
    )
    def test_every_result_is_found_by_the_spec_of_its_label(self, topics, levels, alpha, rule,
                                                             mode):
        results = run_matrix(topics, levels, alpha, rule, mode)
        for res in results:
            level, operator, rep_a, rep_b, order = res.spec.label
            spec = CombinationSpec(rep_a, rep_b, FusionOperator(operator), PrepLevel(level),
                                   order=None if order == "-" else CombinationOrder(order))
            assert [found for found in results if found.spec == spec] == [res]


class TestRunMatrixWork:
    def test_each_quantity_is_computed_once(self, fixture_topics, monkeypatch):
        calls = {}

        def count(name, *modules):
            # Wrapped wherever run_matrix may look the function up.
            function = getattr(modules[0], name)
            calls[name] = []
            for module in modules:
                monkeypatch.setattr(module, name,
                                    lambda *args: calls[name].append(args) or function(*args))

        for name in ("consensus_evidence", "recommendation_evidence", "from_evidence"):
            count(name, combine)
        count("tokenize", textprep, combine)
        results = run_matrix(fixture_topics, ALL_LEVELS)
        cells = len(fixture_topics) * len(ALL_LEVELS)
        # One call per (text, level): the keywords and four representations.
        assert len(calls["tokenize"]) == 5 * cells
        # One consensus and one recommendation evidence for each of the six
        # pairs, where one per cell would be 18.
        assert len(calls["consensus_evidence"]) == 6 * cells
        assert len(calls["recommendation_evidence"]) == 6 * cells
        counts = [(evidence.positive, evidence.negative) for evidence, _ in calls["from_evidence"]]
        assert len(counts) == len(set(counts))
        opinion = results[0].per_topic[0][1]
        assert not hasattr(opinion, "__dict__")
        assert not hasattr(EvidenceCounts(1, 2), "__dict__")

    def test_each_distinct_word_is_stemmed_once_per_call(self, fixture_topics, monkeypatch,
                                                         capsys):
        words = sorted(set().union(*(tokenize(getattr(topic, name), PrepLevel.STOP)
                                     for topic in fixture_topics for name in TOPIC_TEXTS)))
        stemmed = []
        monkeypatch.setattr(textprep, "porter_stem",
                            lambda word: stemmed.append(word) or porter_stem(word))
        for _ in range(2):  # the second call stems them all again: no memo outlives a call
            run_matrix(fixture_topics, ALL_LEVELS)
            assert sorted(stemmed) == words
            stemmed.clear()
        assert main(["prep", "--topics", str(DATA / "topics.jsonl")]) == 0
        assert sorted(stemmed) == words
        assert capsys.readouterr().out == (DATA / "termsets_golden.tsv").read_text()


class TestTopicParsing:
    def test_fixture_round_trip(self, fixture_topics):
        assert [t.id for t in fixture_topics] == ["t1", "t2", "t3"]
        assert fixture_topics[2].ideal_answer == ""

    def test_unknown_field_rejected(self):
        line = (
            '{"id": "x", "information_need": "a", "background": "b", '
            '"work_task": "c", "ideal_answer": "d", "keywords": "e", "extra": "f"}'
        )
        with pytest.raises(TopicParseError, match="line 1.*extra"):
            load_topics([line])

    def test_missing_field_rejected(self):
        with pytest.raises(TopicParseError, match="missing"):
            load_topics(['{"id": "x", "keywords": "k"}'])

    def test_non_string_field_rejected(self):
        line = (
            '{"id": "x", "information_need": 3, "background": "b", '
            '"work_task": "c", "ideal_answer": "d", "keywords": "e"}'
        )
        with pytest.raises(TopicParseError,
                           match="^line 1: topic field information_need must be a str, got int$"):
            load_topics([line])

    def test_deeply_nested_json_names_the_line(self):
        # json.loads raises RecursionError here, neither a JSONDecodeError nor a ValueError
        good = (
            '{"id": "x", "information_need": "a", "background": "b", '
            '"work_task": "c", "ideal_answer": "d", "keywords": "e"}'
        )
        with pytest.raises(TopicParseError, match="^line 2: maximum recursion depth exceeded"):
            load_topics([good, "[" * 100_000])

    @pytest.mark.parametrize("field", ["keywords", "id", "background"])
    def test_repeated_field_rejected_naming_it(self, field):
        fields = dict(id="t2", information_need="a", background="b", work_task="c",
                      ideal_answer="d", keywords="e")
        # json.loads alone keeps the last value, so a repeated id would hide the first
        repeated = json.dumps(fields)[:-1] + f', "{field}": "t1"}}'
        lines = [json.dumps(dict(fields, id="t1")), repeated]
        with pytest.raises(TopicParseError, match=f"^line 2: field '{field}' is given more than once$"):
            load_topics(lines)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="this Python has no integer string limit")
    def test_number_past_the_int_limit_names_the_line(self):
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        with pytest.raises(TopicParseError, match="^line 1: Exceeds the limit"):
            load_topics(['{"id": ' + "1" * 5000 + "}"])

    @pytest.mark.parametrize("line", ["[1, 2]", '"text"', "3", "null"])
    def test_non_object_line_rejected(self, line):
        with pytest.raises(TopicParseError, match="^line 1: expected an object$"):
            load_topics([line])

    def test_bad_json_reports_line_number(self):
        good = (
            '{"id": "x", "information_need": "a", "background": "b", '
            '"work_task": "c", "ideal_answer": "d", "keywords": "e"}'
        )
        with pytest.raises(TopicParseError, match="line 2"):
            load_topics([good, "{broken"])

    def test_blank_lines_are_skipped(self):
        good = (
            '{"id": "x", "information_need": "a", "background": "b", '
            '"work_task": "c", "ideal_answer": "d", "keywords": "e"}'
        )
        assert len(load_topics(["", good, "   "])) == 1

    def test_duplicate_id_reports_both_lines(self):
        record = (
            '{{"id": "{qid}", "information_need": "a", "background": "b", '
            '"work_task": "c", "ideal_answer": "d", "keywords": "e"}}'
        )
        lines = [record.format(qid="t1"), "", record.format(qid="t2"), record.format(qid="t1")]
        with pytest.raises(TopicParseError, match=r"line 4: duplicate topic id 't1' .*line 1"):
            load_topics(lines)

    def test_unpaired_surrogate_rejected_naming_the_field(self):
        fields = dict(id="t1", information_need="a", background="b", work_task="c",
                      ideal_answer="d", keywords="e")
        # json.loads turns the escape into a lone surrogate, which UTF-8 cannot encode
        lone = json.dumps(fields).replace('"a"', '"a\\ud800"')
        with pytest.raises(TopicParseError, match=(
                "^line 1: topic field information_need holds an unpaired surrogate$")):
            load_topics([lone])
        with pytest.raises(ValueError, match="^topic field keywords holds an unpaired surrogate$"):
            Topic(**dict(fields, keywords="e\udfff"))
        # an escaped pair decodes to one character and is text
        paired = json.dumps(fields).replace('"a"', '"a\\ud83d\\ude00"')
        assert load_topics([paired])[0].information_need == "a\U0001f600"

    @pytest.mark.parametrize("topic_id", ["", " ", "t\t1", "t 1", " t1", "t1\n", "t\u20281"])
    def test_id_with_whitespace_rejected_naming_the_line(self, topic_id):
        record = (
            '{{"id": {qid}, "information_need": "a", "background": "b", '
            '"work_task": "c", "ideal_answer": "d", "keywords": "e"}}'
        )
        lines = [record.format(qid='"t0"'), record.format(qid=json.dumps(topic_id))]
        with pytest.raises(TopicParseError, match=r"^line 2: topic id .* must be one token"):
            load_topics(lines)
        assert [topic.id for topic in load_topics(lines[:1])] == ["t0"]


class TestReport:
    def test_golden_report(self, fixture_topics):
        results = run_matrix(fixture_topics, ALL_LEVELS)
        buffer = io.StringIO()
        write_report(results, buffer)
        golden = (DATA / "polyrep_golden.tsv").read_text()
        assert buffer.getvalue() == golden

    def test_best_marks_column_maxima(self):
        low = CombinationResult(spec_for(FusionOperator.CONSENSUS), (), 0.25)
        high = CombinationResult(
            spec_for(FusionOperator.CONSENSUS, rep_a="background", rep_b="ideal_answer"),
            (),
            0.75,
        )
        buffer = io.StringIO()
        write_report([low, high], buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0].split("\t") == [
            "level", "operator", "rep_a", "rep_b", "order", "probability", "best",
        ]
        assert lines[1].endswith("0.2500\t")
        assert lines[2].endswith("0.7500\t*")

    def test_every_tie_is_starred_and_max_names_the_first(self):
        # an empty representation gives a vacuous opinion, so its pairs tie exactly
        topic = make_topic(information_need="alpha beta gamma", background="",
                           work_task="beta delta", ideal_answer="", keywords="alpha beta")
        results = run_matrix([topic], [PrepLevel.RAW])
        buffer = io.StringIO()
        write_report(results, buffer)
        rows = [line.split("\t") for line in buffer.getvalue().splitlines()[1:]]
        assert [row[2:] for row in rows if row[1] == "consensus" and row[6]] == [
            ["information_need", "background", "-", "0.6000", "*"],
            ["information_need", "ideal_answer", "-", "0.6000", "*"],
        ]
        for order in ("AB", "BA"):
            column = [row[5:] for row in rows if row[4] == order]
            assert column == [["0.5000", "*"]] * 6
        columns: dict[tuple[str, ...], list] = {}
        for res, row in zip(results, rows):
            columns.setdefault(res.spec.label[:2] + res.spec.label[4:], []).append((res, row))
        assert len(columns) == 3
        for column in columns.values():
            best = max((res for res, _ in column), key=lambda res: res.aggregate_probability)
            assert best is next(res for res, row in column if row[6] == "*")

    def test_star_compares_full_precision(self):
        cells = [CombinationResult(spec_for(FusionOperator.CONSENSUS, rep_b=rep_b), (), value)
                 for rep_b, value in (("work_task", 0.25), ("background", 0.25001))]
        buffer = io.StringIO()
        write_report(cells, buffer)
        assert buffer.getvalue().splitlines()[1:] == [
            "I\tconsensus\tinformation_need\twork_task\t-\t0.2500\t",
            "I\tconsensus\tinformation_need\tbackground\t-\t0.2500\t*",
        ]

    def test_probabilities_have_four_decimals(self, fixture_topics):
        buffer = io.StringIO()
        write_report(run_matrix(fixture_topics, [PrepLevel.RAW]), buffer)
        for line in buffer.getvalue().splitlines()[1:]:
            probability = line.split("\t")[5]
            assert len(probability.split(".")[1]) == 4
