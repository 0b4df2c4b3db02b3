"""Run/qrels parsing, the six effectiveness measures, and rank correlation."""

import gc
import io
import math
import os
import pickle
import random
import re
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrep import ireval
from polyrep.combine import (
    CombinationOrder,
    CombinationResult,
    CombinationSpec,
    FusionOperator,
    load_topics,
)
from polyrep.ireval import (
    CORRELATION_COLUMNS,
    EVALUATION_DEPTH,
    GRADES,
    METRICS,
    Component,
    MetricReport,
    NoOverlapError,
    Qrels,
    QrelsParseError,
    RunList,
    RunParseError,
    TopicAlignmentError,
    ZeroVarianceError,
    _average_ranks_doubled,
    correlate_components,
    correlation_table,
    evaluate_query,
    evaluate_run,
    ndcg_at,
    parse_qrels,
    parse_run,
    plot_column,
    spearman,
    write_metric_report,
    write_plot_data,
)
from polyrep.opinions import Opinion
from polyrep.textprep import PrepLevel

import oracles

TOL = 1e-9
DATA = Path(__file__).parent / "data"


def run_of(qid, docids):
    """Ranking from an explicit doc order."""
    return RunList({qid: tuple(docids)})


def qrels_of(qid, judgments):
    return Qrels({qid: dict(judgments)})


class TestParseRun:
    def test_empty_source(self):
        assert parse_run([]).rankings == {}

    def test_single_record(self):
        run = parse_run(["q1 Q0 d1 1 2.5 tag"])
        assert run.rankings["q1"] == ("d1",)
        assert run.cut == {}

    def test_rank_column_is_ignored_and_recomputed(self):
        run = parse_run(
            ["q1 Q0 low 1 0.5 t", "q1 Q0 high 2 9.5 t", "q1 Q0 mid 3 5.0 t"]
        )
        assert run.rankings["q1"] == ("high", "mid", "low")

    def test_score_ties_break_on_ascending_docid(self):
        run = parse_run(["q1 Q0 b 1 1.0 t", "q1 Q0 a 2 1.0 t"])
        assert run.rankings["q1"] == ("a", "b")

    def test_equal_scores_and_signed_zeros_tie_on_ascending_docid(self):
        # each query in two blocks; -0.0 == 0.0, so neither zero ranks above the other
        lines = ["q1 Q0 c 1 0.0 t", "q2 Q0 y 1 2.5 t", "q1 Q0 a 2 -0.0 t", "q2 Q0 x 2 2.5 t",
                 "q1 Q0 b 3 0 t", "q2 Q0 w 3 -0 t", "q1 Q0 z 4 1.0 t", "q2 Q0 v 4 0.0 t"]
        assert parse_run(lines).rankings == {"q1": ("z", "a", "b", "c"), "q2": ("x", "y", "v", "w")}

    def test_zero_spellings_tie_on_ascending_docid(self):
        lines = ["q1 Q0 c 1 0 t", "q1 Q0 up 2 0.5 t", "q1 Q0 a 3 -0.0 t", "q1 Q0 b 4 0.000 t",
                 "q1 Q0 down 5 -0.5 t"]
        assert parse_run(lines).rankings["q1"] == ("up", "a", "b", "c", "down")

    def test_a_ranking_keeps_only_its_doc_ids(self):
        # each doc id stays live as its characters and one separator in its ranking's string:
        # no str object, tuple slot or score per document
        lines = [f"q{q} Q0 doc-{q}-{d:05d} {d} {d * 7919 % 1000 / 8} t"
                 for q in range(4) for d in range(1000)]
        parse_run(lines)  # what a first call loads is not counted below
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run = parse_run(lines)
            live = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert all(type(ranking) is tuple for ranking in run.rankings.values())
        docids = [docid for ranking in run.rankings.values() for docid in ranking]
        assert len(docids) == 4000 and all(type(docid) is str for docid in docids)
        assert live <= sum(len(docid) + 1 for docid in docids) + 512 * len(run.rankings)

    def test_duplicate_document_rejected(self):
        with pytest.raises(RunParseError, match="line 2.*duplicate"):
            parse_run(["q1 Q0 d1 1 2.0 t", "q1 Q0 d1 2 1.0 t"])

    def test_malformed_line_reports_number(self):
        with pytest.raises(RunParseError, match="line 3"):
            parse_run(["q1 Q0 d1 1 2.0 t", "q1 Q0 d2 2 1.0 t", "q1 d3 oops"])

    def test_bad_score_rejected(self):
        with pytest.raises(RunParseError, match="score"):
            parse_run(["q1 Q0 d1 1 abc t"])

    # float() alone reads these as 10.0, 3.0, 1.0 and 0.1
    @pytest.mark.parametrize("score", ["1_0", "\u0663", "\uff11", "1_0e-1"])
    def test_score_must_be_plain_ascii(self, score):
        with pytest.raises(RunParseError) as excinfo:
            parse_run(["q1 Q0 d1 1 1.0 t", f"q1 Q0 d2 2 {score} t"])
        assert str(excinfo.value) == f"line 2: bad score {score!r}"

    @pytest.mark.parametrize("score", ["inf", "-inf", "nan"])
    def test_non_finite_score_rejected(self, score):
        with pytest.raises(RunParseError, match=f"^line 2: non-finite score '{score}'$"):
            parse_run(["q1 Q0 d1 1 1.0 t", f"q1 Q0 d2 2 {score} t"])

    def test_ranking_truncated_to_evaluation_depth(self):
        lines = [f"q1 Q0 d{i:04d} {i} {2000 - i}.0 t" for i in range(1500)]
        run = parse_run(lines)
        assert len(run.rankings["q1"]) == 1000
        assert run.rankings["q1"][0] == "d0000"
        assert run.cut == {"q1": 500}

    def test_file_path_source(self, tmp_path):
        path = tmp_path / "run.txt"
        path.write_text("q1 Q0 d1 1 1.0 t\n")
        assert parse_run(path).rankings == {"q1": ("d1",)}

    def test_query_lines_need_not_be_contiguous(self):
        split = ["q1 Q0 a 1 3.0 t", "q2 Q0 c 1 1.0 t", "q1 Q0 b 2 2.0 t"]
        grouped = [split[0], split[2], split[1]]
        assert parse_run(split) == parse_run(grouped)
        assert parse_run(split).rankings == {"q1": ("a", "b"), "q2": ("c",)}

    def test_duplicate_in_a_later_block_names_that_line(self):
        lines = ["q1 Q0 a 1 3.0 t", "q2 Q0 a 1 1.0 t", "q1 Q0 b 2 2.0 t", "q1 Q0 a 3 1.0 t"]
        with pytest.raises(RunParseError) as excinfo:
            parse_run(lines)
        assert str(excinfo.value) == "line 4: duplicate document 'a' for query 'q1'"


    @pytest.mark.parametrize("first", ["all", "q1"])
    def test_summary_query_id_rejected(self, first):
        lines = [f"{first} Q0 d1 1 2.0 t", "all Q0 d2 2 1.0 t"]
        line = 1 if first == "all" else 2
        with pytest.raises(RunParseError) as excinfo:
            parse_run(lines)
        assert str(excinfo.value) == f"line {line}: query id 'all' names the summary rows"


def run_line(qid, docid, score):
    return f"{qid} Q0 {docid} 0 {score} t"


def assert_read_as_by_the_reference(lines):
    got, expected = parse_run(lines), oracles.parse_run_reference(lines)
    assert got.rankings == {qid: tuple(docid for docid, _ in ranking)
                            for qid, ranking in expected.rankings.items()}
    assert list(got.cut.items()) == list(expected.cut.items())  # the same values, in order
    return got


class TestResumedQueries:
    """A query whose lines resume after another query's is merged exactly at depth 1000."""

    def test_a_deep_query_in_three_blocks_between_another(self):
        rng = random.Random(7)
        # one decimal, so scores tie within blocks and across them
        q1 = [run_line("q1", f"d{i:04d}", round(rng.uniform(-25, 25), 1)) for i in range(1300)]
        q2 = [run_line("q2", f"e{i:04d}", round(rng.uniform(-25, 25), 1)) for i in range(1050)]
        lines = q1[:500] + q2[:600] + q1[500:1100] + q2[600:] + q1[1100:]
        run = assert_read_as_by_the_reference(lines)
        assert run.cut == {"q1": 300, "q2": 50}

    def test_a_later_document_enters_the_top(self):
        first = [run_line("q1", f"d{i:04d}", i) for i in range(1, 1101)]  # d0101..d1100 kept
        later = [run_line("q1", "late-best", 5000), run_line("q1", "late-mid", 600.5),
                 run_line("q1", "late-cut", 50.5)]
        lines = first + [run_line("q2", "x", 1)] + later
        run = assert_read_as_by_the_reference(lines)
        ranking = run.rankings["q1"]
        assert ranking[0] == "late-best"
        assert ranking[ranking.index("d0601") + 1] == "late-mid"
        assert "late-cut" not in ranking and ranking[-1] == "d0103"
        assert run.cut == {"q1": 103}

    def test_documents_cut_below_zero_stay_cut(self):
        # every score is negative: a cut document goes back after every kept one, not to 0
        first = [run_line("q1", f"d{i:04d}", -i) for i in range(1, 1101)]  # d1001..d1100 cut
        lines = first + [run_line("q2", "x", 1), run_line("q1", "late", -0.5)]
        run = assert_read_as_by_the_reference(lines)
        assert run.rankings["q1"][:2] == ("late", "d0001")
        assert run.rankings["q1"][-1] == "d0999"
        assert run.cut == {"q1": 101}

    def test_a_repeat_of_a_cut_document_names_its_line(self):
        # d0001 scored lowest and was cut when the first block ended
        lines = [run_line("q1", f"d{i:04d}", i) for i in range(1, 1101)]
        lines += [run_line("q2", "x", 1), run_line("q1", "new", 7), run_line("q1", "d0001", 9)]
        message = "line 1103: duplicate document 'd0001' for query 'q1'"
        with pytest.raises(RunParseError) as expected:
            oracles.parse_run_reference(lines)
        assert str(expected.value) == message
        source = CountingLines([*lines, *(run_line("q3", f"d{i}", 1) for i in range(100))])
        with pytest.raises(RunParseError) as got:
            parse_run(source)
        assert str(got.value) == message
        assert source.taken == 1103

    def test_signed_zeros_tie_across_a_block_boundary(self):
        # the top 1000 ends among tied zeros, so doc ids decide which ones are cut
        first = [run_line("q1", f"d{i:04d}", "-0.0" if i % 2 else "0") for i in range(1000)]
        first += [run_line("q1", "up", "0.5")]
        later = [run_line("q1", "c0000", "0.000"), run_line("q1", "c0001", "-0"),
                 run_line("q1", "e0000", "0.0"), run_line("q1", "down", "-0.5")]
        lines = first + [run_line("q2", "x", "-0.0")] + later
        run = assert_read_as_by_the_reference(lines)
        assert run.rankings["q1"][:4] == ("up", "c0000", "c0001", "d0000")
        assert run.rankings["q1"][-1] == "d0996"
        assert run.cut == {"q1": 5}

    def test_interleaved_lines_rank_each_query_at_most_twice(self, monkeypatch):
        # in rank order every line opens and closes a block of its query; each query is
        # ranked when its first block ends, then held open and ranked once more at the end
        rank_block, calls = ireval._rank_block, []
        monkeypatch.setattr(ireval, "_rank_block", lambda docs: calls.append(1) or rank_block(docs))
        lines = [run_line(f"q{q}", f"d{rank:04d}", -rank) for rank in range(1100) for q in range(3)]
        lines.append(run_line("q1", "d1050", 1))  # cut once the file ends
        with pytest.raises(RunParseError, match="line 3301: duplicate document 'd1050'"):
            parse_run(lines)
        calls.clear()
        run = assert_read_as_by_the_reference(lines[:-1])
        assert run.cut == {"q0": 100, "q1": 100, "q2": 100}
        assert len(calls) == 6


def parse_excess(lines):
    """tracemalloc's peak while ``lines`` are parsed, over the memory still held after."""
    parse_run(lines)  # what a first call loads is not counted below
    tracemalloc.start()
    try:
        run = parse_run(lines)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert run.rankings  # held includes the run
    return peak - held


def test_peak_is_one_block_not_the_file():
    # 30 contiguous queries of 1,100 documents; the lowest 100 of each are cut
    def block(q):
        return [f"q{q:02d} Q0 doc-{q:02d}-{d:05d} {d} {d * 7919 % 1100 / 8} t" for d in range(1100)]

    lines = [line for q in range(30) for line in block(q)]
    one_block = parse_excess(block(0))
    # until the file ends, each ranked query keeps 8 bytes per ranked document and its cut ids
    # joined into one string, plus the headers of what holds them
    kept = 30 * (8 * EVALUATION_DEPTH + 100 * len("doc-00-00000 ") + 256)
    assert parse_excess(lines) <= 2 * one_block + kept


@pytest.mark.parametrize("queries, documents", [(4, 1100), (4, 2200), (16, 1100)])
def test_a_run_holds_gc_tracked_objects_per_query_not_per_document(queries, documents):
    # strings are not tracked by the cyclic GC, so it has no ranking's doc ids to traverse
    lines = [run_line(f"q{q}", f"d{d:05d}", d % 997) for q in range(queries)
             for d in range(documents)]
    parse_run(lines)  # what a first call loads is not counted below
    gc.collect()
    gc.disable()  # no collection untracks what the parse leaves behind
    try:
        before = gc.get_objects()
        known = set(map(id, before))
        known.update((id(before), id(known)))
        run = parse_run(lines)
        held = [obj for obj in gc.get_objects() if id(obj) not in known]
    finally:
        gc.enable()
    assert run.cut == {f"q{q}": documents - EVALUATION_DEPTH for q in range(queries)}
    assert len(held) <= queries + 8
    assert sum(len(gc.get_referents(obj)) for obj in held) <= 4 * queries + 32


class TestRankingsMapping:
    """``parse_run``'s rankings read, compare and print as the dict of tuples they stand for."""

    LINES = [run_line("q1", "b", 2), run_line("q1", "a", 3), run_line("q2", "c", 1)]
    EXPECTED = {"q1": ("a", "b"), "q2": ("c",)}

    def test_equal_to_the_dict_of_tuples_either_way(self):
        rankings = parse_run(self.LINES).rankings
        assert rankings == self.EXPECTED and self.EXPECTED == rankings
        assert rankings != {"q1": ("a", "b")} and {"q1": ("a", "b")} != rankings
        assert rankings != {"q1": ["a", "b"], "q2": ["c"]}  # ("a", "b") != ["a", "b"]

    def test_repr_is_that_of_the_run_built_from_the_dict(self):
        assert repr(parse_run(self.LINES)) == repr(RunList(self.EXPECTED, {}))

    def test_values_are_tuples(self):
        values = list(parse_run(self.LINES).rankings.values())
        assert values == [("a", "b"), ("c",)] and all(type(value) is tuple for value in values)

    def test_lookups_behave_as_in_a_dict(self):
        rankings = parse_run(self.LINES).rankings
        assert rankings["q1"] == ("a", "b") and rankings.get("q2") == ("c",)
        assert rankings.get("q9") is None and rankings.get("q9", ()) == ()
        with pytest.raises(KeyError):
            rankings["q9"]
        assert "q1" in rankings and "q9" not in rankings and ("a",) not in rankings
        assert len(rankings) == 2 and list(rankings) == ["q1", "q2"]
        assert dict(rankings.items()) == self.EXPECTED

    def test_pickles_as_an_equal_run(self):
        run = parse_run(self.LINES)
        assert pickle.loads(pickle.dumps(run)) == run

    def test_a_non_ascii_doc_id_round_trips(self):
        lines = [run_line("q1", "d\u00f6k-\u00fc", 2), run_line("q1", "\u6587\u66f8", 1),
                 run_line("q1", "\U0001f4c4", 3)]
        ranking = ("\U0001f4c4", "d\u00f6k-\u00fc", "\u6587\u66f8")
        assert parse_run(lines).rankings == {"q1": ranking}

    def test_uncut_and_resumed_queries_read_as_by_the_reference(self):
        deep = [run_line("q2", f"e{i:04d}", i % 101) for i in range(1100)]
        lines = deep[:700] + [run_line("q1", "x", 1), run_line("q1", "y", 2)] + deep[700:]
        run = assert_read_as_by_the_reference(lines)
        assert run.rankings["q1"] == ("y", "x")
        assert run.cut == {"q2": 100}


def qrels_line(qid, docid, grade):
    return f"{qid} 0 {docid} {grade}"


class TestJudgmentsMapping:
    """``parse_qrels``'s judgments read, compare and print as the dict of dicts they stand for."""

    LINES = [qrels_line("q1", "b", 0), qrels_line("q1", "a", 3), qrels_line("q2", "c", 1)]
    EXPECTED = {"q1": {"b": 0, "a": 3}, "q2": {"c": 1}}

    def test_equal_to_the_dict_of_dicts_either_way(self):
        grades = parse_qrels(self.LINES).grades
        assert grades == self.EXPECTED and self.EXPECTED == grades
        assert grades != {"q1": {"b": 0, "a": 3}} and {"q1": {"b": 0, "a": 3}} != grades
        assert grades != {"q1": {"b": 0, "a": 2}, "q2": {"c": 1}}

    def test_repr_is_that_of_the_judgments_built_from_the_dict(self):
        assert repr(parse_qrels(self.LINES)) == repr(Qrels(self.EXPECTED))

    def test_values_are_dicts_in_file_order(self):
        values = list(parse_qrels(self.LINES).grades.values())
        assert values == [{"b": 0, "a": 3}, {"c": 1}]
        assert all(type(value) is dict for value in values)
        assert [list(value) for value in values] == [["b", "a"], ["c"]]

    def test_lookups_behave_as_in_a_dict(self):
        grades = parse_qrels(self.LINES).grades
        assert grades["q1"] == {"b": 0, "a": 3} and grades.get("q2") == {"c": 1}
        assert grades.get("q9") is None and grades.get("q9", {}) == {}
        with pytest.raises(KeyError):
            grades["q9"]
        assert "q1" in grades and "q9" not in grades and ("q1",) not in grades
        assert len(grades) == 2 and list(grades) == ["q1", "q2"]
        assert dict(grades.items()) == self.EXPECTED

    def test_pickles_as_equal_judgments(self):
        qrels = parse_qrels(self.LINES)
        again = pickle.loads(pickle.dumps(qrels))
        assert again == qrels and repr(again) == repr(qrels)

    def test_a_non_ascii_doc_id_round_trips(self):
        lines = [qrels_line("q1", "d\u00f6k-\u00fc", 2), qrels_line("q1", "\u6587\u66f8", 0),
                 qrels_line("q1", "\U0001f4c4", 3)]
        judged = {"d\u00f6k-\u00fc": 2, "\u6587\u66f8": 0, "\U0001f4c4": 3}
        assert parse_qrels(lines).grades == {"q1": judged}

    def test_a_resumed_query_reads_as_by_the_reference(self):
        deep = [qrels_line("q2", f"e{i:03d}", i % 4) for i in range(300)]
        lines = (deep[:200] + [qrels_line("q1", "x", 0), qrels_line("q1", "y", 2)] + deep[200:]
                 + [qrels_line("q1", "z", 1)])
        got, expected = parse_qrels(lines), oracles.parse_qrels_reference(lines)
        assert got == expected and repr(got) == repr(expected)
        assert list(got.grades["q1"].items()) == [("x", 0), ("y", 2), ("z", 1)]

    @pytest.mark.parametrize("built", [False, True], ids=["parsed", "built from dicts"])
    def test_queries_without_relevant_read_alike_either_way(self, built):
        lines = [qrels_line("q3", "a", 0), qrels_line("q1", "a", 0), qrels_line("q2", "a", 0),
                 qrels_line("q1", "b", 1), qrels_line("q3", "b", 0)]
        qrels = parse_qrels(lines)
        if built:
            qrels = Qrels({qid: dict(judged) for qid, judged in qrels.grades.items()})
        assert ireval.without_relevant(qrels) == ["q3", "q2"]


def test_judgments_keep_their_doc_ids_and_a_byte_per_grade():
    # each judgment stays live as its doc id's characters, one separator and one grade byte:
    # no str object, dict slot or int per judgment
    lines = [qrels_line(f"q{q}", f"doc-{q}-{d:05d}", d % 4) for q in range(4) for d in range(1000)]
    parse_qrels(lines)  # what a first call loads is not counted below
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        qrels = parse_qrels(lines)
        live = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    docids = [docid for judged in qrels.grades.values() for docid in judged]
    assert len(docids) == 4000 and all(type(docid) is str for docid in docids)
    assert live <= sum(len(docid) + 2 for docid in docids) + 512 * len(qrels.grades)


@pytest.mark.parametrize("queries, judgments", [(4, 300), (4, 600), (16, 300)])
def test_judgments_hold_gc_tracked_objects_per_query_not_per_judgment(queries, judgments):
    lines = [qrels_line(f"q{q}", f"d{d:05d}", d % 4) for q in range(queries)
             for d in range(judgments)]
    parse_qrels(lines)  # what a first call loads is not counted below
    gc.collect()
    gc.disable()  # no collection untracks what the parse leaves behind
    try:
        before = gc.get_objects()
        known = set(map(id, before))
        known.update((id(before), id(known)))
        qrels = parse_qrels(lines)
        held = [obj for obj in gc.get_objects() if id(obj) not in known]
    finally:
        gc.enable()
    assert len(qrels.grades) == queries
    assert len(held) <= queries + 8
    assert sum(len(gc.get_referents(obj)) for obj in held) <= 4 * queries + 32


def test_interleaved_judgments_pack_each_query_at_most_twice(monkeypatch):
    # sorted by doc id every line opens and closes a block of its query; each query is
    # packed when its first block ends, then held open and packed once more at the end
    pack_judgments, calls = ireval._pack_judgments, []
    monkeypatch.setattr(ireval, "_pack_judgments",
                        lambda judged: calls.append(1) or pack_judgments(judged))
    lines = sorted((qrels_line(f"q{q}", f"d{d:04d}", (d + q) % 4)
                    for q in range(3) for d in range(300)), key=lambda line: line.split()[2])
    lines.append(qrels_line("q1", "d0150", 0))
    with pytest.raises(QrelsParseError, match="^line 901: duplicate judgment for 'q1'/'d0150'$"):
        parse_qrels(lines)
    calls.clear()
    got, expected = parse_qrels(lines[:-1]), oracles.parse_qrels_reference(lines[:-1])
    assert got == expected and repr(got) == repr(expected)
    assert len(calls) == 6


class TestParseQrels:
    def test_empty_source(self):
        assert parse_qrels([]).grades == {}

    def test_grades_parsed(self):
        qrels = parse_qrels(["q1 0 d1 3", "q1 0 d2 0"])
        assert qrels.grades == {"q1": {"d1": 3, "d2": 0}}

    def test_duplicate_judgment_rejected(self):
        with pytest.raises(QrelsParseError, match="duplicate"):
            parse_qrels(["q1 0 d1 1", "q1 0 d1 2"])

    # int() would read the last five as 1, 3, 1, 2 and 1
    @pytest.mark.parametrize("grade", ["4", "-1", "x", "0_1", "\u0663", "\uff11", "+2", "01"])
    def test_grade_outside_scale_rejected(self, grade):
        with pytest.raises(QrelsParseError) as excinfo:
            parse_qrels(["q1 0 d0 0", f"q1 0 d1 {grade}"])
        assert str(excinfo.value) == f"line 2: grade must be one of (0, 1, 2, 3), got {grade!r}"

    def test_malformed_line_reports_number(self):
        with pytest.raises(QrelsParseError, match="line 2"):
            parse_qrels(["q1 0 d1 1", "q1 d2"])

    def test_query_lines_need_not_be_contiguous(self):
        split = ["q1 0 a 3", "q2 0 c 1", "q1 0 b 0"]
        grouped = [split[0], split[2], split[1]]
        assert parse_qrels(split) == parse_qrels(grouped)
        assert parse_qrels(split).grades == {"q1": {"a": 3, "b": 0}, "q2": {"c": 1}}

    def test_duplicate_in_a_later_block_names_that_line(self):
        lines = ["q1 0 a 1", "q2 0 a 2", "q1 0 b 0", "q1 0 a 1"]
        with pytest.raises(QrelsParseError) as excinfo:
            parse_qrels(lines)
        assert str(excinfo.value) == "line 4: duplicate judgment for 'q1'/'a'"

    @pytest.mark.parametrize("first", ["all", "q1"])
    def test_summary_query_id_rejected(self, first):
        lines = [f"{first} 0 d1 1", "all 0 d2 0"]
        line = 1 if first == "all" else 2
        with pytest.raises(QrelsParseError) as excinfo:
            parse_qrels(lines)
        assert str(excinfo.value) == f"line {line}: query id 'all' names the summary rows"


# Whitespace that str.split() separates at but reading a file does not end a line at.
BLANKS = " \t\x0b\x0c\u3000\u2028"
QIDS, DOCIDS = ("q1", "q2", "q3"), ("a", "b", "c", "d")


def reference_doc_ids(source):
    """The reference reader's run, each ranking cut down to its doc ids."""
    run = oracles.parse_run_reference(source)
    return RunList({qid: tuple(docid for docid, _ in ranking)
                    for qid, ranking in run.rankings.items()}, run.cut)


class Reader(NamedTuple):
    parse: Callable
    reference: Callable
    line: Callable[[str, str, str], str]  # (qid, docid, score or grade) -> its line
    values: st.SearchStrategy[str]
    bad_values: tuple[str, ...]


READERS = {
    "run": Reader(parse_run, reference_doc_ids,
                  lambda qid, docid, score: f"{qid} Q0 {docid} 0 {score} t",
                  st.sampled_from(["1.0", "2", "0.5", "-3.25", "1e2", "1.00", "+7", ".5", "-0"]),
                  ("1_0", "\u0663", "x", "inf", "nan")),
    "qrels": Reader(parse_qrels, oracles.parse_qrels_reference,
                    lambda qid, docid, grade: f"{qid} 0 {docid} {grade}",
                    st.sampled_from([str(grade) for grade in GRADES]), ("01", "x")),
}


def bad_line(reader, fault, qid, docid):
    """A line one field short or one field long, or else holding ``fault`` as its value."""
    line = reader.line(qid, docid, "1")
    if fault == "one field short":
        return line.rsplit(maxsplit=1)[0]
    if fault == "one field long":
        return f"{line} extra"
    return reader.line(qid, docid, fault)


FORMS = ("lines", "newline-ended lines", "file", "file with a byte order mark")


@st.composite
def reader_lines(draw, reader):
    """Valid lines whose query blocks interleave, spaced by any whitespace, among blank lines."""
    records = draw(st.lists(st.tuples(st.sampled_from(QIDS), st.sampled_from(DOCIDS),
                                      reader.values),
                            unique_by=lambda record: record[:2], max_size=12))
    lines = []
    for record in records:
        gap, pad = st.text(BLANKS, min_size=1, max_size=2), st.text(BLANKS, max_size=2)
        lines.append(draw(pad) + draw(gap).join(reader.line(*record).split()) + draw(pad))
        if draw(st.booleans()):
            lines.append(draw(st.text(BLANKS, max_size=3)))
    return lines


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input.txt"


def as_source(lines, form, path):
    """``lines`` as a line list, or as a file whose lines they are."""
    if form == "lines":
        return lines
    if form == "newline-ended lines":
        return [line + "\n" for line in lines]
    encoding = "utf-8-sig" if form == "file with a byte order mark" else "utf-8"
    path.write_text("".join(line + "\n" for line in lines), encoding=encoding)
    return path


class TestReadersAgainstReference:
    """The one-loop readers against the generator-based ones they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(READERS)).flatmap(
        lambda kind: st.tuples(st.just(kind), reader_lines(READERS[kind]))), st.sampled_from(FORMS))
    @example(("run", ["q1 Q0 a 0 1 t", "q2 Q0 b 0 2 t", " ", "q1 Q0 b 0 3 t"]), "lines")
    @example(("qrels", ["q1 0 a 1", "\t", "q2 0 a 0", "q1 0 b 3"]), "file with a byte order mark")
    def test_valid_input_read_as_by_the_reference(self, input_file, case, form):
        kind, lines = case
        reader = READERS[kind]
        source = as_source(lines, form, input_file)
        expected = reader.reference(source)
        got = reader.parse(source)
        assert got == expected
        assert repr(got) == repr(expected)  # the same query order and documents

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(READERS)), st.sampled_from(FORMS), st.data())
    def test_a_bad_line_is_named_as_by_the_reference(self, input_file, kind, form, data):
        reader = READERS[kind]
        lines = data.draw(reader_lines(reader)) or [reader.line("q1", "a", "1")]
        fault = data.draw(st.sampled_from(
            ["duplicate", "one field short", "one field long", *reader.bad_values]))
        if fault == "duplicate":
            # the same query's document again, in a later block that another query's line opens
            first = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.split()]))
            qid, _, docid, *_ = lines[first].split()
            at = data.draw(st.integers(first + 1, len(lines)))
            injected = [reader.line("q9", "other", "1"), reader.line(qid, docid, "1")]
        else:
            at = data.draw(st.integers(0, len(lines)))
            injected = [bad_line(reader, fault, data.draw(st.sampled_from(QIDS)), "new")]
        lines[at:at] = injected
        source = as_source(lines, form, input_file)
        with pytest.raises(ValueError) as expected:
            reader.reference(source)
        with pytest.raises(ValueError) as got:
            reader.parse(source)
        assert type(got.value) is type(expected.value)
        assert str(got.value) == str(expected.value)
        assert str(got.value).startswith(f"line {at + len(injected)}: ")


class CountingLines:
    """A one-shot line source that counts the lines taken from it."""

    def __init__(self, lines):
        self._lines = iter(lines)
        self.taken = 0

    def __iter__(self):
        return self

    def __next__(self):
        line = next(self._lines)
        self.taken += 1
        return line


@pytest.mark.parametrize("kind", sorted(READERS))
@pytest.mark.parametrize("number", [2, 9])
@pytest.mark.parametrize("fault", ["duplicate", "one field short", "x"])
def test_reading_stops_at_the_bad_line(kind, number, fault):
    # one line at a time: nothing past the bad line is read, so a long file fails as early
    reader = READERS[kind]
    good = [reader.line(QIDS[i % 2], f"d{i}", "1") for i in range(1, number)]
    bad = (reader.line(QIDS[1], "d1", "1") if fault == "duplicate"
           else bad_line(reader, fault, "q1", "new"))
    source = CountingLines([*good, bad, *(reader.line("q3", f"d{i}", "1") for i in range(100))])
    with pytest.raises(ValueError, match=f"^line {number}: "):
        reader.parse(source)
    assert source.taken == number


class TestPathLikeSources:
    """Every reader takes any ``os.PathLike`` as a path, an ``os.DirEntry`` among them."""

    @pytest.mark.parametrize("name, read", [
        ("topics.jsonl", load_topics), ("run.txt", parse_run), ("qrels.txt", parse_qrels)],
        ids=["load_topics", "parse_run", "parse_qrels"])
    def test_dir_entry_reads_as_its_path(self, name, read):
        with os.scandir(DATA) as entries:
            entry = next(entry for entry in entries if entry.name == name)
        assert read(entry) == read(str(DATA / name))

    def test_error_names_the_path_not_the_entry(self, tmp_path):
        (tmp_path / "run.txt").write_bytes(b"t1 Q0 d1 1 2.0 t\nt1 Q0 d\xff 2 1.0 t\n")
        with os.scandir(tmp_path) as entries:
            (entry,) = entries
        with pytest.raises(RunParseError, match=(
                f"^{re.escape(entry.path)}: line 2: byte 0xff is not valid UTF-8$")):
            parse_run(entry)


class TestAveragePrecision:
    def test_hand_computation(self):
        run = run_of("q", ["d3", "d1", "d2"])
        qrels = qrels_of("q", {"d1": 3, "d2": 1, "d3": 0})
        assert evaluate_query(run, qrels, "q")["map"] == pytest.approx(7 / 12, abs=TOL)

    def test_perfect_ranking(self):
        run = run_of("q", ["d1", "d2", "d3"])
        qrels = qrels_of("q", {"d1": 3, "d2": 1, "d3": 0})
        assert evaluate_query(run, qrels, "q")["map"] == 1.0

    def test_nothing_relevant_retrieved(self):
        run = run_of("q", ["d3"])
        qrels = qrels_of("q", {"d1": 3, "d3": 0})
        assert evaluate_query(run, qrels, "q")["map"] == 0.0

    def test_query_without_relevant_docs_scores_zero(self):
        run = run_of("q", ["d1"])
        assert evaluate_query(run, qrels_of("q", {"d1": 0}), "q")["map"] == 0.0


class TestNdcg:
    def test_hand_computation_at_three(self):
        run = run_of("q", ["d3", "d1", "d2"])
        qrels = qrels_of("q", {"d1": 3, "d2": 1, "d3": 0})
        expected = (3 / math.log2(3) + 1 / math.log2(4)) / (3 + 1 / math.log2(3))
        assert ndcg_at(run, qrels, "q", 3) == pytest.approx(expected, abs=TOL)
        assert ndcg_at(run, qrels, "q", 3) == pytest.approx(0.6590, abs=1e-4)

    def test_ideal_order_scores_one(self):
        run = run_of("q", ["d1", "d2", "d3"])
        qrels = qrels_of("q", {"d1": 3, "d2": 1, "d3": 0})
        assert ndcg_at(run, qrels, "q", 10) == pytest.approx(1.0, abs=TOL)

    def test_all_unjudged_scores_zero(self):
        run = run_of("q", ["x", "y"])
        qrels = qrels_of("q", {"d1": 2})
        assert ndcg_at(run, qrels, "q", 10) == 0.0

    def test_zero_ideal_gain_scores_zero(self):
        run = run_of("q", ["d1"])
        assert ndcg_at(run, qrels_of("q", {"d1": 0}), "q", 10) == 0.0

    @pytest.mark.parametrize("k", [0, -1])
    def test_cutoff_below_one_rejected(self, k):
        # a negative k would slice the ranking from its end
        run = run_of("q", ["d1", "d2"])
        with pytest.raises(ValueError, match=f"k must be at least 1, got {k}"):
            ndcg_at(run, qrels_of("q", {"d1": 0, "d2": 1}), "q", k)

    @pytest.mark.parametrize("k", [2.5, True, "3"], ids=["float", "bool", "str"])
    def test_cutoff_not_an_int_rejected(self, k):
        # 2.5 used to fail inside slicing and True to be read as 1
        run = run_of("q", ["d1", "d2"])
        with pytest.raises(TypeError, match=f"^k must be an integer, got {type(k).__name__}$"):
            ndcg_at(run, qrels_of("q", {"d1": 0, "d2": 1}), "q", k)

    def test_gains_are_the_raw_grades(self):
        # one grade-2 doc at rank 1 with a grade-3 doc unretrieved:
        # dcg = 2, idcg = 3 + 2/log2(3)
        run = run_of("q", ["d2"])
        qrels = qrels_of("q", {"d1": 3, "d2": 2})
        expected = 2 / (3 + 2 / math.log2(3))
        assert ndcg_at(run, qrels, "q", 10) == pytest.approx(expected, abs=TOL)


class TestPrecisionAtTen:
    def test_perfect_top_ten(self):
        run = run_of("q", [f"d{i}" for i in range(10)])
        qrels = qrels_of("q", {f"d{i}": 1 for i in range(10)})
        assert evaluate_query(run, qrels, "q")["p10"] == 1.0

    def test_no_relevant_in_top_ten(self):
        run = run_of("q", [f"d{i}" for i in range(10)])
        qrels = qrels_of("q", {"other": 1})
        assert evaluate_query(run, qrels, "q")["p10"] == 0.0

    def test_three_relevant(self):
        run = run_of("q", [f"d{i}" for i in range(10)])
        qrels = qrels_of("q", {"d0": 1, "d4": 2, "d9": 3})
        assert evaluate_query(run, qrels, "q")["p10"] == pytest.approx(0.3, abs=TOL)

    def test_short_rankings_count_misses(self):
        run = run_of("q", ["d0"])
        qrels = qrels_of("q", {"d0": 1})
        assert evaluate_query(run, qrels, "q")["p10"] == pytest.approx(0.1, abs=TOL)


class TestMrr:
    def test_first_document_relevant(self):
        assert evaluate_query(run_of("q", ["d1"]), qrels_of("q", {"d1": 1}), "q")["mrr"] == 1.0

    def test_first_relevant_at_rank_two(self):
        run = run_of("q", ["d3", "d1"])
        assert evaluate_query(run, qrels_of("q", {"d1": 1, "d3": 0}), "q")["mrr"] == 0.5

    def test_none_relevant(self):
        assert evaluate_query(run_of("q", ["d3"]), qrels_of("q", {"d3": 0}), "q")["mrr"] == 0.0


class TestBpref:
    def test_hand_computation(self):
        run = run_of("q", ["d3", "d1", "d2"])
        qrels = qrels_of("q", {"d1": 1, "d2": 1, "d3": 0, "d4": 0})
        assert evaluate_query(run, qrels, "q")["bpref"] == pytest.approx(0.5, abs=TOL)

    def test_no_nonrelevant_above_any_relevant(self):
        run = run_of("q", ["d1", "d2", "d3"])
        qrels = qrels_of("q", {"d1": 1, "d2": 1, "d3": 0})
        assert evaluate_query(run, qrels, "q")["bpref"] == 1.0

    def test_relevant_never_retrieved(self):
        run = run_of("q", ["d3"])
        qrels = qrels_of("q", {"d1": 1, "d3": 0})
        assert evaluate_query(run, qrels, "q")["bpref"] == 0.0

    def test_without_judged_nonrelevant_each_hit_counts_fully(self):
        run = run_of("q", ["x", "d1", "d2"])  # x unjudged, invisible to bpref
        qrels = qrels_of("q", {"d1": 1, "d2": 2})
        assert evaluate_query(run, qrels, "q")["bpref"] == 1.0

    def test_unjudged_documents_are_skipped(self):
        with_unjudged = run_of("q", ["u1", "d3", "u2", "d1"])
        without = run_of("q", ["d3", "d1"])
        qrels = qrels_of("q", {"d1": 1, "d3": 0})
        assert (evaluate_query(with_unjudged, qrels, "q")["bpref"]
                == evaluate_query(without, qrels, "q")["bpref"])


class TestEvaluateRun:
    def test_fixture_values(self):
        run = parse_run(DATA / "run.txt")
        qrels = parse_qrels(DATA / "qrels.txt")
        report = evaluate_run(run, qrels)
        assert report.per_query["t1"]["map"] == pytest.approx(7 / 12, abs=TOL)
        assert report.per_query["t1"]["mrr"] == 0.5
        assert report.per_query["t1"]["bpref"] == 0.0
        assert report.per_query["t2"]["bpref"] == pytest.approx(0.5, abs=TOL)
        assert report.per_query["t3"]["map"] == 1.0
        assert report.per_query["t3"]["ndcg"] == 1.0
        for metric, mean in report.means.items():
            values = [report.per_query[qid][metric] for qid in sorted(report.per_query)]
            assert mean == pytest.approx(sum(values) / len(values), abs=TOL)

    def test_queries_missing_from_run_score_zero(self):
        run = parse_run(["t1 Q0 d1 1 1.0 t"])
        qrels = parse_qrels(["t1 0 d1 1", "t9 0 d1 1"])
        report = evaluate_run(run, qrels)
        assert report.per_query["t9"] == {m: 0.0 for m in report.per_query["t9"]}

    def test_disjoint_nonempty_run_rejected(self):
        run = parse_run(["qX Q0 d1 1 1.0 t"])
        qrels = parse_qrels(["t1 0 d1 1"])
        with pytest.raises(NoOverlapError):
            evaluate_run(run, qrels)

    def test_empty_judgments_rejected(self):
        with pytest.raises(NoOverlapError, match="^judgments contain no queries$"):
            evaluate_run(parse_run(["t1 Q0 d1 1 1.0 t"]), parse_qrels([]))

    def test_empty_run_scores_all_zero(self):
        report = evaluate_run(parse_run([]), parse_qrels(["t1 0 d1 1"]))
        assert all(value == 0.0 for value in report.means.values())

    def test_report_format(self):
        import io

        run = parse_run(DATA / "run.txt")
        qrels = parse_qrels(DATA / "qrels.txt")
        report = evaluate_run(run, qrels)
        buffer = io.StringIO()
        write_metric_report(report, buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "t1\tmap\t0.5833"
        assert sum(1 for line in lines if line.startswith("all\t")) == 6


def random_instance(rng, max_docs=8):
    """Ranked list plus judgments, with unjudged docs mixed in."""
    docids = [f"d{i}" for i in range(rng.randint(1, max_docs))]
    judgments = {d: rng.randint(0, 3) for d in docids if rng.random() < 0.8}
    retrieved = [d for d in docids if rng.random() < 0.8]
    rng.shuffle(retrieved)
    return retrieved, judgments


class TestOracleEquivalence:
    def test_randomized_instances_match_brute_force(self):
        rng = random.Random(20120814)
        checked = 0
        for _ in range(2000):
            ranked, judgments = random_instance(rng)
            run = run_of("q", ranked)
            qrels = Qrels({"q": judgments})
            assert evaluate_query(run, qrels, "q")["map"] == pytest.approx(
                oracles.ap_naive(ranked, judgments), abs=TOL
            )
            for k in (3, 10, 1000):
                assert ndcg_at(run, qrels, "q", k) == pytest.approx(
                    oracles.ndcg_naive(ranked, judgments, k), abs=TOL
                )
            assert evaluate_query(run, qrels, "q")["p10"] == pytest.approx(
                oracles.precision_naive(ranked, judgments, 10), abs=TOL
            )
            assert evaluate_query(run, qrels, "q")["mrr"] == pytest.approx(
                oracles.rr_naive(ranked, judgments), abs=TOL
            )
            assert evaluate_query(run, qrels, "q")["bpref"] == pytest.approx(
                oracles.bpref_naive(ranked, judgments), abs=TOL
            )
            checked += 1
        assert checked == 2000

    def test_promoting_a_relevant_document_never_hurts(self):
        rng = random.Random(65)
        for _ in range(500):
            ranked, judgments = random_instance(rng)
            positions = [
                i
                for i in range(1, len(ranked))
                if judgments.get(ranked[i], 0) > 0 and judgments.get(ranked[i - 1], 0) == 0
            ]
            if not positions:
                continue
            i = rng.choice(positions)
            promoted = ranked.copy()
            promoted[i - 1], promoted[i] = promoted[i], promoted[i - 1]
            qrels = Qrels({"q": judgments})
            before = evaluate_query(run_of("q", ranked), qrels, "q")
            after = evaluate_query(run_of("q", promoted), qrels, "q")
            for metric in before:
                assert after[metric] >= before[metric] - TOL


@st.composite
def deep_instances(draw):
    """A ranking of up to 30 of 40 documents, and grades 0-3 for any of the 40."""
    pool = [f"d{i}" for i in range(40)]
    ranked = draw(st.lists(st.sampled_from(pool), unique=True, max_size=30))
    judgments = draw(st.dictionaries(st.sampled_from(pool), st.integers(0, 3)))
    return ranked, judgments


class TestBeyondFiveDocuments:
    """Rankings long enough for the top-10 cutoffs, which criterion 4 never reaches."""

    @settings(max_examples=300, deadline=None)
    @given(deep_instances())
    def test_measures_match_the_oracles_and_the_public_views(self, instance):
        ranked, judgments = instance
        run, qrels = run_of("q", ranked), qrels_of("q", judgments)
        got = evaluate_query(run, qrels, "q")
        expected = {
            "map": oracles.ap_naive(ranked, judgments),
            "ndcg": oracles.ndcg_naive(ranked, judgments, 1000),
            "bpref": oracles.bpref_naive(ranked, judgments),
            "p10": oracles.precision_naive(ranked, judgments, 10),
            "ndcg10": oracles.ndcg_naive(ranked, judgments, 10),
            "mrr": oracles.rr_naive(ranked, judgments),
        }
        assert list(got) == list(METRICS)
        for metric in METRICS:
            assert got[metric] == pytest.approx(expected[metric], abs=TOL)
        for k in (1, 3, 10, 1000):
            assert ndcg_at(run, qrels, "q", k) == pytest.approx(
                oracles.ndcg_naive(ranked, judgments, k), abs=TOL
            )
        assert ndcg_at(run, qrels, "q", 1000) == got["ndcg"]
        assert ndcg_at(run, qrels, "q", 10) == got["ndcg10"]


@st.composite
def walk_instances(draw):
    """A ranking for query "q" (or only for another query) and its judgments.

    Rankings are short, or a little shorter or longer than
    :data:`EVALUATION_DEPTH`, as a :class:`RunList` built directly may be.
    Judgments fall on ranked and unranked documents alike, so ranks go
    unjudged and judged documents go unretrieved.
    """
    size = draw(st.one_of(st.integers(0, 30),
                          st.integers(EVALUATION_DEPTH - 20, EVALUATION_DEPTH + 40)))
    ranking = [f"d{i}" for i in range(size)]
    pool = st.integers(0, size + 9).map(lambda i: f"d{i}")
    judgments = draw(st.dictionaries(pool, st.sampled_from(GRADES), max_size=40))
    qid = "q" if draw(st.booleans()) else "other"
    return RunList({qid: tuple(ranking)}), qrels_of("q", judgments)


def near_depth(grade):
    """1,100 ranked documents, those at ranks 1, 10, 11, 999-1002 and 1100 judged ``grade``."""
    ranking = tuple(f"d{rank}" for rank in range(1, 1101))
    ranks = (1, 10, 11, 999, 1000, 1001, 1002, 1100)
    return RunList({"q": ranking}), qrels_of("q", {f"d{rank}": grade for rank in ranks})


def at_depth(run):
    """``run`` with each ranking cut to :data:`EVALUATION_DEPTH`, as ``parse_run`` cuts it."""
    return RunList({qid: ranking[:EVALUATION_DEPTH] for qid, ranking in run.rankings.items()})


class TestJudgedRankWalk:
    """The walk over judged ranks gives the six floats of the full walk it replaced, exactly.

    The full walk read every rank it was given; the measures read the first
    :data:`EVALUATION_DEPTH` alone, so it is given the ranking cut there.
    """

    @settings(max_examples=300, deadline=None)
    @given(walk_instances())
    @example((run_of("q", ["a", "b"]), qrels_of("q", {})))  # nothing judged
    @example((run_of("q", ["a", "b", "c"]), qrels_of("q", {"b": 0, "z": 0})))  # all grade 0
    @example((run_of("q", []), qrels_of("q", {"a": 2})))  # empty ranking
    @example((run_of("other", ["a"]), qrels_of("q", {"a": 1})))  # query absent from the run
    def test_equals_the_reference(self, instance):
        run, qrels = instance
        got = evaluate_query(run, qrels, "q")
        assert list(got) == list(METRICS)
        assert got == oracles.evaluate_query_reference(at_depth(run), qrels, "q")

    @pytest.mark.parametrize("grade", GRADES)
    def test_ranks_past_the_depth_add_no_gain(self, grade):
        run, qrels = near_depth(grade)
        got = evaluate_query(run, qrels, "q")
        assert got == oracles.evaluate_query_reference(at_depth(run), qrels, "q")
        assert got["ndcg"] == ndcg_at(run, qrels, "q", EVALUATION_DEPTH)
        assert got["ndcg10"] == ndcg_at(run, qrels, "q", 10)
        if grade:
            # every measure stops at the depth: ranks 1001-1100 are not retrieved for map either
            assert got["map"] == pytest.approx(sum(n / rank for n, rank in enumerate(
                (1, 10, 11, 999, 1000), start=1)) / 8, abs=TOL)
            assert got["ndcg"] < 1.0

    def test_ndcg_at_any_cutoff_stops_at_the_depth(self):
        run = run_of("q", [f"d{rank}" for rank in range(1, 1101)])
        qrels = qrels_of("q", {"d1050": 2})
        assert ndcg_at(run, qrels, "q", 1100) == evaluate_query(run, qrels, "q")["ndcg"] == 0.0

    def test_a_document_past_the_depth_is_not_retrieved(self):
        ranking = [f"d{rank}" for rank in range(1, 1102)]
        got = evaluate_query(run_of("q", ranking), qrels_of("q", {"d1": 0, "d1001": 1}), "q")
        assert got == dict.fromkeys(METRICS, 0.0)

    def test_a_query_neither_ranked_nor_judged_scores_zero(self):
        got = evaluate_query(run_of("q", ["a"]), qrels_of("q", {"a": 3}), "absent")
        assert got == dict.fromkeys(METRICS, 0.0)


class TestSpearman:
    def test_perfect_monotone_is_exactly_one(self):
        assert spearman([1.0, 2.0, 5.0], [10.0, 20.0, 30.0]) == 1.0

    def test_reversed_is_exactly_minus_one(self):
        assert spearman([1.0, 2.0, 5.0], [3.0, 2.0, 1.0]) == -1.0

    def test_tied_example_matches_oracle(self):
        xs, ys = [1.0, 2.0, 2.0, 4.0], [1.0, 3.0, 2.0, 4.0]
        assert spearman(xs, ys) == pytest.approx(oracles.spearman_naive(xs, ys), abs=TOL)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            spearman([1.0], [1.0, 2.0])

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1.0], [2.0])

    def test_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            spearman([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("side", ["xs", "ys"])
    def test_non_finite_rejected(self, bad, side):
        # sorting with NaN is ill-defined: [1, 2, nan] against [1, 2, 3] used to give 1.0
        vectors = {"xs": [1.0, 2.0, 3.0], "ys": [1.0, 2.0, 3.0]}
        vectors[side][2] = bad
        with pytest.raises(ValueError, match=f"^{side} holds a non-finite value$"):
            spearman(vectors["xs"], vectors["ys"])

    def test_random_vectors_match_oracle_and_scipy(self):
        rng = random.Random(42)
        for _ in range(300):
            n = rng.randint(2, 20)
            xs = [rng.randint(0, 5) / 2 for _ in range(n)]
            ys = [rng.randint(0, 5) / 2 for _ in range(n)]
            if len(set(xs)) < 2 or len(set(ys)) < 2:
                continue
            ours = spearman(xs, ys)
            assert ours == pytest.approx(oracles.spearman_naive(xs, ys), abs=TOL)
            assert ours == pytest.approx(scipy.stats.spearmanr(xs, ys).statistic, abs=1e-12)

    @settings(max_examples=200)
    @given(
        st.lists(
            st.tuples(
                st.floats(-1e6, 1e6, allow_nan=False),
                st.floats(-1e6, 1e6, allow_nan=False),
            ),
            min_size=2,
            max_size=25,
        )
    )
    def test_symmetry(self, pairs):
        xs = [p[0] for p in pairs]
        ys = [p[1] for p in pairs]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            return
        assert spearman(xs, ys) == pytest.approx(spearman(ys, xs), abs=TOL)

    def test_invariant_under_monotone_transforms(self):
        xs = [0.5, 3.0, 3.0, 7.5, 1.25]
        ys = [9.0, 2.0, 4.0, 4.0, 1.0]
        base = spearman(xs, ys)
        assert spearman([math.exp(x) for x in xs], ys) == pytest.approx(base, abs=TOL)
        assert spearman(xs, [3 * y + 1 for y in ys]) == pytest.approx(base, abs=TOL)


def result_with_beliefs(values, uncertainties=None):
    spec = CombinationSpec(
        "information_need", "work_task", FusionOperator.CONSENSUS, PrepLevel.RAW
    )
    per_topic = []
    for i, (qid, belief) in enumerate(values):
        uncertainty = uncertainties[i] if uncertainties else 0.2
        disbelief = 1.0 - belief - uncertainty
        opinion = Opinion(belief, disbelief, uncertainty, 0.5)
        per_topic.append((qid, opinion, belief + 0.5 * uncertainty))
    return CombinationResult(spec, tuple(per_topic), 0.5)


def report_with(values):
    per_query = {qid: {m: value for m in ("map", "ndcg", "bpref", "p10", "ndcg10", "mrr")}
                 for qid, value in values}
    means = {m: 0.0 for m in ("map", "ndcg", "bpref", "p10", "ndcg10", "mrr")}
    return MetricReport(per_query, means)


@st.composite
def tied_vectors(draw):
    """Two vectors of one length in 2..80, each from a pool of two to seven values."""
    n = draw(st.integers(2, 80))
    vectors = []
    for _ in range(2):
        pool = st.integers(0, draw(st.integers(1, 6))).map(lambda v: v / 8)
        vectors.append(draw(st.lists(pool, min_size=n, max_size=n)))
    return vectors


class TestFiveSumOracle:
    """One dot product per cell gives bit for bit the rho of the five-sum formula."""

    @settings(max_examples=300, deadline=None)
    @given(tied_vectors())
    def test_spearman_and_table_equal_the_formula(self, vectors):
        xs, ys = vectors
        n = len(xs)
        for values in vectors:
            assert _average_ranks_doubled(values) == oracles.doubled_ranks_naive(values)
            assert sum(_average_ranks_doubled(values)) == n * (n + 1)
        ids = [f"t{i:02d}" for i in range(n)]  # topic-id order is index order
        result = result_with_beliefs(list(zip(ids, ys)))
        report = report_with(list(zip(ids, xs)))
        expected = oracles.rank_correlation_five_sums(xs, ys)
        if expected is None:
            with pytest.raises(ZeroVarianceError):
                spearman(xs, ys)
            with pytest.raises(ZeroVarianceError):
                correlation_table([result], report, (Component.BELIEF,))
            return
        assert spearman(xs, ys) == expected
        table = correlation_table([result], report, (Component.BELIEF,))
        assert [rho for _, _, _, rho in table] == [expected] * len(METRICS)


class TestCorrelateComponents:
    def test_two_concordant_topics(self):
        result = result_with_beliefs([("t1", 0.2), ("t2", 0.6)])
        report = report_with([("t1", 0.1), ("t2", 0.9)])
        assert correlate_components(result, report, Component.BELIEF) == 1.0

    def test_constant_component_is_zero_variance(self):
        result = result_with_beliefs([("t1", 0.4), ("t2", 0.4)])
        report = report_with([("t1", 0.1), ("t2", 0.9)])
        with pytest.raises(ZeroVarianceError):
            correlate_components(result, report, Component.BELIEF)

    def test_misaligned_ids_listed(self):
        result = result_with_beliefs([("t1", 0.2), ("t2", 0.6)])
        report = report_with([("t2", 0.1), ("t9", 0.9)])
        with pytest.raises(TopicAlignmentError, match="t1") as excinfo:
            correlate_components(result, report, Component.BELIEF)
        assert "t9" in str(excinfo.value)

    def test_uncertainty_component_against_oracle(self):
        result = result_with_beliefs(
            [("t1", 0.5), ("t2", 0.3), ("t3", 0.1)], uncertainties=[0.1, 0.5, 0.3]
        )
        report = report_with([("t1", 0.9), ("t2", 0.3), ("t3", 0.5)])
        expected = oracles.spearman_naive([0.9, 0.3, 0.5], [0.1, 0.5, 0.3])
        rho = correlate_components(result, report, Component.UNCERTAINTY)
        assert rho == pytest.approx(expected, abs=TOL)

    @pytest.mark.parametrize("component", list(Component))
    def test_component_given_by_value(self, component):
        result = result_with_beliefs([("t1", 0.5), ("t2", 0.3), ("t3", 0.1)],
                                     uncertainties=[0.1, 0.5, 0.3])
        report = report_with([("t1", 0.9), ("t2", 0.3), ("t3", 0.5)])
        assert (correlate_components(result, report, component.value)
                == correlate_components(result, report, component))

    def test_unknown_component_named(self):
        result = result_with_beliefs([("t1", 0.2), ("t2", 0.6)])
        report = report_with([("t1", 0.1), ("t2", 0.9)])
        with pytest.raises(ValueError, match="'beleif' is not a valid Component"):
            correlate_components(result, report, "beleif")

    def test_unknown_metric_rejected(self):
        result = result_with_beliefs([("t1", 0.2), ("t2", 0.6)])
        report = report_with([("t1", 0.1), ("t2", 0.9)])
        with pytest.raises(ValueError, match="metric"):
            correlate_components(result, report, Component.BELIEF, "recall")


TABLE_SPECS = (
    CombinationSpec("information_need", "background", FusionOperator.CONSENSUS, PrepLevel.RAW),
    CombinationSpec("work_task", "ideal_answer", FusionOperator.RECOMMENDATION, PrepLevel.STEM,
                    order=CombinationOrder.BA),
    CombinationSpec("background", "work_task", FusionOperator.CONSENSUS, PrepLevel.STOP),
)

# few distinct values, so tied and constant vectors are common
_MASSES = st.sampled_from([0.0, 0.1, 0.25, 0.5])
_MEASURES = st.sampled_from([0.0, 0.2, 0.5, 1.0])


@st.composite
def table_inputs(draw, min_topics=2, max_topics=6):
    """Combination results and a metric report over the same topic ids."""
    ids = draw(st.lists(st.text("abc", min_size=1, max_size=3),
                        min_size=min_topics, max_size=max_topics, unique=True))
    results = []
    for spec in draw(st.lists(st.sampled_from(TABLE_SPECS), min_size=1, max_size=3)):
        per_topic = []
        for tid in draw(st.permutations(ids)):  # not in topic-id order
            belief, uncertainty = draw(_MASSES), draw(_MASSES)
            opinion = Opinion(belief, 1.0 - belief - uncertainty, uncertainty, 0.5)
            per_topic.append((tid, opinion, belief + 0.5 * uncertainty))
        results.append(CombinationResult(spec, tuple(per_topic), 0.5))
    per_query = {tid: {metric: draw(_MEASURES) for metric in METRICS} for tid in ids}
    return results, MetricReport(per_query, {metric: 0.0 for metric in METRICS})


def cells_one_by_one(results, report):
    """Each cell's key and ordered vectors, built on its own for every cell."""
    for result in results:
        spec = result.spec
        for component in Component:
            for metric in METRICS:
                by_topic = {tid: getattr(op, component.value) for tid, op, _ in result.per_topic}
                ordered = sorted(by_topic)
                key = (spec.level.value, spec.operator.value, spec.rep_a, spec.rep_b,
                       spec.order_label, component.value, metric)
                yield (key, [report.per_query[tid][metric] for tid in ordered],
                       [by_topic[tid] for tid in ordered])


class TestCorrelationTable:
    @settings(max_examples=300, deadline=None)
    @given(table_inputs())
    def test_equals_cell_by_cell_reference(self, inputs):
        results, report = inputs
        expected = []
        for key, xs, ys in cells_one_by_one(results, report):
            try:
                rho = spearman(xs, ys)
            except ZeroVarianceError:
                cell = " ".join(f"{name}={value}" for name, value in zip(CORRELATION_COLUMNS, key))
                with pytest.raises(ZeroVarianceError) as excinfo:
                    correlation_table(results, report)
                assert str(excinfo.value) == (
                    f"rank correlation undefined for a constant vector: {cell}"
                )
                return
            expected.append((key, rho, "".join(f"{x:.6f} {y:.6f}\n" for x, y in zip(xs, ys))))
        table = correlation_table(results, report)
        assert [cell[0] for cell in table] == [key for key, _, _ in expected]
        for (_, xs, ys, rho), (_, expected_rho, expected_text) in zip(table, expected):
            assert rho == expected_rho
            assert write_plot_data(plot_column(xs), plot_column(ys)) == expected_text

    def test_unknown_metric_named_as_by_correlate_components(self):
        result = result_with_beliefs([("t1", 0.2), ("t2", 0.6)])
        report = report_with([("t1", 0.1), ("t2", 0.9)])
        expected = f"^unknown metric 'bogus'; expected one of {re.escape(str(METRICS))}$"
        with pytest.raises(ValueError, match=expected):
            correlation_table([result], report, metrics=("map", "bogus"))
        with pytest.raises(ValueError, match=expected):
            correlate_components(result, report, Component.BELIEF, "bogus")

    def test_components_given_by_value(self):
        result = result_with_beliefs([("t1", 0.5), ("t2", 0.3), ("t3", 0.1)],
                                     uncertainties=[0.1, 0.5, 0.3])
        report = report_with([("t1", 0.9), ("t2", 0.3), ("t3", 0.5)])
        assert (correlation_table([result], report, ("belief", "uncertainty"))
                == correlation_table([result], report, tuple(Component)))
        with pytest.raises(ValueError, match="'beleif' is not a valid Component"):
            correlation_table([result], report, ("belief", "beleif"))

    @settings(max_examples=100, deadline=None)
    @given(table_inputs(), st.booleans())
    def test_misaligned_ids_rejected(self, inputs, drop):
        results, report = inputs
        per_query = dict(report.per_query)
        if drop:
            del per_query[min(per_query)]
        else:
            per_query["extra"] = per_query[min(per_query)]
        with pytest.raises(TopicAlignmentError):
            correlation_table(results, MetricReport(per_query, report.means))

    @settings(max_examples=200, deadline=None)
    @given(table_inputs(), st.sampled_from([math.nan, math.inf, -math.inf]), st.data())
    def test_non_finite_value_named(self, inputs, bad, data):
        # a NaN measure used to correlate as 0.5, and infinity as 1.0
        results, report = inputs
        tid = data.draw(st.sampled_from(sorted(report.per_query)))
        components = tuple(Component)
        if data.draw(st.booleans(), label="spoil a measure"):
            metric = data.draw(st.sampled_from(METRICS))
            per_query = {**report.per_query, tid: {**report.per_query[tid], metric: bad}}
            report = MetricReport(per_query, report.means)
            name = f"metric={metric}"
        else:
            # Opinion rejects a non-finite mass, so this one is built past its check;
            # its component is the first vector ranked after the measures
            component = data.draw(st.sampled_from(components))
            field = Opinion._fields.index(component.value)
            spoiled = tuple(
                (topic, tuple.__new__(Opinion, (*opinion[:field], bad, *opinion[field + 1:]))
                 if topic == tid else opinion, value)
                for topic, opinion, value in results[0].per_topic)
            results = [results[0]._replace(per_topic=spoiled), *results[1:]]
            components = (component,)
            key = results[0].spec.label + (component.value,)
            name = " ".join(f"{column}={value}" for column, value in zip(CORRELATION_COLUMNS, key))
        with pytest.raises(ValueError, match=f"^{re.escape(name)} holds a non-finite value$"):
            correlation_table(results, report, components)

    @settings(max_examples=50, deadline=None)
    @given(table_inputs(min_topics=1, max_topics=1))
    def test_single_topic_needs_two_observations(self, inputs):
        results, report = inputs
        with pytest.raises(ValueError, match="need at least two observations"):
            correlation_table(results, report)
