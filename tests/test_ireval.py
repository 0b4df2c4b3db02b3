"""Run/qrels parsing, the six effectiveness measures, and rank correlation."""

import io
import math
import os
import random
import re
import sys
import tracemalloc
from pathlib import Path
from typing import Callable, NamedTuple

import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyrep.combine import (
    CombinationOrder,
    CombinationResult,
    CombinationSpec,
    FusionOperator,
    load_topics,
)
from polyrep.ireval import (
    CORRELATION_COLUMNS,
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

    def test_a_ranking_keeps_only_its_doc_ids(self):
        # beside each doc id one tuple slot stays live: no score and no (doc id, score) pair
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
        assert live <= sum(map(sys.getsizeof, docids)) + 16 * len(docids) + 8192

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
