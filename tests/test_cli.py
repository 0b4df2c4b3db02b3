"""Command-line behaviour: outputs, flags, config files, error handling."""

import contextlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from polyrep import cli, ireval
from polyrep.cli import build_parser, main
from polyrep.combine import AggregationMode, FusionOperator
from polyrep.evidence import PositiveRule

DATA = Path(__file__).parent / "data"

TOPIC_TEMPLATE = (
    '{{"id": "{qid}", "information_need": "{need}", "background": "{background}", '
    '"work_task": "{task}", "ideal_answer": "{ideal}", "keywords": "{keywords}"}}'
)


def write_concordant_fixture(tmp_path):
    """Two topics whose opinion strength and retrieval quality agree.

    q1 overlaps richly with its query and is retrieved perfectly; q2 barely
    overlaps and is retrieved poorly, so belief correlates +1 and
    uncertainty -1 with every measure.
    """
    topics = tmp_path / "topics.jsonl"
    topics.write_text(
        TOPIC_TEMPLATE.format(
            qid="q1",
            need="alpha beta gamma delta",
            background="alpha beta gamma epsilon",
            task="alpha beta gamma zeta",
            ideal="alpha beta gamma eta",
            keywords="alpha beta gamma",
        )
        + "\n"
        + TOPIC_TEMPLATE.format(
            qid="q2",
            need="mu pp",
            background="mu qq",
            task="mu rr",
            ideal="mu ss",
            keywords="mu nu xi",
        )
        + "\n"
    )
    run = tmp_path / "run.txt"
    run.write_text(
        "q1 Q0 d1 1 2.0 t\n"
        "q1 Q0 d2 2 1.0 t\n"
        "q2 Q0 e1 1 2.0 t\n"
        "q2 Q0 e2 2 1.0 t\n"
    )
    qrels = tmp_path / "qrels.txt"
    qrels.write_text("q1 0 d1 1\nq1 0 d2 1\nq2 0 e1 0\nq2 0 e2 1\n")
    return topics, run, qrels


class TestPrep:
    def test_matches_golden(self, capsys):
        assert main(["prep", "--topics", str(DATA / "topics.jsonl")]) == 0
        out = capsys.readouterr()
        assert out.out == (DATA / "termsets_golden.tsv").read_text()
        assert out.err == ""

    def test_empty_topics_file(self, tmp_path, capsys):
        empty = tmp_path / "topics.jsonl"
        empty.write_text("")
        assert main(["prep", "--topics", str(empty)]) == 0
        assert capsys.readouterr().out == "topic\trepresentation\tlevel\tterms\n"

    def test_repeated_field_exits_nonzero_naming_it(self, tmp_path, capsys):
        first = DATA.joinpath("topics.jsonl").read_text().splitlines()[0]
        topics = tmp_path / "topics.jsonl"
        topics.write_text(first[:-1] + ', "keywords": "other words"}\n')
        assert main(["prep", "--topics", str(topics)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "polyrep: error: line 1: field 'keywords' is given more than once\n"

    def test_deeply_nested_record_exits_nonzero_with_line_number(self, tmp_path, capsys):
        first = DATA.joinpath("topics.jsonl").read_text().splitlines()[0]
        topics = tmp_path / "topics.jsonl"
        topics.write_text(first + "\n" + "[" * 100_000 + "\n")
        assert main(["prep", "--topics", str(topics)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("polyrep: error: line 2: ")
        assert out.err.count("\n") == 1 and out.err.endswith("\n")

    def test_unpaired_surrogate_exits_nonzero_and_writes_nothing(self, tmp_path, capsys):
        topics = tmp_path / "topics.jsonl"
        topics.write_text(TOPIC_TEMPLATE.format(qid="u1", need="a\\ud800", background="b",
                                                task="w", ideal="i", keywords="k") + "\n",
                          encoding="utf-8")
        out = tmp_path / "out"
        assert main(["prep", "--topics", str(topics), "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "polyrep: error: line 1: topic field information_need holds an unpaired surrogate\n")
        assert not out.exists()

    def test_bad_record_exits_nonzero_with_line_number(self, tmp_path, capsys):
        bad = tmp_path / "topics.jsonl"
        bad.write_text('{"id": "x"}\n')
        assert main(["prep", "--topics", str(bad)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 1" in out.err

    def test_level_restriction(self, capsys):
        assert main(["prep", "--topics", str(DATA / "topics.jsonl"), "--prep", "II"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines and all(line.split("\t")[2] == "II" for line in lines)

    def test_non_ascii_text(self, tmp_path, capsys):
        # Level II keeps maximal runs of letters and digits of any script:
        # "²" and "٣" are digits, while "½", "Ⅻ", "〇", "_" and U+3000 separate.
        topics = tmp_path / "topics.jsonl"
        topics.write_text(
            TOPIC_TEMPLATE.format(qid="u1", need="Café½x² ٣٤_naïve Ⅻ〇 über\u3000end",
                                  background="b", task="w", ideal="i", keywords="k") + "\n",
            encoding="utf-8",
        )
        assert main(["prep", "--topics", str(topics), "--prep", "I,II,IV"]) == 0
        assert capsys.readouterr().out == (
            "topic\trepresentation\tlevel\tterms\n"
            "u1\tinformation_need\tI\tCafé½x² end über ٣٤_naïve Ⅻ〇\n"
            "u1\tinformation_need\tII\tcafé end naïve x² über ٣٤\n"
            "u1\tinformation_need\tIV\tcafé end naïv x² über ٣٤\n"
            "u1\tbackground\tI\tb\nu1\tbackground\tII\tb\nu1\tbackground\tIV\t\n"
            "u1\twork_task\tI\tw\nu1\twork_task\tII\tw\nu1\twork_task\tIV\t\n"
            "u1\tideal_answer\tI\ti\nu1\tideal_answer\tII\ti\nu1\tideal_answer\tIV\t\n"
            "u1\tkeywords\tI\tk\nu1\tkeywords\tII\tk\nu1\tkeywords\tIV\t\n"
        )


class TestPolyrep:
    def test_matches_golden(self, capsys):
        assert main(["polyrep", "--topics", str(DATA / "topics.jsonl")]) == 0
        assert capsys.readouterr().out == (DATA / "polyrep_golden.tsv").read_text()

    @pytest.mark.parametrize("command", ["polyrep", "correlate"])
    def test_run_option_choices_are_the_enum_values(self, command):
        # argparse has no public list of a parser's actions
        actions = {action.dest: action.choices for action in build_parser()[1][command]._actions}
        assert actions["positive_rule"] == [rule.value for rule in PositiveRule]
        assert actions["agg"] == [mode.value for mode in AggregationMode]
        assert actions["operator"] == [op.value for op in FusionOperator] + ["both"]

    def test_single_topic_probability_equals_expectation(self, tmp_path, capsys):
        single = tmp_path / "one.jsonl"
        single.write_text(DATA.joinpath("topics.jsonl").read_text().splitlines()[0] + "\n")
        assert main(
            ["polyrep", "--topics", str(single), "--format", "obj", "--prep", "II"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        for row in payload["results"]:
            assert row["probability"] == pytest.approx(
                row["per_topic"][0]["expectation"], abs=1e-12
            )

    def test_alpha_zero_returns_fused_beliefs(self, capsys):
        assert main(
            [
                "polyrep",
                "--topics",
                str(DATA / "topics.jsonl"),
                "--alpha",
                "0",
                "--format",
                "obj",
                "--prep",
                "I",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        for row in payload["results"]:
            for entry in row["per_topic"]:
                assert entry["expectation"] == entry["belief"]

    def test_operator_filter(self, capsys):
        assert main(
            [
                "polyrep",
                "--topics",
                str(DATA / "topics.jsonl"),
                "--operator",
                "consensus",
                "--prep",
                "III",
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 6
        assert all("\tconsensus\t" in line for line in lines)

    def test_intersection_rule_is_one_flag_away(self, capsys):
        assert main(
            [
                "polyrep",
                "--topics",
                str(DATA / "topics.jsonl"),
                "--positive-rule",
                "intersection",
                "--prep",
                "II",
                "--operator",
                "consensus",
            ]
        ) == 0
        intersection_out = capsys.readouterr().out
        assert main(
            [
                "polyrep",
                "--topics",
                str(DATA / "topics.jsonl"),
                "--prep",
                "II",
                "--operator",
                "consensus",
            ]
        ) == 0
        union_out = capsys.readouterr().out
        assert intersection_out != union_out

    def test_out_directory(self, tmp_path):
        assert main(
            [
                "polyrep",
                "--topics",
                str(DATA / "topics.jsonl"),
                "--out",
                str(tmp_path / "reports"),
            ]
        ) == 0
        written = (tmp_path / "reports" / "polyrep.tsv").read_text()
        assert written == (DATA / "polyrep_golden.tsv").read_text()

    def test_bad_alpha_rejected(self, capsys):
        assert main(
            ["polyrep", "--topics", str(DATA / "topics.jsonl"), "--alpha", "2"]
        ) == 1
        assert "alpha" in capsys.readouterr().err

    def test_non_numeric_alpha_rejected(self, capsys):
        assert main(["polyrep", "--topics", str(DATA / "topics.jsonl"), "--alpha", "abc"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "polyrep: error: bad alpha 'abc'\n"

    # float() alone reads these as 0.5, 0.1 and 5.0
    @pytest.mark.parametrize("alpha", ["\u0660.\u0665", "1_0e-1", "0_5"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_alpha_must_be_plain_ascii(self, via, alpha, tmp_path, capsys):
        argv = ["polyrep", "--topics", str(DATA / "topics.jsonl")]
        if via == "flag":
            argv += ["--alpha", alpha]
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"alpha={alpha}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"polyrep: error: bad alpha {alpha!r}\n"

    def test_duplicate_topic_id_rejected(self, tmp_path, capsys):
        first = DATA.joinpath("topics.jsonl").read_text().splitlines()[0]
        topics = tmp_path / "topics.jsonl"
        topics.write_text(first + "\n" + first + "\n")
        assert main(["polyrep", "--topics", str(topics)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "line 2" in out.err and "duplicate" in out.err

    @pytest.mark.parametrize("command, levels", [
        pytest.param("polyrep", "I,I", id="I,I"),
        pytest.param("polyrep", "II,III,CASE_PUNCT", id="II,III,CASE_PUNCT"),
        pytest.param("prep", "I,I", id="prep-I,I"),
    ])
    def test_repeated_level_rejected(self, capsys, command, levels):
        argv = [command, "--topics", str(DATA / "topics.jsonl"), "--prep", levels]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        repeated = levels.split(",")[0]
        assert f"preprocessing level {repeated} is given more than once" in out.err

    @pytest.mark.parametrize("levels", ["I,,II", "I,II,", ""])
    def test_empty_level_entry_rejected(self, capsys, levels):
        argv = ["polyrep", "--topics", str(DATA / "topics.jsonl"), "--prep", levels]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert "unknown preprocessing level ''" in out.err

    # str.upper() maps these to STEM, STOP and STOP
    @pytest.mark.parametrize("code", ["\u017ftem", "\ufb06op", "\u017ftop"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_level_code_must_be_ascii(self, via, code, tmp_path, capsys):
        argv = ["prep", "--topics", str(DATA / "topics.jsonl")]
        if via == "flag":
            argv += ["--prep", code]
        else:
            config = tmp_path / "run.conf"
            config.write_text(f"prep={code}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"polyrep: error: unknown preprocessing level {code!r}\n"


class TestEvaluate:
    def test_fixture_report(self, capsys):
        assert main(
            [
                "evaluate",
                "--run",
                str(DATA / "run.txt"),
                "--qrels",
                str(DATA / "qrels.txt"),
            ]
        ) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "t1\tmap\t0.5833" in lines
        assert "t1\tmrr\t0.5000" in lines
        assert "t2\tbpref\t0.5000" in lines
        assert "t3\tmap\t1.0000" in lines
        assert sum(1 for line in lines if line.startswith("all\t")) == 6

    def test_perfect_run_scores_one_everywhere(self, tmp_path, capsys):
        grades = [3, 3, 3, 2, 2, 2, 1, 1, 1, 1]
        run_lines = [
            f"q Q0 r{i} {i + 1} {100 - i}.0 t" for i in range(10)
        ] + ["q Q0 n1 11 1.0 t", "q Q0 n2 12 0.5 t"]
        qrel_lines = [f"q 0 r{i} {grades[i]}" for i in range(10)] + [
            "q 0 n1 0",
            "q 0 n2 0",
        ]
        run = tmp_path / "run.txt"
        run.write_text("\n".join(run_lines) + "\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("\n".join(qrel_lines) + "\n")
        assert main(["evaluate", "--run", str(run), "--qrels", str(qrels)]) == 0
        lines = capsys.readouterr().out.splitlines()
        for line in lines:
            if line.startswith("all\t"):
                assert line.endswith("1.0000")

    def test_empty_run_scores_zero(self, tmp_path, capsys):
        run = tmp_path / "run.txt"
        run.write_text("")
        assert main(["evaluate", "--run", str(run), "--qrels", str(DATA / "qrels.txt")]) == 0
        for line in capsys.readouterr().out.splitlines():
            assert line.endswith("0.0000")

    def test_disjoint_queries_rejected(self, tmp_path, capsys):
        run = tmp_path / "run.txt"
        run.write_text("zz Q0 d1 1 1.0 t\n")
        assert main(["evaluate", "--run", str(run), "--qrels", str(DATA / "qrels.txt")]) == 1
        assert "share no query id" in capsys.readouterr().err

    def test_obj_format(self, capsys):
        assert main(
            [
                "evaluate",
                "--run",
                str(DATA / "run.txt"),
                "--qrels",
                str(DATA / "qrels.txt"),
                "--format",
                "obj",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_query"]["t1"]["map"] == pytest.approx(7 / 12)
        assert set(payload["means"]) == {"map", "ndcg", "bpref", "p10", "ndcg10", "mrr"}


class TestCorrelate:
    def test_concordant_fixture(self, tmp_path):
        topics, run, qrels = write_concordant_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(
            [
                "correlate",
                "--topics",
                str(topics),
                "--run",
                str(run),
                "--qrels",
                str(qrels),
                "--prep",
                "II",
                "--operator",
                "consensus",
                "--out",
                str(out),
            ]
        ) == 0
        lines = (out / "correlations.tsv").read_text().splitlines()
        body = [line.split("\t") for line in lines[1:]]
        assert len(body) == 6 * 2 * 6  # combinations x components x metrics
        for row in body:
            if row[5] == "belief":
                assert row[7] == "1.0000"
            else:
                assert row[7] == "-1.0000"

    def test_plot_data_files(self, tmp_path):
        topics, run, qrels = write_concordant_fixture(tmp_path)
        out = tmp_path / "out"
        assert main(
            [
                "correlate",
                "--topics",
                str(topics),
                "--run",
                str(run),
                "--qrels",
                str(qrels),
                "--prep",
                "II",
                "--operator",
                "consensus",
                "--out",
                str(out),
            ]
        ) == 0
        plots = sorted(out.glob("plot_*.tsv"))
        assert len(plots) == 6 * 2 * 6
        example = out / "plot_II_consensus_information_need_work_task_belief_map.tsv"
        rows = example.read_text().splitlines()
        assert len(rows) == 2  # one point per topic
        for row in rows:
            x, y = row.split(" ")
            float(x), float(y)

    def test_constant_component_errors(self, tmp_path, capsys):
        topics = tmp_path / "topics.jsonl"
        record = TOPIC_TEMPLATE.format(
            qid="q1", need="a b", background="c d", task="e f", ideal="g h",
            keywords="a c",
        )
        clone = TOPIC_TEMPLATE.format(
            qid="q2", need="a b", background="c d", task="e f", ideal="g h",
            keywords="a c",
        )
        topics.write_text(record + "\n" + clone + "\n")
        run = tmp_path / "run.txt"
        run.write_text("q1 Q0 d1 1 1.0 t\nq2 Q0 e1 1 1.0 t\nq2 Q0 e2 2 0.5 t\n")
        qrels = tmp_path / "qrels.txt"
        qrels.write_text("q1 0 d1 1\nq2 0 e1 0\nq2 0 e2 1\n")
        assert main(
            [
                "correlate",
                "--topics", str(topics),
                "--run", str(run),
                "--qrels", str(qrels),
                "--prep", "II",
                "--out", str(tmp_path / "out"),
            ]
        ) == 1
        assert "constant" in capsys.readouterr().err

    def test_constant_rank_vector_names_the_cell(self, tmp_path, capsys):
        # three topics with t1's text give every cell a constant component
        t1 = json.loads((DATA / "topics.jsonl").read_text().splitlines()[0])
        topics = tmp_path / "topics.jsonl"
        topics.write_text("".join(json.dumps(dict(t1, id=f"t{n}")) + "\n" for n in (1, 2, 3)))
        out = tmp_path / "out"
        assert main(
            [
                "correlate",
                "--topics", str(topics),
                "--run", str(DATA / "run.txt"),
                "--qrels", str(DATA / "qrels.txt"),
                "--out", str(out),
            ]
        ) == 1
        err = capsys.readouterr().err
        assert "constant" in err
        assert ("level=I operator=consensus rep_a=information_need rep_b=background order=- "
                "component=belief metric=map") in err
        assert not out.exists()  # all or nothing: no file is written

    def test_misaligned_topic_ids(self, tmp_path, capsys):
        topics, run, qrels = write_concordant_fixture(tmp_path)
        qrels.write_text("q1 0 d1 1\nq1 0 d2 0\n")  # drop q2 judgments
        run.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d2 2 1.0 t\n")
        assert main(
            [
                "correlate",
                "--topics", str(topics),
                "--run", str(run),
                "--qrels", str(qrels),
                "--prep", "II",
                "--out", str(tmp_path / "out"),
            ]
        ) == 1
        assert "q2" in capsys.readouterr().err

    def test_repeated_level_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(
            [
                "correlate",
                "--topics", str(DATA / "topics.jsonl"),
                "--run", str(DATA / "run.txt"),
                "--qrels", str(DATA / "qrels.txt"),
                "--prep", "I,II,I",
                "--out", str(out),
            ]
        ) == 1
        assert "preprocessing level I is given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_ranks_each_vector_once(self, tmp_path, monkeypatch):
        # 6 measure vectors plus 2 component vectors for each of the 72
        # combinations; ranking per correlation would take 2 x 864.
        calls = []
        rank = ireval._average_ranks_doubled
        monkeypatch.setattr(ireval, "_average_ranks_doubled",
                            lambda values: calls.append(len(values)) or rank(values))
        assert main(
            [
                "correlate",
                "--topics", str(DATA / "topics.jsonl"),
                "--run", str(DATA / "run.txt"),
                "--qrels", str(DATA / "qrels.txt"),
                "--prep", "I,II,III,IV",
                "--out", str(tmp_path / "out"),
            ]
        ) == 0
        assert len(calls) == 6 + 72 * 2
        assert len(list((tmp_path / "out").iterdir())) == 1 + 72 * 2 * 6

    def test_formats_each_plot_column_once(self, tmp_path, monkeypatch):
        # one column per measure vector and per component vector, not two per plot file
        calls = []
        column = ireval.plot_column
        monkeypatch.setattr(ireval, "plot_column",
                            lambda values: calls.append(len(values)) or column(values))
        assert main(
            [
                "correlate",
                "--topics", str(DATA / "topics.jsonl"),
                "--run", str(DATA / "run.txt"),
                "--qrels", str(DATA / "qrels.txt"),
                "--out", str(tmp_path / "out"),
            ]
        ) == 0
        assert calls == [3] * (6 + 72 * 2)


class TestStalePlotFiles:
    """``correlate`` counts the plot files in ``--out`` it does not write, and keeps them."""

    @staticmethod
    def correlate(out, *flags):
        return main(["correlate", "--topics", str(DATA / "topics.jsonl"),
                     "--run", str(DATA / "run.txt"), "--qrels", str(DATA / "qrels.txt"),
                     "--out", str(out), *flags])

    def test_a_narrower_rerun_warns_and_keeps_them(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert self.correlate(out) == 0
        assert capsys.readouterr().err == ""
        before = {path.name: path.read_bytes() for path in out.glob("plot_III_*")}
        assert self.correlate(out, "--operator", "consensus", "--prep", "I") == 0
        assert capsys.readouterr().err.splitlines() == [
            "polyrep: warning: plot files in --out that this run does not write, kept: 792 ("
            + ", ".join(f"plot_III_consensus_background_ideal_answer_belief_{metric}.tsv"
                        for metric in ("bpref", "map", "mrr", "ndcg", "ndcg10"))
            + ", ...)"
        ]
        assert len(list(out.iterdir())) == 1 + 72 * 2 * 6  # 72 rewritten, 792 kept
        assert {path.name: path.read_bytes() for path in out.glob("plot_III_*")} == before

    def test_rerunning_every_command_into_one_directory_is_silent(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        topics, run, qrels = (str(DATA / name) for name in ("topics.jsonl", "run.txt",
                                                             "qrels.txt"))
        for _ in range(2):
            assert main(["prep", "--topics", topics, "--out", out]) == 0
            assert main(["polyrep", "--topics", topics, "--out", out]) == 0
            assert main(["evaluate", "--run", run, "--qrels", qrels, "--out", out]) == 0
            assert self.correlate(out) == 0
        assert capsys.readouterr().err == ""

    def test_other_files_are_not_counted(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.tsv").write_text("kept\n")
        (out / "plot_notes.txt").write_text("kept\n")
        assert self.correlate(out, "--prep", "I") == 0
        assert capsys.readouterr().err == ""


class TestOtherFormatReport:
    """A report left in ``--out`` in the other ``--format`` is counted on stderr and kept."""

    COMMANDS = {
        "prep": (["prep", "--topics", str(DATA / "topics.jsonl")], "termsets"),
        "polyrep": (["polyrep", "--topics", str(DATA / "topics.jsonl")], "polyrep"),
        "evaluate": (["evaluate", "--run", str(DATA / "run.txt"),
                      "--qrels", str(DATA / "qrels.txt")], "metrics"),
        "correlate": (["correlate", "--topics", str(DATA / "topics.jsonl"), "--prep", "I",
                       "--run", str(DATA / "run.txt"), "--qrels", str(DATA / "qrels.txt")],
                      "correlations"),
    }

    @pytest.mark.parametrize("first, then", [("obj", "tsv"), ("tsv", "obj")])
    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_warns_once_and_keeps_it(self, command, first, then, tmp_path, capsys):
        argv, stem = self.COMMANDS[command]
        out = tmp_path / "out"
        extension = {"obj": ".json", "tsv": ".tsv"}
        for _ in range(2):  # the same format again is silent
            assert main([*argv, "--format", first, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        kept = (out / (stem + extension[first])).read_bytes()
        assert main([*argv, "--format", then, "--out", str(out)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "polyrep: warning: report in --out in the other --format, kept: 1 ("
            + stem + extension[first] + ")"
        ]
        assert (out / (stem + extension[first])).read_bytes() == kept
        assert (out / (stem + extension[then])).exists()


class TestUnjudgedRunQueries:
    @pytest.fixture
    def run_with_probe(self, tmp_path):
        run = tmp_path / "run.txt"
        run.write_text((DATA / "run.txt").read_text() + "zz Q0 d9 1 5.0 t\n")
        return run

    def test_evaluate_counts_them_on_stderr(self, run_with_probe, capsys):
        qrels = str(DATA / "qrels.txt")
        assert main(["evaluate", "--run", str(DATA / "run.txt"), "--qrels", qrels]) == 0
        plain = capsys.readouterr()
        assert plain.err == ""
        assert main(["evaluate", "--run", str(run_with_probe), "--qrels", qrels]) == 0
        probed = capsys.readouterr()
        assert probed.out == plain.out
        assert probed.err.splitlines() == [
            "polyrep: warning: run queries without judgments, not scored: 1 (zz)"
        ]

    def test_correlate_counts_them_and_writes_the_same_bytes(
        self, run_with_probe, tmp_path, capsys
    ):
        outputs = {}
        for name, run in (("plain", DATA / "run.txt"), ("probed", run_with_probe)):
            out = tmp_path / name
            assert main(
                [
                    "correlate",
                    "--topics", str(DATA / "topics.jsonl"),
                    "--run", str(run),
                    "--qrels", str(DATA / "qrels.txt"),
                    "--out", str(out),
                ]
            ) == 0
            outputs[name] = {path.name: path.read_bytes() for path in out.iterdir()}
            outputs[name + " stderr"] = capsys.readouterr().err
        assert outputs["probed"] == outputs["plain"]
        assert outputs["plain stderr"] == ""
        assert outputs["probed stderr"].count("\n") == 1
        assert "not scored: 1 (zz)" in outputs["probed stderr"]


class TestAbsentJudgedQueries:
    def test_evaluate_counts_them_and_scores_them_zero(self, tmp_path, capsys):
        qrels = tmp_path / "qrels.txt"
        absent = [f"t{n}" for n in range(4, 10)]
        qrels.write_text(
            (DATA / "qrels.txt").read_text() + "".join(f"{qid} 0 d1 1\n" for qid in absent)
        )
        assert main(["evaluate", "--run", str(DATA / "run.txt"), "--qrels", str(qrels)]) == 0
        out = capsys.readouterr()
        assert out.err.splitlines() == [
            "polyrep: warning: judged queries absent from the run, scored zero: "
            "6 (t4, t5, t6, t7, t8, ...)"
        ]
        rows = [line.split("\t") for line in out.out.splitlines()]
        assert {qid for qid, _, _ in rows} == {"t1", "t2", "t3", *absent, "all"}
        assert all(value == "0.0000" for qid, _, value in rows if qid in absent)


class TestJudgedQueriesWithoutRelevant:
    WARNING = ("polyrep: warning: judged queries without a relevant document, "
               "scored zero: 1 (q2)")

    @pytest.mark.parametrize("command", ["evaluate", "correlate"])
    def test_are_counted_and_the_report_is_unchanged(self, command, tmp_path, capsys):
        topics, run, qrels = write_concordant_fixture(tmp_path)
        reports = {}
        # q2 retrieves no relevant document either way, so it scores zero in both reports
        for name, judgments in (("plain", "q2 0 e1 0\nq2 0 e2 0\nq2 0 e9 1\n"),
                                ("warned", "q2 0 e1 0\nq2 0 e2 0\n")):
            qrels.write_text("q1 0 d1 1\nq1 0 d2 1\n" + judgments)
            out = tmp_path / name
            argv = [command, "--run", str(run), "--qrels", str(qrels), "--out", str(out)]
            if command == "correlate":
                argv += ["--topics", str(topics)]
            assert main(argv) == 0
            reports[name] = {path.name: path.read_bytes() for path in out.iterdir()}
            reports[name + " stderr"] = capsys.readouterr().err
        assert reports["warned"] == reports["plain"]
        assert reports["plain stderr"] == ""
        assert reports["warned stderr"].splitlines() == [self.WARNING]

    def test_each_query_is_decoded_once(self, tmp_path, capsys, monkeypatch):
        # one lookup per judged query in the scoring; the warning reads the packed grades
        judgments, calls = ireval._judgments, []
        monkeypatch.setattr(ireval, "_judgments",
                            lambda packed: calls.append(packed) or judgments(packed))
        _, run, qrels = write_concordant_fixture(tmp_path)
        qrels.write_text("q1 0 d1 1\nq1 0 d2 1\nq2 0 e1 0\nq2 0 e2 0\n")
        argv = ["evaluate", "--run", str(run), "--qrels", str(qrels), "--out", str(tmp_path / "o")]
        assert main(argv) == 0
        assert capsys.readouterr().err.splitlines() == [self.WARNING]
        assert len(calls) == 2


class TestCutDocuments:
    @pytest.fixture
    def deep_run(self, tmp_path):
        # 1,097 unjudged documents scored below t1's three: 1,100 in all, 100 cut
        run = tmp_path / "run.txt"
        run.write_text((DATA / "run.txt").read_text() + "".join(
            f"t1 Q0 x{n:04d} {n} {-n}.0 t\n" for n in range(1097)
        ))
        return run

    def test_evaluate_counts_them_and_writes_the_same_bytes(self, deep_run, capsys):
        qrels = str(DATA / "qrels.txt")
        assert main(["evaluate", "--run", str(DATA / "run.txt"), "--qrels", qrels]) == 0
        plain = capsys.readouterr()
        assert main(["evaluate", "--run", str(deep_run), "--qrels", qrels]) == 0
        deep = capsys.readouterr()
        assert deep.out == plain.out
        assert deep.err.splitlines() == [
            "polyrep: warning: documents past depth 1000, not scored: 100 (t1)"
        ]

    def test_correlate_counts_them(self, deep_run, tmp_path, capsys):
        assert main(
            [
                "correlate",
                "--topics", str(DATA / "topics.jsonl"),
                "--run", str(deep_run),
                "--qrels", str(DATA / "qrels.txt"),
                "--out", str(tmp_path / "out"),
            ]
        ) == 0
        assert capsys.readouterr().err.splitlines() == [
            "polyrep: warning: documents past depth 1000, not scored: 100 (t1)"
        ]


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(
            f"topics={DATA / 'topics.jsonl'}\n"
            "prep=II\n"
            "operator=consensus\n"
            "# comment lines are fine\n"
        )
        assert main(["polyrep", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert len(lines) == 6 and all(line.startswith("II\t") for line in lines)

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text(f"topics={DATA / 'topics.jsonl'}\nprep=II\n")
        assert main(["polyrep", "--config", str(config), "--prep", "IV"]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines and all(line.startswith("IV\t") for line in lines)

    def test_malformed_config_rejected(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("no equals sign here\n")
        assert main(["polyrep", "--config", str(config)]) == 1
        assert "key=value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, line, named",
        [
            ("polyrep", "alpah=0.9", "alpah"),  # unknown key
            ("polyrep", "format=json", "json"),  # value outside the flag's choices
            ("polyrep", "operator=foo", "foo"),
            ("evaluate", "topics={topics}", "topics"),  # key of another subcommand
            ("polyrep", "top={topics}", "--top="),  # keys must name an option exactly
            ("polyrep", "config=other.conf", "config line 2"),  # config files do not nest
            ("prep", "top={topics}", "--top="),  # named although --topics is missing too
            # one key twice, however it is spelt: named with both lines
            ("polyrep", "positive_rule=union\npositive-rule=intersection",
             "config line 3: --positive-rule is already given on line 2"),
        ],
    )
    def test_bad_key_or_value_is_usage_error(self, tmp_path, capsys, command, line, named):
        topics = DATA / "topics.jsonl"
        valid = {
            "polyrep": [f"topics={topics}"],
            "evaluate": [f"run={DATA / 'run.txt'}", f"qrels={DATA / 'qrels.txt'}"],
        }
        config = tmp_path / "run.conf"
        config.write_text("\n".join(valid.get(command, []) + [line.format(topics=topics)]) + "\n")
        with pytest.raises(SystemExit) as exited:
            main([command, "--config", str(config)])
        assert exited.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert named in out.err

    @pytest.mark.parametrize(
        "command, flags, named",
        [
            ("polyrep", ["--alpha", "0.1", "--alpha", "0.9"], "--alpha"),
            ("polyrep", ["--alpha=0.1", "--alpha=0.9"], "--alpha"),
            ("polyrep", ["--alpha", "0.1", "--alpha=0.9"], "--alpha"),
            ("polyrep", ["--config", "{a}", "--config", "{b}"], "--config"),
            ("evaluate", ["--format", "tsv", "--format", "obj"], "--format"),
        ],
        ids=["alpha", "alpha=", "alpha-mixed", "config", "format"],
    )
    def test_flag_given_twice_is_usage_error(self, tmp_path, capsys, command, flags, named):
        (tmp_path / "a.conf").write_text("prep=II\n")
        (tmp_path / "b.conf").write_text("prep=IV\n")
        inputs = {
            "polyrep": ["--topics", str(DATA / "topics.jsonl")],
            "evaluate": ["--run", str(DATA / "run.txt"), "--qrels", str(DATA / "qrels.txt")],
        }
        flags = [flag.format(a=tmp_path / "a.conf", b=tmp_path / "b.conf") for flag in flags]
        with pytest.raises(SystemExit) as exited:
            main([command, *inputs[command], *flags])
        assert exited.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert f"{named} is given more than once" in out.err

    def test_repeat_check_stops_at_double_dash(self, capsys):
        argv = ["polyrep", "--topics", str(DATA / "topics.jsonl"), "--alpha", "0.5",
                "--", "--alpha", "0.1"]
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: -- --alpha 0.1" in err
        assert "more than once" not in err

    @pytest.mark.parametrize("after", [["--topics", str(DATA / "topics.jsonl")],
                                       ["--", "--topics", str(DATA / "topics.jsonl")]],
                             ids=["option", "double-dash"])
    def test_an_option_after_config_is_its_missing_value(self, after, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["polyrep", "--config", *after])
        assert exited.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "argument --config: expected one argument" in out.err

    @pytest.mark.parametrize("flags, stored", [
        (["--config=a.conf"], "a.conf"),
        (["--config", "a.conf"], "a.conf"),
        (["--config", "-"], "-"),
        (["--config", "-5"], "-5"),
        (["--config", "- a"], "- a"),  # argparse reads an argument holding a space as a value
        (["--config", "--prep", "II"], None),
        (["--config", "--", "a.conf"], None),
        (["--prep", "II", "--config"], None),
    ], ids=["equals", "separate", "dash", "negative", "space", "option", "double-dash", "last"])
    def test_config_path_is_the_value_argparse_stores(self, flags, stored, monkeypatch, capsys):
        read = []

        @contextlib.contextmanager
        def recording(source, error):
            read.append(source)
            yield []

        monkeypatch.setattr(cli, "reading", recording)
        argv = ["--topics", str(DATA / "topics.jsonl"), *flags]
        parser, commands = build_parser()
        assert cli._config_args(commands["polyrep"], argv) == []
        try:
            config = parser.parse_args(["polyrep", *argv]).config
        except SystemExit:
            config = None
        assert config == stored
        assert read == ([] if config is None else [config])

    def test_missing_config_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.conf"
        assert main(["polyrep", "--config", str(missing)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("polyrep: error: cannot read config file: ")
        assert str(missing) in out.err

    def test_value_starting_with_dash_is_a_value(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "run.conf"
        config.write_text(f"topics={DATA / 'topics.jsonl'}\nout=-reports\n")
        assert main(["polyrep", "--config", str(config)]) == 0
        written = (tmp_path / "-reports" / "polyrep.tsv").read_text()
        assert written == (DATA / "polyrep_golden.tsv").read_text()

    def test_underscore_and_dash_keys_agree(self, tmp_path, capsys):
        outputs = []
        for key in ("positive_rule", "positive-rule"):
            config = tmp_path / "run.conf"
            config.write_text(f"topics={DATA / 'topics.jsonl'}\nprep=II\n{key}=intersection\n")
            assert main(["polyrep", "--config", str(config)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert main(["polyrep", "--topics", str(DATA / "topics.jsonl"), "--prep", "II"]) == 0
        assert capsys.readouterr().out != outputs[0]


class TestEmptyOut:
    """An empty ``--out`` is a usage error, not the working directory."""

    @pytest.mark.parametrize("command", ["prep", "polyrep", "evaluate", "correlate"])
    @pytest.mark.parametrize("given", ["flag", "config"])
    def test_is_rejected_and_nothing_is_written(self, tmp_path, monkeypatch, capsys, command,
                                                given):
        monkeypatch.chdir(tmp_path)
        inputs = {
            "prep": ["--topics", str(DATA / "topics.jsonl")],
            "polyrep": ["--topics", str(DATA / "topics.jsonl")],
            "evaluate": ["--run", str(DATA / "run.txt"), "--qrels", str(DATA / "qrels.txt")],
        }
        inputs["correlate"] = inputs["polyrep"] + inputs["evaluate"]
        if given == "flag":
            out = ["--out", ""]
        else:
            (tmp_path / "run.conf").write_text("out=\n")
            out = ["--config", "run.conf"]
        with pytest.raises(SystemExit) as exited:
            main([command, *inputs[command], *out])
        assert exited.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: argument --out: expected a directory, got an empty string" in captured.err
        assert sorted(path.name for path in tmp_path.iterdir()) == (
            [] if given == "flag" else ["run.conf"])


class TestUndecodableInput:
    @pytest.mark.parametrize("role", ["run", "qrels", "topics", "config"])
    def test_names_the_line_and_the_byte(self, tmp_path, capsys, role):
        files = {
            "run": tmp_path / "run.txt",
            "qrels": tmp_path / "qrels.txt",
            "topics": tmp_path / "topics.jsonl",
            "config": tmp_path / "run.conf",
        }
        for name in ("run", "qrels", "topics"):
            source = DATA / files[name].name
            files[name].write_bytes(source.read_bytes())
        files["config"].write_bytes(b"# options\r\nprep=II\n")
        # a new third line holds byte 0xE9; the config's first line ends in \r\n
        lines = files[role].read_bytes().splitlines(keepends=True)
        lines[2:2] = [b"caf\xe9\n"]
        files[role].write_bytes(b"".join(lines))
        argv = ["correlate", "--topics", str(files["topics"]), "--run", str(files["run"]),
                "--qrels", str(files["qrels"]), "--config", str(files["config"]),
                "--out", str(tmp_path / "out")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        prefix = "config " if role == "config" else ""
        where = f"{prefix}{files[role]}: line 3"
        assert err == f"polyrep: error: {where}: byte 0xe9 is not valid UTF-8\n"
        assert not (tmp_path / "out").exists()


class TestByteOrderMark:
    @staticmethod
    def outcome(argv, capsys):
        try:
            code = main(argv)
        except SystemExit as exited:
            code = exited.code
        out = capsys.readouterr()
        return code, out.out, out.err

    @pytest.mark.parametrize("role", ["run", "qrels", "topics", "config"])
    def test_a_leading_mark_is_dropped(self, tmp_path, capsys, role):
        outputs = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            files = {
                "run": tmp_path / name / "run.txt",
                "qrels": tmp_path / name / "qrels.txt",
                "topics": tmp_path / name / "topics.jsonl",
                "config": tmp_path / name / "run.conf",
            }
            files["run"].parent.mkdir()
            for key in ("run", "qrels", "topics"):
                files[key].write_bytes(mark * (key == role) + (DATA / files[key].name).read_bytes())
            config = f"topics={files['topics']}\nprep=II\n".encode()
            files["config"].write_bytes(mark * (role == "config") + config)
            if role in ("run", "qrels"):
                argv = ["evaluate", "--run", str(files["run"]), "--qrels", str(files["qrels"])]
            elif role == "topics":
                argv = ["polyrep", "--topics", str(files["topics"])]
            else:
                argv = ["polyrep", "--config", str(files["config"])]
            outputs.append(self.outcome(argv, capsys))
        assert outputs[0][0] == 0
        assert outputs[1] == outputs[0]


class TestConfigLineEnds:
    def test_only_newline_and_carriage_return_end_a_line(self, tmp_path, capsys):
        config = tmp_path / "run.conf"
        # \v ends a line for str.splitlines, not for a file read in text mode
        config.write_text(f"topics={DATA / 'topics.jsonl'}\nprep=II\x0bformat=obj\n")
        assert main(["polyrep", "--config", str(config)]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "polyrep: error: unknown preprocessing level 'II\\x0bformat=obj'\n"


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["tsv", "obj"])
    def test_polyrep_is_byte_stable(self, fmt, capsys):
        argv = ["polyrep", "--topics", str(DATA / "topics.jsonl"), "--format", fmt]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "polyrep.cli"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2  # argparse usage error: no subcommand
    assert proc.stdout == ""


@pytest.mark.parametrize("argv, error", [
    ([], "the following arguments are required: command"),
    (["bogus", "--topics", "x"], "argument command: invalid choice: 'bogus'"),
], ids=["none", "unknown"])
def test_missing_or_unknown_subcommand_is_a_usage_error(argv, error, capsys):
    with pytest.raises(SystemExit) as exited:
        main(argv)
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: polyrep ") and f"polyrep: error: {error}" in out.err


@pytest.mark.parametrize("command, abbreviated", [
    ("prep", ["--form", "obj"]),
    ("polyrep", ["--alp", "0.3"]),
    ("evaluate", ["--form", "obj"]),
    ("correlate", ["--oper", "both"]),
], ids=["prep", "polyrep", "evaluate", "correlate"])
def test_abbreviated_flag_is_a_usage_error(tmp_path, capsys, command, abbreviated):
    """Flags must be given in full, as config keys must, and a refused command writes nothing."""
    topics, run, qrels = (str(DATA / name) for name in ("topics.jsonl", "run.txt", "qrels.txt"))
    inputs = {
        "prep": ["--topics", topics],
        "polyrep": ["--topics", topics],
        "evaluate": ["--run", run, "--qrels", qrels],
        "correlate": ["--topics", topics, "--run", run, "--qrels", qrels,
                      "--out", str(tmp_path / "out")],
    }
    with pytest.raises(SystemExit) as exited:
        main([command, *inputs[command], *abbreviated])
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    # reported by the subcommand's parser, so its usage lists the options it takes
    assert out.err.startswith(f"usage: polyrep {command} [-h] ")
    assert out.err.endswith(
        f"polyrep {command}: error: unrecognized arguments: {' '.join(abbreviated)}\n")
    assert not (tmp_path / "out").exists()


def test_unknown_flag_before_the_subcommand_is_a_top_level_usage_error(capsys):
    with pytest.raises(SystemExit) as exited:
        main(["--form", "polyrep", "--topics", str(DATA / "topics.jsonl")])
    assert exited.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == ("usage: polyrep [-h] {prep,polyrep,evaluate,correlate} ...\n"
                       "polyrep: error: unrecognized arguments: --form\n")
