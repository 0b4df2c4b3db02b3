"""A large run or judgments file is read in two processes, with the one-process result.

``ireval._SPLIT_BYTES`` is lowered here so that small files split.  A split
is counted by wrapping ``os.fork``, and a fallback to the one-process reader
by wrapping ``ireval.reading``, which only that reader opens.  A kept split
forks once and never opens the file through ``reading``; a fallback forks
once and then reads the whole file through it.
"""

import os
import threading
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyrep import ireval
from polyrep.ireval import QrelsParseError, RunParseError, parse_qrels, parse_run

READERS = {
    "run": (parse_run, lambda qid, docid, value: f"{qid} Q0 {docid} 0 {value} t",
            st.sampled_from(["1.0", "2", "-3.25", "1e2", "0", "-0", ".5"])),
    "qrels": (parse_qrels, lambda qid, docid, value: f"{qid} 0 {docid} {value}",
              st.sampled_from(["0", "1", "2", "3"])),
}
ENDINGS = ("\n", "\r\n")


class Calls:
    """Counts the calls of ``os.fork`` and of ``ireval.reading``, passing each on."""

    def __init__(self, monkeypatch):
        self.forks = self.readings = 0
        fork, reading = os.fork, ireval.reading

        def counting_fork():
            self.forks += 1
            return fork()

        def counting_reading(*args):
            self.readings += 1
            return reading(*args)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(ireval, "reading", counting_reading)


def one_process(parse, path):
    """What ``parse`` gives for ``path`` read in one process: the result, or the error."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ireval, "_SPLIT_BYTES", float("inf"))
        try:
            return parse(path)
        except ValueError as exc:
            return exc


def split_read(parse, path):
    """``parse`` of ``path`` with every file large enough to split, and its :class:`Calls`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ireval, "_SPLIT_BYTES", 1)
        calls = Calls(patch)
        try:
            return parse(path), calls
        except ValueError as exc:
            return exc, calls


def assert_same(got, expected):
    if isinstance(expected, ValueError):
        assert (type(got), str(got)) == (type(expected), str(expected))
    else:
        assert got == expected
        assert repr(got) == repr(expected)


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@st.composite
def grouped(draw, kind, min_queries=2):
    """Lines of a file whose queries each come in one block, among blank lines."""
    _, line, values = READERS[kind]
    qids = draw(st.lists(st.sampled_from([f"q{n}" for n in range(1, 9)]), unique=True,
                         min_size=min_queries, max_size=6))
    lines = []
    for qid in qids:
        for docid in draw(st.lists(st.sampled_from("abcdefgh"), unique=True, min_size=1)):
            lines.append(line(qid, docid, draw(values)))
            if draw(st.integers(0, 9)) == 0:
                lines.append(draw(st.sampled_from(["", " ", "\t"])))
    return lines


def write(path, lines, ending="\n", bom=False):
    """``lines`` as UTF-8, but each lone surrogate U+DCxx as the one byte 0xxx."""
    text = ("\ufeff" if bom else "") + "".join(line + ending for line in lines)
    path.write_bytes(text.encode("utf-8", "surrogateescape"))
    return path


@pytest.fixture(scope="module")
def input_file(tmp_path_factory):
    return tmp_path_factory.mktemp("split") / "input.txt"


class TestSplitEqualsOneProcess:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(READERS)).flatmap(
        lambda kind: st.tuples(st.just(kind), grouped(kind))),
        st.sampled_from(ENDINGS), st.booleans())
    def test_grouped_file_splits_and_keeps_the_result(self, input_file, case, ending, bom):
        kind, lines = case
        parse = READERS[kind][0]
        path = write(input_file, lines, ending, bom)
        expected = one_process(parse, path)
        got, calls = split_read(parse, path)
        assert_same(got, expected)
        # a kept split, or one process where no other query starts past the middle
        assert (calls.forks, calls.readings) in ((1, 0), (0, 1))
        assert_no_child()

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(sorted(READERS)).flatmap(
        lambda kind: st.tuples(st.just(kind), grouped(kind))), st.randoms(use_true_random=False))
    def test_interleaved_file_falls_back_to_one_process(self, input_file, case, rng):
        kind, lines = case
        parse = READERS[kind][0]
        rng.shuffle(lines)
        path = write(input_file, lines)
        expected = one_process(parse, path)
        got, calls = split_read(parse, path)
        assert_same(got, expected)
        assert_no_child()

    def test_a_query_resuming_past_the_boundary_falls_back(self, tmp_path):
        line = READERS["run"][1]
        lines = [line("q1", f"d{i}", i) for i in range(9)] + [line("q2", "d0", 1),
                                                              line("q1", "d9", 9)]
        path = write(tmp_path / "run.txt", lines)
        got, calls = split_read(parse_run, path)
        assert_same(got, one_process(parse_run, path))
        assert (calls.forks, calls.readings) == (1, 1)
        assert_no_child()


def test_a_run_ordered_by_rank_is_read_in_one_process(tmp_path):
    # the query past the middle also starts the file, so no fork is made
    line = READERS["run"][1]
    lines = [line(f"q{n}", f"d{rank}", -rank) for rank in range(20) for n in range(1, 5)]
    path = write(tmp_path / "run.txt", lines)
    got, calls = split_read(parse_run, path)
    assert_same(got, one_process(parse_run, path))
    assert (calls.forks, calls.readings) == (0, 1)


# Each error a reader names, as a last line for a file of four queries: so the child reads it.
ERRORS = {
    "run": ["q4 Q0 x 0 1.0", "q4 Q0 x 0 1.0 t extra", "q4 Q0 x 0 1_0 t", "q4 Q0 x 0 nan t",
            "q4 Q0 x 0 inf t", "q4 Q0 d1 0 2.0 t", "all Q0 x 0 1.0 t", "q4 Q0 \udcff 0 1.0 t"],
    "qrels": ["q4 0 x", "q4 0 x 1 extra", "q4 0 x 01", "q4 0 x three", "q4 0 d1 2",
              "all 0 x 1", "q4 0 \udcff 1"],
}


def four_queries(kind, last_line):
    _, line, _ = READERS[kind]
    lines = [line(f"q{n}", f"d{i}", 1) for n in range(1, 4) for i in range(20)]
    return lines + [line("q4", "d1", 1), last_line]


@pytest.mark.parametrize("kind, last_line", [
    (kind, line) for kind, lines in sorted(ERRORS.items()) for line in lines])
def test_an_error_in_the_second_part_is_the_one_process_error(tmp_path, capfd, kind, last_line):
    parse = READERS[kind][0]
    path = write(tmp_path / "input.txt", four_queries(kind, last_line))
    expected = one_process(parse, path)
    assert isinstance(expected, (RunParseError, QrelsParseError))
    got, calls = split_read(parse, path)
    assert_same(got, expected)
    assert (calls.forks, calls.readings) == (1, 1)
    assert capfd.readouterr() == ("", "")  # the child wrote nothing
    assert_no_child()


def four_blocks():
    """The lines of a run of four 20-document queries, each in one block."""
    line = READERS["run"][1]
    return [line(f"q{n}", f"d{i}", i) for n in range(1, 5) for i in range(20)]


@pytest.fixture
def large_run(tmp_path):
    return write(tmp_path / "run.txt", four_blocks())


class TestProcessHygiene:
    def test_kept_split_leaves_no_child(self, large_run):
        got, calls = split_read(parse_run, large_run)
        assert got == one_process(parse_run, large_run)
        assert (calls.forks, calls.readings) == (1, 0)
        assert_no_child()

    def test_error_in_the_first_part_leaves_no_child(self, tmp_path):
        lines = four_blocks()
        lines[1] = "q1 Q0 d1 0 x t"
        path = write(tmp_path / "bad.txt", lines)
        got, calls = split_read(parse_run, path)
        assert str(got) == "line 2: bad score 'x'"
        assert (calls.forks, calls.readings) == (1, 1)
        assert_no_child()

    def test_unflushed_output_is_written_once(self, large_run, capfd):
        with open(os.dup(1), "w", encoding="utf-8") as out:
            out.write("written before the fork\n")  # still in this process's buffer
            _, calls = split_read(parse_run, large_run)
        assert calls.forks == 1
        assert capfd.readouterr() == ("written before the fork\n", "")


class TestOneProcess:
    """Where a split cannot pay or cannot be made safely, nothing is forked."""

    @pytest.fixture
    def no_fork(self, monkeypatch):
        calls = Calls(monkeypatch)

        def fork():
            calls.forks += 1
            raise AssertionError("forked")

        monkeypatch.setattr(os, "fork", fork)
        return calls

    def test_lines_are_read_in_one_process(self, monkeypatch, no_fork, large_run):
        monkeypatch.setattr(ireval, "_SPLIT_BYTES", 1)
        lines = large_run.read_text(encoding="utf-8").splitlines()
        assert parse_run(lines) == one_process(parse_run, large_run)
        assert no_fork.forks == 0

    def test_file_below_the_constant_is_read_in_one_process(self, monkeypatch, no_fork,
                                                              large_run):
        monkeypatch.setattr(ireval, "_SPLIT_BYTES", large_run.stat().st_size + 1)
        parse_run(large_run)
        assert (no_fork.forks, no_fork.readings) == (0, 1)

    def test_one_usable_cpu_reads_in_one_process(self, monkeypatch, no_fork, large_run):
        monkeypatch.setattr(ireval, "_SPLIT_BYTES", 1)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        parse_run(large_run)
        assert (no_fork.forks, no_fork.readings) == (0, 1)

    def test_no_fork_while_another_thread_runs(self, monkeypatch, large_run):
        # CPython 3.12+ warns when a process with other threads forks
        monkeypatch.setattr(ireval, "_SPLIT_BYTES", 1)
        calls = Calls(monkeypatch)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                got = parse_run(large_run)
        finally:
            stop.set()
            thread.join()
        assert (calls.forks, calls.readings, caught) == (0, 1, [])
        assert got == one_process(parse_run, large_run)
