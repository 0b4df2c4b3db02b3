"""The names the benchmark's tracer probes still exist and are reached.

``perfbench/tracer.py`` times each layer by rebinding package functions by
name.  A probed function that is renamed or removed is reported as absent,
and a span its callers must enter but never do as unreached; either one
leaves a per-layer metric without a value, although the command still exits
0.  These tests trace the fixture through both matrix commands and through
``evaluate``, and require neither list to hold anything, the stem and
tokenize counts to follow the dataflow, and the line and query counts to be
those of the fixture's files.  They guard that surface until the package emits its own
stage spans and the tracer only reads them (ROADMAP item 2).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TOPICS = ["--topics", str(DATA / "topics.jsonl")]
RUN = ["--run", str(DATA / "run.txt"), "--qrels", str(DATA / "qrels.txt")]


@pytest.mark.parametrize("command", [
    ["polyrep", *TOPICS],
    ["correlate", *TOPICS, *RUN, "--format", "obj", "--out", "{out}"],
    ["evaluate", *RUN],
], ids=["polyrep", "correlate", "evaluate"])
def test_traced_command_leaves_no_probe_absent_or_unreached(command, tmp_path):
    report = tmp_path / "trace.json"
    argv = [arg.format(out=tmp_path / "out") for arg in command]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), "--report", str(report),
         "--", *argv],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    trace = json.loads(report.read_text(encoding="utf-8"))
    assert trace["absent"] == []
    assert trace["unreached"] == []
    if command[0] == "evaluate":
        # every line of both files is read, and every judged query scored
        run, qrels = ((DATA / name).read_text(encoding="utf-8").splitlines()
                      for name in ("run.txt", "qrels.txt"))
        assert trace["counts"]["ireval.run_lines"] == len(run)
        assert trace["counts"]["ireval.qrels_lines"] == len(qrels)
        assert trace["counts"]["ireval.queries"] == len({line.split()[0] for line in qrels})
        assert trace["spans"]["ireval.evaluate_run"]["calls"] == 1
        return
    # Each distinct word is stemmed once, and the five texts of each of the
    # three topics are tokenized once per level, through the probed tokenize.
    assert trace["distinct"]["porter.stem"] == trace["spans"]["porter.stem"]["calls"]
    assert trace["spans"]["textprep.tokenize"]["calls"] == 5 * 3 * 4
    if command[0] == "correlate":
        # one plot file per cell, written through write_plot_data, plus the report
        assert trace["spans"]["ireval.write_plot"]["calls"] == 72 * 2 * 6
        assert trace["counts"]["cli.files_written"] == 72 * 2 * 6 + 1
