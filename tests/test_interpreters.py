"""The fixture gives the same bytes under every other installed CPython >= 3.10.

``pyproject.toml`` supports Python 3.10 and later, but the rest of the suite
runs under one interpreter.  This module looks for other CPython
interpreters in two places only, ``~/.pyenv/versions/*/bin/python3`` and
``python3.1x`` on ``PATH``, keeps one per minor version other than the
running one, and runs the four commands on the bundled fixture under each
with ``PYTHONPATH=src`` (no pytest needed there).  The outputs are checked
against the TSV goldens and ``data/output_digests.json``.  ``evaluate`` also
runs with ``-W error`` on a generated run large enough to be read in two
processes, and writes the same ``metrics.tsv`` as under the running
interpreter.  It skips when no such interpreter is found.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from polyrep.ireval import _SPLIT_BYTES
from test_output_digests import (
    CORRELATE,
    STDOUT_REPORTS,
    TOPICS,
    _correlate_dir_digests,
    _expected,
    _sha256,
)

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
SRC = ROOT / "src"

# Runs each named argv through the CLI's main and prints, as JSON, its exit
# status, stdout and stderr, and the path the package was imported from.
_CHILD = """
import contextlib, io, json, sys
import polyrep.cli
outputs = {"module": polyrep.cli.__file__}
for name, argv in json.loads(sys.argv[1]).items():
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = polyrep.cli.main(argv)
    outputs[name] = [status, out.getvalue(), err.getvalue()]
json.dump(outputs, sys.stdout)
"""


def _other_interpreters() -> list[tuple[str, str]]:
    """(version, path) of one CPython >= 3.10 per minor version but the running one's."""
    candidates = [str(path) for path in sorted(Path.home().glob(".pyenv/versions/*/bin/python3"))]
    candidates += filter(None, (shutil.which(f"python3.{minor}") for minor in range(10, 20)))
    found, minors = [], {sys.version_info[:2]}
    for path in candidates:
        try:
            proc = subprocess.run(
                [path, "-c", "import sys; print(sys.implementation.name, *sys.version_info[:3])"],
                capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue  # not runnable here, e.g. a pyenv shim for a version not selected
        fields = proc.stdout.split()
        if proc.returncode or len(fields) != 4 or fields[0] != "cpython":
            continue
        version = tuple(map(int, fields[1:]))
        if version[:2] >= (3, 10) and version[:2] not in minors:
            minors.add(version[:2])
            found.append((".".join(fields[1:]), path))
    return found


_INTERPRETERS = [pytest.param(path, id=version) for version, path in _other_interpreters()] or [
    pytest.param(None, id="none", marks=pytest.mark.skip(
        reason="no other CPython >= 3.10 in ~/.pyenv/versions or as python3.1x on PATH"))]


@pytest.mark.parametrize("python", _INTERPRETERS)
def test_fixture_outputs_match_under_other_interpreter(python, tmp_path):
    commands = {
        **STDOUT_REPORTS,
        "prep_tsv": ["prep", "--topics", TOPICS],
        "polyrep_tsv": ["polyrep", "--topics", TOPICS],
        "correlate": CORRELATE + ["--out", str(tmp_path / "tsv")],
        "correlate_obj": CORRELATE + ["--format", "obj", "--out", str(tmp_path / "obj")],
    }
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([python, "-c", _CHILD, json.dumps(commands)], capture_output=True,
                          text=True, env=env, timeout=300, check=True)
    outputs = json.loads(proc.stdout)
    assert Path(outputs.pop("module")).parent == SRC / "polyrep"
    assert {name: (status, err) for name, (status, _, err) in outputs.items()} == {
        name: (0, "") for name in commands}
    assert outputs["prep_tsv"][1] == (DATA / "termsets_golden.tsv").read_text(encoding="utf-8")
    assert outputs["polyrep_tsv"][1] == (DATA / "polyrep_golden.tsv").read_text(
        encoding="utf-8")
    for name in STDOUT_REPORTS:
        assert _sha256(outputs[name][1].encode("utf-8")) == _expected(name), name
    assert _correlate_dir_digests(tmp_path / "tsv") == _expected("correlate")
    assert _sha256((tmp_path / "obj" / "correlations.json").read_bytes()) == _expected(
        "correlate_obj_json")


# Counts the forks of one CLI command, then prints its exit status and that count.
_COUNTING_FORKS = """
import os, sys
fork, forks = os.fork, []
def counting_fork():
    forks.append(1)
    return fork()
os.fork = counting_fork
from polyrep.cli import main
status = main(sys.argv[1:])
print(status, len(forks))
"""


@pytest.fixture(scope="module")
def large_run(tmp_path_factory):
    """A run above ``ireval._SPLIT_BYTES`` (90 queries of 1,100 documents) and its judgments."""
    directory = tmp_path_factory.mktemp("large")
    run, qrels = directory / "run.txt", directory / "qrels.txt"
    scores = ((q, d, (q * 7919 + d * 104729) % 10007 / 1000) for q in range(90)
              for d in range(1100))
    run.write_text("".join(f"q{q:02d} Q0 D{q:02d}{d:05d} 0 {score:.3f} t\n"
                           for q, d, score in scores), encoding="utf-8")
    qrels.write_text("".join(f"q{q:02d} 0 D{q:02d}{d:05d} {d % 4}\n"
                             for q in range(90) for d in range(0, 900, 3)), encoding="utf-8")
    assert run.stat().st_size >= _SPLIT_BYTES
    return run, qrels


def _evaluate(python, run, qrels, out):
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([python, "-W", "error", "-c", _COUNTING_FORKS, "evaluate", "--run",
                           str(run), "--qrels", str(qrels), "--out", str(out)],
                          capture_output=True, text=True, env=env, timeout=300)
    return proc.returncode, proc.stdout, proc.stderr, (out / "metrics.tsv").read_bytes()


@pytest.mark.parametrize("python", _INTERPRETERS)
def test_two_process_read_matches_under_other_interpreter(python, large_run, tmp_path):
    expected = _evaluate(sys.executable, *large_run, tmp_path / "here")
    # the run is read in two processes where two CPUs are usable; the judgments are small
    forks = int(hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1)
    assert expected[:2] == (0, f"0 {forks}\n")
    assert _evaluate(python, *large_run, tmp_path / "there") == expected
