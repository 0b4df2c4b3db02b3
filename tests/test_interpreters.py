"""The fixture gives the same bytes under every other installed CPython >= 3.10.

``pyproject.toml`` supports Python 3.10 and later, but the rest of the suite
runs under one interpreter.  This module looks for other CPython
interpreters in two places only, ``~/.pyenv/versions/*/bin/python3`` and
``python3.1x`` on ``PATH``, keeps one per minor version other than the
running one, and runs the four commands on the bundled fixture under each
with ``PYTHONPATH=src`` (no pytest needed there).  The outputs are checked
against the TSV goldens and ``data/output_digests.json``.  It skips when no
such interpreter is found.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

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
