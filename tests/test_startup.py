"""Each command loads only the modules it runs.

``prep`` and ``polyrep`` never read runs or judgments, so neither importing
the CLI nor running those two commands may load ``polyrep.ireval``; only
``evaluate`` and ``correlate`` do.  Both decimal readers (run scores and
``--alpha``) share ``polyrep.textprep._decimal``, and their messages are
pinned here word for word through the command line.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
TOPICS = str(DATA / "topics.jsonl")
RUN, QRELS = str(DATA / "run.txt"), str(DATA / "qrels.txt")
ENV = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}

# Prints, after each step, whether polyrep.ireval has been loaded.
_CHILD = """
import contextlib, io, sys
loaded = lambda: "polyrep.ireval" in sys.modules
import polyrep.cli
print("import", loaded())
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        status = polyrep.cli.main(argv)
    print(argv[0], status, loaded())
"""


def _child(code: str) -> list[str]:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, check=True, timeout=120)
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "polyrep.cli", *argv], capture_output=True,
                          text=True, env=ENV, timeout=120)


def test_prep_and_polyrep_never_load_ireval():
    commands = [["prep", "--topics", TOPICS], ["polyrep", "--topics", TOPICS],
                ["evaluate", "--run", RUN, "--qrels", QRELS]]
    assert _child(_CHILD.format(commands=commands)) == [
        "import False",
        "prep 0 False",
        "polyrep 0 False",
        "evaluate 0 True",  # the check does see the module once a command needs it
    ]


def test_alpha_message_is_pinned():
    proc = _cli("polyrep", "--topics", TOPICS, "--alpha", "0_5")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "polyrep: error: bad alpha '0_5'\n"


def test_run_score_message_is_pinned(tmp_path):
    run = tmp_path / "run.txt"
    run.write_text("t1 Q0 d1 1 2.0 t\nt1 Q0 d2 2 1_0 t\n", encoding="utf-8")
    proc = _cli("evaluate", "--run", str(run), "--qrels", QRELS)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "polyrep: error: line 2: bad score '1_0'\n"
