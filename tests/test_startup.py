"""Each command loads only the modules it runs.

``prep`` and ``polyrep`` never read runs or judgments, so neither importing
the CLI nor running those two commands may load ``polyrep.ireval``; only
``evaluate`` and ``correlate`` do.  Both decimal readers (run scores and
``--alpha``) share ``polyrep.textprep._decimal``, and their messages are
pinned here word for word through the command line.  The package reads its
files through ``os`` and ``open`` alone, so on an interpreter started with
``-S`` no command loads a resource loader, ``pathlib`` or what they import,
and none opens a file without naming its encoding.
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

# Prints which of ``imported`` are loaded after the import, and which of
# ``ran`` after each command.
_CHILD = """
import contextlib, io, sys
loaded = lambda names: [name for name in names if name in sys.modules]
import polyrep.cli
print("import", loaded({imported!r}))
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        status = polyrep.cli.main(argv)
    print(argv[0], status, loaded({ran!r}))
"""


def _child(code: str, *flags: str) -> list[str]:
    proc = subprocess.run([sys.executable, *flags, "-c", code], capture_output=True, text=True,
                          env=ENV, check=True, timeout=120)
    assert proc.stderr == ""
    return proc.stdout.splitlines()


def _cli(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "polyrep.cli", *argv], capture_output=True,
                          text=True, env=ENV, timeout=120)


def test_prep_and_polyrep_never_load_ireval():
    commands = [["prep", "--topics", TOPICS], ["polyrep", "--topics", TOPICS],
                ["evaluate", "--run", RUN, "--qrels", QRELS]]
    ireval = ["polyrep.ireval"]
    assert _child(_CHILD.format(imported=ireval, ran=ireval, commands=commands)) == [
        "import []",
        "prep 0 []",
        "polyrep 0 []",
        "evaluate 0 ['polyrep.ireval']",  # the check does see the module once a command needs it
    ]


def test_no_command_loads_a_resource_loader_or_pathlib(tmp_path):
    # -S leaves out site, whose start-up hooks may import any of these before polyrep runs
    modules = ["importlib.resources", "pathlib", "zipfile", "tempfile", "shutil"]
    out, config = tmp_path / "out", tmp_path / "run.conf"
    config.write_text("alpha=0.3\n", encoding="utf-8")
    commands = [["prep", "--topics", TOPICS], ["polyrep", "--topics", TOPICS],
                ["evaluate", "--run", RUN, "--qrels", QRELS],
                ["correlate", "--topics", TOPICS, "--run", RUN, "--qrels", QRELS,
                 "--out", str(out)],
                ["polyrep", "--topics", TOPICS, "--config", str(config)]]
    # argparse's help formatter imports shutil for the terminal width each time a parser
    # gains an option, so every command loads it: shutil is checked after the import only
    code = _CHILD.format(imported=modules, ran=modules[:-1], commands=commands)
    # and an open() that leaves the encoding to the locale fails the child
    assert _child(code, "-S", "-X", "warn_default_encoding", "-W", "error::EncodingWarning") == [
        "import []", "prep 0 []", "polyrep 0 []", "evaluate 0 []", "correlate 0 []",
        "polyrep 0 []"]
    assert len(os.listdir(out)) == 1 + 72 * 2 * 6


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
