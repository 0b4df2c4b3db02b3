"""The README's code runs, the names it cites exist where it says, and it quotes each warning."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")
CITED = sorted(set(re.findall(r"`polyrep\.(\w+)\.(\w+)`", README)))


def _warning_texts():
    """The message of every ``_warn(...)`` call in cli.py, ``{EVALUATION_DEPTH}`` read as 1000."""
    tree = ast.parse((ROOT / "src" / "polyrep" / "cli.py").read_text(encoding="utf-8"))
    texts = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_warn":
            message = node.args[0]
            parts = message.values if isinstance(message, ast.JoinedStr) else [message]
            texts.append("".join(part.value if isinstance(part, ast.Constant)
                                 else {"EVALUATION_DEPTH": "1000"}[part.value.id]
                                 for part in parts))
    return texts


WARNINGS = _warning_texts()


def test_quick_start_runs(tmp_path):
    section = README.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == "0.75"


def test_readme_cites_dotted_names():
    assert len(CITED) >= 5


@pytest.mark.parametrize("module, name", CITED, ids=lambda part: part)
def test_cited_name_resolves(module, name):
    assert hasattr(importlib.import_module(f"polyrep.{module}"), name)


def test_every_warning_is_found():
    assert len(WARNINGS) >= 6


@pytest.mark.parametrize("text", WARNINGS)
def test_readme_quotes_each_warning(text):
    assert text in " ".join(README.split())
