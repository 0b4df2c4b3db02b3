"""The README's code runs and the functions it cites exist where it says."""

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
