"""Byte goldens, as sha256 digests, for reports the TSV goldens do not pin.

``polyrep --format obj`` carries every per-topic opinion at full
precision, ``prep --format obj`` every term set, ``evaluate`` writes the
six measures per query, and ``correlate`` writes a correlation table (TSV,
or ``correlations.json`` with ``--format obj``) plus 864 plot files; all
of them run on the bundled fixture.  The plot files are pinned by one
digest over ``name NUL bytes NUL`` for each file in name order.  The
expected digests live in ``data/output_digests.json``; ``python
tests/test_output_digests.py`` prints the digests of the code it imports,
in that file's layout.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from polyrep.cli import main

DATA = Path(__file__).parent / "data"
TOPICS, RUN, QRELS = (str(DATA / name) for name in ("topics.jsonl", "run.txt", "qrels.txt"))

STDOUT_REPORTS = {
    "polyrep_obj_macro": ["polyrep", "--topics", TOPICS, "--format", "obj"],
    "polyrep_obj_pooled": ["polyrep", "--topics", TOPICS, "--format", "obj", "--agg", "pooled"],
    "polyrep_obj_pooled_intersection": [
        "polyrep", "--topics", TOPICS, "--format", "obj", "--agg", "pooled",
        "--positive-rule", "intersection", "--alpha", "0.3",
    ],
    "prep_obj": ["prep", "--topics", TOPICS, "--format", "obj"],
    "evaluate_tsv": ["evaluate", "--run", RUN, "--qrels", QRELS],
}

CORRELATE = ["correlate", "--topics", TOPICS, "--run", RUN, "--qrels", QRELS]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _stdout_of(argv: list[str]) -> bytes:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


def _correlate_digests(out_dir: Path) -> dict[str, object]:
    assert main(CORRELATE + ["--out", str(out_dir)]) == 0
    return _correlate_dir_digests(out_dir)


def _correlate_dir_digests(out_dir: Path) -> dict[str, object]:
    """The digests of the TSV files one ``correlate`` run wrote into ``out_dir``."""
    plots = sorted(out_dir.glob("plot_*.tsv"))
    combined = hashlib.sha256()
    for plot in plots:
        combined.update(plot.name.encode("utf-8") + b"\0" + plot.read_bytes() + b"\0")
    return {
        "correlations_tsv": _sha256((out_dir / "correlations.tsv").read_bytes()),
        "plot_files": len(plots),
        "plots": combined.hexdigest(),
    }


def _correlate_obj_digest(out_dir: Path) -> str:
    assert main(CORRELATE + ["--format", "obj", "--out", str(out_dir)]) == 0
    return _sha256((out_dir / "correlations.json").read_bytes())


def _expected(name: str) -> object:
    return json.loads((DATA / "output_digests.json").read_text())[name]


@pytest.mark.parametrize("name", sorted(STDOUT_REPORTS))
def test_stdout_report_matches_its_digest(name):
    assert _sha256(_stdout_of(STDOUT_REPORTS[name])) == _expected(name)


def test_correlate_files_match_their_digests(tmp_path):
    assert _correlate_digests(tmp_path / "out") == _expected("correlate")


def test_correlate_obj_report_matches_its_digest(tmp_path):
    assert _correlate_obj_digest(tmp_path / "out") == _expected("correlate_obj_json")


if __name__ == "__main__":
    digests: dict[str, object] = {name: _sha256(_stdout_of(argv))
                                  for name, argv in STDOUT_REPORTS.items()}
    with tempfile.TemporaryDirectory() as scratch:
        digests["correlate"] = _correlate_digests(Path(scratch) / "out")
        digests["correlate_obj_json"] = _correlate_obj_digest(Path(scratch) / "obj")
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
