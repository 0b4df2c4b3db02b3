"""Tests of the benchmark itself: inputs, metric names, tracing and accounting.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys

import pytest

import gen
import run
import tracer

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _small(name: str, topics: int) -> gen.Workload:
    """The workload's generator with fewer topics, to keep the tests fast."""
    workload = gen.WORKLOADS[name]
    return dataclasses.replace(workload, topics=dataclasses.replace(workload.topics, topics=topics))


def _traced(tmp_path, label: str, argv: list[str]) -> dict:
    report = tmp_path / f"{label}.json"
    status = subprocess.run(
        run.TRACED_CLI + ["--report", str(report), "--"] + argv + ["--out", str(tmp_path / label)],
        env=run.CHILD_ENV, capture_output=True, check=False,
    ).returncode
    assert status == 0
    return json.loads(report.read_text())


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_same_seed_writes_identical_inputs(tmp_path, name):
    first = gen.write_inputs(gen.WORKLOADS[name], 7, tmp_path / "a")
    second = gen.write_inputs(gen.WORKLOADS[name], 7, tmp_path / "b")
    other = gen.write_inputs(gen.WORKLOADS[name], 8, tmp_path / "c")
    assert first.keys() == second.keys() == other.keys()
    for role in first:
        assert first[role].read_bytes() == second[role].read_bytes()
        assert first[role].read_bytes() != other[role].read_bytes()


def test_metric_names_and_units_are_well_formed():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    names += [w["name"] for w in declared["workloads"]]
    assert all(NAME.fullmatch(name) and len(name) <= 64 for name in names)
    assert len(names) == len(set(names))
    assert {w["name"] for w in declared["workloads"]} == set(run.COMMANDS)
    layer_names = [m[0] for m in run.LAYER_METRICS] + ["trace_overhead_s"]
    assert layer_names == [m["name"] for m in declared["per_layer"]]
    units = {m[0]: m[3] for m in run.LAYER_METRICS}
    for metric in declared["per_layer"]:
        assert units.get(metric["name"], "s") == metric["unit"]


def test_traced_counts_repeat_exactly(tmp_path):
    table = gen.write_inputs(_small("table-zipf", 8), 3, tmp_path / "table")
    deep = gen.write_inputs(dataclasses.replace(gen.WORKLOADS["evaluate-deep"], queries=20), 3,
                            tmp_path / "deep")
    for argv in (["polyrep", "--topics", str(table["topics"])],
                 ["evaluate", "--run", str(deep["run"]), "--qrels", str(deep["qrels"])]):
        first, second = _traced(tmp_path, "one", argv), _traced(tmp_path, "two", argv)
        assert first["absent"] == second["absent"] == []
        assert first["unreached"] == second["unreached"] == []
        assert first["counts"] == second["counts"]
        assert first["distinct"] == second["distinct"]
        calls = {name: span["calls"] for name, span in first["spans"].items()}
        assert calls == {name: span["calls"] for name, span in second["spans"].items()}
        assert first["counts"]["cli.files_written"] == 1


def test_tokenize_calls_follow_the_per_cell_dataflow(tmp_path):
    topics = 10
    inputs = gen.write_inputs(_small("table-zipf", topics), 1, tmp_path / "in")
    report = _traced(tmp_path, "table", ["polyrep", "--topics", str(inputs["topics"])])
    # Every cell tokenizes the query and both representations again:
    # 18 cells x 3 sets per (topic, level), where 5 distinct sets exist.
    assert report["spans"]["textprep.tokenize"]["calls"] == 54 * topics * run.LEVELS
    assert report["distinct"]["textprep.tokenize"] == 5 * topics * run.LEVELS
    assert run.layer_value(report, "textprep.tokenize", "distinct") == pytest.approx(5 / 54)
    assert report["counts"]["combine.cells"] == run.LEVELS * run.CELLS_PER_LEVEL


def test_missing_function_is_reported_absent():
    import polyrep.cli  # noqa: F401  (loads every module a probe names)

    trace = tracer.Tracer()
    trace.install(tracer.Probe("polyrep.textprep", "no_such_function", "gone"))
    trace.install(tracer.Probe("polyrep.no_such_module", "tokenize", "gone"))
    report = trace.report()
    assert report["absent"] == ["polyrep.no_such_module.tokenize",
                                "polyrep.textprep.no_such_function"]
    assert run.layer_value(report, "gone", "calls") is None


def test_captured_reference_is_reported_unreached():
    # A refactor that stems through ``lru_cache()(porter_stem)`` bound in
    # textprep hides porter_stem from attribute rebinding; its metrics must
    # be reported absent, not as 0 calls.  Run in a child so the rebinding
    # does not leak into other tests.
    probe = (
        "import functools, json, tracer\n"
        "import polyrep.cli, polyrep.porter, polyrep.textprep as textprep\n"
        "textprep.porter_stem = functools.lru_cache()(polyrep.porter.porter_stem)\n"
        "trace = tracer.Tracer()\n"
        "for probe in tracer.PROBES:\n"
        "    trace.install(probe)\n"
        "textprep.tokenize('Running runners ran', textprep.PrepLevel.STEM)\n"
        "textprep.tokenize('Running runners ran', textprep.PrepLevel.STOP)\n"
        "print(json.dumps(trace.report()))\n"
    )
    result = subprocess.run([sys.executable, "-c", probe], cwd=run.HERE, env=run.CHILD_ENV,
                            capture_output=True, text=True, check=True)
    report = json.loads(result.stdout)
    assert report["absent"] == []
    assert report["unreached"] == ["porter.stem"]
    assert run.layer_value(report, "porter.stem", "calls") is None
    assert run.layer_value(report, "porter.stem", "distinct") is None
    assert run.layer_value(report, "textprep.tokenize", "calls") == 2


def test_changed_signature_makes_only_that_count_absent():
    def changed(*, words):
        return len(words)

    trace = tracer.Tracer()
    wrapped = trace._wrap(
        tracer.Probe("m", "f", "span", key=lambda a, k: a[0],
                     counts=(("span.bytes", lambda a, k, r: len(a[0])),)),
        changed,
    )
    assert wrapped(words=["a", "b"]) == 2
    report = trace.report()
    assert report["spans"]["span"]["calls"] == 1
    assert report["absent"] == ["span.bytes", "span.distinct"]
    assert run.layer_value(report, "span", "calls") == 1
    assert run.layer_value(report, "span.bytes", "count") is None
    assert run.layer_value(report, "span", "distinct") is None


def test_each_time_is_scaled_by_the_calibration_around_it(monkeypatch):
    loops = iter([0.1, 0.2, 0.05])
    monkeypatch.setattr(run, "calibrate", lambda: next(loops))
    speed = run.HostSpeed()
    assert speed.factor() == pytest.approx(run.CALIBRATION_REFERENCE_S / 0.15)
    assert speed.factor() == pytest.approx(run.CALIBRATION_REFERENCE_S / 0.125)
    assert speed.loops == [0.1, 0.2, 0.05]


def test_peak_memory_is_per_child(tmp_path):
    # Neither an earlier child's peak nor the benchmark's own may show in a
    # child's figure: the probe's parent first reaches 120 MiB itself.
    probe = (
        "import pathlib, sys, run\n"
        "work = pathlib.Path(sys.argv[1])\n"
        "ballast = bytearray(120 << 20)\n"
        "del ballast\n"
        "big = run.run_child([sys.executable, '-c', 'x = bytearray(100 << 20)'], work)\n"
        "small = run.run_child([sys.executable, '-c', 'pass'], work)\n"
        "print(big.ok, small.ok, big.peak_rss_mib, small.peak_rss_mib)\n"
    )
    result = subprocess.run([sys.executable, "-c", probe, str(tmp_path)], cwd=run.HERE,
                            capture_output=True, text=True, check=True)
    big_ok, small_ok, big, small = result.stdout.split()
    assert big_ok == small_ok == "True"
    assert float(big) > 100
    assert float(small) < 50


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table-zipf", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert result.returncode != 0
    assert result.stdout == ""
    assert not (tmp_path / ".perfbench_work").exists()
