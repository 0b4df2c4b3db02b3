"""polyrep benchmark: seeded workloads run through the polyrep CLI.

    python3 perfbench/run.py --workload table-zipf --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The benchmark writes the workload's inputs from the seed
(``gen.py``), runs the CLI as one child process at a time and reads each
child's own resource usage with ``os.wait4``, in a small helper process
(``spawn.py``) so that no child inherits the benchmark's own peak memory.

With ``--trace 0`` it reports the end-to-end metrics: wall and CPU seconds
of the workload's command, work units per second, peak resident memory,
the start-up time of ``import polyrep.cli`` in a fresh interpreter, and the
share of commands that succeeded.  A time is the median over the run's
samples, each scaled by a fixed calibration loop timed just before and
after it, so that it reads as on the reference machine: on a host shared
with other tenants, raw times move with their load (see README.md).  The
measured samples are printed as well.  With ``--trace 1``
it runs the same command under ``tracer.py`` as well and reports the
per-layer metrics.  Every output is checked: the bundled fixture must
reproduce the golden reports byte for byte, and each workload output must
match the digest pinned in ``pins.json`` for its seed.  For a seed without
a pin, the first output is checked for shape and every later output must be
byte-identical to it.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit
status is non-zero, with no JSON line, when the checkout lacks the
package or its fixture.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import json
import marshal
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import gen

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = ROOT / "tests" / "data"
PINS = HERE / "pins.json"
WORK_ROOT = ROOT / ".perfbench_work"

CLI = [sys.executable, "-c", "import sys; from polyrep.cli import main; sys.exit(main())"]
TRACED_CLI = [sys.executable, str(HERE / "tracer.py")]
IMPORT_ONLY = [sys.executable, "-c", "import polyrep.cli"]
# Fixed hashing keeps set layouts, and so timings, alike across runs.  No
# bytecode is written, so every child compiles the package from source
# whatever the caller's environment says, and the checkout stays clean.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0",
                 PYTHONDONTWRITEBYTECODE="1")
CHILD_CPU_LIMIT_S = 50  # a runaway child is stopped by the kernel
HARD_BUDGET_S = 150  # no new sample starts past this point of a run
MIN_SAMPLES = 3
SETUP_PROBES_PER_SAMPLE = 2
MIN_SETUP_PROBES = 10

LEVELS = 4  # the CLI default, I,II,III,IV
CELLS_PER_LEVEL = 18


@dataclass(frozen=True)
class Command:
    """How a workload drives the CLI and how its work is counted."""

    argv: Callable[[dict[str, Path], Path], list[str]]
    unit: str
    units: int
    check: Callable[[Path], str | None]  # shape check of an output directory


def _tsv_rows(path: Path) -> list[list[str]]:
    return [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()]


def _check_table(out: Path) -> str | None:
    rows = _tsv_rows(out / "polyrep.tsv")
    expected = 1 + LEVELS * CELLS_PER_LEVEL
    if len(rows) != expected:
        return f"polyrep.tsv has {len(rows)} rows, expected {expected}"
    if any(not 0.0 <= float(row[5]) <= 1.0 for row in rows[1:]):
        return "polyrep.tsv has a probability outside [0, 1]"
    return None


def _check_metrics(out: Path) -> str | None:
    rows = _tsv_rows(out / "metrics.tsv")
    expected = 6 * (WORKLOAD_QUERIES["evaluate-deep"] + 1)
    if len(rows) != expected:
        return f"metrics.tsv has {len(rows)} rows, expected {expected}"
    if any(not 0.0 <= float(row[2]) <= 1.0 for row in rows):
        return "metrics.tsv has a value outside [0, 1]"
    return None


def _check_correlations(out: Path) -> str | None:
    rows = json.loads((out / "correlations.json").read_text(encoding="utf-8"))["correlations"]
    expected = LEVELS * CELLS_PER_LEVEL * 2 * 6
    if len(rows) != expected:
        return f"correlations.json has {len(rows)} rows, expected {expected}"
    if any(not -1.0 <= row["rho"] <= 1.0 for row in rows):
        return "correlations.json has a rho outside [-1, 1]"
    files = sum(1 for path in out.iterdir() if path.name.startswith("plot_"))
    if files != expected:
        return f"{files} plot files, expected {expected}"
    return None


WORKLOAD_QUERIES = {
    name: workload.topics.topics if workload.topics else workload.queries
    for name, workload in gen.WORKLOADS.items()
}

COMMANDS = {
    "table-zipf": Command(
        lambda inp, out: ["polyrep", "--topics", str(inp["topics"]), "--prep", "I,II,III,IV",
                          "--operator", "both", "--format", "tsv", "--out", str(out)],
        "topic x level",
        WORKLOAD_QUERIES["table-zipf"] * LEVELS,
        _check_table,
    ),
    "evaluate-deep": Command(
        lambda inp, out: ["evaluate", "--run", str(inp["run"]), "--qrels", str(inp["qrels"]),
                          "--out", str(out)],
        "judged query",
        WORKLOAD_QUERIES["evaluate-deep"],
        _check_metrics,
    ),
    "correlate-wide": Command(
        lambda inp, out: ["correlate", "--topics", str(inp["topics"]), "--run", str(inp["run"]),
                          "--qrels", str(inp["qrels"]), "--format", "obj", "--out", str(out)],
        "topic x cell",
        WORKLOAD_QUERIES["correlate-wide"] * LEVELS * CELLS_PER_LEVEL,
        _check_correlations,
    ),
}

# Fixture commands, with the golden file each must reproduce on stdout
# (None: the output is compared against its pinned digest instead).
FIXTURE_COMMANDS = {
    "prep": (["prep", "--topics", "{topics}"], "termsets_golden.tsv"),
    "polyrep": (["polyrep", "--topics", "{topics}"], "polyrep_golden.tsv"),
    "evaluate": (["evaluate", "--run", "{run}", "--qrels", "{qrels}"], None),
    "correlate": (["correlate", "--topics", "{topics}", "--run", "{run}", "--qrels", "{qrels}",
                   "--out", "{out}"], None),
}


class SetupError(Exception):
    """The checkout cannot be benchmarked; reported without a result line."""


@dataclass(frozen=True)
class Child:
    ok: bool
    wall_s: float
    cpu_s: float
    peak_rss_mib: float


class Spawner:
    """The ``spawn.py`` helper that starts every child; see its docstring."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", str(HERE / "spawn.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        atexit.register(self.close)

    def run(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path) -> tuple:
        request = marshal.dumps((argv, str(cwd), CHILD_ENV, str(stdout), str(stderr)))
        self.proc.stdin.write(b"%d\n" % len(request) + request)
        self.proc.stdin.flush()
        size = self.proc.stdout.readline()
        if not size:
            raise RuntimeError(f"spawn.py exited with status {self.proc.wait()}")
        return marshal.loads(self.proc.stdout.read(int(size)))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait()


_spawner: Spawner | None = None


def run_child(argv: list[str], cwd: Path, stdout: Path | None = None) -> Child:
    """Run one child to completion and read its own resource usage."""
    global _spawner
    if _spawner is None:
        _spawner = Spawner()
    stderr = cwd / "stderr.txt"
    status, wall, cpu, maxrss_kib = _spawner.run(argv, cwd, stdout or Path(os.devnull), stderr)
    if status != 0:
        message = stderr.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        print(f"# command failed ({status}): {' '.join(argv[3:])}: "
              f"{message[-1] if message else ''}")
    return Child(status == 0, wall, cpu, maxrss_kib / 1024.0)


def digest_tree(path: Path) -> str:
    """sha256 over every file's relative name and content digest."""
    digest = hashlib.sha256()
    for item in sorted(path.rglob("*")):
        if item.is_file():
            digest.update(item.relative_to(path).as_posix().encode("utf-8") + b"\0")
            digest.update(hashlib.sha256(item.read_bytes()).digest())
    return digest.hexdigest()


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()
    except OSError:
        pass  # another run is still using it


def load_pins() -> dict:
    if not PINS.is_file():
        raise SetupError(f"missing {PINS.relative_to(ROOT)}; write it with perfbench/pin.py")
    return json.loads(PINS.read_text(encoding="utf-8"))


def check_checkout() -> None:
    for required in (SRC / "polyrep" / "cli.py", FIXTURE / "topics.jsonl"):
        if not required.is_file():
            raise SetupError(f"missing {required.relative_to(ROOT)}; run from a source checkout")
    found = subprocess.run(
        [sys.executable, "-c", "import polyrep; print(polyrep.__file__)"],
        env=CHILD_ENV, capture_output=True, text=True, check=False,
    )
    location = Path(found.stdout.strip() or ".").resolve()
    if found.returncode != 0 or SRC.resolve() not in location.parents:
        raise SetupError(f"polyrep does not import from {SRC}: {found.stderr.strip()}")


class Tally:
    """Commands attempted and failed over one benchmark run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def run_fixture_command(name: str, work: Path) -> tuple[Child, bytes, str]:
    """Run one fixture command; returns the child, its stdout and a digest
    of its stdout together with every file it wrote."""
    template, _ = FIXTURE_COMMANDS[name]
    paths = {"topics": FIXTURE / "topics.jsonl", "run": FIXTURE / "run.txt",
             "qrels": FIXTURE / "qrels.txt"}
    out = work / f"fixture-{name}"
    out.mkdir()
    stdout = out / "stdout"
    child = run_child(CLI + [part.format(out=out, **paths) for part in template], work, stdout)
    return child, stdout.read_bytes(), digest_tree(out)


def run_fixture(work: Path, pins: dict, tally: Tally) -> None:
    """The bundled fixture must reproduce the goldens and pinned digests."""
    for name, (_, golden) in FIXTURE_COMMANDS.items():
        child, stdout, digest = run_fixture_command(name, work)
        if golden is not None:
            ok = stdout == (FIXTURE / golden).read_bytes()
        else:
            ok = digest == pins["fixture"][name]
        if child.ok and not ok:
            print(f"# fixture {name}: output differs from its reference")
        tally.record(child.ok and ok)


class Sampler:
    """Runs a workload's command and checks every output it writes."""

    def __init__(self, name: str, seed: int, work: Path, pins: dict, tally: Tally) -> None:
        self.command = COMMANDS[name]
        self.work = work
        self.tally = tally
        self.inputs = gen.write_inputs(gen.WORKLOADS[name], seed, work / "inputs")
        self.reference = pins["workloads"].get(name, {}).get(str(seed))
        self.pinned = self.reference is not None
        self.count = 0

    def sample(self, traced: bool = False) -> tuple[Child, Path | None]:
        self.count += 1
        out = self.work / f"out-{self.count}"
        trace = self.work / f"trace-{self.count}.json" if traced else None
        args = self.command.argv(self.inputs, out)
        argv = TRACED_CLI + ["--report", str(trace), "--"] + args if traced else CLI + args
        child = run_child(argv, self.work)
        ok = child.ok and self._output_ok(out)
        shutil.rmtree(out, ignore_errors=True)
        self.tally.record(ok)
        return Child(ok, child.wall_s, child.cpu_s, child.peak_rss_mib), trace if ok else None

    def _output_ok(self, out: Path) -> bool:
        if self.reference is None:
            try:
                problem = self.command.check(out)
            except (OSError, ValueError, LookupError) as exc:
                problem = f"unreadable output: {exc!r}"
            if problem is not None:
                print(f"# output check failed: {problem}")
                return False
            self.reference = digest_tree(out)
            return True
        if digest_tree(out) != self.reference:
            print("# output differs from the " + ("pinned digest" if self.pinned else "first output"))
            return False
        return True


def sample_until(sampler: Sampler, deadline: float, hard_deadline: float, traced: bool = False,
                 between: Callable[[], None] | None = None) -> list[tuple[Child, Path | None]]:
    """Sample until ``deadline`` and at least MIN_SAMPLES, never past ``hard_deadline``."""
    samples: list[tuple[Child, Path | None]] = []
    while True:
        samples.append(sampler.sample(traced))
        if between is not None:
            between()
        now = time.perf_counter()
        last = samples[-1][0].wall_s
        if now >= deadline and len(samples) >= MIN_SAMPLES:
            return samples
        if now + last > hard_deadline:
            return samples


def timed(samples: list[tuple[Child, Path | None]]) -> list[Child]:
    """Successful samples, or all of them when none succeeded."""
    good = [child for child, _ in samples if child.ok]
    return good or [child for child, _ in samples]


# A fixed pure-Python loop of string, dict and set work, like the
# program's own.  Other tenants of the host change its speed by tens of
# percent from one minute to the next, and the loop slows with it, so each
# end-to-end time is scaled by the loop's time measured around it.
CALIBRATION_WORDS = tuple(f"Word{i % 211}-{i % 17}" for i in range(5000))
CALIBRATION_ROUNDS = 60
CALIBRATION_REFERENCE_S = 0.075  # the loop's time on the reference machine


def calibrate() -> float:
    """Seconds the calibration loop takes now."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(CALIBRATION_ROUNDS):
        for word in CALIBRATION_WORDS:
            stem = word.lower().rstrip("0123456789-")
            counts[stem] = counts.get(stem, 0) + len(word)
    frozenset(counts)
    return time.perf_counter() - start


class HostSpeed:
    """Calibration times around consecutive children."""

    def __init__(self) -> None:
        self.last = calibrate()
        self.loops: list[float] = [self.last]

    def factor(self) -> float:
        """Scale for the child that just ended: reference over the mean of
        the loop's times just before and just after it."""
        before, self.last = self.last, calibrate()
        self.loops.append(self.last)
        return CALIBRATION_REFERENCE_S * 2 / (before + self.last)


def end_to_end(sampler: Sampler, seconds: float, hard_deadline: float) -> dict[str, tuple]:
    speed = HostSpeed()
    factors: list[float] = []
    setup: list[tuple[float, float]] = []  # (measured, scaled)

    def probe_setup(times: int = SETUP_PROBES_PER_SAMPLE) -> None:
        for _ in range(times):
            child = run_child(IMPORT_ONLY, sampler.work)
            sampler.tally.record(child.ok)
            setup.append((child.wall_s, child.wall_s * speed.factor()))

    def after_sample() -> None:
        factors.append(speed.factor())
        probe_setup()

    start = time.perf_counter()
    samples = sample_until(sampler, start + seconds, hard_deadline, between=after_sample)
    probe_setup(max(0, MIN_SETUP_PROBES - len(setup)))
    scaled = [(child, factor) for (child, _), factor in zip(samples, factors) if child.ok]
    scaled = scaled or list(zip((child for child, _ in samples), factors))
    wall = statistics.median(child.wall_s * factor for child, factor in scaled)
    print(f"# {len(scaled)} timed samples of the command, {len(setup)} of the import")
    print("# measured wall_s samples: " + " ".join(f"{c.wall_s:.3f}" for c, _ in scaled))
    print("# measured setup_s samples: " + " ".join(f"{value:.4f}" for value, _ in setup))
    print(f"# measured medians: wall_s {statistics.median(c.wall_s for c, _ in scaled)}, "
          f"setup_s {statistics.median(value for value, _ in setup)}")
    print(f"# calibration loop: median {statistics.median(speed.loops)} s over "
          f"{len(speed.loops)} timings, reference {CALIBRATION_REFERENCE_S} s")
    return {
        "wall_s": (wall, "s"),
        "cpu_s": (statistics.median(child.cpu_s * factor for child, factor in scaled), "s"),
        "units_per_s": (sampler.command.units / wall, "1/s"),
        "peak_rss_mib": (statistics.median(child.peak_rss_mib for child, _ in scaled), "MiB"),
        "setup_s": (statistics.median(value for _, value in setup), "s"),
    }


# Per-layer metrics: (name, span, field, unit).  ``field`` is calls,
# total_s or self_s of a span, "distinct" for distinct keys over calls,
# or "count" for a named count recorded at the span's boundary.
LAYER_METRICS = (
    ("textprep.tokenize_calls", "textprep.tokenize", "calls", "count"),
    ("textprep.tokenize_s", "textprep.tokenize", "self_s", "s"),
    ("textprep.tokenize_distinct_ratio", "textprep.tokenize", "distinct", "ratio"),
    ("porter.stem_calls", "porter.stem", "calls", "count"),
    ("porter.stem_s", "porter.stem", "self_s", "s"),
    ("porter.stem_distinct_ratio", "porter.stem", "distinct", "ratio"),
    ("evidence.calls", "evidence", "calls", "count"),
    ("evidence.s", "evidence", "self_s", "s"),
    ("opinions.from_evidence_calls", "opinions.from_evidence", "calls", "count"),
    ("opinions.fuse_calls", "opinions.fuse", "calls", "count"),
    ("opinions.s", ("opinions.from_evidence", "opinions.fuse"), "self_s", "s"),
    ("combine.cells", "combine.cells", "count", "count"),
    ("combine.run_matrix_s", "combine.run_matrix", "total_s", "s"),
    ("combine.self_s", "combine.run_matrix", "self_s", "s"),
    ("combine.load_topics_s", "combine.load_topics", "total_s", "s"),
    ("combine.write_report_s", "combine.write_report", "total_s", "s"),
    ("ireval.parse_run_s", "ireval.parse_run", "total_s", "s"),
    ("ireval.run_lines", "ireval.run_lines", "count", "count"),
    ("ireval.parse_qrels_s", "ireval.parse_qrels", "total_s", "s"),
    ("ireval.qrels_lines", "ireval.qrels_lines", "count", "count"),
    ("ireval.evaluate_run_s", "ireval.evaluate_run", "total_s", "s"),
    ("ireval.queries", "ireval.queries", "count", "count"),
    ("ireval.spearman_calls", "ireval.spearman", "calls", "count"),
    ("ireval.correlate_s", "ireval.correlate", "total_s", "s"),
    ("ireval.write_plot_s", "ireval.write_plot", "total_s", "s"),
    ("cli.emit_s", "cli.emit", "total_s", "s"),
    ("cli.files_written", "cli.files_written", "count", "count"),
    ("cli.bytes_written", "cli.bytes_written", "count", "count"),
)


def layer_value(report: dict, spans: str | tuple[str, ...], field: str) -> float | None:
    """One metric from a tracer report, or None when it could not be recorded."""
    if field == "count":
        if spans in report["absent"] or spans not in report["counts"]:
            return None
        return report["counts"][spans]
    names = (spans,) if isinstance(spans, str) else spans
    present = [report["spans"][name] for name in names if name in report["spans"]]
    if not present or any(name in report["unreached"] for name in names):
        return None
    if field == "distinct":
        if spans + ".distinct" in report["absent"] or spans not in report["distinct"]:
            return None
        calls = present[0]["calls"]
        return report["distinct"][spans] / calls if calls else 0.0
    return sum(span[field] for span in present)


def per_layer(sampler: Sampler, seconds: float, hard_deadline: float) -> dict[str, tuple]:
    # Untraced samples alternate with traced ones, so both see the same load.
    plain_samples: list[tuple[Child, Path | None]] = []
    traced_samples = sample_until(sampler, time.perf_counter() + seconds, hard_deadline,
                                  traced=True,
                                  between=lambda: plain_samples.append(sampler.sample()))
    plain, traced = timed(plain_samples), timed(traced_samples)
    reports = [json.loads(path.read_text(encoding="utf-8"))
               for _, path in traced_samples if path is not None]
    print(f"# {len(plain)} untraced and {len(traced)} traced samples")
    metrics: dict[str, tuple] = {}
    absent = sorted({name for report in reports for name in report["absent"]})
    if absent:
        print(f"# not traced (no longer in the program): {', '.join(absent)}")
    unreached = sorted({name for report in reports for name in report["unreached"]})
    if unreached:
        print(f"# not traced (called but never through a wrapped attribute; its time "
              f"is in its caller's self time): {', '.join(unreached)}")
    for name, spans, field, unit in LAYER_METRICS:
        values = [layer_value(report, spans, field) for report in reports]
        if not values or None in values:
            print(f"# {name}: absent")
            continue
        if unit == "count" and len(set(values)) > 1:
            print(f"# {name}: differs between traced runs: {values}")
        metrics[name] = (min(values), unit)
    overhead = min(c.wall_s for c in traced) - min(c.wall_s for c in plain)
    metrics["trace_overhead_s"] = (overhead, "s")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one polyrep benchmark workload.")
    parser.add_argument("--workload", choices=sorted(COMMANDS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        check_checkout()
        pins = load_pins()
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    hard_deadline = time.perf_counter() + HARD_BUDGET_S
    _, hard = resource.getrlimit(resource.RLIMIT_CPU)
    limit = CHILD_CPU_LIMIT_S if hard == resource.RLIM_INFINITY else min(CHILD_CPU_LIMIT_S, hard)
    resource.setrlimit(resource.RLIMIT_CPU, (limit, hard))
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    tally = Tally()
    try:
        run_fixture(work, pins, tally)
        sampler = Sampler(args.workload, args.seed, work, pins, tally)
        print(f"# workload {args.workload}, seed {args.seed}, "
              f"{sampler.command.units} units ({sampler.command.unit}), reference: "
              + ("pinned digest" if sampler.pinned else "first output (seed not pinned)"))
        sampler.sample()  # warm-up: fills the file cache and checks the first output
        if args.trace:
            metrics = per_layer(sampler, args.seconds, hard_deadline)
        else:
            metrics = end_to_end(sampler, args.seconds, hard_deadline)
            metrics["ok_ratio"] = (1.0 - tally.failed / tally.attempted, "ratio")
    finally:
        remove_work(work)
    print(f"# fail_ratio {tally.failed / tally.attempted} "
          f"({tally.failed} of {tally.attempted} commands failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name}\t{value}\t{unit}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
