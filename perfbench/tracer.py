"""Run the polyrep CLI with each layer's public functions wrapped in spans.

Usage (with the package importable, e.g. ``PYTHONPATH=src``):

    python3 perfbench/tracer.py --report TRACE.json -- polyrep --topics T.jsonl

A probed function is wrapped at every module attribute a caller looks it
up by: its defining module and each ``polyrep`` module that imported it by
name (``polyrep.combine.tokenize`` as well as ``polyrep.textprep.tokenize``),
so the program itself is unchanged.  A span records the call count, the
total time and the self time (total minus the time of wrapped calls made
inside it); counts such as input lines or files written are recorded at
the same boundary.  Spans are kept in memory and written as JSON when the
command ends.  A function that no longer exists, or whose arguments no
longer fit a count, is listed as absent instead of failing the run.

Rebinding attributes cannot reach a reference captured another way, such
as ``_stem = lru_cache()(porter_stem)``: calls through it go untraced and
their time is folded into the caller's self time.  So a probe names the
spans each of its calls must enter; a span that such calls expected but
that recorded no call is listed as unreached rather than read as 0.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# key(args, kwargs) -> hashable: distinct keys are counted over calls.
KeyFn = Callable[[tuple, dict], Any]
# count(args, kwargs, result) -> int: added to the named count.
CountFn = Callable[[tuple, dict, Any], int]
# enters(args, kwargs) -> bool: whether this call must enter a span.
EntersFn = Callable[[tuple, dict], bool]

# Exceptions a key or count function raises when a signature has changed.
_SIGNATURE_ERRORS = (LookupError, TypeError, AttributeError, OSError, ValueError)


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _line_count(args: tuple, kwargs: dict, result: Any) -> int:
    source = _arg(args, kwargs, 0, "source")
    with open(source, "rb") as fh:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))


def _text_and_level(args: tuple, kwargs: dict) -> tuple:
    return _arg(args, kwargs, 0, "text"), _arg(args, kwargs, 1, "level")


def _always(args: tuple, kwargs: dict) -> bool:
    return True


def _stems(args: tuple, kwargs: dict) -> bool:
    return _arg(args, kwargs, 1, "level").name == "STEM" and bool(_arg(args, kwargs, 0, "text"))


@dataclass(frozen=True)
class Probe:
    """One wrapped function: where it is defined and what it records."""

    module: str
    function: str
    span: str
    key: KeyFn | None = None
    counts: tuple[tuple[str, CountFn], ...] = ()
    enters: tuple[tuple[str, EntersFn], ...] = ()  # spans a call must enter


PROBES = (
    Probe("polyrep.combine", "load_topics", "combine.load_topics"),
    Probe("polyrep.combine", "run_matrix", "combine.run_matrix",
          counts=(("combine.cells", lambda a, k, result: len(result)),),
          enters=tuple((span, _always) for span in (
              "textprep.tokenize", "evidence", "opinions.from_evidence", "opinions.fuse"))),
    Probe("polyrep.combine", "write_report", "combine.write_report"),
    Probe("polyrep.textprep", "tokenize", "textprep.tokenize", key=_text_and_level,
          enters=(("porter.stem", _stems),)),
    Probe("polyrep.porter", "porter_stem", "porter.stem",
          key=lambda a, k: _arg(a, k, 0, "word")),
    Probe("polyrep.evidence", "consensus_evidence", "evidence"),
    Probe("polyrep.evidence", "recommendation_evidence", "evidence"),
    Probe("polyrep.opinions", "from_evidence", "opinions.from_evidence"),
    Probe("polyrep.opinions", "consensus", "opinions.fuse"),
    Probe("polyrep.opinions", "recommendation", "opinions.fuse"),
    Probe("polyrep.ireval", "parse_run", "ireval.parse_run",
          counts=(("ireval.run_lines", _line_count),)),
    Probe("polyrep.ireval", "parse_qrels", "ireval.parse_qrels",
          counts=(("ireval.qrels_lines", _line_count),)),
    Probe("polyrep.ireval", "evaluate_run", "ireval.evaluate_run",
          counts=(("ireval.queries", lambda a, k, result: len(result.per_query)),)),
    Probe("polyrep.ireval", "correlate_components", "ireval.correlate",
          enters=(("ireval.spearman", _always),)),
    Probe("polyrep.ireval", "spearman", "ireval.spearman"),
    Probe("polyrep.ireval", "write_plot_data", "ireval.write_plot"),
    Probe("polyrep.cli", "_emit", "cli.emit", counts=(
        ("cli.files_written", lambda a, k, result: int(_arg(a, k, 1, "out_dir") is not None)),
        ("cli.bytes_written", lambda a, k, result: len(_arg(a, k, 0, "text").encode("utf-8"))),
    )),
)


class Tracer:
    """Span statistics per name, with self time computed from a span stack."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.keys: dict[str, set] = {}  # span name -> distinct keys seen
        self.counts: Counter[str] = Counter()
        self.expected: Counter[str] = Counter()  # span -> calls that must enter it
        self.absent: set[str] = set()  # functions, keys or counts not recorded
        self._stack: list[float] = []  # time in wrapped children of each open span

    def install(self, probe: Probe) -> None:
        """Wrap the function at every ``polyrep`` module attribute bound to it."""
        try:
            target = getattr(importlib.import_module(probe.module), probe.function)
        except (ImportError, AttributeError):
            self.absent.add(f"{probe.module}.{probe.function}")
            return
        wrapper = self._wrap(probe, target)
        for name, module in list(sys.modules.items()):
            if name == "polyrep" or name.startswith("polyrep."):
                for attribute, value in list(vars(module).items()):
                    if value is target:
                        setattr(module, attribute, wrapper)

    def _wrap(self, probe: Probe, target: Callable) -> Callable:
        span = self.spans.setdefault(probe.span, [0, 0.0, 0.0])
        key = probe.key
        keys = self.keys.setdefault(probe.span, set()) if key else None
        counts = probe.counts
        enters = probe.enters
        expected = self.expected
        for name, _ in counts:
            self.counts[name] += 0
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = target(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                span[0] += 1
                span[1] += elapsed
                span[2] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if keys is not None:
                try:
                    keys.add(key(args, kwargs))
                except _SIGNATURE_ERRORS:
                    self.absent.add(probe.span + ".distinct")
            for name, count in counts:
                try:
                    self.counts[name] += count(args, kwargs, result)
                except _SIGNATURE_ERRORS:
                    self.absent.add(name)
            for name, must_enter in enters:
                try:
                    expected[name] += must_enter(args, kwargs)
                except _SIGNATURE_ERRORS:
                    pass  # the expectation no longer applies
            return result

        return traced

    def report(self) -> dict:
        return {
            "spans": {name: {"calls": c, "total_s": t, "self_s": s}
                      for name, (c, t, s) in sorted(self.spans.items())},
            "distinct": {name: len(keys) for name, keys in sorted(self.keys.items())},
            "counts": dict(sorted(self.counts.items())),
            "absent": sorted(self.absent),
            "unreached": sorted(name for name, calls in self.expected.items()
                                if calls and name in self.spans and not self.spans[name][0]),
        }


def main() -> int:
    parser = argparse.ArgumentParser(description="Run the polyrep CLI under span tracing.")
    parser.add_argument("--report", type=Path, required=True, help="where to write the JSON")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    import polyrep.cli

    tracer = Tracer()
    for probe in PROBES:
        tracer.install(probe)
    status = polyrep.cli.main(argv)
    args.report.write_text(json.dumps(tracer.report(), indent=1) + "\n", encoding="utf-8")
    return status


if __name__ == "__main__":
    sys.exit(main())
