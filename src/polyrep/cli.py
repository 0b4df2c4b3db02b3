"""Command-line surface for the combination and evaluation pipeline.

Four subcommands cover the workflow end to end:

* ``prep``       dump per-topic term sets for each representation and level
* ``polyrep``    compute the pairwise combination-probability table
* ``evaluate``   score one retrieval run against graded judgments
* ``correlate``  relate fused-opinion components to per-query effectiveness

Every command is deterministic: identical inputs and flags produce
byte-identical output.  Reports go to ``--out DIR`` (or stdout where a
single file suffices); diagnostics go to stderr, and the exit status is
zero exactly when no error occurred.  Options may also be supplied as
``key=value`` lines in a file passed via ``--config``; each line is parsed
as the flag ``--key=value`` placed before the explicit flags, so it is
checked exactly like a flag and explicit flags win.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from typing import IO, TYPE_CHECKING, Callable

from .combine import (
    REPORT_HEADER,
    AggregationMode,
    CombinationResult,
    FusionOperator,
    load_topics,
    run_matrix,
    topic_term_sets,
    write_report,
)
from .evidence import PositiveRule
from .textprep import PrepLevel, _decimal, reading

if TYPE_CHECKING:
    from .ireval import MetricReport

_SHOWN_IDS = 5  # ids or file names a diagnostic shows before eliding the rest

#: A ``prep`` row: the topic, the text's name, the level and the term set.
PREP_COLUMNS = ("topic", "representation", "level", "terms")


def _config_args(command: argparse.ArgumentParser | None, argv: list[str]) -> list[str]:
    """The ``--config`` file named in ``argv`` as ``--key=value`` arguments.

    The walk that finds the file also rejects an option given twice in
    ``argv`` (as ``--opt v`` or ``--opt=v``, up to ``--``), and each config
    key is checked against the subcommand's option strings, all before the
    full parse, so a bad or repeated option is named even when a required
    option is missing.
    """
    if command is None:
        return []  # the full parse reports the missing or unknown subcommand
    # argparse has no public index of a parser's option strings
    options, given, path = command._option_string_actions, set(), None
    for arg, following in zip(argv, argv[1:] + [None]):
        if arg == "--":
            break
        option, sep, value = arg.partition("=")
        if option in given:
            command.error(f"{option} is given more than once")
        if option in options:
            given.add(option)
        if option == "--config":
            path = value if sep else following
    if path is None:
        return []  # no --config, or the full parse reports its missing value
    try:
        with reading(path, lambda where: ValueError(f"config {where}")) as fh:
            lines = list(fh)
    except OSError as exc:
        raise ValueError(f"cannot read config file: {exc}") from exc
    args, seen = [], {}
    for number, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"config line {number}: expected key=value")
        option = "--" + key.strip().replace("_", "-")
        if option == "--config":
            command.error(f"config line {number}: a config file cannot name another")
        if option not in options:
            command.error(f"config line {number}: unrecognized argument {option}={value.strip()}")
        if option in seen:
            command.error(f"config line {number}: {option} is already given on line {seen[option]}")
        seen[option] = number
        args.append(f"{option}={value.strip()}")
    return args


def _parse_levels(text: str) -> list[PrepLevel]:
    return [PrepLevel.from_code(code) for code in text.split(",")]


def _parse_alpha(text: str) -> float:
    try:
        alpha = _decimal(text)
    except ValueError as exc:
        raise ValueError(f"bad alpha {text!r}") from exc
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    return alpha


def _out_dir(text: str) -> str:
    if not text:  # os.makedirs("") fails, and a file name joined to "" lands in the cwd
        raise argparse.ArgumentTypeError("expected a directory, got an empty string")
    return text


def _emit(text: str, out_dir: str | None, filename: str) -> None:
    if out_dir is None:
        sys.stdout.write(text)
        return
    with open(os.path.join(out_dir, filename), "w", encoding="utf-8") as fh:
        fh.write(text)


def _write(args: argparse.Namespace, stem: str, payload: Callable[[], object],
           write_tsv: Callable[[IO[str]], None]) -> None:
    """Emit one report in the ``--format`` asked for, building only that format.

    Every command calls this once, after all its computation, so the output
    directory is made here and a failed command leaves none behind.  A report
    of the same stem in the other format, left by an earlier run, is counted
    on stderr and kept.
    """
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
        other = stem + (".tsv" if args.format == "obj" else ".json")
        if os.path.exists(os.path.join(args.out, other)):
            _warn("report in --out in the other --format, kept", [other])
    if args.format == "obj":
        _emit(json.dumps(payload(), indent=2, sort_keys=True) + "\n", args.out, stem + ".json")
    else:
        buffer = io.StringIO()
        write_tsv(buffer)
        _emit(buffer.getvalue(), args.out, stem + ".tsv")


def _matrix(args: argparse.Namespace) -> list[CombinationResult]:
    topics = load_topics(args.topics)
    levels = _parse_levels(args.prep)
    alpha = _parse_alpha(args.alpha)
    results = run_matrix(topics, levels, alpha=alpha, positive_rule=args.positive_rule,
                         mode=args.agg)
    return [res for res in results if args.operator in ("both", res.spec.operator.value)]


def cmd_prep(args: argparse.Namespace) -> int:
    topics = load_topics(args.topics)
    levels = _parse_levels(args.prep)
    rows = [(topic.id, representation, level.value, sorted(sets[level]))
            for topic, by_text in topic_term_sets(topics, levels)
            for representation, sets in by_text.items() for level in levels]

    def write_tsv(stream: IO[str]) -> None:
        stream.write("\t".join(PREP_COLUMNS) + "\n")
        for tid, rep, level, terms in rows:
            stream.write(f"{tid}\t{rep}\t{level}\t{' '.join(terms)}\n")

    _write(args, "termsets", lambda: {"termsets": [dict(zip(PREP_COLUMNS, row)) for row in rows]},
           write_tsv)
    return 0


def cmd_polyrep(args: argparse.Namespace) -> int:
    results = _matrix(args)
    _write(args, "polyrep", lambda: {"results": [_result_record(res) for res in results]},
           lambda stream: write_report(results, stream))
    return 0


def _result_record(result: CombinationResult) -> dict:
    return {
        **dict(zip(REPORT_HEADER, (*result.spec.label, result.aggregate_probability))),
        "per_topic": [
            {
                "topic": topic_id,
                "belief": opinion.belief,
                "disbelief": opinion.disbelief,
                "uncertainty": opinion.uncertainty,
                "expectation": value,
            }
            for topic_id, opinion, value in result.per_topic
        ],
    }


def _warn(what: str, ids: list[str], count: int | None = None) -> None:
    """One counted diagnostic on stderr naming the first ids or names; silent when empty."""
    if ids:
        shown = ", ".join(ids[:_SHOWN_IDS]) + (", ..." if len(ids) > _SHOWN_IDS else "")
        print(f"polyrep: warning: {what}: {len(ids) if count is None else count} ({shown})",
              file=sys.stderr)


def _evaluate(args: argparse.Namespace) -> MetricReport:
    """Score ``--run`` against ``--qrels``, counting on stderr what the scores leave out."""
    from .ireval import EVALUATION_DEPTH, evaluate_run, parse_qrels, parse_run
    run, qrels = parse_run(args.run), parse_qrels(args.qrels)
    report = evaluate_run(run, qrels)
    _warn("run queries without judgments, not scored",
          sorted(set(run.rankings) - set(qrels.grades)))
    _warn("judged queries absent from the run, scored zero",
          sorted(set(qrels.grades) - set(run.rankings)))
    _warn(f"documents past depth {EVALUATION_DEPTH}, not scored", sorted(run.cut),
          sum(run.cut.values()))
    return report


def cmd_evaluate(args: argparse.Namespace) -> int:
    from .ireval import write_metric_report
    report = _evaluate(args)
    _write(args, "metrics", report._asdict, lambda stream: write_metric_report(report, stream))
    return 0


def _plot_filename(key: tuple[str, ...]) -> str:
    level, operator, rep_a, rep_b, order, component, metric = key
    orders = [order.lower()] if operator == FusionOperator.RECOMMENDATION.value else []
    return "_".join(["plot", level, operator, rep_a, rep_b, *orders, component, metric]) + ".tsv"


def cmd_correlate(args: argparse.Namespace) -> int:
    from .ireval import CORRELATION_COLUMNS, correlation_table, plot_column, write_plot_data
    results = _matrix(args)
    report = _evaluate(args)
    table = correlation_table(results, report)  # all of it before any file is written
    names = [_plot_filename(key) for key, _, _, _ in table]
    present = os.listdir(args.out) if os.path.isdir(args.out) else []  # _write makes it
    _warn("plot files in --out that this run does not write, kept",
          sorted({name for name in present if name.startswith("plot_") and name.endswith(".tsv")}
                 - set(names)))

    def write_tsv(stream: IO[str]) -> None:
        stream.write("\t".join(CORRELATION_COLUMNS) + "\n")
        for key, _, _, rho in table:
            stream.write("\t".join(key) + f"\t{rho:.4f}\n")

    _write(args, "correlations", lambda: {
        "correlations": [dict(zip(CORRELATION_COLUMNS, (*key, rho))) for key, _, _, rho in table]
    }, write_tsv)
    # each vector is formatted once, after the report, so its text does not add to the peak
    x_columns = {}  # by metric
    y_vector = y_column = None  # the cells of one (label, component) are consecutive
    for name, (key, xs, ys, _) in zip(names, table):
        if key[-1] not in x_columns:
            x_columns[key[-1]] = plot_column(xs)
        if key[:-1] != y_vector:
            y_vector, y_column = key[:-1], plot_column(ys)
        _emit(write_plot_data(x_columns[key[-1]], y_column), args.out, name)
    return 0


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's parser by name."""
    parser = argparse.ArgumentParser(
        prog="polyrep",
        description="Combine query context representations and evaluate retrieval runs.",
        allow_abbrev=False,
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_common(sub: argparse.ArgumentParser, out_required: bool = False) -> None:
        sub.add_argument("--config", help="flat key=value options file")
        sub.add_argument("--out", required=out_required, type=_out_dir,
                         help="output directory (default: stdout)")
        sub.add_argument("--format", choices=["tsv", "obj"], default="tsv",
                         help="report format (default tsv)")

    def add_topic_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--topics", required=True, help="line-delimited JSON topic file")
        sub.add_argument("--prep", default="I,II,III,IV",
                         help="comma-separated levels from I,II,III,IV")

    def add_matrix_options(sub: argparse.ArgumentParser) -> None:
        add_topic_options(sub)
        sub.add_argument("--alpha", default="0.5",
                         help="prior base rate in [0, 1] (default 0.5)")
        sub.add_argument(
            "--positive-rule", dest="positive_rule", choices=[rule.value for rule in PositiveRule],
            default="union", help="consensus positive-evidence reading (default union)",
        )
        sub.add_argument("--agg", choices=[mode.value for mode in AggregationMode],
                         default="macro", help="aggregation across topics (default macro)")
        sub.add_argument("--operator", choices=[op.value for op in FusionOperator] + ["both"],
                         default="both", help="restrict the matrix (default both)")

    def add_run_options(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--run", required=True, help="run file (qid Q0 docid rank score tag)")
        sub.add_argument("--qrels", required=True, help="judgments file (qid 0 docid grade)")

    prep = subparsers.add_parser("prep", help="dump per-topic term sets", allow_abbrev=False)
    add_topic_options(prep)
    add_common(prep)
    prep.set_defaults(func=cmd_prep)

    poly = subparsers.add_parser(
        "polyrep", help="combination probability table", allow_abbrev=False
    )
    add_matrix_options(poly)
    add_common(poly)
    poly.set_defaults(func=cmd_polyrep)

    evaluate = subparsers.add_parser(
        "evaluate", help="score a run against judgments", allow_abbrev=False
    )
    add_run_options(evaluate)
    add_common(evaluate)
    evaluate.set_defaults(func=cmd_evaluate)

    correlate = subparsers.add_parser(
        "correlate", help="rank-correlate opinion components with effectiveness",
        allow_abbrev=False,
    )
    add_matrix_options(correlate)
    add_run_options(correlate)
    add_common(correlate, out_required=True)
    correlate.set_defaults(func=cmd_correlate)

    return parser, subparsers.choices


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = build_parser()
    try:
        # config lines go right after the subcommand name, so explicit flags win
        config = _config_args(commands.get(argv[0]) if argv else None, argv[1:])
        args = parser.parse_args(argv[:1] + config + argv[1:])
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"polyrep: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
