"""Retrieval-run evaluation against graded judgments, plus rank correlation.

Runs use the standard six-column interchange format (``qid Q0 docid rank
score tag``); ranks are recomputed from the scores so the rank column in
the file is never trusted.  Scores are read only to order each query's
documents, and a ranking keeps their doc ids alone.  Judgments (``qid 0
docid grade``) carry grades 0-3 read as gains 0/1/2/3; binary metrics
treat grade > 0 as relevant.
Each file is read in one pass, one line at a time.

Six effectiveness measures are computed per query, all in one walk of its
ranking by :func:`evaluate_query`, and averaged over every judged query:
average precision (reported as map), NDCG at the evaluation depth, bpref,
P@10, NDCG@10 and reciprocal rank (mrr).  Queries without relevant
judgments score zero and stay in the mean.

:func:`spearman` is the rank correlation used to relate fused-opinion
components to per-query effectiveness; :func:`correlation_table` ranks
each vector once for every cell.  Ranks are tie-averaged; averaged ranks
are exact half-integers, so the correlation is evaluated in integer
arithmetic and perfectly concordant and discordant inputs give exactly +/-1.0.
Doubled ranks always sum to n(n+1), so each rank vector's variance term is
computed once, and each cell needs one integer dot product.  A NaN or
infinite value is rejected, naming its vector.  A plot file's two columns
are each formatted once per vector by :func:`plot_column`, and
:func:`write_plot_data` joins them into the file's text.
"""

from __future__ import annotations

import enum
import math
from functools import reduce
from itertools import groupby
from operator import add, attrgetter, itemgetter, mul, neg
from types import MappingProxyType
from typing import IO, Iterable, Mapping, NamedTuple, Sequence

from .combine import REPORT_HEADER, CombinationResult
from .textprep import Source, _decimal, reading

#: Evaluation depth: only the strongest-scored documents per query count.
EVALUATION_DEPTH = 1000

GRADES = (0, 1, 2, 3)
_GRADE_OF = {str(grade): grade for grade in GRADES}  # only these exact spellings are grades

METRICS = ("map", "ndcg", "bpref", "p10", "ndcg10", "mrr")

#: The query id of the metric report's mean rows, so no run or judgment may use it.
SUMMARY_ID = "all"

#: A correlation row: the seven fields naming its cell, then the correlation.
CORRELATION_COLUMNS = REPORT_HEADER[:5] + ("component", "metric", "rho")


class RunParseError(ValueError):
    """Malformed run file; message carries the 1-based line number."""


class QrelsParseError(ValueError):
    """Malformed judgments file; message carries the 1-based line number."""


class NoOverlapError(ValueError):
    """Run and judgments share no query id."""


class ZeroVarianceError(ValueError):
    """Rank correlation is undefined when either rank vector is constant."""


class TopicAlignmentError(ValueError):
    """Combination results and metric report cover different topic ids."""


class Component(enum.Enum):
    """Fused-opinion component correlated against effectiveness."""

    BELIEF = "belief"
    UNCERTAINTY = "uncertainty"


class Qrels(NamedTuple):
    """Graded judgments: query id -> document id -> grade in 0..3."""

    grades: Mapping[str, Mapping[str, int]]


class RunList(NamedTuple):
    """Per query, its doc ids in rank order: descending score, doc id breaking ties.

    The scores themselves are not kept.  ``cut`` counts, for each query that
    retrieved more than :data:`EVALUATION_DEPTH` documents, how many were
    dropped from its ranking.
    """

    rankings: Mapping[str, tuple[str, ...]]
    cut: Mapping[str, int] = MappingProxyType({})


def parse_run(source: Source) -> RunList:
    """Parse a run file; duplicate documents within a query are rejected."""
    scored: dict[str, dict[str, float]] = {}
    last = per_query = None
    with reading(source, RunParseError) as lines:
        for number, line in enumerate(lines, start=1):
            fields = line.split()
            try:
                qid, _, docid, _, score_text, _ = fields
            except ValueError:
                if fields:
                    raise RunParseError(f"line {number}: expected 6 fields, got {len(fields)}")
                continue
            try:
                score = _decimal(score_text)
            except ValueError as exc:
                raise RunParseError(f"line {number}: bad score {score_text!r}") from exc
            if not math.isfinite(score):
                raise RunParseError(f"line {number}: non-finite score {score_text!r}")
            if qid != last:  # a query's lines usually come together: look it up once per block
                if qid == SUMMARY_ID:
                    raise RunParseError(f"line {number}: query id {qid!r} names the summary rows")
                last, per_query = qid, scored.setdefault(qid, {})
            if docid in per_query:
                raise RunParseError(f"line {number}: duplicate document {docid!r} for query {qid!r}")
            per_query[docid] = score
    rankings, cut = {}, {}
    for qid in list(scored):
        docs = scored.pop(qid)  # each query's scores are freed once it is ranked
        ordered = sorted(zip(map(neg, docs.values()), docs))  # (-score, docid), built in C
        rankings[qid] = tuple(map(itemgetter(1), ordered[:EVALUATION_DEPTH]))
        if len(ordered) > EVALUATION_DEPTH:
            cut[qid] = len(ordered) - EVALUATION_DEPTH
    return RunList(rankings, cut)


def parse_qrels(source: Source) -> Qrels:
    """Parse graded judgments; one grade per (query, document) pair."""
    grades: dict[str, dict[str, int]] = {}
    last = per_query = None
    with reading(source, QrelsParseError) as lines:
        for number, line in enumerate(lines, start=1):
            fields = line.split()
            try:
                qid, _, docid, grade_text = fields
            except ValueError:
                if fields:
                    raise QrelsParseError(f"line {number}: expected 4 fields, got {len(fields)}")
                continue
            grade = _GRADE_OF.get(grade_text)
            if grade is None:
                raise QrelsParseError(
                    f"line {number}: grade must be one of {GRADES}, got {grade_text!r}")
            if qid != last:
                if qid == SUMMARY_ID:
                    raise QrelsParseError(f"line {number}: query id {qid!r} names the summary rows")
                last, per_query = qid, grades.setdefault(qid, {})
            if docid in per_query:
                raise QrelsParseError(f"line {number}: duplicate judgment for {qid!r}/{docid!r}")
            per_query[docid] = grade
    return Qrels(grades)


def _grades(run: RunList, qrels: Qrels, qid: str) -> tuple[list[int | None], list[int]]:
    """The grade at each rank (``None`` where unjudged) and the judged grades, best first."""
    judged = qrels.grades.get(qid, {})
    ranked = list(map(judged.get, run.rankings.get(qid, ())))
    return ranked, sorted(judged.values(), reverse=True)


def _dcg(grades: Iterable[int | None]) -> float:
    """Discounted gain in rank order, added left to right: sum() compensates since Python 3.12."""
    return reduce(add, (grade / math.log2(rank + 1)
                        for rank, grade in enumerate(grades, start=1) if grade), 0.0)


def _ndcg(ranked: list[int | None], ideal_gains: list[int], k: int) -> float:
    """DCG of the top k ranked grades over that of the top k ideal gains (0 if that is 0)."""
    ideal = _dcg(ideal_gains[:k])
    return _dcg(ranked[:k]) / ideal if ideal else 0.0


def evaluate_query(run: RunList, qrels: Qrels, qid: str) -> dict[str, float]:
    """The six measures of one query: one judgment lookup, one walk of the ranking.

    R judged documents have grade > 0 (relevant) and N grade 0.  bpref
    charges each retrieved relevant document the judged documents of grade
    <= 0 ranked above it, capped at min(R, N) and divided by it (nothing
    when min(R, N) is 0), and skips unjudged ones.  p10 counts missing
    top-10 ranks as misses.  map and bpref divide by R, and are 0 if R is 0.
    """
    ranked, ideal_gains = _grades(run, qrels, qid)
    relevant = sum(1 for grade in ideal_gains if grade > 0)
    bound = min(relevant, ideal_gains.count(0))
    hits = top_hits = first = nonrelevant_above = 0
    precision_sum = preference = 0.0
    for rank, grade in enumerate(ranked, start=1):
        if grade is None:
            continue
        if grade > 0:
            hits += 1
            precision_sum += hits / rank
            preference += (1.0 - min(nonrelevant_above, bound) / bound) if bound else 1.0
            top_hits += rank <= 10
            first = first or rank
        else:
            nonrelevant_above += 1
    return {
        "map": precision_sum / relevant if relevant else 0.0,
        "ndcg": _ndcg(ranked, ideal_gains, EVALUATION_DEPTH),
        "bpref": preference / relevant if relevant else 0.0,
        "p10": top_hits / 10,
        "ndcg10": _ndcg(ranked, ideal_gains, 10),
        "mrr": 1.0 / first if first else 0.0,
    }


def ndcg_at(run: RunList, qrels: Qrels, qid: str, k: int) -> float:
    """Discounted cumulative gain in the top k (k >= 1), normalised by the ideal ordering."""
    if type(k) is not int:
        raise TypeError(f"k must be an integer, got {type(k).__name__}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return _ndcg(*_grades(run, qrels, qid), k)


class MetricReport(NamedTuple):
    """Per-query and mean values for the six effectiveness measures."""

    per_query: Mapping[str, Mapping[str, float]]
    means: Mapping[str, float]


def evaluate_run(run: RunList, qrels: Qrels) -> MetricReport:
    """Score every judged query; queries absent from the run score zero.

    A run that retrieved nothing at all is still evaluated (every query
    scores zero); a nonempty run sharing no query id with the judgments is
    rejected as a likely input mix-up.
    """
    judged = sorted(qrels.grades)
    if not judged:
        raise NoOverlapError("judgments contain no queries")
    if run.rankings and not set(judged) & set(run.rankings):
        raise NoOverlapError("run and judgments share no query id")
    per_query = {qid: evaluate_query(run, qrels, qid) for qid in judged}
    means = {
        metric: reduce(add, (per_query[qid][metric] for qid in judged), 0.0) / len(judged)
        for metric in METRICS
    }
    return MetricReport(per_query, means)


def _average_ranks_doubled(values: Sequence[float]) -> list[int]:
    """Tie-averaged ranks, scaled by two so they stay integers."""
    doubled = [0] * len(values)
    start = 0
    for _, tied in groupby(sorted(range(len(values)), key=values.__getitem__),
                           key=values.__getitem__):
        tied = list(tied)
        # positions start+1 .. start+len(tied) share the averaged rank
        for i in tied:
            doubled[i] = 2 * start + len(tied) + 1
        start += len(tied)
    return doubled


def _ranked(values: Sequence[float], name: str) -> tuple[list[int], int]:
    """Doubled ranks of ``values`` and their variance term, n * sum(r * r) - (n * (n + 1)) ** 2.

    Doubled tie-averaged ranks always sum to n(n+1), so this term is all a
    correlation needs of one vector besides its ranks.  A NaN or infinite
    value raises ValueError naming ``name``: sorting with NaN is ill-defined.
    """
    if not all(map(math.isfinite, values)):
        raise ValueError(f"{name} holds a non-finite value")
    ranks = _average_ranks_doubled(values)
    n = len(ranks)
    return ranks, n * sum(map(mul, ranks, ranks)) - (n * (n + 1)) ** 2


def _rank_correlation(x: tuple[list[int], int], y: tuple[list[int], int]) -> float:
    """Pearson correlation of two :func:`_ranked` vectors, exact up to the final quotient."""
    (rx, variance_x), (ry, variance_y) = x, y
    n = len(rx)
    if n < 2:
        raise ValueError("need at least two observations")
    if variance_x == 0 or variance_y == 0:
        raise ZeroVarianceError("rank correlation undefined for a constant vector")
    covariance = n * sum(map(mul, rx, ry)) - (n * (n + 1)) ** 2
    if covariance * covariance == variance_x * variance_y:
        return 1.0 if covariance > 0 else -1.0
    return covariance / math.sqrt(float(variance_x) * float(variance_y))


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with tie-averaged ranks, exact in integer arithmetic.

    A NaN or infinite value raises ValueError: sorting with NaN is ill-defined.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return _rank_correlation(_ranked(xs, "xs"), _ranked(ys, "ys"))


def _cell(key: tuple[str, ...]) -> str:
    """The leading :data:`CORRELATION_COLUMNS` named by ``key``, as ``name=value`` pairs."""
    return " ".join(map("=".join, zip(CORRELATION_COLUMNS, key)))


def correlation_table(
    results: Sequence[CombinationResult],
    report: MetricReport,
    components: Sequence[Component] = tuple(Component),
    metrics: Sequence[str] = METRICS,
) -> list[tuple[tuple[str, ...], list[float], list[float], float]]:
    """Every (result, component, metric) cell, in that order, as (key, xs, ys, rho).

    ``key`` is the cell's first seven :data:`CORRELATION_COLUMNS`; ``xs`` (the
    measure) and ``ys`` (the component) are in topic-id order, each built and
    ranked once and shared by the cells that read it; ``rho`` is :func:`spearman`
    of the two.  A constant rank vector raises :class:`ZeroVarianceError`
    naming the first such cell, a NaN or infinite value a ValueError naming
    its metric or its (label, component), and a metric outside :data:`METRICS`
    a ValueError.  Components are :class:`Component` members or their values;
    anything else is a ValueError.
    """
    components = [Component(component) for component in components]
    for metric in metrics:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    report_ids = report.per_query.keys()
    ordered = sorted(report_ids)
    xs = {metric: [report.per_query[tid][metric] for tid in ordered] for metric in metrics}
    x_ranked = {metric: _ranked(xs[metric], f"metric={metric}") for metric in metrics}
    getters = [(component.value, attrgetter(component.value)) for component in components]
    table = []
    for result in results:
        opinions = {topic_id: opinion for topic_id, opinion, _ in result.per_topic}
        if opinions.keys() != report_ids:
            raise TopicAlignmentError(
                f"topic ids disagree: no metrics for {sorted(opinions.keys() - report_ids)}, "
                f"no combination for {sorted(report_ids - opinions.keys())}"
            )
        in_order = [opinions[tid] for tid in ordered]
        for component, getter in getters:
            vector = result.spec.label + (component,)
            ys = list(map(getter, in_order))
            y_ranked = _ranked(ys, _cell(vector))
            for metric in metrics:
                key = vector + (metric,)
                try:
                    rho = _rank_correlation(x_ranked[metric], y_ranked)
                except ZeroVarianceError as exc:
                    raise ZeroVarianceError(f"{exc}: {_cell(key)}") from None
                table.append((key, xs[metric], ys, rho))
    return table


def correlate_components(
    result: CombinationResult,
    report: MetricReport,
    component: Component,
    metric: str = "map",
) -> float:
    """Spearman correlation between a fused-opinion component and a measure.

    Topic ids of the combination result and the metric report must agree
    exactly; any id present on only one side is an error.
    """
    return correlation_table([result], report, (component,), (metric,))[0][3]


def write_metric_report(report: MetricReport, stream: IO[str]) -> None:
    """TSV rows ``qid metric value``, then the means as rows of query id :data:`SUMMARY_ID`."""
    for qid in sorted(report.per_query):
        for metric in METRICS:
            stream.write(f"{qid}\t{metric}\t{report.per_query[qid][metric]:.4f}\n")
    for metric in METRICS:
        stream.write(f"{SUMMARY_ID}\t{metric}\t{report.means[metric]:.4f}\n")


def plot_column(values: Iterable[float]) -> list[str]:
    """One plot-file column: each value with six decimals."""
    return [f"{value:.6f}" for value in values]


def write_plot_data(x_column: Sequence[str], y_column: Sequence[str]) -> str:
    """A plot file's text: ``x y`` rows from two :func:`plot_column` results, measure first."""
    return "".join([f"{x} {y}\n" for x, y in zip(x_column, y_column)])
