"""Retrieval-run evaluation against graded judgments, plus rank correlation.

Runs use the standard six-column interchange format (``qid Q0 docid rank
score tag``); ranks are recomputed from the scores so the rank column in
the file is never trusted.  Judgments (``qid 0 docid grade``) carry grades
0-3 read as gains 0/1/2/3; binary metrics treat grade > 0 as relevant.

Six effectiveness measures are computed per query and averaged over every
judged query: average precision (reported as map), NDCG at the evaluation
depth, bpref, P@10, NDCG@10 and reciprocal rank (mrr).  Queries without
relevant judgments score zero and stay in the mean.

:func:`spearman` is the rank correlation used to relate fused-opinion
components to per-query effectiveness.  Ranks are tie-averaged; because
averaged ranks are exact half-integers the correlation is evaluated in
integer arithmetic, so perfectly concordant and perfectly discordant
inputs return exactly +/-1.0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Sequence

from .combine import CombinationResult

#: Evaluation depth: only the strongest-scored documents per query count.
EVALUATION_DEPTH = 1000

GRADES = (0, 1, 2, 3)

METRICS = ("map", "ndcg", "bpref", "p10", "ndcg10", "mrr")


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


@dataclass(frozen=True)
class Qrels:
    """Graded judgments: query id -> document id -> grade in 0..3."""

    grades: Mapping[str, Mapping[str, int]]


@dataclass(frozen=True)
class RunList:
    """Per query, documents ordered by descending score (doc id breaks ties).

    ``cut`` counts, for each query that retrieved more than
    :data:`EVALUATION_DEPTH` documents, how many were dropped from its ranking.
    """

    rankings: Mapping[str, tuple[tuple[str, float], ...]]
    cut: Mapping[str, int] = field(default_factory=dict)


def _fields(
    source: str | Path | Iterable[str], width: int, error: type[ValueError]
) -> Iterator[tuple[int, list[str]]]:
    """Each nonblank line of ``source`` as (1-based line number, its fields).

    A path is read lazily, one line at a time; a line without exactly
    ``width`` whitespace-separated fields raises ``error``.
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            yield from _fields(fh, width, error)
        return
    for number, line in enumerate(source, start=1):
        fields = line.split()
        if not fields:
            continue
        if len(fields) != width:
            raise error(f"line {number}: expected {width} fields, got {len(fields)}")
        yield number, fields


def parse_run(source: str | Path | Iterable[str]) -> RunList:
    """Parse a run file; duplicate documents within a query are rejected."""
    scored: dict[str, dict[str, float]] = {}
    for number, (qid, _, docid, _, score_text, _) in _fields(source, 6, RunParseError):
        try:
            score = float(score_text)
        except ValueError as exc:
            raise RunParseError(f"line {number}: bad score {score_text!r}") from exc
        if not math.isfinite(score):
            raise RunParseError(f"line {number}: non-finite score {score_text!r}")
        per_query = scored.setdefault(qid, {})
        if docid in per_query:
            raise RunParseError(f"line {number}: duplicate document {docid!r} for query {qid!r}")
        per_query[docid] = score
    rankings, cut = {}, {}
    for qid, docs in scored.items():
        ordered = sorted(docs.items(), key=lambda item: (-item[1], item[0]))
        rankings[qid] = tuple(ordered[:EVALUATION_DEPTH])
        if len(ordered) > EVALUATION_DEPTH:
            cut[qid] = len(ordered) - EVALUATION_DEPTH
    return RunList(rankings, cut)


def parse_qrels(source: str | Path | Iterable[str]) -> Qrels:
    """Parse graded judgments; one grade per (query, document) pair."""
    grades: dict[str, dict[str, int]] = {}
    for number, (qid, _, docid, grade_text) in _fields(source, 4, QrelsParseError):
        try:
            grade = int(grade_text)
        except ValueError as exc:
            raise QrelsParseError(f"line {number}: bad grade {grade_text!r}") from exc
        if grade not in GRADES:
            raise QrelsParseError(f"line {number}: grade must be one of {GRADES}, got {grade}")
        per_query = grades.setdefault(qid, {})
        if docid in per_query:
            raise QrelsParseError(f"line {number}: duplicate judgment for {qid!r}/{docid!r}")
        per_query[docid] = grade
    return Qrels(grades)


def average_precision(run: RunList, qrels: Qrels, qid: str) -> float:
    """Mean of precision values at the ranks of retrieved relevant documents."""
    judged = qrels.grades.get(qid, {})
    total_relevant = sum(1 for grade in judged.values() if grade > 0)
    if total_relevant == 0:
        return 0.0
    hits = 0
    precision_sum = 0.0
    for rank, (docid, _) in enumerate(run.rankings.get(qid, ()), start=1):
        if judged.get(docid, 0) > 0:
            hits += 1
            precision_sum += hits / rank
    return precision_sum / total_relevant


def ndcg_at(run: RunList, qrels: Qrels, qid: str, k: int) -> float:
    """Discounted cumulative gain in the top k, normalised by the ideal ordering."""
    judged = qrels.grades.get(qid, {})
    ideal_gains = sorted(judged.values(), reverse=True)
    ideal = sum(gain / math.log2(i + 1) for i, gain in enumerate(ideal_gains[:k], start=1))
    if ideal == 0.0:
        return 0.0
    actual = 0.0
    for rank, (docid, _) in enumerate(run.rankings.get(qid, ())[:k], start=1):
        gain = judged.get(docid, 0)
        if gain:
            actual += gain / math.log2(rank + 1)
    return actual / ideal


def precision_at(run: RunList, qrels: Qrels, qid: str, k: int = 10) -> float:
    """Fraction of the top k that is relevant; short rankings count as misses."""
    judged = qrels.grades.get(qid, {})
    hits = sum(1 for docid, _ in run.rankings.get(qid, ())[:k] if judged.get(docid, 0) > 0)
    return hits / k


def mrr(run: RunList, qrels: Qrels, qid: str) -> float:
    """Reciprocal rank of the first relevant retrieved document, else zero."""
    judged = qrels.grades.get(qid, {})
    for rank, (docid, _) in enumerate(run.rankings.get(qid, ()), start=1):
        if judged.get(docid, 0) > 0:
            return 1.0 / rank
    return 0.0


def bpref(run: RunList, qrels: Qrels, qid: str) -> float:
    """Binary preference over judged documents only.

    Each retrieved relevant document contributes 1 minus the (capped)
    number of judged nonrelevant documents ranked above it, normalised by
    min(R, N); unjudged documents are invisible to the measure.  When there
    are no judged nonrelevant documents every retrieved relevant document
    contributes 1.
    """
    judged = qrels.grades.get(qid, {})
    total_relevant = sum(1 for grade in judged.values() if grade > 0)
    if total_relevant == 0:
        return 0.0
    total_nonrelevant = sum(1 for grade in judged.values() if grade == 0)
    bound = min(total_relevant, total_nonrelevant)
    contribution = 0.0
    nonrelevant_above = 0
    for docid, _ in run.rankings.get(qid, ()):
        grade = judged.get(docid)
        if grade is None:
            continue
        if grade > 0:
            if bound == 0:
                contribution += 1.0
            else:
                contribution += 1.0 - min(nonrelevant_above, bound) / bound
        else:
            nonrelevant_above += 1
    return contribution / total_relevant


@dataclass(frozen=True)
class MetricReport:
    """Per-query and mean values for the six effectiveness measures."""

    per_query: Mapping[str, Mapping[str, float]]
    means: Mapping[str, float]

    def query_ids(self) -> list[str]:
        return sorted(self.per_query)


def evaluate_query(run: RunList, qrels: Qrels, qid: str) -> dict[str, float]:
    return {
        "map": average_precision(run, qrels, qid),
        "ndcg": ndcg_at(run, qrels, qid, EVALUATION_DEPTH),
        "bpref": bpref(run, qrels, qid),
        "p10": precision_at(run, qrels, qid, 10),
        "ndcg10": ndcg_at(run, qrels, qid, 10),
        "mrr": mrr(run, qrels, qid),
    }


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
        metric: sum(per_query[qid][metric] for qid in judged) / len(judged)
        for metric in METRICS
    }
    return MetricReport(per_query, means)


def _average_ranks_doubled(values: Sequence[float]) -> list[int]:
    """Tie-averaged ranks, scaled by two so they stay integers."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    doubled = [0] * len(values)
    start = 0
    while start < len(order):
        stop = start
        while stop + 1 < len(order) and values[order[stop + 1]] == values[order[start]]:
            stop += 1
        # positions start+1 .. stop+1 share the averaged rank
        rank2 = start + stop + 2
        for i in range(start, stop + 1):
            doubled[order[i]] = rank2
        start = stop + 1
    return doubled


def spearman(xs: Sequence[float], ys: Sequence[float]) -> float:
    """Rank correlation with tie-averaged ranks.

    The Pearson correlation of the rank vectors is evaluated exactly in
    integer arithmetic; only the final quotient is floating point.
    """
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    if len(xs) < 2:
        raise ValueError("need at least two observations")
    n = len(xs)
    rx = _average_ranks_doubled(xs)
    ry = _average_ranks_doubled(ys)
    sum_x = sum(rx)
    sum_y = sum(ry)
    covariance = n * sum(a * b for a, b in zip(rx, ry)) - sum_x * sum_y
    variance_x = n * sum(a * a for a in rx) - sum_x * sum_x
    variance_y = n * sum(b * b for b in ry) - sum_y * sum_y
    if variance_x == 0 or variance_y == 0:
        raise ZeroVarianceError("rank correlation undefined for a constant vector")
    if covariance * covariance == variance_x * variance_y:
        return 1.0 if covariance > 0 else -1.0
    return covariance / math.sqrt(float(variance_x) * float(variance_y))


def _component_by_topic(result: CombinationResult, component: Component) -> dict[str, float]:
    return {
        topic_id: getattr(opinion, component.value) for topic_id, opinion, _ in result.per_topic
    }


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
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {METRICS}")
    component_by_topic = _component_by_topic(result, component)
    result_ids = set(component_by_topic)
    report_ids = set(report.per_query)
    if result_ids != report_ids:
        missing_metrics = sorted(result_ids - report_ids)
        missing_topics = sorted(report_ids - result_ids)
        raise TopicAlignmentError(
            f"topic ids disagree: no metrics for {missing_metrics}, "
            f"no combination for {missing_topics}"
        )
    ordered = sorted(result_ids)
    xs = [report.per_query[tid][metric] for tid in ordered]
    ys = [component_by_topic[tid] for tid in ordered]
    return spearman(xs, ys)


def write_metric_report(report: MetricReport, stream: IO[str]) -> None:
    """TSV rows ``qid metric value`` plus ``all metric value`` summaries."""
    for qid in report.query_ids():
        for metric in METRICS:
            stream.write(f"{qid}\t{metric}\t{report.per_query[qid][metric]:.4f}\n")
    for metric in METRICS:
        stream.write(f"all\t{metric}\t{report.means[metric]:.4f}\n")


def write_plot_data(
    result: CombinationResult,
    report: MetricReport,
    component: Component,
    metric: str,
    stream: IO[str],
) -> None:
    """Two-column ``x y`` rows: per-topic measure against opinion component."""
    component_by_topic = _component_by_topic(result, component)
    for tid in sorted(component_by_topic):
        x = report.per_query[tid][metric]
        stream.write(f"{x:.6f} {component_by_topic[tid]:.6f}\n")
