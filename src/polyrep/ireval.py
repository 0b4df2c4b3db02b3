"""Retrieval-run evaluation against graded judgments, plus rank correlation.

Runs use the standard six-column interchange format (``qid Q0 docid rank
score tag``); ranks are recomputed from the scores, so the rank column is
never trusted.  Scores are read only to order each query's documents, and
a ranking keeps its doc ids alone, joined by spaces: as each came from
``str.split``, none holds whitespace and ``split`` gives them back exactly.
Judgments (``qid 0 docid grade``) carry grades 0-3 read as gains 0/1/2/3;
binary metrics treat grade > 0 as relevant.  A query's judgments are held
as its doc ids joined by spaces plus one byte per grade.  Each file's lines
go through one loop, and each query is packed (a run's ranked) when its
first block of lines ends.  Until the file ends, every ranked query of a run
keeps its top scores (8 bytes each) and its cut doc ids as one string, so
that a later block of it can be merged; a query whose lines do resume is
unpacked, held open from then on and packed once more when the file ends.
A file of at least 2 MiB is read in two processes where that is safe: a fork
runs the loop over the lines from the first query boundary past the middle
and sends its queries back through a pipe.  That result is kept only when
both parts were read without error and no query is in both; otherwise the
whole file is read again in one process, so results and errors never differ.

Six effectiveness measures are computed per query by :func:`evaluate_query`
and averaged over every judged query: average precision (reported as map),
NDCG at the evaluation depth, bpref, P@10, NDCG@10 and reciprocal rank (mrr).
An unjudged rank adds to no measure, so each query's judged ranks are listed
once, with their grades: one walk of them gives map, bpref, P@10 and mrr,
and one function computes NDCG at any cutoff from them, both NDCGs here and
:func:`ndcg_at`.  Queries without relevant judgments score zero and stay in
the mean.  The module loads no combination code: the correlation functions
read only the fields of the results they are given.

:func:`spearman` is the rank correlation used to relate fused-opinion
components to per-query effectiveness; :func:`correlation_table` ranks
each vector once for every cell.  Ranks are tie-averaged and doubled, so
they are integers summing to n(n+1): each vector's variance term is
computed once, each cell needs one integer dot product, and perfectly
concordant and discordant inputs give exactly +/-1.0.  A NaN or infinite
value is rejected, naming its vector.
"""

from __future__ import annotations

import enum
import math
import os
from bisect import bisect
from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from functools import reduce
from itertools import compress, groupby
from operator import add, attrgetter, itemgetter, mul
from struct import pack
from types import MappingProxyType
from typing import IO, TYPE_CHECKING, NamedTuple

from .textprep import Source, _decimal, reading

if TYPE_CHECKING:
    from .combine import CombinationResult

#: Evaluation depth: only the strongest-scored documents per query count.
EVALUATION_DEPTH = 1000

GRADES = (0, 1, 2, 3)
_GRADE_OF = {str(grade): grade for grade in GRADES}  # only these exact spellings are grades

METRICS = ("map", "ndcg", "bpref", "p10", "ndcg10", "mrr")

#: The query id of the metric report's mean rows, so no run or judgment may use it.
SUMMARY_ID = "all"

#: A correlation row: the seven fields naming its cell, then the correlation.  The first
#: five are those of ``combine.REPORT_HEADER``, spelled out so that scoring a run loads no
#: combination code.
CORRELATION_COLUMNS = ("level", "operator", "rep_a", "rep_b", "order", "component", "metric",
                       "rho")


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
    """Graded judgments: query id -> document id -> grade in 0..3.

    :func:`parse_qrels` holds each query's judgments as one string of its doc ids and one
    ``bytes`` of their grades, and a lookup gives the dict of them.
    """

    grades: Mapping[str, Mapping[str, int]]


class RunList(NamedTuple):
    """Per query, its doc ids in rank order: descending score, doc id breaking ties.

    The scores are not kept, and :func:`parse_run` holds each ranking as one
    string of its doc ids; until the file ends, each ranked query also keeps
    8 bytes per top score and its cut doc ids as one string.  ``cut`` counts,
    for each query that retrieved more than :data:`EVALUATION_DEPTH` documents,
    how many were dropped from its ranking.
    """

    rankings: Mapping[str, tuple[str, ...]]
    cut: Mapping[str, int] = MappingProxyType({})


class _Packed(Mapping):
    """Query id -> packed value, read through ``unpack`` (module-level, so it pickles)."""

    __slots__ = ("_packed", "_unpack")

    def __init__(self, packed: dict[str, object], unpack: Callable[[object], object]) -> None:
        self._packed, self._unpack = packed, unpack

    def __getitem__(self, qid: str) -> object:
        return self._unpack(self._packed[qid])

    def __iter__(self) -> Iterator[str]:
        return iter(self._packed)

    def __len__(self) -> int:
        return len(self._packed)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


def _ranking(joined: str) -> tuple[str, ...]:
    """A ranking's doc ids from their space-joined string."""
    return tuple(joined.split())


def _judgments(packed: tuple[str, bytes]) -> dict[str, int]:
    """A query's doc id -> grade from :func:`_pack_judgments`."""
    ids, grades = packed
    return dict(zip(ids.split(), grades))


def _pack_judgments(judged: dict[str, int]) -> tuple[str, bytes]:
    """A query's judged doc ids joined by spaces, and their grades as one byte each."""
    return " ".join(judged), bytes(judged.values())


def _rank_block(docs: Mapping[str, float]) -> tuple[str, bytes, str]:
    """A query's ranking, its top negated scores as packed doubles, and its cut doc ids."""
    ordered = sorted(zip(docs.values(), docs))  # (-score, docid), built in C
    scores = sorted(docs.values())[:EVALUATION_DEPTH]  # in rank order; a tied 0.0 and -0.0 may swap
    return (" ".join(map(itemgetter(1), ordered[:EVALUATION_DEPTH])),
            pack(f"{len(scores)}d", *scores),
            " ".join(map(itemgetter(1), ordered[EVALUATION_DEPTH:])))


def _reopened(ranking: str, scores: bytes, cut: str) -> dict[str, float]:
    """A ranked query's documents again: kept scores, then cut ids at ``math.inf`` after them."""
    docs = dict.fromkeys(cut.split(), math.inf)
    docs.update(zip(ranking.split(), memoryview(scores).cast("d")))
    return docs


#: A path source of at least this many bytes is read in two processes where it can be.  On
#: 2 cores, forking and reaping take about 1.5-2.2 ms, but a split also costs CPU time: a
#: 1.4 MB judgments file read 5 ms faster for 17 ms more CPU, a 2 MiB run 12 ms faster.
_SPLIT_BYTES = 2 << 20


def _blocks(source: Source, error: type[ValueError],
            blocks_of: Callable[[Iterable[str]], dict]) -> dict:
    """``blocks_of`` the lines of ``source``, read in two processes where that pays.

    A path of at least :data:`_SPLIT_BYTES` goes to :func:`polyrep._split.split_blocks`,
    whose result is kept only when both parts were read without error and no query id is in
    both; otherwise the whole file is read again here, so every result and error is the
    one-process reader's.
    """
    if isinstance(source, (str, os.PathLike)):
        try:
            if os.stat(source).st_size >= _SPLIT_BYTES:
                from ._split import split_blocks  # compiled only where a file is this large
                blocks = split_blocks(os.fspath(source), blocks_of)
                if blocks is not None:
                    return blocks
        except (OSError, ValueError):  # raised again, as one process raises it, below
            pass
    with reading(source, error) as lines:
        return blocks_of(lines)


def _run_blocks(lines: Iterable[str]) -> dict[str, tuple[str, str]]:
    """Query id -> (ranking, cut doc ids) of a run's lines; see :func:`parse_run`."""
    blocks: dict[str, tuple[str, bytes, str]] = {}  # query id -> _rank_block
    resumed: dict[str, dict[str, float]] = {}  # query id -> its open documents
    last = per_query = None
    fresh = False  # the current block is its query's first
    for number, fields in enumerate(map(str.split, lines), start=1):
        try:
            qid, _, docid, _, score_text, _ = fields
        except ValueError:
            if fields:
                raise RunParseError(f"line {number}: expected 6 fields, got {len(fields)}")
            continue
        try:
            score = -_decimal(score_text)  # negated, so ascending order ranks best first
        except ValueError as exc:
            raise RunParseError(f"line {number}: bad score {score_text!r}") from exc
        if not math.isfinite(score):
            raise RunParseError(f"line {number}: non-finite score {score_text!r}")
        if qid != last:  # a block of the previous query ends here
            if qid == SUMMARY_ID:
                raise RunParseError(f"line {number}: query id {qid!r} names the summary rows")
            if fresh:
                blocks[last] = _rank_block(per_query)
            last, per_query, fresh = qid, resumed.get(qid), False
            if per_query is None:
                if qid in blocks:  # its lines resume: held open until the file ends
                    per_query = resumed[qid] = _reopened(*blocks[qid])
                else:
                    per_query, fresh = {}, True
        if docid in per_query:
            raise RunParseError(f"line {number}: duplicate document {docid!r} for query {qid!r}")
        per_query[docid] = score
    if fresh:
        blocks[last] = _rank_block(per_query)
    while resumed:  # an open query's scores are freed once it is ranked
        qid, docs = resumed.popitem()
        blocks[qid] = _rank_block(docs)
    return {qid: (ranking, cut) for qid, (ranking, _, cut) in blocks.items()}


def parse_run(source: Source) -> RunList:
    """Parse a run file; duplicate documents within a query are rejected.

    Each query is ranked when its first block of lines ends, keeping what :func:`_reopened`
    needs to merge a later block exactly; if its lines resume, it is ranked again at the end.
    A large file may be read in two processes (:func:`_blocks`), with the same result.
    """
    blocks = _blocks(source, RunParseError, _run_blocks)
    return RunList(_Packed({qid: ranking for qid, (ranking, _) in blocks.items()}, _ranking),
                   {qid: cut.count(" ") + 1 for qid, (_, cut) in blocks.items() if cut})


def _qrels_blocks(lines: Iterable[str]) -> dict[str, tuple[str, bytes]]:
    """Query id -> :func:`_pack_judgments` of a judgments file's lines; see :func:`parse_qrels`."""
    blocks: dict[str, tuple[str, bytes]] = {}  # query id -> _pack_judgments
    resumed: dict[str, dict[str, int]] = {}  # query id -> its open judgments
    last = per_query = None
    fresh = False  # the current block is its query's first
    for number, fields in enumerate(map(str.split, lines), start=1):
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
        if qid != last:  # a block of the previous query ends here
            if qid == SUMMARY_ID:
                raise QrelsParseError(f"line {number}: query id {qid!r} names the summary rows")
            if fresh:
                blocks[last] = _pack_judgments(per_query)
            last, per_query, fresh = qid, resumed.get(qid), False
            if per_query is None:
                if qid in blocks:  # its lines resume: held open until the file ends
                    per_query = resumed[qid] = _judgments(blocks[qid])
                else:
                    per_query, fresh = {}, True
        if docid in per_query:
            raise QrelsParseError(f"line {number}: duplicate judgment for {qid!r}/{docid!r}")
        per_query[docid] = grade
    if fresh:
        blocks[last] = _pack_judgments(per_query)
    while resumed:  # an open query's dict is freed once it is packed
        qid, judged = resumed.popitem()
        blocks[qid] = _pack_judgments(judged)
    return blocks


def parse_qrels(source: Source) -> Qrels:
    """Parse graded judgments; one grade per (query, document) pair.

    Each query is packed when its first block of lines ends; if its lines resume, it is
    unpacked once, held open and packed again at the end, as :func:`parse_run` ranks.
    A large file may be read in two processes (:func:`_blocks`), with the same result.
    """
    return Qrels(_Packed(_blocks(source, QrelsParseError, _qrels_blocks), _judgments))


def without_relevant(qrels: Qrels) -> list[str]:
    """The query ids, in order, that judge no document relevant; parsed ones are not unpacked."""
    if type(qrels.grades) is _Packed:
        return [qid for qid, (_, grades) in qrels.grades._packed.items() if not any(grades)]
    return [qid for qid, judged in qrels.grades.items() if not any(judged.values())]


def _judged_ranks(run: RunList, qrels: Qrels, qid: str) -> tuple[list[int], list[tuple[int, int]]]:
    """A query's judged grades, best first, and (rank, grade) of each judged rank to the depth."""
    judged = qrels.grades.get(qid, {})
    ranking = run.rankings.get(qid, ())[:EVALUATION_DEPTH]
    return (sorted(judged.values(), reverse=True),
            [(rank, judged[docid]) for rank, docid in
             compress(enumerate(ranking, start=1), map(judged.__contains__, ranking))])


def _dcg(graded_ranks: Iterable[tuple[int, int]]) -> float:
    """Discounted gain of (rank, grade) pairs, added left to right: sum() compensates since 3.12."""
    return reduce(add, (grade / math.log2(rank + 1) for rank, grade in graded_ranks if grade), 0.0)


def _ndcg(ideal_gains: list[int], judged_ranks: list[tuple[int, int]], k: int) -> float:
    """DCG of the judged ranks up to k over that of the top k ideal gains (0 if that is 0)."""
    ideal = _dcg(enumerate(ideal_gains[:k], start=1))
    return _dcg(judged_ranks[:bisect(judged_ranks, k, key=itemgetter(0))]) / ideal if ideal else 0.0


def evaluate_query(run: RunList, qrels: Qrels, qid: str) -> dict[str, float]:
    """The six measures of one query, from its judged ranks (:func:`_judged_ranks`).

    R judged documents have grade > 0 (relevant) and N grade 0.  bpref
    charges each retrieved relevant document the judged documents of grade
    <= 0 ranked above it, capped at min(R, N) and divided by it (nothing
    when min(R, N) is 0), and skips unjudged ones.  p10 counts missing
    top-10 ranks as misses.  map and bpref divide by R, and are 0 if R is 0.
    Every measure reads only the first :data:`EVALUATION_DEPTH` ranks, as
    many as :func:`parse_run` keeps.  Unjudged ranks add to no measure, so
    one walk of the judged ranks gives map, bpref, p10 and mrr, and both
    NDCGs come from :func:`_ndcg` over the same ranks, as :func:`ndcg_at` does.
    """
    ideal_gains, judged_ranks = _judged_ranks(run, qrels, qid)
    nonrelevant = ideal_gains.count(0)
    relevant = len(ideal_gains) - nonrelevant
    bound = min(relevant, nonrelevant)
    hits = top_hits = first = nonrelevant_above = 0
    precision_sum = preference = 0.0
    for rank, grade in judged_ranks:
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
        "ndcg": _ndcg(ideal_gains, judged_ranks, EVALUATION_DEPTH),
        "bpref": preference / relevant if relevant else 0.0,
        "p10": top_hits / 10,
        "ndcg10": _ndcg(ideal_gains, judged_ranks, 10),
        "mrr": 1.0 / first if first else 0.0,
    }


def ndcg_at(run: RunList, qrels: Qrels, qid: str, k: int) -> float:
    """Discounted cumulative gain in the top k (k >= 1), normalised by the ideal ordering."""
    if type(k) is not int:
        raise TypeError(f"k must be an integer, got {type(k).__name__}")
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    return _ndcg(*_judged_ranks(run, qrels, qid), k)


class MetricReport(NamedTuple):
    """Per-query and mean values for the six effectiveness measures."""

    per_query: Mapping[str, Mapping[str, float]]
    means: Mapping[str, float]


def evaluate_run(run: RunList, qrels: Qrels) -> MetricReport:
    """Score every judged query; queries absent from the run score zero.

    A run that retrieved nothing is still evaluated; a nonempty run sharing no
    query id with the judgments is rejected as a likely input mix-up.
    """
    judged = sorted(qrels.grades)
    if not judged:
        raise NoOverlapError("judgments contain no queries")
    if run.rankings and not set(judged) & set(run.rankings):
        raise NoOverlapError("run and judgments share no query id")
    per_query = {qid: evaluate_query(run, qrels, qid) for qid in judged}
    means = {metric: reduce(add, (per_query[qid][metric] for qid in judged), 0.0) / len(judged)
             for metric in METRICS}
    return MetricReport(per_query, means)


def _average_ranks_doubled(values: Sequence[float]) -> list[int]:
    """Tie-averaged ranks, scaled by two so they stay integers."""
    doubled, start = [0] * len(values), 0
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

    A NaN or infinite value raises ValueError naming ``name``: sorting with NaN is ill-defined.
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
    """Rank correlation with tie-averaged ranks, exact in integers; NaN or inf raises ValueError."""
    if len(xs) != len(ys):
        raise ValueError(f"length mismatch: {len(xs)} vs {len(ys)}")
    return _rank_correlation(_ranked(xs, "xs"), _ranked(ys, "ys"))


def _cell(key: tuple[str, ...]) -> str:
    """The leading :data:`CORRELATION_COLUMNS` named by ``key``, as ``name=value`` pairs."""
    return " ".join(map("=".join, zip(CORRELATION_COLUMNS, key)))


def correlation_table(results: Sequence[CombinationResult], report: MetricReport,
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


def correlate_components(result: CombinationResult, report: MetricReport, component: Component,
                         metric: str = "map") -> float:
    """Spearman correlation between a fused-opinion component and a measure.

    The result's and the report's topic ids must agree exactly, or it raises TopicAlignmentError.
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
