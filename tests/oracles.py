"""Independent brute-force transcriptions of the evaluation definitions.

These are deliberately naive (fresh rescans instead of running counters,
counting-based ranks instead of sort-based ones) so that they share no
code path with the package implementations they check.  An instance is a
ranked list of document ids plus a docid -> grade judgment dict; grades
follow the 0..3 gain convention with grade > 0 meaning relevant.

:func:`parse_run_reference` and :func:`parse_qrels_reference` are the
readers the package had before it read each file in one flat loop, kept
verbatim (one ``_fields`` generator feeding a per-line query lookup).  They
share the package's line source, score rule, records and errors, and check
that the flat loop accepts, orders and rejects every input as they did.

:func:`evaluate_query_reference` is the per-query scorer the package had
before it walked only the judged ranks, kept verbatim with its
``_grades``, ``_dcg`` and ``_ndcg`` helpers: it looks up a grade at every
rank and computes each NDCG from a separate pass over the graded ranking.
The package's scorer, and its ``ndcg_at`` at every cutoff, must give the
same floats, bit for bit.
"""

from __future__ import annotations

import math
from functools import reduce
from math import fsum
from operator import add
from pathlib import Path
from typing import Iterable, Iterator

from polyrep.ireval import (
    _GRADE_OF,
    EVALUATION_DEPTH,
    GRADES,
    Qrels,
    QrelsParseError,
    RunList,
    RunParseError,
)
from polyrep.textprep import _decimal, reading


def _is_relevant(judgments: dict[str, int], docid: str) -> bool:
    return judgments.get(docid, 0) > 0 and docid in judgments


def ap_naive(ranked: list[str], judgments: dict[str, int]) -> float:
    total_relevant = sum(1 for grade in judgments.values() if grade > 0)
    if total_relevant == 0:
        return 0.0
    total = 0.0
    for position in range(1, len(ranked) + 1):
        docid = ranked[position - 1]
        if docid in judgments and judgments[docid] > 0:
            in_top = sum(
                1
                for other in ranked[:position]
                if other in judgments and judgments[other] > 0
            )
            total += in_top / position
    return total / total_relevant


def ndcg_naive(ranked: list[str], judgments: dict[str, int], k: int) -> float:
    def dcg(gains: list[int]) -> float:
        return fsum(
            gains[i] / math.log2(i + 2) for i in range(min(k, len(gains)))
        )

    ideal = dcg(sorted(judgments.values(), reverse=True))
    if ideal == 0.0:
        return 0.0
    return dcg([judgments.get(docid, 0) for docid in ranked]) / ideal


def precision_naive(ranked: list[str], judgments: dict[str, int], k: int) -> float:
    hits = 0
    for docid in ranked[:k]:
        if docid in judgments and judgments[docid] > 0:
            hits += 1
    return hits / k


def rr_naive(ranked: list[str], judgments: dict[str, int]) -> float:
    for position in range(1, len(ranked) + 1):
        docid = ranked[position - 1]
        if docid in judgments and judgments[docid] > 0:
            return 1.0 / position
    return 0.0


def bpref_naive(ranked: list[str], judgments: dict[str, int]) -> float:
    relevant = [d for d, g in judgments.items() if g > 0]
    nonrelevant = [d for d, g in judgments.items() if g == 0]
    if not relevant:
        return 0.0
    bound = min(len(relevant), len(nonrelevant))
    total = 0.0
    for position, docid in enumerate(ranked):
        if docid in judgments and judgments[docid] > 0:
            if bound == 0:
                total += 1.0
                continue
            above = sum(
                1
                for other in ranked[:position]
                if other in judgments and judgments[other] == 0
            )
            total += 1.0 - min(above, bound) / bound
    return total / len(relevant)


def average_ranks_naive(values: list[float]) -> list[float]:
    """Tie-averaged 1-based ranks straight from the counting definition."""
    ranks = []
    for value in values:
        smaller = sum(1 for other in values if other < value)
        equal = sum(1 for other in values if other == value)
        ranks.append(smaller + (equal + 1) / 2)
    return ranks


def spearman_naive(xs: list[float], ys: list[float]) -> float:
    rx = average_ranks_naive(list(xs))
    ry = average_ranks_naive(list(ys))
    n = len(rx)
    mean_x = fsum(rx) / n
    mean_y = fsum(ry) / n
    cov = fsum((a - mean_x) * (b - mean_y) for a, b in zip(rx, ry))
    var_x = fsum((a - mean_x) ** 2 for a in rx)
    var_y = fsum((b - mean_y) ** 2 for b in ry)
    return cov / math.sqrt(var_x * var_y)


def doubled_ranks_naive(values: list[float]) -> list[int]:
    """Twice the tie-averaged 1-based ranks, counted: 2 * smaller + equal + 1."""
    return [2 * sum(1 for other in values if other < value)
            + sum(1 for other in values if other == value) + 1
            for value in values]


def rank_correlation_five_sums(xs: list[float], ys: list[float]) -> float | None:
    """Spearman's rho by five integer sums over doubled ranks; None where a rank vector is constant.

    This is the formula the package used before it reduced each rank vector
    to its variance term once: the covariance and both variances each take
    their own sums, and no sum is assumed to be n(n + 1).
    """
    rx, ry = doubled_ranks_naive(list(xs)), doubled_ranks_naive(list(ys))
    n = len(rx)
    sum_x = sum(rx)
    sum_y = sum(ry)
    covariance = n * sum(a * b for a, b in zip(rx, ry)) - sum_x * sum_y
    variance_x = n * sum(a * a for a in rx) - sum_x * sum_x
    variance_y = n * sum(b * b for b in ry) - sum_y * sum_y
    if variance_x == 0 or variance_y == 0:
        return None
    if covariance * covariance == variance_x * variance_y:
        return 1.0 if covariance > 0 else -1.0
    return covariance / math.sqrt(float(variance_x) * float(variance_y))


def _fields(
    source: str | Path | Iterable[str], width: int, error: type[ValueError]
) -> Iterator[tuple[int, list[str]]]:
    """Each nonblank line of ``source`` as (1-based line number, its fields).

    A path is read lazily, one line at a time; a line without exactly
    ``width`` whitespace-separated fields raises ``error``.
    """
    with reading(source, error) as lines:
        for number, line in enumerate(lines, start=1):
            fields = line.split()
            if not fields:
                continue
            if len(fields) != width:
                raise error(f"line {number}: expected {width} fields, got {len(fields)}")
            yield number, fields


def parse_run_reference(source: str | Path | Iterable[str]) -> RunList:
    """Parse a run file; duplicate documents within a query are rejected."""
    scored: dict[str, dict[str, float]] = {}
    for number, (qid, _, docid, _, score_text, _) in _fields(source, 6, RunParseError):
        try:
            score = _decimal(score_text)
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


def parse_qrels_reference(source: str | Path | Iterable[str]) -> Qrels:
    """Parse graded judgments; one grade per (query, document) pair."""
    grades: dict[str, dict[str, int]] = {}
    for number, (qid, _, docid, grade_text) in _fields(source, 4, QrelsParseError):
        grade = _GRADE_OF.get(grade_text)
        if grade is None:
            raise QrelsParseError(
                f"line {number}: grade must be one of {GRADES}, got {grade_text!r}")
        per_query = grades.setdefault(qid, {})
        if docid in per_query:
            raise QrelsParseError(f"line {number}: duplicate judgment for {qid!r}/{docid!r}")
        per_query[docid] = grade
    return Qrels(grades)


def _grades_reference(run: RunList, qrels: Qrels, qid: str) -> tuple[list[int | None], list[int]]:
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


def evaluate_query_reference(run: RunList, qrels: Qrels, qid: str) -> dict[str, float]:
    """The six measures of one query: one judgment lookup, one walk of the ranking.

    R judged documents have grade > 0 (relevant) and N grade 0.  bpref
    charges each retrieved relevant document the judged documents of grade
    <= 0 ranked above it, capped at min(R, N) and divided by it (nothing
    when min(R, N) is 0), and skips unjudged ones.  p10 counts missing
    top-10 ranks as misses.  map and bpref divide by R, and are 0 if R is 0.
    """
    ranked, ideal_gains = _grades_reference(run, qrels, qid)
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
