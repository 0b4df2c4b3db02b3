"""Pairwise combination of query context representations per topic.

A topic carries a query (its keyword representation) plus four textual
context representations.  Every unordered pair of context representations
is combined with the consensus operator, and every ordered pair with the
recommendation operator: term sets are extracted at a preprocessing level,
turned into evidence counts against the query, mapped to opinions, fused,
and summarised by the probability expectation of the fused opinion.  The
per-topic expectations are aggregated into one combination probability per
(level, pair, operator, order) cell, mirroring the layout of a published
combination table.

A :class:`CombinationSpec` names a cell and nothing else.  The prior base
rate alpha and the positive-evidence rule are parameters of the whole run,
given once to :func:`run_matrix` (or to :func:`combine_topic` for one
topic).  Aggregation across topics is either MACRO (mean of per-topic
expectations, the default) or POOLED (evidence counts summed over all
topics before a single mapping and fusion).
"""

from __future__ import annotations

import enum
import json
from functools import cache, reduce
from itertools import combinations, groupby
from operator import add
from typing import IO, Iterable, Iterator, NamedTuple, Sequence

from .evidence import (
    EvidencePair,
    PositiveRule,
    consensus_evidence,
    recommendation_evidence,
)
from .opinions import EvidenceCounts, Opinion, consensus, expectation, from_evidence, recommendation
from .textprep import PrepLevel, Source, Stems, TermSet, reading, term_sets

#: The four context representations combined pairwise; the keyword
#: representation always plays the role of the query.
REPRESENTATIONS = ("information_need", "background", "work_task", "ideal_answer")

#: A topic's five texts: the context representations, then the keywords.
TOPIC_TEXTS = (*REPRESENTATIONS, "keywords")

TOPIC_FIELDS = ("id", *TOPIC_TEXTS)

DEFAULT_ALPHA = 0.5


class EmptyTopicListError(ValueError):
    """Raised when a combination matrix is requested for zero topics."""


class TopicParseError(ValueError):
    """Raised for malformed topic records, with a 1-based line number."""


class FusionOperator(enum.Enum):
    CONSENSUS = "consensus"
    RECOMMENDATION = "recommendation"


class CombinationOrder(enum.Enum):
    """Operand order for the non-commutative recommendation operator.

    AB discounts rep_b's opinion by trust derived from rep_a's evidence;
    BA swaps the roles.  Consensus ignores the order.
    """

    AB = "AB"
    BA = "BA"


class AggregationMode(enum.Enum):
    MACRO = "macro"
    POOLED = "pooled"


class Topic(NamedTuple("Topic", [(name, str) for name in TOPIC_FIELDS])):
    """One query with its five textual representations, every field a str."""

    __slots__ = ()

    def __new__(cls, id: str, information_need: str, background: str, work_task: str,
                ideal_answer: str, keywords: str) -> Topic:
        fields = (id, information_need, background, work_task, ideal_answer, keywords)
        for name, value in zip(cls._fields, fields):
            if not isinstance(value, str):
                raise TypeError(f"topic field {name} must be a str, got {type(value).__name__}")
            if not value.isascii():  # JSON can spell a lone surrogate, which is not text
                try:
                    value.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(f"topic field {name} holds an unpaired surrogate") from None
        if id.split() != [id]:
            raise ValueError(f"topic id {id!r} must be one token without whitespace")
        if not keywords.strip():
            raise ValueError(f"topic {id!r}: keywords must be nonempty")
        return tuple.__new__(cls, fields)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class CombinationSpec(NamedTuple("CombinationSpec", [
        ("rep_a", str), ("rep_b", str), ("operator", FusionOperator), ("level", PrepLevel),
        ("order", CombinationOrder | None)])):
    """One cell of the combination matrix; only a recommendation cell has an order."""

    __slots__ = ()

    def __new__(cls, rep_a: str, rep_b: str, operator: FusionOperator, level: PrepLevel,
                order: CombinationOrder | None = None) -> CombinationSpec:
        for name, value, kind in (("operator", operator, FusionOperator),
                                  ("level", level, PrepLevel), ("order", order, CombinationOrder)):
            if not isinstance(value, kind) and (name, value) != ("order", None):
                raise ValueError(f"{name} {value!r} is not a {kind.__name__}")
        for rep in (rep_a, rep_b):
            if rep not in REPRESENTATIONS:
                raise ValueError(f"unknown representation {rep!r}")
        if rep_a == rep_b:
            raise ValueError("rep_a and rep_b must differ")
        if (order is None) is not (operator is FusionOperator.CONSENSUS):
            raise ValueError("a consensus cell takes no order and a recommendation cell needs one")
        return tuple.__new__(cls, (rep_a, rep_b, operator, level, order))

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @property
    def order_label(self) -> str:
        return "-" if self.order is None else self.order.value

    @property
    def label(self) -> tuple[str, str, str, str, str]:
        """The five strings naming this cell in every report.

        They are its level, operator, rep_a, rep_b and order, as in :data:`REPORT_HEADER`.
        """
        return (self.level.value, self.operator.value, self.rep_a, self.rep_b, self.order_label)


class CombinationResult(NamedTuple):
    spec: CombinationSpec
    per_topic: tuple[tuple[str, Opinion, float], ...]
    aggregate_probability: float


def _evidence(by_text: dict[str, dict[PrepLevel, TermSet]], spec: CombinationSpec,
              positive_rule: PositiveRule) -> EvidencePair:
    set_a, set_b = by_text[spec.rep_a][spec.level], by_text[spec.rep_b][spec.level]
    query = by_text["keywords"][spec.level]
    if spec.operator is FusionOperator.CONSENSUS:
        return consensus_evidence(set_a, set_b, query, positive_rule)
    return recommendation_evidence(set_a, set_b, query)


def _fuse(opinion_a: Opinion, opinion_b: Opinion, spec: CombinationSpec) -> Opinion:
    if spec.operator is FusionOperator.CONSENSUS:
        return consensus(opinion_a, opinion_b)
    if spec.order is CombinationOrder.AB:
        return recommendation(trust=opinion_a, advice=opinion_b)
    return recommendation(trust=opinion_b, advice=opinion_a)


def combine_topic(topic: Topic, spec: CombinationSpec, alpha: float = DEFAULT_ALPHA,
                  positive_rule: PositiveRule = PositiveRule.UNION) -> tuple[Opinion, float]:
    """Fuse one topic's pair under the run's alpha and rule; returns (opinion, expectation).

    Term sets come from :func:`topic_term_sets` and ``positive_rule`` is read as
    :func:`run_matrix` reads it: a :class:`PositiveRule` or its value, else ValueError.
    """
    _, by_text = next(topic_term_sets([topic], (spec.level,)))
    pair = _evidence(by_text, spec, PositiveRule(positive_rule))
    fused = _fuse(from_evidence(pair.for_a, alpha), from_evidence(pair.for_b, alpha), spec)
    return fused, expectation(fused)


def matrix_specs(level: PrepLevel) -> list[CombinationSpec]:
    """All 18 combination cells for one level: 6 consensus + 12 recommendation."""
    pairs = list(combinations(REPRESENTATIONS, 2))
    return ([CombinationSpec(*pair, FusionOperator.CONSENSUS, level) for pair in pairs]
            + [CombinationSpec(*pair, FusionOperator.RECOMMENDATION, level, order)
               for pair in pairs for order in CombinationOrder])


def topic_term_sets(topics: Iterable[Topic], levels: Sequence[PrepLevel]
                    ) -> Iterator[tuple[Topic, dict[str, dict[PrepLevel, TermSet]]]]:
    """Each topic with its five texts' term sets by name and level: :func:`run_matrix`'s input.

    One :class:`Stems` memo serves every text.  No level, or a level given
    twice, raises ValueError before the first topic.
    """
    if not levels:
        raise ValueError("at least one preprocessing level is required")
    for index, level in enumerate(levels):
        if level in levels[:index]:
            raise ValueError(f"preprocessing level {PrepLevel(level).value} is given more than once")
    stems = Stems()
    for topic in topics:
        yield topic, {name: term_sets(getattr(topic, name), levels, stems) for name in TOPIC_TEXTS}


def run_matrix(
    topics: Sequence[Topic],
    levels: Sequence[PrepLevel],
    alpha: float = DEFAULT_ALPHA,
    positive_rule: PositiveRule = PositiveRule.UNION,
    mode: AggregationMode = AggregationMode.MACRO,
) -> list[CombinationResult]:
    """Evaluate every combination cell for every level over all topics.

    Results come in matrix order: levels as given, consensus pairs then
    recommendation pairs.  Each topic's term sets come from
    :func:`topic_term_sets` and are dropped before the next topic.  The
    cells fall into evidence groups, in matrix order: a consensus cell
    alone, or a pair's AB and BA cells.  Per topic a group gets one
    evidence and one opinion pair, and it keeps one pooled sum; each
    distinct evidence count becomes an opinion once per call.  ``positive_rule``
    and ``mode`` are enum members or their values; anything else raises ValueError,
    as do no ``levels`` and a level given twice.
    """
    topics, levels = list(topics), list(levels)
    positive_rule, mode = PositiveRule(positive_rule), AggregationMode(mode)
    if not topics:
        raise EmptyTopicListError("at least one topic is required")
    # One (cells, pooled sums) pair per evidence group, each cell a (spec, per-topic
    # entries) pair; the sums are positive/negative for a, then b.
    groups = [([(spec, []) for spec in cells], [0, 0, 0, 0])
              for level in levels
              for _, cells in groupby(matrix_specs(level),
                                      key=lambda spec: (spec.rep_a, spec.rep_b, spec.operator))]
    opinion = cache(lambda counts: from_evidence(counts, alpha))
    for topic, by_text in topic_term_sets(topics, levels):
        for cells, sums in groups:  # a group's cells share level, pair and operator
            pair = _evidence(by_text, cells[0][0], positive_rule)
            opinion_a, opinion_b = opinion(pair.for_a), opinion(pair.for_b)
            for spec, entries in cells:
                fused = _fuse(opinion_a, opinion_b, spec)
                entries.append((topic.id, fused, expectation(fused)))
            sums[0] += pair.for_a.positive
            sums[1] += pair.for_a.negative
            sums[2] += pair.for_b.positive
            sums[3] += pair.for_b.negative
    results = []
    for cells, (pos_a, neg_a, pos_b, neg_b) in groups:
        for spec, entries in cells:
            if mode is AggregationMode.MACRO:
                # left to right: sum() adds floats with compensation since Python 3.12
                aggregate = reduce(add, (entry[2] for entry in entries), 0.0) / len(entries)
            else:
                aggregate = expectation(_fuse(opinion(EvidenceCounts(pos_a, neg_a)),
                                              opinion(EvidenceCounts(pos_b, neg_b)), spec))
            results.append(CombinationResult(spec, tuple(entries), aggregate))
    return results


def _fields_once(pairs: list[tuple[str, object]]) -> dict[str, object]:
    """A JSON object's fields by name; a name given twice is an error, not the last one."""
    record: dict[str, object] = {}
    for name, value in pairs:
        if name in record:
            raise ValueError(f"field {name!r} is given more than once")
        record[name] = value
    return record


def load_topics(source: Source) -> list[Topic]:
    """Read line-delimited JSON topic records with exactly the six fields.

    ``source`` is a path (``str`` or ``os.PathLike``) or the lines themselves.
    A field given twice in a record is rejected.  Topic ids must be unique;
    a repeated id is rejected with both line numbers.
    """
    topics = []
    first_line: dict[str, int] = {}
    with reading(source, TopicParseError) as lines:
        for number, line in enumerate(lines, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line, object_pairs_hook=_fields_once)
            except json.JSONDecodeError as exc:
                raise TopicParseError(f"line {number}: invalid JSON ({exc.msg})") from exc
            except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
                raise TopicParseError(f"line {number}: {exc}") from exc
            if not isinstance(record, dict):
                raise TopicParseError(f"line {number}: expected an object")
            unknown = sorted(set(record) - set(TOPIC_FIELDS))
            if unknown:
                raise TopicParseError(f"line {number}: unknown fields {unknown}")
            missing = sorted(set(TOPIC_FIELDS) - set(record))
            if missing:
                raise TopicParseError(f"line {number}: missing fields {missing}")
            try:
                topic = Topic(**record)
            except (TypeError, ValueError) as exc:
                raise TopicParseError(f"line {number}: {exc}") from exc
            if topic.id in first_line:
                raise TopicParseError(f"line {number}: duplicate topic id {topic.id!r} (first on "
                                      f"line {first_line[topic.id]})")
            first_line[topic.id] = number
            topics.append(topic)
    return topics


REPORT_HEADER = ("level", "operator", "rep_a", "rep_b", "order", "probability")


def write_report(results: Sequence[CombinationResult], stream: IO[str]) -> None:
    """Write the combination table as TSV with 4-decimal probabilities.

    The last column, ``best``, flags the maximum probability within each
    (level, operator, order) column, the plain-text equivalent of the bold
    entries in the published table layout.  This star is the one rule for
    the best cell: a cell is best when its probability equals its column's
    maximum at full precision, not at four decimals, and every tied cell is
    starred.  A caller that needs one cell takes the first starred cell in
    matrix order, which is what ``max`` over the results returns.
    """
    stream.write("\t".join(REPORT_HEADER + ("best",)) + "\n")
    column_max: dict[tuple[str, ...], float] = {}  # keyed on the label without the pair
    for res in results:
        label, value = res.spec.label, res.aggregate_probability
        key = label[:2] + label[4:]
        column_max[key] = max(column_max.get(key, value), value)
    for res in results:
        label, value = res.spec.label, res.aggregate_probability
        best = "*" if value == column_max[label[:2] + label[4:]] else ""
        stream.write("\t".join([*label, f"{value:.4f}", best]) + "\n")
