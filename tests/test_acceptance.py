"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 6 needs the full research topic collection and is skipped
(not failed) when the POLYREP_ISEARCH_TOPICS environment variable does not
point at a topics file.
"""

import filecmp
import functools
import io
import itertools
import math
import os
import random
import time
from pathlib import Path

import pytest

from polyrep.cli import main
from polyrep.combine import (
    AggregationMode,
    CombinationOrder,
    FusionOperator,
    Topic,
    combine_topic,
    load_topics,
    matrix_specs,
    run_matrix,
    write_report,
)
from polyrep.evidence import PositiveRule, consensus_evidence
from polyrep.ireval import Qrels, RunList, evaluate_query, spearman
from polyrep.opinions import (
    EvidenceCounts,
    Opinion,
    consensus,
    expectation,
    from_evidence,
    recommendation,
)
from polyrep.porter import porter_stem
from polyrep.textprep import PrepLevel

import oracles

TOL = 1e-9
DATA = Path(__file__).parent / "data"

# Committed non-commutativity witness: the recommendation belief product is
# symmetric, so the order gap is asserted on disbelief, uncertainty and the
# probability expectation.
WITNESS_FIRST = Opinion(0.9, 0.05, 0.05, 0.5)
WITNESS_SECOND = Opinion(0.3, 0.5, 0.2, 0.5)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except Exception:
                print(f"[acceptance] criterion {number} ({label}): FAIL")
                raise
            print(f"[acceptance] criterion {number} ({label}): PASS")

        return wrapper

    return decorate


def random_opinion(rng):
    while True:
        belief = rng.random()
        disbelief = rng.random() * (1.0 - belief)
        uncertainty = 1.0 - belief - disbelief
        if uncertainty > 1e-12:
            return Opinion(belief, disbelief, uncertainty, rng.random())


def assert_close(first, second, tol=TOL):
    assert abs(first.belief - second.belief) <= tol
    assert abs(first.disbelief - second.disbelief) <= tol
    assert abs(first.uncertainty - second.uncertainty) <= tol


@criterion(1, "opinion algebra on 10,000 random pairs")
def test_criterion_1_opinion_algebra():
    rng = random.Random(987654321)
    started = time.perf_counter()
    for _ in range(10_000):
        a, b, c = (random_opinion(rng) for _ in range(3))

        fused = consensus(a, b)
        assert abs(fused.belief + fused.disbelief + fused.uncertainty - 1.0) <= TOL
        passed = recommendation(a, b)
        assert abs(passed.belief + passed.disbelief + passed.uncertainty - 1.0) <= TOL

        assert_close(consensus(a, b), consensus(b, a))
        assert_close(consensus(consensus(a, b), c), consensus(a, consensus(b, c)))
        assert_close(
            recommendation(recommendation(a, b), c),
            recommendation(a, recommendation(b, c)),
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"algebra sweep took {elapsed:.2f}s"

    forward = recommendation(WITNESS_FIRST, WITNESS_SECOND)
    backward = recommendation(WITNESS_SECOND, WITNESS_FIRST)
    gap = max(
        abs(forward.disbelief - backward.disbelief),
        abs(forward.uncertainty - backward.uncertainty),
        abs(expectation(forward) - expectation(backward)),
    )
    assert gap > 1e-3


@criterion(2, "evidence mapping exact for all r+s <= 1000")
def test_criterion_2_evidence_mapping_exactness():
    for total in range(0, 1001):
        for positive in range(total + 1):
            negative = total - positive
            opinion = from_evidence(EvidenceCounts(positive, negative), 0.5)
            assert opinion.belief + opinion.disbelief + opinion.uncertainty == 1.0
            assert opinion.uncertainty == 2.0 / (total + 2)

    vacuous = from_evidence(EvidenceCounts(0, 0), 0.5)
    assert (vacuous.belief, vacuous.disbelief, vacuous.uncertainty) == (0.0, 0.0, 1.0)
    balanced = from_evidence(EvidenceCounts(2, 2), 0.5)
    assert (balanced.belief, balanced.disbelief, balanced.uncertainty) == (
        1 / 3,
        1 / 3,
        1 / 3,
    )
    positive_only = from_evidence(EvidenceCounts(3, 0), 0.5)
    assert (positive_only.belief, positive_only.disbelief, positive_only.uncertainty) == (
        0.6,
        0.0,
        0.4,
    )


@criterion(3, "worked pipeline oracle")
def test_criterion_3_pipeline_oracle():
    q, a, b = frozenset("abc"), frozenset("abd"), frozenset("bde")
    pair = consensus_evidence(a, b, q, PositiveRule.UNION)
    fused = consensus(from_evidence(pair.for_a, 0.5), from_evidence(pair.for_b, 0.5))
    assert abs(fused.belief - 0.625) <= TOL
    assert abs(fused.disbelief - 0.125) <= TOL
    assert abs(fused.uncertainty - 0.25) <= TOL
    assert abs(expectation(fused) - 0.75) <= TOL

    # same numbers through the topic front door, at the verbatim level
    topic = Topic(
        id="oracle",
        information_need="a b d",
        background="",
        work_task="b d e",
        ideal_answer="",
        keywords="a b c",
    )
    spec = matrix_specs(PrepLevel.RAW)[1]  # consensus, information_need x work_task
    assert (spec.rep_a, spec.rep_b, spec.operator) == (
        "information_need",
        "work_task",
        FusionOperator.CONSENSUS,
    )
    fused_again, value = combine_topic(topic, spec)
    assert abs(fused_again.belief - 0.625) <= TOL
    assert abs(value - 0.75) <= TOL


def _enumerate_judged_instances(max_docs=5):
    """Every ranking (including partial retrieval) of <= max_docs judged docs,
    deduplicated up to the grade pattern it presents to the measures."""
    docs = [f"d{i}" for i in range(max_docs)]
    seen = set()
    for n in range(max_docs + 1):
        ids = docs[:n]
        for grades in itertools.product(range(4), repeat=n):
            judgments = dict(zip(ids, grades))
            for k in range(n + 1):
                for ranked in itertools.permutations(ids, k):
                    unranked = sorted(
                        judgments[d] for d in ids if d not in ranked
                    )
                    key = (tuple(judgments[d] for d in ranked), tuple(unranked))
                    if key in seen:
                        continue
                    seen.add(key)
                    yield list(ranked), judgments


@criterion(4, "metric oracle equivalence (exhaustive <= 5 judged docs)")
def test_criterion_4_metric_oracles():
    started = time.perf_counter()
    instances = 0
    for ranked, judgments in _enumerate_judged_instances():
        run = RunList({"q": tuple(ranked)})
        qrels = Qrels({"q": judgments})
        got = evaluate_query(run, qrels, "q")
        assert abs(got["map"] - oracles.ap_naive(ranked, judgments)) <= TOL
        assert abs(got["ndcg"] - oracles.ndcg_naive(ranked, judgments, 1000)) <= TOL
        assert abs(got["ndcg10"] - oracles.ndcg_naive(ranked, judgments, 10)) <= TOL
        assert abs(got["p10"] - oracles.precision_naive(ranked, judgments, 10)) <= TOL
        assert abs(got["mrr"] - oracles.rr_naive(ranked, judgments)) <= TOL
        assert abs(got["bpref"] - oracles.bpref_naive(ranked, judgments)) <= TOL
        instances += 1
    elapsed = time.perf_counter() - started
    assert instances > 4000
    assert elapsed < 30.0, f"metric sweep took {elapsed:.2f}s"

    # hand-computed fixtures (the published display values are 4-decimal
    # roundings of these exact expressions)
    from polyrep.ireval import ndcg_at

    run = RunList({"q": ("d3", "d1", "d2")})
    qrels = Qrels({"q": {"d1": 3, "d2": 1, "d3": 0}})
    assert abs(evaluate_query(run, qrels, "q")["map"] - 7 / 12) <= 1e-6
    ndcg3 = ndcg_at(run, qrels, "q", 3)
    expected = (3 / math.log2(3) + 1 / math.log2(4)) / (3 + 1 / math.log2(3))
    assert abs(ndcg3 - expected) <= 1e-6
    assert abs(ndcg3 - 0.6590) <= 1e-4

    bpref_run = RunList({"q": ("d3", "d1", "d2")})
    bpref_qrels = Qrels({"q": {"d1": 1, "d2": 1, "d3": 0, "d4": 0}})
    assert abs(evaluate_query(bpref_run, bpref_qrels, "q")["bpref"] - 0.5) <= 1e-6


@criterion(5, "stemmer conformance on bundled reference pairs")
def test_criterion_5_porter_conformance():
    pairs = [
        line.split()
        for line in (DATA / "porter_pairs.txt").read_text().splitlines()
        if line.strip()
    ]
    assert len(pairs) >= 100
    mismatches = [
        (word, expected, porter_stem(word))
        for word, expected in pairs
        if porter_stem(word) != expected
    ]
    assert not mismatches, mismatches[:10]


@criterion(6, "ordering on the full research collection")
def test_criterion_6_collection_ordering():
    path = os.environ.get("POLYREP_ISEARCH_TOPICS")
    if not path:
        print("[acceptance] criterion 6 (ordering on the full research collection): SKIP")
        pytest.skip(
            "set POLYREP_ISEARCH_TOPICS to the full topic collection to run this check"
        )
    topics = load_topics(path)
    winner = ("information_need", "work_task", CombinationOrder.BA)
    settings_that_work = []
    for rule, mode in itertools.product(PositiveRule, AggregationMode):
        holds_everywhere = True
        for level in PrepLevel:
            results = run_matrix(topics, [level], positive_rule=rule, mode=mode)
            best = max(results, key=lambda r: r.aggregate_probability)
            spec = best.spec
            if (
                spec.operator is not FusionOperator.RECOMMENDATION
                or (spec.rep_a, spec.rep_b, spec.order) != winner
            ):
                holds_everywhere = False
                break
        if holds_everywhere:
            settings_that_work.append((rule, mode))
    assert settings_that_work, (
        "work_task-over-information_need recommendation was not the maximum at "
        "every level under any (positive_rule, aggregation) setting"
    )


@criterion(7, "end-to-end determinism on the bundled fixture")
def test_criterion_7_determinism(tmp_path, capsys):
    topics = str(DATA / "topics.jsonl")
    run = str(DATA / "run.txt")
    qrels = str(DATA / "qrels.txt")

    for index in (1, 2):
        out = tmp_path / f"pass{index}"
        assert main(["prep", "--topics", topics, "--out", str(out)]) == 0
        assert main(["polyrep", "--topics", topics, "--out", str(out)]) == 0
        assert main(["evaluate", "--run", run, "--qrels", qrels, "--out", str(out)]) == 0
        assert main(
            ["correlate", "--topics", topics, "--run", run, "--qrels", qrels,
             "--out", str(out)]
        ) == 0
    capsys.readouterr()

    first, second = tmp_path / "pass1", tmp_path / "pass2"
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    mismatched = [
        name for name in names if not filecmp.cmp(first / name, second / name, shallow=False)
    ]
    assert not mismatched
    assert len(names) > 860  # table reports plus one plot file per figure

    report = io.StringIO()
    write_report(run_matrix(load_topics(topics), list(PrepLevel)), report)
    assert report.getvalue() == (DATA / "polyrep_golden.tsv").read_text()


@criterion(8, "rank correlation endpoints and tie handling")
def test_criterion_8_spearman():
    assert spearman([1.0, 2.0, 3.0, 4.0], [2.0, 4.0, 6.0, 8.0]) == 1.0
    assert spearman([1.0, 2.0, 3.0, 4.0], [8.0, 6.0, 4.0, 2.0]) == -1.0

    rng = random.Random(271828)
    compared = 0
    while compared < 1_000:
        n = rng.randint(2, 20)
        xs = [float(rng.randint(0, 6)) for _ in range(n)]  # small pool forces ties
        ys = [float(rng.randint(0, 6)) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        assert abs(spearman(xs, ys) - oracles.spearman_naive(xs, ys)) <= TOL
        compared += 1
