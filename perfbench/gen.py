"""Seeded synthetic inputs for the polyrep benchmark.

Every input is a pure function of the seed: the same seed writes the same
bytes.  Terms follow a Zipf distribution over a synthetic vocabulary whose
words are stems plus English suffixes, so Porter stemming merges some of
them.  The vocabulary is fixed per workload and the seed draws the text.
Each topic has a small theme vocabulary shared by its representations, and
its keywords are drawn mostly from its own representations, as real
keyword queries are.

Nothing here filters, resizes or re-draws its output to suit the program
under test: a seed whose inputs make a command fail is reported as a
failure by the benchmark, not avoided here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

_ONSETS = ("b c d f g h l m n p r s t v w br cl st tr pl gr sh ch th sp fr").split()
_NUCLEI = ("a e i o u ai ea ou io").split()
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "m", "nd", "rt", "st", "ck")
_SUFFIXES = (
    "", "", "", "", "s", "es", "ed", "ing", "ation", "ness", "ful", "ive", "ize",
    "ment", "ly", "able", "ity", "ence", "er", "al", "ous", "ism", "ist", "ional",
)
# Function words from the SMART list, so level III has something to drop.
_FUNCTION_WORDS = (
    "the of and to in a for with on is are that by as from about this which "
    "their its be or an at into how what"
).split()

# (low, high) token counts of the four context representations, in
# REPRESENTATIONS order: information_need, background, work_task, ideal_answer.
_REP_LENGTHS = ((25, 60), (15, 45), (15, 45), (20, 60))
_REP_NAMES = ("information_need", "background", "work_task", "ideal_answer")

# Grade weights for 0 (non relevant) .. 3 (very relevant).
_GRADE_WEIGHTS = (0.55, 0.2, 0.15, 0.1)


@dataclass(frozen=True)
class TopicShape:
    topics: int
    vocabulary: int
    zipf_s: float
    theme_size: int
    theme_share: float  # chance that a content token comes from the theme
    keyword_own_share: float  # chance that a keyword comes from the topic's text


@dataclass(frozen=True)
class RunShape:
    docs_per_query: int
    judged_per_query: int
    judged_retrieved_share: float  # judged documents that appear in the run


def make_vocabulary(rng: random.Random, size: int) -> list[str]:
    """``size`` distinct lowercase words, in the order of their Zipf rank."""
    words: dict[str, None] = {}
    while len(words) < size:
        syllables = rng.choice((1, 1, 2, 2, 2, 3))
        stem = "".join(
            rng.choice(_ONSETS) + rng.choice(_NUCLEI) + rng.choice(_CODAS)
            for _ in range(syllables)
        )
        words.setdefault(stem + rng.choice(_SUFFIXES))
    return list(words)


def zipf_cum_weights(size: int, s: float) -> list[float]:
    return list(accumulate(1.0 / rank**s for rank in range(1, size + 1)))


def _sentence_text(rng: random.Random, content: list[str]) -> str:
    """Interleave function words, capitals, hyphens and punctuation."""
    tokens = []
    for word in content:
        if rng.random() < 0.35:
            tokens.append(rng.choice(_FUNCTION_WORDS))
        tokens.append(word)
    out = []
    capitalize = True
    for index, token in enumerate(tokens):
        if capitalize:
            token = token.capitalize()
            capitalize = False
        if index + 1 < len(tokens) and rng.random() < 0.04:
            out.append(token + "-")
            continue
        roll = rng.random()
        if roll < 0.06:
            token += ","
        elif roll < 0.10:
            token += "."
            capitalize = True
        out.append(token + " ")
    return "".join(out).rstrip(" ,.-") + "."


def _spread(rng: random.Random, low: int, high: int, count: int) -> list[int]:
    """``count`` values evenly spread over [low, high], in seeded order.

    Topics differ in length, but every seed gets the same total, so the
    amount of work does not change from seed to seed.
    """
    values = [low + (high - low) * (2 * k + 1) // (2 * count) for k in range(count)]
    rng.shuffle(values)
    return values


def make_topics(
    rng: random.Random, shape: TopicShape, vocabulary: list[str]
) -> list[dict[str, str]]:
    cum = zipf_cum_weights(len(vocabulary), shape.zipf_s)
    # Themes come from below the head of the distribution, as topical words do.
    theme_pool = vocabulary[50:]
    lengths = [_spread(rng, low, high, shape.topics) for low, high in _REP_LENGTHS]
    keyword_counts = _spread(rng, 2, 7, shape.topics)
    topics = []
    for index in range(shape.topics):
        theme = rng.sample(theme_pool, shape.theme_size)
        record = {"id": f"q{index + 1:04d}"}
        own_words = []
        for name, rep_lengths in zip(_REP_NAMES, lengths):
            length = rep_lengths[index]
            general = rng.choices(vocabulary, cum_weights=cum, k=length)
            content = [
                rng.choice(theme) if rng.random() < shape.theme_share else general[i]
                for i in range(length)
            ]
            own_words.extend(content)
            record[name] = _sentence_text(rng, content)
        keywords = [
            rng.choice(own_words) if rng.random() < shape.keyword_own_share
            else rng.choices(vocabulary, cum_weights=cum)[0]
            for _ in range(keyword_counts[index])
        ]
        record["keywords"] = " ".join(keywords).capitalize()
        topics.append(record)
    return topics


def make_run_and_qrels(
    rng: random.Random, query_ids: list[str], shape: RunShape
) -> tuple[list[str], list[str]]:
    """Run lines (``qid Q0 docid rank score tag``) and qrels lines per query.

    Scores rise with the grade plus noise, so effectiveness varies by
    query; scores are rounded to three decimals, so some tie.
    """
    run_lines: list[str] = []
    qrels_lines: list[str] = []
    for qid in query_ids:
        doc_numbers = rng.sample(range(10_000_000), shape.docs_per_query + shape.judged_per_query)
        docs = [f"D{number:07d}" for number in doc_numbers]
        judged = docs[: shape.judged_per_query]
        grades = rng.choices((0, 1, 2, 3), weights=_GRADE_WEIGHTS, k=len(judged))
        for docid, grade in zip(judged, grades):
            qrels_lines.append(f"{qid} 0 {docid} {grade}\n")
        retrieved_judged = int(len(judged) * shape.judged_retrieved_share)
        retrieved = list(zip(judged[:retrieved_judged], grades))
        retrieved += [(docid, 0) for docid in docs[shape.judged_per_query:]]
        retrieved = retrieved[: shape.docs_per_query]
        scored = [(round(grade * 0.7 + rng.gauss(0.0, 1.0), 3), docid)
                  for docid, grade in retrieved]
        scored.sort(key=lambda item: (-item[0], item[1]))
        for rank, (score, docid) in enumerate(scored, start=1):
            run_lines.append(f"{qid} Q0 {docid} {rank} {score:.3f} bench\n")
    return run_lines, qrels_lines


@dataclass(frozen=True)
class Workload:
    name: str
    topics: TopicShape | None
    run: RunShape | None
    queries: int  # query count when there are no topics


WORKLOADS = {
    "table-zipf": Workload(
        "table-zipf",
        TopicShape(topics=60, vocabulary=5_000, zipf_s=1.1, theme_size=12,
                   theme_share=0.3, keyword_own_share=0.8),
        None,
        0,
    ),
    "evaluate-deep": Workload(
        "evaluate-deep",
        None,
        RunShape(docs_per_query=1_100, judged_per_query=300, judged_retrieved_share=0.6),
        250,
    ),
    "correlate-wide": Workload(
        "correlate-wide",
        TopicShape(topics=60, vocabulary=100_000, zipf_s=0.6, theme_size=12,
                   theme_share=0.3, keyword_own_share=0.8),
        RunShape(docs_per_query=200, judged_per_query=50, judged_retrieved_share=0.6),
        0,
    ),
}


def write_inputs(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the workload's input files into ``out_dir``; returns them by role."""
    rng = random.Random(f"{workload.name}/{seed}")
    out_dir.mkdir(parents=True, exist_ok=True)
    paths: dict[str, Path] = {}
    query_ids = [f"q{n:04d}" for n in range(1, workload.queries + 1)]
    if workload.topics is not None:
        # The vocabulary is the workload's language, the same for every seed.
        vocabulary = make_vocabulary(random.Random(f"{workload.name}/vocabulary"),
                                     workload.topics.vocabulary)
        topics = make_topics(rng, workload.topics, vocabulary)
        paths["topics"] = out_dir / "topics.jsonl"
        paths["topics"].write_text(
            "".join(json.dumps(topic) + "\n" for topic in topics), encoding="utf-8"
        )
        query_ids = [topic["id"] for topic in topics]
    if workload.run is not None:
        run_lines, qrels_lines = make_run_and_qrels(rng, query_ids, workload.run)
        paths["run"] = out_dir / "run.txt"
        paths["run"].write_text("".join(run_lines), encoding="utf-8")
        paths["qrels"] = out_dir / "qrels.txt"
        paths["qrels"].write_text("".join(qrels_lines), encoding="utf-8")
    return paths
