"""Write-then-parse round trips for runs, judgments and topics.

Records are written with random whitespace between and around fields and
with blank lines between them; parsing a list of the lines, a one-shot
generator over them, a file holding them and the same file with a leading
byte order mark must each give back exactly the records written.
"""

import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from polyrep.combine import TOPIC_FIELDS, Topic, load_topics, parse_topics
from polyrep.ireval import GRADES, parse_qrels, parse_run

# text that one whitespace split keeps as a single field
tokens = st.text(st.characters(blacklist_categories=("Cs",)), min_size=1, max_size=8).filter(
    lambda text: text.split() == [text]
)
gaps = st.text(" \t", min_size=1, max_size=3)
margins = st.text(" \t", max_size=2)
# a few repeated values, so that score ties are common
scores = st.sampled_from((0.0, 1.0)) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def written(draw, records):
    """Lines holding ``records``, each a tuple of field strings."""
    lines = []
    for fields in records:
        lines.extend(margin + "\n" for margin in draw(st.lists(margins, max_size=2)))
        line = draw(margins) + fields[0]
        for text in fields[1:]:
            line += draw(gaps) + text
        lines.append(line + draw(margins) + "\n")
    return lines


def sources(lines):
    """The same lines as a list, as a one-shot generator, as a file path and as a
    path to a file that starts with a byte order mark."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "input.txt"
        path.write_text("".join(lines), encoding="utf-8")
        marked = Path(directory) / "marked.txt"
        marked.write_text("".join(lines), encoding="utf-8-sig")
        yield lines
        yield (line for line in lines)
        yield path
        yield marked


def query_doc_pairs(draw):
    """(query id, document id) pairs over a few queries, so that queries hold several."""
    return st.tuples(st.sampled_from(draw(st.lists(tokens, min_size=1, max_size=3))), tokens)


@st.composite
def run_files(draw):
    written_scores = draw(st.dictionaries(query_doc_pairs(draw), scores, max_size=30))
    records = [
        (qid, draw(tokens), docid, draw(tokens), repr(score), draw(tokens))
        for (qid, docid), score in written_scores.items()
    ]
    return written_scores, draw(written(records))


@st.composite
def qrels_files(draw):
    grades = draw(st.dictionaries(query_doc_pairs(draw), st.sampled_from(GRADES), max_size=30))
    records = [(qid, draw(tokens), docid, str(grade)) for (qid, docid), grade in grades.items()]
    return grades, draw(written(records))


topic_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=12)
topic_records = st.fixed_dictionaries(
    {name: topic_text for name in TOPIC_FIELDS}
    | {"id": tokens, "keywords": topic_text.filter(str.strip)}
)


@st.composite
def topic_files(draw):
    records = draw(st.lists(topic_records, max_size=6, unique_by=lambda record: record["id"]))
    lines = []
    for record in records:
        lines.extend(margin + "\n" for margin in draw(st.lists(margins, max_size=2)))
        separators = (draw(margins) + "," + draw(margins), draw(margins) + ":" + draw(margins))
        text = json.dumps(record, separators=separators, ensure_ascii=draw(st.booleans()))
        lines.append(draw(margins) + text + draw(margins) + "\n")
    return records, lines


@settings(max_examples=60, deadline=None)
@given(run_files())
def test_run_round_trip(case):
    written_scores, lines = case
    for source in sources(lines):
        run = parse_run(source)
        assert run.cut == {}
        assert {
            (qid, docid): score
            for qid, ranking in run.rankings.items()
            for docid, score in ranking
        } == written_scores
        for ranking in run.rankings.values():
            assert list(ranking) == sorted(ranking, key=lambda item: (-item[1], item[0]))


@settings(max_examples=60, deadline=None)
@given(qrels_files())
def test_qrels_round_trip(case):
    grades, lines = case
    for source in sources(lines):
        assert {
            (qid, docid): grade
            for qid, judged in parse_qrels(source).grades.items()
            for docid, grade in judged.items()
        } == grades


@settings(max_examples=60, deadline=None)
@given(topic_files())
def test_topic_round_trip(case):
    records, lines = case
    expected = [Topic(**record) for record in records]
    for source in sources(lines):
        parsed = load_topics(source) if isinstance(source, Path) else parse_topics(source)
        assert parsed == expected
