"""The package's records are validated, immutable named tuples.

Each record (an opinion and its evidence counts, an evidence pair, a topic,
a combination cell and its result, judgments, a run and a metric report) is
a ``typing.NamedTuple``: built with one tuple allocation, hashed, pickled
and compared as the tuple of its fields.  The four records that validate
do so in ``__new__``, which ``_make`` and ``_replace`` go through as well.
"""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from polyrep.combine import (
    CombinationOrder,
    CombinationResult,
    CombinationSpec,
    FusionOperator,
    Topic,
)
from polyrep.evidence import EvidencePair
from polyrep.ireval import MetricReport, Qrels, RunList
from polyrep.opinions import EvidenceCounts, Opinion
from polyrep.textprep import PrepLevel

ROOT = Path(__file__).resolve().parent.parent

OPINION = Opinion(0.2, 0.3, 0.5, 0.5)
COUNTS = EvidenceCounts(3, 4)
TOPIC = Topic("t1", "need", "background", "task", "answer", "key words")
SPEC = CombinationSpec("information_need", "work_task", FusionOperator.RECOMMENDATION,
                       PrepLevel.STEM, CombinationOrder.AB)
RESULT = CombinationResult(SPEC, (("t1", OPINION, 0.45),), 0.45)

RECORDS = {
    "Opinion": OPINION,
    "EvidenceCounts": COUNTS,
    "EvidencePair": EvidencePair(COUNTS, EvidenceCounts(0, 1)),
    "Topic": TOPIC,
    "CombinationSpec": SPEC,
    "CombinationResult": RESULT,
    "Qrels": Qrels({"q": {"d1": 2}}),
    "RunList": RunList({"q": ("d1",)}, {"q": 5}),
    "MetricReport": MetricReport({"q": {"map": 1.0}}, {"map": 1.0}),
}
# the records that hold only hashable fields (the others hold dicts)
HASHABLE = ("Opinion", "EvidenceCounts", "EvidencePair", "Topic", "CombinationSpec",
            "CombinationResult")

FIELDS = {
    "Opinion": ("belief", "disbelief", "uncertainty", "base_rate"),
    "EvidenceCounts": ("positive", "negative"),
    "EvidencePair": ("for_a", "for_b"),
    "Topic": ("id", "information_need", "background", "work_task", "ideal_answer", "keywords"),
    "CombinationSpec": ("rep_a", "rep_b", "operator", "level", "order"),
    "CombinationResult": ("spec", "per_topic", "aggregate_probability"),
    "Qrels": ("grades",),
    "RunList": ("rankings", "cut"),
    "MetricReport": ("per_query", "means"),
}

# (record, field, bad value, exception, message): one case per check
INVALID = [
    (OPINION, "belief", 5.0, ValueError, "belief outside [0, 1]: 5.0"),
    (OPINION, "base_rate", float("nan"), ValueError, "base_rate must be finite, got nan"),
    (OPINION, "uncertainty", 0.4, ValueError,
     "belief + disbelief + uncertainty must equal 1, got 0.9"),
    (COUNTS, "positive", -1, ValueError, "positive must be nonnegative, got -1"),
    (COUNTS, "negative", True, TypeError, "negative must be an integer, got bool"),
    (TOPIC, "id", "t 1", ValueError, "topic id 't 1' must be one token without whitespace"),
    (TOPIC, "keywords", " ", ValueError, "topic 't1': keywords must be nonempty"),
    (SPEC, "operator", "recommendation", ValueError,
     "operator 'recommendation' is not a FusionOperator"),
    (SPEC, "rep_b", "information_need", ValueError, "rep_a and rep_b must differ"),
    (SPEC, "order", None, ValueError,
     "a consensus cell takes no order and a recommendation cell needs one"),
]


def _with(record, field, value):
    fields = list(record)
    fields[record._fields.index(field)] = value
    return fields


class TestStartup:
    def test_importing_the_cli_loads_no_dataclass_machinery(self):
        # dataclasses pulls in inspect, and inspect ast, dis, tokenize, linecache ...
        heavy = ("dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "copy",
                 "opcode")
        code = ("import sys; before = set(sys.modules); import polyrep.cli; "
                f"print(*sorted(set(sys.modules) - before & set({heavy!r})))")
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=env, check=True, timeout=60)
        assert proc.stdout.split() == []


@pytest.mark.parametrize("name", RECORDS)
class TestTupleSemantics:
    def test_fields_in_order(self, name):
        record = RECORDS[name]
        assert type(record).__name__ == name
        assert record._fields == FIELDS[name]
        assert tuple(record) == tuple(getattr(record, field) for field in FIELDS[name])

    def test_is_a_tuple_of_its_fields(self, name):
        record = RECORDS[name]
        *head, last = record  # unpacks
        assert record[-1] is last and list(record[:-1]) == head  # indexes
        assert len(record) == len(FIELDS[name])
        assert record == tuple(record)  # equal to a plain tuple of the same values

    def test_pickle_round_trip(self, name):
        record = RECORDS[name]
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)

    def test_immutable(self, name):
        record = RECORDS[name]
        with pytest.raises(AttributeError):
            setattr(record, FIELDS[name][0], None)
        with pytest.raises(AttributeError):
            record.extra = None  # no instance dict


@pytest.mark.parametrize("name", HASHABLE)
def test_hash_is_the_field_tuple_hash(name):
    record = RECORDS[name]
    assert hash(record) == hash(tuple(record))


def test_repr_names_every_field():
    assert repr(OPINION) == "Opinion(belief=0.2, disbelief=0.3, uncertainty=0.5, base_rate=0.5)"


def test_records_order_as_their_field_tuples():
    assert EvidenceCounts(1, 9) < EvidenceCounts(2, 0) < (2, 1)
    assert sorted([OPINION, Opinion(0.1, 0.4, 0.5, 0.5)])[0].belief == 0.1


def test_spec_order_defaults_to_none():
    spec = CombinationSpec("background", "work_task", FusionOperator.CONSENSUS, PrepLevel.RAW)
    assert spec.order is None and spec.order_label == "-"


def test_run_without_cut_has_an_empty_read_only_one():
    run = RunList({"q": ()})
    assert run.cut == {}
    with pytest.raises(TypeError):
        run.cut["q"] = 1


@pytest.mark.parametrize("record, field, bad, error, message", INVALID,
                         ids=[f"{type(case[0]).__name__}.{case[1]}" for case in INVALID])
class TestEveryPathValidates:
    def test_constructor(self, record, field, bad, error, message):
        with pytest.raises(error) as excinfo:
            type(record)(*_with(record, field, bad))
        assert str(excinfo.value) == message

    def test_keywords(self, record, field, bad, error, message):
        with pytest.raises(error) as excinfo:
            type(record)(**{**record._asdict(), field: bad})
        assert str(excinfo.value) == message

    def test_make(self, record, field, bad, error, message):
        with pytest.raises(error) as excinfo:
            type(record)._make(_with(record, field, bad))
        assert str(excinfo.value) == message

    def test_replace(self, record, field, bad, error, message):
        with pytest.raises(error) as excinfo:
            record._replace(**{field: bad})
        assert str(excinfo.value) == message


@pytest.mark.parametrize("record", [OPINION, COUNTS, TOPIC, SPEC],
                         ids=lambda record: type(record).__name__)
def test_make_and_replace_keep_valid_records(record):
    assert type(record)._make(list(record)) == record
    assert record._replace() == record
    with pytest.raises(TypeError):
        type(record)._make([*record, None])
