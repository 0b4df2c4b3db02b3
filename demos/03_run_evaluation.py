#!/usr/bin/env python3
"""Score a retrieval run against graded judgments and correlate the result
with fused-opinion components.

The run and judgments are inlined in the standard interchange formats.
After computing the six effectiveness measures per query, the demo relates
each query's fused belief (from one combination of its context
representations) to its average precision with a rank correlation.
"""

import sys

from polyrep.combine import CombinationSpec, FusionOperator, Topic, run_matrix
from polyrep.ireval import (
    Component,
    correlate_components,
    evaluate_run,
    parse_qrels,
    parse_run,
    write_metric_report,
)
from polyrep.textprep import PrepLevel

RUN_LINES = """
q1 Q0 doc-ok 1 7.1 demo
q1 Q0 doc-top 2 9.0 demo
q1 Q0 doc-noise 3 3.3 demo
q2 Q0 doc-miss 1 8.8 demo
q2 Q0 doc-late 2 6.2 demo
""".strip().splitlines()

QRELS_LINES = """
q1 0 doc-top 3
q1 0 doc-ok 1
q1 0 doc-noise 0
q2 0 doc-late 2
q2 0 doc-miss 0
""".strip().splitlines()

run = parse_run(RUN_LINES)
qrels = parse_qrels(QRELS_LINES)
report = evaluate_run(run, qrels)

print("Per-query and mean effectiveness:")
write_metric_report(report, sys.stdout)

topics = [
    Topic(
        id="q1",
        information_need="dense plasma diagnostics with spectral lines",
        background="plasma spectroscopy lab work",
        work_task="compare plasma spectral line diagnostics methods",
        ideal_answer="tables of spectral line diagnostics",
        keywords="plasma spectral diagnostics",
    ),
    Topic(
        id="q2",
        information_need="cryogenic detector noise sources",
        background="astronomy instrumentation",
        work_task="reduce readout noise",
        ideal_answer="noise budgets",
        keywords="cryogenic noise",
    ),
]

spec = CombinationSpec(
    "information_need", "work_task", FusionOperator.CONSENSUS, PrepLevel.STEM
)
(result,) = [
    res
    for res in run_matrix(topics, [PrepLevel.STEM])
    if res.spec == spec
]

print("\nFused belief per query (information_need + work_task, level IV):")
for topic_id, opinion, value in result.per_topic:
    print(f"  {topic_id}: belief={opinion.belief:.4f}  expectation={value:.4f}")

rho = correlate_components(result, report, Component.BELIEF, "map")
print(f"\nSpearman rho between belief and average precision: {rho:+.4f}")
