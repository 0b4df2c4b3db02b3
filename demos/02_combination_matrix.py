#!/usr/bin/env python3
"""Build the pairwise combination-probability table for a tiny topic set.

Each topic holds a keyword query plus four context representations.  The
matrix runner combines every pair of context representations at each
preprocessing level and aggregates the per-topic expectations into one
probability per cell; the best cell per column is starred, and the five
most probable cells overall are printed at the end, ties keeping matrix
order.
"""

import sys

from polyrep.combine import Topic, run_matrix, write_report
from polyrep.textprep import PrepLevel

topics = [
    Topic(
        id="plasma",
        information_need="Recent studies of quark gluon plasma in heavy ion collisions.",
        background="Experimental particle physics; detector calibration experience.",
        work_task="Survey of plasma signatures for heavy ion collision experiments.",
        ideal_answer="A review listing plasma signatures, detector requirements and thresholds.",
        keywords="Quark-gluon plasma signatures.",
    ),
    Topic(
        id="solar",
        information_need="How does the solar wind couple to the magnetosphere of the Earth?",
        background="I teach space physics and model magnetospheric currents.",
        work_task="Preparing lecture notes about solar wind magnetosphere coupling.",
        ideal_answer="Textbook chapters explaining coupling physics with clear diagrams.",
        keywords="solar wind magnetosphere coupling",
    ),
    Topic(
        id="neutrino",
        information_need="Measurements of neutrino oscillation parameters from reactor experiments.",
        background="Graduate student in neutrino physics.",
        work_task="Fitting oscillation parameters to reactor neutrino data.",
        ideal_answer="",  # a missing representation is weak evidence, not an error
        keywords="neutrino oscillation reactor",
    ),
]

results = run_matrix(topics, [PrepLevel.CASE_PUNCT, PrepLevel.STEM])
write_report(results, sys.stdout)

print("\nTop five combinations overall:")
for res in sorted(results, key=lambda res: res.aggregate_probability, reverse=True)[:5]:
    spec = res.spec
    print(
        f"  {res.aggregate_probability:.4f}  level {spec.level.value:>3}  "
        f"{spec.operator.value:<14} {spec.rep_a} / {spec.rep_b} [{spec.order_label}]"
    )
