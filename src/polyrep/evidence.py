"""Positive/negative evidence counts from term-set overlap geometry.

Given the query term set Q and two context representations A and B, each
side's evidence is read off the Venn regions of the three sets.  For the
consensus combination a side's positive evidence counts the terms it shares
with the other representation or with the query; for the recommendation
combination both sides' positive evidence is the shared A-and-B region.
Negative evidence is always the part of a representation that overlaps
neither the other representation nor the query.

The published description of the consensus positive region is ambiguous
between the union and the intersection of the two overlap lenses; the
union reading (which matches the shaded figures) is the default, and
:class:`PositiveRule` exposes both.  Under the union reading a side's
positive region is the rest of its representation, so r + s = |A| for A
(and |B| for B).  Regions are counted from intersections alone, by
inclusion-exclusion: |A - (B | Q)| = |A| - |A & B| - |A & Q| + |A & B & Q|,
and the same for B, so no difference or union is ever built.
"""

from __future__ import annotations

import enum
from typing import AbstractSet, NamedTuple

from .opinions import EvidenceCounts


class PositiveRule(enum.Enum):
    """How consensus positive evidence combines the two overlap regions."""

    UNION = "union"
    INTERSECTION = "intersection"


class EvidencePair(NamedTuple):
    """Evidence counts for the two combined representations."""

    for_a: EvidenceCounts
    for_b: EvidenceCounts


def _regions(a: AbstractSet[str], b: AbstractSet[str], q: AbstractSet[str]) -> tuple[int, ...]:
    """|A & B|, |A & B & Q| and the negative regions |A - (B | Q)| and |B - (A | Q)|."""
    shared = a & b
    both, core = len(shared), len(shared & q)
    return both, core, len(a) - both - len(a & q) + core, len(b) - both - len(b & q) + core


def consensus_evidence(
    a: AbstractSet[str],
    b: AbstractSet[str],
    q: AbstractSet[str],
    rule: PositiveRule = PositiveRule.UNION,
) -> EvidencePair:
    """Evidence for the independent (consensus) combination of A and B.

    ``rule`` is a :class:`PositiveRule` or its value.
    """
    _, core, negative_a, negative_b = _regions(a, b, q)
    if (rule if isinstance(rule, PositiveRule) else PositiveRule(rule)) is PositiveRule.UNION:
        # (A & B) | (A & Q) is A & (B | Q), the complement of A's negative region
        positive_a, positive_b = len(a) - negative_a, len(b) - negative_b
    else:
        positive_a = positive_b = core
    return EvidencePair(
        for_a=EvidenceCounts(positive_a, negative_a),
        for_b=EvidenceCounts(positive_b, negative_b),
    )


def recommendation_evidence(
    a: AbstractSet[str],
    b: AbstractSet[str],
    q: AbstractSet[str],
) -> EvidencePair:
    """Evidence for the dependent (recommendation) combination of A and B.

    Both sides' positive evidence is the shared region |A and B|; negative
    evidence is the same per-side region as in the consensus combination.
    """
    shared, _, negative_a, negative_b = _regions(a, b, q)
    return EvidencePair(
        for_a=EvidenceCounts(shared, negative_a),
        for_b=EvidenceCounts(shared, negative_b),
    )
