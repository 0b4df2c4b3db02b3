#!/usr/bin/env python3
"""Walk through the opinion algebra: evidence in, fused probability out.

Three term sets stand in for a query Q and two context representations A
and B.  Overlap with the query supports each representation, unshared
terms count against it, and the resulting opinions are fused two ways:
as independent sources (consensus) and as a trust-discounted chain
(recommendation).
"""

from polyrep.evidence import PositiveRule, consensus_evidence, recommendation_evidence
from polyrep.opinions import consensus, expectation, from_evidence, recommendation

ALPHA = 0.5  # uninformative prior over a binary frame

query = frozenset({"a", "b", "c"})
rep_a = frozenset({"a", "b", "d"})
rep_b = frozenset({"b", "d", "e"})


def show(label, opinion):
    print(
        f"  {label}: belief={opinion.belief:.4f}  disbelief={opinion.disbelief:.4f}"
        f"  uncertainty={opinion.uncertainty:.4f}  E={expectation(opinion):.4f}"
    )


print("Term sets")
print(f"  Q = {sorted(query)}, A = {sorted(rep_a)}, B = {sorted(rep_b)}")

print("\nConsensus route (independent sources)")
pair = consensus_evidence(rep_a, rep_b, query, PositiveRule.UNION)
print(f"  evidence for A: +{pair.for_a.positive} / -{pair.for_a.negative}")
print(f"  evidence for B: +{pair.for_b.positive} / -{pair.for_b.negative}")
side_a = from_evidence(pair.for_a, ALPHA)
side_b = from_evidence(pair.for_b, ALPHA)
show("A's opinion", side_a)
show("B's opinion", side_b)
show("A (+) B     ", consensus(side_a, side_b))

print("\nRecommendation route (dependent sources)")
pair = recommendation_evidence(rep_a, rep_b, query)
trust_a = from_evidence(pair.for_a, ALPHA)
trust_b = from_evidence(pair.for_b, ALPHA)
show("A (x) B", recommendation(trust=trust_a, advice=trust_b))
show("B (x) A", recommendation(trust=trust_b, advice=trust_a))
print("  (the two orders differ: recommendation is not commutative)")
