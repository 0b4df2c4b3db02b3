"""Binomial subjective-logic opinions and their fusion operators.

An opinion assigns belief, disbelief and uncertainty mass to a binary
proposition, together with a prior base rate used when committed mass is
absent.  The three masses sum to one.  Two fusion operators are provided:

* :func:`consensus` merges two independent opinions about the same
  proposition (commutative, associative, undefined when both operands are
  dogmatic, i.e. have zero uncertainty);
* :func:`recommendation` discounts an advisor's opinion by the relying
  party's trust in that advisor (associative, not commutative).

Opinions can be built directly or derived from positive/negative evidence
counts with :func:`from_evidence`.
"""

from __future__ import annotations

import math
from typing import NamedTuple

#: Numeric tolerance for validating additivity and component bounds.
TOLERANCE = 1e-9
_UPPER = 1.0 + TOLERANCE


class DogmaticConflictError(ValueError):
    """Raised when consensus is requested for two zero-uncertainty opinions.

    The consensus normalisation constant is zero exactly when both operands
    are dogmatic, so the operator is undefined there.  Opinions derived from
    evidence counts always carry positive uncertainty, which makes this error
    a reliable signal of operator misuse.
    """


class Opinion(NamedTuple("Opinion", [("belief", float), ("disbelief", float),
                                      ("uncertainty", float), ("base_rate", float)])):
    """A validated (belief, disbelief, uncertainty, base_rate) quadruple; no field is a bool."""

    __slots__ = ()

    def __new__(cls, belief: float, disbelief: float, uncertainty: float,
                base_rate: float) -> Opinion:
        fields = (belief, disbelief, uncertainty, base_rate)
        # Plain floats in range take one comparison each; anything else is checked field by field.
        if not (float is type(belief) is type(disbelief) is type(uncertainty) is type(base_rate)
                and -TOLERANCE <= belief <= _UPPER and -TOLERANCE <= disbelief <= _UPPER
                and -TOLERANCE <= uncertainty <= _UPPER and -TOLERANCE <= base_rate <= _UPPER
                and abs(belief + disbelief + uncertainty - 1.0) <= TOLERANCE):
            for name, value in zip(cls._fields, fields):
                if type(value) is bool:
                    raise TypeError(f"{name} must be a real number, got bool")
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value!r}")
                if not -TOLERANCE <= value <= _UPPER:
                    raise ValueError(f"{name} outside [0, 1]: {value!r}")
            total = belief + disbelief + uncertainty
            if abs(total - 1.0) > TOLERANCE:
                raise ValueError(
                    f"belief + disbelief + uncertainty must equal 1, got {total!r}"
                )
        return tuple.__new__(cls, fields)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too


class EvidenceCounts(NamedTuple("EvidenceCounts", [("positive", int), ("negative", int)])):
    """Nonnegative counts of supporting and opposing evidence, each a plain ``int``, not a bool."""

    __slots__ = ()

    def __new__(cls, positive: int, negative: int) -> EvidenceCounts:
        fields = (positive, negative)
        if not (type(positive) is int and positive >= 0 and type(negative) is int
                and negative >= 0):
            for name, value in zip(cls._fields, fields):
                if type(value) is not int:
                    raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
                if value < 0:
                    raise ValueError(f"{name} must be nonnegative, got {value}")
        return tuple.__new__(cls, fields)

    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace validates too

    @property
    def total(self) -> int:
        return self.positive + self.negative


def _ulp_neighbours(value: float, steps: int) -> list[float]:
    out = [value]
    up = down = value
    for _ in range(steps):
        up = math.nextafter(up, math.inf)
        down = math.nextafter(down, -math.inf)
        out.extend((up, down))
    return out


def _closed_masses(positive: int, negative: int) -> tuple[float, float, float]:
    """Map evidence counts to (belief, disbelief, uncertainty) quotients.

    Uncertainty is pinned to the rounded quotient 2/(r+s+2).  The naive
    quotients for belief and disbelief do not always close the additivity
    identity in floating point, so when the plain sum misses 1.0 the two
    belief-mass components are nudged by at most a couple of ulps (< 5e-16,
    far below TOLERANCE) until ``(b + d) + u == 1.0`` holds exactly.

    A nudge exists for every r + s <= 4000: all 8.0 M pairs were checked
    exhaustively on CPython 3.11 (CHANGES.md), and the property test
    ``test_additivity_is_exact_for_pooled_totals`` samples totals up to
    200,000.  Counts for which the search finds none raise ValueError.
    """
    denominator = positive + negative + 2
    uncertainty = 2.0 / denominator
    belief = positive / denominator
    disbelief = negative / denominator
    if (belief + disbelief) + uncertainty == 1.0:
        return belief, disbelief, uncertainty

    committed = 1.0 - uncertainty
    belief_cands = set(_ulp_neighbours(belief, 2))
    belief_cands.update(_ulp_neighbours(committed - disbelief, 1))
    disbelief_cands = set(_ulp_neighbours(disbelief, 2))
    disbelief_cands.update(_ulp_neighbours(committed - belief, 1))
    best = min(((abs(b - belief) + abs(d - disbelief), b, d)
                for b in belief_cands for d in disbelief_cands
                if b >= 0.0 and d >= 0.0 and (b + d) + uncertainty == 1.0), default=None)
    if best is None:
        raise ValueError(f"no additive masses within a few ulps for r={positive}, s={negative}")
    return best[1], best[2], uncertainty


def from_evidence(evidence: EvidenceCounts, base_rate: float) -> Opinion:
    """Build an opinion from evidence counts.

    With r supporting and s opposing observations the mapping is
    b = r/(r+s+2), d = s/(r+s+2), u = 2/(r+s+2).  Zero evidence yields the
    vacuous opinion (0, 0, 1, base_rate).
    """
    if not 0.0 <= base_rate <= 1.0:
        raise ValueError(f"base_rate outside [0, 1]: {base_rate!r}")
    belief, disbelief, uncertainty = _closed_masses(
        evidence.positive, evidence.negative
    )
    return Opinion(belief, disbelief, uncertainty, base_rate)


def expectation(opinion: Opinion) -> float:
    """Probability expectation of the proposition: belief + base_rate * uncertainty."""
    return opinion.belief + opinion.base_rate * opinion.uncertainty


def consensus(first: Opinion, second: Opinion) -> Opinion:
    """Fuse two independent opinions about the same proposition.

    The result inherits the first operand's base rate; the operator itself
    never combines base rates.  Raises :class:`DogmaticConflictError` when
    both operands have zero uncertainty.
    """
    u1 = first.uncertainty
    u2 = second.uncertainty
    kappa = u1 + u2 - u1 * u2
    if kappa == 0.0:
        raise DogmaticConflictError(
            "consensus is undefined for two dogmatic (zero-uncertainty) opinions"
        )
    belief = (first.belief * u2 + second.belief * u1) / kappa
    disbelief = (first.disbelief * u2 + second.disbelief * u1) / kappa
    uncertainty = (u1 * u2) / kappa
    return Opinion(belief, disbelief, uncertainty, first.base_rate)


def recommendation(trust: Opinion, advice: Opinion) -> Opinion:
    """Discount an advisor's opinion by the relying party's trust in them.

    ``trust`` is the relying party's opinion about the advisor; ``advice`` is
    the advisor's opinion about the proposition.  Only the believed fraction
    of the advice is retained; distrust and uncertainty about the advisor
    both turn into uncertainty about the proposition.  The result inherits
    the advice's base rate.
    """
    belief = trust.belief * advice.belief
    disbelief = trust.belief * advice.disbelief
    uncertainty = trust.disbelief + trust.uncertainty + trust.belief * advice.uncertainty
    return Opinion(belief, disbelief, uncertainty, advice.base_rate)
