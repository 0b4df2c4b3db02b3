"""Subjective-logic combination of query context representations.

The package turns the textual representations of a user's information
need into binomial opinions, fuses them pairwise with the consensus and
recommendation operators, and relates the resulting combination
probabilities to retrieval effectiveness computed from standard run and
judgment files.

Each public name is imported from the module that defines it, for
example ``from polyrep.combine import run_matrix``.
"""

__version__ = "0.1.0"
