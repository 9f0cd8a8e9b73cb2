"""Least inductive invariants in template linear constraint domains.

The library computes, for a numerical transition system and a fixed matrix
of template rows, the strongest invariant of the shape "one bound per
(program point, template row)": SMT-guided max-strategy improvement picks
paths through the transition formulas, exact-rational linear programming
evaluates each chosen strategy, and the loop stops precisely at the least
fixpoint.  See README.md for the file format and the command line.
"""

__version__ = "0.1.0"
