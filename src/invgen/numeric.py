"""Exact rational arithmetic, extended with +inf / -inf.

All quantities in the analysis are rationals kept in lowest terms; nothing
is ever rounded.  ``Rat`` is ``fractions.Fraction``, whose text form
(``7/2``, ``2``) is the one printed everywhere.  Bound values additionally
need the two infinities, which are all that this module adds.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import NamedTuple, Optional

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(value) -> Rat:
    """Coerce an int or a literal string (``7``, ``-5/4``, ``1.25``) to
    ``Rat``; a ``Rat`` is returned as it is, and a float is refused."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, (int, str)):
        return Rat(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


class ExtRat(NamedTuple):
    """A rational extended with the two infinities: ``kind`` is -1, 0 or +1
    for -inf, a finite ``value`` or +inf.  Tuple order is the order of the
    extended line; equality, hashing and immutability are the tuple's."""

    kind: int
    value: Optional[Rat] = None

    @property
    def is_finite(self) -> bool:
        return self.kind == 0

    @property
    def is_pos_inf(self) -> bool:
        return self.kind > 0

    @property
    def is_neg_inf(self) -> bool:
        return self.kind < 0

    def __str__(self):
        return str(self.value) if self.kind == 0 else "inf" if self.kind > 0 else "-inf"

    def __repr__(self):
        return f"ExtRat({self})"


NEG_INF = ExtRat(-1)
POS_INF = ExtRat(+1)


def ext(value) -> ExtRat:
    """Lift a rational-like value (or an ExtRat) into ExtRat."""
    if isinstance(value, ExtRat):
        return value
    return ExtRat(0, as_rat(value))
