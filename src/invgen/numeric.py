"""Exact rational arithmetic, extended with +inf / -inf.

All quantities in the analysis are rationals kept in lowest terms; nothing
is ever rounded.  Bound values additionally need the two infinities.
"""

from __future__ import annotations

from fractions import Fraction as Rat
from typing import NamedTuple, Optional

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(value) -> Rat:
    """Coerce an int or string to ``Rat``; a ``Rat`` is returned as it is."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        return parse_rat(value)
    raise TypeError(f"cannot interpret {value!r} as a rational")


def parse_rat(text: str) -> Rat:
    """Parse ``p/q``, decimal (``1.25``) or integer literals, exactly."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    sign = 1
    if s[0] in "+-":
        if s[0] == "-":
            sign = -1
        s = s[1:].strip()
    if "/" in s:
        num, _, den = s.partition("/")
        if not (num.strip().isdigit() and den.strip().isdigit()):
            raise ValueError(f"malformed rational literal {text!r}")
        d = int(den)
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Rat(sign * int(num), d)
    if "." in s:
        whole, _, frac = s.partition(".")
        if not ((whole == "" or whole.isdigit()) and frac.isdigit()):
            raise ValueError(f"malformed decimal literal {text!r}")
        scale = 10 ** len(frac)
        return Rat(sign * (int(whole or "0") * scale + int(frac)), scale)
    if not s.isdigit():
        raise ValueError(f"malformed numeric literal {text!r}")
    return Rat(sign * int(s))


def rat_str(q) -> str:
    """Canonical text form: ``p/q`` with the denominator omitted when 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


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
        return rat_str(self.value) if self.kind == 0 else "inf" if self.kind > 0 else "-inf"

    def __repr__(self):
        return f"ExtRat({self})"


NEG_INF = ExtRat(-1)
POS_INF = ExtRat(+1)


def ext(value) -> ExtRat:
    """Lift a rational-like value (or an ExtRat) into ExtRat."""
    if isinstance(value, ExtRat):
        return value
    return ExtRat(0, as_rat(value))
