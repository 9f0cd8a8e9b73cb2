"""Exact rational arithmetic, extended with +inf / -inf.

All quantities in the analysis are rationals kept in lowest terms; nothing
is ever rounded.  Bound values additionally need the two infinities, with
the (asymmetric) convention that adding -inf and +inf yields -inf.

``Rat`` is ``gmpy2.mpq`` when gmpy2 is importable and ``fractions.Fraction``
otherwise; both are exact, auto-reducing and interchangeable for our use.
"""

from __future__ import annotations

try:
    from gmpy2 import mpq as Rat
except ImportError:  # pragma: no cover - exercised only without gmpy2
    from fractions import Fraction as Rat

ZERO = Rat(0)
ONE = Rat(1)


def as_rat(value) -> Rat:
    """Coerce an int, string or rational to ``Rat``; a ``Rat`` is returned
    as it is."""
    if isinstance(value, Rat):
        return value
    if isinstance(value, int):
        return Rat(value)
    if isinstance(value, str):
        return parse_rat(value)
    if hasattr(value, "numerator") and hasattr(value, "denominator"):
        return Rat(int(value.numerator), int(value.denominator))
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


class ExtRat:
    """A rational extended with the two infinities.

    Instances are immutable.  The order is total (``-inf < q < +inf``)
    and addition resolves the mixed-infinity case to ``-inf``.
    """

    __slots__ = ("kind", "value")

    # kind: -1 = -inf, 0 = finite, +1 = +inf
    def __init__(self, kind: int, value=None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", as_rat(value) if kind == 0 else None)

    def __setattr__(self, *args):
        raise AttributeError("ExtRat is immutable")

    @staticmethod
    def finite(value) -> "ExtRat":
        return ExtRat(0, value)

    @property
    def is_finite(self) -> bool:
        return self.kind == 0

    @property
    def is_pos_inf(self) -> bool:
        return self.kind > 0

    @property
    def is_neg_inf(self) -> bool:
        return self.kind < 0

    def __add__(self, other: "ExtRat") -> "ExtRat":
        return ext_add(self, other)

    def __neg__(self) -> "ExtRat":
        if self.kind == 0:
            return ExtRat.finite(-self.value)
        return NEG_INF if self.kind > 0 else POS_INF

    def __eq__(self, other):
        if not isinstance(other, ExtRat):
            return NotImplemented
        return self.kind == other.kind and (self.kind != 0 or self.value == other.value)

    def __lt__(self, other):
        return ext_cmp(self, other) < 0

    def __le__(self, other):
        return ext_cmp(self, other) <= 0

    def __gt__(self, other):
        return ext_cmp(self, other) > 0

    def __ge__(self, other):
        return ext_cmp(self, other) >= 0

    def __hash__(self):
        return hash((self.kind, None if self.kind else self.value))

    def __str__(self):
        if self.kind > 0:
            return "inf"
        if self.kind < 0:
            return "-inf"
        return rat_str(self.value)

    def __repr__(self):
        return f"ExtRat({self})"


NEG_INF = ExtRat(-1)
POS_INF = ExtRat(+1)


def ext(value) -> ExtRat:
    """Lift a rational-like value (or an ExtRat) into ExtRat."""
    if isinstance(value, ExtRat):
        return value
    return ExtRat.finite(value)


def ext_add(a: ExtRat, b: ExtRat) -> ExtRat:
    """Extended addition; -inf absorbs +inf."""
    if a.kind < 0 or b.kind < 0:
        return NEG_INF
    if a.kind > 0 or b.kind > 0:
        return POS_INF
    return ExtRat.finite(a.value + b.value)


def ext_cmp(a: ExtRat, b: ExtRat) -> int:
    """Three-way comparison: -1, 0 or +1."""
    if a.kind != b.kind:
        return -1 if a.kind < b.kind else 1
    if a.kind != 0:
        return 0
    if a.value == b.value:
        return 0
    return -1 if a.value < b.value else 1
