"""Elements of lexicographically ordered Q^r (r = 1 or 2) plus Infinity.

Every value handled by the library lives here: assigned key values, valuation
outputs, value-group generators.  Rank is capped at 2: a single incommensurable
augmentation is the worst case reachable from a rank-one base, so two
lexicographic coordinates always suffice, and rank > 2 input is rejected.

A Value never embeds on its own: arithmetic, comparison and the subgroup
helpers raise DomainError on a rank-1 value meeting a rank-2 one (Infinity
compares with either).  The side of an embedding depends on how rank 2 arose,
so each valuation makes it explicitly with :meth:`Value.embed`: a chain with
an incommensurable top step puts the values below it into the major
coordinate, q -> (q, 0), and a limit augmentation over an unbounded family
puts the stable values into the minor one, q -> (0, q).
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

from .errors import DomainError, ParseError, ResourceError

Rat = Fraction

Scalar = Union[int, Fraction]

# Most decimal digits a parsed number may have (a coefficient, numerator,
# denominator or exponent of ten): below Python's limit of 4,300 digits on
# converting a string to an int, so that a longer number is refused by name.
MAX_PARSE_DIGITS = 4000

_DIGIT_RUN = re.compile(r"\d+")
_TEN_EXPONENT = re.compile(r"[eE][-+]?(\d[\d_]*)")  # the exponent of Fraction("1e5")


def _check_digits(text: str) -> None:
    """ResourceError, raised before any number in text is converted, when one
    has more than MAX_PARSE_DIGITS decimal digits."""
    if len(text) > MAX_PARSE_DIGITS and any(
        m.end() - m.start() > MAX_PARSE_DIGITS for m in _DIGIT_RUN.finditer(text)
    ):
        raise ResourceError(f"numbers of more than {MAX_PARSE_DIGITS} decimal digits are not parsed")


def _parse_rational(text: str) -> Fraction:
    """Fraction(text), once numbers of more than MAX_PARSE_DIGITS digits and
    powers of ten above 10^MAX_PARSE_DIGITS (``1e5000``) are refused with
    ResourceError; Fraction's own errors (ValueError, ZeroDivisionError)
    pass through."""
    _check_digits(text)
    for k in _TEN_EXPONENT.findall(text):
        k = k.replace("_", "").lstrip("0")
        if len(k) > len(str(MAX_PARSE_DIGITS)) or int(k or 0) > MAX_PARSE_DIGITS:
            raise ResourceError(f"powers of ten above 10^{MAX_PARSE_DIGITS} are not parsed")
    return Fraction(text)


class Value:
    """An element of Q or Q^2 under lexicographic order, or Infinity.

    Instances are immutable and hashable.  ``coords`` is a tuple of Fractions
    of length 1 or 2, or ``None`` for the distinguished Infinity element.
    """

    __slots__ = ("coords",)

    def __init__(self, coords: Optional[Sequence[Scalar]]):
        if coords is None:
            object.__setattr__(self, "coords", None)
            return
        tup = tuple(c if type(c) is Fraction else Fraction(c) for c in coords)
        if len(tup) not in (1, 2):
            raise DomainError(f"rank must be 1 or 2, got {len(tup)}")
        object.__setattr__(self, "coords", tup)

    def __setattr__(self, *a):  # pragma: no cover - immutability guard
        raise AttributeError("Value is immutable")

    # -- constructors -----------------------------------------------------

    @classmethod
    def of(cls, x) -> "Value":
        """Coerce an int, Fraction, str, tuple or Value into a Value."""
        if isinstance(x, Value):
            return x
        if isinstance(x, (int, Fraction)):
            return cls((x,))
        if isinstance(x, str):
            return cls.parse(x)
        if isinstance(x, (tuple, list)):
            return cls(x)
        raise DomainError(f"cannot interpret {x!r} as a Value")

    @classmethod
    def parse(cls, text: str) -> "Value":
        """Parse ``a/b``, ``(a/b, c/d)`` or ``inf``.

        A number longer than MAX_PARSE_DIGITS digits, or a power of ten above
        10^MAX_PARSE_DIGITS (``1e5000``), raises ResourceError.
        """
        s = text.strip()
        if s.lower() in ("inf", "infinity", "oo"):
            return INFINITY
        try:
            if s.startswith("(") and s.endswith(")"):
                parts = s[1:-1].split(",")
                return cls([_parse_rational(p) for p in parts])
            return cls((_parse_rational(s),))
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"cannot parse value {text!r}: {exc}") from None

    # -- queries -----------------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.coords is None

    @property
    def rank(self) -> int:
        if self.coords is None:
            raise DomainError("Infinity has no rank")
        return len(self.coords)

    def embed(self, rank: int, *, major: bool) -> "Value":
        """Embed into the given rank; the caller names the side.

        ``major=True`` places the old value first, q -> (q, 0);
        ``major=False`` places it second, q -> (0, q).
        """
        if self.coords is None:
            return self
        if rank == self.rank:
            return self
        if rank == 2 and self.rank == 1:
            q = self.coords[0]
            return Value((q, 0)) if major else Value((0, q))
        raise DomainError(f"cannot embed rank-{self.rank} value into rank {rank}")

    def demote(self) -> "Value":
        """Collapse (q, 0) to rank-1 q; other values are returned unchanged."""
        if self.coords is not None and len(self.coords) == 2 and self.coords[1] == 0:
            return Value((self.coords[0],))
        return self

    # -- arithmetic --------------------------------------------------------

    def _pair(self, other: "Value"):
        a, b = self, Value.of(other)
        if a.coords is not None and b.coords is not None and len(a.coords) != len(b.coords):
            raise DomainError(f"values of different rank: {a} and {b}; embed one explicitly")
        return a, b

    def __add__(self, other) -> "Value":
        a, b = self._pair(other)
        if a.coords is None or b.coords is None:
            return INFINITY
        return Value(tuple(x + y for x, y in zip(a.coords, b.coords)))

    __radd__ = __add__

    def __neg__(self) -> "Value":
        if self.coords is None:
            raise DomainError("cannot negate Infinity")
        return Value(tuple(-c for c in self.coords))

    def __sub__(self, other) -> "Value":
        b = Value.of(other)
        if b.is_infinite:
            raise DomainError("cannot subtract Infinity")
        return self + (-b)

    def scaled(self, m: Scalar) -> "Value":
        """Scalar multiple m * self; Infinity absorbs any scaling."""
        if self.coords is None:
            return INFINITY
        return Value(tuple(Fraction(m) * c for c in self.coords))

    # -- order -------------------------------------------------------------

    def _cmp(self, other) -> int:
        a, b = self._pair(other)
        if a.coords is None and b.coords is None:
            return 0
        if a.coords is None:
            return 1
        if b.coords is None:
            return -1
        if a.coords < b.coords:
            return -1
        if a.coords > b.coords:
            return 1
        return 0

    def __eq__(self, other):
        if not isinstance(other, (Value, int, Fraction)):
            return NotImplemented
        a, b = self._pair(other)
        return a.coords == b.coords

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other):
        return self._cmp(other) < 0

    def __le__(self, other):
        return self._cmp(other) <= 0

    def __gt__(self, other):
        return self._cmp(other) > 0

    def __ge__(self, other):
        return self._cmp(other) >= 0

    # -- rendering ----------------------------------------------------------

    def __str__(self):
        if self.coords is None:
            return "inf"
        if len(self.coords) == 1:
            return str(self.coords[0])
        return f"({self.coords[0]}, {self.coords[1]})"

    def __repr__(self):
        return f"Value({self})"


INFINITY = Value(None)


# ---------------------------------------------------------------------------
# Shared values and canonical digits
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _value_of(key: Optional[Tuple[int, ...]], den: int) -> Value:
    """The Value with coordinates key/den, or Infinity for key None.

    Equal keys share one immutable Value while it stays in the bounded cache;
    the key's length is the Value's rank.
    """
    if key is None:
        return INFINITY
    return Value(tuple(Fraction(k, den) for k in key))


def _units_of(v: Value, den: int) -> Tuple[int, ...]:
    """The coordinates of a finite v in units of 1/den, a multiple of their
    denominators: the inverse of :func:`_value_of`."""
    return tuple(c.numerator * (den // c.denominator) for c in v.coords)


def _group_units(beta, b: Value, D: int, n: int) -> int:
    """b, the Value of beta, in units of 1/D, where (1/D)Z is the value group
    of the polynomials of degree < n; DomainError naming beta when b is not
    a rank-1 value in that group."""
    if b.coords is None or len(b.coords) != 1 or D % b.coords[0].denominator:
        raise DomainError(f"{beta} is not in the value group of degree<{n} polynomials")
    return _units_of(b, D)[0]


def _digits_of(rows: Sequence[Tuple[int, int, int, int]], B: int) -> List[int]:
    """Digits (c, m_1, ..., m_{i-1}) of the value B/D_i, given the digit-table
    rows of the i-1 steps below level i (see ``InductiveValuation.digit_vector``)."""
    exps = [0] * (len(rows) + 1)
    for j in range(len(rows), 0, -1):
        e, _, g, inv = rows[j - 1]
        m = B * inv % e
        exps[j] = m
        B = (B - m * g) // e
    exps[0] = B
    return exps


# ---------------------------------------------------------------------------
# Subgroups of Q^r generated by finitely many values
# ---------------------------------------------------------------------------


def _xgcd(a: int, b: int) -> Tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b and g >= 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return (a, s0, t0) if a >= 0 else (-a, -s0, -t0)


def _hermite(vecs) -> Tuple[int, int, int]:
    """(a, b, d) with a, d >= 0 and Z*(a, b) + Z*(0, d) the lattice spanned by
    the integer 2-vectors vecs; b = 0 when a = 0.

    Merging (u, v) into the row (a, b) is the unimodular step
    [[s, t], [-u/g, a/g]] with g = gcd(a, u) = s*a + t*u: the row becomes
    (g, s*b + t*v) and the rest (0, (a*v - u*b)/g) joins d.
    """
    a = b = d = 0
    for u, v in vecs:
        g, s, t = _xgcd(a, u)
        if g == 0:
            d = gcd(d, v)
            continue
        d = gcd(d, (a * v - u * b) // g)
        a, b = g, s * b + t * v
    return a, b, d


def _index(gamma, gens, what: str) -> Optional[int]:
    """Least e >= 1 with e*gamma in the Z-span of gens, or None.

    Denominators are cleared, and rank-1 input goes into the minor
    coordinate, q -> (0, q), so one rank-2 lattice serves both ranks; mixed
    ranks raise DomainError.  what names the caller in errors.
    """
    vals = [Value.of(x) for x in (gamma, *gens)]
    if len(vals) == 1:
        raise DomainError("generator list must be non-empty")
    if any(v.is_infinite for v in vals):
        raise DomainError(f"{what} requires finite values")
    if len({v.rank for v in vals}) > 1:
        raise DomainError(f"{what} requires values of one rank")
    vals = [v.embed(2, major=False) for v in vals]
    den = lcm(*(c.denominator for v in vals for c in v.coords))
    (x, y), *vecs = [(int(v.coords[0] * den), int(v.coords[1] * den)) for v in vals]
    a, b, d = _hermite(vecs)
    if a == 0:
        if x:
            return None
        e, rest = 1, y
    else:
        # e*x must be a multiple of a; k = e*x/a copies of the row leave rest
        e = a // gcd(x, a)
        rest = e * y - (e * x // a) * b
    if rest == 0:
        return e
    if d == 0:
        return None
    return e * (d // gcd(rest, d))


def subgroup_index(gamma, gens) -> Optional[int]:
    """Least e >= 1 with e*gamma in the subgroup of Q^r generated by ``gens``.

    Returns None when no positive multiple of gamma lies in the subgroup.
    Solved exactly by clearing denominators and integer lattice reduction.
    """
    return _index(gamma, gens, "subgroup_index")


def in_subgroup(gamma, gens) -> bool:
    """Whether gamma lies in the subgroup of Q^r generated by ``gens``."""
    return subgroup_index(gamma, gens) == 1


def is_commensurable(gamma, gens) -> bool:
    """Whether some positive multiple of gamma lies in the Q-span of ``gens``.

    For rational vectors a multiple of gamma lies in the Q-span exactly when
    one lies in the Z-span, so this is the question of subgroup_index.
    """
    return _index(gamma, gens, "is_commensurable") is not None
