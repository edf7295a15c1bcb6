"""Elements of lexicographically ordered Q^r (r = 1 or 2) plus Infinity.

Every value handled by the library lives here: assigned key values, valuation
outputs, value-group generators.  Rank is capped at 2: a single incommensurable
augmentation is the worst case reachable from a rank-one base, so two
lexicographic coordinates always suffice, and rank > 2 input is rejected.

When a rank-1 value meets a rank-2 value in raw arithmetic or comparison, the
rank-1 value is embedded into the *minor* (second) coordinate, q -> (0, q), so
a fresh (1, 0) dominates every embedded value.  Chain code that needs the
opposite convention (old values in the major coordinate, with an infinitesimal
second coordinate) performs that promotion explicitly via :meth:`Value.embed`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence, Union

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

    @property
    def is_zero(self) -> bool:
        return self.coords is not None and all(c == 0 for c in self.coords)

    def embed(self, rank: int, major: bool = False) -> "Value":
        """Embed into the given rank.

        ``major=False`` places the old value in the second coordinate,
        q -> (0, q); ``major=True`` places it first, q -> (q, 0).
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
        if a.coords is None or b.coords is None:
            return a, b
        if a.rank != b.rank:
            r = max(a.rank, b.rank)
            a, b = a.embed(r), b.embed(r)
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

    def over(self, n: Scalar) -> "Value":
        """Exact componentwise division by a non-zero scalar."""
        if Fraction(n) == 0:
            raise DomainError("division by zero")
        if self.coords is None:
            return INFINITY
        return Value(tuple(c / Fraction(n) for c in self.coords))

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
        o = Value.of(other)
        if self.coords is None or o.coords is None:
            return self.coords is None and o.coords is None
        a, b = self._pair(o)
        return a.coords == b.coords

    def __hash__(self):
        if self.coords is None:
            return hash("Value.INF")
        # rank-1 q and its minor embedding (0, q) compare equal, so hash alike
        c = self.coords if len(self.coords) == 2 else (Fraction(0), self.coords[0])
        return hash(c)

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
# Subgroups of Q^r generated by finitely many values
# ---------------------------------------------------------------------------


def _common_rank(values: Iterable[Value]) -> int:
    return max(v.rank for v in values)


def _as_int_vectors(gamma: Value, gens: Sequence[Value]):
    """Clear denominators: return (gamma_vec, gen_vecs) as integer tuples."""
    rank = _common_rank([gamma, *gens])
    vals = [v.embed(rank) for v in (gamma, *gens)]
    denom = 1
    for v in vals:
        for c in v.coords:
            denom = denom * c.denominator // gcd(denom, c.denominator)
    ints = [tuple(int(c * denom) for c in v.coords) for v in vals]
    return ints[0], ints[1:], rank


def _lattice_basis_rank2(vecs):
    """Triangular basis of the lattice spanned by integer 2-vectors.

    Returns (w, d) with w = (a, b) (a >= 0) and d >= 0 such that the lattice
    is Z*w + Z*(0, d).  Either part may degenerate to zero.
    """
    w = (0, 0)
    leftovers = []
    for v in vecs:
        if v == (0, 0):
            continue
        if v[0] == 0:
            leftovers.append(v[1])
            continue
        if w[0] == 0:
            if w != (0, 0):
                leftovers.append(w[1])
            w = v
            continue
        # extended gcd on the first coordinates
        a, b = w[0], v[0]
        old_r, r = a, b
        old_s, s = 1, 0
        old_t, t = 0, 1
        while r:
            q = old_r // r
            old_r, r = r, old_r - q * r
            old_s, s = s, old_s - q * s
            old_t, t = t, old_t - q * t
        new_w = (old_r, old_s * w[1] + old_t * v[1])
        # both inputs reduce to multiples of new_w plus a second-coordinate rest
        leftovers.append(w[1] - (w[0] // old_r) * new_w[1])
        leftovers.append(v[1] - (v[0] // old_r) * new_w[1])
        w = new_w
    d = 0
    for y in leftovers:
        d = gcd(d, abs(y))
    if w[0] < 0:
        w = (-w[0], -w[1])
    if w[0] == 0:
        d = gcd(d, abs(w[1]))
        w = (0, 0)
    return w, d


def _min_multiplier_rank1(g_vec: int, gens) -> Optional[int]:
    lattice_gcd = 0
    for (x,) in gens:
        lattice_gcd = gcd(lattice_gcd, abs(x))
    v = g_vec
    if v == 0:
        return 1
    if lattice_gcd == 0:
        return None
    return lattice_gcd // gcd(abs(v), lattice_gcd)


def _min_multiplier_rank2(g_vec, gens) -> Optional[int]:
    w, d = _lattice_basis_rank2(gens)
    u, v = g_vec
    if (u, v) == (0, 0):
        return 1
    a, b = w
    if a == 0:
        if u != 0:
            return None
        if d == 0:
            return None
        return d // gcd(abs(v), d)
    e1 = a // gcd(abs(u), a) if u != 0 else 1
    # with e = e1*t the first coordinate forces k = e*u/a copies of w
    rest = e1 * v - (e1 * u // a) * b
    if d == 0:
        return e1 if rest == 0 else None
    t = d // gcd(abs(rest), d) if rest != 0 else 1
    return e1 * t


def subgroup_index(gamma, gens) -> Optional[int]:
    """Least e >= 1 with e*gamma in the subgroup of Q^r generated by ``gens``.

    Returns None when no positive multiple of gamma lies in the subgroup.
    Solved exactly by clearing denominators and integer lattice reduction.
    """
    g = Value.of(gamma)
    gen_values = [Value.of(x) for x in gens]
    if not gen_values:
        raise DomainError("generator list must be non-empty")
    if g.is_infinite or any(v.is_infinite for v in gen_values):
        raise DomainError("subgroup_index requires finite values")
    g_vec, gen_vecs, rank = _as_int_vectors(g, gen_values)
    if rank == 1:
        return _min_multiplier_rank1(g_vec[0], gen_vecs)
    return _min_multiplier_rank2(g_vec, gen_vecs)


def in_subgroup(gamma, gens) -> bool:
    """Whether gamma lies in the subgroup of Q^r generated by ``gens``."""
    return subgroup_index(gamma, gens) == 1


def is_commensurable(gamma, gens) -> bool:
    """Whether some positive multiple of gamma lies in the Q-span of ``gens``."""
    g = Value.of(gamma)
    gen_values = [Value.of(x) for x in gens]
    if not gen_values:
        raise DomainError("generator list must be non-empty")
    if g.is_infinite or any(v.is_infinite for v in gen_values):
        raise DomainError("is_commensurable requires finite values")
    g_vec, gen_vecs, rank = _as_int_vectors(g, gen_values)
    if rank == 1:
        return g_vec[0] == 0 or any(v != (0,) for v in gen_vecs)
    nonzero = [v for v in gen_vecs if v != (0, 0)]
    if g_vec == (0, 0):
        return True
    if not nonzero:
        return False
    first = nonzero[0]
    if all(v[0] * first[1] == v[1] * first[0] for v in nonzero):
        # Q-span is the line through `first`
        return g_vec[0] * first[1] == g_vec[1] * first[0]
    return True
