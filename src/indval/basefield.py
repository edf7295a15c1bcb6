"""The base field Q with a p-adic valuation, and univariate polynomials over Q.

Everything is exact.  Rationals are `fractions.Fraction`.  A polynomial is
kept in integer-content form: integer numerators, constant term first and no
trailing zero, over one positive common denominator that shares no factor
with all of them.  Its arithmetic runs on Python integers; Fractions appear
only where a coefficient leaves the class (``coeffs``, ``coeff``,
``leading``, printing).  The expansion f = sum f_s phi^s in a monic key, its
work budget and the monomial-value kernel every expansion feeds also live
here, below the chains that use them.

Primality of the base prime is decided by deterministic Miller-Rabin on the
prime bases up to 41, which is exact below 3.3 * 10^24 (Sorenson-Webster,
Math. Comp. 86, 2017); larger moduli raise ResourceError.
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, ParseError, ResourceError
from .values import INFINITY, Value, _check_digits

Rational = Union[int, Fraction]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# least strong pseudoprime to every base in _MR_BASES (Sorenson-Webster 2017)
_MR_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_LIMIT:
        raise ResourceError(f"primality of {n} is only decided below {_MR_LIMIT}")
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PadicValuation:
    """The p-adic valuation v on Q, normalized so v(p) = 1.

    The value group is Z (embedded in Q) and the residue field is F_p,
    reached through :meth:`residue` / :meth:`lift`.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not _is_prime(p):
            raise DomainError(f"{p} is not prime")
        object.__setattr__(self, "p", p)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("PadicValuation is immutable")

    def __eq__(self, other):
        return isinstance(other, PadicValuation) and self.p == other.p

    def __hash__(self):
        return hash(("PadicValuation", self.p))

    def __repr__(self):
        return f"PadicValuation({self.p})"

    def int_order(self, n: int) -> int:
        if n == 0:
            raise DomainError("order of 0 is infinite")
        if self.p == 2:
            return (n & -n).bit_length() - 1
        k = 0
        n = abs(n)
        while n % self.p == 0:
            n //= self.p
            k += 1
        return k

    def value(self, a: Rational) -> Value:
        """Exact p-adic order of a rational; value(0) is Infinity."""
        if not isinstance(a, (int, Fraction)):
            a = Fraction(a)
        if a == 0:
            return INFINITY
        return Value.of(self.int_order(a.numerator) - self.int_order(a.denominator))

    def residue(self, a: Rational) -> int:
        """Image of a in F_p = Z/p; requires value(a) >= 0."""
        a = Fraction(a)
        if a.denominator % self.p == 0:
            raise DomainError(f"{a} has negative {self.p}-adic value; no residue")
        return (a.numerator * pow(a.denominator, -1, self.p)) % self.p

    def lift(self, z: int) -> Fraction:
        """Canonical rational lift of a residue class, in [0, p)."""
        return Fraction(z % self.p)


# ---------------------------------------------------------------------------
# Polynomials over Q
# ---------------------------------------------------------------------------

# Largest exponent Poly.parse and TowerPoly.parse accept.  Parsed polynomials
# are dense, so time and memory grow with the degree; every degree the tests,
# demos and benchmark use is far below the cap.  Their numbers are capped at
# values.MAX_PARSE_DIGITS decimal digits.
MAX_PARSE_DEGREE = 2**16


def _parse_exponent(digits: str) -> int:
    """The exponent written in decimal ``digits``; ResourceError, raised before
    anything is allocated, when it exceeds MAX_PARSE_DEGREE."""
    if len(digits.lstrip("0")) > len(str(MAX_PARSE_DEGREE)) or int(digits) > MAX_PARSE_DEGREE:
        raise ResourceError(f"exponents above {MAX_PARSE_DEGREE} are not parsed")
    return int(digits)


# One term of a polynomial in the variable {v}: an optional sign, then a
# coefficient with an optional ``*{v}`` or ``*{v}^k``, or the variable alone.
# A coefficient is a rational a or a/b, or a bracket form: nested lists of
# integers whose minus signs stand right before a digit, so that
# ``[1,0]-[0,1]`` is two terms.  Whitespace may separate tokens and surround
# ``^``; it never splits a number.
_TERM_PATTERN = r"""(?P<sign>[+-])?\s*
    (?:
        (?P<coeff>\d+(?:/\d+)?|\[[\d\s,\[\]]*(?:-\d[\d\s,\[\]]*)*\])
        \s*(?:\*?\s*(?P<va>{v}(?:\s*\^\s*(?P<ka>\d+))?))?
      | (?P<vb>{v}(?:\s*\^\s*(?P<kb>\d+))?)
    )\s*"""
_TERM_RE = {v: re.compile(_TERM_PATTERN.format(v=v), re.VERBOSE) for v in "xy"}


def _terms(text: str, var: str) -> List[Tuple[int, Optional[str], int]]:
    """Split a polynomial in ``var`` (x or y) into (sign, coefficient text or
    None, exponent) triples: the one grammar of Poly.parse and TowerPoly.parse.

    Terms after the first need a sign.  ``v^0`` is 1.  The caller converts
    the coefficient text, so a coefficient form the field does not read (a
    bracket in x, a fraction in y) is its ParseError.  An exponent above
    MAX_PARSE_DEGREE, or a number of more than MAX_PARSE_DIGITS digits,
    raises ResourceError.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial")
    _check_digits(s)
    term_re = _TERM_RE[var]
    terms = []
    pos = 0
    while pos < len(s):
        m = term_re.match(s, pos)
        if not m:
            raise ParseError(f"cannot parse polynomial {text!r} at {s[pos:]!r}")
        sign = m.group("sign")
        if sign is None and pos:
            raise ParseError(f"missing +/- between terms in {text!r}")
        k = 0
        if m.group("va") or m.group("vb"):
            kstr = m.group("ka") or m.group("kb")
            k = _parse_exponent(kstr) if kstr else 1
        terms.append((-1 if sign == "-" else 1, m.group("coeff"), k))
        pos = m.end()
    return terms


def _pack(num: List[int]) -> Sequence[int]:
    """Numerators as an array of 64-bit ints when they all fit, else a tuple.

    The array keeps a coefficient in 8 bytes, against about 40 for an int
    object in a tuple, which matters for polynomials held for a long time
    (keys, results).  The choice depends on the values alone, so equal
    polynomials still have equal ``num``.
    """
    try:
        return array("q", num)
    except OverflowError:
        return tuple(num)


class Poly:
    """A univariate polynomial over Q in the indeterminate x.

    Stored as ``num``, a sequence of ints (constant term first, no trailing
    zero; an ``array('q')`` when every numerator fits in 64 bits, else a
    tuple), over ``den``, a positive int, reduced so that
    gcd(den, *num) = 1: equal polynomials have equal ``(num, den)``.  The
    zero polynomial has an empty ``num``, ``den`` 1 and degree ``None``.
    ``coeffs`` gives the coefficients as Fractions.
    """

    __slots__ = ("num", "den")

    def __init__(self, coeffs: Iterable[Rational]):
        cs = [c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, num: List[int], den: int) -> None:
        """Store num[k] / den (den != 0) in reduced form."""
        while num and not num[-1]:
            num.pop()
        if not num:
            den = 1
        else:
            g = gcd(den, *num)
            if den < 0:
                g = -g
            if g != 1:
                num = [n // g for n in num]
                den //= g
        object.__setattr__(self, "num", _pack(num))
        object.__setattr__(self, "den", den)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_ints(cls, num: Sequence[int], den: int = 1) -> "Poly":
        """The polynomial with coefficients num[k] / den (den != 0)."""
        out = object.__new__(cls)
        out._set(list(num), den)
        return out

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def constant(cls, c: Rational) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, c: Rational, k: int) -> "Poly":
        return cls((0,) * k + (c,))

    @classmethod
    def parse(cls, text: str) -> "Poly":
        """Parse sums of terms ``c*x^k``, ``x^k``, ``x`` and constants, c a
        rational ``a`` or ``a/b``, in the grammar of ``_terms``.

        The ``*`` is optional.  An exponent above MAX_PARSE_DEGREE, or a
        number of more than MAX_PARSE_DIGITS digits, raises ResourceError.
        """
        coeffs: dict[int, Rational] = {}
        for sgn, c, k in _terms(text, "x"):
            try:
                a = 1 if c is None else int(c) if c.isdigit() else Fraction(c)
            except ZeroDivisionError:
                raise ParseError(f"zero denominator in polynomial {text!r}") from None
            except ValueError:
                raise ParseError(f"cannot parse coefficient {c!r} in {text!r}") from None
            coeffs[k] = coeffs.get(k, 0) + sgn * a
        return cls(coeffs.get(i, 0) for i in range(max(coeffs) + 1))

    # -- queries -----------------------------------------------------------

    @property
    def coeffs(self) -> Tuple[Fraction, ...]:
        """The coefficients as Fractions, constant term first."""
        den = self.den
        return tuple(Fraction(n, den) for n in self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    @property
    def degree(self) -> Optional[int]:
        """Degree, or None for the zero polynomial."""
        return len(self.num) - 1 if self.num else None

    @property
    def is_monic(self) -> bool:
        return bool(self.num) and self.num[-1] == self.den

    @property
    def is_constant(self) -> bool:
        return len(self.num) <= 1

    def leading(self) -> Fraction:
        if not self.num:
            raise DomainError("zero polynomial has no leading coefficient")
        return Fraction(self.num[-1], self.den)

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.num[k], self.den) if 0 <= k < len(self.num) else Fraction(0)

    def constant_value(self) -> Fraction:
        """The rational represented by a constant polynomial."""
        if len(self.num) > 1:
            raise DomainError("polynomial is not constant")
        return Fraction(self.num[0], self.den) if self.num else Fraction(0)

    # -- arithmetic ----------------------------------------------------------

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign * other, for sign = 1 or -1."""
        a, b = tuple(self.num), tuple(other.num)
        da, db = self.den, other.den
        if da == db:
            ma = mb = 1
        else:
            g = gcd(da, db)
            ma, mb = db // g, da // g
        mb *= sign
        out = [x * ma for x in a] if ma != 1 else list(a)
        if len(b) > len(out):
            out.extend([0] * (len(b) - len(out)))
        for k, y in enumerate(b):
            out[k] += y * mb
        return Poly.from_ints(out, da * ma)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly.from_ints([-n for n in self.num], self.den)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = tuple(self.num), tuple(other.num)
        if not a or not b:
            return Poly(())
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b, i):
                    out[j] += x * y
        return Poly.from_ints(out, self.den * other.den)

    def scale(self, c: Rational) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = Fraction(c)
        return Poly.from_ints([n * c.numerator for n in self.num], self.den * c.denominator)

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise DomainError("negative polynomial power")
        result = Poly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "Poly":
        """Multiply by x^k."""
        if self.is_zero:
            return self
        return Poly.from_ints([0] * k + list(self.num), self.den)

    def _divmod_any(self, g: "Poly") -> Tuple["Poly", "Poly"]:
        """f = q*g + r with deg r < deg g, for any non-zero g.

        Integer pseudo-division of the numerators: with L the leading
        numerator of g and k the number of elimination steps,
        L^k * F = Q*G + R, so q = Q*den(g) / (L^k*den(f)) and
        r = R / (L^k*den(f)).  For a monic integral g (L = 1) this is plain
        long division over Z.
        """
        G = tuple(g.num)
        if not G:
            raise DomainError("division by zero polynomial")
        n = len(G) - 1
        if len(self.num) <= n:
            return Poly(()), self
        lead = G[-1]
        r = list(self.num)
        q = [0] * (len(r) - n)
        k = 0
        for i in range(len(r) - n - 1, -1, -1):
            c = r[i + n]
            if not c:
                continue
            if lead != 1:
                r = [lead * x for x in r]
                q = [lead * x for x in q]
                k += 1
            q[i] = c
            for j in range(n):
                r[i + j] -= c * G[j]
        den = lead**k * self.den
        return Poly.from_ints([x * g.den for x in q], den), Poly.from_ints(r[:n], den)

    def divmod_monic(self, g: "Poly") -> Tuple["Poly", "Poly"]:
        """Exact division f = q*g + r with deg r < deg g, for monic g."""
        if g.is_zero or g.is_constant:
            raise DomainError("divisor must be non-constant")
        if not g.is_monic:
            raise DomainError("divisor must be monic")
        return self._divmod_any(g)

    def __mod__(self, g: "Poly") -> "Poly":
        return self.divmod_monic(g)[1]

    # -- equality / rendering -------------------------------------------------

    def __eq__(self, other):
        return isinstance(other, Poly) and self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(self.num), self.den))

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for k in range(len(self.num) - 1, -1, -1):
            if not self.num[k]:
                continue
            c = Fraction(self.num[k], self.den)
            if k == 0:
                body = str(abs(c))
            else:
                xs = "x" if k == 1 else f"x^{k}"
                body = xs if abs(c) == 1 else f"{abs(c)}*{xs}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"Poly({self})"


# ---------------------------------------------------------------------------
# Expansions in a monic key and their monomial values
# ---------------------------------------------------------------------------


def _linear_digits(coeffs: Sequence[Fraction], a: Fraction) -> List[Fraction]:
    """Digits of f at the monic linear base x - a, by synthetic division."""
    if a == 0:
        return list(coeffs)
    cs = list(coeffs)
    out: List[Fraction] = []
    while cs:
        k = len(cs) - 1
        acc = cs[k]
        q = [Fraction(0)] * k
        for j in range(k - 1, -1, -1):
            q[j] = acc
            acc = cs[j] + a * acc
        out.append(acc)
        cs = q
    return out


# The work budget: the most bits an expansion may be estimated to produce
# (see check_expansion_work).  The estimate grows with the square of the
# degree; 2^23 bits admits x^2048 + 1 in x^2 + 2, about 0.5 s of expansion.
MAX_EXPANSION_BITS = 2**23


def check_expansion_work(f: Poly, phi: Poly) -> None:
    """Raise ResourceError when the phi-expansion of f is estimated to hold
    more than MAX_EXPANSION_BITS bits.

    Each of the n = deg(f) // deg(phi) division steps can lengthen the
    coefficients by the bit height k of phi, so the n + 1 digits hold at most
    about (n + 1) * deg(phi) * (h + n*k) bits, h the bit height of f (taken
    as 64 plus its denominator's for numerators that fit in 64 bits), and
    the time to compute them grows with that size.  Expanding in x is free.
    Called once per top-level value, expansion or decomposition, never per
    digit.
    """
    m = phi.degree
    n = f.degree // m if f.num else 0
    if n == 0 or (m == 1 and not phi.num[0]):
        return
    # numerators kept in an array fit in 64 bits, a bound that needs no scan
    h = 64 if isinstance(f.num, array) else max(map(int.bit_length, f.num))
    k = max(map(int.bit_length, phi.num)) + phi.den.bit_length()
    bits = (n + 1) * m * (h + f.den.bit_length() + n * k)
    if bits > MAX_EXPANSION_BITS:
        raise ResourceError(
            f"expanding a polynomial of degree {f.degree} in {phi} is estimated at "
            f"{bits} bits, past the work budget of {MAX_EXPANSION_BITS}"
        )


def phi_expansion(f: Poly, phi: Poly) -> List[Poly]:
    """Digit expansion f = sum f_s phi^s with deg f_s < deg phi.

    Returned constant-coefficient-first, including interior zero coefficients;
    the zero polynomial expands to [0].
    """
    if phi.degree is None or phi.degree < 1:
        raise DomainError("expansion base must be non-constant")
    if not phi.is_monic:
        raise DomainError("expansion base must be monic")
    if f.is_zero:
        return [Poly.zero()]
    if phi.degree == 1:
        if phi.den == 1:  # integral root: integer Taylor shift of the numerators
            return [Poly.from_ints((d,), f.den) for d in _linear_digits(f.num, -phi.num[0])]
        return [Poly.constant(c) for c in _linear_digits(f.coeffs, -phi.coeff(0))]
    out: List[Poly] = []
    cur = f
    while not cur.is_zero:
        cur, r = cur.divmod_monic(phi)
        out.append(r)
    return out


@dataclass(frozen=True)
class ExpansionReport:
    """Top-key expansion data: coefficients, monomial values and the argmin set."""

    coeffs: Tuple[Poly, ...]
    monomial_values: Tuple[Value, ...]
    mu: Value
    indices: Tuple[int, ...]
    s: int
    s_prime: int


def _monomial_values(coeffs: Sequence[Poly], gamma: Value, value_of) -> List[Value]:
    """The monomial values value_of(f_s) + s*gamma of an expansion sum f_s phi^s
    in a key of value gamma, Infinity for f_s = 0.

    The one kernel behind every expansion: chain evaluation (with the prefix
    chain as value_of), expansion reports, the residual decomposition and the
    scan path of limit valuations (with stable values as value_of).
    """
    return [INFINITY if c.is_zero else value_of(c) + gamma.scaled(s) for s, c in enumerate(coeffs)]


def _report(coeffs: Sequence[Poly], gamma: Value, value_of) -> ExpansionReport:
    """The monomial values of an expansion with their minimum and argmin set."""
    vals = _monomial_values(coeffs, gamma, value_of)
    mu = min(vals)
    idx = tuple(s for s, w in enumerate(vals) if w == mu)
    return ExpansionReport(tuple(coeffs), tuple(vals), mu, idx, idx[0], idx[-1])
