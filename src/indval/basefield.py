"""The base field Q with a p-adic valuation, and univariate polynomials over Q.

Everything is exact.  Rationals are `fractions.Fraction`.  A polynomial is
kept in integer-content form: integer numerators, constant term first and no
trailing zero, over one positive common denominator that shares no factor
with all of them.  Its arithmetic runs on Python integers; Fractions appear
only where a coefficient leaves the class (``coeffs``, ``coeff``, printing).
The expansion f = sum f_s phi^s in a monic key also runs on integers: one
division loop (``_divide``) serves Poly division and expansions alike, an
expansion divides one running list of numerators in place, and only its
digits become Polys.  The expansion's work budget, the monomial-value
kernel of chain evaluation and the one level-one argmin loop live here too,
below the chains and limit valuations that use them.

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
from typing import Callable, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

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
    """The p-adic valuation v on Q, normalized so v(p) = 1; its value group
    is Z (embedded in Q)."""

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


def _power(x, n: int, mul, one):
    """x^n for n >= 0 by left-to-right binary powering.

    The loop starts at the top set bit of n, so it takes no product by one
    and no squaring after the last bit: x^(2^k) costs exactly k squarings.
    The one powering loop of the package, for Poly, tower elements and
    TowerPoly alike.
    """
    if n == 0:
        return one
    result = x
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


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
        return _power(self, n, Poly.__mul__, Poly.one())

    def _divmod_any(self, g: "Poly") -> Tuple["Poly", "Poly"]:
        """f = q*g + r with deg r < deg g, for any non-zero g.

        One call of the division loop :func:`_divide` on the numerators: with
        L the leading numerator of g and k the number of pseudo-division
        steps, L^k * F = Q*G + R, so q = Q*den(g) / (L^k*den(f)) and
        r = R / (L^k*den(f)).  For a monic integral g (L = 1) this is plain
        long division over Z.
        """
        G = tuple(g.num)
        if not G:
            raise DomainError("division by zero polynomial")
        n = len(G) - 1
        r = list(self.num)
        den = G[-1] ** _divide(r, G, 1) * self.den
        return Poly.from_ints([x * g.den for x in r[n:]], den), Poly.from_ints(r[:n], den)

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


def _divide(r: List[int], G: Sequence[int], times: int) -> int:
    """Divide the numerators r by G in place, and the quotient again, times
    times in all: the one integer division loop behind Poly division and
    phi-expansions.

    With n = deg G, afterwards r[:times*n] holds the remainders, n numerators
    each, and r[times*n:] the last quotient.  A monic integral linear
    G = x - a takes synthetic division, one Horner pass per division; every
    other G eliminates each top numerator with its non-zero coefficients
    alone.  A G whose leading numerator L is not 1 is divided once, by
    pseudo-division: L^k * r = Q*G + R for the returned count k of
    elimination steps (0 when L = 1).
    """
    n, lead = len(G) - 1, G[-1]
    if n == 1 and lead == 1:
        a = -G[0]
        if a and r:
            for lo in range(times):
                acc = r[-1]
                for j in range(len(r) - 2, lo - 1, -1):
                    acc = r[j] = r[j] + a * acc
        return 0
    terms = [(j, -c) for j, c in enumerate(G[:-1]) if c]
    k = 0
    for t in range(times):
        for i in range(len(r) - n - 1, t * n - 1, -1):
            c = r[i + n]
            if not c:
                continue
            if lead != 1:
                r[:] = [lead * x for x in r]
                r[i + n] = c
                k += 1
            for j, g in terms:
                r[i + j] += c * g
    return k


def _expand_ints(f: Poly, phi: Poly) -> Tuple[List[int], int]:
    """The phi-expansion of f on integers: a list of numerators holding the
    digit f_s at [s*n : (s+1)*n], n = deg(phi), over one denominator.

    :func:`_divide` takes deg(f) // n divisions of the running quotient,
    which stays in place, so the list ends as the digits.  A key with a
    non-integer coefficient, L its denominator, is made integral by the
    change x = y/L: f(y/L) is expanded in the monic integral key
    L^n phi(y/L), and the numerator at [j] is then multiplied back by L^j,
    with no pseudo-division.
    """
    G, r, den = phi.num, list(f.num), f.den
    n, L, m = len(G) - 1, G[-1], len(r) - 1
    if L != 1:
        G = tuple(g * L ** (n - 1 - j) for j, g in enumerate(G[:-1])) + (1,)
        r = [x * L ** (m - j) for j, x in enumerate(r)]
        den *= L**m
    _divide(r, G, m // n)
    if L != 1:
        r = [x * L**j for j, x in enumerate(r)]
    return r, den


# The work budget: the most bits an expansion may be estimated to produce
# (see check_expansion_work).  The estimate grows with the square of the
# degree; 2^23 bits admits x^2048 + 1 in x^2 + 2, about 0.14 s of expansion
# (Python 3.11 on a 2-vCPU Xeon).
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
    the zero polynomial expands to [0].  The digits come from one running
    list of numerators (:func:`_expand_ints`), and each is built as one
    reduced Poly: no quotient is ever built as a Poly.
    """
    if phi.degree is None or phi.degree < 1:
        raise DomainError("expansion base must be non-constant")
    if not phi.is_monic:
        raise DomainError("expansion base must be monic")
    if f.is_zero:
        return [Poly.zero()]
    r, den = _expand_ints(f, phi)
    return [Poly.from_ints(r[lo : lo + phi.degree], den) for lo in range(0, len(r), phi.degree)]


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

    The kernel of chain evaluation above level 1 (with the prefix chain as
    value_of), of expansion reports on chains of two or more steps, and of
    the scan path of limit valuations (with stable values as value_of).
    Level 1 compares integers instead (:func:`_val_linear`), and the residual
    decomposition values each coefficient through its own expansion
    (``residual._expand``).
    """
    return [INFINITY if c.is_zero else value_of(c) + gamma.scaled(s) for s, c in enumerate(coeffs)]


class _Linear(NamedTuple):
    """A key and its value gamma as :func:`_val_linear` reads them, in units
    of 1/B: a digit d at s has the key order(d)*place + s*gamma, a pair of
    integers compared lexicographically (the minor coordinate is 0 at rank 1).

    ``place`` puts the digit's order into the major coordinate, (B, 0), for a
    chain, whose values below a rank-2 gamma go there, and into the minor one,
    (0, B), for a rank-2 limit valuation, whose stable values go there.  An
    order already in units of 1/B is placed by (1, 0) or (0, 1).
    """

    order: Callable[[object], int]
    place: Tuple[int, int]
    gamma: Tuple[int, int]
    rank: int
    B: int


def _val_linear(lin: _Linear, digits: Sequence, den: int, start: int = 0) -> Tuple[Tuple[int, ...], List[int]]:
    """The value of sum (digits[s]/den) * phi^(start+s) in integer
    coordinates, in units of 1/lin.B, and its argmin set (exponents of phi);
    zero digits are skipped.

    The one level-one argmin loop.  Chains read it at level 1 with the
    integer digits of :func:`_expand_ints` and the p-adic order, both for
    their values (``InductiveValuation._val``, ``valuation`` and, on one-step
    chains, the stability scan and ``expansion_report``, which also values
    each monomial alone, as one digit at start s) and for the residual
    decomposition (``residual._expand``); a limit valuation reads it with its
    linear key's digits, or with the coefficients of a key of the family
    degree d > 1 and their stable values as the order (den 1).  The caller
    builds a Value of the coordinates where a result leaves the library.
    """
    order, (P0, P1), (G0, G1), rank, _ = lin
    best, argmin = None, []
    for s, d in enumerate(digits, start):
        if d:
            o = order(d)
            key = (o * P0 + s * G0, o * P1 + s * G1)
            if best is None or key < best:
                best, argmin = key, [s]
            elif key == best:
                argmin.append(s)
    o = order(den) if den != 1 else 0
    return (best[0] - o * P0, best[1] - o * P1)[:rank], argmin

