"""The base field Q with a p-adic valuation, and univariate polynomials over Q.

Everything is exact.  Rationals are `fractions.Fraction`.  A polynomial is
kept in integer-content form: integer numerators, constant term first and no
trailing zero, over one positive common denominator that shares no factor
with all of them.  Its arithmetic runs on Python integers; Fractions appear
only where a coefficient leaves the class (``coeffs`` and printing).
Products of Polys, and of the prime-field polynomials of ``towers``, go
through one convolution (``_conv``) that picks its method from its operands:
wide ones, with 1/len(f) + 1/len(g) <= 1/4 and a product coefficient bound
above 16 bits, by Kronecker substitution (each operand packed into one int,
one big-int product, its slots read back through ``array``), and the others,
short or with small coefficients, by the schoolbook loop; the crossover
measurements are at ``_KRONECKER_COST``.

The expansion f = sum f_s phi^s in a monic key also runs on integers: one
division loop (``_divide``), on a monic integral divisor only, serves
expansions and Poly division alike.  A key with non-integer coefficients is
made integral by one change of variable, x = y/L (``_expand_ints``), and a
Poly division by g is one division step of that expansion by g over its
leading coefficient.  An expansion divides one running list of numerators
in place, and only its digits become Polys.  In a linear key the
synthetic-division loop (``_horner``) gives the digits one Horner pass at a
time, so the one level-one argmin loop (``_val_linear``) runs only the
passes of the digits it reads: it stops at the first s with s*gamma above
the least monomial value so far, which is exact because digit orders are
>= 0, and can only happen for gamma > 0.  ``phi_expansion`` and
``_expand_ints`` (and with them ``expansion_report``) read every digit.
The expansion's work budget, still sized for the whole expansion, and the
monomial-value kernel of chain evaluation live here too, below the chains
and limit valuations that use them.

Primality of the base prime is decided by deterministic Miller-Rabin on the
prime bases up to 41, which is exact below 3.3 * 10^24 (Sorenson-Webster,
Math. Comp. 86, 2017); larger moduli raise ResourceError.
"""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from itertools import chain
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

from .errors import DomainError, ParseError, ResourceError
from .values import INFINITY, Value, _check_digits, _units_of

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


# When _conv multiplies by Kronecker substitution: when
# len(f)*len(g) >= _KRONECKER_COST*(len(f) + len(g)), that is, when
# 1/len(f) + 1/len(g) <= 1/4, and the product coefficient bound has at least
# _KRONECKER_MIN_BITS bits.  The schoolbook loop takes one multiply-add per
# coefficient pair, and Kronecker costs about as much as 4 of them per
# coefficient of f and g.  Measured as schoolbook time over Kronecker time on
# random dense operands (Python 3.11, 2-vCPU Xeon): 0.96-1.01 at 8 x 8, 6 x 12
# and 4 x 25 coefficients of 49 bits (128-bit slots), x1.6 at 12 x 12 and
# x2.1 at 12 x 25; in 64-bit slots Kronecker gains a little earlier (x1.0-1.4
# at 6 x 8 with 8- to 20-bit coefficients, x2.5-3.1 at 12 x 12); at 2 x 4 to
# 4 x 4 it takes 1.6 to 3.7 times as long.  On 1-bit coefficients, where
# the schoolbook loop skips the zeros, Kronecker wins only from about
# 14 x 14.  So short operands (F_4 elements in ``TowerField._mul``) stay on
# the schoolbook loop, and so do small coefficients (the F_p polynomials of
# ``towers._PrimeLists.mul``, key powers with small coefficients).
_KRONECKER_COST = 4
_KRONECKER_MIN_BITS = 17

# array's item bytes are in the host's order; the packed ints are little-endian
_SWAP = sys.byteorder != "little"


def _native(typecode: str, data: bytes) -> array:
    """Little-endian 8-byte items of data as an array."""
    a = array(typecode, data)
    if _SWAP:
        a.byteswap()
    return a


def _slots(f: Sequence[int], h: int, w: int) -> int:
    """sum f[i] * 2^(8*w*i): the coefficients f, of bit height h < 8*w, in
    w-byte slots of one int.

    Each slot is first filled with the two's complement of its coefficient,
    in its low 8 bytes when h < 64 and in the whole slot else, and the bytes
    are read as one unsigned int u.  A negative coefficient c then reads as
    c + 2^(s+1) in its slot, s the place of its sign bit (63, or 8w - 1), so
    subtracting twice the slots' sign bits from u gives the signed sum.
    """
    if h < 64 and w <= 16:
        a = array("q", f)
        if w == 16:
            a, low = array("q", bytes(16 * len(f))), a
            a[::2] = low
        if _SWAP:
            a.byteswap()
        raw, sign = a.tobytes(), 7
    else:
        raw, sign = b"".join([c.to_bytes(w, "little", signed=True) for c in f]), w - 1
    u = int.from_bytes(raw, "little")
    mask = int.from_bytes((bytes(sign) + b"\x80" + bytes(w - 1 - sign)) * len(f), "little")
    return u - ((u & mask) << 1)


def _kronecker(f: Sequence[int], g: Sequence[int], hf: int, hg: int) -> List[int]:
    """The product of _conv by Kronecker substitution (von zur Gathen-Gerhard,
    Modern Computer Algebra, 8.4), for coefficients of bit heights hf and hg.

    A product coefficient is below 2^b in absolute value for
    b = hf + hg + bit length of min(len f, len g), so slots of 64 bits, else
    128, else the least whole number of bytes above b hold each one with its
    sign.  Both operands are packed (:func:`_slots`) and multiplied as two
    ints.  Adding 2^(k-1) to each k-bit slot of the product makes every slot
    non-negative, so no slot borrows from the next, and flipping each slot's
    top bit again leaves the two's complement of each coefficient: read as
    one array for 64-bit slots, as two for 128 (signed high and unsigned low
    halves), and slot by slot beyond, so the product is exact at every size.
    """
    b = hf + hg + min(len(f), len(g)).bit_length()
    w = 8 if b < 64 else 16 if b < 128 else b // 8 + 1
    n = len(f) + len(g) - 1
    top = int.from_bytes((bytes(w - 1) + b"\x80") * n, "little")
    raw = ((_slots(f, hf, w) * _slots(g, hg, w) + top) ^ top).to_bytes(w * n, "little")
    if w == 8:
        return _native("q", raw).tolist()
    if w == 16:
        return [hi << 64 | lo for hi, lo in zip(_native("q", raw)[1::2], _native("Q", raw)[::2])]
    return [int.from_bytes(raw[i : i + w], "little", signed=True) for i in range(0, w * n, w)]


def _height(f: Sequence[int]) -> int:
    """The bit length of the largest absolute value in f."""
    return max(max(f), -min(f)).bit_length()


def _conv(f: Sequence[int], g: Sequence[int]) -> List[int]:
    """The product of two non-empty integer coefficient sequences as plain,
    unreduced ints, of Polys and of the prime-field polynomials of ``towers``
    alike: the one convolution.

    Wide operands, by the rule at _KRONECKER_COST, are multiplied by
    :func:`_kronecker`; the others by the schoolbook loop, which skips zero
    coefficients of f.
    """
    n, m = len(f), len(g)
    if n * m >= _KRONECKER_COST * (n + m):
        hf, hg = _height(f), _height(g)
        if hf + hg + min(n, m).bit_length() >= _KRONECKER_MIN_BITS:
            return _kronecker(f, g, hf, hg)
    out = [0] * (n + m - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


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

    def __mul__(self, other: "Poly") -> "Poly":
        if not self.num or not other.num:
            return Poly(())
        return Poly.from_ints(_conv(self.num, other.num), self.den * other.den)

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

        One division step of :func:`_expand_ints` by the monic g/c, c the
        leading coefficient of g: the remainder is its digit 0, and its
        quotient over c is q.  With L the leading numerator of g, g/c has
        the numerators of g over L, and 1/c = den(g)/L.  A non-integral
        g/c takes the change x = y/L of expansions there; a monic integral
        g is plain long division over Z.
        """
        G = g.num
        if not G:
            raise DomainError("division by zero polynomial")
        if not self.num:
            return self, self
        n, L = len(G) - 1, G[-1]
        r, den = _expand_ints(self, g if L == g.den else Poly.from_ints(G, L), 1)
        return Poly.from_ints([x * g.den for x in r[n:]], den * L), Poly.from_ints(r[:n], den)

    def divmod_monic(self, g: "Poly") -> Tuple["Poly", "Poly"]:
        """Exact division f = q*g + r with deg r < deg g, for monic g."""
        if g.is_zero or g.is_constant:
            raise DomainError("divisor must be non-constant")
        if not g.is_monic:
            raise DomainError("divisor must be monic")
        return self._divmod_any(g)

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


def _horner(r: List[int], a: int, times: int) -> Iterator[int]:
    """Synthetic division of the numerators r by x - a in place, and of the
    quotient again, times times in all: the one synthetic-division loop.

    Division lo is one Horner pass over r[lo:], which leaves its remainder,
    final from then on, at r[lo]; the generator yields it after each pass,
    so a reader that stops early saves every pass after the last digit it
    read.  r[times:] holds the last quotient once the generator is drained.
    """
    for lo in range(times):
        acc = r[-1]
        for j in range(len(r) - 2, lo - 1, -1):
            acc = r[j] = r[j] + a * acc
        yield r[lo]


def _divide(r: List[int], G: Sequence[int], times: int) -> None:
    """Divide the numerators r by the monic integral G in place, and the
    quotient again, times times in all: the one integer division loop behind
    Poly division and phi-expansions.

    With n = deg G, afterwards r[:times*n] holds the remainders, n numerators
    each, and r[times*n:] the last quotient.  A linear G = x - a drains
    :func:`_horner`, one pass per division; every other G eliminates each
    top numerator with its non-zero coefficients alone.
    """
    n = len(G) - 1
    if n == 1:
        if r and G[0]:
            for _ in _horner(r, -G[0], times):
                pass
        return
    terms = [(j, -c) for j, c in enumerate(G[:-1]) if c]
    for t in range(times):
        for i in range(len(r) - n - 1, t * n - 1, -1):
            c = r[i + n]
            if c:
                for j, g in terms:
                    r[i + j] += c * g


def _expand_ints(f: Poly, phi: Poly, times: int) -> Tuple[List[int], int]:
    """f divided times times by the monic phi on integers, as :func:`_divide`
    leaves it: a list of numerators holding the digit f_s at
    [s*n : (s+1)*n], n = deg(phi), for s < times, and the last quotient
    after them, over one denominator.  times = deg(f) // n gives the whole
    phi-expansion, and 1 one Poly division.

    The running quotient stays in place.  A key with a non-integer
    coefficient, L its denominator, is made integral by the change x = y/L:
    f(y/L) is divided by the monic integral key L^n phi(y/L), and the
    numerator at [j] is then multiplied back by L^j.  Every digit is
    computed, for ``phi_expansion`` and ``Poly._divmod_any``;
    :func:`_linear_digits` gives a linear key's digits one pass at a time,
    for readers that may stop early.
    """
    G, r, den = phi.num, list(f.num), f.den
    n, L, m = len(G) - 1, G[-1], len(r) - 1
    if L != 1:
        G = tuple(g * L ** (n - 1 - j) for j, g in enumerate(G[:-1])) + (1,)
        r = [x * L ** (m - j) for j, x in enumerate(r)]
        den *= L**m
    _divide(r, G, times)
    if L != 1:
        r = [x * L**j for j, x in enumerate(r)]
    return r, den


def _linear_digits(f: Poly, phi: Poly) -> Tuple[Iterator[int], int]:
    """The digits of :func:`_expand_ints` for a monic linear key
    phi = x + c/L, produced one :func:`_horner` pass at a time: digit s costs
    its pass only when it is read.  The change x = y/L makes the key y + c,
    and each digit is multiplied back by L^s as it is read.  In the key x,
    and for a constant, the digits are f's own numerators.
    """
    (c, L), m = phi.num, len(f.num) - 1
    if not c or m < 1:
        return f.num, f.den
    r, den = list(f.num), f.den
    if L != 1:
        r = [x * L ** (m - j) for j, x in enumerate(r)]
        den *= L**m
    digits = chain(_horner(r, -c, m), r[m:])
    return (digits if L == 1 else (d * L**s for s, d in enumerate(digits))), den


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
    r, den = _expand_ints(f, phi, f.degree // phi.degree)
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
    value_of), of expansion reports on chains of every length, and of the
    scan path of limit valuations (with stable values as value_of).
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
    (0, B), for a rank-2 limit valuation, whose stable values go there.
    """

    order: Callable[[object], int]
    place: Tuple[int, int]
    gamma: Tuple[int, int]
    rank: int
    B: int


def _linear(order: Callable[[object], int], gamma: Value, minor: bool = False) -> _Linear:
    """The _Linear of a linear key of value gamma, with B the common
    denominator of gamma's coordinates; minor places the order in the minor
    coordinate."""
    B = lcm(*(c.denominator for c in gamma.coords))
    return _Linear(order, (0, B) if minor else (B, 0), (*_units_of(gamma, B), 0)[:2], gamma.rank, B)


def _val_linear(lin: _Linear, digits: Iterable[int], den: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    """The value of the sum of (d_s/den) * phi^s over the integer digits
    d_0, d_1, ..., in integer coordinates in units of 1/lin.B, and its
    argmin set as a map from s to d_s; zero digits are skipped.

    The one level-one argmin loop.  It reads the digits as an iterable and
    stops before the first s with s*gamma > best, best the least key so far:
    a digit's key order(d)*place + s*gamma is at least s*gamma, as order and
    place are >= 0, so no later monomial can reach the minimum.  The rule
    can only hold for gamma > 0 in the loop's units; a chain may have
    gamma_1 <= 0 (``(x - 1/2, -1/2)`` over v_2), and then (s+1)*gamma is
    never above a key read so far, and every digit is read.  Given the lazy
    digits of :func:`_linear_digits`, the passes of the unread digits are
    never run.

    Its readers all give it the lazy digits.  Chains read it at level 1 with
    the p-adic order: ``InductiveValuation._val`` (and so ``valuation``),
    the stability scan over one-step members and the residual decomposition
    (``residual._expand``, which keeps the argmin digits).  A limit
    valuation by a linear key over a rank-1 first member reads the key's
    digits.  The caller builds a Value of the coordinates where a result
    leaves the library.
    """
    order, (P0, P1), (G0, G1), rank, _ = lin
    best, argmin = None, {}
    for s, d in enumerate(digits):
        if d:
            o = order(d)
            key = (o * P0 + s * G0, o * P1 + s * G1)
            if best is None or key < best:
                best, argmin = key, {s: d}
            elif key == best:
                argmin[s] = d
        if best is not None and ((s + 1) * G0, (s + 1) * G1) > best:
            break
    o = order(den) if den != 1 else 0
    return (best[0] - o * P0, best[1] - o * P1)[:rank], argmin
