"""Finite-field towers over F_p and polynomial factorization over them.

A tower is F_p followed by a stack of extensions, each given by a monic
irreducible modulus over the field below it.  Degree-1 moduli are admitted by
:func:`tower_extend` but collapse, so a stored tower is always presented
minimally (every stored level has degree >= 2).

Each level of a tower is its own :class:`TowerField`, which holds ``sub``,
the field one level down (``None`` for F_p).  Raw element data is nested: an
element of F_p is an int in [0, p); an element of a field over ``sub`` is a
fixed-length tuple (length = degree of its modulus) of ``sub`` data, constant
coefficient first.  Equality of elements is equality of representations.  A
``TowerPoly`` takes its coefficient data from a bounded cache, so equal
coefficients of different polynomials may be one object.

Polynomials over a field run on one ring per representation, each with only
its arithmetic: F_p[y] as lists of ints (``_PrimeLists``, products summed as
plain ints and reduced mod p once per coefficient), F[y] for a field above F_p
as lists of element data (``_Lists``, one element call per coefficient
operation), and F_2[y] as packed ints (``_Packed``, bit i the coefficient of
y^i).  Each field holds its list ring as ``ring``.  The polynomial algorithms
are written once over a ring (``_Ring``), and an element product or inverse
one level above F_p is the F_p ring's division or extended gcd mod that
level's modulus.  ff_factor and ff_is_irreducible take the packed ring over
F_2 (:func:`_factor_ring`); there only the equal-degree split gets lists.

Factoring is squarefree decomposition, then the distinct-degree split, then
Cantor-Zassenhaus on each product of same-degree factors.  The q-power map on
F_q[y]/(m) is F_q-linear, so its rows y^(jq) mod m are built once per
squarefree part and handed from the distinct-degree split to the equal-degree
split, which in characteristic 2 takes the trace of a trial from them.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .basefield import _conv, _power, _terms
from .errors import DomainError, InvariantError, ParseError, ResourceError
from .values import _check_digits


class TowerField:
    """One level of an explicit finite-field tower over F_p.

    ``sub`` is the field one level down (``None`` for F_p itself), and
    ``moduli[-1]`` is this level's modulus over it.  Each field holds its own
    raw zero and one, the negated low coefficients of its modulus, and
    ``ring``, its polynomial ring of lists; the element routines work on the
    field they are given and recurse through ``sub``.
    """

    __slots__ = ("p", "moduli", "sub", "degree", "order", "_zero", "_one", "_negmod", "ring")

    def __init__(self, p: int, moduli: Sequence[tuple] = ()):
        moduli = tuple(tuple(m) for m in moduli)
        if moduli:
            sub = TowerField(p, moduli[:-1])
            m = moduli[-1]
            if len(m) < 3:
                raise DomainError("stored tower moduli must have degree >= 2")
            if not sub._is_one(m[-1]):
                raise DomainError("tower moduli must be monic")
            k = len(m) - 1
            degree, zero, one = sub.degree * k, (sub._zero,) * k, (sub._one,) + (sub._zero,) * (k - 1)
            # -m_j, j < k, of the modulus m: y^k = sum_j (-m_j) y^j
            negmod = tuple(sub._neg(c) for c in m[:-1])
        else:
            sub, degree, zero, one, negmod = None, 1, 0, 1 % p, ()
        slots = (p, moduli, sub, degree, p**degree, zero, one, negmod)  # as in __slots__
        for name, value in zip(self.__slots__, slots):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "ring", _PrimeLists(p) if sub is None else _Lists(self))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TowerField is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, TowerField)
            and self.p == other.p
            and self.moduli == other.moduli
        )

    def __hash__(self):
        return hash((self.p, self.moduli))

    @property
    def height(self) -> int:
        return len(self.moduli)

    def describe(self) -> str:
        if self.sub is None:
            return f"F_{self.p}"
        z = f"z{self.height}"
        return f"{self.sub.describe()}[{z}]/({_poly_str(self.sub, list(self.moduli[-1]), var=z)})"

    def __repr__(self):
        return f"TowerField({self.describe()})"

    # -- raw element arithmetic ----------------------------------------------

    def _is_zero(self, a) -> bool:
        # element data is canonical: one comparison with the shared zero
        return a == self._zero

    def _is_one(self, a) -> bool:
        return a == self._one

    def _add(self, a, b):
        sub = self.sub
        if sub is None:
            return (a + b) % self.p
        if sub.sub is None:
            p = self.p
            return tuple([(x + y) % p for x, y in zip(a, b)])
        add = sub._add
        return tuple([add(x, y) for x, y in zip(a, b)])

    def _neg(self, a):
        sub = self.sub
        if sub is None:
            return (-a) % self.p
        neg = sub._neg
        return tuple([neg(x) for x in a])

    def _sub(self, a, b):
        sub = self.sub
        if sub is None:
            return (a - b) % self.p
        if sub.sub is None:
            p = self.p
            return tuple([(x - y) % p for x, y in zip(a, b)])
        subtract = sub._sub
        return tuple([subtract(x, y) for x, y in zip(a, b)])

    def _mul(self, a, b):
        sub = self.sub
        if sub is None:
            return (a * b) % self.p
        negm = self._negmod
        k = len(negm)
        if sub.sub is None:
            p, r = self.p, _conv(a, b)
            sub.ring.divide(r, negm, 1)
            return tuple([c % p for c in r[:k]])
        z = sub._zero
        add, mul = sub._add, sub._mul
        prod = [z] * (2 * k - 1)
        for i, x in enumerate(a):
            if x == z:
                continue
            for j, y in enumerate(b, i):
                if y != z:
                    prod[j] = add(prod[j], mul(x, y))
        # reduce with y^k = sum_j (-m_j) y^j, highest power first
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c == z:
                continue
            for j, n in enumerate(negm, i - k):
                if n != z:
                    prod[j] = add(prod[j], mul(c, n))
        return tuple(prod[:k])

    def _inv(self, a):
        if self._is_zero(a):
            raise DomainError("inverse of zero")
        sub = self.sub
        if sub is None:
            return pow(a, -1, self.p)
        # extended Euclid of a against the modulus, over the sublevel
        s, d = sub.ring.gcdex(list(a), list(self.moduli[-1]))
        if len(d) != 1:  # a non-constant gcd: the modulus is reducible
            raise InvariantError(f"the top modulus of {self.describe()} is not irreducible")
        return tuple(s + [sub._zero] * (len(a) - len(s)))

    def _pow(self, a, n: int):
        if n < 0:
            return self._pow(self._inv(a), -n)
        return _power(a, n, self._mul, self._one)

    def _embed(self, a, prefix: "TowerField"):
        """The data a of an element of prefix, this field or one below it, as
        data here: the constant coefficient at each level in between."""
        if self.height == prefix.height:
            return a
        sub = self.sub
        return (sub._embed(a, prefix),) + (sub._zero,) * (len(self._negmod) - 1)

    def _from_index(self, idx: int):
        """Deterministic bijection [0, order) -> elements.

        The digits of idx in base sub.order, least significant first, are the
        indices of the coefficients in ``sub``, constant coefficient first.
        """
        sub = self.sub
        if sub is None:
            return idx % self.p
        digits = []
        for _ in self._negmod:
            digits.append(sub._from_index(idx % sub.order))
            idx //= sub.order
        return tuple(digits)

    # -- public element API --------------------------------------------------

    def zero(self) -> "TowerElem":
        return TowerElem(self, self._zero)

    def one(self) -> "TowerElem":
        return TowerElem(self, self._one)

    def from_int(self, n: int) -> "TowerElem":
        return TowerElem(self, self._obj_to_data(n))

    def from_index(self, idx: int) -> "TowerElem":
        if not 0 <= idx < self.order:
            raise DomainError("element index out of range")
        return TowerElem(self, self._from_index(idx))

    def generator(self) -> "TowerElem":
        """The class of the top-level modulus variable; the bottom field has 1."""
        sub = self.sub
        if sub is None:
            return self.one()
        return TowerElem(self, (sub._zero, sub._one) + (sub._zero,) * (len(self._negmod) - 2))

    def coerce(self, x) -> "TowerElem":
        """Coerce an int or an element of a prefix tower into this field."""
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, TowerElem):
            if x.field == self:
                return x
            if x.field.p == self.p and x.field.moduli == self.moduli[: x.field.height]:
                return TowerElem(self, self._embed(x.data, x.field))
            raise DomainError("element does not belong to a prefix of this tower")
        raise DomainError(f"cannot coerce {x!r} into {self!r}")

    def parse_elem(self, text: str) -> "TowerElem":
        """Parse the bracketed normal form, e.g. ``[1, 0]`` or ``[[1,0],[0,1]]``.

        A bare integer is coerced from the prime field.  A number of more than
        MAX_PARSE_DIGITS digits raises ResourceError.
        """
        _check_digits(text)
        try:
            obj = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to decode
            raise ParseError(f"cannot parse tower element {text!r}: {exc}") from None
        return TowerElem(self, self._obj_to_data(obj))

    def _obj_to_data(self, obj):
        sub = self.sub
        if isinstance(obj, int):
            # an integer is the constant coefficient over the level below
            return obj % self.p if sub is None else self._embed(sub._obj_to_data(obj), sub)
        if not isinstance(obj, list):
            raise ParseError(f"bad tower element component {obj!r}")
        if sub is None:
            raise ParseError("bracket nesting deeper than the tower")
        k = len(self._negmod)
        if len(obj) > k:
            raise ParseError("too many coefficients for the tower level")
        items = [sub._obj_to_data(o) for o in obj]
        items += [sub._zero] * (k - len(items))
        return tuple(items)


class TowerElem:
    """An element of a :class:`TowerField`; immutable, representation equality."""

    __slots__ = ("field", "data")

    def __init__(self, field: TowerField, data):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "data", data)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TowerElem is immutable")

    @property
    def is_zero(self) -> bool:
        return self.field._is_zero(self.data)

    @property
    def is_one(self) -> bool:
        return self.data == self.field._one

    def __add__(self, other):
        other = self.field.coerce(other)
        return TowerElem(self.field, self.field._add(self.data, other.data))

    def __sub__(self, other):
        other = self.field.coerce(other)
        return TowerElem(self.field, self.field._sub(self.data, other.data))

    def __neg__(self):
        return TowerElem(self.field, self.field._neg(self.data))

    def __mul__(self, other):
        other = self.field.coerce(other)
        return TowerElem(self.field, self.field._mul(self.data, other.data))

    def inv(self) -> "TowerElem":
        return TowerElem(self.field, self.field._inv(self.data))

    def __pow__(self, n: int):
        return TowerElem(self.field, self.field._pow(self.data, n))

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.field.from_int(other)
        return (
            isinstance(other, TowerElem)
            and self.field == other.field
            and self.data == other.data
        )

    def __hash__(self):
        return hash((self.field, self.data))

    def __str__(self):
        return _data_str(self.data)

    def __repr__(self):
        return f"TowerElem({self})"


def _data_str(data) -> str:
    if isinstance(data, int):
        return str(data)
    return "[" + ", ".join(_data_str(c) for c in data) + "]"


# ---------------------------------------------------------------------------
# Polynomial rings: one per representation of F[y]
# ---------------------------------------------------------------------------
#
# Dense arithmetic in F[y] (von zur Gathen-Gerhard, Modern Computer Algebra,
# ch. 2-3 and 14).  A ring holds the arithmetic of one representation, and
# every algorithm above it is written once over any ring: gcd, powering mod m
# and the extended gcd here, the Frobenius rows, the irreducibility test, the
# squarefree decomposition and the distinct-degree split below.  No ring
# operation but ``trim`` and ``divide``, which work in place, and the list
# ``rem``, which fills the quotient list it is given, changes its arguments,
# and a result may be one of them, so no caller changes a result.


class _Ring:
    """F[y] in one representation: p, q = |F|, the polynomials y and 1, and
    the algorithms written once over a subclass's deg, add, sub, mul, shift
    (f * y^s), divmod, rem, monic, deriv, pth_root and frob (g^q mod m from
    the Frobenius rows of m)."""

    __slots__ = ("p", "q", "y", "unit")

    def gcd(self, f, g):
        while g:
            f, g = g, self.rem(f, g)
        return self.monic(f)

    def powmod(self, f, n: int, m):
        """f^n mod m for n >= 1."""
        return _power(self.rem(f, m), n, lambda a, b: self.rem(self.mul(a, b), m), self.unit)

    def for_split(self, g, d: int, rows):
        """g and rows as the lists :func:`_equal_degree` takes."""
        return g, rows


class _Lists(_Ring):
    """F[y] for a field F above F_p: lists of element data, constant first,
    with no trailing zero.  Each coefficient operation is an element call of
    F; products skip zero factors, and a monic divisor takes no inverse."""

    __slots__ = ("F", "zero", "one")

    def __init__(self, F: TowerField):
        self.F, self.p, self.q, self.zero, self.one = F, F.p, F.order, F._zero, F._one
        self.y, self.unit = [F._zero, F._one], [F._one]

    def deg(self, f) -> int:
        return len(f) - 1

    def trim(self, f: List) -> List:
        zero = self.zero
        while f and f[-1] == zero:
            f.pop()
        return f

    def add(self, f, g):
        if len(f) < len(g):
            f, g = g, f
        add = self.F._add
        out = [add(a, b) for a, b in zip(f, g)]
        out.extend(f[len(g):])
        return self.trim(out)

    def sub(self, f, g):
        neg = self.F._neg
        return self.add(f, [neg(c) for c in g])

    def mul(self, f, g):
        if not f or not g:
            return []
        F, zero = self.F, self.zero
        out = [zero] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            if a == zero:
                continue
            for j, b in enumerate(g, i):
                out[j] = F._add(out[j], F._mul(a, b))
        return self.trim(out)

    def divmod(self, f, g):
        """(quotient, remainder) of f by a non-zero g."""
        q = [self.zero] * max(len(f) - len(g) + 1, 0)
        r = self.rem(f, g, q)
        return self.trim(q), r

    def rem(self, f, g, q=None):
        """The remainder of f by a non-zero g: the one division loop of the
        ring.  The quotient goes into q when one is given, of length
        len(f) - deg g; otherwise none is built."""
        F, zero, dg = self.F, self.zero, len(g) - 1
        lead_inv = None if g[-1] == self.one else F._inv(g[-1])
        r, low = list(f), g[:dg]
        for i in range(len(r) - dg - 1, -1, -1):
            c = r[i + dg] if lead_inv is None else F._mul(r[i + dg], lead_inv)
            if c != zero:
                if q is not None:
                    q[i] = c
                for j, b in enumerate(low, i):
                    r[j] = F._sub(r[j], F._mul(c, b))
        return self.trim(r[:dg])

    def shift(self, f, s: int):
        """f * y^s."""
        return [self.zero] * s + f if f else f

    def inv(self, c):
        return self.F._inv(c)

    def scale(self, f, c):
        mul = self.F._mul
        return [mul(a, c) for a in f]

    def monic(self, f):
        if not f or f[-1] == self.one:
            return f
        return self.scale(f, self.inv(f[-1]))

    def gcdex(self, f, g):
        """(s, d): d the monic gcd of f and g, not both zero, and s*f = d mod g
        with deg s < deg g - deg d (s = 0 when g divides f)."""
        f = self.trim(list(f))
        r0, r1 = g, (self.rem(f, g) if g else f)
        s0, s1 = [], self.unit
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self.sub(s0, self.mul(q, s1))
        li = self.inv(r0[-1])
        return self.scale(s0, li), self.scale(r0, li)

    def frob(self, rows, g):
        F, zero = self.F, self.zero
        out = [zero] * len(rows)
        for c, row in zip(g, rows):
            if c == zero:
                continue
            for i, r in enumerate(row):
                out[i] = F._add(out[i], F._mul(c, r))
        return self.trim(out)

    def deriv(self, f):
        F, out = self.F, []
        for i in range(1, len(f)):
            # i * c by repeated addition; only i mod p matters in characteristic p
            acc = self.zero
            for _ in range(i % self.p):
                acc = F._add(acc, f[i])
            out.append(acc)
        return self.trim(out)

    def pth_root(self, f):
        """g for f(y) = g(y^p): coefficients c -> c^(q/p)."""
        F, e = self.F, self.q // self.p
        return self.trim([F._pow(c, e) for c in f[:: self.p]])


class _PrimeLists(_Lists):
    """F_p[y] as lists of ints in [0, p): products summed as plain ints and
    reduced mod p once per coefficient, one inverse of a divisor's lead per
    division and none when it is 1.  It makes no element call, and element
    products and inverses one level above F_p run on it."""

    __slots__ = ()

    def __init__(self, p: int):
        self.p = self.q = p
        self.zero, self.one, self.y, self.unit = 0, 1, [0, 1], [1]

    def add(self, f, g):
        p = self.p
        if len(f) < len(g):
            f, g = g, f
        out = [(a + b) % p for a, b in zip(f, g)]
        out.extend(f[len(g):])
        return self.trim(out)

    def sub(self, f, g):
        p = self.p
        out = [(a - b) % p for a, b in zip(f, g)]
        out.extend(f[len(g):])
        out.extend([-b % p for b in g[len(f):]])
        return self.trim(out)

    def mul(self, f, g):
        if not f or not g:
            return []
        p = self.p
        return self.trim([c % p for c in _conv(f, g)])

    def divide(self, r: List[int], negm, li: int) -> None:
        """Divide the plain ints r in place by g, given by the inverse li of its
        lead and negm = -g_j mod p for j < deg g: the loop of ``divmod`` and
        of the element products one level up, whose negm is kept.

        Afterwards r[deg g:] holds the quotient, reduced mod p, and r[:deg g]
        the remainder, still plain ints.
        """
        p, dg = self.p, len(negm)
        for i in range(len(r) - 1, dg - 1, -1):
            c = r[i] = r[i] * li % p
            if c:
                for j, n in enumerate(negm, i - dg):
                    r[j] += c * n

    def divmod(self, f, g):
        p, dg = self.p, len(g) - 1
        if len(f) <= dg:
            return [], list(f)
        r = list(f)
        self.divide(r, [-b % p for b in g[:dg]], 1 if g[-1] == 1 else pow(g[-1], -1, p))
        return r[dg:], self.trim([c % p for c in r[:dg]])

    def rem(self, f, g):
        """The remainder of f by a non-zero g: no quotient is kept and no
        negated divisor built, so a short division costs only its steps."""
        p, dg = self.p, len(g) - 1
        r, li, low = list(f), pow(g[-1], -1, p), g[:dg]
        for i in range(len(r) - 1, dg - 1, -1):
            if c := r[i] * li % p:
                for j, b in enumerate(low, i - dg):
                    r[j] -= c * b
        return self.trim([c % p for c in r[:dg]])

    def inv(self, c):
        return pow(c, -1, self.p)

    def scale(self, f, c):
        p = self.p
        return [a * c % p for a in f]

    def frob(self, rows, g):
        out = [0] * len(rows)
        for c, row in zip(g, rows):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        p = self.p
        return self.trim([c % p for c in out])

    def deriv(self, f):
        p = self.p
        return self.trim([i * c % p for i, c in enumerate(f)][1:])

    def pth_root(self, f):
        return f[:: self.p]


def _pack(f) -> int:
    return sum(c << i for i, c in enumerate(f))


def _unpack(a: int) -> List[int]:
    return [(a >> i) & 1 for i in range(a.bit_length())]


class _Packed(_Ring):
    """F_2[y] as packed ints, bit i the coefficient of y^i: a sum is one XOR,
    multiplying by y^s a shift by s, and a division step one XOR with a
    shifted divisor.  Every non-zero polynomial is monic."""

    __slots__ = ()

    def __init__(self):
        self.p = self.q = 2
        self.y, self.unit = 2, 1

    def deg(self, f: int) -> int:
        return f.bit_length() - 1

    def add(self, f: int, g: int) -> int:
        return f ^ g

    sub = add

    def mul(self, f: int, g: int) -> int:
        out = 0
        while g:
            low = g & -g  # y^i, the lowest term of g: f * low is f shifted by i
            out ^= f * low
            g ^= low
        return out

    def divmod(self, f: int, g: int) -> Tuple[int, int]:
        q, dg = 0, g.bit_length()
        while (s := f.bit_length() - dg) >= 0:
            q ^= 1 << s
            f ^= g << s
        return q, f

    def rem(self, f: int, g: int) -> int:
        dg = g.bit_length()
        while (s := f.bit_length() - dg) >= 0:
            f ^= g << s
        return f

    def shift(self, f: int, s: int) -> int:
        return f << s

    def monic(self, f: int) -> int:
        return f

    def frob(self, rows: List[int], g: int) -> int:
        out = 0
        for row in rows:
            if g & 1:
                out ^= row
            g >>= 1
        return out

    def deriv(self, f: int) -> int:
        # the odd bits of f shifted down: bits 0, 2, 4, ... below deg f
        return (f >> 1) & (4 ** (f.bit_length() // 2) - 1) // 3

    def pth_root(self, f: int) -> int:
        # the binary digits of f from bit 0 up, every second one, read back
        return int(bin(f)[:1:-2][::-1], 2)

    def for_split(self, g: int, d: int, rows: List[int]):
        # rows reduced mod g, and only when g splits (deg g > d)
        n = self.deg(g)
        return _unpack(g), ([_unpack(self.rem(row, g)) for row in rows[:n]] if n > d else [])


_PACKED = _Packed()


def _frobenius_rows(R: _Ring, m):
    """The rows y^(jq) mod m, j < deg m, of the q-power map on F_q[y]/(m).

    The map is F_q-linear, so g^q mod m is sum_j g_j * row_j (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 14), which ``R.frob`` takes.
    Each row is the one before times y^q mod m.  When q < deg m, y^q is
    already reduced, so that product is a shift by q and q division steps,
    O(q deg m) in all; otherwise y is powered once and each row is a product.
    """
    q, n = R.q, R.deg(m)
    yq = None if q < n else R.powmod(R.y, q, m)
    rows = [R.unit]
    for _ in range(n - 1):
        row = R.shift(rows[-1], q) if yq is None else R.mul(rows[-1], yq)
        rows.append(R.rem(row, m))
    return rows


def _poly_str(F: TowerField, f: List, var: str = "y") -> str:
    f = F.ring.trim(list(f))
    if not f:
        return "0"
    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if F._is_zero(c):
            continue
        cs = _data_str(c)
        if k == 0:
            body = cs
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if F._is_one(c) else f"{cs}*{xs}"
        parts.append(body)
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# Public polynomials over the full tower
# ---------------------------------------------------------------------------


@lru_cache(maxsize=4096)
def _shared_data(data):
    """Equal coefficient data share one immutable object while it stays in the
    bounded cache; element data carry no field, so towers share it too."""
    return data


class TowerPoly:
    """A dense polynomial in y with coefficients in a tower field.

    Its coefficient data come from a bounded cache (``_shared_data``), so
    equal coefficients of different polynomials may be one object.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: TowerField, coeffs: Sequence):
        data = []
        for c in coeffs:
            if isinstance(c, TowerElem):
                data.append(field.coerce(c).data)
            elif isinstance(c, int):
                data.append(field.from_int(c).data)
            else:
                data.append(c)
        data = field.ring.trim(data)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple([_shared_data(c) for c in data]))

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("TowerPoly is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, field) -> "TowerPoly":
        return cls(field, ())

    @classmethod
    def one(cls, field) -> "TowerPoly":
        return cls(field, (1,))

    @classmethod
    def y(cls, field) -> "TowerPoly":
        return cls(field, (0, 1))

    @classmethod
    def parse(cls, field: TowerField, text: str) -> "TowerPoly":
        """Parse sums of terms ``c*y^k``, ``y^k``, ``y`` and constants, c an
        integer or a bracket form (see TowerField.parse_elem), in the grammar
        of Poly.parse (``basefield._terms``).

        An exponent above MAX_PARSE_DEGREE, or a number of more than
        MAX_PARSE_DIGITS digits, raises ResourceError.
        """
        acc: dict[int, TowerElem] = {}
        for sgn, c, k in _terms(text, "y"):
            a = field.one() if c is None else field.parse_elem(c)
            acc[k] = acc.get(k, field.zero()) + (a if sgn > 0 else -a)
        return cls(field, [acc.get(i, field.zero()) for i in range(max(acc) + 1)])

    # -- queries --------------------------------------------------------------

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_one(self) -> bool:
        return len(self.coeffs) == 1 and self.field._is_one(self.coeffs[0])

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.field._is_one(self.coeffs[-1])

    def coeff(self, k: int) -> TowerElem:
        if 0 <= k < len(self.coeffs):
            return TowerElem(self.field, self.coeffs[k])
        return self.field.zero()

    def elems(self) -> List[TowerElem]:
        return [TowerElem(self.field, c) for c in self.coeffs]

    # -- arithmetic -------------------------------------------------------------

    def _raw(self) -> List:
        return list(self.coeffs)

    def _wrap(self, raw) -> "TowerPoly":
        return TowerPoly(self.field, raw)

    def _check(self, other: "TowerPoly"):
        if self.field != other.field:
            raise DomainError("polynomials over different towers")

    def __add__(self, other):
        self._check(other)
        return self._wrap(self.field.ring.add(self._raw(), other._raw()))

    def __sub__(self, other):
        self._check(other)
        return self._wrap(self.field.ring.sub(self._raw(), other._raw()))

    def __neg__(self):
        F = self.field
        return self._wrap([F._neg(c) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        return self._wrap(self.field.ring.mul(self._raw(), other._raw()))

    def scale(self, c: TowerElem) -> "TowerPoly":
        c = self.field.coerce(c)
        F = self.field
        return self._wrap([F._mul(x, c.data) for x in self.coeffs])

    def __pow__(self, n: int) -> "TowerPoly":
        if n < 0:
            raise DomainError("negative power")
        return _power(self, n, TowerPoly.__mul__, TowerPoly.one(self.field))

    def divmod(self, other: "TowerPoly") -> Tuple["TowerPoly", "TowerPoly"]:
        self._check(other)
        if other.is_zero:
            raise DomainError("polynomial division by zero")
        q, r = self.field.ring.divmod(self._raw(), other._raw())
        return self._wrap(q), self._wrap(r)

    def __mod__(self, other):
        return self.divmod(other)[1]

    def divides(self, other: "TowerPoly") -> bool:
        if self.is_zero:
            return other.is_zero
        return other.divmod(self)[1].is_zero

    # -- equality / rendering ----------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, TowerPoly)
            and self.field == other.field
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.field, self.coeffs))

    def __str__(self):
        return _poly_str(self.field, self._raw())

    def __repr__(self):
        return f"TowerPoly({self})"

    def sort_key(self):
        return (len(self.coeffs), self.coeffs)


# ---------------------------------------------------------------------------
# Extension, irreducibility, factorization
# ---------------------------------------------------------------------------


def extend_with_root(field: TowerField, psi: TowerPoly) -> Tuple[TowerField, TowerElem]:
    """Extend by a monic irreducible psi; return (new field, root of psi).

    Degree-1 moduli collapse: the field is returned unchanged and the root is
    -psi(0).
    """
    if psi.field != field:
        raise DomainError("modulus not over this tower")
    if psi.is_constant or psi.is_zero:
        raise DomainError("modulus must be non-constant")
    if not psi.is_monic:
        raise DomainError("modulus must be monic")
    if not ff_is_irreducible(psi):
        raise DomainError(f"modulus {psi} is reducible over {field.describe()}")
    if psi.degree == 1:
        return field, -psi.coeff(0)
    new = TowerField(field.p, field.moduli + (tuple(psi.coeffs),))
    return new, new.generator()


def tower_extend(field: TowerField, psi: TowerPoly) -> TowerField:
    """Extend a tower by a monic irreducible modulus (degree-1 collapses)."""
    return extend_with_root(field, psi)[0]


def _prime_factors(n: int) -> List[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# The finite-field work budget: the most F_p operations ff_is_irreducible
# and ff_factor may be estimated to need.  For degree n over F_q, a tower of
# degree D over F_p, both raise polynomials mod psi to powers of up to about
# q^n, some n log2(q) products of n^2 field operations each, and a tower
# operation costs up to about D^3 operations in F_p: n^2 (n + 4) log2(q) D^3
# in all.  The Frobenius rows stay within it: shifted when q < n, n rows of
# q n operations, q n^2 < n^3; otherwise one powering of y and n products.
# 2^21 admits degree 100 over F_2 and F_3, 43 over F_4 and 17 over F_16; a
# random input at those edges is factored, each factor tested, in 33-60 ms,
# 140-210 ms and 180-200 ms (Python 3.11, 2 vCPUs).  F_2 runs far under the
# model on the packed ring: at degree 100 that takes 2.5-3 ms for an
# irreducible input and 14-21 ms for a product of 2-10 irreducibles of equal
# degree, most of it the equal-degree split on the list ring (20-45 ms with
# every step on the F_2 list ring).
MAX_FF_WORK = 2**21

# The most candidates monic_irreducibles, and so enumerate_keys, may test:
# |field|^max_deg must not exceed it.
MAX_ENUMERATION = 2**16


def _check_ff_work(psi: TowerPoly) -> None:
    n, F = psi.degree, psi.field
    work = n * n * (n + 4) * F.order.bit_length() * F.degree**3
    if work > MAX_FF_WORK:
        raise ResourceError(
            f"a polynomial of degree {n} over F_{F.order} is estimated at {work} "
            f"field operations, past the work budget of {MAX_FF_WORK}"
        )


def _factor_ring(psi: TowerPoly):
    """(R, f): the ring ff_factor and ff_is_irreducible work in, and psi made
    monic in it.  That is the packed ring over F_2 and the field's list ring
    elsewhere; only the equal-degree split takes lists over F_2."""
    F = psi.field
    if F.order == 2:
        return _PACKED, _pack(psi.coeffs)
    return F.ring, F.ring.monic(psi._raw())


def ff_is_irreducible(psi: TowerPoly) -> bool:
    """Distinct-degree irreducibility test over the tower; ResourceError past
    MAX_FF_WORK.

    psi of degree n is irreducible when y^(q^n) = y mod psi and
    gcd(y^(q^(n/l)) - y, psi) = 1 for every prime l dividing n.
    """
    if psi.is_zero or psi.is_constant:
        raise DomainError("irreducibility is asked of non-constant polynomials")
    _check_ff_work(psi)
    n = psi.degree
    if n == 1:
        return True
    R, f = _factor_ring(psi)
    y, rows = R.y, _frobenius_rows(R, f)
    frobs = [y]  # frobs[i] = y^(q^i) mod f
    for _ in range(n):
        frobs.append(R.frob(rows, frobs[-1]))
    return not R.sub(frobs[n], y) and all(
        R.deg(R.gcd(R.sub(frobs[n // ell], y), f)) == 0 for ell in _prime_factors(n)
    )


def _squarefree_decomposition(R: _Ring, f) -> List[Tuple[object, int]]:
    deriv = R.deriv(f)
    if not deriv:
        return [(g, m * R.p) for g, m in _squarefree_decomposition(R, R.pth_root(f))]
    c = R.gcd(f, deriv)
    if R.deg(c) == 0:  # f is squarefree
        return [(f, 1)]
    w = R.divmod(f, c)[0]
    out = []
    i = 1
    while R.deg(w) > 0:
        y = R.gcd(w, c)
        z = R.divmod(w, y)[0]
        if R.deg(z) > 0:
            out.append((z, i))
        w = y
        c = R.divmod(c, y)[0]
        i += 1
    if R.deg(c) > 0:
        out.extend((g, m * R.p) for g, m in _squarefree_decomposition(R, R.pth_root(c)))
    return out


def _distinct_degree(R: _Ring, f) -> List[Tuple[object, int, List]]:
    """Split a monic squarefree f into (g, d, rows): g the product of the
    irreducible factors of f of degree d, and rows the Frobenius rows of a
    multiple of g (see :func:`_frobenius_rows`).

    The rows of f are built once; after a split they are reduced mod the
    cofactor.
    """
    out = []
    cur, y = f, R.y
    frob = y
    rows = _frobenius_rows(R, cur) if R.deg(cur) > 1 else []
    d = 0
    # once cur has no factor of degree <= d, a degree below 2(d + 1) makes it
    # irreducible
    while R.deg(cur) >= 2 * (d + 1):
        d += 1
        frob = R.frob(rows, frob)
        g = R.gcd(R.sub(frob, y), cur)
        if R.deg(g) > 0:
            out.append((g, d, rows))
            cur = R.divmod(cur, g)[0]
            frob = R.rem(frob, cur)
            rows = [R.rem(row, cur) for row in rows[: R.deg(cur)]]
    if R.deg(cur) > 0:
        out.append((cur, R.deg(cur), rows))
    return out


def _random_poly(F: TowerField, deg: int, rng) -> List:
    order = F.order
    coeffs = [F._from_index(rng.randrange(order)) for _ in range(deg)]
    return F.ring.trim(coeffs)


def _equal_degree(F, rows, f, d: int, rng) -> List[List]:
    """Cantor-Zassenhaus split of a monic product f of degree-d irreducibles,
    on the field's list ring.

    rows are the Frobenius rows of a multiple of f.  Each trial draws r of
    degree < deg f and splits f by gcd(r, f), else by gcd(T(r), f) for q = 2^k
    and by gcd(r^((q^d - 1)/2) - 1, f) for odd q.  T(r) is the trace of r
    from F_(q^d) to F_2 in every factor, taken in two steps (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 14): the trace to F_q,
    t = sum_{i<d} r^(q^i), from d - 1 applications of the rows, then the trace
    of t to F_2, sum_{j<k} t^(2^j), from k - 1 squarings mod f.  That is the
    sum of r^(2^i) over i < kd, in k + d - 2 steps instead of kd - 1
    squarings.  A split hands each part the rows reduced mod f.
    """
    n = len(f) - 1
    if n == d:
        return [f]
    R, q = F.ring, F.order
    if F.p == 2:
        rows = [R.rem(row, f) for row in rows[:n]]
    while True:
        r = _random_poly(F, n, rng)
        if len(r) <= 1:
            continue
        g = R.gcd(r, f)
        if 1 < len(g) < len(f):
            u = g
        else:
            if F.p == 2:
                t = acc = r
                for _ in range(d - 1):
                    t = R.frob(rows, t)
                    acc = R.add(acc, t)
                t = acc
                for _ in range(q.bit_length() - 2):
                    t = R.powmod(t, 2, f)
                    acc = R.add(acc, t)
                u = R.gcd(acc, f)
            else:
                t = R.powmod(r, (q**d - 1) // 2, f)
                u = R.gcd(R.sub(t, R.unit), f)
            if not (1 < len(u) < len(f)):
                continue
        rest = R.divmod(f, u)[0]
        return _equal_degree(F, rows, u, d, rng) + _equal_degree(F, rows, rest, d, rng)


@lru_cache(maxsize=4096)
def _shared_factor(F: TowerField, coeffs: tuple, mult: int) -> Tuple[TowerPoly, int]:
    """The pair (factor, multiplicity); equal pairs share one immutable object
    while it stays in the bounded cache."""
    return TowerPoly(F, coeffs), mult


def ff_factor(psi: TowerPoly, seed: int = 0) -> List[Tuple[TowerPoly, int]]:
    """Factor into monic irreducibles with multiplicities.

    Squarefree decomposition, then distinct-degree splitting, on the ring of
    :func:`_factor_ring`, then seeded Cantor-Zassenhaus equal-degree splitting
    on the field's list ring.  Every part is monic, and so is every factor.
    The output is sorted by (degree, coefficient data), so it is
    deterministic for a fixed seed; the product of factors re-multiplies to
    the monic normalization of the input.  ResourceError past MAX_FF_WORK.
    """
    if psi.is_zero or psi.is_constant:
        raise DomainError("factorization is asked of non-constant polynomials")
    _check_ff_work(psi)
    F = psi.field
    rng = None  # built at the first equal-degree split that draws a trial
    out: List[Tuple[TowerPoly, int]] = []
    R, f = _factor_ring(psi)
    for sqf, mult in _squarefree_decomposition(R, f):
        for g, d, rows in _distinct_degree(R, sqf):
            prod, rows = R.for_split(g, d, rows)
            if rng is None and len(prod) - 1 > d:
                rng = random.Random(seed)
            for irr in _equal_degree(F, rows, prod, d, rng):
                out.append(_shared_factor(F, tuple(irr), mult))
    out.sort(key=lambda t: t[0].sort_key())
    return out


def monic_irreducibles(field: TowerField, max_deg: int):
    """Yield all monic irreducibles of degree 1..max_deg in a fixed order.

    The order is by degree, then by the coefficient counter with the constant
    term as the least-significant digit.  Raises ResourceError when the
    candidate count |field|^max_deg exceeds MAX_ENUMERATION.
    """
    if max_deg < 1:
        raise DomainError("max degree must be >= 1")
    # order >= 2, so a degree past the cap's bit length exceeds it: the power
    # is then not computed
    if max_deg >= MAX_ENUMERATION.bit_length() or field.order**max_deg > MAX_ENUMERATION:
        raise ResourceError(
            f"irreducible enumeration over a field of order {field.order} up to "
            f"degree {max_deg} exceeds the candidate cap {MAX_ENUMERATION}"
        )
    one = field.one()
    for d in range(1, max_deg + 1):
        for idx in range(field.order**d):
            rest = idx
            coeffs = []
            for _ in range(d):
                coeffs.append(field.from_index(rest % field.order))
                rest //= field.order
            poly = TowerPoly(field, coeffs + [one])
            if ff_is_irreducible(poly):
                yield poly
