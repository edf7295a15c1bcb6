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
y^i).  Each field holds its list ring as ``ring``.  Each ring has one
division loop, its ``divmod``, and a remainder is the second half of a
``divmod``.  The polynomial algorithms are written once over a ring
(``_Ring``), and an element product or inverse one level above F_p is the F_p
ring's division or extended gcd by that level's modulus itself; higher levels
reduce a product by subtracting multiples of their modulus.  Each field keeps
the inverses it has taken in a table of at most _CACHE_SIZE entries, so an
inverse taken again is a dict lookup.
ff_factor and ff_is_irreducible take the packed ring over F_2
(:func:`_factor_ring`); there only the equal-degree split gets lists.

Factoring is squarefree decomposition, then the distinct-degree split, then
Cantor-Zassenhaus on each product of same-degree factors.  The q-power map on
F_q[y]/(m) is F_q-linear, so its rows y^(jq) mod m are built once per
squarefree part, each from the one before by a shift when q < deg m and
through the map of multiplication by y^q otherwise, and handed from the
distinct-degree split to the equal-degree split, which in characteristic 2
takes the trace of a trial from them.
"""

from __future__ import annotations

import json
import random
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .basefield import _conv, _power, _terms
from .errors import DomainError, InvariantError, ParseError, ResourceError
from .values import _check_digits

# The bound of every cache here: the two lru_caches of shared data and each
# field's inverse table.
_CACHE_SIZE = 4096


class TowerField:
    """One level of an explicit finite-field tower over F_p.

    ``sub`` is the field one level down (``None`` for F_p itself), and
    ``moduli[-1]`` is this level's modulus over it.  Each field holds its own
    raw zero and one and ``ring``, its polynomial ring of lists; the element
    routines work on the field they are given and recurse through ``sub``.

    Each field also keeps a table of the inverses it has taken, filled as
    ``_inv`` meets new units and capped at _CACHE_SIZE entries: a field of
    order up to _CACHE_SIZE + 1 ends up with all of them, a larger one with
    the first _CACHE_SIZE it meets.  The table is not part of the field's
    value: equal fields may hold different tables.
    """

    __slots__ = ("p", "moduli", "sub", "degree", "order", "_zero", "_one", "ring", "_invs")

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
        else:
            sub, degree, zero, one = None, 1, 0, 1 % p
        slots = (p, moduli, sub, degree, p**degree, zero, one)  # as in __slots__
        for name, value in zip(self.__slots__, slots):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "ring", _PrimeLists(p) if sub is None else _Lists(self))
        object.__setattr__(self, "_invs", {})

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
        m = self.moduli[-1]
        k = len(m) - 1
        if sub.sub is None:
            p, r = self.p, _conv(a, b)
            sub.ring.divide(r, m)
            return tuple([c % p for c in r[:k]])
        z = sub._zero
        add, subtract, mul = sub._add, sub._sub, sub._mul
        prod = [z] * (2 * k - 1)
        for i, x in enumerate(a):
            if x == z:
                continue
            for j, y in enumerate(b, i):
                if y != z:
                    prod[j] = add(prod[j], mul(x, y))
        # reduce by the monic m, highest power first: c y^i -= c y^(i-k) m
        low = m[:k]
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c == z:
                continue
            for j, n in enumerate(low, i - k):
                if n != z:
                    prod[j] = subtract(prod[j], mul(c, n))
        return tuple(prod[:k])

    def _inv(self, a):
        invs = self._invs
        inv = invs.get(a)
        if inv is not None:
            return inv
        if self._is_zero(a):
            raise DomainError("inverse of zero")
        sub = self.sub
        if sub is None:
            inv = pow(a, -1, self.p)
        else:
            # extended Euclid of a against the modulus, over the sublevel
            s, d = sub.ring.gcdex(list(a), list(self.moduli[-1]))
            if len(d) != 1:  # a non-constant gcd: the modulus is reducible
                raise InvariantError(f"the top modulus of {self.describe()} is not irreducible")
            inv = tuple(s + [sub._zero] * (len(a) - len(s)))
        if len(invs) < _CACHE_SIZE:
            invs[a] = inv
        return inv

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
        return (sub._embed(a, prefix),) + self._zero[1:]

    def _from_index(self, idx: int):
        """Deterministic bijection [0, order) -> elements.

        The digits of idx in base sub.order, least significant first, are the
        indices of the coefficients in ``sub``, constant coefficient first.
        """
        sub = self.sub
        if sub is None:
            return idx % self.p
        digits = []
        for _ in self._zero:
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
        return TowerElem(self, (sub._zero, sub._one) + self._zero[2:])

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
        k = len(self._zero)
        if len(obj) > k:
            raise ParseError("too many coefficients for the tower level")
        items = [sub._obj_to_data(o) for o in obj]
        items += [sub._zero] * (k - len(items))
        return tuple(items)


class TowerElem:
    """An element of a :class:`TowerField`: its field and raw data, immutable,
    with representation equality.  It has no arithmetic: the library computes
    on raw data with the field's element routines and polynomial ring."""

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

    def __eq__(self, other):
        # no int coerces: over F_2 one element would equal both 1 and 3,
        # which no hash agreeing with == could allow
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
# operation but ``trim`` and ``divide``, which work in place, changes its
# arguments, and a result may be one of them, so no caller changes a result.


class _Ring:
    """F[y] in one representation: p, q = |F|, the polynomials y and 1, and
    the algorithms written once over a subclass's deg, add, sub, mul, shift
    (f * y^s), divmod (the ring's one division loop), monic, deriv, pth_root
    and frob (g^q mod m from the Frobenius rows of m)."""

    __slots__ = ("p", "q", "y", "unit")

    def rem(self, f, g):
        """The remainder of f by a non-zero g."""
        return self.divmod(f, g)[1]

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
        """(quotient, remainder) of f by a non-zero g.  Each step leaves its
        quotient coefficient where it took the lead, so r[deg g:] ends as the
        quotient and r[:deg g] as the remainder."""
        F, zero, dg = self.F, self.zero, len(g) - 1
        lead_inv = None if g[-1] == self.one else F._inv(g[-1])
        r, low = list(f), g[:dg]
        for i in range(len(r) - 1, dg - 1, -1):
            if lead_inv is not None:
                r[i] = F._mul(r[i], lead_inv)
            if (c := r[i]) != zero:
                for j, b in enumerate(low, i - dg):
                    r[j] = F._sub(r[j], F._mul(c, b))
        return self.trim(r[dg:]), self.trim(r[:dg])

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
    reduced mod p once per coefficient, and divisions by ``divide``, with one
    inverse of a divisor's lead per division and none when it is 1.  It makes
    no element call, and element products and inverses one level above F_p
    run on it."""

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

    def divide(self, r: List[int], g) -> None:
        """Divide the plain ints r in place by a non-zero g: the one division
        loop of the ring, which ``divmod`` and the element products one level
        up (g their modulus) run on.  The step at y^i subtracts c * g_j
        y^(i - deg g + j) for the divisor's own low coefficients g_j.

        Afterwards r[deg g:] holds the quotient, reduced mod p, and r[:deg g]
        the remainder, still plain ints.
        """
        p, dg = self.p, len(g) - 1
        li, low = 1 if g[-1] == 1 else pow(g[-1], -1, p), g[:dg]
        for i in range(len(r) - 1, dg - 1, -1):
            c = r[i] = r[i] * li % p
            if c:
                for j, b in enumerate(low, i - dg):
                    r[j] -= c * b

    def divmod(self, f, g):
        p, dg, r = self.p, len(g) - 1, list(f)
        self.divide(r, g)
        return r[dg:], self.trim([c % p for c in r[:dg]])

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
    """The rows y^(jq) mod m, j < n = deg m, of the q-power map on F_q[y]/(m).

    The map is F_q-linear, so g^q mod m is sum_j g_j * row_j (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 14), which ``R.frob`` takes.
    Each row is the one before times y^q mod m.  In element products:

    - q < n: y^q is already reduced, so that product is a shift by q and q
      division steps, q n a row and q n^2 in all.
    - q >= n: y is powered once to T_0 = y^q mod m, and T_i = y^(q+i) mod m,
      i < n, is T_(i-1) shifted by one and reduced by one division step,
      n^2 in all.  The T_i are the rows of multiplication by y^q, so each
      row after T_0 is ``R.frob(T, row)``: n^2 a row where a product and a
      remainder took 2 n^2, about n^3 in all besides the powering.
    """
    q, n = R.q, R.deg(m)
    rows = [R.unit]
    if q < n:
        for _ in range(n - 1):
            rows.append(R.rem(R.shift(rows[-1], q), m))
    elif n > 1:
        ts = [R.powmod(R.y, q, m)]  # ts[i] = T_i
        for _ in range(n - 1):
            ts.append(R.rem(R.shift(ts[-1], 1), m))
        rows.append(ts[0])
        for _ in range(n - 2):
            rows.append(R.frob(ts, rows[-1]))
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


@lru_cache(maxsize=_CACHE_SIZE)
def _shared_data(data):
    """Equal coefficient data share one immutable object while it stays in the
    bounded cache; element data carry no field, so towers share it too.  It
    saves 113 bytes per ``finite_fields`` benchmark operation (574 -> 461,
    the bytes its outputs keep: ``python tools/census.py retain``)."""
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
        acc = {}  # exponent -> the raw data of its coefficient
        for sgn, c, k in _terms(text, "y"):
            a = field._one if c is None else field.parse_elem(c).data
            acc[k] = field._add(acc.get(k, field._zero), a if sgn > 0 else field._neg(a))
        return cls(field, [acc.get(i, field._zero) for i in range(max(acc) + 1)])

    # -- queries --------------------------------------------------------------

    @property
    def degree(self) -> Optional[int]:
        return len(self.coeffs) - 1 if self.coeffs else None

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

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

    def __mul__(self, other):
        self._check(other)
        return self._wrap(self.field.ring.mul(self._raw(), other._raw()))

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
        return field, TowerElem(field, field._neg(psi.coeffs[0]))
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
# in all.  The Frobenius rows stay within it.  When q < n they are n rows of
# q n operations each, q n^2 < n^3.  Otherwise they take one powering of y,
# n shifted multiples of y^q of n operations each and n applications of the
# map of multiplication by y^q of n^2 each, about n^3.
# 2^21 admits degree 100 over F_2 and F_3, 43 over F_4 and 17 over F_16.
# Five random inputs at the edges over F_3, F_4 and F_16 are factored, each
# factor tested, in 18-43 ms, 100-236 ms and 115-193 ms (Python 3.11,
# 2 vCPUs).  F_2 runs far under the model on the packed ring.  At degree 100
# that takes 1.0-1.8 ms for a random input, 1.9 ms for an irreducible one and
# 10-15 ms for a product of 2-10 irreducibles of equal degree, most of it the
# equal-degree split on the list ring (12-38 ms, and 42-44 ms for an
# irreducible input, with every step on the F_2 list ring).
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


@lru_cache(maxsize=_CACHE_SIZE)
def _shared_factor(F: TowerField, coeffs: tuple, mult: int) -> Tuple[TowerPoly, int]:
    """The pair (factor, multiplicity); equal pairs share one immutable object
    while it stays in the bounded cache.  It saves 129 bytes per
    ``finite_fields`` benchmark operation (590 -> 461, the bytes its outputs
    keep: ``python tools/census.py retain``)."""
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
