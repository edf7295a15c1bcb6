"""Finite-field towers over F_p and polynomial factorization over them.

A tower is F_p followed by a stack of extensions, each given by a monic
irreducible modulus over the field below it.  Degree-1 moduli are admitted by
:func:`tower_extend` but collapse, so a stored tower is always presented
minimally (every stored level has degree >= 2).

Raw element data is nested: an element of the bottom field is an int in
[0, p); an element at level h is a fixed-length tuple (length = degree of the
level-h modulus) of level-(h-1) data, constant coefficient first.  Equality of
elements is equality of representations.  A ``TowerPoly`` takes its
coefficient data from a bounded cache, so equal coefficients of different
polynomials may be one object.

Polynomials over F_p run on one integer kernel (the ``_k*`` routines): lists
of ints, products summed as plain ints and reduced mod p once per
coefficient, one inverse of a divisor's lead per division step.  It is the
only height-0 path of the list routines ``_padd`` ... ``_frobenius_apply``,
and an element product or inverse at level 1 is the same kernel's product,
division or extended gcd mod the level-1 modulus.  Higher levels skip zero
factors and reduce with the level's negated modulus, computed once per field.

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
from math import prod
from typing import List, Optional, Sequence, Tuple

from .basefield import _power, _terms
from .errors import DomainError, InvariantError, ParseError, ResourceError
from .values import _check_digits


class TowerField:
    """An explicit finite-field tower over F_p."""

    __slots__ = ("p", "moduli", "_zeros", "_ones", "_negmods")

    def __init__(self, p: int, moduli: Sequence[tuple] = ()):
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "moduli", tuple(tuple(m) for m in moduli))
        # the raw zero and one at every height, built once and shared
        zeros, ones = [0], [1 % p]
        for m in self.moduli:
            k = len(m) - 1
            zeros.append((zeros[-1],) * k)
            ones.append((ones[-1],) + (zeros[-2],) * (k - 1))
        object.__setattr__(self, "_zeros", tuple(zeros))
        object.__setattr__(self, "_ones", tuple(ones))
        for h, m in enumerate(self.moduli):
            if len(m) < 3:
                raise DomainError("stored tower moduli must have degree >= 2")
            if not self._is_one(m[-1], h):
                raise DomainError("tower moduli must be monic")
        # -m_j, j < deg m, of each level modulus m: y^k = sum_j (-m_j) y^j
        negmods = tuple(tuple(self._neg(c, h) for c in m[:-1]) for h, m in enumerate(self.moduli))
        object.__setattr__(self, "_negmods", negmods)

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

    @property
    def degree(self) -> int:
        return prod(len(m) - 1 for m in self.moduli)

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def order_at(self, h: int) -> int:
        return self.p ** prod(len(m) - 1 for m in self.moduli[:h])

    def describe(self) -> str:
        out = f"F_{self.p}"
        for i, m in enumerate(self.moduli, 1):
            mod = _poly_str(self, i - 1, list(m), var=f"z{i}")
            out += f"[z{i}]/({mod})"
        return out

    def __repr__(self):
        return f"TowerField({self.describe()})"

    # -- raw element arithmetic at height h --------------------------------

    def _zero(self, h: int):
        return self._zeros[h]

    def _one(self, h: int):
        return self._ones[h]

    def _is_zero(self, a, h: int) -> bool:
        # element data is canonical: one comparison with the shared zero
        return a == self._zeros[h]

    def _is_one(self, a, h: int) -> bool:
        return a == self._ones[h]

    def _add(self, a, b, h: int):
        if h == 0:
            return (a + b) % self.p
        if h == 1:
            p = self.p
            return tuple([(x + y) % p for x, y in zip(a, b)])
        add = self._add
        return tuple([add(x, y, h - 1) for x, y in zip(a, b)])

    def _neg(self, a, h: int):
        if h == 0:
            return (-a) % self.p
        neg = self._neg
        return tuple([neg(x, h - 1) for x in a])

    def _sub(self, a, b, h: int):
        if h == 0:
            return (a - b) % self.p
        if h == 1:
            p = self.p
            return tuple([(x - y) % p for x, y in zip(a, b)])
        sub = self._sub
        return tuple([sub(x, y, h - 1) for x, y in zip(a, b)])

    def _mul(self, a, b, h: int):
        if h == 0:
            return (a * b) % self.p
        negm = self._negmods[h - 1]
        k = len(negm)
        if h == 1:
            p, r = self.p, _kconv(a, b)
            _kdivide(p, r, negm, 1)
            return tuple([c % p for c in r[:k]])
        z = self._zeros[h - 1]
        add, mul = self._add, self._mul
        prod = [z] * (2 * k - 1)
        for i, x in enumerate(a):
            if x == z:
                continue
            for j, y in enumerate(b, i):
                if y != z:
                    prod[j] = add(prod[j], mul(x, y, h - 1), h - 1)
        # reduce with y^k = sum_j (-m_j) y^j, highest power first
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c == z:
                continue
            for j, n in enumerate(negm, i - k):
                if n != z:
                    prod[j] = add(prod[j], mul(c, n, h - 1), h - 1)
        return tuple(prod[:k])

    def _inv(self, a, h: int):
        if self._is_zero(a, h):
            raise DomainError("inverse of zero")
        if h == 0:
            return pow(a, -1, self.p)
        # extended Euclid of a against the level modulus, over the sublevel
        s, d = _pgcdex(self, h - 1, list(a), list(self.moduli[h - 1]))
        if len(d) != 1:  # a non-constant gcd: the modulus is reducible
            raise InvariantError(f"modulus {h} of {self.describe()} is not irreducible")
        return tuple(s + [self._zeros[h - 1]] * (len(a) - len(s)))

    def _pow(self, a, n: int, h: int):
        if n < 0:
            return self._pow(self._inv(a, h), -n, h)
        return _power(a, n, lambda x, y: self._mul(x, y, h), self._one(h))

    def _coerce_up(self, a, from_h: int, to_h: int):
        data = a
        for h in range(from_h + 1, to_h + 1):
            k = len(self.moduli[h - 1]) - 1
            data = (data,) + tuple(self._zero(h - 1) for _ in range(k - 1))
        return data

    def _from_index(self, idx: int, h: int):
        """Deterministic bijection [0, order_at(h)) -> elements at height h.

        The constant coefficient is the least-significant digit.
        """
        if h == 0:
            return idx % self.p
        sub = self.order_at(h - 1)
        k = len(self.moduli[h - 1]) - 1
        digits = []
        for _ in range(k):
            digits.append(self._from_index(idx % sub, h - 1))
            idx //= sub
        return tuple(digits)

    # -- public element API --------------------------------------------------

    def zero(self) -> "TowerElem":
        return TowerElem(self, self._zero(self.height))

    def one(self) -> "TowerElem":
        return TowerElem(self, self._one(self.height))

    def from_int(self, n: int) -> "TowerElem":
        return TowerElem(self, self._coerce_up(n % self.p, 0, self.height))

    def from_index(self, idx: int) -> "TowerElem":
        if not 0 <= idx < self.order:
            raise DomainError("element index out of range")
        return TowerElem(self, self._from_index(idx, self.height))

    def generator(self) -> "TowerElem":
        """The class of the top-level modulus variable; the bottom field has 1."""
        if self.height == 0:
            return self.one()
        h = self.height
        k = len(self.moduli[h - 1]) - 1
        data = (self._zero(h - 1), self._one(h - 1)) + tuple(
            self._zero(h - 1) for _ in range(k - 2)
        )
        return TowerElem(self, data)

    def coerce(self, x) -> "TowerElem":
        """Coerce an int or an element of a prefix tower into this field."""
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, TowerElem):
            if x.field == self:
                return x
            if x.field.p == self.p and x.field.moduli == self.moduli[: x.field.height]:
                return TowerElem(
                    self, self._coerce_up(x.data, x.field.height, self.height)
                )
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
        if isinstance(obj, int):
            return self.from_int(obj)
        return TowerElem(self, self._obj_to_data(obj, self.height))

    def _obj_to_data(self, obj, h: int):
        if isinstance(obj, int):
            if h == 0:
                return obj % self.p
            return self._coerce_up(obj % self.p, 0, h)
        if not isinstance(obj, list):
            raise ParseError(f"bad tower element component {obj!r}")
        if h == 0:
            raise ParseError("bracket nesting deeper than the tower")
        k = len(self.moduli[h - 1]) - 1
        if len(obj) > k:
            raise ParseError("too many coefficients for the tower level")
        items = [self._obj_to_data(o, h - 1) for o in obj]
        items += [self._zero(h - 1)] * (k - len(items))
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
        return self.field._is_zero(self.data, self.field.height)

    @property
    def is_one(self) -> bool:
        return self.data == self.field._one(self.field.height)

    def __add__(self, other):
        other = self.field.coerce(other)
        return TowerElem(self.field, self.field._add(self.data, other.data, self.field.height))

    def __sub__(self, other):
        other = self.field.coerce(other)
        return TowerElem(self.field, self.field._sub(self.data, other.data, self.field.height))

    def __neg__(self):
        return TowerElem(self.field, self.field._neg(self.data, self.field.height))

    def __mul__(self, other):
        other = self.field.coerce(other)
        return TowerElem(self.field, self.field._mul(self.data, other.data, self.field.height))

    def inv(self) -> "TowerElem":
        return TowerElem(self.field, self.field._inv(self.data, self.field.height))

    def __pow__(self, n: int):
        return TowerElem(self.field, self.field._pow(self.data, n, self.field.height))

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
# The F_p[y] kernel: polynomials over the prime field as lists of ints
# ---------------------------------------------------------------------------
#
# Dense arithmetic in F_p[y] (von zur Gathen-Gerhard, Modern Computer Algebra,
# ch. 2-3): a polynomial is a list of ints in [0, p), constant first, with no
# trailing zero.  Products are summed as plain ints and each coefficient is
# reduced mod p once; a division or gcd step inverts its divisor's lead once,
# and not at all when it is 1.  It is the only height-0 path of the routines
# below, and level-1 element products and inverses run on it too.


def _ktrim(f: List[int]) -> List[int]:
    while f and not f[-1]:
        f.pop()
    return f


def _kadd(p: int, f, g) -> List[int]:
    if len(f) < len(g):
        f, g = g, f
    out = [(a + b) % p for a, b in zip(f, g)]
    out.extend(f[len(g):])
    return _ktrim(out)


def _ksub(p: int, f, g) -> List[int]:
    out = [(a - b) % p for a, b in zip(f, g)]
    out.extend(f[len(g):])
    out.extend([-b % p for b in g[len(f):]])
    return _ktrim(out)


def _kconv(f, g) -> List[int]:
    """The product of two non-empty coefficient lists as plain, unreduced ints."""
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g, i):
                out[j] += a * b
    return out


def _kmul(p: int, f, g) -> List[int]:
    if not f or not g:
        return []
    return _ktrim([c % p for c in _kconv(f, g)])


def _kdivide(p: int, r: List[int], negm, li: int) -> None:
    """Divide the plain ints r in place by g, given by the inverse li of its
    lead and negm = -g_j mod p for j < deg g: the one division loop.

    Afterwards r[deg g:] holds the quotient, reduced mod p, and r[:deg g] the
    remainder, still plain ints.
    """
    dg = len(negm)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i] = r[i] * li % p
        if c:
            for j, n in enumerate(negm, i - dg):
                r[j] += c * n


def _kdivmod(p: int, f, g) -> Tuple[List[int], List[int]]:
    """(quotient, remainder) of f by g, both reduced and g non-zero."""
    dg = len(g) - 1
    if len(f) <= dg:
        return [], list(f)
    r = list(f)
    _kdivide(p, r, [-b % p for b in g[:dg]], 1 if g[-1] == 1 else pow(g[-1], -1, p))
    return r[dg:], _ktrim([c % p for c in r[:dg]])


def _kmonic(p: int, f) -> List[int]:
    if not f or f[-1] == 1:
        return list(f)
    li = pow(f[-1], -1, p)
    return [c * li % p for c in f]


def _kgcd(p: int, f, g) -> List[int]:
    while g:
        f, g = g, _kdivmod(p, f, g)[1]
    return _kmonic(p, f)


def _kgcdex(p: int, f, g) -> Tuple[List[int], List[int]]:
    """(s, d): d the monic gcd of f and g, not both zero, and s*f = d mod g
    with deg s < deg g - deg d (s = 0 when g divides f)."""
    f = _ktrim(list(f))
    r0, r1 = list(g), (_kdivmod(p, f, g)[1] if g else f)
    s0, s1 = [], [1]
    while r1:
        q, r = _kdivmod(p, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _ksub(p, s0, _kmul(p, q, s1))
    li = pow(r0[-1], -1, p)
    return [c * li % p for c in s0], [c * li % p for c in r0]


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over a tower level (internal, list-based)
# ---------------------------------------------------------------------------


def _ptrim(F: TowerField, h: int, f: List) -> List:
    while f and F._is_zero(f[-1], h):
        f.pop()
    return f


def _padd(F, h, f, g):
    if h == 0:
        return _kadd(F.p, f, g)
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F._zero(h)
        b = g[i] if i < len(g) else F._zero(h)
        out.append(F._add(a, b, h))
    return _ptrim(F, h, out)


def _psub(F, h, f, g):
    if h == 0:
        return _ksub(F.p, f, g)
    return _padd(F, h, f, [F._neg(c, h) for c in g])


def _pmul(F, h, f, g):
    if h == 0:
        return _kmul(F.p, f, g)
    if not f or not g:
        return []
    out = [F._zero(h)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if F._is_zero(a, h):
            continue
        for j, b in enumerate(g):
            out[i + j] = F._add(out[i + j], F._mul(a, b, h), h)
    return _ptrim(F, h, out)


def _pdivmod(F, h, f, g):
    """(quotient, remainder) of f by g; a monic g needs no inverse."""
    if not g:
        raise DomainError("polynomial division by zero")
    if h == 0:
        return _kdivmod(F.p, f, g)
    lead_inv = None if F._is_one(g[-1], h) else F._inv(g[-1], h)
    r = list(f)
    dg = len(g) - 1
    q = [F._zero(h)] * max(len(r) - dg, 0)
    low = g[:dg]
    for i in range(len(r) - dg - 1, -1, -1):
        c = r[i + dg] if lead_inv is None else F._mul(r[i + dg], lead_inv, h)
        if F._is_zero(c, h):
            continue
        q[i] = c
        for j, b in enumerate(low, i):
            r[j] = F._sub(r[j], F._mul(c, b, h), h)
    return _ptrim(F, h, q), _ptrim(F, h, r[:dg])


def _pmonic(F, h, f):
    if h == 0:
        return _kmonic(F.p, f)
    if not f:
        return f
    if F._is_one(f[-1], h):
        return list(f)
    li = F._inv(f[-1], h)
    return [F._mul(c, li, h) for c in f]


def _pgcd(F, h, f, g):
    if h == 0:
        return _kgcd(F.p, f, g)
    a, b = list(f), list(g)
    while b:
        _, r = _pdivmod(F, h, a, b)
        a, b = b, r
    return _pmonic(F, h, a)


def _pgcdex(F, h, f, g):
    """(s, d): d the monic gcd of f and g, not both zero, and s*f = d mod g."""
    if h == 0:
        return _kgcdex(F.p, f, g)
    r0, r1 = list(g), _ptrim(F, h, list(f))
    s0, s1 = [], [F._one(h)]
    while r1:
        q, r = _pdivmod(F, h, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _psub(F, h, s0, _pmul(F, h, q, s1))
    li = F._inv(r0[-1], h)
    return [F._mul(c, li, h) for c in s0], [F._mul(c, li, h) for c in r0]


def _ppowmod(F, h, f, n: int, m):
    return _power(
        _pdivmod(F, h, f, m)[1],
        n,
        lambda a, b: _pdivmod(F, h, _pmul(F, h, a, b), m)[1],
        [F._one(h)],
    )


def _frobenius_rows(F, h, m):
    """The rows y^(jq) mod m, j < deg m, of the q-power map on F_q[y]/(m).

    The map is F_q-linear, so g^q mod m is sum_j g_j * row_j (von zur
    Gathen-Gerhard, Modern Computer Algebra, ch. 14).  One powering of y
    builds every row.
    """
    yq = _ppowmod(F, h, [F._zero(h), F._one(h)], F.order, m)
    rows = [[F._one(h)]]
    for _ in range(len(m) - 2):
        rows.append(_pdivmod(F, h, _pmul(F, h, rows[-1], yq), m)[1])
    return rows


def _frobenius_apply(F, h, rows, g):
    """g^q mod m for g reduced mod m, from the rows of m."""
    if h == 0:
        out = [0] * len(rows)
        for c, row in zip(g, rows):
            if c:
                for i, r in enumerate(row):
                    out[i] += c * r
        return _ktrim([c % F.p for c in out])
    out = [F._zero(h)] * len(rows)
    for c, row in zip(g, rows):
        if F._is_zero(c, h):
            continue
        for i, r in enumerate(row):
            out[i] = F._add(out[i], F._mul(c, r, h), h)
    return _ptrim(F, h, out)


def _pderiv(F, h, f):
    if h == 0:
        return _ktrim([i * c % F.p for i, c in enumerate(f)][1:])
    out = []
    for i in range(1, len(f)):
        # i * c by repeated addition; only i mod p matters in characteristic p
        acc = F._zero(h)
        for _ in range(i % F.p):
            acc = F._add(acc, f[i], h)
        out.append(acc)
    return _ptrim(F, h, out)


def _poly_str(F: TowerField, h: int, f: List, var: str = "y") -> str:
    f = _ptrim(F, h, list(f))
    if not f:
        return "0"
    parts = []
    for k in range(len(f) - 1, -1, -1):
        c = f[k]
        if F._is_zero(c, h):
            continue
        cs = _data_str(c)
        if k == 0:
            body = cs
        else:
            xs = var if k == 1 else f"{var}^{k}"
            body = xs if F._is_one(c, h) else f"{cs}*{xs}"
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
        data = _ptrim(field, field.height, data)
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
        return len(self.coeffs) == 1 and self.field._is_one(self.coeffs[0], self.field.height)

    @property
    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.field._is_one(self.coeffs[-1], self.field.height)

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
        return self._wrap(_padd(self.field, self.field.height, self._raw(), other._raw()))

    def __sub__(self, other):
        self._check(other)
        return self._wrap(_psub(self.field, self.field.height, self._raw(), other._raw()))

    def __neg__(self):
        F, h = self.field, self.field.height
        return self._wrap([F._neg(c, h) for c in self.coeffs])

    def __mul__(self, other):
        self._check(other)
        return self._wrap(_pmul(self.field, self.field.height, self._raw(), other._raw()))

    def scale(self, c: TowerElem) -> "TowerPoly":
        c = self.field.coerce(c)
        F, h = self.field, self.field.height
        return self._wrap([F._mul(x, c.data, h) for x in self.coeffs])

    def __pow__(self, n: int) -> "TowerPoly":
        if n < 0:
            raise DomainError("negative power")
        return _power(self, n, TowerPoly.__mul__, TowerPoly.one(self.field))

    def divmod(self, other: "TowerPoly") -> Tuple["TowerPoly", "TowerPoly"]:
        self._check(other)
        q, r = _pdivmod(self.field, self.field.height, self._raw(), other._raw())
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
        return _poly_str(self.field, self.field.height, self._raw())

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
# in all.  2^21 admits degree 100 over F_2 and F_3, 43 over F_4 and 17 over
# F_16, each factored in under a second on a 2-vCPU host.
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


def ff_is_irreducible(psi: TowerPoly) -> bool:
    """Distinct-degree irreducibility test over the tower; ResourceError past
    MAX_FF_WORK."""
    if psi.is_zero or psi.is_constant:
        raise DomainError("irreducibility is asked of non-constant polynomials")
    _check_ff_work(psi)
    n = psi.degree
    if n == 1:
        return True
    F, h = psi.field, psi.field.height
    f = _pmonic(F, h, psi._raw())
    y = [F._zero(h), F._one(h)]
    rows = _frobenius_rows(F, h, f)
    frobs = [y]  # frobs[i] = y^(q^i) mod f
    for _ in range(n):
        frobs.append(_frobenius_apply(F, h, rows, frobs[-1]))
    if _psub(F, h, frobs[n], y):
        return False
    for ell in _prime_factors(n):
        diff = _psub(F, h, frobs[n // ell], y)
        g = _pgcd(F, h, diff, f)
        if len(g) != 1:
            return False
    return True


def _pth_root(F: TowerField, h: int, f: List) -> List:
    """Exact p-th root of f(y) = g(y^p); coefficients map c -> c^(q/p)."""
    p = F.p
    q = F.order_at(h)
    out = []
    for i in range(0, len(f), p):
        out.append(F._pow(f[i], q // p, h))
    return _ptrim(F, h, out)


def _squarefree_decomposition(F, h, f) -> List[Tuple[List, int]]:
    out: List[Tuple[List, int]] = []
    deriv = _pderiv(F, h, f)
    if not deriv:
        for g, m in _squarefree_decomposition(F, h, _pth_root(F, h, f)):
            out.append((g, m * F.p))
        return out
    c = _pgcd(F, h, f, deriv)
    w = _pdivmod(F, h, f, c)[0]
    i = 1
    while len(w) > 1:
        y = _pgcd(F, h, w, c)
        z = _pdivmod(F, h, w, y)[0]
        if len(z) > 1:
            out.append((z, i))
        w = y
        c = _pdivmod(F, h, c, y)[0]
        i += 1
    if len(c) > 1:
        for g, m in _squarefree_decomposition(F, h, _pth_root(F, h, c)):
            out.append((g, m * F.p))
    return out


def _distinct_degree(F, h, f) -> List[Tuple[List, int, List[List]]]:
    """Split a monic squarefree f into (g, d, rows): g the product of the
    irreducible factors of f of degree d, and rows the Frobenius rows of a
    multiple of g (see :func:`_frobenius_rows`), which :func:`_equal_degree`
    reduces mod g when it needs them.

    The rows of f are built once; after a split they are reduced mod the
    cofactor.
    """
    out = []
    y = [F._zero(h), F._one(h)]
    cur = list(f)
    rows = _frobenius_rows(F, h, cur) if len(cur) > 2 else []
    frob = y
    d = 0
    # once cur has no factor of degree <= d, a degree below 2(d + 1) makes it
    # irreducible
    while len(cur) - 1 >= 2 * (d + 1):
        d += 1
        frob = _frobenius_apply(F, h, rows, frob)
        g = _pgcd(F, h, _psub(F, h, frob, y), cur)
        if len(g) > 1:
            out.append((g, d, rows))
            cur = _pdivmod(F, h, cur, g)[0]
            frob = _pdivmod(F, h, frob, cur)[1]
            rows = [_pdivmod(F, h, row, cur)[1] for row in rows[: len(cur) - 1]]
    if len(cur) > 1:
        out.append((cur, len(cur) - 1, rows))
    return out


def _random_poly(F: TowerField, h: int, deg: int, rng) -> List:
    order = F.order_at(h)
    coeffs = [F._from_index(rng.randrange(order), h) for _ in range(deg)]
    return _ptrim(F, h, coeffs)


def _equal_degree(F, h, f, d: int, rng, rows) -> List[List]:
    """Cantor-Zassenhaus split of a monic product f of degree-d irreducibles.

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
    q = F.order
    if F.p == 2:
        rows = [_pdivmod(F, h, row, f)[1] for row in rows[:n]]
    while True:
        r = _random_poly(F, h, n, rng)
        if len(r) <= 1:
            continue
        g = _pgcd(F, h, r, f)
        if 1 < len(g) < len(f):
            u = g
        else:
            if F.p == 2:
                t = acc = r
                for _ in range(d - 1):
                    t = _frobenius_apply(F, h, rows, t)
                    acc = _padd(F, h, acc, t)
                t = acc
                for _ in range(q.bit_length() - 2):
                    t = _ppowmod(F, h, t, 2, f)
                    acc = _padd(F, h, acc, t)
                u = _pgcd(F, h, acc, f)
            else:
                t = _ppowmod(F, h, r, (q**d - 1) // 2, f)
                u = _pgcd(F, h, _psub(F, h, t, [F._one(h)]), f)
            if not (1 < len(u) < len(f)):
                continue
        rest = _pdivmod(F, h, f, u)[0]
        return _equal_degree(F, h, u, d, rng, rows) + _equal_degree(F, h, rest, d, rng, rows)


@lru_cache(maxsize=4096)
def _shared_factor(F: TowerField, coeffs: tuple, mult: int) -> Tuple[TowerPoly, int]:
    """The pair (factor, multiplicity); equal pairs share one immutable object
    while it stays in the bounded cache."""
    return TowerPoly(F, coeffs), mult


def ff_factor(psi: TowerPoly, seed: int = 0) -> List[Tuple[TowerPoly, int]]:
    """Factor into monic irreducibles with multiplicities.

    Squarefree decomposition, then distinct-degree splitting, then seeded
    Cantor-Zassenhaus equal-degree splitting.  The output is sorted by
    (degree, coefficient data), so it is deterministic for a fixed seed; the
    product of factors re-multiplies to the monic normalization of the input.
    ResourceError past MAX_FF_WORK.
    """
    if psi.is_zero or psi.is_constant:
        raise DomainError("factorization is asked of non-constant polynomials")
    _check_ff_work(psi)
    F, h = psi.field, psi.field.height
    rng = None  # built at the first equal-degree split that draws a trial
    work = _pmonic(F, h, psi._raw())
    out: List[Tuple[TowerPoly, int]] = []
    for sqf, mult in _squarefree_decomposition(F, h, work):
        for prod, d, rows in _distinct_degree(F, h, sqf):
            if rng is None and len(prod) - 1 > d:
                rng = random.Random(seed)
            for irr in _equal_degree(F, h, prod, d, rng, rows):
                out.append(_shared_factor(F, tuple(_pmonic(F, h, irr)), mult))
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
