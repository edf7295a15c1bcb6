"""Finite-field towers over F_p and polynomial factorization over them.

A tower is F_p followed by a stack of extensions, each given by a monic
irreducible modulus over the field below it.  Degree-1 moduli are admitted by
:func:`tower_extend` but collapse, so a stored tower is always presented
minimally (every stored level has degree >= 2).

Raw element data is nested: an element of the bottom field is an int in
[0, p); an element at level h is a fixed-length tuple (length = degree of the
level-h modulus) of level-(h-1) data, constant coefficient first.  Equality of
elements is equality of representations.
"""

from __future__ import annotations

import json
import random
from typing import Iterator, List, Optional, Sequence, Tuple

from .basefield import _terms
from .errors import DomainError, InvariantError, ParseError, ResourceError
from .values import _check_digits


class TowerField:
    """An explicit finite-field tower over F_p."""

    __slots__ = ("p", "moduli", "_zeros", "_ones")

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
    def level_degrees(self) -> Tuple[int, ...]:
        return tuple(len(m) - 1 for m in self.moduli)

    @property
    def degree(self) -> int:
        d = 1
        for k in self.level_degrees:
            d *= k
        return d

    @property
    def order(self) -> int:
        return self.p ** self.degree

    def order_at(self, h: int) -> int:
        d = 1
        for k in self.level_degrees[:h]:
            d *= k
        return self.p ** d

    def is_prefix_of(self, other: "TowerField") -> bool:
        return (
            self.p == other.p
            and self.moduli == other.moduli[: len(self.moduli)]
        )

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
        return tuple(self._add(x, y, h - 1) for x, y in zip(a, b))

    def _neg(self, a, h: int):
        if h == 0:
            return (-a) % self.p
        return tuple(self._neg(x, h - 1) for x in a)

    def _sub(self, a, b, h: int):
        return self._add(a, self._neg(b, h), h)

    def _mul(self, a, b, h: int):
        if h == 0:
            return (a * b) % self.p
        m = self.moduli[h - 1]
        k = len(m) - 1
        prod = [self._zero(h - 1) for _ in range(2 * k - 1)]
        for i, x in enumerate(a):
            if self._is_zero(x, h - 1):
                continue
            for j, y in enumerate(b):
                prod[i + j] = self._add(prod[i + j], self._mul(x, y, h - 1), h - 1)
        # reduce modulo the (monic) level modulus
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if self._is_zero(c, h - 1):
                continue
            for j in range(len(m) - 1):
                prod[i - k + j] = self._sub(
                    prod[i - k + j], self._mul(c, m[j], h - 1), h - 1
                )
        return tuple(prod[:k])

    def _inv(self, a, h: int):
        if self._is_zero(a, h):
            raise DomainError("inverse of zero")
        if h == 0:
            return pow(a, -1, self.p)
        # extended Euclid of a against the level modulus, over the sublevel
        m = list(self.moduli[h - 1])
        r0, r1 = m, _ptrim(self, h - 1, list(a))
        s0, s1 = [], [self._one(h - 1)]
        while r1:
            q, r = _pdivmod(self, h - 1, r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, _psub(self, h - 1, s0, _pmul(self, h - 1, q, s1))
        # r0 is a non-zero constant gcd (modulus irreducible)
        if len(r0) != 1:
            raise InvariantError(f"modulus {h} of {self.describe()} is not irreducible")
        c_inv = self._inv(r0[0], h - 1)
        inv = [self._mul(c, c_inv, h - 1) for c in s0]
        k = len(self.moduli[h - 1]) - 1
        inv += [self._zero(h - 1)] * (k - len(inv))
        return tuple(inv[:k])

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

    def elements(self) -> Iterator["TowerElem"]:
        for idx in range(self.order):
            yield self.from_index(idx)

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
            if x.field.is_prefix_of(self):
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
        return self.elem_from_obj(obj)

    def elem_from_obj(self, obj) -> "TowerElem":
        if isinstance(obj, int):
            return self.from_int(obj)
        data = self._obj_to_data(obj, self.height)
        return TowerElem(self, data)

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


def _power(x, n: int, mul, one):
    """x^n for n >= 0 by left-to-right binary powering.

    The loop starts at the top set bit of n, so it takes no product by one
    and no squaring after the last bit: x^(2^k) costs exactly k squarings.
    """
    if n == 0:
        return one
    result = x
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, x)
    return result


def _data_str(data) -> str:
    if isinstance(data, int):
        return str(data)
    return "[" + ", ".join(_data_str(c) for c in data) + "]"


# ---------------------------------------------------------------------------
# Dense polynomial arithmetic over a tower level (internal, list-based)
# ---------------------------------------------------------------------------


def _ptrim(F: TowerField, h: int, f: List) -> List:
    while f and F._is_zero(f[-1], h):
        f.pop()
    return f


def _padd(F, h, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F._zero(h)
        b = g[i] if i < len(g) else F._zero(h)
        out.append(F._add(a, b, h))
    return _ptrim(F, h, out)


def _psub(F, h, f, g):
    return _padd(F, h, f, [F._neg(c, h) for c in g])


def _pmul(F, h, f, g):
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
    lead_inv = None if F._is_one(g[-1], h) else F._inv(g[-1], h)
    r = list(f)
    dg = len(g) - 1
    if dg == 0:
        return (r if lead_inv is None else [F._mul(c, lead_inv, h) for c in r]), []
    q = [F._zero(h)] * max(len(r) - dg, 0)
    for i in range(len(r) - dg - 1, -1, -1):
        c = r[i + dg] if lead_inv is None else F._mul(r[i + dg], lead_inv, h)
        if F._is_zero(c, h):
            continue
        q[i] = c
        for j, b in enumerate(g):
            r[i + j] = F._sub(r[i + j], F._mul(c, b, h), h)
    return _ptrim(F, h, q), _ptrim(F, h, r[:dg])


def _pmonic(F, h, f):
    if not f:
        return f
    if F._is_one(f[-1], h):
        return list(f)
    li = F._inv(f[-1], h)
    return [F._mul(c, li, h) for c in f]


def _pgcd(F, h, f, g):
    a, b = list(f), list(g)
    while b:
        _, r = _pdivmod(F, h, a, b)
        a, b = b, r
    return _pmonic(F, h, a)


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
    out = [F._zero(h)] * len(rows)
    for c, row in zip(g, rows):
        if F._is_zero(c, h):
            continue
        for i, r in enumerate(row):
            out[i] = F._add(out[i], F._mul(c, r, h), h)
    return _ptrim(F, h, out)


def _pderiv(F, h, f):
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


class TowerPoly:
    """A dense polynomial in y with coefficients in a tower field."""

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
        object.__setattr__(self, "coeffs", tuple(data))

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

    def compose_linear(self, a: TowerElem, b: TowerElem) -> "TowerPoly":
        """Substitute y -> a*y + b."""
        inner = TowerPoly(self.field, (b, a))
        acc = TowerPoly.zero(self.field)
        for c in reversed(self.coeffs):
            acc = acc * inner + TowerPoly(self.field, (c,))
        return acc

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


def _distinct_degree(F, h, f) -> List[Tuple[List, int]]:
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
            out.append((g, d))
            cur = _pdivmod(F, h, cur, g)[0]
            frob = _pdivmod(F, h, frob, cur)[1]
            rows = [_pdivmod(F, h, row, cur)[1] for row in rows[: len(cur) - 1]]
    if len(cur) > 1:
        out.append((cur, len(cur) - 1))
    return out


def _random_poly(F: TowerField, h: int, deg: int, rng) -> List:
    order = F.order_at(h)
    coeffs = [F._from_index(rng.randrange(order), h) for _ in range(deg)]
    return _ptrim(F, h, coeffs)


def _equal_degree(F, h, f, d: int, rng) -> List[List]:
    """Cantor-Zassenhaus split of a product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    q = F.order
    while True:
        r = _random_poly(F, h, n, rng)
        if len(r) <= 1:
            continue
        g = _pgcd(F, h, r, f)
        if 1 < len(g) < len(f):
            u = g
        else:
            if F.p == 2:
                # trace map sum r^(2^i), i < k*d, where q = 2^k
                k = q.bit_length() - 1
                t = list(r)
                acc = list(r)
                for _ in range(k * d - 1):
                    t = _ppowmod(F, h, t, 2, f)
                    acc = _padd(F, h, acc, t)
                u = _pgcd(F, h, acc, f)
            else:
                t = _ppowmod(F, h, r, (q**d - 1) // 2, f)
                u = _pgcd(F, h, _psub(F, h, t, [F._one(h)]), f)
            if not (1 < len(u) < len(f)):
                continue
        rest = _pdivmod(F, h, f, u)[0]
        return _equal_degree(F, h, u, d, rng) + _equal_degree(F, h, rest, d, rng)


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
    rng = random.Random(seed)
    work = _pmonic(F, h, psi._raw())
    out: List[Tuple[TowerPoly, int]] = []
    for sqf, mult in _squarefree_decomposition(F, h, work):
        for prod, d in _distinct_degree(F, h, sqf):
            for irr in _equal_degree(F, h, prod, d, rng):
                out.append((TowerPoly(F, _pmonic(F, h, irr)), mult))
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
