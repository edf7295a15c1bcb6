"""Residues of units, the residual polynomial operator, and its inverses.

For a chain with commensurable top step, the degree-zero part of the graded
algebra is a polynomial ring k[xi] over a finite-field tower k, where
xi is the class of u * phi^e (e the relative ramification index, u the
canonical normalizer).  Every initial term H(f) factors as

    H(f)  =  unit * H(phi)^s(f) * R(f)(xi),

with R(f) a monic polynomial over k whose constant term is non-zero.  This
module computes that decomposition exactly and inverts it (lifting residual
data back to Q[x]).  The normalizer-change and key-change laws are verified
as properties in ``tests/test_residual.py``.

Computation scheme
------------------
The tower k is built level by level: the residue field after step i+1 extends
the step-i field by the step-i residual polynomial of phi_{i+1} (degree-1
moduli collapse).  Residues of units are taken *relative to canonical
monomials*: the unit with value beta and residue zeta stands for
zeta~ * H(M(beta)), M(beta) the canonical monomial.  Arbitrary monomials in p
and the lower keys reduce to this form by replacing every bundle phi_j^{e_j}
with xi_j * u_j^{-1}; the xi_j images are tower elements fixed at validation,
so the reduction is pure exponent bookkeeping.  Canonical digits come from
the chain's digit table (every level below the top is rank 1, so each digit
is a residue modulo e_j), not from a search.  Inside this module a unit at
level i is the integer pair (B, data): its value is B/D_i in the group
(1/D_i)Z of the polynomials of degree < deg(phi_i), and data is its raw
residue in the level's tower; a HomogeneousUnit, with its Value, is built
only when a unit leaves the module.  The residue of a general unit
follows the recursion: a unit is equivalent to its 0-th expansion
coefficient, whose full decomposition one level down maps into the tower
through the stored images.  At level 1 the residue is read off the integer
numerator and denominator of the constant.

Values are integers too: the value of an expansion or a decomposition at
level i counts units of 1/(D_i*e_i), the group that gamma_i generates over
the polynomials below it.  Level 1 takes it from the chains' own level-1
argmin loop, and level i scales the value of each coefficient (units of
1/D_i) by e_i and adds s*g_i, g_i = gamma_i*D_i*e_i.  A Value is built only
where a result leaves the module or in the text of an error.

The recursion has linear depth: the decomposition at level i takes one
residue per argmin coefficient of the phi_i-expansion (the top coefficient's
residue also normalizes the others), and each of those decomposes once at
level i-1.  When every argmin set met on the way down is a singleton, a
top-level decomposition makes exactly one call per level.  The expansion
(``_expand``) comes first and values every coefficient through that
coefficient's own expansion one level down; the argmin coefficients keep
theirs, and the decomposition below starts from it, so every (coefficient,
level) pair is expanded once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Dict, List, NamedTuple, Optional, Sequence, Tuple

from .basefield import Poly, _linear_digits, _val_linear, phi_expansion
from .errors import ChainError, DomainError, InvariantError
from .towers import TowerElem, TowerField, TowerPoly, extend_with_root, ff_is_irreducible
from .values import Value, _digits_of, _group_units, _value_of

if TYPE_CHECKING:
    from .chains import InductiveValuation


@dataclass(frozen=True, slots=True)
class HomogeneousUnit:
    """A unit of the graded algebra: a value and a residue relative to the
    canonical monomial of that value."""

    value: Value
    residue: TowerElem

    def __post_init__(self):
        if self.residue.is_zero:
            raise DomainError("unit residue must be non-zero")

    def __str__(self):
        return f"({self.value}; {self.residue})"


@dataclass(frozen=True, slots=True)
class ResidualIdeal:
    """The ideal cut out by an initial term in the degree-zero part: a power
    of xi times the residual polynomial evaluated at xi."""

    xi_power: int
    psi_part: TowerPoly

    def __str__(self):
        return f"xi^{self.xi_power} * ({self.psi_part})(xi)"


@dataclass(frozen=True, slots=True)
class GradedDecomposition:
    """The triple (s, unit, residual polynomial) of an initial term."""

    s: int
    unit: HomogeneousUnit
    respoly: TowerPoly

    def __str__(self):
        return f"(s={self.s}, unit={self.unit}, R={self.respoly})"


@dataclass(frozen=True, slots=True)
class ResidualData:
    """Top-level residual context of a chain: ramification index e, canonical
    normalizer u (value(u * phi^e) = 0), and the residue tower."""

    nu: InductiveValuation
    e: int
    u: Poly
    field: TowerField


@dataclass
class _Level:
    """Per-level residual context, built during chain validation."""

    index: int
    nu: InductiveValuation  # the rank-1 chain of this length that built the level
    phi: Poly
    n: int
    e: int
    D: int  # the values of degree < n polynomials form (1/D)Z
    g: int  # gamma_i * D * e, from the level's own digit-table row
    gammas_D: Tuple[int, ...]  # gamma_j * D for j < index
    digit_rows: Tuple[Tuple[int, int, int, int], ...]  # digit-table rows below
    u_exps: Tuple[int, ...]
    u_poly: Poly
    field: TowerField
    z_images: Tuple[TowerElem, ...]  # xi_j images (j < index) in `field`
    gen_lifts: Tuple[Poly, ...]  # lift of each stored tower generator
    one: TowerPoly  # the residual polynomial 1, shared by every result (_shared_one)
    hu_u: Optional[Tuple[int, object]] = None  # integer unit of u_poly, set by _make_level


@dataclass
class _Decomp:
    """The graded decomposition of a polynomial at level i: s, mu as an
    integer in units of 1/(D_i*e_i), the normalized leading unit and R."""

    s: int
    mu: int
    nlc: Tuple[int, object]  # integer unit (B, residue data), see _hu_mono
    respoly: TowerPoly


class _Expansion(NamedTuple):
    """A polynomial f with its value mu at level i, an integer in units of
    1/(D_i*e_i), and, for each argmin index s of its expansion there, the
    expansion of the coefficient f_s one level down (at level 1, the
    constant f_s as its integer numerator and denominator)."""

    f: Poly
    mu: int
    argmin: Dict[int, object]


# ---------------------------------------------------------------------------
# Level construction (driven by chain validation)
# ---------------------------------------------------------------------------


def attach_levels(nu: InductiveValuation) -> None:
    """Check nu's top step against its validated parent and attach the levels.

    nu is its parent nu._parent (None for a one-step chain) plus one step.
    Raises ChainError naming the first violated invariant of that step: its
    value must exceed the parent's value of its key (put in gamma's rank by
    the chain's embedding), and the key must be a key polynomial for the
    parent, not equivalent to the parent's top key.  nu's levels are the
    parent's, the same objects, plus one level built on nu itself; an
    incommensurable top step adds none.
    """
    pre, step, i = nu._parent, nu.top, nu.length
    psi = None
    if pre is not None:
        mu_phi = nu._in_rank(pre.valuation(step.phi), i)
        if not step.gamma > mu_phi:
            raise ChainError(
                f"step {i}: gamma={step.gamma} must exceed the prefix value "
                f"{mu_phi} of the key polynomial"
            )
        kc = key_check(pre, step.phi)
        if not kc.ok:
            raise ChainError(
                f"step {i}: {step.phi} is not a key polynomial for the "
                f"prefix chain ({kc.reason})"
            )
        if kc.branch == "equivalent":
            raise ChainError(
                f"step {i}: key is equivalent to the previous key; augment "
                "replaces the top step instead of appending"
            )
        psi = kc.respoly
    below = pre._levels if pre is not None else ()
    nu._levels = (*below, _make_level(nu, below, psi)) if nu.commensurable_at(i) else below


def _make_level(nu_i: InductiveValuation, levels: Tuple[_Level, ...], psi: Optional[TowerPoly]) -> _Level:
    """The level of nu_i's top step, on the levels below it."""
    i, step = nu_i.length, nu_i.top
    table = nu_i._digit_table()
    rows = table[: i - 1]
    e, _, g, _ = table[i - 1]
    D = rows[-1][1] if rows else 1
    # the canonical monomial of -e*gamma_i = -g/D_i
    u_exps = tuple(_digits_of(rows, -g))
    u_poly = nu_i.monomial_from_exps(u_exps)
    if i == 1:
        field = TowerField(nu_i.base.p)
        z_images: Tuple[TowerElem, ...] = ()
        gen_lifts: Tuple[Poly, ...] = ()
    else:
        prev = levels[-1]
        field, root = extend_with_root(prev.field, psi)
        z_images = tuple(field.coerce(z) for z in prev.z_images) + (field.coerce(root),)
        if field is not prev.field:
            gen_lifts = prev.gen_lifts + (prev.u_poly * prev.phi**prev.e,)
        else:
            gen_lifts = prev.gen_lifts
    level = _Level(
        index=i,
        nu=nu_i,
        phi=step.phi,
        n=step.phi.degree,
        e=e,
        D=D,
        g=g,
        gammas_D=tuple(g * (D // D_next) for _, D_next, g, _ in rows),
        digit_rows=rows,
        u_exps=u_exps,
        u_poly=u_poly,
        field=field,
        z_images=z_images,
        gen_lifts=gen_lifts,
        one=_shared_one(field),
    )
    level.hu_u = _hu_mono([*levels, level], i, u_exps)
    return level


def _require_levels(nu: InductiveValuation) -> Tuple[_Level, ...]:
    if nu._levels is None:
        raise DomainError("chain has no residual data; build it with validate_chain")
    if len(nu._levels) != nu.length:
        raise DomainError(
            "residual operators are only defined for a commensurable top step"
        )
    return nu._levels


def residual_data(nu: InductiveValuation) -> ResidualData:
    """Public view of the top-level residual context."""
    levels = _require_levels(nu)
    top = levels[-1]
    return ResidualData(nu=nu, e=top.e, u=top.u_poly, field=top.field)


# ---------------------------------------------------------------------------
# Homogeneous-unit arithmetic relative to canonical monomials
# ---------------------------------------------------------------------------


def _public_unit(levels: Sequence[_Level], i: int, u) -> HomogeneousUnit:
    """The HomogeneousUnit of an integer unit at level i."""
    top = levels[i - 1]
    return _shared_unit(top.field, top.D, *u)


@lru_cache(maxsize=4096)
def _shared_unit(field: TowerField, D: int, B: int, data) -> HomogeneousUnit:
    """The unit of value B/D and residue data; equal units share one immutable
    object (and its Value the chains' cached one) while it stays in the
    bounded cache."""
    return HomogeneousUnit(_value_of((B,), D), TowerElem(field, data))


@lru_cache(maxsize=256)
def _shared_one(field: TowerField) -> TowerPoly:
    """The residual polynomial 1 over field: the levels of equal fields share
    one object while it stays in the bounded cache, and so do the equal
    decompositions that :func:`_interned` hands to different chains."""
    return TowerPoly.one(field)


@lru_cache(maxsize=4096)
def _interned(result):
    """The first of equal immutable results (decompositions, key checks,
    factorizations) still in the bounded cache, so that results kept by a
    caller share one object per distinct value."""
    return result


def _int_unit(levels: Sequence[_Level], i: int, hu: HomogeneousUnit):
    """The integer unit (B, data) of a HomogeneousUnit at level i."""
    top = levels[i - 1]
    return _group_units(hu.value, Value.of(hu.value), top.D, top.n), top.field.coerce(hu.residue).data


def _digits(levels: Sequence[_Level], i: int, B: int) -> List[int]:
    """Canonical digits (c, m_1, ..., m_{i-1}) of the value B/D_i."""
    return _digits_of(levels[i - 1].digit_rows, B)


def _rho(levels: Sequence[_Level], i: int, exps: Sequence[int]):
    """Reduce an arbitrary-exponent monomial to canonical digits.

    Returns (residue data, canonical exponent vector).  Each bundle
    phi_j^{e_j} is replaced by xi_j * u_j^{-1}; the accumulated xi-images form
    the residue of the monomial relative to the canonical monomial of the
    same value.
    """
    top = levels[i - 1]
    F = top.field
    vec = list(exps) + [0] * (i - len(exps))
    acc = F._one
    for j in range(i - 1, 0, -1):
        e_j = levels[j - 1].e
        q, digit = divmod(vec[j], e_j)
        vec[j] = digit
        if q:
            zj = top.z_images[j - 1]
            acc = F._mul(acc, F._pow(zj.data, q))
            for t, exp in enumerate(levels[j - 1].u_exps):
                vec[t] -= q * exp
    return acc, vec


def _hu_mono(levels: Sequence[_Level], i: int, exps: Sequence[int]):
    """The integer unit of the monomial p^c * prod phi_j^{m_j}, exps = (c, m_1, ...)."""
    top = levels[i - 1]
    B = exps[0] * top.D + sum(m * g for m, g in zip(exps[1:], top.gammas_D))
    acc, canon = _rho(levels, i, exps)
    if canon != _digits(levels, i, B):
        raise InvariantError(
            f"monomial {tuple(exps)} at level {i} of {top.nu.describe()} reduces off its digits"
        )
    return B, acc


def _hu_mul(levels, i: int, a, b):
    """Product of two units at level i: the values add, and the carries of
    the summed digits enter the residue.  Two integer units give an integer
    unit, two HomogeneousUnits a HomogeneousUnit."""
    if isinstance(a, HomogeneousUnit):
        return _public_unit(levels, i, _hu_mul(levels, i, _int_unit(levels, i, a), _int_unit(levels, i, b)))
    F = levels[i - 1].field
    (Ba, ra), (Bb, rb) = a, b
    acc, _ = _rho(levels, i, [x + y for x, y in zip(_digits(levels, i, Ba), _digits(levels, i, Bb))])
    return Ba + Bb, F._mul(F._mul(ra, rb), acc)


def _hu_pow(levels, i: int, a, k: int):
    F = levels[i - 1].field
    if k == 0:
        return 0, F._one
    B, r = a
    acc, _ = _rho(levels, i, [k * x for x in _digits(levels, i, B)])
    return k * B, F._mul(F._pow(r, k), acc)


# ---------------------------------------------------------------------------
# Residues of units and the graded decomposition, per level
# ---------------------------------------------------------------------------


def _expand(levels: Sequence[_Level], i: int, f: Poly) -> _Expansion:
    """The level-i expansion of a non-zero f that :func:`_decompose` starts from.

    Each coefficient is valued through its own expansion one level down, and
    the argmin coefficients keep theirs for the decomposition below, so a
    decomposition expands every (coefficient, level) pair once.  Level 1
    reads the integer value (in units of 1/e_1) and the argmin digits of
    ``_val_linear`` on the lazy digits, which stops once no later monomial
    can reach the minimum; above it, a coefficient's value in units of
    1/D_i scales by e_i into units of 1/(D_i*e_i), where gamma_i is the
    integer g.
    """
    top = levels[i - 1]
    if i == 1:
        digits, den = _linear_digits(f, top.phi)
        (mu,), argmin = _val_linear(top.nu._lin, digits, den)
        return _Expansion(f, mu, {s: (d, den) for s, d in argmin.items()})
    coeffs = [f] if f.degree < top.n else phi_expansion(f, top.phi)
    subs = {s: _expand(levels, i - 1, c) for s, c in enumerate(coeffs) if not c.is_zero}
    e, g = top.e, top.g
    vals = {s: sub.mu * e + s * g for s, sub in subs.items()}
    mu = min(vals.values())
    return _Expansion(f, mu, {s: subs[s] for s, w in vals.items() if w == mu})


def _residue_small(levels: Sequence[_Level], i: int, a):
    """Integer unit at level i of a non-zero polynomial of degree < deg(phi_i),
    given by its level-(i-1) expansion (at level 1, the constant as its
    integer (numerator, denominator) pair)."""
    top = levels[i - 1]
    if i == 1:
        # a = (n, d), the constant n/d: the order and the residue of the unit
        # part come from the integers n and d directly
        (n, d), p, order = a, top.nu.base.p, top.nu.base.int_order
        kn, kd = order(n), order(d)
        return kn - kd, n // p**kn * pow(d // p**kd, -1, p) % p
    dec = _decompose(levels, i - 1, a)
    F, prev = top.field, levels[i - 2]
    z = top.z_images[i - 2]
    # evaluate the level-(i-1) residual polynomial at the image of xi_{i-1};
    # non-zero because deg(a) < deg(phi_i) and phi_i is minimal at level i-1
    acc = F._zero
    for cdata in reversed(dec.respoly.coeffs):
        acc = F._add(F._mul(acc, z.data), F._embed(cdata, prev.field))
    if F._is_zero(acc):
        raise InvariantError(
            f"residual polynomial of {a.f} at level {i} of {top.nu.describe()} vanished at xi"
        )
    # D_i = D_{i-1} * e_{i-1}: the unit one level down, carried up
    B, r = dec.nlc
    nlc_up = (B * prev.e, F._embed(r, prev.field))
    q_part = _hu_mono(levels, i, [0] * (i - 1) + [dec.s])
    B, r = _hu_mul(levels, i, nlc_up, q_part)
    return B, F._mul(r, acc)


def _decompose(levels: Sequence[_Level], i: int, ex: _Expansion) -> _Decomp:
    """The graded decomposition at level i of the polynomial ex.f, from its
    level-i expansion ex; each argmin residue starts from the expansion that
    ex keeps for its coefficient."""
    top, f, argmin, indices = levels[i - 1], ex.f, ex.argmin, tuple(ex.argmin)
    s0, sp = indices[0], indices[-1]
    e = top.e
    if any((j - s0) % e for j in indices):
        raise InvariantError(
            f"argmin {indices} of {f} at level {i} of {top.nu.describe()} is off the {e}-grid"
        )
    d = (sp - s0) // e
    top_res = _residue_small(levels, i, argmin[sp])
    nlc = _hu_mul(levels, i, top_res, _hu_pow(levels, i, top.hu_u, -d))
    top_inv = _hu_pow(levels, i, top_res, -1)
    zetas: List[TowerElem] = []
    for j in range(d + 1):
        sj = s0 + j * e
        if sj in argmin:
            # the top coefficient reuses top_res: one residue per argmin index
            res = top_res if sj == sp else _residue_small(levels, i, argmin[sj])
            B, r = _hu_mul(levels, i, _hu_mul(levels, i, res, _hu_pow(levels, i, top.hu_u, d - j)), top_inv)
            if B:
                raise InvariantError(
                    f"unit {sj} of {f} at level {i} of {top.nu.describe()} has value "
                    f"{_value_of((B,), top.D)}"
                )
            zetas.append(TowerElem(top.field, r))
        else:
            zetas.append(top.field.zero())
    # R = 1 (d = 0) is the common case: one shared object per level
    respoly = top.one if d == 0 and zetas[0].is_one else TowerPoly(top.field, zetas)
    if not (respoly.is_monic and respoly.degree == d) or respoly.coeff(0).is_zero:
        raise InvariantError(
            f"residual polynomial {respoly} of {f} at level {i} of {top.nu.describe()} "
            f"is not monic of degree {d} with a non-zero constant"
        )
    return _Decomp(s0, ex.mu, nlc, respoly)


def _decompose_top(levels: Sequence[_Level], f: Poly) -> _Decomp:
    """The decomposition of f at the top level: a call from outside, whose
    work is checked once before the digits recurse below it."""
    if f.is_zero:
        raise DomainError("decomposition of the zero polynomial")
    levels[-1].nu.check_work(f)
    return _decompose(levels, len(levels), _expand(levels, len(levels), f))


# ---------------------------------------------------------------------------
# Public operations (top level)
# ---------------------------------------------------------------------------


def decompose(nu: InductiveValuation, f: Poly) -> GradedDecomposition:
    """The triple (s, unit, R) with H(f) = unit * H(phi)^s * R(xi).

    The unit is the normalized leading unit: its value is mu(f) - s*gamma_r
    and it is multiplicative in f.  Equal results share one object while it
    stays in the bounded cache of :func:`_interned`.
    """
    levels = _require_levels(nu)
    dec = _decompose_top(levels, f)
    return _interned(GradedDecomposition(dec.s, _public_unit(levels, nu.length, dec.nlc), dec.respoly))


def residual_poly(nu: InductiveValuation, f: Poly) -> TowerPoly:
    """The monic residual polynomial R(f) over the residue tower."""
    return _decompose_top(_require_levels(nu), f).respoly


def residual_ideal(nu: InductiveValuation, f: Poly) -> ResidualIdeal:
    """The degree-zero ideal of H(f): xi^ceil(s/e) * R(f)(xi)."""
    levels = _require_levels(nu)
    dec = _decompose_top(levels, f)
    e = levels[-1].e
    return ResidualIdeal(-(-dec.s // e), dec.respoly)


def unit_residue(nu: InductiveValuation, f: Poly) -> HomogeneousUnit:
    """Value and residue of a unit, relative to its canonical monomial."""
    levels = _require_levels(nu)
    if f.is_zero:
        raise DomainError("the zero polynomial is not a unit")
    dec = _decompose_top(levels, f)
    if dec.s or dec.respoly.degree:  # the argmin set is not {0}
        raise DomainError("polynomial is not a unit: expansion argmin is not {0}")
    return _public_unit(levels, nu.length, dec.nlc)


# ---------------------------------------------------------------------------
# The key test: s(chi), R(chi) and the degree of chi
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class KeyCheck:
    """Outcome of a key test: verdict, branch taken, failure reason, and the
    residual data computed along the way (commensurable branch only)."""

    ok: bool
    branch: Optional[str] = None  # "equivalent" | "residual" | "translate"
    reason: Optional[str] = None
    s: Optional[int] = None
    respoly: Optional[TowerPoly] = None

    def __bool__(self):
        return self.ok


def key_check(nu: InductiveValuation, chi: Poly) -> KeyCheck:
    """Test whether chi is a key polynomial for the chain, with a reason code.

    Commensurable top step: chi is a key iff it is equivalent to the top key
    (same degree and value(chi - phi) > gamma), or s(chi) = 0, R(chi) is
    irreducible and deg(chi) = e * deg(phi) * deg(R(chi)).  Incommensurable
    top step: the keys are exactly the translates phi + a with
    value(a) > gamma.
    """
    if chi.is_zero or chi.is_constant:
        raise DomainError("key polynomials are non-constant")
    if not chi.is_monic:
        raise DomainError("key polynomials are monic")
    n, commensurable = nu.top_degree, nu.top_commensurable
    if chi.degree == n and nu(chi - nu.top.phi) > nu.top.gamma:
        return KeyCheck(True, branch="equivalent", s=1) if commensurable else KeyCheck(True, branch="translate")
    if not commensurable:
        if chi.degree != n:
            return KeyCheck(False, reason=f"degree must be {n}")
        return KeyCheck(False, reason="difference from the top key has value <= gamma")
    levels = _require_levels(nu)
    return _interned(_decomposed_key_check(levels, chi, _decompose_top(levels, chi)))


def _decomposed_key_check(levels: Sequence[_Level], chi: Poly, dec: _Decomp) -> KeyCheck:
    """The residual branch of the commensurable key test, on chi's top-level
    decomposition dec; chi is not equivalent to the top key."""
    top = levels[-1]
    if dec.s != 0:
        return KeyCheck(False, reason=f"s(chi) = {dec.s} != 0", s=dec.s)
    if dec.respoly.is_constant:
        return KeyCheck(
            False, reason="chi is a unit (constant residual polynomial)", s=0
        )
    if not ff_is_irreducible(dec.respoly):
        return KeyCheck(
            False,
            reason=f"residual polynomial {dec.respoly} is reducible",
            s=0,
            respoly=dec.respoly,
        )
    expected = top.e * top.n * dec.respoly.degree
    if chi.degree != expected:
        return KeyCheck(
            False,
            reason=f"degree {chi.degree} != e*n*deg(R) = {expected}",
            s=0,
            respoly=dec.respoly,
        )
    return KeyCheck(True, branch="residual", s=0, respoly=dec.respoly)


def is_key(nu: InductiveValuation, chi: Poly) -> bool:
    return key_check(nu, chi).ok


def _mulred(nu: InductiveValuation, a: Poly, b: Poly) -> Poly:
    """Product reduced to degree < deg(phi_r); residue-preserving for factors
    of degree < deg(phi_r) because a*b is equivalent to its 0-th coefficient."""
    prod = a * b
    n = nu.top_degree
    if not prod.is_zero and prod.degree >= n:
        prod = prod.divmod_monic(nu.top.phi)[1]
    return prod


def _lift_data(nu: InductiveValuation, gen_lifts: Sequence[Poly], data) -> Poly:
    """A lift of raw residue data, gen_lifts holding the lift of each stored
    tower generator from the bottom level up to the data's own."""
    if not gen_lifts:
        return Poly.constant(data)
    genlift, below = gen_lifts[-1], gen_lifts[:-1]
    acc = Poly.zero()
    power = Poly.one()
    for cdata in data:
        sub = _lift_data(nu, below, cdata)
        if not sub.is_zero:
            acc = acc + _mulred(nu, sub, power)
        power = _mulred(nu, power, genlift)
    return acc


def unit_lift(nu: InductiveValuation, hu: HomogeneousUnit) -> Poly:
    """A polynomial of degree < deg(phi_r) whose unit residue is exactly hu.

    Tower generators lift to u_j * phi_j^{e_j}; products are reduced modulo
    the top key after every step, which preserves residues; a canonical
    monomial then moves the value-0 lift to the requested value.
    """
    levels = _require_levels(nu)
    return _unit_lift(nu, levels, _int_unit(levels, nu.length, hu))


def _unit_lift(nu: InductiveValuation, levels: Sequence[_Level], u) -> Poly:
    """:func:`unit_lift` of an integer unit at the top level."""
    r = nu.length
    B, zeta = u
    w = _lift_data(nu, levels[-1].gen_lifts, zeta)
    out = _mulred(nu, w, nu.monomial_from_exps(_digits(levels, r, B)))
    back = _residue_small(levels, r, _expand(levels, r, out).argmin[0])
    if back != (B, zeta):
        raise InvariantError(
            f"unit lift {out} of {_public_unit(levels, r, u)} on {nu.describe()} has residue "
            f"{_public_unit(levels, r, back)}"
        )
    return out


def residual_lift(
    nu: InductiveValuation, s: int, zeta: TowerElem, psi: TowerPoly
) -> Poly:
    """Build f with s(f) = s, residual polynomial psi, and top unit zeta.

    The coefficient at phi^(s + j*e) lifts zeta * u^(j-d) * psi_j, so the top
    coefficient is the lift of zeta; a round trip through the decomposition
    checks (s, R) and raises InvariantError on a mismatch.  psi must be monic
    with psi(0) != 0 (or psi = 1).  The round trip is the lift's one
    top-level decomposition: `lift_key` keeps its unit and value with the
    memoized key instead of decomposing the key again.
    """
    return _residual_lift(nu, s, zeta, psi)[0]


def _residual_lift(
    nu: InductiveValuation, s: int, zeta: TowerElem, psi: TowerPoly
) -> Tuple[Poly, _Decomp]:
    """:func:`residual_lift` with the round trip's decomposition of f."""
    levels = _require_levels(nu)
    top = levels[-1]
    r = nu.length
    if s < 0:
        raise DomainError("s must be non-negative")
    zeta = top.field.coerce(zeta)
    if zeta.is_zero:
        raise DomainError("zeta must be non-zero")
    psi = TowerPoly(top.field, [top.field.coerce(c) for c in psi.elems()])
    if psi.is_zero or not psi.is_monic:
        raise DomainError("psi must be monic")
    d = psi.degree
    if d > 0 and psi.coeff(0).is_zero:
        raise DomainError("psi must have a non-zero constant term (or equal 1)")
    acc = Poly.zero()
    for j in range(d + 1):
        zj = psi.coeff(j)
        if zj.is_zero:
            continue
        u_j = _hu_mul(levels, r, _hu_mul(levels, r, (0, zeta.data), _hu_pow(levels, r, top.hu_u, j - d)), (0, zj.data))
        acc = acc + _unit_lift(nu, levels, u_j) * top.phi ** (j * top.e)
    f = acc * top.phi**s
    dec = _decompose_top(levels, f)
    if dec.s != s or dec.respoly != psi:
        raise InvariantError(
            f"residual lift {f} on {nu.describe()} has (s, R) = ({dec.s}, {dec.respoly}), "
            f"not ({s}, {psi})"
        )
    return f, dec
