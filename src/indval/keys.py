"""Key-polynomial lifting, enumeration, graded divisibility and factorization.

The key test itself (``key_check``, ``KeyCheck``, ``is_key``) lives in
:mod:`indval.residual`, beside the decomposition it reads; ``key_check`` is
re-exported here.

A key polynomial generates a homogeneous prime of the graded algebra.  With a
commensurable top step the keys split into the class of the top key phi and,
for every monic irreducible psi over the residue tower, the class of a lift
whose residual polynomial is psi; the residual ideal separates the classes.
An incommensurable top step admits the single class of phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .basefield import Poly
from .chains import InductiveValuation, expansion_report
from .errors import DomainError, InvariantError
from .residual import (
    HomogeneousUnit,
    _decompose_top,
    _decomposed_key_check,
    _hu_mul,
    _hu_pow,
    _interned,
    _Level,
    _public_unit,
    _require_levels,
    _residual_lift,
    key_check,
)
from .towers import TowerPoly, ff_factor, ff_is_irreducible, monic_irreducibles
from .values import _value_of


def graded_divides(nu: InductiveValuation, f: Poly, g: Poly) -> bool:
    """Whether the initial term of f divides the initial term of g.

    Commensurable: s(f) <= s(g) and R(f) | R(g) over the tower; with an
    incommensurable top step the s-comparison alone decides.
    """
    if f.is_zero or g.is_zero:
        raise DomainError("graded divisibility is asked of non-zero polynomials")
    if not nu.top_commensurable:
        return expansion_report(nu, f).s <= expansion_report(nu, g).s
    levels = _require_levels(nu)
    df, dg = _decompose_top(levels, f), _decompose_top(levels, g)
    return df.s <= dg.s and df.respoly.divides(dg.respoly)


def lift_key(nu: InductiveValuation, psi) -> Poly:
    """The canonical key polynomial whose residual polynomial is psi.

    psi = y maps to the top key itself; otherwise psi must be monic
    irreducible with psi(0) != 0, and the lift has degree e*n*deg(psi) with
    top coefficient 1.  The lift depends on the chain and psi alone, so it is
    memoized on the chain object together with the unit and value of its
    initial term: repeated calls return the same immutable Poly, and the
    irreducibility test, the key check and the one top-level decomposition
    of the lift run once per psi and chain.
    """
    levels = _require_levels(nu)
    top = levels[-1]
    if isinstance(psi, str):
        psi = TowerPoly.parse(top.field, psi)
    psi = TowerPoly(top.field, [top.field.coerce(c) for c in psi.elems()])
    if psi == TowerPoly.y(top.field):
        return nu.top.phi
    return _lift_record(nu, levels, psi)[0]


def _lift_record(nu: InductiveValuation, levels: Sequence[_Level], psi: TowerPoly):
    """The memo entry (chi, nlc, mu) of psi != y over the top residue field:
    the lift chi, the integer unit of its decomposition and mu(chi) as the
    integer value of that decomposition, in units of 1/(D_r*e_r).

    s(chi) = 0 and R(chi) = psi, so H(chi) = nlc * psi(xi) and nothing else
    about the initial term depends on the call.  A miss builds chi, takes the
    round trip's decomposition for the key check, and stores the entry only
    after every check passes, mu against the chain valuation among them.
    """
    rec = nu._key_lifts.get(psi)
    if rec is not None:
        return rec
    top = levels[-1]
    if psi.is_zero or psi.is_constant:
        raise DomainError("psi must be non-constant")
    if not ff_is_irreducible(psi):
        raise DomainError(f"psi = {psi} is reducible over the residue tower")
    chi, dec = _residual_lift(nu, 0, top.field.one(), psi)
    if not (chi.is_monic and chi.degree == top.e * top.n * psi.degree):
        raise InvariantError(
            f"lift {chi} of psi = {psi} on {nu.describe()} is not monic of degree "
            f"e*n*deg(psi) = {top.e * top.n * psi.degree}"
        )
    if not _decomposed_key_check(levels, chi, dec).ok:
        raise InvariantError(f"lift {chi} of psi = {psi} on {nu.describe()} is not a key")
    mu, value = nu(chi), _value_of((dec.mu,), top.D * top.e)
    if value != mu:
        raise InvariantError(
            f"lift {chi} of psi = {psi} on {nu.describe()} decomposes with value "
            f"{value} != mu(chi) = {mu}"
        )
    rec = nu._key_lifts[psi] = (chi, dec.nlc, dec.mu)
    return rec


def enumerate_keys(nu: InductiveValuation, max_res_deg: int) -> List[Poly]:
    """One representative per key class with residual degree <= max_res_deg.

    The top key represents its own class; every monic irreducible psi != y
    over the tower contributes lift_key(psi), memoized on the chain object,
    so a repeated enumeration returns the same immutable Polys.  An
    incommensurable top step has a single class.  Raises ResourceError past
    towers.MAX_ENUMERATION candidates.
    """
    if max_res_deg < 1:
        raise DomainError("max residual degree must be >= 1")
    if not nu.top_commensurable:
        return [nu.top.phi]
    levels = _require_levels(nu)
    top = levels[-1]
    out = [nu.top.phi]
    y = TowerPoly.y(top.field)
    for psi in monic_irreducibles(top.field, max_res_deg):
        if psi == y:
            continue
        out.append(lift_key(nu, psi))
    return out


@dataclass(frozen=True, slots=True)
class GradedFactorization:
    """Factorization of an initial term into key classes with a closing unit:
    H(f) = unit * prod H(chi)^a."""

    unit_part: HomogeneousUnit
    factors: Tuple[Tuple[Poly, int], ...]

    def accounting(self, nu: InductiveValuation, f: Poly) -> str:
        total = self.unit_part.value
        pieces = [f"value({self.unit_part.residue})={self.unit_part.value}"]
        for chi, a in self.factors:
            w = nu(chi)
            total = total + w.scaled(a)
            pieces.append(f"{a}*value({chi})={w.scaled(a)}")
        return f"mu(f) = {nu(f)} = " + " + ".join(pieces)

    def __str__(self):
        prod = " * ".join(f"({chi})^{a}" for chi, a in self.factors) or "1"
        return f"{self.unit_part} ⊙ {prod}"


def graded_factorization(
    nu: InductiveValuation, f: Poly, seed: int = 0
) -> GradedFactorization:
    """Factor the initial term of f into key-polynomial classes.

    R(f) is factored over the tower (seeded, deterministic); each irreducible
    factor psi of multiplicity m contributes (lift_key(psi), m), and the top
    key enters with exponent s(f).  The unit part closes the value accounting
    mu(f) = value(unit) + sum a * mu(chi) exactly; it is checked on every
    call, with gamma_r for the top key.  The check runs on integers in units
    of 1/(D_r*e_r): B*e_r + s*g_r + sum a * B_chi == mu(f), with B the
    unit's value in units of 1/D_r and g_r = gamma_r*D_r*e_r.  Each lift's
    unit and value come from its memo entry, so f is the only polynomial
    decomposed once the keys are lifted.
    """
    if f.is_zero:
        raise DomainError("factorization of the zero polynomial")
    if not nu.top_commensurable:
        raise DomainError("graded factorization needs a commensurable top step")
    levels = _require_levels(nu)
    r, top = nu.length, levels[-1]
    dec = _decompose_top(levels, f)
    factors: List[Tuple[Poly, int]] = []
    unit = dec.nlc
    keys_value = dec.s * top.g  # sum a * mu(chi) over the factors
    if dec.s > 0:
        factors.append((nu.top.phi, dec.s))
    if dec.respoly.degree > 0:
        for psi, mult in ff_factor(dec.respoly, seed):
            chi, chi_nlc, chi_mu = _lift_record(nu, levels, psi)
            factors.append((chi, mult))
            unit = _hu_mul(levels, r, unit, _hu_pow(levels, r, chi_nlc, -mult))
            keys_value += mult * chi_mu
    total = unit[0] * top.e + keys_value
    if total != dec.mu:
        De = top.D * top.e
        raise InvariantError(
            f"unit part of f = {f} on {nu.describe()} does not close the value "
            f"accounting: {_value_of((total,), De)} != mu(f) = {_value_of((dec.mu,), De)}"
        )
    return _interned(GradedFactorization(_public_unit(levels, r, unit), tuple(factors)))
