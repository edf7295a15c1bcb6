from fractions import Fraction

import pytest

import indval as iv
from indval import Poly, Step, TowerPoly, Value


@pytest.fixture(scope="session")
def v2():
    return iv.PadicValuation(2)


@pytest.fixture(scope="session")
def nu1(v2):
    """[(x, 1/2)] over p=2: e=2, u=1/2."""
    return iv.validate_chain([("x", Fraction(1, 2))], v2)


@pytest.fixture(scope="session")
def nu2(nu1):
    """nu1 + (x^2+2, 3/2): e=1, u=x/4."""
    return iv.augment(nu1, Poly.parse("x^2+2"), Fraction(3, 2))


@pytest.fixture(scope="session")
def nu3p():
    """[(x, 1/2)] over p=3: e=2, u=1/3."""
    return iv.validate_chain([("x", Fraction(1, 2))], iv.PadicValuation(3))


@pytest.fixture(scope="session")
def nu_inf(v2):
    """[(x, (0,1))] over p=2: incommensurable (infinitesimal direction)."""
    return iv.validate_chain([("x", Value.of((0, 1)))], v2)


@pytest.fixture(scope="session")
def gauss2(v2):
    """[(x, 1)] over p=2: e=1, u=1/2."""
    return iv.validate_chain([("x", 1)], v2)


@pytest.fixture(scope="session")
def nu4(nu1):
    """nu1 + (x^4+2x^2+4, 9/4): residue tower F_4, e=2."""
    chi = iv.lift_key(nu1, "y^2+y+1")
    return iv.augment(nu1, chi, Fraction(9, 4))


@pytest.fixture(scope="session")
def ram3(v2):
    """[(x, 2/3), (x^3+4, 7/3)] over p=2: e_1 = 3, so g_1^-1 mod e_1 = 2 in
    the digit table, the one fixture whose inverse column is not 1."""
    nu = iv.validate_chain([("x", Fraction(2, 3)), ("x^3+4", Fraction(7, 3))], v2)
    assert nu._digit_rows == ((3, 3, 2, 2), (1, 3, 7, 0))
    return nu


@pytest.fixture(scope="session")
def lam(v2):
    """Continuous family phi_i = x - (2^(i+1)-2), gamma_i = i+1, i = 1..6."""
    fam = [(Poly([-(2 ** (i + 1) - 2), 1]), i + 1) for i in range(1, 7)]
    return iv.validate_continuous_chain(fam, v2)


@pytest.fixture(scope="session")
def ladder():
    """The MacLane-optimal y+1 ladder over p = 2: degrees 1, 2, 4, 8, 16, e = 2."""
    nu = iv.validate_chain([("x", Fraction(1, 2))], iv.PadicValuation(2))
    chains = [nu]
    big_e = 2
    while len(chains) < 5:
        chi = iv.lift_key(nu, "y+1")
        nu = iv.augment(nu, chi, nu(chi) + Value.of(Fraction(1, 2 * big_e)))
        big_e *= 2
        chains.append(nu)
    assert tuple(s.phi.degree for s in nu.steps) == (1, 2, 4, 8, 16)
    return chains


# -- Fraction references -----------------------------------------------------
#
# Schoolbook algorithms on lists of Fractions, constant term first, that share
# no code with the library's integer kernels: the oracles of Poly arithmetic
# and of every value computed at level one.


def trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def ref_divmod(a, g):
    """Schoolbook division by a monic g over Q."""
    r = list(a)
    n = len(g) - 1
    q = [Fraction(0)] * max(len(r) - n, 0)
    for i in range(len(r) - n - 1, -1, -1):
        c = r[i + n]
        q[i] = c
        for j, b in enumerate(g):
            r[i + j] -= c * b
    return trim(q), trim(r[:n])


def ref_expansion(a, g):
    if not a:
        return [[]]
    out = []
    while a:
        a, r = ref_divmod(a, g)
        out.append(r)
    return out


def ref_linear_report(nu, f):
    """(digits, monomial values, mu, argmin) of f != 0 on a one-step chain
    nu, in Fractions: the schoolbook expansion of f in the linear key, and
    v_p(f_s) + s*gamma_1 with v_p from ``PadicValuation.value`` in the major
    coordinate, Infinity for a zero digit."""
    phi, gamma = nu.steps[0].phi, nu.steps[0].gamma
    digits = ref_expansion(trim(f.coeffs), list(phi.coeffs))
    vals = [
        nu.base.value(d[0]).embed(gamma.rank, major=True) + gamma.scaled(s) if d else iv.INFINITY
        for s, d in enumerate(digits)
    ]
    mu = min(vals)
    return digits, vals, mu, tuple(s for s, w in enumerate(vals) if w == mu)


def make_rand_poly(rng, maxdeg, height=100, frac=True, monic=False):
    d = rng.randrange(0, maxdeg + 1)
    cs = []
    for _ in range(d + 1):
        num = rng.randrange(-height, height + 1)
        den = rng.randrange(1, 60) if frac and rng.random() < 0.25 else 1
        cs.append(Fraction(num, den))
    if monic:
        cs[-1] = Fraction(1)
    elif all(c == 0 for c in cs):
        cs[-1] = Fraction(1)
    return Poly(cs)


@pytest.fixture
def rand_poly():
    return make_rand_poly


# -- the change-of-data laws of the residual polynomial operator ------------
#
# Each side is computed from the public API alone: the predicted side from
# (s, R) under the chain's own data, the observed side under the new data.


def mulred(nu, a, b):
    """a*b modulo the top key; for factors of degree < deg(phi_r) this keeps
    the residue, since a*b is equivalent to its 0-th phi_r-coefficient."""
    return (a * b).divmod_monic(nu.top.phi)[1]


def respoly_under(nu, f, u):
    """R(f) recomputed from the phi_r-expansion with u as the normalizer.

    zeta_j is the residue of f_{s_j} * u^(d-j) over that of f_{s'}: the two
    units have the same value, so both residues are relative to the same
    canonical monomial.
    """
    rep = iv.expansion_report(nu, f)
    data = iv.residual_data(nu)
    F = data.field
    d = (rep.s_prime - rep.s) // data.e
    top_inv = F._inv(iv.unit_residue(nu, rep.coeffs[rep.s_prime]).residue.data)
    zetas = []
    for j in range(d + 1):
        sj = rep.s + j * data.e
        if sj not in rep.indices:
            zetas.append(F._zero)
            continue
        w = rep.coeffs[sj]
        for _ in range(d - j):
            w = mulred(nu, w, u)
        zetas.append(F._mul(iv.unit_residue(nu, w).residue.data, top_inv))
    return TowerPoly(F, zetas)


def compose_linear(r, a, b):
    """r(a*y + b) as a list over the field's ring, for a TowerPoly r and
    element data a, b of its field."""
    R = r.field.ring
    inner, acc = R.trim([b, a]), []
    for c in reversed(r.coeffs):
        acc = R.add(R.mul(acc, inner), [c])
    return acc


def normalizer_law(nu, f, u_star):
    """R(f) under the normalizer u* as the law predicts:
    R*(y) = sigma^d R(y / sigma), sigma the residue of u*/u and d = deg R."""
    data = iv.residual_data(nu)
    F = data.field
    sigma = F._mul(iv.unit_residue(nu, u_star).residue.data, F._inv(iv.unit_residue(nu, data.u).residue.data))
    r = iv.residual_poly(nu, f)
    return TowerPoly(F, F.ring.scale(compose_linear(r, F._inv(sigma), F._zero), F._pow(sigma, r.degree)))


def rekeyed(nu, phi_star):
    """The chain with top key phi* at the same gamma: the same valuation when
    nu_{r-1}(phi* - phi_r) >= gamma_r."""
    return iv.validate_chain(nu.steps[:-1] + (Step(phi_star, nu.top.gamma),), nu.base)


def key_change_law(nu, f, phi_star):
    """(s*, R*) of f for the minimal-degree key phi* as the law predicts.

    An equivalent key leaves (s, R) unchanged.  Otherwise e = 1 and
    y^s R(y) = (y + tau)^s* R*(y + tau), tau the residue of u * (phi* - phi_r).
    """
    dec = iv.decompose(nu, f)
    a = phi_star - nu.top.phi
    if nu(a) > nu.top.gamma:
        return dec.s, dec.respoly
    data = iv.residual_data(nu)
    assert data.e == 1, "all minimal-degree keys are equivalent when e > 1"
    F = data.field
    minus_tau = F._neg(iv.unit_residue(nu, mulred(nu, data.u, a)).residue.data)
    shift = TowerPoly(F, [minus_tau, F._one])
    lhs = TowerPoly(F, compose_linear(dec.respoly, F._one, minus_tau)) * shift**dec.s
    m = 0
    while F._is_zero(lhs.coeffs[m]):
        m += 1
    return m, TowerPoly(F, lhs.coeffs[m:])
