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
    return (a * b) % nu.top.phi


def respoly_under(nu, f, u):
    """R(f) recomputed from the phi_r-expansion with u as the normalizer.

    zeta_j is the residue of f_{s_j} * u^(d-j) over that of f_{s'}: the two
    units have the same value, so both residues are relative to the same
    canonical monomial.
    """
    rep = iv.expansion_report(nu, f)
    data = iv.residual_data(nu)
    d = (rep.s_prime - rep.s) // data.e
    top_inv = iv.unit_residue(nu, rep.coeffs[rep.s_prime]).residue.inv()
    zetas = []
    for j in range(d + 1):
        sj = rep.s + j * data.e
        if sj not in rep.indices:
            zetas.append(data.field.zero())
            continue
        w = rep.coeffs[sj]
        for _ in range(d - j):
            w = mulred(nu, w, u)
        zetas.append(iv.unit_residue(nu, w).residue * top_inv)
    return TowerPoly(data.field, zetas)


def normalizer_law(nu, f, u_star):
    """R(f) under the normalizer u* as the law predicts:
    R*(y) = sigma^d R(y / sigma), sigma the residue of u*/u and d = deg R."""
    data = iv.residual_data(nu)
    sigma = iv.unit_residue(nu, u_star).residue * iv.unit_residue(nu, data.u).residue.inv()
    r = iv.residual_poly(nu, f)
    return r.compose_linear(sigma.inv(), data.field.zero()).scale(sigma**r.degree)


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
    tau = iv.unit_residue(nu, mulred(nu, data.u, a)).residue
    one = data.field.one()
    lhs = dec.respoly.compose_linear(one, -tau) * TowerPoly(data.field, [-tau, one]) ** dec.s
    m = 0
    while lhs.coeff(m).is_zero:
        m += 1
    return m, TowerPoly(data.field, lhs.coeffs[m:])
