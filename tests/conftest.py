from fractions import Fraction

import pytest

import indval as iv
from indval import Poly, Value


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
