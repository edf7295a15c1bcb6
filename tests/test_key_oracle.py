"""An independent key oracle: the resultant against the key semivaluation.

A key polynomial chi of a rank-1 chain nu is irreducible over Q_p, and nu
values the polynomials of degree < deg(chi) as v does at a root theta of chi:
nu(g mod chi) = v(g(theta)).  The resultant of the monic chi with g is the
product of g over the roots of chi, so

    v_p(Res(chi, g)) = deg(chi) * key_semivaluation(nu, chi, g).

sympy computes the left side with no part of indval.  The keys are every
rank-1 fixture chain's top key phi_r, the key lifts that enumerate_keys(nu, 2)
returns, and the lift_key of a cubic; hypothesis draws g of degree at most
deg(chi) + 2.  ram3 and its prefix have e_1 = 3, so their digit tables hold
an inverse g_1^-1 mod e_1 other than 1; every other fixture has e_j <= 2.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import indval as iv
from indval import INFINITY, Poly

CHAINS = (
    "nu1", "nu2", "nu3p", "gauss2", "nu4", "ram3", "ram3_1",
    "ladder1", "ladder2", "ladder3", "ladder4", "ladder5",
)
CUBIC = {2: "y^3+y+1", 3: "y^3+2y+1"}  # irreducible over F_2, F_4 and F_3
X = sympy.Symbol("x")


@pytest.fixture(scope="module", params=CHAINS)
def keyed(request):
    """One fixture chain, by the case's name, with the keys the oracle checks
    on it; ram3_1 is the level-1 prefix of ram3.  Each case builds only its
    own chain's keys, so a chain that fails to build fails its case alone."""
    name = request.param
    if name == "ram3_1":
        nu = request.getfixturevalue("ram3")._parent
    elif name.startswith("ladder"):
        nu = request.getfixturevalue("ladder")[int(name[len("ladder"):]) - 1]
    else:
        nu = request.getfixturevalue(name)
    keys = iv.enumerate_keys(nu, 2) + [iv.lift_key(nu, CUBIC[nu.base.p])]
    assert nu.rank == 1 and nu.top.phi in keys
    return nu, keys


def _vp_resultant(p: int, chi: Poly, g: Poly):
    """v_p of Res(chi, g), computed by sympy; None when the resultant is 0."""
    as_sympy = [sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in reversed(h.coeffs)], X, domain="QQ")
                for h in (chi, g)]
    res = sympy.Rational(sympy.resultant(*as_sympy))
    if res == 0:
        return None
    return iv.PadicValuation(p).value(Fraction(int(res.p), int(res.q)))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_resultant_matches_key_semivaluation(keyed, data):
    nu, keys = keyed
    chi = data.draw(st.sampled_from(keys), label="chi")
    p = nu.base.p
    # p-adic scales from p^-2 to p^6, so that the values of g vary
    coeff = st.builds(lambda n, k: Fraction(n) * Fraction(p) ** k, st.integers(-20, 20), st.integers(-2, 6))
    g = Poly(data.draw(st.lists(coeff, min_size=1, max_size=chi.degree + 3), label="g"))
    vp = _vp_resultant(p, chi, g)
    w = iv.key_semivaluation(nu, chi, g)
    if vp is None:
        assert w == INFINITY
    else:
        assert w.scaled(chi.degree) == vp
