import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from indval import (
    DomainError,
    HomogeneousUnit,
    Poly,
    TowerPoly,
    Value,
    decompose,
    expansion_report,
    graded_factorization,
    is_equivalent,
    residual_data,
    residual_ideal,
    residual_lift,
    residual_poly,
    residual_unit,
    unit_lift,
    unit_residue,
)
from indval.residual import _hu_mul
from conftest import key_change_law, make_rand_poly, normalizer_law, rekeyed, respoly_under

P = Poly.parse
F = Fraction


class TestResidualPoly:
    def test_examples(self, nu1):
        assert str(residual_poly(nu1, P("x^2+2"))) == "y + 1"
        assert str(residual_poly(nu1, P("2x^3"))) == "1"
        assert str(residual_poly(nu1, P("x^4+4"))) == "y^2 + 1"

    def test_nu2_example(self, nu2):
        assert str(residual_poly(nu2, P("x^4+4"))) == "y^2 + 1"

    def test_monomials_give_one(self, nu1, nu2, rand_poly):
        rng = random.Random(41)
        for nu in (nu1, nu2):
            for _ in range(20):
                a = make_rand_poly(rng, nu.top_degree - 1)
                s = rng.randrange(0, 4)
                assert str(residual_poly(nu, a * nu.top.phi**s)) == "1"

    def test_zero_rejected(self, nu1):
        with pytest.raises(DomainError):
            residual_poly(nu1, Poly.zero())

    def test_incommensurable_rejected(self, nu_inf):
        with pytest.raises(DomainError):
            residual_poly(nu_inf, P("x"))

    def test_multiplicative(self, nu1, nu2, nu3p, nu4, rand_poly):
        rng = random.Random(42)
        for nu in (nu1, nu2, nu3p, nu4):
            for _ in range(40):
                f, g = rand_poly(rng, 10), rand_poly(rng, 10)
                assert residual_poly(nu, f * g) == residual_poly(nu, f) * residual_poly(nu, g)

    def test_degree_formula_and_constant_term(self, nu1, nu2, nu4, rand_poly):
        rng = random.Random(43)
        for nu in (nu1, nu2, nu4):
            e = residual_data(nu).e
            for _ in range(30):
                f = rand_poly(rng, 12)
                rep = expansion_report(nu, f)
                R = residual_poly(nu, f)
                assert R.degree == (rep.s_prime - rep.s) // e
                assert not R.coeff(0).is_zero


class TestResidualUnit:
    def test_examples(self, nu1):
        nl = residual_unit(nu1, P("x^2+2"))
        assert nl.value == Value.of(1) and nl.residue.is_one
        nl = residual_unit(nu1, P("x^3"))
        assert nl.value == Value.of(0) and nl.residue.is_one
        nl = residual_unit(nu1, P("x^4+4"))
        assert nl.value == Value.of(2) and nl.residue.is_one

    def test_value_formula(self, nu2, nu4, rand_poly):
        rng = random.Random(44)
        for nu in (nu2, nu4):
            for _ in range(30):
                f = rand_poly(rng, 11)
                rep = expansion_report(nu, f)
                nl = residual_unit(nu, f)
                assert nl.value == rep.mu - nu.top.gamma.scaled(rep.s)

    def test_multiplicative(self, nu2, nu4, rand_poly):
        rng = random.Random(45)
        for nu in (nu2, nu4):
            levels = nu._levels
            for _ in range(30):
                f, g = rand_poly(rng, 9), rand_poly(rng, 9)
                a = residual_unit(nu, f)
                b = residual_unit(nu, g)
                assert _hu_mul(levels, nu.length, a, b) == residual_unit(nu, f * g)


class TestDecompose:
    def test_examples(self, nu1):
        d = decompose(nu1, P("x^4+4"))
        assert (d.s, str(d.respoly)) == (0, "y^2 + 1")
        assert d.unit.value == Value.of(2) and d.unit.residue.is_one
        d = decompose(nu1, P("x"))
        assert (d.s, str(d.respoly)) == (1, "1")
        d = decompose(nu1, P("2x^3"))
        assert (d.s, str(d.respoly)) == (3, "1")
        assert d.unit.value == Value.of(1)

    def test_residual_polynomial_one_is_shared(self, nu1, nu4):
        for nu in (nu1, nu4):
            ones = [decompose(nu, P(t)).respoly for t in ("x", "2x^3", "x^2+2x+4", "3")]
            assert all(r is ones[0] for r in ones)
            assert ones[0] == TowerPoly.one(residual_data(nu).field)

    def test_equivalence_criterion(self, nu1, nu2, rand_poly):
        rng = random.Random(46)
        for nu in (nu1, nu2):
            for _ in range(40):
                f = rand_poly(rng, 9)
                g = rand_poly(rng, 9)
                same = is_equivalent(nu, f, g)
                df, dg = decompose(nu, f), decompose(nu, g)
                rf, rg = expansion_report(nu, f), expansion_report(nu, g)
                cond = (
                    rf.indices == rg.indices
                    and df.unit == dg.unit
                    and df.respoly == dg.respoly
                )
                assert same == cond

    def test_constructed_equivalent_pairs(self, nu1, nu2, nu4, rand_poly):
        rng = random.Random(47)
        for nu in (nu1, nu2, nu4):
            for _ in range(25):
                f = rand_poly(rng, 8)
                pert = rand_poly(rng, 8)
                g = f + pert.scale(F(2) ** 16)
                if g.is_zero or not is_equivalent(nu, f, g):
                    continue
                assert decompose(nu, f) == decompose(nu, g)


class TestUnitResidue:
    def test_examples(self, nu1, nu2):
        hu = unit_residue(nu2, P("x^2").scale(F(1, 2)))
        assert hu.value == Value.of(0) and hu.residue.is_one
        hu = unit_residue(nu1, Poly.one())
        assert hu.value == Value.of(0) and hu.residue.is_one
        hu = unit_residue(nu1, Poly.constant(3))
        assert hu.value == Value.of(0) and hu.residue.is_one

    def test_non_unit_rejected(self, nu1):
        with pytest.raises(DomainError):
            unit_residue(nu1, P("x^2+2"))

    def test_homomorphism(self, nu2, nu4, rand_poly):
        rng = random.Random(48)
        for nu in (nu2, nu4):
            levels = nu._levels
            n = nu.top_degree
            for _ in range(30):
                a = make_rand_poly(rng, n - 1)
                b = make_rand_poly(rng, n - 1)
                ra, rb = unit_residue(nu, a), unit_residue(nu, b)
                # multiplicative (reduce the product to stay a unit)
                prod = a * b
                rp = unit_residue(nu, prod)
                assert rp == _hu_mul(levels, nu.length, ra, rb)
                # additive when values align
                if ra.value == rb.value and not (a + b).is_zero:
                    s = a + b
                    if nu(s) == ra.value:
                        rs = unit_residue(nu, s)
                        expect = ra.residue + rb.residue
                        assert rs.residue == expect


class TestResidualIdeal:
    def test_examples(self, nu1):
        ideal = residual_ideal(nu1, P("x^2+2"))
        assert (ideal.xi_power, str(ideal.psi_part)) == (0, "y + 1")
        ideal = residual_ideal(nu1, P("x"))
        assert (ideal.xi_power, str(ideal.psi_part)) == (1, "1")
        assert str(ideal) == "xi^1 * (1)(xi)"
        ideal = residual_ideal(nu1, P("x^4+4"))
        assert (ideal.xi_power, str(ideal.psi_part)) == (0, "y^2 + 1")

    def test_ceiling_of_s_over_e(self, nu1):
        # s(x^3) = 3, e = 2 -> ceil(3/2) = 2
        ideal = residual_ideal(nu1, P("x^3"))
        assert ideal.xi_power == 2

    def test_containment_monotone(self, nu1, nu2, rand_poly):
        rng = random.Random(49)
        for nu in (nu1, nu2):
            for _ in range(25):
                f = rand_poly(rng, 7)
                h = rand_poly(rng, 5)
                a = residual_ideal(nu, f)
                b = residual_ideal(nu, f * h)
                assert a.xi_power <= b.xi_power
                assert a.psi_part.divides(b.psi_part)


class TestLifts:
    def test_residual_lift_examples(self, nu1, nu2):
        kal1 = residual_data(nu1).field
        assert residual_lift(nu1, 0, kal1.one(), TowerPoly.parse(kal1, "y+1")) == P("x^2+2")
        assert residual_lift(nu1, 1, kal1.one(), TowerPoly.one(kal1)) == P("x")
        kal2 = residual_data(nu2).field
        assert residual_lift(nu2, 0, kal2.one(), TowerPoly.parse(kal2, "y+1")) == P("x^2+2x+2")

    def test_lift_rejects_zero_constant_term(self, nu1):
        kal = residual_data(nu1).field
        with pytest.raises(DomainError):
            residual_lift(nu1, 0, kal.one(), TowerPoly.parse(kal, "y^2+y"))

    def test_round_trip_over_tower(self, nu4):
        kal = residual_data(nu4).field
        rng = random.Random(50)
        for _ in range(12):
            s = rng.randrange(0, 3)
            zeta = kal.from_index(rng.randrange(1, kal.order))
            c0 = kal.from_index(rng.randrange(1, kal.order))
            psi = TowerPoly(kal, [c0, kal.from_index(rng.randrange(kal.order)), kal.one()])
            f = residual_lift(nu4, s, zeta, psi)
            d = decompose(nu4, f)
            assert d.s == s and d.respoly == psi

    def test_unit_lift_round_trip(self, nu2, nu4):
        rng = random.Random(51)
        for nu in (nu2, nu4):
            kal = residual_data(nu).field
            for _ in range(10):
                zeta = kal.from_index(rng.randrange(1, kal.order))
                c = rng.randrange(-4, 5)
                m = rng.randrange(0, 2)
                beta = Value.of(F(c) + F(m, 2))
                hu = HomogeneousUnit(beta, zeta)
                w = unit_lift(nu, hu)
                assert w.degree < nu.top_degree
                assert unit_residue(nu, w) == HomogeneousUnit(beta, kal.coerce(zeta))

    def test_unit_lift_off_the_group(self, nu2):
        # values of degree < 2 polynomials on nu2 lie in (1/2)Z
        one = residual_data(nu2).field.one()
        with pytest.raises(DomainError, match="not in the value group"):
            unit_lift(nu2, HomogeneousUnit(Value.of(F(1, 3)), one))


class TestTransformLaws:
    """The normalizer-change and key-change laws, from the public API: the
    predicted side from (s, R) under the chain's own data (conftest), the
    observed side recomputed under the new normalizer (respoly_under) or on
    the re-keyed chain."""

    def test_normalizer_examples(self, nu1, nu3p):
        for nu, f, c, want in ((nu1, "x^2+2", F(3, 2), "y + 1"), (nu3p, "x^2+3", F(2, 3), "y + 2")):
            u_star = Poly.constant(c)
            obs = respoly_under(nu, P(f), u_star)
            assert normalizer_law(nu, P(f), u_star) == obs and str(obs) == want

    def test_normalizer_off_the_prime_field(self, nu4):
        # u* = u * x^2/2 mod phi_r: sigma is a cube root of unity in F_4, so
        # sigma^d R(y/sigma) and sigma^-d R(sigma y) differ whenever d >= 1
        data = residual_data(nu4)
        u_star = (data.u * P("x^2").scale(F(1, 2))) % nu4.top.phi
        sigma = unit_residue(nu4, u_star).residue * unit_residue(nu4, data.u).residue.inv()
        assert sigma != data.field.one() and sigma**3 == data.field.one()
        for text in ("y + [0,1]", "y + 1", "y^2 + [0,1]", "y^3 + y + [1,1]"):
            psi = TowerPoly.parse(data.field, text)
            f = residual_lift(nu4, 1, data.field.one(), psi)
            obs = respoly_under(nu4, f, u_star)
            assert normalizer_law(nu4, f, u_star) == obs != psi

    def test_key_change_example(self, gauss2):
        d = decompose(gauss2, P("x"))
        assert d.s == 1 and str(d.respoly) == "1"
        obs = decompose(rekeyed(gauss2, P("x+2")), P("x"))
        assert key_change_law(gauss2, P("x"), P("x+2")) == (obs.s, obs.respoly)
        assert str(obs.respoly) == "y + 1"

    def test_random_normalizers(self, nu1, nu2, nu3p, nu4, rand_poly):
        rng = random.Random(52)
        for nu in (nu1, nu2, nu3p, nu4):
            p = nu.base.p
            u = residual_data(nu).u
            for _ in range(25):
                f = rand_poly(rng, 10)
                num = rng.randrange(1, 40)
                den = rng.randrange(1, 40)
                while num % p == 0:
                    num += 1
                while den % p == 0:
                    den += 1
                u_star = u.scale(F(num, den))
                assert respoly_under(nu, f, u) == residual_poly(nu, f)
                assert normalizer_law(nu, f, u_star) == respoly_under(nu, f, u_star)

    def test_random_key_changes(self, nu2, gauss2, rand_poly):
        rng = random.Random(53)
        # e = 1 fixtures admit non-equivalent minimal-degree keys
        for nu, mk in ((nu2, lambda c: P("x^2+2") + P("2x").scale(c)),
                       (gauss2, lambda c: P("x") + Poly.constant(2 * c))):
            for _ in range(25):
                c = F(2 * rng.randrange(0, 15) + 1, 2 * rng.randrange(0, 15) + 1)
                phi_star = mk(c)
                f = rand_poly(rng, 9)
                obs = decompose(rekeyed(nu, phi_star), f)
                assert key_change_law(nu, f, phi_star) == (obs.s, obs.respoly)

    def test_equivalent_key_change_identity(self, nu2, rand_poly):
        rng = random.Random(54)
        for _ in range(10):
            f = rand_poly(rng, 8)
            phi_star = P("x^2+2") + Poly.constant(8 * rng.randrange(1, 5))
            obs = decompose(rekeyed(nu2, phi_star), f)
            assert key_change_law(nu2, f, phi_star) == (obs.s, obs.respoly) == (decompose(nu2, f).s, residual_poly(nu2, f))


class TestIntegerUnitKernel:
    """The unit algebra works on integers B = value * D_i inside the module;
    these properties pin it at the public boundary."""

    NAMES = ("ladder1", "ladder2", "ladder3", "ladder4", "ladder5", "nu2", "nu4")

    @pytest.fixture(scope="class")
    def named(self, ladder, nu2, nu4):
        return {**{f"ladder{d}": nu for d, nu in enumerate(ladder, 1)}, "nu2": nu2, "nu4": nu4}

    coeffs = st.lists(st.fractions(min_value=-60, max_value=60, max_denominator=9), min_size=1, max_size=20)

    @settings(max_examples=120, deadline=None)
    @given(st.sampled_from(NAMES), coeffs, coeffs)
    def test_properties(self, named, name, fc, gc):
        nu, f, g = named[name], Poly(fc), Poly(gc)
        if f.is_zero or g.is_zero:
            return
        r = nu.length
        df, dg, dfg = decompose(nu, f), decompose(nu, g), decompose(nu, f * g)
        assert dfg.unit == _hu_mul(nu._levels, r, df.unit, dg.unit)
        assert residual_unit(nu, f).value == nu(f) - nu.top.gamma.scaled(df.s)
        # equal units come back as one shared immutable object
        assert decompose(nu, f).unit.value is df.unit.value
        gf = graded_factorization(nu, f)
        total = gf.unit_part.value
        for chi, a in gf.factors:
            total = total + nu(chi).scaled(a)
        assert total == nu(f)
