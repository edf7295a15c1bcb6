"""Deeper structural tests: three-level chains, towers of height 2, and
continuous families of degree > 1 over a non-trivial base prefix."""

import random
from fractions import Fraction

import pytest

import indval as iv
from indval import (
    HomogeneousUnit,
    Poly,
    TowerPoly,
    Value,
    decompose,
    graded_factorization,
    lift_key,
    residual_data,
    residual_lift,
    stability,
    unit_lift,
    validate_continuous_chain,
)
from indval.residual import _hu_mul
from conftest import make_rand_poly

P = Poly.parse
F = Fraction


@pytest.fixture(scope="module")
def nu8(nu4):
    """Three levels, ramification indices (2, 2, 3), residue tower F_4."""
    chi8 = iv.enumerate_keys(nu4, 1)[2]
    return iv.augment(nu4, chi8, F(29, 6))


class TestThreeLevels:
    def test_level_data(self, nu8):
        rd = residual_data(nu8)
        assert [lvl.e for lvl in nu8._levels] == [2, 2, 3]
        assert rd.field.order == 4
        e, u = nu8.ramification_data()
        assert nu8(u * nu8.top.phi**e) == Value.of(0)

    def test_multiplicativity(self, nu8, rand_poly):
        rng = random.Random(81)
        for _ in range(20):
            f = rand_poly(rng, 12)
            g = rand_poly(rng, 12)
            assert nu8(f * g) == nu8(f) + nu8(g)
            df, dg, dfg = decompose(nu8, f), decompose(nu8, g), decompose(nu8, f * g)
            assert dfg.respoly == df.respoly * dg.respoly
            assert dfg.s == df.s + dg.s
            assert _hu_mul(nu8._levels, nu8.length, df.unit, dg.unit) == dfg.unit

    def test_unit_lift_round_trip(self, nu8):
        kal = residual_data(nu8).field
        for idx in (1, 2, 3):
            hu = HomogeneousUnit(Value.of(F(9, 4)), kal.from_index(idx))
            w = unit_lift(nu8, hu)
            assert w.degree < nu8.top_degree
            assert nu8(w) == Value.of(F(9, 4))

    def test_residual_lift_round_trip(self, nu8):
        kal = residual_data(nu8).field
        rng = random.Random(82)
        for _ in range(6):
            s = rng.randrange(0, 3)
            zeta = kal.from_index(rng.randrange(1, kal.order))
            c0 = kal.from_index(rng.randrange(1, kal.order))
            psi = TowerPoly(kal, [c0, kal.from_index(rng.randrange(kal.order)), kal.one()])
            f = residual_lift(nu8, s, zeta, psi)
            d = decompose(nu8, f)
            assert d.s == s and d.respoly == psi

    def test_prefix_consistency(self, nu8, rand_poly):
        # degree < deg(phi_2) polynomials have trivial top expansions, so all
        # prefixes from level 2 up agree on them
        rng = random.Random(83)
        for _ in range(20):
            f = rand_poly(rng, nu8.degrees[1] - 1)
            assert nu8(f) == nu8.prefix(2)(f) == nu8.prefix(3)(f)


class TestHeightTwoTower:
    def test_degree16_key(self, nu4):
        kal = residual_data(nu4).field  # F_4
        z = kal.generator()
        psi = TowerPoly(kal, [z, kal.one(), kal.one()])  # y^2 + y + z, irreducible
        chi = lift_key(nu4, psi)
        assert chi.degree == 2 * 4 * 2  # e * n * deg(psi)
        assert iv.residual_poly(nu4, chi) == psi
        nu16 = iv.augment(nu4, chi, F(28, 3))
        rd = residual_data(nu16)
        assert rd.field.order == 16 and rd.field.height == 2
        # a decomposition through the height-2 tower round-trips
        f = residual_lift(nu16, 1, rd.field.from_index(7), TowerPoly.one(rd.field))
        d = decompose(nu16, f)
        assert d.s == 1 and d.respoly.is_one

    def test_factorization_over_f4(self, nu4):
        ks = iv.enumerate_keys(nu4, 1)
        f = ks[1] * ks[2] ** 2 * ks[0]
        gf = graded_factorization(nu4, f, seed=3)
        got = sorted((str(c), a) for c, a in gf.factors)
        want = sorted([(str(ks[1]), 1), (str(ks[2]), 2), (str(ks[0]), 1)])
        assert got == want


@pytest.fixture(scope="module")
def mu3(nu3p):
    chi = lift_key(nu3p, "y+1")
    assert chi == P("x^2+3")
    return iv.augment(nu3p, chi, F(7, 4))


class TestOddCharacteristicTwoLevels:

    def test_level_data(self, mu3):
        rd = residual_data(mu3)
        assert rd.field.order == 3
        assert rd.e == 2  # 7/4 needs two copies to land in <1, 1/2>

    def test_decomposition_properties(self, mu3, rand_poly):
        rng = random.Random(85)
        for _ in range(25):
            f = rand_poly(rng, 9)
            g = rand_poly(rng, 9)
            assert mu3(f * g) == mu3(f) + mu3(g)
            df, dg, dfg = decompose(mu3, f), decompose(mu3, g), decompose(mu3, f * g)
            assert dfg.respoly == df.respoly * dg.respoly
            assert dfg.s == df.s + dg.s

    def test_lift_round_trip(self, mu3):
        kal = residual_data(mu3).field
        for zidx in (1, 2):
            psi = TowerPoly(kal, [kal.from_index(zidx), kal.one()])
            f = residual_lift(mu3, 1, kal.from_index(zidx), psi)
            d = decompose(mu3, f)
            assert d.s == 1 and d.respoly == psi


class TestDegreeTwoFamily:
    def make_family(self, nu1):
        # keys x^2+2+a with value(a) = gamma exactly are non-equivalent keys
        base = [iv.Step(P("x"), Value.of(F(1, 2)))]
        fam = [
            (P("x^2+2") + Poly.constant(4), F(5, 2)),
            (P("x^2+2") + Poly.constant(4) + P("4x"), 3),
            (P("x^2+2") + Poly.constant(4) + P("4x") + Poly.constant(8), F(7, 2)),
        ]
        # gamma_1 = 2 would equal mu(phi_1); start above it
        fam = [(P("x^2+2"), 2)] + fam
        return validate_continuous_chain(fam, nu1.base, base_steps=base)

    def test_validates_and_values(self, nu1):
        chain = self.make_family(nu1)
        assert chain.degree == 2
        assert chain.member(1)(P("x^2+2")) == Value.of(2)
        assert chain.member(4)(P("x^2+2")) == Value.of(2)

    def test_coefficients_stable_instantly(self, nu1, rand_poly):
        chain = self.make_family(nu1)
        rng = random.Random(84)
        for _ in range(20):
            g = make_rand_poly(rng, 1)
            rep = stability(chain, g)
            assert rep.stable and rep.witness_index == 1

    def test_json_roundtrip_with_base(self, nu1):
        chain = self.make_family(nu1)
        again = iv.continuous_chain_from_json(chain.to_json())
        assert again.family == chain.family
        assert again.base_steps == chain.base_steps


class TestPrefixLevels:
    def test_each_prefix_chain_holds_its_own_levels(self, nu4, nu8):
        for nu in (nu4, nu8):
            assert len(nu._levels) == nu.length
            for i, level in enumerate(nu._levels, 1):
                assert level.index == i
                assert len(level.nu._levels) == i
                assert level.nu._levels == nu._levels[:i]

    def test_level_chain_lifts_like_the_prefix(self, nu4, nu8):
        assert lift_key(nu4._levels[0].nu, "y+1") == P("x^2+2")
        assert lift_key(nu4.prefix(1), "y+1") == P("x^2+2")
        for i, level in enumerate(nu8._levels, 1):
            psi = "y+1" if i < 3 else "y+[0,1]"
            assert lift_key(level.nu, psi) == lift_key(nu8.prefix(i), psi)
