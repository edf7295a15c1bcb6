"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Every check is an exact equality (zero tolerance); the stated runtime caps
are asserted where given.  Run with `pytest tests/test_acceptance.py -v -s`
to see one pass/fail line per criterion.
"""

import functools
import random
import time
from fractions import Fraction

import indval as iv
from indval import (
    Poly,
    TowerField,
    TowerPoly,
    Value,
    decompose,
    enumerate_keys,
    expansion_report,
    ff_factor,
    ff_is_irreducible,
    graded_divides,
    graded_factorization,
    is_equivalent,
    is_key,
    lift_key,
    limit_augment,
    residual_data,
    residual_ideal,
    residual_lift,
    residual_poly,
    stability,
    tower_extend,
    validate_continuous_chain,
)
from conftest import key_change_law, make_rand_poly, normalizer_law, rekeyed, respoly_under

P = Poly.parse
F = Fraction


def criterion(num, desc, limit=None):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.monotonic()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num:2d} ({desc}): FAIL")
                raise
            dt = time.monotonic() - t0
            print(f"\ncriterion {num:2d} ({desc}): PASS [{dt:.2f}s]")
            if limit is not None:
                assert dt < limit, f"criterion {num} exceeded {limit}s ({dt:.2f}s)"

        return wrapper

    return deco


@criterion(1, "fixture pipeline p=2", limit=1.0)
def test_criterion_1_fixture_pipeline(v2):
    nu1 = iv.validate_chain([("x", F(1, 2))], v2)
    e, u = nu1.ramification_data()
    assert e == 2 and u == Poly.constant(F(1, 2))
    assert str(residual_poly(nu1, P("x^2+2"))) == "y + 1"
    assert is_key(nu1, P("x^2+2"))
    nu2 = iv.augment(nu1, P("x^2+2"), F(3, 2))
    e2, u2 = nu2.ramification_data()
    assert e2 == 1 and u2 == P("x").scale(F(1, 4))
    assert nu2(P("x^4+4")) == Value.of(3)
    R = residual_poly(nu2, P("x^4+4"))
    kal = residual_data(nu2).field
    assert R == TowerPoly.parse(kal, "y+1") ** 2
    assert lift_key(nu2, "y+1") == P("x^2+2x+2")
    gf = graded_factorization(nu2, P("x^4+4"))
    assert [(str(c), a) for c, a in gf.factors] == [("x^2 + 2*x + 2", 2)]
    assert P("x^2+2x+2") * P("x^2-2x+2") == P("x^4+4")


@criterion(2, "valuation axioms, 500 random pairs x 4 chains", limit=30.0)
def test_criterion_2_valuation_axioms(nu1, nu2, nu3p, nu_inf):
    rng = random.Random(9002)
    chains = (nu1, nu2, nu3p, nu_inf)
    for _ in range(500):
        f = make_rand_poly(rng, 24, height=10**4)
        g = make_rand_poly(rng, 24, height=10**4)
        for nu in chains:
            assert nu(f * g) == nu(f) + nu(g)
            s = f + g
            if not s.is_zero:
                assert nu(s) >= min(nu(f), nu(g))


@criterion(3, "residual operator suite, 300 pairs per fixture")
def test_criterion_3_residual_suite(nu1, nu2, nu3p):
    from indval.residual import _hu_mul

    rng = random.Random(9003)
    for nu in (nu1, nu2, nu3p):
        e = residual_data(nu).e
        levels = nu._levels
        for _ in range(300):
            f = make_rand_poly(rng, 10)
            g = make_rand_poly(rng, 10)
            df, dg, dfg = decompose(nu, f), decompose(nu, g), decompose(nu, f * g)
            assert dfg.respoly == df.respoly * dg.respoly
            rf, rg, rfg = (
                expansion_report(nu, f),
                expansion_report(nu, g),
                expansion_report(nu, f * g),
            )
            assert rfg.s == rf.s + rg.s
            assert rfg.s_prime == rf.s_prime + rg.s_prime
            for d, rep in ((df, rf), (dg, rg), (dfg, rfg)):
                assert d.respoly.degree == (rep.s_prime - rep.s) // e
                assert not d.respoly.coeff(0).is_zero
            assert _hu_mul(levels, nu.length, df.unit, dg.unit) == dfg.unit


@criterion(4, "divisibility agrees with the definitional search oracle")
def test_criterion_4_divisibility_oracle(nu1):
    kal = residual_data(nu1).field
    e, n = residual_data(nu1).e, nu1.top_degree
    rng = random.Random(9004)

    def all_psis(maxdeg):
        out = [TowerPoly.one(kal)]
        for d in range(1, maxdeg + 1):
            for idx in range(kal.order**d):
                rest = idx
                coeffs = []
                for _ in range(d):
                    coeffs.append(kal.from_index(rest % kal.order))
                    rest //= kal.order
                if coeffs[0].is_zero:
                    continue
                out.append(TowerPoly(kal, coeffs + [kal.one()]))
        return out

    max_bound = 8
    candidates = []
    for s in range(0, max_bound + 1):
        for zidx in range(1, kal.order):
            for psi in all_psis(max((max_bound - s) // e, 0)):
                h = residual_lift(nu1, s, kal.from_index(zidx), psi)
                candidates.append(h)

    def oracle(f, g):
        bound = g.degree - f.degree + 2
        need = nu1(g) - nu1(f)
        for h in candidates:
            if h.degree > bound:
                continue
            shift = need - nu1(h)
            if shift.coords[0].denominator != 1:
                continue
            h_scaled = h.scale(F(2) ** int(shift.coords[0]))
            if is_equivalent(nu1, g, f * h_scaled):
                return True
        return False

    checked = 0
    while checked < 200:
        f = make_rand_poly(rng, 3)
        g = make_rand_poly(rng, 6)
        if f.is_zero or g.is_zero or g.degree < f.degree:
            continue
        assert graded_divides(nu1, f, g) == oracle(f, g)
        checked += 1


@criterion(5, "key-class slice for nu1 at residual degree <= 2")
def test_criterion_5_bijection_slice(nu1):
    keys = enumerate_keys(nu1, 2)
    assert len(keys) == 3
    assert keys[0] == P("x") and keys[1] == P("x^2+2")
    assert keys[2].degree == 4
    assert residual_poly(nu1, keys[2]) == TowerPoly.parse(
        residual_data(nu1).field, "y^2+y+1"
    )
    ideals = [str(residual_ideal(nu1, k)) for k in keys]
    assert len(set(ideals)) == 3
    e, n = residual_data(nu1).e, nu1.top_degree
    cap = nu1.weighted_cap()
    for i, chi in enumerate(keys):
        for other in keys[i + 1 :]:
            assert not is_equivalent(nu1, chi, other)
        if not is_equivalent(nu1, chi, P("x")):
            assert chi.degree == e * n * residual_poly(nu1, chi).degree
        assert nu1(chi).over(chi.degree) == cap


@criterion(6, "change-of-data laws, tagged examples + 100 random per fixture")
def test_criterion_6_transform_laws(nu1, nu2, nu3p, gauss2):
    # tagged examples
    for nu, f, c, want in ((nu1, "x^2+2", F(3, 2), "y + 1"), (nu3p, "x^2+3", F(2, 3), "y + 2")):
        obs = respoly_under(nu, P(f), Poly.constant(c))
        assert normalizer_law(nu, P(f), Poly.constant(c)) == obs and str(obs) == want
    obs = decompose(rekeyed(gauss2, P("x+2")), P("x"))
    assert key_change_law(gauss2, P("x"), P("x+2")) == (obs.s, obs.respoly)
    assert str(obs.respoly) == "y + 1"
    # random normalizer changes per fixture
    rng = random.Random(9006)
    for nu in (nu1, nu2, nu3p):
        p = nu.base.p
        u = residual_data(nu).u
        for _ in range(100):
            f = make_rand_poly(rng, 9)
            num = den = p
            while num % p == 0:
                num = rng.randrange(1, 60)
            while den % p == 0:
                den = rng.randrange(1, 60)
            u_star = u.scale(F(num, den))
            assert respoly_under(nu, f, u) == residual_poly(nu, f)
            assert normalizer_law(nu, f, u_star) == respoly_under(nu, f, u_star)
    # random key changes on the e = 1 fixtures
    for nu, mk in (
        (nu2, lambda c: P("x^2+2") + P("2x").scale(c)),
        (gauss2, lambda c: P("x") + Poly.constant(2 * c)),
    ):
        for _ in range(100):
            c = F(2 * rng.randrange(0, 25) + 1, 2 * rng.randrange(0, 25) + 1)
            f = make_rand_poly(rng, 9)
            phi_star = mk(c)
            obs = decompose(rekeyed(nu, phi_star), f)
            assert key_change_law(nu, f, phi_star) == (obs.s, obs.respoly)


@criterion(7, "augmentation contract nu1 -> nu2, 500 random f")
def test_criterion_7_augmentation_contract(nu1, nu2):
    rng = random.Random(9007)
    chi = P("x^2+2")
    for _ in range(500):
        f = make_rand_poly(rng, 12)
        a, b = nu1(f), nu2(f)
        assert a <= b
        assert (a == b) == (not graded_divides(nu1, chi, f))


@criterion(8, "limit fixture: stability and limit values", limit=5.0)
def test_criterion_8_limit_fixture(v2):
    fam = [(Poly([-(2 ** (i + 1) - 2), 1]), i + 1) for i in range(1, 7)]
    lam = validate_continuous_chain(fam, v2)
    rep = stability(lam, P("x"))
    assert rep.stable and rep.value == Value.of(1) and rep.witness_index == 1
    rep = stability(lam, P("x+2"))
    assert not rep.stable
    assert list(rep.values) == [Value.of(k) for k in [2, 3, 4, 5, 6, 7]]
    lim = limit_augment(lam, P("x+2"), Value.of((1, 0)))
    assert lim(P("x+2")) == Value.of((1, 0))
    assert lim(P("x")) == Value.of((0, 1))
    assert lim(P("x^2+2x")) == Value.of((1, 1))
    rng = random.Random(9008)
    for _ in range(200):
        f = make_rand_poly(rng, 8)
        g = make_rand_poly(rng, 8)
        assert lim(f * g) == lim(f) + lim(g)
        if not (f + g).is_zero:
            assert lim(f + g) >= min(lim(f), lim(g))


@criterion(9, "incommensurable fixture: argmin, keys, classes")
def test_criterion_9_incommensurable(nu_inf, v2):
    rng = random.Random(9009)
    for _ in range(200):
        f = make_rand_poly(rng, 12)
        assert len(expansion_report(nu_inf, f).indices) == 1
    # closed form for the keys: x + a with v(a) >= 1
    samples = [F(0), F(1), F(2), F(3), F(4), F(1, 2), F(6), F(-8), F(2, 3), F(12, 5)]
    samples += [F(rng.randrange(-200, 201), rng.choice([1, 1, 3, 5])) for _ in range(90)]
    for a in samples:
        chi = P("x") + Poly.constant(a)
        expect = a == 0 or v2.value(a) >= Value.of(1)
        assert is_key(nu_inf, chi) == expect
    assert not is_key(nu_inf, P("x^2+2"))
    assert enumerate_keys(nu_inf, 4) == [P("x")]


@criterion(10, "finite-field layer: factoring and irreducibility oracles")
def test_criterion_10_finite_fields():
    F2, F3 = TowerField(2), TowerField(3)
    F4 = tower_extend(F2, TowerPoly.parse(F2, "y^2+y+1"))
    F16 = tower_extend(F4, TowerPoly.parse(F4, "y^2+y+[0,1]"))
    rng = random.Random(9010)
    count = 0
    fields = (F2, F3, F4)
    while count < 500:
        Fq = fields[count % 3]
        d = rng.randrange(1, 13)
        coeffs = [Fq.from_index(rng.randrange(Fq.order)) for _ in range(d)]
        psi = TowerPoly(Fq, coeffs + [Fq.one()])
        prod = TowerPoly.one(Fq)
        for gfac, m in ff_factor(psi, seed=count):
            assert ff_is_irreducible(gfac)
            prod = prod * gfac**m
        assert prod == psi
        count += 1

    def trial_division(psi):
        Fq = psi.field
        for d in range(1, psi.degree // 2 + 1):
            for idx in range(Fq.order**d):
                rest = idx
                coeffs = []
                for _ in range(d):
                    coeffs.append(Fq.from_index(rest % Fq.order))
                    rest //= Fq.order
                if psi.divmod(TowerPoly(Fq, coeffs + [Fq.one()]))[1].is_zero:
                    return False
        return True

    for Fq, cnt in ((F2, 60), (F3, 30), (F4, 20), (F16, 8)):
        for _ in range(cnt):
            d = rng.randrange(2, 7)
            coeffs = [Fq.from_index(rng.randrange(Fq.order)) for _ in range(d)]
            psi = TowerPoly(Fq, coeffs + [Fq.one()])
            assert ff_is_irreducible(psi) == trial_division(psi)
