import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import indval as iv
import indval.keys as keys
import indval.residual as residual
from indval import (
    DomainError,
    InvariantError,
    KeyCheck,
    Poly,
    ResourceError,
    TowerPoly,
    enumerate_keys,
    graded_divides,
    graded_factorization,
    is_equivalent,
    is_key,
    is_minimal,
    key_check,
    lift_key,
    residual_data,
    residual_ideal,
    residual_poly,
)
from indval.keys import GradedFactorization
from indval.residual import _decompose_top, _hu_mul, _hu_pow, _public_unit
from indval.towers import ff_factor
from indval.values import _value_of
from conftest import make_rand_poly

P = Poly.parse
F = Fraction


class TestIsKey:
    def test_examples(self, nu1):
        kc = key_check(nu1, P("x^2+2"))
        assert kc.ok and kc.branch == "residual"
        kc = key_check(nu1, P("x"))
        assert kc.ok and kc.branch == "equivalent"
        kc = key_check(nu1, P("x^2+x"))
        assert not kc.ok and "s(chi)" in kc.reason

    def test_errors(self, nu1):
        with pytest.raises(DomainError):
            key_check(nu1, P("2x"))
        with pytest.raises(DomainError):
            key_check(nu1, Poly.constant(3))

    def test_degree_identity_required(self, nu1):
        # s = 0 and irreducible R but degree 3 != e*n*deg(R)
        kc = key_check(nu1, P("x^3+2"))
        assert not kc.ok

    def test_incommensurable_closed_form(self, nu_inf, v2):
        rng = random.Random(61)
        for _ in range(60):
            a = F(rng.randrange(-300, 301), rng.choice([1, 1, 1, 3, 5, 7]))
            chi = P("x") + Poly.constant(a)
            expect = a == 0 or v2.value(a) >= iv.Value.of(1)
            assert is_key(nu_inf, chi) == expect
        assert not is_key(nu_inf, P("x^2+2"))

    def test_units_are_not_keys(self, nu2):
        assert not is_key(nu2, P("x+1"))


class TestDivides:
    def test_examples(self, nu1):
        assert graded_divides(nu1, P("x^2+2"), P("x^4+4"))
        assert graded_divides(nu1, P("x^2+2"), P("x^2+2"))
        assert not graded_divides(nu1, P("x"), P("x^2+2"))

    def test_incommensurable_branch(self, nu_inf):
        assert graded_divides(nu_inf, P("x"), P("x^2"))
        assert not graded_divides(nu_inf, P("x^2"), P("2x"))

    def test_definitional_oracle_small(self, nu1, rand_poly):
        """Search oracle: does some h with bounded degree satisfy g ~ f*h?

        Candidates sweep residual data (s, zeta, psi) exhaustively within the
        degree bound; each candidate is verified definitionally, through
        values alone.
        """
        kal = residual_data(nu1).field
        e = residual_data(nu1).e
        n = nu1.top_degree
        rng = random.Random(62)

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

        def oracle(f, g):
            bound = g.degree - f.degree + 2
            need = nu1(g).coords[0] - nu1(f).coords[0]
            for s in range(0, bound // n + 1):
                for zidx in range(1, kal.order):
                    for psi in all_psis(max((bound - s * n) // (e * n), 0)):
                        h = iv.residual_lift(nu1, s, kal.from_index(zidx), psi)
                        if h.degree > bound:
                            continue
                        # scale by the power of p matching the needed value
                        shift = need - nu1(h).coords[0]
                        if shift.denominator != 1:
                            continue
                        h = h.scale(F(2) ** int(shift))
                        if iv.is_equivalent(nu1, g, f * h):
                            return True
            return False

        checked = 0
        for _ in range(60):
            f = rand_poly(rng, 3)
            g = rand_poly(rng, 6)
            if f.is_zero or g.is_zero or g.degree < f.degree:
                continue
            assert graded_divides(nu1, f, g) == oracle(f, g)
            checked += 1
        assert checked >= 20


class TestLiftKey:
    def test_examples(self, nu1, nu2):
        assert lift_key(nu1, "y+1") == P("x^2+2")
        assert lift_key(nu1, "y") == P("x")
        assert lift_key(nu2, "y+1") == P("x^2+2x+2")

    def test_reducible_rejected(self, nu1):
        with pytest.raises(DomainError):
            lift_key(nu1, "y^2+1")

    def test_lift_is_key_with_residual(self, nu1, nu4):
        for nu, text in ((nu1, "y^2+y+1"), (nu4, "y+[0,1]")):
            kal = residual_data(nu).field
            psi = TowerPoly.parse(kal, text)
            chi = lift_key(nu, psi)
            kc = key_check(nu, chi)
            assert kc.ok and kc.branch == "residual"
            assert residual_poly(nu, chi) == psi
            e = residual_data(nu).e
            assert chi.degree == e * nu.top_degree * psi.degree


class TestEnumerate:
    def test_nu1_slices(self, nu1):
        assert [str(k) for k in enumerate_keys(nu1, 1)] == ["x", "x^2 + 2"]
        ks = enumerate_keys(nu1, 2)
        assert len(ks) == 3
        assert ks[2].degree == 4

    def test_incommensurable_single_class(self, nu_inf):
        assert enumerate_keys(nu_inf, 3) == [P("x")]

    def test_pairwise_distinct(self, nu1, nu4):
        for nu, maxd in ((nu1, 2), (nu4, 1)):
            ks = enumerate_keys(nu, maxd)
            ideals = [str(residual_ideal(nu, k)) for k in ks]
            assert len(set(ideals)) == len(ks)
            for i in range(len(ks)):
                for j in range(i + 1, len(ks)):
                    assert not is_equivalent(nu, ks[i], ks[j])
                    # same residual polynomial would force same degree
                    assert ks[i].degree == ks[j].degree or residual_poly(
                        nu, ks[i]
                    ) != residual_poly(nu, ks[j])

    def test_keys_attain_the_cap(self, nu1, nu2, nu4):
        for nu in (nu1, nu2, nu4):
            cap = nu.top.gamma.scaled(Fraction(1, nu.top_degree))
            for chi in enumerate_keys(nu, 1):
                assert nu(chi).scaled(Fraction(1, chi.degree)) == cap
                assert is_minimal(nu, chi)

    def test_value_group_from_lower_degrees(self, nu1):
        # for keys chi not equivalent to phi, every chain value is realized
        # by a monomial of degree < deg(chi); the augmented chain's canonical
        # monomials (digits over 1, gamma_1, ..., gamma_r) witness this
        for chi in enumerate_keys(nu1, 2)[1:]:
            aug = iv.augment(nu1, chi, nu1(chi) + iv.Value.of(1))
            for g in (iv.Value.of(1), nu1.top.gamma):  # v(p) and gamma_1 generate nu1's group
                mono = aug.canonical_monomial(g.demote())
                assert mono.degree < chi.degree
                assert nu1(mono) == g

    def test_ramification_vs_class_count(self, nu1, gauss2):
        # e > 1 iff the minimal degree carries a single class
        ks1 = [k for k in enumerate_keys(nu1, 2) if k.degree == nu1.top_degree]
        assert residual_data(nu1).e == 2 and len(ks1) == 1
        ksg = [k for k in enumerate_keys(gauss2, 1) if k.degree == 1]
        assert residual_data(gauss2).e == 1 and len(ksg) == 2

    def test_cap_guard(self, nu4):
        with pytest.raises(ResourceError):
            enumerate_keys(nu4, 12)


class TestSameDegreeDivisor:
    def test_monic_same_degree_divisible_is_equivalent_key(self, nu1, nu2):
        rng = random.Random(63)
        for nu in (nu1, nu2):
            chi = nu.top.phi
            for _ in range(20):
                # f = chi + (something of value > gamma), monic of equal degree
                bump = make_rand_poly(rng, chi.degree - 1)
                f = chi + bump.scale(F(2) ** 10)
                if not graded_divides(nu, chi, f):
                    continue
                assert is_equivalent(nu, chi, f)
                assert is_key(nu, f)


class TestFactorization:
    def test_examples(self, nu1, nu2):
        gf = graded_factorization(nu1, P("x^4+4"))
        assert [(str(c), a) for c, a in gf.factors] == [("x^2 + 2", 2)]
        gf = graded_factorization(nu2, P("x^4+4"))
        assert [(str(c), a) for c, a in gf.factors] == [("x^2 + 2*x + 2", 2)]
        gf = graded_factorization(nu1, P("x^3"))
        assert [(str(c), a) for c, a in gf.factors] == [("x", 3)]

    def test_classical_cross_check(self):
        assert P("x^2+2x+2") * P("x^2-2x+2") == P("x^4+4")

    def test_incommensurable_rejected(self, nu_inf):
        with pytest.raises(DomainError):
            graded_factorization(nu_inf, P("x^2+2"))

    def test_value_accounting_and_divisibility(self, nu1, nu2, nu4, rand_poly):
        rng = random.Random(64)
        for nu in (nu1, nu2, nu4):
            for _ in range(15):
                f = rand_poly(rng, 10)
                gf = graded_factorization(nu, f, seed=5)
                total = gf.unit_part.value
                prod = Poly.one()
                degsum = 0
                for chi, a in gf.factors:
                    assert a >= 1
                    total = total + nu(chi).scaled(a)
                    prod = prod * chi**a
                    degsum += a * chi.degree
                assert total == nu(f)
                assert degsum <= f.degree
                if not prod.is_constant:
                    assert graded_divides(nu, prod, f)

    def test_exponents_match_divisibility_order(self, nu1, nu2, rand_poly):
        rng = random.Random(65)
        for nu in (nu1, nu2):
            for _ in range(10):
                f = rand_poly(rng, 8)
                gf = graded_factorization(nu, f, seed=2)
                for chi, a in gf.factors:
                    k = 0
                    while graded_divides(nu, chi ** (k + 1), f):
                        k += 1
                    assert k == a

    def test_deterministic_for_seed(self, nu4):
        f = P("x^16 + 2x^12 + 4x^3 + 16")
        a = graded_factorization(nu4, f, seed=9)
        b = graded_factorization(nu4, f, seed=9)
        assert [(str(c), m) for c, m in a.factors] == [(str(c), m) for c, m in b.factors]


def fresh_nu1():
    """A newly validated nu1, so its key-lift memo starts empty."""
    return iv.validate_chain([("x", F(1, 2))], iv.PadicValuation(2))


def fresh_nu4():
    nu1 = fresh_nu1()
    return iv.augment(nu1, lift_key(nu1, "y^2+y+1"), F(9, 4))


def y1_ladder(depth):
    """The MacLane-optimal y+1 ladder over p = 2 up to the given depth."""
    nu = fresh_nu1()
    out = [nu]
    big_e = 2
    while len(out) < depth:
        chi = lift_key(nu, "y+1")
        nu = iv.augment(nu, chi, nu(chi) + iv.Value.of(F(1, 2 * big_e)))
        big_e *= 2
        out.append(nu)
    return out


class TestLiftMemo:
    def test_repeated_lift_is_the_same_object(self):
        nu = fresh_nu4()
        assert lift_key(nu, "y+1") is lift_key(nu, "y+1")
        first, again = enumerate_keys(nu, 1), enumerate_keys(nu, 1)
        assert all(a is b for a, b in zip(first, again, strict=True))

    def test_hit_skips_the_work(self, monkeypatch):
        nu = fresh_nu1()
        chi = lift_key(nu, "y^2+y+1")
        calls = []
        for name in ("ff_is_irreducible", "_residual_lift", "_decomposed_key_check"):
            monkeypatch.setattr(keys, name, lambda *a, name=name: calls.append(name))
        assert lift_key(nu, "y^2+y+1") is chi
        assert calls == []

    def test_every_spelling_of_psi_hits_one_entry(self):
        nu = fresh_nu4()
        top = residual_data(nu).field
        low = residual_data(nu._parent).field
        assert low != top
        a = lift_key(nu, "y+1")
        b = lift_key(nu, TowerPoly.parse(top, "y+1"))
        c = lift_key(nu, TowerPoly.parse(low, "y+1"))
        assert a is b is c
        assert list(nu._key_lifts) == [TowerPoly.parse(top, "y+1")]

    @pytest.mark.parametrize("text", ["y^2+1", "1", "0", "y^2"])
    def test_rejected_psi_leaves_no_entry(self, text):
        nu = fresh_nu1()
        for _ in range(2):
            with pytest.raises(DomainError):
                lift_key(nu, text)
        assert nu._key_lifts == {}

    def test_memo_leaves_equality_and_hash(self):
        a, b = fresh_nu4(), fresh_nu4()
        h = hash(a)
        enumerate_keys(a, 1)
        assert a._key_lifts and not b._key_lifts
        assert a == b and hash(a) == hash(b) == h

    def test_equal_chains_keep_separate_memos(self):
        a, b = fresh_nu4(), fresh_nu4()
        chi_a, chi_b = lift_key(a, "y+[0,1]"), lift_key(b, "y+[0,1]")
        assert chi_a == chi_b and chi_a is not chi_b

    @pytest.mark.parametrize("build, maxd", [(fresh_nu1, 2), (fresh_nu4, 1)])
    def test_enumerate_and_factor_agree_in_either_order(self, build, maxd):
        probe = build()
        ks = enumerate_keys(probe, maxd)
        f = (ks[1] * ks[2] ** 2 * ks[0]).scale(F(-12, 7))

        def run(nu, enumerate_first):
            if enumerate_first:
                out = enumerate_keys(nu, maxd)
                return out, graded_factorization(nu, f, seed=3)
            gf = graded_factorization(nu, f, seed=3)
            return enumerate_keys(nu, maxd), gf

        ks_a, gf_a = run(build(), True)
        ks_b, gf_b = run(build(), False)
        assert ks_a == ks_b == ks
        assert gf_a == gf_b and str(gf_a) == str(gf_b)
        assert sorted(a for _, a in gf_a.factors) == [1, 1, 2]


def _top_decompositions(monkeypatch):
    """Record every top-level _decompose call (level = chain length) by its f."""
    seen = []
    inner = residual._decompose

    def counted(levels, i, ex):
        if i == len(levels):
            seen.append(ex.f)
        return inner(levels, i, ex)

    monkeypatch.setattr(residual, "_decompose", counted)
    return seen


def _parent_factorization(nu, f, seed):
    """graded_factorization as it was before lifts kept their graded data:
    every lifted key is decomposed again for its unit."""
    levels, r = nu._levels, nu.length
    dec = _decompose_top(levels, f)
    factors, unit = [], dec.nlc
    if dec.s > 0:
        factors.append((nu.top.phi, dec.s))
    if dec.respoly.degree > 0:
        for psi, mult in ff_factor(dec.respoly, seed):
            chi = lift_key(nu, psi)
            factors.append((chi, mult))
            unit = _hu_mul(levels, r, unit, _hu_pow(levels, r, _decompose_top(levels, chi).nlc, -mult))
    return GradedFactorization(_public_unit(levels, r, unit), tuple(factors))


class TestLiftRecord:
    """The memo keeps each lift with the unit and value of its initial term."""

    def test_record_matches_a_fresh_decomposition(self, nu1, nu2, nu4):
        for nu, maxd in ((nu1, 2), (nu2, 2), (nu4, 1), *((mu, 2) for mu in y1_ladder(4))):
            ks = enumerate_keys(nu, maxd)
            lifted = [rec[0] for rec in nu._key_lifts.values()]
            assert all(any(chi is k for chi in lifted) for k in ks[1:])
            levels, r = nu._levels, nu.length
            unit = levels[-1].D * levels[-1].e  # the record's value counts 1/unit
            for chi, nlc, mu in nu._key_lifts.values():
                dec = _decompose_top(levels, chi)
                assert (nlc, mu) == (dec.nlc, dec.mu)
                assert _value_of((mu,), unit) == nu(chi)

    @pytest.mark.parametrize("build, maxd", [(fresh_nu1, 2), (fresh_nu4, 1), (lambda: y1_ladder(3)[-1], 1)])
    def test_memoized_factorization_decomposes_only_f(self, monkeypatch, build, maxd):
        nu = build()
        ks = enumerate_keys(nu, maxd)
        f = (ks[0] ** 2 * ks[1] * ks[-1] ** 3).scale(F(6, 5))
        want = graded_factorization(nu, f, seed=4)
        seen = _top_decompositions(monkeypatch)
        assert graded_factorization(nu, f, seed=4) == want
        assert seen == [f]

    def test_new_lift_is_decomposed_once(self, monkeypatch):
        nu = fresh_nu4()
        seen = _top_decompositions(monkeypatch)
        chi = lift_key(nu, "y+[0,1]")
        assert seen == [chi]
        seen.clear()
        assert lift_key(nu, "y+[0,1]") is chi and seen == []

    def test_corrupted_value_fails_the_accounting(self):
        nu = fresh_nu1()
        chi = lift_key(nu, "y+1")
        (psi,) = nu._key_lifts
        _, nlc, mu = nu._key_lifts[psi]
        top = nu._levels[-1]
        nu._key_lifts[psi] = (chi, nlc, mu + top.D * top.e)  # one more in value
        with pytest.raises(InvariantError, match="does not close the value accounting"):
            graded_factorization(nu, chi * P("x^2+x+2"))

    def test_lift_value_is_checked_against_the_chain(self, monkeypatch):
        nu = fresh_nu1()
        real = residual._residual_lift
        top = nu._levels[-1]

        def skewed(*a):
            chi, dec = real(*a)
            dec.mu = dec.mu + top.D * top.e  # one more in value
            return chi, dec

        monkeypatch.setattr(keys, "_residual_lift", skewed)
        with pytest.raises(InvariantError, match=r"psi = y \+ 1 on .* decomposes with value 2 != mu\(chi\) = 1"):
            lift_key(nu, "y+1")
        assert nu._key_lifts == {}


@pytest.fixture(scope="module")
def differential_chains(nu1, nu2, nu4, ladder):
    return [(nu, enumerate_keys(nu, 1)) for nu in (nu1, nu2, nu4, *ladder[:4])]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 6),
    st.fractions().filter(lambda c: c != 0 and abs(c.numerator) < 10**6 and c.denominator < 10**6),
    st.lists(st.tuples(st.integers(0, 3), st.integers(1, 3)), min_size=1, max_size=3),
    st.integers(0, 5),
)
def test_factorization_matches_the_parent(differential_chains, which, c, picks, seed):
    nu, ks = differential_chains[which]
    f = Poly.constant(c)
    for k, m in picks:
        f = f * ks[k % len(ks)] ** m
    gf = graded_factorization(nu, f, seed=seed)
    ref = _parent_factorization(nu, f, seed)
    assert gf == ref and str(gf) == str(ref)
    total = gf.unit_part.value
    for chi, a in gf.factors:
        total = total + nu(chi).scaled(a)
    assert total == nu(f)


def _irreducible_over_q(chi):
    x = sympy.Symbol("x")
    return sympy.Poly(list(reversed(chi.coeffs)), x, domain="QQ").is_irreducible


class TestLiftOracle:
    """Lifted keys checked against sympy: a wrong lift would stay memoized."""

    def test_keys_of_the_fixture_chains_are_irreducible(self, nu1, nu2, nu4):
        for nu, maxd in ((nu1, 2), (nu2, 2), (nu4, 1)):
            for chi in enumerate_keys(nu, maxd):
                assert _irreducible_over_q(chi), (nu, chi)
        kal = residual_data(nu4).field
        assert _irreducible_over_q(lift_key(nu4, TowerPoly.parse(kal, "y^2+y+[0,1]")))

    def test_ladder_keys_are_irreducible(self):
        ladder = y1_ladder(4)
        for nu in ladder:
            for chi in enumerate_keys(nu, 2) + [lift_key(nu, "y+1")]:
                assert _irreducible_over_q(chi), (nu, chi)
        assert [s.phi.degree for s in ladder[-1].steps] == [1, 2, 4, 8]

    def test_rejected_lift_raises_invariant_error(self, monkeypatch):
        nu = fresh_nu1()
        monkeypatch.setattr(keys, "_decomposed_key_check", lambda *a: KeyCheck(False, reason="rejected"))
        with pytest.raises(InvariantError, match=r"psi = y \+ 1 on \[\(x, 1/2\)\]"):
            lift_key(nu, "y+1")
        assert nu._key_lifts == {}
        monkeypatch.undo()
        assert lift_key(nu, "y+1") == P("x^2+2")

    def test_invariant_error_is_named_and_an_assertion(self):
        assert issubclass(InvariantError, iv.IndvalError)
        assert issubclass(InvariantError, AssertionError)
