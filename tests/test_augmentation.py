import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indval as iv
import indval.augmentation as augmentation
from indval import (
    ChainError,
    DomainError,
    Poly,
    ResourceError,
    Value,
    augment,
    continuous_chain_from_json,
    graded_divides,
    is_key,
    is_unit,
    limit_augment,
    stability,
    validate_continuous_chain,
)
from indval.augmentation import StabilityReport
from indval.chains import _value_of, expansion_report
from indval.values import INFINITY
from conftest import make_rand_poly, ref_expansion, ref_linear_report, trim

P = Poly.parse
F = Fraction


class TestAugment:
    def test_builds_nu2(self, nu1, nu2):
        got = augment(nu1, P("x^2+2"), F(3, 2))
        assert got == nu2

    def test_gamma_too_small(self, nu1):
        with pytest.raises(DomainError, match="must exceed"):
            augment(nu1, P("x^2+2"), F(1, 2))

    def test_non_key_rejected(self, nu1):
        with pytest.raises(DomainError, match="not a key"):
            augment(nu1, P("x^2+x"), F(3, 2))

    @pytest.mark.parametrize("chi", ["3x", "2", "0"])
    def test_non_monic_or_constant_key_rejected(self, nu1, chi):
        # 3x is equivalent to the top key x of nu1 (nu1(2x) = 3/2 > 1/2), so
        # only the monic check stands between it and a replaced first step
        with pytest.raises(DomainError, match="not a key"):
            augment(nu1, P(chi), 2)

    def test_replacement_of_equivalent_key(self, nu1):
        nu = augment(nu1, P("x"), F(3, 4))
        assert nu.length == 1 and nu.top.gamma == Value.of(F(3, 4))
        # an equivalent key of the same degree replaces, keeping length
        nu_b = augment(nu1, P("x+4"), 1)
        assert nu_b.length == 1 and nu_b.top.phi == P("x+4")

    def test_replacement_needs_larger_gamma(self, nu1):
        with pytest.raises(DomainError, match="must exceed"):
            augment(nu1, P("x"), Value.of((0, 1)))

    def test_rank2_gamma(self, nu1):
        nu = augment(nu1, P("x^2+2"), Value.of((2, 0)))
        assert nu.rank == 1 and nu.top.gamma == Value.of(2)
        nu = augment(nu1, P("x^2+2"), Value.of((2, F(1, 3))))
        assert nu.rank == 2 and not nu.top_commensurable

    def test_augment_incommensurable_top_replaces(self, nu_inf):
        nu = augment(nu_inf, P("x+2"), Value.of((0, 2)))
        assert nu.length == 1 and nu.top.phi == P("x+2")

    def test_new_key_is_key_of_augmented(self, nu1, nu2):
        assert is_key(nu2, P("x^2+2"))

    def test_small_degrees_become_units(self, nu2, rand_poly):
        rng = random.Random(71)
        for _ in range(40):
            g = make_rand_poly(rng, 1, monic=True)
            assert is_unit(nu2, g)

    def test_monotone_with_divisibility_criterion(self, nu1, nu2, rand_poly):
        rng = random.Random(72)
        chi = P("x^2+2")
        for _ in range(150):
            f = rand_poly(rng, 10)
            a, b = nu1(f), nu2(f)
            assert a <= b
            assert (a == b) == (not graded_divides(nu1, chi, f))


class TestContinuousValidation:
    def test_fixture(self, lam):
        assert lam.length == 6 and lam.degree == 1

    def test_mixed_degrees(self, v2):
        with pytest.raises(ChainError, match=r"condition \(1\)"):
            validate_continuous_chain([("x", 1), ("x^2+2", 2)], v2)

    def test_decreasing_gamma(self, v2):
        with pytest.raises(ChainError, match=r"condition \(2\)"):
            validate_continuous_chain([("x", 2), ("x+2", 1)], v2)

    def test_equivalent_members(self, v2):
        with pytest.raises(ChainError, match=r"condition \(3\)"):
            validate_continuous_chain([("x", 1), ("x+4", 2)], v2)

    def test_non_key_member(self, v2):
        # gamma_2 <= mu_1(phi_2) breaks condition (3)
        with pytest.raises(ChainError, match=r"condition \(3\)"):
            validate_continuous_chain([("x", 2), ("x+2", F(5, 2)), ("x+4", 3)], v2)

    def test_json_roundtrip(self, lam):
        again = continuous_chain_from_json(lam.to_json())
        assert again.family == lam.family

    @pytest.mark.parametrize(
        "family, base_steps, text",
        [
            ([("2x+1", 1), ("2x+3", 2)], (), "step 1: key polynomial must be monic"),
            ([("x^2+2", 1), ("x^2+6", 2)], (), "step 1: the first key polynomial must be monic linear"),
            (
                [("x^3+2", 5)],
                [("x", F(1, 2)), ("x^2+2", F(3, 2))],
                "step 3: key degree 3 is not a multiple of the previous key degree 2",
            ),
        ],
    )
    def test_members_pass_the_shape_checks(self, v2, family, base_steps, text):
        # every member's step list is checked as validate_chain checks it,
        # although the base steps are validated once for all members
        with pytest.raises(ChainError) as exc:
            validate_continuous_chain(family, v2, base_steps)
        assert str(exc.value) == text


class TestOneLevelPerStep:
    """A validated chain is its parent plus one checked step: augmentation
    builds one level, and prefixes are the stored ancestors."""

    @staticmethod
    def _next(nu):
        chi = iv.lift_key(nu, "y+1")
        return iv.augment(nu, chi, nu(chi) + Value.of(F(1, 2 * 2**nu.length)))

    def test_augment_builds_one_level(self, ladder, monkeypatch):
        built = []
        inner = iv.residual._make_level

        def counted(*args):
            built.append(args[0])
            return inner(*args)

        monkeypatch.setattr(iv.residual, "_make_level", counted)
        for nu in ladder:
            before = len(built)
            aug = self._next(nu)
            assert len(built) - before == 1 and built[-1] is aug
            assert aug._parent is nu
            assert all(a is b for a, b in zip(aug._levels, nu._levels))
        assert iv.validate_chain(ladder[-1].steps, ladder[-1].base) == ladder[-1]
        assert len(built) == len(ladder) + ladder[-1].length

    def test_replaced_top_step_keeps_the_prefix_below(self, nu1, ladder):
        one = augment(nu1, P("x+2"), 1)
        assert one.steps[0].phi == P("x+2") and one._parent is None
        for nu in ladder[1:]:
            r = nu.length
            aug = augment(nu, nu.top.phi, nu.top.gamma + 1)
            assert aug.length == r and aug.top.gamma == nu.top.gamma + 1
            assert aug._parent is nu._parent
            assert all(a is b for a, b in zip(aug._levels[:-1], nu._levels))

    def test_family_members_share_one_base_prefix(self, v2):
        chain = validate_continuous_chain(
            [("x^2+2", 2), ("x^2+6", 3), ("x^2+14", 4)], v2, [("x", F(1, 2))]
        )
        base = chain.member(1)._parent
        assert base.steps == (iv.Step(P("x"), Value.of(F(1, 2))),)
        for mu in chain.members:
            assert mu._parent is base and mu._levels[0] is base._levels[0]

    def test_extended_chains_equal_chains_validated_from_scratch(self, ladder, v2):
        family = validate_continuous_chain(
            [("x^2+2", 2), ("x^2+6", 3)], v2, [("x", F(1, 2))]
        )
        extended = [*ladder, self._next(ladder[-2]), *family.members]
        extended.append(augment(ladder[2], ladder[2].top.phi, ladder[2].top.gamma + 1))
        rng = random.Random(83)
        for nu in extended:
            fresh = iv.validate_chain(nu.steps, nu.base)
            assert fresh == nu and fresh._levels[0] is not nu._levels[0]
            for _ in range(6):
                f = make_rand_poly(rng, 2 * nu.top_degree + 1)
                assert str(nu(f)) == str(fresh(f))
                assert str(iv.decompose(nu, f)) == str(iv.decompose(fresh, f))
            assert iv.lift_key(nu, "y+1") == iv.lift_key(fresh, "y+1")
            assert iv.enumerate_keys(nu, 1) == iv.enumerate_keys(fresh, 1)


class TestStability:
    def test_examples(self, lam):
        rep = stability(lam, P("x"))
        assert rep.stable and rep.value == Value.of(1) and rep.witness_index == 1
        rep = stability(lam, P("x+2"))
        assert not rep.stable
        assert list(rep.values) == [Value.of(k) for k in range(2, 8)]
        rep = stability(lam, Poly.constant(5))
        assert rep.stable and rep.value == Value.of(0) and rep.witness_index == 1

    def test_zero_rejected(self, lam):
        with pytest.raises(DomainError):
            stability(lam, Poly.zero())

    def test_family_keys_stabilize_late(self, lam):
        # phi_3 is unstable-looking early but stabilizes at index 4
        rep = stability(lam, lam.family[2].phi)
        assert rep.stable
        assert rep.witness_index == 4

    def test_trichotomy(self, lam, rand_poly):
        rng = random.Random(73)
        for _ in range(120):
            f = rand_poly(rng, 6)
            rep = stability(lam, f)  # raises if neither branch certifies
            if not rep.stable:
                for i in range(1, len(rep.values)):
                    assert rep.values[i] > rep.values[i - 1]

    def test_products_of_stables_are_stable(self, lam, rand_poly):
        rng = random.Random(74)
        for _ in range(40):
            f, g = rand_poly(rng, 3), rand_poly(rng, 3)
            rf, rg = stability(lam, f), stability(lam, g)
            if rf.stable and rg.stable:
                rfg = stability(lam, f * g)
                assert rfg.stable
                assert rfg.value == rf.value + rg.value


class TestLimit:
    def test_examples(self, lam):
        lim = limit_augment(lam, P("x+2"), Value.of((1, 0)))
        assert lim(P("x+2")) == Value.of((1, 0))
        assert lim(P("x")) == Value.of((0, 1))
        assert lim(P("x^2+2x")) == Value.of((1, 1))

    def test_stable_phi_rejected(self, lam):
        with pytest.raises(DomainError, match="stable"):
            limit_augment(lam, P("x"), Value.of((1, 0)))

    def test_gamma_must_dominate(self, lam):
        with pytest.raises(DomainError, match="does not exceed"):
            limit_augment(lam, P("x+2"), Value.of(4))

    def test_rational_gamma_above_prefix(self, lam):
        lim = limit_augment(lam, P("x+2"), Value.of(100))
        assert lim(P("x+2")) == Value.of(100)
        assert lim(P("x")) == Value.of(1)

    def test_zero_maps_to_infinity(self, lam):
        lim = limit_augment(lam, P("x+2"), Value.of((1, 0)))
        assert lim(Poly.zero()).is_infinite

    def test_prefix_bound(self, lam, rand_poly):
        # mu_alpha(f) <= limit value for all alpha
        lim = limit_augment(lam, P("x+2"), Value.of((1, 0)))
        rng = random.Random(75)
        for _ in range(60):
            f = rand_poly(rng, 5)
            w = lim(f)
            for alpha in range(1, lam.length + 1):
                assert lam.member(alpha)(f).embed(2, major=False) <= w

    def test_valuation_axioms(self, lam, rand_poly):
        lim = limit_augment(lam, P("x+2"), Value.of((1, 0)))
        rng = random.Random(76)
        for _ in range(80):
            f, g = rand_poly(rng, 6), rand_poly(rng, 6)
            assert lim(f * g) == lim(f) + lim(g)
            if not (f + g).is_zero:
                assert lim(f + g) >= min(lim(f), lim(g))

    def test_product_reduction_rule(self, lam, rand_poly):
        # deg a, b < deg(phi): with ab = c + d*phi, ab is limit-equivalent to c
        lim = limit_augment(lam, P("x+2"), Value.of((1, 0)))
        rng = random.Random(77)
        for _ in range(40):
            a = Poly.constant(F(rng.randrange(-50, 51), rng.randrange(1, 20)))
            b = Poly.constant(F(rng.randrange(-50, 51), rng.randrange(1, 20)))
            if a.is_zero or b.is_zero:
                continue
            coeffs = iv.phi_expansion(a * b, P("x+2"))
            c = coeffs[0]
            assert iv.is_equivalent(lim, a * b, c)

    def test_minimality_spot_check(self, v2):
        fam = [(Poly([-(2 ** (i + 1) - 2), 1]), i + 1) for i in range(1, 7)]
        chain = validate_continuous_chain(fam, v2)
        # x^2+... built from an unstable linear is also unstable; the spot
        # check must then reject the minimality assertion
        with pytest.raises(DomainError, match="minimality"):
            limit_augment(chain, P("x+2") * P("x+2"), Value.of((1, 0)))


def _sqrt17_family(v2, depth):
    """Approximations a with a^2 = 17 (2-adically, a = 1 mod 4): the keys
    x - a pseudo-converge, and the minimal unstable polynomial is x^2 - 17."""
    approximants = []
    a = 1
    for k in range(4, 4 + 4 * depth):
        if (a * a - 17) % 2 ** (k + 1):
            a += 2 ** (k - 1)
            approximants.append(a)
    fam = []
    for a in approximants[:depth]:
        gamma = v2.int_order(a * a - 17) - 1
        fam.append((Poly([-a, 1]), gamma))
    return validate_continuous_chain(fam, v2)


class TestQuadraticLimit:
    def test_family_is_valid_and_x2_minus_17_unstable(self, v2):
        chain = _sqrt17_family(v2, 6)
        rep = stability(chain, P("x^2-17"))
        assert not rep.stable
        # linear polynomials are generically stable
        assert stability(chain, P("x+1")).stable
        assert stability(chain, P("x-9")).stable

    def test_degree2_limit_key(self, v2):
        chain = _sqrt17_family(v2, 6)
        lim = limit_augment(chain, P("x^2-17"), Value.of((1, 0)))
        assert lim(P("x^2-17")) == Value.of((1, 0))
        rng = random.Random(78)
        for _ in range(40):
            f = make_rand_poly(rng, 4)
            g = make_rand_poly(rng, 4)
            if f.is_zero or g.is_zero:
                continue
            assert lim(f * g) == lim(f) + lim(g)

    def test_unwitnessed_coefficient_raises(self, v2):
        # a coefficient agreeing with the pseudo-limit beyond the prefix
        # depth has no stability witness inside it
        chain = _sqrt17_family(v2, 4)
        deep = _sqrt17_family(v2, 7)
        lim = limit_augment(chain, P("x^2-17"), Value.of((1, 0)))
        a_deep = -deep.family[-1].phi.coeffs[0]
        with pytest.raises(ResourceError, match="prefix"):
            lim(Poly([-a_deep, 1]))


# ---------------------------------------------------------------------------
# The integer limit path and the stability short-cut against full scans
# ---------------------------------------------------------------------------


def _full_scan(chain, f):
    """The stability scan of every f, with no short-cut for degree < d.

    A one-step member, which the library values in its level-one loop, is
    valued by the Fraction reference of ``conftest``; a longer member by its
    expansion report, whose top level adds Values.
    """
    values = []
    for alpha in range(1, chain.length + 1):
        mu = chain.member(alpha)
        if mu.length == 1:
            _, _, v, indices = ref_linear_report(mu, f)
        else:
            rep = expansion_report(mu, f)
            v, indices = rep.mu, rep.indices
        values.append(v)
        if indices == (0,):
            return StabilityReport(True, v, alpha, tuple(values))
    return StabilityReport(False, None, None, tuple(values))


def _limit_reference(lim, g):
    """min over s of (full-scan stable value of g_s, embedded) + s*gamma,
    over the schoolbook expansion of g in the limit key."""
    if g.is_zero:
        return INFINITY
    best = None
    for s, c in enumerate(ref_expansion(trim(g.coeffs), list(lim.phi.coeffs))):
        if not c:
            continue
        w = _full_scan(lim.chain, Poly(c)).value.embed(lim.rank, major=False) + lim.gamma.scaled(s)
        if best is None or w < best:
            best = w
    return best


def _quadratic_family(v2):
    """Degree-2 keys x^2 + 2 + a over the base step (x, 1/2), each a adding
    a term of value gamma_alpha, so that consecutive keys are not equivalent."""
    fam = [("x^2+2", F(3, 2)), ("x^2+2x+2", 2), ("x^2+2x+6", F(5, 2)), ("x^2+6x+6", 3)]
    return validate_continuous_chain(fam, v2, [("x", F(1, 2))])


_coeffs = st.lists(
    st.tuples(st.integers(-10**4, 10**4), st.integers(1, 60)), min_size=1, max_size=13
)


def _poly(pairs):
    return Poly([F(n, d) for n, d in pairs])


@pytest.fixture(scope="module")
def lam_limits(lam):
    return (
        limit_augment(lam, P("x+2"), Value.of((1, 0))),
        limit_augment(lam, P("x+2"), Value.of(F(201, 2))),
    )


@pytest.fixture(scope="module")
def quad_limit(v2):
    return limit_augment(_quadratic_family(v2), P("x^2+6x+14"), Value.of((1, 0)))


class TestIntegerLimitPath:
    @settings(max_examples=60, deadline=None)
    @given(_coeffs)
    def test_lam_equals_reference(self, lam_limits, pairs):
        g = _poly(pairs)
        for lim in lam_limits:
            assert lim._lin is not None
            got, want = lim(g), _limit_reference(lim, g)
            assert got == want and str(got) == str(want)
            if not g.is_zero:
                assert got.rank == lim.rank

    @settings(max_examples=25, deadline=None)
    @given(_coeffs)
    def test_degree2_family_equals_reference(self, quad_limit, pairs):
        g = _poly(pairs)
        got, want = quad_limit(g), _limit_reference(quad_limit, g)
        assert got == want and str(got) == str(want)

    def test_degree2_key_over_linear_family_keeps_the_scan(self, v2):
        chain = _sqrt17_family(v2, 6)
        lim = limit_augment(chain, P("x^2-17"), Value.of((1, 0)))
        assert lim._lin is None
        rng = random.Random(79)
        for _ in range(10):
            g = make_rand_poly(rng, 5)
            assert lim(g) == _limit_reference(lim, g)

    def test_key_of_the_family_degree_makes_no_guard_scan(self, v2, monkeypatch):
        # polynomials of degree < d are stable, so a key of degree d leaves
        # the sampled minimality guard nothing to draw: one scan, of phi
        calls = []
        inner = augmentation.stability

        def counted(chain, f):
            calls.append(f)
            return inner(chain, f)

        monkeypatch.setattr(augmentation, "stability", counted)
        chain = _quadratic_family(v2)
        lim = limit_augment(chain, P("x^2+6x+14"), Value.of((1, 0)))
        assert calls == [P("x^2+6x+14")] and chain.degree == lim.phi.degree == 2

    def test_short_cut_stability_equals_full_scan(self, lam, quad_limit, rand_poly):
        rng = random.Random(80)
        for chain in (lam, quad_limit.chain):
            for _ in range(40):
                f = rand_poly(rng, chain.degree - 1)
                got, want = stability(chain, f), _full_scan(chain, f)
                assert got == want
                assert [v.rank for v in got.values] == [v.rank for v in want.values]

    def test_repeated_values_are_equal_and_of_the_chain_rank(
        self, nu1, nu2, nu_inf, nu4, lam_limits, rand_poly
    ):
        rng = random.Random(81)
        for nu in (nu1, nu2, nu_inf, nu4) + lam_limits:
            rank = nu.rank
            for _ in range(10):
                f = rand_poly(rng, 8)
                a, b = nu(f), nu(f)
                assert a == b and a.rank == b.rank == rank
                assert a is b  # consecutive results share one Value

    def test_shared_values_keep_their_rank(self):
        one, minor = _value_of((1,), 1), _value_of((0, 1), 1)
        assert one == Value.of(1) and minor == Value((0, 1))
        assert one is not minor and one.rank == 1 and minor.rank == 2
        assert _value_of(None, 1) is INFINITY
        assert _value_of((3, -4), 6) == Value((F(1, 2), F(-2, 3)))

    def test_value_cache_is_bounded(self):
        maxsize = _value_of.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 4096
