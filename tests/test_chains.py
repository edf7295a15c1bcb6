import random
from fractions import Fraction

import pytest

import indval as iv
from indval import (
    ChainError,
    DomainError,
    InvariantError,
    Poly,
    ResourceError,
    Value,
    chain_from_json,
    expansion_report,
    is_equivalent,
    is_minimal,
    is_unit,
    key_semivaluation,
    phi_expansion,
    validate_chain,
)
import indval.chains as chains
import indval.residual as residual
from conftest import make_rand_poly

P = Poly.parse
F = Fraction


class TestValidation:
    def test_single_gauss_step(self, v2):
        nu = validate_chain([("x", F(1, 2))], v2)
        assert nu.length == 1 and nu.rank == 1

    def test_gamma_too_small(self, nu1, v2):
        with pytest.raises(ChainError, match="must exceed"):
            validate_chain([("x", F(1, 2)), ("x^2+2", F(1, 2))], v2)

    def test_non_key_rejected(self, v2):
        with pytest.raises(ChainError, match="not a key"):
            validate_chain([("x", F(1, 2)), ("x^2+x", F(3, 2))], v2)

    def test_equivalent_key_step_rejected(self, v2):
        with pytest.raises(ChainError, match="equivalent"):
            validate_chain([("x", F(1, 2)), ("x", 1)], v2)

    def test_first_key_linear(self, v2):
        with pytest.raises(ChainError, match="monic linear"):
            validate_chain([("x^2+2", F(1, 2))], v2)

    def test_degree_divisibility(self, v2):
        with pytest.raises(ChainError, match="multiple"):
            validate_chain(
                [("x", F(1, 2)), ("x^2+2", F(3, 2)), ("x^3+2", 4)], v2
            )

    def test_monic_required(self, v2):
        with pytest.raises(ChainError, match="monic"):
            validate_chain([("2x", 1)], v2)

    def test_infinite_gamma_rejected(self, v2):
        with pytest.raises(ChainError, match="infinite"):
            validate_chain([("x", iv.INFINITY)], v2)

    def test_incommensurable_must_be_last(self, v2):
        with pytest.raises(ChainError, match="last"):
            validate_chain(
                [("x", Value.of((0, 1))), ("x^2+2", Value.of((0, 3)))], v2
            )

    @pytest.mark.parametrize(
        "steps, message",
        [
            ([("x", F(1, 2)), ("x^2+2", F(1, 2))],
             "step 2: gamma=1/2 must exceed the prefix value 1 of the key polynomial"),
            ([("x", F(1, 2)), ("x^2+2", (F(1, 2), 1))],
             "step 2: gamma=(1/2, 1) must exceed the prefix value (1, 0) of the key polynomial"),
            ([("x", F(1, 2)), ("x^2+2", F(1, 2)), ("x^4+4", (5, 1))],
             "step 2: gamma=1/2 must exceed the prefix value 1 of the key polynomial"),
            ([("x", F(1, 2)), ("x^2+x", F(3, 2))],
             "step 2: x^2 + x is not a key polynomial for the prefix chain (s(chi) = 1 != 0)"),
            ([("x", F(1, 2)), ("x^2+x", (F(3, 2), 1))],
             "step 2: x^2 + x is not a key polynomial for the prefix chain (s(chi) = 1 != 0)"),
            ([("x", F(1, 2)), ("x", 1)],
             "step 2: key is equivalent to the previous key; augment replaces the top "
             "step instead of appending"),
            ([("x", F(1, 2)), ("x", (1, 1))],
             "step 2: key is equivalent to the previous key; augment replaces the top "
             "step instead of appending"),
        ],
    )
    def test_step_conditions_name_the_step(self, v2, steps, message):
        # the same three checks and messages for commensurable and rank-2 steps
        with pytest.raises(ChainError) as exc:
            validate_chain(steps, v2)
        assert str(exc.value) == message

    def test_equal_degree_nonequivalent_step(self, gauss2, v2):
        # e=1 admits a same-degree non-equivalent key
        nu = validate_chain([("x", 1), ("x+2", 2)], v2)
        assert nu.length == 2
        assert nu(P("x+2")) == Value.of(2)
        assert nu(P("x")) == Value.of(1)

    def test_json_roundtrip(self, nu2):
        again = chain_from_json(nu2.to_json())
        assert again == nu2

    def test_json_rank2(self, nu_inf):
        again = chain_from_json(nu_inf.to_json())
        assert again == nu_inf

    @pytest.mark.parametrize("load", [chain_from_json, iv.continuous_chain_from_json])
    @pytest.mark.parametrize(
        "text, error, message",
        [
            ("[" * 100000, ChainError, "not valid JSON"),
            ('"{\\"prime\\": 2}"', ChainError, "does not hold a JSON object"),
            ('{"prime": ' + "2" * 5000 + "}", ResourceError, "decimal digits"),
        ],
    )
    def test_hostile_json_text(self, load, text, error, message):
        # the guards of the CLI's chain files, on the library's string input
        with pytest.raises(error, match=message):
            load(text)


class TestExpansion:
    def test_examples(self):
        assert phi_expansion(P("x^4+4"), P("x^2+2")) == [
            Poly.constant(8),
            Poly.constant(-4),
            Poly.one(),
        ]
        assert phi_expansion(P("x^2+2"), P("x^2+2")) == [Poly.zero(), Poly.one()]
        assert phi_expansion(P("x^3+4x"), P("x")) == [
            Poly.zero(),
            Poly.constant(4),
            Poly.zero(),
            Poly.one(),
        ]

    def test_recombines(self, rand_poly):
        rng = random.Random(21)
        for _ in range(80):
            f = rand_poly(rng, 18)
            phi = rand_poly(rng, 4, monic=True)
            if phi.is_constant:
                continue
            coeffs = phi_expansion(f, phi)
            total = Poly.zero()
            for s, c in enumerate(coeffs):
                assert c.is_zero or c.degree < phi.degree
                total = total + c * phi**s
            assert total == f


class TestWorkBudget:
    def test_estimate_grows_with_the_square_of_the_degree(self):
        phi = P("x^2+2")
        chains.check_expansion_work(P("x^2048+1"), phi)  # the largest power of two admitted
        with pytest.raises(ResourceError, match="work budget"):
            chains.check_expansion_work(P("x^2400+1"), phi)

    def test_expansion_in_x_is_free_and_x_minus_a_is_not(self):
        chains.check_expansion_work(P("x^65536+1"), P("x"))
        with pytest.raises(ResourceError, match="in x - 1 is estimated"):
            chains.check_expansion_work(P("x^65536+1"), P("x-1"))

    def test_first_key_of_a_value_is_checked(self, nu2):
        # below deg(phi_2) the first expansion is in x: free
        assert nu2(P("x+2")) == Value.of(F(1, 2))
        with pytest.raises(ResourceError):
            nu2(P("x^4096+1"))
        with pytest.raises(ResourceError):
            expansion_report(nu2, P("x^4096+1"))
        with pytest.raises(ResourceError):
            iv.decompose(nu2, P("x^4096+1"))
        with pytest.raises(ResourceError):
            key_semivaluation(nu2, P("x^2+2"), P("x^4096+1"))


class TestEvaluation:
    def test_examples(self, nu1, nu2, nu_inf):
        assert nu1(P("x^2+2")) == Value.of(1)
        assert nu2(P("x^4+4")) == Value.of(3)
        assert nu_inf(P("x^2+2")) == Value.of((0, 2))

    def test_agrees_with_vp_on_constants(self, nu1, nu2, v2):
        rng = random.Random(22)
        for _ in range(50):
            c = F(rng.randrange(-400, 401), rng.randrange(1, 100))
            if c == 0:
                continue
            for nu in (nu1, nu2):
                assert nu(Poly.constant(c)) == v2.value(c)

    def test_zero_is_infinite(self, nu2, nu_inf):
        assert nu2(Poly.zero()).is_infinite
        assert nu_inf(Poly.zero()).is_infinite

    def test_closed_form_oracle_single_step(self, nu1, nu3p, rand_poly):
        # independent oracle: for [(x, q)] the value of sum c_s x^s is
        # min over s of vp(c_s) + s*q, computed here with raw Fractions
        rng = random.Random(230)
        for nu in (nu1, nu3p):
            p = nu.base.p
            q = nu.top.gamma.coords[0]

            def order(c):
                k = 0
                num, den = c.numerator, c.denominator
                while num % p == 0:
                    num //= p
                    k += 1
                while den % p == 0:
                    den //= p
                    k -= 1
                return k

            for _ in range(60):
                f = rand_poly(rng, 14)
                expect = min(
                    F(order(c)) + s * q
                    for s, c in enumerate(f.coeffs)
                    if c != 0
                )
                assert nu(f) == Value.of(expect)

    def test_axioms_random(self, nu1, nu2, nu3p, nu_inf, rand_poly):
        rng = random.Random(23)
        for _ in range(120):
            f, g = rand_poly(rng, 12), rand_poly(rng, 12)
            for nu in (nu1, nu2, nu3p, nu_inf):
                assert nu(f * g) == nu(f) + nu(g)
                if not (f + g).is_zero:
                    assert nu(f + g) >= min(nu(f), nu(g))

    def test_min_over_monomials_every_level(self, nu2, nu4, rand_poly):
        # the expansion minimum computes mu_i at every level i: phi_i is
        # minimal for its own prefix valuation (not for later ones, where
        # ties between its monomials can cancel upward)
        rng = random.Random(24)
        for _ in range(40):
            f = rand_poly(rng, 10)
            for nu in (nu2, nu4):  # two steps: the parent is the level-1 chain
                for mu_i in (nu._parent, nu):
                    phi = mu_i.top.phi
                    vals = [
                        mu_i(c * phi**s)
                        for s, c in enumerate(phi_expansion(f, phi))
                        if not c.is_zero
                    ]
                    assert min(vals) == mu_i(f)


class TestReport:
    def test_examples(self, nu1):
        rep = expansion_report(nu1, P("x^4+4"))
        assert rep.indices == (0, 4)
        assert (rep.s, rep.s_prime, rep.mu) == (0, 4, Value.of(2))
        assert expansion_report(nu1, P("x")).indices == (1,)
        assert expansion_report(nu1, Poly.constant(5)).indices == (0,)

    def test_zero_rejected(self, nu1):
        with pytest.raises(DomainError):
            expansion_report(nu1, Poly.zero())

    def test_s_additivity(self, nu1, nu2, rand_poly):
        rng = random.Random(25)
        for _ in range(60):
            f, g = rand_poly(rng, 10), rand_poly(rng, 10)
            for nu in (nu1, nu2):
                rf, rg, rfg = (
                    expansion_report(nu, f),
                    expansion_report(nu, g),
                    expansion_report(nu, f * g),
                )
                assert rfg.s == rf.s + rg.s
                assert rfg.s_prime == rf.s_prime + rg.s_prime

    def test_equivalence_preserves_indices_and_coeffs(self, nu1, nu2, rand_poly):
        rng = random.Random(26)
        for _ in range(60):
            f = rand_poly(rng, 9)
            pert = rand_poly(rng, 9)
            for nu in (nu1, nu2):
                g = f + pert.scale(F(2) ** 14)
                if g.is_zero or not is_equivalent(nu, f, g):
                    continue
                rf, rg = expansion_report(nu, f), expansion_report(nu, g)
                assert rf.indices == rg.indices
                for s in rf.indices:
                    assert is_equivalent(nu, rf.coeffs[s], rg.coeffs[s])


class TestPredicates:
    def test_equivalence_examples(self, nu1):
        assert is_equivalent(nu1, P("x^2+2"), P("x^2-2"))
        assert is_equivalent(nu1, P("x"), P("x"))
        assert not is_equivalent(nu1, P("x"), P("x+1"))

    def test_unit_examples(self, nu1):
        assert is_unit(nu1, P("x+1"))
        assert is_unit(nu1, Poly.one())
        assert not is_unit(nu1, P("x^2+2"))
        with pytest.raises(DomainError):
            is_unit(nu1, Poly.zero())

    def test_small_degree_is_unit(self, nu2, nu4):
        # every non-zero polynomial of degree < deg(phi_r) is a unit
        rng = random.Random(27)
        for nu in (nu2, nu4):
            for _ in range(30):
                f = make_rand_poly(rng, nu.top_degree - 1)
                assert is_unit(nu, f)

    def test_minimal_examples(self, nu1):
        assert is_minimal(nu1, P("x^2+2"))
        assert not is_minimal(nu1, P("x^2+x"))
        assert is_minimal(nu1, P("x"))
        with pytest.raises(DomainError):
            is_minimal(nu1, Poly.constant(3))

    def test_minimal_power(self, nu1, nu2, rand_poly):
        rng = random.Random(28)
        for _ in range(25):
            f = rand_poly(rng, 6, monic=True)
            if f.is_constant:
                continue
            for nu in (nu1, nu2):
                base = is_minimal(nu, f)
                for m in (2, 3, 4):
                    assert is_minimal(nu, f**m) == base

    def test_weighted_bound(self, nu1, nu2, rand_poly):
        rng = random.Random(29)
        for nu in (nu1, nu2):
            cap = nu.top.gamma.scaled(Fraction(1, nu.top_degree))
            for _ in range(60):
                f = rand_poly(rng, 9, monic=True)
                if f.is_constant:
                    continue
                w = nu(f).scaled(Fraction(1, f.degree))
                assert w <= cap
                assert (w == cap) == is_minimal(nu, f)

    def test_product_rule_below_key_degree(self, nu2, nu4, rand_poly):
        # for deg a, b < n with ab = c + d*phi: ab ~ c and mu(c) <= mu(d*phi)
        rng = random.Random(30)
        for nu in (nu2, nu4):
            n = nu.top_degree
            phi = nu.top.phi
            for _ in range(40):
                a = make_rand_poly(rng, n - 1)
                b = make_rand_poly(rng, n - 1)
                coeffs = phi_expansion(a * b, phi)
                c = coeffs[0]
                assert is_equivalent(nu, a * b, c)
                if len(coeffs) > 1 and not coeffs[1].is_zero:
                    assert nu(c) <= nu(coeffs[1] * phi)


class TestIncommensurable:
    def test_singleton_argmin(self, nu_inf, rand_poly):
        rng = random.Random(31)
        for _ in range(60):
            f = rand_poly(rng, 12)
            assert len(expansion_report(nu_inf, f).indices) == 1

    def test_minimal_via_s(self, nu_inf):
        assert is_minimal(nu_inf, P("x"))
        assert is_minimal(nu_inf, P("x^2+2x"))  # s = 2 = deg

    def test_prefix_steps_stay_rank_1(self, nu1, nu2):
        # a rank-2 top step leaves the steps below it, their file text and
        # their prefix chains at rank 1; the chain embeds only its own values
        nu = iv.augment(nu1, P("x^2+2"), Value.of((1, 1)))
        assert [st.gamma.rank for st in nu.steps] == [1, 2]
        assert nu.to_json()["steps"][0]["gamma"] == "1/2"
        assert chain_from_json(nu.to_json()) == nu
        assert nu(P("x")) == Value.of((F(1, 2), 0))
        chi = iv.enumerate_keys(nu2, 1)[0]
        for chain in (nu, iv.augment(nu2, chi, Value.of((nu2(chi).coords[0], 1)))):
            pre = chain._parent
            while pre is not None:
                i = pre.length
                assert pre == validate_chain(chain.steps[:i], chain.base)
                assert pre.steps == chain.steps[:i] and pre.rank == 1
                pre = pre._parent


class TestCanonicalMonomials:
    def test_examples(self, nu1, nu2, gauss2):
        assert nu1.ramification_data() == (2, Poly.constant(F(1, 2)))
        assert nu2.ramification_data() == (1, P("x").scale(F(1, 4)))
        assert gauss2.ramification_data() == (1, Poly.constant(F(1, 2)))
        assert nu1.canonical_monomial(Value.of(3)) == Poly.constant(8)
        assert nu2.canonical_monomial(Value.of(F(-3, 2))) == P("x").scale(F(1, 4))
        assert nu2.canonical_monomial(Value.of(F(1, 2))) == P("x")

    def test_not_representable(self, nu1):
        with pytest.raises(DomainError):
            nu1.canonical_monomial(Value.of(F(1, 3)))

    def test_incommensurable_ram_refused(self, nu_inf):
        with pytest.raises(DomainError):
            nu_inf.ramification_data()

    def test_value_and_degree(self, nu4):
        rng = random.Random(32)
        e, u = nu4.ramification_data()
        assert nu4(u * nu4.top.phi**e) == Value.of(0)
        for _ in range(25):
            c = rng.randrange(-6, 7)
            m = rng.randrange(0, 2)
            beta = Value.of(F(c) + F(m, 2))
            mono = nu4.canonical_monomial(beta)
            assert nu4(mono) == beta
            assert mono.degree < nu4.top_degree


class TestSemivaluation:
    def test_examples(self, nu1):
        assert key_semivaluation(nu1, P("x^2+2"), P("x")) == Value.of(F(1, 2))
        assert key_semivaluation(nu1, P("x^2+2"), P("x^2+2")).is_infinite
        assert key_semivaluation(nu1, P("x^2+2"), P("x^4+4")) == Value.of(3)

    def test_non_key_rejected(self, nu1):
        with pytest.raises(DomainError):
            key_semivaluation(nu1, P("x^2+x"), P("x"))

    def test_is_valuation_on_quotient(self, nu1, rand_poly):
        rng = random.Random(33)
        chi = P("x^2+2")
        for _ in range(50):
            f, g = rand_poly(rng, 7), rand_poly(rng, 7)
            wf = key_semivaluation(nu1, chi, f)
            wg = key_semivaluation(nu1, chi, g)
            wfg = key_semivaluation(nu1, chi, f * g)
            if not wf.is_infinite and not wg.is_infinite:
                assert wfg == wf + wg


class TestInvariantErrors:
    """Broken internal invariants raise InvariantError naming the chain,
    also under python -O."""

    def test_canonical_monomial_value(self, nu2, monkeypatch):
        monkeypatch.setattr(
            chains.InductiveValuation, "_val", lambda self, f, i: Value.of(7)
        )
        with pytest.raises(InvariantError, match=r"does not have the value 1/2"):
            nu2.canonical_monomial(Value.of(F(1, 2)))

    def test_incommensurable_argmin_tie(self, nu_inf, monkeypatch):
        # 1 + 2x on a one-step chain: forged monomial values put both
        # monomials into the argmin, as a tie of (0, 1) + 0*gamma and
        # (0, 0) + 1*gamma would
        monkeypatch.setattr(chains, "_monomial_values", lambda coeffs, gamma, value_of: [Value.of((0, 1))] * len(coeffs))
        with pytest.raises(InvariantError, match=r"argmin \(0, 1\) of 2\*x \+ 1 on the chain \[\(x, \(0, 1\)\)\]"):
            expansion_report(nu_inf, P("2x+1"))

    def test_decompose_argmin_off_the_grid(self, nu1, monkeypatch):
        # nu1 has e = 2, so a forged argmin {0, 1} is off the e-grid
        real = residual._expand

        def forged(levels, i, f):
            ex = real(levels, i, f)
            return ex._replace(argmin={0: (1, 1), 1: (1, 1)})

        monkeypatch.setattr(residual, "_expand", forged)
        with pytest.raises(InvariantError, match=r"of \[\(x, 1/2\)\] over v_2 is off the 2-grid"):
            iv.residual_poly(nu1, P("x+1"))
