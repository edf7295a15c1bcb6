import random
from fractions import Fraction

import pytest

from indval import (
    DomainError,
    PadicValuation,
    ParseError,
    Poly,
    ResourceError,
    Value,
)
from indval.basefield import MAX_PARSE_DEGREE, _is_prime
from indval.values import MAX_PARSE_DIGITS


class TestPadic:
    def test_value_examples(self):
        v2 = PadicValuation(2)
        assert v2.value(8) == Value.of(3)
        assert v2.value(Fraction(3, 4)) == Value.of(-2)
        assert v2.value(0).is_infinite

    def test_residue_examples(self):
        assert PadicValuation(2).residue(3) == 1
        assert PadicValuation(5).residue(Fraction(7, 3)) == 4
        with pytest.raises(DomainError):
            PadicValuation(2).residue(Fraction(1, 2))

    def test_residue_lift_inverse(self):
        v5 = PadicValuation(5)
        for z in range(5):
            assert v5.residue(v5.lift(z)) == z
        assert v5.residue(Fraction(12, 7) - v5.lift(v5.residue(Fraction(12, 7)))) == 0

    def test_valuation_axioms_random(self):
        rng = random.Random(3)
        v3 = PadicValuation(3)
        for _ in range(300):
            a = Fraction(rng.randrange(-500, 501), rng.randrange(1, 400))
            b = Fraction(rng.randrange(-500, 501), rng.randrange(1, 400))
            if a and b:
                assert v3.value(a * b) == v3.value(a) + v3.value(b)
            if a + b:
                assert v3.value(a + b) >= min(v3.value(a), v3.value(b))

    def test_residue_homomorphism(self):
        rng = random.Random(4)
        v7 = PadicValuation(7)
        for _ in range(200):
            a = Fraction(rng.randrange(-60, 61), rng.choice([1, 2, 3, 4, 5, 6, 8, 9]))
            b = Fraction(rng.randrange(-60, 61), rng.choice([1, 2, 3, 4, 5, 6, 8, 9]))
            assert v7.residue(a * b) == (v7.residue(a) * v7.residue(b)) % 7
            assert v7.residue(a + b) == (v7.residue(a) + v7.residue(b)) % 7

    def test_prime_check(self):
        with pytest.raises(DomainError):
            PadicValuation(6)
        with pytest.raises(DomainError):
            PadicValuation(1)
        PadicValuation(101)

    def test_miller_rabin_large_prime_and_pseudoprimes(self):
        assert _is_prime(2**61 - 1) and _is_prime(10**24 + 7)
        PadicValuation(2**61 - 1)
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
        # strong pseudoprimes to every prime base up to 7, up to 23 and up to 37
        strong = [3215031751, 3825123056546413051, 318665857834031151167461]
        for n in carmichael + strong + [2**61 + 1, (2**31 - 1) * (2**43 - 1)]:
            assert not _is_prime(n), n

    def test_miller_rabin_agrees_with_sympy(self):
        from sympy import isprime

        assert [n for n in range(-3, 5000) if _is_prime(n)] == [n for n in range(-3, 5000) if isprime(n)]
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randrange(2, 10**24) | 1
            assert _is_prime(n) == isprime(n), n

    def test_miller_rabin_refuses_past_its_bound(self):
        with pytest.raises(ResourceError):
            _is_prime(10**25 + 9)  # composite, but its least factor is 173
        with pytest.raises(ResourceError):
            PadicValuation(2**127 - 1)
        assert not _is_prime(10**30)  # a small factor still decides


class TestPolyDivmod:
    def test_examples(self):
        q, r = Poly.parse("x^4+4").divmod_monic(Poly.parse("x^2+2"))
        assert q == Poly.parse("x^2-2") and r == Poly.constant(8)
        assert q * Poly.parse("x^2+2") + r == Poly.parse("x^4+4")
        assert Poly.parse("x").divmod_monic(Poly.parse("x")) == (Poly.one(), Poly.zero())
        assert Poly.constant(5).divmod_monic(Poly.parse("x^2+2")) == (
            Poly.zero(),
            Poly.constant(5),
        )

    def test_requires_monic_nonconstant(self):
        with pytest.raises(DomainError):
            Poly.parse("x").divmod_monic(Poly.parse("2x"))
        with pytest.raises(DomainError):
            Poly.parse("x").divmod_monic(Poly.constant(3))

    def test_roundtrip_random(self):
        rng = random.Random(5)
        for _ in range(200):
            df, dg = rng.randrange(0, 31), rng.randrange(1, 16)
            f = Poly([Fraction(rng.randrange(-99, 100), rng.randrange(1, 9)) for _ in range(df + 1)])
            g = Poly([Fraction(rng.randrange(-99, 100), rng.randrange(1, 9)) for _ in range(dg)] + [Fraction(1)])
            q, r = f.divmod_monic(g)
            assert q * g + r == f
            assert r.is_zero or r.degree < g.degree


class TestPolyParsePrint:
    def test_grammar(self):
        assert Poly.parse("3*x^2 + x - 5") == Poly([-5, 1, 3])
        assert Poly.parse("3x^2+x-5") == Poly([-5, 1, 3])
        assert Poly.parse("1/2 * x^3") == Poly([0, 0, 0, Fraction(1, 2)])
        assert Poly.parse("-x") == Poly([0, -1])
        assert Poly.parse("7/3") == Poly.constant(Fraction(7, 3))

    def test_roundtrip(self):
        rng = random.Random(6)
        for _ in range(120):
            f = Poly([Fraction(rng.randrange(-30, 31), rng.randrange(1, 12)) for _ in range(rng.randrange(1, 9))])
            assert Poly.parse(str(f)) == f

    def test_rejects_junk(self):
        for bad in ["", "x +", "x^", "2**x", "y+1"]:
            with pytest.raises(ParseError):
                Poly.parse(bad)

    def test_exponent_cap(self):
        assert Poly.parse(f"x^{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE
        assert Poly.parse("x^007") == Poly.monomial(1, 7)
        for big in [f"x^{MAX_PARSE_DEGREE + 1}", "x^999999999 + 1", "3x^" + "9" * 5000]:
            with pytest.raises(ResourceError):
                Poly.parse(big)

    def test_digit_cap(self):
        edge = "9" * MAX_PARSE_DIGITS
        assert Poly.parse(edge + "x + 1/" + edge).coeff(1) == int(edge)
        for big in [edge + "9", "1/" + edge + "9", "x^2 + 3/" + "0" * 5000 + "1"]:
            with pytest.raises(ResourceError, match="decimal digits"):
                Poly.parse(big)

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            Poly.parse("x + 1/00")

    def test_zero_degree_marker(self):
        assert Poly.zero().degree is None
        assert Poly.constant(3).degree == 0

