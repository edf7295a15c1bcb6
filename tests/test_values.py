import random
from fractions import Fraction

import pytest

from indval import (
    INFINITY,
    DomainError,
    ParseError,
    ResourceError,
    Value,
    in_subgroup,
    is_commensurable,
    subgroup_index,
)
from indval.values import MAX_PARSE_DIGITS


def V(x):
    return Value.of(x)


class TestLexOrder:
    def test_examples(self):
        assert V((0, 1))._cmp(V((1, 0))) == -1
        assert V(Fraction(3, 2))._cmp(V(Fraction(3, 2))) == 0
        assert INFINITY._cmp(V((100, 0))) == 1

    def test_total_order_on_random_triples(self):
        rng = random.Random(11)

        def rv():
            if rng.random() < 0.1:
                return INFINITY
            r = rng.choice([1, 2])
            return Value([Fraction(rng.randrange(-9, 10), rng.randrange(1, 9)) for _ in range(r)])

        for _ in range(400):
            a, b, c = rv(), rv(), rv()
            # antisymmetry
            assert (a._cmp(b) == -b._cmp(a)) or (a == b and a._cmp(b) == 0)
            # transitivity
            if a <= b and b <= c:
                assert a <= c
            # totality
            assert a < b or a > b or a == b

    def test_infinity_maximal(self):
        assert INFINITY > V((10**9, 10**9))
        assert INFINITY == INFINITY
        assert not INFINITY < INFINITY


class TestCombine:
    def test_examples(self):
        assert V(Fraction(1, 2)).scaled(2) + V(1).scaled(1) == V(2)
        assert V((0, 1)).scaled(1) + V((1, 0)).scaled(1) == V((1, 1))
        assert (INFINITY.scaled(1) + V(1).scaled(1)).is_infinite

    def test_bilinear_commutative_exact(self):
        rng = random.Random(12)
        for _ in range(300):
            a = Fraction(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**6))
            b = Fraction(rng.randrange(-(10**6), 10**6), rng.randrange(1, 10**6))
            m, n = rng.randrange(-9, 10), rng.randrange(-9, 10)
            mn = V(a).scaled(m) + V(b).scaled(n)
            assert mn == V(m * a + n * b)
            assert mn == V(b).scaled(n) + V(a).scaled(m)
            assert V(a).scaled(2 * m) + V(b).scaled(n) == mn + V(m * a)

    def test_infinity_arithmetic(self):
        assert INFINITY + V(3) == INFINITY
        assert V((1, 2)) + INFINITY == INFINITY
        with pytest.raises(DomainError):
            -INFINITY


class TestSubgroupIndex:
    def test_examples(self):
        assert subgroup_index(Fraction(1, 2), [V(1)]) == 2
        assert subgroup_index(Fraction(3, 2), [V(1), V(Fraction(1, 2))]) == 1
        assert subgroup_index(V((0, 1)), [V((1, 0))]) is None

    def test_one_third_not_in_z(self):
        assert subgroup_index(Fraction(1, 3), [V(1)]) == 3
        assert subgroup_index(Fraction(5, 6), [V(1), V(Fraction(1, 2))]) == 3

    def test_rank2(self):
        assert subgroup_index(V((Fraction(1, 2), 0)), [V((1, 0)), V((0, 1))]) == 2
        assert subgroup_index(V((1, Fraction(1, 3))), [V((1, 0)), V((0, 1))]) == 3
        assert subgroup_index(V((0, 0)), [V((1, 0))]) == 1

    def test_scaling_property_and_reconstruction(self):
        rng = random.Random(13)
        for _ in range(200):
            rank = rng.choice([1, 2])

            def rv():
                return Value([Fraction(rng.randrange(-8, 9), rng.randrange(1, 7)) for _ in range(rank)])

            gens = [rv() for _ in range(rng.randrange(1, 4))]
            gamma = rv()
            e = subgroup_index(gamma, gens)
            if e is None:
                continue
            assert subgroup_index(gamma.scaled(e), gens) == 1
            assert in_subgroup(gamma.scaled(e), gens)
            # by minimality no smaller multiple lands in the subgroup
            for k in range(1, e):
                assert not in_subgroup(gamma.scaled(k), gens)

    def test_exhaustive_reconstruction_small(self):
        # verify e*gamma is an integer combination by brute-force search
        gens = [V(Fraction(1, 2)), V(Fraction(5, 3))]
        gamma = V(Fraction(7, 12))
        e = subgroup_index(gamma, gens)
        target = gamma.scaled(e)
        found = False
        for a in range(-40, 41):
            for b in range(-40, 41):
                if V(Fraction(a, 2) + Fraction(5 * b, 3)) == target:
                    found = True
        assert found


class TestCommensurable:
    def test_examples(self):
        assert is_commensurable(Fraction(3, 2), [V(1)])
        assert not is_commensurable(V((0, 1)), [V((1, 0))])
        assert is_commensurable(V((2, 0)), [V((1, 0))])

    def test_q_span(self):
        assert is_commensurable(V((Fraction(2, 3), Fraction(1, 3))), [V((2, 1))])
        assert not is_commensurable(V((Fraction(2, 3), Fraction(1, 2))), [V((2, 1))])
        assert is_commensurable(V((5, 7)), [V((1, 0)), V((0, 1))])


class TestParsePrint:
    def test_roundtrip(self):
        for text in ["3/2", "-7", "(1/2, -3)", "inf", "0"]:
            v = Value.parse(text)
            assert Value.parse(str(v)) == v

    def test_digit_cap(self):
        edge = "7" * MAX_PARSE_DIGITS
        assert Value.parse("1/" + edge) == Value.of(Fraction(1, int(edge)))
        assert Value.parse("1e-3") == Value.of(Fraction(1, 1000))
        assert Value.parse(f"1e{MAX_PARSE_DIGITS}") == Value.of(10**MAX_PARSE_DIGITS)
        for big in ["1/" + edge + "7", f"({edge}7, 1)", f"1e{MAX_PARSE_DIGITS + 1}", "1e-999999999", "1e9_999_999", "1e" + "1_" * 5000 + "1"]:
            with pytest.raises(ResourceError):
                Value.parse(big)
        with pytest.raises(ParseError):
            Value.parse("1/0")

    def test_rejects_rank3(self):
        with pytest.raises(DomainError):
            Value((1, 2, 3))
