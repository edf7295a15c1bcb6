import hashlib
import math
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import (
    gf_diff,
    gf_div,
    gf_factor,
    gf_gcd,
    gf_gcdex,
    gf_irreducible_p,
    gf_mul,
    gf_pow_mod,
    gf_quo,
    gf_rem,
)

from indval import (
    DomainError,
    InvariantError,
    ParseError,
    Poly,
    ResourceError,
    TowerField,
    TowerPoly,
    ff_factor,
    ff_is_irreducible,
    monic_irreducibles,
    tower_extend,
)
from indval.basefield import MAX_PARSE_DEGREE
from indval.values import MAX_PARSE_DIGITS
from indval import towers
from indval.towers import extend_with_root
from conftest import trim


@pytest.fixture(scope="module")
def F2():
    return TowerField(2)


@pytest.fixture(scope="module")
def F4(F2):
    return tower_extend(F2, TowerPoly.parse(F2, "y^2+y+1"))


@pytest.fixture(scope="module")
def F3():
    return TowerField(3)


@pytest.fixture(scope="module")
def F16(F4):
    return tower_extend(F4, TowerPoly(F4, [F4.generator(), F4.one(), F4.one()]))  # y^2 + y + z


@pytest.fixture(scope="module")
def F8(F2):
    return tower_extend(F2, TowerPoly.parse(F2, "y^3+y+1"))


@pytest.fixture(scope="module")
def F9(F3):
    return tower_extend(F3, TowerPoly.parse(F3, "y^2+1"))


@pytest.fixture(scope="module")
def F81(F9):
    # height 2 in odd characteristic, where + and - of the reduction differ
    return tower_extend(F9, TowerPoly.parse(F9, "y^2+[1,1]"))


def _random_monic(F, d, rng):
    return TowerPoly(F, [F.from_index(rng.randrange(F.order)) for _ in range(d)] + [F.one()])


def _first_irreducible(F, d):
    return next(psi for psi in monic_irreducibles(F, d) if psi.degree == d)


def _top_degree(F):
    """The largest degree over F that the work budget admits."""
    n = 1
    while True:
        try:
            towers._check_ff_work(TowerPoly(F, [F.zero()] * (n + 1) + [F.one()]))
        except ResourceError:
            return n
        n += 1


def _distinct_irreducibles(F, d, count, rng):
    """count distinct monic irreducibles of degree d, drawn at random."""
    out = []
    while len(out) < count:
        psi = _random_monic(F, d, rng)
        if psi not in out and ff_is_irreducible(psi):
            out.append(psi)
    return out


class TestExtend:
    def test_collapse_linear(self, F2):
        F, root = extend_with_root(F2, TowerPoly.parse(F2, "y+1"))
        assert F == F2
        assert root == F2.one()

    def test_quadratic(self, F2, F4):
        assert F4.order == 4
        assert F4.degree == 2

    def test_rejects_reducible(self, F2):
        with pytest.raises(DomainError):
            tower_extend(F2, TowerPoly.parse(F2, "y^2+1"))

    def test_nested_tower(self, F4):
        # an irreducible quadratic over F_4 gives a field of order 16
        z = F4.generator()
        psi = TowerPoly(F4, [z, F4.one(), F4.one()])  # y^2 + y + z
        assert ff_is_irreducible(psi)
        F16 = tower_extend(F4, psi)
        assert F16.order == 16
        assert F16.height == 2
        a = F16.generator().data
        assert F16._add(F16._mul(a, a), a) == F16.coerce(z).data


class TestArith:
    def test_examples(self, F4):
        z, one = F4.generator().data, F4._one
        assert F4._mul(z, F4._add(z, one)) == one
        assert F4._inv(z) == F4._add(z, one)
        assert F4._add(z, z) == F4._zero
        with pytest.raises(DomainError):
            F4._inv(F4._zero)

    @pytest.mark.parametrize("order_seed", [(4, 21), (9, 22), (8, 23), (16, 24), (256, 25), (81, 26)])
    def test_field_axioms_random(self, order_seed):
        order, seed = order_seed
        F2, F3 = TowerField(2), TowerField(3)
        F4 = tower_extend(F2, TowerPoly.parse(F2, "y^2+y+1"))
        if order == 4:
            F = F4
        elif order in (9, 81):
            F = tower_extend(F3, TowerPoly.parse(F3, "y^2+1"))
            if order == 81:  # height 2 in odd characteristic: F_9[y]/(y^2 + z + 1)
                F = tower_extend(F, TowerPoly.parse(F, "y^2+[1,1]"))
        elif order == 8:
            F = tower_extend(F2, TowerPoly.parse(F2, "y^3+y+1"))
        else:
            F = tower_extend(F4, TowerPoly.parse(F4, "y^2+y+[0,1]"))
            if order == 256:  # height 3: F_16[y] modulo an irreducible quadratic
                F = tower_extend(F, _first_irreducible(F, 2))
        assert F.order == order
        rng = random.Random(seed)
        add, mul = F._add, F._mul
        for _ in range(150):
            a, b, c = (F._from_index(rng.randrange(order)) for _ in range(3))
            assert add(add(a, b), c) == add(a, add(b, c))
            assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
            assert mul(mul(a, b), c) == mul(a, mul(b, c))
            if not F._is_zero(a):
                assert mul(a, F._inv(a)) == F._one

    def test_frobenius_fixed_field(self, F4):
        for a in map(F4._from_index, range(F4.order)):
            assert F4._pow(a, 4) == a

    def test_parse_print_roundtrip(self, F4):
        for a in map(F4.from_index, range(F4.order)):
            assert F4.parse_elem(str(a)) == a


def _index_of(data, p, degrees):
    """The index of raw element data by the nested digit rule: the sum of
    index(c_j) * |sub|^j over its coefficients c_j, for a tower over F_p
    with the given level degrees, bottom first."""
    if not degrees:
        return data
    sub_order = p ** math.prod(degrees[:-1])
    assert len(data) == degrees[-1]
    return sum(_index_of(c, p, degrees[:-1]) * sub_order**j for j, c in enumerate(data))


class TestElementOrder:
    """from_index is a fixed bijection: index = sum_j d_j * |sub|^j, d_j the
    index in the level below of coefficient j, constant coefficient first.
    The goldens and the order of enumerate_keys rest on it."""

    def test_height_one(self, F4):
        assert [str(F4.from_index(i)) for i in range(4)] == ["[0, 0]", "[1, 0]", "[0, 1]", "[1, 1]"]

    def test_height_two(self, F4, F16):
        assert F16.height == 2
        for i in range(16):
            a = F16.from_index(i)
            assert _index_of(a.data, 2, [2, 2]) == i
            low, high = (F16.coerce(F4.from_index(j)).data for j in (i % 4, i // 4))
            assert a.data == F16._add(low, F16._mul(F16.generator().data, high))
        assert str(F16.from_index(6)) == "[[0, 1], [1, 0]]"

    def test_height_three(self):
        # the order-256 tower of test_field_axioms_random
        F2 = TowerField(2)
        F4 = tower_extend(F2, TowerPoly.parse(F2, "y^2+y+1"))
        F16 = tower_extend(F4, TowerPoly.parse(F4, "y^2+y+[0,1]"))
        F256 = tower_extend(F16, _first_irreducible(F16, 2))
        assert (F256.height, F256.order) == (3, 256)
        assert [_index_of(F256.from_index(i).data, 2, [2, 2, 2]) for i in range(256)] == list(range(256))
        # 200 = 8 + 12 * 16, and 8 = 0 + 2 * 4, 12 = 0 + 3 * 4
        assert str(F256.from_index(200)) == "[[[0, 0], [0, 1]], [[0, 0], [1, 1]]]"

    def test_monic_irreducibles_order(self, F16):
        names = [str(psi) for psi in monic_irreducibles(F16, 2)]
        assert len(names) == 16 + 120
        assert names[:3] == ["y", "y + [[1, 0], [0, 0]]", "y + [[0, 1], [0, 0]]"]
        assert names[16:18] == ["y^2 + y + [[0, 0], [0, 1]]", "y^2 + y + [[1, 0], [0, 1]]"]
        digest = hashlib.sha256("\n".join(names).encode()).hexdigest()
        assert digest == "ebf05ed1e2412c31301abd1de009073feeba5300c1ac2eff26035fb5379e5558"


def _trial_division_irreducible(psi: TowerPoly) -> bool:
    """Brute-force oracle: no monic divisor of degree 1..deg/2."""
    F = psi.field
    n = psi.degree
    for d in range(1, n // 2 + 1):
        for idx in range(F.order**d):
            rest = idx
            coeffs = []
            for _ in range(d):
                coeffs.append(F.from_index(rest % F.order))
                rest //= F.order
            cand = TowerPoly(F, coeffs + [F.one()])
            if psi.divmod(cand)[1].is_zero:
                return False
    return True


class TestIrreducibility:
    def test_examples(self, F2):
        assert ff_is_irreducible(TowerPoly.parse(F2, "y^2+y+1"))
        assert not ff_is_irreducible(TowerPoly.parse(F2, "y^2+1"))
        assert ff_is_irreducible(TowerPoly.parse(F2, "y"))
        with pytest.raises(DomainError):
            ff_is_irreducible(TowerPoly.one(F2))

    def test_against_trial_division(self, F2, F3, F4, F9, F16):
        rng = random.Random(31)
        cases = []
        for F, maxdeg, count in ((F2, 6, 40), (F3, 5, 25), (F4, 4, 20), (F9, 4, 20), (F16, 4, 16)):
            for _ in range(count):
                d = rng.randrange(2, maxdeg + 1)
                cases.append(_random_monic(F, d, rng))
        for psi in cases:
            assert ff_is_irreducible(psi) == _trial_division_irreducible(psi), str(psi)

    def test_count_of_irreducibles_over_f2(self, F2):
        # necklace counts: 2, 1, 2, 3, 6 monic irreducibles of degree 1..5
        by_deg = {}
        for psi in monic_irreducibles(F2, 5):
            by_deg[psi.degree] = by_deg.get(psi.degree, 0) + 1
        assert by_deg == {1: 2, 2: 1, 3: 2, 4: 3, 5: 6}

    def test_enumeration_cap(self, F4):
        with pytest.raises(ResourceError):
            list(monic_irreducibles(F4, 9))
        with pytest.raises(ResourceError):  # refused without computing 4^(10^60)
            list(monic_irreducibles(F4, 10**60))


class TestFactor:
    def test_examples(self, F2):
        fac = ff_factor(TowerPoly.parse(F2, "y^2+1"), 0)
        assert [(str(g), m) for g, m in fac] == [("y + 1", 2)]
        fac = ff_factor(TowerPoly.parse(F2, "y^2+y"), 0)
        assert [(str(g), m) for g, m in fac] == [("y", 1), ("y + 1", 1)]
        fac = ff_factor(TowerPoly.parse(F2, "y^4+y^2+1"), 0)
        assert [(str(g), m) for g, m in fac] == [("y^2 + y + 1", 2)]

    def test_deterministic_across_seeds_after_sort(self, F2):
        psi = TowerPoly.parse(F2, "y^6+y^5+y^4+y^3+1")
        assert ff_factor(psi, 0) == ff_factor(psi, 0)
        a = [(str(g), m) for g, m in ff_factor(psi, 1)]
        b = [(str(g), m) for g, m in ff_factor(psi, 99)]
        assert a == b

    @pytest.mark.parametrize("seed", [0, 7])
    def test_remultiplication_random(self, F2, F3, F4, seed):
        rng = random.Random(1000 + seed)
        for F in (F2, F3, F4):
            for _ in range(60):
                d = rng.randrange(1, 13)
                coeffs = [F.from_index(rng.randrange(F.order)) for _ in range(d)]
                psi = TowerPoly(F, coeffs + [F.one()])
                prod = TowerPoly.one(F)
                for g, m in ff_factor(psi, seed):
                    assert ff_is_irreducible(g)
                    assert g.is_monic
                    prod = prod * g**m
                assert prod == psi

    def test_extension_fields_against_trial_division(self, F4, F8, F9, F16):
        rng = random.Random(37)
        for F, maxdeg in ((F9, 6), (F16, 5), (F8, 6)):
            for _ in range(15):
                psi = _random_monic(F, rng.randrange(1, maxdeg + 1), rng)
                prod = TowerPoly.one(F)
                for g, m in ff_factor(psi, 3):
                    assert g.is_monic and _trial_division_irreducible(g), str(g)
                    prod = prod * g**m
                assert prod == psi
        # products of 2-3 distinct irreducibles of one degree d: the
        # distinct-degree split leaves each whole to the trace split
        for F in (F4, F8, F16):
            for d in (2, 3):
                for count in (2, 3):
                    irr = _distinct_irreducibles(F, d, count, rng)
                    psi = TowerPoly.one(F)
                    for g in irr:
                        assert _trial_division_irreducible(g), str(g)
                        psi = psi * g
                    got = ff_factor(psi, rng.randrange(1000))
                    assert sorted(str(g) for g, _m in got) == sorted(map(str, irr))
                    assert all(m == 1 for _g, m in got)

    def test_high_degrees_against_plain_powering(self, F9, F16):
        # degrees where the rows come from the y^q multiplication map (F_16)
        # and past q (F_9), beyond the reach of trial division
        rng = random.Random(83)
        for F, degrees in ((F9, (8, 9, 10)), (F16, (15, 16, 17))):
            for n in degrees:
                psi = _random_monic(F, n, rng)
                factors = ff_factor(psi, n)
                prod = TowerPoly.one(F)
                for g, m in factors:
                    assert g.is_monic and _powering_irreducible(g), str(g)
                    prod = prod * g**m
                assert prod == psi
                assert ff_is_irreducible(psi) == (factors == [(psi, 1)]), str(psi)

    def test_printed_factors_digest(self, F2, F3, F4, F8, F9, F16):
        # seeded inputs, a third of them with a squared or p-th power
        # factor; the digest pins the printed factors and multiplicities
        rng = random.Random(2101)
        lines = []
        for F, top in ((F2, 12), (F3, 12), (F4, 9), (F8, 7), (F9, 7), (F16, 5)):
            for k in range(40):
                psi = _random_monic(F, rng.randrange(1, top + 1), rng)
                if k % 3 == 0:
                    psi = psi * _random_monic(F, rng.randrange(1, 3), rng) ** rng.choice((2, F.p))
                seed = rng.randrange(1000)
                lines.append(f"{psi} | {seed} | " + "; ".join(f"({g})^{m}" for g, m in ff_factor(psi, seed)))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "93b6eed3998da7e66402988cf213b377a598f38ca4fe3595da5897b076245f5a"

    def test_pth_power_multiplicities(self, F3):
        # (y+1)^9 over F_3 exercises the p-th-root branch twice
        psi = TowerPoly.parse(F3, "y+1") ** 9
        assert [(str(g), m) for g, m in ff_factor(psi, 0)] == [("y + 1", 9)]

    def test_constant_rejected(self, F2):
        with pytest.raises(DomainError):
            ff_factor(TowerPoly.one(F2), 0)


class TestTowerPolyParse:
    def test_bracket_coefficients(self, F4):
        z = F4.generator().data
        psi = TowerPoly(F4, [F4._add(z, F4._one), z, F4._one])
        assert TowerPoly.parse(F4, str(psi)) == psi
        assert TowerPoly.parse(F4, "y^2 + [0,1]*y + [1,1]") == psi

    def test_int_coefficients_coerce(self, F4):
        assert TowerPoly.parse(F4, "y+1") == TowerPoly(F4, [F4.one(), F4.one()])

    def test_exponent_cap(self, F2):
        assert TowerPoly.parse(F2, f"y^{MAX_PARSE_DEGREE}").degree == MAX_PARSE_DEGREE
        with pytest.raises(ResourceError):
            TowerPoly.parse(F2, f"y^{MAX_PARSE_DEGREE + 1} + 1")

    def test_digit_cap(self, F2, F4):
        edge = "9" * MAX_PARSE_DIGITS
        assert TowerPoly.parse(F2, f"y + {edge}") == TowerPoly.parse(F2, "y + 1")
        assert F4.parse_elem(f"[{edge}, 1]") == F4.parse_elem("[1, 1]")
        for big in ["y + " + edge + "9", "y + [" + edge + "9]"]:
            with pytest.raises(ResourceError, match="decimal digits"):
                TowerPoly.parse(F4, big)
        with pytest.raises(ResourceError, match="decimal digits"):
            F4.parse_elem("[1, " + edge + "9]")

    def test_deep_brackets(self, F4):
        with pytest.raises(ParseError):
            F4.parse_elem("[" * 100000 + "]" * 100000)


# One term in the grammar Poly.parse and TowerPoly.parse share, with the
# variable left as {v}: integer coefficients only, so that the x form read
# mod p must equal the y form over F_p.
_ws = st.sampled_from(["", " ", "  "])


@st.composite
def _term(draw, first):
    sign = draw(st.sampled_from(["", "+", "-"] if first else ["+", "-"]))
    coeff = draw(st.one_of(st.none(), st.integers(0, 40).map(str)))
    var = draw(st.sampled_from(["{v}", "{v}^"] if coeff is None else ["", "{v}", "{v}^"]))
    if var == "{v}^":
        var = "{v}" + draw(_ws) + "^" + draw(_ws) + str(draw(st.integers(0, 12)))
    star = draw(st.sampled_from(["", "*"])) if coeff is not None and var else ""
    parts = [sign, coeff or "", star, var]
    return draw(_ws).join(p for p in parts if p) + draw(_ws)


@st.composite
def _polynomial_text(draw):
    n = draw(st.integers(1, 6))
    return "".join([draw(_term(True))] + [draw(_term(False)) for _ in range(n - 1)])


class TestOneGrammar:
    """Poly.parse and TowerPoly.parse read one grammar (basefield._terms);
    only the coefficients they accept differ."""

    @pytest.mark.parametrize("text", ["1 0*{v}", "{v}^2+{v}+1 1", "1/ 2*{v}", "{v}^", "2*", "{v} 2"])
    def test_both_reject(self, F3, text):
        with pytest.raises(ParseError):
            Poly.parse(text.format(v="x"))
        with pytest.raises(ParseError):
            TowerPoly.parse(F3, text.format(v="y"))

    def test_exponent_zero_and_spaced_caret(self, F3):
        assert Poly.parse("x^0") == Poly.one() == Poly.parse("3 x^0 - 2")
        assert TowerPoly.parse(F3, "y^0") == TowerPoly.one(F3) == TowerPoly.parse(F3, "4 y^0")
        assert Poly.parse("x ^ 2") == Poly([0, 0, 1]) == Poly.parse("x^ 2")
        assert TowerPoly.parse(F3, "y ^ 2") == TowerPoly.parse(F3, "y^2") == TowerPoly.parse(F3, "y ^2")

    def test_field_specific_coefficients(self, F3, F4):
        with pytest.raises(ParseError):
            Poly.parse("[1]*x")
        with pytest.raises(ParseError):
            TowerPoly.parse(F3, "1/2*y")
        assert TowerPoly.parse(F4, "[1, 0] - [0,1]") == TowerPoly.parse(F4, "[1,1]")

    @settings(max_examples=150, deadline=None)
    @given(_polynomial_text(), st.sampled_from([2, 3, 5]))
    def test_x_mod_p_is_y_over_fp(self, text, p):
        f = Poly.parse(text.format(v="x"))
        assert f.den == 1
        assert TowerPoly.parse(TowerField(p), text.format(v="y")) == TowerPoly(TowerField(p), [c % p for c in f.num])


class TestSympyOracle:
    """ff_factor and ff_is_irreducible against sympy's galoistools over prime
    fields, on seeded random monic inputs of degree 1-16."""

    @staticmethod
    def _ints(poly):  # highest degree first, as galoistools expects
        p = poly.field.p
        return [ZZ(int(c.data) % p) for c in reversed(poly.elems())]

    @staticmethod
    def _cases(p):
        F = TowerField(p)
        rng = random.Random(5000 + p)
        for _ in range(40):
            d = rng.randrange(1, 17)
            yield TowerPoly(F, [F.from_index(rng.randrange(p)) for _ in range(d)] + [F.one()])

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_factor(self, p):
        for psi in self._cases(p):
            _lc, ref = gf_factor(self._ints(psi), p, ZZ)
            want = Counter({tuple(int(c) for c in g): m for g, m in ref})
            got = Counter({tuple(int(c) for c in self._ints(g)): m for g, m in ff_factor(psi, 7)})
            assert got == want, str(psi)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_irreducible(self, p):
        for psi in self._cases(p):
            assert ff_is_irreducible(psi) == gf_irreducible_p(self._ints(psi), p, ZZ), str(psi)


def _list_factor(F, psi, seed):
    """ff_factor's pairs from the same algorithms on the field's list ring
    alone, as (coeffs, mult)."""
    rng, out = random.Random(seed), []
    for sqf, mult in towers._squarefree_decomposition(F.ring, list(psi.coeffs)):
        for g, d, rows in towers._distinct_degree(F.ring, sqf):
            out += [(tuple(irr), mult) for irr in towers._equal_degree(F, rows, g, d, rng)]
    return sorted(out, key=lambda t: (len(t[0]), t[0]))


def _powering_irreducible(psi: TowerPoly) -> bool:
    """Rabin's test from plain powering mod psi, no Frobenius rows: psi of
    degree n is irreducible when y^(q^n) = y and gcd(y^(q^(n/l)) - y, psi) = 1
    for every prime l dividing n."""
    R, f, n = psi.field.ring, list(psi.coeffs), psi.degree
    frobs = [R.y]  # frobs[i] = y^(q^i) mod psi
    for _ in range(n):
        frobs.append(R.powmod(frobs[-1], R.q, f))
    primes = [ell for ell in range(2, n + 1) if n % ell == 0 and all(ell % k for k in range(2, ell))]
    return frobs[n] == R.rem(R.y, f) and all(len(R.gcd(R.sub(frobs[n // ell], R.y), f)) == 1 for ell in primes)


@st.composite
def _f2_product(draw):
    """A product over F_2 of 1-4 random monic factors, not necessarily
    irreducible, with multiplicities in {1, 2, 3, 4, 8}; degree <= 100."""
    F, room = TowerField(2), 100
    psi = TowerPoly.one(F)
    for _ in range(draw(st.integers(1, 4))):
        m = draw(st.sampled_from([m for m in (1, 2, 3, 4, 8) if m <= room]))
        d = draw(st.integers(1, room // m))
        g = TowerPoly(F, draw(st.lists(st.integers(0, 1), min_size=d, max_size=d)) + [1])
        psi, room = psi * g**m, room - d * m
        if not room:
            break
    return psi


class TestPackedF2:
    """Over F_2, ff_factor and ff_is_irreducible run on the packed ring.  Their
    results equal galoistools' and, pair for pair in the same order, those of
    the same algorithms on the F_2 list ring, up to the degree-100 edge of the
    budget."""

    @staticmethod
    def _check(psi, seed=0):
        ints = TestSympyOracle._ints
        got = ff_factor(psi, seed)
        assert [(g.coeffs, m) for g, m in got] == _list_factor(psi.field, psi, seed), str(psi)
        want = Counter({tuple(int(c) for c in g): m for g, m in gf_factor(ints(psi), 2, ZZ)[1]})
        assert Counter({tuple(int(c) for c in ints(g)): m for g, m in got}) == want, str(psi)
        assert ff_is_irreducible(psi) == gf_irreducible_p(ints(psi), 2, ZZ), str(psi)
        assert all(ff_is_irreducible(g) for g, _m in got)

    @settings(max_examples=60, deadline=None)
    @given(_f2_product(), st.integers(0, 999))
    def test_products_against_galoistools_and_the_list_routines(self, psi, seed):
        self._check(psi, seed)

    def test_powers_of_y_and_of_y_plus_one(self, F2):
        y, y1 = TowerPoly.parse(F2, "y"), TowerPoly.parse(F2, "y+1")
        for k in (1, 2, 3, 7, 8, 64, 100):
            self._check(y**k)
        for k in range(7):  # (y+1)^(2^k): a derivative of 0 at every step
            self._check(y1 ** (2**k))
        for a, b in ((1, 1), (2, 3), (5, 8), (16, 16), (37, 63)):
            self._check(y**a * y1**b)

    def test_same_degree_products_take_the_equal_degree_split(self, F2):
        # F_2 has two irreducible cubics, three quartics and six quintics
        for d, count in ((3, 2), (4, 3), (5, 6)):
            irr = [g for g in monic_irreducibles(F2, d) if g.degree == d]
            assert len(irr) == count
            psi = math.prod(irr[1:], start=irr[0])
            self._check(psi, d)
            self._check(psi * irr[0] ** 2, d)


def _to_gf(f):
    """Constant-first ints as galoistools' highest-first list, zeros stripped."""
    return [ZZ(c) for c in reversed(trim(f))]


def _from_gf(g):
    return [int(c) for c in reversed(g)]


@st.composite
def _kernel_pair(draw):
    p = draw(st.sampled_from([2, 3, 5, 7]))
    poly = st.lists(st.integers(0, p - 1), max_size=14).map(trim)
    return p, draw(poly), draw(poly)


@st.composite
def _packed_pair(draw):
    """Two polynomials over F_2 of up to 101 coefficients, trimmed lists."""
    poly = st.lists(st.integers(0, 1), max_size=101).map(trim)
    return draw(poly), draw(poly)


# level-1 fields F_4, F_8 and F_9: (p, modulus)
_LEVEL_ONE = {4: (2, "y^2+y+1"), 8: (2, "y^3+y+1"), 9: (3, "y^2+1")}


class TestKernelOracle:
    """The F_p[y] ring, the packed F_2[y] ring, and the level-1 element
    products and inverses built on the F_p ring, against sympy's
    galoistools."""

    @settings(max_examples=300, deadline=None)
    @given(_kernel_pair(), st.integers(1, 40))
    def test_products_divisions_and_gcds(self, case, n):
        p, f, g = case
        R, gf, gg = towers._PrimeLists(p), _to_gf(f), _to_gf(g)
        assert R.mul(f, g) == _from_gf(gf_mul(gf, gg, p, ZZ))
        assert R.gcd(f, g) == _from_gf(gf_gcd(gf, gg, p, ZZ))
        assert R.deriv(f) == _from_gf(gf_diff(gf, p, ZZ))
        if g:
            assert R.divmod(f, g) == (_from_gf(gf_quo(gf, gg, p, ZZ)), _from_gf(gf_rem(gf, gg, p, ZZ)))
            assert R.rem(f, g) == _from_gf(gf_rem(gf, gg, p, ZZ))
            assert R.powmod(f, n, g) == _from_gf(gf_pow_mod(gf, n, gg, p, ZZ))
        if f or g:
            s_ref, t_ref, d_ref = gf_gcdex(gf, gg, p, ZZ)
            s, d = R.gcdex(f, g)
            assert (s, d) == (_from_gf(s_ref), _from_gf(d_ref))
            if g:  # the cofactor t = (d - s*f) / g, exactly
                t, rest = R.divmod(R.sub(d, R.mul(s, f)), g)
                assert (t, rest) == (_from_gf(t_ref), [])

    @settings(max_examples=200, deadline=None)
    @given(_packed_pair())
    def test_packed_divisions_gcds_and_squares(self, case):
        # gf_mul's product checks the carry-less product and the exact
        # division, and gf_mul's square the Frobenius rows and the square root.
        f, g = case
        gf, gg = _to_gf(f), _to_gf(g)
        P, a, b = towers._PACKED, towers._pack(f), towers._pack(g)
        assert towers._unpack(a) == f
        product = towers._pack(_from_gf(gf_mul(gf, gg, 2, ZZ)))
        assert P.mul(a, b) == product
        if g:
            q, r = P.divmod(a, b)
            assert (towers._unpack(q), towers._unpack(r)) == tuple(map(_from_gf, gf_div(gf, gg, 2, ZZ)))
            assert P.rem(a, b) == r
            assert P.divmod(product, b) == (a, 0)
        assert towers._unpack(P.gcd(a, b)) == _from_gf(gf_gcd(gf, gg, 2, ZZ))
        assert towers._unpack(P.deriv(a)) == _from_gf(gf_diff(gf, 2, ZZ))
        square = towers._pack(_from_gf(gf_mul(gf, gf, 2, ZZ)))
        assert P.pth_root(square) == a
        if len(g) > 2:  # rows of a modulus of degree >= 2
            want = towers._pack(_from_gf(gf_rem(gf_mul(gf, gf, 2, ZZ), gg, 2, ZZ)))
            assert P.frob(towers._frobenius_rows(P, b), P.rem(a, b)) == want

    # Moduli of degree below q, equal to q and above it: up to q the rows
    # come from powering y once and multiplying, above q by shifting.
    @pytest.mark.parametrize("p, degrees", [(2, (1, 2, 3, 5, 12)), (3, (1, 2, 3, 4, 7, 12))])
    def test_frobenius_rows_are_powers_of_y(self, p, degrees):
        # row j of the rows of m is y^(qj) mod m, here q = p
        rng = random.Random(71 + p)
        for n in degrees:
            for _ in range(4):
                m = [rng.randrange(p) for _ in range(n)] + [1]
                gm = _to_gf(m)
                want = [_from_gf(gf_pow_mod([ZZ(1), ZZ(0)], p * j, gm, p, ZZ)) for j in range(n)]
                if p == 2:
                    rows = [towers._unpack(r) for r in towers._frobenius_rows(towers._PACKED, towers._pack(m))]
                else:
                    rows = towers._frobenius_rows(towers._PrimeLists(p), m)
                assert rows == want, m

    def test_frobenius_rows_over_extension_fields(self, F4, F16):
        # on the element-data rings, against the product path written with
        # TowerPoly: y^q mod m once, then each row the one before times it
        rng = random.Random(73)
        for F, degrees in ((F4, (2, 3, 4, 5, 9)), (F16, (2, 5, 16, 17))):
            y = TowerPoly.y(F)
            for n in degrees:
                m = _random_monic(F, n, rng)
                yq = (y**F.order).divmod(m)[1]
                want = [TowerPoly.one(F)]
                for _ in range(n - 1):
                    want.append((want[-1] * yq).divmod(m)[1])
                rows = towers._frobenius_rows(F.ring, list(m.coeffs))
                assert [TowerPoly(F, r) for r in rows] == want, str(m)

    def test_frobenius_rows_are_powers_of_y_on_every_ring(self, F2, F4, F9, F16):
        # row j of the rows of m is y^(qj) mod m on each ring, at degrees 2,
        # q - 1, q, q + 1 and q + 6 up to the largest the budget admits: the
        # shifted rows below q, those from the y^q multiplication map from q
        rng = random.Random(79)
        rings = [(towers._PACKED, F2, towers._pack)]
        rings += [(TowerField(p).ring, TowerField(p), list) for p in (3, 101)]
        rings += [(F.ring, F, list) for F in (F4, F9, F16)]
        for R, F, raw in rings:
            q = R.q
            degrees = sorted({min(n, _top_degree(F)) for n in (2, q - 1, q, q + 1, q + 6) if n >= 1})
            for n in degrees:
                m = raw(_random_monic(F, n, rng).coeffs)
                rows = towers._frobenius_rows(R, m)
                assert rows == [R.powmod(R.y, j * q, m) if j else R.unit for j in range(n)], (q, n)

    @settings(max_examples=200, deadline=None)
    @given(st.sampled_from(sorted(_LEVEL_ONE)), st.data())
    def test_level_one_products_and_inverses(self, order, data):
        p, modulus = _LEVEL_ONE[order]
        Fp = TowerField(p)
        F = tower_extend(Fp, TowerPoly.parse(Fp, modulus))
        m = _to_gf(F.moduli[0])
        a, b = (F.from_index(data.draw(st.integers(0, order - 1))) for _ in range(2))
        want = gf_rem(gf_mul(_to_gf(a.data), _to_gf(b.data), p, ZZ), m, p, ZZ)
        assert trim(F._mul(a.data, b.data)) == _from_gf(want)
        if not a.is_zero:
            s, _t, d = gf_gcdex(_to_gf(a.data), m, p, ZZ)
            assert _from_gf(d) == [1]
            assert trim(F._inv(a.data)) == _from_gf(s)

    @settings(max_examples=150, deadline=None)
    @given(_kernel_pair(), st.integers(1, 40), st.data())
    def test_element_data_ring_equals_the_prime_ring(self, case, n, data):
        # The element-data list ring serves every field above F_p.  Over F_p
        # itself it must agree, op for op, with the F_p ring that the oracle
        # above checks against galoistools.
        p, f, g = case
        F = TowerField(p)
        E, R = towers._Lists(F), F.ring
        assert type(R) is towers._PrimeLists
        for op in ("add", "sub", "mul"):
            assert getattr(E, op)(f, g) == getattr(R, op)(f, g), op
        assert E.gcd(f, g) == R.gcd(f, g)
        assert E.deriv(f) == R.deriv(f)
        if g:
            assert E.divmod(f, g) == R.divmod(f, g)
            assert E.rem(f, g) == R.rem(f, g) == R.divmod(f, g)[1]
        assert E.shift(f, n) == R.shift(f, n) == R.mul(f, [0] * n + [1])
        if f or g:
            assert E.gcdex(f, g) == R.gcdex(f, g)
        if len(g) > 1:
            m = R.monic(g)
            assert E.powmod(f, n, m) == R.powmod(f, n, m)
            rows = towers._frobenius_rows(R, m)
            assert towers._frobenius_rows(E, m) == rows
            assert E.frob(rows, R.rem(f, m)) == R.frob(rows, R.rem(f, m))

        # a^2 * b(y^p): squares and p-th powers for the squarefree
        # decomposition, whose parts go to the distinct-degree split
        small = st.lists(st.integers(0, p - 1), max_size=6).map(trim)
        a, b = data.draw(small), data.draw(small)
        spread = trim([b[i // p] if i % p == 0 else 0 for i in range(p * len(b))])
        assert E.pth_root(spread) == R.pth_root(spread) == b
        h = R.monic(R.mul(R.mul(a, a), spread))
        if len(h) > 1:
            parts = towers._squarefree_decomposition(R, h)
            assert towers._squarefree_decomposition(E, h) == parts
            for sqf, _m in parts:
                assert towers._distinct_degree(E, sqf) == towers._distinct_degree(R, sqf)


class TestWork:
    """Deterministic operation counts, taken by wrapping the counted routine."""

    @staticmethod
    def _count(monkeypatch, owner, name):
        calls = [0]
        inner = getattr(owner, name)

        def counted(*args):
            calls[0] += 1
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_monic_division_takes_no_inverse(self, monkeypatch, F16):
        rng = random.Random(41)
        f, g = _random_monic(F16, 7, rng), _random_monic(F16, 3, rng)
        calls = self._count(monkeypatch, TowerField, "_inv")
        q, r = f.divmod(g)
        assert calls[0] == 0
        assert F16.ring.add((q * g).coeffs, r.coeffs) == list(f.coeffs) and (r.degree or 0) < g.degree

    def test_repeated_inverse_takes_no_gcdex(self, monkeypatch, F4, F16):
        for F in (F4, F16):
            F = TowerField(F.p, F.moduli)  # an empty inverse table
            calls = self._count(monkeypatch, towers._Lists, "gcdex")
            units = [F._from_index(i) for i in range(1, F.order)]
            cold = [F._inv(a) for a in units]
            assert calls[0] >= F.order - 1
            calls[0] = 0
            assert [F._inv(a) for a in units] == cold
            assert calls[0] == 0

    @pytest.mark.parametrize("k", [0, 1, 2, 5])
    def test_power_of_two_is_k_squarings(self, monkeypatch, F4, k):
        f, m = _random_monic(F4, 5, random.Random(43)), _random_monic(F4, 4, random.Random(44))
        want = (f ** (2**k)).divmod(m)[1]
        calls = self._count(monkeypatch, towers._Lists, "mul")
        got = F4.ring.powmod(list(f.coeffs), 2**k, list(m.coeffs))
        assert calls[0] == k
        assert TowerPoly(F4, got) == want

    def test_tower_multiplications_halved(self, monkeypatch, F4, F16):
        # Commit 477e373 made 141,461 calls here: it powered afresh by q for
        # every Frobenius step, inverted the leading coefficient of every
        # divisor and squared once past the top bit.
        rng = random.Random(61)
        cases = [
            _random_monic(F, d, rng) for F, top in ((F4, 8), (F16, 5))
            for d in range(1, top + 1) for _ in range(2)
        ]
        # The parent of the lean element products made 67,751: it recursed
        # into F_p for every product over F_4 and multiplied by zero.  The
        # parent of the F_p[y] integer kernel made 18,956: each division step
        # also multiplied by the divisor's lead, and an inverse in F_4 made
        # its products in F_p one coefficient at a time.  The parent of the
        # shifted Frobenius rows made 13,908: it built each row over F_4 of
        # degree above 4 as a product mod m.  Now 13,028.
        calls = self._count(monkeypatch, TowerField, "_mul")
        for psi in cases:
            assert all(ff_is_irreducible(g) for g, _m in ff_factor(psi, 3))
        assert calls[0] <= 0.15 * 141_461

    def test_frobenius_rows_by_shifting_make_no_products(self, monkeypatch, F2, F4):
        # With q < deg m each row is the one before shifted by q: no product,
        # no powering and no application of the rows.  With q >= deg m, one
        # powering of y, then each row past y^q one application of the
        # y^q multiplication map: n - 2 frob calls and no product outside
        # the powering.
        rng = random.Random(47)
        rings = [(towers._PACKED, F2, towers._pack), (towers._PrimeLists(3), TowerField(3), list), (F4.ring, F4, list)]
        for R, F, raw in rings:
            kind, calls, powering = type(R), Counter(), [0]
            powmod = kind.powmod

            def counted_powmod(*args):
                calls["powmod"] += 1
                powering[0] += 1
                try:
                    return powmod(*args)
                finally:
                    powering[0] -= 1

            def counter(name, inner):
                def counted(*args):
                    if not powering[0]:
                        calls[name] += 1
                    return inner(*args)

                return counted

            monkeypatch.setattr(kind, "powmod", counted_powmod)
            for name in ("mul", "frob"):
                monkeypatch.setattr(kind, name, counter(name, getattr(kind, name)))
            for n in (2, R.q, R.q + 1, R.q + 6):
                calls.clear()
                rows = towers._frobenius_rows(R, raw(_random_monic(F, n, rng).coeffs))
                assert len(rows) == n
                work = (calls["powmod"], calls["mul"], calls["frob"])
                assert work == ((0, 0, 0) if n > R.q else (1, 0, n - 2)), (R.q, n)

    def test_squarefree_input_takes_one_gcd(self, monkeypatch, F2, F3, F4):
        # gcd(f, f') = 1 ends the decomposition: [(f, 1)] and no more gcds
        calls = self._count(monkeypatch, towers._Ring, "gcd")
        rng = random.Random(53)
        for F in (F2, F3, F4):
            irr = _distinct_irreducibles(F, 3, 2, rng) + _distinct_irreducibles(F, 2, 1, rng)
            R, f = towers._factor_ring(math.prod(irr[1:], start=irr[0]))
            calls[0] = 0
            assert towers._squarefree_decomposition(R, f) == [(f, 1)]
            assert calls[0] == 1

    @pytest.mark.parametrize("p", [2, 3])
    def test_prime_field_makes_no_element_calls(self, monkeypatch, p):
        # Over F_p every polynomial routine runs on the F_p ring (or, over
        # F_2, the packed ring): no coefficient goes through the tower's
        # element arithmetic, not even a p-th root.  The seeds give a repeated
        # factor and two cubics for the equal-degree split: (y^2+y+1)^3 times
        # two cubics over F_2, a square of a linear factor, two cubics and a
        # quartic over F_3.  The second input has a p-th power factor, so the
        # squarefree decomposition takes a p-th root.
        F = TowerField(p)
        y1 = TowerPoly.parse(F, "y+1")
        cases = [
            (_random_monic(F, 12, random.Random({2: 25, 3: 26}[p])), [2, 3, 3] if p == 2 else [1, 3, 3, 4]),
            (y1**p * TowerPoly.parse(F, {2: "y^2+y+1", 3: "y^2+1"}[p]), [1, 2]),
        ]
        names = ("_mul", "_add", "_sub", "_neg", "_inv", "_pow")
        calls = [self._count(monkeypatch, TowerField, name) for name in names]
        for psi, degrees in cases:
            factors = ff_factor(psi, 5)
            assert all(ff_is_irreducible(g) for g, _m in factors)
            assert dict(zip(names, [c[0] for c in calls])) == dict.fromkeys(names, 0)
            assert sorted(g.degree for g, _m in factors) == degrees
            prod = TowerPoly.one(F)
            for g, m in factors:
                prod = prod * g**m
            assert prod == psi

    def test_f2_takes_the_list_kernel_only_in_the_equal_degree_split(self, monkeypatch, F2):
        # Over F_2 the squarefree decomposition, the distinct-degree split and
        # the irreducibility test run on the packed ring, so the F_2 list
        # ring's arithmetic and algorithms run only inside _equal_degree.
        # The seed-25 input is (y^2+y+1)^3 times the two cubics, whose product
        # the equal-degree split takes apart.
        psi = _random_monic(F2, 12, random.Random(25))
        depth, inside, outside = [0], Counter(), Counter()
        split = towers._equal_degree

        def counted_split(*args):
            depth[0] += 1
            try:
                return split(*args)
            finally:
                depth[0] -= 1

        def counter(name, inner, lists=lambda args: True):
            def counted(*args):
                if lists(args):
                    (inside if depth[0] else outside)[name] += 1
                return inner(*args)

            return counted

        monkeypatch.setattr(towers, "_equal_degree", counted_split)
        ring = type(F2.ring)
        for name in ("add", "sub", "mul", "divmod", "rem", "gcd", "powmod", "monic", "frob", "deriv", "pth_root"):
            monkeypatch.setattr(ring, name, counter(name, getattr(ring, name)))
        rows = towers._frobenius_rows
        monkeypatch.setattr(towers, "_frobenius_rows", counter("rows", rows, lambda args: args[0] is not towers._PACKED))
        factors = ff_factor(psi, 5)
        assert all(ff_is_irreducible(g) for g, _m in factors)
        assert [(g.degree, m) for g, m in factors] == [(2, 3), (3, 1), (3, 1)]
        assert outside == Counter() and inside["divmod"] > 0

    def test_characteristic_two_trace_from_the_rows(self, monkeypatch, F4):
        # y^30 + y + 1 is two irreducibles of degree 15 over F_4.  Squaring
        # out the trace took 29 powerings mod f in each of the 8 trials, plus
        # 1 for the rows: 233.  From the rows it takes k - 1 = 1 per trial.
        psi = TowerPoly.parse(F4, "y^30+y+1")
        powmods = self._count(monkeypatch, towers._Ring, "powmod")
        draws = self._count(monkeypatch, towers, "_random_poly")
        factors = ff_factor(psi, 0)
        assert powmods[0] <= 10
        assert draws[0] == 8
        assert [(g.degree, m) for g, m in factors] == [(15, 1), (15, 1)]
        assert factors[0][0] * factors[1][0] == psi


class TestInverseTable:
    """Each field keeps the inverses it has taken, up to _CACHE_SIZE of them;
    an error is never kept."""

    @staticmethod
    def _fresh(F):
        return TowerField(F.p, F.moduli)  # equal to F, with an empty table

    def test_every_unit_cold_and_warm(self, F4, F9, F16, F81):
        for F in (F4, F9, F16, F81):
            F = self._fresh(F)
            units = [F._from_index(i) for i in range(1, F.order)]
            for _ in range(2):
                assert all(F._is_one(F._mul(a, F._inv(a))) for a in units), F
            assert len(F._invs) == F.order - 1

    def test_the_table_is_capped(self):
        # y^13 + y^4 + y^3 + y + 1 is irreducible over F_2: a field of order
        # 2^13 keeps the first _CACHE_SIZE of its 8,191 inverses
        F2 = TowerField(2)
        F = tower_extend(F2, TowerPoly.parse(F2, "y^13+y^4+y^3+y+1"))
        assert towers._CACHE_SIZE == 4096 < F.order - 1
        for i in range(1, F.order):
            a = F._from_index(i)
            assert F._is_one(F._mul(a, F._inv(a)))
        assert len(F._invs) == towers._CACHE_SIZE
        a = F._from_index(F.order - 1)  # past the cap, still right
        assert F._is_one(F._mul(a, F._inv(a))) and len(F._invs) == towers._CACHE_SIZE

    def test_errors_are_raised_on_every_call(self):
        # y^2 + 1 = (y + 1)^2 over F_2: y + 1 has no inverse mod it
        F = TowerField(2, [(1, 0, 1)])
        for _ in range(3):
            with pytest.raises(DomainError, match="inverse of zero"):
                F._inv(F._zero)
            with pytest.raises(InvariantError, match="not irreducible"):
                F._inv(F._from_index(3))
        assert F._invs == {}
        assert F._is_one(F._inv(F._one)) and len(F._invs) == 1


class TestSharedData:
    """TowerPoly takes its coefficient data from a bounded cache, and
    ff_factor its (factor, multiplicity) pairs, as chain values come from
    values._value_of."""

    PSI = "y^5 + [[0,1],[1]]*y^2 + y + [[1,1],[0,1]]"

    def test_equal_factorizations_share_coefficient_data(self, F16):
        psi = TowerPoly.parse(F16, self.PSI)
        a, b = ff_factor(psi, 1), ff_factor(psi, 2)
        assert a == b and len(a) > 1
        assert all(x is y for x, y in zip(a, b))
        # a polynomial built separately from parsed text shares the data
        for g, _m in a:
            again = TowerPoly.parse(F16, str(g))
            assert again == g and again is not g
            assert all(x is y for x, y in zip(again.coeffs, g.coeffs))

    def test_fresh_data_compare_hash_and_print_alike(self, F16):
        psi = TowerPoly.parse(F16, self.PSI)
        a = ff_factor(psi, 1)
        towers._shared_data.cache_clear()
        towers._shared_factor.cache_clear()
        c = ff_factor(psi, 1)
        assert all(g is not h for (g, _m), (h, _n) in zip(a, c))
        assert any(x is not y for (g, _m), (h, _n) in zip(a, c) for x, y in zip(g.coeffs, h.coeffs))
        assert c == a and list(map(hash, c)) == list(map(hash, a))
        assert [(str(g), m) for g, m in c] == [(str(g), m) for g, m in a]

    def test_caches_are_bounded(self):
        for cache in (towers._shared_data, towers._shared_factor):
            maxsize = cache.cache_info().maxsize
            assert maxsize is not None and 0 < maxsize <= 4096


class TestWorkBudget:
    @pytest.mark.parametrize("fn", [ff_is_irreducible, ff_factor])
    def test_past_the_budget_is_refused(self, F2, F16, fn):
        # degree 100 over F_2 and 17 over F_16 are the largest admitted
        for F, n in ((F2, 100), (F16, 17)):
            towers._check_ff_work(TowerPoly.parse(F, f"y^{n}+y+1"))
            with pytest.raises(ResourceError, match="work budget"):
                fn(TowerPoly.parse(F, f"y^{n + 1}+y+1"))

    def test_cap_sized_degree_is_refused_at_once(self, F2):
        psi = TowerPoly.parse(F2, f"y^{MAX_PARSE_DEGREE}+y+1")
        with pytest.raises(ResourceError, match="field operations"):
            ff_is_irreducible(psi)
