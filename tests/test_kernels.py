"""The integer kernels pinned against the reference algorithms they replace.

* digit tables against the greedy subgroup search of ``digit_vector``;
* integer-content ``Poly`` arithmetic and expansion against
  Fraction-per-coefficient references, and every caller of the level-one
  loop (chain values, expansion reports, stability scans, limit values)
  against the Fraction reference of ``conftest``;
* the residual recursion: one ``_decompose`` per level on the ``y+1`` ladder,
  and its integer values and argmin sets against the chain's;
* group data read from the digit table against the lattice search of
  ``values``, and the one monomial-value kernel seen from every caller.
"""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import indval as iv
import indval.basefield as basefield
import indval.residual as residual
from indval.values import _value_of
from indval import (
    DomainError,
    IndvalError,
    Poly,
    Value,
    expansion_report,
    in_subgroup,
    is_commensurable,
    limit_augment,
    phi_expansion,
    stability,
    subgroup_index,
)
from conftest import ref_divmod, ref_expansion, ref_linear_report, trim
from test_augmentation import _full_scan, _sqrt17_family


@pytest.fixture(scope="module")
def nu8(nu4):
    """nu4 + (third key of degree 8, 29/6): e = 2, 2, 3."""
    return iv.augment(nu4, iv.enumerate_keys(nu4, 1)[2], Fraction(29, 6))


@pytest.fixture(scope="module")
def nu2_inf(v2):
    """[(x, 1/2), (x^2+2, (3/2, 1))]: rank 2 above a commensurable level."""
    return iv.validate_chain([("x", Fraction(1, 2)), ("x^2+2", Value.of((Fraction(3, 2), 1)))], v2)


# ---------------------------------------------------------------------------
# Digit tables
# ---------------------------------------------------------------------------


def gens_below(nu, i):
    """Generators, in the chain's rank, of the value group of polynomials of
    degree < deg(phi_i): v(p) = 1 and gamma_1, ..., gamma_{i-1}."""
    return tuple(g.embed(nu.rank, major=True) for g in (Value.of(1), *(st_.gamma for st_ in nu.steps[: i - 1])))


def greedy_digits(nu, beta, i):
    """The former digit_vector: greedy descent with the lattice search."""
    exps = [0] * i
    rem = beta
    for j in range(i - 1, 0, -1):
        gens_j = gens_below(nu, j)
        gamma_j = nu.steps[j - 1].gamma.embed(nu.rank, major=True)
        for m in range(subgroup_index(gamma_j, gens_j)):
            cand = rem + gamma_j.scaled(-m)
            if in_subgroup(cand, gens_j):
                exps[j] = m
                rem = cand
                break
        else:
            raise DomainError("not in the group")
    rem = rem.demote()
    if rem.rank != 1 or rem.coords[0].denominator != 1:
        raise DomainError("not in the group")
    exps[0] = int(rem.coords[0])
    return tuple(exps)


def random_betas(nu, rng, count):
    """Values on and off the chain's groups, in the chain's rank."""
    dens = {1}
    for st_ in nu.steps:
        g = st_.gamma.demote()
        if g.rank == 1:
            dens |= {d * g.coords[0].denominator for d in list(dens)}
    dens |= {3 * d for d in dens} | {5, 7}
    out = []
    for _ in range(count):
        q = Fraction(rng.randrange(-60, 61), rng.choice(sorted(dens)))
        out.append(Value.of(q).embed(nu.rank, major=True))
    if nu.rank == 2:
        out += [Value.of((1, 1)), Value.of((Fraction(1, 2), -3))]
    return out


def check_tables(nu, rng, count=60):
    for i in range(1, nu.length + 1):
        for beta in random_betas(nu, rng, count):
            try:
                want = greedy_digits(nu, beta, i)
            except DomainError:
                with pytest.raises(DomainError):
                    nu.digit_vector(beta, level=i)
                continue
            assert nu.digit_vector(beta, level=i) == want


def test_digit_table_on_the_ladder(ladder):
    rng = random.Random(41)
    for nu in ladder:
        check_tables(nu, rng)


@pytest.mark.parametrize("name", ["nu1", "nu2", "nu3p", "nu4", "gauss2", "nu_inf", "nu8", "nu2_inf"])
def test_digit_table_on_fixture_chains(request, name):
    check_tables(request.getfixturevalue(name), random.Random(name))


def test_digit_table_rows(nu8):
    rows = nu8._digit_table()
    gammas = [st_.gamma for st_ in nu8.steps]
    assert [e for e, _, _, _ in rows] == [subgroup_index(gammas[j - 1], gens_below(nu8, j)) for j in range(1, 4)] == [2, 2, 3]
    for j, (e, D, g, inv) in enumerate(rows, 1):
        assert nu8.steps[j - 1].gamma == Value.of(Fraction(g, D))
        assert g * inv % e == 1 % e


def test_digit_vector_rejects_values_off_the_group(nu2, nu_inf):
    with pytest.raises(DomainError):
        nu2.digit_vector(Value.of(Fraction(1, 4)))
    with pytest.raises(DomainError):
        nu2.digit_vector(iv.INFINITY)
    with pytest.raises(DomainError):
        nu_inf.digit_vector(Value.of((0, 1)))


# ---------------------------------------------------------------------------
# Integer-content Poly against Fraction-per-coefficient references
# ---------------------------------------------------------------------------


def ref_add(a, b):
    n = max(len(a), len(b))
    return trim([(a[k] if k < len(a) else 0) + (b[k] if k < len(b) else 0) for k in range(n)])


def ref_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return trim(out)


# numerators past 2^63 exercise the tuple form of Poly.num beside the array form
rationals = st.one_of(
    st.fractions(min_value=-50, max_value=50, max_denominator=12),
    st.integers(-(2**70), 2**70).map(Fraction),
)
coeff_lists = st.lists(rationals, max_size=12)
monic_lists = st.lists(rationals, min_size=1, max_size=5).map(lambda cs: cs + [Fraction(1)])


@settings(max_examples=150, deadline=None)
@given(coeff_lists, coeff_lists, rationals, st.integers(0, 3))
def test_poly_ring_ops_match_reference(a, b, c, n):
    f, g = Poly(a), Poly(b)
    a, b = trim(a), trim(b)
    assert f.coeffs == tuple(a) and g.coeffs == tuple(b)
    assert (f + g).coeffs == tuple(ref_add(a, b))
    assert (f - g).coeffs == tuple(ref_add(a, [-x for x in b]))
    assert (f * g).coeffs == tuple(ref_mul(a, b))
    assert f.scale(c).coeffs == tuple(trim([c * x for x in a]))
    want = [Fraction(1)]
    for _ in range(n):
        want = ref_mul(want, a)
    assert (f**n).coeffs == tuple(want)


# x - 1/2: a monic linear key with a rational root, expanded through x = y/2
@example([], [Fraction(-1, 2), Fraction(1)])
@example([Fraction(1), Fraction(2), Fraction(3)], [Fraction(-1, 2), Fraction(1)])
@example([Fraction(1, 3), Fraction(0), Fraction(-5, 7), Fraction(0), Fraction(2**70)], [Fraction(-1, 2), Fraction(1)])
# the paths that the one division loop merges: synthetic division with a large
# shift, keys with interior zero coefficients, a rational key of degree 2,
# numerators past 2^63 (tuple storage), f = phi, deg f < deg phi and f = 0
@example([Fraction(3), Fraction(-1), Fraction(4), Fraction(1), Fraction(-5), Fraction(9)], [Fraction(2**40), Fraction(1)])
@example([Fraction(k) for k in range(1, 10)], [Fraction(2), Fraction(0), Fraction(1)])
@example([Fraction(k) for k in range(-6, 6)], [Fraction(4), Fraction(0), Fraction(2), Fraction(0), Fraction(1)])
@example([Fraction(1, 2), Fraction(5), Fraction(-3), Fraction(0), Fraction(7, 5), Fraction(1)], [Fraction(1, 3), Fraction(0), Fraction(1)])
@example([Fraction(2**70 + 1), Fraction(-(2**66)), Fraction(3), Fraction(2**64)], [Fraction(2**65), Fraction(1), Fraction(1)])
@example([Fraction(2), Fraction(0), Fraction(1)], [Fraction(2), Fraction(0), Fraction(1)])
@example([Fraction(5), Fraction(-1, 3)], [Fraction(2), Fraction(0), Fraction(1)])
@example([], [Fraction(1), Fraction(1)])
@settings(max_examples=150, deadline=None)
@given(coeff_lists, monic_lists)
def test_poly_division_and_expansion_match_reference(a, g):
    f, phi = Poly(a), Poly(g)
    a = trim(a)
    q, r = f.divmod_monic(phi)
    rq, rr = ref_divmod(a, g)
    assert (q.coeffs, r.coeffs) == (tuple(rq), tuple(rr))
    got = [c.coeffs for c in phi_expansion(f, phi)]
    assert got == [tuple(c) for c in ref_expansion(a, g)]


@settings(max_examples=100, deadline=None)
@given(coeff_lists, st.lists(rationals, min_size=1, max_size=4).filter(lambda cs: cs[-1] != 0))
def test_poly_general_division(a, b):
    f, g = Poly(a), Poly(b)
    q, r = f._divmod_any(g)
    assert q * g + r == f
    assert r.is_zero or r.degree < g.degree


@settings(max_examples=100, deadline=None)
@given(coeff_lists, st.integers(1, 30))
def test_equal_polynomials_have_one_representation(a, k):
    f = Poly(a)
    scaled = Poly.from_ints([n * k for n in f.num], f.den * k)
    assert (scaled.num, scaled.den) == (f.num, f.den) and hash(scaled) == hash(f)
    back = (f + Poly([Fraction(1, k), 3])) - Poly([Fraction(1, k), 3])
    assert (back.num, back.den) == (f.num, f.den) and hash(back) == hash(f)
    assert f.den > 0 and (not f.num or f.num[-1] != 0)
    wide = Poly([2**64]) * f
    assert wide.scale(Fraction(1, 2**64)) == f and hash(wide.scale(Fraction(1, 2**64))) == hash(f)


LINEAR_CHAINS = [
    (2, "x", Fraction(1, 2)),
    (2, "x-3", Fraction(5, 3)),
    (3, "x+7", Fraction(2, 5)),
    (5, "x-1", 1),
    (2, "x-1", (0, 1)),
    (3, "x + 1/2", Fraction(3, 2)),  # fractional root: the change of variable x = y/2
    # gamma_1 <= 0: the loop cannot stop early and reads every digit
    (2, "x - 1/2", Fraction(-1, 2)),
    (2, "x", 0),
    (2, "x - 1/4", (-2, -1)),
    # rank 2 with gamma_1 > 0 but a negative minor coordinate: the stop rule
    # compares pairs
    (3, "x - 1/3", (1, -1)),
]


@pytest.fixture(scope="module")
def level_one(v2, lam):
    """The one-step chains of LINEAR_CHAINS, two degree-1 families, and the
    limit valuations of x+2 over lam with a rank-2 and a rank-1 gamma."""
    chains = [iv.validate_chain([(phi, Value.of(gamma))], iv.PadicValuation(p)) for p, phi, gamma in LINEAR_CHAINS]
    limits = [limit_augment(lam, Poly.parse("x+2"), Value.of(g)) for g in ((1, 0), Fraction(201, 2))]
    return chains, (lam, _sqrt17_family(v2, 6)), limits


# constants: the loop's one-digit case, on every caller
@example([Fraction(3)])
@example([Fraction(-20, 9)])
@example([Fraction(0), Fraction(2), Fraction(1)])
# zero low digits: in x, in x - 1/2 and in x - 1, so the loop starts without a
# minimum
@example([Fraction(0), Fraction(0), Fraction(0), Fraction(5)])
@example([Fraction(1, 4), Fraction(-1), Fraction(1)])
@example([Fraction(2), Fraction(-3), Fraction(0), Fraction(1)])
@settings(max_examples=100, deadline=None)
@given(st.lists(rationals, min_size=1, max_size=12).filter(lambda cs: any(cs)))
def test_level_one_value_matches_reference(level_one, a):
    """Every caller of the level-one loop against the Fraction reference:
    chain values, shared for repeated input; every field of the expansion
    report; stability scans along two degree-1 families; limit values of a
    linear key, with the stable values in the minor coordinate at rank 2."""
    f = Poly(a)
    chains, families, limits = level_one
    for nu in chains:
        digits, vals, mu, idx = ref_linear_report(nu, f)
        assert nu._val(f, 1) == mu and nu._val(f, 1).rank == nu.rank
        assert nu(f) == mu and nu(f).rank == nu.rank and nu(f) is nu(f)
        rep = expansion_report(nu, f)
        assert [c.coeffs for c in rep.coeffs] == [tuple(d) for d in digits]
        # values of different rank do not compare, so == checks the ranks too
        assert rep.monomial_values == tuple(vals)
        assert rep.mu == mu and rep.indices == idx and (rep.s, rep.s_prime) == (idx[0], idx[-1])
    for chain in families:
        got, want = stability(chain, f), _full_scan(chain, f)
        assert got == want and [v.rank for v in got.values] == [v.rank for v in want.values]
    for lim in limits:
        digits = ref_expansion(trim(a), list(lim.phi.coeffs))
        want = min(
            lim.chain.base.value(d[0]).embed(lim.rank, major=False) + lim.gamma.scaled(s) for s, d in enumerate(digits) if d
        )
        assert lim(f) == want and lim(f).rank == lim.rank and lim(f) is lim(f)


# ---------------------------------------------------------------------------
# Residual recursion
# ---------------------------------------------------------------------------


def test_decompose_runs_once_per_level(ladder, monkeypatch):
    calls = []
    inner = residual._decompose

    def counted(*args, **kwargs):
        calls.append(args[1])
        return inner(*args, **kwargs)

    monkeypatch.setattr(residual, "_decompose", counted)
    rng = random.Random(5)
    for depth, nu in enumerate(ladder, 1):
        n = nu.top_degree
        for _ in range(6):
            cs = [Fraction(rng.randrange(-100, 101), rng.choice((1, 1, 1, 3, 7))) for _ in range(2 * n)]
            cs[-1] = cs[-1] or Fraction(1)
            calls.clear()
            iv.decompose(nu, Poly(cs))
            assert sorted(calls) == list(range(1, depth + 1))


@pytest.fixture(scope="module")
def residual_levels(nu1, nu2, nu4, ram3, ladder):
    """(levels, i) for every residual level i of the chains below; ram3 has
    e_2 = 1 and the ladder's depth-5 chain e_i = 2 at every level."""
    return [(nu._levels, i) for nu in (nu1, nu2, nu4, ram3, ladder[-1]) for i in range(1, nu.length + 1)]


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_integer_expansion_matches_the_chain(residual_levels, data):
    """The integer value of ``residual._expand`` at level i, read in units of
    1/(D_i*e_i), is the prefix chain's value of f, and its argmin keys are
    the indices of the prefix chain's expansion report.  At level 1, where
    both read the level-one loop, the reference is the Fraction one.

    A scratch mutant that adds one unit too many per power of phi_i in
    ``_expand`` (``s * g`` -> ``s * (g + 1)``) fails this test.
    """
    levels, i = data.draw(st.sampled_from(residual_levels))
    lv = levels[i - 1]
    cs = data.draw(st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), min_size=1, max_size=2 * lv.n + 1))
    f = Poly(cs)
    if f.is_zero:
        return
    ex = residual._expand(levels, i, f)
    if i == 1:
        _, _, mu, indices = ref_linear_report(lv.nu, f)
    else:
        rep = expansion_report(lv.nu, f)
        mu, indices = lv.nu(f), rep.indices
    assert _value_of((ex.mu,), lv.D * lv.e) == mu
    assert tuple(ex.argmin) == indices


def test_normalizer_unit_is_built_once_per_level(ladder, monkeypatch):
    # the integer unit of each level's normalizer u is built at validation,
    # not again by every decomposition or lift
    nu = ladder[-1]
    u_exps = [level.u_exps for level in nu._levels]
    calls = []
    inner = residual._hu_mono

    def counted(levels, i, exps):
        calls.append(any(exps is u for u in u_exps))
        return inner(levels, i, exps)

    monkeypatch.setattr(residual, "_hu_mono", counted)
    rng = random.Random(9)
    for _ in range(4):
        cs = [Fraction(rng.randrange(-100, 101), rng.choice((1, 3))) for _ in range(2 * nu.top_degree)]
        cs[-1] = Fraction(1)
        dec = iv.decompose(nu, Poly(cs))
        f = iv.residual_lift(nu, dec.s, dec.unit.residue, dec.respoly)
        assert iv.decompose(nu, f).respoly == dec.respoly
    assert calls and not any(calls)


# ---------------------------------------------------------------------------
# The MacLane bound that lets _expand skip coefficients
# ---------------------------------------------------------------------------


def _lifted(nu, psi, gamma):
    return iv.augment(nu, iv.lift_key(nu, psi), Fraction(gamma))


@pytest.fixture(scope="module")
def bound_chains(nu2, nu4, ladder, nu2_inf):
    """Chains whose levels the bound must hold on, by name.  gamma_1 < 0 with
    a root of negative order (x - 1/2 over v_2), a root of order -2 (x + 1/9
    over v_3), gamma_1 = 0, each with lifted steps of value <= 0 (g_2 <= 0,
    where nothing may be skipped) and > 0; the y+1 ladder; y^2+y+1 lifted
    steps (nu4 and the gamma_1 = 0 chain); and a rank-2 top step."""
    v2, v3 = iv.PadicValuation(2), iv.PadicValuation(3)
    half = iv.validate_chain([("x - 1/2", Fraction(-1, 2))], v2)
    ninth = iv.validate_chain([("x + 1/9", -2)], v3)
    flat = _lifted(iv.validate_chain([("x", 0)], v2), "y^2+y+1", Fraction(1, 2))
    chains = {
        "half_neg": _lifted(half, "y+1", Fraction(-1, 2)),
        "half_pos2": _lifted(half, "y+1", Fraction(5, 4)),
        "half_pos3": _lifted(_lifted(half, "y+1", Fraction(5, 4)), "y+1", Fraction(17, 6)),
        "ninth_neg": _lifted(ninth, "y^2+1", Fraction(-7, 2)),
        "ninth_pos": _lifted(ninth, "y^2+1", Fraction(1, 2)),
        "flat": _lifted(flat, "y+1", Fraction(3, 2)),
        "nu2": nu2,
        "nu4": nu4,
        "ladder3": ladder[2],
        "ladder5": ladder[-1],
        "rank2": nu2_inf,
    }
    return chains


def test_floor_on_negative_gamma_and_root(bound_chains):
    """floor_i = D_i * (n_i - 1) * min(-k, gamma_1): on half_pos3 (k = 1,
    gamma_1 = -1/2) 2 * 1 * (-1) at level 2 and 4 * 3 * (-1) at level 3; on
    ninth_pos (k = 2, gamma_1 = -2) 1 * 1 * (-2).  half_neg has g_i = -1 on
    both levels, so nothing is skipped there."""
    assert [lv.floor for lv in bound_chains["half_pos3"]._levels] == [0, -2, -12]
    assert [lv.floor for lv in bound_chains["ninth_pos"]._levels] == [0, -2]
    assert [lv.g for lv in bound_chains["half_neg"]._levels] == [-1, -1]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_floor_bounds_the_values_below_each_level(bound_chains, data):
    """mu_{i-1}(a) * D_i >= floor_i - v_p(den a) * D_i for every a of degree
    < n_i: MacLane's mu_{i-1} >= mu_1, and mu_1 of a Taylor-shifted a, in
    units of 1/D_i.  The denominators drawn are divisible by p."""
    nu = data.draw(st.sampled_from(sorted(bound_chains)).map(bound_chains.get))
    if not nu._levels:
        return
    levels = nu._levels
    i = data.draw(st.integers(1, len(levels)))
    lv, p = levels[i - 1], nu.base.p
    coeff = st.builds(
        lambda m, b, t: Fraction(m, p**b * t), st.integers(-60, 60), st.integers(1, 4), st.sampled_from((1, 5, 7))
    )
    a = Poly(data.draw(st.lists(coeff, min_size=1, max_size=lv.n)))
    if a.is_zero:
        return
    mu = nu.base.value(a.constant_value()) if i == 1 else levels[i - 2].nu(a)
    assert mu.coords[0] * lv.D >= lv.floor - nu.base.int_order(a.den) * lv.D


def full_read_expand(levels, i, f):
    """The level-i expansion of f != 0 that values every coefficient: the
    reference of ``residual._expand``, on the schoolbook expansion and, at
    level 1, the Fraction values of ``ref_linear_report``."""
    lv = levels[i - 1]
    if i == 1:
        digits, _, mu, indices = ref_linear_report(lv.nu, f)
        return residual._Expansion(f, int(mu.coords[0] * lv.e), {s: (digits[s][0].numerator, digits[s][0].denominator) for s in indices})
    coeffs = ref_expansion(trim(f.coeffs), list(lv.phi.coeffs))
    subs = {s: full_read_expand(levels, i - 1, Poly(c)) for s, c in enumerate(coeffs) if c}
    vals = {s: sub.mu * lv.e + s * lv.g for s, sub in subs.items()}
    mu = min(vals.values())
    return residual._Expansion(f, mu, {s: subs[s] for s, w in vals.items() if w == mu})


def _residual_results(nu, f):
    """decompose, residual_poly, residual_ideal, key_check of f made monic,
    and graded_factorization of f, or the (type, message) of what each raised."""
    chi = Poly([c / f.coeffs[-1] for c in f.coeffs])
    ops = (iv.decompose, iv.residual_poly, iv.residual_ideal, iv.graded_factorization)
    out = []
    for op, g in [(op, f) for op in ops] + [(iv.key_check, chi)]:
        try:
            out.append(op(nu, g))
        except IndvalError as exc:
            out.append((type(exc), str(exc)))
    return out


def _full_read_calls(levels, i, f):
    """The _expand calls that a full read of f at level i makes."""
    if i == 1:
        return 1
    coeffs = ref_expansion(trim(f.coeffs), list(levels[i - 1].phi.coeffs))
    return 1 + sum(_full_read_calls(levels, i - 1, Poly(c)) for c in coeffs if c)


def check_against_full_read(nu, f):
    """The results of f on nu are those of a full read; when g_i <= 0 on every
    level above the first, where nothing may be skipped, so are its calls."""
    with mock.patch.object(residual, "_expand", full_read_expand):
        want = _residual_results(nu, f)
    assert _residual_results(nu, f) == want
    if len(nu._levels) == nu.length and all(lv.g <= 0 for lv in nu._levels[1:]):
        calls = []
        inner = residual._expand

        def counted(*args):
            calls.append(args[1])
            return inner(*args)

        with mock.patch.object(residual, "_expand", counted):
            iv.residual_poly(nu, f)
        assert len(calls) == _full_read_calls(nu._levels, nu.length, f)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_skipping_matches_a_full_read(bound_chains, data):
    """f = sum c_s * phi_r^s with c_s of degree < n_r, whose coefficients
    m * p^a (a in -2..2) make ties and values below 0 likely; a constant f is
    multiplied by phi_r."""
    nu = data.draw(st.sampled_from(sorted(bound_chains)).map(bound_chains.get))
    p, phi, n = nu.base.p, nu.top.phi, nu.top_degree
    m = st.one_of(st.just(0), st.integers(-4, 4).filter(bool))
    coeff = st.builds(lambda m, a: m * Fraction(p) ** a, m, st.integers(-2, 2))
    cs = data.draw(st.lists(st.lists(coeff, max_size=n), min_size=1, max_size=3))
    f = sum((Poly(c) * phi**s for s, c in enumerate(cs)), Poly.zero())
    if f.is_zero:
        return
    check_against_full_read(nu, f * phi if f.is_constant else f)


@pytest.mark.parametrize(
    "name, digits",
    [
        # x has value -2 < 0 below level 2: the floor -2, not 0, keeps it
        ("ninth_pos", ["1", "x"]),
        # 8 and phi^2 tie at 3: a bound equal to the least value so far is
        # expanded, and s = 2 joins the argmin
        ("nu2", ["8", "0", "1"]),
        # g_2 = -1: the bound -3 of the digit 1 at s = 1 exceeds the value
        # -4 of 1/4, and the digit is expanded all the same
        ("half_neg", ["1/4", "1"]),
    ],
)
def test_skipping_at_the_edges_of_the_rule(bound_chains, name, digits):
    """f = sum digits[s] * phi_r^s, one for each scratch mutant of
    ``_expand``: the floor 0 on every level, skipping on >= in place of >,
    and skipping when g_i <= 0.  Each fails here.  The hypothesis test above
    found the first in two of three runs and the last in every run; the
    second already breaks the validation of the ladder fixture."""
    nu = bound_chains[name]
    check_against_full_read(nu, sum((Poly.parse(c) * nu.top.phi**s for s, c in enumerate(digits)), Poly.zero()))


# ---------------------------------------------------------------------------
# Work counts of expansions (counts, not timings)
# ---------------------------------------------------------------------------


class TestWork:
    """Deterministic operation counts, taken by wrapping the counted routine."""

    @staticmethod
    def _record(monkeypatch, owner, name):
        calls = []
        inner = getattr(owner, name)

        def counted(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(owner, name, counted)
        return calls

    def test_expansion_divides_on_integers(self, monkeypatch):
        # The parent made 25 Poly._divmod_any calls and 49 Poly._set calls:
        # a reduced quotient and a reduced remainder per digit.
        rng = random.Random(48)
        f, phi = Poly([rng.randrange(-1000, 1001) for _ in range(48)] + [1]), Poly.parse("x^2+2")
        divisions = self._record(monkeypatch, Poly, "_divmod_any")
        built = self._record(monkeypatch, Poly, "_set")
        digits = phi_expansion(f, phi)
        assert len(digits) == 25
        assert len(divisions) == 0 and len(built) == len(digits)
        monkeypatch.undo()
        assert sum((c * phi**s for s, c in enumerate(digits)), Poly.zero()) == f

    @staticmethod
    def _passes(monkeypatch):
        """The digits that the synthetic-division loop yields, one per pass."""
        passes = []
        horner = basefield._horner

        def counted(r, a, times):
            for d in horner(r, a, times):
                passes.append(d)
                yield d

        monkeypatch.setattr(basefield, "_horner", counted)
        return passes

    def test_level_one_stops_at_the_argmin(self, lam, monkeypatch):
        # The parent ran all 48 Horner passes and took the order of all 49
        # digits.  f(-2) and f(0) are odd, so the argmin is s = 0, and past it
        # s*gamma exceeds the minimum.
        rng = random.Random(25)
        f = Poly([2 * rng.randrange(-500, 500) + 1] + [rng.randrange(-1000, 1001) for _ in range(47)] + [1])
        lim = limit_augment(lam, Poly.parse("x+2"), Value.of((1, 0)))
        orders = self._record(monkeypatch, iv.PadicValuation, "int_order")
        nu1 = iv.validate_chain([("x", Fraction(1, 2))], iv.PadicValuation(2))
        full = iv.validate_chain([("x+2", -1)], iv.PadicValuation(2))
        passes = self._passes(monkeypatch)
        assert lim(f) == Value.of((0, 0)) and len(passes) == 1
        orders.clear()
        assert nu1(f) == Value.of(0) and len(orders) == 1
        # gamma_1 <= 0: every digit is read
        passes.clear()
        orders.clear()
        full(f)
        assert len(passes) == 48 and len(orders) == 49

    def test_decomposition_expands_each_coefficient_once(self, ladder, monkeypatch):
        # 27 phi_expansion calls, 16 of them distinct, when every argmin
        # coefficient was expanded again one level down; 15 when every
        # coefficient was expanded once; 4 now that a coefficient whose
        # MacLane bound lies above the least value so far is not expanded.
        import indval.chains as chains

        nu = ladder[-1]
        rng = random.Random(19)
        f = Poly([Fraction(rng.randrange(-100, 101), rng.choice((1, 3, 7))) for _ in range(2 * nu.top_degree)])
        by_value = self._record(monkeypatch, chains, "phi_expansion")
        expansions = self._record(monkeypatch, residual, "phi_expansion")
        level_one = self._record(monkeypatch, residual, "_linear_digits")
        expanded = self._record(monkeypatch, residual, "_expand")
        want = iv.decompose(nu, f)
        assert by_value == []
        assert len(expansions) == 4 and level_one
        assert len(set(expansions + level_one)) == len(expansions) + len(level_one)
        # some coefficient of f is skipped: a full read makes more calls
        assert len(expanded) < _full_read_calls(nu._levels, nu.length, f)
        monkeypatch.undo()
        assert iv.decompose(nu, f) == want

    def test_chain_validation_is_charged_its_decompositions(self, monkeypatch):
        # Steps (x, 1), (x - 2, 2), (x - 6, 3), ... over v_2: a chain of r
        # steps makes (r - 1)^2 decompositions, its charge; past
        # MAX_CHAIN_WORK = 2^12 (66 steps and more) validation makes none.
        import indval.chains as chains

        v2 = iv.PadicValuation(2)
        steps = [("x", 1)] + [(Poly([-(2 ** (i + 1) - 2), 1]), i + 1) for i in range(1, 160)]
        calls = self._record(monkeypatch, residual, "_decompose")
        for r in (10, 20, 40):
            calls.clear()
            iv.validate_chain(steps[:r], v2)
            assert len(calls) == chains._validation_work(0, r) == (r - 1) ** 2
        assert chains._validation_work(0, 65) <= chains.MAX_CHAIN_WORK < chains._validation_work(0, 66)
        for r in (66, 160):
            calls.clear()
            with pytest.raises(iv.ResourceError, match="work budget"):
                iv.validate_chain(steps[:r], v2)
            assert calls == []
        # a family on r base steps: the base once, then each member's step
        for r, k in ((1, 4), (6, 8), (12, 3)):
            calls.clear()
            fam = steps[r : r + k]
            iv.validate_continuous_chain(fam, v2, base_steps=steps[:r])
            assert len(calls) == chains._validation_work(0, r) + k * chains._validation_work(r, 1)
        calls.clear()
        with pytest.raises(iv.ResourceError, match="work budget"):
            iv.validate_continuous_chain(steps[60:100], v2, base_steps=steps[:60])
        assert calls == []

    # Degree-one steps (x - (2^(i+1) - 2), i + 1) over v_2, i = 0, 1, ...:
    # the chain of the validation budget above, built by augment
    LONG = [(Poly([-(2 ** (i + 1) - 2), 1]), i + 1) for i in range(66)]

    def test_augment_is_charged_the_chain_it_builds(self, monkeypatch):
        # The parent charged augment nothing: the 66th call built a 66-step
        # chain whose to_json() then failed to load with ResourceError.
        v2 = iv.PadicValuation(2)
        calls = self._record(monkeypatch, residual, "_decompose")
        nu = iv.validate_chain(self.LONG[:1], v2)
        for chi, gamma in self.LONG[1:65]:
            nu = iv.augment(nu, chi, gamma)
        assert nu.length == 65
        calls.clear()
        with pytest.raises(iv.ResourceError, match="work budget"):
            iv.augment(nu, *self.LONG[65])
        assert calls == []
        monkeypatch.undo()
        assert iv.chain_from_json(nu.to_json()) == nu

    def test_augment_runs_one_key_test(self, nu1, nu4, nu8, monkeypatch):
        # The parent tested the key twice, in augment and again in the step
        # check, and made 2 and 6 decompositions here.
        chi8 = nu8.top.phi
        calls = self._record(monkeypatch, residual, "_decompose")
        for nu, chi, gamma, want in ((nu1, Poly.parse("x^2+2"), Fraction(3, 2), 1), (nu4, chi8, Fraction(29, 6), 3)):
            calls.clear()
            assert iv.augment(nu, chi, gamma).top.phi == chi
            assert len(calls) == iv.chains._validation_work(nu.length, 1) == want

    def test_cli_augment_past_the_budget_exits_3(self, capsys, tmp_path):
        # The parent exited 0 and printed a 66-step chain that does not load.
        import json

        from indval.cli import main

        path = tmp_path / "long.json"
        path.write_text(json.dumps({"prime": 2, "steps": [{"phi": str(phi), "gamma": str(g)} for phi, g in self.LONG[:65]]}))
        phi, gamma = self.LONG[65]
        code = main(["augment", "--chain", str(path), "--phi", str(phi), "--gamma", str(gamma), "--json"])
        out, err = capsys.readouterr()
        env = json.loads(out)
        assert code == 3 and env["result"] is None and "work budget" in env["diagnostics"][0]
        assert "Traceback" not in err


# ---------------------------------------------------------------------------
# Group data from the digit table, and the monomial-value kernel
# ---------------------------------------------------------------------------

GROUP_CHAINS = ("nu1", "nu2", "nu4", "nu8", "nu_inf", "nu2_inf", "ladder")


@pytest.fixture(scope="module")
def group_chains(nu1, nu2, nu4, nu8, nu_inf, nu2_inf, ladder):
    return dict(zip(GROUP_CHAINS, (nu1, nu2, nu4, nu8, nu_inf, nu2_inf, ladder[-1])))


@pytest.mark.parametrize("name", GROUP_CHAINS)
def test_group_data_matches_the_lattice_search(group_chains, name):
    nu = group_chains[name]
    rows = nu._digit_table()
    for i in range(1, nu.length + 1):
        gamma, gens = nu.steps[i - 1].gamma.embed(nu.rank, major=True), gens_below(nu, i)
        assert nu.commensurable_at(i) == is_commensurable(gamma, gens)
        # e_i is the first column of the digit table; a rank-2 top step has no row
        assert subgroup_index(gamma, gens) == (rows[i - 1][0] if i <= len(rows) else None)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(GROUP_CHAINS),
    st.lists(st.fractions(min_value=-50, max_value=50, max_denominator=12), min_size=1, max_size=25),
)
def test_every_caller_of_the_kernel_agrees(group_chains, name, cs):
    nu, f = group_chains[name], Poly(cs)
    if f.is_zero:
        return
    mu = expansion_report(nu, f).mu
    assert nu(f) == mu
    if nu.top_commensurable:
        top = nu._levels[-1]
        assert _value_of((residual._decompose_top(nu._levels, f).mu,), top.D * top.e) == mu
