"""What chain validation no longer checks at run time, checked here.

* The value-group invariant: values of polynomials of degree < deg(phi_r)
  lie in (1/D_r)Z, the group of the digit table, with the lattice search
  ``values.in_subgroup`` as the oracle.  It runs over the fixture chains,
  the members of the fixture families, the y+1 key ladder and drawn chains.
* Family validation compares one value per adjacent pair.  It must accept
  exactly the families that pass the full condition-(3) test over every
  pair a < b, and reject with the full adjacent test's message.
* Neither validator draws random numbers.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import indval as iv
import indval.augmentation as augmentation
from indval import ChainError, InvariantError, Poly, Value, validate_chain, validate_continuous_chain
from indval.keys import key_check
from indval.values import in_subgroup
from test_augmentation import _quadratic_family

F = Fraction
CHAIN_FIXTURES = ("nu1", "nu2", "nu3p", "nu_inf", "gauss2", "nu4")


@pytest.fixture(scope="module")
def fixture_chains(request, ladder, lam, v2):
    chains = {name: request.getfixturevalue(name) for name in CHAIN_FIXTURES}
    chains.update({f"ladder{k}": nu for k, nu in enumerate(ladder, 1)})
    chains.update({f"lam{k}": nu for k, nu in enumerate(lam.members, 1)})
    chains.update({f"quad{k}": nu for k, nu in enumerate(_quadratic_family(v2).members, 1)})
    return chains


# ---------------------------------------------------------------------------
# The value-group invariant
# ---------------------------------------------------------------------------


def assert_values_in_group(nu, rng, samples=12):
    """nu(f) lies in (1/D_r)Z for random f of degree < deg(phi_r), and the
    lattice search agrees that it lies in the group below the top step."""
    n, r = nu.top_degree, nu.length
    rows = nu._digit_table()[: r - 1]
    D = rows[-1][1] if rows else 1
    gens = nu.group_gens(r)
    for _ in range(samples):
        f = Poly([F(rng.randrange(-40, 41), rng.choice((1, 1, 3, 4))) for _ in range(rng.randrange(1, n + 1))])
        if f.is_zero:
            continue
        w = nu(f)
        assert in_subgroup(w, gens), (nu, f, w)
        major, *minor = w.coords
        assert (major * D).denominator == 1 and not any(minor), (nu, f, w, D)


def test_fixture_values_lie_in_the_group(fixture_chains):
    rng = random.Random(20210)
    for name, nu in fixture_chains.items():
        assert_values_in_group(nu, rng)


@st.composite
def valid_chains(draw):
    """[(x - a, g)] over p in {2, 3, 5}, augmented up to twice by a drawn key
    of residual degree 1 and a value above its current one."""
    p = draw(st.sampled_from([2, 3, 5]))
    g = draw(st.fractions(min_value=-2, max_value=3, max_denominator=4))
    nu = validate_chain([(Poly([-draw(st.integers(-5, 5)), 1]), g)], iv.PadicValuation(p))
    for _ in range(draw(st.integers(0, 2))):
        keys = iv.enumerate_keys(nu, 1)
        chi = keys[draw(st.integers(0, len(keys) - 1))]
        delta = draw(st.fractions(min_value=F(1, 6), max_value=2, max_denominator=6))
        nu = iv.augment(nu, chi, nu(chi) + Value.of(delta))
    return nu


@settings(max_examples=40, deadline=None)
@given(valid_chains(), st.integers(0, 2**32))
def test_drawn_chain_values_lie_in_the_group(nu, seed):
    assert_values_in_group(nu, random.Random(seed))


# ---------------------------------------------------------------------------
# Family validation against the full test over every pair
# ---------------------------------------------------------------------------


def full_pair_check(members, family, a, b):
    """The full condition-(3) test of the pair a < b: its message, or None."""
    mu_a = members[a - 1]
    phi_b, gamma_b = family[b - 1][0], family[b - 1][1]
    kc = key_check(mu_a, phi_b)
    if not kc.ok:
        return f"condition (3) violated at indices {a},{b}: phi_{b} is not a key for mu_{a} ({kc.reason})"
    if iv.is_equivalent(mu_a, phi_b, family[a - 1][0]):
        return f"condition (3) violated at indices {a},{b}: phi_{b} is equivalent to phi_{a}"
    if not Value.of(gamma_b) > mu_a(phi_b):
        return f"condition (3) violated at indices {a},{b}: gamma_{b} does not exceed mu_{a}(phi_{b})"
    return None


def message(fn, *args):
    """The ChainError message of fn(*args), or None when it returns."""
    try:
        fn(*args)
    except ChainError as exc:
        return str(exc)
    return None


def validate_every_pair(family, base, base_steps):
    """The reference: the full test on the adjacent pairs in order, then on
    every other pair."""
    members = [validate_chain(list(base_steps) + [st], base) for st in family]
    m = len(family)
    pairs = [(a, a + 1) for a in range(1, m)]
    pairs += [(a, b) for a in range(1, m + 1) for b in range(a + 2, m + 1)]
    for a, b in pairs:
        msg = full_pair_check(members, family, a, b)
        if msg:
            raise ChainError(msg)


def outcome(family, base, base_steps):
    """(validator's message, reference message), None for an accepted family."""
    args = (family, base, base_steps)
    return message(validate_continuous_chain, *args), message(validate_every_pair, *args)


def gammas(draw, m, lo, steps):
    """m values above lo, strictly increasing by drawn steps."""
    out, g = [], Fraction(lo)
    for _ in range(m):
        g += draw(st.sampled_from(steps))
        out.append(g)
    return out


offsets = st.sampled_from([0, 0, 0, 0, -1, 1])


@st.composite
def linear_families(draw):
    """x - c_a over p in {2, 3, 5}; c_{a+1} - c_a = p^k * u with k drawn near
    gamma_a, so that drawn families both pass and fail condition (3)."""
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(2, 5))
    gs = gammas(draw, m, draw(st.integers(-2, 1)), [1, 1, 2, F(1, 2)])
    c = draw(st.integers(-9, 9))
    family = [(Poly([-c, 1]), gs[0])]
    for a in range(1, m):
        k = max(0, gs[a - 1].__floor__() + draw(offsets))
        c += p**k * draw(st.sampled_from([1, -1, p + 1, p]))
        family.append((Poly([-c, 1]), gs[a]))
    return p, family


@st.composite
def quadratic_families(draw):
    """x^2 + 2b x + 2c over the base step (x, 1/2) of v_2 with c odd (keys
    for that step).  A step of 2b by 2^j*u (u odd) adds a term of value
    j + 1/2, a step of 2c by 2^(j+1)*u one of value j + 1; j >= 1 is drawn
    near the j that gives gamma_a."""
    m = draw(st.integers(2, 4))
    gs = gammas(draw, m, 1, [F(1, 2), F(1, 2), 1, F(3, 2), F(1, 3)])
    b, c = draw(st.integers(-3, 3)), 2 * draw(st.integers(-3, 3)) + 1
    family = [(Poly([2 * c, 2 * b, 1]), gs[0])]
    for a in range(1, m):
        g = gs[a - 1]
        x_step = draw(st.booleans()) if g.denominator != 2 else draw(offsets) == 0 or draw(st.booleans())
        j = max(1, (g - (F(1, 2) if x_step else 1)).__floor__() + draw(offsets))
        u = draw(st.sampled_from([1, -1, 3]))
        if x_step:
            b += 2 ** (j - 1) * u
        else:
            c += 2**j * u
        family.append((Poly([2 * c, 2 * b, 1]), gs[a]))
    return family


@settings(max_examples=150, deadline=None)
@given(linear_families())
def test_linear_families_match_the_full_test(drawn):
    p, family = drawn
    got, want = outcome(family, iv.PadicValuation(p), [])
    assert got == want


@settings(max_examples=60, deadline=None)
@given(quadratic_families())
def test_quadratic_families_match_the_full_test(family):
    got, want = outcome(family, iv.PadicValuation(2), [("x", F(1, 2))])
    assert got == want


def test_seeded_families_pass_and_fail(v2):
    """Seeded degree-1 families over v_2: the validator agrees with the full
    test, and both verdicts occur."""
    rng = random.Random(1009)
    verdicts = set()
    for _ in range(60):
        m = rng.randrange(2, 6)
        cs = [rng.randrange(-9, 10)]
        for a in range(1, m):
            cs.append(cs[-1] + 2 ** (a + rng.randrange(-1, 2)) * rng.choice((1, -1, 3)))
        family = [(Poly([-c, 1]), a + 1) for a, c in enumerate(cs)]
        got, want = outcome(family, v2, [])
        assert got == want
        verdicts.add(got is None)
    assert verdicts == {True, False}


def test_full_test_passing_a_failed_comparison_is_an_invariant_error(v2, monkeypatch):
    # mu_1(x+8 - x) = 3 != 2; with the key test forced through, the full
    # check accepts what the comparison rejected
    monkeypatch.setattr(augmentation, "key_check", lambda nu, chi: iv.KeyCheck(True))
    monkeypatch.setattr(augmentation, "is_equivalent", lambda nu, f, g: False)
    with pytest.raises(InvariantError, match=r"mu_1\(phi_2 - phi_1\) = 3 is not gamma_1"):
        validate_continuous_chain([("x", 2), ("x+8", 3)], v2)


# ---------------------------------------------------------------------------
# No random numbers in validation
# ---------------------------------------------------------------------------


def test_validators_draw_no_random_numbers(fixture_chains, lam, v2, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("validation drew a random number")

    for name in ("Random", "random", "randrange", "randint", "choice", "choices", "sample", "shuffle", "getrandbits"):
        monkeypatch.setattr(random, name, refuse)
    for nu in fixture_chains.values():
        assert iv.chain_from_json(nu.to_json()) == nu
    for family in (lam, _quadratic_family(v2)):
        again = iv.continuous_chain_from_json(family.to_json())
        assert again.family == family.family
