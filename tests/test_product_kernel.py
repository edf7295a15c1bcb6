"""The one convolution ``basefield._conv`` against independent references.

``_conv`` multiplies by Kronecker substitution or by the schoolbook loop,
picked by operand size; both must give the exact product at every size.  The
reference is sympy's dense multiplication over ZZ (``dup_mul``), and for the
prime-field products of ``towers`` its ``gf_mul``.  Draws cover 1 to 64
coefficients of 1 to more than 128 bits, of both signs, with interior zeros;
explicit cases sit on each side of the selection rule and at each slot width
of the Kronecker product (64 bits, 128 bits and wider).
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.densearith import dup_mul
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_mul

import indval.basefield as basefield
from indval import Poly
from indval.basefield import _conv, _height, _kronecker
from indval.towers import _kmul
from conftest import trim


def ref_conv(f, g):
    """f * g, constant first, from sympy's dup_mul (highest degree first)."""
    return [int(c) for c in reversed(dup_mul([ZZ(c) for c in reversed(f)], [ZZ(c) for c in reversed(g)], ZZ))]


def as_stored(f):
    """f as Poly.num holds it: an array('q') when every entry fits in 64 bits."""
    try:
        return array("q", f)
    except OverflowError:
        return tuple(f)


# one bit height per list, 1 to 200 bits, with zeros mixed in
int_lists = st.integers(1, 200).flatmap(
    lambda h: st.lists(st.one_of(st.just(0), st.integers(-(2**h), 2**h)), min_size=1, max_size=64)
)


@settings(max_examples=300, deadline=None)
@given(int_lists, int_lists)
def test_conv_matches_dup_mul(f, g):
    want = ref_conv(f, g)
    for a, b in ((f, g), (as_stored(f), as_stored(g))):
        got = _conv(a, b)
        assert len(got) == len(f) + len(g) - 1
        assert trim(got) == want
        # the Kronecker kernel alone, below the selection threshold as well
        assert trim(_kronecker(a, b, _height(a), _height(b))) == want


@settings(max_examples=150, deadline=None)
@given(int_lists, int_lists, st.integers(1, 2**40), st.integers(1, 2**40))
def test_poly_product_matches_dup_mul(f, g, df, dg):
    got = Poly.from_ints(f, df) * Poly.from_ints(g, dg)
    assert got == Poly.from_ints(ref_conv(f, g), df * dg)


def _extreme(h, n, sign=1):
    """n coefficients of bit height h, all of one sign: the product's middle
    coefficients come closest to the slot bound."""
    return [sign * (2**h - 1)] * n


# (f, g, Kronecker slot width in bytes, or None for the schoolbook loop)
CASES = [
    # 1/n + 1/m above 1/4: schoolbook, however wide the coefficients
    (_extreme(40, 7), _extreme(40, 9), None),
    (_extreme(40, 5), _extreme(40, 19), None),
    (_extreme(300, 1), _extreme(300, 64), None),
    # 1/n + 1/m = 1/4: Kronecker
    (_extreme(40, 5), _extreme(40, 20, -1), 16),
    # 8 x 8 coefficients with a 17-bit bound: Kronecker; a 16-bit bound: schoolbook
    (_extreme(6, 8), _extreme(7, 8, -1), 8),
    (_extreme(6, 8), _extreme(6, 8, -1), None),
    (_extreme(1, 64), [1, 0, -1] * 21 + [1], None),
    # a 63-bit bound fills 64-bit slots; 64 and 127 bits take 128-bit slots
    (_extreme(30, 7), _extreme(30, 70, -1), 8),
    (_extreme(30, 7), _extreme(31, 70), 16),
    (_extreme(62, 7), _extreme(62, 70, -1), 16),
    (_extreme(63, 8), _extreme(60, 8), 16),
    # past 127 bits: the least whole number of bytes above the bound
    (_extreme(63, 15), _extreme(63, 15, -1), 17),
    (_extreme(64, 10), _extreme(64, 10), 17),
    (_extreme(200, 33), _extreme(150, 20, -1), 45),
    # mixed signs and interior zeros at each width
    ([2**61 - 1, 0, -(2**61) + 1, 0] * 4, [-(2**61) + 1, 2**61 - 1, 0, 0] * 4, 16),
    ([-(2**29) + 1, 0, 0, 2**29 - 1] * 4, [2**29 - 1, 0, -(2**29) + 1, 0] * 4, 8),
]


@pytest.mark.parametrize("f, g, width", CASES)
def test_selection_and_slot_widths(f, g, width, monkeypatch):
    widths = []
    kronecker = basefield._kronecker

    def counted(a, b, ha, hb):
        bound = ha + hb + min(len(a), len(b)).bit_length()
        widths.append(8 if bound < 64 else 16 if bound < 128 else bound // 8 + 1)
        return kronecker(a, b, ha, hb)

    monkeypatch.setattr(basefield, "_kronecker", counted)
    want = ref_conv(f, g)
    assert trim(_conv(as_stored(f), as_stored(g))) == want
    assert widths == ([] if width is None else [width])
    assert trim(_conv(f, g)) == want
    monkeypatch.undo()
    assert trim(_kronecker(f, g, _height(f), _height(g))) == want


def test_product_of_polys_keeps_the_schoolbook_result():
    # a product past 2^63 is stored as a tuple, and reduced by its content
    f = Poly.from_ints(_extreme(49, 25), 3)
    g = Poly.from_ints([(-1) ** k * (2**49 - 1 - k) for k in range(25)], 5)
    prod = f * g
    assert isinstance(prod.num, tuple)
    assert prod == Poly.from_ints(ref_conv(list(f.num), list(g.num)), 15)
    assert f * Poly.zero() == Poly.zero() and Poly.zero() * g == Poly.zero()


primes = st.sampled_from([2, 3, 5, 7, 251, 2**31 - 1, 2**61 - 1])


@settings(max_examples=200, deadline=None)
@given(primes, st.data())
def test_kmul_matches_gf_mul(p, data):
    elems = st.lists(st.integers(0, p - 1), min_size=0, max_size=64)
    f, g = data.draw(elems), data.draw(elems)
    want = [int(c) for c in reversed(gf_mul([ZZ(c) for c in reversed(f)], [ZZ(c) for c in reversed(g)], p, ZZ))]
    assert _kmul(p, f, g) == want
