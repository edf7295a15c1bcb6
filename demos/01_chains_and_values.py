"""Build augmentation chains over the 2-adic rationals and evaluate them.

Run:  python demos/01_chains_and_values.py
"""

from fractions import Fraction

import indval as iv
from indval import Poly, Value

# The base data: Q with the 2-adic valuation, normalized so v(2) = 1.
v2 = iv.PadicValuation(2)

# A chain starts with a monic linear key.  [(x, 1/2)] is the valuation with
# mu(sum c_s x^s) = min over s of v(c_s) + s/2.
nu1 = iv.validate_chain([("x", Fraction(1, 2))], v2)
print("nu1 =", nu1.describe())

f = Poly.parse("x^2 + 2")
print("nu1(x^2+2) =", nu1(f))  # min(v(2), 2 * 1/2) = 1

# The expansion report shows which monomials of the top-key expansion attain
# the minimum: here both ends tie, so x^2+2 is not a unit.
rep = iv.expansion_report(nu1, Poly.parse("x^4 + 4"))
print("expansion of x^4+4:", [str(c) for c in rep.coeffs])
print("monomial values:   ", [str(v) for v in rep.monomial_values])
print("mu =", rep.mu, " argmin =", rep.indices, " s =", rep.s, " s' =", rep.s_prime)

# x^2+2 is a key polynomial for nu1, so the chain can be augmented by it.
print("is_key(nu1, x^2+2):", iv.is_key(nu1, f))
nu2 = iv.augment(nu1, f, Fraction(3, 2))
print("nu2 =", nu2.describe())
print("nu2(x^4+4) =", nu2(Poly.parse("x^4+4")))

# The three notions the paper builds on, each once true and once false on nu2.
# A mu-unit has an invertible initial term (its top-key expansion attains the
# minimum only at the constant coefficient); a mu-minimal f divides nothing of
# smaller degree; mu-equivalent f and g share their initial term,
# nu2(f - g) > nu2(g).
for text in ("x", "x^2+2"):
    print(f"is_unit(nu2, {text}):", iv.is_unit(nu2, Poly.parse(text)))
for text in ("x^2+2", "x^3"):
    print(f"is_minimal(nu2, {text}):", iv.is_minimal(nu2, Poly.parse(text)))
for text in ("x^2+10", "x^2"):
    print(f"is_equivalent(nu2, {text}, x^2+2):", iv.is_equivalent(nu2, Poly.parse(text), f))

# Values never decrease under augmentation; they grow exactly on multiples of
# the new key in the graded sense.
for g in (Poly.parse("x"), f, Poly.parse("x^4+4")):
    grows = iv.graded_divides(nu1, f, g)
    print(f"  mu1({g}) = {nu1(g)}   mu2({g}) = {nu2(g)}   x^2+2 divides H(g): {grows}")

# Each level carries exact ramification data: the least e with e*gamma in the
# lower value group, and a canonical normalizer u with value(u * phi^e) = 0.
for nu in (nu1, nu2):
    e, u = nu.ramification_data()
    print(f"{nu.describe()}:  e = {e}, u = {u}")

# Canonical monomials realize any value of the lower group deterministically.
print("monomial of value -3/2 for nu2:", nu2.canonical_monomial(Value.of(Fraction(-3, 2))))

# A rank-2 value opens an incommensurable direction: (0, 1) is positive but
# smaller than every positive rational, so monomial values never tie.
nu_inf = iv.validate_chain([("x", Value.of((0, 1)))], v2)
print("nu_inf(x^2+2) =", nu_inf(Poly.parse("x^2+2")))
print("nu_inf keys are exactly x + a with v(a) >= 1:",
      iv.is_key(nu_inf, Poly.parse("x+2")), iv.is_key(nu_inf, Poly.parse("x+1")))
