"""The residual polynomial operator and the graded decomposition.

Every initial term factors as  unit * H(phi)^s * R(f)(xi)  with R(f) a monic
polynomial over the residue tower; this demo computes the pieces and inverts
them.

Run:  python demos/02_residual_operator.py
"""

from fractions import Fraction

import indval as iv
from indval import Poly, TowerPoly

v2 = iv.PadicValuation(2)
nu1 = iv.validate_chain([("x", Fraction(1, 2))], v2)
nu2 = iv.augment(nu1, Poly.parse("x^2+2"), Fraction(3, 2))

rd = iv.residual_data(nu2)
print("residue tower:", rd.field.describe())
print("e =", rd.e, "  u =", rd.u, " (value(u * phi^e) = 0)")

f = Poly.parse("x^4 + 4")
dec = iv.decompose(nu2, f)
print(f"decomposition of {f}:  s = {dec.s},  unit = {dec.unit},  R = {dec.respoly}")
print("residual ideal:", iv.residual_ideal(nu2, f))

# R is multiplicative, which turns graded factorization into polynomial
# factorization over the tower.
g = Poly.parse("x^2 + 2*x + 2")
h = Poly.parse("x^2 - 2*x + 2")
print("R(g) =", iv.residual_poly(nu2, g), "  R(h) =", iv.residual_poly(nu2, h))
print("R(g*h) =", iv.residual_poly(nu2, g * h), " = R(g)*R(h)")

# The operator inverts: residual data lifts back to a polynomial with exactly
# that data.
kal = rd.field
lift = iv.residual_lift(nu2, 0, kal.one(), TowerPoly.parse(kal, "y+1"))
print("lift of (s=0, zeta=1, psi=y+1):", lift)

# Units carry residues relative to canonical monomials; lifting them recovers
# a polynomial of small degree with the same value and residue.
hu = iv.unit_residue(nu2, Poly.parse("x^2").scale(Fraction(1, 2)))
print("unit residue of x^2/2:", hu)

# R depends on the key: x+2 is a minimal-degree key for the Gauss valuation
# [(x, 1)] that is not equivalent to x (value(2) = gamma), and re-keying the
# chain by it shifts R(x) from 1 to y+1, as the key-change law predicts
# (tests/test_residual.py checks that law and the normalizer-change law).
gauss = iv.validate_chain([("x", 1)], v2)
rekeyed = iv.validate_chain([("x+2", 1)], v2)
x = Poly.parse("x")
print("R(x) on", gauss.describe(), "=", iv.residual_poly(gauss, x))
print("R(x) on", rekeyed.describe(), "=", iv.residual_poly(rekeyed, x))
