"""Why the verifier needs no tolerance: exact sums of roots of unity.

Correlation values of root-of-unity sequences live in Z[w] for w a
delta-th root of unity. The package stores them as integer histograms of
exponents and decides zero by reduction modulo a cyclotomic polynomial,
so "is this correlation zero" is a bit-exact question.
"""
import numpy as np

from zccs import CycInt, cyclotomic_poly, root_sum

# 1 + w_3 + w_3^2 is exactly zero even though its parts are irrational.
a = CycInt(3, np.array([1, 1, 1]))
print("1 + w3 + w3^2          =", a.to_complex(), "-> exact zero:", a.is_zero())

# A nonzero coefficient vector can still be the number zero ...
b = CycInt(4, np.array([1, 0, 1, 0]))
print("1 + w4^2               =", b.to_complex(), "-> exact zero:", b.is_zero())

# ... and coefficients that cancel termwise need not be zero at all.
c = CycInt(4, np.array([1, -1, 0, 0]))
print("1 - w4                 =", c.to_complex(), "-> exact zero:", c.is_zero())

# The zero test reduces modulo the cyclotomic polynomial of the root order.
for n in (1, 2, 3, 4, 6, 12):
    print(f"cyclotomic_poly({n:2d}) =", cyclotomic_poly(n))

# Sums of p-th roots vanish exactly when the stride is coprime to p;
# this is what cancels the cross terms between different phase indices.
for c in range(5):
    value = root_sum(5, c)
    print(f"sum of w5^({c}a), a<5: exact zero: {value.is_zero()}  float: {abs(value.to_complex()):.2e}")

# Arithmetic stays in integers: adding, rotating, conjugating.
c1 = CycInt.root(6, 1) + CycInt.root(6, 2)
print("\nw6 + w6^2              =", c1.to_complex())
print("rotated by w6^3        =", c1.mul_root(3).to_complex())
print("conjugated             =", c1.conjugate().to_complex())
print("these cancel:          ", (c1 + c1.mul_root(3)).is_zero())
