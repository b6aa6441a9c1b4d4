"""The integral operator family and its numerical guarantees.

The central object is

    G_alpha(z) = [ alpha * int_0^z g^(alpha-1)(u) f'(u) du ]^(1/alpha)

with the principal branch continued radially from the origin.  Three
classical specializations come for free: g = z (Pascu), f = z
(Moldoveanu-Pascu), and the g^alpha/u kernel (Mocanu).  Values come
from Taylor coefficients on the largest disk |u| <= rho (rho = 1 when g
and f' are analytic on the closed unit disk) that the fit admits, and
from radial Gauss-Legendre quadrature on the segments beyond rho; every
value carries an error estimate.
"""

import numpy as np

from schlicht.dsl import parse
from schlicht.operators import (
    bracket_final,
    operator_g_alpha,
    operator_mocanu,
    operator_moldoveanu_pascu,
    operator_pascu,
)

print("== identities the operator must hit exactly ==")
ov = operator_g_alpha(parse("z"), parse("z"), 2.5, 0.3 + 0.1j)
print(f"  f=g=z, alpha=2.5:  G(0.3+0.1i) = {ov.value:.15f}")
print(f"                     error estimate {ov.estimated_error:.2e}")
ov = operator_pascu(parse("z + 0.1*z^2"), 1.0, 0.5)
print(f"  alpha=1 recovers f: G(0.5) = {ov.value:.15f}  (f(0.5) = 0.525)")

print("\n== against an independent power series ==")
z, lam = 0.5, 0.1
term, total = 1.0, 0.0
for n in range(200):
    total += 2 * term / (n + 2)
    term *= lam * z / (n + 1)
series = z * np.sqrt(total)
ov = operator_g_alpha(parse("z"), parse("z*exp(0.1*z)"), 2.0, z)
print(f"  g = z e^(0.1z), alpha = 2 at z = {z}")
print(f"  operator: {ov.value:.15f}")
print(f"  200-term series: {series:.15f}   |diff| = {abs(ov.value - series):.2e}")

print("\n== the classical specializations ==")
print("  moldoveanu-pascu, g = z/(1-z), alpha 2, z 0.3:",
      f"{operator_moldoveanu_pascu(parse('z/(1-z)'), 2.0, 0.3).value:.12f}")
print("  mocanu, g = z + 0.2z^2, alpha 2, z 0.3:      ",
      f"{operator_mocanu(parse('z + 0.2*z^2'), 2.0, 0.3).value:.12f}")

print("\n== fractional and complex exponents ==")
for alpha in (0.45, 1.7 + 0.3j):
    ov = operator_g_alpha(parse("z"), parse("z"), alpha, 0.5)
    print(f"  alpha = {alpha}: G(0.5) = {ov.value:.15f} (should be 0.5)")

print("\n== normalization G(z)/z -> 1 near the origin ==")
for z in (1e-2, 1e-3, 1e-4):
    ov = operator_g_alpha(parse("z + 0.1*z^2"), parse("z*exp(0.2*z)"), 1.7, z)
    print(f"  z = {z:g}: G(z)/z = {ov.value / z:.8f}")

print("\n== the radius of the series, and why a larger one was refused ==")
zs = 0.9 * np.exp(2j * np.pi * (np.arange(8) + 0.5) / 8)  # no ray through 1/2
for f_src, g_src in (("z + 0.1*z^2", "z*exp(0.2*z)"), ("koebe", "z"),
                     ("z", "z*(1 - 2*z)")):
    fin = bracket_final(parse(g_src), 1.5, zs, f=parse(f_src))
    why = fin.fallback_reason or f"cross-check gap {fin.cross_check_gap:.1e}"
    print(f"  f = {f_src}, g = {g_src}: rho = {fin.radius:g}, tolerance {fin.budget} ({why})")
