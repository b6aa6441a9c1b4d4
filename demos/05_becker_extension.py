"""Building plane extensions from chains and measuring their dilatation.

The extension is F = L(z, 0) inside the unit circle and
F = L(z/|z|, log|z|) outside.  Its Beltrami coefficient mu = F_zbar/F_z
measures the local deviation from conformality.  ``max_dilatation`` takes
mu from Becker's closed form (z/conj z)(1-p)/(1+p) in the chain's driving
term p, with no quadrature; ``beltrami_estimate`` gets it from Wirtinger
finite differences of F, and the two agree.  For the eps-family
f = z + eps z^2 the hand value of sup |mu| is eps/(1-eps), attained just
outside the unit circle in the direction of -1.
"""

import numpy as np

from schlicht import (
    AnalyticTriple,
    CriterionParams,
    ExtensionField,
    beltrami_coefficient,
    beltrami_estimate,
    chain_callable,
    chain_t6_callable,
    max_dilatation,
    seam_mismatch,
)
from schlicht.dsl import parse

print("== identity chain extends to the identity ==")
triple = AnalyticTriple.build(parse("z"), parse("z"), parse("1"))
params = CriterionParams(alpha=1, c=-1, s=1, m=2.0)
F_id = ExtensionField(chain_callable(triple, params))
pts = np.array([0.5 + 0.2j, 2 - 1j, -4j])
print("  F at", pts, "->", F_id(pts))
mx, _ = max_dilatation(F_id, n_radial=16, n_angular=64)
print(f"  max |mu| = {mx:.2e} (conformal everywhere)")

print("\n== the eps-family: F(z) = z + eps z^2/|z|^2 outside ==")
eps = 0.2
F = ExtensionField(chain_t6_callable(parse(f"z + {eps}*z^2"), parse("z"), 1.0))
z = 1.5 * np.exp(0.7j)
print(f"  F({z:.4f}) = {F(z):.6f}")
print(f"  closed form: {z + eps * z**2 / abs(z)**2:.6f}")

print("\n== Beltrami coefficient: finite differences, closed form, hand value ==")
probe = -(1 + 1e-3)
s = beltrami_estimate(F, probe)
closed = beltrami_coefficient(F, probe)[0]
print(f"  at z = {probe}: |mu| = {s.abs_mu:.6f} (finite differences)")
print(f"  closed form from the driving term: |mu| = {abs(closed):.6f}")
print(f"  hand peak eps/(1-eps) = {eps / (1 - eps):.6f}")

print("\n== dilatation over the standard annulus (closed form) ==")
mx, wit = max_dilatation(F)
print(f"  max |mu| = {mx:.6f} at z = {wit:.4f} (inner rim, direction -1)")

print("\n== seam continuity across |z| = 1 ==")
print(f"  identity: {seam_mismatch(F_id):.2e}")
print(f"  eps-family: {seam_mismatch(F):.2e}  (both within 1e-6)")

print("\n== mu decays like 1/|z| far from the disk ==")
for R in (2, 10, 100):
    s = beltrami_estimate(F, complex(R))
    print(f"  |mu| at z = {R}: {s.abs_mu:.2e}")
