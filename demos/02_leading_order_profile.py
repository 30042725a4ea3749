"""The KdV-type leading order of the solitary wave.

In the long-wave limit the traveling-wave equation collapses to

    -(1/2) lambda''(0) (W0 - W0'') = b W0^2

whose unique even homoclinic is an explicit sech^2(x/2) profile.  This
script samples it on the working grid, verifies the limit equation to
spectral accuracy, and evaluates the closed-form amplitude and wave speed
for the power-law lattice.
"""

import numpy as np

import latticewaves as lw
from latticewaves.spectral import derivative, sobolev_norm

grid = lw.Grid(L=40.0, N=2048)
model = lw.build_model(lw.PotentialSpec.calogero_moser(4.0))
prof = lw.certify_type1(model)
ctx = lw.LongWaveOperators(prof, grid, eps=0.1)

w0 = ctx.background
print("leading-order profile on the grid:")
print(f"  amplitude (min value) = {w0.values.min():.12g}")
print(f"  closed form -5/(8 pi^2) = {-5 / (8 * np.pi ** 2):.12g}")
print(f"  even about x = 0: {w0.is_even(1e-14)}")

residual = sobolev_norm(
    -0.5 * ctx.lambda_dd0 * (w0 - derivative(w0, 2))
    - lw.Field(grid, ctx.b * w0.values ** 2), 0.0)
print(f"  limit-equation L2 residual = {residual:.2e} (spectral roundoff)")

print("\nwave speed along the long-wave branch c^2 = c0^2 - lambda''(0) eps^2 / 2:")
print(f"  eps =  0.0: c^2 = {prof.c0_sq:.10f}   (= c0^2)")
for eps in (0.05, 0.1, 0.2):
    ctx_e = lw.LongWaveOperators(prof, grid, eps)
    print(f"  eps = {eps:4}: c^2 = {ctx_e.speed_sq:.10f}")

# a=4 closed form: c^2 = 20 zeta(4) + (20 zeta(2)/12) eps^2
eps = 0.1
closed = 20 * lw.zeta(4.0) + 20 * lw.zeta(2.0) / 12 * eps ** 2
ctx_e = lw.LongWaveOperators(prof, grid, eps)
print(f"\n  closed form at eps=0.1: {closed:.12g}  "
      f"(deviation {abs(closed - ctx_e.speed_sq):.1e})")
