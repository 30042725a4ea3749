"""Plant the computed wave on a real lattice and watch it travel.

The spectral solution lives in the continuum traveling-wave frame; here it
is sampled onto a ring of particles through the long-wave ansatz and
integrated by a Strang split that solves the linear force exactly.  A
genuine solitary wave must translate at the predicted speed with its shape
intact while the symplectic integrator holds the energy.  (The full-length acceptance run uses
J = 4096 and T = 200; this demo keeps T short.)
"""

import math

import latticewaves as lw

grid = lw.Grid(L=40.0, N=2048)
model = lw.build_model(lw.PotentialSpec.calogero_moser(4.0))
prof = lw.certify_type1(model)
ctx = lw.LongWaveOperators(prof, grid, eps=0.1)
sol = lw.solve_contraction(ctx)
print(f"solved wave: residual {sol.residual_H1:.2e}, "
      f"predicted speed {math.sqrt(sol.c_eps_sq):.6f}")

report = lw.run_and_verify(sol, J=4096, T=40.0, checkpoints=40)
print(f"\nintegrated {report.steps} {report.integrator} steps (dt = {report.dt:.5f}, "
      f"omega_max dt = {report.omega_max_dt:.3f}, force range {report.m_force})")
print(f"  measured speed   = {report.speed_measured:.6f}")
print(f"  predicted speed  = {report.speed_predicted:.6f}")
print(f"  relative error   = {report.speed_rel_error:.2e}   (gate: 1e-2)")
print(f"  shape error max  = {report.shape_error_max:.2e}   (gate: 5e-2)")
print(f"  energy drift     = {report.energy_drift:.2e}   (gate: 1e-6)")

print("\ntrajectory (every 8th checkpoint):")
print("      t      peak position   peak strain       energy")
for t, pos, peak, energy in report.trajectory[::8]:
    print(f"  {t:7.2f}   {pos:12.3f}   {peak:.6e}   {energy:.10e}")
