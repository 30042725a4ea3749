"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one [PASS]/[FAIL] line (run with -s to see them inline).
The heavy items are the three scaling sweeps and the direct lattice run;
everything else completes in seconds.
"""

import math
import time

import numpy as np
import pytest

import latticewaves as lw
from latticewaves.spectral import derivative, sobolev_norm
from conftest import random_band_limited

EPS_SWEEP = (0.4, 0.28, 0.2, 0.14, 0.1)
EPS_PROBE = (0.4, 0.2, 0.1, 0.05)


def _report(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def _slope(eps, vals):
    return float(np.polyfit(np.log(eps), np.log(vals), 1)[0])


def test_criterion_1_kdv_exactness(ctx_cm4, grid):
    t0 = time.time()
    w0 = ctx_cm4.background
    lhs = -0.5 * ctx_cm4.lambda_dd0 * (w0 - derivative(w0, 2))
    rhs = lw.Field(grid, ctx_cm4.b * w0.values ** 2)
    res = sobolev_norm(lhs - rhs, 0.0)
    _report("criterion 1 (KdV exactness)", res <= 1e-10,
            f"L2 residual {res:.3e} <= 1e-10 [{time.time() - t0:.2f}s]")


def test_criterion_2_nnn_dispersion():
    t0 = time.time()
    worst = 0.0
    for g in (-1.0 / 32.0, 0.25, 1.0):
        m = lw.build_model(lw.PotentialSpec.nnn(g))
        worst = max(worst,
                    abs(lw.phase_speed_sq(m, 0.0) - (1.0 + 4.0 * g)),
                    abs(lw.long_wave_curvature(m) - (-1.0 / 6.0 - 8.0 * g / 3.0)))
    _report("criterion 2 (NNN dispersion)", worst <= 1e-12,
            f"max deviation {worst:.3e} <= 1e-12 [{time.time() - t0:.2f}s]")


def test_criterion_3_power_law_constants(cm4, ctx_cm4):
    t0 = time.time()
    d_c0 = abs(cm4.sum_alpha_m2 - 2.0 * np.pi ** 4 / 9.0)
    th_series = lw.dispersion_relation(cm4, np.pi)
    th_closed = lw.theta_power4_closed(np.pi)
    d_th = max(abs(th_series - np.pi ** 6 / 12.0),
               abs(th_closed - np.pi ** 6 / 12.0))
    amp = float(np.min(ctx_cm4.background.values))
    d_amp = abs(amp - (-5.0 / (8.0 * np.pi ** 2)))
    ok = d_c0 <= 1e-10 and d_th <= 1e-8 and d_amp <= 1e-10
    _report("criterion 3 (power-law a=4 constants)", ok,
            f"c0^2 dev {d_c0:.2e} <= 1e-10, theta(pi) dev {d_th:.2e} <= 1e-8, "
            f"amplitude dev {d_amp:.2e} <= 1e-10 [{time.time() - t0:.2f}s]")


def test_criterion_4_solver_residuals(ctx_cm4, ctx_nnn1, sol_cm4, sol_nnn1):
    t0 = time.time()
    details = []
    ok = True
    for name, ctx, sol in (("a=4", ctx_cm4, sol_cm4), ("nnn", ctx_nnn1, sol_nnn1)):
        orac = lw.solve_petviashvili(ctx, tol=1e-12)
        agree = sobolev_norm(sol.W - orac.W, 1.0)
        ok = ok and sol.residual_H1 <= 1e-8 and agree <= 1e-6
        details.append(f"{name}: residual {sol.residual_H1:.2e} <= 1e-8, "
                       f"oracle gap {agree:.2e} <= 1e-6")
    _report("criterion 4 (solve residual + oracle)", ok,
            "; ".join(details) + f" [{time.time() - t0:.1f}s]")


def test_criterion_5_scaling_laws(prof_cm35, prof_cm6, prof_nnn1, grid):
    t0 = time.time()
    details = []
    ok = True
    for name, prof, target in (("a=3.5", prof_cm35, 0.5),
                               ("a=6", prof_cm6, 2.0),
                               ("nnn", prof_nnn1, 2.0)):
        rep = lw.scaling_sweep(prof, grid, list(EPS_SWEEP))
        good = not any(rep.failures) and abs(rep.slope - target) <= 0.25 * target
        ok = ok and good
        details.append(f"{name}: slope {rep.slope:.3f} vs {target}")
    _report("criterion 5 (correction scaling laws)", ok,
            "; ".join(details) + f" [{time.time() - t0:.1f}s]")


def test_criterion_6_operator_rates(prof_cm35, prof_nnn1, grid, sech2):
    t0 = time.time()
    details = []
    ok = True
    for name, prof, sigma in (("a=3.5", prof_cm35, 0.5), ("nnn", prof_nnn1, 2.0)):
        r_diff, r_inv, r_quad = [], [], []
        for eps in EPS_PROBE:
            ctx = lw.LongWaveOperators(prof, grid, eps)
            r_diff.append(sobolev_norm(ctx.linear_diff(sech2), 0.0)
                          / sobolev_norm(sech2, 2.0 + sigma))
            r_inv.append(sobolev_norm(ctx.linear_inv_diff(sech2), 0.0)
                         / sobolev_norm(sech2, 0.0))
            r_quad.append(sobolev_norm(
                ctx.quadratic(sech2, sech2) - ctx.quadratic_limit(sech2, sech2), 0.0))
        s1, s2, s3 = (_slope(EPS_PROBE, v) for v in (r_diff, r_inv, r_quad))
        good = (abs(s1 - sigma) <= 0.25 * sigma and abs(s2 - sigma) <= 0.25 * sigma
                and abs(s3 - 2.0) <= 0.5)
        ok = ok and good
        details.append(f"{name}: diff {s1:.3f}/inv {s2:.3f} vs {sigma}, "
                       f"quad {s3:.3f} vs 2")
    _report("criterion 6 (operator eps-rates)", ok,
            "; ".join(details) + f" [{time.time() - t0:.1f}s]")


def test_criterion_7_dispersion_roundtrip(rng):
    t0 = time.time()
    alpha_true = rng.uniform(-1.0, 1.0, 8)
    k = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    theta = np.zeros_like(k)
    for m, al in enumerate(alpha_true, start=1):
        theta += 4.0 * al * np.sin(0.5 * m * k) ** 2
    alpha = lw.coefficients_from_dispersion(theta, 8)
    model = lw.build_model(lw.PotentialSpec.custom(
        alpha=alpha, beta=np.ones(8), gamma=np.zeros(8)))
    err = float(np.max(np.abs(lw.dispersion_relation(model, k) - theta)))
    _report("criterion 7 (coefficient roundtrip)", err <= 1e-10,
            f"max reconstruction error {err:.3e} <= 1e-10 [{time.time() - t0:.2f}s]")


def test_criterion_8_dynamic_verification(sol_cm4):
    t0 = time.time()
    rep = lw.run_and_verify(sol_cm4, J=4096, T=200.0)
    ok = (rep.speed_rel_error < 0.01 and rep.shape_error_max <= 0.05
          and rep.energy_drift <= 1e-6 and not rep.early_stopped)
    _report("criterion 8 (direct lattice verification)", ok,
            f"speed err {rep.speed_rel_error:.2e} < 1e-2, shape "
            f"{rep.shape_error_max:.2e} <= 5e-2, drift {rep.energy_drift:.2e} "
            f"<= 1e-6 [{time.time() - t0:.0f}s]")


def test_criterion_9_property_suite(ctx_cm4, prof_nnn1, grid, sol_nnn1, rng):
    t0 = time.time()
    checks = {}

    # parity preservation across the operator set
    f = 0.05 * random_band_limited(grid, rng, even=True)
    checks["parity"] = all(op(f).is_even(1e-10) for op in (
        ctx_cm4.linear, ctx_cm4.linear_inv, ctx_cm4.linear_limit,
        lambda g: ctx_cm4.quadratic(g, g), ctx_cm4.cubic,
        lambda g: lw.moving_average(g, 0.7),
        lambda g: lw.averaging_defect(g, 0.7)))

    # multiplier identity (A_h - 1)F = -h^2 defect(F'')
    g1 = random_band_limited(grid, rng)
    h = 0.5
    ident = sobolev_norm((lw.moving_average(g1, h) - g1)
                         + h * h * lw.averaging_defect(derivative(g1, 2), h), 0.0)
    checks["identity"] = ident < 1e-11

    # averaging never expands Sobolev norms
    ok_avg = True
    for s in (0.0, 1.0, 2.0):
        for width in (0.1, 1.0, 10.0):
            g2 = random_band_limited(grid, rng)
            ok_avg = ok_avg and (sobolev_norm(lw.moving_average(g2, width), s)
                                 <= sobolev_norm(g2, s) * (1 + 1e-12))
    checks["averaging"] = ok_avg

    # linear-symbol pinch on the grid
    lo, hi = ctx_cm4.multiplier_bounds()
    checks["pinch"] = bool(np.min(ctx_cm4._mult_b) >= lo * (1 - 1e-12)
                           and np.max(ctx_cm4._mult_b) <= hi * (1 + 1e-9))

    # box-doubling insensitivity
    sol_wide = lw.solve_contraction(lw.LongWaveOperators(prof_nnn1, grid.widen(), 0.1))
    checks["box"] = (abs(sol_wide.residual_H1 - sol_nnn1.residual_H1) < 1e-8
                     and abs(sol_wide.correction_norm - sol_nnn1.correction_norm) < 1e-8)

    # force is the negative energy gradient
    state = lw.init_from_wave(sol_nnn1, 2048)
    frc = lw.force(state)
    ok_grad = True
    hh = 1e-6
    for j in rng.integers(0, state.J, 20):
        d0 = state.d[j]
        state.d[j] = d0 + hh
        ep = lw.total_energy(state)
        state.d[j] = d0 - hh
        em = lw.total_energy(state)
        state.d[j] = d0
        grad = (ep - em) / (2.0 * hh)
        ok_grad = ok_grad and math.isclose(-grad, frc[j], rel_tol=1e-6,
                                           abs_tol=1e-9)
    checks["gradient"] = ok_grad

    ok = all(checks.values())
    _report("criterion 9 (property suite)", ok,
            ", ".join(f"{k}={'ok' if v else 'FAIL'}" for k, v in checks.items())
            + f" [{time.time() - t0:.1f}s]")
