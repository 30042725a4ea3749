"""Wave solver: leading order, contraction, Petviashvili oracle, sweeps."""

import numpy as np
import pytest

import latticewaves as lw
from latticewaves.solver import _Anderson
from latticewaves.spectral import derivative, project_even, sobolev_norm


def _picard(ctx, tol=1e-12, max_iter=50):
    """Plain fixed-point iteration V <- G(V) from V = 0: the unmixed
    reference for solve_contraction, same map and same stop."""
    base = ctx.linear_inv(ctx.residual_forcing())
    V = lw.Field.zero(ctx.grid)
    for _ in range(max_iter):
        G = project_even(ctx.linearized_solve(base + ctx.linear_inv(
            ctx.eps ** ctx.sigma * ctx.quadratic(V, V)
            + ctx.eps ** 2 * ctx.cubic_shift(V))))
        if sobolev_norm(G - V, 1.0) < tol:
            return G
        V = G
    raise AssertionError(f"Picard did not converge in {max_iter} steps")


@pytest.fixture(scope="module")
def sol_cm35_04(prof_cm35, grid):
    return lw.solve_contraction(lw.LongWaveOperators(prof_cm35, grid, 0.4))


class TestLeadingOrder:
    def test_amplitude_cm4(self, ctx_cm4):
        w0 = ctx_cm4.background
        amp = float(np.min(w0.values))
        assert amp == pytest.approx(-5.0 / (8.0 * np.pi ** 2), abs=1e-10)

    def test_kdv_equation_residual(self, ctx_cm4, ctx_nnn1, grid):
        # the sech^2(x/2) profile solves the limit equation exactly; the
        # discrete residual is pure spectral roundoff
        for ctx in (ctx_cm4, ctx_nnn1):
            w0 = ctx.background
            lhs = -0.5 * ctx.lambda_dd0 * (w0 - derivative(w0, 2))
            rhs = lw.Field(grid, ctx.b * w0.values ** 2)
            assert sobolev_norm(lhs - rhs, 0.0) <= 1e-10

    def test_parity(self, ctx_cm4):
        assert ctx_cm4.background.is_even(1e-14)


class TestWaveSpeed:
    def test_cm4_value(self, ctx_cm4):
        expect = 2.0 * np.pi ** 4 / 9.0 + np.pi ** 2 / 360.0
        assert ctx_cm4.speed_sq == pytest.approx(expect, abs=1e-10)

    def test_nnn_value(self, ctx_nnn1):
        expect = 5.0 + (17.0 / 12.0) * 0.01
        assert ctx_nnn1.speed_sq == pytest.approx(expect, abs=1e-12)


class TestContraction:
    def test_cm4_converges(self, sol_cm4):
        assert sol_cm4.method == "contraction"
        assert sol_cm4.residual_H1 <= 1e-8
        assert sol_cm4.iterations < 50

    def test_nnn_converges(self, sol_nnn1):
        assert sol_nnn1.residual_H1 <= 1e-8

    def test_ansatz_identity(self, sol_cm4, ctx_cm4):
        # W = W0 + eps^sigma V holds pointwise by construction
        recon = ctx_cm4.background + sol_cm4.eps ** sol_cm4.sigma * sol_cm4.V
        assert np.max(np.abs(recon.values - sol_cm4.W.values)) < 1e-14

    def test_residual_recomputation(self, sol_cm4, ctx_cm4):
        assert lw.residual(ctx_cm4, sol_cm4.W) == pytest.approx(
            sol_cm4.residual_H1, abs=1e-12)

    def test_speed_identity(self, sol_cm4, prof_cm4):
        expect = prof_cm4.c0_sq - 0.5 * prof_cm4.lambda_dd0 * sol_cm4.eps ** 2
        assert sol_cm4.c_eps_sq == pytest.approx(expect, abs=1e-14)

    def test_parity(self, sol_cm4, sol_nnn1):
        for sol in (sol_cm4, sol_nnn1):
            assert sol.W.is_even(1e-10)
            assert sol.V.is_even(1e-10)

    def test_monotone_contraction(self, sol_cm4, sol_nnn1):
        # increments shrink geometrically once the iteration settles
        for sol in (sol_cm4, sol_nnn1):
            inc = sol.increments
            assert all(b < a for a, b in zip(inc[2:], inc[3:]))

    def test_correction_bounded_across_eps(self, prof_nnn1, grid):
        norms = []
        for eps in (0.2, 0.15, 0.1, 0.05, 0.025):
            ctx = lw.LongWaveOperators(prof_nnn1, grid, eps)
            norms.append(lw.solve_contraction(ctx).correction_norm)
        assert max(norms) < 5.0 * min(norms)

    def test_profile_converges_to_leading_order(self, prof_nnn1, grid):
        diffs = []
        for eps in (0.2, 0.1, 0.05):
            ctx = lw.LongWaveOperators(prof_nnn1, grid, eps)
            sol = lw.solve_contraction(ctx)
            diffs.append(sobolev_norm(sol.W - ctx.background, 1.0))
        assert diffs[0] > diffs[1] > diffs[2]

    def test_max_iter_error(self, ctx_nnn1):
        with pytest.raises(lw.SolverError, match="did not converge"):
            lw.solve_contraction(ctx_nnn1, tol=1e-15, max_iter=2)

    @pytest.mark.parametrize("max_iter", [0, -1])
    def test_max_iter_below_one_rejected(self, ctx_nnn1, prof_nnn1, grid, max_iter):
        with pytest.raises(lw.ConfigError, match=f"max_iter={max_iter}"):
            lw.solve_contraction(ctx_nnn1, max_iter=max_iter)
        with pytest.raises(lw.ConfigError, match=f"max_iter={max_iter}"):
            lw.scaling_sweep(prof_nnn1, grid, [0.4, 0.28, 0.2, 0.14, 0.1],
                             max_iter=max_iter)

    @pytest.mark.parametrize("case", ["a=3.5 eps=0.4", "a=4 eps=0.1", "nnn eps=0.1"])
    def test_matches_plain_picard(self, case, sol_cm35_04, sol_cm4, sol_nnn1):
        sol = {"a=3.5": sol_cm35_04, "a=4": sol_cm4, "nnn": sol_nnn1}[case.split()[0]]
        assert sobolev_norm(sol.V - _picard(sol.ctx), 1.0) <= 1e-12

    def test_cm35_steps_halved(self, sol_cm35_04):
        # the plain iteration needs 21 evaluations of G here
        assert sol_cm35_04.iterations <= 12
        assert sol_cm35_04.residual_H1 <= 1e-8

    def test_to_dict_reports_plain_steps(self, sol_cm4):
        assert sol_cm4.to_dict()["plain_steps"] == sol_cm4.plain_steps >= 0

    def test_safeguard_replaces_bad_mixed_steps(self, monkeypatch, ctx_nnn1, sol_nnn1):
        # a mixer that overshoots every mixed step makes the increment grow;
        # the safeguard must restart it and still reach the same fixed point
        step = _Anderson.step

        def overshoot(self, x, g):
            out = step(self, x, g)
            return out if not self._df else x + 3.0 * (out - x)

        monkeypatch.setattr(_Anderson, "step", overshoot)
        sol = lw.solve_contraction(ctx_nnn1)
        assert sol.plain_steps >= 1
        assert sobolev_norm(sol.V - sol_nnn1.V, 1.0) <= 1e-12

    def test_negative_profile_power_law(self, sol_cm4):
        # power-law waves are depression waves; checked, not asserted fatal
        assert np.all(sol_cm4.W.values <= 1e-12)


class TestAndersonMixing:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    def test_affine_map_solved_in_dim_plus_one(self, dim):
        # on G(x) = A x + b the mixed iterate after k + 1 evaluations is G of
        # the k-th GMRES iterate (Walker & Ni 2011), exact once k = dim
        rng = np.random.default_rng(dim)
        A = rng.standard_normal((dim, dim))
        A *= 0.9 / np.max(np.abs(np.linalg.eigvals(A)))
        b = rng.standard_normal(dim)
        x_star = np.linalg.solve(np.eye(dim) - A, b)
        mixer, x, plain = _Anderson(), np.zeros(dim), np.zeros(dim)
        for _ in range(dim + 1):
            x = mixer.step(x, A @ x + b)
            plain = A @ plain + b
        assert np.linalg.norm(x - x_star) <= 1e-10 * np.linalg.norm(x_star)
        assert np.linalg.norm(plain - x_star) > 1e-3 * np.linalg.norm(x_star)


class TestPetviashvili:
    def test_converges_cm4(self, ctx_cm4):
        sol = lw.solve_petviashvili(ctx_cm4, tol=1e-12)
        assert sol.residual_H1 <= 1e-8
        assert sol.method == "petviashvili"

    def test_agreement_with_contraction(self, ctx_cm4, ctx_nnn1, sol_cm4, sol_nnn1):
        for ctx, sol in ((ctx_cm4, sol_cm4), (ctx_nnn1, sol_nnn1)):
            orac = lw.solve_petviashvili(ctx, tol=1e-12)
            assert sobolev_norm(orac.W - sol.W, 1.0) <= 1e-6


class TestScalingSweep:
    def test_nnn_slope(self, prof_nnn1, grid):
        rep = lw.scaling_sweep(prof_nnn1, grid, [0.4, 0.28, 0.2, 0.14, 0.1])
        assert not any(rep.failures)
        assert abs(rep.slope - 2.0) <= 0.5
        assert rep.sigma_expected == pytest.approx(2.0, abs=0.05)
        assert len(rep.rows()) == 5

    def test_partial_report_on_failures(self, prof_nnn1, grid):
        rep = lw.scaling_sweep(prof_nnn1, grid, [0.4, 0.28, 0.2, 0.14, 0.1],
                               tol=1e-15, max_iter=1)
        assert all(rep.failures)
        assert np.isnan(rep.slope)

    def test_needs_five_values(self, prof_nnn1, grid):
        with pytest.raises(lw.SolverError):
            lw.scaling_sweep(prof_nnn1, grid, [0.2, 0.1])


class TestGridInsensitivity:
    def test_box_doubling(self, prof_nnn1, grid, sol_nnn1):
        # periodization must be invisible: double L at fixed dx
        wide = grid.widen()
        sol2 = lw.solve_contraction(lw.LongWaveOperators(prof_nnn1, wide, 0.1))
        assert abs(sol2.residual_H1 - sol_nnn1.residual_H1) < 1e-8
        assert abs(sol2.correction_norm - sol_nnn1.correction_norm) < 1e-8

    def test_refinement(self, prof_nnn1, grid, sol_nnn1):
        fine = grid.refine()
        sol2 = lw.solve_contraction(lw.LongWaveOperators(prof_nnn1, fine, 0.1))
        assert abs(sobolev_norm(sol2.W, 1.0) - sobolev_norm(sol_nnn1.W, 1.0)) < 1e-9
