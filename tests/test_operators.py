"""Operator layer: averaging, linear multipliers, quadratic/cubic sums,
forcing, linearized solve; spec'd bounds and eps-rates."""

import numpy as np
import pytest
import scipy.linalg

import latticewaves as lw
from latticewaves import operators, spectral
from latticewaves.operators import _defect_symbol, _idct
from latticewaves.spectral import chirp_sum, derivative, sobolev_norm
from conftest import random_band_limited

EPS_PROBE = (0.4, 0.2, 0.1, 0.05)


def _long_table():
    # alpha_m = m^-5.5 to M = 4000: a table that decays like the a = 3.5
    # power law and is type I certified
    m = np.arange(1, 4001, dtype=float)
    beta = np.zeros(m.size)
    beta[0] = 1.0
    return lw.PotentialSpec.custom(m ** -5.5, beta, None)


_EXTRA_SPECS = {
    "fput": lw.PotentialSpec.classical_fput,
    "finite_range": lambda: lw.PotentialSpec.finite_range(
        alpha=[1.0, 0.0, 0.3], beta=[1.0, 0.0, 0.0]),
    "long_table": _long_table,
}


def _slope(eps, vals):
    return float(np.polyfit(np.log(eps), np.log(vals), 1)[0])


class TestMovingAverage:
    def test_zero_width_identity(self, sech2):
        out = lw.moving_average(sech2, 0.0)
        assert np.array_equal(out.values, sech2.values)

    def test_constant_invariant(self, grid):
        c = lw.Field(grid, np.full(grid.N, 1.7))
        for h in (0.1, 1.0, 10.0):
            out = lw.moving_average(c, h)
            assert np.max(np.abs(out.values - 1.7)) < 1e-13

    def test_mean_preserved(self, grid, rng):
        f = random_band_limited(grid, rng)
        m0 = np.mean(f.values)
        assert np.mean(lw.moving_average(f, 0.7).values) == pytest.approx(m0, abs=1e-14)

    def test_nonexpansive_in_sobolev(self, grid, rng):
        # ||A_h F||_{H^s} <= ||F||_{H^s} for every width
        for s in (0.0, 1.0, 2.0):
            for h in (0.1, 1.0, 10.0):
                for _ in range(3):
                    f = random_band_limited(grid, rng)
                    assert sobolev_norm(lw.moving_average(f, h), s) \
                        <= sobolev_norm(f, s) * (1.0 + 1e-12)

    def test_width_lipschitz(self, grid, rng):
        # ||(A_h - A_h') F|| <= C |h - h'| ||F'||, C stable as h' -> h
        f = random_band_limited(grid, rng, modes=80)
        fp = sobolev_norm(derivative(f, 1), 0.0)
        h = 1.0
        cs = []
        for dh in (0.5, 0.1, 0.02, 0.004):
            d = lw.moving_average(f, h) - lw.moving_average(f, h + dh)
            cs.append(sobolev_norm(d, 0.0) / (dh * fp))
        assert all(c <= 0.5 for c in cs)
        assert max(cs) / max(min(cs), 1e-300) < 3.0


class TestAveragingDefect:
    def test_symbol_limit(self):
        # (sinc(y)-1)/y^2 -> -1/6 so the operator symbol tends to -1/24
        assert 0.25 * _defect_symbol(np.array([0.0]))[0] == pytest.approx(-1.0 / 24.0, abs=1e-15)

    def test_defect_identity(self, grid, rng):
        # (A_h - 1) F = -h^2 * defect(F'') as an identity of multipliers
        h = 0.5
        for _ in range(3):
            f = random_band_limited(grid, rng)
            lhs = lw.moving_average(f, h) - f
            rhs = -h * h * lw.averaging_defect(derivative(f, 2), h)
            assert sobolev_norm(lhs - rhs, 0.0) < 1e-11

    def test_symbol_matches_mpmath(self):
        # (sin y - y) / y^3 at 40 digits, on both sides of y = 0.05 and,
        # at y = 1 and 3, of the series cut of trig_remainder at y = 2; the
        # symbol is even in y
        mpmath = pytest.importorskip("mpmath")
        ys = [1e-3, 0.0499, 0.05, 0.0501, 0.1, 1.0, 3.0, 10.0]
        with mpmath.workdps(40):
            ref = [float((mpmath.sin(mpmath.mpf(y)) - y) / mpmath.mpf(y) ** 3)
                   for y in ys]
        assert _defect_symbol(np.array([0.0]))[0] == -1.0 / 6.0
        for sign in (1.0, -1.0):
            out = _defect_symbol(sign * np.array(ys))
            assert np.max(np.abs(out / ref - 1.0)) <= 1e-15

    def test_symbol_bound(self):
        y = np.linspace(0.0, 500.0, 200001)
        sup = np.max(np.abs(0.25 * _defect_symbol(y)))
        assert sup <= 0.25
        assert sup == pytest.approx(1.0 / 24.0, rel=1e-6)


class TestLinearOperator:
    def test_roundtrip(self, ctx_cm4, sech2):
        out = ctx_cm4.linear_inv(ctx_cm4.linear(sech2))
        assert sobolev_norm(out - sech2, 0.0) < 1e-11

    def test_limit_is_helmholtz(self, ctx_cm4):
        # B_0 W0 = -lambda''(0)/2 (W0 - W0'') via spectral differentiation
        w0 = ctx_cm4.background
        direct = -0.5 * ctx_cm4.lambda_dd0 * (w0 - derivative(w0, 2))
        assert sobolev_norm(ctx_cm4.linear_limit(w0) - direct, 0.0) < 1e-12

    def test_multiplier_pinch(self, ctx_cm4, ctx_nnn1):
        for ctx in (ctx_cm4, ctx_nnn1):
            lo, hi = ctx.multiplier_bounds()
            assert np.min(ctx._mult_b) >= lo * (1.0 - 1e-12)
            assert np.max(ctx._mult_b) <= hi * (1.0 + 1e-9)

    @pytest.mark.parametrize("name", [
        "cm35", "cm4", "cm6", "nnn1", "fput", "finite_range", "long_table"])
    def test_symbols_match_series_route(self, request, grid, name):
        # the context builds t1, t2 on k_j = j eps pi / L by
        # t1_t2_progression (one chirp for the rows and points with
        # m eps k_j > 2); the series route sums every row at every eps k_j
        if name in ("cm35", "cm4", "cm6", "nnn1"):
            prof = request.getfixturevalue("prof_" + name)
        else:
            prof = lw.certify_type1(lw.build_model(_EXTRA_SPECS[name]()))
        for eps in EPS_PROBE:
            ctx = lw.LongWaveOperators(prof, grid, eps)
            t1, t2 = lw.t1_t2(prof.model, eps * grid.k)
            half = 0.5 * abs(ctx.lambda_dd0)
            ref_b, ref_bdiff = half - t1 / eps ** 2, -t2 / eps ** 2
            assert np.max(np.abs(ctx._mult_b / ref_b - 1.0)) <= 1e-13
            assert ctx._mult_bdiff[0] == ref_bdiff[0] == 0.0
            assert np.max(np.abs(ctx._mult_bdiff[1:] / ref_bdiff[1:] - 1.0)) <= 1e-13

    def test_symbol_difference_consistency(self, ctx_cm4):
        gap = (ctx_cm4._mult_b - ctx_cm4._mult_b0) - ctx_cm4._mult_bdiff
        assert np.max(np.abs(gap)) < 1e-8

    def test_not_certified_at_huge_eps(self, prof_nnn1, grid):
        with pytest.raises(lw.ConfigError, match=r"eps=0\.9 outside \(0, 0\.5\]"):
            lw.LongWaveOperators(prof_nnn1, grid, 0.9)

    @pytest.mark.parametrize("eps", [0.0, -0.1])
    def test_nonpositive_eps_rejected(self, prof_nnn1, grid, eps):
        # the ansatz W = W0 + eps^sigma V is posed for eps > 0 only
        with pytest.raises(lw.ConfigError,
                           match=rf"eps={eps} outside \(0, 0\.5\]"):
            lw.LongWaveOperators(prof_nnn1, grid, eps)

    def test_wrong_type_rejected(self, grid):
        m = lw.build_model(lw.PotentialSpec.nnn(-0.2))
        prof = lw.certify_type1(m)
        with pytest.raises(lw.CertificationError):
            lw.LongWaveOperators(prof, grid, 0.1)

    def test_diff_rate_cm35(self, prof_cm35, grid, sech2):
        vals, vals_inv = [], []
        for eps in EPS_PROBE:
            ctx = lw.LongWaveOperators(prof_cm35, grid, eps)
            vals.append(sobolev_norm(ctx.linear_diff(sech2), 0.0)
                        / sobolev_norm(sech2, 2.5))
            vals_inv.append(sobolev_norm(ctx.linear_inv_diff(sech2), 0.0)
                            / sobolev_norm(sech2, 0.0))
        assert abs(_slope(EPS_PROBE, vals) - 0.5) <= 0.125
        assert abs(_slope(EPS_PROBE, vals_inv) - 0.5) <= 0.125

    def test_diff_rate_nnn(self, prof_nnn1, grid, sech2):
        vals, vals_inv = [], []
        for eps in EPS_PROBE:
            ctx = lw.LongWaveOperators(prof_nnn1, grid, eps)
            vals.append(sobolev_norm(ctx.linear_diff(sech2), 0.0)
                        / sobolev_norm(sech2, 4.0))
            vals_inv.append(sobolev_norm(ctx.linear_inv_diff(sech2), 0.0)
                            / sobolev_norm(sech2, 0.0))
        assert abs(_slope(EPS_PROBE, vals) - 2.0) <= 0.5
        assert abs(_slope(EPS_PROBE, vals_inv) - 2.0) <= 0.5


class TestQuadratic:
    def test_zero_slot(self, ctx_cm4, sech2, grid):
        z = lw.Field.zero(grid)
        assert sobolev_norm(ctx_cm4.quadratic(z, sech2), 0.0) == 0.0

    def test_symmetry_exact(self, ctx_cm4, grid, rng):
        v = random_band_limited(grid, rng, even=True)
        w = random_band_limited(grid, rng, even=True)
        a = ctx_cm4.quadratic(v, w)
        b = ctx_cm4.quadratic(w, v)
        assert np.array_equal(a.values, b.values)

    def test_bilinearity(self, ctx_cm4, grid, rng):
        v = random_band_limited(grid, rng, even=True)
        w = random_band_limited(grid, rng, even=True)
        u = random_band_limited(grid, rng, even=True)
        lhs = ctx_cm4.quadratic(v + 2.0 * u, w)
        rhs = ctx_cm4.quadratic(v, w) + 2.0 * ctx_cm4.quadratic(u, w)
        assert sobolev_norm(lhs - rhs, 0.0) < 1e-12 * max(
            1.0, sobolev_norm(rhs, 0.0))

    def test_limit_rate(self, prof_cm4, grid, sech2):
        vals = []
        for eps in EPS_PROBE:
            ctx = lw.LongWaveOperators(prof_cm4, grid, eps)
            d = ctx.quadratic(sech2, sech2) - ctx.quadratic_limit(sech2, sech2)
            vals.append(sobolev_norm(d, 0.0))
        assert abs(_slope(EPS_PROBE, vals) - 2.0) <= 0.5


class TestCubic:
    def test_zero(self, ctx_cm4, grid):
        out = ctx_cm4.cubic(lw.Field.zero(grid))
        assert sobolev_norm(out, 1.0) == 0.0

    def test_cubic_scaling(self, prof_cm4, grid):
        # ||P(tW)|| / t^3 constant to 5% at leading order
        ctx = lw.LongWaveOperators(prof_cm4, grid, 0.05)
        w0 = ctx.background
        ratios = []
        for t in (0.5, 1.0, 2.0):
            ratios.append(sobolev_norm(ctx.cubic(t * w0), 1.0) / t ** 3)
        assert max(ratios) / min(ratios) < 1.05

    def test_eps_stability(self, prof_cm4, grid):
        # formally O(1) in eps
        norms = []
        for eps in (0.2, 0.1, 0.05):
            ctx = lw.LongWaveOperators(prof_cm4, grid, eps)
            norms.append(sobolev_norm(ctx.cubic(ctx.background), 1.0))
        assert max(norms) / min(norms) < 3.0

    def test_domain_violation_names_range(self, prof_cm4, grid):
        ctx = lw.LongWaveOperators(prof_cm4, grid, 0.5)
        big = lw.Field(grid, 10.0 / np.cosh(0.5 * grid.x) ** 2)
        with pytest.raises(lw.DomainError, match="m="):
            ctx.cubic(big)
        # the range summed first is m = 1, where |eta|/m = eps^2 |A_eps W|
        aw = ctx._sinc_stack[0] * ctx._cut_dct(ctx._half(big))
        zmax = 0.25 * np.max(np.abs(_idct(aw)))
        with pytest.raises(lw.DomainError) as err:
            ctx.cubic(big)
        assert f"m=1, max |eta|/m = {zmax:.3e} > delta_star" in str(err.value)

    def test_parity_preservation(self, ctx_cm4, grid, rng):
        for _ in range(3):
            f = 0.05 * random_band_limited(grid, rng, even=True)
            assert ctx_cm4.quadratic(f, f).is_even(1e-10)
            assert ctx_cm4.cubic(f).is_even(1e-10)
            assert ctx_cm4.linear(f).is_even(1e-10)
            assert ctx_cm4.linear_inv(f).is_even(1e-10)
            assert lw.moving_average(f, 0.37).is_even(1e-10)


class TestForcing:
    def test_uniform_boundedness_cm4(self, prof_cm4, grid):
        norms = []
        for eps in (0.2, 0.1, 0.05):
            ctx = lw.LongWaveOperators(prof_cm4, grid, eps)
            norms.append(sobolev_norm(ctx.residual_forcing(), 1.0))
        assert max(norms) / min(norms) < 3.0

    def test_uniform_boundedness_nnn(self, prof_nnn1, grid):
        norms = []
        for eps in (0.2, 0.1, 0.05):
            ctx = lw.LongWaveOperators(prof_nnn1, grid, eps)
            norms.append(sobolev_norm(ctx.residual_forcing(), 1.0))
        assert max(norms) / min(norms) < 3.0

    def test_two_route_agreement(self, prof_cm4, grid):
        ctx = lw.LongWaveOperators(prof_cm4, grid, 0.2)
        a = ctx.residual_forcing()
        b = ctx.residual_forcing_naive()
        assert sobolev_norm(a - b, 1.0) < 1e-6


class TestCubicShift:
    def test_zero(self, ctx_cm4, grid):
        out = ctx_cm4.cubic_shift(lw.Field.zero(grid))
        assert sobolev_norm(out, 1.0) < 1e-15

    def test_lipschitz_probe(self, ctx_cm4, grid, rng):
        pairs = []
        for _ in range(5):
            v = 0.05 * random_band_limited(grid, rng, even=True)
            w = 0.05 * random_band_limited(grid, rng, even=True)
            num = sobolev_norm(ctx_cm4.cubic_shift(v) - ctx_cm4.cubic_shift(w), 1.0)
            den = sobolev_norm(v - w, 1.0)
            pairs.append(num / den)
        assert max(pairs) < 10.0

    def test_bounded_as_eps_vanishes(self, prof_cm4, grid, rng):
        v = 0.05 * random_band_limited(grid, rng, even=True)
        norms = []
        for eps in (0.2, 0.1, 0.05):
            ctx = lw.LongWaveOperators(prof_cm4, grid, eps)
            norms.append(sobolev_norm(ctx.cubic_shift(v), 1.0))
        assert max(norms) < 10.0 * max(min(norms), 1e-10)


def _dense_limit_solve(ctx, F):
    """Independent route: assemble the eps -> 0 linearized operator
    V + (4 b / lambda''(0)) (1 - d_xx)^-1 [W0 V] densely and solve."""
    grid = ctx.grid
    delta = np.zeros(grid.N)
    delta[0] = 1.0
    kernel = np.fft.irfft(1.0 / (1.0 + grid.k ** 2) * np.fft.rfft(delta), n=grid.N)
    C = scipy.linalg.circulant(kernel)
    L0 = np.eye(grid.N) + (4.0 * ctx.b / ctx.lambda_dd0) * C @ np.diag(
        ctx.background.values)
    x = np.linalg.solve(L0, lw.project_even(F).values)
    return lw.project_even(lw.Field(grid, x))


class TestLinearizedSolve:
    def test_recovers_constructed_pair(self, ctx_cm4, grid, rng):
        v_known = random_band_limited(grid, rng, even=True)
        f = ctx_cm4.linearized(v_known)
        v = ctx_cm4.linearized_solve(f)
        assert sobolev_norm(v - v_known, 1.0) < 1e-9

    def test_homogeneous(self, ctx_cm4, grid):
        v = ctx_cm4.linearized_solve(lw.Field.zero(grid))
        assert sobolev_norm(v, 1.0) < 1e-11

    def test_converges_to_dense_limit_operator(self, prof_nnn1, grid, sech2):
        f = 0.1 * sech2
        v0 = _dense_limit_solve(lw.LongWaveOperators(prof_nnn1, grid, 0.1), f)
        errs = []
        for eps in (0.2, 0.1, 0.05):
            ctx = lw.LongWaveOperators(prof_nnn1, grid, eps)
            v = ctx.linearized_solve(f)
            errs.append(sobolev_norm(v - v0, 1.0))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 0.05 * sobolev_norm(v0, 1.0)


def _band_dense(ctx):
    """Dense copy of the band matrix of L_eps on modes j < cut."""
    D, ab = ctx._band_matrix()
    cut = ab.shape[1]
    i, j = np.indices((cut, cut))
    inside = np.abs(i - j) <= D
    dense = np.zeros((cut, cut))
    dense[inside] = ab[(2 * D + i - j)[inside], j[inside]]
    return dense


def _cosine(field, cut):
    """(-1)^j rfft(V)_j for j < cut, the basis of the band matrix."""
    hat = np.fft.rfft(field.values)[:cut]
    return np.where(np.arange(cut) % 2 == 0, 1.0, -1.0) * hat.real


@pytest.fixture(scope="module", params=[
    (fam, eps) for fam in ("cm35", "cm4", "nnn1") for eps in (0.05, 0.2, 0.4)],
    ids=lambda p: f"{p[0]}-eps{p[1]}")
def band_ctx(request, grid):
    fam, eps = request.param
    prof = request.getfixturevalue(f"prof_{fam}")
    return lw.LongWaveOperators(prof, grid, eps)


class TestBandSolve:
    def test_band_matches_linearized(self, band_ctx, grid, rng):
        dense = _band_dense(band_ctx)
        cut = dense.shape[0]
        for _ in range(2):
            v = random_band_limited(grid, rng, modes=200, even=True)
            ref = _cosine(band_ctx.linearized(v), cut)
            err = np.max(np.abs(dense @ _cosine(v, cut) - ref))
            assert err <= 1e-13 * np.max(np.abs(ref))

    def test_solve_without_refinement(self, band_ctx, grid, rng):
        f = random_band_limited(grid, rng, modes=200, even=True)
        v = band_ctx._band_solve(band_ctx._band_lu(), f)
        r = f - lw.project_even(band_ctx.linearized(v))
        assert np.linalg.norm(r.values) <= 1e-11 * np.linalg.norm(f.values)
        # one check matvec accepts it: the public solve returns the same field
        assert np.array_equal(band_ctx.linearized_solve(f).values, v.values)

    def test_error_names_residual(self, ctx_nnn1, grid, rng, monkeypatch):
        monkeypatch.setattr(ctx_nnn1, "linearized", lambda V: 2.0 * V)
        f = random_band_limited(grid, rng, even=True)
        with pytest.raises(lw.SolverError, match="relative residual"):
            ctx_nnn1.linearized_solve(f)

    def test_factor_built_once_and_kept(self, prof_nnn1, grid, rng, monkeypatch):
        # the first linearized solve builds the band factor and the context
        # keeps it: the contraction and two later solves share one LU
        built = []
        band_lu = lw.LongWaveOperators._band_lu

        def counted(ctx):
            built.append(ctx.eps)
            return band_lu(ctx)

        monkeypatch.setattr(lw.LongWaveOperators, "_band_lu", counted)
        ctx = lw.LongWaveOperators(prof_nnn1, grid, 0.2)
        lw.solve_contraction(ctx)
        for _ in range(2):
            ctx.linearized_solve(random_band_limited(grid, rng, even=True))
        assert built == [0.2]

    def test_background_cubic_cached(self, prof_nnn1, grid):
        ctx = lw.LongWaveOperators(prof_nnn1, grid, 0.2)
        first = ctx.residual_forcing()
        assert np.array_equal(ctx._pw0.values, ctx.cubic(ctx.background).values)
        assert np.array_equal(ctx.residual_forcing().values, first.values)


def _bitwise_even(field):
    return np.array_equal(field.values, np.roll(field.values[::-1], 1))


_PARITY_CASES = [(fam, eps) for fam in ("cm35", "cm4", "nnn1")
                 for eps in (0.05, 0.2, 0.4)]


@pytest.mark.parametrize("fam, eps", _PARITY_CASES,
                         ids=[f"{f}-eps{e}" for f, e in _PARITY_CASES])
def test_outputs_bitwise_even(request, grid, rng, fam, eps):
    # the context returns the even extension of half-grid samples, so each
    # output equals its reflection exactly, not only to rounding
    prof = request.getfixturevalue(f"prof_{fam}")
    ctx = lw.LongWaveOperators(prof, grid, eps)
    v = 0.05 * random_band_limited(grid, rng, even=True)
    w = 0.05 * random_band_limited(grid, rng, even=True)
    outputs = {
        "linear": ctx.linear(v), "linear_inv": ctx.linear_inv(v),
        "linear_diff": ctx.linear_diff(v), "quadratic": ctx.quadratic(v, w),
        "cubic": ctx.cubic(v), "linearized": ctx.linearized(v),
        "linearized_solve": ctx.linearized_solve(v),
        "cubic_shift": ctx.cubic_shift(v),
    }
    # the solves run on a coarser box: parity is a property of the
    # representation, not of the resolution
    coarse = lw.LongWaveOperators(prof, lw.Grid(40.0, 256), eps)
    for solve in (lw.solve_petviashvili, lw.solve_contraction):
        sol = solve(coarse, tol=1e-10)
        outputs[f"{solve.__name__}.W"] = sol.W
        outputs[f"{solve.__name__}.V"] = sol.V
    odd = sorted(name for name, f in outputs.items() if not _bitwise_even(f))
    assert not odd, odd


@pytest.mark.parametrize("fam, eps", _PARITY_CASES,
                         ids=[f"{f}-eps{e}" for f, e in _PARITY_CASES])
def test_operators_read_only_even_part(request, grid, rng, fam, eps):
    # adding an odd field to the argument changes no output beyond rounding
    ctx = lw.LongWaveOperators(request.getfixturevalue(f"prof_{fam}"), grid, eps)
    f = 0.05 * random_band_limited(grid, rng, even=True)
    g = random_band_limited(grid, rng)
    odd = 0.05 * (g - lw.project_even(g))
    for op in (lambda F: ctx.quadratic(F, F), ctx.cubic, ctx.cubic_shift,
               ctx.linear_inv, ctx.linearized_solve):
        ref = op(f).values
        out = op(f + odd).values
        assert np.max(np.abs(out - ref)) <= 1e-13 * np.max(np.abs(ref))


def _full_grid_rows(ctx, field, m):
    """rfft route on the whole box [-L, L): the 2/3-cut spectrum of F,
    averaged by each range of the column ``m``, back on the grid."""
    stack = np.sinc(0.5 * ctx.eps * m * ctx.grid.k / np.pi)
    hat = np.fft.rfft(field.values)
    hat[ctx.grid.N // 3 + 1:] = 0.0
    return stack, np.fft.irfft(stack * hat, n=ctx.grid.N)


def _full_grid_sum(ctx, weights, stack, rows):
    ph = np.fft.rfft(rows, axis=-1)
    ph[:, ctx.grid.N // 3 + 1:] = 0.0
    return np.fft.irfft(np.sum(weights * stack * ph, axis=0), n=ctx.grid.N)


def _full_grid_quadratic(ctx, V, W, chunk=512):
    """Q_eps(V, W) summed range by range over every m <= M, in chunks."""
    M = ctx.model.M
    out = np.zeros(ctx.grid.N)
    for lo in range(0, M, chunk):
        m = np.arange(lo + 1, min(lo + chunk, M) + 1, dtype=float)[:, None]
        stack, av = _full_grid_rows(ctx, V, m)
        aw = _full_grid_rows(ctx, W, m)[1]
        weights = ctx.model.beta[lo:lo + m.size, None] * m ** 3
        out += _full_grid_sum(ctx, weights, stack, av * aw)
    return out


def _full_grid_cubic(ctx, W, chunk=512):
    """P_eps(W) summed range by range over every m <= M, in chunks."""
    M = ctx.model.M
    out = np.zeros(ctx.grid.N)
    for lo in range(0, M, chunk):
        m = np.arange(lo + 1, min(lo + chunk, M) + 1, dtype=float)[:, None]
        stack, aw = _full_grid_rows(ctx, W, m)
        psi = ctx.model.psi_prime(m, ctx.eps ** 2 * m * aw)
        out += _full_grid_sum(ctx, m, stack, psi)
    return out / ctx.eps ** 6


def _full_grid_band_solve(ctx, lu, F):
    """The band factor applied in the basis (-1)^j Re rfft(F)_j."""
    D, factor, piv = lu
    cut = ctx.grid.N // 3 + 1
    sign = np.where(np.arange(ctx.grid.N // 2 + 1) % 2 == 0, 1.0, -1.0)
    coeffs = sign * np.fft.rfft(F.values).real
    coeffs[:cut] = scipy.linalg.lapack.dgbtrs(factor, D, D, coeffs[:cut], piv)[0]
    return np.fft.irfft(sign * coeffs, n=ctx.grid.N)


@pytest.mark.parametrize("fam", ["cm35", "cm4", "nnn1"])
@pytest.mark.parametrize("eps", [0.05, 0.2, 0.4])
def test_half_grid_matches_full_grid_route(request, grid, rng, fam, eps):
    ctx = lw.LongWaveOperators(request.getfixturevalue(f"prof_{fam}"), grid, eps)
    lu = ctx._band_lu()
    # 400 modes: products reach past the 2/3 cut, so the cut is compared too
    v = 0.05 * random_band_limited(grid, rng, modes=400, even=True)
    w = 0.05 * random_band_limited(grid, rng, modes=400, even=True)
    for out, ref in ((ctx.quadratic(v, w), _full_grid_quadratic(ctx, v, w)),
                     (ctx.cubic(v), _full_grid_cubic(ctx, v)),
                     (ctx._band_solve(lu, w), _full_grid_band_solve(ctx, lu, w))):
        assert np.max(np.abs(out.values - ref)) <= 1e-13 * np.max(np.abs(ref))


def _far_table():
    # a finite range of 64 terms whose quadratic weights beta_m m^3 = -1/m
    # put much of Q into the rows m > 16; type I certified
    m = np.arange(1, 65, dtype=float)
    return lw.PotentialSpec.finite_range(alpha=m ** -6.5, beta=-m ** -4.0)


_GATE_CASES = [(fam, eps) for fam in ("cm35", "cm4", "cm6", "nnn1", "table")
               for eps in (0.05, 0.2, 0.4)]


def _gate_ctx(request, grid, fam, eps):
    if fam == "table":
        prof = lw.certify_type1(lw.build_model(_far_table()))
    else:
        prof = request.getfixturevalue(f"prof_{fam}")
    return lw.LongWaveOperators(prof, grid, eps)


@pytest.mark.parametrize("fam, eps", _GATE_CASES,
                         ids=[f"{f}-eps{e}" for f, e in _GATE_CASES])
def test_quadratic_sums_every_row(request, grid, rng, fam, eps):
    # Q_eps and Q_eps(W0, .) against the range-by-range sum over every
    # m <= M; w has a mean, so the Msym terms of the far rows are compared
    ctx = _gate_ctx(request, grid, fam, eps)
    v = 0.05 * random_band_limited(grid, rng, modes=400, even=True)
    w = random_band_limited(grid, rng, modes=400, even=True)
    w = lw.Field(grid, 0.05 * w.values + 0.02)
    for out, ref in ((ctx.quadratic(v, w), _full_grid_quadratic(ctx, v, w)),
                     (ctx.quadratic(ctx.background, w),
                      _full_grid_quadratic(ctx, ctx.background, w))):
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(np.abs(ref))


def test_background_quadratic_reads_the_cut_w0(prof_cm35, grid, rng):
    # Q_eps(W0, .) through the public form equals the sum on the cut DCT of
    # W0 that the context keeps for its band matrix, bit for bit
    ctx = lw.LongWaveOperators(prof_cm35, grid, 0.1)
    v = 0.05 * random_band_limited(grid, rng, modes=400, even=True)
    cv = ctx._cut_dct(ctx._half(v))
    ref = ctx._field(_idct(ctx._quadratic_coeffs(ctx._c0, cv)))
    assert np.array_equal(ctx.quadratic(ctx.background, v).values, ref.values)


_FAR_CASES = [(fam, eps) for fam in ("cm35", "cm4", "cm6", "table")
              for eps in (0.05, 0.2, 0.4)]


@pytest.mark.parametrize("fam, eps", _FAR_CASES,
                         ids=[f"{f}-eps{e}" for f, e in _FAR_CASES])
def test_far_symbols_sum_every_range(request, grid, monkeypatch, fam, eps):
    # sig and Msym against the range-by-range sum over every m > 16 at
    # every mode; each chirp covers ranges m >= m0 at modes j >= j0 with
    # m0 j0 dt > 2 only, where the closed forms Im C - t A and
    # 2 (A - Re C1) / t^2 do not cancel
    if fam == "table":
        model = lw.build_model(_far_table())
    else:
        model = request.getfixturevalue(fam)
    dt, n = eps * np.pi / grid.L, grid.N // 3 + 1
    chirps = []

    def recorded(x, d, n_out, m0=0, j0=0):
        chirps.append((m0, j0, d))
        return chirp_sum(x, d, n_out, m0=m0, j0=j0)

    monkeypatch.setattr(spectral, "chirp_sum", recorded)
    sig, msym = operators._far_symbols(model.beta, dt, n)
    assert all(m0 * j0 * d > 2.0 for m0, j0, d in chirps)
    m_s, _ = spectral._corner(17, model.M - 16, dt, n)
    assert chirps or model.M <= m_s
    t = dt * np.arange(n)
    ref_sig, ref_msym = np.zeros(n), np.zeros(n)
    ref_msym[0] = np.sum(model.beta[16:] * np.arange(17, model.M + 1) ** 3.0)
    for lo in range(16, model.M, 256):
        m = np.arange(lo + 1, min(lo + 256, model.M) + 1, dtype=float)
        beta = model.beta[lo:lo + m.size]
        y = np.outer(m, t[1:])
        ref_sig[1:] += beta @ (np.sin(y) - y)
        ref_msym[1:] += (beta * m ** 3) @ np.sinc(0.5 * y / np.pi) ** 2
    for out, ref in ((sig, ref_sig), (msym, ref_msym)):
        assert np.max(np.abs(out - ref)) <= 1e-14 * np.max(np.abs(ref))


_CUBIC_CASES = [(fam, eps) for fam in ("cm35", "cm4", "cm6")
                for eps in (0.05, 0.2, 0.4)]


@pytest.mark.parametrize("fam, eps", _CUBIC_CASES,
                         ids=[f"{f}-eps{e}" for f, e in _CUBIC_CASES])
def test_cubic_sums_every_range(request, grid, rng, fam, eps):
    # P_eps and N_eps against the range-by-range sum over every m <= M, on
    # fields with a mean: W0 + eps^sigma V and a 400-mode field + 0.02,
    # whose degree-3 products reach past the 2/3 cut
    ctx = _gate_ctx(request, grid, fam, eps)
    v = 0.05 * random_band_limited(grid, rng, modes=400, even=True)
    w = random_band_limited(grid, rng, modes=400, even=True)
    w = lw.Field(grid, 0.05 * w.values + 0.02)
    shifted = ctx.background + ctx.eps ** ctx.sigma * v
    ref_shifted = _full_grid_cubic(ctx, shifted)
    for out, ref in ((ctx.cubic(shifted), ref_shifted),
                     (ctx.cubic(w), _full_grid_cubic(ctx, w))):
        assert np.max(np.abs(out.values - ref)) <= 1e-14 * np.max(np.abs(ref))
    # N_eps subtracts two values of P: its error is measured against their size
    scale = ctx.eps ** -ctx.sigma
    ref = scale * (ref_shifted - _full_grid_cubic(ctx, ctx.background))
    err = np.max(np.abs(ctx.cubic_shift(v).values - ref))
    assert err <= 1e-14 * scale * np.max(np.abs(ref_shifted))


@pytest.mark.parametrize("spec", [lambda: lw.PotentialSpec.nnn(1.0),
                                  lw.PotentialSpec.classical_fput, _far_table],
                         ids=["nnn1", "fput", "far_table"])
def test_table_cubic_is_zero(grid, rng, monkeypatch, spec):
    # a table's force laws are alpha eta + beta eta^2: P_eps is zero to
    # the last bit, on W0 as on any even field, and costs no transform
    ctx = lw.LongWaveOperators(lw.certify_type1(lw.build_model(spec())), grid, 0.2)
    w = 0.05 * random_band_limited(grid, rng, modes=400, even=True)
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        fn = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda *a, fn=fn, name=name, **kw: calls.append(name) or fn(*a, **kw))
    for field in (ctx.background, w):
        out = ctx.cubic(field)
        assert np.array_equal(out.values, np.zeros(grid.N))
        assert not np.signbit(out.values).any()
    assert calls == []


def test_far_domain_error_names_the_bound(prof_cm4, grid, rng):
    # ranges m <= 16 pass their sample-by-sample check; the bound on the
    # ranges past 16, eps^2 (|c_0| + 2 sum |c_j|) / N, does not, and the
    # error names it with delta_star
    ctx = lw.LongWaveOperators(prof_cm4, grid, 0.5)
    w = 0.5 * random_band_limited(grid, rng, modes=600, even=True)
    c = ctx._cut_dct(ctx._half(w))
    bound = 0.25 * (abs(c[0]) + 2.0 * np.sum(np.abs(c[1:]))) / grid.N
    assert bound > ctx.model.delta_star
    with pytest.raises(lw.DomainError) as err:
        ctx.cubic(w)
    assert "ranges m > 16" in str(err.value)
    assert f"{bound:.3e} > delta_star = {ctx.model.delta_star}" in str(err.value)


def test_nnn_cubic_is_the_row_sum(ctx_nnn1, grid, rng):
    # M = 2 <= 16: P is the plain sum over both ranges, bit for bit
    ctx = ctx_nnn1
    v = 0.05 * random_band_limited(grid, rng, even=True)
    stack, m = ctx._sinc_stack, np.arange(1, 3, dtype=float)[:, None]
    eta = ctx.eps ** 2 * m * _idct(stack * ctx._cut_dct(ctx._half(v)))
    psi = ctx.model.psi_prime(m, eta)
    row_sum = np.sum(m * stack * ctx._cut_dct(psi), axis=0)
    assert np.array_equal(ctx.cubic(v).values,
                          (ctx.eps ** -6 * ctx._field(_idct(row_sum))).values)


def _dense_coupling(ctx, D, chunk=256):
    """-(2 / B_eps(j)) K(j, j') of the module docstring on modes j, j' < cut,
    summed range by range over every m <= M, for |j - j'| <= D."""
    N, cut = ctx.grid.N, ctx.grid.N // 3 + 1
    hat = np.fft.rfft(ctx.background.values)[:cut]
    c0 = np.where(np.arange(cut) % 2 == 0, 1.0, -1.0) * hat.real
    K = np.zeros((cut, cut))
    for lo in range(0, ctx.model.M, chunk):
        m = np.arange(lo + 1, min(lo + chunk, ctx.model.M) + 1, dtype=float)
        S = np.sinc(0.5 * ctx.eps * np.outer(m, ctx.grid.k[:cut]) / np.pi)
        w = ctx.model.beta[lo:lo + m.size] * m ** 3
        for d in range(D + 1):
            t = (S[:, d:] * S[:, :cut - d]).T @ (w * S[:, d]) * c0[d]
            j = np.arange(cut - d)
            K[j + d, j] += t
            if d:
                K[j, j + d] += t
        for i in range(D):
            j = np.arange(1, D - i + 1)
            K[i, j] += (S[:, j] * S[:, i + j]).T @ (w * S[:, i]) * c0[i + j]
    return -2.0 / (N * ctx._mult_b[:cut, None]) * K


# the a = 3.5 reference sums 13,838 ranges per entry: one eps keeps it short
_BAND_CASES = [("cm35", 0.05)] + [c for c in _GATE_CASES if c[0] != "cm35"]


@pytest.mark.parametrize("fam, eps", _BAND_CASES,
                         ids=[f"{f}-eps{e}" for f, e in _BAND_CASES])
def test_band_matrix_sums_every_row(request, grid, fam, eps):
    ctx = _gate_ctx(request, grid, fam, eps)
    dense = _band_dense(ctx)
    D = ctx._band_matrix()[0]
    ref = _dense_coupling(ctx, D)
    err = np.max(np.abs(dense - np.eye(dense.shape[0]) - ref))
    assert err <= 1e-14 * np.max(np.abs(ref))


def test_nnn_quadratic_is_the_row_sum(ctx_nnn1, grid, rng):
    # M = 2 <= 16: no far symbols, and Q is the plain sum over both ranges,
    # bit for bit
    ctx = ctx_nnn1
    assert ctx._sig is None
    v = 0.05 * random_band_limited(grid, rng, even=True)
    w = 0.05 * random_band_limited(grid, rng, even=True)
    stack = ctx._sinc_stack
    av, aw = (_idct(stack * ctx._cut_dct(ctx._half(f))) for f in (v, w))
    m = np.arange(1, 3, dtype=float)
    weights = (ctx.model.beta[:2] * m ** 3)[:, None]
    row_sum = np.sum(weights * stack * ctx._cut_dct(av * aw), axis=0)
    assert np.array_equal(ctx.quadratic(v, w).values,
                          ctx._field(_idct(row_sum)).values)
