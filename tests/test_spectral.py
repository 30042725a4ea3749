"""Grid/Field substrate: transforms, multipliers, norms, parity."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import latticewaves as lw
from latticewaves import spectral
from latticewaves.spectral import (antiderivative_mean_free, chirp_sum,
                                   derivative, evaluate_uniform, mean_value,
                                   remainder_sums, trig_remainder)
from conftest import evaluate_dense, random_band_limited


def test_grid_validation():
    with pytest.raises(lw.ConfigError):
        lw.Grid(L=40.0, N=1000)  # not a power of two
    with pytest.raises(lw.ConfigError):
        lw.Grid(L=40.0, N=128)
    with pytest.raises(lw.ConfigError):
        lw.Grid(L=10.0, N=512)


def test_transform_roundtrip(grid, rng):
    for _ in range(5):
        f = random_band_limited(grid, rng, modes=200)
        back = np.fft.irfft(np.fft.rfft(f.values), n=grid.N)
        assert np.max(np.abs(back - f.values)) < 1e-12 * max(1, np.max(np.abs(f.values)))


def test_multiplier_identity(grid, sech2):
    out = lw.apply_multiplier(sech2, lambda k: np.ones_like(k))
    assert np.max(np.abs(out.values - sech2.values)) < 1e-14


def test_multiplier_composition(grid, rng):
    f = random_band_limited(grid, rng)
    m1 = lambda k: np.exp(-0.1 * k ** 2)
    m2 = lambda k: 1.0 / (1.0 + k ** 2)
    a = lw.apply_multiplier(lw.apply_multiplier(f, m2), m1)
    b = lw.apply_multiplier(f, lambda k: m1(k) * m2(k))
    assert np.max(np.abs(a.values - b.values)) < 1e-12


def test_singular_multiplier_rejected(grid, sech2):
    with np.errstate(divide="ignore"), pytest.raises(lw.DomainError):
        lw.apply_multiplier(sech2, lambda k: 1.0 / k)  # infinite at k = 0


def test_helmholtz_inverse_on_band_limited(grid, rng):
    # (1 + k^2)^-1 applied to (1 - d_xx) G recovers G
    g = random_band_limited(grid, rng, modes=100)
    forward = g - derivative(g, 2)
    back = lw.apply_multiplier(forward, lambda k: 1.0 / (1.0 + k ** 2))
    assert np.max(np.abs(back.values - g.values)) < 1e-10


def test_sliding_mean_against_quadrature(grid):
    # multiplier route vs direct Gauss-Legendre quadrature of the window mean
    h = 0.3
    f = lw.Field.from_function(grid, lambda x: 1.0 / np.cosh(0.5 * x) ** 2)
    avg = lw.moving_average(f, h)
    nodes, weights = np.polynomial.legendre.leggauss(32)
    x = grid.x
    acc = np.zeros_like(x)
    for t, w in zip(nodes, weights):
        y = x + 0.5 * h * t
        acc += 0.5 * w / np.cosh(0.5 * y) ** 2
    assert np.max(np.abs(avg.values - acc)) < 1e-8


def test_plancherel(grid, rng):
    f = random_band_limited(grid, rng)
    l2 = np.sqrt(grid.dx * np.sum(f.values ** 2))
    assert lw.sobolev_norm(f, 0.0) == pytest.approx(l2, rel=1e-12)


def test_sobolev_zero_field(grid):
    assert lw.sobolev_norm(lw.Field.zero(grid), 0.0) == 0.0


def test_sech2_l2_norm(grid, sech2):
    # integral of sech^4(x/2) over the line is 8/3
    assert lw.sobolev_norm(sech2, 0.0) == pytest.approx(np.sqrt(8.0 / 3.0), abs=1e-8)


def test_h1_dominates_l2(grid, rng):
    for _ in range(20):
        f = random_band_limited(grid, rng)
        assert lw.sobolev_norm(f, 1.0) >= lw.sobolev_norm(f, 0.0)


def test_sobolev_domain(grid, sech2):
    with pytest.raises(lw.DomainError):
        lw.sobolev_norm(sech2, -3.0)


def test_project_even_identity_idempotent(grid, sech2, rng):
    assert np.max(np.abs(lw.project_even(sech2).values - sech2.values)) < 1e-15
    f = random_band_limited(grid, rng)
    once = lw.project_even(f)
    twice = lw.project_even(once)
    assert np.max(np.abs(once.values - twice.values)) < 1e-15


def test_project_even_kills_odd(grid):
    odd = lw.Field.from_function(grid, lambda x: x * np.exp(-x ** 2))
    assert np.max(np.abs(lw.project_even(odd).values)) < 1e-15


def test_even_part_extraction(grid):
    f = lw.Field.from_function(
        grid, lambda x: 1.0 / np.cosh(0.5 * x) ** 2 + 0.1 * x * np.exp(-x ** 2))
    even = lw.project_even(f)
    target = 1.0 / np.cosh(0.5 * grid.x) ** 2
    assert np.max(np.abs(even.values - target)) < 1e-12


def test_parity_preserved_by_even_multiplier(grid, rng):
    f = random_band_limited(grid, rng, even=True)
    out = lw.apply_multiplier(f, lambda k: np.cos(k) * np.exp(-0.01 * k ** 2))
    assert out.is_even(1e-12)


def test_field_immutable(grid, sech2):
    with pytest.raises(ValueError):
        sech2.values[0] = 1.0
    with pytest.raises(AttributeError):
        sech2.values = np.zeros(grid.N)


def test_antiderivative_and_mean(grid, sech2):
    mean = mean_value(sech2)
    assert mean == pytest.approx(8.0 / (2.0 * grid.L * 2.0), rel=1e-8)  # integral 4
    u = antiderivative_mean_free(sech2)
    du = derivative(u, 1)
    target = sech2.values - mean
    assert np.max(np.abs(du.values - target)) < 1e-10


def test_evaluate_matches_grid_and_offgrid(grid, sech2):
    # exact at grid nodes, spectrally accurate between them
    sub = sech2.values[::97]
    vals = evaluate_uniform(sech2, -grid.L, 97 * grid.dx, sub.size)
    assert np.max(np.abs(vals - sub)) < 1e-12
    mid = grid.x[:50] + 0.37 * grid.dx
    vals_mid = evaluate_uniform(sech2, mid[0], grid.dx, 50)
    exact = 1.0 / np.cosh(0.5 * mid) ** 2
    assert np.max(np.abs(vals_mid - exact)) < 1e-10


def test_evaluate_uniform_matches_evaluate(grid, sech2, rng):
    # off-grid start, steps that are and are not multiples of dx; both
    # round at about 1e-16 of the coefficients' l1 norm times the phases
    f = random_band_limited(grid, rng, modes=300)
    for field in (sech2, f):
        scale = 2.0 * np.sum(np.abs(field.spectrum())) / grid.N
        for x0, dx, n in ((-39.93, 0.1, 799), (-7.3, grid.dx, 200),
                          (1.234, 0.0371, 1), (-40.0, 0.4 * np.sqrt(2.0), 141)):
            ref = evaluate_dense(field, x0 + dx * np.arange(n))
            out = evaluate_uniform(field, x0, dx, n)
            assert np.max(np.abs(out - ref)) <= 1e-13 * scale


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the dense reference needs extended precision")
@pytest.mark.parametrize("n_in, n_out, d, m0, j0", [
    (1, 5, 0.7, 3, 2),
    (2, 7, 2.5, 11, 4),
    (13_838, 100, 0.2 * np.pi / 40.0 / np.sqrt(2.0), 5, 900),
    (13_838, 4, np.e, 17, 2),
])
def test_chirp_sum_matches_dense_sum(rng, n_in, n_out, d, m0, j0):
    # the reference forms every phase (m0 + i)(j0 + t) d, up to 2e5 rad,
    # in long double; in float64 such a phase rounds by 1e-11 rad
    x = rng.standard_normal(n_in) + 1j * rng.standard_normal(n_in)
    out = chirp_sum(x, d, n_out, m0=m0, j0=j0)
    p = np.outer(np.arange(m0, m0 + n_in), np.arange(j0, j0 + n_out))
    phase = p.astype(np.longdouble) * np.longdouble(d)
    ref = x.astype(np.clongdouble) @ (np.cos(phase) + 1j * np.sin(phase))
    assert out.shape == (n_out,)
    assert np.max(np.abs(out - ref.astype(complex))) <= 1e-13 * np.sum(np.abs(x))


def test_chirp_sum_takes_a_stack_of_rows(rng):
    # a stack sums along its last axis, each row as a lone call would
    x = rng.standard_normal((3, 40)) + 1j * rng.standard_normal((3, 40))
    out = chirp_sum(x, 0.3, 25, m0=17, j0=1)
    assert out.shape == (3, 25)
    for row, ref in zip(out, (chirp_sum(r, 0.3, 25, m0=17, j0=1) for r in x)):
        assert np.max(np.abs(row - ref)) <= 1e-15 * np.sum(np.abs(x))


def test_chirp_sum_rejects_negative_offsets():
    with pytest.raises(lw.DomainError):
        chirp_sum(np.ones(3), 0.1, 4, m0=-1)


# every (kind, terms) the package sums: t1/t2, sig, Msym, H_j odd and even
_REMAINDER_KINDS = [("cos", (2, 3)), ("sin", (1,)), ("cos", (1,)),
                    ("cos", (0,)), ("sin", (0,))]
# dt and n of the certificate grid and of eps 0.05 / 0.4 contexts (L = 40)
_PROGRESSIONS = {"cert": (4.0 * np.pi / 4096, 4097),
                 "eps0.05": (0.05 * np.pi / 40.0, 1025),
                 "eps0.4": (0.4 * np.pi / 40.0, 1025)}


def _remainder_ld(y, kind, p):
    """R_p(y) in long double: the Taylor series to 40 terms below y = 2,
    else cos (as 1 - 2 sin^2(y/2) when p >= 1) or sin less p terms."""
    q0 = ("cos", "sin").index(kind)
    if q0 == 0 and p >= 1:
        r, start = -2.0 * np.sin(y / 2) ** 2, 1
    else:
        r, start = (np.sin(y) if q0 else np.cos(y)), 0
    for n in range(start, p):
        r = r - (-1) ** n * y ** (q0 + 2 * n) / np.longdouble(math.factorial(q0 + 2 * n))
    small = y < 2
    ys, acc = y[small], np.zeros(np.count_nonzero(small), dtype=np.longdouble)
    for n in range(p + 40, p - 1, -1):  # Horner in y^2
        acc = acc * ys * ys + (-1) ** n / np.longdouble(math.factorial(q0 + 2 * n))
    r[small] = acc * ys ** (q0 + 2 * p)
    return r


def test_trig_remainder_against_mpmath():
    # R_p at 40 digits across the series cut at y = 2 and past 2 pi; cos
    # less one term is relative-accurate at y = 2 pi as well
    mpmath = pytest.importorskip("mpmath")
    ys = np.concatenate((np.geomspace(1e-6, 40.0, 48),
                         [1.999999, 2.0, 2.000001, 2.0 * np.pi, 1e4 + 0.3]))
    for kind, terms in _REMAINDER_KINDS:
        q0 = ("cos", "sin").index(kind)
        f = (mpmath.cos, mpmath.sin)[q0]
        out = trig_remainder(ys, kind, terms)
        assert out.shape == (len(terms), ys.size)
        for r, p in zip(out, terms):
            with mpmath.workdps(120):
                ref = np.array([float(f(mpmath.mpf(y)) - sum(
                    (-1) ** n * mpmath.mpf(y) ** (q0 + 2 * n)
                    / mpmath.factorial(q0 + 2 * n) for n in range(p)))
                    for y in ys])
            assert np.max(np.abs(r / ref - 1.0)) <= 1e-14


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="the dense reference needs extended precision")
@pytest.mark.parametrize("prog", list(_PROGRESSIONS))
@pytest.mark.parametrize("M", [2, 144, 3037, 13_838])
@pytest.mark.parametrize("m0", [1, 17])
def test_remainder_sums_match_dense_sum(monkeypatch, rng, prog, M, m0):
    # against the sum with every phase (m0 + i) j dt formed in long double.
    # The bound is 1e-14 of sum |w_m R_p(m t_j)| at each point, plus what
    # rounding the phases to floats (one by one) and the chirp's few ulp of
    # sum |w| allow: 2^-50 sum |w| (1 + y |R_p'(y)|).  That floor decides
    # only where every R_p(m t_j) nearly vanishes (t_j near 2 pi k for cos
    # less one term, near pi k for sin) or where p = 0 at large m t_j.
    dt, n = _PROGRESSIONS[prog]
    chirps = []

    def recorded(x, d, n_out, m0=0, j0=0):
        chirps.append((m0, j0, d))
        return chirp_sum(x, d, n_out, m0=m0, j0=j0)

    monkeypatch.setattr(spectral, "chirp_sum", recorded)
    m = np.arange(m0, m0 + M, dtype=float)
    j_s = spectral._corner(m0, M, dt, n)[1]
    js = np.unique(np.clip([1, 2, 3, j_s - 1, j_s, j_s + 1, n // 3, n // 2,
                            n - 1, *rng.integers(1, n, 4)], 1, n - 1))
    for kind, terms in _REMAINDER_KINDS:
        w = rng.uniform(-1.0, 1.0, M) * m ** -2.0
        if terms == (0,):  # the degree tables sum stacks of rows
            w = np.stack((w, rng.uniform(-1.0, 1.0, M) * m ** -3.5))
        out = remainder_sums(w, m0, dt, n, kind, terms)
        assert out.shape == (len(terms),) + w.shape[:-1] + (n,)
        wl, wa = w.astype(np.longdouble), np.abs(w).astype(np.longdouble)
        y = np.outer(m.astype(np.longdouble), js * np.longdouble(dt))
        for r, p in zip(out, terms):
            rp = _remainder_ld(y, kind, p)
            slope = (_remainder_ld(y, "sin", max(p - 1, 0)) if kind == "cos"
                     else _remainder_ld(y, "cos", p))
            bound = (1e-14 * (wa @ np.abs(rp))
                     + 2.0 ** -50 * (wa @ (1.0 + y * np.abs(slope))))
            assert np.all(np.abs(r[..., js] - wl @ rp) <= bound), (kind, p)
    assert all(c0 * c1 * d >= 2.0 for c0, c1, d in chirps)
    if M == 2:
        assert not chirps


def test_remainder_sums_against_mpmath(rng):
    # a subset at 30 digits, checking the long-double reference's ground:
    # M = 144 from m0 = 17 on the certificate grid, where the corner has
    # rows one by one at every point and a chirp past it
    mpmath = pytest.importorskip("mpmath")
    dt, n = _PROGRESSIONS["cert"]
    M, m0 = 144, 17
    m_s, j_s = spectral._corner(m0, M, dt, n)
    assert m_s < m0 + M - 1
    w = rng.uniform(-1.0, 1.0, M) * np.arange(m0, m0 + M, dtype=float) ** -2.0
    for kind, terms in _REMAINDER_KINDS[:3]:
        q0 = ("cos", "sin").index(kind)
        f = (mpmath.cos, mpmath.sin)[q0]
        out = remainder_sums(w, m0, dt, n, kind, terms)
        for j in (1, j_s - 1, j_s, 1000):
            with mpmath.workdps(30):
                t = j * mpmath.mpf(dt)
                rows = [[f(mm * t) - sum((-1) ** k * (mm * t) ** (q0 + 2 * k)
                                         / mpmath.factorial(q0 + 2 * k)
                                         for k in range(p)) for p in terms]
                        for mm in range(m0, m0 + M)]
                for i, p in enumerate(terms):
                    ref = mpmath.fsum(mpmath.mpf(wm) * row[i] for wm, row in zip(w, rows))
                    scale = mpmath.fsum(abs(mpmath.mpf(wm) * row[i]) for wm, row in zip(w, rows))
                    assert abs(out[i][j] - float(ref)) <= 1e-14 * float(scale)


def test_pipeline_does_not_import_scipy_signal(tmp_path):
    # importing scipy.signal adds 0.6-0.9 s to set-up (2-core machine, on
    # top of numpy and scipy.linalg); the chirp sums use numpy.fft alone,
    # and classify -> context -> solve -> lattice set-up must not pull it
    # in through any module.  scipy.linalg (about 0.23 s) loads on the
    # first band solve, so import and classification load no scipy at all
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    script = (
        "import sys\n"
        "import latticewaves as lw\n"
        "prof = lw.certify_type1(lw.build_model(lw.PotentialSpec.nnn(1.0)))\n"
        "print(any(name.split('.')[0] == 'scipy' for name in sys.modules))\n"
        "ctx = lw.LongWaveOperators(prof, lw.Grid(40.0, 1024), 0.2)\n"
        "lw.init_from_wave(lw.solve_contraction(ctx), 1024)\n"
        "print('scipy.signal' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False"]


def test_csv_exports(tmp_path, grid, sech2):
    from latticewaves.spectral import field_to_csv
    p1 = tmp_path / "f.csv"
    field_to_csv(sech2, p1, header="# test")
    lines = p1.read_text().splitlines()
    assert lines[0] == "# test" and lines[1] == "x,value"
    assert len(lines) == grid.N + 2
