import numpy as np
import pytest

import latticewaves as lw

# Session-scoped builds: models are immutable, certificates deterministic.


@pytest.fixture(scope="session")
def grid():
    return lw.Grid(L=40.0, N=2048)


@pytest.fixture(scope="session")
def cm4():
    return lw.build_model(lw.PotentialSpec.calogero_moser(4.0), trunc_tol=1e-8)


@pytest.fixture(scope="session")
def cm35():
    return lw.build_model(lw.PotentialSpec.calogero_moser(3.5), trunc_tol=1e-8)


@pytest.fixture(scope="session")
def cm6():
    return lw.build_model(lw.PotentialSpec.calogero_moser(6.0), trunc_tol=1e-8)


@pytest.fixture(scope="session")
def nnn1():
    return lw.build_model(lw.PotentialSpec.nnn(1.0), trunc_tol=1e-8)


@pytest.fixture(scope="session")
def prof_cm4(cm4):
    return lw.certify_type1(cm4)


@pytest.fixture(scope="session")
def prof_cm35(cm35):
    return lw.certify_type1(cm35)


@pytest.fixture(scope="session")
def prof_cm6(cm6):
    return lw.certify_type1(cm6)


@pytest.fixture(scope="session")
def prof_nnn1(nnn1):
    return lw.certify_type1(nnn1)


@pytest.fixture(scope="session")
def ctx_cm4(prof_cm4, grid):
    return lw.LongWaveOperators(prof_cm4, grid, 0.1)


@pytest.fixture(scope="session")
def ctx_nnn1(prof_nnn1, grid):
    return lw.LongWaveOperators(prof_nnn1, grid, 0.1)


@pytest.fixture(scope="session")
def sol_cm4(ctx_cm4):
    return lw.solve_contraction(ctx_cm4, tol=1e-12, max_iter=50)


@pytest.fixture(scope="session")
def sol_nnn1(ctx_nnn1):
    return lw.solve_contraction(ctx_nnn1, tol=1e-12, max_iter=50)


@pytest.fixture(scope="session")
def sech2(grid):
    return lw.Field.from_function(grid, lambda x: 1.0 / np.cosh(0.5 * x) ** 2)


@pytest.fixture()
def rng():
    return np.random.default_rng(20260810)


def random_band_limited(grid, rng, modes=60, even=False):
    """Random smooth field with spectrum confined to the lowest modes."""
    coeffs = np.zeros(grid.N // 2 + 1, dtype=complex)
    coeffs[1:modes] = (rng.standard_normal(modes - 1)
                       + 1j * rng.standard_normal(modes - 1))
    vals = np.fft.irfft(coeffs, n=grid.N)
    f = lw.Field(grid, vals / max(np.max(np.abs(vals)), 1e-30))
    return lw.project_even(f) if even else f


def evaluate_dense(field, x_out):
    """Trigonometric interpolant of F at arbitrary points, one exponential
    per (point, mode): the reference ``spectral.evaluate_uniform`` is
    checked against."""
    grid = field.grid
    coeffs = np.fft.rfft(field.values) / grid.N
    coeffs[1:-1] *= 2.0
    x_out = np.atleast_1d(np.asarray(x_out, dtype=float))
    # series in exp(i k (x + L)); the grid starts at x = -L
    return (np.exp(1j * np.outer(x_out + grid.L, grid.k)) @ coeffs).real
