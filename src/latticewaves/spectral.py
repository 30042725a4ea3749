"""Uniform periodic grid, real FFT transforms, Sobolev norms, parity.

Everything downstream operates on real even profiles living on a box
``[-L, L)`` that is wide enough for the exponentially decaying waves to be
periodization-insensitive (the leading-order profile decays like e^{-|x|},
so L >= 20 keeps the wrap-around below 5e-9 and L = 40 buries it).

Discrete conventions: ``numpy.fft.rfft`` coefficients, wavenumbers
``k_j = pi j / L``; the Sobolev norm uses the Parseval normalization that
makes the s = 0 norm equal the grid L^2 norm, so that all residuals and
norm ratios are convention-independent.

Sums over an arithmetic progression of phases, such as the interpolant on
equispaced points or a cosine series at equispaced wavenumbers, go through
``chirp_sum``, a chirp-z transform by Bluestein's FFT convolution.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError

_DROP_BELOW = 1e-17  # relative spectral magnitude ``evaluate`` skips

__all__ = [
    "Grid", "Field", "apply_multiplier", "sobolev_norm", "project_even",
    "derivative", "mean_value", "antiderivative_mean_free", "evaluate",
    "evaluate_uniform", "chirp_sum", "field_to_csv", "spectrum_to_csv",
]


@dataclass(frozen=True)
class Grid:
    """Sampling of ``[-L, L)`` at N equispaced points, N a power of two."""

    L: float = 40.0
    N: int = 2048

    def __post_init__(self):
        if self.N < 256 or (self.N & (self.N - 1)) != 0:
            raise ConfigError(f"N must be a power of two >= 256, got {self.N}")
        if self.L < 20.0:
            raise ConfigError(f"L must be >= 20 (profile tails), got {self.L}")

    @cached_property
    def dx(self):
        return 2.0 * self.L / self.N

    @cached_property
    def x(self):
        return -self.L + self.dx * np.arange(self.N)

    @cached_property
    def k(self):
        """Nonnegative wavenumbers pi*j/L matching rfft layout."""
        return (np.pi / self.L) * np.arange(self.N // 2 + 1)

    def refine(self):
        return Grid(L=self.L, N=2 * self.N)

    def widen(self):
        """Double the box at fixed dx (used by L-insensitivity checks)."""
        return Grid(L=2.0 * self.L, N=2 * self.N)


class Field:
    """A real function sampled on a grid; values are immutable.

    The ``even`` keyword is accepted and ignored: parity is a property of
    the values (``is_even``), and the operator context works on the even
    part of whatever it is given.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid, values, even=None):
        values = np.asarray(values, dtype=float)
        if values.shape != (grid.N,):
            raise ConfigError(f"field shape {values.shape} != grid size ({grid.N},)")
        if not np.all(np.isfinite(values)):
            raise DomainError("field contains non-finite values")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("Field is immutable")

    @classmethod
    def from_function(cls, grid, fn, even=None):
        return cls(grid, fn(grid.x))

    @classmethod
    def zero(cls, grid):
        return cls(grid, np.zeros(grid.N))

    def with_values(self, values):
        return Field(self.grid, values)

    # light arithmetic; pointwise products live in the operator layer
    def __add__(self, other):
        return Field(self.grid, self.values + other.values)

    def __sub__(self, other):
        return Field(self.grid, self.values - other.values)

    def __mul__(self, scalar):
        return Field(self.grid, self.values * float(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return self * (-1.0)

    def norm(self, s=0.0):
        return sobolev_norm(self, s)

    def is_even(self, tol=1e-10):
        return bool(np.max(np.abs(self.values - _reflect(self.values))) <= tol)

    def spectrum(self):
        return np.fft.rfft(self.values)


def _reflect(values):
    """Samples of x -> F(-x); the x = -L point maps to itself."""
    return np.roll(values[::-1], 1)


def apply_multiplier(field, multiplier):
    """Apply a real even Fourier multiplier m(k).

    ``multiplier`` is a callable evaluated on the grid wavenumbers or a
    ready-made array of length N//2 + 1.  Raises on non-finite symbol values
    (singular multipliers must be regularized by the caller).
    """
    m = multiplier(field.grid.k) if callable(multiplier) else np.asarray(multiplier)
    if m.shape != field.grid.k.shape:
        raise ConfigError("multiplier array has wrong length")
    if not np.all(np.isfinite(m)):
        raise DomainError("singular multiplier: non-finite symbol value")
    out = np.fft.irfft(m * np.fft.rfft(field.values), n=field.grid.N)
    return field.with_values(out)


def derivative(field, order=1):
    """Spectral derivative; even orders keep parity, odd orders flip it."""
    coeffs = np.fft.rfft(field.values) * (1j * field.grid.k) ** order
    out = np.fft.irfft(coeffs, n=field.grid.N)
    return Field(field.grid, out)


def sobolev_norm(field, s=0.0):
    """Discrete H^s norm, Parseval-normalized so s = 0 is the grid L^2 norm.

    norm^2 = (dx/N) * sum_j w_j (1 + k_j^2)^s |F_hat_j|^2 with rfft weights
    w = 1 for the j = 0 and Nyquist bins and 2 otherwise.
    """
    if s < -2.0:
        raise DomainError(f"sobolev_norm requires s >= -2, got {s}")
    grid = field.grid
    coeffs = np.fft.rfft(field.values)
    w = np.full(grid.N // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    weight = (1.0 + grid.k ** 2) ** s
    return float(np.sqrt(grid.dx / grid.N * np.sum(w * weight * np.abs(coeffs) ** 2)))


def project_even(field):
    """Symmetric part (F(x) + F(-x))/2; idempotent, kills odd fields."""
    vals = 0.5 * (field.values + _reflect(field.values))
    return Field(field.grid, vals)


def mean_value(field):
    """Average of F over the box (the k = 0 Fourier coefficient)."""
    return float(np.mean(field.values))


def antiderivative_mean_free(field):
    """Periodic antiderivative of F minus its mean (zero-mean primitive)."""
    coeffs = np.fft.rfft(field.values)
    k = field.grid.k.copy()
    coeffs[0] = 0.0
    k[0] = 1.0  # avoid 0/0; the j = 0 bin was zeroed above
    out = np.fft.irfft(coeffs / (1j * k), n=field.grid.N)
    return Field(field.grid, out)


def evaluate(field, x_out):
    """Evaluate the trigonometric interpolant of F at arbitrary points.

    Exact for band-limited data; modes with relative magnitude below
    ``_DROP_BELOW`` are skipped (profile spectra decay to machine zero well
    before the Nyquist bin, so this cuts the cost by ~3x).
    """
    grid = field.grid
    coeffs = np.fft.rfft(field.values) / grid.N
    scale = np.max(np.abs(coeffs))
    keep = np.nonzero(np.abs(coeffs) > _DROP_BELOW * max(scale, 1e-300))[0]
    x_out = np.atleast_1d(np.asarray(x_out, dtype=float))
    # series in exp(i k (x + L)); the grid starts at x = -L
    phase = np.exp(1j * np.outer(x_out + grid.L, grid.k[keep]))
    w = np.full(grid.N // 2 + 1, 2.0)
    w[0] = 1.0
    w[-1] = 1.0
    out = phase @ (w[keep] * coeffs[keep])
    return out.real


def evaluate_uniform(field, x0, dx, n):
    """``evaluate`` at the n equispaced points x0 + t dx, t < n.

    k_j (x + L) = j pi (x0 + L) / L + j t pi dx / L, so the interpolant on
    these points is one ``chirp_sum`` over every mode, O((N + n) log) work
    in place of the n x N/2 exponentials of ``evaluate``.
    """
    grid = field.grid
    coeffs = np.fft.rfft(field.values) / grid.N
    coeffs[1:-1] *= 2.0
    j = np.arange(coeffs.size)
    x = coeffs * _expi(math.pi * (x0 + grid.L) / grid.L, j)
    return chirp_sum(x, math.pi * dx / grid.L, n).real


def _expi(h, q):
    """exp(i h q) for integers q >= 0, as the product of exp(i h 2^b) over
    the set bits b of q.  Each h 2^b is exact and libm reduces it exactly,
    so the result is good to a few ulp however large h q is; forming h q
    would round the phase by |h q| 2^-53 rad.
    """
    q = np.asarray(q, dtype=np.int64)
    out = np.ones(q.shape, dtype=complex)
    b = 0
    while np.any(q >> b):
        y = math.ldexp(h, b)
        out[(q >> b) & 1 == 1] *= complex(math.cos(y), math.sin(y))
        b += 1
    return out


def chirp_sum(x, d, n_out, m0=0, j0=0):
    """sum_i x_i exp(i (m0 + i)(j0 + t) d) for t < n_out; integers m0, j0 >= 0.

    ``x`` may be a stack of rows: the sum runs along its last axis, and
    every row shares the chirps and the kernel transform.

    The chirp-z transform by Bluestein's algorithm (Rabiner, Schafer &
    Rader 1969; Bluestein 1970): with 2 (m0 + i)(j0 + t) = (i^2 + 2 i j0)
    + (t^2 + 2 m0 t + 2 m0 j0) - (t - i)^2 it is a chirp on the input, a
    linear convolution with exp(-i d s^2 / 2) by FFT, and a chirp on the
    output.  Every chirp comes from ``_expi``, so the error is a few ulp of
    sum |x_i| for any step d and any lengths.
    """
    if m0 < 0 or j0 < 0:
        raise DomainError(f"chirp_sum needs m0, j0 >= 0, got {m0}, {j0}")
    x = np.asarray(x)
    n_in = x.shape[-1]
    h = 0.5 * d
    i = np.arange(n_in, dtype=np.int64)
    t = np.arange(n_out, dtype=np.int64)
    size = 1 << (n_in + n_out - 2).bit_length()
    y = np.zeros(x.shape[:-1] + (size,), dtype=complex)
    y[..., :n_in] = x * _expi(h, i * (i + 2 * j0))
    kernel = np.zeros(size, dtype=complex)
    kernel[:n_out] = _expi(-h, t * t)
    kernel[size - n_in + 1:] = _expi(-h, i[:0:-1] ** 2)
    conv = np.fft.ifft(np.fft.fft(y) * np.fft.fft(kernel))[..., :n_out]
    return conv * _expi(h, t * t + 2 * m0 * t + 2 * m0 * j0)


def field_to_csv(field, path, header=""):
    with open(path, "w") as fh:
        if header:
            fh.write(header if header.endswith("\n") else header + "\n")
        fh.write("x,value\n")
        for x, v in zip(field.grid.x, field.values):
            fh.write(f"{x:.17g},{v:.17g}\n")


def spectrum_to_csv(field, path, header=""):
    coeffs = field.spectrum()
    with open(path, "w") as fh:
        if header:
            fh.write(header if header.endswith("\n") else header + "\n")
        fh.write("k,re,im\n")
        for k, c in zip(field.grid.k, coeffs):
            fh.write(f"{k:.17g},{c.real:.17g},{c.imag:.17g}\n")
