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
``chirp_sum``, a chirp-z transform by Bluestein's FFT convolution, and
sums of cos or sin less their first Taylor terms through ``remainder_sums``.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, DomainError

_BLOCK = 65_536      # elements per (range x point) block of a direct remainder sum
_SERIES_TERMS = 14   # terms of a Taylor remainder's series below y = 2

__all__ = [
    "Grid", "Field", "apply_multiplier", "sobolev_norm", "project_even",
    "derivative", "mean_value", "antiderivative_mean_free",
    "evaluate_uniform", "chirp_sum", "trig_remainder", "remainder_sums",
    "direct_remainder_sums", "field_to_csv",
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

    Parity is a property of the values (``is_even``); the operator context
    works on the even part of whatever it is given.
    """

    __slots__ = ("grid", "values")

    def __init__(self, grid, values):
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
    def from_function(cls, grid, fn):
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


def evaluate_uniform(field, x0, dx, n):
    """The trigonometric interpolant of F at the n equispaced points
    x0 + t dx, t < n; exact for band-limited data.

    k_j (x + L) = j pi (x0 + L) / L + j t pi dx / L, so the interpolant on
    these points is one ``chirp_sum`` over every mode, O((N + n) log) work
    in place of n x N/2 exponentials.
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
    would round the phase by |h q| 2^-53 rad.  The bits go c at a time,
    c about log2 of the size of q, through a table of the 2^c products.
    """
    q = np.asarray(q, dtype=np.int64)
    out = np.ones(q.shape, dtype=complex)
    top = int(q.max()).bit_length() if q.size else 0
    c = min(16, max(1, q.size.bit_length()))
    for b in range(0, top, c):
        table = np.ones(1 << c, dtype=complex)
        for s in range(c):
            y = math.ldexp(h, b + s)
            table[1 << s:2 << s] = table[:1 << s] * complex(math.cos(y), math.sin(y))
        out *= table[(q >> b) & ((1 << c) - 1)]
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


def trig_remainder(y, kind, terms):
    """R_p(y) at y >= 0 for each p of the increasing ``terms``: cos y
    (``kind`` "cos") or sin y ("sin") less its first p Taylor terms
    T_n = (-1)^n y^q / q!, q = 2n (+1 for sin), stacked on a new first axis.

    One cos or sin per element (cos y - 1 as -2 sin^2(y/2), which keeps its
    digits near y = 2 pi k), less the Taylor terms.  Below y = 2, where that
    cancels, R_p (p >= 1) is its own series, whose terms fall by 1/3 or
    more: those past ``_SERIES_TERMS`` are below 2^-64 of the first.
    """
    y = np.asarray(y, dtype=float)
    q0 = ("cos", "sin").index(kind)
    out = np.empty((len(terms),) + y.shape)
    done = int(q0 == 0 and terms[0] >= 1)
    if done:
        out[0] = -2.0 * np.sin(0.5 * y) ** 2
        term = -0.5 * y * y  # T_done
    elif terms[-1]:
        (np.cos, np.sin)[q0](y, out=out[0])
        term = np.ones_like(y) if q0 == 0 else y.copy()
    else:
        return (np.cos, np.sin)[q0](y, out=out)
    for i, p in enumerate(terms):
        if i:
            out[i] = out[i - 1]
        for n in range(done, p):
            out[i] -= term
            if n + 1 < terms[-1]:
                term = term * y * y / -((q0 + 2 * n + 1) * (q0 + 2 * n + 2))
        done = max(done, p)
    small = y < 2.0
    ys, top = y[small], terms[-1]
    rs = np.zeros_like(ys)  # R_top by Horner in y^2, then R_p = T_p + R_(p+1)
    for k in range(_SERIES_TERMS - 1, -1, -1):
        rs *= ys * ys
        rs += (-1.0) ** (top + k) / math.factorial(q0 + 2 * top + 2 * k)
    rs *= ys ** (q0 + 2 * top)
    for i in range(len(terms) - 1, -1, -1):
        for n in range(terms[i], top):
            rs += (-1.0) ** n / math.factorial(q0 + 2 * n) * ys ** (q0 + 2 * n)
        top = terms[i]
        if top:
            out[i][small] = rs
    return out


def direct_remainder_sums(w, m0, t, kind, terms):
    """sum_i w[..., i] R_p((m0 + i) t) at the points ``t`` >= 0, for each p
    of ``terms`` (``trig_remainder``), one element at a time in blocks of
    ``_BLOCK`` elements; shape (len(terms),) + w.shape[:-1] + t.shape."""
    w, t = np.asarray(w, dtype=float), np.asarray(t, dtype=float)
    out = np.zeros((len(terms),) + w.shape[:-1] + t.shape)
    step = max(1, _BLOCK // max(1, t.size))
    for lo in range(0, w.shape[-1], step):
        hi = min(lo + step, w.shape[-1])
        m = np.arange(m0 + lo, m0 + hi, dtype=float)
        for o, r in zip(out, trig_remainder(np.outer(m, t), kind, terms)):
            o += w[..., lo:hi] @ r
    return out


def _corner(m0, rows, dt, n):
    """(m_s, j_s) of ``remainder_sums``, m_s j_s dt >= 2: of all such splits
    the one of least work, a direct element counting 1 and a chirp of FFT
    length s 2048 + s log2(s) / 4 (on 2 cores an element takes 25-50 ns, a
    chirp 60 us + 11 ns s log2(s)); (m0 + rows - 1, n), no chirp, if least.
    """
    m_end = m0 + rows - 1
    # a chirp saves at most r (n - 1) elements (m_s >= 1 leaves r ranges) and
    # costs more than 2048 and than its s >= n - 1: none pays at r <= 1
    r = rows - (m0 == 1)
    if r <= 1 or r * (n - 1) <= 2048:
        return m_end, n
    j = np.arange(1, n)
    m_s = np.clip(np.ceil(2.0 / (j * dt)), m0 - 1, m_end)
    c_rows, c_pts = m_end - m_s, n - j
    size = np.exp2(np.ceil(np.log2(np.maximum(c_rows + c_pts - 1.0, 1.0))))
    work = ((m_s - m0 + 1) * n + c_rows * j
            + np.where(c_rows > 0, 2048.0 + size * np.log2(size) / 4.0, 0.0))
    best = int(np.argmin(work))
    if c_rows[best] == 0 or work[best] >= rows * n:
        return m_end, n
    return int(m_s[best]), int(j[best])


def remainder_sums(w, m0, dt, n, kind, terms):
    """sum_i w[..., i] R_p((m0 + i) j dt) for j < n, for each p of
    ``terms`` (``trig_remainder``); m0 >= 1, dt > 0, and ``w`` may be a
    stack of rows.  Shape (len(terms),) + w.shape[:-1] + (n,).

    With the corner (m_s, j_s) of ``_corner``, the ranges m <= m_s, and
    the ranges m > m_s at j < j_s, are summed one by one; the rest is one
    ``chirp_sum`` C less Taylor moments, Re C (Im C for sin) - sum_{n<p}
    T_n(t) sum w_m m^q.  There every m j dt > 2, so nothing cancels more
    than in the terms one by one past y = 2.
    """
    w = np.asarray(w, dtype=float)
    t = dt * np.arange(n, dtype=float)
    m_s, j_s = _corner(m0, w.shape[-1], dt, n)
    near = m_s - m0 + 1
    out = direct_remainder_sums(w[..., :near], m0, t, kind, terms)
    if near < w.shape[-1]:
        far = w[..., near:]
        out[..., :j_s] += direct_remainder_sums(far, m_s + 1, t[:j_s], kind, terms)
        q0 = ("cos", "sin").index(kind)
        c = chirp_sum(far, dt, n - j_s, m0=m_s + 1, j0=j_s)
        m, tc = np.arange(m_s + 1, m_s + 1 + far.shape[-1], dtype=float), t[j_s:]
        for r, p in zip(out, terms):
            r[..., j_s:] += c.imag if q0 else c.real
            for q in range(q0, q0 + 2 * p, 2):
                moment = (far @ m ** q)[..., None]
                r[..., j_s:] -= (-1.0) ** (q // 2) / math.factorial(q) * tc ** q * moment
    return out


def field_to_csv(field, path, header=""):
    with open(path, "w") as fh:
        if header:
            fh.write(header if header.endswith("\n") else header + "\n")
        fh.write("x,value\n")
        for x, v in zip(field.grid.x, field.values):
            fh.write(f"{x:.17g},{v:.17g}\n")
