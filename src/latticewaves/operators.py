"""Grid realizations of the long-wave lattice operators.

The traveling-wave equation for the rescaled strain profile W reads::

    B_eps W = Q_eps(W, W) + eps^2 P_eps(W)

with

* ``B_eps``  -- Fourier multiplier  (c0^2 - lambda''(0) eps^2 / 2
  - lambda(eps k)) / eps^2, a bounded invertible operator pinched between
  |lambda''(0)|/2 and (c0^2 - inf lambda)/eps^2 + |lambda''(0)|/2 for
  type I lattices;
* ``Q_eps``  -- the quadratic sum  sum_m beta_m m^3 A_em[(A_em V)(A_em W)]
  over sliding averages ``A_h`` of width h = eps*m;
* ``P_eps``  -- the cubic-and-higher remainder sum
  eps^-6 sum_m m A_em[psi_m'(m eps^2 A_em W)].

As eps -> 0 these collapse to ``B_0 = -lambda''(0)(1 - d_xx)/2``,
``Q_0(V, W) = b V W`` and a bounded cubic term, leaving the KdV-type
equation solved exactly by the sech^2 profile.  The solver works with the
correction ansatz ``W = W0 + eps^sigma V``, for which this module provides
the forcing ``R_eps``, the shifted cubic term ``N_eps`` and the linearized
operator ``L_eps V = V - 2 B_eps^-1 Q_eps(W0, V)`` together with a direct
solver for it.

All operators map even fields to even fields; pointwise products are
dealiased with the 2/3 rule.  On that subspace ``L_eps`` is a real banded
matrix in the cosine basis ``c(j) = (-1)^j rfft(V)_j``, j < cut = N//3 + 1
(the identity on the modes at and above the cut)::

    (L_eps c)(j) = c(j) - (2 / B_eps(j)) sum_j' K(j, j') c(j'),
    K(j, j') = (1/N) sum_m beta_m m^3 s_m(j) s_m(j')
               [s_m(j - j') c0(|j - j'|) + [j' > 0] s_m(j + j') c0(j + j')]

with ``s_m(j) = sinc(eps m k_j / 2)`` (1 at eps = 0, where the m-sum is b)
and ``c0`` the cosine coefficients of the cut W0.  These fall below 2^-53 of
their largest value past an index D (166 on the L = 40 box), so K has
half-bandwidth D; ``linearized_solve`` factors it once with a band LU.
"""

import contextlib

import numpy as np
from scipy.linalg.lapack import dgbtrf, dgbtrs

from .catalog import b_coefficient
from .dispersion import long_wave_curvature, taylor_remainders
from .errors import CertificationError, ConfigError, DomainError, SolverError
from .spectral import Field, apply_multiplier, project_even

__all__ = ["moving_average", "averaging_defect", "LongWaveOperators"]

_M_APPLY = 512          # per-m FFT sums get expensive beyond this
_EPS_MAX = 0.5          # largest eps a context accepts
_SOLVE_RTOL = 1e-11     # accepted relative residual of a linearized solve
_REFINE_STEPS = 2       # band-solve refinements before a solve gives up


def _sinc(y):
    return np.sinc(y / np.pi)


def moving_average(field, width):
    """Sliding mean of window ``width``: multiplier sinc(width * k / 2).

    width = 0 is the identity; any width preserves the mean and contracts
    every Sobolev norm (the symbol is bounded by 1).
    """
    if width < 0:
        raise DomainError("averaging width must be nonnegative")
    if width == 0.0:
        return field.with_values(field.values)
    return apply_multiplier(field, lambda k: _sinc(0.5 * width * k))


def _defect_symbol(y):
    """(sinc(y) - 1) / y^2 with its limit -1/6 at 0, cancellation-safe."""
    y2 = y * y
    series = -(1.0 / 6.0) * (1.0 - y2 / 20.0 * (1.0 - y2 / 42.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        direct = np.where(y2 > 0.0, (_sinc(y) - 1.0) / np.where(y2 > 0, y2, 1.0), series)
    return np.where(np.abs(y) < 0.05, series, direct)


def averaging_defect(field, width):
    """Second-order defect operator of the sliding mean.

    Its symbol is (sinc(width*k/2) - 1)/(width*k)^2 with removable value
    -1/24 at k = 0, so that on the Fourier side

        (A_width - 1) F = -width^2 * defect(F'')

    holds exactly; the symbol is bounded by 1/24 uniformly in width.
    """
    if width <= 0:
        raise DomainError("defect operator needs width > 0")
    return apply_multiplier(field, lambda k: 0.25 * _defect_symbol(0.5 * width * k))


class LongWaveOperators:
    """Operator context: one lattice, one grid, one scaling parameter eps.

    Immutable after construction apart from caches of W0-only terms and the
    band factor held inside ``factored()``; all methods are pure
    field-to-field maps, so distinct contexts can be evaluated
    concurrently.  ``eps = 0``
    constructs the KdV-limit context in which the quadratic term becomes
    b*V*W, the linear operator its constant-coefficient limit, and the
    cubic remainder vanishes (used by the independent fixed-point oracle).

    The per-m field sums (quadratic/cubic operators) run over
    ``m_apply = min(M, 512)`` ranges and the neglected coefficient mass is
    kept on ``quadratic_tail_bound`` so consumers can account for it.  The
    linear multipliers always use the model's full coefficient table plus
    certified tail corrections, evaluated on the grid's progression
    eps k_j = j eps pi / L by ``TaylorRemainders.t1_t2_progression`` (one
    chirp-z transform above 0.6 rad).  eps must lie in [0, 0.5].
    """

    def __init__(self, profile, grid, eps, sigma=None):
        model = profile.model
        if eps < 0.0 or eps > _EPS_MAX:
            raise ConfigError(f"eps={eps} outside [0, {_EPS_MAX}]")
        if profile.lambda_dd0 >= 0.0:
            raise CertificationError(
                "wrong dispersion type: lambda''(0) >= 0 admits no "
                "supersonic long-wave limit"
            )
        if not profile.type1_certified:
            raise CertificationError("profile is not type I certified")
        self.model = model
        self.profile = profile
        self.grid = grid
        self.eps = float(eps)
        self.sigma = float(profile.sigma if sigma is None else sigma)
        self.m_apply = int(min(model.M, _M_APPLY))
        self._cut = grid.N // 3 + 1  # first zeroed rfft bin (2/3 rule)

        self.c0_sq = profile.c0_sq
        self.lambda_dd0 = long_wave_curvature(model)
        self.b = b_coefficient(model)
        self.speed_sq = self.c0_sq - 0.5 * self.lambda_dd0 * self.eps ** 2

        k = grid.k
        half = 0.5 * abs(self.lambda_dd0)
        self._mult_b0 = half * (1.0 + k * k)
        if self.eps == 0.0:
            self._mult_b = self._mult_b0.copy()
            self._mult_bdiff = np.zeros_like(k)
        else:
            t1, t2 = taylor_remainders(model).t1_t2_progression(
                self.eps * np.pi / grid.L, k.size)
            self._mult_b = half - t1 / self.eps ** 2
            self._mult_bdiff = -t2 / self.eps ** 2
        lo_bound = half * (1.0 - 1e-6)
        if np.min(self._mult_b) < lo_bound:
            raise CertificationError(
                f"linear multiplier dips to {np.min(self._mult_b):.3e} below "
                f"|lambda''(0)|/2 = {half:.3e}: lattice is not type I at "
                f"eps={eps}"
            )

        m = np.arange(1, self.m_apply + 1, dtype=float)
        self._m_col = m[:, None]
        self._q_weights = (model.beta[:self.m_apply] * m ** 3)[:, None]
        self._sinc_stack = _sinc(0.5 * self.eps * np.outer(m, k))
        mm = model.m_values()
        inner = model.beta[self.m_apply:] * mm[self.m_apply:] ** 3
        self.quadratic_tail_bound = float(np.sum(np.abs(inner))) + model.tail_beta_m3

        amp = -1.5 * self.lambda_dd0 / (2.0 * self.b)
        self.background = Field.from_function(
            grid, lambda x: amp / np.cosh(0.5 * x) ** 2, even=True)
        self._aw0 = None  # averaged-background stack, built on first use
        self._pw0 = None  # P_eps(W0), built on first use
        self._lu = None   # band LU of L_eps, held only inside factored()

    # -- plumbing -----------------------------------------------------------

    def _even(self, values):
        return Field(self.grid, values, even=True)

    def _hat(self, field):
        coeffs = np.fft.rfft(field.values)
        coeffs[self._cut:] = 0.0
        return coeffs

    def _product_hat(self, prod_rows):
        """rfft of pointwise products with the 2/3-rule cut applied."""
        ph = np.fft.rfft(prod_rows, axis=-1)
        ph[..., self._cut:] = 0.0
        return ph

    def multiplier_bounds(self):
        """(lower, upper) pinch for the linear symbol on this grid."""
        half = 0.5 * abs(self.lambda_dd0)
        if self.eps == 0.0:
            return half, float(np.max(self._mult_b))
        upper = (self.c0_sq - self.profile.lambda_lower) / self.eps ** 2 + half
        return half, upper

    # -- linear multipliers ---------------------------------------------------

    def linear(self, field):
        return apply_multiplier(field, self._mult_b)

    def linear_inv(self, field):
        return apply_multiplier(field, 1.0 / self._mult_b)

    def linear_limit(self, field):
        return apply_multiplier(field, self._mult_b0)

    def linear_limit_inv(self, field):
        return apply_multiplier(field, 1.0 / self._mult_b0)

    def linear_diff(self, field):
        """(B_eps - B_0) applied through its own cancellation-free symbol."""
        return apply_multiplier(field, self._mult_bdiff)

    def linear_inv_diff(self, field):
        return apply_multiplier(field, 1.0 / self._mult_b - 1.0 / self._mult_b0)

    # -- nonlinear sums ---------------------------------------------------------

    def quadratic(self, V, W):
        """Averaged quadratic interaction; symmetric bilinear in (V, W)."""
        if self.eps == 0.0:
            return self.quadratic_limit(V, W)
        vh = self._hat(V)
        wh = vh if W is V else self._hat(W)
        stack = self._sinc_stack
        av = np.fft.irfft(stack * vh, n=self.grid.N)
        aw = av if W is V else np.fft.irfft(stack * wh, n=self.grid.N)
        ph = self._product_hat(av * aw)
        out_hat = np.sum(self._q_weights * stack * ph, axis=0)
        return self._even(np.fft.irfft(out_hat, n=self.grid.N))

    def quadratic_limit(self, V, W):
        """eps -> 0 limit b * V * W (same dealiasing as the full operator)."""
        ph = self._product_hat(V.values * W.values)
        return self._even(self.b * np.fft.irfft(ph, n=self.grid.N))

    def cubic(self, W):
        """Cubic-and-higher remainder sum; formally O(1) in eps.

        The strain fed to each remainder is m eps^2 (A_em W); its magnitude
        must stay within the expansion radius m*delta*, otherwise the model
        raises naming the offending interaction range.
        """
        if self.eps == 0.0:
            return Field.zero(self.grid)
        wh = self._hat(W)
        stack = self._sinc_stack
        aw = np.fft.irfft(stack * wh, n=self.grid.N)
        eta = self.eps ** 2 * self._m_col * aw
        ph = self._product_hat(self.model.psi_prime(self._m_col, eta))
        out_hat = np.sum(self._m_col * stack * ph, axis=0)
        return self._even(np.fft.irfft(out_hat, n=self.grid.N) / self.eps ** 6)

    # -- correction-equation pieces ------------------------------------------------

    def residual_forcing(self):
        """Forcing term of the correction equation.

        Defined as eps^-sigma [ -B_eps W0 + Q_eps(W0, W0) + eps^2 P_eps(W0) ];
        evaluated in the rearranged form

            eps^-sigma [ -(B_eps - B_0) W0 + (Q_eps - Q_0)(W0, W0)
                         + eps^2 P_eps(W0) ]

        which is exact because W0 solves the KdV-type limit equation, and
        which avoids forming the O(eps^-sigma) cancellation between the raw
        linear and quadratic terms at small eps.
        """
        if self.eps == 0.0:
            raise ConfigError("forcing is defined for eps > 0")
        w0 = self.background
        qdiff = self.quadratic(w0, w0) - self.quadratic_limit(w0, w0)
        total = (-1.0 * self.linear_diff(w0) + qdiff
                 + self.eps ** 2 * self._cubic_background())
        return self.eps ** (-self.sigma) * total

    def residual_forcing_naive(self):
        """Textbook form of the forcing; kept as a two-route cross-check."""
        w0 = self.background
        total = (-1.0 * self.linear(w0) + self.quadratic(w0, w0)
                 + self.eps ** 2 * self.cubic(w0))
        return self.eps ** (-self.sigma) * total

    def cubic_shift(self, V):
        """N_eps(V) = eps^-sigma [P_eps(W0 + eps^sigma V) - P_eps(W0)]."""
        shifted = self.background + self.eps ** self.sigma * V
        diff = self.cubic(shifted) - self._cubic_background()
        return self.eps ** (-self.sigma) * diff

    def _cubic_background(self):
        if self._pw0 is None:
            self._pw0 = self.cubic(self.background)
        return self._pw0

    def linearized(self, V):
        """L_eps V = V - 2 B_eps^-1 Q_eps(W0, V)."""
        return V - 2.0 * self.linear_inv(self._quadratic_background(V))

    def _quadratic_background(self, V):
        if self.eps == 0.0:
            return self.quadratic_limit(self.background, V)
        if self._aw0 is None:
            w0h = self._hat(self.background)
            self._aw0 = np.fft.irfft(self._sinc_stack * w0h, n=self.grid.N)
        stack = self._sinc_stack
        av = np.fft.irfft(stack * self._hat(V), n=self.grid.N)
        ph = self._product_hat(self._aw0 * av)
        out_hat = np.sum(self._q_weights * stack * ph, axis=0)
        return self._even(np.fft.irfft(out_hat, n=self.grid.N))

    def linearized_solve(self, F):
        """Solve L_eps V = F on the even subspace by a banded LU.

        The band matrix of the module docstring is built from the cut W0
        and factored with LAPACK ``dgbtrf``; inside ``factored()`` the factor
        is built once and reused, otherwise each call builds its own.  One
        FFT application of ``linearized`` checks the result against the
        relative residual target 1e-11; up to two refinement steps follow a
        miss, after which a SolverError reports the residual.  (At eps = 0
        the limit product b W0 V does not cut V, so modes of F past the cut
        leak into the band and cost one refinement step.)
        """
        f = project_even(F)
        fnorm = float(np.linalg.norm(f.values))
        if fnorm == 0.0:
            return Field.zero(self.grid)
        lu = self._band_lu() if self._lu is None else self._lu
        V = self._band_solve(lu, f)
        for step in range(_REFINE_STEPS + 1):
            r = f - project_even(self.linearized(V))
            res = float(np.linalg.norm(r.values)) / fnorm
            if res <= _SOLVE_RTOL:
                return V
            if step < _REFINE_STEPS:
                V = V + self._band_solve(lu, r)
        raise SolverError(
            f"linearized solve missed its target: relative residual "
            f"{res:.3e} > {_SOLVE_RTOL:.0e} after {_REFINE_STEPS} refinement "
            f"steps (eps={self.eps})"
        )

    @contextlib.contextmanager
    def factored(self):
        """Keep one band LU of L_eps for the linearized solves in the block.

        The factor is dropped on exit, so a context that outlives its solve
        (a WaveSolution keeps one) holds no factor; a nested block uses the
        outer one's.
        """
        outer = self._lu
        if outer is None:
            self._lu = self._band_lu()
        try:
            yield self
        finally:
            self._lu = outer

    def _band_lu(self):
        """(D, LU, pivots): the band matrix factored in place by dgbtrf."""
        D, ab = self._band_matrix()
        lu, piv, info = dgbtrf(ab, D, D, overwrite_ab=1)
        if info != 0:
            raise SolverError(
                f"band LU of the linearized operator failed at eps={self.eps}: "
                + (f"zero pivot U[{info - 1}, {info - 1}]" if info > 0
                   else f"dgbtrf argument {-info} invalid"))
        return D, lu, piv

    def _band_matrix(self):
        """(D, ab): L_eps on modes j < cut in LAPACK band storage.

        Row 2D + i - j of the (3D + 1) x cut array ``ab`` holds entry
        (i, j); the first D rows are the fill-in space dgbtrf needs.
        """
        N, cut = self.grid.N, self._cut
        c0 = _cosine_coeffs(self._hat(self.background)[:cut])
        D = int(np.flatnonzero(np.abs(c0) > 2.0 ** -53 * np.max(np.abs(c0)))[-1])
        if self.eps == 0.0:
            S, w = np.ones((1, cut)), np.array([self.b])
        else:
            S, w = self._sinc_stack[:, :cut], self._q_weights[:, 0]
        scale = -2.0 / (N * self._mult_b[:cut])
        ab = np.zeros((3 * D + 1, cut))
        for d in range(D + 1):
            # K(j + d, j) = K(j, j + d): the direct term on diagonal d
            t = (S[:, d:] * S[:, :cut - d]).T @ (w * S[:, d]) * c0[d]
            ab[2 * D + d, :cut - d] = scale[d:] * t
            if d:
                ab[2 * D - d, d:] = scale[:cut - d] * t
        for i in range(D):
            # the folded term couples (i, j) with j > 0 and i + j <= D
            j = np.arange(1, D - i + 1)
            t = (S[:, j] * S[:, i + j]).T @ (w * S[:, i]) * c0[i + j]
            ab[2 * D + i - j, j] += scale[i] * t
        ab[2 * D] += 1.0
        return D, ab

    def _band_solve(self, lu, F):
        """Apply the band factor to the even part of F; the modes at and
        above the cut pass through unchanged."""
        D, factor, piv = lu
        hat = _cosine_coeffs(np.fft.rfft(F.values))
        hat[:self._cut], _ = dgbtrs(factor, D, D, hat[:self._cut], piv)
        return self._even(np.fft.irfft(_cosine_coeffs(hat), n=self.grid.N))


def _cosine_coeffs(hat):
    """(-1)^j Re hat_j: the cosine coefficients of the even part of a field
    on [-L, L) from its rfft (and back, for real coefficients)."""
    out = hat.real.copy()
    out[1::2] *= -1.0
    return out
