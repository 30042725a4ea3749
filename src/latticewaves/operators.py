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
operator ``L_eps V = V - 2 B_eps^-1 Q_eps(W0, V)`` together with a
matrix-free solver for it.

All operators map even fields to even fields; pointwise products are
dealiased with the 2/3 rule unless the context disables it.
"""

import numpy as np
from scipy.sparse.linalg import LinearOperator, gmres

from .catalog import b_coefficient
from .dispersion import long_wave_curvature, taylor_remainders
from .errors import CertificationError, ConfigError, DomainError, SolverError
from .spectral import Field, apply_multiplier, project_even

__all__ = ["moving_average", "averaging_defect", "LongWaveOperators"]

_M_APPLY_DEFAULT = 512  # per-m FFT sums get expensive beyond this


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

    Immutable after construction; all methods are pure field-to-field maps,
    so distinct contexts can be evaluated concurrently.  ``eps = 0``
    constructs the KdV-limit context in which the quadratic term becomes
    b*V*W, the linear operator its constant-coefficient limit, and the
    cubic remainder vanishes (used by the independent fixed-point oracle).

    ``m_apply`` truncates the per-m field sums (quadratic/cubic operators);
    it defaults to min(M, 512) and the neglected coefficient mass is kept on
    ``quadratic_tail_bound`` so consumers can account for it.  The linear
    multipliers always use the model's full coefficient table plus certified
    tail corrections.
    """

    def __init__(self, profile, grid, eps, sigma=None, dealias=True,
                 m_apply=None, eps_max=0.5):
        model = profile.model
        if eps < 0.0 or eps > eps_max:
            raise ConfigError(f"eps={eps} outside (0, eps_max={eps_max}]")
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
        self.dealias = bool(dealias)
        self.m_apply = int(min(model.M, m_apply or _M_APPLY_DEFAULT))
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
            tr = taylor_remainders(model)
            x = self.eps * k
            t1 = tr.t1(x)
            self._mult_b = half - t1 / self.eps ** 2
            self._mult_bdiff = -tr.t2(x) / self.eps ** 2
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

    # -- plumbing -----------------------------------------------------------

    def _even(self, values):
        return Field(self.grid, values, even=True)

    def _hat(self, field):
        coeffs = np.fft.rfft(field.values)
        if self.dealias:
            coeffs[self._cut:] = 0.0
        return coeffs

    def _product_hat(self, prod_rows):
        """rfft of pointwise products with the 2/3-rule cut applied."""
        ph = np.fft.rfft(prod_rows, axis=-1)
        if self.dealias:
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
        out_hat = np.zeros_like(vh)
        for lo, hi in self._chunks():
            stack = self._sinc_stack[lo:hi]
            av = np.fft.irfft(stack * vh, n=self.grid.N)
            aw = av if W is V else np.fft.irfft(stack * wh, n=self.grid.N)
            ph = self._product_hat(av * aw)
            out_hat += np.sum(self._q_weights[lo:hi] * stack * ph, axis=0)
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
        out_hat = np.zeros_like(wh)
        e2 = self.eps ** 2
        for lo, hi in self._chunks():
            stack = self._sinc_stack[lo:hi]
            aw = np.fft.irfft(stack * wh, n=self.grid.N)
            eta = e2 * self._m_col[lo:hi] * aw
            psi = self.model.psi_prime(self._m_col[lo:hi], eta)
            ph = self._product_hat(psi)
            out_hat += np.sum(self._m_col[lo:hi] * stack * ph, axis=0)
        return self._even(np.fft.irfft(out_hat, n=self.grid.N) / self.eps ** 6)

    def _chunks(self, size=1024):
        for lo in range(0, self.m_apply, size):
            yield lo, min(lo + size, self.m_apply)

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
        total = -1.0 * self.linear_diff(w0) + qdiff + self.eps ** 2 * self.cubic(w0)
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
        diff = self.cubic(shifted) - self.cubic(self.background)
        return self.eps ** (-self.sigma) * diff

    def linearized(self, V):
        """L_eps V = V - 2 B_eps^-1 Q_eps(W0, V)."""
        return V - 2.0 * self.linear_inv(self._quadratic_background(V))

    def _quadratic_background(self, V):
        if self.eps == 0.0:
            return self.quadratic_limit(self.background, V)
        if self._aw0 is None:
            w0h = self._hat(self.background)
            self._aw0 = np.fft.irfft(self._sinc_stack * w0h, n=self.grid.N)
        vh = self._hat(V)
        out_hat = np.zeros_like(vh)
        for lo, hi in self._chunks():
            stack = self._sinc_stack[lo:hi]
            av = np.fft.irfft(stack * vh, n=self.grid.N)
            ph = self._product_hat(self._aw0[lo:hi] * av)
            out_hat += np.sum(self._q_weights[lo:hi] * stack * ph, axis=0)
        return self._even(np.fft.irfft(out_hat, n=self.grid.N))

    def linearized_solve(self, F, x0=None, rtol=1e-12, maxiter=500, restart=50):
        """Solve L_eps V = F on the even subspace, matrix-free.

        GMRES over applications of L_eps with the even projection wrapped
        around every matvec (the odd complement is passed through untouched
        to keep the operator nonsingular).  Relative residual target 1e-11;
        on stagnation a dense column-assembled solve takes over for grids up
        to N = 4096, else a SolverError reports the final residual.
        """
        grid = self.grid
        b_vec = project_even(F).values
        bnorm = float(np.linalg.norm(b_vec))
        if bnorm == 0.0:
            return Field.zero(grid)

        def matvec(v):
            f = project_even(Field(grid, v))
            out = project_even(self.linearized(f)).values
            return out + (v - f.values)

        op = LinearOperator((grid.N, grid.N), matvec=matvec, dtype=float)
        x0v = None if x0 is None else project_even(x0).values
        x, _ = gmres(op, b_vec, x0=x0v, rtol=rtol, atol=0.0,
                     restart=restart, maxiter=max(1, maxiter // restart))
        res = float(np.linalg.norm(matvec(x) - b_vec)) / bnorm
        if res <= 1e-11:
            return project_even(Field(grid, x))
        if grid.N <= 4096:
            dense = np.empty((grid.N, grid.N))
            eye = np.eye(grid.N)
            for j in range(grid.N):
                dense[:, j] = matvec(eye[:, j])
            x = np.linalg.solve(dense, b_vec)
            res = float(np.linalg.norm(matvec(x) - b_vec)) / bnorm
            if res <= 1e-9:
                return project_even(Field(grid, x))
        raise SolverError(
            f"linearized solve stagnated: relative residual {res:.3e} "
            f"after {maxiter} iterations"
        )
