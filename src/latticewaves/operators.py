"""Grid realizations of the long-wave lattice operators.

The traveling-wave equation for the rescaled strain profile W reads::

    B_eps W = Q_eps(W, W) + eps^2 P_eps(W)

with

* ``B_eps``  -- Fourier multiplier  (c0^2 - lambda''(0) eps^2 / 2
  - lambda(eps k)) / eps^2, a bounded invertible operator pinched between
  |lambda''(0)|/2 and (c0^2 - inf lambda)/eps^2 + |lambda''(0)|/2 for
  type I lattices;
* ``Q_eps``  -- the quadratic sum  sum_m beta_m m^3 A_em[(A_em V)(A_em W)]
  over sliding averages ``A_h`` of width h = eps*m, m <= M;
* ``P_eps``  -- the cubic-and-higher remainder sum
  eps^-6 sum_m m A_em[psi_m'(m eps^2 A_em W)].

As eps -> 0 these collapse to ``B_0 = -lambda''(0)(1 - d_xx)/2``,
``Q_0(V, W) = b V W`` and a bounded cubic term, leaving the KdV-type
equation solved exactly by the sech^2 profile.  The solver works with the
correction ansatz ``W = W0 + eps^sigma V``, for which this module provides
the forcing ``R_eps``, the shifted cubic term ``N_eps`` and the linearized
operator ``L_eps V = V - 2 B_eps^-1 Q_eps(W0, V)`` together with a direct
solver for it.

A context's operators act on even fields, held as their N/2 + 1 samples
on the right half grid x = 0, dx, ..., L; each returns the even extension
of half-grid samples, so its output is even to the last bit.  The
transform is the DCT-I, the rfft of the even extension about x = 0, and
pointwise products are dealiased with the 2/3 rule.  On the even subspace
``L_eps`` is a real banded matrix in the DCT-I coefficients ``c(j)``,
j < cut = N//3 + 1 (the identity on the modes at and above the cut)::

    (L_eps c)(j) = c(j) - (2 / B_eps(j)) sum_j' K(j, j') c(j'),
    K(j, j') = (1/N) sum_m beta_m m^3 s_m(j) s_m(j')
               [s_m(j - j') c0(|j - j'|) + [j' > 0] s_m(j + j') c0(j + j')]

with ``s_m(j) = sinc(eps m k_j / 2)`` and ``c0`` the coefficients of the
cut W0.  These fall below 2^-53 of their largest value past an index D
(166 on the L = 40 box), so K has half-bandwidth D; ``linearized_solve``
factors it once with a band LU.  With the triple kernel
``T(p, q) = sum_m w_m s_m(p) s_m(q) s_m(p + q)``, w_m = beta_m m^3::

    K(j, j') = (1/N) [T(j', j - j') c0(|j - j'|) + [j' > 0] T(j, j') c0(j + j')],
    Q_eps(V, W)^(j) = (1/N) sum_{j1 + j2 = j} T(j1, j2) V^(j1) W^(j2).

Both sum the rows m <= 16 one by one and all rows 16 < m <= M at once.
With t = eps k, ``sin a sin b sin c = [sin 2b + sin 2c - sin 2a]/4`` for
a = b + c turns the far rows of T into::

    T_far = 2 [sig(t_p) + sig(t_q) - sig(t_p + t_q)] / (t_p t_q (t_p + t_q)),
    sig(t) = sum_{m > 16} beta_m (sin(m t) - m t)

(the linear parts cancel), a separable kernel: on the modes of V and W
away from zero it is three products of fields whose spectra are V^/t,
sig V^/t and the same for W.  Where one of the three wavenumbers is zero
the other two have the same size t, and T_far is
``Msym(t) = sum_{m > 16} w_m sinc^2(m t / 2)``: a mean V0 of V enters as
V0 Msym W^, and the output mean is ``(1/N) sum_j Msym(t_j) V^(j) W^(-j)``.
sig and Msym are built once per context on the progression
t_j = j eps pi / L by ``spectral.remainder_sums``, which sums the (m, t_j)
with m t_j <= 2 one by one and may take the rest through one chirp.

P_eps is identically zero for a table, whose force laws are the
quadratics alpha_m eta + beta_m eta^2 (psi_m' = 0).  For the power law
it takes the same split: the rows m <= 16 one by one, and all ranges
16 < m <= M by product-to-sum, one degree at a time.  With
z = eps^2 A_em W the power law has m psi_m'(m z) = m^-a sum_{n>=3}
kappa_n z^n, kappa_n = -a binom(-a-1, n)
(``LatticeModel.remainder_degrees``): every degree carries the weight
m^-a.  Write W = mu + W~ with mu = c(0) / N the mean (A_h mu = mu); the
far ranges then give::

    sum_j D_j F_j(W~),   F_j = sum_{m > 16} m^-a A_em[(A_em W~)^j],
    D_j = sum_{n >= max(3, j)} kappa_n eps^(2n-6) binom(n, j) mu^(n-j).

Let b be the real odd field with spectrum -i c / t (zero at t = 0 and at
and above the cut), so that A_em W~ = [b(x + eps m/2) - b(x - eps m/2)] / m,
and let H_j(t) = sum_{m > 16} m^-(a+j+1) cos(m t) for odd j and
i sum_{m > 16} m^-(a+j+1) sin(m t) for even j, with H * f the field of
spectrum H rfft(f).  Expanding the j-th power and pairing each phase
with the output sinc gives, at t0 > 0::

    F_j^(t0) = Re(-2i / t0 rfft[sum_{q<=j} binom(j, q) (-1)^(j-q) (H_j * b^q) b^(j-q)]),
    F_j^(0) = -2 sum_{q<j} binom(j-1, q) (-1)^(j-1-q) sum_x (H_{j-1} * b^q) b^(j-q),

and F_0 = sum_{m > 16} m^-a at mode 0 only; degree j's mode 0 reuses the
fields H_{j-1} * b^q of degree j - 1.  A call costs O(n^2) length-N
transforms for n degrees.  The series is cut by the 2^-53 rule at the
bound |A_h W| <= (|c(0)| + 2 sum_{j>=1} |c(j)|) / N, which holds for
every h since |sinc| <= 1 and also checks the far ranges against
delta*.  The tables H_j live on t_i = i eps pi / L, i <= N/2, are built
on first use by ``remainder_sums`` like sig and Msym, and are extended
when a call needs more degrees.  Plain cos and sin suffice: the far
ranges hold at most 2.6e-4 of max|P| on W0 (a = 3.5, eps >= 0.05), so
the digits lost to cancellation at small t stay below rounding of P.
"""

import numpy as np

from .catalog import b_coefficient
from .dispersion import long_wave_curvature, t1_t2_progression
from .errors import CertificationError, ConfigError, DomainError, SolverError
from .spectral import Field, apply_multiplier, remainder_sums, trig_remainder

__all__ = ["moving_average", "averaging_defect", "LongWaveOperators"]

_M_NEAR = 16            # rows of Q, K and P summed one by one (the rest in closed form)
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
    """(sinc(y) - 1) / y^2 = (sin|y| - |y|) / |y|^3; -1/6 below |y| = 1e-8,
    where that is its value to the last bit (and y^3 underflows near 0)."""
    y = np.abs(y)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(y < 1e-8, -1.0 / 6.0,
                        trig_remainder(y, "sin", (1,))[0] / y ** 3)


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


def _far_symbols(beta, dt, n):
    """sig(t) = sum_{m > _M_NEAR} beta_m (sin(m t) - m t) and
    Msym(t) = sum_{m > _M_NEAR} beta_m m^3 sinc^2(m t / 2) at t_j = j dt,
    j < n, over the table ``beta`` of m = 1..M > _M_NEAR.

    sig is the ``remainder_sums`` of beta_m with sin less one term;
    Msym = -(2 / t^2) times that of beta_m m with cos less one term, since
    m^2 sinc^2(m t / 2) = 2 (1 - cos m t) / t^2.
    """
    m = np.arange(_M_NEAR + 1, beta.size + 1, dtype=float)
    far = beta[_M_NEAR:]
    sig = remainder_sums(far, _M_NEAR + 1, dt, n, "sin", (1,))[0]
    msym = remainder_sums(far * m, _M_NEAR + 1, dt, n, "cos", (1,))[0]
    msym[0] = np.sum(far * m * m * m)
    msym[1:] *= -2.0 / (dt * np.arange(1, n, dtype=float)) ** 2
    return sig, msym


def _degree_tables(p, M, dt, n, degrees):
    """H_j(t_i) at t_i = i dt, i < n, for each j of ``degrees``: the sums
    over 16 < m <= M of m^-(p + j + 1) cos(m t) for odd j and of
    i m^-(p + j + 1) sin(m t) for even j, each kind one ``remainder_sums``
    of the stacked weights with no Taylor term taken off.
    """
    m = np.arange(_M_NEAR + 1, M + 1, dtype=float)
    degrees = np.asarray(degrees)
    w = m ** -(p + 1.0 + degrees[:, None])
    odd = degrees % 2 == 1
    out = np.empty((degrees.size, n), dtype=complex)
    for rows, kind, unit in ((odd, "cos", 1.0), (~odd, "sin", 1j)):
        if np.any(rows):
            out[rows] = unit * remainder_sums(w[rows], _M_NEAR + 1, dt, n, kind, (0,))[0]
    return out


def _pascal(n):
    """binom(i, j) for i, j < n (zero for j > i)."""
    out = np.zeros((n, n))
    out[:, 0] = 1.0
    for i in range(1, n):
        out[i, 1:] = out[i - 1, 1:] + out[i - 1, :-1]
    return out


def _dct(half):
    """DCT-I along the last axis: the rfft of the even extension of the
    half-grid samples, which is real."""
    ext = np.concatenate((half, half[..., -2:0:-1]), axis=-1)
    return np.fft.rfft(ext).real


def _idct(coeffs):
    """Inverse of ``_dct``: the half-grid samples with DCT-I ``coeffs``."""
    n2 = coeffs.shape[-1] - 1
    return np.fft.irfft(coeffs, n=2 * n2)[..., :n2 + 1]


class LongWaveOperators:
    """Operator context: one lattice, one grid, one scaling parameter eps.

    The operators read only the even part of an argument (the identity
    term of ``linearized`` passes V through unchanged) and return fields
    that are even to the last bit.  Immutable after construction apart
    from lazy caches of P_eps(W0), of the degree tables of P_eps and of
    the band factor of L_eps, which the first ``linearized_solve`` builds
    and the context keeps for its life; all methods are pure
    field-to-field maps, so distinct contexts can be evaluated
    concurrently.  The correction exponent sigma is the
    profile's certified one (type I condition (iii)); the ``*_limit``
    methods give the eps -> 0 operators the rearranged forcing subtracts.

    The quadratic sum Q_eps, the band matrix and the cubic sum P_eps run
    over every range m <= M of the coefficient table (module docstring);
    the mass of Q past M is bounded by ``model.tail_beta_m3`` (zero for a
    finite table).  Each sums its ``m_apply = min(M, 16)`` nearest ranges
    one by one.  P_eps takes the power law's ranges beyond them degree by
    degree; a table's P_eps is zero.  The linear multipliers always use
    the model's full coefficient table plus certified tail corrections,
    evaluated on the grid's progression eps k_j = j eps pi / L by
    ``dispersion.t1_t2_progression`` (``spectral.remainder_sums``).
    eps must lie in (0, 0.5].
    """

    def __init__(self, profile, grid, eps):
        model = profile.model
        if not 0.0 < eps <= _EPS_MAX:
            raise ConfigError(f"eps={eps} outside (0, {_EPS_MAX}]")
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
        self.sigma = float(profile.sigma)
        self.m_apply = int(min(model.M, _M_NEAR))  # ranges summed one by one
        self._cut = grid.N // 3 + 1  # first zeroed coefficient (2/3 rule)

        self.c0_sq = profile.c0_sq
        self.lambda_dd0 = long_wave_curvature(model)
        self.b = b_coefficient(model)
        self.speed_sq = self.c0_sq - 0.5 * self.lambda_dd0 * self.eps ** 2

        k, dt = grid.k, self.eps * np.pi / grid.L  # eps k_j = j dt
        half = 0.5 * abs(self.lambda_dd0)
        self._mult_b0 = half * (1.0 + k * k)
        t1, t2 = t1_t2_progression(model, dt, k.size)
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
        self._sinc_stack = _sinc(0.5 * self.eps * np.outer(m, k))
        self._q_weights = (model.beta[:self.m_apply] * m ** 3)[:, None]
        self._sig = None  # far-row symbols on the modes j < cut, if M > 16
        if model.M > _M_NEAR:
            self._sig, self._msym = _far_symbols(model.beta, dt, self._cut)
            self._inv_t = np.append(0.0, 1.0 / (dt * np.arange(1, self._cut)))
        self._h = None  # degree tables of P's far ranges, built on first use

        amp = -1.5 * self.lambda_dd0 / (2.0 * self.b)
        x = grid.dx * np.arange(grid.N // 2 + 1)
        self.background = self._field(amp / np.cosh(0.5 * x) ** 2)
        self._c0 = self._cut_dct(self._half(self.background))
        self._pw0 = None  # P_eps(W0), built on first use
        self._lu = None   # band LU of L_eps, built on first solve

    # -- even half-grid transform ---------------------------------------------

    def _half(self, field):
        """Even part of a field on x = 0, dx, ..., L: N/2 + 1 samples,
        exact for an even field."""
        v, n2 = field.values, self.grid.N // 2
        return 0.5 * (np.append(v[n2:], v[0]) + v[n2::-1])

    def _field(self, half):
        """The even field whose half-grid samples are ``half``."""
        n2 = self.grid.N // 2
        return Field(self.grid, np.concatenate((half[n2:0:-1], half[:n2])))

    def _cut_dct(self, half):
        """DCT-I with the modes at and above the cut zeroed (2/3 rule)."""
        coeffs = _dct(half)
        coeffs[..., self._cut:] = 0.0
        return coeffs

    def _multiply(self, symbol, field):
        return self._field(_idct(symbol * _dct(self._half(field))))

    def multiplier_bounds(self):
        """(lower, upper) pinch for the linear symbol on this grid."""
        half = 0.5 * abs(self.lambda_dd0)
        upper = (self.c0_sq - self.profile.lambda_lower) / self.eps ** 2 + half
        return half, upper

    # -- linear multipliers ---------------------------------------------------

    def linear(self, field):
        return self._multiply(self._mult_b, field)

    def linear_inv(self, field):
        return self._multiply(1.0 / self._mult_b, field)

    def linear_limit(self, field):
        return self._multiply(self._mult_b0, field)

    def linear_diff(self, field):
        """(B_eps - B_0) applied through its own cancellation-free symbol."""
        return self._multiply(self._mult_bdiff, field)

    def linear_inv_diff(self, field):
        return self._multiply(1.0 / self._mult_b - 1.0 / self._mult_b0, field)

    # -- nonlinear sums ---------------------------------------------------------

    def quadratic(self, V, W):
        """Averaged quadratic interaction; symmetric bilinear in (V, W)."""
        cv = self._cut_dct(self._half(V))
        cw = cv if W is V else self._cut_dct(self._half(W))
        return self._field(_idct(self._quadratic_coeffs(cv, cw)))

    def _quadratic_coeffs(self, cv, cw):
        """DCT-I coefficients of Q_eps(V, W) from the cut ones of V and W:
        rows m <= _M_NEAR one by one, the rest by ``_far_quadratic``."""
        stack = self._sinc_stack
        av = _idct(stack * cv)
        aw = av if cw is cv else _idct(stack * cw)
        out = np.sum(self._q_weights * stack * self._cut_dct(av * aw), axis=0)
        if self._sig is not None:
            out[:self._cut] += self._far_quadratic(cv[:self._cut], cw[:self._cut])
        return out

    def _far_quadratic(self, cv, cw):
        """Rows m > _M_NEAR of Q_eps by the separable kernel T_far (module
        docstring), on the modes j < cut.  With a = V^/t and b = W^/t (odd
        spectra, zero at t = 0) they are (2/t) [conv(sig a, b) + conv(a,
        sig b) - sig conv(a, b)], conv the spectrum of a pointwise product;
        i a is the spectrum of a real odd field and sig a that of a real
        even one, so each conv is the rfft of a product of full-grid
        fields.  The terms with a zero wavenumber take Msym."""
        n, cut = self.grid.N, self._cut
        sig, inv_t, msym = self._sig, self._inv_t, self._msym
        av, aw = cv * inv_t, cw * inv_t
        ov, ow = np.fft.irfft(1j * av, n), np.fft.irfft(1j * aw, n)
        ev, ew = np.fft.irfft(sig * av, n), np.fft.irfft(sig * aw, n)
        t_sum = (np.fft.rfft(ev * ow + ov * ew)[:cut].imag
                 + sig * np.fft.rfft(ov * ow)[:cut].real)
        out = 2.0 * inv_t * t_sum + msym * (cv[0] * cw + cw[0] * cv) / n
        out[0] = (msym[0] * (cv[0] * cw[0])
                  + 2.0 * np.dot(msym[1:], cv[1:] * cw[1:])) / n
        return out

    def quadratic_limit(self, V, W):
        """eps -> 0 limit b * V * W (same dealiasing as the full operator)."""
        prod = self._cut_dct(self._half(V) * self._half(W))
        return self._field(self.b * _idct(prod))

    def cubic(self, W):
        """Cubic-and-higher remainder sum over every range m <= M; formally
        O(1) in eps, and zero for a table, whose psi' is zero.

        For the power law the strain fed to each remainder is
        m eps^2 (A_em W); its magnitude must stay within the expansion
        radius m*delta*, otherwise the model raises naming the offending
        interaction range.  The ranges summed one by one are checked sample
        by sample.  The ranges m > 16 are checked without forming them, by
        the bound |A_h W| <= (|c_0| + 2 sum_{j>=1} |c_j|) / N on the cut
        DCT-I c of W, which holds for every width h; the error names that
        bound.
        """
        if not self.model.infinite_range:
            return Field.zero(self.grid)
        c = self._cut_dct(self._half(W))
        # ranges m <= m_apply: m A_em[psi_m'(m eps^2 A_em W)] row by row
        m, stack = self._m_col, self._sinc_stack
        psi = self.model.psi_prime(m, self.eps ** 2 * m * _idct(stack * c))
        out = np.sum(m * stack * self._cut_dct(psi), axis=0)
        if self.model.M > _M_NEAR:
            out[:self._cut] += self._far_cubic(c)
        return self.eps ** -6 * self._field(_idct(out))

    def _far_cubic(self, c):
        """The power law's ranges m > _M_NEAR of eps^6 P_eps (module
        docstring) on the modes j < cut, from the cut DCT-I ``c`` of W:
        sum_j D_j F_j(W - mu), degree j of W - mu by product-to-sum."""
        n, cut, eps = self.grid.N, self._cut, self.eps
        bound = (abs(c[0]) + 2.0 * np.sum(np.abs(c[1:]))) / n
        zmax = eps * eps * bound
        if zmax > self.model.delta_star:
            raise DomainError(
                f"strain out of expansion domain on ranges m > {_M_NEAR}: "
                f"eps^2 (|c_0| + 2 sum |c_j|) / N = {zmax:.3e} > delta_star = "
                f"{self.model.delta_star}")
        p, kappa = self.model.remainder_degrees(zmax)
        n_far = kappa.size + 2
        h = self._far_tables(p, n_far)
        pas = _pascal(n_far + 1)
        # D_j = sum_{n >= max(3, j)} kappa_n eps^2n binom(n, j) mu^(n - j)
        deg = np.arange(n_far + 1)
        kap = np.zeros(n_far + 1)
        kap[3:] = kappa * eps ** (2.0 * deg[3:])
        mu = c[0] / n
        d = kap @ (pas * mu ** np.maximum(deg[:, None] - deg, 0))
        # b: the odd field with spectrum -i c / t, zero at t = 0
        inv_t = self._inv_t
        powers = np.ones((n_far + 1, n))
        powers[1] = np.fft.irfft(-1j * c[:cut] * inv_t, n)
        for q in range(2, n_far + 1):
            powers[q] = powers[q - 1] * powers[1]
        spec = np.fft.rfft(powers[1:])
        out = np.zeros(cut)
        out[0] = d[0] * n * self._w0
        for j in range(1, n_far + 1):
            sign = pas[j, :j + 1] * (-1.0) ** (j - deg[:j + 1])
            conv = np.empty((j + 1, n))
            conv[0] = h[j, 0].real
            conv[1:] = np.fft.irfft(h[j] * spec[:j], n)
            f = np.zeros(cut)
            f[1:] = 2.0 * inv_t[1:] * np.fft.rfft(sign @ (conv * powers[j::-1]))[1:cut].imag
            if j >= 2:
                f[0] = -2.0 * np.sum(prev_sign @ (prev * powers[j:0:-1]))
            out += d[j] * f
            prev, prev_sign = conv, sign
        return out

    def _far_tables(self, p, n_far):
        """The rows H_j, j <= n_far, of ``_degree_tables`` on the modes
        t_i = i eps pi / L, i <= N/2, and w0 = sum over 16 < m <= M of
        m^-p; built on first use and extended when a call needs more
        degrees."""
        M, dt = self.model.M, self.eps * np.pi / self.grid.L
        if self._h is None:
            self._h = np.zeros((0, self.grid.N // 2 + 1), dtype=complex)
            self._w0 = float(np.sum(np.arange(_M_NEAR + 1, M + 1, dtype=float) ** -p))
        have = self._h.shape[0]
        if have <= n_far:
            rows = _degree_tables(p, M, dt, self.grid.N // 2 + 1,
                                  np.arange(have, n_far + 1))
            self._h = np.vstack((self._h, rows))
        return self._h

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
        return V - 2.0 * self.linear_inv(self.quadratic(self.background, V))

    def linearized_solve(self, F):
        """Solve L_eps V = F on the even subspace by a banded LU.

        The band matrix of the module docstring is built from the cut W0
        and factored with LAPACK ``dgbtrf`` on the first call; the context
        keeps the factor for later calls.  One transform application of
        ``linearized`` checks the result against the relative residual
        target 1e-11; up to two refinement steps follow a miss, after
        which a SolverError reports the residual.
        """
        f = self._field(self._half(F))
        fnorm = float(np.linalg.norm(f.values))
        if fnorm == 0.0:
            return Field.zero(self.grid)
        if self._lu is None:
            self._lu = self._band_lu()
        V = self._band_solve(self._lu, f)
        for step in range(_REFINE_STEPS + 1):
            r = f - self.linearized(V)
            res = float(np.linalg.norm(r.values)) / fnorm
            if res <= _SOLVE_RTOL:
                return V
            if step < _REFINE_STEPS:
                V = V + self._band_solve(self._lu, r)
        raise SolverError(
            f"linearized solve missed its target: relative residual "
            f"{res:.3e} > {_SOLVE_RTOL:.0e} after {_REFINE_STEPS} refinement "
            f"steps (eps={self.eps})"
        )

    def _band_lu(self):
        """(D, LU, pivots): the band matrix factored in place by dgbtrf."""
        from scipy.linalg.lapack import dgbtrf  # scipy loads on the first solve
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
        c0 = self._c0[:cut]
        D = int(np.flatnonzero(np.abs(c0) > 2.0 ** -53 * np.max(np.abs(c0)))[-1])
        S, w = self._sinc_stack[:, :cut], self._q_weights[:, 0]
        scale = -2.0 / (N * self._mult_b[:cut])
        ab = np.zeros((3 * D + 1, cut))
        for d in range(D + 1):
            # K(j + d, j) = K(j, j + d): the direct term on diagonal d
            j = np.arange(cut - d)
            t = ((S[:, d:] * S[:, :cut - d]).T @ (w * S[:, d])
                 + self._far_kernel(j, d)) * c0[d]
            ab[2 * D + d, :cut - d] = scale[d:] * t
            if d:
                ab[2 * D - d, d:] = scale[:cut - d] * t
        for i in range(D):
            # the folded term couples (i, j) with j > 0 and i + j <= D
            j = np.arange(1, D - i + 1)
            t = ((S[:, j] * S[:, i + j]).T @ (w * S[:, i])
                 + self._far_kernel(i, j)) * c0[i + j]
            ab[2 * D + i - j, j] += scale[i] * t
        ab[2 * D] += 1.0
        return D, ab

    def _far_kernel(self, p, q):
        """T_far(p, q) of the module docstring at mode indices p, q >= 0
        with p + q below the cut: 2 [sig(t_p) + sig(t_q) - sig(t_p + t_q)]
        / (t_p t_q (t_p + t_q)), and Msym(t_p + t_q) where p or q is 0;
        0.0 for a context without far ranges (M <= _M_NEAR)."""
        if self._sig is None:
            return 0.0
        sig, inv_t, s = self._sig, self._inv_t, p + q
        out = 2.0 * (sig[p] + sig[q] - sig[s]) * (inv_t[p] * inv_t[q] * inv_t[s])
        return np.where((p == 0) | (q == 0), self._msym[s], out)

    def _band_solve(self, lu, F):
        """Apply the band factor to the even part of F; the modes at and
        above the cut pass through unchanged."""
        from scipy.linalg.lapack import dgbtrs
        D, factor, piv = lu
        coeffs = _dct(self._half(F))
        coeffs[:self._cut], _ = dgbtrs(factor, D, D, coeffs[:self._cut], piv)
        return self._field(_idct(coeffs))
