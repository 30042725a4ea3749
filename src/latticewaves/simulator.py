"""Direct verification on a finite periodic lattice.

A computed wave is planted on a ring of J particles via the traveling-wave
ansatz ``u_j = r* j + eps U(eps (j - c t))`` (so displacements sample the
antiderivative of the profile and velocities its time derivative), then
Newton's equations

    d^2 u_j / dt^2 = sum_m Phi_m'(u_{j+m} - u_j) - Phi_m'(u_j - u_{j-m})

are integrated by a Strang split that solves their linear part exactly.
The verdict compares the measured translation speed of the strain pulse
against the predicted wave speed and the transported shape against the
initial one.

Integrator: the equations read ``d'' = -Theta d + F_nl(d)``, with Theta the
circulant linear force over m <= m_force, whose symbol on the ring's
wavenumbers is ``theta_mf(kappa) = 2 sum_m alpha_m (1 - cos(m kappa))``, and
F_nl the force without its degree-1 term.  ``step_split`` kicks the
velocity by dt/2 F_nl, rotates each Fourier mode of (d, v) exactly at
``omega = sqrt(theta_mf)`` for dt, and kicks by dt/2 F_nl again: the
impulse (trigonometric) method of Hairer, Lubich & Wanner, *Geometric
Numerical Integration* (2006), ch. XIII, also Garcia-Archilla, Sanz-Serna &
Skeel (1999).  It is symplectic and time-reversible, exact on the linear
part, so its step is set by the slow wave, not by the fastest phonon.
Between two checkpoints (d, v) stay rfft spectra: each step inverts d^
for the force and merges its closing half kick with the next step's
opening one into ``v^ += dt rfft(F_nl)``, so k steps cost 2k + 2 FFTs of
length J, and v is formed only at the checkpoint.  The default dt =
0.4/c0 keeps shape error and energy drift at or below those of velocity
Verlet at 0.05/c0.  A step is accepted while ``omega_max dt <= pi/2`` with
``omega_max = max sqrt(theta_mf)``, clear of the resonances at multiples of
pi; for alpha_m >= 0, ``omega_max <= 2 c0``.  ``step_verlet`` stays as an
independent second integrator.

Periodization bookkeeping: the displacement profile of a solitary wave is a
kink (the strain integral does not vanish), which cannot be single-valued
on a ring.  A linear ramp carrying the total jump is subtracted so the
strain picks up a uniform background of -eps * integral(W) / J per bond and
the seam lands at the index wrap, three quarters of the ring ahead of the
wave and far outside the measurement window.

Force range and paths: each particle interacts with its neighbours at
distances m = 1..m_force on either side (default min(M, 64)), indices
taken mod J, so on a ring shorter than 2 m_force a neighbour is counted
once per distance that reaches it.  The domain check is exact and done
once per call: eta_{j,m} = d_{j+m} - d_j is a sum of m strains, so
max_j |r_j| <= delta_star is the same condition as |eta_{j,m}| <= m
delta_star for every bond.  Two paths compute the same sum:

* FFT path.  Each force law is a power series sum_n c_{n,m} eta^n, cut at
  the N terms ``LatticeModel.series_length`` picks from max|r| (dropped
  terms below 2^-53 of the linear force).  Expanding eta^n binomially turns
  every degree into circulant convolutions on the ring, so one call costs
  2N + 1 FFTs of length J and N(N+1)/2 spectrum products, whatever m_force.
* Direct path.  Sums g_m(d_{j+m} - d_j) - g_m(d_j - d_{j-m}) over m on
  slices of d extended periodically, O(m_force J).  It runs for m_force
  <= 4, where it is the faster one, and for power-law strains so large
  that the series would need more than 12 terms.  A table's force laws
  are polynomials of degree 2, a series of 2 terms at every strain.

Both paths sum the force without its degree-1 term, F_nl; ``force`` adds
the linear force as one multiplier on the strain spectrum.

``total_energy`` takes the same path and series, so the force is the exact
gradient of the monitored energy.  The report records the paths taken, the
longest series with its dropped-term bound on |F_j|, the largest strain,
and ``range_tail_bound``, a bound on |F_j| from the ranges m > m_force that
the sum leaves out.  That bound uses |eta_{j,m}| <= min(m max|r|, max d -
min d): each bond stretch is a difference of two displacements.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import ConfigError, DomainError
from .spectral import antiderivative_mean_free, evaluate_uniform, mean_value

__all__ = ["LatticeState", "init_from_wave", "force", "nonlinear_force",
           "step_verlet", "step_split", "total_energy", "run_and_verify",
           "VerificationReport"]

# VerificationReport.passed: relative speed error, shape error, energy drift
_SPEED_TOL, _SHAPE_TOL, _DRIFT_TOL = 0.01, 0.05, 1e-6


@dataclass
class LatticeState:
    """Displacements/velocities of a finite periodic lattice.

    ``d[j] = u_j - r* j`` and ``v[j]`` are mutated in place by the stepper;
    ``m_force`` is the interaction range used by the force sum (independent
    of any spectral truncation so the simulator stands alone as an oracle).
    ``force`` logs what it did: the paths it took, the longest series and
    largest dropped-term bound of the FFT path, the largest strain and the
    largest spread max d - min d.  Each stepper caches the force it needs
    at the current d, so a state is advanced by one stepper only.
    """

    model: object
    J: int
    d: np.ndarray
    v: np.ndarray
    t: float = 0.0
    m_force: int = 1
    seam_jump: float = 0.0
    center: int = 0
    force_paths: set = field(default_factory=set)
    series_terms: int = 0
    series_bound: float = 0.0
    strain_max: float = 0.0
    spread_max: float = 0.0
    _accel: np.ndarray = field(default=None, repr=False)
    _accel_nl: np.ndarray = field(default=None, repr=False)
    _ring: object = field(default=None, repr=False)

    def strain(self):
        """Nearest-neighbour strain r_j = d_{j+1} - d_j."""
        return np.diff(self.d, append=self.d[:1])

    def copy(self):
        return LatticeState(model=self.model, J=self.J, d=self.d.copy(),
                            v=self.v.copy(), t=self.t, m_force=self.m_force,
                            seam_jump=self.seam_jump, center=self.center,
                            _ring=self._ring)


def init_from_wave(sol, J, j_c=None, m_force=None):
    """Sample a traveling-wave solution onto a ring of J particles.

    The wave must fit with room to travel: eps * J >= 4 L.  It is centred
    on site j_c (default J // 4), and every site of its box, |eps (j - j_c)|
    < L, must lie on the ring 0..J-1.  Displacements are eps * U at the
    scaled positions, where U is the spectral antiderivative of the
    mean-free part of W plus the explicit linear mean term, and velocities
    follow from the chain rule on the ansatz, v_j = -eps^2 c W.  Outside the
    box U is held at its plateaus and v at 0.  That drops W beyond L, an
    exponentially small tail for a finite range but an algebraic one for
    the power law: W(40)/max|W| = 8.7e-7 at a = 3.5, eps = 0.1.  A
    zero-amplitude wave yields the flat lattice.
    """
    ctx = sol.ctx
    grid, eps = ctx.grid, sol.eps
    if eps * J < 4.0 * grid.L:
        raise ConfigError(f"lattice too short: eps*J = {eps * J} < 4L = {4 * grid.L}")
    if j_c is None:
        j_c = J // 4
    if m_force is None:
        m_force = min(ctx.model.M, 64)
    elif m_force < 1:
        raise ConfigError(f"m_force={m_force} must be >= 1")
    m_force = int(m_force)

    # the box |xi| < L is one run of sites, which must miss the sites -1
    # and J either side of the ring
    xi = eps * (np.arange(-1, J + 1, dtype=float) - float(j_c))
    inside = np.abs(xi) < grid.L
    if inside[0] or inside[-1] or not inside.any():
        half = int(np.count_nonzero(eps * np.arange(1, J) < grid.L))
        raise ConfigError(
            f"j_c={j_c} puts sites with |eps (j - j_c)| < L={grid.L} outside "
            f"0..{J - 1} (J={J}, eps={eps}): need {half} <= j_c <= {J - 1 - half}")
    xi, inside = xi[1:-1], inside[1:-1]
    first, count = int(np.argmax(inside)), int(np.count_nonzero(inside))
    w_mean = mean_value(sol.W)
    total = w_mean * 2.0 * grid.L  # integral of W over the box
    u_per = antiderivative_mean_free(sol.W)
    u_vals = np.zeros(J)
    u_vals[inside] = w_mean * xi[inside] + evaluate_uniform(
        u_per, xi[first], eps, count)
    plateau = float(u_per.values[0])  # U at x = L: u_per is 2L-periodic
    u_vals[~inside] = np.sign(xi[~inside]) * w_mean * grid.L + plateau

    ramp = total * np.arange(J, dtype=float) / J
    d = eps * (u_vals - ramp)
    v = np.zeros(J)
    c_eps = math.sqrt(sol.c_eps_sq)
    v[inside] = -eps ** 2 * c_eps * evaluate_uniform(
        sol.W, xi[first], eps, count)

    state = LatticeState(model=ctx.model, J=J, d=d, v=v, t=0.0,
                         m_force=m_force, seam_jump=eps * total, center=j_c)
    smax = float(np.max(np.abs(state.strain())))
    if smax > ctx.model.delta_star:
        raise DomainError(
            f"initial strain {smax:.3e} exceeds expansion radius "
            f"delta_star={ctx.model.delta_star}")
    return state


# Ranges up to this use the direct sum: it costs O(m_force * J) while the
# FFT path costs 2N + 1 transforms of length J whatever the range.  At
# J = 4096 both take about the same time at m_force = 4-5, for the a = 4
# wave (N = 6) as for a six-neighbour table (N = 2).
_DIRECT_MAX_RANGE = 4


class _RingKernels:
    """Fourier multipliers of the force series on one ring, built lazily.

    Folding c_{n,m} for m <= m_force by ``m mod J`` gives the kernel K_n;
    degree n acts on a field through ``theta_n = 2 (sum_m c_{n,m} - Re K_n^)``
    for odd n and ``i sigma_n = -2i Im K_n^`` for even n.  ``mult[p][k-1]``
    carries the binomial weight binom(p+k, k) (-1)^k of the term
    d^p (K_{p+k} * d^k).  The linear force acts on the strain instead,
    ``sum_m alpha_m (eta_{j,m} - eta_{j-m,m})`` with eta_{j,m} the sum of
    r_j .. r_{j+m-1}: its multiplier ``linear`` on r^ equals -theta(kappa) on
    d^ but rounds relative to the strain, not to the much larger
    displacement.  ``theta`` itself, the degree-1 fold, is what
    ``step_split`` rotates (d^, v^) by.
    """

    def __init__(self, model, J, m_force):
        self.model, self.J = model, J
        self.m = np.arange(1, m_force + 1, dtype=float)
        alpha = model.alpha_of(self.m)
        # |alpha_m| m rho summed over both sides bounds the linear force
        self.linear_scale = 2.0 * float(np.sum(np.abs(alpha) * self.m))
        # offset l >= 0 carries sum_{m>l} alpha_m, offset -i carries
        # -sum_{m>=i} alpha_m
        tail = np.cumsum(alpha[::-1])[::-1]
        offsets = np.concatenate([np.arange(m_force), -np.arange(1, m_force + 1)])
        kernel = np.bincount(offsets % J, weights=np.concatenate([tail, -tail]),
                             minlength=J)
        self.linear = np.conj(np.fft.rfft(kernel))
        # degree 1 of the fold: theta_mf(kappa), the symbol of Theta on d^;
        # kappa = 0 is the free translation
        self.theta = 2.0 * (np.sum(alpha) - self._fold(alpha).real)
        self.theta[0] = 0.0
        self.omega_max = math.sqrt(max(float(np.max(self.theta)), 0.0))
        self.mult = []
        self._rotation = None

    def _fold(self, coeffs):
        """K^ of the kernel that carries c_m at offset m mod J."""
        fold = self.m.astype(np.int64) % self.J
        return np.fft.rfft(np.bincount(fold, weights=coeffs, minlength=self.J))

    def weights(self, n_terms):
        if len(self.mult) < n_terms:
            coeffs = self.model.force_series(n_terms, self.m)
            g = [np.zeros(self.J // 2 + 1)]  # degree 1 goes through ``linear``
            for n in range(2, n_terms + 1):
                kh = self._fold(coeffs[n - 1])
                g.append(2.0 * (np.sum(coeffs[n - 1]) - kh.real) if n % 2 else -2j * kh.imag)
            self.mult = [np.array([math.comb(p + k, k) * (-1) ** k * g[p + k - 1]
                                   for k in range(1, n_terms - p + 1)])
                         for p in range(n_terms)]
        return self.mult

    def rotation(self, dt):
        """Exact flow of d'' = -Theta d over dt, per rfft mode.

        Returns cos(omega dt), sin(omega dt)/omega (dt at omega = 0) and
        -omega sin(omega dt) with omega = sqrt(theta_mf); a mode with
        theta_mf < 0 gets the hyperbolic functions its flow has.  All three are
        real, stored as complex: products with spectra need no cast.
        """
        if self._rotation is None or self._rotation[0] != dt:
            phase = np.sqrt(self.theta.astype(complex)) * dt
            sinc = dt * np.sinc(phase / np.pi).real
            rot = (np.cos(phase).real, sinc, -self.theta * sinc)
            self._rotation = (dt, *(x.astype(complex) for x in rot))
        return self._rotation[1:]


def _check_domain(state, r):
    """max_j |r_j|, raising DomainError when it passes delta_star.

    eta_{j,m} = d_{j+m} - d_j sums m strains and row m = 1 is r itself, so
    this single check is exactly |eta_{j,m}| <= m delta_star for all j, m.
    """
    size = np.abs(r)
    rho = float(np.max(size))
    lim = state.model.delta_star
    if rho > lim:
        j = int(np.argmax(size > lim))
        raise DomainError(
            f"strain out of potential domain at site j={j}, "
            f"range m=1: |eta|={size[j]:.3e} > {lim:.3e}")
    return rho


def _ring_multipliers(state):
    """The state's ring multipliers, rebuilt when model, J or m_force moved."""
    kern = state._ring
    if (kern is None or kern.model is not state.model or kern.J != state.J
            or kern.m.size != state.m_force):
        state._ring = kern = _RingKernels(state.model, state.J, state.m_force)
    return kern


def _series_terms(state, rho):
    """Series length N for the FFT path, or None for the direct path."""
    if state.m_force <= _DIRECT_MAX_RANGE:
        return None
    fit = state.model.series_length(rho)
    if fit is not None:
        _ring_multipliers(state)
    return fit


def _power_hats(state, n_terms):
    """Centred displacement x and the transforms of x^1 .. x^n_terms.

    Every eta is a difference of displacements, so a constant shift is
    free; centring keeps the binomial terms x^(n-k) x^k small."""
    x = state.d - 0.5 * (np.max(state.d) + np.min(state.d))
    hats = np.empty((n_terms, state.J // 2 + 1), dtype=complex)
    xp = x
    for k in range(n_terms):
        hats[k] = np.fft.rfft(xp)
        xp = xp * x
    return x, hats


def _fft_force(state, n_terms):
    # F_nl = sum_{n>=2} sum_k binom(n,k) (-1)^k x^(n-k) (K_n * x^k), Horner in x^p
    mult = state._ring.weights(n_terms)
    x, hats = _power_hats(state, n_terms)
    out = np.zeros(state.J)
    for p in range(n_terms - 1, -1, -1):
        acc = np.sum(mult[p][:n_terms - p] * hats[:n_terms - p], axis=0)
        out = out * x + np.fft.irfft(acc, n=state.J)
    return out


def _stretches(d, m_force):
    """(m, eta_m) with eta_m[j] = d_{j+m} - d_j, indices mod J, m = 1..m_force.

    Each eta_m is a slice of d repeated past index J + m_force."""
    J = d.size
    ext = np.concatenate([d] * (m_force // J + 2))
    return ((m, ext[m:m + J] - d) for m in range(1, m_force + 1))


def _direct_force(state):
    J = state.J
    out = np.zeros(J)
    for m, eta in _stretches(state.d, state.m_force):
        g = state.model.nonlinear_force_term(m, eta)
        # the left-sided term g_m(d_j - d_{j-m}) is g_m evaluated at j - m
        s = m % J
        out[s:] += g[s:] - g[:J - s]
        out[:s] += g[:s] - g[J - s:]
    return out


def nonlinear_force(state):
    """The force without its degree-1 term: F_nl = F + Theta d.

    Each force law less its linear part, ``beta eta^2 + psi'(eta)`` (the
    constant term cancels between the two one-sided contributions).  Ranges
    past ``_DIRECT_MAX_RANGE`` take the FFT path at the series length
    ``series_length`` picks, unless the power law's series would pass 12
    terms; the rest sum directly.  Checks the strain against delta_star
    and logs the path, series and strain on the state.
    """
    r = state.strain()
    rho = _check_domain(state, r)
    state.strain_max = max(state.strain_max, rho)
    state.spread_max = max(state.spread_max, float(np.max(state.d) - np.min(state.d)))
    fit = _series_terms(state, rho)
    if fit is None:
        state.force_paths.add("direct")
        return _direct_force(state)
    n_terms, tail = fit
    state.force_paths.add("fft")
    state.series_terms = max(state.series_terms, n_terms)
    state.series_bound = max(state.series_bound,
                             tail * rho * state._ring.linear_scale)
    return _fft_force(state, n_terms)


def force(state):
    """Newtonian force on every particle: ``nonlinear_force`` plus the
    linear force, the multiplier ``_RingKernels.linear`` on the strain
    spectrum (the one ``total_energy`` uses)."""
    f_nl = nonlinear_force(state)
    linear = _ring_multipliers(state).linear * np.fft.rfft(state.strain())
    return f_nl + np.fft.irfft(linear, n=state.J)


def step_verlet(state, dt):
    """One velocity-Verlet step (second order, time-reversible)."""
    if state._accel is None:
        state._accel = force(state)
    a0 = state._accel
    state.d = state.d + dt * state.v + 0.5 * dt * dt * a0
    a1 = force(state)
    state.v = state.v + 0.5 * dt * (a0 + a1)
    state._accel = a1
    state.t += dt
    return state


def step_split(state, dt, steps=1):
    """``steps`` Strang steps: half kick by F_nl, exact linear flow, half kick.

    Second order, symplectic and time-reversible, and exact when F_nl = 0.
    The linear flow rotates each rfft mode of (d, v) at omega =
    sqrt(theta_mf(kappa)) (``_RingKernels.rotation``).  Between two steps
    (d, v) stay rfft spectra: the closing half kick of one step and the
    opening half kick of the next are one kick ``v^ += dt rfft(F_nl)``, so
    k steps take 2k + 2 transforms of length J, not 4k.  Every step updates
    d, t and the cached F_nl and runs every check of ``nonlinear_force``;
    v is formed once, after the last step.
    """
    if steps < 1:
        raise ConfigError(f"steps={steps} must be >= 1")
    if state._accel_nl is None:
        state._accel_nl = nonlinear_force(state)
    cos, sinc, shear = _ring_multipliers(state).rotation(dt)
    d_hat = np.fft.rfft(state.d)
    v_hat = np.fft.rfft(state.v + 0.5 * dt * state._accel_nl)
    for n in range(steps):
        if n:
            v_hat = v_hat + dt * np.fft.rfft(state._accel_nl)
        d_hat, v_hat = cos * d_hat + sinc * v_hat, shear * d_hat + cos * v_hat
        state.d = np.fft.irfft(d_hat, n=state.J)
        state._accel_nl = nonlinear_force(state)
        state.t += dt
    state.v = np.fft.irfft(v_hat, n=state.J) + 0.5 * dt * state._accel_nl
    return state


def total_energy(state):
    """Kinetic plus pairwise potential energy, gauged to 0 at equilibrium.

    Uses the same path and series as ``force`` so that the force is the
    exact gradient of this energy.  On the FFT path each degree is summed by
    Parseval; degree 2 is ``(1/2J) sum_q theta(kappa_q) |d^_q|^2``.
    """
    kinetic = 0.5 * float(np.sum(state.v ** 2))
    r = state.strain()
    fit = _series_terms(state, float(np.max(np.abs(r))))
    if fit is None:
        potential = sum(float(np.sum(state.model.pair_energy(m, eta)))
                        for m, eta in _stretches(state.d, state.m_force))
        return kinetic + potential
    n_terms = fit[0]
    mult = state._ring.weights(n_terms)
    _, hats = _power_hats(state, n_terms + 1)
    # real-field Parseval over the half spectrum: interior modes count twice
    w = np.full(state.J // 2 + 1, 2.0 / state.J)
    w[0] = 1.0 / state.J
    if state.J % 2 == 0:
        w[-1] = 1.0 / state.J
    # degree n+1 of the energy is -<x, F_n>/(n+1) (Euler's relation)
    linear = state._ring.linear * np.fft.rfft(r)
    potential = -0.5 * np.sum(w * (np.conj(hats[0]) * linear).real)
    for p in range(n_terms):
        for k in range(1, n_terms - p + 1):
            inner = np.sum(w * (np.conj(hats[p]) * mult[p][k - 1] * hats[k - 1]).real)
            potential -= inner / (p + k + 1)
    return kinetic + float(potential)


def _peak_position(values):
    """Index of the extremum with 3-point quadratic refinement."""
    j = int(np.argmax(values))
    ym, y0, yp = values[j - 1 if j > 0 else -1], values[j], values[(j + 1) % len(values)]
    denom = ym - 2.0 * y0 + yp
    frac = 0.5 * (ym - yp) / denom if denom != 0.0 else 0.0
    return j + float(np.clip(frac, -0.5, 0.5))


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of a direct lattice run against the predicted wave."""

    speed_measured: float
    speed_predicted: float
    speed_rel_error: float
    shape_error_max: float
    energy_drift: float
    T: float
    dt: float
    J: int
    m_force: int
    steps: int
    early_stopped: bool
    trajectory: tuple  # rows (t, peak_position, peak_value, energy)
    force_path: str         # "direct", "fft" or "direct+fft" over the run
    series_terms: int       # longest force series of the FFT path (0: unused)
    series_bound: float     # bound on |F_j| from the dropped series terms
    range_tail_bound: float  # bound on |F_j| from ranges m > m_force
    strain_max: float       # largest max_j |r_j| the force saw
    spread_max: float       # largest max d - min d the force saw
    integrator: str         # "strang": kicks by F_nl around the exact linear flow
    omega_max_dt: float     # max_kappa sqrt(theta_mf) * dt, at most pi/2

    def passed(self):
        return (self.speed_rel_error <= _SPEED_TOL
                and self.shape_error_max <= _SHAPE_TOL
                and self.energy_drift <= _DRIFT_TOL)

    def to_dict(self):
        """Every field but ``trajectory``, which goes to its own CSV."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "trajectory"}


def _shifted(reference_fft, kappa, shift, J):
    return np.fft.ifft(reference_fft * np.exp(-2j * np.pi * kappa * shift / J)).real


def run_and_verify(sol, J, T, dt=None, j_c=None, m_force=None,
                   checkpoints=100):
    """Integrate the planted wave to time T and measure its fidelity.

    Tracks the strain-pulse extremum (quadratic interpolation), fits
    position against time for the speed, compares the translated initial
    strain with the evolved one for the shape error, and monitors the
    relative energy drift.  Stops early with a partial report if the pulse
    comes within guard = 0.5 L / eps sites of the ring's seam; ``steps``
    counts the steps taken.  Checkpoints fall at the last step and every
    ``ceil(T/dt) // checkpoints`` steps, at least 1 and at most guard /
    (2 c_eps dt), so that the pulse is stopped before it reaches the seam;
    one ``step_split`` call covers the steps between two of them.  The
    default dt is 0.4/c0, and dt must keep ``omega_max dt <= pi/2``.
    """
    if T <= 0.0:
        raise ConfigError(f"T={T} must be > 0")
    if checkpoints < 1:
        raise ConfigError(f"checkpoints={checkpoints} must be >= 1")
    ctx = sol.ctx
    if dt is None:
        dt = 0.4 / math.sqrt(ctx.c0_sq)
    elif dt <= 0.0:
        raise ConfigError(f"dt={dt} must be > 0")
    state = init_from_wave(sol, J, j_c=j_c, m_force=m_force)
    omega_max = _ring_multipliers(state).omega_max
    if omega_max * dt > 0.5 * math.pi:
        raise ConfigError(
            f"dt={dt} breaks the stability bound omega_max*dt <= pi/2: "
            f"omega_max={omega_max:.6g}, omega_max*dt={omega_max * dt:.6g}, "
            f"so dt <= {0.5 * math.pi / omega_max:.6g}")
    sign = math.copysign(1.0, mean_value(ctx.background))  # of the W0 amplitude
    guard = int(0.5 * ctx.grid.L / sol.eps)
    c_pred = math.sqrt(sol.c_eps_sq)

    r0 = state.strain()
    r0_fft = np.fft.fft(r0)
    kappa = J * np.fft.fftfreq(J)  # signed, for fractional shifts
    r0_norm = float(np.linalg.norm(r0 - np.mean(r0)))
    e0 = total_energy(state)
    pos0 = _peak_position(sign * r0)

    steps = int(math.ceil(T / dt))
    every = max(1, min(steps // checkpoints, int(0.5 * guard / (c_pred * dt))))
    trajectory = [(0.0, pos0, float(np.max(sign * r0)), e0)]
    shape_err = drift = 0.0
    early = False
    taken = 0
    while taken < steps:
        stretch = min(every, steps - taken)
        step_split(state, dt, stretch)
        taken += stretch
        r = state.strain()
        pos = _peak_position(sign * r)
        e = total_energy(state)
        drift = max(drift, abs(e - e0) / max(abs(e0), 1e-300))
        ref = _shifted(r0_fft, kappa, pos - pos0, J)
        err = float(np.linalg.norm(ref - r)) / max(r0_norm, 1e-300)
        shape_err = max(shape_err, err)
        trajectory.append((state.t, pos, float(np.max(sign * r)), e))
        if (pos % J) > J - guard:
            early = True
            break
    # the speed is the slope of position against time
    speed = float(np.polyfit(*np.array(trajectory)[:, :2].T, 1)[0])
    return VerificationReport(
        speed_measured=speed, speed_predicted=c_pred,
        speed_rel_error=abs(speed - c_pred) / c_pred,
        shape_error_max=shape_err, energy_drift=drift,
        T=state.t, dt=dt, J=J, m_force=state.m_force, steps=taken,
        early_stopped=early, trajectory=tuple(trajectory),
        force_path="+".join(sorted(state.force_paths)),
        series_terms=state.series_terms, series_bound=state.series_bound,
        range_tail_bound=ctx.model.range_tail_bound(state.m_force, state.strain_max,
                                                    state.spread_max),
        strain_max=state.strain_max, spread_max=state.spread_max,
        integrator="strang", omega_max_dt=omega_max * dt,
    )
