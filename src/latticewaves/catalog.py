"""Lattice potential families and their expansion coefficients.

A lattice is described by interaction potentials ``Phi_m`` between particles
``m`` sites apart. Around the equilibrium spacing ``r* m`` each force law
expands as::

    Phi_m'(r* m + eta) = varsigma_m + alpha_m eta + beta_m eta^2 + psi_m'(eta)

with a cubic-order remainder ``|psi_m'(eta)| <= gamma_m |eta|^3`` and
``|psi_m''(eta)| <= 3 gamma_m eta^2`` valid on ``|eta| <= m delta*``.  A
``LatticeModel`` stores the coefficient arrays up to a certified truncation
length together with Euler-Maclaurin-corrected values of the slowly
convergent scalar sums that the dispersion analysis and the solvers consume.

Supported families:

* ``classical_fput`` -- nearest-neighbour only.
* ``finite_range``   -- explicit coefficients for finitely many m.
* ``nnn``            -- next-nearest neighbour, force laws
  ``r + beta1 r^2`` and ``g r + beta2 r^2``.
* ``calogero_moser`` -- power-law potential ``Phi_m(r) = 1/r^a`` with
  exponent ``a > 3`` and ``r* = 1``; the only infinite-range family built in.
* ``custom``         -- caller-supplied coefficient sequences.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DegeneracyError, DomainError
from .sums import integral_tail_bound, zeta

__all__ = [
    "PotentialSpec",
    "LatticeModel",
    "AssumptionReport",
    "build_model",
    "b_coefficient",
    "check_assumptions",
    "zeta",
]

# Largest coefficient-array length we are willing to materialize.
_M_CAP = 200_000

# Relative threshold below which the power-law remainder switches from the
# direct formula to its Taylor series: the direct form subtracts three nearly
# equal numbers and loses ~|eta/m|^-3 digits of the O(eta^3) result.
_SERIES_SWITCH = 1.0e-3
_SERIES_TERMS = 12  # powers z^3 .. z^14

# Longest power series of the force laws the lattice force uses, and the
# dropped-term bound relative to the linear force it must reach.
_FORCE_SERIES_MAX = 12
_SERIES_TOL = 2.0 ** -53


def _zero_psi(m, eta):
    return np.zeros_like(np.asarray(eta, dtype=float))


@dataclass(frozen=True)
class PotentialSpec:
    """Declarative description of a potential family.

    Use the class methods (``calogero_moser``, ``nnn``, ...) rather than the
    raw constructor; they fill in the family-specific payload and defaults.
    Sequence payloads are 1-based conceptually: ``alpha[i]`` belongs to
    ``m = i + 1``.
    """

    family: str
    a: float | None = None
    g: float | None = None
    alpha: tuple = ()
    beta: tuple = ()
    gamma: tuple = ()
    varsigma: tuple = ()
    psi_prime: tuple = ()
    psi_second: tuple = ()
    r_star: float = 0.0
    delta_star: float = 1.0
    tail_alpha_m2: float = 0.0
    tail_beta_m5: float = 0.0
    tail_gamma_m4: float = 0.0

    @classmethod
    def calogero_moser(cls, a, delta_star=None):
        """Power-law lattice Phi_m(r) = 1/r^a, equilibrium spacing r* = 1.

        Requires a > 3: for smaller exponents the weighted coefficient sums
        the long-wave theory rests on diverge.

        The default expansion radius is delta_star = 1 - 6^(-1/(a+4)), the
        largest radius on which the Lagrange form of the Taylor remainder
        proves |psi'| <= gamma |eta|^3 and |psi''| <= 3 gamma eta^2 with
        gamma_m = a(a+1)(a+2)(a+3) m^(-a-4).  (On |eta| <= m/2 the second
        bound actually fails near the singular side for a close to 3, so a
        fixed a-independent radius is not available.)
        """
        if a <= 3.0:
            raise DegeneracyError(
                f"power-law exponent a={a} <= 3: weighted tail sums "
                "sum alpha_m m^2 / sum |beta_m| m^5 diverge"
            )
        if delta_star is None:
            delta_star = 1.0 - 6.0 ** (-1.0 / (a + 4.0))
        return cls(family="calogero_moser", a=float(a), r_star=1.0,
                   delta_star=float(delta_star))

    @classmethod
    def nnn(cls, g, beta1=1.0, beta2=0.0, psi1=None, psi2=None,
            psi1_second=None, psi2_second=None, delta_star=1.0):
        """Next-nearest-neighbour lattice: Phi1' = r + beta1 r^2,
        Phi2' = g r + beta2 r^2 (plus optional cubic remainders)."""
        if beta1 == -8.0 * beta2:
            raise DegeneracyError(
                "degenerate quadratic coefficient: beta1 = -8 beta2 makes "
                "sum beta_m m^3 vanish"
            )
        return cls(
            family="nnn", g=float(g),
            alpha=(1.0, float(g)), beta=(float(beta1), float(beta2)),
            gamma=(0.0, 0.0), varsigma=(0.0, 0.0),
            psi_prime=(psi1, psi2), psi_second=(psi1_second, psi2_second),
            r_star=0.0, delta_star=float(delta_star),
        )

    @classmethod
    def classical_fput(cls, alpha1=1.0, beta1=1.0, psi1=None,
                       psi1_second=None, gamma1=0.0, delta_star=1.0):
        """Nearest-neighbour lattice with force law alpha1 r + beta1 r^2 + psi1."""
        if beta1 == 0.0:
            raise DegeneracyError("degenerate quadratic coefficient: beta1 = 0")
        return cls(
            family="classical_fput",
            alpha=(float(alpha1),), beta=(float(beta1),),
            gamma=(float(gamma1),), varsigma=(0.0,),
            psi_prime=(psi1,), psi_second=(psi1_second,),
            r_star=0.0, delta_star=float(delta_star),
        )

    @classmethod
    def finite_range(cls, alpha, beta, gamma=None, varsigma=None,
                     psi_prime=None, psi_second=None, r_star=0.0,
                     delta_star=1.0):
        """Explicit finite-range family; sequences indexed by m = 1..len."""
        alpha = tuple(float(v) for v in alpha)
        beta = tuple(float(v) for v in beta)
        n = len(alpha)
        if len(beta) != n:
            raise ConfigError("alpha and beta sequences must have equal length")
        gamma = tuple(float(v) for v in gamma) if gamma is not None else (0.0,) * n
        varsigma = tuple(float(v) for v in varsigma) if varsigma is not None else (0.0,) * n
        psi_prime = tuple(psi_prime) if psi_prime is not None else (None,) * n
        psi_second = tuple(psi_second) if psi_second is not None else (None,) * n
        return cls(family="finite_range", alpha=alpha, beta=beta, gamma=gamma,
                   varsigma=varsigma, psi_prime=psi_prime,
                   psi_second=psi_second, r_star=float(r_star),
                   delta_star=float(delta_star))

    @classmethod
    def custom(cls, alpha, beta, gamma, varsigma=None, psi_prime=None,
               psi_second=None, r_star=0.0, delta_star=1.0,
               tail_alpha_m2=0.0, tail_beta_m5=0.0, tail_gamma_m4=0.0):
        """Explicit coefficient sequences with caller-supplied tail bounds."""
        spec = cls.finite_range(alpha, beta, gamma, varsigma, psi_prime,
                                psi_second, r_star, delta_star)
        return cls(family="custom", alpha=spec.alpha, beta=spec.beta,
                   gamma=spec.gamma, varsigma=spec.varsigma,
                   psi_prime=spec.psi_prime, psi_second=spec.psi_second,
                   r_star=spec.r_star, delta_star=spec.delta_star,
                   tail_alpha_m2=float(tail_alpha_m2),
                   tail_beta_m5=float(tail_beta_m5),
                   tail_gamma_m4=float(tail_gamma_m4))


@dataclass(frozen=True)
class LatticeModel:
    """Coefficient tables and certified scalar sums of one lattice.

    The per-m arrays run over ``m = 1..M`` (stored 0-based).  The scalar
    attributes ``sum_*`` are full-series values: exact for finite families,
    Euler-Maclaurin corrected for the power-law family, accurate to far
    better than ``trunc_tol``.  ``tail_*`` are one-sided integral bounds on
    the coefficient mass beyond M, i.e. the truncation error committed by
    any consumer that only reads the arrays.

    Immutable after construction; safe to share across threads.
    """

    family: str
    r_star: float
    delta_star: float
    M: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    varsigma: np.ndarray
    a: float | None
    trunc_tol: float
    # certified full-series sums
    sum_alpha: float          # sum alpha_m
    sum_alpha_m2: float       # sum alpha_m m^2   (squared sound speed)
    sum_alpha_m4: float       # sum alpha_m m^4   (dispersion curvature)
    sum_beta_m3: float        # sum beta_m m^3    (quadratic coefficient b)
    sum_abs_beta_m5: float    # sum |beta_m| m^5
    sum_gamma_m4: float       # sum gamma_m m^4
    sum_uncertainty: float    # common bound on the EM error of the above
    # integral bounds on the neglected arrays beyond M
    tail_alpha_m2: float
    tail_beta_m3: float
    tail_beta_m5: float
    tail_gamma_m4: float
    _psi_prime: tuple = field(repr=False, default=())
    _psi_second: tuple = field(repr=False, default=())

    def __post_init__(self):
        for arr in (self.alpha, self.beta, self.gamma, self.varsigma):
            arr.setflags(write=False)

    # -- coefficient access ------------------------------------------------

    def m_values(self):
        return np.arange(1, self.M + 1, dtype=float)

    def alpha_of(self, m):
        """alpha_m for arbitrary m (beyond M only for the power-law family)."""
        m = np.asarray(m, dtype=float)
        if self.family == "calogero_moser":
            a = self.a
            return a * (a + 1.0) * m ** (-a - 2.0)
        out = np.zeros_like(m)
        idx = (m >= 1) & (m <= self.M)
        out[idx] = self.alpha[m[idx].astype(int) - 1]
        return out

    # -- remainder evaluators ----------------------------------------------

    def _check_domain(self, m, eta):
        lim = np.asarray(m, dtype=float) * self.delta_star
        bad = np.abs(eta) > lim
        if np.any(bad):
            shape = np.broadcast_shapes(np.shape(m), np.shape(eta))
            mb = np.broadcast_to(np.asarray(m, dtype=float), shape)
            badb = np.broadcast_to(bad, shape)
            m_bad = int(mb.flat[int(np.argmax(badb.ravel()))]) if shape else int(m)
            raise DomainError(
                f"strain out of expansion domain |eta| <= m*delta_star "
                f"(m={m_bad}, delta_star={self.delta_star})"
            )

    def psi_prime(self, m, eta):
        """Cubic-order force remainder psi_m'(eta); broadcasts over arrays.

        For the power-law family the evaluation switches to a 12-term Taylor
        series once |eta| < 1e-3 m: the direct formula subtracts the linear
        and quadratic parts explicitly and would lose all significant digits
        of the O(eta^3) remainder for the small strains the long-wave regime
        produces.
        """
        eta = np.asarray(eta, dtype=float)
        self._check_domain(m, eta)
        return self._remainder(m, eta)

    def _remainder(self, m, eta):
        # psi_m'(eta) without the domain check
        scalar = eta.ndim == 0 and np.ndim(m) == 0
        if self.family == "calogero_moser":
            out = _cm_psi_prime(self.a, m, np.atleast_1d(eta))
        else:
            out = self._table_eval(self._psi_prime, m, np.atleast_1d(eta))
        return float(out[0]) if scalar else out

    def psi_second(self, m, eta):
        """Second derivative of the remainder, same conventions as psi_prime."""
        eta = np.asarray(eta, dtype=float)
        scalar = eta.ndim == 0 and np.ndim(m) == 0
        self._check_domain(m, eta)
        if self.family == "calogero_moser":
            out = _cm_psi_second(self.a, m, np.atleast_1d(eta))
        else:
            out = self._table_eval(self._psi_second, m, np.atleast_1d(eta))
        return float(out[0]) if scalar else out

    def _table_eval(self, table, m, eta):
        if np.ndim(m) == 0:
            fn = table[int(m) - 1] if int(m) <= len(table) else None
            return fn(eta) if fn is not None else np.zeros_like(eta)
        m = np.asarray(m)
        out = np.zeros(np.broadcast_shapes(m.shape, eta.shape))
        eta_b = np.broadcast_to(eta, out.shape)
        for i, mi in enumerate(m.ravel()):
            fn = table[int(mi) - 1] if int(mi) <= len(table) else None
            if fn is not None:
                out.reshape(m.size, -1)[i] = fn(eta_b.reshape(m.size, -1)[i])
        return out

    def force_term(self, m, eta):
        """Phi_m'(r* m + eta) - varsigma_m = alpha eta + beta eta^2 + psi'.

        Does not check the domain |eta| <= m delta_star; the caller does.
        """
        eta = np.asarray(eta, dtype=float)
        if self.family == "calogero_moser":
            a = self.a
            m_f = np.asarray(m, dtype=float)
            al = a * (a + 1.0) * m_f ** (-a - 2.0)
            be = -0.5 * a * (a + 1.0) * (a + 2.0) * m_f ** (-a - 3.0)
        else:
            idx = np.asarray(m, dtype=int) - 1
            al = self.alpha[idx]
            be = self.beta[idx]
        return al * eta + be * eta * eta + self._remainder(m, eta)

    def pair_energy(self, m, eta):
        """Phi_m(r* m + eta) - Phi_m(r* m), the gauge-fixed bond energy."""
        eta = np.asarray(eta, dtype=float)
        if self.family == "calogero_moser":
            a = self.a
            m_f = np.asarray(m, dtype=float)
            # m^-a * ((1 + eta/m)^-a - 1), stable for small strains
            return m_f ** (-a) * np.expm1(-a * np.log1p(eta / m_f))
        idx = np.asarray(m, dtype=int) - 1
        base = (self.varsigma[idx] * eta + 0.5 * self.alpha[idx] * eta ** 2
                + self.beta[idx] * eta ** 3 / 3.0)
        if any(fn is not None for fn in self._psi_prime):
            base = base + self._psi_energy(m, eta)
        return base

    def _psi_energy(self, m, eta):
        # integral of psi' over [0, eta], 16-node Gauss-Legendre
        nodes, weights = np.polynomial.legendre.leggauss(16)
        t = 0.5 * (nodes + 1.0)
        w = 0.5 * weights
        acc = np.zeros_like(eta)
        for ti, wi in zip(t, w):
            acc = acc + wi * self.psi_prime(m, eta * ti)
        return acc * eta

    # -- power-series form of the force laws -------------------------------

    def force_series(self, n_terms, m):
        """Coefficients c_{n,m} of ``force_term(m, eta) = sum_n c_{n,m} eta^n``.

        Row ``n - 1`` holds c_{n,m} for n = 1..n_terms over the 1-d array
        ``m``; c_1 = alpha and c_2 = beta.  The table families are
        polynomials of degree 2; the power law continues with the Taylor
        coefficients c_{n,m} = -a binom(-a-1, n) m^(-a-1-n) that
        ``psi_prime`` sums.  None when some psi' is a user callable, which
        has no series form.
        """
        m = np.asarray(m, dtype=float)
        if self.family == "calogero_moser":
            a = self.a
            n = np.arange(1, n_terms + 1)[:, None]
            binom = _binom_series_coeffs(-a - 1.0, 1, n_terms)[:, None]
            return -a * binom * m ** (-a - 1.0 - n)
        if any(fn is not None for fn in self._psi_prime):
            return None
        idx = m.astype(int) - 1
        out = np.zeros((n_terms, m.size))
        out[0] = self.alpha[idx]
        if n_terms > 1:
            out[1] = self.beta[idx]
        return out

    def series_length(self, rho):
        """Terms of ``force_series`` needed on |eta| <= m rho, or None.

        Returns ``(N, tail)`` with N the least length whose dropped terms obey
        ``sum_{n>N} |c_{n,m}| (m rho)^n <= tail |alpha_m| m rho`` for every m
        with ``tail <= 2^-53``: the truncation sits below rounding of the
        linear force.  The table polynomials need N = 2 with tail 0.  None
        when there is no series or the power law would need more than
        ``_FORCE_SERIES_MAX`` terms (rho past about 0.03 at a = 4).
        """
        if self.family != "calogero_moser":
            if any(fn is not None for fn in self._psi_prime):
                return None
            return 2, 0.0
        # |c_{n,m}| (m rho)^n / (alpha_m m rho) = t_n = binom(a+n, n) rho^(n-1) / (a+1)
        # for every m; t_{n+1} / t_n = rho (a+n+1)/(n+1) falls with n, so
        # the geometric series at the first dropped ratio bounds the tail
        a = self.a
        t = 1.0  # t_1
        for N in range(1, _FORCE_SERIES_MAX + 1):
            t *= rho * (a + N + 1.0) / (N + 1.0)  # t_{N+1}
            ratio = rho * (a + N + 2.0) / (N + 2.0)
            if ratio < 1.0 and t / (1.0 - ratio) <= _SERIES_TOL:
                return N, t / (1.0 - ratio)
        return None

    def range_tail_bound(self, m_cut, rho):
        """Bound on the force one site gets from all ranges m > m_cut.

        Each bond beyond the cut has |eta| <= m rho (a sum of m strains of
        size <= rho <= delta_star), so with the remainder bound
        |psi_m'| <= gamma_m |eta|^3 both one-sided terms are at most
        |alpha_m| m rho + |beta_m| (m rho)^2 + gamma_m (m rho)^3.  The
        arrays cover m <= M and the tail bounds of the weighted sums the
        rest (m^k <= m^(k+1) for m >= 1).
        """
        m = np.arange(m_cut + 1, self.M + 1, dtype=float)
        x = m * rho
        body = float(np.sum(np.abs(self.alpha[m_cut:]) * x
                            + np.abs(self.beta[m_cut:]) * x ** 2
                            + self.gamma[m_cut:] * x ** 3))
        tail = (self.tail_alpha_m2 * rho + self.tail_beta_m3 * rho ** 2
                + self.tail_gamma_m4 * rho ** 3)
        return 2.0 * (body + tail)


# -- power-law remainder kernels -------------------------------------------

_series_cache = {}


def _binom_series_coeffs(q, n_from, n_count):
    """Coefficients binom(q, n) for n = n_from .. n_from+n_count-1."""
    key = (q, n_from, n_count)
    if key not in _series_cache:
        c = 1.0
        coeffs = []
        for n in range(1, n_from + n_count):
            c *= (q - (n - 1)) / n
            if n >= n_from:
                coeffs.append(c)
        _series_cache[key] = np.array(coeffs)
    return _series_cache[key]


def _horner(coeffs, z):
    acc = np.zeros_like(z)
    for c in coeffs[::-1]:
        acc = (acc + c) * z
    return acc


def _cm_psi_prime(a, m, eta):
    m = np.asarray(m, dtype=float)
    eta = np.asarray(eta, dtype=float)
    z = eta / m
    lead = -a * m ** (-a - 1.0)
    out = lead * _horner(_binom_series_coeffs(-a - 1.0, 3, _SERIES_TERMS), z) * z * z
    big = np.abs(z) >= _SERIES_SWITCH
    if np.any(big):
        # direct evaluation only where the series would need too many terms;
        # the power calls dominate the cost, so stay off this path in bulk
        idx = np.nonzero(np.broadcast_to(big, out.shape))
        mm = np.broadcast_to(m, out.shape)[idx]
        ee = np.broadcast_to(eta, out.shape)[idx]
        al = a * (a + 1.0) * mm ** (-a - 2.0)
        be = -0.5 * a * (a + 1.0) * (a + 2.0) * mm ** (-a - 3.0)
        out[idx] = (-a * (mm + ee) ** (-a - 1.0) + a * mm ** (-a - 1.0)
                    - al * ee - be * ee * ee)
    return out


def _cm_psi_second(a, m, eta):
    m = np.asarray(m, dtype=float)
    eta = np.asarray(eta, dtype=float)
    z = eta / m
    al = a * (a + 1.0) * m ** (-a - 2.0)
    out = al * _horner(_binom_series_coeffs(-a - 2.0, 2, _SERIES_TERMS), z) * z
    big = np.abs(z) >= _SERIES_SWITCH
    if np.any(big):
        idx = np.nonzero(np.broadcast_to(big, out.shape))
        mm = np.broadcast_to(m, out.shape)[idx]
        ee = np.broadcast_to(eta, out.shape)[idx]
        alx = a * (a + 1.0) * mm ** (-a - 2.0)
        bex = -0.5 * a * (a + 1.0) * (a + 2.0) * mm ** (-a - 3.0)
        out[idx] = a * (a + 1.0) * (mm + ee) ** (-a - 2.0) - alx - 2.0 * bex * ee
    return out


# -- model construction ------------------------------------------------------

def build_model(spec, trunc_tol=1e-8):
    """Instantiate a ``LatticeModel`` from a ``PotentialSpec``.

    ``trunc_tol`` controls the truncation length M of the coefficient
    arrays: M is the least integer at which the integral bounds on the
    neglected mass of ``sum alpha_m m^2``, ``sum beta_m m^3`` and
    ``sum gamma_m m^4`` all fall below the tolerance.  (The heavier-weighted
    sum ``sum |beta_m| m^5`` converges too slowly for that criterion to be
    attainable; its truncated value plus integral tail is reported by
    ``check_assumptions`` instead.)  All scalar sums stored on the model
    carry Euler-Maclaurin tail corrections and are accurate to much better
    than ``trunc_tol`` regardless of M.
    """
    if trunc_tol <= 0.0:
        raise ConfigError("trunc_tol must be positive")
    if spec.family == "calogero_moser":
        return _build_power_law(spec, trunc_tol)
    return _build_finite(spec, trunc_tol)


def _build_power_law(spec, trunc_tol):
    a = spec.a
    if a <= 3.0:
        raise DegeneracyError(
            f"power-law exponent a={a} <= 3: sum alpha_m m^2 or "
            "sum |beta_m| m^5 diverges"
        )
    c_alpha = a * (a + 1.0)
    c_beta = 0.5 * a * (a + 1.0) * (a + 2.0)
    c_gamma = a * (a + 1.0) * (a + 2.0) * (a + 3.0)
    # the three governing tails all decay like m^-a; size M by the largest
    # prefactor so that each integral bound sits below trunc_tol
    c_max = max(c_alpha, c_beta, c_gamma)
    M = int(math.ceil((c_max / ((a - 1.0) * trunc_tol)) ** (1.0 / (a - 1.0))))
    M = max(M, 16)
    if M > _M_CAP:
        raise ConfigError(
            f"trunc_tol={trunc_tol} needs M={M} coefficients for a={a}; "
            f"cap is {_M_CAP}"
        )
    m = np.arange(1, M + 1, dtype=float)
    alpha = c_alpha * m ** (-a - 2.0)
    beta = -c_beta * m ** (-a - 3.0)
    gamma = c_gamma * m ** (-a - 4.0)
    varsigma = -a * m ** (-a - 1.0)

    z_a = zeta(a)
    z_am2 = zeta(a - 2.0)
    z_ap2 = zeta(a + 2.0)
    # EM-corrected zeta is good to ~1e-13 absolute; scale by the largest prefactor
    unc = 1e-12 * c_max * max(z_am2, 1.0)
    return LatticeModel(
        family="calogero_moser", r_star=1.0, delta_star=spec.delta_star,
        M=M, alpha=alpha, beta=beta, gamma=gamma, varsigma=varsigma,
        a=a, trunc_tol=trunc_tol,
        sum_alpha=c_alpha * z_ap2,
        sum_alpha_m2=c_alpha * z_a,
        sum_alpha_m4=c_alpha * z_am2,
        sum_beta_m3=-c_beta * z_a,
        sum_abs_beta_m5=c_beta * z_am2,
        sum_gamma_m4=c_gamma * z_a,
        sum_uncertainty=unc,
        tail_alpha_m2=c_alpha * integral_tail_bound(a, M),
        tail_beta_m3=c_beta * integral_tail_bound(a, M),
        tail_beta_m5=c_beta * integral_tail_bound(a - 2.0, M),
        tail_gamma_m4=c_gamma * integral_tail_bound(a, M),
    )


def _build_finite(spec, trunc_tol):
    alpha = np.asarray(spec.alpha, dtype=float)
    beta = np.asarray(spec.beta, dtype=float)
    gamma = np.asarray(spec.gamma, dtype=float)
    varsigma = np.asarray(spec.varsigma, dtype=float)
    M = len(alpha)
    if M == 0:
        raise ConfigError("empty coefficient sequences")
    m = np.arange(1, M + 1, dtype=float)
    b = float(np.sum(beta * m ** 3))
    if spec.family != "custom" and b == 0.0:
        raise DegeneracyError("degenerate quadratic coefficient: sum beta_m m^3 = 0")
    return LatticeModel(
        family=spec.family, r_star=spec.r_star, delta_star=spec.delta_star,
        M=M, alpha=alpha.copy(), beta=beta.copy(), gamma=gamma.copy(),
        varsigma=varsigma.copy(), a=None, trunc_tol=trunc_tol,
        sum_alpha=float(np.sum(alpha)),
        sum_alpha_m2=float(np.sum(alpha * m ** 2)),
        sum_alpha_m4=float(np.sum(alpha * m ** 4)),
        sum_beta_m3=b,
        sum_abs_beta_m5=float(np.sum(np.abs(beta) * m ** 5)),
        sum_gamma_m4=float(np.sum(gamma * m ** 4)),
        sum_uncertainty=0.0,
        tail_alpha_m2=spec.tail_alpha_m2,
        tail_beta_m3=spec.tail_beta_m5,  # conservative: m^5 bound dominates m^3
        tail_beta_m5=spec.tail_beta_m5,
        tail_gamma_m4=spec.tail_gamma_m4,
        _psi_prime=spec.psi_prime,
        _psi_second=spec.psi_second,
    )


# -- derived scalars ----------------------------------------------------------

def b_coefficient(model):
    """Certified quadratic coefficient ``b = sum beta_m m^3``.

    Raises ``DegeneracyError`` when |b| cannot be separated from the
    truncation/correction uncertainty, since the whole leading-order theory
    collapses for b = 0.
    """
    b = model.sum_beta_m3
    slack = model.sum_uncertainty + (0.0 if model.family == "calogero_moser"
                                     else model.tail_beta_m3)
    if abs(b) <= slack:
        raise DegeneracyError(
            f"cannot certify sum beta_m m^3 != 0: value {b} within "
            f"uncertainty {slack}"
        )
    return b


@dataclass(frozen=True)
class AssumptionReport:
    """Finiteness/nondegeneracy report for the coefficient sums."""

    beta_m5_value: float
    beta_m5_tail: float
    gamma_m4_value: float
    gamma_m4_tail: float
    b_value: float
    b_uncertainty: float
    b_nonzero: bool
    sums_finite: bool

    @property
    def passed(self):
        return self.sums_finite and self.b_nonzero


def check_assumptions(model):
    """Evaluate the weighted coefficient sums the theory requires.

    Reports the (corrected) values of ``sum |beta_m| m^5`` and
    ``sum gamma_m m^4`` together with tail bounds, and whether
    ``b = sum beta_m m^3`` is certifiably non-zero.  Never raises: failures
    are carried as flags.
    """
    if model.family == "calogero_moser":
        beta5, g4 = model.sum_abs_beta_m5, model.sum_gamma_m4
        beta5_tail = g4_tail = model.sum_uncertainty
        finite = True
    else:
        m = model.m_values()
        beta5 = float(np.sum(np.abs(model.beta) * m ** 5))
        g4 = float(np.sum(model.gamma * m ** 4))
        beta5_tail = model.tail_beta_m5
        g4_tail = model.tail_gamma_m4
        finite = math.isfinite(beta5 + beta5_tail) and math.isfinite(g4 + g4_tail)
    b = model.sum_beta_m3
    b_unc = model.sum_uncertainty + (0.0 if model.family == "calogero_moser"
                                     else model.tail_beta_m3)
    return AssumptionReport(
        beta_m5_value=beta5, beta_m5_tail=beta5_tail,
        gamma_m4_value=g4, gamma_m4_tail=g4_tail,
        b_value=b, b_uncertainty=b_unc,
        b_nonzero=abs(b) > b_unc,
        sums_finite=finite,
    )
