"""Lattice potential families and their expansion coefficients.

A lattice is described by interaction potentials ``Phi_m`` between particles
``m`` sites apart. Around the equilibrium spacing ``r* m`` each force law
expands as::

    Phi_m'(r* m + eta) = varsigma_m + alpha_m eta + beta_m eta^2 + psi_m'(eta)

with a cubic-order remainder ``|psi_m'(eta)| <= gamma_m |eta|^3`` and
``|psi_m''(eta)| <= 3 gamma_m eta^2`` valid on ``|eta| <= m delta*``.  The
constant varsigma_m cancels from the force and, since sum_j varsigma_m
(d_{j+m} - d_j) = 0 on a ring, from the energy; a table leaves it at 0.  A
``LatticeModel`` stores the coefficient arrays up to a certified truncation
length together with Euler-Maclaurin-corrected values of the slowly
convergent scalar sums that the dispersion analysis and the solvers consume.

Supported families:

* ``calogero_moser`` -- power-law potential ``Phi_m(r) = 1/r^a`` with
  exponent ``a > 3`` and ``r* = 1``; the only infinite-range family built in.
* ``nnn``            -- next-nearest neighbour, force laws
  ``r + beta1 r^2`` and ``g r + beta2 r^2``.
* ``classical_fput`` -- nearest-neighbour only.
* ``finite_range``   -- explicit coefficients for finitely many m.
* ``custom``         -- ``finite_range`` with a caller-declared bound
  ``tail_alpha_m2`` on the linear coefficient mass beyond the sequences.

Families differ only in where the coefficients come from, and
``LatticeModel`` holds one private provider for that: closed forms for
every m (the power law) or a table.  A table's force laws are the
quadratics ``alpha_m eta + beta_m eta^2`` for m = 1..M, zero beyond M, so
its psi_m' is zero and ``gamma`` only enters the declared bounds.
``family`` is only a label.  The power law's series (the force law, psi_m'
and psi_m'') are cut where the dropped terms sum to at most 2^-53 of the
first kept term at the largest |eta/m| of the call; past 12 terms (|eta/m|
beyond about 0.03) the remainders use the direct formula.
"""

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DegeneracyError, DomainError
from .sums import integral_tail_bound, power_tail, zeta

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

# Longest power series of the power law, and the bound on its dropped terms
# relative to the first kept one.
_SERIES_MAX = 12
_SERIES_TOL = 2.0 ** -53


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
    alpha: tuple = ()
    beta: tuple = ()
    gamma: tuple = ()
    delta_star: float = 1.0
    tail_alpha_m2: float = 0.0

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
        fixed a-independent radius is not available.)  A given radius must
        lie in (0, 1): at eta = -m the bond length m + eta reaches the pole.
        """
        if a <= 3.0:
            raise DegeneracyError(
                f"power-law exponent a={a} <= 3: weighted tail sums "
                "sum alpha_m m^2 / sum |beta_m| m^5 diverge"
            )
        if delta_star is None:
            delta_star = 1.0 - 6.0 ** (-1.0 / (a + 4.0))
        return cls(family="calogero_moser", a=float(a),
                   delta_star=_radius(delta_star, below=1.0))

    @classmethod
    def nnn(cls, g, beta1=1.0, beta2=0.0, delta_star=1.0):
        """Next-nearest-neighbour lattice: Phi1' = r + beta1 r^2,
        Phi2' = g r + beta2 r^2."""
        spec = cls.finite_range((1.0, g), (beta1, beta2), delta_star=delta_star)
        return replace(spec, family="nnn")

    @classmethod
    def classical_fput(cls, alpha1=1.0, beta1=1.0, delta_star=1.0):
        """Nearest-neighbour lattice with force law alpha1 r + beta1 r^2."""
        spec = cls.finite_range((alpha1,), (beta1,), delta_star=delta_star)
        return replace(spec, family="classical_fput")

    @classmethod
    def finite_range(cls, alpha, beta, gamma=None, delta_star=1.0):
        """Force laws alpha_m eta + beta_m eta^2 for m = 1..len(alpha).

        ``gamma`` (default zeros) is carried into the model's remainder
        bounds.  Rejects sum beta_m m^3 = 0 (so do ``nnn`` and
        ``classical_fput``, which are finite ranges of length 2 and 1).
        """
        spec = cls.custom(alpha, beta, gamma, delta_star)
        m = np.arange(1, len(spec.beta) + 1, dtype=float)
        if float(np.sum(np.asarray(spec.beta) * m ** 3)) == 0.0:
            raise DegeneracyError("degenerate quadratic coefficient: sum beta_m m^3 = 0")
        return replace(spec, family="finite_range")

    @classmethod
    def custom(cls, alpha, beta, gamma, delta_star=1.0, tail_alpha_m2=0.0):
        """``finite_range`` with a bound ``tail_alpha_m2`` on sum alpha_m
        m^2 beyond the sequences; b = 0 is left for ``b_coefficient``."""
        alpha = tuple(float(v) for v in alpha)
        beta = tuple(float(v) for v in beta)
        n = len(alpha)
        if len(beta) != n:
            raise ConfigError(f"alpha and beta sequences must have equal length: "
                              f"{n} != {len(beta)}")
        gamma = tuple(float(v) for v in gamma) if gamma is not None else (0.0,) * n
        if len(gamma) != n:
            raise ConfigError(f"gamma has {len(gamma)} entries, alpha and beta {n}")
        return cls(family="custom", alpha=alpha, beta=beta, gamma=gamma,
                   delta_star=_radius(delta_star),
                   tail_alpha_m2=float(tail_alpha_m2))


def _radius(delta_star, below=math.inf):
    """delta_star as a float, checked to lie in (0, below)."""
    value = float(delta_star)
    if not 0.0 < value < below:  # also rejects NaN
        allowed = "> 0" if below == math.inf else f"in (0, {below:g})"
        raise ConfigError(f"expansion radius delta_star={value} must be {allowed}")
    return value


# -- coefficient providers -----------------------------------------------------

@dataclass(frozen=True)
class _PowerLaw:
    """Closed forms of Phi_m(r) = 1/r^a about r* = 1, for every m >= 1."""

    a: float
    infinite_range = True

    def alpha(self, m):
        a = self.a
        return a * (a + 1.0) * np.asarray(m, dtype=float) ** (-a - 2.0)

    def alpha_tail(self, j, m_last):
        # alpha_m m^j = a (a+1) m^(j-a-2)
        return self.a * (self.a + 1.0) * power_tail(self.a + 2.0 - j, m_last)

    def beta(self, m):
        a = self.a
        return -0.5 * a * (a + 1.0) * (a + 2.0) * np.asarray(m, dtype=float) ** (-a - 3.0)

    def psi_prime(self, m, eta, zmax=None):
        # -a m^(-a-1) sum_{n>=3} binom(-a-1, n) z^n with z = eta/m
        a, m = self.a, np.asarray(m, dtype=float)
        series = _binomial_sum(-a - 1.0, 3, eta / m, zmax)
        if series is None:
            return (-a * (m + eta) ** (-a - 1.0) + a * m ** (-a - 1.0)
                    - self.alpha(m) * eta - self.beta(m) * eta * eta)
        return -a * m ** (-a - 1.0) * series

    def psi_second(self, m, eta, zmax=None):
        # alpha_m sum_{n>=2} binom(-a-2, n) z^n with z = eta/m
        a, m = self.a, np.asarray(m, dtype=float)
        series = _binomial_sum(-a - 2.0, 2, eta / m, zmax)
        if series is None:
            return (a * (a + 1.0) * (m + eta) ** (-a - 2.0) - self.alpha(m)
                    - 2.0 * self.beta(m) * eta)
        return self.alpha(m) * series

    def pair_energy(self, m, eta):
        # m^-a * ((1 + eta/m)^-a - 1), stable for small strains
        m = np.asarray(m, dtype=float)
        return m ** (-self.a) * np.expm1(-self.a * np.log1p(eta / m))

    def series(self, n_terms, m):
        a = self.a
        n = np.arange(1, n_terms + 1)[:, None]
        binom = _binom_series_coeffs(-a - 1.0, 1, n_terms)[:, None]
        return -a * binom * m ** (-a - 1.0 - n)

    def series_length(self, rho):
        # the linear term is the first kept one; |eta/m| <= rho on every bond
        return _series_cut(self.a + 1.0, 1, rho)

    def remainder_degrees(self, zmax):
        # m psi_m'(m z) = m^-a sum_{n>=3} kappa_n z^n, kappa_n = -a binom(-a-1, n)
        if not zmax < 1.0:
            raise DomainError(f"remainder series diverges at |z| = {zmax:.3e} >= 1")
        n_last = _series_cut(self.a + 1.0, 3, zmax, n_max=None)[0]
        return self.a, -self.a * _binom_series_coeffs(-self.a - 1.0, 3, n_last - 2)


class _Table:
    """alpha_m, beta_m for m = 1..M, zero beyond M: the force laws
    alpha_m eta + beta_m eta^2, whose psi_m' and psi_m'' are zero (None)."""

    infinite_range = False

    def __init__(self, alpha, beta):
        self._alpha, self._beta = alpha, beta

    def alpha(self, m):
        return _lookup(self._alpha, m)

    def alpha_tail(self, j, m_last):
        return 0.0  # called with m_last = M, and alpha is zero beyond M

    def beta(self, m):
        return _lookup(self._beta, m)

    def psi_prime(self, m, eta, zmax=None):
        return None

    def psi_second(self, m, eta, zmax=None):
        return None

    def pair_energy(self, m, eta):
        return 0.5 * self.alpha(m) * (eta * eta) + self.beta(m) * (eta * eta * eta) / 3.0

    def series(self, n_terms, m):
        out = np.zeros((n_terms, m.size))
        out[:2] = [self.alpha(m), self.beta(m)][:n_terms]
        return out

    def series_length(self, rho):
        return 2, 0.0

    def remainder_degrees(self, zmax):
        return None  # psi' is zero


def _lookup(table, m):
    """table[m - 1] for m = 1..len(table), zero for any other m."""
    if np.ndim(m) == 0:
        return table[int(m) - 1] if 1 <= m <= table.size else 0.0
    idx = np.asarray(m, dtype=int)
    inside = (idx >= 1) & (idx <= table.size)
    return np.where(inside, table[np.where(inside, idx, 1) - 1], 0.0)


def _remainder(out, eta):
    """A law's psi' or psi'' with None as zeros and a 0-d result as float."""
    if out is None:
        return np.zeros_like(eta)
    return float(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class LatticeModel:
    """Coefficient tables and certified scalar sums of one lattice.

    The per-m arrays run over ``m = 1..M`` (stored 0-based).  The scalar
    attributes ``sum_*`` are full-series values: exact for finite families,
    Euler-Maclaurin corrected for the power-law family, accurate to far
    better than ``trunc_tol``.  ``tail_*`` bound the coefficient mass beyond
    M, i.e. the truncation error committed by any consumer that only reads
    the arrays: one-sided integral bounds for the power law, zero for a
    table apart from the ``tail_alpha_m2`` that ``custom`` declares.

    Immutable after construction; safe to share across threads.
    """

    family: str
    delta_star: float
    M: int
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    varsigma: np.ndarray
    a: float | None
    trunc_tol: float
    # certified full-series sums
    sum_alpha_m2: float       # sum alpha_m m^2   (squared sound speed)
    sum_alpha_m4: float       # sum alpha_m m^4   (dispersion curvature)
    sum_beta_m3: float        # sum beta_m m^3    (quadratic coefficient b)
    sum_abs_beta_m5: float    # sum |beta_m| m^5
    sum_gamma_m4: float       # sum gamma_m m^4
    sum_uncertainty: float    # common bound on the EM error of the above
    # integral bounds on the neglected arrays beyond M
    tail_alpha_m2: float
    tail_beta_m3: float
    tail_gamma_m4: float
    _law: object = field(repr=False, compare=False)  # _PowerLaw or _Table

    def __post_init__(self):
        for arr in (self.alpha, self.beta, self.gamma, self.varsigma):
            arr.setflags(write=False)

    @property
    def infinite_range(self):
        """True when alpha_m, beta_m and the certified sums run over every
        m (the power law); False for a table that ends at M."""
        return self._law.infinite_range

    # -- coefficient access ------------------------------------------------

    def m_values(self):
        return np.arange(1, self.M + 1, dtype=float)

    def alpha_of(self, m):
        """alpha_m for arbitrary m (zero beyond M for a table)."""
        return self._law.alpha(np.asarray(m, dtype=float))

    def alpha_tail(self, j, m_last):
        """sum_{m > m_last >= M} alpha_m m^j over the full series:
        Euler-Maclaurin for the power law (j <= 4), zero for a table."""
        return self._law.alpha_tail(j, m_last)

    # -- remainder evaluators ----------------------------------------------

    def _check_domain(self, m, eta):
        """max|eta/m| over the call, after checking it against delta_star."""
        m = np.asarray(m, dtype=float)
        z = np.abs(eta / m)
        zmax = float(np.max(z, initial=0.0))
        if zmax > self.delta_star:
            m_bad = int(np.broadcast_to(m, z.shape)[z > self.delta_star][0])
            raise DomainError(
                f"strain out of expansion domain |eta| <= m*delta_star "
                f"(m={m_bad}, max |eta|/m = {zmax:.3e} > delta_star="
                f"{self.delta_star})"
            )
        return zmax

    def psi_prime(self, m, eta):
        """Cubic-order force remainder psi_m'(eta); broadcasts over arrays.

        For the power-law family this sums the Taylor series, whose length
        follows from the largest |eta/m| of the call (module docstring): the
        direct formula subtracts the linear and quadratic parts explicitly
        and would lose most significant digits of the O(eta^3) remainder
        for the small strains the long-wave regime produces.  A table's
        remainder is zero.
        """
        eta = np.asarray(eta, dtype=float)
        return _remainder(self._law.psi_prime(m, eta, self._check_domain(m, eta)), eta)

    def psi_second(self, m, eta):
        """Second derivative of the remainder, same conventions as psi_prime."""
        eta = np.asarray(eta, dtype=float)
        return _remainder(self._law.psi_second(m, eta, self._check_domain(m, eta)), eta)

    def force_term(self, m, eta):
        """Phi_m'(r* m + eta) - varsigma_m = alpha eta + beta eta^2 + psi'.

        Does not check the domain |eta| <= m delta_star; the caller does.
        """
        eta = np.asarray(eta, dtype=float)
        law = self._law
        out = law.alpha(m) * eta + law.beta(m) * eta * eta
        psi = law.psi_prime(m, eta)
        return out if psi is None else out + psi

    def nonlinear_force_term(self, m, eta):
        """beta eta^2 + psi'(eta): ``force_term`` without its linear part,
        same domain convention."""
        eta = np.asarray(eta, dtype=float)
        law = self._law
        out = law.beta(m) * eta * eta
        psi = law.psi_prime(m, eta)
        return out if psi is None else out + psi

    def pair_energy(self, m, eta):
        """Phi_m(r* m + eta) - Phi_m(r* m), the gauge-fixed bond energy; a
        table leaves out varsigma_m eta (module docstring)."""
        return self._law.pair_energy(m, np.asarray(eta, dtype=float))

    # -- power-series form of the force laws -------------------------------

    def force_series(self, n_terms, m):
        """Coefficients c_{n,m} of ``force_term(m, eta) = sum_n c_{n,m} eta^n``.

        Row ``n - 1`` holds c_{n,m} for n = 1..n_terms over the 1-d array
        ``m``; c_1 = alpha and c_2 = beta.  A table's force laws are
        these polynomials of degree 2, with zero rows n > 2; the power law
        continues with the Taylor coefficients c_{n,m} = -a binom(-a-1, n)
        m^(-a-1-n) that ``psi_prime`` sums.
        """
        return self._law.series(n_terms, np.asarray(m, dtype=float))

    def series_length(self, rho):
        """Terms of ``force_series`` needed on |eta| <= m rho, or None.

        Returns ``(N, tail)`` with N the least length whose dropped terms obey
        ``sum_{n>N} |c_{n,m}| (m rho)^n <= tail |alpha_m| m rho`` for every m
        with ``tail <= 2^-53``: the truncation sits below rounding of the
        linear force.  A table needs N = 2 with tail 0 at every rho.  None
        when the power law would need more than 12 terms (rho past about
        0.03 at a = 4).
        """
        return self._law.series_length(rho)

    def remainder_degrees(self, zmax):
        """The power law's psi_m' degree by degree, with one weight law.

        Returns ``(p, kappa)`` with ``m psi_m'(m z) = m^-p sum_n kappa[n - 3]
        z^n`` for every m, n = 3 .. len(kappa) + 2: each degree carries the
        same m-weight m^-p.  The series is cut where its dropped terms sum
        to at most 2^-53 of the first kept one on |z| <= zmax, with no cap
        on its length; it converges for zmax < 1 and raises otherwise.
        None for a table, whose psi' is zero.
        """
        return self._law.remainder_degrees(zmax)

    def range_tail_bound(self, m_cut, rho, spread):
        """Bound on the force one site gets from all ranges m > m_cut.

        Each bond beyond the cut has |eta| <= x_m = min(m rho, spread): it
        sums m strains of size <= rho <= delta_star, and it is the
        difference of two displacements that lie within ``spread`` of each
        other.  With the remainder bound |psi_m'| <= gamma_m |eta|^3 both
        one-sided terms are at most |alpha_m| x_m + |beta_m| x_m^2 +
        gamma_m x_m^3.  The arrays cover m <= M and the tail bounds of the
        weighted sums the rest, with x_m <= m^k min(rho, spread) for
        m >= 1, k >= 1.  ``spread = inf`` gives the bound from rho alone.
        """
        m = np.arange(m_cut + 1, self.M + 1, dtype=float)
        x = np.minimum(m * rho, spread)
        body = float(np.sum(np.abs(self.alpha[m_cut:]) * x
                            + np.abs(self.beta[m_cut:]) * x ** 2
                            + self.gamma[m_cut:] * x ** 3))
        y = min(rho, spread)
        tail = (self.tail_alpha_m2 * y + self.tail_beta_m3 * y ** 2
                + self.tail_gamma_m4 * y ** 3)
        return 2.0 * (body + tail)


# -- power-law series ------------------------------------------------------------

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


def _series_cut(p, n_first, z, n_max=_SERIES_MAX):
    """Cut of sum_{n >= n_first} binom(-p, n) x^n on |x| <= z, or None.

    Returns ``(N, tail)``: N is the least last power with
    ``sum_{n>N} |binom(-p, n)| z^n <= tail |binom(-p, n_first)| z^n_first``
    and ``tail <= 2^-53``, so N also holds for every smaller |x|.  None when
    more than ``n_max`` terms would be needed; ``n_max=None`` sets no cap,
    for z < 1 only.
    """
    # t_n = |binom(-p, n)| z^n relative to t_{n_first}; the ratio
    # t_{n+1}/t_n = z (p+n)/(n+1) falls with n, so the geometric series at
    # the first dropped ratio bounds the tail
    t = 1.0
    last = itertools.count(n_first) if n_max is None else range(n_first, n_first + n_max)
    for N in last:
        t *= z * (p + N) / (N + 1.0)  # t_{N+1}
        ratio = z * (p + N + 1.0) / (N + 2.0)
        if ratio < 1.0 and t / (1.0 - ratio) <= _SERIES_TOL:
            return N, t / (1.0 - ratio)
    return None


def _binomial_sum(q, n_first, z, zmax=None):
    """sum_{n >= n_first} binom(q, n) z^n cut by ``_series_cut`` at the
    largest |z| (``zmax`` when the caller has it), by Horner's rule; None
    past the series cap."""
    if zmax is None:
        zmax = np.max(np.abs(z), initial=0.0)
    cut = _series_cut(-q, n_first, zmax)
    if cut is None:
        return None
    acc = np.zeros_like(z)
    for c in _binom_series_coeffs(q, n_first, cut[0] - n_first + 1)[::-1]:
        acc = (acc + c) * z
    return acc * z ** (n_first - 1)


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
    if spec.a is None:
        return _build_finite(spec, trunc_tol)
    return _build_power_law(spec, trunc_tol)


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
    # EM-corrected zeta is good to ~1e-13 absolute; scale by the largest prefactor
    unc = 1e-12 * c_max * max(z_am2, 1.0)
    return LatticeModel(
        family=spec.family, delta_star=spec.delta_star,
        M=M, alpha=alpha, beta=beta, gamma=gamma, varsigma=varsigma,
        a=a, trunc_tol=trunc_tol,
        sum_alpha_m2=c_alpha * z_a,
        sum_alpha_m4=c_alpha * z_am2,
        sum_beta_m3=-c_beta * z_a,
        sum_abs_beta_m5=c_beta * z_am2,
        sum_gamma_m4=c_gamma * z_a,
        sum_uncertainty=unc,
        tail_alpha_m2=c_alpha * integral_tail_bound(a, M),
        tail_beta_m3=c_beta * integral_tail_bound(a, M),
        tail_gamma_m4=c_gamma * integral_tail_bound(a, M),
        _law=_PowerLaw(a),
    )


def _build_finite(spec, trunc_tol):
    alpha = np.array(spec.alpha, dtype=float)
    beta = np.array(spec.beta, dtype=float)
    gamma = np.array(spec.gamma, dtype=float)
    M = len(alpha)
    if M == 0:
        raise ConfigError("empty coefficient sequences")
    m = np.arange(1, M + 1, dtype=float)
    return LatticeModel(
        family=spec.family, delta_star=spec.delta_star,
        M=M, alpha=alpha, beta=beta, gamma=gamma,
        varsigma=np.zeros(M), a=None, trunc_tol=trunc_tol,
        sum_alpha_m2=float(np.sum(alpha * m ** 2)),
        sum_alpha_m4=float(np.sum(alpha * m ** 4)),
        sum_beta_m3=float(np.sum(beta * m ** 3)),
        sum_abs_beta_m5=float(np.sum(np.abs(beta) * m ** 5)),
        sum_gamma_m4=float(np.sum(gamma * m ** 4)),
        sum_uncertainty=0.0,
        tail_alpha_m2=spec.tail_alpha_m2,
        tail_beta_m3=0.0,
        tail_gamma_m4=0.0,
        _law=_Table(alpha, beta),
    )


# -- derived scalars ----------------------------------------------------------

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
    # the sums cover every m: the power law's up to their Euler-Maclaurin
    # error, a table's exactly (sum_uncertainty = 0)
    beta5, g4 = model.sum_abs_beta_m5, model.sum_gamma_m4
    beta5_tail = g4_tail = b_unc = model.sum_uncertainty
    b = model.sum_beta_m3
    return AssumptionReport(
        beta_m5_value=beta5, beta_m5_tail=beta5_tail,
        gamma_m4_value=g4, gamma_m4_tail=g4_tail,
        b_value=b, b_uncertainty=b_unc,
        b_nonzero=abs(b) > b_unc,
        sums_finite=math.isfinite(beta5 + beta5_tail) and math.isfinite(g4 + g4_tail),
    )


def b_coefficient(model):
    """Certified quadratic coefficient ``b = sum beta_m m^3``.

    Raises ``DegeneracyError`` when |b| cannot be separated from the
    truncation/correction uncertainty, since the whole leading-order theory
    collapses for b = 0.
    """
    rep = check_assumptions(model)
    if not rep.b_nonzero:
        raise DegeneracyError(
            f"cannot certify sum beta_m m^3 != 0: value {rep.b_value} within "
            f"uncertainty {rep.b_uncertainty}"
        )
    return rep.b_value
