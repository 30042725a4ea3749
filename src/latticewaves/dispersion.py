"""Dispersion relation analysis and long-wave classification.

For plane waves ``exp(i(kj - omega t))`` on the linearized lattice::

    omega^2 = theta(k) = sum_m 4 alpha_m sin^2(m k / 2)

and ``lambda(k) = theta(k)/k^2`` is the squared phase speed, with
``lambda(0) = c0^2 = sum alpha_m m^2`` the squared sound speed.  Supersonic
solitary waves exist when ``lambda`` satisfies the "type I" conditions:

(i)   lambda bounded below,
(ii)  lambda''(0) < 0,
(iii) for some mu* > 0, k* > 0, sigma in (0, 2]:  on |k| <= k*,
      lambda(k) - lambda(0) <= -mu* k^2   and
      |lambda(k) - lambda(0) - lambda''(0) k^2 / 2| <= mu* |k|^(2+sigma),
(iv)  sup_{|k| >= k*} lambda(k) < lambda(0).

``certify_type1`` checks all four numerically and fits the remainder
exponent sigma, which controls the size of the correction to the
leading-order solitary wave.  It samples lambda at k_j = j 4 pi / 4096.
Condition (iv) is decided on an enclosure of lambda between the samples
from a bound on |lambda''| (``_sup_enclosure``), plus an envelope beyond
the grid; condition (iii) stays sampled.

Every value of lambda and theta here is ``c0^2 + t1(k)``, with the Taylor
remainder ``t1(k) = lambda(k) - lambda(0)`` of ``t1_t2``; the
second remainder ``T2(k)`` is the quantity every operator estimate rests
on.  Both suffer catastrophic cancellation when formed naively (nearly
equal numbers for small k), so they are -(2/k^2) times sums of alpha_m
R_p(mk), p = 2, 3, R_p the cosine less its first p Taylor terms, plus
exact corrections for the coefficient tail.  On a progression k_j = j dk
(an operator context's eps k_j, the certificate grid) those sums come
from one ``spectral.remainder_sums``.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .spectral import direct_remainder_sums, remainder_sums

__all__ = [
    "dispersion_relation", "phase_speed_sq", "long_wave_curvature",
    "long_wave_curvature_fd", "t1_t2", "t1_t2_progression",
    "coefficients_from_dispersion", "estimate_sigma", "certify_type1",
    "DispersionProfile", "theta_power4_closed",
]

# m-extension cap for small-argument remainder evaluation (power-law family)
_M_EXT_CAP = 20_000_000
_EPS = float(np.finfo(float).eps)
# certify_type1 samples lambda on linspace(0, _K_MAX, _N_SAMPLES + 1)
_K_MAX, _N_SAMPLES = 4.0 * math.pi, 4096
_K_STAR_CANDIDATES = (0.5, 1.0, 1.5, 2.0)  # k* values certify_type1 tries, in order
_MU_SAFETY = 1.2  # factor on the sampled mu* of condition (iii)
_TARGET_TOL = 1e-8  # relative theta(0) a coefficients_from_dispersion target may have


def dispersion_relation(model, k):
    """theta(k) = sum_m 4 alpha_m sin^2(m k / 2) = k^2 ``phase_speed_sq``.

    Even, 2pi-periodic, theta(0) = 0, over the full series.
    """
    k = np.asarray(k, dtype=float)
    return k * k * phase_speed_sq(model, k)


def phase_speed_sq(model, k):
    """lambda(k) = c0^2 + t1(k) over the full series; lambda(0) = c0^2.

    Even in k; a float for scalar k.  Terms past m_eff follow the tail model
    of ``t1_t2``.  The cost grows with its explicit rows,
    m_eff(min |k|) = ceil(8 / min |k|) for the
    power law (capped at ``_M_EXT_CAP``), M for a table.
    """
    k = np.asarray(k, dtype=float)
    lam = model.sum_alpha_m2 + t1_t2(model, k)[0]
    return float(lam[0]) if k.ndim == 0 else lam


def _phase_speed_grid(model, k_max, n):
    """k = linspace(0, k_max, n + 1) and lambda = c0^2 + t1 on it, from one
    ``t1_t2_progression`` at dk = k_max / n (linspace's k_j = j dk, apart
    from the last sample, which linspace sets to k_max)."""
    t1, _ = t1_t2_progression(model, k_max / n, n + 1)
    return np.linspace(0.0, k_max, n + 1), model.sum_alpha_m2 + t1


def long_wave_curvature(model):
    """lambda''(0) = -(1/6) sum alpha_m m^4, from the certified sum."""
    return -model.sum_alpha_m4 / 6.0


def long_wave_curvature_fd(model, h=1e-4):
    """Central second difference of lambda at step h, independent of the
    series formula.  Uses the tail-corrected remainder so the truncated
    coefficient arrays do not bias the stencil; the residual error is the
    intrinsic O(h^sigma) of differencing a function whose second derivative
    is only Holder continuous (power-law family with a < 5)."""
    return 2.0 * float(t1_t2(model, h)[0][0]) / h ** 2


def t1_t2(model, k):
    """Cancellation-free Taylor remainders of the phase speed at k = 0:

    t1(k) = lambda(k) - lambda(0)
    t2(k) = lambda(k) - lambda(0) - lambda''(0) k^2 / 2

    Over the explicit range t1 = -(2/k^2) sum_m alpha_m R_2(mk) and t2 =
    -(2/k^2) sum_m alpha_m R_3(mk), R_p the cosine less its first p Taylor
    terms (``spectral.trig_remainder``), plus corrections for the
    full-series tail beyond it (``alpha_tail``, zero for a table):
    subtracting the tail mass of sum alpha_m m^2 (-(2/y^2) R_2(y) averages
    to -1, and -(2/y^2) R_3(y) to -1 + y^2/12, at large y) and, for t2,
    adding back k^2/12 times the tail of sum alpha_m m^4 so the exact
    curvature is subtracted.  For the power-law family the explicit sum is
    extended adaptively until every requested k sits in the oscillatory
    regime of the tail.  Both come from one pass over the m-sums; arrays
    of the shape of ``atleast_1d(k)``.
    """
    k = np.atleast_1d(np.asarray(k, dtype=float))
    out1, out2 = np.zeros_like(k), np.zeros_like(k)
    nz = k != 0.0
    if np.any(nz):
        m_eff = _m_eff(model, np.min(np.abs(k[nz])))
        alpha = model.alpha_of(np.arange(1, m_eff + 1, dtype=float))
        r = direct_remainder_sums(alpha, 1, np.abs(k[nz]), "cos", (2, 3))
        out1[nz], out2[nz] = _assemble(model, k[nz], m_eff, r)
    return out1, out2


def t1_t2_progression(model, dk, n):
    """``t1_t2`` at k_j = j dk, j < n, dk > 0, with m_eff and the tail
    terms of ``t1_t2`` on the whole array (set by k_1 = dk) and the
    sums of R_2, R_3 from one ``remainder_sums``."""
    m_eff = _m_eff(model, dk)
    alpha = model.alpha_of(np.arange(1, m_eff + 1, dtype=float))
    r = remainder_sums(alpha, 1, dk, n, "cos", (2, 3))
    out1, out2 = np.zeros(n), np.zeros(n)
    out1[1:], out2[1:] = _assemble(model, dk * np.arange(1, n), m_eff, r[:, 1:])
    return out1, out2


def _m_eff(model, k_min):
    """Explicit rows: M, or for the power law enough that every
    |k| >= k_min has m_eff |k| >= 8 (capped at _M_EXT_CAP)."""
    if not model.infinite_range:
        return model.M
    return int(min(max(model.M, math.ceil(8.0 / k_min)), _M_EXT_CAP))


def _assemble(model, kk, m_eff, r):
    """t1, t2 at kk != 0 from the sums ``r`` of alpha_m (R_2, R_3)(m kk)
    over m <= m_eff, plus the full-series terms beyond m_eff."""
    t1, t2 = -2.0 * r / kk ** 2
    tail2, tail4 = model.alpha_tail(2, m_eff), model.alpha_tail(4, m_eff)
    osc = np.abs(kk) * m_eff >= 4.0
    # oscillatory regime: tail rows average to -1 (+ y^2/12 for t2); else
    # (only under the extension cap) the tail's quadratic approximation
    t1 += np.where(osc, -tail2, -kk * kk * tail4 / 12.0)
    t2 += np.where(osc, -tail2 + kk * kk * tail4 / 12.0, 0.0)
    return t1, t2


def coefficients_from_dispersion(samples, m_out):
    """Recover coupling coefficients alpha_m from a sampled dispersion curve.

    Any piecewise-C1, even, 2pi-periodic target with theta(0) = 0 is the
    dispersion relation of some coefficient sequence: writing theta as a
    cosine series sum b_m cos(mk), the vanishing at 0 ties b_0 to the rest
    and alpha_m = -b_m / 2 reproduces theta via the half-angle identity.

    ``samples`` must be equispaced on [0, 2pi) with at least 2*m_out + 2
    points.  Raises DomainError if theta(0) deviates from 0 beyond
    ``_TARGET_TOL`` (relative to the sample scale) or the samples are not
    even beyond its square root.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2 * m_out + 2:
        raise DomainError(f"need >= {2 * m_out + 2} samples for m_out={m_out}")
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    if abs(samples[0]) > _TARGET_TOL * scale:
        raise DomainError(
            f"invalid target: theta(0) = {samples[0]:.3e} exceeds tolerance"
        )
    if np.max(np.abs(samples[1:] - samples[:0:-1])) > math.sqrt(_TARGET_TOL) * scale:
        raise DomainError("invalid target: samples are not even about k = 0")
    coeffs = np.fft.rfft(samples)
    b = 2.0 * coeffs.real / n
    if n % 2 == 0:
        b[-1] *= 0.5
    return -0.5 * b[1:m_out + 1]


def estimate_sigma(model, k_range, n=40):
    """Remainder exponent sigma from a log-log fit of |t2(k)| on (0, k*].

    Least-squares slope of log |t2| against log k, minus 2, clamped to
    (0, 2], over the samples with |t2| > 1e-14 c0^2, a test that scaling
    every alpha_m leaves alone.  With no such sample the curve is analytic
    to working precision and sigma = 2 is returned.
    """
    lo, hi = k_range
    if not (0.0 < lo < hi):
        raise DomainError(f"bad fit range {k_range}")
    if n < 20:
        raise DomainError("need at least 20 fit points")
    fit = _fit_exponent(model, lo, hi, n)
    return 2.0 if fit is None else float(min(2.0, max(fit, 1e-2)))


def _fit_exponent(model, lo, hi, n):
    """Unclamped fit of estimate_sigma; None when every |t2| <= 1e-14 c0^2."""
    ks = np.geomspace(lo, hi, n)
    t2 = np.abs(t1_t2(model, ks)[1])
    good = t2 > 1e-14 * float(model.sum_alpha_m2)
    if not np.any(good):
        return None
    return float(np.polyfit(np.log(ks[good]), np.log(t2[good]), 1)[0] - 2.0)


@dataclass(frozen=True)
class DispersionProfile:
    """Numerical long-wave certificate of one lattice."""

    model: object = field(repr=False)
    c0_sq: float = 0.0
    lambda_dd0: float = 0.0
    k_star: float = 0.0
    mu_star: float = 0.0
    mu_quad: float = 0.0
    sigma: float = 2.0
    sigma_fit: float = 2.0
    sup_outside: float = 0.0
    sup_outside_bound: float | None = None
    lambda_lower: float = 0.0
    type1_certified: bool = False
    conditions: dict = field(default_factory=dict)
    notes: tuple = ()

    def to_dict(self):
        return {
            "family": self.model.family,
            "c0_sq": self.c0_sq,
            "lambda_dd0": self.lambda_dd0,
            "k_star": self.k_star,
            "mu_star": self.mu_star,
            "mu_quad": self.mu_quad,
            "sigma": self.sigma,
            "sigma_fit": self.sigma_fit,
            "sup_outside": self.sup_outside,
            "sup_outside_bound": self.sup_outside_bound,
            "lambda_lower": self.lambda_lower,
            "type1": self.type1_certified,
            "conditions": dict(self.conditions),
            "notes": list(self.notes),
        }


def _sup_enclosure(model, k, lam, k_star, rows):
    """Upper bound on sup lambda over |k| >= k* from lam sampled at the
    increasing k, each sample summing the rows m <= ``rows`` explicitly.

    theta and its first two derivatives are at most 4 A0, 2 A1 and 2 A2 in
    modulus, A_j = sum |alpha_m| m^j over the full series, so lambda =
    theta / k^2 has |lambda''(k)| <= C2(k) = 2 A2/k^2 + 8 A1/k^3 + 24 A0/k^4,
    which decreases in k.  On each interval between k* and the samples
    beyond it, lambda is at most the larger endpoint plus C2(left end)
    width^2 / 8.  The mass beyond M, at most ``tail_alpha_m2`` in every A_j
    (m^j <= m^2 for m >= 1), adds 4 tail_alpha_m2 / k*^2 (conservative for
    the power law, whose rows run past M).  A sample is c0^2 plus direct
    terms -(2/k^2) alpha_m R_2(mk) = alpha_m m^2 (sinc^2(mk/2) - 1), each
    at most |alpha_m| m^2 in modulus, and 2 (S0 - C(k)) / k^2 - S2 for the
    rows ``remainder_sums`` takes through the chirp-z sum C(k) of alpha_m
    (FFT length >= rows + n; S0, S2 = sum alpha_m (1, m^2)), at most
    ``rows`` rows in all: (rows + n) eps (A2 + 4 A0 / k*^2) allows for the
    rounding of both, however the rows split.  Beyond the last sample,
    |lambda| <= 4 A0 / k^2.
    """
    m = model.m_values()
    a_abs = np.abs(model.alpha)
    tail = model.tail_alpha_m2
    a0 = float(np.sum(a_abs)) + tail
    a1 = float(np.sum(a_abs * m)) + tail
    a2 = float(np.sum(a_abs * m * m)) + tail
    i0 = int(np.searchsorted(k, k_star, side="right"))
    knots = np.concatenate(([k_star], k[i0:]))
    vals = np.concatenate(([phase_speed_sq(model, k_star)], lam[i0:]))
    left, width = knots[:-1], np.diff(knots)
    c2 = 2.0 * a2 / left ** 2 + 8.0 * a1 / left ** 3 + 24.0 * a0 / left ** 4
    top = np.maximum(vals[:-1], vals[1:]) + c2 * width * width / 8.0
    rounding = (rows + k.size) * _EPS * (a2 + 4.0 * a0 / k_star ** 2)
    inside = float(np.max(top)) + 4.0 * tail / k_star ** 2 + rounding
    return max(inside, 4.0 * a0 / k[-1] ** 2)


def certify_type1(model):
    """Grid-based certification of the type I conditions.

    lambda = c0^2 + t1 is sampled on linspace(0, 4 pi, 4097) by one
    ``t1_t2_progression``.  k* is the smallest candidate for which
    both condition (iii) inequalities hold on 400 samples of [k*/400, k*]
    with a single constant mu* carrying a safety factor; oscillation
    between those samples is not excluded, and the certificate's note says
    so.  Condition (iv) is decided on ``sup_outside_bound``, which encloses
    lambda between the samples of [k*, 4 pi] and beyond 4 pi
    (``_sup_enclosure``); ``sup_outside`` is the largest sample there.
    Failures never raise: they are recorded in the certificate flags.
    """
    c0_sq = float(model.sum_alpha_m2)
    ldd0 = float(long_wave_curvature(model))
    cond2 = bool(ldd0 < 0.0)

    kk, lam = _phase_speed_grid(model, _K_MAX, _N_SAMPLES)
    kk, lam = kk[1:], lam[1:]

    # lambda = sum alpha_m m^2 sinc^2(m k / 2) is at least the negative
    # alpha_m m^2 mass at every k; a sample can only undercut it by rounding
    neg_mass = float(np.sum(np.clip(-model.alpha, 0.0, None)
                            * model.m_values() ** 2))
    lambda_lower = -neg_mass if neg_mass > 0.0 else 0.0
    cond1 = bool(np.all(np.isfinite(lam)))

    notes = ["grid-sampled certificate: inequalities checked on "
             f"{_N_SAMPLES} samples up to k_max={_K_MAX:.6g}; oscillation "
             "between samples is not excluded"]

    k_star = mu_star = mu_quad = 0.0
    sigma_fit = sigma = 2.0
    cond3 = False
    if cond2:
        for cand in _K_STAR_CANDIDATES:
            fit = _fit_exponent(model, cand / 50.0, cand, 48)
            if fit is None:
                sigma_fit, s_cert = 2.0, 2.0
                notes.append("t2 below 1e-14 c0^2 on fit range: analytic to "
                             "working precision, sigma = 2")
            else:
                sigma_fit = fit
                s_cert = min(2.0, max(math.floor(sigma_fit * 100.0) / 100.0, 0.01))
            kd = np.linspace(cand / 400.0, cand, 400)
            t1d, t2d = t1_t2(model, kd)
            t2d = np.abs(t2d)
            mu2 = _MU_SAFETY * float(np.max(t2d / np.abs(kd) ** (2.0 + s_cert)))
            muq = float(np.min(-t1d / kd ** 2))
            if muq > 0.0 and mu2 <= muq:
                k_star, mu_star, mu_quad = cand, mu2, muq
                sigma = s_cert
                cond3 = True
                break
        else:
            notes.append("condition (iii) failed for every k* candidate")

    sup_outside_bound = None
    if cond3:
        outside = lam[kk >= k_star]
        sup_outside = float(np.max(outside)) if outside.size else -math.inf
        sup_outside_bound = _sup_enclosure(model, kk, lam, k_star,
                                           _m_eff(model, _K_MAX / _N_SAMPLES))
        cond4 = bool(sup_outside_bound < c0_sq)
        if cond4:
            notes[0] = ("condition (iii) is checked on 400 samples of "
                        "[k*/400, k*]; oscillation between them is not "
                        "excluded")
    else:
        sup_outside = float(np.max(lam))
        cond4 = False

    certified = bool(cond1 and cond2 and cond3 and cond4)
    return DispersionProfile(
        model=model, c0_sq=c0_sq, lambda_dd0=ldd0, k_star=k_star,
        mu_star=mu_star, mu_quad=mu_quad, sigma=sigma, sigma_fit=sigma_fit,
        sup_outside=sup_outside, sup_outside_bound=sup_outside_bound,
        lambda_lower=lambda_lower,
        type1_certified=certified,
        conditions={"bounded_below": cond1, "negative_curvature": cond2,
                    "taylor_bounds": cond3, "subsonic_outside": cond4},
        notes=tuple(notes),
    )


def theta_power4_closed(k):
    """Closed form of the dispersion relation for the power-law lattice with
    exponent 4, on the fundamental window (-pi, pi] and extended periodically:

        (2/9) pi^4 k^2 - (5/18) pi^2 k^4 + (1/6) pi |k| k^4 - k^6 / 36.

    Used as an independent cross-check of ``dispersion_relation``.
    """
    k = np.asarray(k, dtype=float)
    kr = np.mod(k + np.pi, 2.0 * np.pi) - np.pi
    kr = np.where(kr == -np.pi, np.pi, kr)  # window is (-pi, pi]
    k2 = kr * kr
    k4 = k2 * k2
    return ((2.0 / 9.0) * np.pi ** 4 * k2 - (5.0 / 18.0) * np.pi ** 2 * k4
            + (np.pi / 6.0) * np.abs(kr) * k4 - k2 * k4 / 36.0)
