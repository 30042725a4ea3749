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

``certify_type1`` checks all four numerically on a sampled grid (with tail
envelopes beyond it) and fits the remainder exponent sigma, which controls
the size of the correction to the leading-order solitary wave.

The second-order Taylor remainder ``T2(k)`` is the quantity every operator
estimate rests on; it suffers catastrophic cancellation when formed naively
(three nearly equal numbers for small k), so it is assembled here from the
per-term series ``g(y) = sinc^2(y/2) - 1 + y^2/12`` plus exact corrections
for the truncated coefficient tail.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CertificationError, DomainError

__all__ = [
    "dispersion_relation", "phase_speed_sq", "long_wave_curvature",
    "long_wave_curvature_fd", "TaylorRemainders", "taylor_remainders",
    "coefficients_from_dispersion", "estimate_sigma", "certify_type1",
    "DispersionProfile", "theta_power4_closed",
]

# m-extension cap for small-argument remainder evaluation (power-law family)
_M_EXT_CAP = 20_000_000
_CHUNK_BUDGET = 4_000_000  # elements per (m-chunk x k) block


def _sinc(y):
    """sin(y)/y with the removable singularity filled."""
    return np.sinc(y / np.pi)


def _g1(y):
    """sinc^2(y/2) - 1, series-evaluated for |y| < 1/2 (no cancellation)."""
    y2 = y * y
    series = -y2 / 12.0 * (1.0 - y2 / 30.0 * (1.0 - y2 / 56.0 *
                           (1.0 - y2 / 90.0 * (1.0 - y2 / 132.0))))
    direct = _sinc(0.5 * y) ** 2 - 1.0
    return np.where(np.abs(y) < 0.5, series, direct)


def _g(y):
    """sinc^2(y/2) - 1 + y^2/12, the quadratic-subtracted kernel."""
    y2 = y * y
    series = y2 * y2 / 360.0 * (1.0 - y2 / 56.0 * (1.0 - y2 / 90.0 *
                                (1.0 - y2 / 132.0)))
    direct = (_sinc(0.5 * y) ** 2 - 1.0) + y2 / 12.0
    return np.where(np.abs(y) < 0.5, series, direct)


def dispersion_relation(model, k):
    """theta(k) = sum_{m <= M} 4 alpha_m sin^2(m k / 2).

    Even, 2pi-periodic, theta(0) = 0.  The truncation error is bounded by
    4 * (alpha mass beyond M), which is negligible for every built-in family
    (alpha_m itself decays two powers faster than the slow weighted sums).
    """
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    kk = np.atleast_1d(k)
    m = model.m_values()
    out = np.zeros_like(kk)
    step = max(1, _CHUNK_BUDGET // max(1, kk.size))
    for lo in range(0, model.M, step):
        mc = m[lo:lo + step]
        s = np.sin(0.5 * np.outer(mc, kk))
        out += 4.0 * (model.alpha[lo:lo + step] @ (s * s))
    return float(out[0]) if scalar else out


def phase_speed_sq(model, k):
    """lambda(k) = sum_{m <= M} alpha_m m^2 sinc^2(m k / 2); lambda(0) = c0^2.

    At k = 0 the certified full-series sound speed is returned so the value
    does not inherit the array-truncation error of the slow m^2-weighted sum.
    """
    k = np.asarray(k, dtype=float)
    scalar = k.ndim == 0
    kk = np.atleast_1d(k)
    m = model.m_values()
    out = np.zeros_like(kk)
    step = max(1, _CHUNK_BUDGET // max(1, kk.size))
    w = model.alpha * m * m
    for lo in range(0, model.M, step):
        mc = m[lo:lo + step]
        s = _sinc(0.5 * np.outer(mc, kk))
        out += w[lo:lo + step] @ (s * s)
    out[kk == 0.0] = model.sum_alpha_m2
    return float(out[0]) if scalar else out


def long_wave_curvature(model):
    """lambda''(0) = -(1/6) sum alpha_m m^4, from the certified sum."""
    return -model.sum_alpha_m4 / 6.0


def long_wave_curvature_fd(model, h=1e-4):
    """Central second difference of lambda at step h, independent of the
    series formula.  Uses the tail-corrected remainder so the truncated
    coefficient arrays do not bias the stencil; the residual error is the
    intrinsic O(h^sigma) of differencing a function whose second derivative
    is only Holder continuous (power-law family with a < 5)."""
    tr = taylor_remainders(model)
    return 2.0 * float(tr.t1(np.array([h]))[0]) / h ** 2


@dataclass(frozen=True)
class TaylorRemainders:
    """Cancellation-free Taylor remainders of the phase speed at k = 0.

    t1(k) = lambda(k) - lambda(0)
    t2(k) = lambda(k) - lambda(0) - lambda''(0) k^2 / 2

    Assembled as sum_m alpha_m m^2 g(mk) over the stored coefficients plus
    exact corrections for the full-series tail: subtracting the certified
    tail mass of sum alpha_m m^2 (the kernels approach -1 resp. -1 + y^2/12
    in the oscillatory regime) and, for t2, adding back k^2/12 times the
    tail of sum alpha_m m^4 so the exact curvature is subtracted.  For the
    power-law family the explicit sum is extended adaptively until every
    requested k sits in the oscillatory regime of the tail.
    """

    model: object = field(repr=False)

    def t1(self, k):
        return self._eval(k, second_order=False)

    def t2(self, k):
        return self._eval(k, second_order=True)

    def _eval(self, k, second_order):
        model = self.model
        k = np.atleast_1d(np.asarray(k, dtype=float))
        out = np.zeros_like(k)
        nz = k != 0.0
        if not np.any(nz):
            return out
        kk = k[nz]
        xmin = np.min(np.abs(kk))
        m_eff = model.M
        if model.infinite_range:
            m_eff = int(min(max(model.M, math.ceil(8.0 / xmin)), _M_EXT_CAP))
        acc = np.zeros_like(kk)
        s2 = 0.0  # sum alpha m^2 over the explicit range
        s4 = 0.0
        kernel = _g if second_order else _g1
        step = max(1, _CHUNK_BUDGET // max(1, kk.size))
        for lo in range(0, m_eff, step):
            hi = min(lo + step, m_eff)
            mc = np.arange(lo + 1, hi + 1, dtype=float)
            w2 = model.alpha_of(mc) * mc * mc
            acc += w2 @ kernel(np.outer(mc, kk))
            s2 += float(np.sum(w2))
            s4 += float(np.sum(w2 * mc * mc))
        tail2 = model.sum_alpha_m2 - s2
        tail4 = model.sum_alpha_m4 - s4
        osc = np.abs(kk) * m_eff >= 4.0
        # oscillatory regime: tail kernels average to -1 (+ y^2/12 for t2);
        # sub-oscillatory (only reachable under the extension cap): quadratic
        # kernel approximation of the tail.
        if second_order:
            acc += np.where(osc, -tail2 + kk * kk * tail4 / 12.0, 0.0)
        else:
            acc += np.where(osc, -tail2, -kk * kk * tail4 / 12.0)
        out[nz] = acc
        return out


def taylor_remainders(model):
    return TaylorRemainders(model=model)


def coefficients_from_dispersion(samples, m_out, tol=1e-8):
    """Recover coupling coefficients alpha_m from a sampled dispersion curve.

    Any piecewise-C1, even, 2pi-periodic target with theta(0) = 0 is the
    dispersion relation of some coefficient sequence: writing theta as a
    cosine series sum b_m cos(mk), the vanishing at 0 ties b_0 to the rest
    and alpha_m = -b_m / 2 reproduces theta via the half-angle identity.

    ``samples`` must be equispaced on [0, 2pi) with at least 2*m_out + 2
    points.  Raises DomainError if theta(0) deviates from 0 beyond ``tol``
    (relative to the sample scale) or the samples are not even.
    """
    samples = np.asarray(samples, dtype=float)
    n = samples.size
    if n < 2 * m_out + 2:
        raise DomainError(f"need >= {2 * m_out + 2} samples for m_out={m_out}")
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    if abs(samples[0]) > tol * scale:
        raise DomainError(
            f"invalid target: theta(0) = {samples[0]:.3e} exceeds tolerance"
        )
    if np.max(np.abs(samples[1:] - samples[:0:-1])) > math.sqrt(tol) * scale:
        raise DomainError("invalid target: samples are not even about k = 0")
    coeffs = np.fft.rfft(samples)
    b = 2.0 * coeffs.real / n
    if n % 2 == 0:
        b[-1] *= 0.5
    return -0.5 * b[1:m_out + 1]


def estimate_sigma(model, k_range, n=40):
    """Remainder exponent sigma from a log-log fit of |t2(k)| on (0, k*].

    Least-squares slope of log |t2| against log k, minus 2, clamped to
    (0, 2].  If t2 is numerically indistinguishable from zero on the range
    the curve is analytic to working precision and sigma = 2 is returned.
    """
    lo, hi = k_range
    if not (0.0 < lo < hi):
        raise DomainError(f"bad fit range {k_range}")
    if n < 20:
        raise DomainError("need at least 20 fit points")
    fit = _fit_exponent(taylor_remainders(model), lo, hi, n)
    return 2.0 if fit is None else float(min(2.0, max(fit, 1e-2)))


def _fit_exponent(tr, lo, hi, n):
    """Unclamped fit of estimate_sigma; None when every |t2| <= 1e-14."""
    ks = np.geomspace(lo, hi, n)
    t2 = np.abs(tr.t2(ks))
    good = t2 > 1e-14
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
            "lambda_lower": self.lambda_lower,
            "type1": self.type1_certified,
            "conditions": dict(self.conditions),
            "notes": list(self.notes),
        }


def certify_type1(model, k_max=4.0 * math.pi, n_samples=4096,
                  k_star_candidates=(0.5, 1.0, 1.5, 2.0), safety=1.2):
    """Grid-based certification of the type I conditions.

    The sampled inequalities cannot exclude pathological oscillation between
    samples; that caveat is recorded on the certificate rather than
    resolved.  k* is the smallest candidate for which both condition (iii)
    inequalities hold with a single constant mu* carrying a safety factor.
    Failures never raise: they are recorded in the certificate flags.
    """
    if n_samples < 2048:
        raise DomainError("certification needs n_samples >= 2048")
    if k_max < 4.0 * math.pi - 1e-12:
        raise DomainError("certification needs k_max >= 4*pi")

    c0_sq = float(model.sum_alpha_m2)
    ldd0 = float(long_wave_curvature(model))
    cond2 = bool(ldd0 < 0.0)

    kk = np.linspace(0.0, k_max, n_samples + 1)[1:]
    lam = phase_speed_sq(model, kk)

    neg_mass = float(np.sum(np.clip(-model.alpha, 0.0, None)
                            * model.m_values() ** 2))
    lambda_lower = float(min(np.min(lam), 0.0 if neg_mass == 0.0 else -neg_mass))
    cond1 = math.isfinite(lambda_lower)

    notes = ["grid-sampled certificate: inequalities checked on "
             f"{n_samples} samples up to k_max={k_max:.6g}; oscillation "
             "between samples is not excluded"]

    tr = taylor_remainders(model)
    k_star = mu_star = mu_quad = 0.0
    sigma_fit = sigma = 2.0
    cond3 = False
    if cond2:
        for cand in k_star_candidates:
            fit = _fit_exponent(tr, cand / 50.0, cand, 48)
            if fit is None:
                sigma_fit, s_cert = 2.0, 2.0
                notes.append("t2 below 1e-14 on fit range: analytic to "
                             "working precision, sigma = 2")
            else:
                sigma_fit = fit
                s_cert = min(2.0, max(math.floor(sigma_fit * 100.0) / 100.0, 0.01))
            kd = np.linspace(cand / 400.0, cand, 400)
            t2d = np.abs(tr.t2(kd))
            t1d = tr.t1(kd)
            mu2 = safety * float(np.max(t2d / np.abs(kd) ** (2.0 + s_cert)))
            muq = float(np.min(-t1d / kd ** 2))
            if muq > 0.0 and mu2 <= muq:
                k_star, mu_star, mu_quad = cand, mu2, muq
                sigma = s_cert
                cond3 = True
                break
        else:
            notes.append("condition (iii) failed for every k* candidate")

    if cond3:
        outside = lam[kk >= k_star]
        sup_outside = float(np.max(outside)) if outside.size else -math.inf
        # crude envelope beyond the sampled window: |lambda| <= 4 sum|alpha| / k^2
        # (plus the power law's alpha mass beyond M; a table has none)
        abs_alpha = (float(np.sum(np.abs(model.alpha)))
                     + max(model.sum_alpha - float(np.sum(model.alpha)), 0.0))
        envelope = 4.0 * abs_alpha / k_max ** 2
        sup_outside = max(sup_outside, envelope)
        cond4 = bool(sup_outside < c0_sq)
    else:
        sup_outside = float(np.max(lam))
        cond4 = False

    certified = bool(cond1 and cond2 and cond3 and cond4)
    return DispersionProfile(
        model=model, c0_sq=c0_sq, lambda_dd0=ldd0, k_star=k_star,
        mu_star=mu_star, mu_quad=mu_quad, sigma=sigma, sigma_fit=sigma_fit,
        sup_outside=sup_outside, lambda_lower=lambda_lower,
        type1_certified=certified,
        conditions={"bounded_below": cond1, "negative_curvature": cond2,
                    "taylor_bounds": cond3, "subsonic_outside": cond4},
        notes=tuple(notes),
    )


def theta_power4_closed(k):
    """Closed form of the dispersion relation for the power-law lattice with
    exponent 4, on the fundamental window (-pi, pi] and extended periodically:

        (2/9) pi^4 k^2 - (5/18) pi^2 k^4 + (1/6) pi |k| k^4 - k^6 / 36.

    Used as an independent cross-check of the sine series.
    """
    k = np.asarray(k, dtype=float)
    kr = np.mod(k + np.pi, 2.0 * np.pi) - np.pi
    kr = np.where(kr == -np.pi, np.pi, kr)  # window is (-pi, pi]
    k2 = kr * kr
    k4 = k2 * k2
    return ((2.0 / 9.0) * np.pi ** 4 * k2 - (5.0 / 18.0) * np.pi ** 2 * k4
            + (np.pi / 6.0) * np.abs(kr) * k4 - k2 * k4 / 36.0)
