"""Certified evaluation of slowly convergent power sums.

Infinite-range lattices produce coefficient sums such as ``sum_m alpha_m m^2``
whose terms decay only polynomially; raw truncation at any practical length
cannot reach the accuracies the wave computations need (the worst sums decay
like ``m^-1.5`` already for the power-law lattice with exponent 3.5).  Every
scalar sum in the package is therefore evaluated as a finite head plus an
Euler-Maclaurin tail, with the first omitted correction term retained as an
error estimate.

For a decreasing ``f(x) = x^(-p)``, ``p > 1``, with ``a = m_last + 1``::

    sum_{m > m_last} m^(-p) = a^(1-p)/(p-1) + a^(-p)/2
                              + sum_i B_2i/(2i)! (p)_{2i-1} a^(-p-2i+1) + R

where ``(p)_n`` is the rising factorial and ``B_2i`` are Bernoulli numbers.
With corrections through ``B_14`` the remainder is far below 1e-13 for every
``m_last >= 8`` and ``p`` in the ranges used here.
"""

import math

import numpy as np

from .errors import DomainError

# Bernoulli numbers B_2, B_4, ..., B_14.
_BERNOULLI = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
)


def power_tail(p, m_last):
    """Tail ``sum_{m > m_last} m^(-p)`` for ``p > 1`` by Euler-Maclaurin.

    Parameters
    ----------
    p : float
        Exponent, must exceed 1 for convergence.
    m_last : int
        Last index included in the explicit head sum (tail starts at
        ``m_last + 1``).
    """
    if p <= 1.0:
        raise DomainError(f"power tail diverges for exponent p={p} <= 1")
    if m_last < 1:
        raise DomainError("tail start must satisfy m_last >= 1")
    a = float(m_last) + 1.0
    value = a ** (1.0 - p) / (p - 1.0) + 0.5 * a ** (-p)
    rising = p  # (p)_{2i-1}, starts at i=1 with (p)_1 = p
    fact = 2.0  # (2i)!
    power = a ** (-p - 1.0)
    for i, b2i in enumerate(_BERNOULLI):
        value += b2i / fact * rising * power
        n = 2 * (i + 1)
        rising *= (p + n - 1.0) * (p + n)
        fact *= (n + 1.0) * (n + 2.0)
        power /= a * a
    return value


def zeta(s):
    """Riemann zeta function for real ``s > 1``.

    Direct summation of the first 64 terms plus the Euler-Maclaurin tail
    correction; absolute error below 1e-13 on the whole admissible range
    (checked against classical closed forms and an independent long partial
    sum in the test suite).
    """
    s = float(s)
    if s <= 1.0:
        raise DomainError(f"zeta(s) requires s > 1, got s={s}")
    head = np.sum(np.arange(1, 65, dtype=float) ** (-s))
    return float(head + power_tail(s, 64))


def integral_tail_bound(p, m_last):
    """Elementary bound ``sum_{m > m_last} m^(-p) <= m_last^(1-p)/(p-1)``.

    Used where a one-sided certified bound is preferable to a corrected
    value (truncation-error bookkeeping of coefficient arrays).
    """
    if p <= 1.0:
        return math.inf
    return float(m_last) ** (1.0 - p) / (p - 1.0)
