"""Solitary-wave profiles: leading order, contraction iteration, oracle.

The leading-order profile is the unique even homoclinic of the KdV-type
limit equation::

    -(1/2) lambda''(0) (W0 - W0'') = b W0^2,
    W0(x) = -(3 lambda''(0) / (4 b)) sech^2(x/2).

(The sech argument is x/2, not x: substituting sech^2(c x) into the limit
equation forces c = 1/2.)

For eps > 0 the full profile is sought as ``W = W0 + eps^sigma V`` where the
correction V solves the fixed-point equation

    V = L^-1 B^-1 R + eps^sigma L^-1 B^-1 Q(V, V) + eps^2 L^-1 B^-1 N(V)

iterated from V = 0 on the even subspace; for small eps the map
G(V) given by the right-hand side contracts on a ball and the iteration is
self-certifying through the residual of the traveling-wave equation.  The
iterates are Anderson-mixed (type II, Walker & Ni, SIAM J. Numer. Anal. 49,
2011): the next V combines G(V) over the last ``_ANDERSON_DEPTH`` steps
with the weights that minimize the combined residual G(V) - V in the least
squares, which cuts the steps at a = 3.5 (sigma = 1/2, the slowest
contraction) about in half.  A step whose plain increment ||G(V) - V||
fails to shrink drops the history and falls back to the plain step
V <- G(V).  A Petviashvili iteration on the full equation, sharing none of
the contraction structure, serves as an independent oracle.
"""

import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SolverError
from .operators import LongWaveOperators
from .spectral import Field, sobolev_norm

__all__ = [
    "WaveSolution", "residual",
    "solve_contraction", "solve_petviashvili", "scaling_sweep", "SweepReport",
]

_ANDERSON_DEPTH = 5  # residual differences the contraction mixes over
_PETVIASHVILI_MAX_ITER = 500  # oracle steps before it reports non-convergence


def residual(ctx, W):
    """H^1 residual of the traveling-wave equation at profile W."""
    r = ctx.linear(W) - ctx.quadratic(W, W) - ctx.eps ** 2 * ctx.cubic(W)
    return sobolev_norm(r, 1.0)


@dataclass(frozen=True)
class WaveSolution:
    """A computed profile W = W0 + eps^sigma V with its diagnostics."""

    ctx: LongWaveOperators = field(repr=False)
    eps: float = 0.0
    sigma: float = 0.0
    c_eps_sq: float = 0.0
    W: Field = None
    V: Field = None
    residual_H1: float = math.inf
    iterations: int = 0
    method: str = ""
    increments: tuple = ()
    plain_steps: int = 0    # mixed steps the safeguard replaced by G(V)

    @property
    def correction_norm(self):
        return sobolev_norm(self.V, 1.0)

    def to_dict(self):
        return {
            "method": self.method,
            "eps": self.eps,
            "sigma": self.sigma,
            "c_eps_sq": self.c_eps_sq,
            "residual_H1": self.residual_H1,
            "iterations": self.iterations,
            "plain_steps": self.plain_steps,
            "correction_H1": self.correction_norm,
            "family": self.ctx.model.family,
        }


def _package(ctx, V, iterations, method, increments=(), plain_steps=0):
    W = ctx.background + ctx.eps ** ctx.sigma * V
    return WaveSolution(
        ctx=ctx, eps=ctx.eps, sigma=ctx.sigma, c_eps_sq=ctx.speed_sq,
        W=W, V=V, residual_H1=residual(ctx, W), iterations=iterations,
        method=method, increments=tuple(increments), plain_steps=plain_steps,
    )


def _check_max_iter(max_iter):
    if max_iter < 1:
        raise ConfigError(f"max_iter={max_iter} must be >= 1")


class _Anderson:
    """Type-II Anderson mixing for a fixed point x = G(x) on flat arrays.

    ``step(x, g)`` takes an iterate and g = G(x) and returns the next
    iterate g - (dX + dF) gamma, where dX and dF hold the last
    ``_ANDERSON_DEPTH`` differences of iterates and of residuals f = g - x,
    and gamma minimizes ||f - dF gamma||_2.  With no differences yet the
    step is plain: g.  A fresh mixer starts a new history.
    """

    def __init__(self):
        self._dx = deque(maxlen=_ANDERSON_DEPTH)
        self._df = deque(maxlen=_ANDERSON_DEPTH)
        self._last = None

    def step(self, x, g):
        f = g - x
        if self._last is not None:
            self._dx.append(x - self._last[0])
            self._df.append(f - self._last[1])
        self._last = (x, f)
        if not self._df:
            return g
        dF = np.column_stack(self._df)
        gamma = np.linalg.lstsq(dF, f, rcond=None)[0]
        return g - (np.column_stack(self._dx) + dF) @ gamma


def solve_contraction(ctx, tol=1e-12, max_iter=50):
    """Anderson-mixed fixed-point iteration for the correction V from V = 0.

    Each step evaluates G(V) = L^-1 B^-1 [R + eps^sigma Q(V, V)
    + eps^2 N(V)] and records the plain H^1 increment
    ||G(V) - V||; it returns G(V) once that drops below ``tol``, so
    ``iterations`` counts evaluations of G.  Otherwise the next V mixes
    G over the last ``_ANDERSON_DEPTH`` steps (``_Anderson``).  Safeguard:
    when the increment does not drop below the previous step's, the history
    is dropped and the step is the plain V <- G(V); ``plain_steps`` counts
    these.  Divergence (the norm of G(V) exceeding 10x the first one, which
    for small eps bounds the contraction ball) raises SolverError flagging
    eps as too large, as does exhausting ``max_iter`` (>= 1, else
    ConfigError).  Every step solves with the same band factor of L_eps,
    which the context builds on the first solve and keeps.
    """
    _check_max_iter(max_iter)
    base = ctx.linear_inv(ctx.residual_forcing())
    V = Field.zero(ctx.grid)
    mixer = _Anderson()
    first_norm = None
    increments = []
    plain_steps = 0
    for n in range(1, max_iter + 1):
        rhs = base
        if n > 1:
            rhs = rhs + ctx.linear_inv(
                ctx.eps ** ctx.sigma * ctx.quadratic(V, V)
                + ctx.eps ** 2 * ctx.cubic_shift(V))
        G = ctx.linearized_solve(rhs)
        inc = sobolev_norm(G - V, 1.0)
        increments.append(inc)
        norm = sobolev_norm(G, 1.0)
        if first_norm is None:
            first_norm = norm
        elif norm > 10.0 * first_norm + 1e-12:
            raise SolverError(
                f"contraction failure at eps={ctx.eps}: iterate norm "
                f"{norm:.3e} exceeds 10x first iterate {first_norm:.3e} "
                f"(eps too large)"
            )
        if inc < tol:
            return _package(ctx, G, n, "contraction", increments,
                            plain_steps)
        if n > 1 and inc >= increments[-2]:
            plain_steps += 1
            mixer = _Anderson()
        V = G.with_values(mixer.step(V.values, G.values))
    raise SolverError(
        f"contraction did not converge in {max_iter} iterations; "
        f"last increment {increments[-1]:.3e}"
    )


def solve_petviashvili(ctx, tol=1e-12):
    """Stabilized fixed-point iteration on the full equation (oracle).

    W_{n+1} = S_n^2 B^-1 [Q(W_n, W_n) + eps^2 P(W_n)] with the standard
    stabilizing ratio S_n = <W, B W> / <W, Q + eps^2 P>; exponent 2 is the
    optimal choice for a quadratic-dominant nonlinearity and the eps^2 cubic
    perturbation leaves convergence intact in practice.  Seeded with W0;
    converged when |S - 1| and the increment both drop below ``tol``
    within ``_PETVIASHVILI_MAX_ITER`` steps.  Non-positive stabilizer or
    divergence raises SolverError (an oracle failure is reported, never
    papered over).
    """
    grid = ctx.grid
    dx = grid.dx
    W = ctx.background
    w0_norm = sobolev_norm(W, 1.0)
    for n in range(1, _PETVIASHVILI_MAX_ITER + 1):
        K = ctx.quadratic(W, W) + ctx.eps ** 2 * ctx.cubic(W)
        num = dx * float(np.dot(W.values, ctx.linear(W).values))
        den = dx * float(np.dot(W.values, K.values))
        if den == 0.0 or num / den <= 0.0:
            raise SolverError(
                f"oracle failure: nonpositive stabilizer at iteration {n}")
        S = num / den
        W_new = S ** 2 * ctx.linear_inv(K)
        inc = sobolev_norm(W_new - W, 1.0)
        W = W_new
        if sobolev_norm(W, 1.0) > 10.0 * w0_norm:
            raise SolverError(f"oracle divergence at eps={ctx.eps}")
        if abs(S - 1.0) < tol and inc < tol:
            V = ctx.eps ** (-ctx.sigma) * (W - ctx.background)
            return _package(ctx, V, n, "petviashvili")
    raise SolverError(
        f"petviashvili did not converge in {_PETVIASHVILI_MAX_ITER} iterations")


@dataclass(frozen=True)
class SweepReport:
    """Scaling-law measurement across a list of eps values."""

    eps: tuple
    diff_H1: tuple          # ||W_eps - W0||_{H^1}, nan where the solve failed
    residuals: tuple
    iterations: tuple
    failures: tuple         # error strings, "" for successful solves
    slope: float            # log-log fit of diff_H1 against eps
    sigma_expected: float

    def rows(self):
        return list(zip(self.eps, self.diff_H1, self.residuals, self.iterations))


def scaling_sweep(profile, grid, eps_list, tol=1e-12, max_iter=50):
    """Solve along ``eps_list`` and fit the correction scaling exponent.

    Records ||W_eps - W0||_{H^1} per eps and the least-squares log-log
    slope; the exponent certified on the dispersion profile is the expected
    value, and each context corrects with it.  Individual solve failures
    are recorded and excluded from the fit (partial report).
    """
    if len(eps_list) < 5:
        raise SolverError("scaling sweep needs at least 5 eps values")
    _check_max_iter(max_iter)

    def one(eps):
        ctx = LongWaveOperators(profile, grid, eps)
        try:
            sol = solve_contraction(ctx, tol=tol, max_iter=max_iter)
            return (sobolev_norm(sol.W - ctx.background, 1.0),
                    sol.residual_H1, sol.iterations, "")
        except SolverError as exc:
            return math.nan, math.nan, 0, str(exc)

    rows = [one(eps) for eps in eps_list]
    diffs, resids, iters, fails = (list(col) for col in zip(*rows))
    eps_arr = np.asarray(eps_list, dtype=float)
    d_arr = np.asarray(diffs)
    ok = np.isfinite(d_arr) & (d_arr > 0.0)
    slope = float(np.polyfit(np.log(eps_arr[ok]), np.log(d_arr[ok]), 1)[0]) \
        if np.count_nonzero(ok) >= 2 else math.nan
    return SweepReport(
        eps=tuple(eps_list), diff_H1=tuple(diffs), residuals=tuple(resids),
        iterations=tuple(iters), failures=tuple(fails), slope=slope,
        sigma_expected=float(profile.sigma),
    )
