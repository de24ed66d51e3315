"""MA(1)-GARCH(1,1) quasi-maximum-likelihood estimation and filtering.

Mean equation r_t = mu + theta*eps_{t-1} + eps_t, variance recursion
h_t = omega + alpha*eps_{t-1}^2 + beta*h_{t-1}.  The pre-sample residual is
zero and the variance recursion is seeded with the sample variance
(h_0 = omega + (alpha+beta)*var(r)).  Estimation runs L-BFGS-B with the
analytic score (Fiorentini, Calzolari & Panattoni 1996) on an unconstrained
reparameterization, from three fixed starting points and one near the
constant-variance limit, and falls back to Nelder-Mead from the three fixed
points when no start succeeds or the optimum lies at the edge of the
reparameterization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import OptimizeResult, minimize

from ..errors import InputError, NonConvergence, NonStationarySolution

_LOG_2PI = math.log(2.0 * math.pi)
_PERSISTENCE_CAP = 1.0 - 1e-7  # alpha + beta stays below 1


@dataclass(frozen=True)
class MA1Garch11Params:
    mu: float
    theta: float
    omega: float
    alpha: float
    beta: float
    loglik: float | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.omega <= 0.0:
            raise NonStationarySolution(f"omega must be positive, got {self.omega}")
        if self.alpha < 0.0 or self.beta < 0.0:
            raise NonStationarySolution("alpha and beta must be nonnegative")
        if self.alpha + self.beta >= 1.0:
            raise NonStationarySolution(
                f"alpha + beta must be < 1, got {self.alpha + self.beta}"
            )
        if abs(self.theta) >= 1.0:
            raise InputError(f"MA coefficient must lie in (-1, 1), got {self.theta}")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


def _first_order_recursion(drive: np.ndarray, c: float) -> np.ndarray:
    """y_t = drive_t + c * y_{t-1} with y_{-1} = 0, solved as a unit lower-bidiagonal system.

    A 2-D drive of shape (n, k) is k recursions with the same coefficient,
    solved in one call; Fortran order avoids a copy of it.
    """
    n = len(drive)
    if n == 0:
        return np.empty(drive.shape)
    # Fortran order lets dtbtrs read the band without a copy; the unit diagonal is never read
    band = np.empty((2, n), order="F")
    band[1] = -c
    solution, _ = dtbtrs(band, drive, uplo="L", diag="U")
    return solution


def _filter(
    x: np.ndarray, theta: float, omega: float, alpha: float, beta: float, backcast: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and variances of the demeaned returns x; h_0 is seeded from backcast."""
    # eps_t = x_t - theta * eps_{t-1}, pre-sample eps = 0
    eps = _first_order_recursion(x, -theta)
    drive = np.empty_like(eps)
    drive[:1] = omega + (alpha + beta) * backcast
    drive[1:] = omega + alpha * eps[:-1] ** 2
    # h_t = drive_t + beta * h_{t-1}
    return eps, _first_order_recursion(drive, beta)


def filter_ma1_garch11(returns: np.ndarray, params: MA1Garch11Params) -> tuple[np.ndarray, np.ndarray]:
    """Residuals eps_t and conditional variances h_t under the conventions above."""
    r = np.asarray(returns, dtype=float)
    backcast = float(np.var(r)) if len(r) else 0.0
    return _filter(r - params.mu, params.theta, params.omega, params.alpha, params.beta, backcast)


def standardize_residuals(returns: np.ndarray, params: MA1Garch11Params) -> np.ndarray:
    """z_t = eps_t / sqrt(h_t)."""
    eps, h = filter_ma1_garch11(returns, params)
    return eps / np.sqrt(h)


_INVALID = 1e12  # objective value where the filter or the likelihood is not finite
# |logit persistence| or |logit share| beyond this is the edge of the reparameterization
_EDGE_LOGIT = 8.0


def _nll(eps: np.ndarray, h: np.ndarray) -> float:
    if not np.all(np.isfinite(h)) or h.min() <= 0.0:
        return _INVALID
    value = 0.5 * float(np.sum(_LOG_2PI + np.log(h) + eps**2 / h))
    return value if math.isfinite(value) else _INVALID


def _negative_loglik(raw: np.ndarray, returns: np.ndarray, backcast: float) -> float:
    mu, theta, omega, alpha, beta = _from_unconstrained(raw)
    return _nll(*_filter(returns - mu, theta, omega, alpha, beta, backcast))


def _negative_loglik_and_score(
    raw: np.ndarray, returns: np.ndarray, backcast: float
) -> tuple[float, np.ndarray]:
    """`_negative_loglik` and its gradient in the unconstrained coordinates.

    Every derivative of eps_t and h_t is a first-order recursion with the
    coefficient of its own recursion (Fiorentini, Calzolari & Panattoni 1996),
    so each group is one banded solve with several right-hand sides.  Where the
    value or the gradient is not finite, returns the sentinel with a zero
    gradient.
    """
    mu, theta, omega, alpha, beta = _from_unconstrained(raw)
    eps, h = _filter(returns - mu, theta, omega, alpha, beta, backcast)
    value = _nll(eps, h)
    if value == _INVALID:
        return value, np.zeros(5)
    n = len(eps)
    # d eps_t / d(mu, theta): drives -1 and -eps_{t-1}, coefficient -theta
    drive = np.zeros((2, n))
    drive[0] = -1.0
    drive[1, 1:] = -eps[:-1]
    d_eps = _first_order_recursion(drive.T, -theta).T
    # d h_t / d(mu, theta, omega, alpha, beta): coefficient beta
    drive = np.empty((5, n))
    drive[:2, 0] = 0.0
    drive[:2, 1:] = 2.0 * alpha * eps[:-1] * d_eps[:, :-1]
    drive[2] = 1.0
    drive[3:, 0] = backcast
    drive[3, 1:] = eps[:-1] ** 2
    drive[4, 1:] = h[:-1]
    d_h = _first_order_recursion(drive.T, beta).T
    # d nll = sum_t 0.5 (1 - eps^2/h) / h * dh_t + eps / h * d eps_t
    w_h = 0.5 * (1.0 - eps**2 / h) / h
    grad = d_h @ w_h
    grad[:2] += d_eps @ (eps / h)
    # chain rule through _from_unconstrained
    persistence_sigmoid = _sigmoid(float(raw[3]))
    persistence = persistence_sigmoid * _PERSISTENCE_CAP
    d_persistence = persistence * (1.0 - persistence_sigmoid)
    share = _sigmoid(float(raw[4]))
    d_share = share * (1.0 - share)
    score = np.array([
        grad[0],
        grad[1] * (1.0 - theta * theta),
        grad[2] * omega if raw[2] < 50.0 else 0.0,
        d_persistence * (grad[3] * share + grad[4] * (1.0 - share)),
        persistence * d_share * (grad[3] - grad[4]),
    ])
    if not np.all(np.isfinite(score)):
        return _INVALID, np.zeros(5)
    return value, score


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def _from_unconstrained(raw: np.ndarray) -> tuple[float, float, float, float, float]:
    mu = float(raw[0])
    theta = math.tanh(float(raw[1]))
    omega = math.exp(min(float(raw[2]), 50.0))
    persistence = _sigmoid(float(raw[3])) * _PERSISTENCE_CAP
    share = _sigmoid(float(raw[4]))
    return mu, theta, omega, persistence * share, persistence * (1.0 - share)


def _to_unconstrained(mu, theta, omega, alpha, beta) -> np.ndarray:
    persistence = alpha + beta
    share = alpha / persistence
    logit = lambda p: math.log(p / (1.0 - p))
    return np.array([
        mu,
        math.atanh(theta),
        math.log(omega),
        logit(persistence),
        logit(share),
    ])


def _fixed_starts(mean: float, variance: float) -> list[np.ndarray]:
    return [
        _to_unconstrained(mean, 0.0, 0.05 * variance, 0.05, 0.90),
        _to_unconstrained(mean, 0.1, 0.10 * variance, 0.10, 0.80),
        _to_unconstrained(mean, -0.1, 0.30 * variance, 0.20, 0.50),
    ]


def _fit_nelder_mead(
    starts: list[np.ndarray], returns: np.ndarray, backcast: float, fatol: float
) -> tuple[OptimizeResult, int, bool]:
    """Best Nelder-Mead result over the starts, total iterations, and whether any converged."""
    best = None
    iterations = 0
    converged = False
    for start in starts:
        res = minimize(
            _negative_loglik,
            start,
            args=(returns, backcast),
            method="Nelder-Mead",
            options={"fatol": fatol, "xatol": 1e-6, "maxiter": 6000, "maxfev": 8000},
        )
        iterations += res.nit
        converged = converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
    return best, iterations, converged


def fit_ma1_garch11(
    returns: np.ndarray,
    min_length: int = 250,
    fatol: float = 1e-8,
) -> MA1Garch11Params:
    """Gaussian QMLE via L-BFGS-B on the analytic score, from fixed starts.

    Nelder-Mead from the three interior starts (with absolute tolerance
    `fatol` on the objective) runs too, and the better optimum is kept, when
    no L-BFGS-B start succeeds or the best point lies where a logit of the
    reparameterization exceeds `_EDGE_LOGIT` in size: there, as for i.i.d.
    returns with their constant-variance optimum (alpha -> 0, beta -> 1), the
    quasi-Newton search can stop short.
    """
    r = np.asarray(returns, dtype=float)
    if len(r) < min_length:
        raise InputError(f"need at least {min_length} observations, got {len(r)}")
    if not np.all(np.isfinite(r)):
        raise InputError("returns contain non-finite values")
    variance = float(np.var(r))
    if variance <= 0.0:
        raise NonConvergence("zero-variance series is degenerate", iterations=0)
    backcast = variance
    mean = float(np.mean(r))

    starts = _fixed_starts(mean, variance)
    # a fourth start near the constant-variance limit lets the quasi-Newton
    # search reach an optimum on that edge, which then brings in Nelder-Mead
    near_edge = _to_unconstrained(mean, 0.0, 0.01 * variance, 0.01, 0.98)
    # the search measures mu in sample standard deviations, so that its score
    # is on the scale of the others' (it is about n / sd in raw units)
    scale = np.array([math.sqrt(variance), 1.0, 1.0, 1.0, 1.0])

    def objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        value, score = _negative_loglik_and_score(u * scale, r, backcast)
        return value, score * scale

    best = None
    iterations = 0
    converged = False
    for start in starts + [near_edge]:
        res = minimize(
            objective,
            start / scale,
            jac=True,
            method="L-BFGS-B",
            options={"ftol": 1e-14, "gtol": 1e-9},
        )
        res.x = res.x * scale
        iterations += res.nit
        if res.success and res.fun < _INVALID:
            converged = True
            if best is None or res.fun < best.fun:
                best = res
    if best is None or np.abs(best.x[3:]).max() > _EDGE_LOGIT:
        fallback, nm_iterations, nm_converged = _fit_nelder_mead(starts, r, backcast, fatol)
        iterations += nm_iterations
        if best is None or fallback.fun < best.fun:
            best = fallback
        converged = converged or nm_converged
    if not math.isfinite(best.fun) or best.fun >= _INVALID:
        raise NonConvergence("likelihood never became finite", iterations=iterations)
    mu, theta, omega, alpha, beta = _from_unconstrained(best.x)
    if not converged:
        raise NonConvergence(
            f"optimizer hit the iteration cap (best nll {best.fun:.6f})",
            iterations=iterations,
            best_point=(mu, theta, omega, alpha, beta),
        )
    return MA1Garch11Params(mu=mu, theta=theta, omega=omega, alpha=alpha, beta=beta, loglik=-best.fun)


def simulate_ma1_garch11(
    params: MA1Garch11Params,
    n: int,
    rng_seed: int | np.random.Generator,
    burn_in: int = 500,
) -> np.ndarray:
    """Generate a return path from the process (after a burn-in stretch)."""
    rng = np.random.default_rng(rng_seed) if isinstance(rng_seed, int) else rng_seed
    total = n + burn_in
    z = rng.standard_normal(total)
    eps = np.empty(total)
    h = np.empty(total)
    h[0] = params.unconditional_variance
    eps[0] = math.sqrt(h[0]) * z[0]
    for t in range(1, total):
        h[t] = params.omega + params.alpha * eps[t - 1] ** 2 + params.beta * h[t - 1]
        eps[t] = math.sqrt(h[t]) * z[t]
    r = params.mu + eps
    r[1:] += params.theta * eps[:-1]
    return r[burn_in:]
