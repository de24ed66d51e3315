"""MA(1)-GARCH(1,1) quasi-maximum-likelihood estimation and filtering.

Mean equation r_t = mu + theta*eps_{t-1} + eps_t, variance recursion
h_t = omega + alpha*eps_{t-1}^2 + beta*h_{t-1}.  The pre-sample residual is
zero and the variance recursion is seeded with the sample variance
(h_0 = omega + (alpha+beta)*var(r)).  Estimation is one bound-constrained
L-BFGS-B search (Byrd, Lu, Nocedal & Zhu 1995) with the analytic score
(Fiorentini, Calzolari & Panattoni 1996) over (mu, theta, log omega,
persistence alpha+beta, share alpha/(alpha+beta)).  The box holds both faces,
alpha = 0 and beta = 0, as ordinary points, so optima on them are reached
like any other.
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
# the search box in (mu, theta, log omega, persistence, share); mu is unbounded
_BOUNDS = ((None, None), (-(1.0 - 1e-9), 1.0 - 1e-9), (None, 50.0), (0.0, _PERSISTENCE_CAP), (0.0, 1.0))


def _nll(eps: np.ndarray, h: np.ndarray) -> float:
    if not np.isfinite(h).all() or h.min() <= 0.0:
        return _INVALID
    value = 0.5 * float(np.sum(_LOG_2PI + np.log(h) + eps**2 / h))
    return value if math.isfinite(value) else _INVALID


def _garch_params(point: np.ndarray) -> tuple[float, float, float, float, float]:
    """(mu, theta, omega, alpha, beta) at a point (mu, theta, log omega, persistence, share)."""
    mu, theta, log_omega, persistence, share = point.tolist()
    return mu, theta, math.exp(log_omega), persistence * share, persistence * (1.0 - share)


def _negative_loglik_and_score(
    point: np.ndarray, returns: np.ndarray, backcast: float
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood at (mu, theta, log omega, persistence, share) and its gradient.

    Every derivative of eps_t and h_t is a first-order recursion with the
    coefficient of its own recursion (Fiorentini, Calzolari & Panattoni 1996),
    so each group is one banded solve with several right-hand sides.  Where the
    value or the gradient is not finite, returns the sentinel with a zero
    gradient.
    """
    mu, theta, omega, alpha, beta = _garch_params(point)
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
    # chain rule to (log omega, persistence, share)
    persistence, share = point[3:].tolist()
    score = np.array([
        grad[0],
        grad[1],
        grad[2] * omega,
        share * grad[3] + (1.0 - share) * grad[4],
        persistence * (grad[3] - grad[4]),
    ])
    if not np.isfinite(score).all():
        return _INVALID, np.zeros(5)
    return value, score


def fit_ma1_garch11(returns: np.ndarray, min_length: int = 250) -> MA1Garch11Params:
    """Gaussian QMLE via bounded L-BFGS-B on the analytic score, from fixed starts.

    Five starts cover the interior and the beta = 0 face.  When the best of
    them has a share alpha / (alpha + beta) within 0.05 of a face or a
    persistence above 0.99, as for i.i.d. returns, two more starts run on the
    alpha = 0 face at high persistence with no tolerance on the objective's
    decrease, because there the likelihood rises along a flat ridge towards
    omega -> 0 that the search otherwise leaves early.
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
    # the search measures mu in sample standard deviations, so that its score
    # is on the scale of the others' (it is about n / sd in raw units)
    scale = np.array([math.sqrt(variance), 1.0, 1.0, 1.0, 1.0])

    def start(theta: float, omega_ratio: float, alpha: float, beta: float) -> np.ndarray:
        persistence = alpha + beta
        point = [float(np.mean(r)), theta, math.log(omega_ratio * variance), persistence, alpha / persistence]
        return np.array(point) / scale

    def objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        value, score = _negative_loglik_and_score(u * scale, r, backcast)
        return value, score * scale

    def search(u: np.ndarray, ftol: float) -> OptimizeResult:
        return minimize(
            objective, u, jac=True, method="L-BFGS-B", bounds=_BOUNDS, options={"ftol": ftol, "gtol": 1e-9}
        )

    results = [
        search(u, 1e-14)
        for u in (
            start(0.0, 0.05, 0.05, 0.90),
            start(0.1, 0.10, 0.10, 0.80),
            start(-0.1, 0.30, 0.20, 0.50),
            start(0.0, 0.01, 0.01, 0.98),
            start(0.0, 0.90, 0.05, 0.0),
        )
    ]
    _, _, _, persistence, share = min(results, key=lambda res: res.fun).x
    if share < 0.05 or share > 0.95 or persistence > 0.99:
        results += [search(u, 0.0) for u in (start(0.0, 1e-3, 0.0, 0.999), start(0.0, 1e-6, 0.0, _PERSISTENCE_CAP))]
    best = min(results, key=lambda res: res.fun)
    iterations = sum(res.nit for res in results)
    if best.fun >= _INVALID:
        raise NonConvergence("likelihood never became finite", iterations=iterations)
    mu, theta, omega, alpha, beta = _garch_params(best.x * scale)
    if not any(res.success for res in results):
        raise NonConvergence(
            f"no L-BFGS-B start converged (best nll {best.fun:.6f})",
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
