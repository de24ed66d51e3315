"""MA(1)-GARCH(1,1) quasi-maximum-likelihood estimation and filtering.

Mean equation r_t = mu + theta*eps_{t-1} + eps_t, variance recursion
h_t = omega + alpha*eps_{t-1}^2 + beta*h_{t-1}.  The pre-sample residual is
zero and the variance recursion starts at the sample variance, h_0 = V =
var(r).

Estimation targets the variance (Engle & Mezrich 1996): omega = V*(1 - p)
with persistence p = alpha + beta, so the unconditional variance is V
whatever the parameters and h_0 is its value.  With a free omega, i.i.d.
returns put the optimum on a flat ridge (alpha = 0, beta -> 1, omega -> 0)
where h_t decays geometrically from h_0; targeting removes that ridge at a
small cost in efficiency (Francq, Horvath & Zakoian 2011).  The estimate is
one bound-constrained L-BFGS-B search (Byrd, Lu, Nocedal & Zhu 1995) with the
analytic score (Fiorentini, Calzolari & Panattoni 1996) over (mu, theta,
persistence p, share s = alpha/p).  The box holds both faces, alpha = 0 and
beta = 0, as ordinary points.  On the alpha = 0 face h_t = V for every t, so
there beta is not identified.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import minimize

from ..errors import NonConvergence

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
    x: np.ndarray, theta: float, omega: float, alpha: float, beta: float, variance: float
) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and variances of the demeaned returns x, with h_0 = variance."""
    # eps_t = x_t - theta * eps_{t-1}, pre-sample eps = 0
    eps = _first_order_recursion(x, -theta)
    drive = np.empty_like(eps)
    drive[:1] = variance
    drive[1:] = omega + alpha * eps[:-1] ** 2
    # h_t = drive_t + beta * h_{t-1}
    return eps, _first_order_recursion(drive, beta)


def filter_ma1_garch11(returns: np.ndarray, params: MA1Garch11Params) -> tuple[np.ndarray, np.ndarray]:
    """Residuals eps_t and conditional variances h_t under the conventions above."""
    r = np.asarray(returns, dtype=float)
    variance = float(np.var(r)) if len(r) else 0.0
    return _filter(r - params.mu, params.theta, params.omega, params.alpha, params.beta, variance)


_INVALID = 1e12  # objective value where the filter or the likelihood is not finite
# the search box in (mu, theta, persistence, share); mu is unbounded
_BOUNDS = ((None, None), (-(1.0 - 1e-9), 1.0 - 1e-9), (0.0, _PERSISTENCE_CAP), (0.0, 1.0))


def _nll(eps: np.ndarray, h: np.ndarray) -> float:
    if not np.isfinite(h).all() or h.min() <= 0.0:
        return _INVALID
    value = 0.5 * float(np.sum(_LOG_2PI + np.log(h) + eps**2 / h))
    return value if math.isfinite(value) else _INVALID


def _garch_params(point: np.ndarray, variance: float) -> tuple[float, float, float, float, float]:
    """(mu, theta, omega, alpha, beta) at a point (mu, theta, persistence, share).

    omega is V*(1 - alpha - beta) on the rounded alpha and beta, so that the
    unconditional variance is V to the last bits.
    """
    mu, theta, persistence, share = point.tolist()
    alpha, beta = persistence * share, persistence * (1.0 - share)
    return mu, theta, variance * (1.0 - alpha - beta), alpha, beta


def _negative_loglik_and_score(
    point: np.ndarray, returns: np.ndarray, variance: float
) -> tuple[float, np.ndarray]:
    """Negative log-likelihood at (mu, theta, persistence, share) and its gradient.

    Every derivative of eps_t and h_t is a first-order recursion with the
    coefficient of its own recursion (Fiorentini, Calzolari & Panattoni 1996),
    so each group is one banded solve with several right-hand sides.  Where the
    value or the gradient is not finite, returns the sentinel with a zero
    gradient.
    """
    mu, theta, omega, alpha, beta = _garch_params(point, variance)
    eps, h = _filter(returns - mu, theta, omega, alpha, beta, variance)
    value = _nll(eps, h)
    if value == _INVALID:
        return value, np.zeros(4)
    n = len(eps)
    # d eps_t / d(mu, theta): drives -1 and -eps_{t-1}, coefficient -theta
    drive = np.zeros((2, n))
    drive[0] = -1.0
    drive[1, 1:] = -eps[:-1]
    d_eps = _first_order_recursion(drive.T, -theta).T
    # d h_t / d(mu, theta, persistence, share): coefficient beta; h_0 = V is fixed
    persistence, share = point[2:].tolist()
    drive = np.zeros((4, n))
    drive[:2, 1:] = 2.0 * alpha * eps[:-1] * d_eps[:, :-1]
    drive[2, 1:] = share * eps[:-1] ** 2 + (1.0 - share) * h[:-1] - variance
    drive[3, 1:] = persistence * (eps[:-1] ** 2 - h[:-1])
    d_h = _first_order_recursion(drive.T, beta).T
    # d nll = sum_t 0.5 (1 - eps^2/h) / h * dh_t + eps / h * d eps_t
    score = d_h @ (0.5 * (1.0 - eps**2 / h) / h)
    score[:2] += d_eps @ (eps / h)
    if not np.isfinite(score).all():
        return _INVALID, np.zeros(4)
    return value, score


def fit_ma1_garch11(returns: np.ndarray) -> MA1Garch11Params:
    """Variance-targeted Gaussian QMLE via bounded L-BFGS-B on the analytic score.

    Five fixed starts cover the interior and the beta = 0 face: the search
    stops on the alpha = 0 face, which is flat in the persistence, and at
    persistence 0, where the share has no gradient, so one start alone can
    end short of the best optimum.
    """
    r = np.asarray(returns, dtype=float)
    variance = float(np.var(r))
    if variance <= 0.0:
        raise NonConvergence("zero-variance series is degenerate")
    # the search measures mu in sample standard deviations, so that its score
    # is on the scale of the others' (it is about n / sd in raw units)
    scale = np.array([math.sqrt(variance), 1.0, 1.0, 1.0])

    def start(theta: float, alpha: float, beta: float) -> np.ndarray:
        persistence = alpha + beta
        return np.array([float(np.mean(r)), theta, persistence, alpha / persistence]) / scale

    def objective(u: np.ndarray) -> tuple[float, np.ndarray]:
        value, score = _negative_loglik_and_score(u * scale, r, variance)
        return value, score * scale

    results = [
        minimize(objective, start(*point), jac=True, method="L-BFGS-B", bounds=_BOUNDS,
                 options={"ftol": 1e-14, "gtol": 1e-9})
        for point in ((0.0, 0.05, 0.90), (0.1, 0.10, 0.80), (-0.1, 0.20, 0.50), (0.0, 0.01, 0.98), (0.0, 0.05, 0.0))
    ]
    best = min(results, key=lambda res: res.fun)
    if best.fun >= _INVALID:
        raise NonConvergence("likelihood never became finite")
    if not any(res.success for res in results):
        raise NonConvergence(f"no L-BFGS-B start converged (best nll {best.fun:.6f})")
    mu, theta, omega, alpha, beta = _garch_params(best.x * scale, variance)
    return MA1Garch11Params(mu=mu, theta=theta, omega=omega, alpha=alpha, beta=beta, loglik=-best.fun)

