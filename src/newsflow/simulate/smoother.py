"""Local-linear regression with plug-in bandwidth and uniform confidence bands.

The bandwidth follows the direct plug-in recipe: one global quartic pilot fit
estimates the error variance and the integrated squared second derivative,
which enter the asymptotically optimal Gaussian-kernel formula.  Uniform
bands scale the pointwise standard errors by the bootstrap quantile of the
sup-normalized deviation under Gaussian multipliers, floored at the pointwise
normal quantile.

The kernel depends on a point only through its x, and simulated x values are
draws from empirical marginals, so they repeat.  Every kernel sum therefore
runs over the m distinct values u_k with their counts c_k: the local sums
s0, s1 and s2 weigh u_k by c_k, fits and leverage residuals use per-value
sums of y, and standard errors per-value sums of squared residuals.  The
weight matrices are grid × m and m × m (in blocks of rows) instead of
grid × n and n × n.  The bootstrap draws one Gaussian multiplier per
distinct value (an m × n_boot matrix): given the residuals, the per-point
multiplier deviations are Gaussian with covariance W diag(r²) Wᵀ, so the
points of one value share a draw scaled by the root of their summed squared
residuals.  Fits and standard errors match the per-point sums up to
rounding; the band's critical value comes from this smaller draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from scipy import special

from ..errors import DegenerateX, InputError, TooFewPoints

_GAUSS_ROUGHNESS = 1.0 / (2.0 * math.sqrt(math.pi))  # integral of K^2 for the Gaussian kernel
_WEIGHT_FLOOR = 1e-10
_BLOCK = 512  # rows of the m × m leverage weights computed at once


@dataclass(frozen=True)
class SmootherFit:
    grid: np.ndarray
    curve: np.ndarray
    bandwidth: float
    band_lower: np.ndarray | None = None
    band_upper: np.ndarray | None = None
    n_empty: int = 0
    n_points: int = 0
    n_distinct: int = 0
    pointwise_se: np.ndarray | None = field(repr=False, default=None)
    critical_value: float | None = None


def _distinct(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted distinct values u of x, each point's index into u, and the counts as floats."""
    u, index, counts = np.unique(x, return_inverse=True, return_counts=True)
    return u, index, counts.astype(float)


def _equivalent_weights(
    u: np.ndarray, counts: np.ndarray, grid: np.ndarray, h: float
) -> tuple[np.ndarray, np.ndarray]:
    """Local-linear weight l(g) of one point at each distinct value u_k; flags for empty points.

    The kernel sums s0, s1 and s2 weigh each value by its count, so a row
    times the counts sums to 1.  Grid points whose local line is degenerate
    (all kernel mass on one x value) fall back to the locally weighted mean;
    points with no kernel mass at all are flagged empty and get zero weights.
    """
    dx = u[None, :] - grid[:, None]
    w = np.exp(-0.5 * (dx / h) ** 2)
    wdx = w * dx
    s0 = w @ counts
    s1 = wdx @ counts
    s2 = (wdx * dx) @ counts
    denom = s0 * s2 - s1 * s1
    empty = s0 < _WEIGHT_FLOOR
    degenerate = ~empty & (denom <= _WEIGHT_FLOOR * np.maximum(s0 * s2, _WEIGHT_FLOOR))
    safe_denom = np.where(empty | degenerate, 1.0, denom)
    weights = w * (s2[:, None] - dx * s1[:, None]) / safe_denom[:, None]
    if degenerate.any():
        safe_s0 = np.where(empty, 1.0, s0)
        weights[degenerate] = (w / safe_s0[:, None])[degenerate]
    weights[empty] = 0.0
    return weights, empty


def local_linear_fit(
    x: np.ndarray,
    y: np.ndarray,
    h: float,
    grid: np.ndarray,
) -> SmootherFit:
    """Gaussian-kernel weighted local line at each grid point (intercept only)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    grid = np.asarray(grid, dtype=float)
    if len(grid) > 1 and not np.all(np.diff(grid) > 0):
        raise InputError("evaluation grid must be strictly increasing")
    u, index, counts = _distinct(x)
    weights, empty = _equivalent_weights(u, counts, grid, h)
    curve = weights @ np.bincount(index, y, minlength=len(u))
    curve[empty] = np.nan
    return SmootherFit(
        grid=grid, curve=curve, bandwidth=h, n_empty=int(empty.sum()), n_points=len(x), n_distinct=len(u)
    )


def _residuals_with_leverage(u, index, counts, y, h):
    """Residuals at the data points, rescaled by 1/sqrt(1 - self-weight).

    The local fit shrinks its own residual through the self-weight l_i(x_i):
    one point's weight at its own value, s2/denom (1/s0 when degenerate),
    the diagonal of the m × m weights on the distinct values.  The rescaling
    restores the error scale (the HC2 correction).
    """
    sums = np.bincount(index, y, minlength=len(u))
    fitted = np.empty(len(u))
    self_weight = np.empty(len(u))
    # blocks of rows keep the memory at _BLOCK × m when the x values barely repeat
    for start in range(0, len(u), _BLOCK):
        weights, _ = _equivalent_weights(u, counts, u[start : start + _BLOCK], h)
        fitted[start : start + _BLOCK] = weights @ sums
        self_weight[start : start + _BLOCK] = np.diagonal(weights, start)
    deflation = np.sqrt(np.clip(1.0 - self_weight, 0.05, 1.0))
    return (y - fitted[index]) / deflation[index]


def plugin_bandwidth(x: np.ndarray, y: np.ndarray) -> float:
    """Direct plug-in bandwidth for local-linear regression (Gaussian kernel).

    A global quartic pilot estimates the error variance and the integrated
    squared second derivative.  (A blockwise pilot with Cp selection was
    rejected: on tied x values, as produced by empirical-marginal sampling,
    narrow blocks inflate the curvature functional by orders of magnitude.)
    Capped at the support length when the estimated curvature vanishes, and
    floored at four average point spacings.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = len(x)
    if n < 20:
        raise TooFewPoints(f"plug-in bandwidth needs n >= 20, got {n}")
    support = float(x.max() - x.min())
    if support <= 0.0:
        raise DegenerateX("all x values are equal")

    # the pilot is fitted in sorted order and standardized coordinates (for
    # conditioning); its second derivative maps back through the chain rule
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    scale = xs.std() or 1.0
    u = (xs - xs.mean()) / scale
    coeffs = np.polyfit(u, ys, 4)
    resid = ys - np.polyval(coeffs, u)
    sigma2 = float(resid @ resid) / max(n - 5, 1)
    second = np.empty(n)
    second[order] = np.polyval(np.polyder(coeffs, 2), u) / scale**2
    theta22 = float(np.mean(second**2))

    cap = support
    floor = 4.0 * support / (n - 1)
    if theta22 <= 1e-12 or sigma2 <= 0.0:
        return cap
    h = (_GAUSS_ROUGHNESS * sigma2 * support / (n * theta22)) ** 0.2
    return float(min(max(h, floor), cap))


def uniform_band(
    fit: SmootherFit,
    x: np.ndarray,
    y: np.ndarray,
    level: float = 0.95,
    n_boot: int = 500,
    rng_seed: int = 0,
) -> SmootherFit:
    """Simultaneous band via the multiplier-bootstrap sup statistic.

    Pointwise standard errors come from the squared equivalent weights and
    squared residuals; the band multiplier is the `level` quantile of the
    sup-normalized bootstrap deviations, never below the pointwise normal
    quantile.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    rng = np.random.default_rng(rng_seed)

    u, index, counts = _distinct(x)
    residuals = _residuals_with_leverage(u, index, counts, y, fit.bandwidth)
    weights, empty = _equivalent_weights(u, counts, fit.grid, fit.bandwidth)
    squares = np.bincount(index, residuals**2, minlength=len(u))
    se = np.sqrt(weights**2 @ squares)
    se[empty] = np.nan

    # one multiplier per distinct value, scaled by the root of its summed
    # squared residuals: the same Gaussian law as one multiplier per point
    draws = rng.standard_normal((len(u), n_boot))
    draws *= np.sqrt(squares)[:, None]
    deviations = weights @ draws
    usable = ~empty & (se > 0)
    if usable.any():
        ratios = np.abs(deviations[usable]) / se[usable, None]
        sup = ratios.max(axis=0)
        critical = float(np.quantile(sup, level))
    else:
        critical = 0.0
    critical = max(critical, float(special.ndtri(0.5 + level / 2.0)))

    width = critical * se
    return replace(
        fit,
        band_lower=fit.curve - width,
        band_upper=fit.curve + width,
        pointwise_se=se,
        critical_value=critical,
    )


def band_overlap_region(fit_pos: SmootherFit, fit_neg: SmootherFit) -> list[tuple[float, float]]:
    """Grid intervals where the two bands, from uniform_band on one grid, are disjoint (do NOT overlap)."""
    grid = fit_pos.grid
    with np.errstate(invalid="ignore"):
        disjoint = (fit_neg.band_lower > fit_pos.band_upper) | (
            fit_pos.band_lower > fit_neg.band_upper
        )
    disjoint = np.where(np.isnan(fit_pos.curve) | np.isnan(fit_neg.curve), False, disjoint)

    intervals: list[tuple[float, float]] = []
    start = None
    for i, flag in enumerate(disjoint):
        if flag and start is None:
            start = i
        elif not flag and start is not None:
            intervals.append((float(grid[start]), float(grid[i - 1])))
            start = None
    if start is not None:
        intervals.append((float(grid[start]), float(grid[-1])))
    return intervals
