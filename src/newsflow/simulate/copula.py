"""Gaussian copula estimation and sampling over empirical marginals.

Estimation transforms each column through its empirical CDF and the standard
normal quantile, then takes the sample correlation of the normal scores.
Sampling factorizes the correlation matrix lower-triangularly, which realizes
the sequential conditional-inversion construction: each coordinate is drawn
from its normal conditional given the previous ones.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import special

from ..errors import ConstantColumn, NonPSDMatrix
from .edf import EmpiricalDistribution, fit_edf

_EIG_TOL = 1e-10


@dataclass(frozen=True)
class GaussianCopula:
    correlation: np.ndarray
    repaired: bool = False

    @property
    def dimension(self) -> int:
        return self.correlation.shape[0]


def _nearest_correlation(matrix: np.ndarray) -> np.ndarray:
    """Eigenvalue floor then rescale to unit diagonal."""
    eigvals, eigvecs = np.linalg.eigh(matrix)
    fixed = (eigvecs * np.clip(eigvals, _EIG_TOL, None)) @ eigvecs.T
    scale = np.sqrt(np.diag(fixed))
    fixed = fixed / np.outer(scale, scale)
    np.fill_diagonal(fixed, 1.0)
    return (fixed + fixed.T) / 2.0


def normal_scores(data: np.ndarray) -> np.ndarray:
    """Columnwise edf then standard normal quantile transform."""
    data = np.asarray(data, dtype=float)
    scores = np.empty_like(data)
    for j, column in enumerate(data.T):
        if np.all(column == column[0]):
            raise ConstantColumn(f"column {j} is constant")
        scores[:, j] = special.ndtri(fit_edf(column).cdf(column))
    return scores


def fit_gaussian_copula(data: np.ndarray) -> GaussianCopula:
    """Correlation of the normal scores; near-PSD repair applied if needed."""
    data = np.asarray(data, dtype=float)
    if data.shape[1] == 1:
        if np.all(data[:, 0] == data[0, 0]):
            raise ConstantColumn("column 0 is constant")
        return GaussianCopula(correlation=np.ones((1, 1)))
    corr = np.corrcoef(normal_scores(data), rowvar=False)
    corr = (corr + corr.T) / 2.0
    np.fill_diagonal(corr, 1.0)
    repaired = False
    if np.linalg.eigvalsh(corr).min() < -_EIG_TOL:
        corr = _nearest_correlation(corr)
        repaired = True
    return GaussianCopula(correlation=corr, repaired=repaired)


def _lower_factor(correlation: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.cholesky(correlation)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(correlation)
        if eigvals.min() < -_EIG_TOL:
            raise NonPSDMatrix("correlation matrix is not positive semidefinite") from None
        return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))


def sample_copula(
    copula: GaussianCopula,
    marginals: Sequence[EmpiricalDistribution],
    n: int,
    rng_seed: int,
) -> np.ndarray:
    """Draw n rows with the copula's dependence and the given marginals."""
    rng = np.random.default_rng(rng_seed)
    factor = _lower_factor(copula.correlation)
    z = rng.standard_normal((n, copula.dimension)) @ factor.T
    u = special.ndtr(z)
    # normal cdf can land exactly on 0/1 in float; keep inside the open interval
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    out = np.empty_like(u)
    for j, marginal in enumerate(marginals):
        out[:, j] = marginal.quantile(u[:, j])
    return out
