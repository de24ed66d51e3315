"""Empirical marginal distributions with n+1-scaled CDF and inverse."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Step CDF of a sample, scaled by 1/(n+1) so probabilities avoid 0 and 1.

    cdf(x) = #{x_i <= x} / (n+1), clipped to [1/(n+1), n/(n+1)]; the quantile,
    on (0, 1), is the left-continuous inverse, so quantile(cdf(x_i)) recovers x_i.
    """

    sorted_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        object.__setattr__(self, "sorted_values", np.sort(np.asarray(self.sorted_values, dtype=float)))

    @property
    def n(self) -> int:
        return len(self.sorted_values)

    def cdf(self, x):
        counts = np.searchsorted(self.sorted_values, np.asarray(x, dtype=float), side="right")
        scaled = np.clip(counts, 1, self.n) / (self.n + 1)
        return scaled if np.ndim(x) else float(scaled)

    def quantile(self, u):
        u_arr = np.asarray(u, dtype=float)
        # tolerance keeps quantile(cdf(x_i)) = x_i despite float round-trip noise
        ranks = np.ceil(u_arr * (self.n + 1) - 1e-9).astype(int)
        values = self.sorted_values[np.clip(ranks, 1, self.n) - 1]
        return values if np.ndim(u) else float(values)


def fit_edf(sample) -> EmpiricalDistribution:
    return EmpiricalDistribution(sorted_values=np.asarray(sample, dtype=float))
