"""Sample central moments, joint cumulants, and normalized cumulants.

All estimators operate on a finite realization of one real-valued
stationary series.  Orders 2 and 3 use the mean-centered product form,
which for those orders coincides with the joint cumulant; the partition-sum
estimator additionally covers order 4 and serves as a cross-check.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import DegenerateSeriesError, OrderError

__all__ = [
    "TimeSeries",
    "central_moment_estimate",
    "joint_cumulant_estimate",
    "normalized_cumulant",
]


def _set_partitions(items):
    """Yield every set partition of `items` as a tuple of blocks."""
    if len(items) == 1:
        yield (items,)
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i, block in enumerate(part):
            yield part[:i] + ((first,) + block,) + part[i + 1:]
        yield ((first,),) + part


# Fixed tables for set sizes 2..4 (Bell numbers 2, 5, 15).
_PARTITIONS = {s: tuple(_set_partitions(tuple(range(s)))) for s in (2, 3, 4)}


@dataclass(frozen=True)
class TimeSeries:
    """A finite realization of one real-valued series.

    `values` is a 1-D array of N time steps; an (N, 1) column is accepted
    and flattened.  Any other shape is rejected, so every estimator in the
    package sees exactly one series.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 2:
            if vals.shape[1] != 1:
                raise ValueError(f"a series has one channel, got an array with "
                                 f"{vals.shape[1]} columns")
            vals = vals[:, 0]
        if vals.ndim != 1 or vals.shape[0] < 1:
            raise ValueError("values must be a nonempty 1-D array or (N, 1) column")
        if not np.all(np.isfinite(vals)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def centered(self) -> np.ndarray:
        return self.values - self.values.mean()


def _check_lags(lags) -> tuple:
    taus = tuple(int(t) for t in lags)
    if len(taus) not in (1, 2, 3):
        raise OrderError(f"lag vector length {len(taus)} not in {{1, 2, 3}}")
    return taus


def central_moment_estimate(series: TimeSeries, lags) -> float:
    """Mean-centered product estimate of the order-s cumulant, s in {2, 3}.

    `lags` holds tau_1..tau_{s-1}; the final lag is implicitly zero.  The
    estimate is (1/N) sum_t prod_j (x_{t-alpha+tau_j} - xbar), and exactly 0
    whenever the sum is empty (any lag magnitude >= N).
    """
    taus = _check_lags(lags) + (0,)
    s = len(taus)
    if s not in (2, 3):
        raise OrderError(f"central-moment estimator supports orders 2-3, got {s}")
    N = series.n
    alpha = min(taus)
    gamma = max(taus) - alpha
    n_terms = N - gamma
    if n_terms < 1:
        return 0.0
    y = series.centered()
    prod = np.ones(n_terms)
    # multiply in sorted lag order so the symmetry relations hold bit-exactly
    for tau in sorted(taus):
        off = tau - alpha
        prod = prod * y[off:off + n_terms]
    return float(prod.sum() / N)


def _block_moment(series: TimeSeries, taus, block) -> float:
    """Raw product moment of one partition block, normalized by its summand count."""
    N = series.n
    tvals = [taus[i] for i in block]
    lo, hi = min(tvals), max(tvals)
    count = N - hi + lo
    if count < 1:
        return 0.0
    prod = np.ones(count)
    for i in block:
        off = taus[i] - lo
        prod = prod * series.values[off:off + count]
    return float(prod.sum() / count)


def joint_cumulant_estimate(series: TimeSeries, lags) -> float:
    """Partition-sum estimate of the order-s joint cumulant, s in {2, 3, 4}.

    Sums (-1)^(p-1) (p-1)! times the product of per-block raw moments over
    every set partition of the s lag positions {0, tau_1, ..., tau_{s-1}}.
    Repeated lag values stay distinct elements (positions, not values).
    """
    taus = _check_lags(lags) + (0,)
    s = len(taus)
    if s > 4:
        raise OrderError(f"partition estimator supports orders up to 4, got {s}")
    total = 0.0
    for part in _PARTITIONS[s]:
        p = len(part)
        term = (-1) ** (p - 1) * math.factorial(p - 1)
        for block in part:
            term *= _block_moment(series, taus, block)
            if term == 0.0:
                break
        total += term
    return total


def normalized_cumulant(series: TimeSeries, lags) -> float:
    """Scale-free cumulant rho(tau) = C(tau) / C(0)^{s/2}."""
    taus = _check_lags(lags)
    s = len(taus) + 1
    if s not in (2, 3):
        raise OrderError(f"normalized cumulant supports orders 2-3, got {s}")
    var = central_moment_estimate(series, (0,))
    # (var * var) * var, not var ** 3, which can differ in the last bit
    denom = var * var if s == 2 else (var * var) * var
    return central_moment_estimate(series, taus) / _rho_scale(math.sqrt(denom))


def _rho_scale(scale: float) -> float:
    """`scale`, the C(0)^(s/2) that normalizes order-s cumulants, unless it is 0
    or not finite: zero variance, or a power of C(0) that over- or underflows."""
    if not 0.0 < scale < math.inf:
        raise DegenerateSeriesError(f"C(0)^(s/2) is {float(scale)!r}: zero variance or "
                                    "a scale that over- or underflows")
    return scale
