"""Sample central moments, joint cumulants, and normalized cumulants.

All estimators operate on finite realizations of (possibly multi-channel)
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
    """A finite realization of a real, possibly multi-channel series.

    `values` has shape (N, r): N time steps by r channels.  A 1-D array is
    accepted and treated as a single channel.
    """

    values: np.ndarray
    labels: tuple = ()

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.ndim != 2 or vals.shape[0] < 1 or vals.shape[1] < 1:
            raise ValueError("values must be a nonempty (N, r) array")
        if not np.all(np.isfinite(vals)):
            raise ValueError("series contains non-finite values")
        object.__setattr__(self, "values", vals)
        if not self.labels:
            labels = tuple(f"ch{i}" for i in range(vals.shape[1]))
            object.__setattr__(self, "labels", labels)
        elif len(self.labels) != vals.shape[1]:
            raise ValueError("labels length does not match channel count")

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]

    def channel(self, a: int = 0) -> np.ndarray:
        return self.values[:, a]

    def centered(self, a: int = 0) -> np.ndarray:
        x = self.channel(a)
        return x - x.mean()


def _check_lags(lags) -> tuple:
    taus = tuple(int(t) for t in lags)
    if len(taus) not in (1, 2, 3):
        raise OrderError(f"lag vector length {len(taus)} not in {{1, 2, 3}}")
    return taus


def central_moment_estimate(series: TimeSeries, lags, channels=None) -> float:
    """Mean-centered product estimate of the order-s cumulant, s in {2, 3}.

    `lags` holds tau_1..tau_{s-1}; the final lag is implicitly zero.  The
    estimate is (1/N) sum_t prod_j (x_{t-alpha+tau_j} - xbar), and exactly 0
    whenever the sum is empty (any lag magnitude >= N).
    """
    taus = _check_lags(lags) + (0,)
    s = len(taus)
    if s not in (2, 3):
        raise OrderError(f"central-moment estimator supports orders 2-3, got {s}")
    if channels is None:
        channels = (0,) * s
    if len(channels) != s:
        raise ValueError("channels must have one entry per order")
    N = series.n
    alpha = min(taus)
    gamma = max(taus) - alpha
    n_terms = N - gamma
    if n_terms < 1:
        return 0.0
    prod = np.ones(n_terms)
    # multiply in sorted lag order so the symmetry relations hold bit-exactly
    for tau, a in sorted(zip(taus, channels)):
        y = series.centered(a)
        off = tau - alpha
        prod = prod * y[off:off + n_terms]
    return float(prod.sum() / N)


def _block_moment(series: TimeSeries, taus, channels, block) -> float:
    """Raw product moment of one partition block, normalized by its summand count."""
    N = series.n
    tvals = [taus[i] for i in block]
    lo, hi = min(tvals), max(tvals)
    count = N - hi + lo
    if count < 1:
        return 0.0
    prod = np.ones(count)
    for i in block:
        x = series.channel(channels[i])
        off = taus[i] - lo
        prod = prod * x[off:off + count]
    return float(prod.sum() / count)


def joint_cumulant_estimate(series: TimeSeries, lags, channels=None) -> float:
    """Partition-sum estimate of the order-s joint cumulant, s in {2, 3, 4}.

    Sums (-1)^(p-1) (p-1)! times the product of per-block raw moments over
    every set partition of the s lag positions {0, tau_1, ..., tau_{s-1}}.
    Repeated lag values stay distinct elements (positions, not values).
    """
    taus = _check_lags(lags) + (0,)
    s = len(taus)
    if s > 4:
        raise OrderError(f"partition estimator supports orders up to 4, got {s}")
    if channels is None:
        channels = (0,) * s
    if len(channels) != s:
        raise ValueError("channels must have one entry per order")
    total = 0.0
    for part in _PARTITIONS[s]:
        p = len(part)
        term = (-1) ** (p - 1) * math.factorial(p - 1)
        for block in part:
            term *= _block_moment(series, taus, channels, block)
            if term == 0.0:
                break
        total += term
    return total


def normalized_cumulant(series: TimeSeries, lags, channels=None) -> float:
    """Scale-free cumulant rho(tau) = C(tau) / prod_i C_{a_i}(0)^{1/2}."""
    taus = _check_lags(lags)
    s = len(taus) + 1
    if s not in (2, 3):
        raise OrderError(f"normalized cumulant supports orders 2-3, got {s}")
    if channels is None:
        channels = (0,) * s
    denom = 1.0
    for a in channels:
        var = central_moment_estimate(series, (0,), (a, a))
        if var <= 0.0:
            raise DegenerateSeriesError(f"channel {a} has zero variance")
        denom *= var
    num = central_moment_estimate(series, taus, channels)
    return num / math.sqrt(denom)
