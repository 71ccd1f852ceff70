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
    "autocumulants",
    "canonical_lag",
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


def canonical_lag(t1: int, t2: int):
    """Representative of the orbit of a lag pair under the six third-order
    cumulant symmetries: (max - min, mid - min) of {0, t1, t2}, the image
    with t1 >= t2 >= 0 and the largest of the six in tuple order."""
    if t1 < t2:
        t1, t2 = t2, t1
    if t2 >= 0:
        return t1, t2
    if t1 <= 0:
        return -t2, t1 - t2
    return t1 - t2, -t2


def _lagged_sum(y, a: int, b: int | None = None):
    """The sample cumulant along the last axis, of length N, of centered
    values `y` at a lag reduced to a >= b >= 0, a < N: the n = N - a terms
    of y[:n] * y[a:] at order 2 (b None), or of (y[b:b + n] * y[a:]) * y[:n]
    at order 3, summed, over N.  A row of a 2-D `y` gets the bits of that
    row alone, and the symmetry relations hold bit-exactly."""
    N, n = y.shape[-1], y.shape[-1] - a
    # a copy multiplied in place: on the rows of a 2-D `y`, faster than the
    # product of two slices
    prod = y[..., :n].copy() if b is None else y[..., b:b + n].copy()
    prod *= y[..., a:]
    if b is not None:
        prod *= y[..., :n]
    return prod.sum(axis=-1) / N


def central_moment_estimate(series: TimeSeries, lags) -> float:
    """Mean-centered product estimate of the order-s cumulant, s in {2, 3}.

    `lags` holds tau_1..tau_{s-1}; the final lag is implicitly zero.  The
    estimate is (1/N) sum_t prod_j (x_{t-alpha+tau_j} - xbar), and exactly 0
    whenever the sum is empty (any lag magnitude >= N): `_lagged_sum` at the
    lags reduced to |tau| at order 2 and `canonical_lag` at order 3.
    """
    return _central_moment(series.centered(), _check_lags(lags))


def _central_moment(y, taus) -> float:
    """`central_moment_estimate` on centered values `y` at checked lags."""
    if len(taus) > 2:
        raise OrderError(f"central-moment estimator supports orders 2-3, got {len(taus) + 1}")
    a, b = canonical_lag(*taus) if len(taus) == 2 else (abs(taus[0]), None)
    return float(_lagged_sum(y, a, b)) if a < y.shape[-1] else 0.0


def autocumulants(series: TimeSeries, taus) -> np.ndarray:
    """Second-order sample cumulants at each lag in `taus`, bit for bit those
    of `central_moment_estimate`, and 0 where |tau| >= N: one `_lagged_sum`
    per distinct |tau|, so tau and -tau cost one sum."""
    y, N = series.centered(), series.n
    distinct, inverse = np.unique(np.abs(np.asarray(taus, np.int64)), return_inverse=True)
    sums = np.zeros(distinct.size)
    for i, t in enumerate(distinct.tolist()):
        if t < N:
            sums[i] = _lagged_sum(y, t)
    return sums[inverse]


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
    """Scale-free cumulant rho(tau) = C(tau) / C(0)^{s/2}, s in {2, 3}: both
    `central_moment_estimate`s on one centered copy of the series."""
    taus, y = _check_lags(lags), series.centered()
    return _central_moment(y, taus) / _rho_scale(_central_moment(y, (0,)), len(taus) + 1)


def _rho_scale(var, s: int):
    """C(0)^(s/2) from C(0) = `var`: sqrt(var * var) or sqrt((var * var) *
    var), not var ** (s/2), which can differ in the last bit.  Elementwise on
    an array, whose caller checks it; a scalar that is 0 or not finite (zero
    variance, or a power of C(0) that over- or underflows) raises."""
    power = var * var if s == 2 else (var * var) * var
    if isinstance(power, np.ndarray):
        return np.sqrt(power)
    if not 0.0 < power < math.inf:  # sqrt is 0 or inf exactly where power is
        raise DegenerateSeriesError(f"C(0)^(s/2) is {float(power)!r}: zero variance or "
                                    "a scale that over- or underflows")
    return math.sqrt(power)
