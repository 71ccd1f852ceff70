"""Smoothed lag-window estimates of the spectrum and bispectrum.

Every estimate is one exact frequency sum over the lags of the window's plan
at (M, N): the lags of its support box (`support_radius * M`, capped at
N - 1) where it is nonzero, with the weights there, memoized on the window.
A third-order sample cumulant is computed once per orbit of the six cumulant
symmetries, by one kernel, into one sorted store of orbit codes and values;
the frequency sums, the plug-in pilots and both selection rules read it
through one lookup, many lags at once.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cumulants import TimeSeries
from .exceptions import DegenerateSeriesError
from .windows import LagWindow, evaluate_blockwise

__all__ = [
    "SpectralEstimate",
    "BispectrumLagCache",
    "canonical_frequency",
    "canonical_lag",
    "autocumulants",
    "estimate_spectrum",
    "estimate_bispectrum",
    "estimate_bispectrum_partial",
    "bispectrum_curvature",
]

_TWO_PI = 2.0 * math.pi


def canonical_frequency(w: float) -> float:
    """Reduce a frequency to [-pi, pi); keeps integer-lag sums exactly periodic."""
    return float((w + math.pi) % _TWO_PI - math.pi)


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


# a lag pair (a, b) with |a|, |b| < _CODE_OFFSET is the int64
# (a + offset) * 2^32 + (b + offset), so codes order as the tuples do
_CODE_OFFSET = 1 << 30


def _encode(a, b):
    code = a + _CODE_OFFSET
    code <<= 32
    code += b
    code += _CODE_OFFSET
    return code


def _decode(codes):
    return (codes >> 32) - _CODE_OFFSET, (codes & 0xFFFFFFFF) - _CODE_OFFSET


# lag pairs per block in `_orbit_codes`
_CODE_BLOCK = 4096


def _orbit_codes(T1, T2) -> np.ndarray:
    """`canonical_lag` of each pair (T1[i], T2[i]) of the 1-D arrays, encoded
    as an int64, for |lags| < 2^29 (a representative's coordinates are then
    below `_CODE_OFFSET`); computed a block of lags at a time."""
    codes = np.empty(len(T1), np.int64)
    for i in range(0, codes.size, _CODE_BLOCK):
        x = np.asarray(T1[i:i + _CODE_BLOCK], np.int64)
        y = np.asarray(T2[i:i + _CODE_BLOCK], np.int64)
        lo = np.minimum(np.minimum(x, y), 0)
        hi = np.maximum(np.maximum(x, y), 0)
        mid = x + y
        mid -= lo
        mid -= hi  # the middle of {0, x, y}
        codes[i:i + _CODE_BLOCK] = _encode(hi - lo, mid - lo)
    return codes


# bytes of the y_b rows, the one factor gathered, in a chunk of
# `BispectrumLagCache._compute_orbits`.  Of 128, 256, 512 and 1000 KB, 512 KB
# was fastest on the orbits of the order-3 selection rule at its cap on iid
# series at N = 2000, and tied with 256 KB at N = 400.
_ROW_CHUNK_BYTES = 512_000


@dataclass
class SpectralEstimate:
    """A single spectral value with the metadata that produced it.

    `lag_cap` is the largest |lag| coordinate summed and `n_lags` the number
    of lag terms in the sum.
    """

    value: complex
    omega: tuple
    M: float
    window: str
    order: int
    n: int
    truncated_negative: bool = False
    lag_cap: int | None = None
    n_lags: int | None = None
    imag_discarded: float = 0.0


class BispectrumLagCache:
    """Third-order sample cumulants of one series, one value per orbit of six
    lag pairs under the cumulant symmetries.

    One kernel, `_compute_orbits`, computes every value, each orbit once per
    cache, into one store: sorted arrays of integer orbit codes and their
    values.  `cumulants`, the one lookup, reads a whole array of lags there.
    """

    def __init__(self, series: TimeSeries):
        self.series = series
        self._y = series.centered()
        self._codes = np.empty(0, np.int64)
        self._values = np.empty(0)

    def rho_denominator(self) -> float:
        """C(0)^(3/2), the scale of the normalized third-order cumulant."""
        var = float(np.dot(self._y, self._y) / self.series.n)
        if var <= 0.0:
            raise DegenerateSeriesError("series has zero variance")
        return math.sqrt((var * var) * var)

    def cumulants(self, T1, T2) -> np.ndarray:
        """The cumulant at each lag pair (T1[i], T2[i]) of the 1-D arrays, as
        a float array, in one batched pass: the distinct orbits are looked up
        in the sorted store, and those not seen by an earlier call are
        computed once each, in runs of equal t1 (`_compute_orbits`), and
        inserted in one step."""
        codes, inverse = np.unique(_orbit_codes(T1, T2), return_inverse=True)
        known = self._codes
        pos = np.searchsorted(known, codes)
        new = codes
        if known.size:
            fresh = known[pos.clip(max=known.size - 1)] != codes
            pos, new = pos[fresh], codes[fresh]
        if new.size:
            # both sorted and disjoint: inserting keeps the codes sorted
            vals = self._compute_orbits(new)
            self._values = np.insert(self._values, pos, vals)
            self._codes = np.insert(known, pos, new)
        return self._values[np.searchsorted(self._codes, codes)][inverse]

    def _compute_orbits(self, codes) -> np.ndarray:
        """The sample cumulant at the representative (t1, t2) of each code,
        for codes in ascending order: the sum over i of y[i] y[i + t1]
        y[i + t2] / N.  A representative has t1 >= t2 >= 0, so it sums the
        n = N - t1 terms of (y[t1:] * y[t2:t2 + n]) * y[:n].  The orbits of
        one t1 are a run of the codes and share y[t1:] and y[:n]; only their
        y[t2:t2 + n] rows are gathered, a chunk at a time."""
        y, N = self._y, self.series.n
        t1, t2 = _decode(codes)
        # row s of `windows` is y[s:s + N], zero past the end of the series
        windows = sliding_window_view(np.concatenate([y, np.zeros(N - 1)]), N)
        sums = np.zeros(codes.size)
        edges = (np.flatnonzero(np.diff(t1)) + 1).tolist()
        for lo, hi in zip([0, *edges], [*edges, codes.size]):
            n = N - int(t1[lo])
            if n < 1:
                break  # so do the orbits after it
            rows = windows[:, :n]
            step = max(1, _ROW_CHUNK_BYTES // (8 * n))
            for i in range(lo, hi, step):
                j = min(i + step, hi)
                prod = rows[t2[i:j]]
                prod *= y[N - n:]  # y_b * y_a, which equals y_a * y_b
                prod *= y[:n]
                prod.sum(axis=1, out=sums[i:j])
        sums /= N
        return sums


def autocumulants(series: TimeSeries, taus) -> np.ndarray:
    """Second-order mean-centered sample cumulants at each lag in `taus`."""
    y = series.centered()
    N = series.n
    out = np.zeros(len(taus))
    for i, tau in enumerate(taus):
        tau = int(tau)
        alpha = min(0, tau)
        gamma = max(0, tau) - alpha
        n_terms = N - gamma
        if n_terms < 1:
            continue
        out[i] = np.dot(y[tau - alpha:tau - alpha + n_terms],
                        y[-alpha:-alpha + n_terms]) / N
    return out


# lag points per block of tau1 rows in `_box_blocks`
_LAG_BLOCK = 1 << 16


def _box_blocks(L: int, N: int, order: int):
    """The lags of the box [-L, L]^(order - 1) in lexicographic order, as
    one coordinate array per lag axis, a block of tau1 rows at a time; at
    order 3, only those with |t1 - t2| < N."""
    ax = np.arange(-L, L + 1)
    if order == 2:
        yield (ax,)
        return
    rows = max(1, _LAG_BLOCK // ax.size)
    for i in range(0, ax.size, rows):
        T1 = np.repeat(ax[i:i + rows], ax.size)
        T2 = np.tile(ax, T1.size // ax.size)
        inside = np.abs(T1 - T2) < N
        yield T1[inside], T2[inside]


def _lag_plan(window: LagWindow, M: float, N: int):
    """The plan of `window` at (M, N), memoized on the window: the lags of the
    box [-L, L]^(s-1), L = min(ceil(support_radius * M), N - 1), where the
    window is nonzero and a sample cumulant of a length-N series can be, one
    coordinate array per lag axis; the weights there; and L.

    A third-order sample cumulant at (t1, t2) sums N - max(|t1|, |t2|,
    |t1 - t2|) products, so at order 3 only lags with |t1 - t2| < N are kept;
    the window is evaluated on those alone.  The box is never held whole.
    """
    key = (float(M), int(N))
    plan = window._memo.get(key)
    if plan is not None:
        return plan
    R = window.support_radius
    L = N - 1 if R is None else min(int(math.ceil(R * M)), N - 1)
    parts = [[] for _ in range(window.order)]
    for lags in _box_blocks(L, N, window.order):
        w = evaluate_blockwise(window.fn, *(t / M for t in lags))
        mask = w != 0.0
        for part, values in zip(parts, (*lags, w)):
            part.append(values[mask])
    result = []
    for part in parts:
        # free each array's blocks once it is joined, so that the blocks and
        # the result overlap by one array at most
        result.append(np.concatenate(part))
        part.clear()
    plan = window._memo[key] = (tuple(result[:-1]), result[-1], L)
    return plan


def _lag_terms(series, window, M, order, cache=None):
    """The lags of the plan of an order-`order` window at (M, N), the weights
    and the sample cumulants there, and the lag cap: every factor of an
    estimate that does not depend on the frequency.  At order 3 the
    cumulants come from one `cache.cumulants` lookup over all the plan's
    lags (a fresh cache when none is passed)."""
    if M <= 0:
        raise ValueError("bandwidth M must be positive")
    if window.order != order:
        raise ValueError(f"expected an order-{order} window, got {window.name}")
    lags, w, L = _lag_plan(window, M, series.n)
    if order == 2:
        return lags, w, autocumulants(series, lags[0]), L
    if not window.symmetric:
        warnings.warn(f"window {window.name} does not satisfy the cumulant symmetries",
                      stacklevel=3)
    if cache is None:
        cache = BispectrumLagCache(series)
    return lags, w, cache.cumulants(*lags), L


def _frequency_sum(lags, terms, omega):
    """The sum over the lags tau of terms * exp(-i tau . omega) / (2pi)^(s-1),
    with each coordinate of omega reduced by `canonical_frequency`; returns
    the sum and the reduced omega."""
    omega = tuple(canonical_frequency(w) for w in omega)
    arg = sum((T * w for T, w in zip(lags[1:], omega[1:])), lags[0] * omega[0])
    return complex((terms * np.exp(-1j * arg)).sum() / _TWO_PI ** len(lags)), omega


def estimate_spectrum(series: TimeSeries, window: LagWindow, M: float, omega: float,
                      truncate=True) -> SpectralEstimate:
    """Second-order smoothed periodogram at a single frequency.

    Returns the real part; when truncation is enabled (default) a negative
    estimate is clamped to zero and flagged.
    """
    lags, w, C, L = _lag_terms(series, window, M, 2)
    val, omega_c = _frequency_sum(lags, w * C, (omega,))
    flagged = bool(truncate) and val.real < 0.0
    value = 0.0 if flagged else val.real
    return SpectralEstimate(
        value=value, omega=omega_c, M=float(M), window=window.name,
        order=2, n=series.n, truncated_negative=flagged, lag_cap=L,
        n_lags=w.size, imag_discarded=val.imag,
    )


def estimate_bispectrum(series: TimeSeries, window: LagWindow, M: float, omega,
                        cache=None) -> SpectralEstimate:
    """Third-order smoothed periodogram at omega = (omega1, omega2)."""
    lags, w, C, L = _lag_terms(series, window, M, 3, cache)
    val, omega_c = _frequency_sum(lags, w * C, omega)
    return SpectralEstimate(
        value=val, omega=omega_c, M=float(M), window=window.name,
        order=3, n=series.n, lag_cap=L, n_lags=w.size,
    )


def estimate_bispectrum_partial(series: TimeSeries, window: LagWindow, M: float, omega,
                                i: int, j: int, cache=None) -> complex:
    """Second partial derivative d^2 fhat / d omega_i d omega_j.

    Differentiating exp(-i tau.omega) twice brings down (-i tau_i)(-i tau_j)
    = -tau_i tau_j, hence the leading minus sign.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("derivative indices must be 1 or 2")
    lags, w, C, _ = _lag_terms(series, window, M, 3, cache)
    return _frequency_sum(lags, -lags[i - 1] * lags[j - 1] * w * C, omega)[0]


def _curvature_terms(T1, T2, w, C):
    """The frequency-free factor of each lag's term in the curvature sum."""
    return -(T1 * T1 - T1 * T2 + T2 * T2) * w * C


def bispectrum_curvature(series: TimeSeries, window: LagWindow, M: float, omega,
                         cache=None) -> complex:
    """(d^2/dw1^2 - d^2/dw1 dw2 + d^2/dw2^2) fhat, in a single lag pass."""
    lags, w, C, _ = _lag_terms(series, window, M, 3, cache)
    return _frequency_sum(lags, _curvature_terms(*lags, w, C), omega)[0]
