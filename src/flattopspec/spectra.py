"""Smoothed lag-window estimates of the spectrum and bispectrum.

Everything is direct summation over lags: the bandwidths in play are small,
so the window's support box (`support_radius * M`, capped at N - 1) limits
the work, and the estimates are exact sums.  A third-order sample cumulant
is computed once per orbit of the six cumulant symmetries and kept in a dict
keyed by the orbit's representative (`canonical_lag`); the selection rules
ask for many lags at once and get them in one batched pass.
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
    cumulant symmetries: the largest of its images (x, y), (y, x),
    (-x, y - x), (y - x, -x), (x - y, -y), (-y, x - y) in tuple order."""
    return max((t1, t2), (t2, t1), (-t1, t2 - t1), (t2 - t1, -t1),
               (t1 - t2, -t2), (-t2, t1 - t2))


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
    as an int64, for |lags| < 2^29 (every image coordinate is then within
    `_CODE_OFFSET`); computed a block of lags at a time."""
    codes = np.empty(len(T1), np.int64)
    for i in range(0, codes.size, _CODE_BLOCK):
        x = np.asarray(T1[i:i + _CODE_BLOCK], np.int64)
        y = np.asarray(T2[i:i + _CODE_BLOCK], np.int64)
        d = y - x
        block = codes[i:i + _CODE_BLOCK]
        block[:] = _encode(x, y)
        for a, b in ((y, x), (-x, d), (d, -x), (-d, -y), (-y, -d)):
            np.maximum(block, _encode(a, b), out=block)
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

    Two stores serve two access patterns.  `cumulants`, which the frequency
    sums use, looks each lag up in a dict keyed by `canonical_lag`, computing
    a missing orbit with `_compute`.  `cumulant_batch`, which both selection
    rules use, canonicalizes a whole array of lags at once, keeps its orbits
    in sorted arrays of integer codes and values, and computes new orbits by
    runs of equal t1, gathering one factor per orbit.  Each store computes an
    orbit at most once, with the bits of `_compute`.
    """

    def __init__(self, series: TimeSeries):
        self.series = series
        self._y = series.centered()
        self._vals: dict = {}
        self._batch_codes = np.empty(0, np.int64)
        self._batch_vals = np.empty(0)

    def rho_denominator(self) -> float:
        """C(0)^(3/2), the scale of the normalized third-order cumulant."""
        var = float(np.dot(self._y, self._y) / self.series.n)
        if var <= 0.0:
            raise DegenerateSeriesError("series has zero variance")
        return math.sqrt((var * var) * var)

    def _compute(self, t1: int, t2: int) -> float:
        N = self.series.n
        alpha = min(0, t1, t2)
        gamma = max(0, t1, t2) - alpha
        n_terms = N - gamma
        if n_terms < 1:
            return 0.0
        y = self._y
        p = (y[t1 - alpha:t1 - alpha + n_terms]
             * y[t2 - alpha:t2 - alpha + n_terms]
             * y[-alpha:-alpha + n_terms])
        return float(p.sum() / N)

    def cumulants(self, T1, T2) -> np.ndarray:
        """The cumulant at each lag pair (T1[i], T2[i]), as a float array,
        looked up lag by lag in the dict keyed by `canonical_lag`."""
        # plain ints hash and compare faster than numpy scalars
        T1 = np.asarray(T1).ravel().tolist()
        T2 = np.asarray(T2).ravel().tolist()
        vals = self._vals
        get, compute = vals.get, self._compute
        out = []
        append = out.append
        for t1, t2 in zip(T1, T2):
            key = canonical_lag(t1, t2)
            val = get(key)
            if val is None:
                val = vals[key] = compute(*key)
            append(val)
        return np.array(out, float)

    def cumulant_batch(self, T1, T2) -> np.ndarray:
        """`cumulants` at each lag pair (T1[i], T2[i]) in one batched pass:
        the distinct orbits are looked up in the sorted store, and those not
        seen by an earlier batch are computed once each, in runs of equal t1
        (`_compute_orbits`)."""
        codes, inverse = np.unique(_orbit_codes(T1, T2), return_inverse=True)
        known = self._batch_codes
        pos = np.searchsorted(known, codes)
        new = codes
        if known.size:
            fresh = known[pos.clip(max=known.size - 1)] != codes
            pos, new = pos[fresh], codes[fresh]
        if new.size:
            # both sorted and disjoint: inserting keeps the codes sorted
            vals = self._compute_orbits(new)
            self._batch_vals = np.insert(self._batch_vals, pos, vals)
            self._batch_codes = np.insert(known, pos, new)
        return self._batch_vals[np.searchsorted(self._batch_codes, codes)][inverse]

    def _compute_orbits(self, codes) -> np.ndarray:
        """`_compute` at the representative (t1, t2) of each code, for codes
        in ascending order.  A representative has t1 >= t2 >= 0, or its image
        (t2, t1) or (t1 - t2, -t2) would be larger, so it sums the n = N - t1
        terms of (y[t1:] * y[t2:t2 + n]) * y[:n].  The orbits of one t1 are a
        run of the codes and share y[t1:] and y[:n]; only their y[t2:t2 + n]
        rows are gathered, a chunk at a time."""
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


def _lag_cap(window: LagWindow, M: float, N: int) -> int:
    if window.support_radius is None:
        return N - 1
    return min(int(math.ceil(window.support_radius * M)), N - 1)


# weights depend only on (window, M, N), not on the data
_WEIGHT_CACHE: dict = {}


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


def _lag_weights(window: LagWindow, M: float, N: int):
    """The lags in the support box [-L, L]^(s-1), L = `_lag_cap`, where the
    window is nonzero and a sample cumulant of a length-N series can be, one
    coordinate array per lag axis, followed by the weights there.

    A third-order sample cumulant at (t1, t2) sums N - max(|t1|, |t2|,
    |t1 - t2|) products, so at order 3 only lags with |t1 - t2| < N are kept;
    the window is evaluated on those alone.  The box is never held whole.
    """
    key = (window.key(), float(M), int(N))
    hit = _WEIGHT_CACHE.get(key)
    if hit is not None:
        return hit
    parts = [[] for _ in range(window.order)]
    for lags in _box_blocks(_lag_cap(window, M, N), N, window.order):
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
    result = tuple(result)
    if len(_WEIGHT_CACHE) > 256:
        _WEIGHT_CACHE.clear()
    _WEIGHT_CACHE[key] = result
    return result


def estimate_spectrum(series: TimeSeries, window: LagWindow, M: float, omega: float,
                      truncate=True) -> SpectralEstimate:
    """Second-order smoothed periodogram at a single frequency.

    Returns the real part; when truncation is enabled (default) a negative
    estimate is clamped to zero and flagged.
    """
    if M <= 0:
        raise ValueError("bandwidth M must be positive")
    if window.order != 2:
        raise ValueError(f"expected an order-2 window, got {window.name}")
    N = series.n
    L = _lag_cap(window, M, N)
    taus, w = _lag_weights(window, M, N)
    C = autocumulants(series, taus)
    omega_c = canonical_frequency(omega)
    val = complex((w * C * np.exp(-1j * taus * omega_c)).sum() / _TWO_PI)
    value = val.real
    flagged = False
    if truncate and value < 0.0:
        value = 0.0
        flagged = True
    return SpectralEstimate(
        value=value, omega=(omega_c,), M=float(M), window=window.name,
        order=2, n=N, truncated_negative=flagged, lag_cap=L,
        n_lags=taus.size, imag_discarded=val.imag,
    )


def _bispectrum_lags(series, window, M, cache=None):
    """The lags where the window is nonzero, the weights and the sample
    cumulants there, the lag cap and N: every term of the order-3 sums that
    does not depend on the frequency."""
    if M <= 0:
        raise ValueError("bandwidth M must be positive")
    if window.order != 3:
        raise ValueError(f"expected an order-3 window, got {window.name}")
    if not window.symmetric:
        warnings.warn(f"window {window.name} does not satisfy the cumulant symmetries",
                      stacklevel=3)
    if cache is None:
        cache = BispectrumLagCache(series)
    N = series.n
    L = _lag_cap(window, M, N)
    T1, T2, w = _lag_weights(window, M, N)
    return T1, T2, w, cache.cumulants(T1, T2), L, N


def _phase(T1, T2, omega):
    w1 = canonical_frequency(omega[0])
    w2 = canonical_frequency(omega[1])
    return np.exp(-1j * (T1 * w1 + T2 * w2)), (w1, w2)


def estimate_bispectrum(series: TimeSeries, window: LagWindow, M: float, omega,
                        cache=None) -> SpectralEstimate:
    """Third-order smoothed periodogram at omega = (omega1, omega2)."""
    T1, T2, w, C, L, N = _bispectrum_lags(series, window, M, cache)
    phase, om = _phase(T1, T2, omega)
    val = complex((w * C * phase).sum() / _TWO_PI ** 2)
    return SpectralEstimate(
        value=val, omega=om, M=float(M), window=window.name,
        order=3, n=N, lag_cap=L, n_lags=T1.size,
    )


def estimate_bispectrum_partial(series: TimeSeries, window: LagWindow, M: float, omega,
                                i: int, j: int, cache=None) -> complex:
    """Second partial derivative d^2 fhat / d omega_i d omega_j.

    Differentiating exp(-i tau.omega) twice brings down (-i tau_i)(-i tau_j)
    = -tau_i tau_j, hence the leading minus sign.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("derivative indices must be 1 or 2")
    T1, T2, w, C, _, _ = _bispectrum_lags(series, window, M, cache)
    phase, _ = _phase(T1, T2, omega)
    Ti = T1 if i == 1 else T2
    Tj = T1 if j == 1 else T2
    return complex((-Ti * Tj * w * C * phase).sum() / _TWO_PI ** 2)


def _curvature_terms(T1, T2, w, C):
    """The frequency-free factor of each lag's term in the curvature sum."""
    return -(T1 * T1 - T1 * T2 + T2 * T2) * w * C


def _curvature_at(T1, T2, terms, omega) -> complex:
    phase, _ = _phase(T1, T2, omega)
    return complex((terms * phase).sum() / _TWO_PI ** 2)


def bispectrum_curvature(series: TimeSeries, window: LagWindow, M: float, omega,
                         cache=None) -> complex:
    """(d^2/dw1^2 - d^2/dw1 dw2 + d^2/dw2^2) fhat, in a single lag pass."""
    T1, T2, w, C, _, _ = _bispectrum_lags(series, window, M, cache)
    return _curvature_at(T1, T2, _curvature_terms(T1, T2, w, C), omega)
