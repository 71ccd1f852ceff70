"""Smoothed lag-window estimates of the spectrum and bispectrum.

Every estimate is one exact frequency sum over the lags of the window's plan
at (M, N): the lags of its support box (`support_radius * M`, capped at
N - 1) where it is nonzero, with the weights there, memoized on the window.
A third-order sample cumulant is computed once per orbit of the six cumulant
symmetries, by one kernel, into one store, a packed lower triangle indexed by
the orbit's representative; the frequency sums, the plug-in pilots and both
selection rules read it through one lookup, many lags at once.
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

# lag points per block of tau1 rows in `_box_blocks` and `_frequency_sum`
_LAG_BLOCK = 1 << 16
# lags per block in `_orbit_index`: its int64 temporaries, 64 KB each, stay
# below glibc's default mmap threshold, so no block faults in fresh pages.  At
# 1 << 16 the index of 42,841 lags took 260-620 us by allocator state; at 8192
# 235-290 us.
_INDEX_BLOCK = 8192


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


def _orbit_index(T1, T2, N: int) -> np.ndarray:
    """The packed index a(a + 1)/2 + b of the representative (a, b) =
    `canonical_lag` of each pair (T1[i], T2[i]) of the 1-D arrays, or -1
    where a >= N, for |lags| < 2^30; computed a block of lags at a time."""
    index = np.empty(len(T1), np.int64)
    for i in range(0, index.size, _INDEX_BLOCK):
        x = np.asarray(T1[i:i + _INDEX_BLOCK], np.int64)
        y = np.asarray(T2[i:i + _INDEX_BLOCK], np.int64)
        lo = np.minimum(x, y)
        np.minimum(lo, 0, out=lo)
        a = np.maximum(x, y)
        np.maximum(a, 0, out=a)
        b = x + y
        b -= a
        b -= lo
        b -= lo  # the middle of {0, x, y}, less the smallest
        a -= lo
        k = index[i:i + _INDEX_BLOCK]
        np.add(a, 1, out=k)
        k *= a
        k >>= 1
        k += b
        k[a >= N] = -1
    return index


def _orbit_lags(index):
    """The representative (a, b) at each packed index: the inverse of
    `_orbit_index` where a < N."""
    a = ((np.sqrt(8.0 * index + 1.0) - 1.0) // 2.0).astype(np.int64)
    # the float root may be one off for large indices
    a -= a * (a + 1) // 2 > index
    a += (a + 1) * (a + 2) // 2 <= index
    return a, index - a * (a + 1) // 2


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
    cache, into one store: a packed lower triangle of float64 with the orbit
    of representative (a, b), a >= b >= 0, at a(a + 1)/2 + b, grown by rows
    and NaN where not yet computed, then one trailing 0.0, the cumulant of
    every orbit with a >= N.  `cumulants`, the one lookup, reads a whole
    array of lags there.
    """

    def __init__(self, series: TimeSeries):
        self.series = series
        self._y = series.centered()
        self._table = np.zeros(1)

    def rho_denominator(self) -> float:
        """C(0)^(3/2), the scale of the normalized third-order cumulant."""
        var = float(np.dot(self._y, self._y) / self.series.n)
        if var <= 0.0:
            raise DegenerateSeriesError("series has zero variance")
        return math.sqrt((var * var) * var)

    def cumulants(self, T1, T2) -> np.ndarray:
        """The cumulant at each lag pair (T1[i], T2[i]) of the 1-D arrays, as
        a float array, in one batched pass: the table grows by rows up to the
        largest a < N asked for, and one gather reads every value, index -1
        (a >= N) the trailing 0.0.  The orbits read as NaN, not yet computed,
        are found with a scatter mask over the table, so in (a, b) order,
        computed in one `_compute_orbits` call and gathered again."""
        index = _orbit_index(T1, T2, self.series.n)
        table = self._table
        size = int(index.max(initial=-1)) + 1
        if size >= table.size:
            rows = (math.isqrt(8 * size - 7) - 1) // 2 + 1  # up to that of size - 1
            grown = np.full(rows * (rows + 1) // 2 + 1, np.nan)
            grown[:table.size - 1] = table[:-1]
            grown[-1] = 0.0
            self._table = table = grown
        values = table[index]
        missing = np.isnan(values)
        if missing.any():
            asked = np.zeros(table.size, bool)
            asked[index[missing]] = True
            new = np.flatnonzero(asked)
            table[new] = self._compute_orbits(*_orbit_lags(new))
            table.take(index, out=values)
        return values

    def _compute_orbits(self, t1, t2) -> np.ndarray:
        """The sample cumulant at each representative (t1[i], t2[i]), given in
        (t1, t2) order with N > t1 >= t2 >= 0: the sum over i of y[i] y[i +
        t1] y[i + t2] / N, that is the n = N - t1 terms of (y[t1:] * y[t2:t2 +
        n]) * y[:n].  The orbits of one t1 are a run and share y[t1:] and
        y[:n]; only their y[t2:t2 + n] rows are gathered, a chunk at a time."""
        y, N = self._y, self.series.n
        # row s of `windows` is y[s:s + N], zero past the end of the series
        windows = sliding_window_view(np.concatenate([y, np.zeros(N - 1)]), N)
        sums = np.empty(t1.size)
        edges = (np.flatnonzero(np.diff(t1)) + 1).tolist()
        for lo, hi in zip([0, *edges], [*edges, t1.size]):
            n = N - int(t1[lo])
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

    A window of unbounded support has L = N - 1 at every M.  Its plans that
    keep every lag share one set of lag arrays per N, memoized on the window
    under ("box", N), so a plan at a further M holds only its weights.
    """
    key = (float(M), int(N))
    plan = window._memo.get(key)
    if plan is not None:
        return plan
    R = window.support_radius
    L = N - 1 if R is None else min(int(math.ceil(R * M)), N - 1)
    box = window._memo.get(("box", N))
    if box is None:
        blocks = _box_blocks(L, N, window.order)
    else:
        blocks = (tuple(t[i:i + _LAG_BLOCK] for t in box)
                  for i in range(0, box[0].size, _LAG_BLOCK))
    parts = [[] for _ in range(window.order)]
    whole = True  # every lag of the box kept
    for lags in blocks:
        w = evaluate_blockwise(window.fn, *(t / M for t in lags))
        mask = w != 0.0
        if not mask.all():
            whole = False
            lags, w = [t[mask] for t in lags], w[mask]
        for part, values in zip(parts, (*lags, w)):
            part.append(values)
    if whole and box is not None:
        del parts[:-1]  # the lags are views of the shared ones
    result = []
    for part in parts:
        # free each array's blocks once it is joined, so that the blocks and
        # the result overlap by one array at most
        result.append(np.concatenate(part))
        part.clear()
    w = result.pop()
    if whole and R is None:
        # the first such plan at N stores its lags, and the others read them
        result = window._memo.setdefault(("box", N), tuple(result))
    plan = window._memo[key] = (tuple(result), w, L)
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


def _frequency_sum(lags, terms, omega, L):
    """The sum over the lags tau of terms * exp(-i tau . omega) / (2pi)^(s-1),
    with each coordinate of omega reduced by `canonical_frequency`; returns
    the sum and the reduced omega.

    The terms are real, and the lags lie in [-L, L]^(s-1) in lexicographic
    order, as those of a plan with lag cap L do.  cos and sin of tau w are
    taken once per value of each lag axis, and none per lag.  At order 2,
    where the lags are the axis, the sum is one dot product of the terms with
    each.  At order 3 they are the rows of E_k = [cos_k; sin_k] on [-L, L];
    the terms of each block of tau1 rows (`_LAG_BLOCK` points, as in
    `_box_blocks`) are scattered into a dense (rows x (2L + 1)) array D, and
    the 2 x 2 matrices G = E_1 D E_2^T of the blocks, summed, give the real
    part G00 - G11 and the imaginary part -(G10 + G01): the indirect
    method's E1 (W o C) E2^T, blocked."""
    omega = tuple(canonical_frequency(w) for w in omega)
    if len(lags) == 1:
        arg = lags[0] * omega[0]
        return complex(terms @ np.cos(arg), -(terms @ np.sin(arg))) / _TWO_PI, omega
    width = 2 * L + 1
    ang = np.multiply.outer(omega, np.arange(-L, L + 1))
    E = np.empty((2, 2, width))
    np.cos(ang, out=E[:, 0])
    np.sin(ang, out=E[:, 1])
    T1, T2 = lags
    step = max(1, _LAG_BLOCK // width)
    starts = range(-L, L + 1, step)
    cuts = np.searchsorted(T1, starts[1:]).tolist()
    G = np.zeros((2, 2))
    for r0, lo, hi in zip(starts, [0, *cuts], [*cuts, T1.size]):
        rows = min(step, L + 1 - r0)
        D = np.zeros((rows, width))
        at = T1[lo:hi] * width
        at += T2[lo:hi]
        at += L - r0 * width  # (t1 - r0, t2 + L) in D
        D.ravel()[at] = terms[lo:hi]
        G += E[0][:, r0 + L:r0 + L + rows] @ (D @ E[1].T)
    return complex(G[0, 0] - G[1, 1], -(G[1, 0] + G[0, 1])) / _TWO_PI ** 2, omega


def estimate_spectrum(series: TimeSeries, window: LagWindow, M: float, omega: float,
                      truncate=True) -> SpectralEstimate:
    """Second-order smoothed periodogram at a single frequency.

    Returns the real part; when truncation is enabled (default) a negative
    estimate is clamped to zero and flagged.
    """
    lags, w, C, L = _lag_terms(series, window, M, 2)
    val, omega_c = _frequency_sum(lags, w * C, (omega,), L)
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
    val, omega_c = _frequency_sum(lags, w * C, omega, L)
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
    lags, w, C, L = _lag_terms(series, window, M, 3, cache)
    return _frequency_sum(lags, -lags[i - 1] * lags[j - 1] * w * C, omega, L)[0]


def _curvature_terms(T1, T2, w, C):
    """The frequency-free factor of each lag's term in the curvature sum."""
    return -(T1 * T1 - T1 * T2 + T2 * T2) * w * C


def bispectrum_curvature(series: TimeSeries, window: LagWindow, M: float, omega,
                         cache=None) -> complex:
    """(d^2/dw1^2 - d^2/dw1 dw2 + d^2/dw2^2) fhat, in a single lag pass."""
    lags, w, C, L = _lag_terms(series, window, M, 3, cache)
    return _frequency_sum(lags, _curvature_terms(*lags, w, C), omega, L)[0]
