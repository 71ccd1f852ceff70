"""Smoothed lag-window estimates of the spectrum and bispectrum.

Every estimate is one exact frequency sum over the lags of the window's plan
at (M, N), the lags of its support box (`support_radius * M`, capped at
N - 1) where it is nonzero, with the weights there, memoized on the window.
An estimator reads its lag terms once for all the frequencies it is given.
A third-order sample cumulant is computed once per orbit of the six cumulant
symmetries into one store, the rows a < A of a packed triangle indexed by
the representative (a, b), a >= b >= 0; order-3 plans are laid out on it,
and the selection rules read it through one lookup, many lags at once.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cumulants import TimeSeries, autocumulants, canonical_lag
from .windows import SYMMETRY_MAPS, LagWindow, apply_symmetry, evaluate_blockwise

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

# points per block of rows of a in `_frequency_sum`
_LAG_BLOCK = 1 << 16
# lags or orbits per block in `_orbit_index` and plans: int64
# temporaries of 64 KB stay below glibc's mmap threshold, so no block faults
# in fresh pages (the index of 42,841 lags: 235-290 us, 260-620 at 1 << 16)
_INDEX_BLOCK = 8192
_PLAN_MEMO = 8  # plans kept per window, the least recently used dropped first


def canonical_frequency(w: float) -> float:
    """Reduce a frequency to [-pi, pi); keeps integer-lag sums exactly periodic."""
    return float((w + math.pi) % _TWO_PI - math.pi)


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


def _row_orbits(A0: int, A: int):
    """The representatives (a, b) of the orbits of rows A0 <= a < A of the
    triangle, in packed order: the inverse of `_orbit_index` on them."""
    a = np.repeat(np.arange(A0, A), np.arange(A0 + 1, A + 1))
    return a, np.arange(a.size) - (a * (a + 1) - A0 * (A0 + 1)) // 2


# bytes of a tile's products of one row in `BispectrumLagCache._compute_rows`,
# a tile of T = _ROW_CHUNK_BYTES // 8N rows: of T = 16 to 96, 32 to 64 were
# fastest on the rows the order-3 rule reads at its cap on iid series, N = 2000
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

    The store is the rows a < A computed so far of a packed lower triangle
    of float64, the orbit of representative (a, b), a >= b >= 0, at a(a +
    1)/2 + b, then one 0.0 that every orbit with a >= N reads.  `triangle`
    computes the rows it lacks in one call of `_compute_rows`, so each row
    once per cache; `cumulants` reads a whole array of lags through it."""

    def __init__(self, series: TimeSeries):
        self.series = series
        self._y = series.centered()
        self._table = np.zeros(1)

    def cumulants(self, T1, T2) -> np.ndarray:
        """The cumulant at each lag pair (T1[i], T2[i]) of the 1-D arrays, as
        a float array: the rows up to the largest a asked, then one gather
        from the store, index -1 (a >= N) reading its trailing 0.0."""
        index = _orbit_index(T1, T2, self.series.n)
        last = int(index.max(initial=-1))
        self.triangle((math.isqrt(8 * last + 1) + 1) // 2 if last >= 0 else 0)
        return self._table[index]

    def triangle(self, A: int) -> np.ndarray:
        """The cumulants of the orbits a < A <= N in packed order, a view of
        the store, computing the rows it lacks first."""
        size = A * (A + 1) // 2
        table = self._table
        if size >= table.size:
            A0 = (math.isqrt(8 * table.size - 7) - 1) // 2  # the rows computed
            self._table = table = np.concatenate(
                [table[:-1], self._compute_rows(A0, A), [0.0]])
        return table[:size]

    def _compute_rows(self, A0: int, A: int) -> np.ndarray:
        """The sample cumulants of the orbits of rows A0 <= a < A <= N in
        packed order.  Orbit (a, b) is the sum over i of y[i + b] y[i + a]
        y[i] / N, that is the n = N - a terms of (y[b:b + n] * y[a:]) *
        y[:n].  The products y[j] y[j + d] serve every orbit on the diagonal
        d = a - b, so the rows are cut into tiles of T rows by T columns b:
        the products of a tile's diagonals are formed once, and its orbits of
        one row are a strided view of them, times y[:n], summed by row."""
        y, N = self._y, self.series.n
        T = min(max(1, _ROW_CHUNK_BYTES // (8 * N)), A)
        # row s of `windows` is y[s:s + N - A0 + T - 1], padded past the end
        # of the series; no orbit reads the padding
        windows = sliding_window_view(np.concatenate([y, np.zeros(A - A0 + T)]),
                                      N - A0 + T - 1)
        diag, prod = np.empty(2 * T * (N - A0 + T)), np.empty(T * N)
        sums = np.empty((A - A0) * (A + A0 + 1) // 2)
        first = A0 * (A0 + 1) // 2
        for a0 in range(A0, A, T):
            a1 = min(a0 + T, A)
            for b0 in range(0, a1, T):
                # P[k, m] is y[j] y[j + d] at j = b0 + m, d = d1 - k
                d0, d1, width = max(0, a0 - b0 - T + 1), a1 - 1 - b0, N - a0 + T - 1
                P = diag[:(d1 - d0 + 1) * width].reshape(-1, width)
                np.multiply(windows[b0 + d0:b0 + d1 + 1, :width][::-1],
                            windows[b0, :width], out=P)
                for a in range(max(a0, b0), a1):
                    n, nb = N - a, min(T, a + 1 - b0)
                    # orbit (a, b0 + r) reads P[d1 - a + b0 + r, r:r + n]
                    rows = np.ndarray((nb, n), buffer=diag, offset=8 * width * (d1 - a + b0),
                                      strides=(8 * width + 8, 8))
                    out = prod[:nb * n].reshape(nb, n)
                    np.multiply(rows, y[:n], out=out)
                    k = a * (a + 1) // 2 + b0 - first
                    out.sum(axis=1, out=sums[k:k + nb])
        sums /= N
        return sums


def _lag_plan(window: LagWindow, M: float, N: int):
    """The plan of `window` at (M, N), (lags, weights, L, n_lags), with L =
    min(ceil(support_radius * M), N - 1) the lag cap and n_lags the number of
    lags summed; the window keeps the `_PLAN_MEMO` plans it used last.  A
    weight that is not finite (the scaled lags of a tiny M overflow) raises.

    At order 2 the lags are those of [-L, L] where the window is nonzero.  At
    order 3 the first item is A: the weights lie on the packed triangle of
    orbits (a, b), a < A, of `BispectrumLagCache`, one row per image under
    `SYMMETRY_MAPS` (K = 6; 0 outside the box), or one row, taken at the
    representative, for a window declared `symmetric` (K = 1), whose support
    is then a union of orbits inside the box: A = L + 1, else min(2L + 1, N).
    Each weight is divided by its orbit's multiplicity (6 at (0, 0), 2 at
    (a, 0) and (a, a)), so the six images sum each distinct lag once."""
    plans = window._memo.setdefault("plans", {})
    key = (float(M), int(N))
    plan = plans.pop(key, None)
    if plan is None:
        R = window.support_radius
        # R * M may overflow to inf, and math.ceil of inf raises
        L = N - 1 if R is None or R * M >= N - 1 else math.ceil(R * M)
        # a weight that overflows raises below, so numpy need not warn of it
        with np.errstate(over="ignore", invalid="ignore"):
            if window.order == 2:
                T = np.arange(-L, L + 1)
                w = evaluate_blockwise(window.fn, T / M)
                keep = w != 0.0
                plan = (T[keep], w[keep], L, int(keep.sum()))
            else:
                plan = _orbit_weights(window, M, N, L)
        if not np.isfinite(plan[1]).all():
            raise ValueError(f"window {window.name} has weights that are not finite "
                             f"at bandwidth M = {M!r}")
        if len(plans) >= _PLAN_MEMO:
            del plans[next(iter(plans))]
    plans[key] = plan
    return plan


def _orbit_weights(window, M, N, L):
    """An order-3 plan: A, the (K, A(A + 1)/2) weights, L and n_lags."""
    K = 1 if window.symmetric else 6
    A = L + 1 if K == 1 else min(2 * L + 1, N)
    w, n_lags = np.empty((K, A * (A + 1) // 2)), 0
    step = max(1, _INDEX_BLOCK // A)  # rows per block
    for r0 in range(0, A, step):
        a, b = _row_orbits(r0, min(r0 + step, A))
        lo = r0 * (r0 + 1) // 2
        block = w[:, lo:lo + a.size]
        images = [(a, b)] if K == 1 else [apply_symmetry(m, a, b) for m in SYMMETRY_MAPS]
        for row, (t1, t2) in zip(block, images):
            row[:] = evaluate_blockwise(window.fn, t1 / M, t2 / M)
            row[(np.abs(t1) > L) | (np.abs(t2) > L)] = 0.0
        multiplicity = 1 + (b == 0) + (a == b) + 3 * (a == 0)
        block /= multiplicity
        # an orbit has 6 / multiplicity lags, each an image multiplicity times
        n_lags += int((np.count_nonzero(block, axis=0) * (6 // K) // multiplicity).sum())
    return A, w, L, n_lags


def _lag_terms(series, window, M, order):
    """The plan of an order-`order` window at (M, N) and the sample cumulants
    at its lags, or at order 3 on its triangle, from a fresh store: every
    factor of an estimate free of frequency."""
    if not 0.0 < M < math.inf:
        raise ValueError(f"bandwidth M must be positive and finite, got {M!r}")
    if window.order != order:
        raise ValueError(f"expected an order-{order} window, got {window.name}")
    plan = _lag_plan(window, M, series.n)
    if order == 2:
        return plan, autocumulants(series, plan[0])
    if not window.symmetric:
        warnings.warn(f"window {window.name} is not declared symmetric under the "
                      "cumulant symmetries", stacklevel=3)
    return plan, BispectrumLagCache(series).triangle(plan[0])


# the image m(a, b) of an orbit under the k-th of `SYMMETRY_MAPS` has the
# phase a x + b y, (x, y) = m^T omega, at these indices of (w1, w2, -w1 - w2)
_IMAGE_X = [0, 1, 2, 2, 0, 1]
_IMAGE_Y = [1, 0, 1, 0, 2, 2]


def _frequencies(omega, order):
    """Whether `omega` is one frequency, not a sequence, and its frequencies as tuples."""
    one = np.ndim(omega) == order - 2 and np.size(omega) > 0
    return one, [(w,) if order == 2 else tuple(w) for w in ([omega] if one else omega)]


def _frequency_sum(terms, omegas, lags=None):
    """The sum over the lags tau of terms * exp(-i tau . omega) / (2pi)^(s-1)
    at each frequency omega of `omegas`, a list of tuples, with each
    coordinate reduced by `canonical_frequency`: a list of (sum, reduced
    omega).

    At order 2 the terms are real, at `lags`: one dot product with each of
    cos and sin of tau w.  At order 3 they lie as an order-3 plan's weights.
    Image k of an orbit (a, b) has the phase a x_k + b y_k, so with E_w =
    [cos; sin] of a w, a in [0, A), and a block of rows of the terms in a
    dense lower triangle D, it adds G = E_x D E_y^T, whose sum gives the real
    part G00 - G11 and the imaginary part -(G10 + G01): the indirect method's
    E1 (W o C) E2^T on its principal triangle.  One row of terms serves the
    two images with each x at once, as E_x D (E_y + E_y')^T.

    Each D is filled once and serves every frequency in one stacked product
    per chunk of frequencies, whose (chunk, image, 2, r1) intermediate stays
    within `_LAG_BLOCK` entries.  A stacked matmul makes one product per
    (frequency, image) of the shapes a one-frequency call makes, so each
    sum keeps the bits it has alone.  Order 2 stays one dot product per
    frequency: a stacked (F, L) @ (L,) is a gemv, which sums in another
    order."""
    omegas = [tuple(canonical_frequency(w) for w in omega) for omega in omegas]
    if lags is not None:
        return [(complex(terms @ np.cos(lags * w), -(terms @ np.sin(lags * w))) / _TWO_PI,
                 (w,)) for (w,) in omegas]
    K, size = terms.shape
    A = (math.isqrt(8 * size + 1) - 1) // 2
    a = np.arange(A)
    F = len(omegas)
    w = np.array(omegas, float).reshape(F, 2)
    # E[f, k] = [cos; sin] of a times (w1, w2, -w1 - w2)[k] of frequency f
    E = np.empty((F, 3, 2, A))
    for k, angle in enumerate((w[:, 0], w[:, 1], -w[:, 0] - w[:, 1])):
        ang = np.multiply.outer(angle, a)
        np.cos(ang, out=E[:, k, 0])
        np.sin(ang, out=E[:, k, 1])
    del ang
    if K == 1:
        E_sum = E.sum(axis=1, keepdims=True)
    chunk = max(1, _LAG_BLOCK // ((3 if K == 1 else 6) * 2 * A))
    step = max(1, _LAG_BLOCK // A)
    G = np.zeros((F, 2, 2))
    for r0 in range(0, A, step):
        r1 = min(r0 + step, A)
        D = np.zeros((K, r1 - r0, r1))
        lower = np.greater_equal.outer(a[r0:r1], a[:r1])
        for block, part in zip(D, terms[:, r0 * (r0 + 1) // 2:r1 * (r1 + 1) // 2]):
            block[lower] = part
        for f in range(0, F, chunk):
            e = E[f:f + chunk]
            if K == 1:
                X, Y = e[..., r0:r1], E_sum[f:f + chunk, ..., :r1] - e[..., :r1]
            else:
                X, Y = e[:, _IMAGE_X, :, r0:r1], e[:, _IMAGE_Y, :, :r1]
            G[f:f + chunk] += (X @ D @ Y.swapaxes(-1, -2)).sum(axis=1)
    return [(complex(g[0, 0] - g[1, 1], -(g[1, 0] + g[0, 1])) / _TWO_PI ** 2, omega)
            for g, omega in zip(G, omegas)]


def estimate_spectrum(series: TimeSeries, window: LagWindow, M: float, omega,
                      truncate=True) -> SpectralEstimate | list:
    """Second-order smoothed periodogram at one frequency, or a list of them,
    one per frequency of a sequence `omega`, from one pass over the lags.

    Returns the real part; when truncation is enabled (default) a negative
    estimate is clamped to zero and flagged.
    """
    one, points = _frequencies(omega, 2)
    (lags, w, L, n_lags), C = _lag_terms(series, window, M, 2)
    estimates = []
    for val, omega_c in _frequency_sum(w * C, points, lags):
        flagged = bool(truncate) and val.real < 0.0
        estimates.append(SpectralEstimate(
            value=0.0 if flagged else val.real, omega=omega_c, M=float(M),
            window=window.name, order=2, n=series.n, truncated_negative=flagged,
            lag_cap=L, n_lags=n_lags, imag_discarded=val.imag))
    return estimates[0] if one else estimates


def estimate_bispectrum(series: TimeSeries, window: LagWindow, M: float,
                        omega) -> SpectralEstimate | list:
    """Third-order smoothed periodogram at omega = (omega1, omega2), or a
    list of them, one per pair of a sequence `omega`, from one pass over the
    lags."""
    one, points = _frequencies(omega, 3)
    (_, w, L, n_lags), C = _lag_terms(series, window, M, 3)
    estimates = [SpectralEstimate(value=val, omega=omega_c, M=float(M),
                                  window=window.name, order=3, n=series.n,
                                  lag_cap=L, n_lags=n_lags)
                 for val, omega_c in _frequency_sum(w * C, points)]
    return estimates[0] if one else estimates


def estimate_bispectrum_partial(series: TimeSeries, window: LagWindow, M: float, omega,
                                i: int, j: int) -> complex:
    """Second partial derivative d^2 fhat / d omega_i d omega_j.

    Differentiating exp(-i tau.omega) twice brings down (-i tau_i)(-i tau_j)
    = -tau_i tau_j, hence the leading minus sign; a factor per image.
    """
    if i not in (1, 2) or j not in (1, 2):
        raise ValueError("derivative indices must be 1 or 2")
    (A, w, _, _), C = _lag_terms(series, window, M, 3)
    a, b = _row_orbits(0, A)
    tau = np.array([apply_symmetry(m, a, b) for m in SYMMETRY_MAPS])  # (6, 2, size)
    return _frequency_sum(-tau[:, i - 1] * tau[:, j - 1] * w * C, [omega])[0][0]


def bispectrum_curvature(series: TimeSeries, window: LagWindow, M: float,
                         omega) -> complex | list:
    """(d^2/dw1^2 - d^2/dw1 dw2 + d^2/dw2^2) fhat at omega = (omega1, omega2),
    or a list of them, one per pair of a sequence `omega`, from one pass over
    the lags.  The factor -(t1^2 - t1 t2 + t2^2) of a term is -(a^2 - ab +
    b^2) at every image of an orbit (a, b)."""
    one, points = _frequencies(omega, 3)
    (A, w, _, _), C = _lag_terms(series, window, M, 3)
    a, b = _row_orbits(0, A)
    sums = [val for val, _ in _frequency_sum(-(a * a - a * b + b * b) * w * C, points)]
    return sums[0] if one else sums
