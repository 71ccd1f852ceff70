"""Smoothed lag-window estimates of the spectrum and bispectrum.

Everything is direct summation over lags: the bandwidths in play are small,
so the window's support box (`support_radius * M`, capped at N - 1) limits
the work, and the estimates are exact sums.  Sample cumulants are computed
once per lag into a symmetry-folded cache.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .cumulants import TimeSeries
from .exceptions import DegenerateSeriesError
from .windows import SYMMETRY_MAPS, LagWindow, apply_symmetry

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
    """Deterministic representative of the 6-element symmetry orbit of a lag pair."""
    best = (t1, t2)
    for m in SYMMETRY_MAPS[1:]:
        img = apply_symmetry(m, t1, t2)
        if img > best:
            best = img
    return best


@dataclass
class SpectralEstimate:
    """A single spectral value with the metadata that produced it."""

    value: complex
    omega: tuple
    M: float
    window: str
    order: int
    n: int
    truncated_negative: bool = False
    lag_cap: int | None = None
    imag_discarded: float = 0.0


class BispectrumLagCache:
    """Third-order sample cumulants of one series, keyed by their canonical
    symmetry lag, so each orbit of six lag pairs is computed once."""

    def __init__(self, series: TimeSeries):
        self.series = series
        self._y = series.centered()
        self._vals: dict = {}

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

    def cumulant(self, t1: int, t2: int) -> float:
        key = canonical_lag(int(t1), int(t2))
        val = self._vals.get(key)
        if val is None:
            val = self._compute(*key)
            self._vals[key] = val
        return val

    def cumulants(self, T1, T2) -> np.ndarray:
        T1 = np.asarray(T1).ravel()
        T2 = np.asarray(T2).ravel()
        return np.array([self.cumulant(a, b) for a, b in zip(T1, T2)])


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


# weights depend only on (window, M, lag cap), not on the data
_WEIGHT_CACHE: dict = {}


def _lag_weights(window: LagWindow, M: float, L: int):
    """The lags in [-L, L]^(s-1) where the window is nonzero, one coordinate
    array per lag axis, followed by the weights there."""
    key = (window.key(), float(M), int(L))
    hit = _WEIGHT_CACHE.get(key)
    if hit is not None:
        return hit
    ax = np.arange(-L, L + 1)
    if window.order == 2:
        lags = [ax]
    else:
        lags = [T.ravel() for T in np.meshgrid(ax, ax, indexing="ij")]
    w = np.asarray(window.fn(*(t / M for t in lags)), float).ravel()
    mask = w != 0.0
    result = (*(t[mask] for t in lags), w[mask])
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
    taus, w = _lag_weights(window, M, L)
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
        imag_discarded=val.imag,
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
    T1, T2, w = _lag_weights(window, M, L)
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
        order=3, n=N, lag_cap=L,
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
