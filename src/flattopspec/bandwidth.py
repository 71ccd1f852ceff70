"""Data-driven bandwidth selection.

Three selectors are provided:

* the general flat-top rule — the first lag radius m at which every
  normalized cumulant on an annulus of width ``a_N`` drops below a
  threshold ~ sqrt(log N / N), giving M = m / b;
* the practical bispectrum rule — the same idea on the lexicographically
  ordered interior lag points P_1 = (1,0), P_2 = (2,1), ...;
* the per-frequency plug-in rule for differentiable second-order kernels,
  with either flat-top or conventional second-order pilot estimates,
  computed once per series for all the frequencies asked for.

Thresholds can be calibrated from the data with a circular block bootstrap.
"""
from __future__ import annotations

import math
import numbers
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cumulants import (
    TimeSeries,
    _lagged_sum,
    _rho_scale,
    autocumulants,
    canonical_lag,
    central_moment_estimate,
)
from .exceptions import DegenerateSeriesError, OrderError
from .spectra import (
    BispectrumLagCache,
    _row_orbits,
    bispectrum_curvature,
    estimate_spectrum,
)
from .windows import (
    LagWindow,
    flat_top_rpf,
    opt_truncation_radius,
    optimal_window,
    parzen_window,
    trapezoid_window,
    window_curvature_at_zero,
    window_l2_norm,
)

__all__ = [
    "BandwidthSelection",
    "select_bandwidth_general",
    "lex_point",
    "select_bandwidth_bispectrum",
    "bootstrap_threshold",
    "plugin_formula",
    "plugin_bandwidth",
]


@dataclass
class BandwidthSelection:
    """Outcome of a bandwidth search, with the evidence that produced it.

    For the general rule `trace` holds one `(tau, rho)` per blocked annulus,
    in increasing m: the smallest-norm lag of annulus m (ties broken by
    lexicographic order of tau) with |rho| >= threshold.  So it has
    `m_hat - 1` entries, or `m_hat` when `cap_hit`.  For the bispectrum rule
    it lists every `(point, rho)` examined, in order.
    """

    M_hat: float
    m_hat: int
    rule: str
    thresholds: dict
    trace: list = field(default_factory=list)
    cap_hit: bool = False
    params: dict = field(default_factory=dict)


def _warn_cap():
    warnings.warn("bandwidth selection stopped at its search cap; the returned "
                  "bandwidth is the cap (cap_hit=True)", UserWarning, stacklevel=4)


def _log_threshold(k: float, N: int, base: float) -> float:
    return k * math.sqrt(math.log(N) / math.log(base) / N)


def _lags_by_norm(R: int, dim: int, norm: str, R0: int = 0):
    """Nonzero integer lags with R0 <= norm < R (positive lags in 1-D) as
    rows of an array, sorted by norm and then lexicographically, with their
    exact integer sort keys: t1^2 + t2^2 for the euclidean norm, max(|t1|,
    |t2|) for sup, t in 1-D; int32 where the keys of the box |t1|, |t2| < R
    fit.  Those of a larger R0 follow those of a smaller one, so a list grows
    by rings: the lags of [0, R) are those of [0, R0) followed by those of
    [R0, R)."""
    dtype = np.int32 if 2 * R * R < 2 ** 31 else np.int64
    if dim == 1:
        t = np.arange(max(R0, 1), R, dtype=dtype)
        return t[:, None], t
    t = np.arange(1 - R, R, dtype=dtype)
    if norm == "sup":
        key, lo, hi = np.maximum.outer(np.abs(t), np.abs(t)), R0, R
    else:
        key, lo, hi = np.add.outer(t * t, t * t), R0 * R0, R * R
    # flat index (t1 + R - 1) * (2R - 1) + (t2 + R - 1) of each lag of the
    # ring, in lexicographic order, which the stable sort keeps among equal keys
    inside = key >= max(lo, 1)
    inside &= key < hi
    flat = np.flatnonzero(inside)
    del inside
    key = key.ravel()[flat]
    order = np.argsort(key, kind="stable")
    key, flat = key[order], flat[order]
    del order
    lags = np.empty((flat.size, 2), dtype)
    np.divmod(flat, t.size, out=(lags[:, 0], lags[:, 1]))
    lags += 1 - R
    return lags, key


def _scan(series, s, k, log_base, b, cap, window):
    """The scan of both rules over an ordered lag list that grows as it goes:
    the first m in 1..cap whose window lags[lo:hi] has no |rho| >= threshold
    `_log_threshold(k, N, log_base)`, rho the order-s cumulants over one
    C(0)^(s/2).  `window(m, cap)` returns (lo, hi) and the lags, rows of an
    array, it appended to the list to reach hi, or None.  `cap` is an
    integer >= 1, by default floor(N/4) or 1; at the cap the scan warns.
    Returns m_hat, cap_hit, the threshold, the index of the first exceedance
    of each blocked window, in increasing m, the lag list and rho there."""
    N = series.n
    if not 0 < b <= 1:
        raise ValueError(f"b must be in (0, 1], got {b!r}")
    cap = max(1, N // 4) if cap is None else cap
    if not isinstance(cap, numbers.Integral) or cap < 1:
        raise ValueError(f"cap must be an integer >= 1, got {cap!r}")
    cap = int(cap)
    threshold = _log_threshold(k, N, log_base)
    cumulants = (partial(autocumulants, series) if s == 2
                 else BispectrumLagCache(series).cumulants)
    scale = _rho_scale(central_moment_estimate(series, (0,)), s)
    lags, rho = [], np.empty(0)
    exceed = np.empty(0, np.int64)  # the indices where |rho| >= threshold
    firsts = []
    for m in range(1, cap + 1):
        lo, hi, new = window(m, cap)
        if new is not None:
            new_rho = cumulants(*new.T) / scale
            exceed = np.concatenate(
                [exceed, rho.size + np.flatnonzero(np.abs(new_rho) >= threshold)])
            rho = np.concatenate([rho, new_rho])
            lags.append(new)
        j = int(np.searchsorted(exceed, lo))
        if j == exceed.size or exceed[j] >= hi:
            return m, False, threshold, firsts, np.concatenate(lags), rho
        firsts.append(int(exceed[j]))
    _warn_cap()
    return cap, True, threshold, firsts, np.concatenate(lags), rho


def select_bandwidth_general(series: TimeSeries, order: int = 2, k: float = 2.0,
                             a_N: int = 5, b: float = 0.51,
                             norm: str = "euclidean", log_base: float = 10.0,
                             cap: int | None = None) -> BandwidthSelection:
    """Smallest m >= 1 with |rho(tau)| < k sqrt(log N / N) on the annulus
    m <= ||tau|| < m + a_N; returns M = m / b.

    The cap and the threshold are those of both scan rules (README,
    `bandwidth`).  The lags are sorted by norm, so each annulus is a
    contiguous run of them, and the witness of a blocked annulus is its first
    lag with |rho| >= threshold.  Each time the list grows, rho at its new
    lags comes from one `autocumulants` call at order 2 and from one
    `BispectrumLagCache.cumulants` lookup at order 3, over C(0)^(s/2).
    """
    if k <= 0 or a_N < 1:
        raise ValueError("need k > 0, a_N >= 1")
    if order not in (2, 3):
        raise ValueError(f"order must be 2 or 3, got {order}")
    if norm not in ("euclidean", "sup"):
        raise ValueError(f"unknown norm '{norm}'")
    dim = order - 1
    squared = dim == 2 and norm == "euclidean"
    keys, R = np.empty(0, np.int32), 0

    def annulus(m, cap):
        nonlocal keys, R
        new = None
        if m + a_N > R:
            # the list grows by the ring of norms from the old R to the new
            R0, R = R, min(max(2 * R, 2 * (m + a_N)), cap + a_N)
            new, new_keys = _lags_by_norm(R, dim, norm, R0)
            keys = np.concatenate([keys, new_keys])
        bounds = (m * m, (m + a_N) ** 2) if squared else (m, m + a_N)
        # bounds of the keys' dtype: a Python int would cast all the keys
        lo, hi = np.searchsorted(keys, np.array(bounds, keys.dtype)).tolist()
        return lo, hi, new

    m_hat, cap_hit, thr, firsts, lags, rho = _scan(series, order, k, log_base, b,
                                                   cap, annulus)
    # a witness that blocks several annuli is one entry, repeated
    entry = {f: (tuple(lags[f].tolist()), float(rho[f])) for f in firsts}
    trace = [entry[f] for f in firsts]
    return BandwidthSelection(
        M_hat=m_hat / b, m_hat=m_hat, rule="general",
        thresholds={"k": k, "value": thr}, trace=trace, cap_hit=cap_hit,
        params={"a_N": a_N, "b": b, "norm": norm, "log_base": log_base,
                "order": order},
    )


def lex_point(n: int):
    """n-th point of {0 < tau2 < tau1} U {(1,0)} in lexicographic order."""
    n = int(n)
    if n < 1:
        raise ValueError(f"lex index must be >= 1, got {n}")
    if n == 1:
        return (1, 0)
    i = int(math.floor(1.5 + math.sqrt(2 * n - 2)))
    j = n - (i * i - 3 * i) // 2 - 2
    return (i, j)


def select_bandwidth_bispectrum(series: TimeSeries, k1: float = 2.0,
                                k2: float = 2.0, L: int = 5, b: float = 0.51,
                                log_base: float = math.e,
                                cap: int | None = None) -> BandwidthSelection:
    """Practical bispectrum rule over the lexicographic interior points.

    m_hat is the smallest m with |rho(P_{m+l})| < k~ sqrt(log N / N) for
    l = 1..L, where k~ = k1 at the boundary point (1,0) and k2 elsewhere.
    The bandwidth is floor(i / b) with i the first coordinate of P_{m_hat},
    so b = c = 0.51 yields only odd integers and b = 0.5 only even ones.
    The scan starts at P_2, so P_1 = (1,0) is never examined for m >= 1 and
    k1 has no effect (it is kept in `thresholds`).  The points are the
    orbits 0 < b < a of the store's rows, in its packed order, so rho at each
    growth of the point list is one `BispectrumLagCache.cumulants` lookup;
    the trace lists every (point, rho) seen.  The cap and the threshold are
    those of both scan rules (README, `bandwidth`).
    """
    if k1 <= 0 or k2 <= 0 or L < 1:
        raise ValueError("need k1, k2 > 0, L >= 1")
    rows = size = 0  # P_1 .. P_size are the points of the rows a < rows

    def window(m, cap):
        # window m is P_{m+1} .. P_{m+L}
        nonlocal rows, size
        if m + L <= size:
            return m, m + L, None
        # the store's orbits of the rows up to that of the last point wanted,
        # in packed order, which is lexicographic, where 0 < b < a, and P_1
        A = lex_point(min(max(2 * size, m + L), cap + L))[0] + 1
        t1, t2 = _row_orbits(rows, A)
        inner = (t2 < t1) & ((t2 > 0) | (t1 == 1))
        rows, size = A, size + int(inner.sum())
        return m, m + L, np.column_stack([t1[inner], t2[inner]])

    m_hat, cap_hit, _, firsts, points, rho = _scan(series, 3, k2, log_base, b,
                                                   cap, window)
    # window m examined its points up to its first exceedance; m_hat all L
    rho, points = rho.tolist(), points.tolist()
    ends = firsts if cap_hit else [*firsts, m_hat + L - 1]
    trace = [(tuple(points[i]), rho[i])
             for m, end in enumerate(ends, start=1) for i in range(m, end + 1)]
    return BandwidthSelection(
        M_hat=float(np.floor(points[m_hat - 1][0] / b)), m_hat=m_hat, rule="bispectrum",
        thresholds={"k1": k1, "k2": k2, "base": _log_threshold(1.0, series.n, log_base)},
        trace=trace, cap_hit=cap_hit,
        params={"L": L, "b": b, "log_base": log_base},
    )


# bytes of one chunk's (replicates, N) arrays in `bootstrap_threshold`: 32
# replicates at N = 400, below glibc's default 128 KiB threshold for serving
# an allocation from freshly mapped pages, so the time of a call does not
# depend on what earlier calls freed
_BOOTSTRAP_CHUNK_BYTES = 100 * 1024


def bootstrap_threshold(series: TimeSeries, tau0, block_length: int | None = None,
                        B: int = 500, seed=None):
    """Circular block-bootstrap calibration of the selection threshold.

    Resamples the series in circular blocks, recomputes the normalized
    cumulant at tau0 in each of B replicates, and returns
    (sigma_hat, k = 2 sigma_hat) with sigma_hat = sqrt(N) times the
    replicate standard deviation — an approximate 95% simultaneous bound.
    `tau0` is one lag (an int or a tuple of ints) or a list of lag tuples,
    reduced from one set of resamples to a list of (sigma_hat, k), each what
    a call with that lag alone returns.  A replicate with zero variance, a
    non-finite rho or a scale C(0)^(s/2) that overflows raises
    `DegenerateSeriesError`, and a lag of 3 or more components `OrderError`.
    """
    many = isinstance(tau0, (list, tuple)) and any(np.ndim(t) for t in tau0)
    lags = [tuple(int(t) for t in np.atleast_1d(u)) for u in (tau0 if many else [tau0])]
    if any(t < 0 for taus in lags for t in taus):
        raise ValueError("tau0 components must be nonnegative")
    if any(len(taus) not in (1, 2) for taus in lags):
        raise OrderError("a bootstrap lag has 1 or 2 components (orders 2-3)")
    if B < 100:
        raise ValueError("need at least 100 bootstrap replicates")
    x = series.values
    N = series.n
    if block_length is None:
        block_length = int(math.ceil(N ** (1.0 / 3.0)))
    if block_length < 1:
        raise ValueError("block length must be >= 1")
    if N < 2 * block_length:
        raise ValueError(f"series of length {N} too short for blocks of {block_length}")
    if any(t >= N for taus in lags for t in taus):
        raise ValueError("tau0 exceeds the series length")

    # the representative a >= b >= 0 (b None at order 2) and the order of each lag
    reps = [(*canonical_lag(*t), 3) if len(t) == 2 else (t[0], None, 2) for t in lags]
    orders = {s for _, _, s in reps}
    # replicate r is the blocks x[s:s + block_length] (indices mod N) for its
    # starts s, concatenated and cut to N; replicates are built and reduced
    # a chunk of rows at a time, each row on its own, so rho of a replicate
    # is `normalized_cumulant` of it, bit for bit
    rng = np.random.Generator(np.random.Philox(seed))
    n_blocks = -(-N // block_length)
    starts = rng.integers(0, N, size=(B, n_blocks))
    blocks = sliding_window_view(np.concatenate([x, x[:block_length - 1]]),
                                 block_length)
    rhos, variances = np.empty((len(lags), B)), np.empty(B)
    rows = max(1, _BOOTSTRAP_CHUNK_BYTES // (8 * N))
    # an overflow or underflow shows as a non-finite rho or scale, checked below
    with np.errstate(all="ignore"):
        for i in range(0, B, rows):
            chunk = starts[i:i + rows]
            xb = blocks[chunk].reshape(len(chunk), -1)[:, :N]
            y = xb - xb.mean(axis=1, keepdims=True)
            variances[i:i + rows] = _lagged_sum(y, 0)
            for rho, (a, b, _) in zip(rhos, reps):
                rho[i:i + rows] = _lagged_sum(y, a, b)
        # each replicate's cumulant over its own C(0)^(s/2), 0 at zero variance
        scales = {s: _rho_scale(variances, s) for s in orders}
        for rho, (_, _, s) in zip(rhos, reps):
            rho /= scales[s]
        if not np.isfinite(rhos).all():
            raise DegenerateSeriesError("bootstrap replicate with 0 variance or a non-finite rho")
        for s in orders:
            _rho_scale(variances.max(), s)
    sigmas = [math.sqrt(N) * float(np.std(rho, ddof=1)) for rho in rhos]
    return [(s, 2.0 * s) for s in sigmas] if many else (sigmas[0], 2.0 * sigmas[0])


def _bootstrap_ks(series, draws, seed):
    """max(k, 1e-3) at each lag of the lists in `draws`, keyed by lag: those
    of draws[i] from one bootstrap drawn with seed + i, if it is not empty."""
    return {lag: max(k, 1e-3)
            for i, lags in enumerate(draws) if lags
            for lag, (_, k) in zip(lags, bootstrap_threshold(
                series, list(lags), seed=None if seed is None else seed + i))}


# the lags of the calibrated pilot thresholds of the 1-D and 2-D rules; the
# 2-D rule thresholds a whole annulus with one k, so it takes a boundary lag
_PILOT_LAGS = ((3,), (3, 0))


def _flat_top_pilots(series, c, k2d=2.0, k3d=2.0):
    # both pilot bandwidths come from the general selection rule (1-D and
    # 2-D annuli respectively), giving real-valued M = m / b; the thresholds
    # default to k = 2, and callers that calibrate pass bootstrap ones, since
    # the fluctuation scale of higher-order cumulants is model-dependent;
    # last, whether either rule stopped at its cap
    sel2 = select_bandwidth_general(series, order=2, k=k2d, b=c)
    sel3 = select_bandwidth_general(series, order=3, k=k3d, b=c)
    return (trapezoid_window(c), sel2.M_hat, flat_top_rpf(c), sel3.M_hat,
            sel2.cap_hit or sel3.cap_hit)


def _second_order_pilots(series):
    N = series.n
    spec_win = parzen_window()
    M2 = float(math.floor(N ** 0.2))  # N >= 1, so M2 and M3 are at least 1
    bisp_win = optimal_window(opt_truncation_radius(1e-3))
    M3 = float(math.floor(N ** (1.0 / 6.0)))
    return spec_win, M2, bisp_win, M3, False


def plugin_formula(N, l2_norm, spectrum_product, window_d2, curvature, cap):
    """Sixth-root plug-in rule with a cap when the curvature degenerates."""
    if spectrum_product <= 0.0:
        raise DegenerateSeriesError("pilot spectral product is not positive")
    if abs(curvature) == 0.0:
        return float(cap), True
    brace = (math.pi * N / (l2_norm * spectrum_product)
             * window_d2 ** 2 * abs(curvature) ** 2)
    M_hat = min(brace ** (1.0 / 6.0), float(cap))
    return M_hat, M_hat >= float(cap)


def plugin_bandwidth(window: LagWindow, series: TimeSeries, omegas,
                     pilot: str = "flat-top", c: float = 0.51,
                     calibrate: bool = True, seed: int | None = 0,
                     cap: float | None = None) -> list:
    """Per-frequency plug-in bandwidths for a differentiable order-2 kernel,
    one `BandwidthSelection` per (w1, w2) pair in `omegas`.

    M(w1, w2) = { pi N / (||lambda|| f(w1) f(w2) f(w1+w2))
                  * (d^2 lambda / d tau1^2 at 0)^2
                  * |(d/dw1^2 - d/dw1 dw2 + d/dw2^2) f(w1, w2)|^2 }^(1/6)

    with f and its curvature replaced by pilot estimates: flat-top pilots
    (trapezoid + pyramidal frustum, bandwidths from the selection rules) or
    second-order pilots (Parzen at floor(N^(1/5)), Bessel window truncated
    where it falls below 1e-3, at floor(N^(1/6))).  The pilots depend on the
    series alone, so a call computes them, the pilot bispectrum's lag terms
    and the constants of `window` once for all its frequencies; the result
    for each pair equals that of a call with that pair alone.  Each M is at
    most `cap`, a positive finite number, by default N/4 (README,
    `bandwidth`).
    """
    if pilot not in ("flat-top", "second-order"):
        raise ValueError(f"pilot must be 'flat-top' or 'second-order', got '{pilot}'")
    if cap is not None and not 0 < cap < math.inf:
        raise ValueError(f"cap must be positive and finite, got {cap!r}")
    omegas = np.asarray(omegas, float)
    if omegas.ndim != 2 or omegas.shape[1] != 2 or len(omegas) == 0:
        raise ValueError("omegas must be a nonempty sequence of (w1, w2) pairs")
    if pilot == "second-order":
        pilots = _second_order_pilots(series)
    else:
        ks = _bootstrap_ks(series, [[lag] for lag in _PILOT_LAGS] if calibrate else [], seed)
        pilots = _flat_top_pilots(series, c, *(ks.get(lag, 2.0) for lag in _PILOT_LAGS))
    return _plugin_selections(window, series, omegas, pilot, pilots, cap)


def _plugin_selections(window, series, omegas, pilot, pilots, cap=None):
    """`plugin_bandwidth` at the (w1, w2) pairs of `omegas`, given its pilot
    windows and bandwidths (spectrum window, M2, bispectrum window, M3, and
    whether a pilot rule stopped at its cap).  Each pilot is one estimator
    call for all the pairs."""
    N = series.n
    cap = N / 4.0 if cap is None else cap
    spec_win, M2, bisp_win, M3, _ = pilots
    pairs = np.asarray(omegas, float).tolist()
    # the pilot spectrum at w1, w2 and w1 + w2 of each pair, a negative
    # estimate clamped to 0
    f = [e.value for e in estimate_spectrum(
        series, spec_win, M2, [w for w1, w2 in pairs for w in (w1, w2, w1 + w2)])]
    curvatures = bispectrum_curvature(series, bisp_win, M3, pairs)
    lam_norm = window_l2_norm(window)
    lam_d2 = window_curvature_at_zero(window)
    selections = []
    for i, ((w1, w2), curv) in enumerate(zip(pairs, curvatures)):
        product = f[3 * i] * f[3 * i + 1] * f[3 * i + 2]
        M_hat, cap_hit = plugin_formula(N, lam_norm, product, lam_d2, curv, cap)
        selections.append(BandwidthSelection(
            M_hat=M_hat, m_hat=max(int(round(M_hat)), 1), rule=f"plugin-{pilot}",
            thresholds={}, cap_hit=cap_hit,
            params={"omega": (w1, w2), "pilot_spectrum_M": M2,
                    "pilot_bispectrum_M": M3, "f_product": product,
                    "curvature": curv, "l2": lam_norm, "d2": lam_d2},
        ))
    return selections
