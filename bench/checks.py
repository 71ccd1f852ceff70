"""Brute-force oracles the benchmark checks the program's outputs against.

Spectral estimates are recomputed as plain sums of `central_moment_estimate`
times `window.fn` over every lag of the window's support box (every lag below
N for a window of unbounded support).  Selected bandwidths are re-derived
from the selection rule's own definition, with `normalized_cumulant` and the
threshold the rule returned.  Each check returns a list of mismatch messages;
an empty list means the output is correct.
"""
from __future__ import annotations

import math

import numpy as np

from flattopspec import central_moment_estimate, normalized_cumulant

TWO_PI = 2.0 * math.pi

# estimate against brute-force sum: relative error, as in acceptance criterion 1
EST_RTOL = 1e-10
# rounding floor for sums that cancel, as a share of the sum of |terms|
SUM_FLOOR = 1e-13
# |rho| this close to the rule's threshold counts as correct either way
RHO_SLACK = 1e-12
# table values against the values recorded when the benchmark was defined
GOLDEN_RTOL = 1e-9


class CumulantTable:
    """Memoized `central_moment_estimate` values of one series, one per lag."""

    def __init__(self, series):
        self.series = series
        self._values: dict = {}

    def __call__(self, lags) -> float:
        val = self._values.get(lags)
        if val is None:
            val = central_moment_estimate(self.series, lags)
            self._values[lags] = val
        return val


def support_box(window, M: float, N: int) -> int:
    """Largest lag coordinate with a possibly nonzero weight."""
    if window.support_radius is None:
        return N - 1
    return min(int(math.ceil(window.support_radius * M)), N - 1)


def brute_bispectrum(table: CumulantTable, window, M: float, omegas) -> list:
    """[(value, scale)] per frequency pair; scale is the sum of |terms|."""
    L = support_box(window, M, table.series.n)
    ax = np.arange(-L, L + 1)
    T1, T2 = np.meshgrid(ax, ax, indexing="ij")
    w = np.asarray(window.fn(T1 / M, T2 / M), float)
    nz = np.nonzero(w)
    t1, t2 = T1[nz], T2[nz]
    terms = w[nz] * np.array([table((int(a), int(b))) for a, b in zip(t1, t2)])
    scale = float(np.abs(terms).sum()) / TWO_PI ** 2
    return [(complex((terms * np.exp(-1j * (t1 * o1 + t2 * o2))).sum()) / TWO_PI ** 2,
             scale) for o1, o2 in omegas]


def brute_spectrum(table: CumulantTable, window, M: float, omegas) -> list:
    """[(real value, scale)] per frequency, before any clamping of negatives."""
    L = support_box(window, M, table.series.n)
    taus = np.arange(-L, L + 1)
    w = np.asarray(window.fn(taus / M), float)
    nz = np.nonzero(w)
    t = taus[nz]
    terms = w[nz] * np.array([table((int(a),)) for a in t])
    scale = float(np.abs(terms).sum()) / TWO_PI
    return [(float((terms * np.exp(-1j * t * o)).sum().real) / TWO_PI, scale)
            for o in omegas]


def mismatch(label: str, reported, expected, scale: float = 0.0) -> list:
    """[] when reported is within EST_RTOL of expected (plus the rounding floor)."""
    tol = EST_RTOL * abs(expected) + SUM_FLOOR * scale
    if reported is None or not abs(reported - expected) <= tol:
        return [f"{label}: reported {reported!r}, brute force {expected!r}"]
    return []


def golden_mismatches(expected, actual, path: str = "") -> list:
    """Compare an op's outputs with the values recorded for it, recursively."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(expected) != set(actual):
            return [f"{path}: keys differ from the recorded output"]
        out = []
        for key in sorted(expected):
            out += golden_mismatches(expected[key], actual[key], f"{path}/{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(expected) != len(actual):
            return [f"{path}: length differs from the recorded output"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += golden_mismatches(e, a, f"{path}[{i}]")
        return out
    if isinstance(expected, float) and isinstance(actual, (int, float)) \
            and not isinstance(actual, bool):
        if abs(actual - expected) <= GOLDEN_RTOL * abs(expected) + 1e-300:
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{path}: recorded {expected!r}, got {actual!r}"]


# ---------------------------------------------------------------------------
# Bandwidth selection rules
# ---------------------------------------------------------------------------

def check_selection(series, sel) -> list:
    """Re-derive a `BandwidthSelection` (default channels) from its rule."""
    if sel.rule == "general":
        return _check_general(series, sel)
    if sel.rule == "bispectrum":
        return _check_lex(series, sel)
    return [f"unknown selection rule {sel.rule!r}"]


def _rho_fn(series):
    memo: dict = {}

    def rho(tau):
        val = memo.get(tau)
        if val is None:
            val = normalized_cumulant(series, tau)
            memo[tau] = val
        return val
    return rho


def _lag_norm(tau, norm):
    if len(tau) == 1:
        return abs(tau[0])
    if norm == "sup":
        return max(abs(tau[0]), abs(tau[1]))
    return math.hypot(tau[0], tau[1])


def _annulus(m: int, width: int, dim: int, norm: str):
    """Nonzero integer lags with m <= ||tau|| < m + width (positive lags in 1-D)."""
    if dim == 1:
        return [(t,) for t in range(max(m, 1), m + width)]
    R = m + width
    return [(a, b) for a in range(-R, R + 1) for b in range(-R, R + 1)
            if (a, b) != (0, 0) and m <= _lag_norm((a, b), norm) < m + width]


def _check_general(series, sel) -> list:
    p = sel.params
    dim = p["order"] - 1
    width, norm, thr = p["a_N"], p["norm"], sel.thresholds["value"]
    cap = max(1, series.n // 4)
    m_hat = sel.m_hat
    rho = _rho_fn(series)
    where = f"general(order={p['order']})"
    problems = []
    if sel.M_hat != m_hat / p["b"]:
        problems.append(f"{where}: M_hat {sel.M_hat} != m_hat / b")
    if not 1 <= m_hat <= cap or (sel.cap_hit and m_hat != cap):
        return problems + [f"{where}: m_hat {m_hat} outside 1..{cap} "
                           f"(cap_hit={sel.cap_hit})"]
    # lags the rule reports above the threshold, indexed by the integer part
    # of their norm, are the candidate witnesses; a full scan is the fallback
    hints: dict = {}
    for tau, r in sel.trace:
        if abs(r) >= thr - RHO_SLACK:
            tau = tuple(int(t) for t in tau)
            hints.setdefault(int(_lag_norm(tau, norm)), []).append(tau)

    def exceeded(m):
        for r in range(m, m + width):
            for tau in hints.get(r, ()):
                if m <= _lag_norm(tau, norm) < m + width \
                        and abs(rho(tau)) >= thr - RHO_SLACK:
                    return True
        return any(abs(rho(tau)) >= thr - RHO_SLACK
                   for tau in _annulus(m, width, dim, norm))

    last_blocked = m_hat if sel.cap_hit else m_hat - 1
    for m in range(1, last_blocked + 1):
        if not exceeded(m):
            problems.append(f"{where}: annulus m={m} is below the threshold, "
                            f"but m_hat={m_hat} (cap_hit={sel.cap_hit})")
            break
    if not sel.cap_hit:
        for tau in _annulus(m_hat, width, dim, norm):
            if abs(rho(tau)) >= thr + RHO_SLACK:
                problems.append(f"{where}: |rho{tau}|={abs(rho(tau))!r} >= "
                                f"threshold {thr!r} inside the chosen annulus "
                                f"m_hat={m_hat}")
                break
    return problems


def _lex_points(count: int) -> list:
    """(1,0), then the interior points 0 < tau2 < tau1 in lexicographic order."""
    pts = [(1, 0)]
    i = 2
    while len(pts) < count:
        pts.extend((i, j) for j in range(1, i))
        i += 1
    return pts[:count]


def _check_lex(series, sel) -> list:
    p, t = sel.params, sel.thresholds
    L, base = p["L"], t["base"]
    cap = max(1, series.n // 4)
    m_hat = sel.m_hat
    rho = _rho_fn(series)
    problems = []
    if not 1 <= m_hat <= cap or (sel.cap_hit and m_hat != cap):
        return [f"bispectrum rule: m_hat {m_hat} outside 1..{cap} "
                f"(cap_hit={sel.cap_hit})"]
    pts = _lex_points(cap + L + 1)  # pts[n - 1] is P_n

    def thr(n):
        return (t["k1"] if pts[n - 1] == (1, 0) else t["k2"]) * base

    last_blocked = m_hat if sel.cap_hit else m_hat - 1
    for m in range(1, last_blocked + 1):
        if not any(abs(rho(pts[m + ell - 1])) >= thr(m + ell) - RHO_SLACK
                   for ell in range(1, L + 1)):
            problems.append(f"bispectrum rule: points after P_{m} are below "
                            f"the threshold, but m_hat={m_hat}")
            break
    if not sel.cap_hit:
        for ell in range(1, L + 1):
            n = m_hat + ell
            if abs(rho(pts[n - 1])) >= thr(n) + RHO_SLACK:
                problems.append(f"bispectrum rule: |rho(P_{n})| above the "
                                f"threshold after the chosen m_hat={m_hat}")
                break
    if sel.M_hat != float(math.floor(pts[m_hat - 1][0] / p["b"])):
        problems.append(f"bispectrum rule: M_hat {sel.M_hat} != "
                        f"floor({pts[m_hat - 1][0]} / b)")
    return problems
