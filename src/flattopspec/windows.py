"""Lag-window kernels: flat-top families, the order-2 Bessel window, pilots.

2-D windows take lag arguments already scaled by the bandwidth, i.e. they are
evaluated at (tau1/M, tau2/M).  Flat-top windows are identically 1 inside a
neighborhood of the origin of radius `flat_top_radius` (for the frustum
windows this holds on the sector 0 <= y <= x; see `validate_flat_top`).
"""
from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, field
from functools import cache, partial, wraps

import numpy as np

__all__ = [
    "LagWindow",
    "FlatTopReport",
    "SYMMETRY_MAPS",
    "apply_symmetry",
    "bessel_j2",
    "lambda_rp",
    "lambda_rc",
    "lambda_rpf",
    "lambda_rcf",
    "lambda_opt",
    "flat_top_rpf",
    "flat_top_rcf",
    "optimal_window",
    "trapezoid_window",
    "parzen_window",
    "parzen_window_2d",
    "symmetrize",
    "symmetrize_even_1d",
    "validate_flat_top",
    "parse_window",
    "window_l2_norm",
    "window_curvature_at_zero",
    "opt_truncation_radius",
]

_SQRT3 = math.sqrt(3.0)
_ALPHA_SCALE = 2.0 * math.pi / _SQRT3

# The six planar maps fixing the third-order cumulant: identity, swap,
# (-x, y-x), (y-x, -x), (x-y, -y), (-y, x-y).  Stored as 2x2 integer
# matrices acting on column vectors (x, y).
SYMMETRY_MAPS = (
    ((1, 0), (0, 1)),
    ((0, 1), (1, 0)),
    ((-1, 0), (-1, 1)),
    ((-1, 1), (-1, 0)),
    ((1, -1), (0, -1)),
    ((0, -1), (1, -1)),
)


def apply_symmetry(m, x, y):
    """Apply one symmetry matrix to coordinates (arrays ok)."""
    (a, b), (c, d) = m
    return a * x + b * y, c * x + d * y


# ---------------------------------------------------------------------------
# Bessel J2, computed in-house, in two pieces split at |x| = 25 (J2 is even).
#
# Below the split, the integral form J_n(x) = (1/2pi) int_{-pi}^{pi}
# cos(n t - x sin t) dt is discretized by the periodic trapezoid rule on
# K = 512 nodes, which is exact up to aliasing terms J_{n +/- K}(x).  The rule
# is folded by the reflections t -> t + pi and t -> pi - t onto the K/4 + 1
# nodes of [0, pi/2]:
#
#   J2(x) = (4/K) sum_{k=0}^{K/4} h_k cos(2 t_k) cos(x sin t_k),
#
# with h_0 = h_{K/4} = 1/2 and h_k = 1 otherwise (the odd sine part cancels
# in pairs), so each point costs 129 cosines.
#
# At and above the split, Hankel's asymptotic expansion (Abramowitz & Stegun
# 9.2.5-9.2.10; DLMF 10.17.3), with chi = x - 5pi/4:
#
#   J2(x) = sqrt(2/(pi x)) (P(x) cos chi - Q(x) sin chi),
#   P = sum_{k<8} (-1)^k a_{2k} / x^{2k},  Q = sum_{k<8} (-1)^k a_{2k+1} / x^{2k+1},
#   a_0 = 1,  a_k = a_{k-1} (16 - (2k - 1)^2) / (8k).
#
# The first omitted term is 3.4e-16 of the leading one at x = 25 and smaller
# beyond.  cos chi = -(cos x + sin x)/sqrt(2) and sin chi = (cos x - sin x)/sqrt(2)
# take the cosine and sine of x itself, so no rounded phase x - 5pi/4 enters:
#
#   J2(x) = -(P (cos x + sin x) + Q (cos x - sin x)) / sqrt(pi x).
#
# Measured against mpmath.besselj, the error is below 2e-16 on [0, 25) and
# below 1e-16 on [25, 1e4].
# The untruncated `opt` window reaches large x: a lag has a nonzero sample
# cumulant only if max(|t1|, |t2|, |t1 - t2|) <= N - 1, which bounds
# sqrt(t1^2 - t1 t2 + t2^2) <= N - 1, so its sums evaluate J2 up to
# alpha = 2pi (N - 1) / (sqrt(3) M): 432 at N = 120, M = 1, and 7252 at
# N = 2000, M = 1.
# ---------------------------------------------------------------------------

_J2_NODES = 512
_J2_THETA = 2.0 * np.pi * np.arange(_J2_NODES // 4 + 1) / _J2_NODES
_J2_SIN = np.sin(_J2_THETA)
_J2_WEIGHTS = 4.0 / _J2_NODES * np.cos(2.0 * _J2_THETA)
_J2_WEIGHTS[[0, -1]] *= 0.5
# points per block: bounds the (block, K/4 + 1) workspace to about 0.5 MB
_J2_BLOCK = 512
# |x| from which the asymptotic expansion is used
_J2_SPLIT = 25.0


def _hankel_coefficients(terms=16):
    """(-1)^k a_{2k} and (-1)^k a_{2k+1} for nu = 2, k < terms / 2, each
    rounded once: Python's int / int is correctly rounded."""
    num, den, a = 1, 1, []
    for k in range(terms):
        a.append((-1) ** (k // 2) * num / den)
        num *= 16 - (2 * k + 1) ** 2
        den *= 8 * (k + 1)
    return a[0::2], a[1::2]


_J2_P, _J2_Q = _hankel_coefficients()


def _j2_trapezoid(x):
    """The folded rule, for 0 <= x < _J2_SPLIT."""
    out = np.empty_like(x)
    for i in range(0, x.size, _J2_BLOCK):
        seg = x[i:i + _J2_BLOCK, None]
        out[i:i + _J2_BLOCK] = (np.cos(seg * _J2_SIN) * _J2_WEIGHTS).sum(axis=1)
    return out


def _j2_hankel(x):
    """Hankel's expansion, for x >= _J2_SPLIT."""
    z = 1.0 / x
    w = z * z
    p = np.full_like(x, _J2_P[-1])
    for c in _J2_P[-2::-1]:
        p = p * w + c
    q = np.full_like(x, _J2_Q[-1])
    for c in _J2_Q[-2::-1]:
        q = q * w + c
    q *= z
    cos, sin = np.cos(x), np.sin(x)
    return -(p * (cos + sin) + q * (cos - sin)) / np.sqrt(math.pi * x)


def bessel_j2(x):
    """Second-order Bessel function of the first kind, within 1e-15 of
    mpmath.besselj(2, x) for |x| <= 10^4.

    Each value is computed on its own, so it does not depend on the position
    of the point in `x`: bessel_j2(x)[i] == bessel_j2(x[i]); and it is exactly
    even: bessel_j2(-x) == bessel_j2(x).
    """
    x = np.asarray(x, dtype=float)
    flat = np.abs(x.ravel())
    out = np.empty_like(flat)
    small = flat < _J2_SPLIT
    out[small] = _j2_trapezoid(flat[small])
    big = ~small
    out[big] = _j2_hankel(flat[big])
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


# points per block of a window evaluation: every kernel is elementwise, so
# evaluating in blocks bounds its temporaries without changing a value
_EVAL_BLOCK = 4096


def evaluate_blockwise(fn, *coords):
    """fn at the points of the equal-length 1-D arrays `coords`, as a float
    array, evaluated in blocks of `_EVAL_BLOCK` points."""
    out = np.empty(len(coords[0]))
    for i in range(0, out.size, _EVAL_BLOCK):
        out[i:i + _EVAL_BLOCK] = fn(*(c[i:i + _EVAL_BLOCK] for c in coords))
    return out


def _opt_profile(alpha):
    """8 J2(alpha)/alpha^2 with the removable singularity handled by series."""
    alpha = np.asarray(alpha, dtype=float)
    scalar = alpha.ndim == 0
    if scalar:
        alpha = alpha[None]
    out = np.empty_like(alpha)
    small = alpha < 0.5
    if np.any(small):
        a2 = alpha[small] ** 2
        # 8 J2(a)/a^2 = sum_m (-1)^m 2 (a/2)^{2m} / (m! (m+2)!)
        acc = np.zeros_like(a2)
        term = np.ones_like(a2)  # (a/2)^{2m}
        for m in range(9):
            acc += (-1) ** m * 2.0 * term / (math.factorial(m) * math.factorial(m + 2))
            term = term * a2 / 4.0
        out[small] = acc
    big = ~small
    if np.any(big):
        ab = alpha[big]
        out[big] = 8.0 / ab ** 2 * bessel_j2(ab)
    return float(out[0]) if scalar else out


# ---------------------------------------------------------------------------
# 2-D window shapes
# ---------------------------------------------------------------------------

def lambda_rp(x, y):
    """Right pyramid over the hexagon |x| + |y| + |x - y| = 2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    quadrant = ((x >= -1) & (x <= 0) & (y >= -1) & (y <= 0)) | (
        (x >= 0) & (x <= 1) & (y >= 0) & (y <= 1)
    )
    val = np.where(
        quadrant,
        1.0 - np.maximum(np.abs(x), np.abs(y)),
        1.0 - np.maximum(np.abs(x + y), np.abs(x - y)),
    )
    return np.maximum(val, 0.0)


def lambda_rc(x, y):
    """Right cone over the ellipse x^2 - xy + y^2 = 1."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = x * x - x * y + y * y
    return np.maximum(1.0 - np.sqrt(np.maximum(q, 0.0)), 0.0)


def _check_c(c):
    if not 0.0 < c < 1.0:
        raise ValueError(f"flat-top parameter c must be in (0, 1), got {c}")


def lambda_rpf(x, y, c=0.51):
    """Right pyramidal frustum: flat inside |x| + |y| + |x - y| = 2c."""
    _check_c(c)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (lambda_rp(x, y) - c * lambda_rp(x / c, y / c)) / (1.0 - c)


def lambda_rcf(x, y, c=0.51):
    """Right conical frustum: flat inside x^2 - xy + y^2 = c^2."""
    _check_c(c)
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return (lambda_rc(x, y) - c * lambda_rc(x / c, y / c)) / (1.0 - c)


def lambda_opt(x, y):
    """Order-2 "optimal" window 8 J2(alpha)/alpha^2, alpha = 2pi/sqrt(3) * sqrt(x^2 - xy + y^2)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    q = np.maximum(x * x - x * y + y * y, 0.0)
    return _opt_profile(_ALPHA_SCALE * np.sqrt(q))


def opt_truncation_radius(threshold=1e-3) -> float:
    """Quadratic-form radius beyond which |lambda_opt| stays below `threshold`.

    Inverts the envelope 8 sqrt(2/(pi a)) / a^2; the region
    x^2 - xy + y^2 <= r^2 is invariant under all six symmetries.
    """
    alpha = (8.0 * math.sqrt(2.0 / math.pi) / threshold) ** (2.0 / 5.0)
    return alpha / _ALPHA_SCALE


# ---------------------------------------------------------------------------
# 1-D pilot windows
# ---------------------------------------------------------------------------

def _trapezoid_fn(t, c=0.51):
    t = np.abs(np.asarray(t, dtype=float))
    return np.clip((1.0 - t) / (1.0 - c), 0.0, 1.0)


def _parzen_fn(t):
    t = np.abs(np.asarray(t, dtype=float))
    inner = 1.0 - 6.0 * t ** 2 + 6.0 * t ** 3
    outer = 2.0 * (1.0 - t) ** 3
    return np.where(t <= 0.5, inner, np.where(t <= 1.0, outer, 0.0))


def _parzen2d_fn(x, y):
    return _parzen_fn(x) * _parzen_fn(y) * _parzen_fn(np.asarray(y) - np.asarray(x))


# ---------------------------------------------------------------------------
# Window objects
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LagWindow:
    """An evaluable lag-window kernel with its geometry descriptors.

    `order` is the spectral order s it serves (2 -> 1-D argument, 3 -> 2-D).
    `support_radius` bounds the coordinates of the support box in scaled lag
    units (None means unbounded); it alone sets which lags an estimate sums.
    `radial` promises lambda(x, y) = g(sqrt(x^2 - xy + y^2)), so that the
    profile g(r) is lambda(r, 0), since q(r, 0) = r^2.
    `symmetric` promises invariance under `SYMMETRY_MAPS`: an order-3 plan
    then takes the kernel once per orbit of lags, not at each of six images.

    `_memo` holds what depends on the window alone: its lag plans at the
    (M, N) estimates ask for (the `spectra._PLAN_MEMO` most recently used),
    its L2 norm and its curvature at 0.  It takes no part in equality;
    `dataclasses.replace(window)` copies a window cold.
    """

    name: str
    order: int
    fn: object
    flat_top_radius: float = 0.0
    support_radius: float | None = None
    params: dict = field(default_factory=dict)
    symmetric: bool = False
    radial: bool = False
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __call__(self, *coords):
        out = self.fn(*coords)
        if np.ndim(coords[0]) == 0:
            return float(out)
        return out


def _one_window_per_params(factory):
    """`factory`, returning one window per parameter set, so that its memo
    serves every caller: the arguments of a call, bound to the signature
    with the defaults applied, are the key of a `functools.cache`."""
    signature = inspect.signature(factory)
    cached = cache(factory)

    @wraps(factory)
    def shared(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return cached(*bound.args)
    return shared


# A window's `fn` looks its kernel up in this module at each call, so that it
# sees a kernel replaced here (as by a profiler's wrapper).

@_one_window_per_params
def flat_top_rpf(c: float = 0.51) -> LagWindow:
    _check_c(c)
    return LagWindow(
        name="rpf", order=3, fn=lambda x, y: lambda_rpf(x, y, c),
        flat_top_radius=c, support_radius=1.0, params={"c": c}, symmetric=True,
    )


@_one_window_per_params
def flat_top_rcf(c: float = 0.51) -> LagWindow:
    _check_c(c)
    return LagWindow(
        name="rcf", order=3, fn=lambda x, y: lambda_rcf(x, y, c),
        flat_top_radius=c, support_radius=2.0 / _SQRT3, params={"c": c},
        symmetric=True, radial=True,
    )


def _lambda_opt_truncated(x, y, r):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return np.where(x * x - x * y + y * y <= r ** 2, lambda_opt(x, y), 0.0)


@_one_window_per_params
def optimal_window(truncation_radius: float | None = None) -> LagWindow:
    """The order-2 Bessel window `lambda_opt`, of unbounded support.

    With `truncation_radius=r` it is 0 outside the ellipse x^2 - xy + y^2 <= r^2
    (`opt_truncation_radius` picks r from a bound on the dropped tail), and its
    support box is the ellipse's bounding box: `support_radius` = 2/sqrt(3) * r.
    """
    if truncation_radius is None:
        return LagWindow(
            name="opt", order=3, fn=lambda x, y: lambda_opt(x, y),
            flat_top_radius=0.0, support_radius=None, symmetric=True, radial=True,
        )
    r = float(truncation_radius)
    if not r > 0.0:
        raise ValueError(f"truncation radius must be positive, got {truncation_radius}")
    return LagWindow(
        name="opt", order=3, fn=partial(_lambda_opt_truncated, r=r),
        flat_top_radius=0.0, support_radius=2.0 / _SQRT3 * r,
        params={"truncation_radius": r}, symmetric=True, radial=True,
    )


@_one_window_per_params
def trapezoid_window(c: float = 0.51) -> LagWindow:
    _check_c(c)
    return LagWindow(
        name="trapezoid", order=2, fn=lambda t: _trapezoid_fn(t, c),
        flat_top_radius=c, support_radius=1.0, params={"c": c},
    )


@_one_window_per_params
def parzen_window() -> LagWindow:
    return LagWindow(
        name="parzen", order=2, fn=lambda t: _parzen_fn(t),
        flat_top_radius=0.0, support_radius=1.0,
    )


@_one_window_per_params
def parzen_window_2d() -> LagWindow:
    return LagWindow(
        name="parzen2d", order=3, fn=lambda x, y: _parzen2d_fn(x, y),
        flat_top_radius=0.0, support_radius=1.0, symmetric=True,
    )


# ---------------------------------------------------------------------------
# Symmetrization
# ---------------------------------------------------------------------------

def _combine_mean(vals):
    return np.mean(vals, axis=0)


def _combine_gmean(vals):
    vals = np.asarray(vals)
    if np.any(vals < 0):
        raise ValueError("geometric mean requires nonnegative window values")
    return np.prod(vals, axis=0) ** (1.0 / len(vals))


_COMBINERS = {"mean": _combine_mean, "gmean": _combine_gmean}


def symmetrize(window: LagWindow, combiner="mean") -> LagWindow:
    """Average a 2-D window over its six symmetry images.

    The result satisfies the cumulant symmetry relations at every point for
    any symmetric 6-ary combiner (arithmetic and geometric mean built in).
    """
    if window.order != 3:
        raise ValueError("symmetrize applies to order-3 windows")
    g = _COMBINERS.get(combiner, combiner)

    def fn(x, y, _g=g, _w=window.fn):
        vals = [_w(*apply_symmetry(m, np.asarray(x, float), np.asarray(y, float)))
                for m in SYMMETRY_MAPS]
        return _g(np.stack([np.asarray(v, float) for v in vals]))

    support = None if window.support_radius is None else 2.0 * window.support_radius
    return LagWindow(
        name=f"sym({window.name})", order=3, fn=fn,
        flat_top_radius=window.flat_top_radius, support_radius=support,
        params=dict(window.params), symmetric=True,
    )


def symmetrize_even_1d(window: LagWindow, combiner="gmean") -> LagWindow:
    """Lift an even 1-D window to a symmetric 2-D one via h(l(x), l(y), l(y-x)).

    Only the geometric mean keeps the support box of `window`; a lift by any
    other combiner has unbounded support, so its estimates sum every lag.
    """
    if window.order != 2:
        raise ValueError("expected a 1-D (order-2) window")
    g = _COMBINERS.get(combiner, combiner)

    def fn(x, y, _g=g, _w=window.fn):
        x = np.asarray(x, float)
        y = np.asarray(y, float)
        return _g(np.stack([np.asarray(_w(x), float),
                            np.asarray(_w(y), float),
                            np.asarray(_w(y - x), float)]))

    # a geometric mean vanishes where one factor does, so that lift keeps the
    # box of `window`; the arithmetic mean is at least w(0)/3 on the whole
    # line y = 0, and other combiners are not known to vanish there
    support = window.support_radius if combiner == "gmean" else None
    return LagWindow(
        name=f"sym1d({window.name})", order=3, fn=fn,
        flat_top_radius=window.flat_top_radius, support_radius=support,
        params=dict(window.params), symmetric=True,
    )


# ---------------------------------------------------------------------------
# Flat-top axiom checks
# ---------------------------------------------------------------------------

@dataclass
class FlatTopReport:
    window: str
    b: float
    flat_ok: bool
    bounded_ok: bool
    violations: list

    @property
    def passed(self) -> bool:
        return self.flat_ok and self.bounded_ok


def validate_flat_top(window: LagWindow, grid_step=0.01, b=None, sector=False,
                      bound_radius=None, tol=1e-9) -> FlatTopReport:
    """Check conditions (i) and (ii) on a sampled grid; report, never raise.

    Condition (i): lambda = 1 on the Euclidean ball of radius b (optionally
    restricted to the sector 0 <= y <= x, where the frustum windows are
    flat up to radius c).  Condition (ii): |lambda| <= 1 everywhere sampled.
    """
    if b is None:
        b = window.flat_top_radius
    R = bound_radius if bound_radius is not None else (window.support_radius or 3.0)
    ax = np.arange(-R, R + grid_step / 2, grid_step)
    violations = []
    if window.order == 2:
        vals = np.asarray(window.fn(ax), float)
        bounded_ok = bool(np.all(np.abs(vals) <= 1.0 + tol))
        for t in ax[np.abs(vals) > 1.0 + tol][:20]:
            violations.append((float(t), None, float(window.fn(t)), "bound"))
        flat_mask = np.abs(ax) <= b
        flat_ok = b > 0 and bool(np.all(np.abs(vals[flat_mask] - 1.0) <= tol))
        for t in ax[flat_mask & (np.abs(vals - 1.0) > tol)][:20]:
            violations.append((float(t), None, float(window.fn(t)), "flat"))
        return FlatTopReport(window.name, b, flat_ok, bounded_ok, violations)

    X, Y = np.meshgrid(ax, ax, indexing="ij")
    vals = np.asarray(window.fn(X, Y), float)
    bad = np.abs(vals) > 1.0 + tol
    bounded_ok = bool(~bad.any())
    for x, y, v in zip(X[bad][:20], Y[bad][:20], vals[bad][:20]):
        violations.append((float(x), float(y), float(v), "bound"))
    flat_mask = X * X + Y * Y <= b * b
    if sector:
        flat_mask &= (Y >= 0) & (Y <= X)
    bad_flat = flat_mask & (np.abs(vals - 1.0) > tol)
    flat_ok = b > 0 and bool(~bad_flat.any())
    for x, y, v in zip(X[bad_flat][:20], Y[bad_flat][:20], vals[bad_flat][:20]):
        violations.append((float(x), float(y), float(v), "flat"))
    return FlatTopReport(window.name, b, flat_ok, bounded_ok, violations)


# ---------------------------------------------------------------------------
# Numeric window constants for the plug-in bandwidth formula
# ---------------------------------------------------------------------------

def _simpson(y, dx):
    n = len(y)
    if n % 2 == 0:
        raise ValueError("simpson needs an odd sample count")
    return dx / 3.0 * (y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-2:2].sum())


# integration extent for the non-compact optimal window: the tail of the
# squared L2 integral beyond quadratic-form radius 60 is 2.5e-7 of it, so
# window_l2_norm(optimal_window()) reads 1.2e-7 (relative) below the closed
# form sqrt(8 / (sqrt(3) pi)), from int_0^inf J2(t)^2 t^-3 dt = 1/24
_OPT_L2_RADIUS = 60.0

# rows of the 1601-point grid per window evaluation in the 2-D L2 norm
_L2_GRID_ROWS = 16


def window_l2_norm(window: LagWindow) -> float:
    """L2 norm of the window over its lag space, computed numerically once
    per window and memoized on it."""
    cached = window._memo.get("l2")
    if cached is not None:
        return cached
    if window.order == 2:
        R = window.support_radius or _OPT_L2_RADIUS
        n = 40001
        t = np.linspace(-R, R, n)
        val = _simpson(np.asarray(window.fn(t), float) ** 2, t[1] - t[0])
    elif window.radial:
        # lambda = g(sqrt(q)): integral reduces to (4pi/sqrt(3)) int g(r)^2 r dr
        R = window.support_radius if window.support_radius is not None else _OPT_L2_RADIUS
        r = np.linspace(0.0, R, 80001)
        g = evaluate_blockwise(lambda x: window.fn(x, 0.0), r)
        val = 4.0 * math.pi / _SQRT3 * _simpson(g ** 2 * r, r[1] - r[0])
    else:
        R = window.support_radius
        if R is None:
            raise ValueError("cannot integrate an unbounded window that is not radial")
        ax = np.linspace(-R, R, 1601)
        dx = ax[1] - ax[0]
        # Simpson's rule along each row of the grid, then across the rows,
        # evaluating the window on a block of rows at a time
        rows = []
        for i in range(0, ax.size, _L2_GRID_ROWS):
            X, Y = np.meshgrid(ax[i:i + _L2_GRID_ROWS], ax, indexing="ij")
            sq = np.asarray(window.fn(X, Y), float) ** 2
            rows.extend(_simpson(row, dx) for row in sq)
        val = _simpson(np.array(rows), dx)
    result = window._memo["l2"] = math.sqrt(val)
    return result


def window_curvature_at_zero(window: LagWindow) -> float:
    """Second partial of the window along its first lag axis at the origin,
    a central difference of step h = 1e-4, memoized on the window."""
    cached = window._memo.get("d2")
    if cached is not None:
        return cached
    h = 1e-4
    if window.order == 2:
        val = (float(window.fn(h)) - 2.0 * float(window.fn(0.0)) + float(window.fn(-h))) / h ** 2
    else:
        val = (float(window.fn(h, 0.0)) - 2.0 * float(window.fn(0.0, 0.0))
               + float(window.fn(-h, 0.0))) / h ** 2
    window._memo["d2"] = val
    return val


# ---------------------------------------------------------------------------
# Name-based construction (CLI)
# ---------------------------------------------------------------------------

_FACTORIES = {
    "rpf": flat_top_rpf,
    "rcf": flat_top_rcf,
    "opt": optimal_window,
    "trapezoid": trapezoid_window,
    "parzen": parzen_window,
    "parzen2d": parzen_window_2d,
}


def parse_window(spec: str) -> LagWindow:
    """Build a window from a name + parameter string, e.g. 'rpf:c=0.51'."""
    name, _, rest = spec.partition(":")
    name = name.strip().lower()
    if name not in _FACTORIES:
        raise ValueError(f"unknown window '{name}' (choose from {sorted(_FACTORIES)})")
    kwargs = {}
    if rest:
        for item in rest.split(","):
            k, _, v = item.partition("=")
            if not _:
                raise ValueError(f"malformed window parameter '{item}'")
            kwargs[k.strip()] = float(v)
    takes = list(inspect.signature(_FACTORIES[name]).parameters)
    for k in kwargs:
        if k not in takes:
            raise ValueError(f"window '{name}' has no parameter '{k}' "
                             f"(it takes {', '.join(takes) or 'none'})")
    return _FACTORIES[name](**kwargs)
