import functools
import itertools
import math
import tracemalloc
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flattopspec import (
    DegenerateSeriesError,
    ModelSpec,
    OrderError,
    TimeSeries,
    bootstrap_threshold,
    central_moment_estimate,
    estimate_spectrum,
    generate,
    lex_point,
    normalized_cumulant,
    optimal_window,
    parzen_window,
    plugin_bandwidth,
    plugin_formula,
    select_bandwidth_bispectrum,
    select_bandwidth_general,
    trapezoid_window,
)
from flattopspec import bandwidth, spectra
from flattopspec.cumulants import _rho_scale
from flattopspec.spectra import BispectrumLagCache
from lag_oracles import DirectCumulant, six_image_lag


@dataclass(frozen=True)
class AnnulusSpec:
    """Half-open annulus inner <= ||tau|| < outer in the lag plane (or line):
    the general rule's annuli, rebuilt lag by lag as an oracle."""

    inner: float
    outer: float
    norm: str = "euclidean"

    def __post_init__(self):
        if not 0 <= self.inner < self.outer:
            raise ValueError("annulus needs 0 <= inner < outer")
        if self.norm not in ("euclidean", "sup"):
            raise ValueError(f"unknown norm '{self.norm}'")

    def lag_norm(self, t1, t2=None):
        if t2 is None:
            return abs(t1)
        if self.norm == "sup":
            return max(abs(t1), abs(t2))
        return math.hypot(t1, t2)

    def contains(self, t1, t2=None) -> bool:
        r = self.lag_norm(t1, t2)
        return self.inner <= r < self.outer

    def integer_lags(self, dim: int):
        """All nonzero integer lags inside the annulus (positive half-line for dim 1)."""
        if dim == 1:
            lo = int(math.ceil(self.inner))
            hi = int(math.ceil(self.outer))
            return [(t,) for t in range(max(lo, 1), hi) if self.contains(t)]
        R = int(math.ceil(self.outer))
        out = []
        for t1 in range(-R, R + 1):
            for t2 in range(-R, R + 1):
                if (t1, t2) != (0, 0) and self.contains(t1, t2):
                    out.append((t1, t2))
        return out


def lex_index(point) -> int:
    """Inverse of lex_point; raises if the point is not in the enumeration."""
    i, j = point
    if (i, j) == (1, 0):
        return 1
    if not 0 < j < i:
        raise ValueError(f"{point} is not an interior lex point")
    return (i * i - 3 * i) // 2 + 2 + j


def brute_force_lex(count):
    pts = [(1, 0)]
    i = 2
    while len(pts) < count:
        for j in range(1, i):
            pts.append((i, j))
        i += 1
    return pts[:count]


def ma2_series(N, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    z = rng.standard_normal(N + 2)
    return TimeSeries(z[2:] + z[1:-1] + z[:-2])


class TestAnnulus:
    def test_invariants(self):
        with pytest.raises(ValueError):
            AnnulusSpec(3, 2)
        with pytest.raises(ValueError):
            AnnulusSpec(1, 2, norm="manhattan")

    def test_half_open_membership(self):
        ann = AnnulusSpec(2, 4)
        assert ann.contains(2)
        assert not ann.contains(4)
        assert ann.contains(3, 1)
        assert not ann.contains(4, 0)

    def test_sup_norm(self):
        ann = AnnulusSpec(2, 4, norm="sup")
        assert ann.contains(3, 3)
        assert not AnnulusSpec(2, 4).contains(3, 3)

    def test_integer_lags_1d(self):
        assert AnnulusSpec(2, 5).integer_lags(1) == [(2,), (3,), (4,)]

    def test_integer_lags_2d_excludes_origin(self):
        lags = AnnulusSpec(0.5, 2).integer_lags(2)
        assert (0, 0) not in lags
        assert (1, 0) in lags and (-1, -1) in lags


class TestLagsByNorm:
    """The general rule's ordered lag list, built at once or grown by rings."""

    @pytest.mark.parametrize("dim,norm", [(1, "euclidean"), (1, "sup"),
                                          (2, "euclidean"), (2, "sup")])
    def test_one_shot_is_the_sorted_annulus(self, dim, norm):
        for R in (0, 1, 2, 3, 7, 12):
            lags, keys = bandwidth._lags_by_norm(R, dim, norm)
            want = sorted(AnnulusSpec(0, R, norm).integer_lags(dim) if R else [],
                          key=lambda tau: sort_key(tau, norm))
            assert [tuple(t) for t in lags.tolist()] == want
            assert keys.tolist() == [sort_key(t, norm)[0] if dim == 2 else t[0]
                                     for t in want]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([(1, "euclidean"), (1, "sup"), (2, "euclidean"), (2, "sup")]),
           st.lists(st.integers(0, 60), min_size=1, max_size=6))
    def test_rings_grow_the_one_shot_list(self, case, radii):
        # R0 = 0 < radii[0] < radii[1] < ...: the rings appended in turn are
        # the list built at once, lags and keys, dtype too
        dim, norm = case
        radii = sorted(set(radii))
        rings = [bandwidth._lags_by_norm(R, dim, norm, R0)
                 for R0, R in zip([0, *radii], radii)]
        lags, keys = bandwidth._lags_by_norm(radii[-1], dim, norm)
        grown = np.concatenate([r[0] for r in rings])
        assert grown.dtype == lags.dtype == np.int32
        np.testing.assert_array_equal(grown, lags)
        np.testing.assert_array_equal(np.concatenate([r[1] for r in rings]), keys)


class TestLexPoints:
    def test_printed_values(self):
        assert [lex_point(n) for n in range(1, 6)] == [
            (1, 0), (2, 1), (3, 1), (3, 2), (4, 1)]

    def test_matches_enumeration_small(self):
        pts = brute_force_lex(500)
        assert [lex_point(n) for n in range(1, 501)] == pts

    def test_monotone_lexicographic(self):
        seq = [lex_point(n) for n in range(1, 300)]
        assert seq[1:] == sorted(seq[1:])

    def test_no_boundary_points_after_first(self):
        for n in range(2, 2000):
            i, j = lex_point(n)
            assert 0 < j < i

    def test_inverse(self):
        for n in (1, 2, 17, 123, 4567):
            assert lex_index(lex_point(n)) == n
        with pytest.raises(ValueError):
            lex_index((3, 0))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            lex_point(0)

    def test_interior_orbits_of_the_store_in_packed_order(self):
        # the bispectrum rule reads P_2, P_3, ... off the store's rows as its
        # orbits 0 < b < a, in packed order
        a, b = spectra._row_orbits(0, 143)  # (143 - 1)(143 - 2)/2 = 10,011 points
        inner = (0 < b) & (b < a)
        assert [lex_point(n) for n in range(2, 10_001)] == list(
            zip(a[inner].tolist(), b[inner].tolist()))[:9999]


@functools.lru_cache(maxsize=None)
def annulus_lags(m, a_N, norm, dim):
    return AnnulusSpec(m, m + a_N, norm).integer_lags(dim)


def brute_force_general(series, order, k, a_N, norm, cap=None):
    """The general rule as a scan of every annulus, rebuilt lag by lag for
    each m; returns (m_hat, cap_hit, threshold, rho)."""
    N = series.n
    thr = k * math.sqrt(math.log(N) / math.log(10.0) / N)
    if cap is None:
        cap = max(1, N // 4)
    memo: dict = {}
    if order == 3:
        cumulant = DirectCumulant(series)
        denom = _rho_scale(central_moment_estimate(series, (0,)), 3)

    def rho(tau):
        if tau not in memo:
            memo[tau] = (cumulant(*six_image_lag(*tau)) / denom
                         if order == 3 else normalized_cumulant(series, tau))
        return memo[tau]

    for m in range(1, cap + 1):
        if all(abs(rho(tau)) < thr for tau in annulus_lags(m, a_N, norm, order - 1)):
            return m, False, thr, rho
    return cap, True, thr, rho


def sort_key(tau, norm):
    """Order in which the rule looks for a witness: norm, then lexicographic."""
    if len(tau) == 1:
        return tau
    size = max(map(abs, tau)) if norm == "sup" else tau[0] ** 2 + tau[1] ** 2
    return (size,) + tau


def oracle_series(model, N):
    if model == "ma2":
        return ma2_series(N, N)
    return generate(ModelSpec(kind=model, seed=3), N)


class TestGeneralRuleOracle:
    @pytest.mark.filterwarnings("ignore:bandwidth selection stopped")
    @pytest.mark.parametrize("model", ["iid-chisq1", "arma11", "ma2"])
    def test_matches_annulus_scan(self, model):
        cap_hits = {2: 0, 3: 0}
        grid = itertools.product((50, 200, 400), (2, 3), ("euclidean", "sup"),
                                 (0.5, 2.0, 6.0), (1, 5), (None, 8))
        for N, order, norm, k, a_N, cap in grid:
            case = (N, order, norm, k, a_N, cap)
            s = oracle_series(model, N)
            sel = select_bandwidth_general(s, order=order, k=k, a_N=a_N,
                                           norm=norm, cap=cap)
            m_hat, cap_hit, thr, rho = brute_force_general(s, order, k, a_N, norm, cap)
            assert (sel.m_hat, sel.cap_hit) == (m_hat, cap_hit), case
            assert sel.M_hat == m_hat / 0.51, case
            assert sel.thresholds["value"] == thr, case
            cap_hits[order] += cap_hit
            # one witness per blocked annulus, in increasing m
            assert len(sel.trace) == (m_hat if cap_hit else m_hat - 1), case
            for m, (tau, r) in enumerate(sel.trace, start=1):
                assert AnnulusSpec(m, m + a_N, norm).contains(*tau), case
                assert abs(r) >= thr, case
                assert r == rho(tau), case
                # the witness is the annulus's first exceedance
                first = sort_key(tau, norm)
                assert all(abs(rho(u)) < thr
                           for u in annulus_lags(m, a_N, norm, order - 1)
                           if sort_key(u, norm) < first), case
        assert cap_hits[2] and cap_hits[3]

    @pytest.mark.filterwarnings("ignore:bandwidth selection stopped")
    @pytest.mark.parametrize("norm", ["euclidean", "sup"])
    def test_matches_annulus_scan_over_thousands_of_orbits(self, norm):
        # three growths of the lag list, to radius 12, 24 and 45: 6,348 lags
        # in 1,631 orbits (7,920 and 2,024 in the sup norm), all scanned
        s = generate(ModelSpec(kind="iid-chisq1", seed=3), 1000)
        sel = select_bandwidth_general(s, order=3, norm=norm, cap=40)
        m_hat, cap_hit, thr, rho = brute_force_general(s, 3, 2.0, 5, norm, 40)
        assert (sel.m_hat, sel.cap_hit, sel.thresholds["value"]) == (m_hat, cap_hit, thr)
        assert len(sel.trace) == (m_hat if cap_hit else m_hat - 1)
        assert len(sel.trace) > 10
        for m, (tau, r) in enumerate(sel.trace, start=1):
            assert AnnulusSpec(m, m + 5, norm).contains(*tau)
            assert abs(r) >= thr
            assert r == rho(tau)
            first = sort_key(tau, norm)
            assert all(abs(rho(u)) < thr for u in annulus_lags(m, 5, norm, 2)
                       if sort_key(u, norm) < first)


class TestGeneralRuleTrace:
    @pytest.mark.filterwarnings("ignore:bandwidth selection stopped")
    @pytest.mark.parametrize("model,seed,order", [("garch11", 2, 2),
                                                  ("iid-chisq1", 0, 3)])
    def test_repeated_witness_is_one_entry(self, model, seed, order):
        # a witness that blocks several annuli is the same tuple each time, so
        # a kept selection holds one entry per distinct witness
        s = generate(ModelSpec(kind=model, seed=seed), 400)
        sel = select_bandwidth_general(s, order=order)
        repeats = 0
        for prev, entry in zip(sel.trace, sel.trace[1:]):
            if entry == prev:
                assert entry is prev
                repeats += 1
        assert repeats


class TestGeneralRuleWorkingSet:
    """The order-3 rule on iid chi^2_1 series, which stop at the cap, holds a
    bounded working set: rho as one float array, orbits computed in chunks."""

    @pytest.mark.parametrize("N,bound_mb", [(400, 3.0), (2000, 40.0)])
    def test_tracemalloc_peak(self, N, bound_mb):
        s = generate(ModelSpec(kind="iid-chisq1", seed=0), N)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            select_bandwidth_general(s, order=3, cap=2)  # imports
            tracemalloc.start()
            try:
                sel = select_bandwidth_general(s, order=3)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert sel.cap_hit
        assert peak <= bound_mb * 1e6


class TestOneVariance:
    """The order-3 rules normalize by the C(0) of `normalized_cumulant`."""

    @pytest.mark.parametrize("model", ["iid-chisq1", "arma11", "garch11", "bilinear"])
    def test_rule_scale_is_that_of_normalized_cumulant(self, model):
        # a cumulant divided by the rules' C(0)^(3/2) is its normalized
        # cumulant, bit for bit, on seeds 0-9 at every lag of max(|t1|, |t2|)
        # <= 3
        lags = list(itertools.product(range(-3, 4), repeat=2))
        for seed in range(10):
            s = generate(ModelSpec(kind=model, seed=seed), 400)
            denom = _rho_scale(central_moment_estimate(s, (0,)), 3)
            assert [central_moment_estimate(s, lag) / denom for lag in lags] == [
                normalized_cumulant(s, lag) for lag in lags], seed

    @pytest.mark.parametrize("model", ["iid-chisq1", "arma11", "garch11", "bilinear"])
    def test_rules_rho_is_normalized_cumulant(self, model):
        # the rules' rho, a store cumulant over C(0)^(3/2), is
        # `normalized_cumulant` bit for bit: both multiply the three factors
        # in one order, on seeds 0-9 at every lag of max(|t1|, |t2|) <= 4
        lags = list(itertools.product(range(-4, 5), repeat=2))
        T1, T2 = np.array(lags).T
        for seed in range(10):
            s = generate(ModelSpec(kind=model, seed=seed), 400)
            cache = BispectrumLagCache(s)
            rho = cache.cumulants(T1, T2) / _rho_scale(central_moment_estimate(s, (0,)), 3)
            assert rho.tolist() == [normalized_cumulant(s, lag) for lag in lags], seed


class TestGeneralRule:
    def test_ma2_stops_after_support(self):
        sel = select_bandwidth_general(ma2_series(5000, 1), order=2)
        assert sel.m_hat == 3
        assert sel.M_hat == pytest.approx(3 / 0.51)
        assert not sel.cap_hit

    def test_monotone_in_k(self):
        s = ma2_series(2000, 2)
        m_small = select_bandwidth_general(s, k=0.5).m_hat
        m_big = select_bandwidth_general(s, k=4.0).m_hat
        assert m_big <= m_small

    def test_scale_invariance(self):
        rng = np.random.Generator(np.random.Philox(3))
        x = rng.standard_normal(800)
        a = select_bandwidth_general(TimeSeries(x), order=3)
        b = select_bandwidth_general(TimeSeries(250.0 * x), order=3)
        assert a.m_hat == b.m_hat

    def test_constant_series_degenerate(self):
        with pytest.raises(DegenerateSeriesError):
            select_bandwidth_general(TimeSeries(np.ones(100)))

    @pytest.mark.parametrize("exponent", [300, -300])
    def test_order_2_extreme_scale_is_degenerate_without_warning(self, exponent):
        # C(0)^2 over- or underflows as a Python float, silently, and the rule
        # raises before it computes any rho
        x = np.ldexp(generate(ModelSpec("garch11", seed=3), 400).values, exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSeriesError):
                select_bandwidth_general(TimeSeries(x), order=2)

    def test_cap_flagged_not_raised(self):
        # strongly periodic data never drops below the threshold
        t = np.arange(400)
        s = TimeSeries(np.cos(0.3 * t) + 0.01 * np.sin(1.7 * t))
        with pytest.warns(UserWarning, match="stopped at its search cap"):
            sel = select_bandwidth_general(s, cap=8)
        assert sel.cap_hit
        assert sel.m_hat == 8
        # a quadratic trend keeps every third-order lag correlated
        trend = TimeSeries(t.astype(float) ** 2)
        with pytest.warns(UserWarning, match="stopped at its search cap"):
            sel = select_bandwidth_bispectrum(trend, cap=8)
        assert sel.cap_hit
        assert sel.m_hat == 8

    def test_cap_warnings_point_at_the_caller(self):
        t = np.arange(400)
        periodic = TimeSeries(np.cos(0.3 * t) + 0.01 * np.sin(1.7 * t))
        trend = TimeSeries(t.astype(float) ** 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            select_bandwidth_general(periodic, cap=8)
            select_bandwidth_general(trend, order=3, cap=8)
            select_bandwidth_bispectrum(trend, cap=8)
        assert [w.category for w in caught] == [UserWarning] * 3
        assert [w.filename for w in caught] == [__file__] * 3

    def test_trace_records_inspections(self):
        sel = select_bandwidth_general(ma2_series(1000, 4), order=2)
        assert sel.trace
        lags = [t for t, _ in sel.trace]
        assert all(isinstance(t, tuple) for t in lags)

    def test_log_base_switch(self):
        s = ma2_series(3000, 5)
        m10 = select_bandwidth_general(s, log_base=10.0).m_hat
        me = select_bandwidth_general(s, log_base=math.e).m_hat
        # natural-log threshold is larger, so it can only stop sooner
        assert me <= m10

    def test_parameter_validation(self):
        s = ma2_series(200, 6)
        with pytest.raises(ValueError):
            select_bandwidth_general(s, k=-1.0)
        with pytest.raises(ValueError):
            select_bandwidth_general(s, order=4)


class TestCap:
    """The scan rules' cap is an integer >= 1, by default floor(N/4) or 1, and
    the plug-in rule's a positive, finite number; any other raises."""

    SCAN_RULES = [functools.partial(select_bandwidth_general, order=2),
                  functools.partial(select_bandwidth_general, order=3),
                  select_bandwidth_bispectrum]

    @pytest.mark.parametrize("rule", SCAN_RULES, ids=["general-2", "general-3", "bispectrum"])
    @pytest.mark.parametrize("cap", [0, -3, 2.5])
    def test_scan_rules_reject_cap(self, rule, cap):
        s = generate(ModelSpec(kind="arma11", seed=0), 400)
        with pytest.raises(ValueError, match="cap"):
            rule(s, cap=cap)

    @pytest.mark.parametrize("cap", [0, 0.0, -1.0, math.nan, math.inf])
    def test_plugin_rejects_cap(self, cap):
        s = generate(ModelSpec(kind="arma11", seed=0), 400)
        with pytest.raises(ValueError, match="cap"):
            plugin_bandwidth(optimal_window(), s, [(0.0, 0.0)], calibrate=False, cap=cap)

    @pytest.mark.filterwarnings("ignore:bandwidth selection stopped")
    @pytest.mark.parametrize("rule", SCAN_RULES, ids=["general-2", "general-3", "bispectrum"])
    @pytest.mark.parametrize("N", [2, 3, 4, 9, 400])
    def test_default_cap_is_quarter_of_N_at_least_one(self, rule, N):
        # the default, floor(N/4) given as a Python or a numpy integer, and
        # max(1, N // 4) select alike, bit for bit
        s = generate(ModelSpec(kind="iid-chisq1", seed=0), N)
        sels = [rule(s, cap=cap) for cap in (None, max(1, N // 4), np.int64(max(1, N // 4)))]
        assert repr(sels[0]) == repr(sels[1]) == repr(sels[2])


def brute_force_bispectrum(series, k1=2.0, k2=2.0, L=5, cap=None):
    """The bispectrum rule as a per-point scan: window m examines P_{m+1},
    ..., P_{m+L} in order up to its first exceedance, each rho computed once
    per point; returns (m_hat, cap_hit, base, trace)."""
    N = series.n
    base = math.sqrt(math.log(N) / N)
    if cap is None:
        cap = max(1, N // 4)
    cumulant = DirectCumulant(series)
    denom = _rho_scale(central_moment_estimate(series, (0,)), 3)
    rho_cache: dict = {}

    def rho(n):
        if n not in rho_cache:
            rho_cache[n] = cumulant(*six_image_lag(*lex_point(n))) / denom
        return rho_cache[n]

    trace = []
    for m in range(1, cap + 1):
        ok = True
        for ell in range(1, L + 1):
            point = lex_point(m + ell)
            ktil = k1 if point == (1, 0) else k2
            r = rho(m + ell)
            trace.append((point, r))
            if abs(r) >= ktil * base:
                ok = False
                break
        if ok:
            return m, False, base, trace
    return cap, True, base, trace


class TestBispectrumRuleOracle:
    @pytest.mark.filterwarnings("ignore:bandwidth selection stopped")
    @pytest.mark.parametrize("model", ["iid-chisq1", "arma11", "garch11", "bilinear"])
    def test_matches_per_point_scan(self, model):
        cap_hits = 0
        grid = itertools.product((50, 200, 400), (1, 2, 5), (0.5, 2.0, 6.0), (None, 3))
        for N, L, k2, cap in grid:
            case = (N, L, k2, cap)
            s = generate(ModelSpec(kind=model, seed=3), N)
            sel = select_bandwidth_bispectrum(s, k2=k2, L=L, cap=cap)
            m_hat, cap_hit, base, trace = brute_force_bispectrum(s, k2=k2, L=L, cap=cap)
            assert (sel.m_hat, sel.cap_hit) == (m_hat, cap_hit), case
            assert sel.M_hat == math.floor(lex_point(m_hat)[0] / 0.51), case
            assert sel.thresholds == {"k1": 2.0, "k2": k2, "base": base}, case
            assert len(sel.trace) == len(trace), case
            for got, want in zip(sel.trace, trace):
                assert got == want, case
            cap_hits += cap_hit
        assert cap_hits

    @pytest.mark.filterwarnings("ignore:bandwidth selection stopped")
    def test_k1_never_affects_a_selection(self):
        # the scan starts at P_2, so the boundary point P_1 = (1, 0) is never
        # examined
        for model in ("iid-chisq1", "garch11", "bilinear"):
            s = generate(ModelSpec(kind=model, seed=1), 200)
            a = select_bandwidth_bispectrum(s, k1=1e-6, k2=1.0)
            b = select_bandwidth_bispectrum(s, k1=1e6, k2=1.0)
            assert (a.m_hat, a.trace) == (b.m_hat, b.trace)
            assert (1, 0) not in [p for p, _ in a.trace]


class TestBispectrumRule:
    def test_white_noise_selects_first_point(self):
        rng = np.random.Generator(np.random.Philox(7))
        s = TimeSeries(rng.standard_normal(2000))
        sel = select_bandwidth_bispectrum(s)
        assert sel.m_hat == 1
        assert sel.M_hat == math.floor(1 / 0.51)

    def test_bandwidth_parity_follows_b(self):
        # floor(i / 0.51) is odd over the practical range; floor(i / 0.5) even
        for i in range(1, 26):
            assert math.floor(i / 0.51) % 2 == 1
            assert math.floor(i / 0.5) % 2 == 0

    def test_trace_avoids_boundary_points(self):
        rng = np.random.Generator(np.random.Philox(8))
        s = TimeSeries(rng.standard_normal(500) ** 2)
        sel = select_bandwidth_bispectrum(s)
        for point, _ in sel.trace:
            assert point == (1, 0) or (0 < point[1] < point[0])

    def test_separate_thresholds(self):
        rng = np.random.Generator(np.random.Philox(9))
        s = TimeSeries(rng.standard_normal(500) ** 2)
        a = select_bandwidth_bispectrum(s, k1=2.0, k2=2.0)
        b = select_bandwidth_bispectrum(s, k1=2.0, k2=50.0)
        assert b.m_hat <= a.m_hat

    def test_validation(self):
        s = TimeSeries(np.arange(50, dtype=float))
        with pytest.raises(ValueError):
            select_bandwidth_bispectrum(s, L=0)


class TestBandwidthAtLeastOne:
    """M_hat is m_hat / b for the general rule and floor(i / b) for the
    bispectrum rule, with m_hat and i at least 1, so it is never below 1 for
    b in (0, 1], at the search cap too (inf where i / b overflows)."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2 ** 32 - 1), N=st.integers(12, 120),
           b=st.floats(0.0, 1.0, exclude_min=True), k=st.floats(0.05, 20.0),
           cap=st.one_of(st.none(), st.integers(1, 6)))
    @example(seed=0, N=100, b=1.0, k=0.05, cap=3)  # all three stop at the cap
    @example(seed=0, N=100, b=5e-324, k=0.05, cap=3)
    def test_scan_rules_give_at_least_one(self, seed, N, b, k, cap):
        s = TimeSeries(np.random.default_rng(seed).standard_normal(N) ** 2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a selection at its cap
            sels = [select_bandwidth_general(s, order=2, k=k, b=b, cap=cap),
                    select_bandwidth_general(s, order=3, k=k, b=b, cap=cap),
                    select_bandwidth_bispectrum(s, k2=k, b=b, cap=cap)]
        for sel in sels:
            assert sel.M_hat >= 1.0, sel


def bootstrap_threshold_modulo(series, tau0, block_length=None, B=500, seed=None):
    """The circular block bootstrap with every resample index taken mod N,
    element by element, and each replicate's rho `normalized_cumulant` of
    that replicate alone."""
    taus = (int(tau0),) if np.ndim(tau0) == 0 else tuple(int(t) for t in tau0)
    x = series.values
    N = series.n
    if block_length is None:
        block_length = int(math.ceil(N ** (1.0 / 3.0)))
    rng = np.random.Generator(np.random.Philox(seed))
    n_blocks = -(-N // block_length)
    starts = rng.integers(0, N, size=(B, n_blocks))
    idx = (starts[:, :, None] + np.arange(block_length)) % N
    xb = x[idx.reshape(B, -1)[:, :N]]
    rhos = [normalized_cumulant(TimeSeries(row), taus) for row in xb]
    sigma_hat = math.sqrt(N) * float(np.std(rhos, ddof=1))
    return sigma_hat, 2.0 * sigma_hat


class TestBootstrap:
    def test_white_noise_sigma_near_one(self):
        rng = np.random.Generator(np.random.Philox(10))
        s = TimeSeries(rng.standard_normal(2000))
        sigma, k = bootstrap_threshold(s, (3,), seed=0)
        assert 0.5 <= sigma <= 2.0
        assert k == pytest.approx(2 * sigma)

    def test_replicate_count_stability(self):
        rng = np.random.Generator(np.random.Philox(11))
        s = TimeSeries(rng.standard_normal(1500))
        _, k1 = bootstrap_threshold(s, (6, 3), B=500, seed=1)
        _, k2 = bootstrap_threshold(s, (6, 3), B=1000, seed=2)
        assert abs(k2 - k1) / k1 < 0.10

    def test_short_series_rejected(self):
        s = TimeSeries(np.arange(8, dtype=float))
        with pytest.raises(ValueError):
            bootstrap_threshold(s, (1,), block_length=5)

    def test_seeded_reproducibility(self):
        rng = np.random.Generator(np.random.Philox(12))
        s = TimeSeries(rng.standard_normal(600))
        assert bootstrap_threshold(s, (3, 0), seed=5) == bootstrap_threshold(
            s, (3, 0), seed=5)

    def test_minimum_replicates(self):
        s = TimeSeries(np.random.default_rng(0).normal(size=300))
        with pytest.raises(ValueError):
            bootstrap_threshold(s, (3,), B=10)

    def test_lag_beyond_series_rejected_before_resampling(self, monkeypatch):
        s = TimeSeries(np.random.default_rng(1).normal(size=50))

        def no_draws(*args, **kwargs):
            raise AssertionError("resamples drawn for a lag the series cannot hold")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        for tau0 in (50, (50,), (3, 50), (200, 0)):
            with pytest.raises(ValueError, match="exceeds the series length"):
                bootstrap_threshold(s, tau0, seed=0)

    @pytest.mark.parametrize("N", [50, 401])
    @pytest.mark.parametrize("block_length", [None, 1, 5, 7, 25])
    @pytest.mark.parametrize("B", [100, 133, 500])
    def test_matches_elementwise_gather(self, N, block_length, B):
        # block lengths 1, 5 and 25 divide 50, 7 and ceil(N^(1/3)) (4, 8) do not;
        # only 1 divides 401; at N = 401 the replicates go in chunks of 31,
        # which divides no B
        x = np.random.default_rng(N).standard_normal((N, 2)) ** 2
        for tau0, column in ((3, 0), ((1,), 1), ((3, 0), 0), ((6, 3), 1)):
            s = TimeSeries(x[:, column])
            got = bootstrap_threshold(s, tau0, block_length=block_length, B=B,
                                      seed=B + N)
            want = bootstrap_threshold_modulo(s, tau0, block_length=block_length,
                                              B=B, seed=B + N)
            assert got == want, (tau0, column)

    @pytest.mark.parametrize("scale", [1e110, 1e-110, 2.0 ** 400, 2.0 ** -400],
                             ids=["1e110", "1e-110", "2^400", "2^-400"])
    @pytest.mark.parametrize("tau0", [(3, 0), (6, 3), [(3,), (3, 0)]],
                             ids=["3,0", "6,3", "list"])
    def test_nonfinite_rho_is_degenerate(self, scale, tau0):
        # rho's numerator or var^(3/2) overflows or underflows, so replicates
        # read nan, and a nan k would block nothing; no numpy warning escapes
        s = generate(ModelSpec(kind="garch11", seed=0), 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSeriesError, match="non-finite"):
                bootstrap_threshold(TimeSeries(s.values * scale), tau0, seed=0)

    @pytest.mark.parametrize("scale", [1.0, 1e110, 1e-110, 2.0 ** 300],
                             ids=["1", "1e110", "1e-110", "2^300"])
    def test_order_2_degenerate_where_the_order_2_rule_is(self, scale):
        # C(0) of order 1e220 or 1e-220 is finite, but C(0)^(2/2) formed as
        # sqrt(C(0) * C(0)) is not: both raise, and neither at scale 1
        s = TimeSeries(generate(ModelSpec(kind="garch11", seed=0), 400).values * scale)

        def degenerate(fn):
            try:
                fn()
            except DegenerateSeriesError:
                return True
            return False

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            rule = degenerate(lambda: select_bandwidth_general(s, order=2))
            boot = degenerate(lambda: bootstrap_threshold(s, (3,), seed=0))
        assert rule == boot == (scale != 1.0)

    def test_three_component_lag_rejected(self):
        s = TimeSeries(np.random.default_rng(2).normal(size=100))
        with pytest.raises(OrderError):
            bootstrap_threshold(s, (3, 1, 0), seed=0)
        with pytest.raises(OrderError):
            bootstrap_threshold(s, [(3,), (3, 1, 0)], seed=0)

    @pytest.mark.parametrize("block_length", [50, 200])
    def test_overflowing_scale_is_degenerate(self, block_length):
        # one value of 2e154 among unit ones: a replicate that holds it once
        # has C(0) = inf while the products of rho's numerator at lag 3 stay
        # finite, so its rho read 0 and a finite k came back
        x = np.random.default_rng(0).standard_normal(400)
        x[200] = 2e154
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateSeriesError, match=r"C\(0\)\^\(s/2\) is inf"):
                bootstrap_threshold(TimeSeries(x), (3,), block_length=block_length,
                                    B=100, seed=0)


@st.composite
def lag_list_cases(draw):
    """A series, a block length that divides N or need not, B, and a list of
    1-D and 2-D lags with repeats."""
    N = draw(st.integers(20, 410))
    divisors = [d for d in range(1, N // 2 + 1) if N % d == 0]
    block_length = draw(st.one_of(st.none(), st.sampled_from(divisors),
                                  st.integers(1, N // 2)))
    lag = st.one_of(st.tuples(st.integers(0, N - 1)),
                    st.tuples(st.integers(0, N - 1), st.integers(0, N - 1)))
    pool = draw(st.lists(lag, min_size=1, max_size=4))
    lags = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    seed = draw(st.integers(0, 2 ** 32))
    x = np.random.default_rng(seed).standard_normal(N) ** 2
    return TimeSeries(x), block_length, draw(st.sampled_from([100, 133, 500])), lags, seed


class TestBootstrapLagList:
    """One call with a list of lags reduces them all from one set of
    resamples, and gives each lag what a call with it alone gives."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(lag_list_cases())
    def test_equals_one_call_per_lag(self, case):
        s, block_length, B, lags, seed = case
        got = bootstrap_threshold(s, lags, block_length=block_length, B=B, seed=seed)
        assert isinstance(got, list) and len(got) == len(lags)
        for lag, pair in zip(lags, got):
            kw = {"block_length": block_length, "B": B, "seed": seed}
            assert pair == bootstrap_threshold(s, lag, **kw), lag
            assert pair == bootstrap_threshold_modulo(s, lag, **kw), lag

    def test_single_lag_keeps_its_return(self):
        s = generate(ModelSpec(kind="arma11", seed=0), 300)
        for tau0 in (3, (3,), [3, 0], (6, 3)):
            sigma, k = bootstrap_threshold(s, tau0, seed=1)
            assert isinstance(sigma, float) and k == 2.0 * sigma
        assert bootstrap_threshold(s, [(3, 0)], seed=1) == [
            bootstrap_threshold(s, (3, 0), seed=1)]

    def test_lag_beyond_series_rejected_before_resampling(self, monkeypatch):
        s = TimeSeries(np.random.default_rng(1).normal(size=50))

        def no_draws(*args, **kwargs):
            raise AssertionError("resamples drawn for a lag the series cannot hold")

        monkeypatch.setattr(np.random, "Philox", no_draws)
        for lags in ([(3, 0), (50,)], [(3,), (6, 3), (2, 50)], [(49, 0), (0, 200)]):
            with pytest.raises(ValueError, match="exceeds the series length"):
                bootstrap_threshold(s, lags, seed=0)

    def test_two_lags_in_the_working_set_of_one(self):
        # the chunked bootstrap of one lag peaks at about 0.69 MB at N = 400
        s = generate(ModelSpec(kind="iid-chisq1", seed=0), 400)
        bootstrap_threshold(s, [(3, 0), (6, 3)], seed=0)  # imports
        tracemalloc.start()
        try:
            bootstrap_threshold(s, [(3, 0), (6, 3)], seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.7e6


class TestPluginFormula:
    def test_sixth_root_identity(self):
        # brace of 1e6 gives exactly 10
        N = 1e6 / math.pi
        M, cap_hit = plugin_formula(N, 1.0, 1.0, 1.0, 1.0, cap=1e9)
        assert M == pytest.approx(10.0, rel=1e-12)
        assert not cap_hit

    def test_scaling_in_n(self):
        M1, _ = plugin_formula(1000, 0.7, 0.3, -2.0, 0.01 + 0.02j, cap=1e9)
        M2, _ = plugin_formula(64 * 1000, 0.7, 0.3, -2.0, 0.01 + 0.02j, cap=1e9)
        assert M2 == pytest.approx(2 * M1, rel=1e-12)

    def test_zero_curvature_returns_cap(self):
        M, cap_hit = plugin_formula(1000, 1.0, 1.0, 1.0, 0.0, cap=250)
        assert M == 250
        assert cap_hit

    def test_nonpositive_product(self):
        with pytest.raises(DegenerateSeriesError):
            plugin_formula(1000, 1.0, 0.0, 1.0, 1.0, cap=250)


class TestPluginBandwidth:
    @pytest.fixture
    def chisq_series(self):
        rng = np.random.Generator(np.random.Philox(13))
        return TimeSeries(rng.standard_normal(2000) ** 2)

    def test_flat_top_pilots_small_bandwidth(self, chisq_series):
        [sel] = plugin_bandwidth(optimal_window(), chisq_series, [(2.0, 1.0)],
                                 pilot="flat-top", seed=0)
        assert sel.rule == "plugin-flat-top"
        assert 0 < sel.M_hat < 50

    def test_second_order_pilots(self, chisq_series):
        [sel] = plugin_bandwidth(optimal_window(), chisq_series, [(0.0, 0.0)],
                                 pilot="second-order")
        assert 0 < sel.M_hat < 50
        assert sel.params["pilot_spectrum_M"] == math.floor(2000 ** 0.2)
        assert sel.params["pilot_bispectrum_M"] == math.floor(2000 ** (1 / 6))

    def test_unknown_pilot(self, chisq_series):
        with pytest.raises(ValueError):
            plugin_bandwidth(optimal_window(), chisq_series, [(0, 0)], pilot="magic")

    @pytest.mark.parametrize("omegas", [(0, 0), [], [(1.0, 2.0, 3.0)]])
    def test_rejects_anything_but_pairs(self, chisq_series, omegas):
        with pytest.raises(ValueError, match="pairs"):
            plugin_bandwidth(optimal_window(), chisq_series, omegas)

    @pytest.mark.parametrize("pilot", ["flat-top", "second-order"])
    @pytest.mark.parametrize("model", ["iid-chisq1", "arma11"])
    def test_many_frequencies_equal_one_call_each(self, pilot, model):
        series = generate(ModelSpec(kind=model, seed=4), 400)
        omegas = [(0.0, 0.0), (2.0, 1.0), (0.0, 0.0), (-0.4, 2.9), (3.5, -1.2),
                  (2.0, 1.0)]
        together = plugin_bandwidth(optimal_window(), series, omegas, pilot=pilot)
        assert len(together) == len(omegas)
        for omega, sel in zip(omegas, together):
            [alone] = plugin_bandwidth(optimal_window(), series, [omega], pilot=pilot)
            assert sel.M_hat == alone.M_hat
            assert sel.m_hat == alone.m_hat
            assert sel.cap_hit == alone.cap_hit
            assert sel.rule == alone.rule == f"plugin-{pilot}"
            assert sel.params == alone.params
            assert sel.params["omega"] == omega

    def test_zero_pilot_spectrum_is_degenerate(self, monkeypatch):
        # a pilot spectrum clamped to 0 reaches `plugin_formula`, which raises
        series = generate(ModelSpec(kind="arma11", seed=4), 400)
        monkeypatch.setattr(bandwidth, "estimate_spectrum", lambda series, window, M, ws: [
            spectra.SpectralEstimate(0.0, (w,), M, window.name, 2, series.n) for w in ws])
        with pytest.raises(DegenerateSeriesError, match="not positive"):
            plugin_bandwidth(optimal_window(), series, [(0.5, 1.0)], pilot="second-order")

    @pytest.mark.parametrize("pilot", ["flat-top", "second-order"])
    def test_pilot_spectrum_lag_terms_computed_once(self, pilot, monkeypatch):
        series = generate(ModelSpec(kind="arma11", seed=4), 400)
        omegas = [(0.0, 0.0), (2.0, 1.0), (-0.4, 2.9)]
        calls = []
        autocumulants = spectra.autocumulants
        monkeypatch.setattr(spectra, "autocumulants",
                            lambda *args: calls.append(args) or autocumulants(*args))
        sels = plugin_bandwidth(optimal_window(), series, omegas, pilot=pilot,
                                calibrate=False)
        assert len(calls) == 1
        # the pilot spectra are `estimate_spectrum`'s, bit for bit
        spec_win = trapezoid_window() if pilot == "flat-top" else parzen_window()
        for (w1, w2), sel in zip(omegas, sels):
            f = [estimate_spectrum(series, spec_win, sel.params["pilot_spectrum_M"], w).value
                 for w in (w1, w2, w1 + w2)]
            assert sel.params["f_product"] == f[0] * f[1] * f[2]
