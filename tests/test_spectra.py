import cmath
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flattopspec import (
    BispectrumLagCache,
    ModelSpec,
    TimeSeries,
    bispectrum_curvature,
    canonical_frequency,
    central_moment_estimate,
    estimate_bispectrum,
    estimate_bispectrum_partial,
    estimate_spectrum,
    flat_top_rcf,
    flat_top_rpf,
    generate,
    lambda_opt,
    lambda_rc,
    lambda_rp,
    optimal_window,
    parzen_window,
    symmetrize,
    symmetrize_even_1d,
    trapezoid_window,
    window_l2_norm,
)
from flattopspec import spectra
from flattopspec.spectra import canonical_lag
from flattopspec.windows import SYMMETRY_MAPS, LagWindow, apply_symmetry
from lag_oracles import DirectCumulant, six_image_lag

TWO_PI = 2.0 * math.pi


def canonical_lag_loop(t1, t2):
    """The largest image of (t1, t2) under `SYMMETRY_MAPS`, found by applying
    each map in turn."""
    best = (t1, t2)
    for m in SYMMETRY_MAPS[1:]:
        img = apply_symmetry(m, t1, t2)
        if img > best:
            best = img
    return best


def naive_spectrum(series, window, M, omega):
    N = series.n
    total = 0j
    for tau in range(-(N - 1), N):
        w = float(window.fn(tau / M))
        c = central_moment_estimate(series, (tau,))
        total += w * c * cmath.exp(-1j * tau * omega)
    return total / TWO_PI


def naive_bispectrum(series, window, M, omega):
    N = series.n
    total = 0j
    for t1 in range(-(N - 1), N):
        for t2 in range(-(N - 1), N):
            w = float(window.fn(t1 / M, t2 / M))
            if w == 0.0:
                continue
            c = central_moment_estimate(series, (t1, t2))
            total += w * c * cmath.exp(-1j * (t1 * omega[0] + t2 * omega[1]))
    return total / TWO_PI ** 2


@pytest.fixture
def series():
    rng = np.random.default_rng(21)
    return TimeSeries(rng.standard_normal(40) ** 2)


class TestCanonicalization:
    def test_frequency_wraps(self):
        assert canonical_frequency(0.3) == pytest.approx(0.3)
        assert canonical_frequency(0.3 + TWO_PI) == pytest.approx(0.3, abs=1e-12)
        assert canonical_frequency(math.pi) == pytest.approx(-math.pi)

    def test_lag_orbit_has_single_representative(self):
        images = [(5, 2), (2, 5), (-5, -3), (-3, -5), (3, -2), (-2, 3)]
        reps = {canonical_lag(*p) for p in images}
        assert len(reps) == 1

    def test_lag_matches_symmetry_map_loop(self):
        for t1 in range(-150, 151):
            for t2 in range(-150, 151):
                assert canonical_lag(t1, t2) == canonical_lag_loop(t1, t2), (t1, t2)

    def test_lag_is_an_image_shared_by_its_orbit(self):
        rng = np.random.default_rng(3)
        for t1, t2 in rng.integers(-500, 501, size=(300, 2)).tolist():
            orbit = [apply_symmetry(m, t1, t2) for m in SYMMETRY_MAPS]
            rep = canonical_lag(t1, t2)
            assert rep in orbit
            assert {canonical_lag(*img) for img in orbit} == {rep}

    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(st.integers(-(2 ** 29) + 1, 2 ** 29 - 1), st.integers(-(2 ** 29) + 1, 2 ** 29 - 1))
    def test_closed_form_is_the_largest_of_six_images(self, t1, t2):
        assert canonical_lag(t1, t2) == six_image_lag(t1, t2)


class TestLagCacheLookup:
    @pytest.mark.parametrize("as_input", [lambda a: a.astype(np.int64),
                                          lambda a: a.astype(np.int32),
                                          lambda a: a.tolist()],
                             ids=["int64", "int32", "list"])
    def test_cumulants_match_scalar_lookups(self, series, as_input):
        T1, T2 = np.random.default_rng(4).integers(-12, 13, size=(2, 400))
        oracle = DirectCumulant(series)
        want = [oracle(*six_image_lag(a, b)) for a, b in zip(T1.tolist(), T2.tolist())]
        got = BispectrumLagCache(series).cumulants(as_input(T1), as_input(T2))
        assert got.dtype == np.float64
        assert got.tolist() == want

    def test_empty_input(self, series):
        got = BispectrumLagCache(series).cumulants(np.array([], int), [])
        assert got.dtype == np.float64
        assert got.shape == (0,)

    @pytest.mark.parametrize("first", ["cumulants", "cumulant_batches"])
    def test_each_orbit_computed_once_whichever_path_asks(self, series, monkeypatch,
                                                          first):
        # blocks of 100 codes, so that most orbits have images in several;
        # the cold lags are asked for in one call ("cumulants") or in a half
        # and then an overlapping whole ("cumulant_batches"); the last call
        # is all warm
        computed = []
        cache = BispectrumLagCache(series)
        compute = cache._compute_orbits
        monkeypatch.setattr(cache, "_compute_orbits",
                            lambda codes: computed.extend(codes.tolist()) or compute(codes))
        monkeypatch.setattr(spectra, "_CODE_BLOCK", 100)
        ax = np.arange(-45, 46)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        half = T1.size // 2
        if first == "cumulant_batches":
            part = cache.cumulants(T1[:half], T2[:half])
        cold = cache.cumulants(T1, T2)
        if first == "cumulant_batches":
            assert cold[:half].tolist() == part.tolist()
        orbits = {six_image_lag(a, b) for a, b in zip(T1.tolist(), T2.tolist())}
        assert sorted(decoded(np.array(computed))) == sorted(orbits)
        computed.clear()
        assert cache.cumulants(T1[::-1], T2[::-1]).tolist() == cold[::-1].tolist()
        assert computed == []

    def test_cold_untruncated_opt_computes_orbits_in_one_call(self, monkeypatch):
        # the 3N^2 - 3N + 1 = 269,101 lags of untruncated opt at N = 300 span
        # 66 code blocks; their missing orbits are computed and inserted once
        s = TimeSeries(np.random.default_rng(0).standard_normal(300) ** 2)
        (T1, T2), _, _ = spectra._lag_plan(optimal_window(), 5.0, s.n)
        assert T1.size == 269_101
        calls = []
        cache = BispectrumLagCache(s)
        compute = cache._compute_orbits
        monkeypatch.setattr(cache, "_compute_orbits",
                            lambda codes: calls.append(codes.size) or compute(codes))
        cold = cache.cumulants(T1, T2)
        assert len(calls) == 1
        assert cache.cumulants(T1, T2).tolist() == cold.tolist()
        assert len(calls) == 1

    def test_cold_untruncated_opt_estimate_peak(self):
        # the lookup holds a call's orbit codes as int64 arrays: a cold
        # estimate over the 3N^2 - 3N + 1 = 42,841 lags of untruncated opt at
        # N = 120 peaks below the 3.43 MB of a lookup that held whole-call
        # lists of key tuples
        s = TimeSeries(np.random.default_rng(0).standard_normal(120) ** 2)
        window = optimal_window()
        estimate_bispectrum(s, window, 5.0, (0.3, 0.2))  # the plan, kept on the window
        tracemalloc.start()
        try:
            est = estimate_bispectrum(s, window, 5.0, (0.3, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_lags == 42_841
        assert peak <= 3.43e6


def decoded(codes):
    return list(zip(*(c.tolist() for c in spectra._decode(codes))))


class TestOrbitCodes:
    def test_match_canonical_lag_on_a_box(self):
        ax = np.arange(-150, 151)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        want = [six_image_lag(a, b) for a, b in zip(T1.tolist(), T2.tolist())]
        assert decoded(spectra._orbit_codes(T1, T2)) == want

    def test_match_canonical_lag_up_to_n_minus_one(self):
        N = 2000
        T1, T2 = np.random.default_rng(5).integers(-(N - 1), N, size=(2, 20_000))
        edge = np.array([-(N - 1), -(N - 2), -1, 0, 1, N - 2, N - 1])
        E1, E2 = (T.ravel() for T in np.meshgrid(edge, edge, indexing="ij"))
        T1, T2 = np.concatenate([T1, E1]), np.concatenate([T2, E2])
        want = [six_image_lag(a, b) for a, b in zip(T1.tolist(), T2.tolist())]
        assert decoded(spectra._orbit_codes(T1, T2)) == want

    def test_representatives_have_t1_at_least_t2_at_least_zero(self):
        # `_compute_orbits` relies on it: alpha = 0 and n = N - t1
        ax = np.arange(-300, 301)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        t1, t2 = spectra._decode(spectra._orbit_codes(T1, T2))
        assert np.all(t1 >= t2) and np.all(t2 >= 0)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-(2 ** 29) + 1, 2 ** 29 - 1),
                              st.integers(-(2 ** 29) + 1, 2 ** 29 - 1)),
                    min_size=1, max_size=20))
    def test_representatives_ordered_up_to_the_code_range(self, lags):
        T1, T2 = np.array(lags, np.int64).T
        t1, t2 = spectra._decode(spectra._orbit_codes(T1, T2))
        assert np.all(t1 >= t2) and np.all(t2 >= 0)
        assert list(zip(t1.tolist(), t2.tolist())) == [six_image_lag(*lag) for lag in lags]

    def test_order_as_the_lag_tuples(self):
        lags = [(-5, 3), (-5, 4), (-4, -9), (0, 0), (2, -7), (2, 1), (7, 7)]
        codes = spectra._encode(*np.array(lags).T)
        assert np.all(np.diff(codes) > 0)
        assert decoded(codes) == lags


@st.composite
def batch_cases(draw):
    """A series (iid, or constant) and two batches of lags, with repeats and
    lags whose orbit has no summands."""
    N = draw(st.integers(1, 300))
    if draw(st.booleans()):
        values = np.random.default_rng(draw(st.integers(0, 2 ** 32))).standard_normal(N) ** 2
    else:
        values = np.full(N, draw(st.floats(-1e3, 1e3)))
    lag = st.tuples(st.integers(-N - 3, N + 3), st.integers(-N - 3, N + 3))
    pool = draw(st.lists(lag, max_size=30))
    batch = (st.lists(st.sampled_from(pool), max_size=60) if pool
             else st.just([]))
    return TimeSeries(values), draw(batch), draw(batch)


class TestLagCacheBatch:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(batch_cases())
    def test_matches_compute_bit_for_bit(self, case):
        series, first, second = case
        cache = BispectrumLagCache(series)
        oracle = DirectCumulant(series)
        for batch in (first, second):
            T1 = np.array([t for t, _ in batch], np.int64)
            T2 = np.array([t for _, t in batch], np.int64)
            got = cache.cumulants(T1, T2)
            assert got.dtype == np.float64 and got.shape == (len(batch),)
            assert got.tolist() == [oracle(*six_image_lag(a, b)) for a, b in batch]

    def test_each_orbit_computed_once(self, series, monkeypatch):
        computed = []
        cache = BispectrumLagCache(series)
        compute = cache._compute_orbits
        monkeypatch.setattr(cache, "_compute_orbits",
                            lambda codes: computed.extend(codes.tolist()) or compute(codes))
        ax = np.arange(-12, 13)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        for half in (slice(0, 300), slice(300, None), slice(None)):
            cache.cumulants(T1[half], T2[half])
        orbits = {six_image_lag(a, b) for a, b in zip(T1.tolist(), T2.tolist())}
        assert sorted(decoded(np.array(computed))) == sorted(orbits)

    def test_empty_input(self, series):
        got = BispectrumLagCache(series).cumulants(np.array([], int), np.array([], int))
        assert got.dtype == np.float64
        assert got.shape == (0,)

    @pytest.mark.parametrize("N", [1, 2, 3])
    def test_shortest_series(self, N):
        ax = np.arange(-N - 1, N + 2)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        for values in (np.arange(1.0, N + 1) ** 2, np.full(N, 2.5)):
            series = TimeSeries(values)
            got = BispectrumLagCache(series).cumulants(T1, T2)
            oracle = DirectCumulant(series)
            assert got.tolist() == [oracle(*six_image_lag(a, b))
                                    for a, b in zip(T1.tolist(), T2.tolist())]

    @pytest.mark.parametrize("chunk_bytes", [8, 800, 4000])
    def test_runs_spanning_several_chunks(self, monkeypatch, chunk_bytes):
        # at N = 120 the run of t1 holds t1 + 1 orbits, and a chunk of b
        # bytes max(1, b // (8 n)) rows of n = 120 - t1 values: one row at
        # 8 bytes, one to 100 at 800 and 4 to 500 at 4000, so runs of up to
        # 120 orbits span many chunks, full and partial
        monkeypatch.setattr(spectra, "_ROW_CHUNK_BYTES", chunk_bytes)
        s = TimeSeries(np.random.default_rng(7).standard_normal(120) ** 2)
        ax = np.arange(-125, 126)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        got = BispectrumLagCache(s).cumulants(T1, T2)
        oracle = DirectCumulant(s)
        assert got.tolist() == [oracle(*six_image_lag(a, b))
                                for a, b in zip(T1.tolist(), T2.tolist())]

    def test_orbits_without_summands_are_zero(self):
        got = BispectrumLagCache(TimeSeries(np.arange(5.0))).cumulants(
            np.array([5, 0, -3, 9]), np.array([0, -5, 2, 9]))
        assert got.tolist() == [0.0, 0.0, 0.0, 0.0]


def lag_cap(window, M, N):
    if window.support_radius is None:
        return N - 1
    return min(math.ceil(window.support_radius * M), N - 1)


def meshgrid_lag_weights(window, M, N):
    """The order-3 lags and weights from the whole (2L+1)^2 box at once."""
    L = lag_cap(window, M, N)
    ax = np.arange(-L, L + 1)
    T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
    inside = np.abs(T1 - T2) < N
    T1, T2 = T1[inside], T2[inside]
    w = np.asarray(window.fn(T1 / M, T2 / M), float)
    keep = w != 0.0
    return T1[keep], T2[keep], w[keep]


class TestLagWeightBlocks:
    @pytest.mark.parametrize("block", [1000, spectra._LAG_BLOCK])
    @pytest.mark.parametrize("window,M,N", [(optimal_window(), 1.0, 40),
                                            (optimal_window(), 1.0, 121),
                                            (optimal_window(), 2.5, 121),
                                            (flat_top_rpf(0.51), 5.0, 121),
                                            (flat_top_rpf(0.51), 30.0, 40)])
    def test_match_meshgrid(self, monkeypatch, block, window, M, N):
        # a copy of the window has an empty memo, so its plan is built here
        window = dataclasses.replace(window)
        monkeypatch.setattr(spectra, "_LAG_BLOCK", block)
        (T1, T2), w, L = spectra._lag_plan(window, M, N)
        assert L == lag_cap(window, M, N)
        for a, b in zip((T1, T2, w), meshgrid_lag_weights(window, M, N)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    def test_peak_memory_near_what_is_kept(self):
        window = dataclasses.replace(optimal_window())
        spectra._lag_plan(window, 1.0, 30)  # imports, constants
        tracemalloc.start()
        try:
            (T1, T2), w, _ = spectra._lag_plan(window, 1.0, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert T1.size == 3 * 600 * 600 - 3 * 600 + 1
        assert peak < 1.5 * sum(a.nbytes for a in (T1, T2, w))


class TestSpectrum:
    def test_matches_naive(self, series):
        for window in (trapezoid_window(0.51), parzen_window()):
            for M in (2.0, 5.0):
                for omega in (0.0, 0.9, 2.5):
                    est = estimate_spectrum(series, window, M, omega,
                                            truncate=False)
                    ref = naive_spectrum(series, window, M, omega)
                    assert est.value == pytest.approx(ref.real, abs=1e-10)

    def test_n_lags_counts_nonzero_weights(self, series):
        # trapezoid(0.51) at M = 3 vanishes at |tau| = 3 inside the cap
        est = estimate_spectrum(series, trapezoid_window(0.51), 3.0, 0.4)
        assert (est.lag_cap, est.n_lags) == (3, 5)

    def test_imaginary_part_negligible(self, series):
        est = estimate_spectrum(series, trapezoid_window(), 4.0, 1.1)
        assert abs(est.imag_discarded) < 1e-10

    def test_negative_truncation(self):
        # strongly alternating series pushes the flat-top estimate negative
        x = np.array([(-1.0) ** t for t in range(60)]) + np.linspace(0, 0.1, 60)
        s = TimeSeries(x)
        est = estimate_spectrum(s, trapezoid_window(), 10.0, 0.0)
        raw = estimate_spectrum(s, trapezoid_window(), 10.0, 0.0, truncate=False)
        assert raw.value < 0
        assert est.value == 0.0
        assert est.truncated_negative

    def test_single_lag_limit_is_flat(self, series):
        est0 = estimate_spectrum(series, trapezoid_window(), 1e-6, 0.0)
        est1 = estimate_spectrum(series, trapezoid_window(), 1e-6, 2.0)
        c0 = central_moment_estimate(series, (0,))
        assert est0.value == pytest.approx(c0 / TWO_PI, rel=1e-12)
        assert est1.value == pytest.approx(est0.value, rel=1e-12)

    def test_rejects_bad_inputs(self, series):
        with pytest.raises(ValueError):
            estimate_spectrum(series, trapezoid_window(), -1.0, 0.0)
        with pytest.raises(ValueError):
            estimate_spectrum(series, flat_top_rpf(), 2.0, 0.0)

    def test_iid_noise_recovers_flat_spectrum(self):
        rng = np.random.default_rng(77)
        s = TimeSeries(rng.standard_normal(10_000))
        for omega in (0.0, 1.0, 2.0):
            est = estimate_spectrum(s, trapezoid_window(), 2.0, omega)
            assert est.value == pytest.approx(1 / TWO_PI, rel=0.10)


class TestBispectrum:
    @pytest.mark.parametrize("factory", [flat_top_rpf, flat_top_rcf])
    def test_matches_naive_compact(self, series, factory):
        window = factory(0.51)
        for M in (2.0, 5.0):
            est = estimate_bispectrum(series, window, M, (0.7, -1.3))
            ref = naive_bispectrum(series, window, M, (0.7, -1.3))
            assert est.value == pytest.approx(ref, abs=1e-10)

    def test_support_restriction_exact(self, series):
        window = flat_top_rpf(0.51)
        capped = estimate_bispectrum(series, window, 3.0, (0.4, 0.2))
        full = naive_bispectrum(series, window, 3.0, (0.4, 0.2))
        assert capped.lag_cap == 3
        assert capped.value == pytest.approx(full, abs=1e-12)

    def test_periodicity_exact(self, series):
        window = flat_top_rpf(0.51)
        a = estimate_bispectrum(series, window, 3.0, (0.5, 0.3))
        b = estimate_bispectrum(series, window, 3.0, (0.5 + TWO_PI, 0.3 - TWO_PI))
        assert a.value == b.value

    def test_conjugate_symmetry(self, series):
        window = flat_top_rpf(0.51)
        a = estimate_bispectrum(series, window, 3.0, (0.8, 0.25))
        b = estimate_bispectrum(series, window, 3.0, (-0.8, -0.25))
        assert a.value == pytest.approx(b.value.conjugate(), abs=1e-13)

    def test_shared_cache_consistent(self, series):
        window = flat_top_rpf(0.51)
        cache = BispectrumLagCache(series)
        a = estimate_bispectrum(series, window, 3.0, (0.8, 0.25), cache=cache)
        b = estimate_bispectrum(series, window, 3.0, (0.8, 0.25))
        assert a.value == b.value

    def test_cache_matches_direct_cumulants(self, series):
        lags = [(0, 0), (3, 1), (-2, 4), (5, 5), (-1, -6)]
        got = BispectrumLagCache(series).cumulants(*np.array(lags).T)
        for (t1, t2), c in zip(lags, got.tolist()):
            assert c == pytest.approx(central_moment_estimate(series, (t1, t2)), abs=1e-13)

    def test_warns_for_asymmetric_window(self, series):
        skew = LagWindow(name="skew", order=3,
                         fn=lambda x, y: np.exp(-np.asarray(x, float) ** 2
                                                - 2 * np.asarray(y, float) ** 2),
                         support_radius=2.0, symmetric=False)
        with pytest.warns(UserWarning):
            estimate_bispectrum(series, skew, 2.0, (0.1, 0.1))

    def test_order_mismatch(self, series):
        with pytest.raises(ValueError):
            estimate_bispectrum(series, trapezoid_window(), 2.0, (0.1, 0.1))


class TestDerivatives:
    def test_zero_series(self):
        s = TimeSeries(np.zeros(30) + np.arange(30) * 0.0 + 1.0
                       + np.eye(30)[0] * 0)  # constant series
        # constant series has zero centered products everywhere
        val = estimate_bispectrum_partial(s, flat_top_rpf(), 2.0, (0.5, 0.2), 1, 1)
        assert val == 0

    def test_mixed_partial_symmetric(self, series):
        w = flat_top_rpf(0.51)
        a = estimate_bispectrum_partial(series, w, 3.0, (0.6, 0.4), 1, 2)
        b = estimate_bispectrum_partial(series, w, 3.0, (0.6, 0.4), 2, 1)
        assert a == b

    def test_finite_difference_agreement(self, series):
        w = flat_top_rpf(0.51)
        M, om, h = 3.0, (0.8, 0.5), 1e-3

        def fhat(w1, w2):
            return estimate_bispectrum(series, w, M, (w1, w2)).value

        fd11 = (fhat(om[0] + h, om[1]) - 2 * fhat(*om)
                + fhat(om[0] - h, om[1])) / h ** 2
        d11 = estimate_bispectrum_partial(series, w, M, om, 1, 1)
        assert abs(fd11 - d11) / abs(d11) < 1e-4

        fd12 = (fhat(om[0] + h, om[1] + h) - fhat(om[0] + h, om[1] - h)
                - fhat(om[0] - h, om[1] + h) + fhat(om[0] - h, om[1] - h)) / (4 * h ** 2)
        d12 = estimate_bispectrum_partial(series, w, M, om, 1, 2)
        assert abs(fd12 - d12) / abs(d12) < 1e-4

    def test_curvature_combines_three_partials(self, series):
        w = flat_top_rpf(0.51)
        om = (0.7, 0.2)
        combined = bispectrum_curvature(series, w, 3.0, om)
        parts = (estimate_bispectrum_partial(series, w, 3.0, om, 1, 1)
                 - estimate_bispectrum_partial(series, w, 3.0, om, 1, 2)
                 + estimate_bispectrum_partial(series, w, 3.0, om, 2, 2))
        assert combined == pytest.approx(parts, abs=1e-12)

    def test_bad_indices(self, series):
        with pytest.raises(ValueError):
            estimate_bispectrum_partial(series, flat_top_rpf(), 2.0, (0, 0), 0, 1)


def mpmath_opt_bispectrum(series, M, omega):
    """Untruncated opt estimate summed over every lag of a length-N series,
    with lambda_opt from mpmath.besselj, evaluated once per value of
    t1^2 - t1 t2 + t2^2, and cumulants from central_moment_estimate."""
    N = series.n
    ax = np.arange(-(N - 1), N)
    T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
    q = T1 * T1 - T1 * T2 + T2 * T2
    values, index = np.unique(q, return_inverse=True)

    def weight(qq):
        if qq == 0:
            return 1.0
        a = 2 * mpmath.pi / mpmath.sqrt(3) * mpmath.sqrt(qq) / M
        return float(8 * mpmath.besselj(2, a) / a ** 2)

    w = np.array([weight(int(v)) for v in values])[index]
    C = np.array([central_moment_estimate(series, (int(a), int(b)))
                  for a, b in zip(T1, T2)])
    phase = np.exp(-1j * (T1 * omega[0] + T2 * omega[1]))
    return (w * C * phase).sum() / TWO_PI ** 2


class TestEvenLiftSupport:
    """A lift of a 1-D window keeps its support box only for the geometric
    mean: the arithmetic mean is w(0)/3 or more on the line y = 0."""

    @pytest.mark.parametrize("combiner,support", [("mean", None), ("gmean", 1.0)])
    def test_support_follows_combiner(self, combiner, support):
        assert symmetrize_even_1d(trapezoid_window(), combiner).support_radius == support

    @pytest.mark.parametrize("combiner", ["mean", "gmean"])
    @pytest.mark.parametrize("M,omega", [(1.0, (0.3, -1.1)), (2.0, (2.0, 1.0))])
    def test_matches_brute_force(self, combiner, M, omega):
        s = TimeSeries(np.random.default_rng(5).standard_normal(24) ** 2)
        w = symmetrize_even_1d(trapezoid_window(), combiner)
        est = estimate_bispectrum(s, w, M, omega).value
        assert est == pytest.approx(naive_bispectrum(s, w, M, omega), abs=1e-10)


class TestOptimalWindowEstimation:
    def test_truncated_close_to_full(self, series):
        full = estimate_bispectrum(series, optimal_window(), 2.0, (0.5, 0.2))
        trunc = estimate_bispectrum(series, optimal_window(10.0), 2.0, (0.5, 0.2))
        assert trunc.value == pytest.approx(full.value, abs=5e-3)
        assert trunc.lag_cap < full.lag_cap

    @pytest.mark.parametrize("r", [2.0, 10.0])
    @pytest.mark.parametrize("M", [1.0, 2.0])
    def test_truncated_matches_brute_force(self, series, r, M):
        """Every order-3 estimator with optimal_window(r) is the plain sum of
        central_moment_estimate x lambda_opt over the lags with q <= r^2."""
        N = series.n
        ax = np.arange(-(N - 1), N)
        T1, T2 = np.meshgrid(ax, ax, indexing="ij")
        X, Y = T1 / M, T2 / M
        keep = X * X - X * Y + Y * Y <= r * r
        t1, t2 = T1[keep], T2[keep]
        terms = lambda_opt(X[keep], Y[keep]) * np.array(
            [central_moment_estimate(series, (int(a), int(b))) for a, b in zip(t1, t2)])
        w = optimal_window(r)
        for om in [(0.5, 0.2), (-1.1, 2.3)]:
            phase = np.exp(-1j * (t1 * om[0] + t2 * om[1])) / TWO_PI ** 2
            est = estimate_bispectrum(series, w, M, om).value
            assert abs(est - (terms * phase).sum()) < 1e-10
            d12 = estimate_bispectrum_partial(series, w, M, om, 1, 2)
            assert abs(d12 - (-t1 * t2 * terms * phase).sum()) < 1e-10
            curv = bispectrum_curvature(series, w, M, om)
            ref = (-(t1 * t1 - t1 * t2 + t2 * t2) * terms * phase).sum()
            assert abs(curv - ref) < 1e-10

    def test_untruncated_matches_mpmath_weights(self):
        """At N = 160, M = 1 the window is evaluated up to alpha = 577, where
        a trapezoid-rule J2 is off by up to 0.16."""
        s = generate(ModelSpec("arma11", seed=3), 160)
        est = estimate_bispectrum(s, optimal_window(), 1.0, (2.0, 1.0))
        ref = mpmath_opt_bispectrum(s, 1.0, (2.0, 1.0))
        assert abs(est.value - ref) <= 1e-10 * abs(ref)

    def test_untruncated_sums_lags_where_a_cumulant_can_be_nonzero(self):
        """Of the (2N - 1)^2 lags in the box, the 3N^2 - 3N + 1 with
        |t1 - t2| < N are summed, less those where the weight is exactly 0."""
        N = 120
        s = TimeSeries(np.random.default_rng(8).standard_normal(N) ** 2)
        est = estimate_bispectrum(s, optimal_window(), 1.0, (0.5, 0.2))
        ax = np.arange(-(N - 1), N)
        T1, T2 = np.meshgrid(ax, ax, indexing="ij")
        inside = np.abs(T1 - T2) < N
        assert inside.sum() == 3 * N * N - 3 * N + 1 == 42_841
        zero = np.count_nonzero(lambda_opt(T1[inside], T2[inside]) == 0.0)
        assert est.lag_cap == N - 1
        assert est.n_lags == 42_841 - zero


def direct_l2_norm(window, radius, n=2001):
    ax = np.linspace(-radius, radius, n)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    sq = np.asarray(window.fn(X, Y), float) ** 2
    return math.sqrt(np.trapezoid(np.trapezoid(sq, ax, axis=1), ax))


# an asymmetric base for `symmetrize`, supported on |x| <= 1/2, |y| <= 1/4
SKEW_TENT = LagWindow(
    name="skew-tent", order=3, support_radius=0.5, symmetric=False,
    fn=lambda x, y: np.maximum(1.0 - 2.0 * np.abs(np.asarray(x, float))
                               - 4.0 * np.abs(np.asarray(y, float)), 0.0))


def estimate_with_cached_weights(series, w, M, omega):
    """Estimate, then check that the weights it used, read back from the
    window's plan, are the window's own `fn` on its support box, where a
    sample cumulant can be nonzero."""
    est = estimate_bispectrum(series, w, M, omega)
    (T1, T2), weights, L = spectra._lag_plan(w, M, series.n)
    assert L == est.lag_cap
    ax = np.arange(-L, L + 1)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    direct = np.asarray(w.fn(X / M, Y / M), float)
    keep = (direct != 0.0) & (np.abs(X - Y) < series.n)
    np.testing.assert_array_equal(T1, X[keep])
    np.testing.assert_array_equal(T2, Y[keep])
    np.testing.assert_array_equal(weights, direct[keep])
    return est


class TestCombinerCacheKeys:
    """Windows that differ only in a parameter (a combiner, or the truncation
    of `opt`) share no lag plans or constants, whichever of them is used
    first."""

    @pytest.mark.parametrize("lift,base", [(symmetrize_even_1d, trapezoid_window(0.51)),
                                           (symmetrize, SKEW_TENT)],
                             ids=["even_1d", "symmetrize"])
    @pytest.mark.parametrize("order", [("mean", "gmean"), ("gmean", "mean")])
    def test_each_combiner_evaluates_its_own_fn(self, series, lift, base, order):
        # each lift is a new window, with an empty memo
        M = 3.0
        norms = []
        for combiner in order:
            w = lift(base, combiner)
            estimate_with_cached_weights(series, w, M, (0.7, -1.3))
            if w.support_radius is None:
                # the mean lift of a 1-D window is not square-integrable
                with pytest.raises(ValueError, match="unbounded"):
                    window_l2_norm(w)
                continue
            norms.append(window_l2_norm(w))
            assert norms[-1] == pytest.approx(direct_l2_norm(w, w.support_radius),
                                              rel=1e-5)
        if len(norms) == 2:
            assert abs(norms[0] - norms[1]) > 1e-2 * norms[0]

    @pytest.mark.parametrize("M", [1.0, 2.0])
    def test_opt_truncation_evaluates_its_own_fn(self, series, M):
        omega = (0.5, 0.2)
        alone = {}
        for r in (None, 2.0):
            cold = dataclasses.replace(optimal_window(r))
            alone[r] = estimate_bispectrum(series, cold, M, omega).value
        assert alone[None] != alone[2.0]
        for order in [(None, 2.0), (2.0, None)]:
            cold = {r: dataclasses.replace(optimal_window(r)) for r in order}
            for r in order:
                est = estimate_with_cached_weights(series, cold[r], M, omega)
                assert est.value == alone[r]

    @pytest.mark.parametrize("first", [0, 1])
    def test_windows_alike_but_in_fn_keep_their_own(self, series, first):
        # two custom windows with one name, order and params, whose kernels
        # differ: each gets its own estimate and L2 norm, whichever is first
        pair = [LagWindow(name="custom", order=3, fn=fn, support_radius=2 / math.sqrt(3))
                for fn in (lambda_rp, lambda_rc)]
        M, omega = 3.0, (0.7, -1.3)
        for w in pair[first:] + pair[:first]:
            est = estimate_bispectrum(series, w, M, omega)
            assert est.value == pytest.approx(naive_bispectrum(series, w, M, omega),
                                              abs=1e-12)
            assert window_l2_norm(w) == pytest.approx(
                direct_l2_norm(w, w.support_radius), rel=1e-5)
