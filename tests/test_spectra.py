import cmath
import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flattopspec import (
    BispectrumLagCache,
    ModelSpec,
    SpectralEstimate,
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
    opt_truncation_radius,
    optimal_window,
    parzen_window,
    parzen_window_2d,
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
        # blocks of 100 lags, so that most orbits have images in several;
        # the cold lags are asked for in one call ("cumulants") or in a half
        # and then an overlapping whole ("cumulant_batches"); the last call
        # is all warm.  Lags up to 45 on a series of N = 40: each orbit with
        # a < N is computed once, and none with a >= N
        cache = BispectrumLagCache(series)
        computed = spy_on_orbits(cache, monkeypatch)
        monkeypatch.setattr(spectra, "_INDEX_BLOCK", 100)
        ax = np.arange(-45, 46)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        half = T1.size // 2
        if first == "cumulant_batches":
            part = cache.cumulants(T1[:half], T2[:half])
        cold = cache.cumulants(T1, T2)
        if first == "cumulant_batches":
            assert cold[:half].tolist() == part.tolist()
        assert sorted(computed) == orbits_below(T1, T2, series.n)
        computed.clear()
        assert cache.cumulants(T1[::-1], T2[::-1]).tolist() == cold[::-1].tolist()
        assert computed == []

    def test_cold_untruncated_opt_computes_orbits_in_one_call(self, monkeypatch):
        # the 3N^2 - 3N + 1 = 269,101 lags of a length-300 series where a
        # cumulant can be nonzero span 33 index blocks; their N(N + 1)/2
        # orbits, the rows a < N, are computed in one call
        s = TimeSeries(np.random.default_rng(0).standard_normal(300) ** 2)
        T1, T2, _ = meshgrid_lag_weights(optimal_window(), 5.0, s.n)
        assert T1.size == 269_101
        cache = BispectrumLagCache(s)
        calls = []
        compute = cache._compute_rows
        monkeypatch.setattr(cache, "_compute_rows",
                            lambda A0, A: calls.append((A0, A)) or compute(A0, A))
        computed = spy_on_orbits(cache, monkeypatch)
        cold = cache.cumulants(T1, T2)
        assert calls == [(0, 300)]
        assert sorted(computed) == orbits_below(T1, T2, s.n)
        assert cache.cumulants(T1, T2).tolist() == cold.tolist()
        assert len(calls) == 1

    def test_cold_untruncated_opt_estimate_peak(self):
        # the lookup holds a call's packed orbit indices as int64 arrays: a
        # cold estimate over the 3N^2 - 3N + 1 = 42,841 lags of untruncated
        # opt at N = 120 peaks below the 3.43 MB of a lookup that held
        # whole-call lists of key tuples
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


def spy_on_orbits(cache, monkeypatch):
    """The list of representatives `cache` computes from now on: those of the
    rows of each call of its kernel."""
    computed = []
    compute = cache._compute_rows

    def spy(A0, A):
        computed.extend((a, b) for a in range(A0, A) for b in range(a + 1))
        return compute(A0, A)

    monkeypatch.setattr(cache, "_compute_rows", spy)
    return computed


def orbits_below(T1, T2, N):
    """The sorted representatives (a, b) of the lags with a < N."""
    return sorted({rep for rep in map(six_image_lag, T1.tolist(), T2.tolist())
                   if rep[0] < N})


def unpack(k):
    """The representative (a, b) at packed index k, exactly."""
    a = (math.isqrt(8 * k + 1) - 1) // 2
    return a, k - a * (a + 1) // 2


def packed_index(t1, t2, N):
    a, b = six_image_lag(t1, t2)
    return a * (a + 1) // 2 + b if a < N else -1


class TestOrbitCodes:
    """`_orbit_index`, the packed index of a lag's orbit, against the
    largest-of-six-images representative."""

    def test_match_canonical_lag_on_a_box(self):
        N = 200  # a runs to 300
        ax = np.arange(-150, 151)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        want = [packed_index(a, b, N) for a, b in zip(T1.tolist(), T2.tolist())]
        assert spectra._orbit_index(T1, T2, N).tolist() == want

    def test_match_canonical_lag_up_to_n_minus_one(self):
        N = 2000
        T1, T2 = np.random.default_rng(5).integers(-(N - 1), N, size=(2, 20_000))
        edge = np.array([-(N - 1), -(N - 2), -1, 0, 1, N - 2, N - 1])
        E1, E2 = (T.ravel() for T in np.meshgrid(edge, edge, indexing="ij"))
        T1, T2 = np.concatenate([T1, E1]), np.concatenate([T2, E2])
        want = [packed_index(a, b, N) for a, b in zip(T1.tolist(), T2.tolist())]
        got = spectra._orbit_index(T1, T2, N)
        assert got.tolist() == want
        assert (got == -1).any()

    def test_representatives_have_t1_at_least_t2_at_least_zero(self):
        # `_compute_rows` relies on it: alpha = 0 and n = N - t1
        ax = np.arange(-300, 301)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        index = spectra._orbit_index(T1, T2, 601)
        assert np.all(index >= 0) and np.all(index < 601 * 602 // 2)
        a, b = spectra._row_orbits(0, 601)
        t1, t2 = a[index], b[index]
        assert np.all(t1 >= t2) and np.all(t2 >= 0) and np.all(t1 < 601)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.integers(-(2 ** 30) + 1, 2 ** 30 - 1),
                              st.integers(-(2 ** 30) + 1, 2 ** 30 - 1)),
                    min_size=1, max_size=20),
           st.integers(1, 2 ** 31))
    def test_representatives_ordered_up_to_the_code_range(self, lags, N):
        T1, T2 = np.array(lags, np.int64).T
        index = spectra._orbit_index(T1, T2, N)
        assert index.tolist() == [packed_index(*lag, N) for lag in lags]
        inside = index >= 0
        assert [unpack(k) for k in index[inside].tolist()] == [
            six_image_lag(*lag) for lag, keep in zip(lags, inside) if keep]

    def test_order_as_the_lag_tuples(self):
        # the representatives of a < R, in (a, b) order, are 0, 1, 2, ...:
        # so the store's rows are a prefix of the packed triangle
        R = 60
        reps = [(a, b) for a in range(R) for b in range(a + 1)]
        a, b = np.array(reps).T
        index = spectra._orbit_index(a, b, R)
        assert index.tolist() == list(range(R * (R + 1) // 2))
        assert list(zip(*(t.tolist() for t in spectra._row_orbits(0, R)))) == reps

    def test_rows_map_onto_the_packed_range(self):
        # rows A0 <= a < A of the enumeration land, through `_orbit_index`,
        # on A0(A0 + 1)/2 .. A(A + 1)/2 - 1 in order: for every A <= 2000 on
        # its last row and last three rows, for A <= 200 on all its rows, and
        # on the whole triangle of N = 2000
        def packed(A0, A, N):
            return spectra._orbit_index(*spectra._row_orbits(A0, A), N)

        for A in range(1, 2001):
            for A0 in {A - 1, max(0, A - 3)} | ({0} if A <= 200 else set()):
                assert np.array_equal(packed(A0, A, A),
                                      np.arange(A0 * (A0 + 1) // 2, A * (A + 1) // 2))
        assert np.array_equal(packed(0, 2000, 2000), np.arange(2000 * 2001 // 2))


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


@st.composite
def lookup_sequences(draw):
    """A series and a sequence of lag batches, each with its own lag bound,
    so that the store grows by rows between lookups, or not; a batch may
    repeat its lags, and lags beyond N - 1 (a >= N) come up too."""
    N = draw(st.integers(1, 120))
    values = np.random.default_rng(draw(st.integers(0, 2 ** 32))).standard_normal(N) ** 2
    batches = []
    for bound in draw(st.lists(st.integers(0, N + 3), min_size=1, max_size=5)):
        lag = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
        batch = draw(st.lists(lag, max_size=40))
        batches.append(batch + batch[:draw(st.integers(0, len(batch)))])
    return TimeSeries(values), batches


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

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(lookup_sequences())
    def test_any_lookup_history_matches_a_fresh_store(self, case):
        series, batches = case
        cache = BispectrumLagCache(series)
        oracle = DirectCumulant(series)
        for batch in batches:
            T1, T2 = np.array(batch, np.int64).reshape(-1, 2).T
            got = cache.cumulants(T1, T2).tolist()
            assert got == BispectrumLagCache(series).cumulants(T1, T2).tolist()
            assert got == [oracle(*six_image_lag(a, b)) for a, b in batch]

    def test_each_orbit_computed_once(self, series, monkeypatch):
        # the store is a prefix of whole rows: after each lookup every orbit
        # of a row a <= the largest a asked so far has been computed once,
        # and none of a row a >= N (N = 40; lags up to 45 reach a = 90)
        cache = BispectrumLagCache(series)
        computed = spy_on_orbits(cache, monkeypatch)
        ax = np.arange(-12, 13)
        T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        ax = np.arange(-45, 46)
        F1, F2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
        top = -1
        for U1, U2 in ((T1[:300], T2[:300]), (T1[300:], T2[300:]), (T1, T2),
                       (F1[:10], F2[:10]), (F1, F2), (T1, T2)):
            cache.cumulants(U1, U2)
            top = max([top] + [a for a, _ in orbits_below(U1, U2, series.n)])
            assert computed == [(a, b) for a in range(top + 1) for b in range(a + 1)]
        assert top == series.n - 1

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
        # at N = 120 row a of the triangle holds a + 1 orbits, and a tile of
        # c bytes max(1, c // 960) rows and columns: one at 8 and 800 bytes
        # and 4 at 4000, so rows of up to 120 orbits span many tiles, full
        # and partial
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


def triangle(A):
    """The representatives (a, b), a >= b >= 0, of the orbits with a < A, in
    (a, b) order, and the multiplicity of each: its images at each lag."""
    a, b = np.array([(a, b) for a in range(A) for b in range(a + 1)], np.int64).reshape(-1, 2).T
    return a, b, np.where(a == 0, 6, np.where((b == 0) | (a == b), 2, 1))


def plan_images(plan):
    """The lags an order-3 plan sums, in lexicographic order, and the weight
    of each: its weights spread to the six images of each orbit, with those
    of the images that coincide summed."""
    _, w, L, _ = plan
    A = (math.isqrt(8 * w.shape[1] + 1) - 1) // 2
    a, b, _ = triangle(A)
    span = max(L, A - 1)
    dense = np.zeros((2 * span + 1, 2 * span + 1))
    for k, m in enumerate(SYMMETRY_MAPS):
        t1, t2 = apply_symmetry(m, a, b)
        np.add.at(dense, (t1 + span, t2 + span), w[k % w.shape[0]])
    ax = np.arange(-span, span + 1)
    T1, T2 = (T.ravel() for T in np.meshgrid(ax, ax, indexing="ij"))
    keep = dense.ravel() != 0.0
    return T1[keep], T2[keep], dense.ravel()[keep]


def fading_window():
    """A window of unbounded support that is exactly 0 beyond radius 10, so
    that its plans keep the whole box only at large M; x^2 + y^2 is not
    invariant under the cumulant symmetries, so it is not declared symmetric."""
    return LagWindow(name="fading", order=3, support_radius=None,
                     fn=lambda x, y: np.maximum(
                         1.0 - (np.asarray(x, float) ** 2 + np.asarray(y, float) ** 2) / 100,
                         0.0))


# an asymmetric base for `symmetrize`, supported on |x| <= 1/2, |y| <= 1/4
SKEW_TENT = LagWindow(
    name="skew-tent", order=3, support_radius=0.5,
    fn=lambda x, y: np.maximum(1.0 - 2.0 * np.abs(np.asarray(x, float))
                               - 4.0 * np.abs(np.asarray(y, float)), 0.0))


@pytest.mark.filterwarnings("ignore:window (skew-tent|fading)")
class TestLagWeightBlocks:
    @pytest.mark.parametrize("block", [1000, 1 << 16])
    @pytest.mark.parametrize("window,M,N", [(optimal_window(), 1.0, 40),
                                            (optimal_window(), 1.0, 121),
                                            (optimal_window(), 2.5, 121),
                                            (flat_top_rpf(0.51), 5.0, 121),
                                            (flat_top_rpf(0.51), 30.0, 40),
                                            (SKEW_TENT, 30.0, 80),
                                            (fading_window(), 2.0, 40)])
    def test_match_meshgrid(self, monkeypatch, block, window, M, N):
        # a copy of the window has an empty memo, so its plan is built here;
        # its weights are the window's fn at each orbit's representative, or
        # at each of its images, over the orbit's multiplicity, whatever the
        # block; spread to the images, they are the window on its box
        window = dataclasses.replace(window)
        monkeypatch.setattr(spectra, "_INDEX_BLOCK", block)
        plan = spectra._lag_plan(window, M, N)
        A, w, L, n_lags = plan
        assert L == lag_cap(window, M, N)
        assert A == (L + 1 if window.symmetric else min(2 * L + 1, N))
        a, b, multiplicity = triangle(A)
        images = ([(a, b)] if window.symmetric
                  else [apply_symmetry(m, a, b) for m in SYMMETRY_MAPS])
        assert w.shape == (len(images), a.size)
        for row, (t1, t2) in zip(w, images):
            box = (np.abs(t1) <= L) & (np.abs(t2) <= L)
            want = np.where(box, np.asarray(window.fn(t1 / M, t2 / M), float), 0.0)
            np.testing.assert_array_equal(row, want / multiplicity)
        T1, T2, weights = plan_images(plan)
        U1, U2, u = meshgrid_lag_weights(window, M, N)
        np.testing.assert_array_equal(T1, U1)
        np.testing.assert_array_equal(T2, U2)
        np.testing.assert_allclose(weights, u, rtol=1e-14, atol=1e-16)
        assert n_lags == U1.size

    def test_peak_memory_near_what_is_kept(self):
        # the weights are evaluated a block of orbits at a time; at N = 1200
        # the blocks' temporaries (with a J2 workspace) are below half the
        # 8 bytes per orbit that are kept
        window = dataclasses.replace(optimal_window())
        spectra._lag_plan(window, 1.0, 30)  # imports, constants
        tracemalloc.start()
        try:
            _, w, _, n_lags = spectra._lag_plan(window, 1.0, 1200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert n_lags == 3 * 1200 * 1200 - 3 * 1200 + 1
        assert w.shape == (1, 1200 * 1201 // 2)
        assert peak < 1.5 * w.nbytes

    def test_untruncated_plan_holds_8_bytes_per_orbit(self):
        N = 600
        plan = dataclasses.replace(optimal_window())
        plan = spectra._lag_plan(plan, 5.0, N)
        held = sum(x.nbytes for x in plan if isinstance(x, np.ndarray))
        assert plan[3] == 3 * N * N - 3 * N + 1
        assert held <= 8 * N * (N + 1) // 2 + 64 * N


class TestPlanSharing:
    def test_untruncated_plans_hold_only_their_weights(self):
        # each plan of the untruncated window at N holds only its weights on
        # the triangle of N(N + 1)/2 orbits: no lags, of its own or shared
        window = dataclasses.replace(optimal_window())
        A, B = (spectra._lag_plan(window, M, 50) for M in (2.0, 3.0))
        C = spectra._lag_plan(window, 2.0, 51)
        for plan, N in ((A, 50), (B, 50), (C, 51)):
            assert plan[0] == N and plan[1].shape == (1, N * (N + 1) // 2)
            assert plan[3] == 3 * N * N - 3 * N + 1
        assert A[1] is not B[1]
        assert set(window._memo) == {"plans"}
        assert set(window._memo["plans"]) == {(2.0, 50), (3.0, 50), (2.0, 51)}
        # a plan after others equals one built cold
        cold = spectra._lag_plan(dataclasses.replace(window), 3.0, 50)
        np.testing.assert_array_equal(B[1], cold[1])

    @pytest.mark.filterwarnings("ignore:window fading")
    @pytest.mark.parametrize("window,Ms", [(flat_top_rpf(0.51), (300.0, 400.0)),
                                           (optimal_window(10.0), (40.0, 50.0)),
                                           (fading_window(), (0.5, 1.0))],
                             ids=["flat-top", "truncated-opt", "zeros"])
    def test_plans_of_other_windows_keep_their_own(self, window, Ms):
        # L = N - 1 at both M, so only the window's support tells them apart
        window = dataclasses.replace(window)
        plans = [spectra._lag_plan(window, M, 300) for M in Ms]
        assert [L for _, _, L, _ in plans] == [299, 299]
        assert plans[0][1] is not plans[1][1]
        for M, plan in zip(Ms, plans):
            want = meshgrid_lag_weights(window, M, 300)
            assert plan[3] == want[0].size
            for got, lag_want in zip(plan_images(plan)[:2], want[:2]):
                np.testing.assert_array_equal(got, lag_want)

    @pytest.mark.filterwarnings("ignore:window fading")
    def test_plan_with_zeros_after_a_whole_one(self):
        window = fading_window()
        A = spectra._lag_plan(window, 100.0, 20)
        B = spectra._lag_plan(window, 1.0, 20)
        C = spectra._lag_plan(window, 200.0, 20)
        assert A[3] == C[3] == 3 * 20 * 20 - 3 * 20 + 1 and B[3] < A[3]
        got, want = plan_images(B), meshgrid_lag_weights(window, 1.0, 20)
        for lags, lags_want in zip(got[:2], want[:2]):
            np.testing.assert_array_equal(lags, lags_want)
        np.testing.assert_allclose(got[2], want[2], rtol=1e-14, atol=1e-16)


class TestPlanMemo:
    def test_sweep_keeps_at_most_8_plans(self):
        window = dataclasses.replace(optimal_window())
        for M in np.linspace(1.0, 40.0, 40):
            spectra._lag_plan(window, M, 300)
        plans = window._memo["plans"]
        assert len(plans) == spectra._PLAN_MEMO == 8
        assert list(plans) == [(float(M), 300) for M in np.linspace(1.0, 40.0, 40)[-8:]]

    def test_least_recently_used_plan_is_dropped(self):
        window = dataclasses.replace(flat_top_rpf(0.51))
        for M in range(1, 9):
            spectra._lag_plan(window, float(M), 100)
        first = spectra._lag_plan(window, 1.0, 100)  # used again, so kept
        spectra._lag_plan(window, 9.0, 100)
        assert (2.0, 100) not in window._memo["plans"]
        assert spectra._lag_plan(window, 1.0, 100) is first

    def test_rebuilt_plan_gives_bit_identical_estimates(self):
        s = TimeSeries(np.random.default_rng(2).standard_normal(300) ** 2)
        window = dataclasses.replace(optimal_window())
        first = [est.value for est in estimate_bispectrum(s, window, 3.0, FREQUENCIES)]
        dropped = spectra._lag_plan(window, 3.0, 300)[1]
        for M in np.linspace(4.0, 12.0, 8):
            estimate_bispectrum(s, window, M, [(0.3, 0.2)])
        rebuilt = spectra._lag_plan(window, 3.0, 300)[1]
        assert rebuilt is not dropped
        np.testing.assert_array_equal(rebuilt, dropped)
        assert [estimate_bispectrum(s, window, 3.0, om).value
                for om in FREQUENCIES] == first


class TestAutocumulants:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 40), st.integers(0, 2 ** 32 - 1),
           st.lists(st.integers(-45, 45), max_size=12))
    @example(1, 0, [-1, 0, 1, 2])
    def test_equals_central_moment_estimate(self, N, seed, taus):
        # lags of either sign, 0, and |tau| >= N, whose sum is empty; the
        # values agree bit for bit (compared by repr, so -0.0 differs from 0.0)
        taus = [*taus, 0, -N, N]
        s = TimeSeries(np.random.default_rng(seed).standard_normal(N) ** 2)
        got = spectra.autocumulants(s, np.array(taus))
        assert repr(got.tolist()) == repr([central_moment_estimate(s, (t,)) for t in taus])


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

    @pytest.mark.parametrize("M", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bandwidth_not_positive_and_finite(self, series, M):
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_spectrum(series, trapezoid_window(), M, 0.5)
        with pytest.raises(ValueError, match="positive and finite"):
            estimate_bispectrum(series, flat_top_rpf(), M, (2.0, 1.0))

    @pytest.mark.parametrize("window, M", [(flat_top_rcf(), 1.7e308),
                                           (optimal_window(9.0), 1e308)],
                             ids=["rcf", "opt-truncated"])
    def test_huge_bandwidth_sums_every_lag(self, series, window, M):
        # support_radius * M overflows to inf, whose math.ceil raised
        # OverflowError; the lag cap is N - 1, as at every M with R M >= N - 1
        huge = estimate_bispectrum(series, window, M, (2.0, 1.0))
        large = estimate_bispectrum(series, window, 1e300, (2.0, 1.0))
        assert huge.lag_cap == large.lag_cap == series.n - 1
        assert huge.value == large.value

    @pytest.mark.parametrize("window, M", [(flat_top_rcf(), 1e-200),
                                           (optimal_window(), 1e-160),
                                           (flat_top_rpf(), 1e-320)],
                             ids=["rcf", "opt", "rpf"])
    def test_rejects_weights_not_finite(self, series, window, M):
        # the scaled lags overflow and the kernel forms inf - inf: these
        # estimates were NaN
        with pytest.raises(ValueError, match=f"window {window.name} .* M = {M!r}"):
            estimate_bispectrum(series, window, M, (2.0, 1.0))

    @pytest.mark.parametrize("M", [1e-200, 1e-160])
    @pytest.mark.parametrize("window", [flat_top_rpf(), parzen_window_2d(),
                                        optimal_window(opt_truncation_radius(1e-3))],
                             ids=["rpf", "parzen2d", "opt-truncated"])
    def test_tiny_bandwidth_with_finite_weights_is_accepted(self, series, window, M):
        # only the lag (0, 0) has a nonzero weight, as at M = 1e-3
        est = estimate_bispectrum(series, window, M, (2.0, 1.0))
        assert math.isfinite(est.value.real) and math.isfinite(est.value.imag)
        assert est.value == estimate_bispectrum(series, window, 1e-3, (2.0, 1.0)).value

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
        # an estimate of a batch, after another frequency, equals a call alone
        window = flat_top_rpf(0.51)
        a = estimate_bispectrum(series, window, 3.0, [(0.1, 0.2), (0.8, 0.25)])[1]
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


def estimate_with_cached_weights(series, w, M, omega):
    """Estimate, then check that the weights it used, read back from the
    window's plan and spread to the images of each orbit, are the window's
    own `fn` on its support box, where a sample cumulant can be nonzero."""
    est = estimate_bispectrum(series, w, M, omega)
    plan = spectra._lag_plan(w, M, series.n)
    assert plan[2] == est.lag_cap
    # at the representative, a lift's weight may be 0 where it is 1e-16 at
    # the other images, or the reverse, so the weights are compared on the
    # whole box
    dense = []
    for T1, T2, weights in (plan_images(plan), meshgrid_lag_weights(w, M, series.n)):
        D = np.zeros((2 * series.n - 1, 2 * series.n - 1))
        D[T1 + series.n - 1, T2 + series.n - 1] = weights
        dense.append(D)
    np.testing.assert_allclose(*dense, rtol=1e-14, atol=1e-15)
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
        # (neither is declared symmetric, so each warns and sums six images)
        pair = [LagWindow(name="custom", order=3, fn=fn, support_radius=2 / math.sqrt(3))
                for fn in (lambda_rp, lambda_rc)]
        M, omega = 3.0, (0.7, -1.3)
        for w in pair[first:] + pair[:first]:
            with pytest.warns(UserWarning, match="custom is not declared symmetric"):
                est = estimate_bispectrum(series, w, M, omega)
            assert est.value == pytest.approx(naive_bispectrum(series, w, M, omega),
                                              abs=1e-12)
            assert window_l2_norm(w) == pytest.approx(
                direct_l2_norm(w, w.support_radius), rel=1e-5)


def per_lag_sum(lags, terms, omega):
    """The frequency sum one lag at a time, as one complex exponential per
    lag, and the bound 1e-12 sum |terms| / (2pi)^(s-1) on its rounding."""
    arg = sum(T * canonical_frequency(w) for T, w in zip(lags, omega))
    scale = TWO_PI ** len(lags)
    return (terms * np.exp(-1j * arg)).sum() / scale, 1e-12 * np.abs(terms).sum() / scale


FREQUENCIES = [(0.0, 0.0), (2.0, 1.0), (-2.9, 0.7), (3.1, -3.1), (0.3 + TWO_PI, 1.2)]


def check_against_per_lag_sums(s, window, M, omega):
    """Every order-3 estimator of `window` at (M, omega) equals the sum over
    the lags of its support box one at a time, within rounding, and
    `n_lags` counts the lags summed: at a symmetric window, those whose
    orbit's representative has a nonzero weight."""
    T1, T2, w = meshgrid_lag_weights(window, M, s.n)
    terms = w * BispectrumLagCache(s).cumulants(T1, T2)
    est = estimate_bispectrum(s, window, M, omega)
    cases = [(est.value, terms),
             (bispectrum_curvature(s, window, M, omega),
              -(T1 * T1 - T1 * T2 + T2 * T2) * terms)]
    for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        cases.append((estimate_bispectrum_partial(s, window, M, omega, i, j),
                      -(T1, T2)[i - 1] * (T1, T2)[j - 1] * terms))
    for got, case_terms in cases:
        want, tol = per_lag_sum((T1, T2), case_terms, omega)
        assert abs(got - want) <= tol, (omega, got, want)
    if window.symmetric:
        L = lag_cap(window, M, s.n)
        ax = np.arange(-L, L + 1)
        U1, U2 = (U.ravel() for U in np.meshgrid(ax, ax, indexing="ij"))
        lo = np.minimum(np.minimum(U1, U2), 0)
        hi = np.maximum(np.maximum(U1, U2), 0)
        a, b = hi - lo, U1 + U2 - hi - lo - lo
        inside = a < s.n
        summed = np.count_nonzero(np.asarray(window.fn(a[inside] / M, b[inside] / M)))
    else:
        summed = T1.size
    assert est.n_lags == summed


class TestFrequencySumOracle:
    """Each estimator equals the per-lag sum within rounding, on the lags and
    terms of its plan."""

    @pytest.mark.filterwarnings("ignore:window skew-tent")
    @pytest.mark.parametrize("window,M,N", [(optimal_window(), 4.0, 300),
                                            (optimal_window(), 1.0, 61),
                                            (flat_top_rcf(0.51), 6.0, 150),
                                            (SKEW_TENT, 30.0, 80)],
                             ids=["opt-300", "opt-61", "rcf", "skew-tent"])
    def test_bispectrum_estimators(self, window, M, N):
        s = TimeSeries(np.random.default_rng(N).standard_normal(N) ** 2)
        for omega in FREQUENCIES:
            check_against_per_lag_sums(s, window, M, omega)

    @pytest.mark.filterwarnings("ignore:window (skew-tent|fading)")
    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(st.sampled_from(["opt", "rpf", "rcf", "skew-tent", "fading"]),
           st.integers(1, 80), st.floats(0.3, 30.0), st.integers(0, 2 ** 32 - 1),
           st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)))
    def test_bispectrum_estimators_on_any_series(self, name, N, M, seed, omega):
        # omega up to about 4 pi in each coordinate, so that it and w1 + w2
        # wrap; symmetric windows and windows summed over all six images
        window = {"opt": optimal_window(), "rpf": flat_top_rpf(0.51),
                  "rcf": flat_top_rcf(0.51), "skew-tent": SKEW_TENT,
                  "fading": fading_window()}[name]
        s = TimeSeries(np.random.default_rng(seed).standard_normal(N) ** 2)
        check_against_per_lag_sums(s, window, M, omega)

    @pytest.mark.parametrize("window,M", [(trapezoid_window(0.51), 7.0),
                                          (parzen_window(), 40.0)])
    def test_spectrum(self, window, M):
        s = TimeSeries(np.random.default_rng(1).standard_normal(300))
        (T, w, _, _), C = spectra._lag_terms(s, window, M, 2)
        for omega in [0.0, 1.0, -2.9, 3.1 + TWO_PI]:
            est = estimate_spectrum(s, window, M, omega, truncate=False)
            want, tol = per_lag_sum((T,), w * C, (omega,))
            assert abs(complex(est.value, est.imag_discarded) - want) <= tol

    def test_warm_estimate_peak(self):
        # untruncated opt at N = 600 sums 1,078,201 lags of 180,300 orbits;
        # with its plan built, an estimate holds the orbits' cumulants and
        # terms, 1.4 MB each, and the blocks of the sum (30.0 MB when plans
        # held every lag, 60.4 MB with a complex exponential per lag)
        s = TimeSeries(np.random.default_rng(0).standard_normal(600) ** 2)
        window = dataclasses.replace(optimal_window())
        estimate_bispectrum(s, window, 5.0, (0.3, 0.2))
        tracemalloc.start()
        try:
            est = estimate_bispectrum(s, window, 5.0, (1.3, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_lags == 1_078_201
        assert peak < 8e6

    def test_second_bandwidth_estimate_peak(self):
        # as above at a second M, whose plan is built within the estimate
        # (38.7 MB when plans held every lag, 86.3 MB with a complex
        # exponential per lag)
        s = TimeSeries(np.random.default_rng(0).standard_normal(600) ** 2)
        window = dataclasses.replace(optimal_window())
        estimate_bispectrum(s, window, 5.0, (0.3, 0.2))
        tracemalloc.start()
        try:
            est = estimate_bispectrum(s, window, 7.0, (1.3, 0.2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_lags == 1_078_201
        assert peak < 10e6


@st.composite
def frequency_batches(draw, order):
    """F in {0, 1, 2, 13} frequencies drawn from a pool of at most four, so
    that larger batches repeat some, each coordinate in [-12, 12], so most
    lie outside [-pi, pi)."""
    coordinate = st.floats(-12.0, 12.0)
    point = coordinate if order == 2 else st.tuples(coordinate, coordinate)
    pool = draw(st.lists(point, min_size=1, max_size=4))
    F = draw(st.sampled_from([0, 1, 2, 13]))
    return draw(st.lists(st.sampled_from(pool), min_size=F, max_size=F))


def check_batch_in_row_blocks(estimator, series, window, M, rows, omegas):
    """Assert that, with `_LAG_BLOCK` set to `rows` rows of the window's
    triangle, the estimates at `omegas` in one call are those of one call
    per frequency, by repr; returns A, the number of row blocks and the
    frequencies per chunk."""
    K, size = spectra._lag_plan(window, M, series.n)[1].shape
    A = (math.isqrt(8 * size + 1) - 1) // 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectra, "_LAG_BLOCK", rows * A)
        batch = estimator(series, window, M, omegas)
        assert repr(batch) == repr([estimator(series, window, M, om) for om in omegas])
    return A, -(-A // rows), max(1, rows // ((3 if K == 1 else 6) * 2))


class TestFrequencyBatch:
    """An estimator given a sequence of frequencies returns the list of its
    one-frequency estimates, bit for bit: value, omega, lag_cap, n_lags and
    flags (compared by repr, so -0.0 differs from 0.0)."""

    @pytest.mark.filterwarnings("ignore:window (skew-tent|fading)")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from([estimate_bispectrum, bispectrum_curvature]),
           st.sampled_from(["opt", "rpf", "rcf", "skew-tent", "fading"]),
           st.integers(1, 80), st.floats(0.3, 30.0), st.integers(0, 2 ** 32 - 1),
           frequency_batches(3))
    def test_bispectrum(self, estimator, name, N, M, seed, omegas):
        # the estimates and the curvature; windows summed on orbit
        # representatives (K = 1) and on all six images (K = 6)
        window = {"opt": optimal_window(), "rpf": flat_top_rpf(0.51),
                  "rcf": flat_top_rcf(0.51), "skew-tent": SKEW_TENT,
                  "fading": fading_window()}[name]
        s = TimeSeries(np.random.default_rng(seed).standard_normal(N) ** 2)
        batch = estimator(s, window, M, omegas)
        assert isinstance(batch, list)
        assert repr(batch) == repr([estimator(s, window, M, om) for om in omegas])

    @pytest.mark.filterwarnings("ignore:window (skew-tent|fading)")
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.sampled_from([estimate_bispectrum, bispectrum_curvature]),
           st.sampled_from(["opt", "rpf", "skew-tent", "fading"]),
           st.integers(2, 80), st.floats(0.3, 60.0), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 40),
           st.lists(st.tuples(st.floats(-12.0, 12.0), st.floats(-12.0, 12.0)),
                    min_size=1, max_size=40))
    def test_bispectrum_in_row_blocks(self, estimator, name, N, M, seed, rows, omegas):
        # blocks of `rows` rows of the triangle, so most sums span several
        # blocks, and from 12 rows (24 at K = 6) chunks of several frequencies
        window = {"opt": optimal_window(), "rpf": flat_top_rpf(0.51),
                  "skew-tent": SKEW_TENT, "fading": fading_window()}[name]
        s = TimeSeries(np.random.default_rng(seed).standard_normal(N) ** 2)
        check_batch_in_row_blocks(estimator, s, window, M, rows, omegas)

    @pytest.mark.filterwarnings("ignore:window (skew-tent|fading)")
    @pytest.mark.parametrize("window,M,N,rows,K", [(optimal_window(), 4.0, 61, 30, 1),
                                                   (SKEW_TENT, 58.0, 60, 50, 6),
                                                   (fading_window(), 9.0, 45, 25, 6)],
                             ids=["opt", "skew-tent", "fading"])
    def test_forty_frequencies_in_blocks_and_chunks(self, window, M, N, rows, K):
        # A = 61, 59 and 45 in blocks of 30, 50 and 25 rows: 2 or 3 row
        # blocks, and chunks of 5, 4 and 2 frequencies
        s = TimeSeries(np.random.default_rng(N).standard_normal(N) ** 2)
        omegas = [(0.37 * i - 7.0, 5.0 - 0.29 * i) for i in range(40)]
        A, blocks, chunk = check_batch_in_row_blocks(estimate_bispectrum, s, window, M,
                                                     rows, omegas)
        assert window._memo["plans"][(M, N)][1].shape[0] == K
        assert blocks > 1 and 1 < chunk < len(omegas), (A, blocks, chunk)

    def test_two_hundred_frequencies_peak(self):
        # untruncated opt at N = 600 (A = 600, K = 1): the phase tables of
        # 200 frequencies take 5.8 MB, and the stacked products of a chunk
        # of 18 frequencies 0.5 MB; unchunked, the products of all 200 and
        # their E_y tables add 11.5 MB (a 22.5 MB peak; 15.6 MB one
        # frequency at a time)
        s = TimeSeries(np.random.default_rng(0).standard_normal(600) ** 2)
        window = dataclasses.replace(optimal_window())
        estimate_bispectrum(s, window, 5.0, (0.3, 0.2))
        omegas = [(0.05 * i, 0.03 * i - 1.0) for i in range(200)]
        tracemalloc.start()
        try:
            est = estimate_bispectrum(s, window, 5.0, omegas)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(est) == 200 and est[0].n_lags == 1_078_201
        assert peak < 15e6

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.sampled_from(["trapezoid", "parzen"]), st.integers(1, 200),
           st.floats(0.3, 60.0), st.integers(0, 2 ** 32 - 1), st.booleans(),
           frequency_batches(2))
    def test_spectrum(self, name, N, M, seed, truncate, omegas):
        window = {"trapezoid": trapezoid_window(0.51), "parzen": parzen_window()}[name]
        s = TimeSeries(np.random.default_rng(seed).standard_normal(N))
        batch = estimate_spectrum(s, window, M, omegas, truncate=truncate)
        assert isinstance(batch, list)
        assert repr(batch) == repr([estimate_spectrum(s, window, M, om, truncate=truncate)
                                    for om in omegas])

    def test_one_frequency_or_a_sequence(self, series):
        rpf, trapezoid = flat_top_rpf(0.51), trapezoid_window(0.51)
        assert isinstance(estimate_bispectrum(series, rpf, 3.0, (0.4, 0.2)), SpectralEstimate)
        assert isinstance(estimate_spectrum(series, trapezoid, 3.0, 0.4), SpectralEstimate)
        assert isinstance(bispectrum_curvature(series, rpf, 3.0, (0.4, 0.2)), complex)
        assert estimate_bispectrum(series, rpf, 3.0, []) == []
        assert estimate_spectrum(series, trapezoid, 3.0, []) == []
        assert bispectrum_curvature(series, rpf, 3.0, []) == []
        pairs = np.array([[0.4, 0.2], [2.0, 1.0]])
        assert repr(estimate_bispectrum(series, rpf, 3.0, pairs)) == repr(
            [estimate_bispectrum(series, rpf, 3.0, (0.4, 0.2)),
             estimate_bispectrum(series, rpf, 3.0, (2.0, 1.0))])
