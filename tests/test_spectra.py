import cmath
import math

import numpy as np
import pytest

from flattopspec import (
    BispectrumLagCache,
    TimeSeries,
    bispectrum_curvature,
    canonical_frequency,
    central_moment_estimate,
    estimate_bispectrum,
    estimate_bispectrum_partial,
    estimate_spectrum,
    flat_top_rcf,
    flat_top_rpf,
    lambda_opt,
    optimal_window,
    parzen_window,
    symmetrize,
    symmetrize_even_1d,
    trapezoid_window,
    window_l2_norm,
)
from flattopspec import spectra, windows
from flattopspec.spectra import canonical_lag
from flattopspec.windows import LagWindow

TWO_PI = 2.0 * math.pi


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


class TestSpectrum:
    def test_matches_naive(self, series):
        for window in (trapezoid_window(0.51), parzen_window()):
            for M in (2.0, 5.0):
                for omega in (0.0, 0.9, 2.5):
                    est = estimate_spectrum(series, window, M, omega,
                                            truncate=False)
                    ref = naive_spectrum(series, window, M, omega)
                    assert est.value == pytest.approx(ref.real, abs=1e-10)

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
        cache = BispectrumLagCache(series)
        for t1, t2 in [(0, 0), (3, 1), (-2, 4), (5, 5), (-1, -6)]:
            assert cache.cumulant(t1, t2) == pytest.approx(
                central_moment_estimate(series, (t1, t2)), abs=1e-13)

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
    cache, are the window's own `fn` on its support box."""
    est = estimate_bispectrum(series, w, M, omega)
    L = est.lag_cap
    T1, T2, weights = spectra._lag_weights(w, M, L)
    ax = np.arange(-L, L + 1)
    X, Y = np.meshgrid(ax, ax, indexing="ij")
    direct = np.asarray(w.fn(X / M, Y / M), float)
    keep = direct != 0.0
    np.testing.assert_array_equal(T1, X[keep])
    np.testing.assert_array_equal(T2, Y[keep])
    np.testing.assert_array_equal(weights, direct[keep])
    return est


class TestCombinerCacheKeys:
    """Windows that differ only in a parameter (a combiner, or the truncation
    of `opt`) share no cached weights or constants, whichever of them is used
    first."""

    @pytest.mark.parametrize("lift,base", [(symmetrize_even_1d, trapezoid_window(0.51)),
                                           (symmetrize, SKEW_TENT)],
                             ids=["even_1d", "symmetrize"])
    @pytest.mark.parametrize("order", [("mean", "gmean"), ("gmean", "mean")])
    def test_each_combiner_evaluates_its_own_fn(self, monkeypatch, series, lift,
                                                base, order):
        monkeypatch.setattr(spectra, "_WEIGHT_CACHE", {})
        monkeypatch.setattr(windows, "_CONST_CACHE", {})
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
    def test_opt_truncation_evaluates_its_own_fn(self, monkeypatch, series, M):
        omega = (0.5, 0.2)
        alone = {}
        for r in (None, 2.0):
            monkeypatch.setattr(spectra, "_WEIGHT_CACHE", {})
            alone[r] = estimate_bispectrum(series, optimal_window(r), M, omega).value
        assert alone[None] != alone[2.0]
        for order in [(None, 2.0), (2.0, None)]:
            monkeypatch.setattr(spectra, "_WEIGHT_CACHE", {})
            for r in order:
                est = estimate_with_cached_weights(series, optimal_window(r), M, omega)
                assert est.value == alone[r]

