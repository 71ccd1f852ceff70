import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flattopspec import (
    LagWindow,
    bessel_j2,
    flat_top_rcf,
    flat_top_rpf,
    lambda_opt,
    lambda_rc,
    lambda_rcf,
    lambda_rp,
    lambda_rpf,
    opt_truncation_radius,
    optimal_window,
    parse_window,
    parzen_window,
    parzen_window_2d,
    symmetrize,
    symmetrize_even_1d,
    trapezoid_window,
    validate_flat_top,
    window_curvature_at_zero,
    window_l2_norm,
)
from flattopspec import windows
from flattopspec.windows import SYMMETRY_MAPS, apply_symmetry


def j2_series_oracle(x, terms=60):
    """Independent high-precision ascending series for J2."""
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        acc = mpmath.mpf(0)
        for m in range(terms):
            acc += (-1) ** m * (x / 2) ** (2 * m + 2) / (
                mpmath.factorial(m) * mpmath.factorial(m + 2))
        return float(acc)


SYMMETRY_IMAGES = [
    lambda x, y: (x, y),
    lambda x, y: (y, x),
    lambda x, y: (-x, y - x),
    lambda x, y: (y - x, -x),
    lambda x, y: (x - y, -y),
    lambda x, y: (-y, x - y),
]


def j2_unfolded_rule(x, nodes=512, block=1024):
    """The unfolded periodic trapezoid rule for J2 on all `nodes` nodes."""
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    x = np.asarray(x, dtype=float).ravel()
    return np.concatenate([
        np.cos(2.0 * theta - x[i:i + block, None] * np.sin(theta)).mean(axis=1)
        for i in range(0, x.size, block)])


class TestBesselJ2:
    def test_matches_series_oracle(self):
        for x in np.linspace(0.0, 30.0, 121):
            assert abs(bessel_j2(x) - j2_series_oracle(x)) < 1e-12

    def test_matches_unfolded_rule(self):
        # the unfolded rule is accurate only up to about 400 (off by 1.4e-2 at
        # 500), so it is an oracle on [0, 400] alone
        x = np.linspace(0.0, 400.0, 20001)
        assert np.max(np.abs(bessel_j2(x) - j2_unfolded_rule(x))) <= 5e-14

    def test_matches_mpmath(self):
        # 10^4 covers the untruncated opt window at N = 2000, M = 1:
        # 2pi (N - 1) / sqrt(3) = 7252
        x = np.linspace(0.0, 1e4, 5001)
        ref = np.array([float(mpmath.besselj(2, v)) for v in x])
        assert np.max(np.abs(bessel_j2(x) - ref)) <= 1e-13

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.floats(min_value=0.0, max_value=1e4))
    def test_matches_mpmath_anywhere(self, x):
        assert abs(bessel_j2(x) - float(mpmath.besselj(2, x))) <= 1e-13

    def test_continuous_at_switch(self):
        # the trapezoid rule serves |x| < 25, Hankel's expansion the rest
        below, above = 25.0 - 1e-9, 25.0 + 1e-9
        points = [below, np.nextafter(25.0, 0.0), 25.0, above]
        for x in points:
            assert abs(bessel_j2(x) - float(mpmath.besselj(2, x))) <= 1e-15
        step = float(mpmath.besselj(2, above) - mpmath.besselj(2, below))
        assert abs(bessel_j2(above) - bessel_j2(below) - step) <= 1e-15

    def test_vectorized_agrees_with_scalar(self):
        # the lengths are not multiples of the block size, and 513 is one
        # more than it; a third of the points lie near the switch at |x| = 25,
        # on either side of it
        for n in (3, 513, 4097, 10_003):
            rng = np.random.default_rng(n)
            xs = np.concatenate([rng.uniform(-1e4, 1e4, n - 2 * (n // 3)),
                                 rng.uniform(-30.0, 30.0, n // 3),
                                 25.0 + rng.uniform(-1e-6, 1e-6, n // 3)])
            rng.shuffle(xs)
            vec = bessel_j2(xs)
            assert vec.shape == (n,)
            for i in range(n):
                assert vec[i] == bessel_j2(float(xs[i]))

    def test_even(self):
        xs = np.concatenate([np.linspace(0.0, 1e4, 8193),
                             25.0 + np.linspace(-1e-6, 1e-6, 11)])
        np.testing.assert_array_equal(bessel_j2(-xs), bessel_j2(xs))

    def test_shapes(self):
        assert isinstance(bessel_j2(np.float64(2.5)), float)
        assert bessel_j2(0.0) == pytest.approx(0.0, abs=1e-16)
        grid = np.linspace(-50.0, 50.0, 12).reshape(3, 4)
        out = bessel_j2(grid)
        assert out.shape == (3, 4)
        np.testing.assert_array_equal(out.ravel(), bessel_j2(grid.ravel()))
        assert bessel_j2(np.empty(0)).shape == (0,)


class TestPyramid:
    def test_apex(self):
        assert lambda_rp(0.0, 0.0) == 1.0

    def test_axis_point(self):
        assert float(lambda_rp(0.75, 0.0)) == pytest.approx(0.25, abs=1e-14)

    def test_zero_outside_hexagon(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-3, 3, size=(400, 2))
        x, y = pts[:, 0], pts[:, 1]
        outside = np.abs(x) + np.abs(y) + np.abs(x - y) >= 2
        assert np.all(lambda_rp(x[outside], y[outside]) == 0.0)


class TestFrustums:
    def test_rpf_center_and_ramp(self):
        assert float(lambda_rpf(0.0, 0.0, c=0.5)) == 1.0
        assert float(lambda_rpf(0.75, 0.0, c=0.5)) == pytest.approx(0.5, abs=1e-14)

    def test_rpf_flat_inside_hexagon(self):
        rng = np.random.default_rng(1)
        c = 0.51
        pts = rng.uniform(-1, 1, size=(2000, 2))
        x, y = pts[:, 0], pts[:, 1]
        flat = np.abs(x) + np.abs(y) + np.abs(x - y) <= 2 * c
        vals = lambda_rpf(x[flat], y[flat], c=c)
        assert np.allclose(vals, 1.0, atol=1e-12)

    def test_rcf_center_and_ramp(self):
        assert float(lambda_rcf(0.0, 0.0, c=0.5)) == 1.0
        assert float(lambda_rcf(0.75, 0.0, c=0.5)) == pytest.approx(0.5, abs=1e-14)

    def test_rcf_zero_outside_ellipse(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-3, 3, size=(500, 2))
        x, y = pts[:, 0], pts[:, 1]
        outside = x * x - x * y + y * y >= 1
        assert np.all(lambda_rcf(x[outside], y[outside], c=0.51) == 0.0)
        assert np.all(lambda_rc(x[outside], y[outside]) == 0.0)

    @pytest.mark.parametrize("fn", [lambda_rpf, lambda_rcf])
    def test_bad_c_rejected(self, fn):
        with pytest.raises(ValueError):
            fn(0.1, 0.1, c=1.5)

    @pytest.mark.parametrize("fn,c", [(lambda_rpf, 0.51), (lambda_rcf, 0.51),
                                      (lambda_rpf, 0.3), (lambda_rcf, 0.3)])
    def test_range_and_symmetries(self, fn, c):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 2, size=(300, 2))
        for x, y in pts:
            v = float(fn(x, y, c=c))
            assert 0.0 - 1e-14 <= v <= 1.0 + 1e-14
            for image in SYMMETRY_IMAGES[1:]:
                assert float(fn(*image(x, y), c=c)) == pytest.approx(v, abs=1e-12)


class TestOptimalWindow:
    def test_origin_is_one(self):
        assert float(lambda_opt(0.0, 0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_argument_symmetry(self):
        rng = np.random.default_rng(4)
        for x, y in rng.uniform(-4, 4, size=(50, 2)):
            assert float(lambda_opt(x, y)) == pytest.approx(
                float(lambda_opt(y, x)), abs=1e-13)

    def test_value_at_unit_lag_matches_oracle(self):
        alpha = 2 * math.pi / math.sqrt(3)
        expected = 8.0 / alpha ** 2 * j2_series_oracle(alpha)
        assert float(lambda_opt(1.0, 0.0)) == pytest.approx(expected, abs=1e-12)

    def test_small_argument_series_branch_is_smooth(self):
        # values straddling the series/integral switch agree to high accuracy
        for q in (0.0769, 0.0771):  # alpha = q * 2pi/sqrt(3) near 0.5 switch
            x = q
            alpha = 2 * math.pi / math.sqrt(3) * x
            expected = 8.0 / alpha ** 2 * j2_series_oracle(alpha)
            assert float(lambda_opt(x, 0.0)) == pytest.approx(expected, abs=1e-13)

    def test_truncation_radius_bounds_tail(self):
        r = opt_truncation_radius(1e-3)
        ts = np.linspace(r * 1.02, r * 6, 400)
        assert np.all(np.abs(lambda_opt(ts, np.zeros_like(ts))) < 1e-3)

    def test_truncated_window(self):
        r = 2.5
        w = optimal_window(truncation_radius=r)
        assert w.support_radius == 2.0 / math.sqrt(3.0) * r
        assert w != optimal_window()
        assert w is parse_window("opt:truncation_radius=2.5")
        ax = np.linspace(-4.0, 4.0, 161)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        q = X * X - X * Y + Y * Y
        inside = q <= r * r
        vals = w.fn(X, Y)
        np.testing.assert_array_equal(vals[inside], lambda_opt(X, Y)[inside])
        assert np.all(vals[~inside] == 0.0)
        # the ellipse's bounding box is the support box
        assert np.all(np.abs(X[inside]) <= w.support_radius)
        clear = np.abs(q - r * r) > 1e-9
        np.testing.assert_allclose(w.qform_profile(np.sqrt(q))[clear], vals[clear],
                                   rtol=0, atol=1e-15)
        # the tail beyond |lambda_opt| = 1e-3 carries little of the L2 norm
        full = window_l2_norm(optimal_window())
        cut = window_l2_norm(optimal_window(opt_truncation_radius(1e-3)))
        assert cut < full
        assert cut == pytest.approx(full, rel=1e-4)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                optimal_window(bad)

    def test_curvature_at_zero(self):
        # analytic value -2 pi^2 / 9 from the quadratic term of the profile
        d2 = window_curvature_at_zero(optimal_window())
        assert d2 == pytest.approx(-2 * math.pi ** 2 / 9, rel=1e-6)


class TestPilots:
    def test_trapezoid_values(self):
        w = trapezoid_window(c=0.5)
        assert w(0.25) == 1.0
        assert w(0.75) == pytest.approx(0.5, abs=1e-14)
        assert w(1.2) == 0.0

    def test_parzen_values(self):
        w = parzen_window()
        assert w(0.0) == 1.0
        assert w(0.5) == pytest.approx(0.25, abs=1e-14)
        # the two branch formulas agree at the split point
        assert 2 * (1 - 0.5) ** 3 == pytest.approx(1 - 6 * 0.25 + 6 * 0.125)
        assert w(1.5) == 0.0

    def test_parzen_2d_is_symmetric(self):
        w = parzen_window_2d()
        rng = np.random.default_rng(5)
        for x, y in rng.uniform(-1, 1, size=(40, 2)):
            v = w(x, y)
            for image in SYMMETRY_IMAGES[1:]:
                assert w(*image(x, y)) == pytest.approx(v, abs=1e-13)


class TestSymmetricFlag:
    """`symmetric` is a promise an order-3 plan relies on: a window declares
    it only if its kernel is invariant under the six maps."""

    def test_hand_built_window_does_not_declare_it(self):
        assert not LagWindow(name="custom", order=3, fn=lambda_rp).symmetric

    @pytest.mark.parametrize("window", [
        flat_top_rpf(), flat_top_rcf(0.3), optimal_window(), optimal_window(10.0),
        parzen_window_2d(), symmetrize_even_1d(trapezoid_window()),
        symmetrize_even_1d(trapezoid_window(), "mean"),
        symmetrize(LagWindow(name="skew", order=3, support_radius=1.0,
                             fn=lambda x, y: np.maximum(1 - np.abs(x) - 2 * np.abs(y), 0)))],
        ids=lambda w: w.name)
    def test_package_windows_declare_it_and_keep_it(self, window):
        assert window.symmetric
        x, y = np.random.default_rng(8).uniform(-1.5, 1.5, size=(2, 400))
        want = np.asarray(window.fn(x, y), float)
        for m in SYMMETRY_MAPS[1:]:
            got = np.asarray(window.fn(*apply_symmetry(m, x, y)), float)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-14)


class TestSymmetrize:
    def test_symmetry_group_closed(self):
        mats = set(SYMMETRY_MAPS)
        for m1 in SYMMETRY_MAPS:
            for m2 in SYMMETRY_MAPS:
                (a, b), (c, d) = m1
                (e, f_), (g, h) = m2
                comp = ((a * e + b * g, a * f_ + b * h),
                        (c * e + d * g, c * f_ + d * h))
                assert comp in mats

    def test_constant_window_unchanged(self):
        const = LagWindow(name="one", order=3, fn=lambda x, y: np.ones_like(
            np.asarray(x, float)), support_radius=None)
        sym = symmetrize(const)
        assert sym(0.3, -0.7) == pytest.approx(1.0)

    def test_result_satisfies_symmetries(self):
        # deliberately asymmetric window
        raw = LagWindow(name="skew", order=3,
                        fn=lambda x, y: np.exp(-np.asarray(x, float) ** 2
                                               - 2 * np.asarray(y, float) ** 2),
                        support_radius=None, symmetric=False)
        sym = symmetrize(raw)
        rng = np.random.default_rng(6)
        for x, y in rng.uniform(-2, 2, size=(30, 2)):
            v = sym(x, y)
            for image in SYMMETRY_IMAGES[1:]:
                assert sym(*image(x, y)) == pytest.approx(v, abs=1e-12)

    def test_idempotent(self):
        raw = LagWindow(name="skew", order=3,
                        fn=lambda x, y: np.cos(np.asarray(x, float))
                        * np.exp(-np.abs(np.asarray(y, float))),
                        support_radius=None, symmetric=False)
        once = symmetrize(raw)
        twice = symmetrize(once)
        rng = np.random.default_rng(7)
        for x, y in rng.uniform(-2, 2, size=(25, 2)):
            assert twice(x, y) == pytest.approx(once(x, y), abs=1e-12)

    def test_even_1d_lift(self):
        lifted = symmetrize_even_1d(parzen_window(), combiner="gmean")
        direct = parzen_window_2d()
        rng = np.random.default_rng(8)
        for x, y in rng.uniform(-0.6, 0.6, size=(30, 2)):
            expected = direct(x, y) ** (1.0 / 3.0) if direct(x, y) > 0 else 0.0
            assert lifted(x, y) == pytest.approx(expected, abs=1e-12)


class TestValidateFlatTop:
    def test_rpf_passes_on_sector(self):
        report = validate_flat_top(flat_top_rpf(0.51), sector=True)
        assert report.passed, report.violations

    def test_rcf_passes_on_sector(self):
        report = validate_flat_top(flat_top_rcf(0.51), sector=True)
        assert report.passed, report.violations

    def test_rpf_fails_on_full_ball(self):
        # the hexagonal flat region does not contain the full disk of radius c
        report = validate_flat_top(flat_top_rpf(0.51), sector=False)
        assert not report.flat_ok

    def test_opt_fails_flatness(self):
        report = validate_flat_top(optimal_window(), b=0.2, bound_radius=3.0)
        assert not report.flat_ok
        assert report.bounded_ok

    def test_right_cone_bounded(self):
        cone = LagWindow(name="rc", order=3, fn=lambda_rc, support_radius=2.0)
        report = validate_flat_top(cone, b=0.0)
        assert report.bounded_ok

    def test_trapezoid_1d_passes(self):
        report = validate_flat_top(trapezoid_window(0.51))
        assert report.passed


class TestContinuity:
    @pytest.mark.parametrize("fn", [lambda_opt,
                                    lambda x, y: lambda_rpf(x, y, 0.51),
                                    lambda x, y: lambda_rcf(x, y, 0.51)])
    def test_sampled_lipschitz(self, fn):
        rng = np.random.default_rng(9)
        pts = rng.uniform(-2, 2, size=(200, 2))
        h = 1e-7
        for x, y in pts:
            assert abs(float(fn(x + h, y)) - float(fn(x, y))) < 1e-5


class TestNumericConstants:
    def test_opt_l2_matches_closed_form(self):
        # ||lambda_opt||^2 = (4pi/sqrt3) int g(r)^2 r dr = 8 / (sqrt3 pi), from
        # int_0^inf J2(t)^2 t^-3 dt = 1/24; the numeric integral stops at
        # quadratic-form radius 60 and so reads about 1.2e-7 low
        exact = math.sqrt(8.0 / (math.sqrt(3.0) * math.pi))
        assert exact == pytest.approx(1.21252232, abs=1e-8)
        assert abs(window_l2_norm(optimal_window()) - exact) <= 3e-7

    def test_trapezoid_l2(self):
        c = 0.51
        expected = math.sqrt(2 * c + 2 * (1 - c) / 3)
        assert window_l2_norm(trapezoid_window(c)) == pytest.approx(expected, rel=1e-8)

    def test_rcf_l2_matches_direct_2d_quadrature(self):
        w = flat_top_rcf(0.51)
        radial = window_l2_norm(w)
        ax = np.linspace(-1.2, 1.2, 1201)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        direct = math.sqrt(np.trapezoid(np.trapezoid(
            lambda_rcf(X, Y, 0.51) ** 2, ax, axis=1), ax))
        assert radial == pytest.approx(direct, rel=1e-4)

    @pytest.mark.parametrize("window", [flat_top_rpf(0.51), parzen_window_2d()],
                             ids=["rpf", "parzen2d"])
    def test_grid_l2_in_bounded_memory(self, window):
        # without a radial profile the norm is Simpson's rule on a 1601 x 1601
        # grid, row by row and then across the rows; evaluated a block of rows
        # at a time it keeps the bits of the whole-grid evaluation
        window = dataclasses.replace(window)  # a copy with an empty memo
        tracemalloc.start()
        try:
            got = window_l2_norm(window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6
        R = window.support_radius
        ax = np.linspace(-R, R, 1601)
        X, Y = np.meshgrid(ax, ax, indexing="ij")
        sq = np.asarray(window.fn(X, Y), float) ** 2
        rows = np.array([windows._simpson(sq[i], ax[1] - ax[0]) for i in range(ax.size)])
        assert got == math.sqrt(windows._simpson(rows, ax[1] - ax[0]))

    def test_flat_windows_have_zero_curvature_at_origin(self):
        assert window_curvature_at_zero(flat_top_rpf(0.51)) == pytest.approx(0.0, abs=1e-9)
        assert window_curvature_at_zero(trapezoid_window(0.51)) == pytest.approx(0.0, abs=1e-9)


class TestParseWindow:
    def test_roundtrip_with_params(self):
        w = parse_window("rpf:c=0.4")
        assert w.name == "rpf"
        assert w.params["c"] == 0.4

    def test_default_params(self):
        assert parse_window("opt").name == "opt"
        assert parse_window("trapezoid").params["c"] == 0.51

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            parse_window("hamming")

    def test_malformed_params(self):
        with pytest.raises(ValueError):
            parse_window("rpf:c")

    @pytest.mark.parametrize("spec", ["rpf:c=0.4", "rcf", "opt", "opt:truncation_radius=2.5",
                                      "trapezoid:c=0.6", "parzen", "parzen2d"])
    def test_one_window_per_spec(self, spec):
        # a window memoizes its lag plans and constants, so that every caller
        # asking for the same window shares them
        assert parse_window(spec) is parse_window(spec)


@pytest.mark.parametrize("factory,args", [
    (flat_top_rpf, (0.4,)), (flat_top_rcf, (0.6,)), (optimal_window, ()),
    (optimal_window, (2.5,)), (trapezoid_window, (0.4,)), (parzen_window, ()),
    (parzen_window_2d, ())])
def test_factory_returns_one_window_per_argument_set(factory, args):
    w = factory(*args)
    assert factory(*args) is w
    window_l2_norm(w)
    assert "l2" in factory(*args)._memo


def test_factory_returns_one_window_per_parameter_set():
    # positional, keyword and default forms of one parameter set, and the
    # keyword form `parse_window` uses, share one window and so one memo
    w = flat_top_rpf()
    assert flat_top_rpf(0.51) is w
    assert flat_top_rpf(c=0.51) is w
    assert parse_window("rpf:c=0.51") is w
    assert trapezoid_window(c=0.51) is trapezoid_window()
    assert optimal_window(truncation_radius=None) is optimal_window()
    assert flat_top_rcf(c=0.6) is flat_top_rcf(0.6) is not flat_top_rcf()


def test_apply_symmetry_matches_lambda_images():
    rng = np.random.default_rng(10)
    for x, y in rng.uniform(-3, 3, size=(20, 2)):
        for m, image in zip(SYMMETRY_MAPS, SYMMETRY_IMAGES):
            assert apply_symmetry(m, x, y) == pytest.approx(image(x, y))
