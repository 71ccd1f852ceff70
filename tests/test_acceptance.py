"""End-to-end acceptance checks.

Each test covers one headline requirement and finishes with a single
printed PASS line (visible with ``pytest -s``); the assertions themselves
carry the tolerances.
"""
import cmath
import math
import time

import mpmath
import numpy as np
import pytest

from flattopspec import (
    ModelSpec,
    TimeSeries,
    bessel_j2,
    central_moment_estimate,
    bandwidth_histogram_study,
    estimate_bispectrum,
    estimate_bispectrum_partial,
    estimate_spectrum,
    flat_top_rcf,
    flat_top_rpf,
    generate,
    lex_point,
    optimal_window,
    run_mse_study,
    select_bandwidth_bispectrum,
    select_bandwidth_general,
    trapezoid_window,
    validate_flat_top,
)

TWO_PI = 2.0 * math.pi


def _random_series(seed, n=50):
    rng = np.random.default_rng(seed)
    return TimeSeries(rng.standard_normal(n) ** 2)


def _cumulant_table(series):
    """Full-range third-order cumulant table via the direct estimator."""
    L = series.n - 1
    taus = np.arange(-L, L + 1)
    table = np.empty((len(taus), len(taus)))
    for a, t1 in enumerate(taus):
        for b, t2 in enumerate(taus):
            table[a, b] = central_moment_estimate(series, (t1, t2))
    return taus, table


def test_criterion_01_matches_naive_loop_oracles():
    """Production estimators agree with brute-force summation to 1e-10."""
    start = time.time()
    omega2 = 0.9
    omega3 = (0.7, -1.3)
    windows3 = [flat_top_rpf(0.51), flat_top_rcf(0.51), optimal_window()]
    for i in range(20):
        series = _random_series(100 + i, n=50)
        taus, table = _cumulant_table(series)
        c2 = np.array([central_moment_estimate(series, (t,)) for t in taus])
        phase1 = np.exp(-1j * taus * omega3[0])
        phase2 = np.exp(-1j * taus * omega3[1])
        for M in (2.0, 5.0):
            # second-order, trapezoidal flat-top pilot
            w2 = trapezoid_window(0.51)
            naive2 = np.sum(np.asarray(w2.fn(taus / M), float) * c2
                            * np.exp(-1j * taus * omega2)) / TWO_PI
            est2 = estimate_spectrum(series, w2, M, omega2, truncate=False)
            assert abs(est2.value - naive2.real) < 1e-10

            for window in windows3:
                X, Y = np.meshgrid(taus / M, taus / M, indexing="ij")
                weights = np.asarray(window.fn(X, Y), float)
                naive3 = np.sum(weights * table
                                * np.outer(phase1, phase2)) / TWO_PI ** 2
                est3 = estimate_bispectrum(series, window, M, omega3)
                assert abs(est3.value - naive3) < 1e-10
    elapsed = time.time() - start
    assert elapsed < 30.0
    print(f"criterion 1: PASS — oracle match to 1e-10, 20 series x 3 windows "
          f"x M in {{2,5}}, {elapsed:.1f}s")


def test_criterion_02_symmetry_suite():
    """Exact cumulant symmetries; estimator frequency symmetries to 1e-10."""
    window = flat_top_rpf(0.51)
    rng = np.random.default_rng(7)
    for i in range(20):
        series = _random_series(200 + i, n=30)
        for t1 in range(-6, 7):
            for t2 in range(-6, 7):
                v = central_moment_estimate(series, (t1, t2))
                images = [(t2, t1), (-t1, t2 - t1), (t2 - t1, -t1),
                          (t1 - t2, -t2), (-t2, t1 - t2)]
                for img in images:
                    assert central_moment_estimate(series, img) == v

        w1, w2 = rng.uniform(-2.0, 2.0, size=2)
        f = estimate_bispectrum(series, window, 3.0, (w1, w2)).value
        related = [
            estimate_bispectrum(series, window, 3.0, (w2, w1)).value,
            estimate_bispectrum(series, window, 3.0, (w1, -w1 - w2)).value,
            estimate_bispectrum(series, window, 3.0, (-w1 - w2, w2)).value,
            estimate_bispectrum(series, window, 3.0,
                                (-w1, -w2)).value.conjugate(),
        ]
        for g in related:
            assert abs(f - g) < 1e-10
    print("criterion 2: PASS — cumulant symmetries exact, estimator "
          "frequency symmetries within 1e-10 on 20 series")


def test_criterion_03_lexicographic_enumeration():
    """lex_point reproduces full enumeration of interior lattice points."""
    pts = [(1, 0)]
    i = 2
    while len(pts) < 10_000:
        for j in range(1, i):
            pts.append((i, j))
        i += 1
    pts = pts[:10_000]
    assert [lex_point(n) for n in range(1, 10_001)] == pts
    leading = [lex_point(n) for n in range(1, 5)]
    assert leading == [(1, 0), (2, 1), (3, 1), (3, 2)]
    print(f"criterion 3: PASS — exact to n=10000; P1..P4 = {leading}")


def test_criterion_04_iid_chisq_bispectrum_study():
    """At the origin the chi-square(1) study recovers mu3/(2 pi)^2."""
    start = time.time()
    target_mean = 8.0 / TWO_PI ** 2  # 0.202642
    target_mse = 2.887e-3
    report = run_mse_study([ModelSpec("iid-chisq1", seed=11)],
                           [flat_top_rpf(0.51)], bandwidths="auto",
                           N_list=(2000,), R=100, seed=11, calibrate=True)
    cell = report.cell("iid-chisq1", "rpf", 2000, "abs@origin")
    elapsed = time.time() - start
    assert abs(cell.mean_estimate - target_mean) / target_mean < 0.15
    assert target_mse / 3 < cell.mse < target_mse * 3
    assert elapsed < 600.0
    print(f"criterion 4: PASS — mean |fhat(0,0)| = {cell.mean_estimate:.4f} "
          f"(target {target_mean:.4f}), MSE = {cell.mse:.3e} "
          f"(reference {target_mse:.3e}), {elapsed:.1f}s")


def test_criterion_05_gaussian_arma_null():
    """For a linear Gaussian model the bispectrum estimate is near zero."""
    report = run_mse_study([ModelSpec("arma11", seed=5)],
                           [flat_top_rpf(0.51)], bandwidths="auto",
                           N_list=(2000,), R=100, seed=5, calibrate=True)
    mse_re = report.cell("arma11", "rpf", 2000, "re@(2,1)").mse
    mse_im = report.cell("arma11", "rpf", 2000, "im@(2,1)").mse
    assert mse_re < 1e-4
    assert mse_im < 1e-5
    print(f"criterion 5: PASS — Re MSE = {mse_re:.3e} < 1e-4, "
          f"Im MSE = {mse_im:.3e} < 1e-5")


def test_criterion_06_bandwidth_rule_consistency():
    """The selection rules lock onto the true dependence range."""
    hits = 0
    for r in range(100):
        g = np.random.Generator(np.random.Philox(1234, counter=r))
        z = g.standard_normal(5002)
        series = TimeSeries(z[2:] + z[1:-1] + z[:-2])  # MA(2), support 2
        if select_bandwidth_general(series, order=2).m_hat in (2, 3):
            hits += 1
    assert hits >= 80

    spec = ModelSpec("iid-chisq1", seed=6)
    chosen = [select_bandwidth_bispectrum(
        generate(spec, 2000, replication=r)).M_hat for r in range(100)]
    ones = sum(1 for m in chosen if m == 1)
    assert ones >= 85
    print(f"criterion 6: PASS — MA(2) stop at m in {{2,3}}: {hits}/100; "
          f"iid modal bandwidth 1: {ones}/100")


def test_criterion_07_small_sample_bias():
    """Mean of Chat(1) over 2000 MA(1) replications tracks (1 - 1/N) C(1)."""
    N, theta, reps = 100, 0.5, 2000
    g = np.random.Generator(np.random.Philox(7))
    z = g.standard_normal((reps, N + 1))
    x = z[:, 1:] + theta * z[:, :-1]
    chats = np.array([central_moment_estimate(TimeSeries(row), (1,))
                      for row in x])
    target = (1 - 1 / N) * theta  # true C(1) = theta for unit-variance noise
    se = chats.std(ddof=1) / math.sqrt(reps)
    slack = 3 * se + 5.0 / N
    assert abs(chats.mean() - target) <= slack
    print(f"criterion 7: PASS — mean Chat(1) = {chats.mean():.4f}, "
          f"target {target:.4f}, allowance {slack:.4f}")


def test_criterion_08_derivative_estimator():
    """Closed-form second partials match central finite differences."""
    series = _random_series(321, n=60)
    window = flat_top_rpf(0.51)
    M, om, h = 3.0, (0.8, 0.5), 1e-3

    def fhat(a, b):
        return estimate_bispectrum(series, window, M, (a, b)).value

    fd = {
        (1, 1): (fhat(om[0] + h, om[1]) - 2 * fhat(*om)
                 + fhat(om[0] - h, om[1])) / h ** 2,
        (2, 2): (fhat(om[0], om[1] + h) - 2 * fhat(*om)
                 + fhat(om[0], om[1] - h)) / h ** 2,
        (1, 2): (fhat(om[0] + h, om[1] + h) - fhat(om[0] + h, om[1] - h)
                 - fhat(om[0] - h, om[1] + h)
                 + fhat(om[0] - h, om[1] - h)) / (4 * h ** 2),
    }
    worst = 0.0
    for (i, j), approx in fd.items():
        exact = estimate_bispectrum_partial(series, window, M, om, i, j)
        rel = abs(approx - exact) / abs(exact)
        worst = max(worst, rel)
        assert rel < 1e-4
    print(f"criterion 8: PASS — worst relative FD error {worst:.2e} < 1e-4")


def test_criterion_09_window_axioms():
    """Flat-top validation verdicts and the Bessel J2 backbone."""
    assert validate_flat_top(flat_top_rpf(0.51), sector=True).passed
    assert validate_flat_top(flat_top_rcf(0.51), sector=True).passed
    assert not validate_flat_top(optimal_window(), b=0.2,
                                 bound_radius=3.0).flat_ok

    worst = 0.0
    for x in np.linspace(0.0, 30.0, 121):
        with mpmath.workdps(50):
            xx = mpmath.mpf(float(x))
            ref = sum((-1) ** m * (xx / 2) ** (2 * m + 2)
                      / (mpmath.factorial(m) * mpmath.factorial(m + 2))
                      for m in range(60))
        worst = max(worst, abs(bessel_j2(float(x)) - float(ref)))
    assert worst < 1e-12
    print(f"criterion 9: PASS — flat-top verdicts correct; "
          f"J2 max error {worst:.2e} < 1e-12 on [0, 30]")


def test_criterion_10_bandwidth_procedure_trends():
    """Selection-rule MSE shrinks with N; plug-in bandwidths grow with N.

    Procedure (a) runs at the default k and the flat-top pilots of (b)/(c)
    with bootstrap thresholds (at the default k the order-3 pilot rule stops
    at its cap on iid series); the pilots' two bootstraps are seeded per
    replication as in a study of all five procedures."""
    specs = [ModelSpec("iid-chisq1", seed=20), ModelSpec("arma11", seed=21)]
    results = (bandwidth_histogram_study(specs, N_list=(200, 2000), R=100,
                                         procedures=("a", "d", "e"))
               + bandwidth_histogram_study(specs, N_list=(200, 2000), R=100,
                                           procedures=("b", "c"), calibrate=True))
    table = {(r.model, r.n, r.procedure): r for r in results}
    for model in ("iid-chisq1", "arma11"):
        small = {p: table[model, 200, p] for p in "abcde"}
        large = {p: table[model, 2000, p] for p in "abcde"}
        # the selection rule may already be exact at N=200, hence <=
        assert large["a"].mse_relative <= small["a"].mse_relative
        assert large["b"].mse_relative < small["b"].mse_relative
        assert large["c"].mse_relative < small["c"].mse_relative
        assert large["d"].mean_bandwidth > small["d"].mean_bandwidth
        assert large["e"].mean_bandwidth > small["e"].mean_bandwidth
    print("criterion 10: PASS — (a)-(c) relative MSE falls and (d)/(e) "
          "bandwidths grow from N=200 to N=2000 on both models")
