import csv
import dataclasses
import io
import json
import math

import numpy as np
import pytest

from flattopspec import (
    ModelSpec,
    TimeSeries,
    bandwidth_histogram_study,
    composite_grid,
    err_lambda,
    estimate_bispectrum,
    flat_top_rcf,
    flat_top_rpf,
    generate,
    optimal_window,
    run_mse_study,
)
from flattopspec import bandwidth, evaluate, spectra
from flattopspec.evaluate import CRITERIA, PROCEDURES


def spy_bootstrap_draws(monkeypatch):
    """The (lags, seed) of each `bootstrap_threshold` call from here on."""
    draws = []
    real = bandwidth.bootstrap_threshold

    def spy(series, tau0, seed=None, **kwargs):
        draws.append((tau0, seed))
        return real(series, tau0, seed=seed, **kwargs)
    monkeypatch.setattr(bandwidth, "bootstrap_threshold", spy)
    return draws


class TestCompositeGrid:
    def test_six_points_at_n5(self):
        assert len(composite_grid(5)) == 6

    def test_single_point_at_n3(self):
        assert len(composite_grid(3)) == 1

    def test_count_formula(self):
        for n in range(3, 15):
            assert len(composite_grid(n)) == (n - 1) * (n - 2) // 2

    def test_printed_point(self):
        grid = composite_grid(5)
        assert grid.points[0] == pytest.approx((4 * math.pi / 15, 2 * math.pi / 15))

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            composite_grid(2)

    def test_points_interior_to_triangle(self):
        # triangle (0,0), (pi,0), (2pi/3, 2pi/3): 0 < w2 < w1 and w1 + w2/... edges
        for n in range(3, 21):
            for w1, w2 in composite_grid(n).points:
                assert 0 < w2 < w1
                assert w1 + 2 * w2 < 2 * math.pi  # image of the right edge
                assert w1 < math.pi


class TestErrLambda:
    def test_exact_estimates_give_zero(self):
        est = np.array([1 + 1j, 2.0, 0.5j])
        assert err_lambda(est, est, np.ones(3)) == 0.0

    def test_single_point(self):
        assert err_lambda([3 + 4j], [0j], [2.0]) == pytest.approx(2.5)

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(0)
        est = rng.normal(size=5) + 1j * rng.normal(size=5)
        tru = rng.normal(size=5) + 1j * rng.normal(size=5)
        den = rng.uniform(0.5, 2.0, size=5)
        base = err_lambda(est, tru, den)
        scaled = err_lambda(tru + 3 * (est - tru), tru, den)
        assert scaled == pytest.approx(3 * base)

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            err_lambda([1.0], [0.0], [0.0])

    def test_rejects_misaligned(self):
        with pytest.raises(ValueError):
            err_lambda([1.0, 2.0], [0.0], [1.0])


class TestRunMseStudy:
    def test_self_test_mode_zero_mse(self):
        # with the truth set to the replication's own estimates, all losses vanish
        spec = ModelSpec("iid-chisq1", seed=123)
        window = flat_top_rpf()
        grid = composite_grid(5)
        series = generate(spec, 300, replication=0)
        points = [(0.0, 0.0), (2.0, 1.0)] + list(grid.points)
        known = {p: est.value
                 for p, est in zip(points, estimate_bispectrum(series, window, 2.0, points))}
        report = run_mse_study([spec], [window], bandwidths=2.0, N_list=(300,),
                               R=1, seed=123,
                               truth_override=lambda w: known[w])
        for name in CRITERIA:
            assert report.cell("iid-chisq1", "rpf", 300, name).mse == pytest.approx(
                0.0, abs=1e-22)

    def test_deterministic_reports(self):
        spec = ModelSpec("arma11")
        a = run_mse_study([spec], [flat_top_rpf()], bandwidths=1.0,
                          N_list=(200,), R=3, seed=5)
        b = run_mse_study([spec], [flat_top_rpf()], bandwidths=1.0,
                          N_list=(200,), R=3, seed=5)
        assert list(a.rows()) == list(b.rows())

    def test_fixed_bandwidth_sweep(self):
        spec = ModelSpec("iid-chisq1")
        report = run_mse_study([spec], [flat_top_rpf()], bandwidths=[1.0, 2.0],
                               N_list=(200,), R=2, seed=1)
        labels = {c.bandwidth for c in report.cells}
        assert labels == {"M=1", "M=2"}
        assert len(report.cells) == 2 * len(CRITERIA)

    def test_serialization(self, tmp_path):
        # the CSV as `csv.DictWriter` wrote it, byte for byte; the JSON table
        # compact, with sorted keys, and the objects the indented dump held
        spec = ModelSpec("iid-chisq1")
        report = run_mse_study([spec], [flat_top_rpf()], bandwidths=1.0,
                               N_list=(150,), R=2, seed=2)
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        text = csv_path.read_text()
        assert "abs@origin" in text
        cols = ["model", "window", "N", "bandwidth", "criterion", "R", "mse",
                "mean_estimate"]
        buf = io.StringIO(newline="")
        writer = csv.DictWriter(buf, fieldnames=cols)
        writer.writeheader()
        for row in report.rows():
            writer.writerow({k: repr(v) if isinstance(v, float) else v
                             for k, v in row.items()})
        assert csv_path.read_bytes() == buf.getvalue().encode()
        text = json_path.read_text()
        payload = {"meta": report.meta, "cells": list(report.rows())}
        assert text == json.dumps(payload, sort_keys=True)
        assert json.loads(text) == json.loads(json.dumps(payload, indent=2, sort_keys=True))

    def test_each_cell_mse_computed_once_per_report(self, tmp_path, monkeypatch):
        report = run_mse_study([ModelSpec("arma11")], [flat_top_rpf()],
                               bandwidths=[1.0, 2.0], N_list=(150,), R=2, seed=2)
        means = []
        real_mean = np.mean

        def spy(*args, **kwargs):
            means.append(args[0])
            return real_mean(*args, **kwargs)
        monkeypatch.setattr(np, "mean", spy)
        report.to_csv(tmp_path / "out.csv")
        report.to_json(tmp_path / "out.json")
        assert len(means) == len(report.cells)

    def test_one_lag_terms_call_per_window_and_bandwidth(self, monkeypatch):
        # the `study-sweep` benchmark op: 2 models x 2 windows x 3 bandwidths
        # at R = 1 read their lag terms in 12 calls, one per estimate call,
        # not one per frequency (12 points at grid n = 6: 144), from one
        # series per model (2 `generate` calls, not 12)
        used, generated = [], []
        lag_terms = spectra._lag_terms
        generate_series = evaluate.generate

        def spy(*args):
            used.append(args)
            return lag_terms(*args)
        monkeypatch.setattr(spectra, "_lag_terms", spy)
        monkeypatch.setattr(evaluate, "generate", lambda *args, **kwargs: generated.append(
            args) or generate_series(*args, **kwargs))
        models = [ModelSpec("iid-chisq1"), ModelSpec("arma11")]
        windows = [flat_top_rpf(0.51), flat_top_rcf(0.51)]
        report = run_mse_study(models, windows, bandwidths=[5.0, 15.0, 25.0],
                               N_list=(2000,), R=1, grid_n=6, seed=0)
        assert len(report.cells) == 12 * len(CRITERIA)
        assert len(generated) == 2
        assert len(used) == 12
        assert len({(s.values.tobytes(), w.name, M) for s, w, M, _ in used}) == 12

    def test_calibrated_selection_draws_k2_alone(self, monkeypatch):
        # one bootstrap per replication, at procedure (a)'s k2 lag with seed
        # 2 rep + 1, whatever the windows: k1 has no effect, so nothing draws it
        draws = spy_bootstrap_draws(monkeypatch)
        report = run_mse_study([ModelSpec("arma11")], [flat_top_rpf(), flat_top_rcf()],
                               N_list=(200,), R=3, seed=4, calibrate=True)
        assert draws == [([(6, 3)], 2 * rep + 1) for rep in range(3)]
        assert len(report.meta["cap_hits"]) == 2

    def test_requires_replications(self):
        with pytest.raises(ValueError):
            run_mse_study([ModelSpec("iid-chisq1")], [flat_top_rpf()], R=0)


class TestHistogramStudy:
    def test_selection_rule_concentrates_on_one(self):
        results = bandwidth_histogram_study(
            [ModelSpec("iid-chisq1", seed=8)], N_list=(2000,), R=10,
            procedures=("a",))
        res = results[0]
        assert res.procedure == "a"
        assert max(res.histogram, key=res.histogram.get) == 1
        assert res.mse_relative < 5.0

    def test_plugin_procedures_report_real_bandwidths(self):
        results = bandwidth_histogram_study(
            [ModelSpec("iid-chisq1", seed=9)], N_list=(200,), R=3,
            procedures=("b", "d"))
        by_proc = {r.procedure: r for r in results}
        assert set(by_proc) == {"b", "d"}
        assert np.all(by_proc["d"].bandwidths > 0)

    def test_procedure_subsets_match_full_run(self):
        specs = [ModelSpec("iid-chisq1", seed=11), ModelSpec("arma11", seed=11)]
        full = {(r.model, r.procedure): r.bandwidths
                for r in bandwidth_histogram_study(specs, N_list=(200,), R=2,
                                                   calibrate=True)}
        for subset in [("c",), ("b", "e"), ("d",), ("e", "a", "c")]:
            results = bandwidth_histogram_study(specs, N_list=(200,), R=2,
                                                procedures=subset, calibrate=True)
            assert [r.procedure for r in results] == list(subset) * len(specs)
            for r in results:
                np.testing.assert_array_equal(r.bandwidths,
                                              full[(r.model, r.procedure)])

    def test_pilot_bootstraps_seeded_per_replication(self, monkeypatch):
        # each replication's calibrated flat-top pilots resample with their
        # own block starts
        seeds = []
        real = bandwidth.bootstrap_threshold

        def spy(*args, seed=None, **kwargs):
            seeds.append(seed)
            return real(*args, seed=seed, **kwargs)

        monkeypatch.setattr(bandwidth, "bootstrap_threshold", spy)
        bandwidth_histogram_study([ModelSpec("iid-chisq1", seed=12)], N_list=(200,),
                                  R=3, procedures=("b",), calibrate=True)
        assert seeds == [0, 1, 2, 3, 4, 5]

    def test_uncalibrated_study_draws_no_bootstrap(self, monkeypatch):
        # with calibrate=False every threshold, the flat-top pilots' too, is
        # the default k: the pilots equal those of k = 2 given outright
        calls = []
        real = bandwidth.bootstrap_threshold
        monkeypatch.setattr(bandwidth, "bootstrap_threshold",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        spec = ModelSpec("arma11", seed=12)
        results = bandwidth_histogram_study([spec], N_list=(200,), R=2,
                                            procedures=("a", "b", "c"))
        assert calls == []
        window = optimal_window()
        for rep in range(2):
            series = generate(spec, 200, replication=rep)
            pilots = bandwidth._flat_top_pilots(series, 0.51, 2.0, 2.0)
            sels = bandwidth._plugin_selections(window, series, [(0.0, 0.0), (2.0, 1.0)],
                                                "flat-top", pilots)
            assert [r.bandwidths[rep] for r in results[1:]] == [s.M_hat for s in sels]

    def test_calibrated_study_draws_twice_per_replication(self, monkeypatch):
        # the pilots' (3,) comes from the resamples of seed s, and a's (6, 3)
        # and the pilots' (3, 0) share those of seed s + 1; a series' own
        # Philox is seeded with a SeedSequence
        specs = [ModelSpec("iid-chisq1", seed=13), ModelSpec("arma11", seed=13)]
        draws = []
        real_philox = np.random.Philox

        def philox_spy(seed=None):
            if not isinstance(seed, np.random.SeedSequence):
                draws.append(seed)
            return real_philox(seed)

        monkeypatch.setattr(np.random, "Philox", philox_spy)
        shared = bandwidth_histogram_study(specs, N_list=(200,), R=3, calibrate=True)
        assert draws == [0, 1, 2, 3, 4, 5] * len(specs)
        monkeypatch.undo()

        real = bandwidth.bootstrap_threshold

        split = []

        def one_lag_per_call(series, tau0, **kwargs):
            split.append(len(tau0))
            return [real(series, lag, **kwargs) for lag in tau0]

        monkeypatch.setattr(bandwidth, "bootstrap_threshold", one_lag_per_call)
        separate = bandwidth_histogram_study(specs, N_list=(200,), R=3, calibrate=True)
        assert split == [1, 2] * 3 * len(specs)
        assert [r.procedure for r in shared] == [r.procedure for r in separate]
        for a, b in zip(shared, separate):
            np.testing.assert_array_equal(a.bandwidths, b.bandwidths)

    def test_calibrated_draws_reduce_only_the_lags_read(self, monkeypatch):
        # the first draw serves the pilots' (3,) alone, the second (a)'s k2 at
        # (6, 3) and the pilots' (3, 0); no k1 is drawn, and a procedure set
        # without pilots or without (a) draws only what it reads
        draws = spy_bootstrap_draws(monkeypatch)
        spec = ModelSpec("arma11", seed=13)
        for procedures, per_rep in [
                (PROCEDURES, [[(3,)], [(6, 3), (3, 0)]]),
                (("a", "d"), [[], [(6, 3)]]),
                (("c",), [[(3,)], [(3, 0)]])]:
            draws.clear()
            bandwidth_histogram_study([spec], N_list=(200,), R=2, procedures=procedures,
                                      calibrate=True)
            assert draws == [(lags, 2 * rep + i) for rep in range(2)
                             for i, lags in enumerate(per_rep) if lags], procedures

    def test_cap_hits_per_replication(self, monkeypatch):
        # stubbed rules stop at their cap on replications 0 and 2 of 3: the
        # selection rule of (a) on both, the order-2 flat-top pilot rule on 0
        # and the order-3 one on 2; the second-order pilots have no cap
        calls = {}

        def at_cap_on(real, reps):
            # reps: the replications at the cap, by the rule's order
            def stub(series, *args, **kwargs):
                order = kwargs.get("order", 3)
                rep = calls[real, order] = calls.get((real, order), -1) + 1
                return dataclasses.replace(real(series, *args, **kwargs),
                                           cap_hit=rep in reps[order])
            return stub

        monkeypatch.setattr(evaluate, "select_bandwidth_bispectrum", at_cap_on(
            evaluate.select_bandwidth_bispectrum, {3: {0, 2}}))
        monkeypatch.setattr(bandwidth, "select_bandwidth_general", at_cap_on(
            bandwidth.select_bandwidth_general, {2: {0}, 3: {2}}))
        results = bandwidth_histogram_study([ModelSpec("arma11", seed=14)], N_list=(200,),
                                            R=3)
        assert {r.procedure: r.cap_hits.tolist() for r in results} == {
            "a": [True, False, True], "b": [True, False, True], "c": [True, False, True],
            "d": [False, False, False], "e": [False, False, False]}

    def test_unknown_procedure_rejected(self):
        with pytest.raises(ValueError, match="unknown procedures"):
            bandwidth_histogram_study([ModelSpec("iid-chisq1")], N_list=(200,),
                                      R=1, procedures=("b", "z"))

    def test_m_true_dict(self):
        results = bandwidth_histogram_study(
            [ModelSpec("arma11", seed=10)], N_list=(200,), R=2,
            procedures=("a",), M_true={"arma11": 2.0})
        assert results[0].M_true == 2.0
