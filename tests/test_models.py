import hashlib
import math

import numpy as np
import pytest

from flattopspec import (
    MissingReferenceError,
    ModelSpec,
    ReferenceTable,
    build_reference_table,
    composite_grid,
    generate,
    reference_bispectrum,
    spectra,
    true_spectrum,
)

TWO_PI = 2.0 * math.pi

# sha256 of generate(ModelSpec(kind, seed=11), 64, replication=2).values
SERIES_DIGESTS = {
    "iid-chisq1": "0e8393f45cc592a4430a24788aa902a31b77de7c82fec51b075aa2f26b3a6d9a",
    "arma11": "e4318d6c6b65a01f0a5d3f9a8b3bbf0b1b2345c96c6e27e732c7f27fea274a66",
    "garch11": "691408af5370d845e689f945785b761ed681feddede0f5906c3e2ed458273db3",
    "bilinear": "0556d2df308cfd3241535f624e99c23c9f866f0b19e43fc9fffa5de319e9cf41",
}


class TestModelSpec:
    def test_defaults_merge(self):
        spec = ModelSpec("arma11")
        assert spec.param("phi") == 0.5
        assert spec.param("theta") == -0.5
        assert spec.burn_in == 1000

    def test_iid_has_no_burn_in(self):
        assert ModelSpec("iid-chisq1").burn_in == 0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            ModelSpec("ou-process")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError):
            ModelSpec("arma11", params=(("rho", 0.3),))

    def test_nonstationary_rejected(self):
        with pytest.raises(ValueError):
            ModelSpec("arma11", params=(("phi", 1.2),))
        with pytest.raises(ValueError):
            ModelSpec("garch11", params=(("alpha1", 0.7), ("alpha2", 0.4)))
        with pytest.raises(ValueError):
            ModelSpec("bilinear", params=(("a", 0.9), ("b", 0.9)))


class TestGenerate:
    def test_deterministic(self):
        spec = ModelSpec("garch11", seed=42)
        a = generate(spec, 500, replication=3)
        b = generate(spec, 500, replication=3)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("kind", sorted(SERIES_DIGESTS))
    def test_series_owns_its_values(self, kind):
        # a view into the N + burn-in buffer would keep all of it alive; the
        # digests are of the values such a view held
        s = generate(ModelSpec(kind, seed=11), 64, replication=2)
        assert s.values.base is None
        assert s.values.shape == (64,)
        assert hashlib.sha256(s.values.tobytes()).hexdigest() == SERIES_DIGESTS[kind]

    def test_replications_differ(self):
        spec = ModelSpec("iid-chisq1", seed=42)
        a = generate(spec, 100, replication=0)
        b = generate(spec, 100, replication=1)
        assert not np.allclose(a.values, b.values)

    def test_iid_chisq_moments(self):
        s = generate(ModelSpec("iid-chisq1", seed=1), 200_000)
        x = s.values
        assert x.mean() == pytest.approx(1.0, abs=0.02)
        assert x.var() == pytest.approx(2.0, abs=0.06)
        assert ((x - x.mean()) ** 3).mean() == pytest.approx(8.0, rel=0.1)

    def test_arma_with_zero_coefficients_is_white(self):
        spec = ModelSpec("arma11", params=(("phi", 0.0), ("theta", 0.0)), seed=9)
        s = generate(spec, 50_000)
        x = s.values
        assert x.var() == pytest.approx(1.0, abs=0.03)
        lag1 = np.corrcoef(x[1:], x[:-1])[0, 1]
        assert abs(lag1) < 0.02

    def test_arma_is_second_order_white(self):
        s = generate(ModelSpec("arma11", seed=4), 100_000)
        x = s.values
        for lag in range(1, 6):
            r = np.corrcoef(x[lag:], x[:-lag])[0, 1]
            assert abs(r) < 0.02

    def test_garch_unit_variance(self):
        s = generate(ModelSpec("garch11", seed=5), 200_000)
        assert s.values.var() == pytest.approx(1.0, abs=0.1)

    def test_burn_in_reaches_stationarity(self):
        s = generate(ModelSpec("bilinear", seed=6), 100_000)
        x = s.values
        v1 = x[: len(x) // 2].var()
        v2 = x[len(x) // 2:].var()
        assert abs(v1 - v2) / v1 < 0.05

    def test_n_positive(self):
        with pytest.raises(ValueError):
            generate(ModelSpec("iid-chisq1"), 0)


class TestTruth:
    def test_iid_spectrum(self):
        assert true_spectrum(ModelSpec("iid-chisq1"), 0.0) == pytest.approx(2 / TWO_PI)

    def test_arma_spectrum_is_flat(self):
        spec = ModelSpec("arma11")
        for w in (0.0, 0.7, 2.9):
            assert true_spectrum(spec, w) == pytest.approx(1 / TWO_PI, rel=1e-12)

    def test_arma_general_transfer_function(self):
        spec = ModelSpec("arma11", params=(("phi", 0.3), ("theta", 0.4)))
        w = 1.1
        e = complex(math.cos(w), -math.sin(w))
        expected = abs(1 + 0.4 * e) ** 2 / (TWO_PI * abs(1 - 0.3 * e) ** 2)
        assert true_spectrum(spec, w) == pytest.approx(expected, rel=1e-12)

    def test_garch_spectrum(self):
        assert true_spectrum(ModelSpec("garch11"), 1.5) == pytest.approx(1 / TWO_PI)

    def test_bilinear_needs_table(self):
        with pytest.raises(MissingReferenceError):
            true_spectrum(ModelSpec("bilinear"), 0.0)

    def test_iid_bispectrum_constant(self):
        val = reference_bispectrum(ModelSpec("iid-chisq1"), (2.0, 1.0))
        assert val == pytest.approx(8 / TWO_PI ** 2)
        assert val.real == pytest.approx(0.202642, abs=1e-6)

    def test_arma_bispectrum_zero(self):
        assert reference_bispectrum(ModelSpec("arma11"), (0.4, 0.2)) == 0j

    def test_garch_bispectrum_needs_table(self):
        with pytest.raises(MissingReferenceError):
            reference_bispectrum(ModelSpec("garch11"), (0.0, 0.0))


class TestReferenceTable:
    def test_roundtrip(self, tmp_path):
        table = ReferenceTable(model="bilinear",
                               meta={"R": 5, "L_sim": 100, "seed": 7})
        table.spectrum[round(0.5, 9)] = 0.31
        table.bispectrum[(round(0.5, 9), round(0.25, 9))] = 1.5 - 0.25j
        path = tmp_path / "table.csv"
        table.save(path)
        loaded = ReferenceTable.load(path)
        assert loaded.model == "bilinear"
        assert loaded.meta["R"] == 5
        assert loaded.lookup_spectrum(0.5) == 0.31
        assert loaded.lookup_bispectrum(0.5, 0.25) == 1.5 - 0.25j

    def test_missing_frequency(self):
        table = ReferenceTable(model="garch11")
        with pytest.raises(MissingReferenceError):
            table.lookup_bispectrum(0.1, 0.1)

    def test_load_rejects_other_files(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(MissingReferenceError):
            ReferenceTable.load(path)


class TestBuildReferenceTable:
    def test_small_bilinear_oracle(self):
        spec = ModelSpec("bilinear", seed=3)
        table = build_reference_table(spec, freqs2=(0.0,),
                                      freqs3=((0.0, 0.0),), R=8, L_sim=4000)
        origin = table.lookup_bispectrum(0.0, 0.0)
        # the bilinear bispectrum peaks at the origin with a positive real part
        assert origin.real > 0.1
        assert abs(origin.imag) < abs(origin.real)
        assert table.lookup_spectrum(0.0) > 0

    def test_deterministic(self):
        spec = ModelSpec("garch11", seed=2)
        t1 = build_reference_table(spec, freqs3=((0.0, 0.0),), R=3, L_sim=1500)
        t2 = build_reference_table(spec, freqs3=((0.0, 0.0),), R=3, L_sim=1500)
        assert t1.bispectrum == t2.bispectrum

    def test_validation(self):
        with pytest.raises(ValueError):
            build_reference_table(ModelSpec("garch11"), R=0)

    def test_one_lag_cache_per_series(self, monkeypatch):
        # the 8 bispectrum frequencies of grid n = 5 read the cumulants of a
        # realization in one `_lag_terms` call per (series, window, M), not
        # one each (the selection rule has its own store)
        used = []
        lag_terms = spectra._lag_terms

        def spy(*args):
            used.append(args)
            return lag_terms(*args)
        monkeypatch.setattr(spectra, "_lag_terms", spy)
        freqs3 = [(0.0, 0.0), (2.0, 1.0)] + list(composite_grid(5).points)
        build_reference_table(ModelSpec("garch11", seed=1), freqs3=freqs3, R=2,
                              L_sim=800)
        assert len(freqs3) == 8 and len(used) == 2
        assert used[0][1] is used[1][1] and used[0][3] == used[1][3] == 3
        assert used[0][0] is not used[1][0]
