import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from flattopspec import MODEL_KINDS, ModelSpec, evaluate, generate, spectra
from flattopspec.bandwidth import BandwidthSelection
from flattopspec.cli import main, parse_freq


@pytest.fixture
def chisq_file(tmp_path):
    rng = np.random.Generator(np.random.Philox(1))
    path = tmp_path / "data.txt"
    np.savetxt(path, rng.standard_normal(2000) ** 2)
    return path


class TestParseFreq:
    def test_plain_number(self):
        assert parse_freq("0.75") == 0.75

    def test_pi_literals(self):
        assert parse_freq("pi") == pytest.approx(math.pi)
        assert parse_freq("pi/3") == pytest.approx(math.pi / 3)
        assert parse_freq("2pi/3") == pytest.approx(2 * math.pi / 3)
        assert parse_freq("-pi/2") == pytest.approx(-math.pi / 2)
        assert parse_freq("0.5*pi") == pytest.approx(math.pi / 2)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_freq("three")

    @pytest.mark.parametrize("text", ["pi/0", "2pi/0.0", "1e400", "nan", "inf", "-inf"])
    def test_rejects_zero_denominator_and_non_finite(self, text):
        with pytest.raises(ValueError, match="zero denominator|not finite"):
            parse_freq(text)


_SIMULATE = ["estimate", "--model", "iid-chisq1", "--N", "200"]
_STUDY = ["study", "--N", "100", "--R", "1", "--grid-n", "3"]


@pytest.mark.parametrize("argv, names", [
    (_SIMULATE + ["--at", "pi/0,1"], "frequency"),
    (_SIMULATE + ["--at", "1e400,1"], "frequency"),
    (_SIMULATE + ["--at", "nan,1"], "frequency"),
    (_SIMULATE + ["--at", "2,1", "--bandwidth", "inf"], "bandwidth"),
    (_SIMULATE + ["--at", "2,1", "--bandwidth", "nan"], "bandwidth"),
    (_SIMULATE + ["--order", "2", "--at", "1", "--bandwidth", "inf"], "bandwidth"),
    (_STUDY + ["--bandwidth", "inf"], "bandwidth"),
    (_STUDY + ["--bandwidth", "5,nan"], "bandwidth"),
    (_SIMULATE + ["--at", "2,1", "--window", "rcf", "--bandwidth", "1e-200"], "M = 1e-200"),
    (_SIMULATE + ["--at", "2,1", "--window", "opt", "--bandwidth", "1e-160"], "M = 1e-160"),
    (_SIMULATE + ["--at", "2,1", "--bandwidth", "1e-320"], "M = 1e-320"),
], ids=["at-pi/0", "at-1e400", "at-nan", "estimate-inf", "estimate-nan",
        "estimate-order2-inf", "study-inf", "study-nan", "rcf-1e-200", "opt-1e-160",
        "rpf-1e-320"])
def test_bad_frequency_or_bandwidth_exit_2(argv, names, tmp_path, capfd):
    # these raised ZeroDivisionError or OverflowError out of `main`, wrote
    # a row of NaN and exited 0, or failed converting NaN to an integer
    code = main(argv + ["--output", str(tmp_path / "x.csv")])
    err = capfd.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, names", [
    (_SIMULATE + ["--at", "2,1", "--window", "rpf:x=1"], "'x' (it takes c)"),
    (_SIMULATE + ["--order", "2", "--at", "1", "--window", "parzen:c=0.5"],
     "'c' (it takes none)"),
    (_STUDY + ["--windows", "rpf:q=2", "--bandwidth", "3"], "'q' (it takes c)"),
], ids=["estimate-rpf", "estimate-parzen", "study-rpf"])
def test_unknown_window_parameter_exits_2(argv, names, tmp_path, capfd):
    # `inspect.Signature.bind` raised TypeError out of `main`
    code = main(argv + ["--output", str(tmp_path / "x.csv")])
    err = capfd.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert names in err


class TestEstimate:
    def test_bispectrum_from_file(self, chisq_file, tmp_path, capsys):
        out = tmp_path / "est.csv"
        code = main(["estimate", "--input", str(chisq_file), "--order", "3",
                     "--window", "rpf:c=0.51", "--bandwidth", "auto",
                     "--at", "0,0", "--output", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "omega1,omega2,re,im,M,window,N"
        re_val = float(lines[1].split(",")[2])
        assert 0.1 < re_val < 0.35  # near mu3 / (2 pi)^2 for chi-square(1) noise
        assert (tmp_path / "est.csv.config.json").exists()

    def test_order_two_has_zero_imaginary(self, chisq_file, capsys):
        code = main(["estimate", "--input", str(chisq_file), "--order", "2",
                     "--at", "0.5", "--at", "pi/3"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert all(float(line.split(",")[2]) == 0.0 for line in lines[1:])

    def test_missing_file_exit_2(self, tmp_path):
        assert main(["estimate", "--input", str(tmp_path / "nope.txt"),
                     "--at", "0,0"]) == 2

    def test_nan_input_exit_2(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0\nnan\n2.0\n")
        assert main(["estimate", "--input", str(path), "--at", "0,0"]) == 2

    def test_unknown_window_exit_2(self, chisq_file):
        assert main(["estimate", "--input", str(chisq_file),
                     "--window", "bogus", "--at", "0,0"]) == 2

    def test_degenerate_data_exit_3(self, tmp_path):
        path = tmp_path / "const.txt"
        np.savetxt(path, np.full(200, 3.0))
        assert main(["estimate", "--input", str(path), "--at", "0,0"]) == 3

    @pytest.mark.parametrize("order,at", [("2", ["--at", "0.3", "--at", "1.2"]),
                                          ("3", ["--at", "0,0", "--at", "2,1"])])
    @pytest.mark.parametrize("text", ["5\n", "5"])
    def test_one_value_file_is_a_one_sample_series(self, tmp_path, capsys, order, at, text):
        path = tmp_path / "one.txt"
        path.write_text(text)
        args = ["estimate", "--input", str(path), "--order", order, *at]
        assert main([*args, "--bandwidth", "2"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert all(line.endswith(",1") for line in lines[1:])
        # one sample has zero variance, so no bandwidth can be selected
        assert main([*args, "--bandwidth", "auto"]) == 3

    def test_multi_channel_input_exit_2(self, tmp_path, capsys):
        path = tmp_path / "two.txt"
        rng = np.random.Generator(np.random.Philox(2))
        np.savetxt(path, rng.standard_normal((300, 2)))
        assert main(["estimate", "--input", str(path), "--at", "0,0"]) == 2
        assert "2 columns" in capsys.readouterr().err

    def test_sidecar_bytes_identical_across_processes(self, chisq_file, tmp_path):
        out = tmp_path / "est.csv"
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        for bandwidth in ("5", "auto"):
            cmd = [sys.executable, "-m", "flattopspec.cli", "estimate",
                   "--input", str(chisq_file), "--order", "3", "--at", "2,1",
                   "--bandwidth", bandwidth, "--output", str(out)]
            sidecars = []
            for _ in range(2):
                subprocess.run(cmd, check=True, env=env)
                sidecars.append((tmp_path / "est.csv.config.json").read_bytes())
            assert sidecars[0] == sidecars[1]
            assert b"func" not in sidecars[0]
            config = json.loads(sidecars[0])
            if bandwidth == "5":
                assert "selection" not in config
                continue
            sel = config["selection"]
            assert set(sel) == {"rule", "m_hat", "M_hat", "thresholds", "cap_hit"}
            assert sel["rule"] == "bispectrum"
            assert sel["cap_hit"] is False
            M = float(out.read_text().splitlines()[1].split(",")[4])
            assert M == max(sel["M_hat"], 1.0)
            assert set(sel["thresholds"]) == {"k1", "k2", "base"}

    def test_sidecar_records_cap_hit(self, tmp_path, capsys):
        # a quadratic trend keeps every third-order lag correlated
        path = tmp_path / "trend.txt"
        np.savetxt(path, np.arange(400, dtype=float) ** 2)
        out = tmp_path / "est.csv"
        with pytest.warns(UserWarning, match="stopped at its search cap"):
            code = main(["estimate", "--input", str(path), "--order", "3",
                         "--at", "2,1", "--output", str(out)])
        assert code == 0
        sel = json.loads((tmp_path / "est.csv.config.json").read_text())["selection"]
        assert sel["cap_hit"] is True
        assert sel["m_hat"] == 100

    def test_model_simulation(self, capsys):
        code = main(["estimate", "--model", "iid-chisq1", "--N", "500",
                     "--seed", "4", "--at", "2,1"])
        assert code == 0
        assert "rpf" in capsys.readouterr().out

    def test_bispectrum_points_share_one_lag_cache(self, monkeypatch, capsys):
        # one `_lag_terms` call per (series, window, M), so the three points
        # read one store's cumulants once; the selection rule has its own store
        used = []
        lag_terms = spectra._lag_terms

        def spy(*args):
            used.append(args)
            return lag_terms(*args)
        monkeypatch.setattr(spectra, "_lag_terms", spy)
        assert main(["estimate", "--model", "iid-chisq1", "--N", "300", "--order", "3",
                     "--at", "0,0", "--at", "1,0.5", "--at", "2,1"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4
        assert len(used) == 1 and used[0][3] == 3

    @pytest.mark.parametrize("order", [2, 3])
    @pytest.mark.parametrize("exponent", [-300, 300])
    def test_extreme_scale_is_degenerate(self, tmp_path, capfd, order, exponent):
        # C(0)^(s/2) under- or overflows: the selection rules used to raise
        # ZeroDivisionError (order 2, 2^-300), stop at their cap (order 3,
        # 2^-300) or select m = 1 silently (2^300)
        series = generate(ModelSpec(kind="garch11", seed=0), 400)
        path = tmp_path / "scaled.txt"
        np.savetxt(path, np.ldexp(series.values, exponent))
        code = main(["estimate", "--input", str(path), "--order", str(order),
                     "--bandwidth", "auto", "--at", "0" if order == 2 else "0,0"])
        err = capfd.readouterr().err
        assert code == 3
        assert err.startswith("error: degenerate data")
        assert "Traceback" not in err

    def test_requires_exactly_one_source(self, chisq_file, capsys):
        assert main(["estimate", "--at", "0,0"]) == 2
        assert main(["estimate", "--input", str(chisq_file),
                     "--model", "iid-chisq1", "--at", "0,0"]) == 2

    def test_unknown_flag_is_hard_error(self, chisq_file):
        assert main(["estimate", "--input", str(chisq_file), "--at", "0,0",
                     "--frobnicate"]) == 2


class TestStudy:
    def test_small_study_deterministic(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ["study", "--models", "iid-chisq1", "--windows", "rpf:c=0.51",
                "--N", "200", "--R", "2", "--bandwidth", "1", "--seed", "7"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        sidecar = json.loads((tmp_path / "s1.csv.json").read_text())
        assert sidecar["cells"]
        assert "cap_hits" not in sidecar["meta"]  # no selection at a fixed M

    def test_sidecar_counts_selections_at_the_cap(self, tmp_path, monkeypatch):
        # a stubbed rule that stops at its cap on replications 0 and 2 of 3;
        # it runs once per series, 2 models x 3 replications, and both
        # windows read its selection; the table itself keeps its columns
        calls = []

        def capped(series, k1=2.0, k2=2.0, b=0.51):
            calls.append(series)
            return BandwidthSelection(M_hat=3.0, m_hat=1, rule="bispectrum",
                                      thresholds={}, cap_hit=len(calls) % 3 != 2)
        monkeypatch.setattr(evaluate, "select_bandwidth_bispectrum", capped)
        out = tmp_path / "s.csv"
        assert main(["study", "--models", "iid-chisq1,arma11",
                     "--windows", "rpf:c=0.51,rcf:c=0.51", "--N", "60",
                     "--R", "3", "--bandwidth", "auto", "--grid-n", "3",
                     "--seed", "1", "--output", str(out)]) == 0
        assert len(calls) == 6
        meta = json.loads((tmp_path / "s.csv.json").read_text())["meta"]
        assert meta["cap_hits"] == [
            {"model": m, "window": w, "N": 60, "at_cap": 2}
            for m in ("iid-chisq1", "arma11") for w in ("rpf", "rcf")]
        assert out.read_text().splitlines()[0] == \
            "model,window,N,bandwidth,criterion,R,mse,mean_estimate"

    def test_unknown_window_exit_2(self, tmp_path):
        assert main(["study", "--windows", "nope", "--R", "1",
                     "--output", str(tmp_path / "x.csv")]) == 2

    def test_unknown_model_exit_2(self, tmp_path, capsys):
        assert main(["study", "--models", "nope", "--R", "1",
                     "--output", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert f"unknown model 'nope' (choose from {sorted(MODEL_KINDS)})" in err

    def test_bilinear_without_oracle_exit_4(self, tmp_path):
        assert main(["study", "--models", "bilinear", "--R", "1", "--N", "100",
                     "--output", str(tmp_path / "x.csv")]) == 4


class TestOracle:
    def test_build_and_use(self, tmp_path):
        table = tmp_path / "garch.csv"
        code = main(["oracle", "--model", "garch11", "--R", "2",
                     "--L-sim", "1200", "--grid-n", "3", "--seed", "3",
                     "--output", str(table)])
        assert code == 0
        assert table.exists()

        out = tmp_path / "study.csv"
        code = main(["study", "--models", "garch11", "--N", "150", "--R", "1",
                     "--bandwidth", "1", "--grid-n", "3",
                     "--oracle-table", str(table), "--output", str(out)])
        assert code == 0

    def test_rerun_identical(self, tmp_path):
        t1 = tmp_path / "a.csv"
        t2 = tmp_path / "b.csv"
        args = ["oracle", "--model", "garch11", "--R", "1", "--L-sim", "800",
                "--grid-n", "3", "--seed", "5"]
        assert main(args + ["--output", str(t1)]) == 0
        assert main(args + ["--output", str(t2)]) == 0
        assert t1.read_bytes() == t2.read_bytes()

    def test_iid_not_allowed(self):
        assert main(["oracle", "--model", "iid-chisq1"]) == 2


class TestParserMemo:
    def test_repeated_calls_match_fresh_processes(self, tmp_path, capsys):
        # one parser serves every call of `main` in a process: two estimates
        # and two studies give the bytes of fresh processes, and --at starts
        # empty at each call
        est, study = tmp_path / "est.csv", tmp_path / "study.csv"
        runs = [
            ["estimate", "--model", "arma11", "--N", "300", "--seed", "4",
             "--at", "0,0", "--at", "2,1"],
            ["estimate", "--model", "arma11", "--N", "300", "--seed", "4",
             "--at", "1,0.5", "--output", str(est)],
            ["study", "--models", "iid-chisq1", "--windows", "rpf:c=0.51,opt",
             "--N", "120", "--R", "1", "--grid-n", "4", "--seed", "2",
             "--output", str(study)],
            ["study", "--models", "arma11", "--N", "150", "--R", "2",
             "--bandwidth", "3,5", "--seed", "3", "--output", str(study)],
        ]
        files = [[], [est, Path(f"{est}.config.json")], [], []]
        files[2] = files[3] = [study, Path(f"{study}.json"), Path(f"{study}.config.json")]

        def outputs(run, i):
            stdout = run(runs[i])
            return [stdout] + [f.read_bytes() for f in files[i]]

        def in_process(args):
            assert main(args) == 0
            return capsys.readouterr().out.encode()

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))

        def fresh(args):
            return subprocess.run([sys.executable, "-m", "flattopspec.cli", *args],
                                  check=True, env=env, capture_output=True).stdout

        repeated = [outputs(in_process, i) for i in range(len(runs))]
        assert repeated == [outputs(fresh, i) for i in range(len(runs))]
        assert len(repeated[0][0].decode().splitlines()) == 3
        assert est.read_text().count("\n") == 2
        assert json.loads(files[1][1].read_text())["at"] == ["1,0.5"]


def test_help_lists_subcommands(capsys):
    assert main(["--help"]) == 0
    out = capsys.readouterr().out
    for cmd in ("estimate", "study", "oracle"):
        assert cmd in out


def test_subcommand_help_lists_flags(capsys):
    assert main(["study", "--help"]) == 0
    out = capsys.readouterr().out
    for flag in ("--models", "--windows", "--N", "--R", "--bandwidth",
                 "--grid-n", "--calibrate", "--oracle-table", "--seed",
                 "--output"):
        assert flag in out
    # --threads was a documented no-op and is no longer accepted
    assert "--threads" not in out
    assert main(["study", "--threads", "2", "--R", "1"]) == 2
