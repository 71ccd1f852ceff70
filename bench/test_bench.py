"""Self-test of the benchmark: its checks reject wrong outputs, and tracing
leaves the package as it found it.

    python3 -m pytest -q bench/test_bench.py
"""
import copy
import dataclasses
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import flattopspec  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("bench"))


def _op(name, workdir, seed=5, index=1):
    wl = workloads.WORKLOADS[name]
    inp = wl.make(seed, index)
    return wl, inp, wl.collect(inp, wl.call(inp, workdir), workdir)


def _failed_ops(wl, inp, out):
    return run.check_ops(wl, [run.OpResult(0, inp, 0.1, out, None)])


def test_study_estimate_perturbed_by_1e8_is_a_failed_op(workdir):
    wl, inp, out = _op("study-sweep", workdir)
    assert _failed_ops(wl, inp, out) == {}
    for crit, field in (("abs@origin", 1), ("re@(2,1)", 0), ("T_composite", 0)):
        bad = copy.deepcopy(out)
        key = next(k for k in bad["cells"] if k.endswith("|" + crit))
        bad["cells"][key][field] *= 1.0 + 1e-8
        assert list(_failed_ops(wl, inp, bad)) == [0], crit


def test_oracle_estimate_perturbed_by_1e8_is_a_failed_op(workdir):
    wl, inp, out = _op("oracle", workdir)
    assert _failed_ops(wl, inp, out) == {}
    bad = copy.deepcopy(out)
    key = next(iter(bad["bispectrum"]))
    bad["bispectrum"][key][0] *= 1.0 + 1e-8
    assert list(_failed_ops(wl, inp, bad)) == [0]


def test_recorded_value_perturbed_by_1e8_is_a_mismatch():
    recorded = workloads.expected_outputs()["study-sweep"]
    assert checks.golden_mismatches(recorded, copy.deepcopy(recorded)) == []
    bad = copy.deepcopy(recorded)
    key = next(iter(bad["cells"]))
    bad["cells"][key][0] *= 1.0 + 1e-8
    assert checks.golden_mismatches(recorded, bad)


def _with_wrong_m_hat(sel, m_hat):
    if sel.rule == "general":
        return dataclasses.replace(sel, m_hat=m_hat, M_hat=m_hat / sel.params["b"])
    return dataclasses.replace(sel, m_hat=m_hat)


def test_wrong_m_hat_is_a_failed_op(workdir):
    wl, inp, out = _op("select", workdir)
    assert _failed_ops(wl, inp, out) == {}
    series = out["_series"]
    sel2 = out["_selections"][0]
    lex = flattopspec.select_bandwidth_bispectrum(series)
    for sel in (sel2, lex):
        assert checks.check_selection(series, sel) == []
        wrong = [sel.m_hat + 1] + ([sel.m_hat - 1] if sel.m_hat > 1 else [])
        for m in wrong:
            assert checks.check_selection(series, _with_wrong_m_hat(sel, m)), (sel.rule, m)
    bad = dict(out, _selections=(_with_wrong_m_hat(sel2, sel2.m_hat + 1),
                                 out["_selections"][1]))
    assert list(_failed_ops(wl, inp, bad)) == [0]


def _references():
    """Every (module or class, attribute) -> object of the package right now."""
    refs = {}
    for name, mod in sys.modules.items():
        if name == "flattopspec" or name.startswith("flattopspec."):
            refs.update({(name, k): v for k, v in vars(mod).items()})
    cls = flattopspec.spectra.BispectrumLagCache
    refs.update({("BispectrumLagCache", k): v for k, v in vars(cls).items()})
    return refs


def test_untraced_run_after_traced_run_sees_original_functions(workdir):
    wl = workloads.WORKLOADS["select"]
    inp = wl.make(5, 1)
    before = _references()
    tracer = tracing.Tracer()
    _, traced_out, err = run.execute(wl, inp, workdir, tracer, 0)
    assert err is None
    n_spans = len(tracer.spans)
    names = {s[3] for s in tracer.spans}
    assert {"op", "bandwidth.select_bandwidth_general", "bandwidth.bootstrap_threshold",
            "models.generate", "spectra.BispectrumLagCache.cumulants"} <= names
    after = _references()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    _, out, err = run.execute(wl, inp, workdir)
    assert err is None
    assert len(tracer.spans) == n_spans
    assert run._public(out) == run._public(traced_out)


def test_self_time_excludes_child_spans():
    # (id, parent, op, name, start, end, count)
    spans = [(0, -1, 0, "spectra.estimate_bispectrum", 0.0, 1.0, None),
             (1, 0, 0, "spectra.BispectrumLagCache.cumulants", 0.1, 0.7, 40),
             (2, 0, 0, "windows.lambda_rpf", 0.7, 0.8, 9),
             (3, 2, 0, "windows.lambda_rp", 0.7, 0.75, 9)]
    m = tracing.layer_metrics(spans, n_ops=2)
    assert m["spectra.freq_sum_ms"][0] == pytest.approx(150.0)
    assert m["spectra.cumulant_table_ms"][0] == pytest.approx(300.0)
    assert m["windows.kernel_ms"][0] == pytest.approx(50.0)
    assert m["windows.kernel_points"][0] == pytest.approx(4.5)
    assert m["spectra.lag_terms"][0] == pytest.approx(20.0)
