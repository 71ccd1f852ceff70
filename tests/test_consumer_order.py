"""Every consumer of a series' cumulants gets the same bits whatever ran on
that series before it: the estimators, the curvature, both scan rules and the
plug-in rule, called on one series in any order (repeats included), each
against a call on a fresh copy of the series."""
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from flattopspec import (
    MODEL_KINDS,
    DegenerateSeriesError,
    ModelSpec,
    TimeSeries,
    bispectrum_curvature,
    estimate_bispectrum,
    estimate_bispectrum_partial,
    estimate_spectrum,
    flat_top_rpf,
    generate,
    opt_truncation_radius,
    optimal_window,
    plugin_bandwidth,
    select_bandwidth_bispectrum,
    select_bandwidth_general,
    trapezoid_window,
)

PAIRS = [(0.0, 0.0), (2.0, 1.0), (-0.4, 2.9)]
RPF = flat_top_rpf()
OPT = optimal_window(opt_truncation_radius(1e-3))

CONSUMERS = {
    "spectrum": lambda s: estimate_spectrum(s, trapezoid_window(), 3.0, [0.3, 1.2, 2.5]),
    "bispectrum": lambda s: estimate_bispectrum(s, RPF, 3.0, PAIRS),
    "partial": lambda s: estimate_bispectrum_partial(s, RPF, 4.0, (1.0, 0.5), 1, 2),
    "curvature": lambda s: bispectrum_curvature(s, OPT, 2.0, PAIRS),
    "general-2": lambda s: select_bandwidth_general(s, order=2),
    "general-3": lambda s: select_bandwidth_general(s, order=3),
    "bispectrum-rule": lambda s: select_bandwidth_bispectrum(s),
    "plugin": lambda s: plugin_bandwidth(OPT, s, PAIRS[:2], calibrate=False),
}


def outcome(name, series):
    """The repr of what consumer `name` returns on `series`, which shows
    every float's bits, or the message of the `DegenerateSeriesError` it
    raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a selection at its cap
        try:
            return repr(CONSUMERS[name](series))
        except DegenerateSeriesError as exc:  # a short series may be
            return f"DegenerateSeriesError: {exc}"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(kind=st.sampled_from(sorted(MODEL_KINDS)), seed=st.integers(0, 2 ** 16),
       N=st.integers(2, 60), order=st.permutations(sorted(CONSUMERS)),
       repeats=st.lists(st.sampled_from(sorted(CONSUMERS)), max_size=6))
def test_any_call_order_on_one_series_matches_fresh_copies(kind, seed, N, order, repeats):
    # every consumer once, in any order, then some again
    series = generate(ModelSpec(kind=kind, seed=seed), N)
    calls = order + repeats
    fresh = {name: outcome(name, TimeSeries(np.copy(series.values))) for name in order}
    for i, name in enumerate(calls):
        assert outcome(name, series) == fresh[name], (i, name, calls)
