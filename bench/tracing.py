"""Spans around the calls into each flattopspec module, for the per-layer metrics.

`Tracer.install` replaces each traced function by a timing wrapper wherever a
module of the package holds a reference to it (the defining module and every
module that imported it by name), and `BispectrumLagCache.cumulants` on its
class; `uninstall` puts the originals back.  A span is the tuple
(id, parent id, op index, name, start, end, count); spans stay in memory
until `write` saves them.  Op index -1 marks set-up.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time

import numpy as np


def _size_of_arg(i):
    return lambda args, kwargs, out: int(np.size(args[i]))


def _replicates(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return int(bound.arguments["B"])
    return count


def _selection(args, kwargs, out):
    return (len(out.trace), int(out.cap_hit))


def _samples(args, kwargs, out):
    spec = args[0] if args else kwargs["spec"]
    N = args[1] if len(args) > 1 else kwargs["N"]
    return int(N) + int(spec.burn_in)


SPECTRA_EST = ("spectra.estimate_bispectrum", "spectra.estimate_spectrum",
               "spectra.bispectrum_curvature", "spectra.estimate_bispectrum_partial")
KERNELS = ("windows.lambda_rp", "windows.lambda_rc", "windows.lambda_rpf",
           "windows.lambda_rcf", "windows.lambda_opt", "windows._trapezoid_fn",
           "windows._parzen_fn", "windows._parzen2d_fn")
CONSTANTS = ("windows.window_l2_norm", "windows.window_curvature_at_zero")


def _targets(pkg):
    """name -> (owner, attribute, counter) for every traced function."""
    spectra, windows = pkg.spectra, pkg.windows
    targets = {
        "spectra.BispectrumLagCache.cumulants":
            (spectra.BispectrumLagCache, "cumulants", _size_of_arg(1)),
        "spectra.autocumulants": (spectra, "autocumulants", _size_of_arg(1)),
        "windows.bessel_j2": (windows, "bessel_j2", _size_of_arg(0)),
        "bandwidth.select_bandwidth_general":
            (pkg.bandwidth, "select_bandwidth_general", _selection),
        "bandwidth.select_bandwidth_bispectrum":
            (pkg.bandwidth, "select_bandwidth_bispectrum", _selection),
        "bandwidth.bootstrap_threshold": (
            pkg.bandwidth, "bootstrap_threshold",
            _replicates(pkg.bandwidth.bootstrap_threshold)),
        "bandwidth.plugin_bandwidth": (pkg.bandwidth, "plugin_bandwidth", None),
        "cumulants.normalized_cumulant": (pkg.cumulants, "normalized_cumulant", None),
        "models.generate": (pkg.models, "generate", _samples),
        "evaluate.run_mse_study": (pkg.evaluate, "run_mse_study", None),
        "evaluate.bandwidth_histogram_study":
            (pkg.evaluate, "bandwidth_histogram_study", None),
        "cli.main": (pkg.cli, "main", None),
    }
    for name in SPECTRA_EST:
        targets[name] = (spectra, name.split(".", 1)[1], None)
    for name in KERNELS:
        targets[name] = (windows, name.split(".", 1)[1], _size_of_arg(0))
    for name in CONSTANTS:
        targets[name] = (windows, name.split(".", 1)[1], None)
    return targets


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = -1
        self.origin = time.perf_counter()
        self._next_id = 0
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name, fn, counter):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            stack = tracer._stack
            parent = stack[-1] if stack else -1
            stack.append(sid)
            out = None
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
                return out
            finally:
                t1 = clock()
                stack.pop()
                count = counter(args, kwargs, out) if counter and out is not None else None
                tracer.spans.append((sid, parent, tracer.op, name, t0, t1, count))
        return wrapper

    def call(self, name, fn, *args):
        """Call fn(*args) inside a span opened by the benchmark itself."""
        return self._wrap(name, fn, None)(*args)

    def install(self):
        """Wrap every traced function at each place the package refers to it."""
        import flattopspec
        modules = [m for n, m in sys.modules.items()
                   if n == "flattopspec" or n.startswith("flattopspec.")]
        for name, (owner, attr, counter) in _targets(flattopspec).items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original, counter)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path, meta):
        with open(path, "w") as fh:
            json.dump({"meta": meta,
                       "fields": ["id", "parent", "op", "name", "start_s",
                                  "end_s", "count"],
                       "spans": [[s[0], s[1], s[2], s[3], s[4] - self.origin,
                                  s[5] - self.origin, s[6]]
                                 for s in sorted(self.spans)]}, fh)


def self_times(spans) -> dict:
    """span id -> duration minus the durations of its direct children."""
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] in own:
            own[s[1]] -= s[5] - s[4]
    return own


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-layer metrics: timed-op spans per op, set-up spans as totals."""
    own = self_times(spans)
    ops = [s for s in spans if s[2] >= 0]
    setup = [s for s in spans if s[2] < 0]
    names = {s[0]: s[3] for s in spans}
    per = max(n_ops, 1)

    def ms(group):
        return 1e3 * sum(own[s[0]] for s in ops if s[3] in group) / per

    def calls(group):
        return sum(1 for s in ops if s[3] in group) / per

    def count(group, top_level=False):
        return sum(s[6] for s in ops if s[3] in group and s[6] is not None
                   and not (top_level and names.get(s[1]) in group)) / per

    general = [s[6] for s in ops if s[3] == "bandwidth.select_bandwidth_general"
               and s[6] is not None]
    cap_hits = sum(c[1] for c in general)
    return {
        "spectra.cumulant_table_ms": (ms({"spectra.BispectrumLagCache.cumulants"}), "ms/op"),
        "spectra.lag_terms": (count({"spectra.BispectrumLagCache.cumulants",
                                     "spectra.autocumulants"}), "lags/op"),
        "spectra.freq_sum_ms": (ms(set(SPECTRA_EST)), "ms/op"),
        "spectra.estimate_calls": (calls(set(SPECTRA_EST)), "calls/op"),
        "spectra.autocumulants_ms": (ms({"spectra.autocumulants"}), "ms/op"),
        "windows.bessel_j2_ms": (ms({"windows.bessel_j2"}), "ms/op"),
        "windows.bessel_j2_points": (count({"windows.bessel_j2"}), "points/op"),
        "windows.kernel_ms": (ms(set(KERNELS)), "ms/op"),
        "windows.kernel_points": (count(set(KERNELS), top_level=True), "points/op"),
        # set-up is where the constants and cold lag weights are computed;
        # constants_ms includes the kernel and Bessel evaluations it makes
        "windows.constants_ms": (1e3 * sum(s[5] - s[4] for s in setup
                                           if s[3] in CONSTANTS), "ms"),
        "windows.setup_bessel_j2_ms": (1e3 * sum(s[5] - s[4] for s in setup
                                                 if s[3] == "windows.bessel_j2"), "ms"),
        "windows.setup_bessel_j2_points": (sum(s[6] for s in setup
                                               if s[3] == "windows.bessel_j2"), "points"),
        "bandwidth.general_ms": (ms({"bandwidth.select_bandwidth_general"}), "ms/op"),
        "bandwidth.general_lags_examined": (
            sum(c[0] for c in general) / per, "lags/op"),
        "bandwidth.general_calls": (len(general) / per, "calls/op"),
        "bandwidth.cap_hit_frac": (cap_hits / len(general) if general else 0.0, "frac"),
        "bandwidth.lex_ms": (ms({"bandwidth.select_bandwidth_bispectrum"}), "ms/op"),
        "bandwidth.bootstrap_ms": (ms({"bandwidth.bootstrap_threshold"}), "ms/op"),
        "bandwidth.bootstrap_replicates": (
            count({"bandwidth.bootstrap_threshold"}), "replicates/op"),
        "bandwidth.plugin_ms": (ms({"bandwidth.plugin_bandwidth"}), "ms/op"),
        "cumulants.normalized_cumulant_ms": (
            ms({"cumulants.normalized_cumulant"}), "ms/op"),
        "cumulants.normalized_cumulant_calls": (
            calls({"cumulants.normalized_cumulant"}), "calls/op"),
        "models.generate_ms": (ms({"models.generate"}), "ms/op"),
        "models.samples": (count({"models.generate"}), "samples/op"),
        "evaluate.harness_ms": (ms({"evaluate.run_mse_study",
                                    "evaluate.bandwidth_histogram_study"}), "ms/op"),
        "cli.io_ms": (ms({"cli.main"}), "ms/op"),
    }
