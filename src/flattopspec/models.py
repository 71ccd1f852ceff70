"""Simulation models and their reference spectra/bispectra.

Four stationary models: iid chi-square(1) noise, a Gaussian ARMA(1,1)
that is second-order white, a GARCH(1,1) with unit unconditional variance,
and a bilinear recursion.  The first three have closed-form spectra (and,
except for GARCH, bispectra); the GARCH and bilinear bispectra are only
available through a persisted simulation reference table.

Generation uses a counter-based generator (Philox) keyed by
(seed, replication), so parallel replications are reproducible under any
scheduling.
"""
from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .cumulants import TimeSeries
from .exceptions import MissingReferenceError

__all__ = [
    "ModelSpec",
    "MODEL_KINDS",
    "generate",
    "true_spectrum",
    "reference_bispectrum",
    "ReferenceTable",
]

_TWO_PI = 2.0 * math.pi

MODEL_KINDS = {
    "iid-chisq1": {},
    "arma11": {"phi": 0.5, "theta": -0.5},
    "garch11": {"alpha0": 0.1, "alpha1": 0.8, "alpha2": 0.1},
    "bilinear": {"a": 0.4, "b": 0.4},
}

_RECURSIVE = ("arma11", "garch11", "bilinear")


@dataclass(frozen=True)
class ModelSpec:
    """A model kind plus parameters, seed, and burn-in length."""

    kind: str
    params: tuple = ()
    seed: int = 0
    burn_in: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model '{self.kind}' "
                             f"(choose from {sorted(MODEL_KINDS)})")
        merged = dict(MODEL_KINDS[self.kind])
        merged.update(dict(self.params))
        unknown = set(merged) - set(MODEL_KINDS[self.kind])
        if unknown:
            raise ValueError(f"unknown parameters {sorted(unknown)} for {self.kind}")
        self._validate(merged)
        object.__setattr__(self, "params", tuple(sorted(merged.items())))
        if self.burn_in is None:
            object.__setattr__(
                self, "burn_in", 1000 if self.kind in _RECURSIVE else 0)
        elif self.burn_in < 0:
            raise ValueError("burn_in must be nonnegative")

    @staticmethod
    def _validate(p):
        if "phi" in p and abs(p["phi"]) >= 1:
            raise ValueError("ARMA requires |phi| < 1")
        if "alpha1" in p:
            if p["alpha0"] <= 0 or p["alpha1"] < 0 or p["alpha2"] < 0:
                raise ValueError("GARCH coefficients must be positive/nonnegative")
            if p["alpha1"] + p["alpha2"] >= 1:
                raise ValueError("GARCH requires alpha1 + alpha2 < 1")
        if "a" in p and p["a"] ** 2 + p["b"] ** 2 >= 1:
            raise ValueError("bilinear requires a^2 + b^2 < 1")

    def param(self, name: str) -> float:
        return dict(self.params)[name]

    def rng(self, replication: int = 0) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed, spawn_key=(int(replication),))
        return np.random.Generator(np.random.Philox(ss))


def generate(spec: ModelSpec, N: int, replication: int = 0) -> TimeSeries:
    """Simulate N observations (after burn-in) of the given model.

    The recursions step Python floats, the same IEEE operations in the same
    order as on numpy scalars at about half the cost, and the N kept values
    become one new array: the series owns them, so the burn-in is not kept
    alive with it.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    rng = spec.rng(replication)
    total = N + spec.burn_in

    if spec.kind == "iid-chisq1":
        return TimeSeries(rng.standard_normal(total)[spec.burn_in:] ** 2)
    x, prev = [], 0.0
    append = x.append
    if spec.kind == "arma11":
        phi, theta = spec.param("phi"), spec.param("theta")
        z = rng.standard_normal(total + 1)
        for u in (z[1:] + theta * z[:-1]).tolist():
            prev = phi * prev + u
            append(prev)
    elif spec.kind == "garch11":
        a0 = spec.param("alpha0")
        a1, a2 = spec.param("alpha1"), spec.param("alpha2")
        sig2 = a0 / (1.0 - a1 - a2)
        for z in rng.standard_normal(total).tolist():
            sig2 = a0 + a1 * prev * prev + a2 * sig2
            prev = math.sqrt(sig2) * z
            append(prev)
    else:  # bilinear
        a, b = spec.param("a"), spec.param("b")
        z = rng.standard_normal(total + 1).tolist()
        for z_t, z_next in zip(z, z[1:]):
            prev = a * prev + b * prev * z_t + z_next
            append(prev)
    return TimeSeries(np.array(x[spec.burn_in:]))


def true_spectrum(spec: ModelSpec, omega: float,
                  table: "ReferenceTable | None" = None) -> float:
    """Closed-form spectrum where available; bilinear needs a reference table."""
    if spec.kind == "iid-chisq1":
        return 2.0 / _TWO_PI
    if spec.kind == "garch11":
        var = spec.param("alpha0") / (1.0 - spec.param("alpha1") - spec.param("alpha2"))
        return var / _TWO_PI
    if spec.kind == "arma11":
        phi, theta = spec.param("phi"), spec.param("theta")
        e = cmath.exp(-1j * omega)
        return abs(1.0 + theta * e) ** 2 / (_TWO_PI * abs(1.0 - phi * e) ** 2)
    if table is None:
        raise MissingReferenceError(
            "bilinear spectrum has no closed form; supply a reference table")
    return table.lookup_spectrum(omega)


def reference_bispectrum(spec: ModelSpec, omega,
                         table: "ReferenceTable | None" = None) -> complex:
    """True/reference bispectrum at omega = (omega1, omega2)."""
    if spec.kind == "iid-chisq1":
        return complex(8.0 / _TWO_PI ** 2)
    if spec.kind == "arma11":
        # Gaussian process: all cumulants above order 2 vanish
        return 0j
    if table is None:
        raise MissingReferenceError(
            f"{spec.kind} bispectrum requires a simulation reference table")
    return table.lookup_bispectrum(omega[0], omega[1])


# ---------------------------------------------------------------------------
# Simulation reference tables
# ---------------------------------------------------------------------------

def _freq_key(w: float) -> float:
    return round(float(w), 9)


@dataclass
class ReferenceTable:
    """Ensemble-averaged spectral values at a fixed frequency set."""

    model: str
    meta: dict = field(default_factory=dict)
    spectrum: dict = field(default_factory=dict)
    bispectrum: dict = field(default_factory=dict)

    def lookup_spectrum(self, omega: float) -> float:
        key = _freq_key(omega)
        if key not in self.spectrum:
            raise MissingReferenceError(
                f"no reference spectrum for {self.model} at omega={omega}")
        return self.spectrum[key]

    def lookup_bispectrum(self, w1: float, w2: float) -> complex:
        key = (_freq_key(w1), _freq_key(w2))
        if key not in self.bispectrum:
            raise MissingReferenceError(
                f"no reference bispectrum for {self.model} at omega={key}")
        return self.bispectrum[key]

    def save(self, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["model", "R", "L_sim", "seed"])
            writer.writerow([self.model, self.meta.get("R", ""),
                             self.meta.get("L_sim", ""), self.meta.get("seed", "")])
            writer.writerow(["order", "omega1", "omega2", "re", "im"])
            for w, v in sorted(self.spectrum.items()):
                writer.writerow([2, repr(w), "", repr(v), repr(0.0)])
            for (w1, w2), v in sorted(self.bispectrum.items()):
                writer.writerow([3, repr(w1), repr(w2), repr(v.real), repr(v.imag)])

    @classmethod
    def load(cls, path) -> "ReferenceTable":
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        if len(rows) < 3 or rows[0][0] != "model":
            raise MissingReferenceError(f"{path} is not a reference table")
        meta_vals = rows[1]
        meta = {"R": int(meta_vals[1]) if meta_vals[1] else None,
                "L_sim": int(meta_vals[2]) if meta_vals[2] else None,
                "seed": int(meta_vals[3]) if meta_vals[3] else None}
        table = cls(model=meta_vals[0], meta=meta)
        for row in rows[3:]:
            if not row:
                continue
            order = int(row[0])
            if order == 2:
                table.spectrum[_freq_key(float(row[1]))] = float(row[3])
            else:
                key = (_freq_key(float(row[1])), _freq_key(float(row[2])))
                table.bispectrum[key] = complex(float(row[3]), float(row[4]))
        return table
