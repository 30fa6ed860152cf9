"""Declarative attack programs and their per-step realization.

An attack program says *when* (onset, optional on/off schedule), *where*
(fixed meter set or per-step Bernoulli selection), and *how strong*
(bias law for injected false data, variance law for jamming noise).
Realizing it at time t yields per-meter biases a_k and jamming variances
sigma2_k; applying a realization adds the bias identically to all lam
samples of a meter and fresh white noise per sample:

    y[k][i] += a_k + n_{k,i},    n_{k,i} ~ N(0, jam_var_k) i.i.d.

A denial-of-service style topology fault is modeled separately as zeroed
rows of the *true* measurement matrix while the detector-side model stays
unchanged (the control center is unaware of the fault).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid_model import GridModel, MeasurementBatch

KINDS = ("none", "fdi", "jamming", "hybrid", "topology-fault")


@dataclass(frozen=True)
class MagnitudeLaw:
    """Either uniform on a symmetric/positive interval or a fixed value."""

    mode: str  # "uniform" or "fixed"
    lo: float = 0.0
    hi: float = 0.0
    value: float = 0.0

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "MagnitudeLaw":
        if hi < lo:
            raise ValueError("uniform law needs lo <= hi")
        return cls(mode="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def fixed(cls, value: float) -> "MagnitudeLaw":
        return cls(mode="fixed", value=float(value))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self.mode == "uniform":
            return rng.uniform(self.lo, self.hi, size=count)
        return np.full(count, self.value)


@dataclass(frozen=True)
class AttackSpec:
    """Attack program. tau = math.inf means "no attack, ever".

    ``selection`` is ("bernoulli", p) for a fresh per-step coin on every
    meter, or ("fixed", indices) for a controlled meter set. For hybrid
    attacks the Bernoulli coins for the bias and jamming components are
    drawn independently of each other; with a fixed set the same set is
    attacked by both components.
    """

    tau: float = math.inf
    kind: str = "none"
    selection: tuple = ("bernoulli", 0.5)
    fdi_law: Optional[MagnitudeLaw] = None
    jam_law: Optional[MagnitudeLaw] = None
    t_on: Optional[int] = None
    t_off: Optional[int] = None
    fault_meters: tuple = ()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown attack kind {self.kind!r}")
        if self.tau != math.inf and self.tau < 1:
            raise ValueError(f"onset tau must be >= 1, got {self.tau}")
        if (self.t_on is None) != (self.t_off is None):
            raise ValueError("t_on and t_off must be given together")
        if self.t_on is not None and (self.t_on < 1 or self.t_off < 0):
            raise ValueError(f"need t_on >= 1 and t_off >= 0, got {self.t_on} and {self.t_off}")
        mode = self.selection[0]
        if mode == "bernoulli":
            p = self.selection[1]
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"selection probability p must be in [0, 1], got {p}")
        elif mode != "fixed":
            raise ValueError(f"unknown selection mode {mode!r}")
        if self.kind == "topology-fault" and not self.fault_meters:
            raise ValueError("topology-fault needs a nonempty meter set")

    @property
    def uses_fdi(self) -> bool:
        return self.kind in ("fdi", "hybrid")

    @property
    def uses_jamming(self) -> bool:
        return self.kind in ("jamming", "hybrid")


@dataclass(frozen=True)
class AttackRealization:
    """Per-step sampled attack: zero vectors off-attack and in off periods."""

    t: int
    a: np.ndarray
    jam_var: np.ndarray
    active: bool

    def meter_sets(self) -> "tuple[set, set, set, set]":
        """Partition of meters implied by the zero/nonzero pattern.

        Returns (clean, bias only, jamming only, both).
        """
        fdi = self.a != 0.0
        jam = self.jam_var != 0.0
        idx = np.arange(self.a.size)
        return (
            set(idx[~fdi & ~jam]),
            set(idx[fdi & ~jam]),
            set(idx[~fdi & jam]),
            set(idx[fdi & jam]),
        )


def _zero(spec_k: int, t: int, active: bool = False) -> AttackRealization:
    return AttackRealization(
        t=t, a=np.zeros(spec_k), jam_var=np.zeros(spec_k), active=active
    )


def is_active(spec: AttackSpec, t: int) -> bool:
    """On-period test: duty cycle counted from the onset."""
    if t < spec.tau or spec.kind in ("none", "topology-fault"):
        return False
    if spec.t_on is None:
        return True
    return (t - int(spec.tau)) % (spec.t_on + spec.t_off) < spec.t_on


def _select(spec: AttackSpec, k: int, rng: np.random.Generator) -> np.ndarray:
    mode = spec.selection[0]
    if mode == "fixed":
        mask = np.zeros(k, dtype=bool)
        mask[list(spec.selection[1])] = True
        return mask
    return rng.random(k) < spec.selection[1]


def realize_attack(spec: AttackSpec, t: int, rng: np.random.Generator, K: int) -> AttackRealization:
    """Sample the attack parameters for time t.

    Draw order (documented for reproducibility): FDI selection bits, jamming
    selection bits, FDI magnitudes for selected meters in ascending index
    order, jamming variances likewise. No draws are consumed before the
    onset or during off periods.
    """
    if t < 1:
        raise ValueError("time index must be >= 1")
    if not is_active(spec, t):
        return _zero(K, t)

    a = np.zeros(K)
    jam = np.zeros(K)
    fdi_mask = _select(spec, K, rng) if spec.uses_fdi else np.zeros(K, dtype=bool)
    jam_mask = _select(spec, K, rng) if spec.uses_jamming else np.zeros(K, dtype=bool)
    if spec.uses_fdi and fdi_mask.any():
        a[fdi_mask] = spec.fdi_law.draw(rng, int(fdi_mask.sum()))
    if spec.uses_jamming and jam_mask.any():
        jam[jam_mask] = spec.jam_law.draw(rng, int(jam_mask.sum()))
    return AttackRealization(t=t, a=a, jam_var=jam, active=True)


def apply_attack(
    model: GridModel,
    clean: MeasurementBatch,
    real: AttackRealization,
    rng: np.random.Generator,
) -> MeasurementBatch:
    """Add the realized bias and jamming noise to clean measurements.

    The bias a_k shifts all lam samples of meter k identically; jamming
    noise is drawn i.i.d. per sample. Draws are consumed only for meters
    with nonzero jamming variance (ascending index order), so a zero
    realization leaves both the measurements and the stream untouched.
    """
    if clean.values.shape != (model.K, model.lam):
        raise ValueError("measurement batch does not match the model")
    if np.any(real.jam_var < 0):
        raise ValueError("jamming variances must be >= 0")
    if not real.active:
        return clean
    values = clean.values + real.a[:, None]
    jammed = np.flatnonzero(real.jam_var > 0)
    if jammed.size:
        noise = rng.standard_normal((jammed.size, model.lam))
        values[jammed] += noise * np.sqrt(real.jam_var[jammed])[:, None]
    return MeasurementBatch(t=clean.t, values=values)


def topology_fault(model: GridModel, fault_meters) -> GridModel:
    """True-side model with zeroed measurement rows for the faulted meters.

    The returned model is used for *simulation only*; the detector keeps the
    intact model, so the faulted meters deliver pure noise that the detectors
    must flag.
    """
    meters = sorted(set(int(m) for m in fault_meters))
    if not meters:
        raise ValueError("fault meter set must be nonempty")
    for m in meters:
        if not 0 <= m < model.K:
            raise ValueError(f"unknown meter index {m}")
    rows = model.meter_rows.copy()
    rows[meters] = 0.0
    return replace(model, H=np.repeat(rows, model.lam, axis=0), meter_rows=rows)
