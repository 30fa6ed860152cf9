"""Declarative attack programs and their per-step realization.

An attack program says *when* (onset, optional on/off schedule), *where*
(fixed meter set or per-step Bernoulli selection), and *how strong*
(bias law for injected false data, variance law for jamming noise).
Realizing it at time t yields per-meter biases a_k and jamming variances
sigma2_k for every trial of a batch; applying a realization adds the bias
identically to all lam samples of a meter and fresh white noise per sample:

    y[k][i] += a_k + n_{k,i},    n_{k,i} ~ N(0, jam_var_k) i.i.d.

Each trial realizes from its own attack stream (doubles) and draws jamming
noise from its own jamming stream (standard normals); a batch holds each of
the two as one ``grid_model.Blocks``.

A denial-of-service style topology fault is modeled separately as zeroed
rows of the *true* measurement matrix while the detector-side model stays
unchanged (the control center is unaware of the fault).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid_model import Blocks, GridModel

KINDS = ("none", "fdi", "jamming", "hybrid", "topology-fault")


@dataclass(frozen=True)
class MagnitudeLaw:
    """Either uniform on a symmetric/positive interval or a fixed value.

    Bounds and values must be finite, and a uniform law's width hi - lo too.
    """

    mode: str  # "uniform" or "fixed"
    lo: float = 0.0
    hi: float = 0.0
    value: float = 0.0

    def __post_init__(self):
        if self.mode == "uniform":
            if not math.isfinite(self.hi - self.lo):
                raise ValueError(f"uniform law needs finite bounds, got {self.lo} and {self.hi}")
            if self.hi < self.lo:
                raise ValueError("uniform law needs lo <= hi")
        elif self.mode == "fixed":
            if not math.isfinite(self.value):
                raise ValueError(f"fixed law needs a finite value, got {self.value}")
        else:
            raise ValueError(f"unknown law mode {self.mode!r}")

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "MagnitudeLaw":
        return cls(mode="uniform", lo=float(lo), hi=float(hi))

    @classmethod
    def fixed(cls, value: float) -> "MagnitudeLaw":
        return cls(mode="fixed", value=float(value))


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
        jam = self.jam_law
        least = None if jam is None else jam.lo if jam.mode == "uniform" else jam.value
        if least is not None and least < 0:
            raise ValueError(f"jam_uniform/jam_fixed: jamming variances must be >= 0, got {least}")

    @property
    def uses_fdi(self) -> bool:
        return self.kind in ("fdi", "hybrid")

    @property
    def uses_jamming(self) -> bool:
        return self.kind in ("jamming", "hybrid")


@dataclass(frozen=True)
class AttackRealization:
    """One step's sampled attack for a batch of B trials: (B, K) biases and
    jamming variances, zero off-attack and in off periods, so ``a != 0`` and
    ``jam_var != 0`` mark the attacked meters. ``active`` depends on the
    step only, so it is one flag for the whole batch."""

    a: np.ndarray
    jam_var: np.ndarray
    active: bool


def is_active(spec: AttackSpec, t: int) -> bool:
    """On-period test: duty cycle counted from the onset."""
    if t < spec.tau or spec.kind in ("none", "topology-fault"):
        return False
    if spec.t_on is None:
        return True
    return (t - int(spec.tau)) % (spec.t_on + spec.t_off) < spec.t_on


def realize_attack(spec: AttackSpec, t: int, atk: Blocks, K: int) -> AttackRealization:
    """Sample the attack parameters of every trial of the batch for time t.

    Draw order per trial (documented for reproducibility): FDI selection
    bits, jamming selection bits, FDI magnitudes for selected meters in
    ascending index order, jamming variances likewise. No draws are
    consumed before the onset, during off periods, or for fixed selections
    and fixed laws. Each draw is the next double u of the trial's attack
    stream: a selection bit is u < p and a uniform magnitude
    lo + (hi - lo) * u, the values ``rng.random`` and ``rng.uniform`` give
    (numpy computes uniform(lo, hi) as exactly that; the tests pin it).
    ``atk`` holds the attack streams of the batch, drawn ahead in blocks of
    at most 4K doubles per step, which changes neither the values a step
    receives nor this order.
    """
    if t < 1:
        raise ValueError("time index must be >= 1")
    B = len(atk)
    a = np.zeros((B, K))
    jam = np.zeros((B, K))
    if not is_active(spec, t):
        return AttackRealization(a=a, jam_var=jam, active=False)

    laws = []
    if spec.uses_fdi:
        laws.append((spec.fdi_law, a))
    if spec.uses_jamming:
        laws.append((spec.jam_law, jam))
    bernoulli = spec.selection[0] == "bernoulli"
    coins = K * len(laws) if bernoulli else 0
    need = coins + K * sum(law.mode == "uniform" for law, _ in laws)
    if need:
        flat, start = atk.ready(need)
        start = start[:, None]
    if bernoulli:
        u = flat[start + np.arange(coins)]
        masks = [u[:, i * K : (i + 1) * K] < spec.selection[1] for i in range(len(laws))]
    else:
        fixed = np.zeros(K, dtype=bool)
        fixed[list(spec.selection[1])] = True
        masks = [fixed] * len(laws)
    used = coins  # draws each trial has used this step
    for (law, out), mask in zip(laws, masks):
        if law.mode == "fixed":
            np.copyto(out, law.value, where=mask)
            continue
        rank = mask.cumsum(axis=-1)  # the i-th selected meter takes draw used + i - 1
        picked = flat[start + (used - 1) + rank]
        np.copyto(out, law.lo + (law.hi - law.lo) * picked, where=mask)
        used = used + rank[..., -1:]
    if need:
        atk.advance(np.reshape(used, -1))
    return AttackRealization(a=a, jam_var=jam, active=True)


def apply_attack(
    model: GridModel,
    clean: np.ndarray,
    real: AttackRealization,
    jam: Blocks,
) -> np.ndarray:
    """Add the realized bias and jamming noise to every trial's clean
    (B, K, lam) measurement array.

    The bias a_k shifts all lam samples of meter k identically; jamming
    noise is drawn i.i.d. per sample from the trial's jamming stream in
    ``jam``, lam normals per meter with nonzero variance in ascending meter
    order, and is added at those meters only, so no other entry changes.
    The normals are drawn ahead in blocks of at most K*lam per step; each
    step receives the values drawing them at that step would give. An
    active step returns a new array; an inactive one returns ``clean``
    itself and draws nothing.
    """
    if clean.shape != real.a.shape + (model.lam,) or real.a.shape[-1] != model.K:
        raise ValueError("measurements do not match the model and realization")
    if not real.active:
        return clean
    values = clean + real.a[..., None]
    jammed = real.jam_var > 0
    if jammed.any():
        lam = model.lam
        flat, start = jam.ready(model.K * lam)
        rank = jammed.cumsum(axis=1)  # the i-th jammed meter takes normals (i - 1) lam ...
        first = start[:, None] + (rank - 1) * lam
        noise = flat[first[..., None] + np.arange(lam)]
        np.add(values, noise * np.sqrt(real.jam_var)[..., None], out=values, where=jammed[..., None])
        jam.advance(lam * rank[:, -1])
    return values


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
