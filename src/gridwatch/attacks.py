"""Declarative attack programs and their per-step realization.

An attack program says *when* (onset, optional on/off schedule), *where*
(fixed meter set or per-step Bernoulli selection), and *how strong*
(bias law for injected false data, variance law for jamming noise).
Realizing it over a block of times t .. t + T - 1 yields per-meter biases
a_k and jamming variances sigma2_k for every trial and step of the block;
applying a realization adds the bias identically to all lam samples of a
meter and fresh white noise per sample:

    y[k][i] += a_k + n_{k,i},    n_{k,i} ~ N(0, jam_var_k) i.i.d.

Each trial realizes from its own attack stream (doubles) and draws jamming
noise from its own jamming stream (standard normals); a batch passes each
as a list of ``np.random.Generator``, one per trial. Both kernels take a
whole block at once and leave each stream where a step at a time would:
the draws of step t, in the documented order, then those of step t + 1.
A block never crosses an on/off switch of the attack; ``block_steps`` finds
the next one.

A denial-of-service style topology fault is modeled separately as zeroed
rows of the *true* measurement matrix while the detector-side model stays
unchanged (the control center is unaware of the fault).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grid_model import GridModel

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
    attacked by both components. A kind that injects false data needs
    ``fdi_law``, and one that jams needs ``jam_law``.
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
        # the on-off cycle counts from int(tau) and the attack starts at the
        # first t >= tau, so only a whole tau puts them at the same step
        if self.tau != math.inf and (self.tau < 1 or self.tau % 1):
            raise ValueError(f"onset tau must be a whole number >= 1, got {self.tau}")
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
        elif not self.selection[1]:
            raise ValueError("meters: a fixed selection needs at least one meter index")
        if self.uses_fdi and self.fdi_law is None:
            raise ValueError(f"kind = {self.kind} requires fdi_uniform or fdi_fixed")
        if self.uses_jamming and self.jam_law is None:
            raise ValueError(f"kind = {self.kind} requires jam_uniform or jam_fixed")
        if self.kind == "topology-fault" and not self.fault_meters:
            raise ValueError("fault_meters: topology-fault needs a nonempty meter set")
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
    """One block's sampled attack for a batch of B trials over T steps:
    (B, T, K) biases and jamming variances, zero off-attack and in off
    periods, so ``a != 0`` and ``jam_var != 0`` mark the attacked meters.
    ``active`` depends on the step only, and a block never crosses an
    on/off switch, so it is one flag for the whole block and batch."""

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


def is_faulted(spec: AttackSpec, t: int) -> bool:
    """Whether step t measures through the faulted model: a topology fault
    from its onset on."""
    return spec.kind == "topology-fault" and t >= spec.tau


def block_steps(spec: AttackSpec, t: int, most: int) -> int:
    """The length of the block from step t: at most ``most`` steps, up to
    the next step at which the attack switches on or off (``is_active``)
    or a topology fault begins (``is_faulted``): the onset, or an on/off
    boundary of the duty cycle."""
    if spec.kind == "none" or spec.tau == math.inf:
        return most  # never switches
    onset = int(spec.tau)
    if t < onset:
        return min(most, onset - t)
    if spec.kind == "topology-fault" or spec.t_on is None or spec.t_off == 0:
        return most  # on, or faulted, from the onset on
    period = spec.t_on + spec.t_off
    phase = (t - onset) % period
    return min(most, (spec.t_on if phase < spec.t_on else period) - phase)


def realize_attack(
    spec: AttackSpec, t: int, steps: int, atk: "list[np.random.Generator]", K: int
) -> AttackRealization:
    """Sample the attack parameters of every trial of the batch for the
    block of times t .. t + steps - 1, which must all be on or all off:
    the block may not run past ``block_steps`` (a topology fault is never
    on, so its onset is no switch here).

    Draw order per trial and step (documented for reproducibility): FDI
    selection bits, jamming selection bits, FDI magnitudes for selected
    meters in ascending index order, jamming variances likewise; the steps
    follow each other in time order. No draws are consumed before the
    onset, during off periods, or for fixed selections and fixed laws. Each
    draw is the next double u of the trial's attack stream: a selection bit
    is u < p and a uniform magnitude lo + (hi - lo) * u, the values
    ``rng.random`` and ``rng.uniform`` give (numpy computes uniform(lo, hi)
    as exactly that; the tests pin it).

    How many doubles a step draws depends on its coins, so each trial
    draws the block's worst case at once (every coin, and a magnitude per
    meter and drawing law, at every step) from its stream ``atk[j]``, and
    its stream is then set back to where the draws the block used end: the
    state saved before the draw, advanced by that count (PCG64 spends one
    64-bit output per double; the tests pin it). Where a step's draws start
    depends on the selections of the steps before it, so the selection bits
    are read one step at a time; the magnitudes are then gathered for the
    whole block, the i-th selected meter of a law at a step taking the draw
    i - 1 places past the law's first one. This changes neither the values
    a step receives nor the order.
    """
    if t < 1:
        raise ValueError("time index must be >= 1")
    if spec.kind != "topology-fault" and block_steps(spec, t, steps) < steps:
        raise ValueError("a block must not cross an on/off switch of the attack")
    active = is_active(spec, t)
    B = len(atk)
    a = np.zeros((B, steps, K))
    jam = np.zeros((B, steps, K))
    if not active:
        return AttackRealization(a=a, jam_var=jam, active=False)

    laws = []
    if spec.uses_fdi:
        laws.append((spec.fdi_law, a))
    if spec.uses_jamming:
        laws.append((spec.jam_law, jam))
    drawn = np.array([law.mode == "uniform" for law, _ in laws])  # laws that draw magnitudes
    bernoulli = spec.selection[0] == "bernoulli"
    coins = K * len(laws) if bernoulli else 0
    need = steps * (coins + K * int(drawn.sum()))
    saved = [rng.bit_generator.state for rng in atk]
    flat = np.empty((B, need))
    for rng, row in zip(atk, flat):
        rng.random(out=row)
    flat = flat.reshape(-1)
    start = np.arange(B) * need  # the flat index of each trial's first draw
    if bernoulli:
        masks = np.empty((B, steps, len(laws), K), dtype=bool)
        coin = np.arange(coins)
        weight = np.repeat(drawn, K).astype(np.int64)  # coins that select a magnitude draw
        first = start.copy()  # the flat index of each trial's next step
        for s in range(steps):
            selected = flat[first[:, None] + coin] < spec.selection[1]
            masks[:, s] = selected.reshape(B, len(laws), K)
            first += coins + selected @ weight
    else:
        fixed = np.zeros(K, dtype=bool)
        fixed[list(spec.selection[1])] = True
        masks = np.broadcast_to(fixed, (B, steps, len(laws), K))
    counts = masks.sum(axis=-1) * drawn  # (B, T, laws): magnitudes drawn per step
    takes = coins + counts.sum(axis=-1)
    used = takes.cumsum(axis=1)  # draws used through each step
    step_first = start[:, None] + used - takes
    law_first = step_first[..., None] + coins + counts.cumsum(axis=-1) - counts
    for i, (law, out) in enumerate(laws):
        mask = masks[:, :, i]
        if law.mode == "fixed":
            np.copyto(out, law.value, where=mask)
            continue
        picked = flat[law_first[..., i, None] + mask.cumsum(axis=-1) - 1]
        np.copyto(out, law.lo + (law.hi - law.lo) * picked, where=mask)
    for rng, state, n in zip(atk, saved, used[:, -1].tolist()):
        rng.bit_generator.state = state
        rng.bit_generator.advance(n)
    return AttackRealization(a=a, jam_var=jam, active=True)


def apply_attack(
    model: GridModel,
    clean: np.ndarray,
    real: AttackRealization,
    jam: "list[np.random.Generator]",
) -> np.ndarray:
    """Add the realized bias and jamming noise to every trial's clean
    (B, T, K, lam) measurement block.

    The bias a_k shifts all lam samples of meter k identically; jamming
    noise is drawn i.i.d. per sample from trial j's jamming stream
    ``jam[j]``, lam normals per meter with nonzero variance, in time order
    and at each step in ascending meter order, and is added at those
    meters only, so no other entry changes. Each trial draws the block's
    normals at once: the i-th jammed (step, meter) of a trial, in that
    order, takes its normals (i - 1) lam ... i lam - 1, the values drawing
    them a step at a time would give. An active block returns a new array;
    an inactive one returns ``clean`` itself and draws nothing.
    """
    if clean.shape != real.a.shape + (model.lam,) or real.a.shape[-1] != model.K:
        raise ValueError("measurements do not match the model and realization")
    if not real.active:
        return clean
    values = clean + real.a[..., None]
    jammed = real.jam_var > 0
    if jammed.any():
        lam = model.lam
        counts = jammed.reshape(len(jammed), -1).sum(axis=1)  # jammed (step, meter) pairs per trial
        # each trial's next normals, in the order values[jammed] lists its pairs
        noise = np.concatenate([rng.standard_normal(lam * c) for rng, c in zip(jam, counts.tolist())])
        values[jammed] += noise.reshape(-1, lam) * np.sqrt(real.jam_var[jammed])[:, None]
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
