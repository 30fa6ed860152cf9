"""Sectioned text configuration for experiments.

Sections are [model] [detector] [shewhart] [chi2] [attack] [run] with
``key = value`` lines; ``#`` starts a comment. Unknown sections and unknown
keys are rejected. [shewhart] and [chi2] are optional; leaving them out
disables those detectors. Benchmark detectors are enabled by giving their
thresholds (np_q, euclid_d, cosine_d) under [detector].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from .attacks import AttackSpec, MagnitudeLaw
from .grid_model import finite, positive, read_sections


class ConfigError(ValueError):
    pass


_BUNDLED = {"ieee14": "ieee14.grid"}

_SCHEMA = {
    "model": {"topology", "lambda", "sigma_v2", "sigma_w2", "a", "x0", "p0"},
    "detector": {
        "gamma",
        "sigma2_min",
        "h",
        "np_q",
        "euclid_d",
        "cosine_d",
        "np_clamp",
        "mu0_samples",
        "mu0_cache",
    },
    "shewhart": {"phi"},
    "chi2": {"m", "l", "varphi"},
    "attack": {
        "kind",
        "p",
        "meters",
        "fdi_uniform",
        "fdi_fixed",
        "jam_uniform",
        "jam_fixed",
        "inner",
        "t_on",
        "t_off",
        "fault_meters",
    },
    "run": {"trials", "horizon", "tau", "eta", "seed", "log_steps", "workers"},
}

_REQUIRED_SECTIONS = ("model", "detector", "attack", "run")

# The [attack] keys each kind reads besides ``kind``. kind = onoff reads
# ``inner``, ``t_on`` and ``t_off`` and the keys of its inner kind.
_SELECTION = ("p", "meters")
_FDI = ("fdi_uniform", "fdi_fixed")
_JAM = ("jam_uniform", "jam_fixed")
_ATTACK_KEYS = {
    "none": (),
    "fdi": _SELECTION + _FDI,
    "jamming": _SELECTION + _JAM,
    "hybrid": _SELECTION + _FDI + _JAM,
    "topology-fault": ("fault_meters",),
}


def _parse_sections(path: Path) -> dict:
    sections: dict = {}
    for name, lines in read_sections(path, _SCHEMA, ConfigError).items():
        sec = sections[name] = {}
        for lineno, line in lines:
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key not in _SCHEMA[name]:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")
            if key in sec:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            sec[key] = value
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    return sections


def _get(sec: dict, key: str, conv, default=None, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return conv(sec[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {sec[key]!r} ({exc})") from None


def _bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "on", "1"):
        return True
    if t in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean")


def _at_least(least: int):
    """An int converter that rejects values below ``least``."""

    def conv(text: str) -> int:
        value = int(text)
        if value < least:
            raise ValueError(f"must be >= {least}")
        return value

    return conv


def _whole(text: str) -> float:
    """A finite float that is a whole number, kept a float."""
    value = finite(text)
    if value % 1:
        raise ValueError("must be a whole number")
    return value


def _floats(text: str) -> "list[float]":
    return [finite(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> "list[int]":
    return [int(tok) for tok in text.replace(",", " ").split()]


def _symmetric_law(text: str) -> MagnitudeLaw:
    return MagnitudeLaw.uniform(-finite(text), finite(text))


def _interval_law(text: str) -> MagnitudeLaw:
    lo, hi = _floats(text)
    return MagnitudeLaw.uniform(lo, hi)


def _fixed_law(text: str) -> MagnitudeLaw:
    return MagnitudeLaw.fixed(finite(text))


@dataclass
class ModelSection:
    topology_path: Path
    lam: int
    sigma_v2: float
    sigma_w2: float
    a_choice: "str | Path"
    x0_mode: str  # "topology", "zeros", or "explicit"
    x0_values: Optional[list] = None
    p0: Optional[float] = None


@dataclass
class DetectorSection:
    gamma: float
    sigma2_min: float
    h: float
    np_q: Optional[float]
    euclid_d: Optional[float]
    cosine_d: Optional[float]
    np_clamp: bool
    mu0_samples: int
    mu0_cache: str


@dataclass
class Chi2Section:
    m: int
    l: int
    varphi: float


@dataclass
class RunSection:
    trials: int
    horizon: int
    tau: float
    eta: int
    seed: int
    log_steps: bool


@dataclass
class ExperimentConfig:
    model: ModelSection
    detector: DetectorSection
    shewhart_phi: Optional[float]
    chi2: Optional[Chi2Section]
    attack: AttackSpec
    run: RunSection
    source: Optional[Path] = None


def resolve_topology(name: str, base: Optional[Path]) -> Path:
    """Bundled names take priority; otherwise resolve against the config dir."""
    if name in _BUNDLED:
        return Path(str(resources.files("gridwatch").joinpath("data", _BUNDLED[name])))
    p = Path(name)
    if not p.is_absolute() and base is not None:
        p = base / p
    return p


def _attack_spec(sec: dict, tau: float) -> AttackSpec:
    kind = _get(sec, "kind", str, required=True).strip().lower()
    read = {"kind"}
    t_on = t_off = None
    if kind == "onoff":
        inner = _get(sec, "inner", str, required=True).strip().lower()
        if inner not in ("fdi", "jamming", "hybrid"):
            raise ConfigError(f"onoff inner kind must be fdi/jamming/hybrid, got {inner!r}")
        t_on = _get(sec, "t_on", int)
        t_off = _get(sec, "t_off", int)
        if t_on is None or t_off is None:
            raise ConfigError("kind = onoff requires t_on and t_off")
        read |= {"inner", "t_on", "t_off"}
        kind = inner
    if kind not in _ATTACK_KEYS:
        raise ConfigError(f"bad value for 'kind': {kind!r} (unknown attack kind)")
    read.update(_ATTACK_KEYS[kind])
    for key in sec:
        if key not in read:
            raise ConfigError(f"[attack] key {key!r} is not read by kind = {sec['kind']}")
    for first, second in (_SELECTION, _FDI, _JAM):
        if first in sec and second in sec:
            raise ConfigError(f"[attack] keys {first!r} and {second!r} exclude each other")
    if kind == "none":
        return AttackSpec(tau=math.inf, kind="none")

    if "meters" in sec:
        selection = ("fixed", tuple(_get(sec, "meters", _ints)))
    else:
        selection = ("bernoulli", _get(sec, "p", finite, default=0.5))

    fdi_law = _get(sec, "fdi_uniform", _symmetric_law) or _get(sec, "fdi_fixed", _fixed_law)
    jam_law = _get(sec, "jam_uniform", _interval_law) or _get(sec, "jam_fixed", _fixed_law)
    fault = tuple(_get(sec, "fault_meters", _ints, default=()))
    if kind in ("fdi", "hybrid") and fdi_law is None:
        raise ConfigError(f"kind = {kind} requires fdi_uniform or fdi_fixed")
    if kind in ("jamming", "hybrid") and jam_law is None:
        raise ConfigError(f"kind = {kind} requires jam_uniform or jam_fixed")
    try:
        return AttackSpec(
            tau=tau,
            kind=kind,
            selection=selection,
            fdi_law=fdi_law,
            jam_law=jam_law,
            t_on=t_on,
            t_off=t_off,
            fault_meters=fault,
        )
    except ValueError as exc:  # its messages name the offending key
        raise ConfigError(str(exc)) from None


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        sections = _parse_sections(path)
    except OSError as exc:
        raise ConfigError(f"bad value for '--config': {str(path)!r} ({exc.strerror})") from None
    base = path.parent

    msec = sections["model"]
    x0_raw = _get(msec, "x0", str, default="topology").strip()
    if x0_raw.lower() in ("topology", "zeros"):
        x0_mode, x0_values = x0_raw.lower(), None
    else:
        x0_mode, x0_values = "explicit", _get(msec, "x0", _floats)
    a_raw = _get(msec, "a", str, default="identity").strip()
    a_choice: "str | Path" = "identity" if a_raw.lower() == "identity" else (base / a_raw)
    model = ModelSection(
        topology_path=resolve_topology(_get(msec, "topology", str, required=True), base),
        lam=_get(msec, "lambda", _at_least(1), default=1),
        sigma_v2=_get(msec, "sigma_v2", positive, required=True),
        sigma_w2=_get(msec, "sigma_w2", positive, required=True),
        a_choice=a_choice,
        x0_mode=x0_mode,
        x0_values=x0_values,
        p0=_get(msec, "p0", positive),
    )

    dsec = sections["detector"]
    detector = DetectorSection(
        gamma=_get(dsec, "gamma", positive, required=True),
        sigma2_min=_get(dsec, "sigma2_min", positive, required=True),
        h=_get(dsec, "h", finite, required=True),
        np_q=_get(dsec, "np_q", finite),
        euclid_d=_get(dsec, "euclid_d", finite),
        cosine_d=_get(dsec, "cosine_d", finite),
        np_clamp=_get(dsec, "np_clamp", _bool, default=False),
        mu0_samples=_get(dsec, "mu0_samples", _at_least(1), default=100_000),
        mu0_cache=_get(dsec, "mu0_cache", str, default="auto"),
    )

    shewhart_phi = None
    if "shewhart" in sections:
        shewhart_phi = _get(sections["shewhart"], "phi", positive, required=True)

    chi2_cfg = None
    if "chi2" in sections:
        csec = sections["chi2"]
        chi2_cfg = Chi2Section(
            m=_get(csec, "m", _at_least(1), default=5),
            l=_get(csec, "l", int, default=80),
            varphi=_get(csec, "varphi", positive, required=True),
        )
        if chi2_cfg.l < chi2_cfg.m:
            raise ConfigError(f"[chi2] l = {chi2_cfg.l} must be >= m = {chi2_cfg.m}")

    rsec = sections["run"]
    run = RunSection(
        trials=_get(rsec, "trials", _at_least(1), default=1),
        horizon=_get(rsec, "horizon", _at_least(1), required=True),
        tau=_get(rsec, "tau", _whole, default=100),
        eta=_get(rsec, "eta", _at_least(1), default=50),
        seed=_get(rsec, "seed", _at_least(0), default=0),
        log_steps=_get(rsec, "log_steps", _bool, default=False),
    )
    # accepted for existing configs and checked, but unused: every run is
    # one batch of trials (see harness.run_trials)
    _get(rsec, "workers", int, default=1)

    attack = _attack_spec(sections["attack"], run.tau)
    if attack.kind != "none" and run.horizon <= run.tau:
        raise ConfigError("horizon must exceed the attack onset tau")

    return ExperimentConfig(
        model=model,
        detector=detector,
        shewhart_phi=shewhart_phi,
        chi2=chi2_cfg,
        attack=attack,
        run=run,
        source=path,
    )
