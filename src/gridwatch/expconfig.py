"""Sectioned text configuration for experiments.

Sections are [model] [detector] [shewhart] [chi2] [attack] [run] with
``key = value`` lines; ``#`` starts a comment. Unknown sections and unknown
keys are rejected. [shewhart] and [chi2] are optional; leaving them out
disables those detectors. Benchmark detectors are enabled by giving their
thresholds (np_q, euclid_d, cosine_d) under [detector].

Each key is declared once, in its section's table below, with its converter
and its default; the parser accepts exactly those keys, and [attack]'s
``kind`` and ``inner``.
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

# The default of a key that must be given.
REQUIRED = object()


def _get(sec: dict, key: str, conv, default):
    if key not in sec:
        if default is REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        return default
    try:
        return conv(sec[key])
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value for {key!r}: {sec[key]!r} ({exc})") from None


def _read(sec: dict, table: dict) -> dict:
    """Each key of ``table`` converted, or its default, in table order."""
    return {key: _get(sec, key, conv, default) for key, (conv, default) in table.items()}


def _bool(text: str) -> bool:
    t = text.lower()
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


def _onset(text: str) -> float:
    """The attack onset: a whole number >= 1, kept a float. The on-off
    cycle counts from int(tau) and the attack starts at the first t >= tau,
    so only a whole tau puts them at the same step."""
    value = finite(text)
    if value % 1:
        raise ValueError("must be a whole number")
    if value < 1:
        raise ValueError("must be >= 1")
    return value


def _mu0_cache(text: str) -> str:
    """``auto`` or ``none`` in any case, lower-cased; else a path as given,
    which ``load_config`` resolves against the config's directory."""
    return text.lower() if text.lower() in ("auto", "none") else text


def _floats(text: str) -> "list[float]":
    return [finite(tok) for tok in text.replace(",", " ").split()]


def _ints(text: str) -> "tuple[int, ...]":
    return tuple(int(tok) for tok in text.replace(",", " ").split())


def _x0(text: str) -> tuple:
    """(mode, values): ``topology`` or ``zeros`` in any case, else an
    explicit comma list."""
    if text.lower() in ("topology", "zeros"):
        return text.lower(), None
    return "explicit", _floats(text)


def _symmetric_law(text: str) -> MagnitudeLaw:
    return MagnitudeLaw.uniform(-finite(text), finite(text))


def _interval_law(text: str) -> MagnitudeLaw:
    lo, hi = _floats(text)
    return MagnitudeLaw.uniform(lo, hi)


def _fixed_law(text: str) -> MagnitudeLaw:
    return MagnitudeLaw.fixed(finite(text))


# Each section's keys: key -> (converter, default or REQUIRED), converted in
# this order.
_MODEL = {
    "x0": (_x0, ("topology", None)),
    "a": (str, "identity"),
    "topology": (str, REQUIRED),
    "lambda": (_at_least(1), 1),
    "sigma_v2": (positive, REQUIRED),
    "sigma_w2": (positive, REQUIRED),
    "p0": (positive, None),
}
_DETECTOR = {
    "gamma": (positive, REQUIRED),
    "sigma2_min": (positive, REQUIRED),
    "h": (finite, REQUIRED),
    "np_q": (finite, None),
    "euclid_d": (finite, None),
    "cosine_d": (finite, None),
    "np_clamp": (_bool, False),
    "mu0_samples": (_at_least(1), 100_000),
    "mu0_cache": (_mu0_cache, "auto"),
}
_SHEWHART = {"phi": (positive, REQUIRED)}
_CHI2 = {"m": (_at_least(1), 5), "l": (int, 80), "varphi": (positive, REQUIRED)}
_RUN = {
    "trials": (_at_least(1), 1),
    "horizon": (_at_least(1), REQUIRED),
    "tau": (_onset, 100),
    "eta": (_at_least(1), 50),
    "seed": (_at_least(0), 0),
    "log_steps": (_bool, False),
    # accepted for existing configs and checked, but unused: every run is
    # one batch of trials (see harness.run_trials)
    "workers": (int, 1),
}

# The [attack] keys each kind reads besides ``kind``. kind = onoff reads
# ``inner``, ``t_on`` and ``t_off`` and the keys of its inner kind. The two
# keys of each of _SELECTION, _FDI and _JAM exclude each other.
_SELECTION = {"p": (finite, 0.5), "meters": (_ints, None)}
_FDI = {"fdi_uniform": (_symmetric_law, None), "fdi_fixed": (_fixed_law, None)}
_JAM = {"jam_uniform": (_interval_law, None), "jam_fixed": (_fixed_law, None)}
_FAULT = {"fault_meters": (_ints, ())}
_ATTACK_KEYS = {
    "none": {},
    "fdi": {**_SELECTION, **_FDI},
    "jamming": {**_SELECTION, **_JAM},
    "hybrid": {**_SELECTION, **_FDI, **_JAM},
    "topology-fault": _FAULT,
}
_ATTACK = {"t_on": (int, None), "t_off": (int, None), **_SELECTION, **_FDI, **_JAM, **_FAULT}

_SECTIONS = {
    "model": _MODEL,
    "detector": _DETECTOR,
    "shewhart": _SHEWHART,
    "chi2": _CHI2,
    "attack": {"kind", "inner", *_ATTACK},
    "run": _RUN,
}
_REQUIRED_SECTIONS = ("model", "detector", "attack", "run")


def _parse_sections(path: Path) -> dict:
    sections: dict = {}
    for name, lines in read_sections(path, _SECTIONS, ConfigError).items():
        sec = sections[name] = {}
        for lineno, line in lines:
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value'")
            key, value = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            if key not in _SECTIONS[name]:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{name}]")
            if key in sec:
                raise ConfigError(f"line {lineno}: duplicate key {key!r}")
            sec[key] = value
    for name in _REQUIRED_SECTIONS:
        if name not in sections:
            raise ConfigError(f"missing required section [{name}]")
    return sections


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
    mu0_cache: "str | Path"  # "auto", "none" or a path


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
    """Bundled names take priority; otherwise resolve against the config dir
    (an absolute path stays as it is)."""
    if name in _BUNDLED:
        return Path(str(resources.files("gridwatch").joinpath("data", _BUNDLED[name])))
    return Path(name) if base is None else base / name


def _attack_spec(sec: dict, tau: float) -> AttackSpec:
    kind = _get(sec, "kind", str.lower, REQUIRED)
    read = {"kind"}
    if kind == "onoff":
        kind = _get(sec, "inner", str.lower, REQUIRED)
        if kind not in ("fdi", "jamming", "hybrid"):
            raise ConfigError(f"onoff inner kind must be fdi/jamming/hybrid, got {kind!r}")
        if "t_on" not in sec or "t_off" not in sec:
            raise ConfigError("kind = onoff requires t_on and t_off")
        read |= {"inner", "t_on", "t_off"}
    if kind not in _ATTACK_KEYS:
        raise ConfigError(f"bad value for 'kind': {kind!r} (unknown attack kind)")
    read.update(_ATTACK_KEYS[kind])
    for key in sec:
        if key not in read:
            raise ConfigError(f"[attack] key {key!r} is not read by kind = {sec['kind']}")
    for first, second in (_SELECTION, _FDI, _JAM):
        if first in sec and second in sec:
            raise ConfigError(f"[attack] keys {first!r} and {second!r} exclude each other")

    # every key this kind does not read is absent, so it takes its default
    v = _read(sec, _ATTACK)
    try:
        return AttackSpec(
            tau=math.inf if kind == "none" else tau,
            kind=kind,
            selection=("bernoulli", v["p"]) if v["meters"] is None else ("fixed", v["meters"]),
            fdi_law=v["fdi_uniform"] or v["fdi_fixed"],
            jam_law=v["jam_uniform"] or v["jam_fixed"],
            t_on=v["t_on"],
            t_off=v["t_off"],
            fault_meters=v["fault_meters"],
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

    m = _read(sections["model"], _MODEL)
    model = ModelSection(
        topology_path=resolve_topology(m["topology"], base),
        lam=m["lambda"],
        sigma_v2=m["sigma_v2"],
        sigma_w2=m["sigma_w2"],
        a_choice="identity" if m["a"].lower() == "identity" else base / m["a"],
        x0_mode=m["x0"][0],
        x0_values=m["x0"][1],
        p0=m["p0"],
    )
    d = _read(sections["detector"], _DETECTOR)
    if d["mu0_cache"] not in ("auto", "none"):  # a path, like topology and a
        d["mu0_cache"] = base / d["mu0_cache"]
    detector = DetectorSection(**d)
    shewhart_phi = None
    if "shewhart" in sections:
        shewhart_phi = _read(sections["shewhart"], _SHEWHART)["phi"]
    chi2_cfg = None
    if "chi2" in sections:
        chi2_cfg = Chi2Section(**_read(sections["chi2"], _CHI2))
        if chi2_cfg.l < chi2_cfg.m:
            raise ConfigError(f"[chi2] l = {chi2_cfg.l} must be >= m = {chi2_cfg.m}")
    r = _read(sections["run"], _RUN)
    del r["workers"]
    run = RunSection(**r)

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
