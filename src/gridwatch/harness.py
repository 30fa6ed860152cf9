"""Monte Carlo experiment orchestration.

One trial simulates a single measurement trajectory and feeds the identical
log to every configured detector (paired comparison). The per-step statistic
paths are threshold-free where possible -- the CUSUM recursion, the
nonparametric CUSUM, and all instantaneous statistics do not depend on their
thresholds -- so stopping times for whole threshold grids are derived from
one recorded path per trial. Aggregation uses sums and counts only, making
trial order irrelevant.

The trial engine, ``run_trial``, takes a sequence of seeds and advances
their trials in lock-step, one step at a time, on a leading trial axis B.
Each trial keeps its own random streams, draw order and measurement hash.
Everything else runs once per step for the whole batch: the simulation,
the attack realization and its application, on (B, ...) arrays fed by
per-trial streams that one ``grid_model.Blocks`` per stream draws ahead in
blocks (every step receives the values that drawing at that step would
give), then the filters and detector statistics on (B, K) and (B,)
arrays, sharing the step's pre-filter schedule entry. Without recorded
paths a trial leaves the batch (the batch is compacted) once every
detector except alg2 has fired, and the engine holds O(B) state;
(B, horizon) path arrays exist only when paths are requested.
``run_trials`` derives the seeds of a run, (master seed, trial index),
and runs them as one batch; a single trial is the batch of one seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import stat
import struct
import tempfile
from dataclasses import astuple, dataclass, fields, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import detector, kalman, robust
from .attacks import AttackSpec, apply_attack, realize_attack, topology_fault
from .expconfig import ConfigError, ExperimentConfig
from .grid_model import (
    BLOCK_STEPS,
    Blocks,
    GridModel,
    build_model,
    load_topology,
    simulate_block,
    simulate_step,
    vecdot,
)
from .robust import Chi2Config, Chi2State, ShewhartConfig

INF = math.inf

# The detectors that stop at the first step their statistic path reaches the
# threshold (inclusive), as (name, TrialPaths field, direction): upward, or
# downward for cosine, which fires on a low similarity. Algorithm 2 (alg2)
# stops at the earliest stop of the ALG2 rules, which lead the table.
PATH_DETECTORS = (
    ("alg1", "g", +1),
    ("shewhart", "beta", +1),
    ("chi2", "chi", +1),
    ("np_cusum", "np_S", +1),
    ("euclidean", "euclid", +1),
    ("cosine", "cosine", -1),
)
PATH_FIELD = {name: field for name, field, _ in PATH_DETECTORS}
PATH_DIRECTION = {name: direction for name, _, direction in PATH_DETECTORS}
ALG2 = ("alg1", "shewhart", "chi2")


def crossed(values, threshold: float, direction: int):
    """The stopping rule of every path detector: the statistic reaches the
    threshold, inclusive, upward (direction +1) or downward (-1)."""
    return values >= threshold if direction > 0 else values <= threshold


def _alg2_stop(stops: dict) -> float:
    """Algorithm 2's stop: the earliest stop of its rules, by name (inf for
    a rule that is not configured)."""
    return min(stops.get(name, INF) for name in ALG2)


# ---------------------------------------------------------------------------
# Preparation


@dataclass
class RunContext:
    """What every trial of a run shares and none changes: the model, the
    detector thresholds, the pre-filter schedule and the mu0 baseline."""

    cfg: ExperimentConfig
    model: GridModel
    sim_model_post: GridModel  # faulted copy for topology faults, else model
    x0: np.ndarray
    p0: float
    det_cfg: detector.DetectorConfig
    h: float
    shewhart: Optional[ShewhartConfig]
    chi2: Optional[Chi2Config]
    np_q: Optional[float]
    euclid_d: Optional[float]
    cosine_d: Optional[float]
    np_clamp: bool
    mu0: Optional[float]
    schedule: kalman.PreSchedule  # pre-filter steps shared by every trial

    @property
    def thresholds(self) -> "dict[str, float]":
        """The threshold of every configured path detector, in table order."""
        given = {
            "alg1": self.h,
            "shewhart": None if self.shewhart is None else self.shewhart.phi,
            "chi2": None if self.chi2 is None else self.chi2.varphi,
            "np_cusum": self.np_q,
            "euclidean": self.euclid_d,
            "cosine": self.cosine_d,
        }
        return {name: thr for name, thr in given.items() if thr is not None}

    @property
    def enabled(self) -> "list[str]":
        """The path detectors, with alg2 right after its rules when it has
        more than alg1."""
        names = list(self.thresholds)
        parts = sum(name in ALG2 for name in names)
        return names[:parts] + ["alg2"] + names[parts:] if parts > 1 else names


def _resolve_x0(cfg: ExperimentConfig, model: GridModel, topology) -> np.ndarray:
    mode = cfg.model.x0_mode
    if mode == "topology":
        return topology.initial_state()
    if mode == "zeros":
        return np.zeros(model.N)
    x0 = np.asarray(cfg.model.x0_values, dtype=float)
    if x0.shape != (model.N,):
        raise ConfigError(f"x0 needs {model.N} entries, got {x0.size}")
    return x0


def prepare(cfg: ExperimentConfig, mu0_cache: "str | Path | None" = None) -> RunContext:
    try:
        topology = load_topology(cfg.model.topology_path)
    except OSError as exc:
        path = str(cfg.model.topology_path)
        raise ConfigError(f"bad value for 'topology': {path!r} ({exc.strerror})") from None
    a_choice = cfg.model.a_choice
    if isinstance(a_choice, Path):
        bad = f"bad value for 'a': {str(a_choice)!r}"
        n = topology.n_states
        try:
            a_choice = np.loadtxt(a_choice, delimiter=",", ndmin=2)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"{bad} ({exc})") from None
        if a_choice.shape != (n, n) or not np.isfinite(a_choice).all():
            raise ConfigError(f"{bad} (must hold a finite {n}x{n} matrix)")
    model = build_model(topology, cfg.model.lam, cfg.model.sigma_v2, cfg.model.sigma_w2, a_choice)
    fixed = cfg.attack.selection[1] if cfg.attack.selection[0] == "fixed" else ()
    for m in (*fixed, *cfg.attack.fault_meters):
        if not 0 <= m < model.K:  # numpy would wrap a negative index
            raise ConfigError(f"attack meters: unknown meter index {m} (K = {model.K})")
    x0 = _resolve_x0(cfg, model, topology)
    p0 = cfg.model.p0 if cfg.model.p0 is not None else model.sigma_v2
    schedule = kalman.PreSchedule(model, p0)

    d = cfg.detector
    det_cfg = detector.DetectorConfig(gamma=d.gamma, sigma2_min=d.sigma2_min)

    shewhart = ShewhartConfig(cfg.shewhart_phi) if cfg.shewhart_phi is not None else None
    chi2_cfg = None
    if cfg.chi2 is not None:
        chi2_cfg = Chi2Config.equiprobable(
            dof=model.K * model.lam, M=cfg.chi2.m, L=cfg.chi2.l, varphi=cfg.chi2.varphi
        )

    mu0 = None
    if d.np_q is not None:
        cache = mu0_cache if mu0_cache is not None else d.mu0_cache
        mu0 = innovation_norm_baseline(
            model, x0, p0, samples=d.mu0_samples, cache=cache
        )

    sim_model_post = model
    if cfg.attack.kind == "topology-fault":
        sim_model_post = topology_fault(model, cfg.attack.fault_meters)

    return RunContext(
        cfg=cfg,
        model=model,
        sim_model_post=sim_model_post,
        x0=x0,
        p0=float(p0),
        det_cfg=det_cfg,
        h=d.h,
        shewhart=shewhart,
        chi2=chi2_cfg,
        np_q=d.np_q,
        euclid_d=d.euclid_d,
        cosine_d=d.cosine_d,
        np_clamp=d.np_clamp,
        mu0=mu0,
        schedule=schedule,
    )


# ---------------------------------------------------------------------------
# Baseline for the nonparametric CUSUM


# Seed of the baseline's trajectory; hashed into the cache key with the rest.
MU0_SEED = 923_001


def _cache_key(model: GridModel, x0, p0, samples) -> str:
    h = hashlib.sha256()
    h.update(model.fingerprint().encode())
    h.update(np.asarray(x0, dtype=float).tobytes())
    h.update(struct.pack("<dqq", float(p0), int(samples), MU0_SEED))
    return h.hexdigest()[:24]


def _load_mu0_cache(path: Path) -> "dict[str, float]":
    """Entries of the sidecar, first one per key. Every writer ends an entry
    with a newline, so a last line without one was cut short (its value may
    still parse, e.g. 0.0123 from 0.0123456...) and is dropped; other
    malformed lines, undecodable ones included, are skipped too, so their
    key is recomputed. A path naming a directory is a ConfigError."""
    try:
        lines = path.read_bytes().split(b"\n")
    except FileNotFoundError:
        return {}
    except IsADirectoryError:
        raise ConfigError(f"mu0 cache {str(path)!r} is a directory, not a file") from None
    entries: "dict[str, float]" = {}
    for line in lines[:-1]:  # the piece after the last newline is incomplete
        try:
            key, value = line.decode("utf-8").split()
            entries.setdefault(key, float(value))
        except ValueError:  # UnicodeDecodeError is one too
            continue
    return entries


def _store_mu0(path: Path, key: str, mu0: float) -> None:
    """Add an entry by rewriting the sidecar to a temporary sibling and
    renaming it over the original, so no reader ever sees a partial line."""
    entries = _load_mu0_cache(path)
    entries[key] = mu0
    path.parent.mkdir(parents=True, exist_ok=True)
    try:
        mode = stat.S_IMODE(path.stat().st_mode)
    except FileNotFoundError:
        umask = os.umask(0)
        os.umask(umask)
        mode = 0o666 & ~umask
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(f"{k} {v!r}\n" for k, v in entries.items())
        os.chmod(tmp, mode)  # mkstemp makes it owner-only; keep the sidecar's mode
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def innovation_norm_baseline(
    model: GridModel,
    x0,
    p0,
    samples: int = 100_000,
    cache: "str | Path | None" = "auto",
) -> float:
    """Clean-operation mean of ||y - H x_pre_pred|| by Monte Carlo.

    The pre filter runs on a ``kalman.PreSchedule`` of model and p0, so once
    its covariance has settled each sample is matrix-vector work only. The
    value is memoized in a plain-text sidecar keyed by a model fingerprint;
    any model change invalidates the entry.

    The trajectory is simulated BLOCK_STEPS samples at a time
    (``grid_model.simulate_block``): one draw of the MU0_SEED stream, one
    A @ x per sample and the block's measurements, checked for divergence
    once per block. The filter then runs over the block's rows, and the
    block's innovation norms are added to the running total in sample
    order. None of this changes a bit of the step-at-a-time loop it
    replaced (``tests/oracles.py``): the Generator fills any request from
    one sequence, so every sample gets the same normals; every product is
    the same one-vector BLAS call on the same operands; and the norms, taken
    as one dot product per row, are summed in the same order.
    """
    key = _cache_key(model, x0, p0, samples)
    cache_path: Optional[Path] = None
    if cache == "auto":
        cache_path = Path.home() / ".cache" / "gridwatch" / "mu0.txt"
    elif cache not in (None, "none"):
        cache_path = Path(cache)
    if cache_path is not None:
        cached = _load_mu0_cache(cache_path).get(key)
        if cached is not None:
            return cached

    steps = islice(kalman.PreSchedule(model, p0), samples)
    rng = np.random.default_rng(MU0_SEED)
    x = x_hat = np.array(x0, dtype=float)
    total = 0.0
    step = gain = None
    for start in range(0, samples, BLOCK_STEPS):
        X, Y = simulate_block(model, x, rng, min(BLOCK_STEPS, samples - start))
        x = X[-1]
        innovations = []
        for y, next_step in zip(Y, steps):
            if next_step is not step:
                # the meter-mean gain spread over the lam samples of each meter:
                # one matrix-vector product per sample once the schedule settles
                step = next_step
                gain = np.repeat(step.gain / model.lam, model.lam, axis=1)
            x_pred = model.A @ x_hat
            innovation = y - model.H @ x_pred
            x_hat = x_pred + gain @ innovation
            innovations.append(innovation)
        I = np.array(innovations)
        for norm in np.sqrt(vecdot(I, I)).tolist():
            total += norm  # the 2-norm, as np.linalg.norm, summed in sample order
    mu0 = total / samples

    if cache_path is not None:
        _store_mu0(cache_path, key, mu0)
    return mu0


# ---------------------------------------------------------------------------
# Trial engine


@dataclass
class TrialPaths:
    """Per-step statistic paths; arrays indexed by t-1 over steps actually run."""

    g: np.ndarray
    beta: np.ndarray
    c: np.ndarray
    chi: np.ndarray
    np_S: np.ndarray
    euclid: np.ndarray
    cosine: np.ndarray
    tau_hat: np.ndarray
    mse0: Optional[np.ndarray] = None
    mse1: Optional[np.ndarray] = None


@dataclass
class TrialResult:
    seed: object
    stops: dict
    t_tilde: float
    tau_hat: Optional[int]
    steps_run: int
    meas_hash: str
    paths: Optional[TrialPaths] = None

    def stop(self, name: str) -> float:
        return self.stops.get(name, INF)


def run_trials(
    ctx: RunContext,
    trials: Optional[int] = None,
    master_seed: Optional[int] = None,
    workers: Optional[int] = None,
    log_steps: Optional[bool] = None,
    full_paths: bool = False,
) -> "list[TrialResult]":
    """Run independent trials, trial i with seed material (master seed, i),
    as one batch of ``run_trial``.

    ``workers`` (and the ``run.workers`` key) is accepted and ignored: one
    batch amortizes each step's filter and detector work over every trial,
    and splitting it across threads was measured slower, since the small
    numpy calls serialize on the interpreter lock.
    """
    cfg = ctx.cfg
    n = trials if trials is not None else cfg.run.trials
    master = master_seed if master_seed is not None else cfg.run.seed
    return run_trial(ctx, [(master, i) for i in range(n)], log_steps, full_paths)


@dataclass
class _Streams:
    """A batch's own state outside the batched filters: per trial, its place
    in the run, seed, measurement hash, true state and random streams.

    Each trial derives four child streams from its seed, in their documented
    order: simulation, attack realization, attack application (jamming
    noise) and the chi-squared window's initial draws. The first three are
    one ``grid_model.Blocks`` each, drawn ahead for the whole batch; each
    step still receives exactly the values that drawing in the documented
    order at that step would give. The windows are drawn at spawn time,
    L chi-squared draws per trial, and returned as one batch.
    """

    index: list
    seeds: list
    hashers: list
    x: np.ndarray  # (B, N) true states
    sim: Blocks
    atk: Blocks
    jam: Blocks

    @classmethod
    def spawn(cls, ctx: RunContext, seeds: Sequence) -> "tuple[_Streams, Optional[Chi2State]]":
        model = ctx.model
        sim_ss, atk_ss, jam_ss, chi2_ss = zip(*(np.random.SeedSequence(s).spawn(4) for s in seeds))
        window = None
        if ctx.chi2 is not None:
            dof = model.K * model.lam
            samples = [np.random.default_rng(ss).chisquare(dof, ctx.chi2.L) for ss in chi2_ss]
            window = Chi2State.from_samples(ctx.chi2, samples)
        streams = cls(
            index=list(range(len(seeds))),
            seeds=list(seeds),
            hashers=[hashlib.sha256() for _ in seeds],
            x=np.tile(ctx.x0, (len(seeds), 1)),
            sim=Blocks(sim_ss, "standard_normal", model.N + model.K * model.lam),
            atk=Blocks(atk_ss, "random", 4 * model.K),
            jam=Blocks(jam_ss, "standard_normal", model.K * model.lam),
        )
        return streams, window

    def take(self, keep: np.ndarray) -> "_Streams":
        """The trials where the boolean mask ``keep`` is true."""
        return _Streams(
            index=[i for i, k in zip(self.index, keep) if k],
            seeds=[s for s, k in zip(self.seeds, keep) if k],
            hashers=[h for h, k in zip(self.hashers, keep) if k],
            x=self.x[keep],
            sim=self.sim.take(keep),
            atk=self.atk.take(keep),
            jam=self.jam.take(keep),
        )


def _new_paths(B: int, horizon: int, log_steps: bool) -> TrialPaths:
    shape = (B, horizon)
    return TrialPaths(
        g=np.zeros(shape),
        beta=np.zeros(shape),
        c=np.full(shape, np.nan),
        chi=np.full(shape, np.nan),
        np_S=np.full(shape, np.nan),
        euclid=np.full(shape, np.nan),
        cosine=np.full(shape, np.nan),
        tau_hat=np.ones(shape, dtype=np.int64),
        mse0=np.full(shape, np.nan) if log_steps else None,
        mse1=np.full(shape, np.nan) if log_steps else None,
    )


def run_trial(
    ctx: RunContext,
    seeds: Sequence,
    log_steps: Optional[bool] = None,
    full_paths: bool = False,
) -> "list[TrialResult]":
    """The trial engine: simulate one trajectory per seed, evaluate every
    configured detector on it, and return the trials' results in order.

    The trials advance in lock-step; each is deterministic in its seed (see
    ``_Streams.spawn``), whatever the batch it runs in, so a single trial
    is ``run_trial(ctx, [seed])[0]``.

    Per trial: the measurement hash. Batched, once per step: the simulation
    step, the attack realization and application (each trial drawing from
    its own streams), algorithm 1 (both filters, the detector statistics
    and one CUSUM step per trial), the chi-squared window, the benchmark
    statistics and the stopping rules. Unless paths are recorded (full
    paths or step logging), a trial leaves the batch once every enabled
    detector but alg2 has fired.
    """
    cfg, model = ctx.cfg, ctx.model
    horizon = cfg.run.horizon
    if log_steps is None:
        log_steps = cfg.run.log_steps
    want_paths = log_steps or full_paths
    attack = cfg.attack

    B = len(seeds)
    if B == 0:
        return []
    streams, window = _Streams.spawn(ctx, seeds)
    results: "list[Optional[TrialResult]]" = [None] * B
    paths = _new_paths(B, horizon, log_steps) if want_paths else None
    bank = kalman.initial_bank(np.tile(ctx.x0, (B, 1)), ctx.p0)
    cs = [detector.CusumState() for _ in range(B)]
    mu0 = ctx.mu0 if ctx.mu0 is not None else 0.0
    np_S = np.zeros(B)
    # first crossing per path detector (alg1 is row 0), and tau_hat at alg1's
    thresholds = ctx.thresholds
    names = list(thresholds)
    rules = [(PATH_FIELD[name], PATH_DIRECTION[name], thr) for name, thr in thresholds.items()]
    stops = np.full((len(names), B), INF)
    tau_at_alg1 = np.ones(B, dtype=np.int64)
    pre_steps = iter(ctx.schedule)
    if horizon < 1:
        return [
            _trial_result(ctx, streams, j, dict.fromkeys(names, INF), None, 0, paths)
            for j in range(B)
        ]

    for t in range(1, horizon + 1):
        faulted = attack.kind == "topology-fault" and t >= attack.tau
        streams.x, y = simulate_step(ctx.sim_model_post if faulted else model, streams.x, streams.sim)
        real = realize_attack(attack, t, streams.atk, model.K)
        y = apply_attack(model, y, real, streams.jam)
        for hasher, y_j in zip(streams.hashers, y):
            hasher.update(y_j.tobytes())
        b = len(y)

        pre_step = next(pre_steps)
        step = detector.algorithm1_step(bank, cs, model, ctx.det_cfg, y, t, pre_step)
        bank, cs = step.bank, step.cusum
        r = step.pre_innovation.reshape(b, -1)
        dist = np.sqrt(vecdot(r, r))  # the 2-norm, as np.linalg.norm

        # this step's statistics, keyed by TrialPaths field
        stats = {"g": np.array([c.g for c in cs]), "beta": step.beta}
        if ctx.chi2 is not None:
            c = robust.chi2_sample_from_innovation(step.pre_innovation, pre_step.white, model.sigma_w2)
            window, chi = robust.pearson_step(window, c)
            stats.update(c=c, chi=chi)
        if "np_cusum" in thresholds:
            np_S = robust.np_cusum_step(np_S, dist, mu0, ctx.np_clamp)
            stats["np_S"] = np_S
        if "euclidean" in thresholds:
            stats["euclid"] = dist
        if "cosine" in thresholds:
            y_flat = y.reshape(b, -1)
            stats["cosine"] = robust.cosine_similarity(y_flat, y_flat - r)

        hits = [crossed(stats[f], thr, d) for f, d, thr in rules]
        first = np.array(hits) & (stops == INF)
        stops[first] = t
        if first[0].any():
            tau_at_alg1[first[0]] = [cs[j].tau_hat for j in np.flatnonzero(first[0])]

        if paths is not None:
            stats["tau_hat"] = [c.tau_hat for c in cs]
            if log_steps:
                stats["mse0"] = np.mean((bank.pre.x_upd - streams.x) ** 2, axis=-1)
                stats["mse1"] = np.mean((bank.post.x_upd - streams.x) ** 2, axis=-1)
            for field, values in stats.items():
                getattr(paths, field)[:, t - 1] = values

        if t == horizon:
            done = np.ones(b, dtype=bool)
        elif want_paths:
            continue
        else:
            done = (stops < INF).all(axis=0)
            if not done.any():
                continue
        for j in np.flatnonzero(done):
            trial_stops = {name: (int(s) if s < INF else INF) for name, s in zip(names, stops[:, j])}
            tau_hat = int(tau_at_alg1[j]) if trial_stops["alg1"] < INF else cs[j].tau_hat
            results[streams.index[j]] = _trial_result(ctx, streams, j, trial_stops, tau_hat, t, paths)
        keep = ~done
        if not keep.any():
            break
        streams = streams.take(keep)
        cs = [c for c, k in zip(cs, keep) if k]
        bank = bank.take(keep)
        if window is not None:
            window = window.take(keep)
        np_S = np_S[keep]
        stops = stops[:, keep]
        tau_at_alg1 = tau_at_alg1[keep]
    return results


def _trial_result(
    ctx: RunContext,
    streams: _Streams,
    j: int,
    stops: dict,
    tau_hat: Optional[int],
    steps_run: int,
    paths: Optional[TrialPaths],
) -> TrialResult:
    enabled = ctx.enabled
    if "alg2" in enabled:
        stops["alg2"] = _alg2_stop(stops)
    stops = {name: stops[name] for name in enabled}
    t_tilde = stops.get("alg2", stops["alg1"])
    own_paths = None
    if paths is not None:
        rows = {
            name: None if path is None else path[streams.index[j]]
            for name, path in vars(paths).items()
        }
        own_paths = TrialPaths(**rows)
    return TrialResult(
        seed=streams.seeds[j],
        stops=stops,
        t_tilde=t_tilde,
        tau_hat=tau_hat,
        steps_run=steps_run,
        meas_hash=streams.hashers[j].hexdigest(),
        paths=own_paths,
    )


def no_attack_context(ctx: RunContext, horizon: Optional[int] = None) -> RunContext:
    """Same experiment with the attack disabled (and optionally a new horizon)."""
    cfg = ctx.cfg
    run = replace(cfg.run, horizon=horizon if horizon is not None else cfg.run.horizon)
    cfg2 = replace(cfg, attack=AttackSpec(tau=INF, kind="none"), run=run)
    return replace(ctx, cfg=cfg2, sim_model_post=ctx.model)


# ---------------------------------------------------------------------------
# Metrics


@dataclass
class DelaySummary:
    mean: float
    ci_half: float
    n_detected: int
    n_false_alarm: int  # stopped before the onset
    n_missed: int  # never stopped within the horizon


def _mean_ci(values: np.ndarray) -> "tuple[float, float]":
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return math.nan, math.nan
    mean = float(values.mean())
    if values.size == 1:
        return mean, math.nan
    half = 1.96 * float(values.std(ddof=1)) / math.sqrt(values.size)
    return mean, half


def estimate_delay(stop_times: Sequence[float], tau: float) -> DelaySummary:
    """Mean detection delay (T - tau)+ over attacked trials at a fixed onset.

    Stops before tau count as false alarms, runs that never stop as misses;
    both are excluded from the mean and reported.
    """
    stop_times = list(stop_times)
    if not stop_times:
        raise ValueError("no trials")
    delays = []
    false_alarms = missed = 0
    for T in stop_times:
        if T == INF:
            missed += 1
        elif T < tau:
            false_alarms += 1
        else:
            delays.append(T - tau)
    mean, half = _mean_ci(np.array(delays)) if delays else (math.nan, math.nan)
    return DelaySummary(
        mean=mean,
        ci_half=half,
        n_detected=len(delays),
        n_false_alarm=false_alarms,
        n_missed=missed,
    )


@dataclass
class FalseAlarmSummary:
    mean: float
    ci_half: float
    n_runs: int
    n_censored: int  # hit the horizon; contribute it as a lower bound


def estimate_false_alarm_period(stop_times: Sequence[float], horizon: int) -> FalseAlarmSummary:
    """Mean stopping time under no attack, censored runs at the horizon."""
    vals = np.array([min(T, horizon) for T in stop_times], dtype=float)
    censored = sum(1 for T in stop_times if T > horizon or T == INF)
    mean, half = _mean_ci(vals)
    return FalseAlarmSummary(mean=mean, ci_half=half, n_runs=len(vals), n_censored=censored)


def missed_detection_ratio(stop_times: Sequence[float], tau: float, eta: int) -> float:
    """Fraction of trials not detected inside [tau, tau + eta)."""
    stop_times = list(stop_times)
    if not stop_times:
        raise ValueError("no trials")
    hits = sum(1 for T in stop_times if tau <= T < tau + eta)
    return 1.0 - hits / len(stop_times)


def false_alarm_experiment(cfg: ExperimentConfig) -> "dict[str, FalseAlarmSummary]":
    """Average stopping time of every configured detector with no attack."""
    ctx = no_attack_context(prepare(cfg))
    results = run_trials(ctx)
    h = ctx.cfg.run.horizon
    return {
        name: estimate_false_alarm_period([r.stop(name) for r in results], h)
        for name in ctx.enabled
    }


def first_detector_ratio(results: Sequence[TrialResult], names: Sequence[str], tau: float) -> dict:
    """Per-detector fraction of trials where it achieves the minimum delay.

    Simultaneous firings credit every winner, so fractions can exceed 1 in
    total. Only detections at or after the onset count.
    """
    counts = {name: 0 for name in names}
    for res in results:
        eligible = {n: res.stop(n) for n in names if tau <= res.stop(n) < INF}
        if not eligible:
            continue
        best = min(eligible.values())
        for n, T in eligible.items():
            if T == best:
                counts[n] += 1
    total = len(results)
    return {n: counts[n] / total for n in names}


def mse_curves(results: Sequence[TrialResult]) -> "tuple[np.ndarray, np.ndarray]":
    """Across-trial mean of the per-step state estimation MSE paths."""
    m0 = [r.paths.mse0 for r in results if r.paths is not None and r.paths.mse0 is not None]
    if not m0:
        raise ValueError("per-step logging was not enabled")
    m1 = [r.paths.mse1 for r in results]
    return np.nanmean(np.vstack(m0), axis=0), np.nanmean(np.vstack(m1), axis=0)


# ---------------------------------------------------------------------------
# Threshold grids and calibration


def _running_extremum(path: np.ndarray, n: int, direction: int) -> np.ndarray:
    """Running maximum of the first n steps of a path, signed so that it
    rises toward the threshold: of -path for a downward detector."""
    return np.maximum.accumulate(path[:n] if direction > 0 else -path[:n])


def stopping_times_for_grid(
    paths: Sequence[np.ndarray],
    lengths: Sequence[int],
    grid: np.ndarray,
    direction: int = +1,
) -> np.ndarray:
    """First crossing per (trial, threshold); inf where never crossed.

    Uses the running extremum, so one sort per trial serves the whole grid.
    """
    grid = np.asarray(grid, dtype=float)
    out = np.full((len(paths), grid.size), INF)
    for i, (path, n) in enumerate(zip(paths, lengths)):
        run = _running_extremum(path, n, direction)
        thr = grid if direction > 0 else -grid
        pos = np.searchsorted(run, thr, side="left")
        hit = pos < n
        out[i, hit] = pos[hit] + 1
    return out


def calibrate_threshold(
    paths: Sequence[np.ndarray],
    lengths: Sequence[int],
    horizon: int,
    target_fap: float,
    direction: int = +1,
) -> "tuple[float, FalseAlarmSummary]":
    """Pick the threshold whose measured false-alarm period is nearest target.

    The measured period as a function of the threshold only changes at the
    record values of the per-trial running extrema, so those records are the
    exact candidate set. The measured period is censored at the horizon like
    every other estimate.
    """
    records = [np.unique(_running_extremum(p, n, direction)) for p, n in zip(paths, lengths)]
    grid = np.unique(np.concatenate(records))
    # one candidate above every record: the "never fires" end of the curve
    grid = np.append(grid, grid[-1] + np.spacing(abs(grid[-1]) + 1.0))
    if direction < 0:
        grid = -grid
    stops = stopping_times_for_grid(paths, lengths, grid, direction)
    faps = np.minimum(stops, horizon).mean(axis=0)
    best = int(np.argmin(np.abs(faps - target_fap)))
    thr = float(grid[best])
    summary = estimate_false_alarm_period(list(stops[:, best]), horizon)
    return thr, summary


def detector_paths(results: Sequence[TrialResult], name: str):
    arrs = [getattr(r.paths, PATH_FIELD[name]) for r in results]
    lengths = [r.steps_run for r in results]
    return arrs, lengths


# ---------------------------------------------------------------------------
# Tradeoff sweeps


@dataclass
class CurvePoint:
    h: float
    fap: float
    fap_ci: float
    delay: float
    delay_ci: float
    miss_ratio: float
    fap_censored: int = 0
    delay_false_alarms: int = 0
    delay_missed: int = 0


def sweep_tradeoff(
    cfg_or_ctx,
    h_list: Sequence[float],
    which: str = "alg1",
    fap_horizon: Optional[int] = None,
    fap_trials: Optional[int] = None,
) -> "list[CurvePoint]":
    """Delay/false-alarm tradeoff over an ascending threshold grid.

    For Algorithm 2 the companion thresholds phi and varphi stay fixed and
    only h varies. Attacked and no-attack runs are separate trial sets; both
    reuse one recorded path per trial for the entire grid.
    """
    h_list = list(h_list)
    if h_list != sorted(h_list):
        raise ValueError("h_list must be ascending")
    if which not in ("alg1", "alg2"):
        raise ValueError("sweep supports alg1 or alg2")
    ctx = cfg_or_ctx if isinstance(cfg_or_ctx, RunContext) else prepare(cfg_or_ctx)
    cfg = ctx.cfg
    tau, eta, horizon = cfg.run.tau, cfg.run.eta, cfg.run.horizon

    attacked = run_trials(ctx, full_paths=True)
    fap_ctx = no_attack_context(ctx, horizon=fap_horizon or horizon)
    clean = run_trials(
        fap_ctx,
        trials=fap_trials or cfg.run.trials,
        master_seed=cfg.run.seed + 500_000,
        full_paths=True,
    )

    grid = np.asarray(h_list, dtype=float)

    def tilde_stops(results) -> np.ndarray:
        g_paths, lengths = detector_paths(results, "alg1")
        stops = stopping_times_for_grid(g_paths, lengths, grid)
        if which == "alg2":
            # alg1's stop depends on h; the other rules' stops do not
            others = np.array([_alg2_stop({**r.stops, "alg1": INF}) for r in results])
            stops = np.minimum(stops, others[:, None])
        return stops

    atk_stops = tilde_stops(attacked)
    fap_stops = tilde_stops(clean)
    fh = fap_ctx.cfg.run.horizon

    points = []
    for j, h in enumerate(grid):
        fap = estimate_false_alarm_period(list(fap_stops[:, j]), fh)
        delay = estimate_delay(list(atk_stops[:, j]), tau)
        miss = missed_detection_ratio(list(atk_stops[:, j]), tau, eta)
        points.append(
            CurvePoint(
                h=float(h),
                fap=fap.mean,
                fap_ci=fap.ci_half,
                delay=delay.mean,
                delay_ci=delay.ci_half,
                miss_ratio=miss,
                fap_censored=fap.n_censored,
                delay_false_alarms=delay.n_false_alarm,
                delay_missed=delay.n_missed,
            )
        )
    return points


# ---------------------------------------------------------------------------
# CSV emission


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf"
        return format(x, ".10g")
    return str(x)


def write_rows(fh, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write a CSV header line and one line per row to the text stream fh."""
    fh.write(",".join(header) + "\n")
    for row in rows:
        fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        write_rows(fh, header, rows)


def write_tradeoff_csv(path, points: Sequence[CurvePoint]) -> None:
    write_csv(path, [f.name for f in fields(CurvePoint)], [astuple(p) for p in points])


def write_trial_log_csv(path, result: TrialResult) -> None:
    P = result.paths
    if P is None or P.mse0 is None:
        raise ValueError("trial was not run with per-step logging")
    n = result.steps_run
    rows = (
        (t, P.g[t - 1], P.beta[t - 1], P.chi[t - 1], P.mse0[t - 1], P.mse1[t - 1])
        for t in range(1, n + 1)
    )
    write_csv(path, ["t", "g", "beta", "chi", "mse0", "mse1"], rows)


def write_first_detector_csv(path, ratios: dict) -> None:
    write_csv(path, ["detector", "ratio"], sorted(ratios.items()))
