"""Monte Carlo experiment orchestration.

One trial simulates a single measurement trajectory and feeds the identical
log to every configured detector (paired comparison). The per-step statistic
paths are threshold-free where possible -- the CUSUM recursion, the
nonparametric CUSUM, and all instantaneous statistics do not depend on their
thresholds -- so stopping times for whole threshold grids are derived from
one recorded path per trial. Aggregation uses sums and counts only, making
trial order irrelevant and trials safe to distribute across worker threads
with per-trial derived seeds.
"""

from __future__ import annotations

import hashlib
import math
import os
import stat
import struct
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from itertools import islice
from pathlib import Path
from typing import Iterable, Optional, Sequence

import numpy as np

from . import detector, kalman, robust
from .attacks import AttackSpec, apply_attack, realize_attack, topology_fault
from .expconfig import ExperimentConfig
from .grid_model import GridModel, build_model, initial_sim_state, load_topology, simulate_step
from .robust import BenchmarkState, Chi2Config, Chi2State, ShewhartConfig

INF = math.inf

DETECTORS = ("alg1", "shewhart", "chi2", "alg2", "np_cusum", "euclidean", "cosine")


# ---------------------------------------------------------------------------
# Preparation


@dataclass
class RunContext:
    """Everything immutable a trial needs; shareable across worker threads."""

    cfg: ExperimentConfig
    model: GridModel
    sim_model_post: GridModel  # faulted copy for topology faults, else model
    x0: np.ndarray
    p0: float
    det_cfg: detector.DetectorConfig  # engine copy with h = inf (path mode)
    h: Optional[float]
    shewhart: Optional[ShewhartConfig]
    chi2: Optional[Chi2Config]
    np_q: Optional[float]
    euclid_d: Optional[float]
    cosine_d: Optional[float]
    np_clamp: bool
    mu0: Optional[float]
    schedule: kalman.PreSchedule  # pre-filter steps shared by every trial

    @property
    def enabled(self) -> "list[str]":
        names = ["alg1"]
        if self.shewhart is not None:
            names.append("shewhart")
        if self.chi2 is not None:
            names.append("chi2")
        if self.shewhart is not None or self.chi2 is not None:
            names.append("alg2")
        if self.np_q is not None:
            names.append("np_cusum")
        if self.euclid_d is not None:
            names.append("euclidean")
        if self.cosine_d is not None:
            names.append("cosine")
        return names


def _resolve_x0(cfg: ExperimentConfig, model: GridModel, topology) -> np.ndarray:
    mode = cfg.model.x0_mode
    if mode == "topology":
        return topology.initial_state()
    if mode == "zeros":
        return np.zeros(model.N)
    x0 = np.asarray(cfg.model.x0_values, dtype=float)
    if x0.shape != (model.N,):
        raise ValueError(f"x0 needs {model.N} entries, got {x0.size}")
    return x0


def prepare(cfg: ExperimentConfig, mu0_cache: "str | Path | None" = None) -> RunContext:
    topology = load_topology(cfg.model.topology_path)
    a_choice = cfg.model.a_choice
    if isinstance(a_choice, Path):
        a_choice = np.loadtxt(a_choice, delimiter=",")
    model = build_model(topology, cfg.model.lam, cfg.model.sigma_v2, cfg.model.sigma_w2, a_choice)
    x0 = _resolve_x0(cfg, model, topology)
    p0 = cfg.model.p0 if cfg.model.p0 is not None else model.sigma_v2
    schedule = kalman.PreSchedule(model, p0)

    d = cfg.detector
    h = d.h if d.h is not None else max(d.h_list)
    det_cfg = detector.DetectorConfig(gamma=d.gamma, sigma2_min=d.sigma2_min, h=INF)

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
        h=h,
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


def _cache_key(model: GridModel, x0, p0, samples, seed) -> str:
    h = hashlib.sha256()
    h.update(model.fingerprint().encode())
    h.update(np.asarray(x0, dtype=float).tobytes())
    h.update(struct.pack("<dqq", float(p0), int(samples), int(seed)))
    return h.hexdigest()[:24]


def _load_mu0_cache(path: Path) -> "dict[str, float]":
    """Entries of the sidecar, first one per key. Every writer ends an entry
    with a newline, so a last line without one was cut short (its value may
    still parse, e.g. 0.0123 from 0.0123456...) and is dropped; other
    malformed lines are skipped too, so their key is recomputed."""
    try:
        lines = path.read_text(encoding="utf-8").split("\n")
    except FileNotFoundError:
        return {}
    entries: "dict[str, float]" = {}
    for line in lines[:-1]:  # the piece after the last newline is incomplete
        parts = line.split()
        if len(parts) != 2:
            continue
        try:
            entries.setdefault(parts[0], float(parts[1]))
        except ValueError:
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
    seed: int = 923_001,
    cache: "str | Path | None" = "auto",
) -> float:
    """Clean-operation mean of ||y - H x_pre_pred|| by Monte Carlo.

    The pre filter runs on a ``kalman.PreSchedule`` of model and p0, so once
    its covariance has settled each sample is matrix-vector work only. The
    value is memoized in a plain-text sidecar keyed by a model fingerprint;
    any model change invalidates the entry.
    """
    key = _cache_key(model, x0, p0, samples, seed)
    cache_path: Optional[Path] = None
    if cache == "auto":
        cache_path = Path.home() / ".cache" / "gridwatch" / "mu0.txt"
    elif cache not in (None, "none"):
        cache_path = Path(cache)
    if cache_path is not None:
        cached = _load_mu0_cache(cache_path).get(key)
        if cached is not None:
            return cached

    schedule = kalman.PreSchedule(model, p0)
    rng = np.random.default_rng(seed)
    state = initial_sim_state(model, x0, rng)
    x_hat = np.array(x0, dtype=float)
    total = 0.0
    step = gain = None
    for next_step in islice(schedule, samples):
        if next_step is not step:
            # the meter-mean gain spread over the lam samples of each meter:
            # one matrix-vector product per sample once the schedule settles
            step = next_step
            gain = np.repeat(step.gain / model.lam, model.lam, axis=1)
        state, y = simulate_step(model, state)
        x_pred = model.A @ x_hat
        innovation = y.flat - model.H @ x_pred
        x_hat = x_pred + gain @ innovation
        total += math.sqrt(innovation @ innovation)  # the 2-norm, as np.linalg.norm
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

    def verdict(self, t: int) -> robust.Verdict:
        i = t - 1
        return robust.Verdict(
            t=t,
            beta=float(self.beta[i]),
            g=float(self.g[i]),
            c=float(self.c[i]),
            chi=float(self.chi[i]),
            np_S=float(self.np_S[i]),
            euclid=float(self.euclid[i]),
            cosine=float(self.cosine[i]),
        )


@dataclass
class TrialResult:
    seed: object
    stops: dict
    t_tilde: float
    fired_first: frozenset
    tau_hat: Optional[int]
    steps_run: int
    meas_hash: str
    paths: Optional[TrialPaths] = None

    def stop(self, name: str) -> float:
        return self.stops.get(name, INF)


def trial_entropy(master_seed: int, index: int) -> tuple:
    """Stable per-trial seed material: (master, trial index)."""
    return (int(master_seed), int(index))


def run_trial(
    cfg_or_ctx,
    seed,
    log_steps: Optional[bool] = None,
    full_paths: bool = False,
) -> TrialResult:
    """Simulate one trajectory and evaluate every configured detector on it.

    Deterministic in ``seed``: four child streams (simulation, attack
    realization, attack application, chi-squared window init) are derived in
    that documented order. Unless ``full_paths`` or step logging is on, the
    loop exits early once every enabled detector has fired.
    """
    ctx = cfg_or_ctx if isinstance(cfg_or_ctx, RunContext) else prepare(cfg_or_ctx)
    cfg = ctx.cfg
    model = ctx.model
    horizon = cfg.run.horizon
    if log_steps is None:
        log_steps = cfg.run.log_steps
    want_paths = log_steps or full_paths

    ss = np.random.SeedSequence(seed)
    sim_ss, atk_ss, jam_ss, chi2_ss = ss.spawn(4)
    sim_state = initial_sim_state(model, ctx.x0, sim_ss)
    atk_rng = np.random.default_rng(atk_ss)
    jam_rng = np.random.default_rng(jam_ss)

    bank = kalman.initial_bank(ctx.x0, ctx.p0)
    pre_steps = iter(ctx.schedule)
    cs = detector.CusumState()
    chi2_state = None
    if ctx.chi2 is not None:
        chi2_state = Chi2State.initialize(ctx.chi2, model.K * model.lam, np.random.default_rng(chi2_ss))
    bench = BenchmarkState(mu0=ctx.mu0 if ctx.mu0 is not None else 0.0)

    attack = cfg.attack
    tau = attack.tau

    P = TrialPaths(
        g=np.zeros(horizon),
        beta=np.zeros(horizon),
        c=np.full(horizon, np.nan),
        chi=np.full(horizon, np.nan),
        np_S=np.full(horizon, np.nan),
        euclid=np.full(horizon, np.nan),
        cosine=np.full(horizon, np.nan),
        tau_hat=np.ones(horizon, dtype=np.int64),
        mse0=np.full(horizon, np.nan) if log_steps else None,
        mse1=np.full(horizon, np.nan) if log_steps else None,
    )

    # Live stopping bookkeeping (first crossing per detector).
    stops = {name: INF for name in ctx.enabled}
    need_alg2 = "alg2" in stops
    hasher = hashlib.sha256()

    steps_run = 0
    for t in range(1, horizon + 1):
        sim_model = ctx.sim_model_post if (attack.kind == "topology-fault" and t >= tau) else model
        sim_state, y_clean = simulate_step(sim_model, sim_state)
        real = realize_attack(attack, t, atk_rng, model.K)
        y = apply_attack(model, y_clean, real, jam_rng)
        hasher.update(y.flat.tobytes())

        pre_step = next(pre_steps)
        step = detector.algorithm1_step(bank, cs, model, ctx.det_cfg, y, t, pre_step)
        bank, cs = step.bank, step.cusum
        i = t - 1
        P.g[i] = cs.g
        P.beta[i] = step.beta
        P.tau_hat[i] = cs.tau_hat

        innovation = step.pre_innovation
        dist = float(np.linalg.norm(innovation))
        if ctx.chi2 is not None:
            c = robust.chi2_sample_from_innovation(innovation, pre_step.white, model.sigma_w2)
            chi2_state, chi_stat, _ = robust.pearson_step(chi2_state, c, ctx.chi2)
            P.c[i] = c
            P.chi[i] = chi_stat
        if ctx.np_q is not None:
            s_new = bench.S + dist - bench.mu0
            bench.S = max(0.0, s_new) if ctx.np_clamp else s_new
            P.np_S[i] = bench.S
        if ctx.euclid_d is not None:
            P.euclid[i] = dist
        if ctx.cosine_d is not None:
            P.cosine[i] = robust.cosine_similarity(y.flat, y.flat - innovation.reshape(-1))
        if log_steps:
            P.mse0[i] = float(np.mean((bank.pre.x_upd - sim_state.x) ** 2))
            P.mse1[i] = float(np.mean((bank.post.x_upd - sim_state.x) ** 2))

        if stops["alg1"] == INF and cs.g >= ctx.h:
            stops["alg1"] = t
        if ctx.shewhart is not None and stops["shewhart"] == INF and robust.shewhart_step(
            step.beta, ctx.shewhart
        ):
            stops["shewhart"] = t
        if ctx.chi2 is not None and stops["chi2"] == INF and P.chi[i] >= ctx.chi2.varphi:
            stops["chi2"] = t
        if ctx.np_q is not None and stops["np_cusum"] == INF and bench.S >= ctx.np_q:
            stops["np_cusum"] = t
        if ctx.euclid_d is not None and stops["euclidean"] == INF and dist >= ctx.euclid_d:
            stops["euclidean"] = t
        if ctx.cosine_d is not None and stops["cosine"] == INF and P.cosine[i] <= ctx.cosine_d:
            stops["cosine"] = t

        steps_run = t
        if not want_paths and all(
            s < INF for name, s in stops.items() if name != "alg2"
        ):
            break

    if need_alg2:
        stops["alg2"] = min(stops["alg1"], stops.get("shewhart", INF), stops.get("chi2", INF))
    t_tilde = stops.get("alg2", stops["alg1"])
    fired = frozenset(
        name
        for name in ("alg1", "shewhart", "chi2")
        if stops.get(name, INF) == t_tilde and t_tilde < INF
    )

    tau_hat = None
    if stops["alg1"] < INF:
        tau_hat = int(P.tau_hat[int(stops["alg1"]) - 1])
    elif steps_run > 0:
        tau_hat = int(P.tau_hat[steps_run - 1])

    return TrialResult(
        seed=seed,
        stops=stops,
        t_tilde=t_tilde,
        fired_first=fired,
        tau_hat=tau_hat,
        steps_run=steps_run,
        meas_hash=hasher.hexdigest(),
        paths=P if want_paths else None,
    )


def run_trials(
    ctx: RunContext,
    trials: Optional[int] = None,
    master_seed: Optional[int] = None,
    workers: Optional[int] = None,
    log_steps: Optional[bool] = None,
    full_paths: bool = False,
) -> "list[TrialResult]":
    """Run independent trials with per-trial derived seeds."""
    cfg = ctx.cfg
    n = trials if trials is not None else cfg.run.trials
    master = master_seed if master_seed is not None else cfg.run.seed
    nworkers = workers if workers is not None else cfg.run.workers

    def one(i: int) -> TrialResult:
        return run_trial(ctx, trial_entropy(master, i), log_steps=log_steps, full_paths=full_paths)

    if nworkers and nworkers > 1:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            return list(pool.map(one, range(n)))
    return [one(i) for i in range(n)]


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


def false_alarm_experiment(
    cfg_or_ctx,
    trials: Optional[int] = None,
    master_seed: Optional[int] = None,
    horizon: Optional[int] = None,
) -> "dict[str, FalseAlarmSummary]":
    """Average stopping time of every configured detector with no attack."""
    ctx = cfg_or_ctx if isinstance(cfg_or_ctx, RunContext) else prepare(cfg_or_ctx)
    ctx = no_attack_context(ctx, horizon=horizon)
    results = run_trials(ctx, trials=trials, master_seed=master_seed)
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
        seg = path[:n] if direction > 0 else -path[:n]
        run = np.maximum.accumulate(seg)
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
    records = []
    for p, n in zip(paths, lengths):
        seg = p[:n] if direction > 0 else -p[:n]
        run = np.maximum.accumulate(seg)
        records.append(np.unique(run))
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


PATH_DIRECTION = {
    "alg1": +1,
    "shewhart": +1,
    "chi2": +1,
    "np_cusum": +1,
    "euclidean": +1,
    "cosine": -1,
}

PATH_FIELD = {
    "alg1": "g",
    "shewhart": "beta",
    "chi2": "chi",
    "np_cusum": "np_S",
    "euclidean": "euclid",
    "cosine": "cosine",
}


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
            others = np.array(
                [
                    min(r.stop("shewhart"), r.stop("chi2"))
                    for r in results
                ]
            )
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


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_tradeoff_csv(path, points: Sequence[CurvePoint]) -> None:
    write_csv(
        path,
        [
            "h",
            "fap",
            "fap_ci",
            "delay",
            "delay_ci",
            "miss_ratio",
            "fap_censored",
            "delay_false_alarms",
            "delay_missed",
        ],
        [
            (
                p.h,
                p.fap,
                p.fap_ci,
                p.delay,
                p.delay_ci,
                p.miss_ratio,
                p.fap_censored,
                p.delay_false_alarms,
                p.delay_missed,
            )
            for p in points
        ],
    )


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
