"""Monte Carlo experiment orchestration.

One trial simulates a single measurement trajectory and feeds the identical
log to every configured detector (paired comparison). The per-step statistic
paths are threshold-free where possible -- the CUSUM recursion, the
nonparametric CUSUM, and all instantaneous statistics do not depend on their
thresholds -- so stopping times for whole threshold grids are derived from
one recorded path per trial. Aggregation uses sums and counts only, making
trial order irrelevant.

The trial engine, ``run_trial``, takes a sequence of seeds and advances
their trials in lock-step on a leading trial axis B, one block of steps at
a time. What a trial carries from one block to the next is held in one
batch state (``_Batch``) whose ``take`` is the engine's only compaction;
a block's arrays are not carried: ``_Batch.next_block`` returns the
block's true states, measurements and (B, T) statistics, the last as one
``TrialPaths``, and the block's epilogue reads and drops them. Each trial
keeps its own random streams, draw order and measurement hash. The
measurements are open-loop: the simulation, the attack realization and
its application never read the detector. So they run a block of up to
``BLOCK_STEPS`` steps ahead, one call of each kernel giving the whole
batch's (B, T, ...) block. Each trial's streams are plain
``np.random.Generator`` objects, and each kernel leaves them where the
block's draws end, so every step receives the values that drawing at that
step would give and no draws are held from one block to the next. A block
ends where the attack switches on or off and where a topology fault
begins (``attacks.block_steps``). The pre filter reads only the
measurements, so it runs over the block as well, on the block's schedule
entries, and so does every statistic built on it alone, one call each
for the block: the innovation norm, the chi-squared sample, the cosine
similarity and the GLLR's clean term, and the open-loop detectors'
statistics, the Pearson window over the chi-squared samples and the
nonparametric CUSUM over the innovation norms.
So does algorithm 1's score of the pre track: a trial whose CUSUM g is
zero re-synced its post filter to the pre filter at the last step (or has
not left it), so its post prediction is the pre filter's, bit for bit,
and its GLLR is the one scored on the pre predictions. Its residuals are
then the pre filter's innovations: the pre filter writes them, with their
sums over each meter's lam samples, into step-major block buffers once,
and the pre-track score, the chi-squared sample (its meter means) and the
innovation norm read them from there. The closed loop
(``_ClosedLoop.run``) then steps only algorithm 1's post filter and its
CUSUM, on the (L, K) and (L,) arrays of the L trials still live in it,
writing each step's g and GLLR into the block. A step predicts and scores,
once, the trials off the pre track and those on it whose pre-track GLLR is
positive, the only on-track trials that do not re-sync, and updates the
post filter of the trials that do not re-sync. A step that would score
none, every live trial on the pre track with a GLLR of at most zero, is
idle: its result is known (g stays zero, the post filter takes the pre
filter's estimate), so the loop jumps over a stretch of them at once and
steps only the CUSUM through it. Each product is one BLAS call per vector
(none where A is the identity, see ``grid_model.transition``), every
reduction runs over the same axis in either half, the Pearson counts are
exact small integers and the nonparametric CUSUM keeps its per-step order,
so every trial gets the bits of a step at a time.

Once per block an epilogue settles the rest on the block's (B, T) arrays:
tau_hat, the first crossing in the block of every stopping rule, the
re-sync counts, the measurement hashes and the recorded paths. Without
recorded paths, a trial retires from the closed loop at the end of the
block that holds the later of its alg1 and Shewhart stops, as the paper's
Algorithm 1 ends at its alarm: nothing it reports but the re-syncs up to
those stops reads the closed loop, so from the next block neither the
closed loop nor the pre-track score runs for it, and its g and GLLR
columns hold NaN. It leaves the batch at the end of the block that holds
its latest stop, which is its steps_run; the steps it ran after that
stop are dropped. The engine then holds O(B) state; (B, horizon) path arrays
exist only when paths are requested.
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
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from . import attacks, detector, kalman, robust
from .attacks import AttackSpec, apply_attack, realize_attack, topology_fault
from .expconfig import ConfigError, ExperimentConfig
from .grid_model import (
    GridModel,
    build_model,
    load_topology,
    simulate_step,
    vecdot,
)
from .robust import Chi2Config, Chi2State, ShewhartConfig

INF = math.inf

# The most steps the trial engine simulates, attacks and hashes at once, and
# the mu0 baseline simulates per kernel call. While a block is simulated,
# each trial's normals take BLOCK_STEPS * (N + K*lam) doubles (32 KiB on
# ieee14 at lam = 5); no stream keeps draws past its block.
BLOCK_STEPS = 32

# The most trial-steps of a block that Algorithm 1's pre-track score takes
# at once: the whole block for up to 8 trials, one step at a time from 256.
# The score's per-meter arrays then stay small next to the block itself.
SCORE_TRIAL_STEPS = 256

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
# The rules that read Algorithm 1's closed loop: its CUSUM g and its GLLR.
CLOSED_LOOP = ("alg1", "shewhart")


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
    key is recomputed. A missing file has no entries; any other error reading
    it is a ConfigError."""
    try:
        lines = path.read_bytes().split(b"\n")
    except FileNotFoundError:
        return {}
    except OSError as exc:
        raise _mu0_cache_error(path, exc) from None
    entries: "dict[str, float]" = {}
    for line in lines[:-1]:  # the piece after the last newline is incomplete
        try:
            key, value = line.decode("utf-8").split()
            entries.setdefault(key, float(value))
        except ValueError:  # UnicodeDecodeError is one too
            continue
    return entries


def _mu0_cache_error(path: Path, exc: OSError) -> ConfigError:
    return ConfigError(f"bad value for 'mu0_cache': {str(path)!r} ({exc.strerror})")


def _store_mu0(path: Path, key: str, compute: Callable[[], float]) -> float:
    """Compute mu0 and add it to the sidecar under ``key``, returning it.

    The sidecar is rewritten to a temporary sibling that is renamed over
    the original, so no reader ever sees a partial line. The sibling is made
    before ``compute`` runs, so a sidecar that cannot be written fails at
    once, not after the baseline; an error writing it is a ConfigError. If
    anything fails, the sibling is removed.
    """
    try:
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
                mu0 = compute()
                entries = _load_mu0_cache(path)
                entries[key] = mu0
                fh.writelines(f"{k} {v!r}\n" for k, v in entries.items())
            os.chmod(tmp, mode)  # mkstemp makes it owner-only; keep the sidecar's mode
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise _mu0_cache_error(path, exc) from None
    return mu0


def innovation_norm_baseline(
    model: GridModel,
    x0,
    p0,
    samples: int,
    cache: "str | Path | None",
) -> float:
    """Clean-operation mean of ||y - H x_pre_pred|| by Monte Carlo.

    The value is memoized in a plain-text sidecar keyed by a model
    fingerprint; any model change invalidates the entry.
    """
    cache_path: Optional[Path] = None
    if cache == "auto":
        cache_path = Path.home() / ".cache" / "gridwatch" / "mu0.txt"
    elif cache not in (None, "none"):
        cache_path = Path(cache)
    if cache_path is None:
        return _mu0_monte_carlo(model, x0, p0, samples)
    key = _cache_key(model, x0, p0, samples)
    cached = _load_mu0_cache(cache_path).get(key)
    if cached is not None:
        return cached
    return _store_mu0(cache_path, key, lambda: _mu0_monte_carlo(model, x0, p0, samples))


def _mu0_monte_carlo(model: GridModel, x0, p0, samples: int) -> float:
    """The baseline itself. The pre filter runs on a ``kalman.PreSchedule``
    of model and p0, so once its covariance has settled each sample is
    matrix-vector work only.

    The trajectory is simulated BLOCK_STEPS samples at a time by the trial
    engine's kernel, ``simulate_step``, on a batch of one: one draw of the
    MU0_SEED stream, one A @ x per sample (with A the identity, one running
    sum over the block) and the block's measurements, checked for
    divergence once per block. It is called through this module's name, as
    the engine calls it, so a tracer that wraps it there sees these calls
    inside the baseline's own span.
    The filter then runs over the block's rows as bare in-place BLAS calls
    and ufuncs: H x_hat into a buffer, the innovation over its measurement
    row, the gain times it, and that added to x_hat, after A @ x_hat unless
    A is the identity. The block's innovation norms are then added to the
    running total in sample order. None of this changes a bit of the
    step-at-a-time loop it replaced (``tests/oracles.py``): the Generator
    fills any request from one sequence, so every sample gets the same
    normals; every product is the same one-vector BLAS call on the same
    operands; and the norms, taken as one dot product per row, are summed
    in the same order. The identity's x_hat + 0.0 is left out: it only
    turns -0.0 entries into +0.0, and a zero's sign, carried through sums
    and products, can only flip the sign of other zeros, never a magnitude,
    so every innovation entry keeps its magnitude and every norm its bits.

    The loop stays in H's dense form over the lam samples of each meter:
    the meter-mean form of ``kalman.pre_filter`` sums in another order,
    which would change mu0's last bits and the np-CUSUM stops that read it.
    """
    steps = islice(kalman.PreSchedule(model, p0), samples)
    rng = np.random.default_rng(MU0_SEED)
    x = np.array(x0, dtype=float)
    x_hat = x.copy()
    H, A = model.H, None if model.identity_A else model.A
    hx, u = np.empty(H.shape[0]), np.empty(model.N)
    total = 0.0
    step = gain = None
    for start in range(0, samples, BLOCK_STEPS):
        X, Y = simulate_step(model, x[None], [rng], min(BLOCK_STEPS, samples - start))
        x, Y = X[0, -1], Y[0].reshape(len(X[0]), -1)  # Y in H's row layout
        for y, next_step in zip(Y, steps):  # each row of Y becomes its innovation
            if next_step is not step:
                # the meter-mean gain spread over the lam samples of each meter:
                # one matrix-vector product per sample once the schedule settles
                step = next_step
                gain = np.repeat(step.gain / model.lam, model.lam, axis=1)
            if A is not None:
                x_hat = A @ x_hat
            H.dot(x_hat, out=hx)
            y -= hx
            gain.dot(y, out=u)
            x_hat += u
        for norm in np.sqrt(vecdot(Y, Y)).tolist():
            total += norm  # the 2-norm, as np.linalg.norm, summed in sample order
    return total / samples


# ---------------------------------------------------------------------------
# Trial engine


@dataclass
class TrialPaths:
    """Per-step statistic paths, in three roles: a run's recorded (B,
    horizon) paths, a block's (B, T) statistics (``_Batch.next_block``),
    and one trial's paths, indexed by t-1 over the steps it ran. A field
    is None where nothing computes it."""

    g: Optional[np.ndarray] = None
    beta: Optional[np.ndarray] = None
    c: Optional[np.ndarray] = None
    chi: Optional[np.ndarray] = None
    np_S: Optional[np.ndarray] = None
    euclid: Optional[np.ndarray] = None
    cosine: Optional[np.ndarray] = None
    tau_hat: Optional[np.ndarray] = None
    mse0: Optional[np.ndarray] = None
    mse1: Optional[np.ndarray] = None


@dataclass
class TrialResult:
    seed: object
    stops: dict
    tau_hat: Optional[int]
    steps_run: int
    meas_hash: str
    paths: Optional[TrialPaths] = None
    # the steps at which alg1's CUSUM was clamped to zero (the post filter
    # re-synced), of the first ``sync_steps``
    syncs: int = 0

    def stop(self, name: str) -> float:
        return self.stops.get(name, INF)

    @property
    def sync_steps(self) -> int:
        """The steps ``syncs`` counts over: up to the latest stop of the
        configured ``CLOSED_LOOP`` rules, after which Algorithm 1 has done
        its work and the engine may retire its closed loop, and at most
        steps_run, with or without recorded paths."""
        closed = max(self.stops[name] for name in CLOSED_LOOP if name in self.stops)
        return int(min(self.steps_run, closed))


def run_trials(
    ctx: RunContext,
    master_seed: Optional[int] = None,
    workers: Optional[int] = None,
    log_steps: Optional[bool] = None,
    full_paths: bool = False,
) -> "list[TrialResult]":
    """Run the configured number of independent trials, trial i with seed
    material (master seed, i), as one batch of ``run_trial``.

    ``workers`` (and the ``run.workers`` key) is accepted and ignored: one
    batch amortizes each step's filter and detector work over every trial,
    and splitting it across threads was measured slower, since the small
    numpy calls serialize on the interpreter lock.
    """
    run = ctx.cfg.run
    master = master_seed if master_seed is not None else run.seed
    return run_trial(ctx, [(master, i) for i in range(run.trials)], log_steps, full_paths)


def _take(item, keep):
    """A per-trial field at the trials where the boolean mask ``keep`` is
    true: a list, an array on a leading trial axis, None, or an object with
    its own ``take``."""
    if isinstance(item, list):
        return [value for value, k in zip(item, keep) if k]
    if isinstance(item, np.ndarray):
        return item[keep]
    return None if item is None else item.take(keep)


@dataclass
class _ClosedLoop:
    """Algorithm 1's closed loop on the live trials of a batch, those where
    the (B,) mask ``live`` is true: their post filter, its shares-pre flags
    (see ``kalman``) and the CUSUM g each carries from one block to the
    next (at spawn, zero). Every field but ``live`` is on the live trials
    alone.

    A trial retires from the loop once nothing reads it any more: no path
    is recorded and every configured rule of ``CLOSED_LOOP`` has stopped.
    """

    live: np.ndarray  # (B,) the trial runs the closed loop
    post: kalman.KalmanState  # Algorithm 1's post filter, filtered
    shares: np.ndarray  # (L,) the post covariance is the pre filter's
    g: np.ndarray  # (L,) Algorithm 1's CUSUM

    def take(self, keep: np.ndarray) -> "_ClosedLoop":
        """The loop of the batch's trials where ``keep`` is true."""
        return self._select(self.live[keep], keep[self.live])

    def retire(self, gone: np.ndarray) -> "_ClosedLoop":
        """The loop without the batch's trials where ``gone`` is true."""
        stay = ~gone[self.live]
        return self if stay.all() else self._select(self.live & ~gone, stay)

    def _select(self, live, stay) -> "_ClosedLoop":
        # the mask ``live`` and, at every other field, the live trials
        # where ``stay`` is true
        return _ClosedLoop(live, *(_take(getattr(self, f.name), stay) for f in fields(self)[1:]))

    def spread(self, block: np.ndarray) -> np.ndarray:
        """An (L, T) block of the live trials as the batch's (B, T), NaN at
        the retired trials, so that a stray reader of them shows."""
        if self.live.all():
            return block
        full = np.full((len(self.live), block.shape[1]), np.nan)
        full[self.live] = block
        return full

    def run(
        self, ctx: RunContext, steps: "list[kalman.GainStep]", Y: np.ndarray, pre: np.ndarray,
        clean: np.ndarray, beta_pre: Optional[np.ndarray], post_x: Optional[np.ndarray],
    ) -> "tuple[np.ndarray, np.ndarray]":
        """The block's steps of the closed loop, on the live trials' rows of
        its inputs: the (L, T, K, lam) measurements Y, the pre filter's
        (L, T, N) filtered states, the GLLR's (L, T) clean term and the
        (L, T) GLLR of the pre track (None for a block that no live trial
        starts on it), T = len(steps), the block's schedule entries.
        Returns the (L, T) g and GLLR; the post filter, its flags and g
        carry on. ``post_x``, when given, is the (B, T, N) block of the pre
        filter's states, which receives the post filter's filtered states
        (steps are logged only when every trial is live).

        Each step is one ``detector.algorithm1_step`` (post filter, GLLR
        and one CUSUM step per trial, on g as a list of floats), but where
        every live trial is at g = 0: the loop then jumps to the next step
        at which some trial's pre-track GLLR is positive, or to the block's
        end. The steps in between are idle: ``algorithm1_step`` would score
        none of them (every GLLR of at most zero, NaN included) and every
        CUSUM step would clamp to zero and re-sync, so the GLLR is the pre
        track's, g the CUSUM stepped on it (``detector.cusum_step``, once
        per trial and step), and the post filter the pre filter's estimate
        after the last of them, with shares-pre set."""
        model, T = ctx.model, len(steps)
        G, beta = np.empty((len(Y), T)), np.empty((len(Y), T))
        # the steps at which some trial has a positive pre-track GLLR
        busy = None if beta_pre is None else (beta_pre > 0.0).any(axis=0)
        g, s = self.g.tolist(), 0
        while g and s < T:
            if busy is not None and not any(g):
                idle = s + int(np.argmax(np.append(busy[s:], True)))
                if idle > s:
                    betas = beta[:, s:idle] = beta_pre[:, s:idle]
                    G[:, s:idle] = [
                        [detector.cusum_step(0.0, b)[0] for b in row] for row in betas.tolist()
                    ]
                    self.post = kalman.KalmanState(pre[:, idle - 1], steps[idle - 1].P_upd)
                    self.shares = np.ones(len(G), dtype=bool)
                    g, s = G[:, idle - 1].tolist(), idle
                    continue
            step = detector.algorithm1_step(
                self.post, self.shares, g, model, ctx.det_cfg, Y[:, s], steps[s], pre[:, s],
                clean[:, s], None if beta_pre is None else beta_pre[:, s],
            )
            self.post, self.shares, g = step.post, step.shares, step.g
            G[:, s] = g
            beta[:, s] = step.beta
            if post_x is not None:
                post_x[:, s] = step.post.x
            s += 1
        self.g = np.array(g, dtype=float)
        return G, beta


@dataclass
class _Batch:
    """What each trial of a batch carries from one block to the next: its
    place in the run, seed, measurement hash and random streams;
    Algorithm 1's closed loop (``_ClosedLoop``); the stops, the re-sync
    count and tau_hat at alg1's stop; and the states the next block starts
    from, the true and pre-filter states, tau_hat, the Pearson windows and
    the nonparametric CUSUM. No field has a step axis: a block's arrays
    are made and returned by ``next_block``.

    Each trial derives four child streams from its seed, in their documented
    order: simulation, attack realization, attack application (jamming
    noise) and the chi-squared window's initial draws. The first three are
    one ``np.random.Generator`` per trial, in the lists ``sim``, ``atk`` and
    ``jam``; each block kernel leaves them where the block's draws end, so
    each step receives the values that drawing in the documented order
    at that step would give. The windows are drawn at spawn time, L
    chi-squared draws per trial, and held as one batch.

    Every field is per trial, a list, an array on a leading trial axis or
    an object with its own ``take`` (the windows and the nonparametric
    CUSUM are None when their detector is not configured), so ``take``
    filters them all alike.
    """

    index: list
    seeds: list
    hashers: list
    sim: list
    atk: list
    jam: list
    loop: _ClosedLoop
    stops: np.ndarray  # (B, R) first crossing of each path detector, in ``thresholds`` order
    syncs: np.ndarray  # (B,) re-syncs counted so far (see ``TrialResult.syncs``)
    tau_at_alg1: np.ndarray  # (B,) tau_hat at alg1's stop
    x: np.ndarray  # (B, N) the true states
    x_pre: np.ndarray  # (B, N) the pre filter's filtered states
    tau_hat: np.ndarray  # (B,) the last step g was zero (1 before any)
    window: Optional[Chi2State] = None  # the Pearson windows
    np_S: Optional[np.ndarray] = None  # (B,) the nonparametric CUSUM

    @classmethod
    def spawn(cls, ctx: RunContext, seeds: Sequence) -> "_Batch":
        model = ctx.model
        sim_ss, atk_ss, jam_ss, chi2_ss = zip(*(np.random.SeedSequence(s).spawn(4) for s in seeds))
        window = None
        if ctx.chi2 is not None:
            dof = model.K * model.lam
            samples = [np.random.default_rng(ss).chisquare(dof, ctx.chi2.L) for ss in chi2_ss]
            window = Chi2State.from_samples(ctx.chi2, samples)
        B = len(seeds)
        start = np.tile(ctx.x0, (B, 1))
        return cls(
            index=list(range(B)),
            seeds=list(seeds),
            hashers=[hashlib.sha256() for _ in seeds],
            sim=[np.random.default_rng(ss) for ss in sim_ss],
            atk=[np.random.default_rng(ss) for ss in atk_ss],
            jam=[np.random.default_rng(ss) for ss in jam_ss],
            loop=_ClosedLoop(
                live=np.ones(B, dtype=bool),
                post=kalman.initial_state(start, ctx.p0),
                shares=np.ones(B, dtype=bool),
                g=np.zeros(B),
            ),
            stops=np.full((B, len(ctx.thresholds)), INF),
            syncs=np.zeros(B, dtype=np.int64),
            tau_at_alg1=np.ones(B, dtype=np.int64),
            x=start,
            x_pre=start,
            tau_hat=np.ones(B, dtype=np.int64),
            window=window,
            np_S=None if ctx.np_q is None else np.zeros(B),
        )

    def next_block(
        self, ctx: RunContext, t: int, pre_steps: "list[kalman.GainStep]", log_steps: bool
    ) -> "tuple[np.ndarray, np.ndarray, TrialPaths]":
        """The steps t .. t + T - 1 of every trial, T = len(pre_steps), the
        block's pre-filter schedule entries; returns the block's (B, T, N)
        true states, (B, T, K, lam) measurements and (B, T) statistics, a
        ``TrialPaths`` whose ``tau_hat`` is left for the caller.

        Simulate and attack the block, one call of each kernel for the
        whole block, then run the pre filter and every statistic that reads
        only it over the block, one call each (the nonparametric CUSUM one
        per step, in its per-step order, into one step-major (T, B) block):
        the statistics of the open-loop detectors, chi2, np_cusum,
        euclidean and cosine, and the pre filter's MSE when steps are
        logged. The chi-squared sample takes its meter means from the pre
        filter's meter sums, and the block's one whitening factor when
        every entry is the settled step (``_block_white``). Then the closed
        loop's inputs, on its live trials alone: their rows of the
        measurements and pre-filter states (one take of each, none when
        every trial is live), the GLLR's clean term, and the GLLR of the
        pre track unless no live trial starts the block on it, that is,
        has a carried g of zero. The pre track's costs are built from the
        pre filter's innovations and meter sums, at most
        ``SCORE_TRIAL_STEPS`` trial-steps at a time, each chunk's before
        the residuals against the filtered states (the clean term's) take
        over its rows of the innovations' buffer. Last, the closed loop
        runs the block (``_ClosedLoop.run``), and, when steps are logged,
        the post filter's MSE is taken once for the block (an idle step's
        filtered state is the pre filter's, and each row is reduced over
        its own N entries, as one step alone would reduce it)."""
        model, attack, loop = ctx.model, ctx.cfg.attack, self.loop
        sim_model = ctx.sim_model_post if attacks.is_faulted(attack, t) else model
        T = len(pre_steps)
        X, Y = simulate_step(sim_model, self.x, self.sim, T)
        real = realize_attack(attack, t, T, self.atk, model.K)
        Y = apply_attack(model, Y, real, self.jam)
        block = TrialPaths()

        pre, R, D = kalman.pre_filter(model, self.x_pre, Y, pre_steps)
        self.x, self.x_pre = X[:, -1].copy(), pre[:, -1].copy()
        r_flat = R.reshape(*R.shape[:2], -1)
        if ctx.np_q is not None or ctx.euclid_d is not None:
            dist = np.sqrt(vecdot(r_flat, r_flat))  # the 2-norm, as np.linalg.norm
            block.euclid = dist if ctx.euclid_d is not None else None
        if ctx.np_q is not None:  # step-major: each step writes one row
            S, np_S = self.np_S, np.empty(dist.shape[::-1])
            for row, column in zip(np_S, dist.T):
                S = robust.np_cusum_step(S, column, ctx.mu0, ctx.np_clamp, out=row)
            self.np_S, block.np_S = S.copy(), np_S.T
        if ctx.chi2 is not None:
            white = _block_white(pre_steps)
            block.c = robust.chi2_sample_from_innovation(R, white, model.sigma_w2, sums=D)
            self.window, block.chi = robust.pearson_step(self.window, block.c)
        if ctx.cosine_d is not None:
            y_flat = Y.reshape(*Y.shape[:2], -1)
            block.cosine = robust.cosine_similarity(y_flat, y_flat - r_flat)
        if log_steps:
            block.mse0 = np.mean((pre - X) ** 2, axis=-1)

        on_track = (loop.g == 0.0).any()
        rows = detector.mask_rows(loop.live)
        Y_live, pre_live = Y[rows], pre[rows]
        L = len(pre_live)
        clean = np.empty((L, T))
        # Algorithm 1's GLLR for a post filter that holds the pre estimate:
        # its residuals are the pre filter's innovations
        beta_pre = np.empty((L, T)) if on_track else None
        n = max(1, SCORE_TRIAL_STEPS // L) if on_track else T
        for s in range(0, T, n):
            span = slice(s, s + n)
            if on_track:
                costs = detector.pre_track_costs(model, ctx.det_cfg, R[rows, span], D[rows, span])
            # the residuals against the filtered states, in the innovations'
            # buffer once the costs have read it
            r_pre = kalman.residuals(model, Y_live[:, span], pre_live[:, span], out=R[:L, span])
            clean[:, span] = detector.clean_term(r_pre, model)
            if on_track:
                beta_pre[:, span] = detector.gllr(clean[:, span], costs)

        # the post filter's filtered states, when logged; an idle step's is
        # the pre filter's
        post_x = pre.copy() if log_steps else None
        g, beta = loop.run(ctx, pre_steps, Y_live, pre_live, clean, beta_pre, post_x)
        block.g, block.beta = loop.spread(g), loop.spread(beta)
        if log_steps:
            block.mse1 = np.mean((post_x - X) ** 2, axis=-1)
        return X, Y, block

    def take(self, keep: np.ndarray) -> "_Batch":
        """The trials where the boolean mask ``keep`` is true."""
        return _Batch(**{f.name: _take(getattr(self, f.name), keep) for f in fields(self)})

    def result(
        self, ctx: RunContext, j: int, steps_run: int, tau_hat: Optional[int],
        paths: Optional[TrialPaths],
    ) -> TrialResult:
        """Trial j's result after ``steps_run`` steps, with its rows of the
        run's ``paths`` when they are recorded."""
        stops = {name: int(s) if s < INF else INF for name, s in zip(ctx.thresholds, self.stops[j])}
        stops["alg2"] = _alg2_stop(stops)
        own_paths = None
        if paths is not None:
            row = self.index[j]
            own_paths = TrialPaths(
                **{name: None if path is None else path[row] for name, path in vars(paths).items()}
            )
        return TrialResult(
            seed=self.seeds[j],
            stops={name: stops[name] for name in ctx.enabled},
            tau_hat=tau_hat,
            steps_run=steps_run,
            meas_hash=self.hashers[j].hexdigest(),
            paths=own_paths,
            syncs=int(self.syncs[j]),
        )


def _block_white(steps: "list[kalman.GainStep]") -> np.ndarray:
    """The whitening factors of a block's schedule entries, for the
    chi-squared sample: the entry's own (K, K) when every entry is the same
    (the settled step), else stacked as (T, K, K). Each keeps its Fortran
    layout, as the BLAS kernel of its products and so their bits depend on
    it."""
    if all(step is steps[0] for step in steps):
        return steps[0].white
    return np.stack([step.white.T for step in steps]).swapaxes(-1, -2)


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
    ``_Batch``), whatever the batch it runs in, so a single trial is
    ``run_trial(ctx, [seed])[0]``.

    The engine runs blocks of at most BLOCK_STEPS steps. ``_Batch.next_block``
    makes each block: its measurements, everything that reads only them,
    one call each for the batch, and the closed loop's steps
    (``_ClosedLoop.run``) on the trials still live in it. Here only the
    block's epilogue runs, on the block's (B, T) statistics: tau_hat (the
    last step g was zero), the first crossing in the block of every
    stopping rule, the re-syncs (``TrialResult.syncs``), each trial's
    measurement hash (SHA-256 does not depend on how its input is cut) and
    the recorded paths. The block's arrays are then dropped, so that two
    blocks of them never coexist.

    Unless paths are recorded (full paths or step logging), the epilogue
    also retires a trial from the closed loop once every configured rule of
    ``CLOSED_LOOP`` (alg1, and Shewhart when configured) has stopped, from
    the next block on; and a trial leaves the batch at the end of the block
    that holds its latest stop, with that stop as its steps_run. It runs
    the open-loop half (and, until it retires, the closed loop) to the
    block's end all the same; the steps after its stop are dropped from its
    hash, re-syncs and tau_hat. A diverging state raises FloatingPointError
    when its block is simulated, retired or not, up to BLOCK_STEPS - 1
    steps past the steps the engine reports. A non-finite hypothesis cost
    raises it when the block is scored for the pre track or when the
    closed loop scores it, which may likewise be past the trial's last
    stop; once the trial has retired neither scores it, so a non-finite
    cost after retirement is no longer raised.
    """
    cfg = ctx.cfg
    horizon = cfg.run.horizon
    if log_steps is None:
        log_steps = cfg.run.log_steps
    want_paths = log_steps or full_paths

    B = len(seeds)
    if B == 0:
        return []
    batch = _Batch.spawn(ctx, seeds)
    results: "list[Optional[TrialResult]]" = [None] * B
    paths = _new_paths(B, horizon, log_steps) if want_paths else None
    if horizon < 1:
        return [batch.result(ctx, j, 0, None, paths) for j in range(B)]
    # one rule per path detector, in ``thresholds`` order: alg1 is row 0
    rules = [(PATH_FIELD[name], PATH_DIRECTION[name], thr) for name, thr in ctx.thresholds.items()]
    closing = [r for r, name in enumerate(ctx.thresholds) if name in CLOSED_LOOP]
    pre_steps = iter(ctx.schedule)
    t = 1
    while True:
        length = attacks.block_steps(cfg.attack, t, min(BLOCK_STEPS, horizon + 1 - t))
        X, Y, block = batch.next_block(ctx, t, list(islice(pre_steps, length)), log_steps)
        end = t + length - 1
        ts = np.arange(t, end + 1)
        synced = block.g == 0.0
        block.tau_hat = np.maximum.accumulate(np.where(synced, ts, batch.tau_hat[:, None]), axis=1)
        batch.tau_hat = block.tau_hat[:, -1].copy()
        for r, (field, direction, thr) in enumerate(rules):
            hits = crossed(getattr(block, field), thr, direction)
            first = hits.any(axis=1) & (batch.stops[:, r] == INF)
            batch.stops[first, r] = t + hits[first].argmax(axis=1)
        alg1 = np.flatnonzero((t <= batch.stops[:, 0]) & (batch.stops[:, 0] <= end))
        batch.tau_at_alg1[alg1] = block.tau_hat[alg1, batch.stops[alg1, 0].astype(np.int64) - t]

        # each trial runs to its latest stop, or to the horizon with paths;
        # n holds the steps of this block it keeps. Its re-syncs count to
        # its closed-loop rules' latest stop, after which it may retire.
        leave = np.where(want_paths, horizon, np.minimum(batch.stops.max(axis=1), horizon))
        n = (np.minimum(leave, end) - t + 1).astype(np.int64)
        closed = batch.stops[:, closing].max(axis=1)
        batch.syncs += (synced & (ts <= np.minimum(leave, closed)[:, None])).sum(axis=1)
        for j, hasher in enumerate(batch.hashers):
            hasher.update(Y[j, : n[j]])
        if paths is not None:
            for name, path in vars(paths).items():
                if getattr(block, name) is not None:
                    path[:, t - 1 : end] = getattr(block, name)
        done = leave <= end
        for j in np.flatnonzero(done):
            last = int(n[j]) - 1
            tau = batch.tau_at_alg1[j] if batch.stops[j, 0] < INF else block.tau_hat[j, last]
            results[batch.index[j]] = batch.result(ctx, j, t + last, int(tau), paths)
        if done.all():
            return results
        del X, Y, block  # before the next block is made
        if not want_paths:
            batch.loop = batch.loop.retire(closed <= end)
        if done.any():
            batch = batch.take(~done)
        t = end + 1


def no_attack_context(ctx: RunContext) -> RunContext:
    """Same experiment with the attack disabled."""
    cfg = replace(ctx.cfg, attack=AttackSpec(tau=INF, kind="none"))
    return replace(ctx, cfg=cfg, sim_model_post=ctx.model)


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


def _stop_array(stop_times: Sequence[float]) -> np.ndarray:
    T = np.array(list(stop_times), dtype=float)
    if T.size == 0:
        raise ValueError("no trials")
    return T


def estimate_delay(stop_times: Sequence[float], tau: float) -> DelaySummary:
    """Mean detection delay (T - tau)+ over attacked trials at a fixed onset.

    Stops before tau count as false alarms, runs that never stop as misses;
    both are excluded from the mean and reported.
    """
    T = _stop_array(stop_times)
    missed = T == INF
    false_alarm = T < tau
    delays = T[~(missed | false_alarm)] - tau
    mean, half = _mean_ci(delays) if delays.size else (math.nan, math.nan)
    return DelaySummary(
        mean=mean,
        ci_half=half,
        n_detected=delays.size,
        n_false_alarm=int(false_alarm.sum()),
        n_missed=int(missed.sum()),
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
    T = _stop_array(stop_times)
    hits = int(((tau <= T) & (T < tau + eta)).sum())
    return 1.0 - hits / T.size


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
    if not results:
        raise ValueError("no trials")
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
    if not results or any(r.paths is None or r.paths.mse0 is None for r in results):
        raise ValueError("per-step logging was not enabled")
    m0 = [r.paths.mse0 for r in results]
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
    cfg: ExperimentConfig,
    h_list: Sequence[float],
    which: str = "alg1",
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
    if which == "alg2" and cfg.shewhart_phi is None and cfg.chi2 is None:
        raise ConfigError("bad value for '--detector': 'alg2' (needs [shewhart] or [chi2])")
    ctx = prepare(cfg)
    tau, eta, horizon = cfg.run.tau, cfg.run.eta, cfg.run.horizon

    attacked = run_trials(ctx, full_paths=True)
    clean = run_trials(
        no_attack_context(ctx),
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

    points = []
    for j, h in enumerate(grid):
        fap = estimate_false_alarm_period(list(fap_stops[:, j]), horizon)
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
