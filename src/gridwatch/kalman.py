"""Dual Kalman filter bank for the pre-attack and post-attack hypotheses.

The pre-attack filter assumes clean measurements; the post-attack filter
explains measurements with the current maximum-likelihood attack estimates:
its innovation is y - H x_pred - a_hat and its innovation covariance is
inflated by the estimated per-meter jamming variances. Whenever the
detection statistic is clamped to zero the post filter is re-synchronized
to the pre filter and the change-point estimate moves to the current time.

Both updates work in meter-mean form. H = M kron 1_lam and the lam noise
samples of a meter are i.i.d., so the meter means ybar_k are a sufficient
statistic: with the K x K innovation covariance

    Sbar = M P M^T + diag((sigma_w2 + sigma_hat_k) / lam)

the gain is G = P M^T Sbar^{-1} (N x K) and x_upd = x_pred + G (ybar - M x_pred
- a_hat). The covariance update uses the Joseph form
(I - G M) P (I - G M)^T + G diag(noise / lam) G^T: the textbook shortcut
P - G M P loses positive semidefiniteness in finite precision at the 1e-4
variance scales this model runs at, and the form needs no P^{-1}.

The pre filter's covariance, gain and whitening factor of Sbar (the
inverse of its Cholesky factor, also used by the chi-squared statistic) do
not depend on the data, so a ``PreSchedule`` computes them once per run
and every trial replays them. The recursion is frozen at the first step
whose P_upd moves by at most ``SETTLE_RTOL`` times its trace; until then
every step has its own entry. The post filter reuses step t's pre entry
(gain and covariance) while sigma_hat has been zero at every step since
the last sync or the start, because its covariance then equals the pre
filter's; otherwise it runs the same meter-mean update on its own
covariance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .grid_model import GridModel, MeasurementBatch

# The pre-filter recursion is frozen once max|P_upd(t) - P_upd(t-1)| is at
# most this times trace(P_upd(t)): about a hundred times the last-bit jitter
# of the settled recursion (at most 1.3e-16 of the trace on ieee14). The
# frozen P_pred then sits within about 1e-10 (relative) of the Riccati fixed
# point for noise ratios from 1e-4 to 1e4.
SETTLE_RTOL = 1e-14

# A schedule stores at most this many bytes of steps; a recursion that has
# not settled by then is continued by each iterator on its own.
SCHEDULE_MAX_BYTES = 2 << 20


class InnovationSolveError(RuntimeError):
    """Innovation covariance factorization failed (ill-conditioned model)."""


@dataclass
class KalmanState:
    x_pred: np.ndarray
    P_pred: np.ndarray
    x_upd: np.ndarray
    P_upd: np.ndarray

    def copy(self) -> "KalmanState":
        return KalmanState(
            self.x_pred.copy(), self.P_pred.copy(), self.x_upd.copy(), self.P_upd.copy()
        )


@dataclass
class DualFilterBank:
    pre: KalmanState
    post: KalmanState
    tau_hat: int = 1
    # True while the post covariance is the pre filter's: from the start or
    # the last sync until sigma_hat is first nonzero.
    post_shares_pre: bool = False


@dataclass(frozen=True)
class GainStep:
    """Data-independent part of one meter-mean measurement update."""

    P_pred: np.ndarray  # N x N
    P_upd: np.ndarray  # N x N
    gain: np.ndarray  # N x K, applied to meter-mean innovations
    white: np.ndarray  # K x K inverse of Sbar's lower Cholesky factor


def initial_state(x0: np.ndarray, p0: "float | np.ndarray") -> KalmanState:
    """Filters start converged at the configured state with P = p0 * I."""
    x0 = np.asarray(x0, dtype=float)
    P = np.asarray(p0, dtype=float)
    if P.ndim == 0:
        P = float(P) * np.eye(x0.size)
    return KalmanState(x_pred=x0.copy(), P_pred=P.copy(), x_upd=x0.copy(), P_upd=P.copy())


def initial_bank(x0: np.ndarray, p0: "float | np.ndarray") -> DualFilterBank:
    return DualFilterBank(
        pre=initial_state(x0, p0), post=initial_state(x0, p0), tau_hat=1, post_shares_pre=True
    )


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.T)


def kf_predict(model: GridModel, ks: KalmanState, step: Optional[GainStep] = None) -> KalmanState:
    """x_pred = A x_upd, P_pred = A P_upd A^T + sigma_v2 I.

    With ``step``, the filter's covariance is the pre-filter schedule's and
    P_pred is taken from the step instead of recomputed.
    """
    P_pred = step.P_pred if step is not None else _predict_cov(model, ks.P_upd)
    return KalmanState(x_pred=model.A @ ks.x_upd, P_pred=P_pred, x_upd=ks.x_upd, P_upd=ks.P_upd)


def _predict_cov(model: GridModel, P_upd: np.ndarray) -> np.ndarray:
    P_pred = model.A @ P_upd @ model.A.T
    P_pred.flat[:: model.N + 1] += model.sigma_v2
    return _symmetrize(P_pred)


def gain_step(model: GridModel, P_pred: np.ndarray, noise: np.ndarray) -> GainStep:
    """Meter-mean gain and Joseph-form covariance update for per-meter
    measurement noise variances ``noise`` (length K).

    Sbar is applied through the inverse W of its lower Cholesky factor
    (Sbar^{-1} = W^T W), never through an inverse of Sbar itself.
    """
    M = model.meter_rows
    noise_mean = noise / model.lam  # variance of a meter-mean noise sample
    PMt = P_pred @ M.T
    S = M @ PMt
    S.flat[:: model.K + 1] += noise_mean
    chol, info = dpotrf(S, lower=1, clean=1)
    if info == 0:
        white, info = dtrtri(chol, lower=1)
    if info != 0:
        raise InnovationSolveError(
            f"innovation covariance factorization failed (LAPACK info {info}; diag "
            f"min={S.diagonal().min():.3e} max={S.diagonal().max():.3e})"
        )
    G = (PMt @ white.T) @ white
    IGM = -(G @ M)
    IGM.flat[:: model.N + 1] += 1.0
    P_upd = _symmetrize(IGM @ P_pred @ IGM.T + (G * noise_mean) @ G.T)
    return GainStep(P_pred=P_pred, P_upd=P_upd, gain=G, white=white)


def pre_gain_step(model: GridModel, P_pred: np.ndarray) -> GainStep:
    """The pre filter's step: clean measurement noise on every meter."""
    return gain_step(model, P_pred, np.full(model.K, model.sigma_w2))


def _settled(prev: GainStep, step: GainStep) -> bool:
    moved = np.max(np.abs(step.P_upd - prev.P_upd))
    return bool(moved <= SETTLE_RTOL * max(1e-30, float(np.trace(step.P_upd))))


def _next_pre_step(model: GridModel, step: GainStep) -> GainStep:
    return pre_gain_step(model, _predict_cov(model, step.P_upd))


class PreSchedule:
    """The pre filter's steps for t = 1, 2, ..., shared by every trial of a run.

    Iterating yields step t's ``GainStep`` at iteration t: the stored steps
    first, then the settled step forever, or, when the recursion had not
    settled within ``SCHEDULE_MAX_BYTES``, the continued recursion (frozen
    once it settles). Iterators share no state, so trials on worker threads
    may each hold one.
    """

    def __init__(self, model: GridModel, p0: "float | np.ndarray"):
        self.model = model
        P0 = initial_state(np.zeros(model.N), p0).P_upd
        first = pre_gain_step(model, _predict_cov(model, P0))
        entry_bytes = sum(a.nbytes for a in (first.P_pred, first.P_upd, first.gain, first.white))
        self.steps = [first]
        self.settled = False
        while not self.settled and (len(self.steps) + 1) * entry_bytes <= SCHEDULE_MAX_BYTES:
            step = _next_pre_step(model, self.steps[-1])
            self.settled = _settled(self.steps[-1], step)
            self.steps.append(step)

    def __iter__(self) -> Iterator[GainStep]:
        yield from self.steps
        step, settled = self.steps[-1], self.settled
        while True:
            if not settled:
                nxt = _next_pre_step(self.model, step)
                settled = _settled(step, nxt)
                step = nxt
            yield step


def kf_update_pre(model: GridModel, ks: KalmanState, y: MeasurementBatch) -> KalmanState:
    return kf_update_pre_full(model, ks, y)[0]


def kf_update_pre_full(
    model: GridModel, ks: KalmanState, y: MeasurementBatch, step: Optional[GainStep] = None
):
    """Pre-attack update returning (state, innovation y - H x_pred as (K, lam)).

    ``step`` is the schedule entry for this step (computed from ks.P_pred
    when absent).
    """
    if step is None:
        step = pre_gain_step(model, ks.P_pred)
    innovation = y.values - (model.meter_rows @ ks.x_pred)[:, None]
    x_upd = ks.x_pred + step.gain @ (innovation.sum(axis=1) / model.lam)
    state = KalmanState(x_pred=ks.x_pred, P_pred=ks.P_pred, x_upd=x_upd, P_upd=step.P_upd)
    return state, innovation


def kf_update_post(
    model: GridModel,
    ks: KalmanState,
    y: MeasurementBatch,
    a_hat: np.ndarray,
    sigma_hat: np.ndarray,
    pre_step: Optional[GainStep] = None,
) -> KalmanState:
    """Measurement update against the estimated attack.

    a_hat and sigma_hat are per-meter (length K). ``pre_step`` is the pre
    filter's step, passed while the post covariance equals the pre
    covariance; with sigma_hat all zero its gain and covariance are reused.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if np.any(sigma_hat < 0):
        raise ValueError("sigma_hat must be >= 0")
    step = pre_step
    if step is None or sigma_hat.any():
        step = gain_step(model, ks.P_pred, model.sigma_w2 + sigma_hat)
    innovation = y.values - (model.meter_rows @ ks.x_pred)[:, None]
    x_upd = ks.x_pred + step.gain @ (innovation.sum(axis=1) / model.lam - a_hat)
    return KalmanState(x_pred=ks.x_pred, P_pred=ks.P_pred, x_upd=x_upd, P_upd=step.P_upd)


def sync_post_to_pre(bank: DualFilterBank, t: int) -> DualFilterBank:
    """Reset coupling: post := pre and the change-point estimate moves to t."""
    return DualFilterBank(pre=bank.pre, post=bank.pre.copy(), tau_hat=t, post_shares_pre=True)


def min_eigenvalue_ratio(P: np.ndarray) -> float:
    """Smallest eigenvalue over trace; PSD health check for tests."""
    eig = np.linalg.eigvalsh(_symmetrize(P))
    tr = np.trace(P)
    return float(eig[0] / tr) if tr > 0 else float(eig[0])
