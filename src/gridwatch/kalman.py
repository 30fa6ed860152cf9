"""Dual Kalman filter bank for the pre-attack and post-attack hypotheses.

The pre-attack filter assumes clean measurements; the post-attack filter
explains measurements with the current maximum-likelihood attack estimates:
its innovation is y - H x_pred - a_hat and its innovation covariance is
inflated by the estimated per-meter jamming variances. Whenever the
detection statistic is clamped to zero the post filter is re-synchronized
to the pre filter (the change-point estimate that moves with it lives in
``detector.CusumState``).

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

Every function takes a leading trial axis: the harness advances B trials in
lock-step, so states hold x as (B, N) and covariances as (B, N, N), or as
one (N, N) array that all trials share. All trials sit at the same step, so
the pre filter's covariance is always the schedule's shared entry and its
update is one stacked matrix-vector product. The post filter carries a
per-trial "shares pre" mask (``DualFilterBank.post_shares_pre``): trials
with the flag set take the pre entry's covariance and gain, and only the
others run the K x K update, on their stacked covariances. A single trial
is a batch of one. Products go through
``grid_model.matvec``, so each trial's numbers have the bits of an
unbatched run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .grid_model import GridModel, matvec

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
    """x arrays are (..., N); P arrays (..., N, N), or (N, N) when shared by
    every trial of a batch."""

    x_pred: np.ndarray
    P_pred: np.ndarray
    x_upd: np.ndarray
    P_upd: np.ndarray

    def take(self, keep) -> "KalmanState":
        """The trials selected by ``keep`` (an index or mask on the trial axis)."""
        return KalmanState(
            self.x_pred[keep],
            _take_cov(self.P_pred, keep),
            self.x_upd[keep],
            _take_cov(self.P_upd, keep),
        )


def _take_cov(P: np.ndarray, keep) -> np.ndarray:
    return P[keep] if P.ndim > 2 else P


@dataclass
class DualFilterBank:
    pre: KalmanState
    post: KalmanState
    # True while the post covariance is the pre filter's: from the start or
    # the last sync until sigma_hat is first nonzero. One flag per trial.
    post_shares_pre: np.ndarray

    def take(self, keep) -> "DualFilterBank":
        return DualFilterBank(
            self.pre.take(keep),
            self.post.take(keep),
            self.post_shares_pre[keep],
        )


@dataclass(frozen=True)
class GainStep:
    """Data-independent part of one meter-mean measurement update."""

    P_pred: np.ndarray  # N x N
    P_upd: np.ndarray  # N x N
    gain: np.ndarray  # N x K, applied to meter-mean innovations
    white: np.ndarray  # K x K inverse of Sbar's lower Cholesky factor


def initial_state(x0: np.ndarray, p0: "float | np.ndarray") -> KalmanState:
    """Filters start converged at the configured state with P = p0 * I.

    x0 may carry a trial axis; a scalar p0 gives one shared covariance.
    """
    x0 = np.asarray(x0, dtype=float)
    P = np.asarray(p0, dtype=float)
    if P.ndim == 0:
        P = float(P) * np.eye(x0.shape[-1])
    return KalmanState(x_pred=x0.copy(), P_pred=P.copy(), x_upd=x0.copy(), P_upd=P.copy())


def initial_bank(x0: np.ndarray, p0: "float | np.ndarray") -> DualFilterBank:
    batch = np.shape(x0)[:-1]
    return DualFilterBank(
        pre=initial_state(x0, p0),
        post=initial_state(x0, p0),
        post_shares_pre=np.ones(batch, dtype=bool),
    )


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + np.swapaxes(P, -1, -2))


def _add_diagonal(S: np.ndarray, d) -> None:
    """S[..., i, i] += d[..., i] in place."""
    diagonal = np.einsum("...ii->...i", S)  # a writeable view whatever the layout of S
    diagonal += d


def _per_trial(P: np.ndarray, batch: tuple) -> np.ndarray:
    """P with the trial axes ``batch``, broadcasting a shared covariance
    (read-only) and returning a per-trial one as it is."""
    return P if P.shape[:-2] == batch else np.broadcast_to(P, batch + P.shape[-2:])


def kf_predict(
    model: GridModel, ks: KalmanState, step: Optional[GainStep] = None, shares=True
) -> KalmanState:
    """x_pred = A x_upd, P_pred = A P_upd A^T + sigma_v2 I.

    With ``step``, the trials flagged in ``shares`` (all by default) have the
    pre-filter schedule's covariance and take P_pred from the step instead
    of recomputing it; the others predict their own covariance.
    """
    x_pred = matvec(model.A, ks.x_upd)
    batch = x_pred.shape[:-1]
    own = ~np.asarray(shares, dtype=bool) if step is not None else np.True_
    if own.all():
        P_pred = _predict_cov(model, _per_trial(ks.P_upd, batch))
    elif own.any():
        P_pred = _per_trial(step.P_pred, batch).copy()
        P_pred[own] = _predict_cov(model, _per_trial(ks.P_upd, batch)[own])
    else:
        P_pred = step.P_pred
    return KalmanState(x_pred=x_pred, P_pred=P_pred, x_upd=ks.x_upd, P_upd=ks.P_upd)


def _predict_cov(model: GridModel, P_upd: np.ndarray) -> np.ndarray:
    P_pred = model.A @ P_upd @ model.A.T
    _add_diagonal(P_pred, model.sigma_v2)
    return _symmetrize(P_pred)


def gain_step(model: GridModel, P_pred: np.ndarray, noise: np.ndarray) -> GainStep:
    """Meter-mean gain and Joseph-form covariance update for per-meter
    measurement noise variances ``noise`` (length K).

    P_pred may be a stack (..., N, N) with noise (..., K); the step's arrays
    then carry the same leading axes. Sbar is applied through the inverse W
    of its lower Cholesky factor (Sbar^{-1} = W^T W), never through an
    inverse of Sbar itself.
    """
    M = model.meter_rows
    noise_mean = np.asarray(noise / model.lam)  # variance of a meter-mean noise sample
    PMt = P_pred @ M.T
    S = M @ PMt
    _add_diagonal(S, noise_mean)
    # Fortran order per matrix, as dtrtri returns it; the layout decides
    # which BLAS kernel later products use, and so their last bits.
    white = np.swapaxes(np.empty_like(S), -1, -2)
    for i in np.ndindex(S.shape[:-2]):  # LAPACK factors one matrix per call
        chol, info = dpotrf(S[i], lower=1, clean=1)
        if info == 0:
            white[i], info = dtrtri(chol, lower=1)
        if info != 0:
            raise InnovationSolveError(
                f"innovation covariance factorization failed (LAPACK info {info}; diag "
                f"min={S[i].diagonal().min():.3e} max={S[i].diagonal().max():.3e})"
            )
    G = (PMt @ np.swapaxes(white, -1, -2)) @ white
    IGM = -(G @ M)
    _add_diagonal(IGM, 1.0)
    P_upd = _symmetrize(
        IGM @ P_pred @ np.swapaxes(IGM, -1, -2)
        + (G * noise_mean[..., None, :]) @ np.swapaxes(G, -1, -2)
    )
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
    once it settles). Iterators share no state, so any number of callers
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


def kf_update_pre(model: GridModel, ks: KalmanState, y: np.ndarray) -> KalmanState:
    return kf_update_pre_full(model, ks, y)[0]


def kf_update_pre_full(
    model: GridModel, ks: KalmanState, y: np.ndarray, step: Optional[GainStep] = None
):
    """Pre-attack update on (..., K, lam) measurements ``y``, returning
    (state, innovation y - H x_pred as (..., K, lam)).

    ``step`` is the schedule entry for this step (computed from ks.P_pred
    when absent), shared by every trial.
    """
    if step is None:
        step = pre_gain_step(model, ks.P_pred)
    innovation = y - matvec(model.meter_rows, ks.x_pred)[..., None]
    x_upd = ks.x_pred + matvec(step.gain, innovation.sum(axis=-1) / model.lam)
    state = KalmanState(x_pred=ks.x_pred, P_pred=ks.P_pred, x_upd=x_upd, P_upd=step.P_upd)
    return state, innovation


def kf_update_post(
    model: GridModel,
    ks: KalmanState,
    residual_mean: np.ndarray,
    a_hat: np.ndarray,
    sigma_hat: np.ndarray,
    pre_step: Optional[GainStep] = None,
    shares=True,
) -> KalmanState:
    """Measurement update against the estimated attack.

    ``residual_mean`` holds the per-meter means of y - H x_pred against this
    filter's prediction (``ResidualBlock.mean``); a_hat and sigma_hat are
    per-meter (length K), all with the trial axes of ks. ``pre_step`` is the
    pre filter's step, and ``shares`` flags the trials whose post
    covariance equals the pre covariance (all by default): those with
    sigma_hat all zero reuse its gain and covariance, and only the rest run
    the K x K update, stacked.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if np.any(sigma_hat < 0):
        raise ValueError("sigma_hat must be >= 0")
    innovation = residual_mean - a_hat
    own = sigma_hat.any(axis=-1)
    if pre_step is not None:
        own = own | ~np.asarray(shares, dtype=bool)
        if not own.any():
            x_upd = ks.x_pred + matvec(pre_step.gain, innovation)
            return KalmanState(x_pred=ks.x_pred, P_pred=ks.P_pred, x_upd=x_upd, P_upd=pre_step.P_upd)
    batch = ks.x_pred.shape[:-1]
    P_pred = _per_trial(ks.P_pred, batch)
    noise = model.sigma_w2 + sigma_hat
    if pre_step is None or own.all():
        step = gain_step(model, P_pred, noise)
        x_upd = ks.x_pred + matvec(step.gain, innovation)
        return KalmanState(x_pred=ks.x_pred, P_pred=ks.P_pred, x_upd=x_upd, P_upd=step.P_upd)
    step = gain_step(model, P_pred[own], noise[own])
    x_upd = ks.x_pred + matvec(pre_step.gain, innovation)
    x_upd[own] = ks.x_pred[own] + matvec(step.gain, innovation[own])
    P_upd = _per_trial(pre_step.P_upd, batch).copy()
    P_upd[own] = step.P_upd
    return KalmanState(x_pred=ks.x_pred, P_pred=ks.P_pred, x_upd=x_upd, P_upd=P_upd)


def sync_post_to_pre(bank: DualFilterBank, sync=True) -> DualFilterBank:
    """Reset coupling for the trials flagged in ``sync`` (all by default):
    post := pre (a copy)."""
    sync = np.asarray(sync, dtype=bool)
    if not sync.any():
        return bank
    vec, mat = sync[..., None], sync[..., None, None]
    pre, post = bank.pre, bank.post
    return DualFilterBank(
        pre=pre,
        post=KalmanState(
            np.where(vec, pre.x_pred, post.x_pred),
            np.where(mat, pre.P_pred, post.P_pred),
            np.where(vec, pre.x_upd, post.x_upd),
            np.where(mat, pre.P_upd, post.P_upd),
        ),
        post_shares_pre=sync | bank.post_shares_pre,
    )
