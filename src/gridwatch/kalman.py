"""The Kalman filters of the pre-attack and post-attack hypotheses.

The pre-attack filter assumes clean measurements; the post-attack filter
explains measurements with the current maximum-likelihood attack estimates:
its innovation is y - H x_pred - a_hat and its innovation covariance is
inflated by the estimated per-meter jamming variances. Whenever the
detection statistic is clamped to zero the post filter is re-synchronized
to the pre filter (``resync``, which ``detector.algorithm1_step`` calls;
the change-point estimate that moves with it is settled by the harness
once per block).

Each filter carries one Gaussian estimate, ``KalmanState(x, P, shares)``:
between steps it holds its filtered estimate, ``kf_predict`` maps that to
the prediction, and the updates map the prediction back to a filtered
estimate. A sync gives the post filter a copy of the pre filter's
filtered estimate in place of its own update.

Both updates work in meter-mean form. H = M kron 1_lam and the lam noise
samples of a meter are i.i.d., so the meter means ybar_k are a sufficient
statistic: with the K x K innovation covariance

    Sbar = M P M^T + diag((sigma_w2 + sigma_hat_k) / lam)

with P the predicted covariance, the gain is G = P M^T Sbar^{-1} (N x K)
and x_upd = x_pred + G (ybar - M x_pred - a_hat). The covariance update
uses the Joseph form (I - G M) P (I - G M)^T + G diag(noise / lam) G^T:
the textbook shortcut P - G M P loses positive semidefiniteness in finite
precision at the 1e-4 variance scales this model runs at, and the form
needs no P^{-1}.

The pre filter's covariance, gain and whitening factor of Sbar (the
inverse of its Cholesky factor, also used by the chi-squared statistic) do
not depend on the data, so a ``PreSchedule`` computes them once per run
and every trial replays them. The recursion is frozen at the first step
whose updated covariance moves by at most ``SETTLE_RTOL`` times its trace; until then
every step has its own entry. The post filter reuses step t's pre entry
(gain and covariance) while sigma_hat has been zero at every step since
the last sync or the start, because its covariance then equals the pre
filter's; otherwise it runs the same meter-mean update on its own
covariance.

Every function takes a leading trial axis: the harness advances B trials in
lock-step, so a state holds x as (B, N) and P as (B, N, N), or as one
(N, N) array that all trials share. All trials sit at the same step, so
the pre filter's covariance is always the schedule's shared entry and its
update is one stacked matrix-vector product. The pre filter never reads
the post filter or the detector, so ``pre_filter`` runs it over a whole
block of measurements ahead of them, with the bits of a step at a time:
per step, one ``kf_update_pre_full`` on that step's entry, of a prediction
A x that is used once and not kept. The call writes the step's
innovation y - H A x (``residuals``), its sums over the lam samples of
each meter and the filtered state straight into their rows of step-major
block buffers (numpy's ``out=``). The block's statistics that read the
innovation reuse them: Algorithm 1's score of the pre track, whose
residuals they are, and the chi-squared sample's meter means. With A the
identity, A x and A P A^T are x and P themselves (plus 0.0, as
``grid_model.transition`` explains) and take no BLAS call, and the
predicted covariance is not symmetrized either: every covariance the
filters hold is bit-symmetric, and 0.5 (P + P^T) would return it as it is
(``_predict_cov``). The post filter's state carries a per-trial "shares
pre" flag (``KalmanState.shares``), and this module alone sets and reads
it: ``initial_state`` and ``resync`` set it, ``kf_update_post`` clears it
where sigma_hat is nonzero, so it holds from the start or the last sync
until sigma_hat is first nonzero. Trials with the flag set take the pre
entry's covariance and gain, and only the others run the K x K update, on
their stacked covariances. A single trial is a batch of one. Products go
through ``grid_model.matvec`` (or its ``np.matmul`` on a column, kept as a
column), so each trial's numbers have the bits of an unbatched run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtri

from .grid_model import GridModel, matvec, transition

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
    """One Gaussian estimate: x is (..., N) and P (..., N, N), or (N, N)
    when shared by every trial of a batch. ``shares`` flags the trials
    whose covariance is the pre filter's schedule entry for their step (a
    mask on the trial axes, or one bool for all): ``kf_predict`` gives
    them the entry's predicted covariance in place of their own P."""

    x: np.ndarray
    P: np.ndarray
    shares: "np.ndarray | bool" = False

    def take(self, keep) -> "KalmanState":
        """The trials selected by ``keep`` (an index or mask on the trial
        axis), of a state whose flags are a mask."""
        P = self.P[keep] if self.P.ndim > 2 else self.P
        return KalmanState(self.x[keep], P, self.shares[keep])


@dataclass(frozen=True)
class GainStep:
    """Data-independent part of one meter-mean measurement update."""

    P_pred: np.ndarray  # N x N
    P_upd: np.ndarray  # N x N
    gain: np.ndarray  # N x K, applied to meter-mean innovations
    white: np.ndarray  # K x K inverse of Sbar's lower Cholesky factor


def initial_state(x0: np.ndarray, p0: float) -> KalmanState:
    """Filters start converged at the configured state with P = p0 * I, one
    covariance that every trial shares and the pre filter's, so every flag
    is set; x0 may carry a trial axis."""
    x0 = np.array(x0, dtype=float)
    return KalmanState(x0, float(p0) * np.eye(x0.shape[-1]), np.ones(x0.shape[:-1], dtype=bool))


def resync(
    pre_x: np.ndarray, step: GainStep, post: "KalmanState | None" = None, stay=None
) -> KalmanState:
    """The post filter re-synced to the pre filter: a copy of the pre
    filter's filtered states ``pre_x`` (..., N) with the schedule entry
    ``step``'s covariance, every flag set. With ``post``, the trials where
    the mask ``stay`` is true keep their rows of ``post`` (x, P and flags),
    which holds those trials alone, in order."""
    x = pre_x.copy()
    shares = np.ones(x.shape[:-1], dtype=bool)
    if post is None:
        return KalmanState(x, step.P_upd, shares)
    x[stay] = post.x
    shares[stay] = post.shares
    P = step.P_upd
    if post.P is not P:
        P = _per_trial(P, x.shape[:-1]).copy()
        P[stay] = post.P
    return KalmanState(x, P, shares)


def _symmetrize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.swapaxes(-1, -2))


def _add_diagonal(S: np.ndarray, d) -> None:
    """S[..., i, i] += d[..., i] in place, for a C-contiguous S: every
    n+1-th element of each flattened matrix. Any other layout raises
    ValueError, since the reshape would then write into a copy."""
    if not S.flags.c_contiguous:
        raise ValueError("_add_diagonal needs a C-contiguous S")
    n = S.shape[-1]
    S.reshape(S.shape[:-2] + (n * n,))[..., :: n + 1] += d


def _per_trial(P: np.ndarray, batch: tuple) -> np.ndarray:
    """P with the trial axes ``batch``, broadcasting a shared covariance
    (read-only) and returning a per-trial one as it is."""
    return P if P.shape[:-2] == batch else np.broadcast_to(P, batch + P.shape[-2:])


def kf_predict(model: GridModel, ks: KalmanState, step: GainStep) -> KalmanState:
    """The prediction of the filtered estimate ks: A x and A P A^T + sigma_v2 I,
    with ks's flags.

    ``step`` is the pre-filter schedule's entry for this step: the trials
    flagged in ``ks.shares`` have its covariance and take the predicted
    covariance from it; the others predict their own, and with
    ``shares=False`` every trial does (``step`` is then not read). With A
    the identity, P must be bit-symmetric, as every covariance the filters
    hold is (``_predict_cov``).
    """
    x = transition(model, ks.x)
    batch = x.shape[:-1]
    own = ~np.asarray(ks.shares, dtype=bool)
    if own.all():
        P = _predict_cov(model, _per_trial(ks.P, batch))
    elif own.any():
        P = _per_trial(step.P_pred, batch).copy()
        P[own] = _predict_cov(model, _per_trial(ks.P, batch)[own])
    else:
        P = step.P_pred
    return KalmanState(x, P, ks.shares)


def _predict_cov(model: GridModel, P_upd: np.ndarray) -> np.ndarray:
    """The predicted covariance A P A^T + sigma_v2 I of the filtered
    covariance P_upd, bit-symmetric.

    With A the identity this is P_upd + 0.0 (an identity gemm returns P as
    P + 0.0 does; see ``transition``) with sigma_v2 added to its diagonal,
    and the symmetrize is left out: every covariance that reaches here is
    bit-symmetric (``gain_step`` symmetrizes each P_upd, the start
    covariance is p0 I, and the batch's merges copy whole matrices), and
    0.5 (P + P^T) returns a bit-symmetric P as it is, as long as no entry
    is so large (above about 9e307) that P + P^T overflows. Any other A
    symmetrizes its product.
    """
    P_pred = P_upd + 0.0 if model.identity_A else model.A @ P_upd @ model.A.T
    _add_diagonal(P_pred, model.sigma_v2)
    return P_pred if model.identity_A else _symmetrize(P_pred)


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
    K = S.shape[-1]
    white = np.empty_like(S).swapaxes(-1, -2)
    # LAPACK factors one matrix per call; both reshapes are views
    for S_i, white_i in zip(S.reshape(-1, K, K), white.reshape(-1, K, K)):
        chol, info = dpotrf(S_i, lower=1, clean=1)
        if info == 0:
            white_i[...], info = dtrtri(chol, lower=1)
        if info != 0:
            raise InnovationSolveError(
                f"innovation covariance factorization failed (LAPACK info {info}; diag "
                f"min={S_i.diagonal().min():.3e} max={S_i.diagonal().max():.3e})"
            )
    G = (PMt @ white.swapaxes(-1, -2)) @ white
    IGM = -(G @ M)
    _add_diagonal(IGM, 1.0)
    P_upd = _symmetrize(
        IGM @ P_pred @ IGM.swapaxes(-1, -2)
        + (G * noise_mean[..., None, :]) @ G.swapaxes(-1, -2)
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

    def __init__(self, model: GridModel, p0: float):
        self.model = model
        P0 = initial_state(np.zeros(model.N), p0).P
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


def kf_update_pre(model: GridModel, pred: KalmanState, y: np.ndarray) -> KalmanState:
    """Pre-attack update of ``pred`` on the schedule entry of its own
    covariance."""
    return kf_update_pre_full(model, pred, y, pre_gain_step(model, pred.P))[0]


def residuals(model: GridModel, y: np.ndarray, x: np.ndarray, out=None) -> np.ndarray:
    """The residuals y - H x of (..., K, lam) measurements ``y`` against the
    (..., N) states ``x``: one M x per vector, as a (..., K, 1) column
    broadcast over the lam samples of each meter. ``out``, when given,
    receives them."""
    return np.subtract(y, np.matmul(model.meter_rows, x[..., None]), out=out)


def kf_update_pre_full(
    model: GridModel, pred: KalmanState, y: np.ndarray, step: GainStep, out=None
):
    """Pre-attack update of the prediction ``pred`` on (..., K, lam)
    measurements ``y``, returning (filtered estimate, innovation y - H x as
    (..., K, lam)).

    ``step`` is the schedule entry for this step, shared by every trial;
    the estimate keeps the prediction's flags. ``out``, when given, is a
    tuple of arrays (x, innovation, sums) that receive the filtered state,
    the innovation and its per-meter sums over the lam samples, (..., K).
    """
    x, r, sums = (None, None, None) if out is None else out
    r = residuals(model, y, pred.x, out=r)
    sums = np.add.reduce(r, axis=-1, out=sums)  # ndarray.sum without its Python wrapper
    x = np.add(pred.x, matvec(step.gain, sums / model.lam), out=x)
    return KalmanState(x, step.P_upd, pred.shares), r


def pre_filter(
    model: GridModel, x: np.ndarray, Y: np.ndarray, steps: "Sequence[GainStep]"
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The pre filter over a block of (B, T, K, lam) measurements Y from the
    (B, N) filtered states x, with ``steps`` the T schedule entries of the
    block; returns the filtered states (B, T, N), the innovations
    y - H A x (B, T, K, lam) and their per-meter sums over the lam samples
    (B, T, K).

    Each step updates the prediction A x (``transition``) with one
    ``kf_update_pre_full`` on its entry, which writes the step's
    innovation, sums and filtered state into their rows: the arithmetic of
    a step at a time; only the recursion on x is sequential, and it reads
    nothing but the measurements. The predictions are not kept. The arrays
    are held step-major, (T, B, ...), so each step's rows are contiguous,
    and returned as (B, T, ...) views.
    """
    X = np.empty((len(steps),) + x.shape)
    R = np.empty(X.shape[:2] + Y.shape[2:])
    D = np.empty(R.shape[:-1])
    for s, step in enumerate(steps):
        pred = KalmanState(transition(model, x), step.P_pred)
        x = kf_update_pre_full(model, pred, Y[:, s], step, out=(X[s], R[s], D[s]))[0].x
    return tuple(a.swapaxes(0, 1) for a in (X, R, D))


def kf_update_post(
    model: GridModel,
    pred: KalmanState,
    residual_mean: np.ndarray,
    a_hat: np.ndarray,
    sigma_hat: np.ndarray,
    pre_step: GainStep,
) -> KalmanState:
    """Measurement update of the prediction ``pred`` against the estimated
    attack, returning the filtered estimate and its flags.

    ``residual_mean`` holds the per-meter means of y - H x against this
    prediction (``ResidualBlock.mean``); a_hat and sigma_hat are per-meter
    (length K), all with the trial axes of pred. ``pre_step`` is the pre
    filter's step. The trials flagged in ``pred.shares`` whose sigma_hat is
    all zero keep the flag and reuse the step's gain and covariance, the
    values of their own update; the rest lose it and run the K x K update,
    stacked.
    """
    sigma_hat = np.asarray(sigma_hat, dtype=float)
    if (sigma_hat < 0).any():
        raise ValueError("sigma_hat must be >= 0")
    innovation = residual_mean - a_hat
    shares = pred.shares & ~sigma_hat.any(axis=-1)
    own = ~shares
    if not own.any():
        return KalmanState(pred.x + matvec(pre_step.gain, innovation), pre_step.P_upd, shares)
    batch = pred.x.shape[:-1]
    P = _per_trial(pred.P, batch)
    noise = model.sigma_w2 + sigma_hat
    if own.all():
        step = gain_step(model, P, noise)
        return KalmanState(pred.x + matvec(step.gain, innovation), step.P_upd, shares)
    step = gain_step(model, P[own], noise[own])
    x = pred.x + matvec(pre_step.gain, innovation)
    x[own] = pred.x[own] + matvec(step.gain, innovation[own])
    P = _per_trial(pre_step.P_upd, batch).copy()
    P[own] = step.P_upd
    return KalmanState(x, P, shares)
