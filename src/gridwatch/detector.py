"""Per-meter hypothesis costs, closed-form attack MLEs, GLLR, and the CUSUM
recursion whose clamp at zero re-syncs the post filter.

Each meter is scored under four hypotheses for the current interval: clean,
bias injection only, jamming only, or both. The costs are the (doubled,
constant-dropped) negative log-likelihoods with the unknown bias constrained
to |a| >= gamma and the unknown jamming variance to s >= sigma2_min; both
infima are closed form, expressed through four per-meter sufficient
statistics of the residuals e against the post-filter *prediction*:

    delta = sum_i e_i          zeta = sum_i e_i^2
    rho   = sum_i (e_i+gamma)^2    pi = sum_i (e_i-gamma)^2

The constrained bias MLE is the mean delta/lam where it is interior,
|delta/lam| >= gamma, else the boundary on the mean's side (+gamma at
delta = 0), so of rho and pi only the one at that boundary is formed: pi
on the upper side, rho on the lower. ``residual_stats`` decides the side
once, for both that SSR and the bias MLE.

The clean and bias costs share one expression and the two jamming costs
another, each over the same pair of sums of squared residuals: zeta, and
ssr_f, the SSR at the constrained bias MLE. So a batch step builds a (..., 2,
K) SSR block [zeta, ssr_f] once and evaluates the two expressions on it into
one (..., 4, K) cost table whose rows are in tie order: clean, fdi, jamming,
both.

Classification picks the cheapest hypothesis, the table's argmin over its
rows; np.argmin returns the first minimum, so ties go to the earlier row.
The GLLR needs the classified cost, which is the value at that first
minimum. Tied entries hold equal values, so it is the column minimum itself:
``table.min`` gives it without reading the labels. (The table is finite, as
classification checks, and the only unequal bits that compare equal, +0.0
and -0.0, cannot change the GLLR.)

The GLLR compares the classified fit against the pre-attack filter's
*updated* state; this asymmetry (update on the clean side, prediction on the
attacked side) blocks same-step attack influence on the bias/variance
estimates and is asserted by tests rather than symmetrized away. It is the
clean term 0.5 K lam log sigma_w2 + 0.5 ||y - H x_pre_upd||^2 / sigma_w2
(``clean_term``) less half the classified costs (``gllr``). The clean term
reads only the pre filter and the measurements, so the harness computes it
for a whole block of steps ahead of the costs; the subtraction per step is
the last operation of the one-expression form either way, so the bits are
the same.

Every statistic takes leading trial (and step) axes: residual blocks of B
trials are (B, K, lam) and the per-meter statistics (B, K). ``score`` chains
them from the measurements and a post prediction to the GLLR.
``algorithm1_step`` is the closed-loop half of one step: it takes the post
filter of a whole batch (when it reuses the pre filter's covariance is
``kalman``'s to decide), returns it advanced, and applies the scalar CUSUM
recursion ``cusum_step`` once per trial to its g, a plain float. The
recursion has no threshold and no step index: the harness reads g from
the step, and once per block finds the first step it reaches h, like
every other detector's, and the change-point estimate tau_hat, the last
step g was zero.

The pre track. The post filter is re-synced to the pre filter exactly when
g is clamped to zero, so a trial whose g is zero (or that has not taken a
step) holds the pre filter's estimate and covariance in its post filter:
its post prediction is the pre filter's prediction, bit for bit, and its
scoring at the next step is open-loop. The harness therefore scores every
trial on the pre filter's predictions a block ahead, on (B, T, ...)
slices; elementwise operations and reductions over the meter and sample
axes give each entry the bits they give it in a (B, ...) step. Those
residuals are the pre filter's innovations, bit for bit, so the harness
builds the costs from the innovations and their meter sums, which the pre
filter has formed (``kalman.pre_filter``), through the statistics half of
``residual_block`` (``pre_track_costs``); it needs only the GLLR, so the
table is checked finite, as classification checks it, and no labels are
formed. An on-track trial's CUSUM steps to max(0, beta_pre), so it stays
off the pre filter exactly when that GLLR is positive. ``algorithm1_step``
therefore scores, in one pass, the trials off the track and the on-track
trials with a positive pre-track GLLR, takes the pre-track GLLR for the
rest, and runs the post update only for the trials that do not re-sync: a
re-synced filter takes the step's pre estimate, whatever its update would
have been. A step that would score no trial is not called at all: the
harness fills such idle steps itself (``harness._ClosedLoop.run``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .grid_model import GridModel, vecdot
from . import kalman


@dataclass(frozen=True)
class DetectorConfig:
    gamma: float
    sigma2_min: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.sigma2_min > 0):
            raise ValueError("gamma and sigma2_min must both be > 0")


@dataclass
class ResidualBlock:
    """The per-meter statistics of the residuals against the post-filter
    prediction that the costs, the attack estimates and the post-filter
    update read, each (..., K) over the residuals' (..., K, lam):

    * ``mean``: the residual mean delta/lam, the post filter's meter-mean
      innovation;
    * ``a``: the bias MLE under |a| >= gamma: the mean where it is
      interior, |mean| >= gamma, else the nearer boundary +/- gamma
      (+gamma at delta = 0);
    * ``ssr``: the (..., 2, K) SSR block [zeta, ssr_f], where ssr_f is the
      SSR at ``a``: sum (e - mean)^2 where the mean is interior, else pi
      or rho.
    """

    mean: np.ndarray
    a: np.ndarray
    ssr: np.ndarray


@dataclass
class MeterClassification:
    labels: np.ndarray  # (..., K) ints: 0 clean, 1 fdi, 2 jam, 3 both


def residual_block(
    model: GridModel, y: np.ndarray, x_post_pred: np.ndarray, cfg: DetectorConfig
) -> ResidualBlock:
    """Per-meter residuals of the (..., K, lam) measurements ``y`` against
    the post-filter prediction.

    x_post_pred must be the prediction, never the update: the update already
    depends on this step's attack estimates.
    """
    e = kalman.residuals(model, y, x_post_pred)
    return residual_stats(model, e, e.sum(axis=-1), cfg)


def residual_stats(
    model: GridModel, e: np.ndarray, delta: np.ndarray, cfg: DetectorConfig
) -> ResidualBlock:
    """The residual block of the (..., K, lam) residuals ``e`` whose sums
    over the lam samples of each meter are ``delta``. The side of the
    mean, ``upper``, picks both the boundary SSR and the boundary bias."""
    zeta = (e * e).sum(axis=-1)
    g = cfg.gamma
    mean = delta / model.lam
    interior, upper = np.abs(mean) >= g, mean >= 0.0
    centered = np.maximum(zeta - delta * mean, 0.0)  # >= 0 up to roundoff
    # The SSR at the nearer boundary, pi = sum (e - gamma)^2 on the upper
    # side and rho = sum (e + gamma)^2 on the lower, expanded: one pass
    # over the samples per meter.
    cross, square = 2.0 * g * delta, model.lam * g * g
    ssr_f = np.where(interior, centered, np.where(upper, zeta - cross, zeta + cross) + square)
    ssr = np.concatenate((zeta[..., None, :], ssr_f[..., None, :]), axis=-2)
    return ResidualBlock(mean, np.where(interior, mean, np.where(upper, g, -g)), ssr)


def hypothesis_costs(rb: ResidualBlock, model: GridModel, cfg: DetectorConfig) -> np.ndarray:
    """The (..., 4, K) cost table, rows in tie order clean, fdi, jam, both:
    each pair of rows is one expression over the SSR block [zeta, ssr_f]."""
    lam = model.lam
    sw2 = model.sigma_w2
    floor = sw2 + cfg.sigma2_min
    ssr = rb.ssr
    # Jamming only and both: variance MLE ssr/lam when it clears the floor,
    # else the floor. (The log is taken of the floored MLE, so it is finite
    # in the branch that is not used.)
    var = ssr / lam
    floored = np.where(
        var >= floor,
        lam * np.log(np.maximum(var, floor)) + lam,
        lam * math.log(floor) + ssr / floor,
    )
    # Clean and bias only: the noise variance is known.
    return np.concatenate((lam * math.log(sw2) + ssr / sw2, floored), axis=-2)


def classify_meters(table: np.ndarray) -> MeterClassification:
    """Cheapest hypothesis per meter; ties favor clean, then fdi, jam, both.

    np.argmin returns the first minimum, which is exactly that precedence.
    The table is checked finite first (``finite_costs``).
    """
    return MeterClassification(labels=finite_costs(table).argmin(axis=-2))


def finite_costs(table: np.ndarray) -> np.ndarray:
    """The cost table ``table``, checked finite. The configuration keeps the
    noise settings finite and positive, so a cost that is not finite means
    the residuals overflowed: the state or the data diverged, which raises
    a FloatingPointError."""
    if not np.isfinite(table).all():
        raise FloatingPointError(
            "hypothesis costs are not finite: the state or data diverged; "
            "check the model configuration"
        )
    return table


def pre_track_costs(
    model: GridModel, cfg: DetectorConfig, innovation: np.ndarray, sums: np.ndarray
) -> np.ndarray:
    """The cost table of a post filter that holds the pre filter's estimate,
    checked finite: its residuals are the pre filter's ``innovation``
    (..., K, lam), whose per-meter sums ``sums`` the pre filter has formed.
    The GLLR needs no labels (see ``gllr``), so none are formed."""
    return finite_costs(hypothesis_costs(residual_stats(model, innovation, sums, cfg), model, cfg))


def mle_attack_params(
    rb: ResidualBlock,
    classification: MeterClassification,
    cfg: DetectorConfig,
    model: GridModel,
) -> "tuple[np.ndarray, np.ndarray]":
    """Closed-form constrained MLEs (a_hat, sigma_hat) given the
    classification.

    The bias estimate is the block's constrained bias MLE ``rb.a`` where
    the label carries a bias; the variance estimate is the per-branch
    sample variance minus sigma_w2, floored at sigma2_min.
    """
    labels = classification.labels
    a_hat = np.where(labels & 1, rb.a, 0.0)  # odd labels carry a bias: fdi, both
    var = np.maximum(rb.ssr / model.lam - model.sigma_w2, cfg.sigma2_min)  # [jam only, both]
    sigma_hat = np.where(labels == 2, var[..., 0, :], np.where(labels == 3, var[..., 1, :], 0.0))
    return a_hat, sigma_hat


def clean_term(r_pre: np.ndarray, model: GridModel) -> np.ndarray:
    """The GLLR's clean-side fit, one per trial (and step):
    0.5 K lam log sigma_w2 + 0.5 ||r_pre||^2 / sigma_w2.

    ``r_pre`` holds the residuals y - h_k^T x_pre_upd against the pre-filter
    *measurement update*, shape (..., K, lam). It reads only the pre filter
    and the measurements.
    """
    K, lam, sw2 = model.K, model.lam, model.sigma_w2
    r = r_pre.reshape(r_pre.shape[:-2] + (K * lam,))
    return 0.5 * K * lam * math.log(sw2) + 0.5 * vecdot(r, r) / sw2


def gllr(clean: np.ndarray, table: np.ndarray) -> np.ndarray:
    """Generalized log-likelihood ratio for the interval, one per trial:
    the clean term (``clean_term``) less half the classified costs of the
    cost table ``table``. The classified cost of each meter is its column
    minimum (see the module docstring), so it needs no classification.
    """
    return clean - 0.5 * table.min(axis=-2).sum(axis=-1)


def cusum_step(g: float, beta: float) -> "tuple[float, bool]":
    """One step of g_t = max(0, g_{t-1} + beta_t); returns the new g and a
    sync flag.

    The sync flag is raised exactly when the statistic was clamped to zero,
    which must re-sync the post filter to the pre filter. So g is zero
    exactly after a re-sync (the pre track). The clamp gives +0.0, also for
    a sum of -0.0 or NaN. The recursion is threshold-free, so it runs on
    past any h.
    """
    g_new = max(0.0, g + beta)
    return g_new, g_new == 0.0


def score(
    model: GridModel, cfg: DetectorConfig, y: np.ndarray, x_pred: np.ndarray, clean: np.ndarray
) -> "tuple[ResidualBlock, MeterClassification, np.ndarray]":
    """Algorithm 1's scoring of measurements ``y`` against the post-filter
    prediction ``x_pred``: the residual block, the meter classification
    and the GLLR on the clean term ``clean``. Every input carries the same
    leading axes, a trial axis and, for a block, a step axis."""
    rb = residual_block(model, y, x_pred, cfg)
    costs = hypothesis_costs(rb, model, cfg)
    return rb, classify_meters(costs), gllr(clean, costs)


def mask_rows(mask: np.ndarray):
    """The trials of a mask as an index that copies nothing when it selects
    every trial."""
    return slice(None) if mask.all() else np.flatnonzero(mask)


@dataclass
class Algorithm1Step:
    post: kalman.KalmanState
    g: "list[float]"
    beta: np.ndarray


def algorithm1_step(
    post: kalman.KalmanState,
    g: "Sequence[float]",
    model: GridModel,
    cfg: DetectorConfig,
    y: np.ndarray,
    pre_step: kalman.GainStep,
    pre_x: np.ndarray,
    clean: np.ndarray,
    beta_pre: Optional[np.ndarray],
) -> Algorithm1Step:
    """The closed-loop half of one detection-and-estimation iteration: what
    reads the post filter or the CUSUM.

    The pre filter reads only the measurements, so the caller runs it, and
    what reads it alone, ahead (``kalman.pre_filter``, ``clean_term``,
    ``pre_track_costs``, ``gllr``) and passes the step's schedule entry
    ``pre_step``, filtered state ``pre_x``, clean term ``clean`` and
    ``beta_pre``, the GLLR scored on the pre filter's prediction. Order
    matters here: predict the post filter, build residuals on its
    prediction, classify and estimate, score the GLLR, advance the CUSUM,
    then update the post filter, or re-sync it to a copy of the step's pre
    estimate if the statistic hit zero (``kalman.resync``).

    A trial whose g is zero is on the pre track: its post filter was
    re-synced at the last step (or holds the start state), so its
    prediction is the pre filter's, bit for bit, and its GLLR is
    ``beta_pre``. Its CUSUM steps to max(0, beta_pre), so it stays off the
    pre filter exactly when beta_pre > 0. The trials scored here, once
    each, are those off the track and those on it with beta_pre > 0: every
    trial that does not re-sync is among them, and they are updated after
    the CUSUM.

    ``post`` is the post filter's filtered estimate with a leading trial
    axis, ``y`` the (B, K, lam) measurements and ``g`` the CUSUM of each
    trial (a single trial is a batch of one); the returned step holds the
    post filter's estimate and the CUSUM after the step.
    """
    beta = beta_pre
    if beta_pre is None:  # every trial is scored
        rows = slice(None)
        pred = kalman.kf_predict(model, post, pre_step)
        rb, labels, beta = score(model, cfg, y, pred.x, clean)
        a_hat, sigma_hat = mle_attack_params(rb, labels, cfg, model)
        betas = beta.tolist()
    else:
        betas = beta_pre.tolist()
        pick = [v != 0.0 or b > 0.0 for v, b in zip(g, betas, strict=True)]
        if any(pick):
            rows = mask_rows(np.array(pick))
            pred = kalman.kf_predict(model, post.take(rows), pre_step)
            rb, labels, scored = score(model, cfg, y[rows], pred.x, clean[rows])
            a_hat, sigma_hat = mle_attack_params(rb, labels, cfg, model)
            beta = beta.copy()
            beta[rows] = scored
            betas = beta.tolist()

    stepped = [cusum_step(v, b) for v, b in zip(g, betas, strict=True)]
    g = [v for v, _ in stepped]
    stay = [not flag for _, flag in stepped]
    if all(stay):  # every trial was scored and is updated
        post = kalman.kf_update_post(model, pred, rb.mean, a_hat, sigma_hat, pre_step)
        return Algorithm1Step(post=post, g=g, beta=beta)
    if not any(stay):
        return Algorithm1Step(post=kalman.resync(pre_x, pre_step), g=g, beta=beta)
    stay = np.array(stay)
    mean, keep = rb.mean, stay[rows]  # the trials that stay are all scored
    if not keep.all():
        keep = np.flatnonzero(keep)
        pred, mean, a_hat, sigma_hat = pred.take(keep), mean[keep], a_hat[keep], sigma_hat[keep]
    post = kalman.kf_update_post(model, pred, mean, a_hat, sigma_hat, pre_step)
    # the rest re-sync: post := pre
    return Algorithm1Step(post=kalman.resync(pre_x, pre_step, post, stay), g=g, beta=beta)
