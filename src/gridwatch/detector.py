"""Per-meter hypothesis costs, closed-form attack MLEs, GLLR, and the CUSUM
recursion with reset-coupled change-point estimation.

Each meter is scored under four hypotheses for the current interval: clean,
bias injection only, jamming only, or both. The costs are the (doubled,
constant-dropped) negative log-likelihoods with the unknown bias constrained
to |a| >= gamma and the unknown jamming variance to s >= sigma2_min; both
infima are closed form, expressed through four per-meter sufficient
statistics of the residuals e against the post-filter *prediction*:

    delta = sum_i e_i          zeta = sum_i e_i^2
    rho   = sum_i (e_i+gamma)^2    pi = sum_i (e_i-gamma)^2

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
estimates and is asserted by tests rather than symmetrized away.

Every statistic takes a leading trial axis: residual blocks of B trials are
(B, K, lam) and the per-meter statistics (B, K). ``algorithm1_step``
advances a whole batch one step and applies the scalar CUSUM recursion
``cusum_step`` once per trial. The recursion has no threshold: the caller
stops at the first step g reaches h, like every other detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .grid_model import GridModel, matvec, vecdot
from . import kalman

HYPOTHESES = ("clean", "fdi", "jam", "both")


@dataclass(frozen=True)
class DetectorConfig:
    gamma: float
    sigma2_min: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.sigma2_min > 0):
            raise ValueError("gamma and sigma2_min must both be > 0")


@dataclass
class ResidualBlock:
    """Residuals vs the post-filter prediction plus sufficient statistics.

    ``e`` is (..., K, lam); the statistics are (..., K). The derived blocks
    are formed when the block is built and shared by the costs, the attack
    estimates and the post-filter update:

    * ``mean``: the per-meter residual mean delta/lam, the post filter's
      meter-mean innovation;
    * ``interior``: |mean| >= gamma, where the bias MLE is the mean itself;
    * ``ssr``: the (..., 2, K) SSR block [zeta, ssr_f], where the
      bias-constrained ssr_f is sum (e - mean)^2 when the mean is interior,
      else the SSR at the nearer boundary +/- gamma.
    """

    e: np.ndarray  # (..., K, lam)
    delta: np.ndarray
    zeta: np.ndarray
    rho: np.ndarray  # sum (e + gamma)^2
    pi: np.ndarray  # sum (e - gamma)^2
    gamma: float
    mean: np.ndarray = field(init=False)
    interior: np.ndarray = field(init=False)
    ssr: np.ndarray = field(init=False)

    def __post_init__(self):
        self.mean = mean = self.delta / self.e.shape[-1]
        self.interior = np.abs(mean) >= self.gamma
        centered = np.maximum(self.zeta - self.delta * mean, 0.0)  # >= 0 up to roundoff
        ssr_f = np.where(self.interior, centered, np.where(mean >= 0.0, self.pi, self.rho))
        self.ssr = np.concatenate((self.zeta[..., None, :], ssr_f[..., None, :]), axis=-2)


@dataclass
class MeterClassification:
    labels: np.ndarray  # (..., K) ints indexing HYPOTHESES


@dataclass
class CusumState:
    g: float = 0.0
    tau_hat: int = 1  # the last step g was clamped to zero (1 before any)


def residual_block(
    model: GridModel, y: np.ndarray, x_post_pred: np.ndarray, cfg: DetectorConfig
) -> ResidualBlock:
    """Per-meter residuals of the (..., K, lam) measurements ``y`` against
    the post-filter prediction.

    x_post_pred must be the prediction, never the update: the update already
    depends on this step's attack estimates.
    """
    e = y - matvec(model.meter_rows, x_post_pred)[..., None]
    delta = e.sum(axis=-1)
    zeta = (e * e).sum(axis=-1)
    g = cfg.gamma
    # Expansions of sum (e +/- gamma)^2; one pass over samples per meter.
    cross, square = 2.0 * g * delta, model.lam * g * g
    rho = zeta + cross + square
    pi = zeta - cross + square
    return ResidualBlock(e=e, delta=delta, zeta=zeta, rho=rho, pi=pi, gamma=g)


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
    The configuration keeps the noise settings finite and positive, so a
    cost that is not finite means the residuals overflowed: the state or
    the data diverged, which raises a FloatingPointError.
    """
    if not np.isfinite(table).all():
        raise FloatingPointError(
            "hypothesis costs are not finite: the state or data diverged; "
            "check the model configuration"
        )
    return MeterClassification(labels=np.argmin(table, axis=-2))


def mle_attack_params(
    rb: ResidualBlock,
    classification: MeterClassification,
    cfg: DetectorConfig,
    model: GridModel,
) -> "tuple[np.ndarray, np.ndarray]":
    """Closed-form constrained MLEs (a_hat, sigma_hat) given the
    classification.

    The bias estimate is the residual mean clamped outward to the boundary
    (delta = 0 maps to +gamma); the variance estimate is the per-branch
    sample variance minus sigma_w2, floored at sigma2_min.
    """
    mean = rb.mean
    labels = classification.labels

    a_hat = np.where(rb.interior, mean, np.where(mean >= 0.0, cfg.gamma, -cfg.gamma))
    a_hat = np.where(labels & 1, a_hat, 0.0)  # odd labels carry a bias: fdi, both

    var = np.maximum(rb.ssr / model.lam - model.sigma_w2, cfg.sigma2_min)  # [jam only, both]
    sigma_hat = np.where(labels == 2, var[..., 0, :], np.where(labels == 3, var[..., 1, :], 0.0))
    return a_hat, sigma_hat


def gllr(
    rb_pre: np.ndarray,
    table: np.ndarray,
    model: GridModel,
) -> np.ndarray:
    """Generalized log-likelihood ratio for the interval, one per trial.

    ``rb_pre`` holds the residuals y - h_k^T x_pre_upd against the pre-filter
    *measurement update*, shape (..., K, lam), and ``table`` the cost table.
    The classified cost of each meter is its column minimum (see the module
    docstring), so it needs no classification.
    """
    K, lam, sw2 = model.K, model.lam, model.sigma_w2
    r = np.asarray(rb_pre)
    r = r.reshape(r.shape[:-2] + (K * lam,))
    chosen = table.min(axis=-2)
    return 0.5 * K * lam * math.log(sw2) + 0.5 * vecdot(r, r) / sw2 - 0.5 * chosen.sum(axis=-1)


def cusum_step(cs: CusumState, beta: float, t: int) -> "tuple[CusumState, bool]":
    """One step of g_t = max(0, g_{t-1} + beta_t) at step t; returns the new
    state and a sync flag.

    The sync flag is raised exactly when the statistic was clamped to zero,
    which must trigger sync_post_to_pre; tau_hat then moves to t. The
    recursion is threshold-free, so it runs on past any h.
    """
    g_new = max(0.0, cs.g + beta)
    sync = g_new == 0.0
    return CusumState(g=g_new, tau_hat=t if sync else cs.tau_hat), sync


@dataclass
class Algorithm1Step:
    bank: kalman.DualFilterBank
    cusum: "list[CusumState]"
    a_hat: np.ndarray  # the attack estimates the post update ran on, (..., K)
    sigma_hat: np.ndarray
    beta: np.ndarray
    pre_innovation: np.ndarray  # y - H x_pre_pred as (..., K, lam)


def algorithm1_step(
    bank: kalman.DualFilterBank,
    cs: "Sequence[CusumState]",
    model: GridModel,
    cfg: DetectorConfig,
    y: np.ndarray,
    t: int,
    pre_step: Optional[kalman.GainStep] = None,
) -> Algorithm1Step:
    """One full detection-and-estimation iteration.

    Order matters: predict both filters, build residuals on the post-filter
    prediction, classify and estimate, update both filters, score the GLLR
    on the pre-filter update, advance the CUSUM, and re-sync the post filter
    if the statistic hit zero.

    The bank and the (B, K, lam) measurements ``y`` carry a leading trial
    axis and ``cs`` holds one CusumState per trial (a single trial is a
    batch of one). ``pre_step`` is the pre filter's schedule entry for step
    t; without it the entry is computed from the pre filter's own covariance.
    """
    pre = kalman.kf_predict(model, bank.pre, pre_step)
    if pre_step is None:
        pre_step = kalman.pre_gain_step(model, pre.P)
    shares = bank.post_shares_pre
    post = kalman.kf_predict(model, bank.post, pre_step, shares)

    rb = residual_block(model, y, post.x, cfg)
    costs = hypothesis_costs(rb, model, cfg)
    a_hat, sigma_hat = mle_attack_params(rb, classify_meters(costs), cfg, model)

    pre, pre_innovation = kalman.kf_update_pre_full(model, pre, y, pre_step)
    post = kalman.kf_update_post(model, post, rb.mean, a_hat, sigma_hat, pre_step, shares)

    r_pre = y - matvec(model.meter_rows, pre.x)[..., None]
    beta = gllr(r_pre, costs, model)

    stepped = [cusum_step(c, b, t) for c, b in zip(cs, beta.tolist(), strict=True)]
    new_cs = [c for c, _ in stepped]
    sync = np.array([flag for _, flag in stepped], dtype=bool)
    new_bank = kalman.sync_post_to_pre(
        kalman.DualFilterBank(
            pre=pre, post=post, post_shares_pre=shares & ~sigma_hat.any(axis=-1)
        ),
        sync,
    )
    return Algorithm1Step(
        bank=new_bank,
        cusum=new_cs,
        a_hat=a_hat,
        sigma_hat=sigma_hat,
        beta=beta,
        pre_innovation=pre_innovation,
    )
