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

Classification picks the cheapest hypothesis with ties resolved in the
order clean, fdi, jamming, both. The GLLR compares the classified fit
against the pre-attack filter's *updated* state; this asymmetry (update on
the clean side, prediction on the attacked side) blocks same-step attack
influence on the bias/variance estimates and is asserted by tests rather
than symmetrized away.

Every statistic takes a leading trial axis: residual blocks of B trials are
(B, K, lam) and the per-meter statistics (B, K). ``algorithm1_step``
advances a whole batch one step and applies the scalar CUSUM recursion
``cusum_step`` once per trial. The recursion has no threshold: the caller
stops at the first step g reaches h, like every other detector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .grid_model import GridModel, MeasurementBatch, matvec, vecdot
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

    ``e`` is (..., K, lam); the statistics are (..., K). The derived
    quantities below are formed on first use and shared by the costs, the
    attack estimates and the post-filter update.
    """

    e: np.ndarray  # (..., K, lam)
    delta: np.ndarray
    zeta: np.ndarray
    rho: np.ndarray  # sum (e + gamma)^2
    pi: np.ndarray  # sum (e - gamma)^2
    gamma: float

    @cached_property
    def mean(self) -> np.ndarray:
        """Per-meter residual mean delta/lam: the post filter's meter-mean
        innovation."""
        return self.delta / self.e.shape[-1]

    @cached_property
    def interior(self) -> np.ndarray:
        """|mean| >= gamma: the bias MLE is the mean itself."""
        return np.abs(self.mean) >= self.gamma

    @cached_property
    def ssr_f(self) -> np.ndarray:
        """Bias-constrained SSR: sum (e - mean)^2 when the mean is interior,
        else the SSR at the nearer boundary +/- gamma."""
        centered = np.maximum(self.zeta - self.delta * self.mean, 0.0)  # >= 0 up to roundoff
        return np.where(self.interior, centered, np.where(self.mean >= 0.0, self.pi, self.rho))


@dataclass
class HypothesisCosts:
    u0: np.ndarray
    uf: np.ndarray
    uj: np.ndarray
    ufj: np.ndarray

    @cached_property
    def stacked(self) -> np.ndarray:
        """(..., 4, K) in tie-precedence order; shared by the classification
        and the GLLR."""
        return np.stack([self.u0, self.uf, self.uj, self.ufj], axis=-2)


@dataclass
class MeterClassification:
    labels: np.ndarray  # (..., K) ints indexing HYPOTHESES

    def sets(self) -> "tuple[set, set, set, set]":
        idx = np.arange(self.labels.size)
        return tuple(set(idx[self.labels == j]) for j in range(4))


@dataclass
class AttackEstimate:
    a_hat: np.ndarray
    sigma_hat: np.ndarray


@dataclass
class CusumState:
    g: float = 0.0
    tau_hat: int = 1  # the last step g was clamped to zero (1 before any)


def residual_block(
    model: GridModel, y: MeasurementBatch, x_post_pred: np.ndarray, cfg: DetectorConfig
) -> ResidualBlock:
    """Per-meter residuals against the post-filter prediction.

    x_post_pred must be the prediction, never the update: the update already
    depends on this step's attack estimates.
    """
    e = y.values - matvec(model.meter_rows, x_post_pred)[..., None]
    delta = e.sum(axis=-1)
    zeta = (e * e).sum(axis=-1)
    g = cfg.gamma
    lam = model.lam
    # Expansions of sum (e +/- gamma)^2; one pass over samples per meter.
    rho = zeta + 2.0 * g * delta + lam * g * g
    pi = zeta - 2.0 * g * delta + lam * g * g
    return ResidualBlock(e=e, delta=delta, zeta=zeta, rho=rho, pi=pi, gamma=g)


def hypothesis_costs(rb: ResidualBlock, model: GridModel, cfg: DetectorConfig) -> HypothesisCosts:
    lam = model.lam
    sw2 = model.sigma_w2
    floor = sw2 + cfg.sigma2_min

    u0 = lam * math.log(sw2) + rb.zeta / sw2

    # Bias-only: the constrained SSR (centered, or at the nearer boundary).
    uf = lam * math.log(sw2) + rb.ssr_f / sw2

    # Jamming-only: variance MLE zeta/lam when it clears the floor, else the
    # floor. (The log is taken of the floored MLE, so it is finite in the
    # branch that is not used.)
    def floored_fit(ssr: np.ndarray) -> np.ndarray:
        var = ssr / lam
        return np.where(
            var >= floor,
            lam * np.log(np.maximum(var, floor)) + lam,
            lam * math.log(floor) + ssr / floor,
        )

    uj = floored_fit(rb.zeta)
    # Both: same constrained SSR as the bias case, variance then floored.
    ufj = floored_fit(rb.ssr_f)
    return HypothesisCosts(u0=u0, uf=uf, uj=uj, ufj=ufj)


def classify_meters(costs: HypothesisCosts) -> MeterClassification:
    """Cheapest hypothesis per meter; ties favor clean, then fdi, jam, both.

    np.argmin returns the first minimum, which is exactly that precedence.
    """
    stacked = costs.stacked
    if not np.all(np.isfinite(stacked)):
        raise ValueError("hypothesis costs must be finite")
    return MeterClassification(labels=np.argmin(stacked, axis=-2))


def mle_attack_params(
    rb: ResidualBlock,
    classification: MeterClassification,
    cfg: DetectorConfig,
    model: GridModel,
) -> AttackEstimate:
    """Closed-form constrained MLEs given the classification.

    The bias estimate is the residual mean clamped outward to the boundary
    (delta = 0 maps to +gamma); the variance estimate is the per-branch
    sample variance minus sigma_w2, floored at sigma2_min.
    """
    mean = rb.mean
    labels = classification.labels

    a_hat = np.where(rb.interior, mean, np.where(mean >= 0.0, cfg.gamma, -cfg.gamma))
    a_hat = np.where((labels == 1) | (labels == 3), a_hat, 0.0)

    var_jam_only = np.maximum(rb.zeta / model.lam - model.sigma_w2, cfg.sigma2_min)
    var_both = np.maximum(rb.ssr_f / model.lam - model.sigma_w2, cfg.sigma2_min)
    sigma_hat = np.where(labels == 2, var_jam_only, np.where(labels == 3, var_both, 0.0))
    return AttackEstimate(a_hat=a_hat, sigma_hat=sigma_hat)


def gllr(
    rb_pre: np.ndarray,
    costs: HypothesisCosts,
    classification: MeterClassification,
    model: GridModel,
) -> np.ndarray:
    """Generalized log-likelihood ratio for the interval, one per trial.

    ``rb_pre`` holds the residuals y - h_k^T x_pre_upd against the pre-filter
    *measurement update*, shape (..., K, lam).
    """
    K, lam, sw2 = model.K, model.lam, model.sigma_w2
    r = np.asarray(rb_pre)
    r = r.reshape(r.shape[:-2] + (K * lam,))
    chosen = np.take_along_axis(
        costs.stacked, classification.labels[..., None, :], axis=-2
    )[..., 0, :]
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
    estimate: AttackEstimate
    classification: MeterClassification
    beta: np.ndarray
    x_post_pred: np.ndarray  # prediction the residual block was built on
    pre_innovation: np.ndarray  # y - H x_pre_pred as (..., K, lam)


def algorithm1_step(
    bank: kalman.DualFilterBank,
    cs: "Sequence[CusumState]",
    model: GridModel,
    cfg: DetectorConfig,
    y: MeasurementBatch,
    t: int,
    pre_step: Optional[kalman.GainStep] = None,
) -> Algorithm1Step:
    """One full detection-and-estimation iteration.

    Order matters: predict both filters, build residuals on the post-filter
    prediction, classify and estimate, update both filters, score the GLLR
    on the pre-filter update, advance the CUSUM, and re-sync the post filter
    if the statistic hit zero.

    The bank and y carry a leading trial axis and ``cs`` holds one
    CusumState per trial (a single trial is a batch of one). ``pre_step`` is
    the pre filter's schedule entry for step t; without it the entry is
    computed from the pre filter's own covariance.
    """
    pre = kalman.kf_predict(model, bank.pre, pre_step)
    if pre_step is None:
        pre_step = kalman.pre_gain_step(model, pre.P_pred)
    shares = bank.post_shares_pre
    post = kalman.kf_predict(model, bank.post, pre_step, shares)

    rb = residual_block(model, y, post.x_pred, cfg)
    costs = hypothesis_costs(rb, model, cfg)
    classification = classify_meters(costs)
    est = mle_attack_params(rb, classification, cfg, model)

    pre, pre_innovation = kalman.kf_update_pre_full(model, pre, y, pre_step)
    post = kalman.kf_update_post(model, post, rb.mean, est.a_hat, est.sigma_hat, pre_step, shares)

    r_pre = y.values - matvec(model.meter_rows, pre.x_upd)[..., None]
    beta = gllr(r_pre, costs, classification, model)

    stepped = [cusum_step(c, b, t) for c, b in zip(cs, beta.tolist(), strict=True)]
    new_cs = [c for c, _ in stepped]
    sync = np.array([flag for _, flag in stepped], dtype=bool)
    new_bank = kalman.sync_post_to_pre(
        kalman.DualFilterBank(
            pre=pre, post=post, post_shares_pre=shares & ~est.sigma_hat.any(axis=-1)
        ),
        sync,
    )
    return Algorithm1Step(
        bank=new_bank,
        cusum=new_cs,
        estimate=est,
        classification=classification,
        beta=beta,
        x_post_pred=post.x_pred,
        pre_innovation=pre_innovation,
    )
