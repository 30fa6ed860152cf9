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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid_model import GridModel, MeasurementBatch
from . import kalman

HYPOTHESES = ("clean", "fdi", "jam", "both")


@dataclass(frozen=True)
class DetectorConfig:
    gamma: float
    sigma2_min: float
    h: float

    def __post_init__(self):
        if not (self.gamma > 0 and self.sigma2_min > 0 and self.h > 0):
            raise ValueError("gamma, sigma2_min and h must all be > 0")


@dataclass
class ResidualBlock:
    """Residuals vs the post-filter prediction plus sufficient statistics."""

    e: np.ndarray  # (K, lam)
    delta: np.ndarray
    zeta: np.ndarray
    rho: np.ndarray  # sum (e + gamma)^2
    pi: np.ndarray  # sum (e - gamma)^2
    gamma: float


@dataclass
class HypothesisCosts:
    u0: np.ndarray
    uf: np.ndarray
    uj: np.ndarray
    ufj: np.ndarray

    def stacked(self) -> np.ndarray:
        """(4, K) in tie-precedence order."""
        return np.vstack([self.u0, self.uf, self.uj, self.ufj])


@dataclass
class MeterClassification:
    labels: np.ndarray  # (K,) ints indexing HYPOTHESES

    def sets(self) -> "tuple[set, set, set, set]":
        idx = np.arange(self.labels.size)
        return tuple(set(idx[self.labels == j]) for j in range(4))

    @property
    def clean(self):
        return set(np.flatnonzero(self.labels == 0))

    @property
    def fdi(self):
        return set(np.flatnonzero(self.labels == 1))

    @property
    def jam(self):
        return set(np.flatnonzero(self.labels == 2))

    @property
    def both(self):
        return set(np.flatnonzero(self.labels == 3))


@dataclass
class AttackEstimate:
    a_hat: np.ndarray
    sigma_hat: np.ndarray


@dataclass
class CusumState:
    g: float = 0.0
    tau_hat: int = 1
    stopped: bool = False
    T: Optional[int] = None


def residual_block(
    model: GridModel, y: MeasurementBatch, x_post_pred: np.ndarray, cfg: DetectorConfig
) -> ResidualBlock:
    """Per-meter residuals against the post-filter prediction.

    x_post_pred must be the prediction, never the update: the update already
    depends on this step's attack estimates.
    """
    e = y.values - (model.meter_rows @ x_post_pred)[:, None]
    delta = e.sum(axis=1)
    zeta = (e * e).sum(axis=1)
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
    mean = rb.delta / lam
    centered = rb.zeta - rb.delta * mean  # sum (e - mean)^2, >= 0 up to roundoff
    centered = np.maximum(centered, 0.0)

    u0 = lam * math.log(sw2) + rb.zeta / sw2

    # Bias-only: the constrained SSR is centered when |mean| >= gamma, else
    # evaluated at the nearer boundary +/- gamma.
    interior = np.abs(mean) >= cfg.gamma
    ssr_f = np.where(interior, centered, np.where(mean >= 0.0, rb.pi, rb.rho))
    uf = lam * math.log(sw2) + ssr_f / sw2

    # Jamming-only: variance MLE zeta/lam when it clears the floor.
    uj = np.where(
        rb.zeta / lam >= floor,
        lam * np.log(np.maximum(rb.zeta / lam, 1e-300)) + lam,
        lam * math.log(floor) + rb.zeta / floor,
    )

    # Both: same constrained SSR as the bias case, variance then floored.
    ufj = np.where(
        ssr_f / lam >= floor,
        lam * np.log(np.maximum(ssr_f / lam, 1e-300)) + lam,
        lam * math.log(floor) + ssr_f / floor,
    )
    return HypothesisCosts(u0=u0, uf=uf, uj=uj, ufj=ufj)


def classify_meters(costs: HypothesisCosts) -> MeterClassification:
    """Cheapest hypothesis per meter; ties favor clean, then fdi, jam, both.

    np.argmin returns the first minimum, which is exactly that precedence.
    """
    stacked = costs.stacked()
    if not np.all(np.isfinite(stacked)):
        raise ValueError("hypothesis costs must be finite")
    return MeterClassification(labels=np.argmin(stacked, axis=0))


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
    lam = model.lam
    mean = rb.delta / lam
    labels = classification.labels

    a_hat = np.where(
        np.abs(mean) >= cfg.gamma,
        mean,
        np.where(mean >= 0.0, cfg.gamma, -cfg.gamma),
    )
    a_hat = np.where((labels == 1) | (labels == 3), a_hat, 0.0)

    centered = np.maximum(rb.zeta - rb.delta * mean, 0.0)
    ssr_f = np.where(
        np.abs(mean) >= cfg.gamma, centered, np.where(mean >= 0.0, rb.pi, rb.rho)
    )
    var_jam_only = np.maximum(rb.zeta / lam - model.sigma_w2, cfg.sigma2_min)
    var_both = np.maximum(ssr_f / lam - model.sigma_w2, cfg.sigma2_min)
    sigma_hat = np.where(labels == 2, var_jam_only, np.where(labels == 3, var_both, 0.0))
    return AttackEstimate(a_hat=a_hat, sigma_hat=sigma_hat)


def gllr(
    rb_pre: np.ndarray,
    costs: HypothesisCosts,
    classification: MeterClassification,
    model: GridModel,
) -> float:
    """Generalized log-likelihood ratio for the interval.

    ``rb_pre`` holds the residuals y - h_k^T x_pre_upd against the pre-filter
    *measurement update* (shape (K, lam) or flat).
    """
    K, lam, sw2 = model.K, model.lam, model.sigma_w2
    r = np.asarray(rb_pre).reshape(-1)
    chosen = np.take_along_axis(
        costs.stacked(), classification.labels[None, :], axis=0
    )[0]
    return float(
        0.5 * K * lam * math.log(sw2) + 0.5 * (r @ r) / sw2 - 0.5 * chosen.sum()
    )


def cusum_step(cs: CusumState, beta: float, cfg: DetectorConfig, t: int) -> "tuple[CusumState, bool]":
    """One CUSUM recursion step; returns the new state and a sync flag.

    The sync flag is raised exactly when the statistic was clamped to zero,
    which must trigger sync_post_to_pre and the tau_hat update.
    """
    if cs.stopped:
        raise RuntimeError("cusum_step called after the detector stopped")
    g_new = max(0.0, cs.g + beta)
    stopped = g_new >= cfg.h
    sync = g_new == 0.0
    return (
        CusumState(
            g=g_new,
            tau_hat=t if sync else cs.tau_hat,
            stopped=stopped,
            T=t if stopped else None,
        ),
        sync,
    )


@dataclass
class Algorithm1Step:
    bank: kalman.DualFilterBank
    cusum: CusumState
    estimate: AttackEstimate
    classification: MeterClassification
    beta: float
    x_post_pred: np.ndarray  # prediction the residual block was built on
    pre_innovation: np.ndarray  # y - H x_pre_pred as (K, lam)


def algorithm1_step(
    bank: kalman.DualFilterBank,
    cs: CusumState,
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

    ``pre_step`` is the pre filter's schedule entry for step t; without it
    the entry is computed from the pre filter's own covariance.
    """
    pre = kalman.kf_predict(model, bank.pre, pre_step)
    if pre_step is None:
        pre_step = kalman.pre_gain_step(model, pre.P_pred)
    shared = pre_step if bank.post_shares_pre else None
    post = kalman.kf_predict(model, bank.post, shared)

    rb = residual_block(model, y, post.x_pred, cfg)
    costs = hypothesis_costs(rb, model, cfg)
    classification = classify_meters(costs)
    est = mle_attack_params(rb, classification, cfg, model)

    pre, pre_innovation = kalman.kf_update_pre_full(model, pre, y, pre_step)
    post = kalman.kf_update_post(model, post, y, est.a_hat, est.sigma_hat, shared)

    r_pre = y.values - (model.meter_rows @ pre.x_upd)[:, None]
    beta = gllr(r_pre, costs, classification, model)

    new_cs, sync = cusum_step(cs, beta, cfg, t)
    if sync:
        new_bank = kalman.sync_post_to_pre(kalman.DualFilterBank(pre=pre, post=post), t)
    else:
        new_bank = kalman.DualFilterBank(
            pre=pre,
            post=post,
            tau_hat=bank.tau_hat,
            post_shares_pre=shared is not None and not est.sigma_hat.any(),
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
