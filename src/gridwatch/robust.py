"""Countermeasures against stealthy attacks and the benchmark detectors.

Three detectors run next to the CUSUM core and an attack is declared at the
earliest of the stopping times:

* generalized Shewhart test: fire the first time the single-step GLLR
  reaches phi -- catches short bursts that never accumulate;
* sliding-window chi-squared test: the normalized innovation energy
  c_t = r^T Q^{-1} r is chi-squared with K*lam degrees of freedom under
  clean operation, so a Pearson goodness-of-fit statistic over the last L
  values flags any distributional drift, parametric or not;
* benchmarks from the evaluation: a nonparametric CUSUM on the innovation
  norm, plus Euclidean-distance and cosine-similarity outlier detectors.

This module holds the statistics that need more than one line: c_t, the
Pearson window, the nonparametric CUSUM step and the cosine similarity.
All of them read only the pre filter's innovations and the measurements,
so the harness runs them once per block of T steps, next to the
innovation norm, which it forms itself. c_t and the cosine take any
leading axes, (B, T, ...) for a block; c_t then takes the block's T
whitening factors stacked as (T, K, K), or the one (K, K) of a block whose
entries are all the settled step, each in its own Fortran layout, and the
pre filter's meter sums, and every product stays one BLAS call per vector,
so a block has the bits of its steps one by one. The Pearson window
slides over a block in one call, its counts exact small integers either
way; each window holds its cells in time order, oldest first, so a block
evicts the window's first cells and then, past L steps, its own.
The nonparametric CUSUM steps through the block on the trial axis, in its
per-step order, each step written into its row of a step-major block. The Shewhart statistic is the GLLR itself, and the
harness applies every threshold with one first-crossing rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import gammaincinv

from .grid_model import matvec, vecdot


@dataclass(frozen=True)
class ShewhartConfig:
    phi: float

    def __post_init__(self):
        if not self.phi > 0:
            raise ValueError("phi must be > 0")


@dataclass(frozen=True)
class Chi2Config:
    """Interval partition of [0, inf) into M cells of probability 1/M each,
    window, threshold."""

    edges: tuple  # M-1 interior edges, ascending
    L: int
    varphi: float

    def __post_init__(self):
        if list(self.edges) != sorted(self.edges):
            raise ValueError("edges must be ascending")
        if self.L < self.M:
            raise ValueError("window must be at least as long as the cell count")
        if not self.varphi > 0:
            raise ValueError("varphi must be > 0")

    @property
    def M(self) -> int:
        return len(self.edges) + 1

    @classmethod
    def equiprobable(cls, dof: int, M: int, L: int, varphi: float) -> "Chi2Config":
        """Cells of equal probability under the chi-squared(dof) null: the
        j/M quantiles, 2 P^{-1}(dof/2, j/M) with P the regularized lower
        incomplete gamma function."""
        edges = tuple(float(2.0 * gammaincinv(dof / 2.0, j / M)) for j in range(1, M))
        return cls(edges=edges, L=L, varphi=varphi)


@dataclass
class Chi2State:
    """The cell indices of the last L samples, oldest first, with their
    counts.

    A batch holds the windows of B trials: cells (B, L) and counts (B, M).
    """

    cfg: Chi2Config
    cells: np.ndarray  # (..., L) ints
    counts: np.ndarray  # (..., M)

    @classmethod
    def from_samples(cls, cfg: Chi2Config, samples) -> "Chi2State":
        """The windows of L samples each along the last axis of ``samples``,
        in time order."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape[-1:] != (cfg.L,):
            raise ValueError(f"window needs exactly {cfg.L} samples")
        cells = np.searchsorted(cfg.edges, samples, side="right")
        counts = (cells[..., None] == np.arange(cfg.M)).sum(axis=-2).astype(float)
        return cls(cfg=cfg, cells=cells, counts=counts)

    def take(self, keep) -> "Chi2State":
        """The windows of the trials selected by ``keep``."""
        return Chi2State(self.cfg, self.cells[keep], self.counts[keep])


def _pearson(counts: np.ndarray, cfg: Chi2Config) -> np.ndarray:
    expected = cfg.L * (1.0 / cfg.M)
    return ((counts - expected) ** 2 / expected).sum(axis=-1)


def chi2_sample_from_innovation(
    r: np.ndarray, white: np.ndarray, sigma_w2: float, sums: np.ndarray
) -> np.ndarray:
    """Normalized innovation energy c_t = r^T Q^{-1} r against the pre-filter
    prediction; chi-squared with K*lam degrees of freedom under no attack.

    r is the (..., K, lam) innovation and ``white`` (K, K, or with leading
    axes that broadcast against r's) the inverse W of the lower Cholesky
    factor of the meter-mean innovation covariance
    Sbar = M P_pred M^T + (sigma_w2/lam) I. Q = H P_pred H^T + sigma_w2 I acts
    as sigma_w2 I on the within-meter deviations and as lam Sbar on the
    meter means, so c_t = ||r - rbar kron 1||^2 / sigma_w2 + ||W rbar||^2.
    ``sums`` holds r's per-meter sums r.sum(axis=-1), which the pre filter
    forms anyway (``kalman.pre_filter``); rbar is sums / lam.
    """
    rbar = sums / r.shape[-1]
    spread = r - rbar[..., None]
    spread = spread.reshape(spread.shape[:-2] + (-1,))
    z = matvec(white, rbar)
    return vecdot(spread, spread) / sigma_w2 + vecdot(z, z)


def pearson_step(st: Chi2State, c) -> "tuple[Chi2State, np.ndarray]":
    """Slide the window over the samples c, whose last axis holds T steps
    after the window's trial axes; returns the window after the T samples
    and the Pearson statistic after each, (..., T).

    Step s evicts the window's oldest cell and appends the cell of
    c[..., s]. In time order, the window's cells followed by the block's
    are the sequence the block evicts from, so a block longer than L evicts
    samples it inserted, and the window after it is that sequence's last L.
    The counts after each step are the start counts plus a running sum of
    +-1 one-hots: small integers in float64, so every count is exact and
    equals the count of inserting and evicting one sample at a time.
    """
    cfg = st.cfg
    new = np.searchsorted(cfg.edges, c, side="right")
    T = new.shape[-1]
    order = np.concatenate([st.cells, new], axis=-1)
    bins = np.arange(cfg.M)
    delta = (new[..., None] == bins).astype(float) - (order[..., :T, None] == bins)
    counts = st.counts[..., None, :] + np.cumsum(delta, axis=-2)
    return Chi2State(cfg, order[..., T:], counts[..., -1, :]), _pearson(counts, cfg)


def np_cusum_step(S, dist, mu0: float, clamp: bool, out=None):
    """One step of the nonparametric CUSUM on the innovation norm: S + dist
    - mu0, floored at 0 when clamp is set. ``out``, when given, is the
    array that receives the step (and each partial result); without it the
    step takes floats and 0-d arrays too."""
    S = np.subtract(np.add(S, dist, out=out), mu0, out=out)
    return np.maximum(0.0, S, out=out) if clamp else S


def cosine_similarity(y: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Cosine of the angle over the last axis, one per trial; a zero vector
    counts as maximal dissimilarity."""
    y = np.asarray(y, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    ny, np_ = np.sqrt(vecdot(y, y)), np.sqrt(vecdot(y_pred, y_pred))
    cos = vecdot(y, y_pred)
    return np.divide(cos, ny * np_, out=np.full_like(cos, -1.0), where=(ny != 0.0) & (np_ != 0.0))
