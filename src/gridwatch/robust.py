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
Pearson window and the cosine similarity. Each takes a leading trial axis;
the Pearson windows of a batch share one ring-buffer head, because all its
trials are at the same step. The Shewhart statistic is the GLLR itself, and
the harness forms the innovation norm and the nonparametric CUSUM inline
and applies every threshold with one first-crossing rule.
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
    """Ring buffer of cell indices with incrementally maintained counts.

    A batch holds the windows of B trials: cells (B, L), counts (B, M) and
    chi_stat (B,), with the head shared.
    """

    cfg: Chi2Config
    cells: np.ndarray  # (..., L) ints
    counts: np.ndarray  # (..., M)
    head: int = 0
    chi_stat: "float | np.ndarray" = 0.0

    @classmethod
    def from_samples(cls, cfg: Chi2Config, samples) -> "Chi2State":
        """The windows of L samples each along the last axis of ``samples``,
        at head 0."""
        samples = np.asarray(samples, dtype=float)
        if samples.shape[-1:] != (cfg.L,):
            raise ValueError(f"window needs exactly {cfg.L} samples")
        cells = np.searchsorted(cfg.edges, samples, side="right")
        counts = (cells[..., None] == np.arange(cfg.M)).sum(axis=-2).astype(float)
        return cls(cfg=cfg, cells=cells, counts=counts, chi_stat=_pearson(counts, cfg))

    def take(self, keep) -> "Chi2State":
        """The windows of the trials selected by ``keep``."""
        return Chi2State(self.cfg, self.cells[keep], self.counts[keep], self.head, self.chi_stat[keep])


def _pearson(counts: np.ndarray, cfg: Chi2Config) -> np.ndarray:
    expected = cfg.L * (1.0 / cfg.M)
    return ((counts - expected) ** 2 / expected).sum(axis=-1)


def chi2_sample_from_innovation(
    r: np.ndarray, white: np.ndarray, sigma_w2: float
) -> np.ndarray:
    """Normalized innovation energy c_t = r^T Q^{-1} r against the pre-filter
    prediction; chi-squared with K*lam degrees of freedom under no attack.

    r is the (..., K, lam) innovation and ``white`` the inverse W of the
    lower Cholesky factor of the meter-mean innovation covariance
    Sbar = M P_pred M^T + (sigma_w2/lam) I. Q = H P_pred H^T + sigma_w2 I acts
    as sigma_w2 I on the within-meter deviations and as lam Sbar on the
    meter means, so c_t = ||r - rbar kron 1||^2 / sigma_w2 + ||W rbar||^2.
    """
    rbar = r.sum(axis=-1) / r.shape[-1]
    spread = r - rbar[..., None]
    spread = spread.reshape(spread.shape[:-2] + (-1,))
    z = matvec(white, rbar)
    return vecdot(spread, spread) / sigma_w2 + vecdot(z, z)


def pearson_step(st: Chi2State, c_new) -> "tuple[Chi2State, np.ndarray]":
    """Evict the oldest sample, insert c_new, update counts in O(1); returns
    the window and its Pearson statistic.

    c_new has the trial axes of the window (none for a single window).
    """
    cfg = st.cfg
    cell = np.searchsorted(cfg.edges, c_new, side="right")
    bins = np.arange(cfg.M)
    st.counts -= bins == st.cells[..., st.head, None]
    st.counts += bins == np.asarray(cell)[..., None]
    st.cells[..., st.head] = cell
    st.head = (st.head + 1) % cfg.L
    st.chi_stat = _pearson(st.counts, cfg)
    return st, st.chi_stat


def np_cusum_step(S, dist, mu0: float, clamp: bool = False):
    """One step of the nonparametric CUSUM on the innovation norm: S + dist
    - mu0, floored at 0 when clamp is set."""
    S = S + dist - mu0
    return np.maximum(0.0, S) if clamp else S


def cosine_similarity(y: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Cosine of the angle over the last axis, one per trial; a zero vector
    counts as maximal dissimilarity."""
    y = np.asarray(y, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    ny, np_ = np.sqrt(vecdot(y, y)), np.sqrt(vecdot(y_pred, y_pred))
    cos = vecdot(y, y_pred)
    return np.divide(cos, ny * np_, out=np.full_like(cos, -1.0), where=(ny != 0.0) & (np_ != 0.0))
