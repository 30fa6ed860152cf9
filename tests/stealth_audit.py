"""Audits of the attacker-side stealth mathematics in ``gridwatch.stealth``.

The library computes on-off budgets and the zero-drift shaped density;
these helpers check them on a scalar known-pdf CUSUM: the closed form of
the shaped density's common divergence, the proof's lower-bound recursion
on the expected statistic over on-off cycles, and a slope test on CUSUM
paths driven by samples of the shaped density.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import stdtrit

from gridwatch.stealth import GaussianPdf


def logpdf(pdf: GaussianPdf, y: np.ndarray) -> np.ndarray:
    """Log density of ``pdf`` at the rows of y."""
    y = np.atleast_2d(y)
    d = y - pdf.mean
    quad = np.einsum("ij,ij->i", d, pdf.solve(d.T).T)
    return -0.5 * (pdf.dim * math.log(2 * math.pi) + pdf.logdet() + quad)


def sample(pdf: GaussianPdf, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of ``pdf``, one per row."""
    L = np.linalg.cholesky(pdf.cov)
    return pdf.mean + rng.standard_normal((n, pdf.dim)) @ L.T


def common_kl_value(mu0: float, mu1: float, sigma2: float, phi_corr: float) -> float:
    """Closed form of the shared divergence of the shaped density."""
    return (mu1 - mu0) ** 2 / (4.0 * sigma2) + 0.5 * math.log(
        sigma2 ** 2 / (sigma2 ** 2 - phi_corr ** 2)
    )


def llr(y: np.ndarray, f0: GaussianPdf, f1: GaussianPdf) -> np.ndarray:
    """Log-likelihood ratio log f1(y)/f0(y) for rows of y."""
    return logpdf(f1, y) - logpdf(f0, y)


def cusum_path(llr_values: np.ndarray) -> np.ndarray:
    """Known-pdf CUSUM statistic path g_t = max(0, g_{t-1} + llr_t)."""
    s = np.cumsum(np.asarray(llr_values, dtype=float))
    running_min = np.minimum.accumulate(np.minimum(s, 0.0))
    return s - running_min


def rho_audit(
    kl_10: float, kl_01: float, t_on: int, t_off: int, cycles: int
) -> "tuple[float, np.ndarray]":
    """Replay the proof's lower-bound recursion on E[g_t] over full cycles.

    rho_t = max(0, rho_{t-1} + E[llr_t]) with drift +KL(f1,f0) during on
    periods and -KL(f0,f1) during off periods. Returns the peak and the path.
    """
    period = t_on + t_off
    rho = 0.0
    path = np.empty(cycles * period)
    i = 0
    for _ in range(cycles):
        for _ in range(t_on):
            rho = max(0.0, rho + kl_10)
            path[i] = rho
            i += 1
        for _ in range(t_off):
            rho = max(0.0, rho - kl_01)
            path[i] = rho
            i += 1
    return float(path.max()), path


@dataclass(frozen=True)
class SlopeAudit:
    slope_mean: float
    ci_lo: float
    ci_hi: float
    per_path: np.ndarray

    @property
    def contains_zero(self) -> bool:
        return self.ci_lo <= 0.0 <= self.ci_hi


def cusum_drift_audit(
    f0: GaussianPdf,
    f1: GaussianPdf,
    f1p: GaussianPdf,
    seed,
    steps: int = 10_000,
    paths: int = 12,
) -> SlopeAudit:
    """Drive the known-pdf CUSUM with f1' samples and test for a linear trend.

    Fits an ordinary least-squares slope to each replicate path and reports a
    t-based interval from the across-path dispersion *without* 1/sqrt(R)
    shrinkage: within-path autocorrelation of the clamped statistic makes
    single-path standard errors meaningless, and the stealth question is
    whether a typical path shows a trend distinguishable from zero. A real
    drift (honest attack) sits many path-dispersions away from zero.
    """
    rng = np.random.default_rng(seed)
    t = np.arange(1, steps + 1, dtype=float)
    tc = t - t.mean()
    denom = float(tc @ tc)
    slopes = np.empty(paths)
    for i in range(paths):
        y = sample(f1p, rng, steps)
        g = cusum_path(llr(y, f0, f1))
        slopes[i] = float(tc @ g) / denom
    mean = float(slopes.mean())
    spread = float(slopes.std(ddof=1))
    tq = float(stdtrit(paths - 1, 0.975))  # Student-t 97.5% quantile
    return SlopeAudit(
        slope_mean=mean,
        ci_lo=mean - tq * spread,
        ci_hi=mean + tq * spread,
        per_path=slopes,
    )
