"""Attacker-side mathematics for stealth against CUSUM detectors.

Against a known-pdf CUSUM an attacker has two stealth routes:

* on-off scheduling: with attacker threshold h', on periods bounded by
  h'/KL(f1,f0) and off periods longer than h'/KL(f0,f1) keep a provable
  lower bound on the detector's expected statistic below h'; the achievable
  duty fraction is at most KL(f0,f1) / (KL(f1,f0) + KL(f0,f1));
* persistent distribution shaping: any attack density f1' with
  KL(f1',f0) = KL(f1',f1) gives the log-likelihood ratio zero mean, so the
  detection statistic has no positive drift.

For the symmetric two-dimensional Gaussian family there is a closed-form
construction of such an f1': equal component means at the midpoint of the
clean/attacked means and a correlated covariance, with common divergence
(mu1-mu0)^2/(4 s2) + 0.5 log(s2^2 / (s2^2 - phi^2)).

These tools generate principled stealthy attack programs and audit how the
robust detectors hold up against them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve
from scipy.special import stdtrit


@dataclass(frozen=True)
class GaussianPdf:
    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self):
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if cov.shape != (mean.size, mean.size):
            raise ValueError("mean/cov dimension mismatch")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        try:
            factor = cho_factor(0.5 * (cov + cov.T), lower=True)
        except LinAlgError as exc:
            raise ValueError("covariance must be symmetric positive definite") from exc
        object.__setattr__(self, "_chol", factor)

    @property
    def dim(self) -> int:
        return self.mean.size

    def logdet(self) -> float:
        return 2.0 * float(np.log(np.diag(self._chol[0])).sum())

    def solve(self, b: np.ndarray) -> np.ndarray:
        return cho_solve(self._chol, b)

    def logpdf(self, y: np.ndarray) -> np.ndarray:
        y = np.atleast_2d(y)
        d = y - self.mean
        quad = np.einsum("ij,ij->i", d, self.solve(d.T).T)
        return -0.5 * (self.dim * math.log(2 * math.pi) + self.logdet() + quad)

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        L = np.linalg.cholesky(self.cov)
        return self.mean + rng.standard_normal((n, self.dim)) @ L.T


def kl_gaussian(p: GaussianPdf, q: GaussianPdf) -> float:
    """Closed-form KL(p, q) between multivariate normals."""
    if p.dim != q.dim:
        raise ValueError("dimension mismatch")
    d = p.dim
    diff = q.mean - p.mean
    trace = float(np.trace(q.solve(p.cov)))
    quad = float(diff @ q.solve(diff))
    return 0.5 * (trace + quad - d + q.logdet() - p.logdet())


@dataclass(frozen=True)
class OnOffBudget:
    h_prime: float
    kl_10: float  # KL(f1, f0)
    kl_01: float  # KL(f0, f1)
    t_on_max: float
    t_off_min: float
    duty_bound: float

    def integerized(self) -> "tuple[int, int]":
        """Integer periods honoring the bounds: floor for on, the smallest
        integer strictly above the bound for off."""
        t_on = max(1, math.floor(self.t_on_max))
        t_off = math.floor(self.t_off_min) + 1
        return t_on, t_off


def onoff_budget(f0: GaussianPdf, f1: GaussianPdf, h_prime: float) -> OnOffBudget:
    kl_10 = kl_gaussian(f1, f0)
    kl_01 = kl_gaussian(f0, f1)
    if h_prime < kl_10:
        raise ValueError(
            f"attacker threshold h'={h_prime} must be >= KL(f1,f0)={kl_10:.6g}"
        )
    if kl_10 <= 0 or kl_01 <= 0:
        raise ValueError("distributions must differ for an on-off budget")
    return OnOffBudget(
        h_prime=h_prime,
        kl_10=kl_10,
        kl_01=kl_01,
        t_on_max=h_prime / kl_10,
        t_off_min=h_prime / kl_01,
        duty_bound=kl_01 / (kl_10 + kl_01),
    )


def persistent_stealth_gap(f1p: GaussianPdf, f0: GaussianPdf, f1: GaussianPdf) -> float:
    """Expected LLR drift under the shaped density: KL(f1',f0) - KL(f1',f1).

    A gap <= 0 certifies that the detection statistic has no positive mean
    drift under f1'.
    """
    return kl_gaussian(f1p, f0) - kl_gaussian(f1p, f1)


def construct_stealthy_gaussian(
    mu0: float, mu1: float, sigma2: float, phi_corr: float
) -> GaussianPdf:
    """Two-dimensional shaped attack density with the zero-drift property.

    Requires sigma2^2 - phi_corr^2 > 0; the resulting density satisfies
    KL(f1',f0) = KL(f1',f1) exactly for f0 = N([mu0,mu0], sigma2 I) and
    f1 = N([mu1,mu1], sigma2 I).
    """
    if sigma2 ** 2 - phi_corr ** 2 <= 0:
        raise ValueError("need sigma2^2 - phi^2 > 0 for a valid covariance")
    m = 0.5 * (mu0 + mu1)
    return GaussianPdf(
        mean=np.array([m, m]),
        cov=np.array([[sigma2, phi_corr], [phi_corr, sigma2]]),
    )


def symmetric_pair(mu0: float, mu1: float, sigma2: float) -> "tuple[GaussianPdf, GaussianPdf]":
    """The clean/attacked pair the construction above is built against."""
    f0 = GaussianPdf(np.array([mu0, mu0]), sigma2 * np.eye(2))
    f1 = GaussianPdf(np.array([mu1, mu1]), sigma2 * np.eye(2))
    return f0, f1


def common_kl_value(mu0: float, mu1: float, sigma2: float, phi_corr: float) -> float:
    """Closed form of the shared divergence of the shaped density."""
    return (mu1 - mu0) ** 2 / (4.0 * sigma2) + 0.5 * math.log(
        sigma2 ** 2 / (sigma2 ** 2 - phi_corr ** 2)
    )


def llr(y: np.ndarray, f0: GaussianPdf, f1: GaussianPdf) -> np.ndarray:
    """Log-likelihood ratio log f1(y)/f0(y) for rows of y."""
    return f1.logpdf(y) - f0.logpdf(y)


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
        y = f1p.sample(rng, steps)
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
