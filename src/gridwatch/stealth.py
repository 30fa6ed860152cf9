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

These tools generate principled stealthy attack programs. The audits of
them on a scalar known-pdf CUSUM (the lower-bound recursion over on-off
cycles and the slope test of the shaped density) live with the tests, in
``tests/stealth_audit.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve


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
