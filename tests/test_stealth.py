import math

import numpy as np
import pytest

from gridwatch import (
    GaussianPdf,
    construct_stealthy_gaussian,
    kl_gaussian,
    onoff_budget,
    persistent_stealth_gap,
)
from gridwatch.stealth import symmetric_pair

from oracles import kl_quadrature_1d
from stealth_audit import common_kl_value, cusum_drift_audit, cusum_path, llr, rho_audit, sample


def test_kl_zero_iff_equal():
    p = GaussianPdf(np.array([1.0, -2.0]), np.array([[2.0, 0.3], [0.3, 1.0]]))
    assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)


def test_kl_univariate_half():
    p = GaussianPdf(np.array([0.0]), np.array([[1.0]]))
    q = GaussianPdf(np.array([1.0]), np.array([[1.0]]))
    assert kl_gaussian(p, q) == pytest.approx(0.5, rel=1e-12)
    assert kl_quadrature_1d(0.0, 1.0, 1.0, 1.0) == pytest.approx(0.5, rel=1e-6)


def test_kl_matches_quadrature_oracle():
    cases = [(0.3, 0.7, -1.2, 2.5), (0.0, 2.0, 0.0, 0.5), (-1.0, 1.3, 1.0, 1.3)]
    for mu_p, var_p, mu_q, var_q in cases:
        closed = kl_gaussian(
            GaussianPdf(np.array([mu_p]), np.array([[var_p]])),
            GaussianPdf(np.array([mu_q]), np.array([[var_q]])),
        )
        assert closed == pytest.approx(kl_quadrature_1d(mu_p, var_p, mu_q, var_q), rel=1e-6)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(17)
    for _ in range(10_000):
        d = rng.integers(1, 4)
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        p = GaussianPdf(rng.standard_normal(d), a @ a.T + 0.1 * np.eye(d))
        q = GaussianPdf(rng.standard_normal(d), b @ b.T + 0.1 * np.eye(d))
        val = kl_gaussian(p, q)
        assert val >= -1e-12
    assert kl_gaussian(p, p) == pytest.approx(0.0, abs=1e-12)


def test_non_pd_covariance_rejected():
    with pytest.raises(ValueError, match="positive definite"):
        GaussianPdf(np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_onoff_budget_direct_substitution():
    # equal divergences 0.5 with h' = 1
    f0 = GaussianPdf(np.array([0.0]), np.array([[1.0]]))
    f1 = GaussianPdf(np.array([1.0]), np.array([[1.0]]))
    b = onoff_budget(f0, f1, h_prime=1.0)
    assert b.kl_10 == pytest.approx(0.5)
    assert b.kl_01 == pytest.approx(0.5)
    assert b.t_on_max == pytest.approx(2.0)
    assert b.t_off_min == pytest.approx(2.0)
    assert b.duty_bound == pytest.approx(0.5)
    t_on, t_off = b.integerized()
    assert t_on == 2 and t_off == 3  # off strictly above the bound


def test_onoff_budget_asymmetric():
    # variance-only shift gives asymmetric divergences; the bounds must be
    # h'/KL(f1,f0), h'/KL(f0,f1) and duty KL01/(KL10+KL01) exactly
    f0 = GaussianPdf(np.array([0.0]), np.array([[1.0]]))
    f1 = GaussianPdf(np.array([0.0]), np.array([[3.0]]))
    b = onoff_budget(f0, f1, h_prime=2.0)
    assert b.kl_10 == pytest.approx(0.5 * (3.0 - 1.0 - math.log(3.0)))
    assert b.kl_01 == pytest.approx(0.5 * (1.0 / 3.0 - 1.0 + math.log(3.0)))
    assert b.t_on_max == pytest.approx(2.0 / b.kl_10)
    assert b.t_off_min == pytest.approx(2.0 / b.kl_01)
    assert b.duty_bound == pytest.approx(b.kl_01 / (b.kl_10 + b.kl_01))
    # worked asymmetric example: divergences 1.0 / 0.25 at h' = 1 give
    # T_on <= 1, T_off > 4, duty bound 0.2
    assert 1.0 / 1.0 == pytest.approx(1.0)
    assert 1.0 / 0.25 == pytest.approx(4.0)
    assert 0.25 / (1.0 + 0.25) == pytest.approx(0.2)


def test_onoff_budget_precondition():
    f0 = GaussianPdf(np.array([0.0]), np.array([[1.0]]))
    f1 = GaussianPdf(np.array([3.0]), np.array([[1.0]]))  # KL = 4.5
    with pytest.raises(ValueError, match="h'"):
        onoff_budget(f0, f1, h_prime=1.0)


def test_rho_audit_respects_budget():
    for mu1 in (0.8, 2.0):
        f0 = GaussianPdf(np.array([0.0]), np.array([[1.0]]))
        f1 = GaussianPdf(np.array([mu1]), np.array([[1.0]]))
        b = onoff_budget(f0, f1, h_prime=3.0)
        t_on = max(1, math.floor(b.t_on_max))
        t_off = math.ceil(b.t_off_min)
        peak, path = rho_audit(b.kl_10, b.kl_01, t_on, t_off, cycles=1000)
        assert peak <= b.h_prime + 1e-9
        assert path.min() >= 0.0
        # the emission integerization satisfies the audit as well
        t_on2, t_off2 = b.integerized()
        peak2, _ = rho_audit(b.kl_10, b.kl_01, t_on2, t_off2, cycles=1000)
        assert peak2 <= b.h_prime + 1e-9


def test_persistent_gap_trivial_cases():
    f0 = GaussianPdf(np.array([0.0, 0.0]), np.eye(2))
    f1 = GaussianPdf(np.array([2.0, 2.0]), np.eye(2))
    assert persistent_stealth_gap(f0, f0, f1) == pytest.approx(-kl_gaussian(f0, f1))
    assert persistent_stealth_gap(f1, f0, f1) == pytest.approx(kl_gaussian(f1, f0))


def test_gap_matches_monte_carlo_llr_drift():
    f0, f1 = symmetric_pair(0.0, 2.0, 1.0)
    f1p = construct_stealthy_gaussian(0.0, 2.0, 1.0, 0.6)
    rng = np.random.default_rng(23)
    y = sample(f1p, rng, 1_000_000)
    vals = llr(y, f0, f1)
    se = vals.std(ddof=1) / math.sqrt(vals.size)
    gap = persistent_stealth_gap(f1p, f0, f1)
    assert abs(vals.mean() - gap) <= 3 * se


def test_construction_printed_values():
    # phi = 0 -> common divergence (mu1-mu0)^2 / (4 sigma2) = 1.0
    f0, f1 = symmetric_pair(0.0, 2.0, 1.0)
    f1p = construct_stealthy_gaussian(0.0, 2.0, 1.0, 0.0)
    assert kl_gaussian(f1p, f0) == pytest.approx(1.0, rel=1e-12)
    assert kl_gaussian(f1p, f1) == pytest.approx(1.0, rel=1e-12)
    # phi = 0.6 -> 1 + 0.5 log(1/0.64)
    f1p = construct_stealthy_gaussian(0.0, 2.0, 1.0, 0.6)
    expected = 1.0 + 0.5 * math.log(1.0 / 0.64)
    assert expected == pytest.approx(1.2231, abs=5e-5)
    assert kl_gaussian(f1p, f0) == pytest.approx(expected, rel=1e-12)
    assert common_kl_value(0.0, 2.0, 1.0, 0.6) == pytest.approx(expected, rel=1e-12)
    # equality holds to 1e-10
    assert abs(kl_gaussian(f1p, f0) - kl_gaussian(f1p, f1)) < 1e-10


def test_construction_infeasible_correlation():
    with pytest.raises(ValueError, match="phi"):
        construct_stealthy_gaussian(0.0, 2.0, 1.0, 1.0)


def test_cusum_path_recursion():
    vals = np.array([1.0, -2.0, 0.5, 0.5, -0.2])
    g = cusum_path(vals)
    expected = []
    acc = 0.0
    for v in vals:
        acc = max(0.0, acc + v)
        expected.append(acc)
    np.testing.assert_allclose(g, expected)


def test_drift_audit_discriminates():
    f0, f1 = symmetric_pair(0.0, 2.0, 1.0)
    f1p = construct_stealthy_gaussian(0.0, 2.0, 1.0, 0.6)
    audit = cusum_drift_audit(f0, f1, f1p, seed=100, steps=4000, paths=10)
    assert audit.contains_zero
    # honest attack density drifts up unmistakably
    audit_attack = cusum_drift_audit(f0, f1, f1, seed=100, steps=4000, paths=10)
    assert not audit_attack.contains_zero
    assert audit_attack.slope_mean > 0
