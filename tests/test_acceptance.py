"""Acceptance gate: every criterion runs at its stated tolerance and prints
one PASS/FAIL line. Run with ``pytest tests/test_acceptance.py -v -s``.

The matched-threshold criteria share one no-attack calibration set: recorded
statistic paths are threshold-free, so thresholds for every detector are
read off the same runs (paired measurement), then delays and miss ratios
come from independent attacked runs.
"""

import math
import time

import numpy as np
import pytest

from gridwatch import harness, load_config
from gridwatch.detector import classify_meters, hypothesis_costs, mle_attack_params
from gridwatch.detector import DetectorConfig, ResidualBlock
from gridwatch.stealth import (
    GaussianPdf,
    construct_stealthy_gaussian,
    kl_gaussian,
    onoff_budget,
    symmetric_pair,
)

from oracles import brute_force_costs, min_eigenvalue_ratio, pre_half, random_residual_blocks
from stealth_audit import cusum_drift_audit, rho_audit

pytestmark = pytest.mark.acceptance

GAMMA, SIGMA2_MIN, SIGMA_W2 = 0.022, 1e-2, 1e-4
TARGET_FAP = 2500.0
CAL_TRIALS, CAL_HORIZON = 24, 8500

BASE = """
[model]
topology = ieee14
lambda = 5
sigma_v2 = 1e-4
sigma_w2 = 1e-4

[detector]
gamma = 0.022
sigma2_min = 1e-2
h = 1e9
np_q = 1e9
euclid_d = 1e9
mu0_samples = 60000
mu0_cache = {cache}

[shewhart]
phi = 10

[chi2]
m = 5
l = 80
varphi = 25.0133

[attack]
{attack}

[run]
trials = {trials}
horizon = {horizon}
tau = 100
eta = 50
seed = {seed}
"""


def report(num: int, ok: bool, detail: str) -> None:
    # visible with -s (or -rA, or on failure); the README's acceptance
    # command runs with -v -s so one line prints per criterion
    print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")


def wilson(successes: int, n: int, z: float = 1.96) -> "tuple[float, float]":
    if n == 0:
        return math.nan, math.nan
    p = successes / n
    denom = 1 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return center - half, center + half


@pytest.fixture(scope="session")
def cache_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("mu0") / "mu0.txt")


def make_cfg(tmp_path_factory, attack, trials, horizon, seed, cache):
    p = tmp_path_factory.mktemp("cfg") / "exp.cfg"
    p.write_text(
        BASE.format(attack=attack, trials=trials, horizon=horizon, seed=seed, cache=cache)
    )
    return load_config(p)


@pytest.fixture(scope="session")
def calibration(tmp_path_factory, cache_path):
    """No-attack paths and matched thresholds at the desk-scale target FAP."""
    t0 = time.time()
    cfg = make_cfg(tmp_path_factory, "kind = none", CAL_TRIALS, CAL_HORIZON, 424242, cache_path)
    ctx = harness.prepare(cfg)
    results = harness.run_trials(ctx, full_paths=True)
    thresholds, measured = {}, {}
    for name in ("alg1", "np_cusum", "euclidean"):
        paths, lengths = harness.detector_paths(results, name)
        thr, meas = harness.calibrate_threshold(paths, lengths, CAL_HORIZON, TARGET_FAP)
        thresholds[name], measured[name] = thr, meas.mean

    # Algorithm 2: vary h with the Shewhart and Pearson thresholds fixed
    g_paths, lengths = harness.detector_paths(results, "alg1")
    others = np.array([min(r.stop("shewhart"), r.stop("chi2")) for r in results])
    records = np.unique(
        np.concatenate([np.unique(np.maximum.accumulate(p[:n])) for p, n in zip(g_paths, lengths)])
    )
    grid_stops = harness.stopping_times_for_grid(g_paths, lengths, records)
    tilde = np.minimum(grid_stops, others[:, None])
    faps = np.minimum(tilde, CAL_HORIZON).mean(axis=0)
    j = int(np.argmin(np.abs(faps - TARGET_FAP)))
    thresholds["alg2"], measured["alg2"] = float(records[j]), float(faps[j])
    return {
        "ctx": ctx,
        "results": results,
        "thresholds": thresholds,
        "measured_fap": measured,
        "seconds": time.time() - t0,
    }


def stops_at(results, name, threshold):
    paths, lengths = harness.detector_paths(results, name)
    direction = harness.PATH_DIRECTION[name]
    return harness.stopping_times_for_grid(paths, lengths, np.array([threshold]), direction)[:, 0]


# ---------------------------------------------------------------------------


def test_criterion_1_mle_oracle_equivalence():
    """Closed forms match the brute-force constrained minimizer on 1e5 blocks."""
    t0 = time.time()
    rng = np.random.default_rng(20_260_101)
    cfg = DetectorConfig(GAMMA, SIGMA2_MIN)
    worst_cost = 0.0
    label_mismatches = 0
    for lam, n in ((1, 50_000), (5, 50_000)):
        E = random_residual_blocks(n, lam, rng)
        oracle = brute_force_costs(E, SIGMA_W2, GAMMA, SIGMA2_MIN)

        delta = E.sum(axis=1)
        zeta = (E * E).sum(axis=1)
        rb = ResidualBlock(
            e=E,
            delta=delta,
            zeta=zeta,
            rho=zeta + 2 * GAMMA * delta + lam * GAMMA**2,
            pi=zeta - 2 * GAMMA * delta + lam * GAMMA**2,
            gamma=GAMMA,
        )

        class _Model:
            pass

        model = _Model()
        model.lam, model.sigma_w2, model.K = lam, SIGMA_W2, n
        costs = hypothesis_costs(rb, model, cfg)
        cls = classify_meters(costs)
        a_hat, sigma_hat = mle_attack_params(rb, cls, cfg, model)

        for row, key in enumerate(("u0", "uf", "uj", "ufj")):
            worst_cost = max(worst_cost, float(np.max(np.abs(costs[row] - oracle[key]))))
        label_mismatches += int((cls.labels != oracle["labels"]).sum())
        chosen = costs[cls.labels, np.arange(n)]
        worst_cost = max(worst_cost, float(np.max(np.abs(chosen - oracle["chosen"]))))
        # estimates agree wherever the hypothesis agrees (it always does)
        np.testing.assert_allclose(a_hat, oracle["a_hat"], atol=1e-6)
        np.testing.assert_allclose(sigma_hat, oracle["sigma_hat"], atol=1e-6)
        if lam == 5:
            assert {0, 1, 2, 3} <= set(cls.labels.tolist())  # all regimes hit

    elapsed = time.time() - t0
    ok = worst_cost < 1e-6 and label_mismatches == 0 and elapsed < 120
    report(
        1,
        ok,
        f"oracle equivalence on 1e5 blocks: max|cost diff|={worst_cost:.2e}, "
        f"label mismatches={label_mismatches}, runtime={elapsed:.0f}s (<120s)",
    )
    assert worst_cost < 1e-6
    assert label_mismatches == 0
    assert elapsed < 120


def test_criterion_2_chi2_calibration(tmp_path_factory, cache_path):
    """Mean normalized innovation energy 115 +/- 2%; Pearson rate < 5e-4."""
    cfg = make_cfg(tmp_path_factory, "kind = none", 1, 10_000, 59, cache_path)
    ctx = harness.prepare(cfg)
    res = harness.run_trial(ctx, [(59, 0)], full_paths=True)[0]
    n = res.steps_run
    mean_c = float(np.nanmean(res.paths.c[:n]))
    rate = float((res.paths.chi[:n] >= 25.0133).mean())
    ok = 112.7 <= mean_c <= 117.3 and rate < 5e-4
    report(
        2,
        ok,
        f"10^4 clean steps: mean c_t={mean_c:.2f} in [112.7, 117.3]; "
        f"Pearson rate={rate:.1e} < 5e-4",
    )
    assert 112.7 <= mean_c <= 117.3
    assert rate < 5e-4


def test_criterion_3_stealth_construction_grid_and_drift():
    """KL equality < 1e-9 over a 20-point grid; drift audit slope CI holds 0."""
    grid = [
        (mu0, mu0 + d, s2, f * s2)
        for mu0 in (0.0,)
        for d in (0.5, 2.0)
        for s2 in (0.5, 1.5)
        for f in (-0.9, -0.3, 0.0, 0.6, 0.9)
    ]
    assert len(grid) == 20
    worst = 0.0
    for mu0, mu1, s2, phi in grid:
        f0, f1 = symmetric_pair(mu0, mu1, s2)
        f1p = construct_stealthy_gaussian(mu0, mu1, s2, phi)
        worst = max(worst, abs(kl_gaussian(f1p, f0) - kl_gaussian(f1p, f1)))

    f0, f1 = symmetric_pair(0.0, 2.0, 1.0)
    f1p = construct_stealthy_gaussian(0.0, 2.0, 1.0, 0.6)
    audit = cusum_drift_audit(f0, f1, f1p, seed=2026, steps=10_000, paths=12)
    ok = worst < 1e-9 and audit.contains_zero
    report(
        3,
        ok,
        f"20-point grid KL gap max={worst:.2e} < 1e-9; drift slope CI "
        f"({audit.ci_lo:+.4f}, {audit.ci_hi:+.4f}) contains 0",
    )
    assert worst < 1e-9
    assert audit.contains_zero


def test_criterion_4_case1_detection_ordering(tmp_path_factory, calibration, cache_path):
    """Algorithm 1 beats both benchmarks at matched false-alarm period."""
    t0 = time.time()
    thr, meas = calibration["thresholds"], calibration["measured_fap"]
    faps = [meas[n] for n in ("alg1", "np_cusum", "euclidean")]
    match_ratio = max(faps) / min(faps)

    cfg = make_cfg(
        tmp_path_factory, "kind = fdi\np = 0.5\nfdi_uniform = 0.02", 200, 500, 777, cache_path
    )
    ctx = harness.prepare(cfg)
    attacked = harness.run_trials(ctx, full_paths=True)
    delays = {
        name: harness.estimate_delay(list(stops_at(attacked, name, thr[name])), 100)
        for name in ("alg1", "np_cusum", "euclidean")
    }
    a, npc, euc = delays["alg1"], delays["np_cusum"], delays["euclidean"]
    separated_np = a.mean + a.ci_half < npc.mean - npc.ci_half
    separated_euc = a.mean + a.ci_half < euc.mean - euc.ci_half
    elapsed = calibration["seconds"] + (time.time() - t0)
    ok = match_ratio <= 1.25 and separated_np and separated_euc and elapsed < 600
    report(
        4,
        ok,
        f"matched FAPs {', '.join(f'{n}={meas[n]:.0f}' for n in delays)} "
        f"(ratio {match_ratio:.2f} <= 1.25); delays alg1={a.mean:.2f}+/-{a.ci_half:.2f} "
        f"< np_cusum={npc.mean:.2f}+/-{npc.ci_half:.2f}, "
        f"< euclidean={euc.mean:.2f}+/-{euc.ci_half:.2f} (95% CIs disjoint); "
        f"runtime {elapsed:.0f}s (<600s)",
    )
    assert match_ratio <= 1.25
    assert separated_np and separated_euc
    assert elapsed < 600


def test_criterion_5_case5_countermeasures(tmp_path_factory, calibration, cache_path):
    """Algorithm 2 misses fewer small-magnitude attacks at matched FAP."""
    thr, meas = calibration["thresholds"], calibration["measured_fap"]
    match_ratio = max(meas["alg1"], meas["alg2"]) / min(meas["alg1"], meas["alg2"])

    cfg = make_cfg(
        tmp_path_factory,
        "kind = hybrid\np = 0.5\nfdi_uniform = 0.005\njam_uniform = 0.5e-4,1e-4",
        200,
        170,
        888,
        cache_path,
    )
    ctx = harness.prepare(cfg)
    attacked = harness.run_trials(ctx, full_paths=True)

    stops1 = stops_at(attacked, "alg1", thr["alg1"])
    g_stops2 = stops_at(attacked, "alg1", thr["alg2"])
    others = np.array([min(r.stop("shewhart"), r.stop("chi2")) for r in attacked])
    stops2 = np.minimum(g_stops2, others)

    n = len(attacked)
    m1 = harness.missed_detection_ratio(list(stops1), 100, 50)
    m2 = harness.missed_detection_ratio(list(stops2), 100, 50)
    lo1, hi1 = wilson(round(m1 * n), n)
    lo2, hi2 = wilson(round(m2 * n), n)
    separated = hi2 < lo1
    ok = match_ratio <= 1.25 and m2 < m1 and separated
    report(
        5,
        ok,
        f"matched FAPs alg1={meas['alg1']:.0f} alg2={meas['alg2']:.0f} "
        f"(ratio {match_ratio:.2f}); miss alg2={m2:.3f} [{lo2:.3f},{hi2:.3f}] "
        f"< alg1={m1:.3f} [{lo1:.3f},{hi1:.3f}] with separated 95% CIs",
    )
    assert match_ratio <= 1.25
    assert m2 < m1
    assert separated


def test_criterion_6_recovery_mse(tmp_path_factory, cache_path):
    """Recovered estimates beat non-recovered ones throughout the window."""
    cfg = make_cfg(
        tmp_path_factory,
        "kind = hybrid\np = 0.5\nfdi_uniform = 0.1\njam_uniform = 1,2",
        200,
        150,
        31415,
        cache_path,
    )
    ctx = harness.prepare(cfg)
    results = harness.run_trials(ctx, log_steps=True)
    m0, m1 = harness.mse_curves(results)
    window = slice(101, 150)  # t in [tau+2, tau+50]
    ordered = bool(np.all(m1[window] < m0[window]))
    ratio = float((m0[window] / m1[window]).min())
    ok = ordered
    report(
        6,
        ok,
        f"200-trial averaged MSE: recovered < non-recovered at every "
        f"t in [102, 150] (min ratio {ratio:.1f}x)",
    )
    assert ordered


def test_criterion_7_structural_invariants(tmp_path_factory, calibration, cache_path):
    """Clamp, partition, min-rule, seed determinism, covariance health."""
    # g >= 0 on every recorded path
    g_ok = all(float(r.paths.g[: r.steps_run].min()) >= 0.0 for r in calibration["results"])

    # classification is a partition for arbitrary finite costs (1e6 meters)
    rng = np.random.default_rng(4)
    arr = rng.uniform(-1e6, 1e6, size=(4, 1_000_000))
    arr[:, : 10_000] = np.round(arr[:, : 10_000], -3)  # force exact ties too
    labels = classify_meters(arr).labels
    counts = np.bincount(labels, minlength=4)
    partition_ok = counts.sum() == 1_000_000 and np.all(labels >= 0) and np.all(labels < 4)

    # T-tilde = min(T, T', T'') path-wise on live runs
    cfg = make_cfg(
        tmp_path_factory, "kind = fdi\np = 0.5\nfdi_uniform = 0.02", 20, 300, 4711, cache_path
    )
    cfg.detector.h = 6.0
    cfg.detector.np_q = 3.0
    cfg.detector.euclid_d = 0.25
    ctx = harness.prepare(cfg)
    live = harness.run_trials(ctx)
    min_ok = all(
        r.stop("alg2") == min(r.stop("alg1"), r.stop("shewhart"), r.stop("chi2")) for r in live
    )

    # same seed -> byte-identical CSV
    sweep_cfg = make_cfg(
        tmp_path_factory, "kind = fdi\np = 0.5\nfdi_uniform = 0.02", 4, 160, 2024, cache_path
    )
    out1 = tmp_path_factory.mktemp("csv") / "a.csv"
    out2 = out1.parent / "b.csv"
    harness.write_tradeoff_csv(out1, harness.sweep_tradeoff(sweep_cfg, [6.0, 15.0]))
    harness.write_tradeoff_csv(out2, harness.sweep_tradeoff(sweep_cfg, [6.0, 15.0]))
    csv_ok = out1.read_bytes() == out2.read_bytes()

    # covariances stay PSD over 1e4 steps (both filters, attacked regime)
    from gridwatch.grid_model import simulate_step
    from gridwatch.kalman import KalmanState, initial_state
    from gridwatch.detector import algorithm1_step
    from gridwatch.attacks import apply_attack, realize_attack

    psd_cfg = make_cfg(
        tmp_path_factory,
        "kind = hybrid\np = 0.5\nfdi_uniform = 0.02\njam_uniform = 2e-4,4e-4",
        1,
        10_001,
        1,
        cache_path,
    )
    ctx2 = harness.prepare(psd_cfg)
    model = ctx2.model
    ss = np.random.SeedSequence((55, 0))
    sim_ss, a_ss, j_ss, _ = ss.spawn(4)
    x = ctx2.x0[None]  # a batch of one trial
    sim = [np.random.default_rng(sim_ss)]
    atk = [np.random.default_rng(a_ss)]
    jam = [np.random.default_rng(j_ss)]
    pre = post = initial_state(ctx2.x0[None], ctx2.p0)
    g = [0.0]
    det = DetectorConfig(GAMMA, SIGMA2_MIN)
    psd_ok = True
    for t in range(1, 10_001):
        X, Y = simulate_step(model, x, sim, 1)  # blocks of one step
        Y = apply_attack(model, Y, realize_attack(ctx2.cfg.attack, t, 1, atk, model.K), jam)
        x, y = X[:, 0], Y[:, 0]
        pre_step, pre_x, clean, beta_pre = pre_half(model, det, pre, y)
        step = algorithm1_step(post, g, model, det, y, pre_step, pre_x, clean, beta_pre)
        pre = KalmanState(pre_x, pre_step.P_upd)
        post, g = step.post, step.g
        if t % 200 == 0:
            psd_ok &= min_eigenvalue_ratio(pre.P[0]) >= -1e-10
            psd_ok &= min_eigenvalue_ratio(post.P[0]) >= -1e-10

    ok = g_ok and partition_ok and min_ok and csv_ok and psd_ok
    report(
        7,
        ok,
        f"g>=0 {g_ok}; partition(1e6) {partition_ok}; min-rule {min_ok}; "
        f"same-seed CSV bytes {csv_ok}; PSD over 1e4 steps {psd_ok}",
    )
    assert g_ok and partition_ok and min_ok and csv_ok and psd_ok


def test_supplementary_false_alarm_bands(calibration):
    """Countermeasure false-alarm periods sit in the published order bands.

    Exposure estimator over the pooled calibration steps: the chi-squared
    test at its published threshold has a period inside [3e3, 3e5] (order
    1e4 with x3 tolerance) and the Shewhart test at phi = 10 is near-silent
    over 1e4-step scales.
    """
    results = calibration["results"]

    def censored_period(name):
        # censored-exponential estimate: observed time to first event or
        # censor, divided by the event count
        exposure = sum(min(r.stop(name), r.steps_run) for r in results)
        events = sum(1 for r in results if r.stop(name) < math.inf)
        return exposure, events

    chi_exposure, chi_events = censored_period("chi2")
    shew_exposure, shew_events = censored_period("shewhart")
    assert chi_events >= 1
    chi_fap = chi_exposure / chi_events
    shew_rate = shew_events / shew_exposure
    ok = 3e3 <= chi_fap <= 3e5 and shew_rate <= 5e-4
    report(
        0,
        ok,
        f"(supplementary) chi2 FAP ~ {chi_fap:.0f} in [3e3, 3e5]; shewhart "
        f"rate {shew_rate:.1e} over {shew_exposure:.0f} clean steps",
    )
    assert 3e3 <= chi_fap <= 3e5
    assert shew_rate <= 5e-4


def test_criterion_8_onoff_budget_audit():
    """rho recursion stays below h' for 1e3 cycles on 50 random pairs."""
    rng = np.random.default_rng(99)
    worst_excess = -math.inf
    for _ in range(50):
        d = int(rng.integers(1, 4))
        mu0 = rng.normal(0, 1, d)
        mu1 = mu0 + rng.normal(0, 1, d)
        a = rng.standard_normal((d, d))
        b = rng.standard_normal((d, d))
        f0 = GaussianPdf(mu0, a @ a.T + 0.2 * np.eye(d))
        f1 = GaussianPdf(mu1, b @ b.T + 0.2 * np.eye(d))
        kl10 = kl_gaussian(f1, f0)
        h_prime = kl10 * float(rng.uniform(1.0, 3.0))
        budget = onoff_budget(f0, f1, h_prime)
        t_on = max(1, math.floor(budget.t_on_max))
        t_off = math.ceil(budget.t_off_min)
        peak, _ = rho_audit(budget.kl_10, budget.kl_01, t_on, t_off, cycles=1000)
        worst_excess = max(worst_excess, peak - h_prime)
    ok = worst_excess <= 1e-9
    report(8, ok, f"50 random pairs, 1e3 cycles: max(peak - h') = {worst_excess:.2e} <= 0")
    assert worst_excess <= 1e-9
