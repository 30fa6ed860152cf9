import ast
import errno
import importlib
import itertools
import importlib.util
import math
import re
import stat
import tempfile
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from gridwatch import attacks, detector, harness, kalman, load_config, robust
from gridwatch.detector import cusum_step
from gridwatch.expconfig import ConfigError
from gridwatch.grid_model import build_model, matvec
from gridwatch.harness import BLOCK_STEPS
from gridwatch.robust import ShewhartConfig

import oracles
from conftest import attack_grid, dense_stable_A
from oracles import dense_trial

BASE = """
[model]
topology = ieee14
lambda = 5
sigma_v2 = 1e-4
sigma_w2 = 1e-4

[detector]
gamma = 0.022
sigma2_min = 1e-2
h = {h}
np_q = {np_q}
euclid_d = {euclid_d}
cosine_d = {cosine_d}
np_clamp = {np_clamp}
mu0_samples = 4000
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
tau = {tau}
eta = 50
seed = {seed}
"""


def make_cfg(tmp_path, attack="kind = none", h=8.0, np_q=6.0, euclid_d=0.35,
             trials=2, horizon=220, tau=100, seed=3, name="exp.cfg", cache=None,
             cosine_d=-0.5, np_clamp=False):
    text = BASE.format(
        attack=attack,
        h=h,
        np_q=np_q,
        euclid_d=euclid_d,
        cosine_d=cosine_d,
        np_clamp=str(np_clamp).lower(),
        trials=trials,
        horizon=horizon,
        tau=tau,
        seed=seed,
        cache=cache or "none",
    )
    p = tmp_path / name
    p.write_text(text)
    return load_config(p)


CASE1 = "kind = fdi\np = 0.5\nfdi_uniform = 0.02"
HYBRID = "kind = hybrid\np = 0.5\nfdi_uniform = 0.02\njam_uniform = 2e-4,4e-4"
STRONG_FDI = "kind = fdi\np = 0.5\nfdi_uniform = 0.05"
ONOFF = (
    "kind = onoff\ninner = hybrid\nt_on = 1\nt_off = 3\np = 0.5\n"
    "fdi_uniform = 0.02\njam_uniform = 2e-4,4e-4"
)
FAULT = "kind = topology-fault\nfault_meters = 15"


@pytest.fixture(scope="module")
def mu0_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache") / "mu0.txt")


def test_same_seed_identical_trial(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    a = harness.run_trial(ctx, [(3, 0)], full_paths=True)[0]
    b = harness.run_trial(ctx, [(3, 0)], full_paths=True)[0]
    assert a.meas_hash == b.meas_hash
    assert a.stops == b.stops
    np.testing.assert_array_equal(a.paths.g, b.paths.g)
    np.testing.assert_array_equal(a.paths.chi, b.paths.chi)


def test_no_attack_huge_thresholds_all_censored(tmp_path, mu0_cache):
    cfg = make_cfg(
        tmp_path, attack="kind = none", h=1e9, np_q=1e9, euclid_d=1e9,
        horizon=150, cache=mu0_cache,
    )
    ctx = harness.prepare(cfg)
    res = harness.run_trial(ctx, [(1, 0)])[0]
    for name, T in res.stops.items():
        if name != "cosine":
            assert T == math.inf, name
    assert res.steps_run == 150


def test_t_tilde_is_min_and_replay_consistent(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, horizon=260, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    res = harness.run_trial(ctx, [(9, 0)], full_paths=True)[0]
    assert res.stop("alg2") == min(
        res.stop("alg1"), res.stop("shewhart"), res.stop("chi2")
    )
    n = res.steps_run

    # replay the CUSUM recursion over the recorded GLLR stream with the
    # contract op; the g path and the h-crossing must match exactly
    g = 0.0
    g_replay = np.empty(n)
    for t in range(1, n + 1):
        g, _ = cusum_step(g, float(res.paths.beta[t - 1]))
        g_replay[t - 1] = g
    np.testing.assert_array_equal(g_replay, res.paths.g[:n])
    crossing = np.flatnonzero(res.paths.g[:n] >= ctx.h)
    expected = float(crossing[0] + 1) if crossing.size else math.inf
    assert res.stop("alg1") == expected

    # replay the sliding-window test over the recorded c stream with the
    # same seeded initial window, one sample at a time
    ss = np.random.SeedSequence((9, 0))
    chi2_ss = ss.spawn(4)[3]
    st = oracles.initialize_window(ctx.chi2, 115, np.random.default_rng(chi2_ss))
    chi_replay = np.empty(n)
    for t in range(1, n + 1):
        st, chi = oracles.pearson_step(st, float(res.paths.c[t - 1]))
        chi_replay[t - 1] = chi
    np.testing.assert_array_equal(chi_replay, res.paths.chi[:n])

    # shewhart crossing from the beta stream
    hits = np.flatnonzero(res.paths.beta[:n] >= 10.0)
    expected = float(hits[0] + 1) if hits.size else math.inf
    assert res.stop("shewhart") == expected

    # nonparametric CUSUM replay: the recorded euclidean path holds the raw
    # innovation norms, so the S recursion reconstructs from it exactly
    S_replay = np.cumsum(res.paths.euclid[:n] - ctx.mu0)
    np.testing.assert_allclose(S_replay, res.paths.np_S[:n], rtol=0, atol=1e-9)


def test_paired_log_discipline(tmp_path, mu0_cache):
    # different detector thresholds, same seed -> byte-identical measurements
    cfg_a = make_cfg(tmp_path, attack=CASE1, h=5.0, name="a.cfg", cache=mu0_cache)
    cfg_b = make_cfg(tmp_path, attack=CASE1, h=50.0, np_q=99.0, name="b.cfg", cache=mu0_cache)
    ra = harness.run_trial(harness.prepare(cfg_a), [(4, 1)], full_paths=True)[0]
    rb = harness.run_trial(harness.prepare(cfg_b), [(4, 1)], full_paths=True)[0]
    assert ra.meas_hash == rb.meas_hash
    np.testing.assert_array_equal(ra.paths.beta, rb.paths.beta)


def test_estimate_delay_examples():
    d = harness.estimate_delay([102.0, 105.0, 103.0], tau=100)
    assert d.mean == pytest.approx(10.0 / 3.0)
    assert d.n_detected == 3 and d.n_false_alarm == 0 and d.n_missed == 0

    d = harness.estimate_delay([102.0, 50.0, math.inf], tau=100)
    assert d.n_false_alarm == 1 and d.n_missed == 1 and d.n_detected == 1
    assert d.mean == pytest.approx(2.0)

    d = harness.estimate_delay([math.inf, math.inf], tau=100)
    assert math.isnan(d.mean) and d.n_missed == 2

    with pytest.raises(ValueError):
        harness.estimate_delay([], tau=100)


def test_false_alarm_period_censoring():
    s = harness.estimate_false_alarm_period([50.0, math.inf, 200.0], horizon=100)
    assert s.n_censored == 2
    assert s.mean == pytest.approx((50 + 100 + 100) / 3)


def test_missed_detection_ratio_examples():
    assert harness.missed_detection_ratio([100.0] * 4, 100, 50) == 0.0
    assert harness.missed_detection_ratio([math.inf] * 4, 100, 50) == 1.0
    stops = [100.0, 149.0, 150.0, 99.0, math.inf, 120.0, 160.0, 80.0, 130.0, math.inf]
    # hits: 100, 149, 120, 130 -> 4 of 10
    assert harness.missed_detection_ratio(stops, 100, 50) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        harness.missed_detection_ratio([], 100, 50)


def test_delay_and_miss_match_the_loop_over_trials():
    # the array forms against the loops they replaced, bit for bit, on
    # random stop lists with misses, early stops and int or float onsets
    rng = np.random.default_rng(12)
    for _ in range(2000):
        n = int(rng.integers(1, 60))
        stops = [math.inf if rng.random() < 0.2 else int(rng.integers(1, 500)) for _ in range(n)]
        tau = int(rng.integers(0, 300)) if rng.random() < 0.8 else float(rng.uniform(0, 300))
        eta = int(rng.integers(1, 100))
        # by repr, so that nan fields compare equal and an int field stays int
        assert repr(harness.estimate_delay(stops, tau)) == repr(oracles.estimate_delay(stops, tau))
        got = harness.missed_detection_ratio(stops, tau, eta)
        assert repr(got) == repr(oracles.missed_detection_ratio(stops, tau, eta))


def test_first_detector_ratio_examples():
    def fake(stops):
        return harness.TrialResult(
            seed=0, stops=stops, tau_hat=1, steps_run=10, meas_hash="",
        )

    names = ["alg1", "chi2"]
    rs = [fake({"alg1": 105.0, "chi2": math.inf})]
    assert harness.first_detector_ratio(rs, names, 100) == {"alg1": 1.0, "chi2": 0.0}
    rs = [fake({"alg1": 105.0, "chi2": 105.0})] * 3
    assert harness.first_detector_ratio(rs, names, 100) == {"alg1": 1.0, "chi2": 1.0}
    # hand-checked 5-trial log: alg1 wins 2, chi2 wins 2, one simultaneous
    rs = [
        fake({"alg1": 103.0, "chi2": 110.0}),
        fake({"alg1": 108.0, "chi2": 104.0}),
        fake({"alg1": 105.0, "chi2": 105.0}),
        fake({"alg1": 101.0, "chi2": math.inf}),
        fake({"alg1": math.inf, "chi2": 140.0}),
    ]
    out = harness.first_detector_ratio(rs, names, 100)
    assert out == {"alg1": 3 / 5, "chi2": 3 / 5}


def test_first_detector_ratio_without_trials_is_value_error():
    with pytest.raises(ValueError, match="no trials"):
        harness.first_detector_ratio([], ["alg1", "chi2"], 100)


def test_geometric_false_alarm_law():
    # synthetic instantaneous statistic firing with probability p per step:
    # measured mean stopping time must match 1/p within 10%
    rng = np.random.default_rng(31)
    p = 0.02
    horizon = 2000
    paths = [(rng.random(horizon) < p).astype(float) for _ in range(3000)]
    stops = harness.stopping_times_for_grid(paths, [horizon] * 3000, np.array([0.5]))
    fap = harness.estimate_false_alarm_period(list(stops[:, 0]), horizon)
    assert fap.mean == pytest.approx(1 / p, rel=0.10)


def test_stopping_times_grid_directions():
    path = np.array([0.1, 0.5, 0.3, 0.9])
    up = harness.stopping_times_for_grid([path], [4], np.array([0.4, 0.5, 0.85, 2.0]))
    np.testing.assert_array_equal(up[0], [2.0, 2.0, 4.0, math.inf])  # 0.5 reached at step 2
    down = harness.stopping_times_for_grid([path], [4], np.array([0.1, 0.05]), direction=-1)
    np.testing.assert_array_equal(down[0], [1.0, math.inf])


def test_stopping_rule_inclusive_at_recorded_values(tmp_path, mu0_cache):
    # paths do not depend on thresholds: rerun a trial with each threshold at
    # the extreme of its own recorded path. Every path detector, cosine's
    # downward rule included, must stop at the first step with that value
    # (a strict rule would never stop), as stopping_times_for_grid says.
    cfg = make_cfg(tmp_path, attack=CASE1, horizon=260, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    ref = harness.run_trial(ctx, [(9, 0)], full_paths=True)[0]
    first, thr = {}, {}
    for name, field, direction in harness.PATH_DETECTORS:
        path = getattr(ref.paths, field)
        first[name] = int(np.argmax(path) if direction > 0 else np.argmin(path))
        thr[name] = path[first[name]]
    ctx = replace(
        ctx,
        h=thr["alg1"],
        shewhart=ShewhartConfig(thr["shewhart"]),
        chi2=replace(ctx.chi2, varphi=thr["chi2"]),
        np_q=thr["np_cusum"],
        euclid_d=thr["euclidean"],
        cosine_d=thr["cosine"],
    )
    assert ctx.thresholds == thr
    res = harness.run_trial(ctx, [(9, 0)], full_paths=True)[0]
    for name, field, direction in harness.PATH_DETECTORS:
        path = getattr(res.paths, field)
        np.testing.assert_array_equal(path, getattr(ref.paths, field), err_msg=name)
        assert res.stop(name) == first[name] + 1, name
        grid = harness.stopping_times_for_grid([path], [res.steps_run], [thr[name]], direction)
        assert res.stop(name) == grid[0, 0], name
    assert res.stop("alg2") == min(res.stop(name) for name in harness.ALG2)
    assert harness.run_trial(ctx, [(9, 0)])[0].stops == res.stops  # early exit too


def test_calibrate_threshold_hits_target():
    rng = np.random.default_rng(5)
    paths = [np.maximum.accumulate(rng.random(4000)) for _ in range(200)]
    thr, measured = harness.calibrate_threshold(paths, [4000] * 200, 4000, target_fap=500.0)
    assert measured.mean == pytest.approx(500.0, rel=0.25)


def test_sweep_monotone_and_csv_deterministic(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, trials=8, horizon=180, cache=mu0_cache)
    # thresholds above the pre-attack g range, so no trial false-alarms and
    # the recorded stopping times are path-wise monotone in h
    h_list = [6.0, 12.0, 40.0]
    points = harness.sweep_tradeoff(cfg, h_list)
    faps = [p.fap for p in points]
    delays = [p.delay for p in points]
    assert faps == sorted(faps)  # path-wise monotone
    assert all(p.delay_false_alarms == 0 for p in points)
    assert delays == sorted(delays)
    with pytest.raises(ValueError):
        harness.sweep_tradeoff(cfg, [5.0, 1.0])

    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    harness.write_tradeoff_csv(out1, points)
    harness.write_tradeoff_csv(out2, harness.sweep_tradeoff(cfg, h_list))
    assert out1.read_bytes() == out2.read_bytes()


def test_no_attack_rarely_stops_at_h25(tmp_path, mu0_cache):
    # clean runs at the evaluation parameters: h = 25 not reached within
    # 1e3 steps in (at least) 99% of seeded trials; desk scale uses 10
    cfg = make_cfg(tmp_path, attack="kind = none", h=25.0, np_q=1e9,
                   euclid_d=1e9, trials=10, horizon=1000, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    results = harness.run_trials(ctx)
    stopped = sum(1 for r in results if r.stop("alg1") < math.inf)
    assert stopped == 0


def test_sync_events_frequent_without_attack(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack="kind = none", horizon=400, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    res = harness.run_trial(ctx, [(11, 0)], full_paths=True)[0]
    frac_zero = float((res.paths.g[: res.steps_run] == 0.0).mean())
    assert frac_zero > 0.5


def test_mse__logging_and_pre_attack_agreement(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, trials=4, horizon=130, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    results = harness.run_trials(ctx, log_steps=True, full_paths=True)
    m0, m1 = harness.mse_curves(results)
    pre = slice(20, 99)
    # sync events keep the recovered estimate agreeing with the clean one
    assert np.nanmean(np.abs(m0[pre] - m1[pre])) < 0.5 * np.nanmean(m0[pre])


def test_mse_curves_need_every_trial_logged(tmp_path, mu0_cache):
    # a trial without step logging, with or without paths, mixed in with
    # logged ones or alone, is the same usage error as no logging at all
    ctx = harness.prepare(make_cfg(tmp_path, attack=CASE1, trials=1, horizon=40, tau=20, cache=mu0_cache))
    logged = harness.run_trial(ctx, [(2, 0)], log_steps=True)
    unlogged = harness.run_trial(ctx, [(2, 1)], full_paths=True) + harness.run_trial(ctx, [(2, 2)])
    m0, m1 = harness.mse_curves(logged)
    assert m0.shape == m1.shape == (40,)
    for results in (logged + unlogged, unlogged[::-1] + logged, unlogged, []):
        with pytest.raises(ValueError, match="per-step logging was not enabled"):
            harness.mse_curves(results)


def test_trial_log_csv_schema(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, trials=1, horizon=120, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    res = harness.run_trial(ctx, [(2, 0)], log_steps=True)[0]
    out = tmp_path / "log.csv"
    harness.write_trial_log_csv(out, res)
    lines = out.read_text().splitlines()
    assert lines[0] == "t,g,beta,chi,mse0,mse1"
    assert len(lines) == res.steps_run + 1


def test_mu0_cache_roundtrip(tmp_path, ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    cache = tmp_path / "mu0.txt"
    v1 = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=2000, cache=cache)
    assert cache.exists()
    v2 = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=2000, cache=cache)
    assert v1 == v2  # served from the cache
    # model change invalidates the key (different fingerprint -> recompute)
    import dataclasses

    other = dataclasses.replace(ieee14_model, sigma_w2=2e-4)
    v3 = harness.innovation_norm_baseline(other, x0, 1e-4, samples=2000, cache=cache)
    assert v3 != v1
    assert len(cache.read_text().splitlines()) == 2


def test_topology_fault_detected(tmp_path, mu0_cache):
    cfg = make_cfg(
        tmp_path,
        attack="kind = topology-fault\nfault_meters = 15",
        h=15.0,
        horizon=700,
        trials=12,
        cache=mu0_cache,
    )
    ctx = harness.prepare(cfg)
    results = harness.run_trials(ctx)
    finite_post = sum(1 for r in results if 100 <= r.stop("alg2") < math.inf)
    assert finite_post >= 10  # detected in nearly every trial at desk scale


def assert_same_trials(got, want):
    assert [r.meas_hash for r in got] == [r.meas_hash for r in want]
    assert [r.stops for r in got] == [r.stops for r in want]
    assert [r.steps_run for r in got] == [r.steps_run for r in want]
    assert [r.tau_hat for r in got] == [r.tau_hat for r in want]
    for a, b in zip(got, want):
        for name in ("g", "beta", "tau_hat", "c", "chi", "np_S", "euclid", "cosine", "mse0", "mse1"):
            np.testing.assert_array_equal(getattr(a.paths, name), getattr(b.paths, name), err_msg=name)


def test_workers_do_not_change_results(tmp_path, mu0_cache):
    # one batch of 5 and five batches of one give the same trials, paths
    # included, bit for bit; workers is accepted and changes nothing
    cfg = make_cfg(tmp_path, attack=CASE1, trials=5, horizon=150, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    batch = harness.run_trials(ctx, workers=1, log_steps=True)
    alone = [harness.run_trial(ctx, [(3, i)], log_steps=True)[0] for i in range(5)]
    split = harness.run_trials(ctx, workers=2, log_steps=True)
    assert [r.seed for r in batch] == [r.seed for r in split] == [(3, i) for i in range(5)]
    assert_same_trials(alone, batch)
    assert_same_trials(split, batch)
    quick = harness.run_trials(ctx, workers=4)
    assert [r.stops for r in quick] == [r.stops for r in batch]


def test_batch_without_paths_keeps_o_b_memory(tmp_path):
    # (B, horizon) path arrays for 8 x 20000 steps would take about 10 MB;
    # without paths the engine holds only per-trial state. Only alg1 is
    # enabled, so that the run stays short under tracemalloc.
    (tmp_path / "lean.cfg").write_text(
        "[model]\ntopology = ieee14\nlambda = 5\nsigma_v2 = 1e-4\nsigma_w2 = 1e-4\n"
        "[detector]\ngamma = 0.022\nsigma2_min = 1e-2\nh = 1e9\n"
        "[attack]\nkind = none\n[run]\ntrials = 8\nhorizon = 20000\nseed = 3\n"
    )
    ctx = harness.prepare(load_config(tmp_path / "lean.cfg"))
    tracemalloc.start()
    try:
        results = harness.run_trials(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.steps_run for r in results] == [20_000] * 8
    assert all(r.paths is None for r in results)
    assert peak < 4 << 20, f"peak allocation {peak / 2**20:.1f} MiB"


def test_large_batch_peak_memory_is_bounded():
    # 200 trials of configs/case1_fdi.cfg for 130 steps: no stream holds
    # draws from one block to the next, so the batch's blocks and streams
    # stay small; when each stream drew a block ahead, this peaked at
    # 35.4 MiB
    path = Path(__file__).resolve().parents[1] / "configs" / "case1_fdi.cfg"
    cfg = load_config(path)
    cfg = replace(cfg, run=replace(cfg.run, horizon=130),
                  detector=replace(cfg.detector, mu0_cache="none"))
    ctx = harness.prepare(cfg)
    tracemalloc.start()
    try:
        results = harness.run_trials(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(results) == 200
    assert peak < 30 << 20, f"peak allocation {peak / 2**20:.1f} MiB"


def assert_matches_oracle(res, quick, oracle):
    """A full-path trial and an early-exit run of the same seed against the
    dense oracle: hash and stopping times exactly, paths to 1e-9."""
    assert res.meas_hash == oracle["meas_hash"]
    assert quick.meas_hash == oracle["hashes"][quick.steps_run - 1]
    assert res.stops == quick.stops == oracle["stops"]
    assert set(oracle["paths"]) == {
        name for name in ("g", "beta", "tau_hat", "c", "chi", "np_S", "euclid", "cosine")
        if not np.all(np.isnan(getattr(res.paths, name)))
    }
    for name, want in oracle["paths"].items():
        got = getattr(res.paths, name)
        np.testing.assert_allclose(
            got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max(), err_msg=name
        )


def assert_trial_matches_oracle(ctx, seed):
    res = harness.run_trial(ctx, [seed], full_paths=True)[0]
    quick = harness.run_trial(ctx, [seed])[0]
    assert_matches_oracle(res, quick, dense_trial(ctx, seed))


@pytest.mark.parametrize(
    "attack, seed, horizon",
    [(CASE1, (9, 0), 260), ("kind = none", (11, 0), 400), (HYBRID, (4, 1), 220), (STRONG_FDI, 1, 200)],
)
def test_run_trial_matches_dense_oracle(tmp_path, mu0_cache, attack, seed, horizon):
    # structured filter core (settled pre schedule, K x K post updates,
    # post-gain reuse) against full-size dense updates that never freeze.
    # An int seed is the master seed of a batch of 4 trials, where every
    # detector fires in some trials, which leave the batch early, and not in
    # others.
    if isinstance(seed, tuple):
        cfg = make_cfg(tmp_path, attack=attack, horizon=horizon, cache=mu0_cache)
        assert_trial_matches_oracle(harness.prepare(cfg), seed)
        return
    cfg = make_cfg(tmp_path, attack=attack, horizon=horizon, cache=mu0_cache, trials=4,
                   seed=seed, h=4.0, np_q=0.5, euclid_d=0.3, cosine_d=0.8)
    ctx = harness.prepare(cfg)
    full = harness.run_trials(ctx, full_paths=True)
    quick = harness.run_trials(ctx)
    steps = [r.steps_run for r in quick]
    assert min(steps) < horizon == max(steps), steps
    for res, fast in zip(full, quick):
        assert_matches_oracle(res, fast, dense_trial(ctx, res.seed))


def test_np_clamp_trial_matches_dense_oracle(tmp_path, mu0_cache):
    # the clamped nonparametric CUSUM (np_clamp = true) against the oracle's
    # max(0, S); the path does hit the clamp
    cfg = make_cfg(tmp_path, attack=CASE1, horizon=260, cache=mu0_cache, np_clamp=True)
    ctx = harness.prepare(cfg)
    assert ctx.np_clamp
    assert_trial_matches_oracle(ctx, (9, 0))
    assert harness.run_trial(ctx, [(9, 0)], full_paths=True)[0].paths.np_S.min() == 0.0


def test_horizon_cut_leaks_nothing(tmp_path, mu0_cache):
    # measurements are made a block ahead: a run cut at 130 steps (inside a
    # block) sees exactly the first 130 steps of a 600-step run, and both
    # hashes are the oracle's, which draws a step at a time
    short = harness.prepare(make_cfg(tmp_path, attack=HYBRID, horizon=130, cache=mu0_cache))
    long = harness.prepare(make_cfg(tmp_path, attack=HYBRID, horizon=600, cache=mu0_cache))
    cut = harness.run_trial(short, [(4, 1)], full_paths=True)[0]
    full = harness.run_trial(long, [(4, 1)], full_paths=True)[0]
    oracle = dense_trial(long, (4, 1))
    assert cut.meas_hash == oracle["hashes"][129]
    assert full.meas_hash == oracle["meas_hash"]
    assert cut.stops == {n: (T if T <= 130 else math.inf) for n, T in full.stops.items()}
    for name, path in vars(cut.paths).items():
        if path is not None:
            np.testing.assert_array_equal(path, getattr(full.paths, name)[:130], err_msg=name)


@pytest.mark.parametrize(
    "attack, tau",
    [(HYBRID, 31), (HYBRID, 32), (HYBRID, 33), (ONOFF, 30), (FAULT, 40)],
    ids=["onset31", "onset32", "onset33", "onoff", "fault40"],
)
def test_block_edges_match_dense_oracle(tmp_path, mu0_cache, attack, tau):
    # the engine simulates, attacks and hashes up to 32 steps at a time,
    # cutting a block where the attack switches on or off and where a
    # topology fault begins: onsets just before, at and just after the
    # first block's edge, an attack on one step in four, and a fault inside
    # the second block, all against the oracle drawing a step at a time
    cfg = make_cfg(tmp_path, attack=attack, tau=tau, horizon=110, cache=mu0_cache)
    assert_trial_matches_oracle(harness.prepare(cfg), (6, 0))


def test_trials_leaving_mid_block_match_dense_oracle(tmp_path, mu0_cache):
    # a HYBRID batch whose trials leave inside blocks (the blocks from the
    # onset run 100-131 and 164-195), so the jamming streams of the trials
    # that stay are compacted along with the rest of the block
    cfg = make_cfg(tmp_path, attack=HYBRID, horizon=200, cache=mu0_cache, trials=4, seed=4,
                   h=4.0, np_q=0.5, euclid_d=0.25, cosine_d=0.99)
    ctx = harness.prepare(cfg)
    full = harness.run_trials(ctx, full_paths=True)
    quick = harness.run_trials(ctx)
    assert [r.steps_run for r in quick] == [193, 188, 126, 200]
    for res, fast in zip(full, quick):
        assert_matches_oracle(res, fast, dense_trial(ctx, res.seed))


@pytest.mark.parametrize("block", [1, 31, 32, 33])
def test_block_ahead_clean_half_matches_whole_step_oracle(tmp_path, mu0_cache, monkeypatch, block):
    # the engine runs the pre filter, the innovation norm, c_t, the cosine
    # and the GLLR's clean term a block ahead and Algorithm 1's closed-loop
    # half per step; the whole-step oracle runs both halves a step at a
    # time. Blocks of 1, 31, 32 and 33 steps cross the unsettled schedule
    # (its first 90 entries differ from step to step) and block edges; in
    # the run without paths the third trial leaves mid-block at step 126
    # (inside 100-130, 100-131 and 100-132), so the trials that stay have
    # their block compacted.
    #
    # The open-loop detectors (chi2, np_cusum, euclidean, cosine) are tested
    # once per block, so their stop may lie later in the block than the
    # step being run: a trial leaves once every stop is at or before it.
    # Each trial here stops last on an open-loop detector, after alg1 and
    # Shewhart; with blocks longer than one step that stop lies inside a
    # block, so a trial that left as soon as every stop was known would
    # leave early.
    monkeypatch.setattr(harness, "BLOCK_STEPS", block)
    cfg = make_cfg(tmp_path, attack=HYBRID, horizon=200, cache=mu0_cache, trials=4, seed=4,
                   h=4.0, np_q=0.5, euclid_d=0.25, cosine_d=0.99)
    ctx = harness.prepare(cfg)
    assert len(ctx.schedule.steps) >= 90
    full = harness.run_trials(ctx, full_paths=True, log_steps=True)
    quick = harness.run_trials(ctx)
    assert [r.steps_run for r in quick] == [193, 188, 126, 200]
    paths, hashes = oracles.whole_step_run(ctx, [r.seed for r in full])
    names = ("g", "beta", "c", "chi", "np_S", "euclid", "cosine", "tau_hat", "mse0", "mse1")
    assert set(paths) == set(names)
    for name in names:
        oracles.assert_same_bits(np.array([getattr(r.paths, name) for r in full]), paths[name])
    starts, t = [], 1
    while t <= 200:
        starts.append(t)
        t += attacks.block_steps(ctx.cfg.attack, t, min(block, 201 - t))
    open_loop_last = []
    for i, (res, fast, trial_hashes) in enumerate(zip(full, quick, hashes)):
        own = {name: values[i] for name, values in paths.items()}
        stops = oracles.path_stops(ctx, own)
        steps = int(max(stops.values())) if max(stops.values()) < math.inf else 200
        alg1 = stops["alg1"]
        tau_hat = own["tau_hat"][int(alg1 if alg1 < math.inf else steps) - 1]
        assert (res.stops, res.tau_hat, res.steps_run) == (stops, tau_hat, 200)
        assert (fast.stops, fast.tau_hat, fast.steps_run) == (stops, tau_hat, steps)
        assert res.meas_hash == trial_hashes[-1]
        assert fast.meas_hash == trial_hashes[steps - 1]
        assert res.syncs == int((own["g"][: oracles.sync_cap(stops, 200)] == 0.0).sum())
        assert fast.syncs == int((own["g"][: oracles.sync_cap(stops, steps)] == 0.0).sum())
        last = max(stops[name] for name in ("chi2", "np_cusum", "euclidean", "cosine"))
        if last == steps > max(stops["alg1"], stops["shewhart"]) and steps not in starts:
            open_loop_last.append(i)
    assert bool(open_loop_last) == (block > 1)


@pytest.mark.parametrize("B", [1, 3, 8])
def test_pre_track_matches_whole_step_oracle(tmp_path, mu0_cache, B):
    # a trial whose g is zero is on the pre track: the engine takes its GLLR
    # from the block's pre-track score and updates only the post filters of
    # trials that do not re-sync; the whole-step oracle predicts, scores and
    # updates every trial at every step, then re-syncs. The batches mix on-
    # and off-track trials (B > 1) and hold on-track steps whose GLLR is
    # positive, so that the on-track trial is scored and updated after all;
    # without paths, the trials leave inside blocks (the first at step 193,
    # inside 164-195)
    cfg = make_cfg(tmp_path, attack=HYBRID, horizon=200, cache=mu0_cache, trials=B, seed=4,
                   h=4.0, np_q=0.5, euclid_d=0.25, cosine_d=0.99)
    ctx = harness.prepare(cfg)
    full = harness.run_trials(ctx, full_paths=True, log_steps=True)
    quick = harness.run_trials(ctx)
    paths, hashes = oracles.whole_step_run(ctx, [r.seed for r in full])
    for name in ("g", "beta", "tau_hat", "mse0", "mse1"):
        oracles.assert_same_bits(np.array([getattr(r.paths, name) for r in full]), paths[name])
    for i, (res, fast, trail) in enumerate(zip(full, quick, hashes)):
        stops = oracles.path_stops(ctx, {k: v[i] for k, v in paths.items()})
        assert res.stops == stops
        assert (fast.stops, fast.tau_hat) == (res.stops, res.tau_hat)
        assert res.meas_hash == trail[-1]
        assert fast.meas_hash == trail[fast.steps_run - 1]
        cap, fast_cap = oracles.sync_cap(stops, 200), oracles.sync_cap(stops, fast.steps_run)
        assert res.syncs == int((paths["g"][i, :cap] == 0.0).sum())
        assert fast.syncs == int((paths["g"][i, :fast_cap] == 0.0).sum())
    g = paths["g"]
    on = np.concatenate([np.ones((B, 1), dtype=bool), g[:, :-1] == 0.0], axis=1)
    assert (on & (g > 0.0)).any()  # on the track without a re-sync
    if B > 1:
        assert (on.any(axis=0) & ~on.all(axis=0)).any()  # on and off track in one step
    assert quick[0].steps_run == 193


def closed_loop_steps(g, beta, live=None):
    """The steps, from 1, at which the engine calls algorithm1_step,
    derived from the (B, horizon) g and beta paths of a run whose blocks
    are BLOCK_STEPS long from step 1 (no attack) and the (B, horizon) mask
    ``live`` of the trials live in the closed loop (all by default).

    A step is idle, and skipped, when every live trial is on the pre track
    (its g at the step before is zero) and its GLLR, then the pre track's,
    is not positive, in a block that has a pre-track GLLR: one that some
    live trial starts on the track."""
    live = np.ones(g.shape, dtype=bool) if live is None else live
    before = np.concatenate([np.zeros((len(g), 1)), g[:, :-1]], axis=1)
    busy = (live & ((before != 0.0) | (beta > 0.0))).any(axis=0)
    start = np.arange(g.shape[1]) // BLOCK_STEPS * BLOCK_STEPS
    no_pre_track = ~(live[:, start] & (before[:, start] == 0.0)).any(axis=0)
    return (np.flatnonzero(live.any(axis=0) & (busy | no_pre_track)) + 1).tolist()


def test_algorithm1_step_scores_each_trial_once(tmp_path, monkeypatch):
    # every algorithm1_step call scores at most once, and exactly the trials
    # that may not re-sync: those off the pre track (g != 0) and those on it
    # whose pre-track GLLR is positive (every trial in a block with no
    # pre-track score). On a 20 x 400 no-attack batch with full paths and
    # false_alarm_full's detectors, some steps hold both kinds of scored
    # trial, which a second scoring after the CUSUM used to score again.
    # The step is called at exactly the steps that are not idle
    # (``closed_loop_steps``), and with the g of the step before.
    root = Path(__file__).resolve().parents[1]
    text = (root / "configs" / "false_alarm_full.cfg").read_text()
    text = text.replace("trials = 100\nhorizon = 200000", "trials = 20\nhorizon = 400")
    text = text.replace("[shewhart]", "mu0_samples = 4000\nmu0_cache = none\n\n[shewhart]")
    (tmp_path / "fa.cfg").write_text(text)
    ctx = harness.prepare(load_config(tmp_path / "fa.cfg"))
    assert (ctx.cfg.run.trials, ctx.cfg.run.horizon) == (20, 400)
    calls, scored = [], None
    step, score = detector.algorithm1_step, detector.score

    def spy_step(*args):
        nonlocal scored
        scored = []
        out = step(*args)
        g, y, beta_pre = args[1], args[4], args[8]
        calls.append((np.array(g), y.copy(), None if beta_pre is None else beta_pre.copy(), scored))
        scored = None
        return out

    def spy_score(*args):
        if scored is not None:  # not the harness's block-ahead score
            scored.append(args[2].copy())
        return score(*args)

    monkeypatch.setattr(detector, "algorithm1_step", spy_step)
    monkeypatch.setattr(detector, "score", spy_score)
    results = harness.run_trials(ctx, full_paths=True)
    g_path, beta_path = (np.array([getattr(r.paths, name) for r in results]) for name in ("g", "beta"))
    steps = closed_loop_steps(g_path, beta_path)
    assert len(calls) == len(steps) < 400
    both = 0
    for t, (g, y, beta_pre, ys) in zip(steps, calls):
        oracles.assert_same_bits(g, g_path[:, t - 2] if t > 1 else np.zeros(20))
        off = g != 0.0
        rows = off | (True if beta_pre is None else beta_pre > 0.0)
        assert len(ys) == rows.any(), f"step {t}"
        if ys:
            np.testing.assert_array_equal(ys[0], y[rows], err_msg=f"step {t}")
        both += bool(off.any() and (~off & rows).any())
    assert both > 0


@pytest.mark.parametrize("log_steps", [False, True], ids=["paths", "log_steps"])
@pytest.mark.parametrize("B", [1, 4])
def test_idle_stretches_match_whole_step_oracle(tmp_path, mu0_cache, monkeypatch, B, log_steps):
    # while every trial is on the pre track with a GLLR of at most zero,
    # the engine skips algorithm1_step up to the next step with a positive
    # GLLR; the whole-step oracle runs both halves at every step. Before
    # the onset at step 150 the runs idle for long stretches: across block
    # edges, to the end of the block the onset cuts short, and to a busy
    # step inside a block, after which the post filter goes on from the pre
    # filter's estimate. g, beta, tau_hat (and, with logged steps, the post
    # filter's MSE) keep the oracle's bits, with and without step logging,
    # and so do the stops, hashes and re-syncs of a run without paths.
    calls = []

    def spy(*args):
        calls.append(args)
        return step(*args)

    step = detector.algorithm1_step
    monkeypatch.setattr(detector, "algorithm1_step", spy)
    cfg = make_cfg(tmp_path, attack=HYBRID, trials=B, horizon=300, tau=150, seed=4, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    full = harness.run_trials(ctx, full_paths=True, log_steps=log_steps)
    assert len(calls) < 300
    quick = harness.run_trials(ctx)
    paths, hashes = oracles.whole_step_run(ctx, [r.seed for r in full])
    names = ("g", "beta", "tau_hat") + (("mse0", "mse1") if log_steps else ())
    for name in names:
        oracles.assert_same_bits(np.array([getattr(r.paths, name) for r in full]), paths[name])
    for i, (res, fast, trail) in enumerate(zip(full, quick, hashes)):
        own = {name: values[i] for name, values in paths.items()}
        stops = oracles.path_stops(ctx, own)
        assert (res.stops, res.meas_hash) == (stops, trail[-1])
        assert (fast.stops, fast.tau_hat, fast.meas_hash) == (stops, res.tau_hat, trail[fast.steps_run - 1])
        assert res.syncs == int((own["g"][: oracles.sync_cap(stops, 300)] == 0.0).sum())
        assert fast.syncs == int((own["g"][: oracles.sync_cap(stops, fast.steps_run)] == 0.0).sum())
    g, beta = paths["g"], paths["beta"]
    before = np.concatenate([np.zeros((B, 1)), g[:, :-1]], axis=1)
    idle = set((np.flatnonzero(~((before != 0.0) | (beta > 0.0)).any(axis=0)) + 1).tolist())
    assert {BLOCK_STEPS, BLOCK_STEPS + 1, 149} <= idle  # across an edge; to the onset
    # to a busy step inside one of the first blocks, which are BLOCK_STEPS long
    assert any(t + 1 not in idle and t % BLOCK_STEPS for t in idle if t < 4 * BLOCK_STEPS)


@pytest.mark.parametrize("B", [1, 4])
def test_logged_mse_of_mixed_blocks_matches_whole_step_oracle(tmp_path, mu0_cache, monkeypatch, B):
    # with steps logged, the post filter's MSE is reduced once per block,
    # from the filtered states of the steps that call algorithm1_step and,
    # at idle steps, the pre filter's. The run has blocks that mix idle
    # stretches, steps at which a trial re-syncs and steps at which one
    # stays off the pre track, and after the onset at step 100 blocks that
    # no trial starts on the track (every trial scored); with B = 4 some
    # steps re-sync a part of the batch. Both MSE paths, g and beta keep
    # the bits of the whole-step oracle.
    calls = []
    step = detector.algorithm1_step
    monkeypatch.setattr(detector, "algorithm1_step", lambda *args: calls.append(args) or step(*args))
    cfg = make_cfg(tmp_path, attack=HYBRID, trials=B, horizon=200, tau=100, seed=4, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    logged = harness.run_trials(ctx, log_steps=True)
    paths, _ = oracles.whole_step_run(ctx, [r.seed for r in logged])
    for name in ("mse0", "mse1", "g", "beta"):
        oracles.assert_same_bits(np.array([getattr(r.paths, name) for r in logged]), paths[name])

    g, beta = paths["g"], paths["beta"]
    starts, t = [], 1
    while t <= 200:
        starts.append(t)
        t += attacks.block_steps(ctx.cfg.attack, t, min(BLOCK_STEPS, 201 - t))
    block = np.searchsorted(starts, np.arange(1, 201), side="right") - 1
    before = np.concatenate([np.zeros((B, 1)), g[:, :-1]], axis=1)
    pre_track = (before[:, np.array(starts) - 1] == 0.0).any(axis=0)
    idle = pre_track[block] & ~((before != 0.0) | (beta > 0.0)).any(axis=0)
    assert len(calls) == int((~idle).sum())
    resync, stay = ~idle & (g == 0.0).any(axis=0), ~idle & (g > 0.0).any(axis=0)
    mixed = [b for b in range(len(starts)) if all(k[block == b].any() for k in (idle, resync, stay))]
    assert mixed and not pre_track.all()
    if B > 1:
        assert (resync & stay).any()


def test_closed_loop_stop_last_mid_block_matches_whole_step_oracle(tmp_path):
    # alg1 and Shewhart alone: a trial leaves at the end of the block that
    # holds its latest stop, having run the closed loop past that stop, so
    # the steps after it must not reach its steps_run, re-syncs, tau_hat or
    # hash. Trials here stop last on a closed-loop rule inside a block, and
    # g returns to zero before the block ends; some stop on alg1 in an
    # earlier block than on Shewhart.
    (tmp_path / "closed.cfg").write_text(
        "[model]\ntopology = ieee14\nlambda = 5\nsigma_v2 = 1e-4\nsigma_w2 = 1e-4\n"
        "[detector]\ngamma = 0.022\nsigma2_min = 1e-2\nh = 0.5\n[shewhart]\nphi = 1.0\n"
        "[attack]\nkind = none\n[run]\ntrials = 6\nhorizon = 700\nseed = 5\n"
    )
    ctx = harness.prepare(load_config(tmp_path / "closed.cfg"))
    quick = harness.run_trials(ctx)
    paths, hashes = oracles.whole_step_run(ctx, [r.seed for r in quick])
    earlier = []  # per trial with the case: alg1 stopped in an earlier block
    for i, (res, trail) in enumerate(zip(quick, hashes)):
        own = {name: values[i] for name, values in paths.items()}
        stops = oracles.path_stops(ctx, own)
        steps = int(max(stops.values()))
        alg1 = int(stops["alg1"])
        assert (res.stops, res.steps_run, res.meas_hash) == (stops, steps, trail[steps - 1])
        assert res.tau_hat == own["tau_hat"][alg1 - 1]
        assert res.syncs == int((own["g"][: oracles.sync_cap(stops, steps)] == 0.0).sum())
        block_end = -(-steps // BLOCK_STEPS) * BLOCK_STEPS
        if (own["g"][steps:block_end] == 0.0).any():
            earlier.append((alg1 - 1) // BLOCK_STEPS < (steps - 1) // BLOCK_STEPS)
    assert len(earlier) == len(quick) and any(earlier)


RETIRE = (
    "[model]\ntopology = ieee14\nlambda = 5\nsigma_v2 = 1e-4\nsigma_w2 = 1e-4\n"
    "[detector]\ngamma = 0.022\nsigma2_min = 1e-2\nh = 0.5\nnp_q = 0.3\n"
    "mu0_samples = 4000\nmu0_cache = none\n[shewhart]\nphi = 1.0\n"
    "[attack]\nkind = none\n[run]\ntrials = {trials}\nhorizon = 700\nseed = 5\n"
)


def retire_ctx(tmp_path, trials):
    """No attack, alg1 and Shewhart at low thresholds, and the np-CUSUM:
    most trials stop on both closed-loop rules long before the np-CUSUM
    fires, so without paths they retire from the closed loop at the end of
    the block that holds the later of those stops (blocks of BLOCK_STEPS
    from step 1, with no attack) and run on open-loop."""
    (tmp_path / "retire.cfg").write_text(RETIRE.format(trials=trials))
    return harness.prepare(load_config(tmp_path / "retire.cfg"))


def _block_end(step):
    return min(-(-step // BLOCK_STEPS) * BLOCK_STEPS, 700)


@pytest.mark.parametrize("B", [1, 3, 8])
def test_retired_trials_match_full_paths_and_whole_step_oracle(tmp_path, B):
    # a trial that retires from the closed loop keeps the stops, hash,
    # steps_run and tau_hat of a full-path run, which never retires, and of
    # the whole-step oracle, which runs every step of both halves
    ctx = retire_ctx(tmp_path, B)
    full = harness.run_trials(ctx, full_paths=True)
    quick = harness.run_trials(ctx)
    paths, hashes = oracles.whole_step_run(ctx, [r.seed for r in full])
    retired, stopped_mid_block = [], []
    for i, (res, fast, trail) in enumerate(zip(full, quick, hashes)):
        own = {name: values[i] for name, values in paths.items()}
        stops = oracles.path_stops(ctx, own)
        steps = int(min(max(stops.values()), 700))
        tau_hat = own["tau_hat"][int(stops["alg1"]) - 1]
        assert (res.stops, res.tau_hat, res.steps_run, res.meas_hash) == (stops, tau_hat, 700, trail[-1])
        assert (fast.stops, fast.tau_hat, fast.steps_run) == (stops, tau_hat, steps)
        assert fast.meas_hash == trail[steps - 1]
        assert res.syncs == int((own["g"][: oracles.sync_cap(stops, 700)] == 0.0).sum())
        assert fast.syncs == int((own["g"][: oracles.sync_cap(stops, steps)] == 0.0).sum())
        if _block_end(max(stops["alg1"], stops["shewhart"])) < steps:  # np_cusum pending
            retired.append(i)
            if stops["np_cusum"] == steps and steps % BLOCK_STEPS:
                stopped_mid_block.append(i)
    assert retired and bool(stopped_mid_block) == (B > 1)


def test_retired_trials_leave_the_closed_loop(tmp_path, monkeypatch):
    # algorithm1_step, seen through its measurements argument, gets exactly
    # the rows of the trials still live at each step it runs, and runs at
    # exactly the steps that are not idle for them (``closed_loop_steps``):
    # a trial stops running the closed loop at the end of the block that
    # holds the later of its alg1 and Shewhart stops (or its exit), and once
    # no trial is live the step is not called at all, though trials still
    # run on open-loop. The measurements of every step are those the full
    # run's blocks were made of.
    seen, blocks = [], []

    def spy(*args):
        seen.append(args[4].copy())
        return step(*args)

    def spy_attack(*args):
        blocks.append(attack(*args))
        return blocks[-1]

    step, attack = detector.algorithm1_step, harness.apply_attack
    monkeypatch.setattr(detector, "algorithm1_step", spy)
    monkeypatch.setattr(harness, "apply_attack", spy_attack)
    ctx = retire_ctx(tmp_path, 8)
    full = harness.run_trials(ctx, full_paths=True)  # every trial live throughout
    Y = np.concatenate(blocks, axis=1)
    assert Y.shape[:2] == (8, 700)
    every = seen.copy()
    seen.clear()
    quick = harness.run_trials(ctx)
    g, beta = (np.array([getattr(r.paths, name) for r in full]) for name in ("g", "beta"))
    full_steps = closed_loop_steps(g, beta)
    assert len(every) == len(full_steps) and all(len(y) == 8 for y in every)
    for t, y in zip(full_steps, every):
        np.testing.assert_array_equal(y, Y[:, t - 1], err_msg=f"step {t}")
    live_end = [
        _block_end(min(r.steps_run, max(r.stops["alg1"], r.stops["shewhart"]))) for r in quick
    ]
    live = np.arange(1, 701) <= np.array(live_end)[:, None]
    quick_steps = closed_loop_steps(g, beta, live)
    assert len(seen) == len(quick_steps) < len(full_steps)
    assert quick_steps[-1] <= max(live_end) < max(r.steps_run for r in quick)
    assert len(set(live_end)) > 2  # trials retire in several blocks
    for t, y in zip(quick_steps, seen):
        np.testing.assert_array_equal(y, Y[live[:, t - 1], t - 1], err_msg=f"step {t}")
    assert [r.stops for r in quick] == [r.stops for r in full]


def assert_taken(full, got, rows, skip=(), name=""):
    """``got`` holds rows ``rows`` of every field of ``full``, a batch or
    its closed loop, but those named in ``skip``, and of the fields'
    fields."""
    for field in fields(full):
        if field.name in skip:
            continue
        a, b = getattr(full, field.name), getattr(got, field.name)
        what = f"{name}.{field.name}"
        assert a is not None, what
        if isinstance(a, list):
            assert b == [a[r] for r in rows], what
        elif isinstance(a, np.ndarray):
            np.testing.assert_array_equal(b, a[rows], err_msg=what)
        elif isinstance(a, kalman.KalmanState):
            np.testing.assert_array_equal(b.x, a.x[rows], err_msg=what)
            np.testing.assert_array_equal(b.P, a.P[rows], err_msg=what)
            np.testing.assert_array_equal(b.shares, a.shares[rows], err_msg=what)
        elif isinstance(a, detector.ClosedLoop):
            assert_taken(a, b, rows, name=what)
        else:  # the Pearson windows
            np.testing.assert_array_equal(b.cells, a.cells[rows], err_msg=what)
            np.testing.assert_array_equal(b.counts, a.counts[rows], err_msg=what)


def test_batch_take_compacts_every_field(tmp_path, mu0_cache):
    # every detector and step logging are on, so no field of the batch or of
    # its closed loop is None, and none has a step axis; after one block,
    # take keeps rows 0 and 2 of every field
    cfg = make_cfg(tmp_path, attack=HYBRID, tau=5, horizon=40, cache=mu0_cache, trials=3)
    ctx = harness.prepare(cfg)
    batch = harness._Batch.spawn(ctx, [(3, i) for i in range(3)])
    X, _, _ = batch.next_block(ctx, 1, list(itertools.islice(ctx.schedule, 4)), log_steps=True)
    np.testing.assert_array_equal(batch.x, X[:, -1])
    rng = np.random.default_rng(0)
    loop = batch.loop
    # the fields the epilogue fills, and a loop with a distinct row per trial
    batch.stops = rng.standard_normal(batch.stops.shape)
    batch.syncs, batch.tau_at_alg1, batch.tau_hat = rng.integers(1, 99, (3, 3))
    loop.g = rng.standard_normal(3)
    loop.post = kalman.KalmanState(
        loop.post.x, np.stack([loop.post.P * k for k in (1, 2, 3)]), np.array([False, True, True])
    )
    two_axes = {"stops": len(ctx.thresholds), "x": ctx.model.N, "x_pre": ctx.model.N}
    for field in fields(batch):  # no field has a step axis
        value = getattr(batch, field.name)
        if isinstance(value, np.ndarray):
            want = (3, two_axes[field.name]) if field.name in two_axes else (3,)
            assert value.shape == want, field.name
    assert [f.name for f in fields(loop)] == ["live", "post", "g"]
    assert_taken(batch, batch.take(np.array([True, False, True])), [0, 2])


def test_closed_loop_carries_no_block_view(tmp_path):
    # the post filter that the closed loop carries from one block to the
    # next owns its memory: a block that ends on an idle stretch or a
    # re-sync leaves no view of its (T, B, N) pre-filter states alive
    # through it. The first blocks of case1_fdi (B = 200), cut where the
    # attack switches on
    root = Path(__file__).resolve().parents[1]
    text = (root / "configs" / "case1_fdi.cfg").read_text()
    text = text.replace("[shewhart]", "mu0_samples = 2000\nmu0_cache = none\n\n[shewhart]")
    (tmp_path / "case1.cfg").write_text(text)
    ctx = harness.prepare(load_config(tmp_path / "case1.cfg"))
    B = ctx.cfg.run.trials
    assert B == 200
    batch = harness._Batch.spawn(ctx, [(ctx.cfg.run.seed, i) for i in range(B)])
    steps, t = iter(ctx.schedule), 1
    for _ in range(6):
        length = attacks.block_steps(ctx.cfg.attack, t, BLOCK_STEPS)
        batch.next_block(ctx, t, list(itertools.islice(steps, length)), log_steps=False)
        base = batch.loop.post.x.base
        assert base is None, f"the block at step {t} leaves a view of {base.nbytes} bytes"
        t += length


def spy_closed_loop(monkeypatch) -> list:
    """Wrap ``detector.ClosedLoop._steps``, where the closed loop steps the
    block on the inputs it has formed, so that each call appends its
    arguments to the returned list before it runs."""
    calls = []
    run = detector.ClosedLoop._steps

    def spy(loop, model, cfg, steps, Y, pre, clean, beta_pre, post_x):
        calls.append(dict(steps=steps, Y=Y, pre=pre, clean=clean, beta_pre=beta_pre))
        return run(loop, model, cfg, steps, Y, pre, clean, beta_pre, post_x)

    monkeypatch.setattr(detector.ClosedLoop, "_steps", spy)
    return calls


@pytest.mark.parametrize("B, retired", [(1, ()), (3, (1,)), (20, (0, 7, 19))])
def test_pre_track_score_matches_score_on_predictions(tmp_path, mu0_cache, monkeypatch, B, retired):
    # the closed loop scores the pre track on the pre filter's innovations
    # and meter sums: the GLLR it steps the block on has the bits of
    # detector.score on the pre filter's predictions, and the clean term
    # those of the residuals against the filtered states. Blocks before and
    # after the onset, all trials live or some retired (rows taken by
    # index), in one chunk or, at 17 live trials, in chunks of 15 steps;
    # the last block starts off the track, so it has no pre-track score
    cfg = make_cfg(tmp_path, attack=HYBRID, tau=20, horizon=200, cache=mu0_cache, trials=B)
    ctx = harness.prepare(cfg)
    model = ctx.model
    calls = spy_closed_loop(monkeypatch)
    batch = harness._Batch.spawn(ctx, [(3, i) for i in range(B)])
    batch.loop = batch.loop.retire(np.isin(np.arange(B), retired))
    live = batch.loop.live
    steps = iter(ctx.schedule)
    x_pre = np.tile(ctx.x0, (B, 1))  # the oracle's own carry from block to block
    for t, length, on_track in ((1, 19, True), (20, 32, True), (52, 32, True), (84, 32, False)):
        block = list(itertools.islice(steps, length))
        batch.loop.g[:] = 0.0 if on_track else 1.0
        _, Y, _ = batch.next_block(ctx, t, block, log_steps=False)
        call = calls.pop()
        assert not calls and call["steps"] == block
        X_pred, X, _, _ = oracles.pre_filter(model, x_pre, Y, block)
        x_pre = X[:, -1]
        np.testing.assert_array_equal(batch.x_pre, x_pre)
        Y, X_pred, X = Y[live], X_pred[live], X[live]
        np.testing.assert_array_equal(call["Y"], Y)
        np.testing.assert_array_equal(call["pre"], X)
        clean = detector.clean_term(Y - matvec(model.meter_rows, X)[..., None], model)
        oracles.assert_same_bits(call["clean"], clean)
        if on_track:
            want = oracles.pre_track_gllr(model, ctx.det_cfg, Y, X_pred, clean)
            oracles.assert_same_bits(call["beta_pre"], want)
        else:
            assert call["beta_pre"] is None


def test_pre_track_nonfinite_cost_raises_the_classify_error(tmp_path, mu0_cache, monkeypatch):
    # measurements so large that the squared residuals overflow: the pre
    # track's score raises the FloatingPointError that classify_meters
    # raises on a non-finite table, with the same message, before the
    # closed loop steps the block; a block that no trial starts on the
    # track has no pre-track score, so only the closed loop's own score
    # raises it
    ctx = harness.prepare(make_cfg(tmp_path, trials=2, cache=mu0_cache))
    apply = harness.apply_attack
    monkeypatch.setattr(harness, "apply_attack", lambda *args: apply(*args) * 1e160)
    calls = spy_closed_loop(monkeypatch)
    with pytest.raises(FloatingPointError) as want:
        detector.classify_meters(np.full((2, 4, 23), np.inf))
    for on_track in (True, False):
        batch = harness._Batch.spawn(ctx, [(3, 0), (3, 1)])
        batch.loop.g[:] = 0.0 if on_track else 1.0
        block = list(itertools.islice(ctx.schedule, 8))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError) as raised:
                batch.next_block(ctx, 1, block, log_steps=False)
        assert str(raised.value) == str(want.value)
        assert [call["beta_pre"] for call in calls] == ([] if on_track else [None])
        calls.clear()


def test_chi2_block_from_sums_and_shared_white_matches_stacked_form(ieee14_model):
    # the chi-squared samples of a block from the pre filter's meter sums,
    # with the settled entry's own whitening factor when every entry of the
    # block is that step, have the bits of the r.sum form with the block's
    # factors stacked: a block before the settle point, one straddling it
    # and one after it
    model = ieee14_model
    schedule = kalman.PreSchedule(model, 1e-4)
    settle = len(schedule.steps) - 1  # the settled entry repeats from this step on
    assert schedule.settled and settle > 40
    rng = np.random.default_rng(25)
    B = 3
    x = 1e-2 * rng.standard_normal((B, model.N))
    for start, shared in ((0, False), (settle - 10, False), (settle + 5, True)):
        steps = list(itertools.islice(schedule, start, start + 32))
        Y = 1e-2 * rng.standard_normal((B, 32, model.K, model.lam))
        _, R, D = kalman.pre_filter(model, x, Y, steps)
        white = harness._block_white(steps)
        assert (white is steps[0].white) == shared
        assert all(w.flags.f_contiguous for w in white.reshape(-1, model.K, model.K))
        got = robust.chi2_sample_from_innovation(R, white, model.sigma_w2, sums=D)
        oracles.assert_same_bits(got, oracles.chi2_block(R, steps, model.sigma_w2))


def test_block_steps_match_the_step_walk():
    # the block length from the next switch (the onset, an on/off boundary
    # or the fault onset) equals the old walk over the steps' phases
    for attack in attack_grid():
        for t in range(1, 90):
            for most in (1, 2, 5, 32, 33):
                want = oracles.block_steps(attack, t, most)
                assert attacks.block_steps(attack, t, most) == want, (attack, t, most)


def test_closed_loop_take_follows_the_live_trials(tmp_path, mu0_cache):
    # the closed loop holds its live trials alone: once trial 1 retires, a
    # take of the batch's trials 1 and 2 keeps the loop's row of trial 2
    cfg = make_cfg(tmp_path, attack=HYBRID, tau=5, horizon=40, cache=mu0_cache, trials=3)
    ctx = harness.prepare(cfg)
    batch = harness._Batch.spawn(ctx, [(3, i) for i in range(3)])
    batch.next_block(ctx, 1, list(itertools.islice(ctx.schedule, 4)), log_steps=False)
    full = batch.loop
    full.g[:] = [1.0, 2.0, 3.0]
    full.post = kalman.KalmanState(
        full.post.x, np.stack([full.post.P * k for k in (1, 2, 3)]), np.array([False, True, True])
    )
    loop = full.retire(np.array([False, True, False]))
    np.testing.assert_array_equal(loop.live, [True, False, True])
    assert loop.retire(np.array([False, True, False])) is loop  # no trial left it
    assert_taken(full, loop, [0, 2], skip=("live",))
    batch.loop = loop
    kept = batch.take(np.array([False, True, True])).loop
    np.testing.assert_array_equal(kept.live, [False, True])
    assert_taken(full, kept, [2], skip=("live",))
    # the batch's (B, T) block of the closed loop's (L, T): NaN where retired
    block = np.array([[1.0, 2.0], [3.0, 4.0]])
    np.testing.assert_array_equal(loop.spread(block), [[1.0, 2.0], [np.nan] * 2, [3.0, 4.0]])
    block = np.ones((3, 2))
    assert full.spread(block) is block


@pytest.mark.parametrize("B", [1, 3])
def test_sync_counts_match_brute_force_recount(tmp_path, mu0_cache, B):
    # TrialResult.syncs counts the steps at which alg1's CUSUM was clamped
    # to zero, up to the later of alg1's and Shewhart's stops, with and
    # without paths, against a recount on the dense replay
    cfg = make_cfg(tmp_path, attack=CASE1, horizon=260, cache=mu0_cache, trials=B, seed=9,
                   h=4.0, np_q=0.5, euclid_d=0.3, cosine_d=0.8)
    ctx = harness.prepare(cfg)
    for results in (harness.run_trials(ctx), harness.run_trials(ctx, full_paths=True)):
        assert [r.syncs for r in results] == [
            oracles.sync_count(ctx, r.seed, r.steps_run) for r in results
        ]
        assert all(0 < r.syncs < r.sync_steps <= r.steps_run for r in results)


def test_open_loop_kernels_run_once_per_block(monkeypatch):
    # the benchmark's tracer times simulate_step, realize_attack and
    # apply_attack at their gridwatch.harness bindings and reads one active
    # flag per realization. On hybrid_recover's shape (500 steps, onset 50)
    # the engine calls each once per block: 32 and 17 steps before the
    # onset, then 14 blocks of 32 and one of 3; 17 calls, not 500.
    root = Path(__file__).resolve().parents[1]
    ctx = harness.prepare(load_config(root / "perfbench" / "workloads" / "hybrid_recover.cfg"))
    assert (ctx.cfg.run.horizon, ctx.cfg.attack.tau) == (500, 50)
    calls = {name: [] for name in ("simulate_step", "realize_attack", "apply_attack")}
    for name, outputs in calls.items():
        kernel = getattr(harness, name)

        def recording(*args, kernel=kernel, outputs=outputs, **kwargs):
            outputs.append(kernel(*args, **kwargs))
            return outputs[-1]

        monkeypatch.setattr(harness, name, recording)
    results = harness.run_trials(ctx)
    assert [r.steps_run for r in results] == [500] * 4
    assert {name: len(outputs) for name, outputs in calls.items()} == dict.fromkeys(calls, 17)
    lengths = [X.shape[1] for X, _ in calls["simulate_step"]]
    assert lengths == [32, 17] + [32] * 14 + [3]
    actives = [real.active for real in calls["realize_attack"]]
    assert all(type(active) is bool for active in actives)
    assert actives == [False] * 2 + [True] * 15


def test_rank_deficient_network_trial_matches_dense_oracle(tmp_path):
    # flow meters that never touch the reference bus: the common angle is
    # unobservable, so the pre covariance grows forever and the schedule
    # must never settle
    (tmp_path / "iso.grid").write_text(
        "[buses]\n1 ref\n2\n3\n4\n[branches]\n1 2 3 1.5\n2 3 4 2.5\n"
        "[meters]\n1 flow 1 +\n2 flow 2 +\n"
    )
    text = BASE.format(
        attack=CASE1, h=8.0, np_q=6.0, euclid_d=0.35, cosine_d=-0.5, np_clamp="false", trials=1,
        horizon=300, tau=100, seed=3, cache="none",
    ).replace("topology = ieee14", "topology = iso.grid").replace("lambda = 5", "lambda = 2")
    (tmp_path / "iso.cfg").write_text(text)
    ctx = harness.prepare(load_config(tmp_path / "iso.cfg"))
    assert not ctx.schedule.settled
    assert_trial_matches_oracle(ctx, (5, 0))


def test_mu0_cache_skips_truncated_line(tmp_path, ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    fresh = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=None)
    key = harness._cache_key(ieee14_model, x0, 1e-4, 500)
    assert key == "a63ce89069582ef521503566"  # the key existing caches hold
    cache = tmp_path / "mu0.txt"
    cache.write_text(f"other 0.5\n{key} 0.12e\n")  # a write cut short
    got = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=cache)
    assert got == fresh
    assert cache.read_text().splitlines() == ["other 0.5", f"{key} {fresh!r}"]
    assert list(tmp_path.iterdir()) == [cache]  # no temporary file left behind


def test_mu0_cache_drops_unterminated_last_line(tmp_path, ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    fresh = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=None)
    key = harness._cache_key(ieee14_model, x0, 1e-4, 500)
    cache = tmp_path / "mu0.txt"
    cache.write_text(f"other 0.5\n{key} 0.12")  # parses, but the write was cut short
    got = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=cache)
    assert got == fresh
    assert cache.read_text() == f"other 0.5\n{key} {fresh!r}\n"


def test_mu0_cache_rewrite_keeps_file_mode(tmp_path):
    cache = tmp_path / "mu0.txt"
    cache.write_text("other 0.5\n")
    cache.chmod(0o644)
    assert harness._store_mu0(cache, "key", lambda: 0.25) == 0.25
    assert stat.S_IMODE(cache.stat().st_mode) == 0o644
    assert cache.read_text() == "other 0.5\nkey 0.25\n"


def test_mu0_cache_skips_undecodable_line(tmp_path, ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    fresh = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=None)
    key = harness._cache_key(ieee14_model, x0, 1e-4, 500)
    cache = tmp_path / "mu0.txt"
    cache.write_bytes(b"abc 0.5\n\xff\xfe junk\n")  # not UTF-8: malformed, so skipped
    got = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=cache)
    assert got == fresh
    assert cache.read_text() == f"abc 0.5\n{key} {fresh!r}\n"


@pytest.mark.parametrize("under_a_file", [False, True], ids=["directory", "under-a-file"])
def test_mu0_cache_directory_is_config_error(tmp_path, ieee14_model, ieee14_topology, under_a_file):
    # a directory, or a path whose parent is a regular file, cannot be read
    # as the sidecar; the ConfigError names the key and the path
    x0 = ieee14_topology.initial_state()
    cache = tmp_path
    if under_a_file:
        (tmp_path / "file").write_text("")
        cache = tmp_path / "file" / "mu0.txt"
    before = sorted(tmp_path.iterdir())
    with pytest.raises(ConfigError, match=re.escape(f"bad value for 'mu0_cache': {str(cache)!r}")):
        harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=cache)
    assert sorted(tmp_path.iterdir()) == before


def test_mu0_cache_write_failure_is_config_error(tmp_path, ieee14_model, ieee14_topology, monkeypatch):
    # a read-only directory does not stop a superuser, so the failure is
    # injected where the temporary sibling is made; it is reported before
    # the baseline runs, not after it
    def refuse(*args, **kwargs):
        raise PermissionError(errno.EACCES, "Permission denied")

    def baseline(*args, **kwargs):
        raise AssertionError("the baseline ran before the cache was checked")

    monkeypatch.setattr(tempfile, "mkstemp", refuse)
    monkeypatch.setattr(harness, "simulate_step", baseline)
    x0 = ieee14_topology.initial_state()
    cache = tmp_path / "mu0.txt"
    reason = f"bad value for 'mu0_cache': {str(cache)!r} (Permission denied)"
    with pytest.raises(ConfigError, match=re.escape(reason)):
        harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=cache)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "ratio, samples, lam, dense_A",
    [
        pytest.param(1.0, 10_000, 5, False, id="1.0-10000"),
        pytest.param(1.0, 100_000, 5, False, id="1.0-100000"),
        pytest.param(1e4, 10_000, 5, False, id="10000.0-10000"),
        pytest.param(1.0, 10_000, 5, True, id="dense_A-10000"),
        pytest.param(1e4, 10_000, 5, True, id="dense_A-10000.0-10000"),
        pytest.param(1.0, 10_000, 1, False, id="lam1-10000"),
        *(
            pytest.param(1.0, n, 5, True, id=f"dense_A-{n}")
            for n in (1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1)
        ),
    ],
)
def test_mu0_matches_step_by_step_oracle(ieee14_topology, ratio, samples, lam, dense_A):
    # the block-wise baseline against the loop that simulates and filters a
    # step at a time; at sigma_w2 / sigma_v2 = 1e4 the pre schedule does not
    # settle within its cap, so the gain changes on every sample it covers,
    # with A the identity and with a dense A;
    # the short runs end inside, at the end of and just past the first block
    n = ieee14_topology.n_states
    A = dense_stable_A(n) if dense_A else "identity"
    model = build_model(ieee14_topology, lam, 1e-4, 1e-4 * ratio, A)
    assert kalman.PreSchedule(model, 1e-4).settled == (ratio == 1.0)
    x0 = ieee14_topology.initial_state()
    got = harness.innovation_norm_baseline(model, x0, 1e-4, samples=samples, cache=None)
    assert got == oracles.innovation_norm_baseline(model, x0, 1e-4, samples)


@pytest.mark.parametrize("sigma_v2", [1e-4, 0.0])
@pytest.mark.parametrize("dense_A", [False, True], ids=["identity", "dense_A"])
def test_mu0_from_negative_zeros_matches_step_by_step_oracle(ieee14_topology, dense_A, sigma_v2):
    # a start state with -0.0 entries, which an identity product returns
    # as +0.0; without state noise those entries stay zeros
    n = ieee14_topology.n_states
    A = dense_stable_A(n) if dense_A else "identity"
    model = replace(build_model(ieee14_topology, 5, 1e-4, 1e-4, A), sigma_v2=sigma_v2)
    assert model.identity_A == (not dense_A)
    x0 = ieee14_topology.initial_state()
    x0[:5] = -0.0
    samples = 2 * BLOCK_STEPS + 1
    got = harness.innovation_norm_baseline(model, x0, 1e-4, samples=samples, cache=None)
    assert got == oracles.innovation_norm_baseline(model, x0, 1e-4, samples)


def test_divergence_raises_typed_error(tmp_path, ieee14_topology, mu0_cache):
    unstable = build_model(ieee14_topology, 5, 1e-4, 1e-4, 4 * np.eye(ieee14_topology.n_states))
    cache = tmp_path / "mu0.txt"
    with np.errstate(over="ignore", invalid="ignore"):
        # the state passes the float range some 500 samples in, many blocks
        # after the first
        with pytest.raises(FloatingPointError, match="state diverged"):
            harness.innovation_norm_baseline(
                unstable, ieee14_topology.initial_state(), 1e-4, samples=2000, cache=cache
            )
        assert list(tmp_path.iterdir()) == []  # no cache entry, no temporary file
        # a trial from a state at the edge of the float range overflows on
        # its first step, before any statistic is formed from it
        ctx = harness.prepare(make_cfg(tmp_path, horizon=1000, cache=mu0_cache))
        ctx = replace(
            ctx, model=unstable, sim_model_post=unstable, x0=np.full(unstable.N, 1e308),
            schedule=kalman.PreSchedule(unstable, ctx.p0),
        )
        with pytest.raises(FloatingPointError, match="state diverged"):
            harness.run_trial(ctx, [0])
        # from the topology's start state the squared residuals overflow
        # some 280 steps in, while the state is still finite; the detector's
        # finite-cost check reports that as divergence too (full paths keep
        # the trial running after its detectors fire)
        ctx = replace(ctx, x0=ieee14_topology.initial_state())
        for seed in range(3):
            with pytest.raises(FloatingPointError, match="state or data diverged"):
                harness.run_trial(ctx, [(0, seed)], full_paths=True)


def load_tracing():
    """perfbench/tracing.py, imported as it is."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_traced_functions_resolve():
    # perfbench/tracing.py patches these (module, attribute) pairs by name;
    # a renamed function would drop out of the per-layer figures unnoticed
    tracing = load_tracing()
    assert tracing.TARGETS
    missing = [
        f"{module}.{attr}"
        for _, module, attr in tracing.TARGETS
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("attack", [CASE1, HYBRID], ids=["fdi", "hybrid"])
def test_tracer_probes_read_what_they_count(tmp_path, mu0_cache, attack):
    # the probes read arguments and results of the traced functions; one
    # that no longer fits them counts a probe error, and a function the
    # engine stops calling leaves its counters at zero
    tracing = load_tracing()
    ctx = harness.prepare(make_cfg(tmp_path, attack=attack, trials=4, horizon=150, cache=mu0_cache))
    tracer = tracing.Tracer()
    with tracer:
        results = harness.run_trials(ctx, full_paths=True)
    assert tracer.absent == []
    counts = tracer.counts
    assert counts["probe_errors"] == 0
    # with full paths every trial runs the closed loop at every step: one
    # CUSUM step per trial step, so kalman.sync_frac is the share of trial
    # steps that re-sync, counted to the horizon; TrialResult.syncs stops
    # counting at the later of alg1's and Shewhart's stops
    assert counts["cusum.calls"] == 4 * 150
    assert counts["cusum.sync"] == sum(int((r.paths.g == 0.0).sum()) for r in results)
    for r in results:
        assert r.syncs == int((r.paths.g[: oracles.sync_cap(r.stops, 150)] == 0.0).sum())
    counters = (
        "attack.calls", "attack.active", "post.calls", "post.sigma_nonzero",
        "cusum.calls", "cusum.sync", "labels.total", "labels.nonclean",
    )
    assert {name: counts[name] > 0 for name in counters} == dict.fromkeys(counters, True)


def test_tracer_sees_the_closed_loop(tmp_path, mu0_cache):
    # the closed loop calls Algorithm 1's step, the GLLR, the CUSUM and the
    # post filter through their modules' names, where the tracer wraps
    # them; a call through a local alias would leave no span
    tracing = load_tracing()
    cfg = make_cfg(tmp_path, attack=HYBRID, trials=2, tau=20, horizon=100, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    tracer = tracing.Tracer()
    with tracer:
        harness.run_trials(ctx, full_paths=True)
    names = {span[0] for span in tracer.spans}
    closed_loop = {
        "detector.algorithm1_step", "detector.gllr", "detector.cusum_step",
        "kalman.kf_predict", "kalman.kf_update_post",
    }
    assert closed_loop - names == set()


def _package_names(path: Path) -> "list[tuple[str, str]]":
    """(module, dotted attribute) for every ``gridwatch.X...`` and
    ``harness.X...`` chain and every ``from gridwatch[.module] import X``
    in one file."""
    roots = {"gridwatch": "gridwatch", "harness": "gridwatch.harness"}
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "gridwatch":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Attribute):
            chain = [node.attr]
            base = node.value
            while isinstance(base, ast.Attribute):
                chain.insert(0, base.attr)
                base = base.value
            if isinstance(base, ast.Name) and base.id in roots:
                found.append((roots[base.id], ".".join(chain)))
    return found


def test_benchmark_package_names_resolve():
    # the names the benchmark and the path digest read off the package;
    # without this only perfbench/selftest.py, minutes long, would notice
    # one of them going away
    root = Path(__file__).resolve().parents[1]
    used = [
        name
        for rel in ("perfbench/bootstrap.py", "perfbench/workloads.py", "scripts/path_digest.py")
        for name in _package_names(root / rel)
    ]
    assert {("gridwatch", "harness.prepare"), ("gridwatch", "load_config")} <= set(used)
    absent = object()
    missing = []
    for module, dotted in used:
        obj = importlib.import_module(module)
        for attr in dotted.split("."):
            obj = getattr(obj, attr, absent)
        if obj is absent:
            missing.append(f"{module}.{dotted}")
    assert missing == []


def test_run_trials_calls_run_trial_through_its_module_binding(tmp_path, mu0_cache, monkeypatch):
    # the tracer wraps harness.run_trial where run_trials looks it up; a
    # batch that bypassed that binding would leave the trial loop untimed
    tracing = load_tracing()
    assert ("harness.run_trial", "gridwatch.harness", "run_trial") in tracing.TARGETS
    ctx = harness.prepare(make_cfg(tmp_path, trials=3, horizon=5, cache=mu0_cache))
    calls = []
    engine = harness.run_trial

    def counting(*args, **kwargs):
        calls.append(args)
        return engine(*args, **kwargs)

    monkeypatch.setattr(harness, "run_trial", counting)
    results = harness.run_trials(ctx, master_seed=7)
    assert len(calls) == 1
    assert [r.seed for r in results] == [(7, i) for i in range(3)]
