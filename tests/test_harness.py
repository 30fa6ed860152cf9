import math
import stat
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from gridwatch import harness, load_config
from gridwatch.detector import CusumState, cusum_step
from gridwatch.robust import Chi2State, ShewhartConfig, pearson_step

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


@pytest.fixture(scope="module")
def mu0_cache(tmp_path_factory):
    return str(tmp_path_factory.mktemp("cache") / "mu0.txt")


def test_same_seed_identical_trial(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    a = harness.run_trial(ctx, (3, 0), full_paths=True)
    b = harness.run_trial(ctx, (3, 0), full_paths=True)
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
    res = harness.run_trial(ctx, (1, 0))
    for name, T in res.stops.items():
        if name != "cosine":
            assert T == math.inf, name
    assert res.steps_run == 150


def test_t_tilde_is_min_and_replay_consistent(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, horizon=260, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    res = harness.run_trial(ctx, (9, 0), full_paths=True)
    assert res.t_tilde == min(
        res.stop("alg1"), res.stop("shewhart"), res.stop("chi2")
    )
    assert res.stop("alg2") == res.t_tilde
    n = res.steps_run

    # replay the CUSUM recursion over the recorded GLLR stream with the
    # contract op; the g path and the h-crossing must match exactly
    cs = CusumState()
    g_replay = np.empty(n)
    for t in range(1, n + 1):
        cs, _ = cusum_step(cs, float(res.paths.beta[t - 1]), t)
        g_replay[t - 1] = cs.g
    np.testing.assert_array_equal(g_replay, res.paths.g[:n])
    crossing = np.flatnonzero(res.paths.g[:n] >= ctx.h)
    expected = float(crossing[0] + 1) if crossing.size else math.inf
    assert res.stop("alg1") == expected

    # replay the sliding-window test over the recorded c stream with the
    # same seeded initial window
    ss = np.random.SeedSequence((9, 0))
    chi2_ss = ss.spawn(4)[3]
    st = Chi2State.initialize(ctx.chi2, 115, np.random.default_rng(chi2_ss))
    chi_replay = np.empty(n)
    for t in range(1, n + 1):
        st, chi = pearson_step(st, float(res.paths.c[t - 1]), ctx.chi2)
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
    ra = harness.run_trial(harness.prepare(cfg_a), (4, 1), full_paths=True)
    rb = harness.run_trial(harness.prepare(cfg_b), (4, 1), full_paths=True)
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


def test_first_detector_ratio_examples():
    def fake(stops):
        return harness.TrialResult(
            seed=0, stops=stops, t_tilde=min(stops.values()),
            tau_hat=1, steps_run=10, meas_hash="",
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
    ref = harness.run_trial(ctx, (9, 0), full_paths=True)
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
    res = harness.run_trial(ctx, (9, 0), full_paths=True)
    for name, field, direction in harness.PATH_DETECTORS:
        path = getattr(res.paths, field)
        np.testing.assert_array_equal(path, getattr(ref.paths, field), err_msg=name)
        assert res.stop(name) == first[name] + 1, name
        grid = harness.stopping_times_for_grid([path], [res.steps_run], [thr[name]], direction)
        assert res.stop(name) == grid[0, 0], name
    assert res.stop("alg2") == min(res.stop(name) for name in harness.ALG2)
    assert harness.run_trial(ctx, (9, 0)).stops == res.stops  # early exit too


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
    res = harness.run_trial(ctx, (11, 0), full_paths=True)
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


def test_trial_log_csv_schema(tmp_path, mu0_cache):
    cfg = make_cfg(tmp_path, attack=CASE1, trials=1, horizon=120, cache=mu0_cache)
    ctx = harness.prepare(cfg)
    res = harness.run_trial(ctx, (2, 0), log_steps=True)
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
    alone = [
        harness.run_trial(ctx, harness.trial_entropy(3, i), log_steps=True) for i in range(5)
    ]
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
    res = harness.run_trial(ctx, seed, full_paths=True)
    quick = harness.run_trial(ctx, seed)
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
    assert harness.run_trial(ctx, (9, 0), full_paths=True).paths.np_S.min() == 0.0


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
    key = harness._cache_key(ieee14_model, x0, 1e-4, 500, 923_001)
    cache = tmp_path / "mu0.txt"
    cache.write_text(f"other 0.5\n{key} 0.12e\n")  # a write cut short
    got = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=cache)
    assert got == fresh
    assert cache.read_text().splitlines() == ["other 0.5", f"{key} {fresh!r}"]
    assert list(tmp_path.iterdir()) == [cache]  # no temporary file left behind


def test_mu0_cache_drops_unterminated_last_line(tmp_path, ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    fresh = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=None)
    key = harness._cache_key(ieee14_model, x0, 1e-4, 500, 923_001)
    cache = tmp_path / "mu0.txt"
    cache.write_text(f"other 0.5\n{key} 0.12")  # parses, but the write was cut short
    got = harness.innovation_norm_baseline(ieee14_model, x0, 1e-4, samples=500, cache=cache)
    assert got == fresh
    assert cache.read_text() == f"other 0.5\n{key} {fresh!r}\n"


def test_mu0_cache_rewrite_keeps_file_mode(tmp_path):
    cache = tmp_path / "mu0.txt"
    cache.write_text("other 0.5\n")
    cache.chmod(0o644)
    harness._store_mu0(cache, "key", 0.25)
    assert stat.S_IMODE(cache.stat().st_mode) == 0o644
    assert cache.read_text() == "other 0.5\nkey 0.25\n"
