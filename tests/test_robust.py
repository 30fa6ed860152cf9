import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import special, stats

from gridwatch import Chi2Config, Chi2State, ShewhartConfig, harness, pearson_step
from gridwatch.grid_model import GridModel
from gridwatch.kalman import KalmanState, kf_update_pre_full, pre_gain_step
from gridwatch.robust import chi2_sample_from_innovation, cosine_similarity, np_cusum_step

from oracles import cell_of, chi2_cdf_oracle, chi2_sample, initialize_window, intervals

PAPER_EDGES = (102.081, 110.5475, 118.2061, 127.531)
VARPHI = 25.0133


def test_shewhart_boundary_inclusive():
    cfg = ShewhartConfig(phi=10.0)
    up = harness.PATH_DIRECTION["shewhart"]
    beta = np.array([0.0, 9.999, 10.0, 3.0])
    assert harness.crossed(beta, cfg.phi, up).tolist() == [False, False, True, False]
    stops = harness.stopping_times_for_grid([beta], [4], [cfg.phi, 10.001], up)
    assert stops.tolist() == [[3.0, math.inf]]


def test_chi2_sample_zero_residual(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    ks = KalmanState(x0, 1e-4 * np.eye(13), x0, 1e-4 * np.eye(13))
    y = (ieee14_model.H @ x0).reshape(23, 5)
    assert chi2_sample(ieee14_model, ks, y) == pytest.approx(0.0, abs=1e-20)
    step = pre_gain_step(ieee14_model, ks.P_pred)
    _, r = kf_update_pre_full(ieee14_model, ks, y, step)
    c = chi2_sample_from_innovation(r, step.white, ieee14_model.sigma_w2)
    assert c == pytest.approx(0.0, abs=1e-20)


def test_chi2_sample_scalar_arithmetic():
    # Q = H P H' + sigma_w2 = 1.5 + 0.5 = 2, r = 3 -> c = 9/2
    model = GridModel(
        A=np.eye(1),
        H=np.array([[1.0]]),
        meter_rows=np.array([[1.0]]),
        sigma_v2=1.0,
        sigma_w2=0.5,
        lam=1,
        N=1,
        K=1,
    )
    ks = KalmanState(np.zeros(1), np.array([[1.5]]), np.zeros(1), np.array([[1.5]]))
    y = np.array([[3.0]])
    assert chi2_sample(model, ks, y) == pytest.approx(4.5)
    step = pre_gain_step(model, ks.P_pred)
    _, r = kf_update_pre_full(model, ks, y, step)
    assert chi2_sample_from_innovation(r, step.white, model.sigma_w2) == pytest.approx(4.5)


def test_batched_statistics_match_single_windows(ieee14_model, ieee14_topology):
    # c_t, the Pearson window and the cosine similarity of a batch equal the
    # same statistics of each trial alone, bit for bit
    rng = np.random.default_rng(4)
    B = 3
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    windows = [initialize_window(cfg, 115, np.random.default_rng(i)) for i in range(B)]
    batch = Chi2State.from_samples(cfg, np.array([np.random.default_rng(i).chisquare(115, 80) for i in range(B)]))
    x0 = ieee14_topology.initial_state()
    ks = KalmanState(x0, 1e-4 * np.eye(13), x0, 1e-4 * np.eye(13))
    white = pre_gain_step(ieee14_model, ks.P_pred).white
    for _ in range(200):
        r = rng.standard_normal((B, 23, 5)) * 0.01 * rng.uniform(0.5, 2.0)
        c = chi2_sample_from_innovation(r, white, ieee14_model.sigma_w2)
        batch, chi = pearson_step(batch, c)
        y = rng.standard_normal((B, 115))
        cos = cosine_similarity(y, y - r.reshape(B, -1))
        for i in range(B):
            assert c[i] == chi2_sample_from_innovation(r[i], white, ieee14_model.sigma_w2)
            windows[i], chi_i = pearson_step(windows[i], float(c[i]))
            assert chi[i] == chi_i
            np.testing.assert_array_equal(batch.counts[i], windows[i].counts)
            assert cos[i] == cosine_similarity(y[i], y[i] - r[i].reshape(-1))
    assert cosine_similarity(np.zeros((2, 3)), np.ones((2, 3))).tolist() == [-1.0, -1.0]


def test_equiprobable_intervals_match_published_values():
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    np.testing.assert_allclose(cfg.edges, PAPER_EDGES, atol=5e-4)
    # independent cdf oracle: each cell carries probability 0.2
    probs = [chi2_cdf_oracle(e, 115) for e in cfg.edges]
    np.testing.assert_allclose(probs, [0.2, 0.4, 0.6, 0.8], atol=1e-6)
    # the Pearson threshold sits at the 5e-5 tail of chi-squared with M-1 dof
    assert 1.0 - chi2_cdf_oracle(VARPHI, 4) == pytest.approx(5e-5, rel=1e-3)


def test_special_functions_match_scipy_stats():
    # gridwatch avoids importing scipy.stats; its replacements must give the
    # same bits: chi-squared quantiles, Student-t quantiles, chi-squared draws
    for dof in (5, 23, 115):
        for M in (5, 8):
            cfg = Chi2Config.equiprobable(dof=dof, M=M, L=80, varphi=VARPHI)
            assert cfg.edges == tuple(float(stats.chi2.ppf(j / M, dof)) for j in range(1, M))
    df = np.arange(1, 500)
    np.testing.assert_array_equal(special.stdtrit(df, 0.975), stats.t.ppf(0.975, df))
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    for seed in range(5):
        for dof in (5, 23, 115):
            np.testing.assert_array_equal(
                np.random.default_rng(seed).chisquare(dof, 80),
                stats.chi2.rvs(dof, size=80, random_state=np.random.default_rng(seed)),
            )
        got = initialize_window(cfg, 115, np.random.default_rng(seed))
        want = Chi2State.from_samples(
            cfg, stats.chi2.rvs(115, size=80, random_state=np.random.default_rng(seed))
        )
        np.testing.assert_array_equal(got.cells, want.cells)


def test_import_leaves_scipy_stats_unloaded():
    code = "import sys, gridwatch; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_interval_membership_half_open():
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    assert cell_of(cfg, 0.0) == 0
    assert cell_of(cfg, cfg.edges[0]) == 1  # [lo, hi): boundary belongs right
    assert cell_of(cfg, cfg.edges[0] - 1e-9) == 0
    assert cell_of(cfg, 1e9) == 4
    assert intervals(cfg)[0][0] == 0.0
    assert intervals(cfg)[-1][1] == math.inf


def test_from_samples_counts_every_window_with_cell_of():
    # (B, L) samples give B windows whose cells and counts follow the scalar
    # rule, edge values included (a boundary belongs to the cell on its right)
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    samples = np.random.default_rng(6).chisquare(115, size=(3, 80))
    samples[0, :4] = cfg.edges
    samples[1, :2] = 0.0, 1e9
    st = Chi2State.from_samples(cfg, samples)
    assert st.cells.shape == (3, 80) and st.counts.shape == (3, 5) and st.head == 0
    for i, window in enumerate(samples):
        cells = [cell_of(cfg, v) for v in window]
        np.testing.assert_array_equal(st.cells[i], cells)
        np.testing.assert_array_equal(st.counts[i], np.bincount(cells, minlength=5))
        assert st.chi_stat[i] == Chi2State.from_samples(cfg, window).chi_stat
    with pytest.raises(ValueError, match="exactly 80 samples"):
        Chi2State.from_samples(cfg, samples[:, :79])


def test_pearson_perfect_fit_and_concentrated():
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    # counts all 16 -> chi = 0
    edges = (0.0,) + cfg.edges
    samples = np.concatenate([np.full(16, e + 1e-6) for e in edges])
    st = Chi2State.from_samples(cfg, samples)
    assert st.chi_stat == pytest.approx(0.0)
    # all 80 in the first cell -> (64^2 + 4*16^2)/16 = 320
    st = Chi2State.from_samples(cfg, np.full(80, 1.0))
    assert st.chi_stat == pytest.approx(320.0)


def test_pearson_step_evicts_and_counts():
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    st = Chi2State.from_samples(cfg, np.full(80, 1.0))
    st, chi = pearson_step(st, 1e6)
    assert st.counts[0] == 79 and st.counts[4] == 1
    assert VARPHI <= chi < 320.0  # still wildly off the null


def test_ring_buffer_matches_recount():
    cfg = Chi2Config.equiprobable(dof=115, M=5, L=80, varphi=VARPHI)
    rng = np.random.default_rng(5)
    init = rng.chisquare(115, size=80)
    st = Chi2State.from_samples(cfg, init)
    window = list(init)
    samples = rng.chisquare(115, size=100_000)
    for i, c in enumerate(samples):
        st, chi = pearson_step(st, float(c))
        window.pop(0)
        window.append(float(c))
        if i % 979 == 0:
            assert st.counts.sum() == 80
            recount = np.bincount([cell_of(cfg, v) for v in window], minlength=5)
            np.testing.assert_array_equal(st.counts, recount)
    recount = np.bincount([cell_of(cfg, v) for v in window], minlength=5)
    np.testing.assert_array_equal(st.counts, recount)


def test_np_cusum_zero_drift_and_stopping():
    q, up = 10.0, harness.PATH_DIRECTION["np_cusum"]
    # dist = 1 = mu0 -> S stays 0, never stops for q > 0
    S, path = 0.0, []
    for _ in range(50):
        S = np_cusum_step(S, 1.0, mu0=1.0)
        path.append(S)
    assert S == pytest.approx(0.0)
    assert not harness.crossed(np.array(path), q, up).any()
    # dist - mu0 = 1 each step with mu0 = 0 -> stops exactly at t = 10
    S, path = np.zeros(2), []
    for _ in range(19):
        S = np_cusum_step(S, np.ones(2), mu0=0.0)
        path.append(S)
    path = np.array(path).T
    assert harness.stopping_times_for_grid(list(path), [19, 19], [q], up).tolist() == [[10.0]] * 2
    # clamped, a negative drift holds S at 0
    assert np_cusum_step(0.0, 0.0, mu0=2.0) == pytest.approx(-2.0)
    assert np_cusum_step(0.0, 0.0, mu0=2.0, clamp=True) == 0.0


def test_euclidean_and_cosine_trivial_geometry():
    # the Euclidean detector's statistic is the innovation norm, formed in
    # the harness; its thresholding is tested with every path detector's
    y = np.array([1.0, 2.0])
    assert cosine_similarity(y, y) == pytest.approx(1.0)
    assert cosine_similarity(y, -y) == pytest.approx(-1.0)
    assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == pytest.approx(0.0)
    # zero vector counts as maximal dissimilarity
    assert cosine_similarity(np.zeros(2), y) == -1.0
    assert cosine_similarity(y, np.zeros(2)) == -1.0
