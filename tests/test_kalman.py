import dataclasses
from itertools import islice

import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_discrete_are

from gridwatch import (
    build_model,
    initial_bank,
    kf_predict,
    kf_update_post,
    kf_update_pre,
    sync_post_to_pre,
)
from gridwatch.grid_model import GridModel
from gridwatch.kalman import (
    InnovationSolveError,
    KalmanState,
    PreSchedule,
    _add_diagonal,
    initial_state,
    kf_update_pre_full,
    pre_gain_step,
)
from gridwatch.robust import chi2_sample_from_innovation

from oracles import (
    copy_state,
    dense_predict,
    dense_predict_oracle,
    dense_update,
    expand,
    initial_sim_state,
    min_eigenvalue_ratio,
    simulate_step,
)


def post_mean(model, ks, y):
    """Per-meter means of y - H x_pred, the residual means the post update
    takes from the detector's residual block."""
    return (y - (model.meter_rows @ ks.x_pred)[:, None]).sum(axis=1) / model.lam


def scalar_model(sigma_w2=1.0, sigma_v2=1.0):
    return GridModel(
        A=np.eye(1),
        H=np.array([[1.0]]),
        meter_rows=np.array([[1.0]]),
        sigma_v2=sigma_v2,
        sigma_w2=sigma_w2,
        lam=1,
        N=1,
        K=1,
    )


def test_predict_identity_dynamics_no_noise():
    model = scalar_model(sigma_v2=0.0)
    ks = initial_state(np.array([0.7]), np.array([[0.3]]))
    out = kf_predict(model, ks)
    np.testing.assert_array_equal(out.x_pred, ks.x_upd)
    np.testing.assert_array_equal(out.P_pred, ks.P_upd)


def test_predict_additive_noise_only():
    model = scalar_model(sigma_v2=1e-4)
    ks = initial_state(np.array([0.0]), np.array([[0.0]]))
    out = kf_predict(model, ks)
    np.testing.assert_allclose(out.P_pred, 1e-4 * np.eye(1))


def test_add_diagonal_writes_through_any_layout():
    # a transposed stack is not C-contiguous; the write must still reach it
    rng = np.random.default_rng(0)
    d = rng.standard_normal((3, 4))
    for S in (rng.standard_normal((3, 4, 4)), np.swapaxes(rng.standard_normal((3, 4, 4)), -1, -2)):
        want = S + d[..., None] * np.eye(4)
        _add_diagonal(S, d)
        np.testing.assert_array_equal(S, want)


def test_predict_matches_dense_oracle():
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 3))
    B = rng.standard_normal((3, 3))
    P = B @ B.T  # random PSD
    model = GridModel(
        A=A,
        H=np.zeros((1, 3)),
        meter_rows=np.zeros((1, 3)),
        sigma_v2=2.5e-3,
        sigma_w2=1.0,
        lam=1,
        N=3,
        K=1,
    )
    ks = KalmanState(np.zeros(3), np.zeros((3, 3)), rng.standard_normal(3), P)
    out = kf_predict(model, ks)
    np.testing.assert_allclose(out.P_pred, dense_predict_oracle(A, P, 2.5e-3), atol=1e-12)


def test_scalar_update_hand_values():
    # P_pred = 1, sigma_w2 = 1 -> gain 0.5 and P_upd = 0.5
    model = scalar_model(sigma_w2=1.0)
    ks = KalmanState(np.array([0.0]), np.eye(1), np.array([0.0]), np.eye(1))
    y = np.array([[1.0]])
    out = kf_update_pre(model, ks, y)
    assert out.x_upd[0] == pytest.approx(0.5)
    assert out.P_upd[0, 0] == pytest.approx(0.5)


def test_zero_innovation_keeps_state():
    model = scalar_model()
    ks = KalmanState(np.array([0.4]), np.eye(1), np.array([0.4]), np.eye(1))
    y = (model.H @ ks.x_pred).reshape(1, 1)
    out = kf_update_pre(model, ks, y)
    np.testing.assert_allclose(out.x_upd, ks.x_pred, atol=1e-15)


def test_uninformative_measurements(ieee14_model, ieee14_topology):
    model = dataclasses.replace(ieee14_model, sigma_w2=1e12)
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(model, initial_state(x0, 1e-4))
    y = np.ones((23, 5))
    out = kf_update_pre(model, ks, y)
    assert np.linalg.norm(out.x_upd - out.x_pred) <= 1e-6


def test_post_with_zero_estimates_is_bitwise_pre(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(ieee14_model, initial_state(x0, 1e-4))
    rng = np.random.default_rng(3)
    y = (ieee14_model.H @ x0 + rng.standard_normal(115) * 0.01).reshape(23, 5)
    pre = kf_update_pre(ieee14_model, ks, y)
    post = kf_update_post(ieee14_model, ks, post_mean(ieee14_model, ks, y), np.zeros(23), np.zeros(23))
    np.testing.assert_array_equal(pre.x_upd, post.x_upd)
    np.testing.assert_array_equal(pre.P_upd, post.P_upd)


def test_post_perfectly_explained_bias():
    model = scalar_model()
    ks = KalmanState(np.array([0.2]), np.eye(1), np.array([0.2]), np.eye(1))
    a_hat = np.array([0.6])
    y = (model.H @ ks.x_pred + a_hat).reshape(1, 1)
    out = kf_update_post(model, ks, post_mean(model, ks, y), a_hat, np.zeros(1))
    np.testing.assert_allclose(out.x_upd, ks.x_pred, atol=1e-12)


def test_post_scalar_inflated_gain_third():
    model = scalar_model(sigma_w2=1.0)
    ks = KalmanState(np.array([0.0]), np.eye(1), np.array([0.0]), np.eye(1))
    y = np.array([[3.0]])
    out = kf_update_post(model, ks, post_mean(model, ks, y), np.zeros(1), np.array([1.0]))
    # gain = P / (P + sigma_w2 + sigma_hat) = 1/3
    assert out.x_upd[0] == pytest.approx(1.0)


def test_post_expansion_convention(ieee14_model, ieee14_topology):
    # sigma_hat on meter k must inflate exactly rows k*lam..k*lam+lam-1:
    # with a huge variance on one meter, its innovation is ignored.
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(ieee14_model, initial_state(x0, 1e-4))
    y_flat = ieee14_model.H @ x0
    y_flat = y_flat.copy()
    y_flat[3 * 5 : 4 * 5] += 5.0  # corrupt meter 3 only
    y = y_flat.reshape(23, 5)
    sigma = np.zeros(23)
    sigma[3] = 1e9
    out = kf_update_post(ieee14_model, ks, post_mean(ieee14_model, ks, y), np.zeros(23), sigma)
    assert np.linalg.norm(out.x_upd - x0) < 1e-3
    out_bad = kf_update_pre(ieee14_model, ks, y)
    assert np.linalg.norm(out_bad.x_upd - x0) > 10 * np.linalg.norm(out.x_upd - x0)


def test_sync_post_to_pre():
    bank = initial_bank(np.array([0.1, 0.2]), 1e-4)
    bank.post.x_upd[:] = 99.0
    bank = sync_post_to_pre(bank)
    np.testing.assert_array_equal(bank.post.x_upd, bank.pre.x_upd)
    np.testing.assert_array_equal(bank.post.P_upd, bank.pre.P_upd)
    # sync copies: later post mutation must not leak into pre
    bank.post.x_upd[0] = -1.0
    assert bank.pre.x_upd[0] == 0.1
    # in a batch only the flagged trials sync
    batch = initial_bank(np.array([[0.1, 0.2], [0.3, 0.4]]), 1e-4)
    batch.post.x_upd[:] = 99.0
    batch = sync_post_to_pre(batch, np.array([False, True]))
    assert batch.post.x_upd.tolist() == [[99.0, 99.0], [0.3, 0.4]]


def test_pre_post_trajectories_identical_with_zero_estimates(ieee14_model, ieee14_topology):
    # feeding zero attack estimates, the post filter must shadow the pre
    # filter bitwise over a whole trajectory
    x0 = ieee14_topology.initial_state()
    state = initial_sim_state(ieee14_model, x0, seed=13)
    pre = initial_state(x0, 1e-4)
    post = initial_state(x0, 1e-4)
    zeros = np.zeros(23)
    for _ in range(50):
        state, y = simulate_step(ieee14_model, state)
        pre = kf_update_pre(ieee14_model, kf_predict(ieee14_model, pre), y)
        post = kf_predict(ieee14_model, post)
        post = kf_update_post(ieee14_model, post, post_mean(ieee14_model, post, y), zeros, zeros)
        np.testing.assert_array_equal(pre.x_upd, post.x_upd)
        np.testing.assert_array_equal(pre.P_upd, post.P_upd)


def test_covariances_stay_psd_under_iteration(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    state = initial_sim_state(ieee14_model, x0, seed=21)
    ks = initial_state(x0, 1e-4)
    for t in range(1, 1001):
        state, y = simulate_step(ieee14_model, state)
        ks = kf_update_pre(ieee14_model, kf_predict(ieee14_model, ks), y)
        if t % 100 == 0:
            assert min_eigenvalue_ratio(ks.P_upd) >= -1e-10
    assert np.all(np.isfinite(ks.P_upd))


def test_update_factors_expose_innovation(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(ieee14_model, initial_state(x0, 1e-4))
    y = (ieee14_model.H @ x0 + 0.01).reshape(23, 5)
    _, innovation = kf_update_pre_full(ieee14_model, ks, y)
    np.testing.assert_allclose(innovation.reshape(-1), y.reshape(-1) - ieee14_model.H @ ks.x_pred)
    # the step whitens the meter-mean innovation covariance: W Sbar W^T = I
    M = ieee14_model.meter_rows
    W = pre_gain_step(ieee14_model, ks.P_pred).white
    Sbar = M @ ks.P_pred @ M.T + (ieee14_model.sigma_w2 / ieee14_model.lam) * np.eye(23)
    np.testing.assert_allclose(W @ Sbar @ W.T, np.eye(23), rtol=0, atol=1e-12)


def assert_rel_close(got, want, rel=1e-9):
    assert np.linalg.norm(got - want) <= rel * np.linalg.norm(want)


@pytest.mark.parametrize("lam", [5, 1])
@pytest.mark.parametrize("ratio", [1e-4, 1.0, 1e4])
def test_structured_updates_match_dense_oracle(ieee14_topology, ratio, lam):
    # meter-mean pre/post updates and c_t against the full K*lam dense
    # update over a trajectory, with random attack estimates (sigma_hat all
    # zero on half the steps, so post-gain reuse runs) and periodic syncs
    model = build_model(ieee14_topology, lam, 1e-4, 1e-4 * ratio)
    K = model.K
    x0 = ieee14_topology.initial_state()
    rng = np.random.default_rng([lam, int(np.log10(ratio)) + 10])
    state = initial_sim_state(model, x0, seed=17)
    pre, post = initial_state(x0, 1e-4), initial_state(x0, 1e-4)
    pre_d, post_d = initial_state(x0, 1e-4), initial_state(x0, 1e-4)
    clean_noise = np.full(K * lam, model.sigma_w2)
    shares = True
    for t, step in zip(range(1, 241), PreSchedule(model, 1e-4)):
        state, y = simulate_step(model, state)
        a_hat = np.where(rng.random(K) < 0.5, rng.uniform(-0.1, 0.1, K), 0.0)
        sigma_hat = np.where(rng.random(K) < 0.5, rng.uniform(1.0, 2.0, K), 0.0)
        if rng.random() < 0.5:
            sigma_hat[:] = 0.0

        shared = step if shares else None
        pre, r = kf_update_pre_full(model, kf_predict(model, pre, step), y, step)
        post = kf_predict(model, post, shared)
        post = kf_update_post(model, post, post_mean(model, post, y), a_hat, sigma_hat, shared)
        shares = shares and not sigma_hat.any()
        c = chi2_sample_from_innovation(r, step.white, model.sigma_w2)

        pre_d, factor, r_d = dense_update(
            model, dense_predict(model, pre_d), y.reshape(-1), 0.0, clean_noise
        )
        post_d = dense_update(
            model, dense_predict(model, post_d), y.reshape(-1), expand(model, a_hat),
            clean_noise + expand(model, sigma_hat),
        )[0]
        c_d = float(r_d @ cho_solve(factor, r_d))

        assert_rel_close(r.reshape(-1), r_d)
        assert_rel_close(pre.x_upd, pre_d.x_upd)
        assert_rel_close(pre.P_upd, pre_d.P_upd)
        assert_rel_close(post.x_upd, post_d.x_upd)
        assert_rel_close(post.P_upd, post_d.P_upd)
        assert c == pytest.approx(c_d, rel=1e-9)
        if t % 40 == 0:
            post, post_d, shares = copy_state(pre), copy_state(pre_d), True


def test_schedule_settles_at_riccati_fixed_point(ieee14_model):
    schedule = PreSchedule(ieee14_model, 1e-4)
    assert schedule.settled
    frozen = schedule.steps[-1]
    M = ieee14_model.meter_rows
    X = solve_discrete_are(
        ieee14_model.A.T,
        M.T,
        ieee14_model.sigma_v2 * np.eye(ieee14_model.N),
        ieee14_model.sigma_w2 / ieee14_model.lam * np.eye(ieee14_model.K),
    )
    assert_rel_close(frozen.P_pred, X)
    later = list(islice(schedule, len(schedule.steps) + 3))[len(schedule.steps) - 1 :]
    assert all(step is frozen for step in later)


def test_unsettled_schedule_covers_every_step(ieee14_topology):
    # at sigma_w2/sigma_v2 = 1e4 the recursion is still far from its fixed
    # point after 3000 steps: nothing may be frozen, and past the stored
    # prefix the iterator continues the recursion step for step
    model = build_model(ieee14_topology, 5, 1e-4, 1.0)
    schedule = PreSchedule(model, 1e-4)
    assert not schedule.settled and len(schedule.steps) < 3000
    ks = initial_state(np.zeros(model.N), 1e-4)
    for step in islice(schedule, 3000):
        ks = kf_predict(model, ks)
        expected = pre_gain_step(model, ks.P_pred)
        np.testing.assert_array_equal(step.P_pred, expected.P_pred)
        np.testing.assert_array_equal(step.P_upd, expected.P_upd)
        ks = dataclasses.replace(ks, P_upd=expected.P_upd)
    M = model.meter_rows
    X = solve_discrete_are(
        model.A.T,
        M.T,
        model.sigma_v2 * np.eye(model.N),
        model.sigma_w2 / model.lam * np.eye(model.K),
    )
    assert np.linalg.norm(step.P_pred - X) > 1e-6 * np.linalg.norm(X)


def test_failed_factorization_raises_typed_error(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    broken = KalmanState(x0, -np.eye(13), x0, -np.eye(13))  # not a covariance
    y = (ieee14_model.H @ x0).reshape(23, 5)
    with pytest.raises(InnovationSolveError):
        kf_update_pre(ieee14_model, broken, y)
    with pytest.raises(InnovationSolveError):
        kf_update_post(ieee14_model, broken, post_mean(ieee14_model, broken, y), np.zeros(23), np.full(23, 1.0))
    # a stacked post update where one trial of three is broken, alone among
    # the trials that run their own update or together with all of them
    step = PreSchedule(ieee14_model, 1e-4).steps[0]
    P = np.stack([step.P_pred, -np.eye(13), step.P_pred])
    xs = np.tile(x0, (3, 1))
    stacked = KalmanState(xs, P, xs, P)
    mean = np.zeros((3, 23))
    sigma_hat = np.zeros((3, 23))
    sigma_hat[1:, 0] = 1.0
    for shares in (np.array([True, False, False]), np.array([False, False, False])):
        with pytest.raises(InnovationSolveError):
            kf_update_post(ieee14_model, stacked, mean, np.zeros((3, 23)), sigma_hat, step, shares)


def test_batched_filter_matches_single_trial_calls(ieee14_model, ieee14_topology):
    # a batch of trials with mixed "shares pre" flags and attack estimates:
    # every trial's predict and post update have the bits of the same call
    # on that trial alone
    model = ieee14_model
    x0 = ieee14_topology.initial_state()
    rng = np.random.default_rng(8)
    steps = list(islice(PreSchedule(model, 1e-4), 3))
    B = 5
    xs = x0 + 1e-3 * rng.standard_normal((B, 13))
    own_P = np.stack([steps[0].P_upd * (1.0 + 0.1 * i) for i in range(B)])
    shares = np.array([True, False, True, False, True])
    post = KalmanState(xs, own_P, xs, own_P)
    for step in steps[1:]:
        means = 1e-2 * rng.standard_normal((B, 23))
        a_hat = np.where(rng.random((B, 23)) < 0.3, 0.05, 0.0)
        sigma_hat = np.where(rng.random((B, 23)) < 0.2, 1.5, 0.0)
        sigma_hat[0] = sigma_hat[3] = 0.0
        pred = kf_predict(model, post, step, shares)
        upd = kf_update_post(model, pred, means, a_hat, sigma_hat, step, shares)
        for i in range(B):
            alone = KalmanState(post.x_pred[i], post.P_pred[i], post.x_upd[i], post.P_upd[i])
            shared = step if shares[i] else None
            want_pred = kf_predict(model, alone, shared)
            want = kf_update_post(model, want_pred, means[i], a_hat[i], sigma_hat[i], shared)
            np.testing.assert_array_equal(np.broadcast_to(pred.P_pred, (B, 13, 13))[i], want_pred.P_pred)
            np.testing.assert_array_equal(pred.x_pred[i], want_pred.x_pred)
            np.testing.assert_array_equal(upd.x_upd[i], want.x_upd)
            np.testing.assert_array_equal(np.broadcast_to(upd.P_upd, (B, 13, 13))[i], want.P_upd)
        post = upd
        shares = shares & ~sigma_hat.any(axis=1)
