import dataclasses
import re
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import cho_solve, solve_discrete_are

from gridwatch import kalman
from gridwatch.grid_model import GridModel, build_model
from gridwatch.kalman import (
    InnovationSolveError,
    KalmanState,
    PreSchedule,
    _add_diagonal,
    _predict_cov,
    gain_step,
    initial_state,
    kf_predict,
    kf_update_post,
    kf_update_pre,
    kf_update_pre_full,
    pre_filter,
    pre_gain_step,
    resync,
)
from gridwatch.robust import chi2_sample_from_innovation

import oracles
from conftest import dense_stable_A
from oracles import (
    assert_same_bits,
    copy_state,
    dense_predict,
    dense_predict_oracle,
    dense_update,
    expand,
    initial_sim_state,
    min_eigenvalue_ratio,
    own_covariance,
    read_only,
    simulate_step,
)


def post_mean(model, ks, y):
    """Per-meter means of y - H x against the prediction ks, the residual
    means the post update takes from the detector's residual block."""
    return (y - (model.meter_rows @ ks.x)[:, None]).sum(axis=1) / model.lam


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
    ks = own_covariance(initial_state(np.array([0.7]), 0.3))
    out = kf_predict(model, ks, None)
    np.testing.assert_array_equal(out.x, ks.x)
    np.testing.assert_array_equal(out.P, ks.P)


def test_predict_additive_noise_only():
    model = scalar_model(sigma_v2=1e-4)
    ks = own_covariance(initial_state(np.array([0.0]), 0.0))
    out = kf_predict(model, ks, None)
    np.testing.assert_allclose(out.P, 1e-4 * np.eye(1))


# (shape and memory order of the base array, the S taken from it, whether
# S is C-contiguous)
ADD_DIAGONAL_LAYOUTS = {
    "c_2d": ((4, 4), "C", lambda b: b, True),
    "c_3d": ((3, 4, 4), "C", lambda b: b, True),
    "c_4d": ((2, 3, 4, 4), "C", lambda b: b, True),
    "c_slice": ((5, 4, 4), "C", lambda b: b[1:4], True),
    "one_by_one": ((3, 1, 1), "C", lambda b: b, True),
    "fortran_2d": ((4, 4), "F", lambda b: b, False),
    "fortran_3d": ((3, 4, 4), "F", lambda b: b, False),
    "transposed": ((3, 4, 4), "C", lambda b: b.swapaxes(-1, -2), False),
    "strided_stack": ((6, 4, 4), "C", lambda b: b[::2], False),
    "sub_matrices": ((3, 6, 6), "C", lambda b: b[:, 1:5, 1:5], False),
}


@pytest.mark.parametrize("layout", ADD_DIAGONAL_LAYOUTS)
def test_add_diagonal_writes_through_or_rejects_layout(layout):
    # the strided view of a C-contiguous S adds d where the einsum form adds
    # it, with the same bits, and writes through into the array S is a view
    # of; any other layout raises ValueError and leaves S as it was
    shape, order, take, c_contiguous = ADD_DIAGONAL_LAYOUTS[layout]
    rng = np.random.default_rng(0)
    base = np.array(rng.standard_normal(shape), order=order)
    assert take(base).flags.c_contiguous == c_contiguous
    for d in (rng.standard_normal(take(base).shape[:-1]), 0.25):
        want = base.copy(order="K")
        if c_contiguous:
            oracles.add_diagonal(take(want), d)
            _add_diagonal(take(base), d)
        else:
            with pytest.raises(ValueError, match="C-contiguous"):
                _add_diagonal(take(base), d)
        assert_same_bits(base, want)


# entries of a covariance for the symmetrize-free prediction: up to 1e300
# in magnitude (P + P^T overflows only above about 9e307), subnormals, both
# zeros and the infinities
COV_ENTRIES = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(
    [np.inf, -np.inf, -0.0, 5e-324, -2.5e-310]
)


@st.composite
def bit_symmetric_covariances(draw):
    """A bit-symmetric P, shared (N, N) or stacked (B, N, N), and the
    sigma_v2 of an identity-A model."""
    n = draw(st.integers(1, 5))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    L = draw(hnp.arrays(np.float64, batch + (n, n), elements=COV_ENTRIES))
    upper = np.triu_indices(n, 1)
    P = L.copy()
    P[..., upper[0], upper[1]] = L[..., upper[1], upper[0]]  # the bits of the lower half
    sigma_v2 = draw(st.floats(min_value=1e-300, max_value=1e300) | st.just(5e-324))
    return P, sigma_v2


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(case=bit_symmetric_covariances())
def test_identity_predict_cov_needs_no_symmetrize(case):
    # with A = I the prediction leaves out 0.5 (P + P^T): on a bit-symmetric
    # P it has the bits of the symmetrized form, entry for entry
    P, sigma_v2 = case
    n = P.shape[-1]
    model = GridModel(
        A=np.eye(n), H=np.zeros((1, n)), meter_rows=np.zeros((1, n)),
        sigma_v2=sigma_v2, sigma_w2=1.0, lam=1, N=n, K=1,
    )
    assert model.identity_A
    got = _predict_cov(model, read_only(P))
    want = oracles.predict_cov(model, P)
    assert (got == want).all()
    assert_same_bits(got, want)


def test_dense_predict_cov_still_symmetrizes(ieee14_topology, monkeypatch):
    # any other A symmetrizes its product, shared and stacked, and A = I
    # never calls the symmetrize
    dense, identity = a_model(ieee14_topology, True), a_model(ieee14_topology, False)
    P_upd = PreSchedule(dense, 1e-4).steps[0].P_upd
    for P in (P_upd, np.stack([P_upd * (1.0 + 0.1 * i) for i in range(3)])):
        product = dense.A @ P @ dense.A.T
        assert not np.array_equal(product, product.swapaxes(-1, -2))
        got = _predict_cov(dense, P)
        assert_same_bits(got, got.swapaxes(-1, -2))
        assert_same_bits(got, oracles.predict_cov(dense, P))

    def no_symmetrize(P):
        raise AssertionError("identity A symmetrized")

    monkeypatch.setattr(kalman, "_symmetrize", no_symmetrize)
    assert_same_bits(_predict_cov(identity, P_upd), oracles.predict_cov(identity, P_upd))


@pytest.mark.parametrize("batch", [(), (1,), (4,), (2, 3)], ids=str)
def test_gain_step_matches_oracle(ieee14_model, batch):
    # one LAPACK factorization per matrix of any stack, with the oracle's
    # bits in every array and its Fortran layout of the whitening factor
    model = ieee14_model
    rng = np.random.default_rng(9)
    P_pred = PreSchedule(model, 1e-4).steps[0].P_pred
    scales = 1.0 + 0.1 * np.arange(int(np.prod(batch)))
    P = (P_pred * scales[:, None, None]).reshape(batch + P_pred.shape)
    shape = batch + (model.K,)
    noise = model.sigma_w2 + np.where(rng.random(shape) < 0.3, rng.uniform(1, 2, shape), 0.0)
    got, want = gain_step(model, read_only(P), noise), oracles.gain_step(model, P, noise)
    for field in dataclasses.fields(want):
        assert_same_bits(getattr(got, field.name), getattr(want, field.name))
    assert got.white.strides == want.white.strides
    assert got.white.swapaxes(-1, -2).flags.c_contiguous


def test_gain_step_error_names_the_failing_matrix(ieee14_model):
    # a (2, 3) stack whose matrix [1, 2] is not a covariance: the error
    # gives the diagonal of that matrix's innovation covariance
    model = ieee14_model
    P_pred = PreSchedule(model, 1e-4).steps[0].P_pred
    P = np.broadcast_to(P_pred, (2, 3) + P_pred.shape).copy()
    P[1, 2] = -3.0 * np.eye(model.N)
    noise = np.full((2, 3, model.K), model.sigma_w2)
    M = model.meter_rows
    S = M @ (P[1, 2] @ M.T)
    oracles.add_diagonal(S, noise[1, 2] / model.lam)
    diagonal = f"diag min={S.diagonal().min():.3e} max={S.diagonal().max():.3e})"
    with pytest.raises(InnovationSolveError, match=re.escape(diagonal)):
        gain_step(model, P, noise)


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
    ks = KalmanState(rng.standard_normal(3), P, shares=False)
    out = kf_predict(model, ks, None)
    np.testing.assert_allclose(out.P, dense_predict_oracle(A, P, 2.5e-3), atol=1e-12)


def test_scalar_update_hand_values():
    # P_pred = 1, sigma_w2 = 1 -> gain 0.5 and P_upd = 0.5
    model = scalar_model(sigma_w2=1.0)
    ks = KalmanState(np.array([0.0]), np.eye(1))
    y = np.array([[1.0]])
    out = kf_update_pre(model, ks, y)
    assert out.x[0] == pytest.approx(0.5)
    assert out.P[0, 0] == pytest.approx(0.5)


def test_zero_innovation_keeps_state():
    model = scalar_model()
    ks = KalmanState(np.array([0.4]), np.eye(1))
    y = (model.H @ ks.x).reshape(1, 1)
    out = kf_update_pre(model, ks, y)
    np.testing.assert_allclose(out.x, ks.x, atol=1e-15)


def test_uninformative_measurements(ieee14_model, ieee14_topology):
    model = dataclasses.replace(ieee14_model, sigma_w2=1e12)
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(model, own_covariance(initial_state(x0, 1e-4)), None)
    y = np.ones((23, 5))
    out = kf_update_pre(model, ks, y)
    assert np.linalg.norm(out.x - ks.x) <= 1e-6


def test_post_with_zero_estimates_is_bitwise_pre(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(ieee14_model, own_covariance(initial_state(x0, 1e-4)), None)
    rng = np.random.default_rng(3)
    y = (ieee14_model.H @ x0 + rng.standard_normal(115) * 0.01).reshape(23, 5)
    pre = kf_update_pre(ieee14_model, ks, y)
    post = kf_update_post(
        ieee14_model, ks, post_mean(ieee14_model, ks, y), np.zeros(23), np.zeros(23), None
    )
    np.testing.assert_array_equal(pre.x, post.x)
    np.testing.assert_array_equal(pre.P, post.P)


def test_post_perfectly_explained_bias():
    model = scalar_model()
    ks = KalmanState(np.array([0.2]), np.eye(1))
    a_hat = np.array([0.6])
    y = (model.H @ ks.x + a_hat).reshape(1, 1)
    out = kf_update_post(model, ks, post_mean(model, ks, y), a_hat, np.zeros(1), None)
    np.testing.assert_allclose(out.x, ks.x, atol=1e-12)


def test_post_scalar_inflated_gain_third():
    model = scalar_model(sigma_w2=1.0)
    ks = KalmanState(np.array([0.0]), np.eye(1))
    y = np.array([[3.0]])
    out = kf_update_post(
        model, ks, post_mean(model, ks, y), np.zeros(1), np.array([1.0]), None
    )
    # gain = P / (P + sigma_w2 + sigma_hat) = 1/3
    assert out.x[0] == pytest.approx(1.0)


def test_post_expansion_convention(ieee14_model, ieee14_topology):
    # sigma_hat on meter k must inflate exactly rows k*lam..k*lam+lam-1:
    # with a huge variance on one meter, its innovation is ignored.
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(ieee14_model, own_covariance(initial_state(x0, 1e-4)), None)
    y_flat = ieee14_model.H @ x0
    y_flat = y_flat.copy()
    y_flat[3 * 5 : 4 * 5] += 5.0  # corrupt meter 3 only
    y = y_flat.reshape(23, 5)
    sigma = np.zeros(23)
    sigma[3] = 1e9
    out = kf_update_post(
        ieee14_model, ks, post_mean(ieee14_model, ks, y), np.zeros(23), sigma, None
    )
    assert np.linalg.norm(out.x - x0) < 1e-3
    out_bad = kf_update_pre(ieee14_model, ks, y)
    assert np.linalg.norm(out_bad.x - x0) > 10 * np.linalg.norm(out.x - x0)


def test_pre_post_trajectories_identical_with_zero_estimates(ieee14_model, ieee14_topology):
    # feeding zero attack estimates, the post filter must shadow the pre
    # filter bitwise over a whole trajectory
    x0 = ieee14_topology.initial_state()
    state = initial_sim_state(ieee14_model, x0, seed=13)
    pre = own_covariance(initial_state(x0, 1e-4))
    post = own_covariance(initial_state(x0, 1e-4))
    zeros = np.zeros(23)
    for _ in range(50):
        state, y = simulate_step(ieee14_model, state)
        pre = kf_update_pre(ieee14_model, kf_predict(ieee14_model, pre, None), y)
        post = kf_predict(ieee14_model, post, None)
        post = kf_update_post(
            ieee14_model, post, post_mean(ieee14_model, post, y), zeros, zeros, None
        )
        np.testing.assert_array_equal(pre.x, post.x)
        np.testing.assert_array_equal(pre.P, post.P)


def test_covariances_stay_psd_under_iteration(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    state = initial_sim_state(ieee14_model, x0, seed=21)
    ks = own_covariance(initial_state(x0, 1e-4))
    for t in range(1, 1001):
        state, y = simulate_step(ieee14_model, state)
        ks = kf_update_pre(ieee14_model, kf_predict(ieee14_model, ks, None), y)
        if t % 100 == 0:
            assert min_eigenvalue_ratio(ks.P) >= -1e-10
    assert np.all(np.isfinite(ks.P))


def test_update_factors_expose_innovation(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    ks = kf_predict(ieee14_model, own_covariance(initial_state(x0, 1e-4)), None)
    y = (ieee14_model.H @ x0 + 0.01).reshape(23, 5)
    step = pre_gain_step(ieee14_model, ks.P)
    _, innovation = kf_update_pre_full(ieee14_model, ks, y, step)
    np.testing.assert_allclose(innovation.reshape(-1), y.reshape(-1) - ieee14_model.H @ ks.x)
    # the step whitens the meter-mean innovation covariance: W Sbar W^T = I
    M = ieee14_model.meter_rows
    W = step.white
    Sbar = M @ ks.P @ M.T + (ieee14_model.sigma_w2 / ieee14_model.lam) * np.eye(23)
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

        pre, r = kf_update_pre_full(model, kf_predict(model, pre, step), y, step)
        post = kf_predict(model, post, step)
        post = kf_update_post(model, post, post_mean(model, post, y), a_hat, sigma_hat, step)
        shares = shares and not sigma_hat.any()
        assert pre.shares and post.shares == shares
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
        assert_rel_close(pre.x, pre_d.x)
        assert_rel_close(pre.P, pre_d.P)
        assert_rel_close(post.x, post_d.x)
        assert_rel_close(post.P, post_d.P)
        assert c == pytest.approx(c_d, rel=1e-9)
        if t % 40 == 0:
            post, post_d, shares = resync(pre.x, step), copy_state(pre_d), True


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
    ks = own_covariance(initial_state(np.zeros(model.N), 1e-4))
    for step in islice(schedule, 3000):
        ks = kf_predict(model, ks, None)
        expected = pre_gain_step(model, ks.P)
        np.testing.assert_array_equal(step.P_pred, expected.P_pred)
        np.testing.assert_array_equal(step.P_upd, expected.P_upd)
        ks = dataclasses.replace(ks, P=expected.P_upd)
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
    broken = KalmanState(x0, -np.eye(13))  # not a covariance
    y = (ieee14_model.H @ x0).reshape(23, 5)
    with pytest.raises(InnovationSolveError):
        kf_update_pre(ieee14_model, broken, y)
    with pytest.raises(InnovationSolveError):
        kf_update_post(
            ieee14_model, broken, post_mean(ieee14_model, broken, y), np.zeros(23),
            np.full(23, 1.0), None,
        )
    # a stacked post update where one trial of three is broken, alone among
    # the trials that run their own update or together with all of them
    step = PreSchedule(ieee14_model, 1e-4).steps[0]
    P = np.stack([step.P_pred, -np.eye(13), step.P_pred])
    xs = np.tile(x0, (3, 1))
    stacked = KalmanState(xs, P)
    mean = np.zeros((3, 23))
    sigma_hat = np.zeros((3, 23))
    sigma_hat[1:, 0] = 1.0
    for shares in (np.array([True, False, False]), np.array([False, False, False])):
        pred = dataclasses.replace(stacked, shares=shares)
        with pytest.raises(InnovationSolveError):
            kf_update_post(ieee14_model, pred, mean, np.zeros((3, 23)), sigma_hat, step)


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
    post = KalmanState(xs, own_P, shares)
    for step in steps[1:]:
        means = 1e-2 * rng.standard_normal((B, 23))
        a_hat = np.where(rng.random((B, 23)) < 0.3, 0.05, 0.0)
        sigma_hat = np.where(rng.random((B, 23)) < 0.2, 1.5, 0.0)
        sigma_hat[0] = sigma_hat[3] = 0.0
        pred = kf_predict(model, post, step)
        upd = kf_update_post(model, pred, means, a_hat, sigma_hat, step)
        for i in range(B):
            alone = KalmanState(post.x[i], post.P[i], shares[i])
            want_pred = kf_predict(model, alone, step)
            want = kf_update_post(model, want_pred, means[i], a_hat[i], sigma_hat[i], step)
            np.testing.assert_array_equal(np.broadcast_to(pred.P, (B, 13, 13))[i], want_pred.P)
            np.testing.assert_array_equal(pred.x[i], want_pred.x)
            np.testing.assert_array_equal(upd.x[i], want.x)
            np.testing.assert_array_equal(np.broadcast_to(upd.P, (B, 13, 13))[i], want.P)
            assert upd.shares[i] == want.shares
        assert pred.shares.tolist() == shares.tolist()
        post = upd
        shares = shares & ~sigma_hat.any(axis=1)
        assert post.shares.tolist() == shares.tolist()


def test_post_update_clears_the_flags_of_jammed_trials(ieee14_model, monkeypatch):
    # flags [T, T, F, F] with sigma_hat zero on rows 0 and 2: only row 0
    # keeps its flag and the step's gain and covariance; rows 1-3 run their
    # own K x K update, as one stacked call, and every row has the bits of
    # the same call on that trial alone
    model = ieee14_model
    rng = np.random.default_rng(12)
    step = next(iter(PreSchedule(model, 1e-4)))
    B = 4
    P = np.stack([step.P_pred * (1.0 + 0.1 * i * (i >= 2)) for i in range(B)])
    pred = KalmanState(1e-3 * rng.standard_normal((B, 13)), P, np.array([True, True, False, False]))
    means = 1e-2 * rng.standard_normal((B, 23))
    a_hat = np.where(rng.random((B, 23)) < 0.3, 0.05, 0.0)
    sigma_hat = np.where(rng.random((B, 23)) < 0.5, 1.5, 0.0)
    sigma_hat[[0, 2]] = 0.0
    sigma_hat[[1, 3], 0] = 1.5
    own = []
    real_gain_step = kalman.gain_step

    def spy(model, P_pred, noise):
        own.append(P_pred.copy())
        return real_gain_step(model, P_pred, noise)

    monkeypatch.setattr(kalman, "gain_step", spy)
    got = kf_update_post(model, pred, means, a_hat, sigma_hat, step)
    assert got.shares.tolist() == [True, False, False, False]
    assert len(own) == 1
    assert_same_bits(own[0], P[1:])
    assert_same_bits(got.P[0], step.P_upd)
    for i in range(B):
        alone = KalmanState(pred.x[i], P[i], pred.shares[i])
        want = kf_update_post(model, alone, means[i], a_hat[i], sigma_hat[i], step)
        assert_same_bits(got.x[i], want.x)
        assert_same_bits(got.P[i], want.P)
        assert got.shares[i] == want.shares
    assert len(own) == 4  # one own update for each of rows 1-3 alone


def test_resync_copies_the_pre_rows_and_sets_their_flags(ieee14_model):
    # in full, a copy of the pre filter's states with the entry's
    # covariance and every flag set; in part, on a stacked P, the trials
    # that stay keep the post filter's x, P and flags, and the rest take
    # the pre filter's
    model = ieee14_model
    rng = np.random.default_rng(5)
    step = next(iter(PreSchedule(model, 1e-4)))
    B = 4
    pre_x = read_only(rng.standard_normal((B, model.N)))
    full = resync(pre_x, step)
    assert_same_bits(full.x, pre_x)
    assert not np.shares_memory(full.x, pre_x)
    assert full.P is step.P_upd
    assert full.shares.tolist() == [True] * B

    stay = np.array([False, True, False, True])
    P = read_only(np.stack([step.P_upd * 1.1, step.P_upd * 1.2]))
    post = KalmanState(read_only(rng.standard_normal((2, model.N))), P, np.array([True, False]))
    part = resync(pre_x, step, post, stay)
    assert not np.shares_memory(part.x, pre_x) and not np.shares_memory(part.x, post.x)
    assert part.shares.tolist() == [True, True, True, False]
    for i, j in ((1, 0), (3, 1)):
        assert_same_bits(part.x[i], post.x[j])
        assert_same_bits(part.P[i], P[j])
    for i in (0, 2):
        assert_same_bits(part.x[i], pre_x[i])
        assert_same_bits(part.P[i], step.P_upd)


def a_model(topology, dense):
    """ieee14 with A = I, whose products kalman skips, or a dense A."""
    A = dense_stable_A(topology.n_states) if dense else "identity"
    model = build_model(topology, 5, 1e-4, 1e-4, A)
    assert model.identity_A == (not dense)
    return model


def start_states(model, B):
    """B filtered states near ieee14's angles, some entries -0.0, which an
    identity product returns as +0.0."""
    xs = 1e-3 * np.random.default_rng(4).standard_normal((B, model.N))
    xs[:, :3] = -0.0
    xs[1] = -0.0
    return xs


@pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense_A"])
def test_predict_matches_one_trial_oracle(ieee14_topology, dense):
    # kf_predict of a batch, with a covariance shared by every trial and
    # with stacked ones, some trials taking the schedule's prediction:
    # every trial has the bits of the oracle's A @ x and A @ P @ A.T, and
    # neither x nor P is written into
    model = a_model(ieee14_topology, dense)
    steps = list(islice(PreSchedule(model, 1e-4), 2))
    B = 4
    xs = start_states(model, B)
    stacked = np.stack([steps[0].P_upd * (1.0 + 0.1 * i) for i in range(B)])
    stacked[0, 1, 2] = stacked[0, 2, 1] = -0.0
    cases = [
        (steps[0].P_upd, False),
        (stacked, False),
        (stacked, np.array([True, False, True, False])),
    ]
    for P, shares in cases:
        ks = KalmanState(read_only(xs), read_only(P), shares)
        got = kf_predict(model, ks, steps[1])
        assert got.shares is shares
        assert_same_bits(ks.x, xs)
        assert_same_bits(ks.P, P)
        got_P = np.broadcast_to(got.P, (B, model.N, model.N))
        flags = np.broadcast_to(shares, B)
        for i in range(B):
            want_x, want_P = oracles.predict(model, xs[i], P if P.ndim == 2 else P[i])
            assert_same_bits(got.x[i], want_x)
            assert_same_bits(got_P[i], steps[1].P_pred if flags[i] else want_P)


@pytest.mark.parametrize("dense", [False, True], ids=["identity", "dense_A"])
def test_pre_filter_matches_one_trial_oracle(ieee14_topology, dense):
    # the pre filter over a block of 33 schedule entries, from states with
    # -0.0 entries: filtered states, innovations and their meter sums have
    # the bits of the oracle's one-vector products a trial and a step at a
    # time, each step's rows are contiguous (the arrays are step-major
    # views), and neither the states nor the measurements are written into
    model = a_model(ieee14_topology, dense)
    steps = list(islice(PreSchedule(model, 1e-4), 33))
    B = 3
    xs = start_states(model, B)
    Y = 1e-2 * np.random.default_rng(6).standard_normal((B, len(steps), model.K, model.lam))
    x, Y_in = read_only(xs), read_only(Y)
    got = pre_filter(model, x, Y_in, steps)
    assert_same_bits(x, xs)
    assert_same_bits(Y_in, Y)
    _, *want = oracles.pre_filter(model, xs, Y, steps)
    for g, w in zip(got, want, strict=True):
        assert_same_bits(g, w)
        assert g.swapaxes(0, 1).flags.c_contiguous
