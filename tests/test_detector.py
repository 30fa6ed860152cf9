import math
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch.detector import (
    DetectorConfig,
    ResidualBlock,
    algorithm1_step,
    classify_meters,
    clean_term,
    cusum_step,
    gllr,
    hypothesis_costs,
    mle_attack_params,
    residual_block,
    residual_stats,
)
from gridwatch.kalman import KalmanState, PreSchedule, initial_state, kf_predict, residuals

from conftest import GAMMA, SIGMA2_MIN, SIGMA_W2
from oracles import (
    assert_same_bits,
    brute_force_costs,
    four_array_statistics,
    gather_gllr,
    own_covariance,
    pre_half,
    random_residual_blocks,
)
from oracles import algorithm1_step as oracle_algorithm1_step

CFG = DetectorConfig(gamma=GAMMA, sigma2_min=SIGMA2_MIN)


def block_from_e(model, e_row, cfg=CFG):
    """Residual block for one meter pattern replicated over all K meters."""
    y = np.tile(e_row, (model.K, 1)).astype(float)
    return residual_block(model, y, np.zeros(model.N), cfg)


# ---------------------------------------------------------------------------
# residual_block


def test_zero_residuals(ieee14_model):
    # delta = zeta = 0: the mean is not interior, so the bias MLE is
    # +gamma and ssr_f is pi = 5 gamma^2 (which rho equals at delta = 0)
    x = np.zeros(13)
    y = np.zeros((23, 5))
    rb = residual_block(ieee14_model, y, x, CFG)
    assert not rb.mean.any()
    assert not rb.ssr[0].any()
    np.testing.assert_allclose(rb.ssr[1], 5 * GAMMA**2)
    assert (rb.a == GAMMA).all()


def test_residual_sums(ieee14_model):
    rb = block_from_e(ieee14_model, np.full(5, 0.1))
    np.testing.assert_allclose(rb.mean, 0.1)
    np.testing.assert_allclose(rb.ssr[0], 0.05)
    assert_same_bits(rb.a, rb.mean)  # interior: the bias MLE is the mean


def test_bias_mle_minimizes_the_constrained_ssr(ieee14_model):
    # rb.a is the minimizer of sum (e - a)^2 over |a| >= gamma, checked
    # against a grid of each half-line and the exact candidates, and ssr_f
    # is the SSR there, to a relative error of 1e-12 of the terms the
    # expansions cancel, which are at most zeta + lam gamma^2 (at |a| = gamma
    # ssr_f cancels to a few 1e-19, of either sign). Bit for bit, an
    # interior ssr_f is max(zeta - delta mean, 0) and a boundary one
    # (zeta -/+ 2 gamma delta) + lam gamma^2 on the side of the mean. The
    # hand rows: delta = 0, a mean of exactly +/-gamma (interior), and
    # means just inside and just outside the interior on each side
    rng = np.random.default_rng(0)
    g = GAMMA
    hand = [
        np.zeros(5), np.full(5, g), np.full(5, -g),
        np.full(5, g * (1 - 1e-9)), np.full(5, -g * (1 - 1e-9)),
        np.full(5, g * (1 + 1e-9)), np.full(5, -g * (1 + 1e-9)),
    ]
    E = np.concatenate((hand, random_residual_blocks(400, 5, rng)))
    delta, zeta = E.sum(axis=-1), (E * E).sum(axis=-1)
    mean = delta / 5
    assert mean[0] == 0.0 and mean[1] == g and mean[2] == -g
    interior = np.abs(mean) >= g
    assert interior[:7].tolist() == [False, True, True, False, False, True, True]
    assert 50 < interior.sum() < len(E) - 50  # both cases among the random blocks
    rb = residual_stats(ieee14_model, E, delta, CFG)
    ssr_f = rb.ssr[1]

    def ssr_at(a):  # sum (e - a)^2 for each row at each of the columns of a
        return ((E[:, None, :] - a[..., None]) ** 2).sum(axis=-1)

    side = np.linspace(g, 1.0, 801)
    grid = np.broadcast_to(np.concatenate((-side[::-1], side)), (len(E), 2 * side.size))
    exact = np.stack((np.full(len(E), g), np.full(len(E), -g), np.where(interior, mean, g)), axis=-1)
    at_a = ssr_at(rb.a[:, None])[:, 0]
    assert (np.abs(rb.a) >= g).all()
    assert (at_a <= ssr_at(grid).min(axis=-1)).all()
    assert (at_a <= ssr_at(exact).min(axis=-1) * (1 + 1e-12)).all()
    assert_same_bits(rb.a[:3], np.array([g, g, -g]))
    assert (np.abs(ssr_f - at_a) <= 1e-12 * (zeta + 5 * g * g)).all()
    boundary = np.where(mean >= 0.0, zeta - 2.0 * g * delta, zeta + 2.0 * g * delta) + 5 * g * g
    assert_same_bits(ssr_f[~interior], boundary[~interior])
    assert_same_bits(ssr_f[interior], np.maximum(zeta - delta * mean, 0.0)[interior])


# ---------------------------------------------------------------------------
# hypothesis_costs


def test_costs_at_zero_residual(ieee14_model):
    rb = block_from_e(ieee14_model, np.zeros(5))
    costs = hypothesis_costs(rb, ieee14_model, CFG)
    u0, uf = costs[0], costs[1]
    np.testing.assert_allclose(u0, 5 * math.log(SIGMA_W2))
    np.testing.assert_allclose(uf, 5 * math.log(SIGMA_W2) + 5 * GAMMA**2 / SIGMA_W2)
    assert np.all(uf > u0)


def test_cost_branch_tracing_constant_block(ieee14_model):
    # e = [0.1]*5: mean 0.1 >= gamma, centered variance 0 < sigma_w2+sigma2_min
    rb = block_from_e(ieee14_model, np.full(5, 0.1))
    costs = hypothesis_costs(rb, ieee14_model, CFG)
    np.testing.assert_allclose(costs[3], 5 * math.log(SIGMA_W2 + SIGMA2_MIN), rtol=1e-12)
    # uf captures the bias exactly: centered SSR = 0
    np.testing.assert_allclose(costs[1], 5 * math.log(SIGMA_W2), rtol=1e-12)
    # classification: fdi strictly cheapest
    labels = classify_meters(costs).labels
    assert np.all(labels == 1)


def test_costs_match_oracle_quick(ieee14_model):
    rng = np.random.default_rng(42)
    for lam in (1, 5):
        E = random_residual_blocks(4000, lam, rng)
        oracle = brute_force_costs(E, SIGMA_W2, GAMMA, SIGMA2_MIN)

        class _M:
            pass

        m = _M()
        m.lam = lam
        m.sigma_w2 = SIGMA_W2
        # the residual block of the raw blocks, one meter each
        rb = residual_stats(m, E, E.sum(axis=1), CFG)
        costs = hypothesis_costs(rb, m, CFG)
        for row, key in enumerate(("u0", "uf", "uj", "ufj")):
            np.testing.assert_allclose(costs[row], oracle[key], atol=1e-6, rtol=0)
        labels = classify_meters(costs).labels
        np.testing.assert_array_equal(labels, oracle["labels"])


def test_batched_statistics_match_single_trial_calls(ieee14_model):
    # a leading trial axis changes no bits: each trial of a batch gets what
    # the same call on that trial alone returns
    rng = np.random.default_rng(11)
    B = 4
    scale = 10.0 ** rng.uniform(-3, -1, (B, 23, 1))
    y = rng.standard_normal((B, 23, 5)) * scale
    x = rng.standard_normal((B, 13)) * 0.01
    rb = residual_block(ieee14_model, y, x, CFG)
    costs = hypothesis_costs(rb, ieee14_model, CFG)
    cls = classify_meters(costs)
    a_hat, sigma_hat = mle_attack_params(rb, cls, CFG, ieee14_model)
    e = residuals(ieee14_model, y, x)
    beta = gllr(clean_term(e, ieee14_model), costs)
    assert len(set(cls.labels.ravel())) == 4  # every hypothesis occurs
    for i in range(B):
        rb1 = residual_block(ieee14_model, y[i], x[i], CFG)
        costs1 = hypothesis_costs(rb1, ieee14_model, CFG)
        cls1 = classify_meters(costs1)
        a_hat1, sigma_hat1 = mle_attack_params(rb1, cls1, CFG, ieee14_model)
        for got, want in [
            (e[i], residuals(ieee14_model, y[i], x[i])),
            (rb.mean[i], rb1.mean), (rb.a[i], rb1.a), (rb.ssr[i], rb1.ssr),
            (costs[i], costs1), (cls.labels[i], cls1.labels),
            (a_hat[i], a_hat1), (sigma_hat[i], sigma_hat1),
        ]:
            np.testing.assert_array_equal(got, want)
        assert beta[i] == gllr(clean_term(e[i], ieee14_model), costs1)


# Hand-made meter rows (lam = 5) for the oracle comparison below: an
# interior mean on each side, a boundary mean on each side, delta = 0, zeta
# above and ssr_f below the variance floor, ssr_f above it, both below it.
HAND_ROWS = [
    np.full(5, 0.1),
    np.full(5, -0.1),
    np.full(5, 0.01),
    np.full(5, -0.01),
    np.array([0.01, -0.01, 0.02, -0.02, 0.0]),
    np.full(5, math.sqrt(2e-2)),
    np.array([0.3, -0.3, 0.3, -0.3, 0.0]),
    np.full(5, 0.001),
]


@pytest.mark.parametrize("B", [1, 6])
def test_cost_table_matches_four_array_oracle(ieee14_model, B):
    # the (B, 4, K) table path gives the bits of the four-array formulation
    rng = np.random.default_rng(B)
    y = random_residual_blocks(B * 23, 5, rng).reshape(B, 23, 5)
    n = len(HAND_ROWS)
    y[:, :n] = HAND_ROWS
    y[:, n] = HAND_ROWS[4]
    rb = residual_block(ieee14_model, y, np.zeros((B, 13)), CFG)
    r_pre = y - rng.standard_normal((B, 23, 1)) * 0.01
    want = four_array_statistics(y, ieee14_model, CFG, r_pre, tie=n)
    # exact ties: at delta = 0 the boundary SSR is pi, so pi = zeta makes
    # u0 == uf and uj == ufj on meter n; the block takes ssr_f = zeta there
    assert not want["delta"][:, 4].any() and not want["delta"][:, n].any()
    ssr = rb.ssr.copy()
    ssr[:, 1, n] = ssr[:, 0, n]
    rb = ResidualBlock(rb.mean, rb.a, ssr)

    costs = hypothesis_costs(rb, ieee14_model, CFG)
    cls = classify_meters(costs)
    a_hat, sigma_hat = mle_attack_params(rb, cls, CFG, ieee14_model)
    assert want["interior"][:, :2].all() and not want["interior"][:, 2:5].any()
    floor = SIGMA_W2 + SIGMA2_MIN
    # rows 5-7 against the floor: [zeta, ssr_f] over [5, 6, 7]
    above = [[True, True, False], [False, True, False]]
    assert (rb.ssr[:, :, 5:8] / 5 >= floor).tolist() == [above] * B
    assert (want["u0"][:, n] == want["uf"][:, n]).all() and (want["uj"][:, n] == want["ufj"][:, n]).all()
    assert set(cls.labels.ravel()) == {0, 1, 2, 3}
    for got, key in [
        (rb.mean, "mean"), (rb.a, "clamp"), (rb.ssr[..., 1, :], "ssr_f"),
        (costs[..., 0, :], "u0"), (costs[..., 1, :], "uf"),
        (costs[..., 2, :], "uj"), (costs[..., 3, :], "ufj"),
        (cls.labels, "labels"), (a_hat, "a_hat"), (sigma_hat, "sigma_hat"),
        (gllr(clean_term(r_pre, ieee14_model), costs), "beta"),
    ]:
        assert_same_bits(got, want[key])
    assert_same_bits(rb.ssr[..., 0, :], want["zeta"])

    # ties of every pattern, and signed zeros, straight in the table
    table = rng.integers(-2, 3, (B, 4, 23)) * rng.choice([-1.0, 1.0], (B, 4, 23))
    labels = classify_meters(table).labels
    assert_same_bits(labels, np.argmin(table, axis=-2))
    got = gllr(clean_term(r_pre, ieee14_model), table)
    assert_same_bits(got, gather_gllr(r_pre, table, labels, ieee14_model))


# ---------------------------------------------------------------------------
# classify_meters


def test_all_equal_costs_go_clean():
    costs = np.zeros((4, 4))
    labels = classify_meters(costs).labels
    assert np.all(labels == 0)


def test_strictly_minimal_fdi():
    costs = np.array([[1.0], [0.5], [1.0], [1.0]])
    assert classify_meters(costs).labels[0] == 1


def test_tie_precedence_matches_inequality_pattern():
    # jam ties fdi -> fdi wins (u^f <= u^j non-strict); both tie clean -> clean
    costs = np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 1.0], [3.0, 1.0]])
    labels = classify_meters(costs).labels
    assert labels[0] == 1
    assert labels[1] == 0


@settings(max_examples=300, deadline=None)
@given(
    st.lists(
        st.tuples(*(st.floats(-1e6, 1e6) for _ in range(4))), min_size=1, max_size=30
    )
)
def test_classification_is_partition(cost_rows):
    arr = np.array(cost_rows, dtype=float)
    cls = classify_meters(arr.T)
    # one hypothesis per meter
    assert cls.labels.shape == arr.shape[:1] and np.isin(cls.labels, range(4)).all()
    # verify the paper's inequality pattern meter by meter
    for k in range(arr.shape[0]):
        u0, uf, uj, ufj = arr[k]
        lab = cls.labels[k]
        if lab == 0:
            assert u0 <= uf and u0 <= uj and u0 <= ufj
        elif lab == 1:
            assert uf < u0 and uf <= uj and uf <= ufj
        elif lab == 2:
            assert uj < u0 and uj < uf and uj <= ufj
        else:
            assert ufj < u0 and ufj < uf and ufj < uj


# ---------------------------------------------------------------------------
# mle_attack_params


def forced_labels(model, rb, labels_value):
    from gridwatch.detector import MeterClassification

    return MeterClassification(labels=np.full(model.K, labels_value))


def test_mle_bias_interior(ieee14_model):
    rb = block_from_e(ieee14_model, np.full(5, 0.1))
    a_hat, sigma_hat = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(a_hat, 0.1)
    assert not sigma_hat.any()


def test_mle_bias_clamped_to_boundary(ieee14_model):
    rb = block_from_e(ieee14_model, np.full(5, 0.01))
    a_hat, _ = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(a_hat, GAMMA)
    rb = block_from_e(ieee14_model, np.full(5, -0.01))
    a_hat, _ = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(a_hat, -GAMMA)


def test_mle_zero_mean_maps_to_plus_gamma(ieee14_model):
    # delta = 0 falls in the 0 <= delta/lam < gamma branch
    e = np.array([0.01, -0.01, 0.02, -0.02, 0.0])
    rb = block_from_e(ieee14_model, e)
    assert rb.mean[0] == 0.0
    a_hat, _ = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(a_hat, GAMMA)


def test_mle_jam_variance_interior(ieee14_model):
    # zeta/lam = 2e-2 >= sigma_w2 + sigma2_min -> sigma2 = 2e-2 - 1e-4
    e = np.full(5, math.sqrt(2e-2))
    rb = block_from_e(ieee14_model, e)
    assert rb.ssr[0, 0] / 5 == pytest.approx(2e-2)
    a_hat, sigma_hat = mle_attack_params(rb, forced_labels(ieee14_model, rb, 2), CFG, ieee14_model)
    np.testing.assert_allclose(sigma_hat, 2e-2 - SIGMA_W2, rtol=1e-12)
    assert not a_hat.any()


def test_mle_jam_variance_floored(ieee14_model):
    rb = block_from_e(ieee14_model, np.full(5, 0.001))
    _, sigma_hat = mle_attack_params(rb, forced_labels(ieee14_model, rb, 2), CFG, ieee14_model)
    np.testing.assert_allclose(sigma_hat, SIGMA2_MIN)


def test_mle_feasibility_on_random_blocks(ieee14_model):
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = rng.standard_normal((23, 5)) * 10.0 ** rng.uniform(-3, 0)
        rb = residual_block(ieee14_model, y, rng.standard_normal(13) * 0.01, CFG)
        costs = hypothesis_costs(rb, ieee14_model, CFG)
        cls = classify_meters(costs)
        a, s = mle_attack_params(rb, cls, CFG, ieee14_model)
        assert np.all((a == 0.0) | (np.abs(a) >= GAMMA - 1e-15))
        assert np.all((s == 0.0) | (s >= SIGMA2_MIN - 1e-15))
        labels = cls.labels
        assert np.all((a != 0) == np.isin(labels, (1, 3)))
        assert np.all((s != 0) == np.isin(labels, (2, 3)))


# ---------------------------------------------------------------------------
# gllr


def test_gllr_zero_at_perfect_fit(two_bus_model):
    rb = residual_block(two_bus_model, np.zeros((1, 1)), np.zeros(1), CFG)
    costs = hypothesis_costs(rb, two_bus_model, CFG)
    beta = gllr(clean_term(np.zeros((1, 1)), two_bus_model), costs)
    assert beta == 0.0


def test_gllr_positive_for_huge_bias(ieee14_model):
    e = np.full(5, 1000 * GAMMA)
    rb = block_from_e(ieee14_model, e)
    costs = hypothesis_costs(rb, ieee14_model, CFG)
    # pre-filter residuals equal the raw bias (no recovery on the clean side)
    r_pre = np.tile(e, (23, 1))
    assert gllr(clean_term(r_pre, ieee14_model), costs) > 0


# ---------------------------------------------------------------------------
# cusum_step


def test_cusum_clamp_and_sync_flag():
    g, sync = cusum_step(0.0, -1.0)
    assert g == 0.0
    assert sync


def test_cusum_threshold_crossing():
    # the recursion has no threshold: it runs on past any h (the caller
    # stops at the first step g reaches h) until a clamp
    g, sync = cusum_step(8.0, 3.0)
    assert (g, sync) == (11.0, False)
    g, sync = cusum_step(g, 0.5)
    assert (g, sync) == (11.5, False)
    g, sync = cusum_step(g, -20.0)
    assert (g, sync) == (0.0, True)


@pytest.mark.parametrize("beta", [-0.0, math.nan])
def test_cusum_clamp_gives_positive_zero(beta):
    # a clamped g is +0.0, with the sync flag, for a sum of -0.0 or NaN:
    # the recorded g path keeps its bits. np.maximum(0.0, x) gives -0.0
    # and nan for x = -0.0 and nan, so an elementwise step must not be a
    # bare np.maximum; np.where(x > 0, x, 0.0) gives what max(0.0, x) does
    g, sync = cusum_step(0.0, beta)
    assert (g, math.copysign(1.0, g), sync) == (0.0, 1.0, True)
    x = np.array([-0.0, math.nan])
    assert_same_bits(np.where(x > 0, x, 0.0), np.array([max(0.0, v) for v in x.tolist()]))


def test_cusum_negative_drift_returns_to_zero_often():
    rng = np.random.default_rng(8)
    g = 0.0
    zeros = 0
    for _ in range(10_000):
        g, sync = cusum_step(g, rng.normal(-0.5, 1.0))
        zeros += sync
    assert zeros >= 100  # at least once per 100 steps on average


def test_threshold_monotonicity_pathwise():
    rng = np.random.default_rng(9)
    betas = rng.normal(0.05, 1.0, 5000)
    g = 0.0
    path = []
    for b in betas:
        g = max(0.0, g + b)
        path.append(g)
    path = np.array(path)

    def stop(h):
        idx = np.flatnonzero(path >= h)
        return idx[0] if idx.size else math.inf

    stops = [stop(h) for h in (1.0, 2.0, 5.0, 10.0, 20.0)]
    assert stops == sorted(stops)


# ---------------------------------------------------------------------------
# algorithm1_step


def test_algorithm1_residuals_use_post_prediction(ieee14_model, ieee14_topology):
    # the bias estimate must come from x1_{t|t-1}: feeding a huge bias on one
    # meter yields a_hat equal to the mean residual against the *prediction*,
    # unaffected by this step's own update
    model = ieee14_model
    x0 = ieee14_topology.initial_state()
    pre = post = initial_state(x0[None], 1e-4)  # a batch of one trial
    y_flat = model.H @ x0
    y_flat = y_flat.copy()
    y_flat[0:5] += 0.5
    y = y_flat.reshape(1, 23, 5)
    # A = I, so the post prediction the residuals are built on is x0
    np.testing.assert_array_equal(kf_predict(model, own_covariance(post), None).x[0], x0)
    pre_step, pre_x, clean, beta_pre = pre_half(model, CFG, pre, y)
    step = algorithm1_step(post, [0.0], model, CFG, y, pre_step, pre_x, clean, beta_pre)
    (g,) = step.g
    assert g > 0.0  # no re-sync: the post filter ran its own update
    # scored against the prediction x0, meter 0 is explained by a_hat = 0.5
    rb = residual_block(model, y, x0[None], CFG)
    costs = hypothesis_costs(rb, model, CFG)
    a_hat, _ = mle_attack_params(rb, classify_meters(costs), CFG, model)
    assert a_hat[0, 0] == pytest.approx(0.5, rel=1e-9)
    assert_same_bits(step.beta, gllr(clean, costs))
    # so the update leaves the post state at x0, while the pre filter gets
    # dragged; had the residuals used the post *update* (which subtracts the
    # explained bias), the estimate could not equal the injected 0.5 and the
    # rest of the bias would drag the post state too
    np.testing.assert_allclose(step.post.x[0], x0, atol=1e-12)
    assert np.linalg.norm(pre_x[0] - x0) > 1e-4


def test_algorithm1_sync_resets_post_and_tau(ieee14_model, ieee14_topology):
    # a biased first step lifts g and moves the post filter off the pre
    # filter; clean steps then bring g back to zero, and the step that
    # clamps it re-syncs the post filter to the pre estimate; that step is
    # the one the harness makes tau_hat
    model = ieee14_model
    x0 = ieee14_topology.initial_state()
    pre = post = initial_state(x0[None], 1e-4)  # a batch of one trial
    g = [0.0]
    rng = np.random.default_rng(0)
    apart = False
    for t in range(1, 30):
        y = (model.H @ x0).reshape(1, 23, 5) + 0.01 * rng.standard_normal((1, 23, 5))
        y[0, 0] += 0.05 if t == 1 else 0.0
        pre_step, pre_x, clean, beta_pre = pre_half(model, CFG, pre, y)
        step = algorithm1_step(post, g, model, CFG, y, pre_step, pre_x, clean, beta_pre)
        pre = KalmanState(pre_x, pre_step.P_upd)
        post, g = step.post, step.g
        if g[0] > 0.0:
            apart = bool(np.any(post.x != pre.x))
            continue
        break
    assert apart and t > 2
    assert g == [0.0]
    np.testing.assert_array_equal(post.x, pre.x)
    np.testing.assert_array_equal(post.P, pre.P)
    assert post.shares.tolist() == [True]


def test_algorithm1_step_matches_whole_step_oracle(ieee14_model, ieee14_topology):
    # four trials from one state, each with its own data, against the oracle
    # that predicts, scores and updates every trial and then re-syncs: trials
    # on and off the pre track in one batch, on-track trials that do not
    # re-sync, and steps where some trials re-sync and others update
    model = ieee14_model
    x0 = ieee14_topology.initial_state()
    B = 4
    pre = post = want_pre = want_post = initial_state(np.tile(x0, (B, 1)), 1e-4)
    g = want_g = [0.0] * B
    rng = np.random.default_rng(5)
    seen = dict.fromkeys(("mixed", "on_stays", "some_sync"), False)
    for schedule_step in islice(PreSchedule(model, 1e-4), 59):
        y = np.tile((model.H @ x0).reshape(23, 5), (B, 1, 1))
        y += 0.01 * rng.standard_normal(y.shape)
        y[:, :3] += np.where(rng.random((B, 1, 1)) < 0.3, 0.03, 0.0)
        pre_step, pre_x, clean, beta_pre = pre_half(model, CFG, pre, y, schedule_step)
        on = np.array(g) == 0.0
        step = algorithm1_step(post, g, model, CFG, y, pre_step, pre_x, clean, beta_pre)
        want_pre, want, _ = oracle_algorithm1_step(
            want_pre, want_post, want_g, model, CFG, y, pre_step
        )
        assert_same_bits(step.beta, want.beta)
        assert_same_bits(np.array(step.g), np.array(want.g))
        pre = KalmanState(pre_x, pre_step.P_upd)
        assert_same_bits(pre.x, want_pre.x)
        assert_same_bits(step.post.x, want.post.x)
        assert step.post.shares.tolist() == want.post.shares.tolist()
        own = ~step.post.shares
        assert_same_bits(
            np.broadcast_to(step.post.P, (B, 13, 13))[own],
            np.broadcast_to(want.post.P, (B, 13, 13))[own],
        )
        sync = np.array(step.g) == 0.0
        seen["mixed"] |= bool(on.any() and not on.all())
        seen["on_stays"] |= bool((on & ~sync).any())
        seen["some_sync"] |= bool(sync.any() and not sync.all())
        post, g = step.post, step.g
        want_post, want_g = want.post, want.g
    assert seen == dict.fromkeys(seen, True)
