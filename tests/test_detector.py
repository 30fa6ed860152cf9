import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import (
    CusumState,
    DetectorConfig,
    algorithm1_step,
    classify_meters,
    cusum_step,
    gllr,
    hypothesis_costs,
    initial_bank,
    mle_attack_params,
    residual_block,
)
from gridwatch.detector import HypothesisCosts, ResidualBlock

from conftest import GAMMA, SIGMA2_MIN, SIGMA_W2
from oracles import (
    assert_same_bits,
    brute_force_costs,
    four_array_statistics,
    gather_gllr,
    random_residual_blocks,
)

CFG = DetectorConfig(gamma=GAMMA, sigma2_min=SIGMA2_MIN)


def block_from_e(model, e_row, cfg=CFG):
    """Residual block for one meter pattern replicated over all K meters."""
    y = np.tile(e_row, (model.K, 1)).astype(float)
    return residual_block(model, y, np.zeros(model.N), cfg)


# ---------------------------------------------------------------------------
# residual_block


def test_zero_residuals(ieee14_model):
    x = np.zeros(13)
    y = np.zeros((23, 5))
    rb = residual_block(ieee14_model, y, x, CFG)
    assert not rb.e.any()
    assert not rb.delta.any()
    assert not rb.zeta.any()
    np.testing.assert_allclose(rb.pi, 5 * GAMMA**2)
    np.testing.assert_allclose(rb.rho, 5 * GAMMA**2)


def test_residual_sums(ieee14_model):
    rb = block_from_e(ieee14_model, np.full(5, 0.1))
    np.testing.assert_allclose(rb.delta, 0.5)
    np.testing.assert_allclose(rb.zeta, 0.05)


def test_pi_identity_on_random_inputs(ieee14_model):
    rng = np.random.default_rng(0)
    y = rng.standard_normal((23, 5)) * 0.05
    rb = residual_block(ieee14_model, y, rng.standard_normal(13) * 0.01, CFG)
    expected = rb.zeta - 2 * GAMMA * rb.delta + 5 * GAMMA**2
    np.testing.assert_allclose(rb.pi, expected, rtol=1e-10)
    expected_rho = rb.zeta + 2 * GAMMA * rb.delta + 5 * GAMMA**2
    np.testing.assert_allclose(rb.rho, expected_rho, rtol=1e-10)


# ---------------------------------------------------------------------------
# hypothesis_costs


def test_costs_at_zero_residual(ieee14_model):
    rb = block_from_e(ieee14_model, np.zeros(5))
    costs = hypothesis_costs(rb, ieee14_model, CFG)
    np.testing.assert_allclose(costs.u0, 5 * math.log(SIGMA_W2))
    np.testing.assert_allclose(costs.uf, 5 * math.log(SIGMA_W2) + 5 * GAMMA**2 / SIGMA_W2)
    assert np.all(costs.uf > costs.u0)


def test_cost_branch_tracing_constant_block(ieee14_model):
    # e = [0.1]*5: mean 0.1 >= gamma, centered variance 0 < sigma_w2+sigma2_min
    rb = block_from_e(ieee14_model, np.full(5, 0.1))
    costs = hypothesis_costs(rb, ieee14_model, CFG)
    np.testing.assert_allclose(costs.ufj, 5 * math.log(SIGMA_W2 + SIGMA2_MIN), rtol=1e-12)
    # uf captures the bias exactly: centered SSR = 0
    np.testing.assert_allclose(costs.uf, 5 * math.log(SIGMA_W2), rtol=1e-12)
    # classification: fdi strictly cheapest
    labels = classify_meters(costs).labels
    assert np.all(labels == 1)


def test_costs_match_oracle_quick(ieee14_model):
    rng = np.random.default_rng(42)
    for lam in (1, 5):
        E = random_residual_blocks(4000, lam, rng)
        oracle = brute_force_costs(E, SIGMA_W2, GAMMA, SIGMA2_MIN)
        model = ieee14_model if lam == 5 else None
        # evaluate the closed forms directly on the raw blocks
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

        class _M:
            pass

        m = _M()
        m.lam = lam
        m.sigma_w2 = SIGMA_W2
        costs = hypothesis_costs(rb, m, CFG)
        np.testing.assert_allclose(costs.u0, oracle["u0"], atol=1e-6, rtol=0)
        np.testing.assert_allclose(costs.uf, oracle["uf"], atol=1e-6, rtol=0)
        np.testing.assert_allclose(costs.uj, oracle["uj"], atol=1e-6, rtol=0)
        np.testing.assert_allclose(costs.ufj, oracle["ufj"], atol=1e-6, rtol=0)
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
    est = mle_attack_params(rb, cls, CFG, ieee14_model)
    beta = gllr(rb.e, costs, ieee14_model)
    assert len(set(cls.labels.ravel())) == 4  # every hypothesis occurs
    for i in range(B):
        rb1 = residual_block(ieee14_model, y[i], x[i], CFG)
        costs1 = hypothesis_costs(rb1, ieee14_model, CFG)
        cls1 = classify_meters(costs1)
        est1 = mle_attack_params(rb1, cls1, CFG, ieee14_model)
        for got, want in [
            (rb.e[i], rb1.e), (rb.mean[i], rb1.mean), (rb.ssr[i], rb1.ssr),
            (costs.table[i], costs1.table), (cls.labels[i], cls1.labels),
            (est.a_hat[i], est1.a_hat), (est.sigma_hat[i], est1.sigma_hat),
        ]:
            np.testing.assert_array_equal(got, want)
        assert beta[i] == gllr(rb1.e, costs1, ieee14_model)


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
    # exact ties: at delta = 0 the boundary SSR is pi, so pi = zeta makes
    # u0 == uf and uj == ufj on meter n
    assert not rb.delta[:, 4].any() and not rb.delta[:, n].any()
    pi = rb.pi.copy()
    pi[:, n] = rb.zeta[:, n]
    rb = ResidualBlock(e=rb.e, delta=rb.delta, zeta=rb.zeta, rho=rb.rho, pi=pi, gamma=GAMMA)
    r_pre = y - rng.standard_normal((B, 23, 1)) * 0.01

    costs = hypothesis_costs(rb, ieee14_model, CFG)
    cls = classify_meters(costs)
    est = mle_attack_params(rb, cls, CFG, ieee14_model)
    want = four_array_statistics(rb, ieee14_model, CFG, r_pre)
    assert rb.interior[:, :2].all() and not rb.interior[:, 2:5].any()
    floor = SIGMA_W2 + SIGMA2_MIN
    # rows 5-7 against the floor: [zeta, ssr_f] over [5, 6, 7]
    above = [[True, True, False], [False, True, False]]
    assert (rb.ssr[:, :, 5:8] / 5 >= floor).tolist() == [above] * B
    assert (want["u0"][:, n] == want["uf"][:, n]).all() and (want["uj"][:, n] == want["ufj"][:, n]).all()
    assert set(cls.labels.ravel()) == {0, 1, 2, 3}
    for got, key in [
        (rb.mean, "mean"), (rb.interior, "interior"), (rb.ssr[..., 1, :], "ssr_f"),
        (costs.u0, "u0"), (costs.uf, "uf"), (costs.uj, "uj"), (costs.ufj, "ufj"),
        (cls.labels, "labels"), (est.a_hat, "a_hat"), (est.sigma_hat, "sigma_hat"),
        (gllr(r_pre, costs, ieee14_model), "beta"),
    ]:
        assert_same_bits(got, want[key])
    assert_same_bits(rb.ssr[..., 0, :], rb.zeta)

    # ties of every pattern, and signed zeros, straight in the table
    table = rng.integers(-2, 3, (B, 4, 23)) * rng.choice([-1.0, 1.0], (B, 4, 23))
    tied = HypothesisCosts(table)
    labels = classify_meters(tied).labels
    assert_same_bits(labels, np.argmin(table, axis=-2))
    assert_same_bits(gllr(r_pre, tied, ieee14_model), gather_gllr(r_pre, table, labels, ieee14_model))


# ---------------------------------------------------------------------------
# classify_meters


def test_all_equal_costs_go_clean():
    costs = HypothesisCosts(np.zeros((4, 4)))
    labels = classify_meters(costs).labels
    assert np.all(labels == 0)


def test_strictly_minimal_fdi():
    costs = HypothesisCosts(np.array([[1.0], [0.5], [1.0], [1.0]]))
    assert classify_meters(costs).labels[0] == 1


def test_tie_precedence_matches_inequality_pattern():
    # jam ties fdi -> fdi wins (u^f <= u^j non-strict); both tie clean -> clean
    costs = HypothesisCosts(np.array([[2.0, 1.0], [1.0, 1.0], [1.0, 1.0], [3.0, 1.0]]))
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
    costs = HypothesisCosts(arr.T)
    cls = classify_meters(costs)
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
    est = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(est.a_hat, 0.1)
    assert not est.sigma_hat.any()


def test_mle_bias_clamped_to_boundary(ieee14_model):
    rb = block_from_e(ieee14_model, np.full(5, 0.01))
    est = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(est.a_hat, GAMMA)
    rb = block_from_e(ieee14_model, np.full(5, -0.01))
    est = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(est.a_hat, -GAMMA)


def test_mle_zero_mean_maps_to_plus_gamma(ieee14_model):
    # delta = 0 falls in the 0 <= delta/lam < gamma branch
    e = np.array([0.01, -0.01, 0.02, -0.02, 0.0])
    rb = block_from_e(ieee14_model, e)
    assert rb.delta[0] == pytest.approx(0.0, abs=1e-15)
    est = mle_attack_params(rb, forced_labels(ieee14_model, rb, 1), CFG, ieee14_model)
    np.testing.assert_allclose(est.a_hat, GAMMA)


def test_mle_jam_variance_interior(ieee14_model):
    # zeta/lam = 2e-2 >= sigma_w2 + sigma2_min -> sigma2 = 2e-2 - 1e-4
    e = np.full(5, math.sqrt(2e-2))
    rb = block_from_e(ieee14_model, e)
    assert rb.zeta[0] / 5 == pytest.approx(2e-2)
    est = mle_attack_params(rb, forced_labels(ieee14_model, rb, 2), CFG, ieee14_model)
    np.testing.assert_allclose(est.sigma_hat, 2e-2 - SIGMA_W2, rtol=1e-12)
    assert not est.a_hat.any()


def test_mle_jam_variance_floored(ieee14_model):
    rb = block_from_e(ieee14_model, np.full(5, 0.001))
    est = mle_attack_params(rb, forced_labels(ieee14_model, rb, 2), CFG, ieee14_model)
    np.testing.assert_allclose(est.sigma_hat, SIGMA2_MIN)


def test_mle_feasibility_on_random_blocks(ieee14_model):
    rng = np.random.default_rng(7)
    for _ in range(200):
        y = rng.standard_normal((23, 5)) * 10.0 ** rng.uniform(-3, 0)
        rb = residual_block(ieee14_model, y, rng.standard_normal(13) * 0.01, CFG)
        costs = hypothesis_costs(rb, ieee14_model, CFG)
        cls = classify_meters(costs)
        est = mle_attack_params(rb, cls, CFG, ieee14_model)
        a, s = est.a_hat, est.sigma_hat
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
    beta = gllr(np.zeros((1, 1)), costs, two_bus_model)
    assert beta == 0.0


def test_gllr_positive_for_huge_bias(ieee14_model):
    e = np.full(5, 1000 * GAMMA)
    rb = block_from_e(ieee14_model, e)
    costs = hypothesis_costs(rb, ieee14_model, CFG)
    # pre-filter residuals equal the raw bias (no recovery on the clean side)
    r_pre = np.tile(e, (23, 1))
    assert gllr(r_pre, costs, ieee14_model) > 0


# ---------------------------------------------------------------------------
# cusum_step


def test_cusum_clamp_and_sync_flag():
    cs, sync = cusum_step(CusumState(g=0.0), -1.0, t=4)
    assert cs.g == 0.0
    assert sync
    assert cs.tau_hat == 4


def test_cusum_threshold_crossing():
    # the recursion has no threshold: it runs on past any h (the caller
    # stops at the first step g reaches h), keeping tau_hat until a clamp
    cs, sync = cusum_step(CusumState(g=8.0, tau_hat=3), 3.0, t=11)
    assert (cs.g, cs.tau_hat, sync) == (11.0, 3, False)
    cs, sync = cusum_step(cs, 0.5, t=12)
    assert (cs.g, cs.tau_hat, sync) == (11.5, 3, False)
    cs, sync = cusum_step(cs, -20.0, t=13)
    assert (cs.g, cs.tau_hat, sync) == (0.0, 13, True)


def test_cusum_negative_drift_returns_to_zero_often():
    rng = np.random.default_rng(8)
    cs = CusumState()
    zeros = 0
    for t in range(1, 10_001):
        cs, sync = cusum_step(cs, rng.normal(-0.5, 1.0), t)
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
    x0 = ieee14_topology.initial_state()
    bank = initial_bank(x0[None], 1e-4)  # a batch of one trial
    y_flat = ieee14_model.H @ x0
    y_flat = y_flat.copy()
    y_flat[0:5] += 0.5
    y = y_flat.reshape(1, 23, 5)
    step = algorithm1_step(bank, [CusumState()], ieee14_model, CFG, y, 1)
    np.testing.assert_array_equal(step.x_post_pred[0], x0)  # A = I, prediction is x0
    assert step.estimate.a_hat[0, 0] == pytest.approx(0.5, rel=1e-9)
    # had the residuals used the post *update* (which subtracts the explained
    # bias), the estimate could not equal the injected 0.5; meanwhile the
    # recovery leaves the post state at x0 while the pre filter gets dragged
    np.testing.assert_allclose(step.bank.post.x_upd[0], x0, atol=1e-12)
    assert np.linalg.norm(step.bank.pre.x_upd[0] - x0) > 1e-4


def test_algorithm1_sync_resets_post_and_tau(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    bank = initial_bank(x0[None], 1e-4)  # a batch of one trial
    bank.post.x_upd[:] += 0.05
    y = (ieee14_model.H @ x0).reshape(1, 23, 5)
    step = algorithm1_step(bank, [CusumState()], ieee14_model, CFG, y, 1)
    (cs,) = step.cusum
    if cs.g == 0.0:
        np.testing.assert_array_equal(step.bank.post.x_upd, step.bank.pre.x_upd)
        assert cs.tau_hat == 1
