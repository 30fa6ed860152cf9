import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridwatch import (
    Blocks,
    TopologyError,
    build_model,
    load_topology,
    simulate_step,
    topology_fault,
)
from gridwatch.grid_model import BLOCK_STEPS, simulate_block

import oracles
from conftest import SIGMA_V2, SIGMA_W2, dense_stable_A
from oracles import assert_same_bits


def sim_batch(model, x0, seeds):
    """The (B, N) start states and simulation streams of one trial per seed."""
    noise = Blocks(seeds, "standard_normal", model.N + model.K * model.lam)
    return np.tile(np.asarray(x0, dtype=float), (len(seeds), 1)), noise


def test_two_bus_smallest_legal(two_bus_path):
    top = load_topology(two_bus_path)
    assert top.n_states == 1
    assert top.n_meters == 1
    model = build_model(top, lam=1, sigma_v2=SIGMA_V2, sigma_w2=SIGMA_W2)
    assert model.H.shape == (1, 1)
    np.testing.assert_allclose(model.H, [[1.0]])


def test_ieee14_counts(ieee14_topology, ieee14_model):
    assert len(ieee14_topology.buses) == 14
    assert ieee14_topology.n_meters == 23
    assert ieee14_topology.n_states == 13
    # lam = 5 -> 23 distinct rows each repeated 5 times
    assert ieee14_model.H.shape == (115, 13)
    for k in range(23):
        block = ieee14_model.H[5 * k : 5 * k + 5]
        assert np.all(block == block[0])
        np.testing.assert_array_equal(block[0], ieee14_model.meter_rows[k])


def test_undeclared_bus_error(tmp_path):
    bad = tmp_path / "bad.grid"
    bad.write_text("[buses]\n1 ref\n2\n[branches]\n1 2 99 1.0\n[meters]\n1 flow 1 +\n")
    with pytest.raises(TopologyError, match="bus 99"):
        load_topology(bad)


def test_duplicate_meter_rejected(tmp_path):
    bad = tmp_path / "dup.grid"
    bad.write_text(
        "[buses]\n1 ref\n2\n[branches]\n1 2 1 1.0\n"
        "[meters]\n1 flow 1 +\n2 flow 1 +\n"
    )
    with pytest.raises(TopologyError, match="duplicate meter"):
        load_topology(bad)


def test_unknown_section_rejected(tmp_path):
    bad = tmp_path / "sec.grid"
    bad.write_text("[buses]\n1 ref\n2\n[loads]\n1 2\n")
    with pytest.raises(TopologyError, match=r"line 4: unknown section"):
        load_topology(bad)


def test_parse_error_carries_line_number(tmp_path):
    bad = tmp_path / "line.grid"
    bad.write_text("[buses]\n1 ref\n2\n[branches]\n1 2 1\n")
    with pytest.raises(TopologyError, match="line 5"):
        load_topology(bad)


GOOD = b"[buses]\n1 ref\n2 0.1\n[branches]\nb1 1 2 1.0\n[meters]\nm1 flow b1 +\n"


@pytest.mark.parametrize(
    "old, new, line",
    [
        (b"2 0.1", b"2 nan", 3),
        (b"2 0.1", b"2 inf", 3),
        (b"b1 1 2 1.0", b"b1 1 2 inf", 5),
        (b"b1 1 2 1.0", b"b1 1 2 nan", 5),
        (b"b1 1 2 1.0", b"b1 1 2 -1", 5),
        (b"[meters]", b"[buses]\n3\n[meters]", 6),
        (b"2 0.1", b"2 0.1 \xff", 3),
        (b"[buses]", b"1\n[buses]", 1),
    ],
)
def test_bad_topology_names_its_line(tmp_path, old, new, line):
    # non-finite angles and susceptances once loaded and diverged at the
    # first steps; a repeated section was merged
    assert old in GOOD
    p = tmp_path / "bad.grid"
    p.write_bytes(GOOD.replace(old, new))
    with pytest.raises(TopologyError, match=f"line {line}:"):
        load_topology(p)


TOPOLOGY_TOKENS = (
    "[buses]", "[branches]", "[meters]", "[loads]", "#", "ref", "flow", "injection", "+", "-",
    "1", "2", "3", "b1", "m1", "0", "0.5", "-1", "1e400", "nan", "inf", "-inf", "x",
)


@st.composite
def topology_bytes(draw):
    """A valid topology with a few lines replaced by or spliced with lines of
    tokens, or arbitrary bytes."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=200))
    lines = GOOD.decode().splitlines()
    token_line = st.lists(st.sampled_from(TOPOLOGY_TOKENS), max_size=5).map(" ".join)
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(lines)))
        lines[i : i + draw(st.integers(0, 1))] = [draw(token_line)]
    return "\n".join(lines).encode()


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(data=topology_bytes())
def test_load_topology_fuzz_raises_only_topology_error(tmp_path_factory, data):
    p = tmp_path_factory.getbasetemp() / "fuzz.grid"
    p.write_bytes(data)
    try:
        top = load_topology(p)
    except TopologyError:
        return
    assert all(np.isfinite(a) for a in top.angles.values())
    assert all(np.isfinite(br.susceptance) and br.susceptance > 0 for br in top.branches)


def test_injection_row_is_sum_of_signed_flow_rows(three_bus_path):
    model = build_model(load_topology(three_bus_path), 1, SIGMA_V2, SIGMA_W2)
    f1, f2, inj = model.meter_rows
    np.testing.assert_allclose(f1, [1.0, 0.0])
    np.testing.assert_allclose(f2, [2.0, -2.0])
    np.testing.assert_allclose(inj, f1 + f2)
    # H x reproduces the per-branch flows for a concrete angle vector
    x = np.array([0.2, -0.1])
    flows = model.meter_rows @ x
    assert flows[0] == pytest.approx(1.0 * (x[0] - 0.0))
    assert flows[1] == pytest.approx(2.0 * (x[0] - x[1]))
    assert flows[2] == pytest.approx(flows[0] + flows[1])


def test_flow_rows_vanish_on_equal_angles(tmp_path):
    # Flow-only network not touching the reference: equal angles -> zero flows.
    p = tmp_path / "iso.grid"
    p.write_text(
        "[buses]\n1 ref\n2\n3\n4\n[branches]\n1 2 3 1.5\n2 3 4 2.5\n"
        "[meters]\n1 flow 1 +\n2 flow 2 +\n"
    )
    model = build_model(load_topology(p), 2, SIGMA_V2, SIGMA_W2)
    x = 0.37 * np.ones(3)
    np.testing.assert_allclose(model.H @ x, 0.0, atol=1e-15)


def test_explicit_A_dimension_check(two_bus_path):
    top = load_topology(two_bus_path)
    with pytest.raises(ValueError, match="A must be"):
        build_model(top, 1, SIGMA_V2, SIGMA_W2, A=np.eye(3))
    model = build_model(top, 1, SIGMA_V2, SIGMA_W2, A=np.array([[0.9]]))
    assert model.A[0, 0] == 0.9


def test_noiseless_simulation_is_exactly_linear(two_bus_model):
    model = dataclasses.replace(two_bus_model, sigma_v2=0.0, sigma_w2=0.0)
    x, noise = sim_batch(model, [0.3], [0])
    x, y = simulate_step(model, x, noise)
    np.testing.assert_array_equal(x, [[0.3]])
    np.testing.assert_array_equal(y[0].reshape(-1), model.H @ x[0])


def test_fixed_seed_trajectories_bit_identical(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    runs = []
    for _ in range(2):
        x, noise = sim_batch(ieee14_model, x0, [1234])
        xs, ys = [], []
        for _ in range(50):
            x, y = simulate_step(ieee14_model, x, noise)
            xs.append(x[0].copy())
            ys.append(y[0].reshape(-1).copy())
        runs.append((np.array(xs), np.array(ys)))
    np.testing.assert_array_equal(runs[0][0], runs[1][0])
    np.testing.assert_array_equal(runs[0][1], runs[1][1])


def test_draw_count_contract(two_bus_model):
    # Step s uses the trial's normals (s-1)(N+K*lam) .. s(N+K*lam) - 1,
    # state noise first, however far ahead they were drawn: a generator
    # advanced by hand gives the same values, across block refills.
    model = two_bus_model
    sim_x, noise = sim_batch(model, [0.1], [77])
    rng = np.random.default_rng(77)
    x = np.array([0.1])
    for _ in range(2 * BLOCK_STEPS + 3):
        sim_x, y = simulate_step(model, sim_x, noise)
        x = model.A @ x + rng.standard_normal(model.N) * np.sqrt(model.sigma_v2)
        w = rng.standard_normal(model.K * model.lam) * np.sqrt(model.sigma_w2)
        assert_same_bits(sim_x[0], x)
        assert_same_bits(y[0].reshape(-1), model.H @ x + w)


def test_generator_fills_any_request_from_one_sequence():
    # What drawing ahead relies on: numpy's Generator gives the same values
    # whether a run of draws is requested at once, in pieces of any shape,
    # or into a preallocated array.
    for method in ("standard_normal", "random"):
        whole = getattr(np.random.default_rng(5), method)(144)
        rng = np.random.default_rng(5)
        draw = getattr(rng, method)
        pieces = [draw(13), draw(115), draw((3, 5)).ravel(), np.array([draw()])]
        assert_same_bits(np.concatenate(pieces), whole)
        out = np.empty((2, 72))
        getattr(np.random.default_rng(5), method)(out=out[0])
        assert_same_bits(out[0], whole[:72])


@pytest.mark.parametrize("B", [1, 5])
def test_simulation_matches_one_trial_oracle(ieee14_model, ieee14_topology, B):
    # the block-drawn batch kernel against the one-trial kernel drawing a
    # step at a time: several block refills, a topology fault whose onset
    # falls inside a block, and trials that leave the batch early
    model = ieee14_model
    faulted = topology_fault(model, [3, 15])
    tau = BLOCK_STEPS + 7
    x0 = ieee14_topology.initial_state()
    seeds = [(21, i) for i in range(B)]
    x, noise = sim_batch(model, x0, seeds)
    ref = [oracles.initial_sim_state(model, x0, s) for s in seeds]
    live = list(range(B))
    for t in range(1, 3 * BLOCK_STEPS + 10):
        sim_model = faulted if t >= tau else model
        x, y = simulate_step(sim_model, x, noise)
        assert y.shape == (len(live), model.K, model.lam)
        for row, j in enumerate(live):
            ref[j], want = oracles.simulate_step(sim_model, ref[j])
            assert_same_bits(y[row], want)
            assert_same_bits(x[row], ref[j].x)
        if t % 25 == 0 and len(live) > 1:
            keep = np.arange(len(live)) % 2 == 1
            x, noise = x[keep], noise.take(keep)
            live = [j for j, k in zip(live, keep) if k]


def test_simulate_block_matches_one_trial_oracle(ieee14_topology):
    # the one-trajectory block kernel against the one-trial kernel drawing a
    # step at a time, state and measurements bit for bit, over consecutive
    # blocks of several lengths; with a dense A a change in how the products
    # are formed would show
    n = ieee14_topology.n_states
    model = build_model(ieee14_topology, 5, SIGMA_V2, SIGMA_W2, dense_stable_A(n))
    x0 = ieee14_topology.initial_state()
    ref = oracles.initial_sim_state(model, x0, 9)
    rng, x = np.random.default_rng(9), x0
    for steps in (1, BLOCK_STEPS - 1, BLOCK_STEPS, BLOCK_STEPS + 1):
        X, Y = simulate_block(model, x, rng, steps)
        assert X.shape == (steps, n) and Y.shape == (steps, model.K * model.lam)
        for x_t, y_t in zip(X, Y):
            ref, want = oracles.simulate_step(model, ref)
            assert_same_bits(x_t, ref.x)
            assert_same_bits(y_t, want.reshape(-1))
        x = X[-1]


def test_process_noise_moments(ieee14_model, ieee14_topology):
    x0 = ieee14_topology.initial_state()
    x, noise = sim_batch(ieee14_model, x0, [5])
    diffs = []
    prev = x[0]
    for _ in range(10_000):
        x, _ = simulate_step(ieee14_model, x, noise)
        diffs.append(x[0] - prev)
        prev = x[0]
    cov = np.cov(np.array(diffs).T)
    diag = np.diag(cov)
    np.testing.assert_allclose(diag, ieee14_model.sigma_v2, rtol=0.05)
    off = cov - np.diag(diag)
    assert np.max(np.abs(off)) < 0.05 * ieee14_model.sigma_v2


def test_measurement_batch_addressing(ieee14_model):
    # y[j][k][i] is sample i of meter k in trial j: row k*lam + i of H
    model = dataclasses.replace(ieee14_model, sigma_v2=0.0, sigma_w2=0.0)
    x, noise = sim_batch(model, np.linspace(0.1, 1.3, 13), [0, 1])
    x, y = simulate_step(model, x, noise)
    flat = model.H @ x[1]
    assert y.shape == (2, 23, 5)
    assert y[1][4][2] == flat[4 * 5 + 2]
    np.testing.assert_array_equal(y[1].reshape(-1), flat)
