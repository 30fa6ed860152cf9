import math

import numpy as np
import pytest

from gridwatch.attacks import (
    AttackRealization,
    AttackSpec,
    MagnitudeLaw,
    apply_attack,
    is_active,
    realize_attack,
    topology_fault,
)
from gridwatch.grid_model import simulate_step
from gridwatch.harness import BLOCK_STEPS

import oracles
from conftest import SIGMA_W2, attack_grid
from oracles import assert_same_bits


def hybrid_spec(tau=100, p=0.5, theta=0.02, jam_lo=2e-4, jam_hi=4e-4, t_on=None, t_off=None):
    return AttackSpec(
        tau=tau,
        kind="hybrid",
        selection=("bernoulli", p),
        fdi_law=MagnitudeLaw.uniform(-theta, theta),
        jam_law=MagnitudeLaw.uniform(jam_lo, jam_hi),
        t_on=t_on,
        t_off=t_off,
    )


def streams(B, K, lam, seed=0):
    """The attack and jamming streams of B trials, with seeds (seed, j) and
    (seed + 1, j)."""
    atk = [np.random.default_rng((seed, j)) for j in range(B)]
    jam = [np.random.default_rng((seed + 1, j)) for j in range(B)]
    return atk, jam


def test_pre_onset_all_zero():
    atk, _ = streams(2, 23, 5)
    real = realize_attack(hybrid_spec(tau=100), 50, BLOCK_STEPS, atk, K=23)
    assert not real.active
    assert real.a.shape == real.jam_var.shape == (2, BLOCK_STEPS, 23)
    assert not real.a.any()
    assert not real.jam_var.any()
    # no draws consumed before the onset
    fresh = np.random.default_rng((0, 0)).bit_generator.state
    assert atk[0].bit_generator.state == fresh


def test_onoff_schedule_case4_pattern():
    spec = hybrid_spec(tau=100, t_on=1, t_off=3)
    assert is_active(spec, 100)
    assert not is_active(spec, 101)
    assert not is_active(spec, 102)
    assert not is_active(spec, 103)
    assert is_active(spec, 104)


@pytest.mark.parametrize(
    "attack", list(attack_grid()), ids=lambda a: f"{a.kind}-{a.tau}-{a.t_on}-{a.t_off}"
)
def test_block_across_an_on_off_switch_is_refused(attack):
    # one realization carries one active flag, so its steps share one state:
    # a block is refused exactly where a scan of its steps finds a switch
    # (a topology fault's onset is none), and an accepted one is on or off
    # as its first step
    atk, _ = streams(1, 5, 1)
    for t in range(1, 90):
        for steps in (1, 2, 5, 32, 33):
            if oracles.crosses_switch(attack, t, steps):
                with pytest.raises(ValueError, match="on/off switch"):
                    realize_attack(attack, t, steps, atk, K=5)
            else:
                assert realize_attack(attack, t, steps, atk, K=5).active == is_active(attack, t)


def test_onoff_duty_cycle_fraction():
    spec = hybrid_spec(tau=1, t_on=2, t_off=5)
    active = sum(is_active(spec, t) for t in range(1, 70_001))
    assert active / 70_000 == pytest.approx(2 / 7, rel=0.01)


def test_apply_identity_on_zero_realization(two_bus_model):
    clean = np.array([[[[0.5]]]])
    atk, jam = streams(1, 1, 1, seed=1)
    real = realize_attack(hybrid_spec(tau=10), 5, 1, atk, K=1)
    out = apply_attack(two_bus_model, clean, real, jam)
    np.testing.assert_array_equal(out, clean)


def test_fixed_bias_shifts_all_lambda_samples(ieee14_model):
    clean = np.zeros((1, 1, 23, 5))
    a = np.zeros((1, 1, 23))
    a[0, 0, 7] = 0.1
    real = AttackRealization(a=a, jam_var=np.zeros((1, 1, 23)), active=True)
    out = apply_attack(ieee14_model, clean, real, streams(1, 23, 5)[1])
    np.testing.assert_array_equal(out[0, 0, 7], 0.1 * np.ones(5))
    mask = np.ones(23, dtype=bool)
    mask[7] = False
    assert not out[0, 0, mask].any()


def test_jamming_noise_moments(ieee14_model):
    # 20_000 steps of 5 samples, in blocks of 32 steps
    jam = np.zeros((1, BLOCK_STEPS, 23))
    jam[0, :, 3] = 1e-2
    _, jam_st = streams(1, 23, 5, seed=2)
    samples = []
    clean = np.zeros((1, BLOCK_STEPS, 23, 5))
    for _ in range(20_000 // BLOCK_STEPS):
        real = AttackRealization(a=np.zeros((1, BLOCK_STEPS, 23)), jam_var=jam, active=True)
        out = apply_attack(ieee14_model, clean, real, jam_st)
        samples.append(out[0, :, 3].reshape(-1))
    flat = np.concatenate(samples)
    assert flat.size == 20_000 * 5
    assert flat.var() == pytest.approx(1e-2, rel=0.03)
    assert abs(flat.mean()) < 3e-3


def test_hybrid_realization_frequencies_and_ranges():
    # 10 trials x 10_000 steps: 100_000 realizations of 23 meters
    spec = hybrid_spec(tau=1, p=0.5, theta=0.02, jam_lo=2e-4, jam_hi=4e-4)
    atk, _ = streams(10, 23, 5, seed=3)
    n = 100_000
    fdi_hits = jam_hits = 0
    for t in range(1, n // 10 + 1, BLOCK_STEPS):
        real = realize_attack(spec, t, min(BLOCK_STEPS, n // 10 + 1 - t), atk, K=23)
        fdi_on = real.a != 0
        jam_on = real.jam_var != 0
        fdi_hits += fdi_on.sum()
        jam_hits += jam_on.sum()
        if fdi_on.any():
            assert np.max(np.abs(real.a)) <= 0.02
        if jam_on.any():
            sel = real.jam_var[jam_on]
            assert sel.min() >= 2e-4 and sel.max() <= 4e-4
    # per-meter per-step attack frequency 0.5 within +/- 0.01
    assert fdi_hits / (n * 23) == pytest.approx(0.5, abs=0.01)
    assert jam_hits / (n * 23) == pytest.approx(0.5, abs=0.01)


def test_fixed_selection_mode():
    spec = AttackSpec(
        tau=1,
        kind="fdi",
        selection=("fixed", (2, 5)),
        fdi_law=MagnitudeLaw.fixed(0.1),
    )
    real = realize_attack(spec, 1, 1, streams(1, 8, 1)[0], K=8)
    np.testing.assert_array_equal(np.flatnonzero(real.a[0, 0]), [2, 5])
    assert set(real.a[0, 0, [2, 5]]) == {0.1}


def test_topology_fault_validation(two_bus_model):
    with pytest.raises(ValueError, match="nonempty"):
        topology_fault(two_bus_model, [])
    with pytest.raises(ValueError, match="unknown meter"):
        topology_fault(two_bus_model, [5])


def test_topology_fault_zeroes_true_rows_only(two_bus_model):
    faulted = topology_fault(two_bus_model, [0])
    assert not faulted.H.any()
    # original model untouched (detector side)
    assert two_bus_model.H[0, 0] == 1.0
    # simulated measurement for the faulted meter is pure sensor noise
    x = np.array([[0.5]])
    noise = [np.random.default_rng(9)]
    vals = []
    for _ in range(4000 // BLOCK_STEPS):
        X, Y = simulate_step(faulted, x, noise, BLOCK_STEPS)
        x = X[:, -1]
        vals.append(Y[0, :, 0, 0])
    vals = np.concatenate(vals)
    assert vals.size == 4000
    assert abs(vals.mean()) < 4 * math.sqrt(SIGMA_W2 / 4000) * 2
    assert vals.var() == pytest.approx(SIGMA_W2, rel=0.1)


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="tau"):
        AttackSpec(tau=0, kind="fdi", fdi_law=MagnitudeLaw.fixed(0.1))
    with pytest.raises(ValueError, match="t_on"):
        AttackSpec(tau=1, kind="fdi", fdi_law=MagnitudeLaw.fixed(0.1), t_on=2)
    with pytest.raises(ValueError, match="selection"):
        AttackSpec(tau=1, kind="fdi", selection=("bernoulli", 1.5))
    with pytest.raises(ValueError, match="unknown attack kind"):
        AttackSpec(tau=1, kind="dos")
    for bad in (MagnitudeLaw.uniform(-1.0, -0.5), MagnitudeLaw.fixed(-1e-4)):
        with pytest.raises(ValueError, match="jamming variances must be >= 0"):
            AttackSpec(tau=1, kind="jamming", jam_law=bad)
    for lo, hi in ((math.nan, 1.0), (-math.inf, 1.0), (-1e308, 1e308)):
        with pytest.raises(ValueError, match="finite"):
            MagnitudeLaw.uniform(lo, hi)
    with pytest.raises(ValueError, match="finite"):
        MagnitudeLaw.fixed(math.inf)


def test_spec_rejects_fractional_onset():
    # is_active counts the on-off cycle from int(tau) while the attack
    # starts at the first t >= tau: tau = 100.5 would first attack at 104
    # for t_on = 1, t_off = 3, with delays still measured from 100.5
    law = MagnitudeLaw.fixed(0.1)
    for tau in (100.5, math.nan):
        with pytest.raises(ValueError, match="tau"):
            AttackSpec(tau=tau, kind="fdi", fdi_law=law, t_on=1, t_off=3)
    assert AttackSpec(tau=100.0, kind="fdi", fdi_law=law).tau == 100.0


@pytest.mark.parametrize("lo, hi", [(-0.02, 0.02), (2e-4, 4e-4), (0.0, 1.0), (-3.5, 1e3), (0.25, 0.25)])
def test_uniform_is_lo_plus_width_times_random(lo, hi):
    # what the attack kernel computes from its block of doubles
    want = np.random.default_rng(8).uniform(lo, hi, size=1000)
    assert_same_bits(lo + (hi - lo) * np.random.default_rng(8).random(1000), want)


@pytest.mark.parametrize("m, n", [(1, 0), (2944, 0), (2944, 1), (2944, 1377), (5000, 4999)])
def test_rewind_is_restore_and_advance_by_the_draws_used(m, n):
    # what realize_attack relies on to hand back the doubles a block drew
    # but did not use: PCG64 spends one 64-bit output per double, so m
    # doubles drawn, then the saved state restored and advanced by n, leave
    # the stream where n doubles drawn would (2944 doubles: the worst case
    # of a 32-step hybrid block on ieee14)
    rng = np.random.default_rng((3, 7))
    rng.random(11)
    saved = rng.bit_generator.state
    want = np.random.default_rng((3, 7))
    want.random(11)
    rng.random(m)
    rng.bit_generator.state = saved
    rng.bit_generator.advance(n)
    want.random(n)
    assert_same_bits(rng.random(64), want.random(64))
    assert rng.bit_generator.state == want.bit_generator.state


def fixed_meters(kind, **laws):
    return AttackSpec(tau=5, kind=kind, selection=("fixed", (1, 4, 4, 17)), **laws)


ORACLE_SPECS = {
    "none": AttackSpec(),
    "fdi": AttackSpec(tau=5, kind="fdi", fdi_law=MagnitudeLaw.uniform(-0.02, 0.02)),
    "jamming": AttackSpec(tau=5, kind="jamming", selection=("bernoulli", 0.3),
                          jam_law=MagnitudeLaw.uniform(2e-4, 4e-4)),
    "hybrid": hybrid_spec(tau=5),
    "onoff": hybrid_spec(tau=5, t_on=2, t_off=3),
    "fixed_meters": fixed_meters("hybrid", fdi_law=MagnitudeLaw.uniform(-0.05, 0.05),
                                 jam_law=MagnitudeLaw.uniform(1e-4, 2e-4)),
    "fixed_laws": fixed_meters("hybrid", fdi_law=MagnitudeLaw.fixed(0.1),
                               jam_law=MagnitudeLaw.fixed(3e-4)),
    "bernoulli_fixed_laws": AttackSpec(tau=5, kind="hybrid", selection=("bernoulli", 0.7),
                                       fdi_law=MagnitudeLaw.fixed(-0.1),
                                       jam_law=MagnitudeLaw.fixed(2e-4)),
    "topology_fault": AttackSpec(tau=5, kind="topology-fault", fault_meters=(3,)),
}


@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("name", list(ORACLE_SPECS))
def test_attack_kernels_match_one_trial_oracle(ieee14_model, name, B):
    # the batched realize/apply, in blocks of T = 1, 17 and 32 steps (cut
    # short at an on/off switch, as the engine cuts them), against T calls
    # of the one-trial kernels drawing a step at a time, over 128 steps,
    # with trials leaving the batch along the way; after every block each
    # trial's streams are where the oracle's are
    spec = ORACLE_SPECS[name]
    model, K, lam = ieee14_model, ieee14_model.K, ieee14_model.lam
    for T in (1, 17, BLOCK_STEPS):
        atk_st, jam_st = streams(B, K, lam, seed=40)
        atk = [np.random.default_rng((40, j)) for j in range(B)]
        jam = [np.random.default_rng((41, j)) for j in range(B)]
        inputs = np.random.default_rng(99)
        live = list(range(B))
        t = 1
        while t <= 4 * BLOCK_STEPS:
            steps = 1
            while steps < T and is_active(spec, t + steps) == is_active(spec, t):
                steps += 1
            clean = inputs.standard_normal((len(live), steps, K, lam))
            real = realize_attack(spec, t, steps, atk_st, K)
            out = apply_attack(model, clean, real, jam_st)
            assert real.a.shape == real.jam_var.shape == (len(live), steps, K)
            assert type(real.active) is bool and real.active == is_active(spec, t)
            if not real.active:
                assert out is clean
            for row, j in enumerate(live):
                for s in range(steps):
                    want = oracles.realize_attack(spec, t + s, atk[j], K)
                    assert_same_bits(real.a[row, s], want.a)
                    assert_same_bits(real.jam_var[row, s], want.jam_var)
                    want_y = oracles.apply_attack(model, clean[row, s], want, jam[j])
                    assert_same_bits(out[row, s], want_y)
                assert atk_st[row].bit_generator.state == atk[j].bit_generator.state
                assert jam_st[row].bit_generator.state == jam[j].bit_generator.state
            t += steps
            if t > 40 * (B - len(live) + 1) and len(live) > 1:
                keep = np.arange(len(live)) != 1
                atk_st = [rng for rng, k in zip(atk_st, keep) if k]
                jam_st = [rng for rng, k in zip(jam_st, keep) if k]
                live = [j for j, k in zip(live, keep) if k]
