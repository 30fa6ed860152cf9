"""Reference implementations the tests compare gridwatch against.

The brute-force oracles for the closed-form detector math recompute
objectives from raw residual samples and minimize by candidate enumeration
(coarse grid, 1e-4 refinement around the best coarse point, plus the
analytic interior/boundary points, which are required to reach 1e-6 cost
accuracy at sigma_w2 = 1e-4 scales); none of the branch logic of the
production code is reused. The rest are the slower formulations that
faster code replaced (dense filters, four cost arrays, one-trial kernels),
which the replacements must match, mostly bit for bit. A few small
helpers that only tests read (state copies, a PSD check, the chi-squared
cells one at a time) close the module.
"""

import hashlib
import math
from dataclasses import dataclass, replace
from itertools import islice

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.lapack import dpotrf, dtrtri

from gridwatch import detector, harness, kalman, robust
from gridwatch.attacks import AttackRealization, is_active
from gridwatch.grid_model import matvec, transition, vecdot
from gridwatch.kalman import KalmanState, _symmetrize, initial_state


def assert_same_bits(got, want):
    """Equal shapes and bytes; unlike assert_array_equal, -0.0 != 0.0."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _chunked(n, size=2000):
    for lo in range(0, n, size):
        yield lo, min(lo + size, n)


def _ssr_candidates(E, gamma, a_max):
    """Candidate bias values per block for the constrained SSR minimization.

    The feasible set is [-a_max, -gamma] union [gamma, a_max]; the objective
    sum (e - a)^2 is convex in a, so per-interval minima are at the clamped
    sample mean, but grid points are kept as an independent check.
    """
    n, lam = E.shape
    mean = E.mean(axis=1)
    coarse = np.concatenate(
        [np.linspace(gamma, a_max, 201), np.linspace(-a_max, -gamma, 201)]
    )
    analytic = np.stack(
        [
            np.clip(mean, gamma, a_max),
            np.clip(mean, -a_max, -gamma),
            np.full(n, gamma),
            np.full(n, -gamma),
            np.full(n, a_max),
            np.full(n, -a_max),
        ],
        axis=1,
    )
    offsets = np.linspace(-1e-2, 1e-2, 201)
    fine_pos = np.clip(analytic[:, 0][:, None] + offsets[None, :], gamma, a_max)
    fine_neg = np.clip(analytic[:, 1][:, None] + offsets[None, :], -a_max, -gamma)
    shared = np.broadcast_to(coarse, (n, coarse.size))
    return np.concatenate([analytic, fine_pos, fine_neg, shared], axis=1)


def _min_ssr(E, gamma, a_max):
    """(min SSR, argmin a) over the constrained bias, by enumeration."""
    n, lam = E.shape
    best_val = np.empty(n)
    best_arg = np.empty(n)
    cands = _ssr_candidates(E, gamma, a_max)
    for lo, hi in _chunked(n):
        ssr = ((E[lo:hi, None, :] - cands[lo:hi, :, None]) ** 2).sum(axis=2)
        idx = np.argmin(ssr, axis=1)
        rows = np.arange(hi - lo)
        best_val[lo:hi] = ssr[rows, idx]
        best_arg[lo:hi] = cands[lo:hi][rows, idx]
    return best_val, best_arg


def _var_candidates(center, s2min, s_max):
    """Candidate jamming variances: analytic point first, grid after."""
    n = center.size
    analytic = np.clip(center, s2min, s_max)[:, None]
    offsets = np.linspace(-1e-2, 1e-2, 201)
    fine = np.clip(analytic + offsets[None, :], s2min, s_max)
    coarse = np.broadcast_to(np.linspace(s2min, s_max, 301), (n, 301))
    ends = np.broadcast_to(np.array([s2min, s_max]), (n, 2))
    return np.concatenate([analytic, ends, fine, coarse], axis=1)


def _min_var_objective(ssr, lam, sw2, s2min, s_max):
    """min over s in [s2min, s_max] of lam*log(sw2+s) + ssr/(sw2+s)."""
    center = ssr / lam - sw2
    cands = _var_candidates(center, s2min, s_max)
    total = sw2 + cands
    obj = lam * np.log(total) + ssr[:, None] / total
    idx = np.argmin(obj, axis=1)
    rows = np.arange(ssr.size)
    return obj[rows, idx], cands[rows, idx]


def brute_force_costs(E, sw2, gamma, s2min, a_max=1.0, s_max=1.0):
    """Oracle costs, classification, and MLEs for residual blocks E (n, lam).

    Returns a dict with u0, uf, uj, ufj, labels (argmin with ties favoring
    the earlier hypothesis), a_hat, sigma_hat, and the chosen cost.
    For the combined hypothesis the objective factorizes: for every variance
    the best bias minimizes the SSR, so the profile over the SSR minimizer is
    the exact joint minimum.
    """
    E = np.asarray(E, dtype=float)
    n, lam = E.shape
    zeta = (E * E).sum(axis=1)

    u0 = lam * np.log(sw2) + zeta / sw2
    ssr_min, a_arg = _min_ssr(E, gamma, a_max)
    uf = lam * np.log(sw2) + ssr_min / sw2
    uj, s_arg_j = _min_var_objective(zeta, lam, sw2, s2min, s_max)
    ufj, s_arg_fj = _min_var_objective(ssr_min, lam, sw2, s2min, s_max)

    stacked = np.vstack([u0, uf, uj, ufj])
    labels = np.argmin(stacked, axis=0)
    chosen = stacked[labels, np.arange(n)]

    a_hat = np.where(np.isin(labels, (1, 3)), a_arg, 0.0)
    sigma_hat = np.where(labels == 2, s_arg_j, np.where(labels == 3, s_arg_fj, 0.0))
    return {
        "u0": u0,
        "uf": uf,
        "uj": uj,
        "ufj": ufj,
        "labels": labels,
        "a_hat": a_hat,
        "sigma_hat": sigma_hat,
        "chosen": chosen,
    }


def random_residual_blocks(n, lam, rng):
    """Residual blocks spanning clean, biased, inflated, and mixed regimes.

    Samples are clipped to |e| <= 0.9 so the constrained optima stay strictly
    inside the oracle's a in [-1, 1], s in [s2min, 1] search box (outside it
    the comparison against the box-free closed forms is meaningless).
    """
    scale = 10.0 ** rng.uniform(-3.0, -0.5, size=n)
    bias = np.where(rng.random(n) < 0.5, rng.uniform(-0.1, 0.1, size=n), 0.0)
    E = rng.standard_normal((n, lam)) * scale[:, None] + bias[:, None]
    return np.clip(E, -0.9, 0.9)


# ---------------------------------------------------------------------------
# The detector statistics as four separate (..., K) cost arrays, the
# formulation the (..., 4, K) cost table replaced. Each element goes through
# the same operations in the same order, so the table path must give the
# same bits.


def gather_gllr(r_pre, stacked, labels, model):
    """GLLR with the classified cost gathered from the (..., 4, K) costs at
    the labels."""
    K, lam, sw2 = model.K, model.lam, model.sigma_w2
    r = np.asarray(r_pre)
    r = r.reshape(r.shape[:-2] + (K * lam,))
    chosen = np.take_along_axis(stacked, labels[..., None, :], axis=-2)[..., 0, :]
    return 0.5 * K * lam * math.log(sw2) + 0.5 * vecdot(r, r) / sw2 - 0.5 * chosen.sum(axis=-1)


def four_array_statistics(rb, model, cfg, r_pre):
    """Costs u0/uf/uj/ufj, labels, nested-where MLEs and gathered GLLR
    computed from the constructor fields of ResidualBlock ``rb``."""
    lam, sw2 = model.lam, model.sigma_w2
    floor = sw2 + cfg.sigma2_min
    mean = rb.delta / rb.e.shape[-1]
    interior = np.abs(mean) >= rb.gamma
    centered = np.maximum(rb.zeta - rb.delta * mean, 0.0)
    ssr_f = np.where(interior, centered, np.where(mean >= 0.0, rb.pi, rb.rho))

    def floored_fit(ssr):
        var = ssr / lam
        return np.where(
            var >= floor,
            lam * np.log(np.maximum(var, floor)) + lam,
            lam * math.log(floor) + ssr / floor,
        )

    u0 = lam * math.log(sw2) + rb.zeta / sw2
    uf = lam * math.log(sw2) + ssr_f / sw2
    uj = floored_fit(rb.zeta)
    ufj = floored_fit(ssr_f)
    stacked = np.stack([u0, uf, uj, ufj], axis=-2)
    labels = np.argmin(stacked, axis=-2)

    a_hat = np.where(interior, mean, np.where(mean >= 0.0, cfg.gamma, -cfg.gamma))
    a_hat = np.where((labels == 1) | (labels == 3), a_hat, 0.0)
    var_jam_only = np.maximum(rb.zeta / lam - sw2, cfg.sigma2_min)
    var_both = np.maximum(ssr_f / lam - sw2, cfg.sigma2_min)
    sigma_hat = np.where(labels == 2, var_jam_only, np.where(labels == 3, var_both, 0.0))
    return {
        "mean": mean,
        "interior": interior,
        "ssr_f": ssr_f,
        "u0": u0,
        "uf": uf,
        "uj": uj,
        "ufj": ufj,
        "labels": labels,
        "a_hat": a_hat,
        "sigma_hat": sigma_hat,
        "beta": gather_gllr(r_pre, stacked, labels, model),
    }


def dense_predict_oracle(A, P, sigma_v2):
    """Elementwise A P A^T + sigma_v2 I, written with explicit loops."""
    n = A.shape[0]
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            acc = 0.0
            for k in range(n):
                for l in range(n):
                    acc += A[i, k] * P[k, l] * A[j, l]
            out[i, j] = acc + (sigma_v2 if i == j else 0.0)
    return out


def add_diagonal(S, d):
    """S[..., i, i] += d[..., i] in place, through einsum's writeable view
    of the diagonal, whatever the layout of S."""
    diagonal = np.einsum("...ii->...i", S)
    diagonal += d


def predict_cov(model, P_upd):
    """``kalman._predict_cov`` as it was before identity A left out the
    symmetrize: A P A^T (P + 0.0 for identity A) with sigma_v2 added to the
    diagonal, then 0.5 (P + P^T), for every A."""
    P = P_upd + 0.0 if model.identity_A else model.A @ P_upd @ model.A.T
    add_diagonal(P, model.sigma_v2)
    return _symmetrize(P)


def gain_step(model, P_pred, noise):
    """``kalman.gain_step`` as it was before it walked a reshaped stack: an
    ``np.ndindex`` loop over the batch axes, einsum diagonals and
    ``np.swapaxes`` calls, with the same products in the same order and the
    whitening factor in Fortran order per matrix."""
    M = model.meter_rows
    noise_mean = np.asarray(noise / model.lam)
    PMt = P_pred @ M.T
    S = M @ PMt
    add_diagonal(S, noise_mean)
    white = np.swapaxes(np.empty_like(S), -1, -2)
    for i in np.ndindex(S.shape[:-2]):
        chol, info = dpotrf(S[i], lower=1, clean=1)
        assert info == 0
        white[i], info = dtrtri(chol, lower=1)
        assert info == 0
    G = (PMt @ np.swapaxes(white, -1, -2)) @ white
    IGM = -(G @ M)
    add_diagonal(IGM, 1.0)
    P_upd = _symmetrize(
        IGM @ P_pred @ np.swapaxes(IGM, -1, -2)
        + (G * noise_mean[..., None, :]) @ np.swapaxes(G, -1, -2)
    )
    return kalman.GainStep(P_pred=P_pred, P_upd=P_upd, gain=G, white=white)


def dense_predict(model, ks):
    """Covariance prediction A P A^T + sigma_v2 I at the full state size."""
    P = model.A @ ks.P @ model.A.T + model.sigma_v2 * np.eye(model.N)
    return KalmanState(model.A @ ks.x, 0.5 * (P + P.T))


def predict(model, x, P):
    """``kalman.kf_predict`` of one trial's own estimate (x, P) as it was
    before A = I skipped its products: A @ x and A @ P @ A.T, then sigma_v2
    added to the diagonal and the result symmetrized."""
    P = model.A @ P @ model.A.T
    P.flat[:: model.N + 1] += model.sigma_v2
    return model.A @ x, 0.5 * (P + P.T)


def pre_filter(model, x, Y, steps):
    """``kalman.pre_filter`` a trial and a step at a time, written out: the
    one-vector products A @ x, M @ x_pred and G @ mean, from the (B, N)
    filtered states x over the (B, T, K, lam) measurements Y on the T
    schedule entries ``steps``. Returns the predicted and filtered states
    (B, T, N), the innovations y - H x_pred and their per-meter sums."""
    X_pred = np.empty(Y.shape[:2] + x.shape[-1:])
    X = np.empty_like(X_pred)
    R = np.empty_like(Y)
    D = np.empty(Y.shape[:-1])
    for j, x_j in enumerate(x):
        for s, step in enumerate(steps):
            X_pred[j, s] = x_pred = model.A @ x_j
            R[j, s] = r = Y[j, s] - (model.meter_rows @ x_pred)[:, None]
            D[j, s] = d = r.sum(axis=-1)
            X[j, s] = x_j = x_pred + step.gain @ (d / model.lam)
    return X_pred, X, R, D


def pre_track_gllr(model, cfg, Y, X_pred, clean):
    """The pre track's GLLR of a block as the engine scored it before it
    reused the pre filter's innovations: ``detector.score`` on the pre
    filter's predictions X_pred (B, T, N), its residuals recomputed from
    the measurements Y."""
    return detector.score(model, cfg, Y, X_pred, clean)[2]


def chi2_block(R, steps, sigma_w2):
    """The chi-squared samples of a block of (B, T, K, lam) innovations R as
    the engine formed them before it reused the pre filter's meter sums:
    r.sum over the lam samples, and the T entries' whitening factors
    stacked, each in its Fortran layout."""
    white = np.stack([step.white.T for step in steps]).swapaxes(-1, -2)
    return robust.chi2_sample_from_innovation(R, white, sigma_w2)


def block_steps(attack, t, most):
    """``attacks.block_steps`` as the step walk it replaced: the block from
    step t runs while each step has step t's phase, whether the attack is on
    and whether a topology fault has begun, for at most ``most`` steps."""
    def phase(t):
        return is_active(attack, t), attack.kind == "topology-fault" and t >= attack.tau

    steps = 1
    while steps < most and phase(t + steps) == phase(t):
        steps += 1
    return steps


def crosses_switch(attack, t, steps):
    """Whether the block of steps t .. t + steps - 1 crosses an on/off
    switch of the attack, as ``attacks.realize_attack`` found it before it
    used ``attacks.block_steps``: one ``is_active`` call per step."""
    active = is_active(attack, t)
    return any(is_active(attack, u) != active for u in range(t + 1, t + steps))


def dense_update(model, pred, y_flat, bias, noise_diag):
    """Kalman update of the prediction ``pred`` at the full K*lam
    measurement size, Joseph form.

    S = H P H^T + diag(noise) is applied through a Cholesky solve. Returns
    (filtered state, factor of S, innovation y - H x - bias).
    """
    H = model.H
    PHt = pred.P @ H.T
    S = H @ PHt
    S.flat[:: S.shape[0] + 1] += noise_diag
    factor = cho_factor(0.5 * (S + S.T), lower=True, check_finite=False)
    G = cho_solve(factor, PHt.T, check_finite=False).T
    innovation = y_flat - H @ pred.x - bias
    IGH = np.eye(model.N) - G @ H
    P = IGH @ pred.P @ IGH.T + (G * noise_diag) @ G.T
    return KalmanState(pred.x + G @ innovation, 0.5 * (P + P.T)), factor, innovation


def chi2_sample(model, pred, y):
    """c_t = r^T Q^{-1} r with Q = H P H^T + sigma_w2 I built in full from
    the pre filter's prediction ``pred``, for (K, lam) measurements y."""
    r = y.reshape(-1) - model.H @ pred.x
    Q = model.H @ pred.P @ model.H.T
    Q.flat[:: Q.shape[0] + 1] += model.sigma_w2
    factor = cho_factor(0.5 * (Q + Q.T), lower=True, check_finite=False)
    return float(r @ cho_solve(factor, r, check_finite=False))


def pearson_step(st, c_new):
    """``robust.pearson_step`` one sample at a time, as it was: evict the
    window's oldest cell, append c_new's, update the counts in place;
    returns the window and its Pearson statistic. c_new has the trial axes
    of the window (none for a single window)."""
    cfg = st.cfg
    cell = np.asarray(np.searchsorted(cfg.edges, c_new, side="right"))[..., None]
    bins = np.arange(cfg.M)
    st.counts -= bins == st.cells[..., :1]
    st.counts += bins == cell
    st.cells = np.concatenate([st.cells[..., 1:], cell], axis=-1)
    return st, robust._pearson(st.counts, cfg)


# ---------------------------------------------------------------------------
# One trial at a time: the simulation and attack kernels as they draw from
# their streams step by step, in the documented draw order. The batched,
# block-drawn kernels of gridwatch must give the same bits.


@dataclass
class SimState:
    """One trial's trajectory state and simulation stream."""

    x: np.ndarray
    rng: np.random.Generator


def initial_sim_state(model, x0, seed):
    x = np.array(x0, dtype=float)
    if x.shape != (model.N,):
        raise ValueError(f"x0 must have length {model.N}")
    return SimState(x=x, rng=np.random.default_rng(seed))


def simulate_step(model, state):
    """Advance one interval; consumes exactly N + K*lam Gaussian draws,
    state noise first, then measurement noise. Returns (state, (K, lam)
    measurements)."""
    v = state.rng.standard_normal(model.N) * np.sqrt(model.sigma_v2)
    x_new = model.A @ state.x + v
    w = state.rng.standard_normal(model.K * model.lam) * np.sqrt(model.sigma_w2)
    y = model.H @ x_new + w
    if not np.all(np.isfinite(x_new)):
        raise FloatingPointError("state diverged; check the model configuration")
    return SimState(x=x_new, rng=state.rng), y.reshape(model.K, model.lam)


def _select(spec, k, rng):
    if spec.selection[0] == "fixed":
        mask = np.zeros(k, dtype=bool)
        mask[list(spec.selection[1])] = True
        return mask
    return rng.random(k) < spec.selection[1]


def _draw(law, rng, count):
    if law.mode == "uniform":
        return rng.uniform(law.lo, law.hi, size=count)
    return np.full(count, law.value)


def realize_attack(spec, t, rng, K):
    """One trial's attack at time t, with (K,) arrays: FDI selection bits,
    jamming selection bits, FDI magnitudes of the selected meters in
    ascending order, jamming variances likewise; nothing drawn while the
    attack is inactive."""
    a = np.zeros(K)
    jam = np.zeros(K)
    if not is_active(spec, t):
        return AttackRealization(a=a, jam_var=jam, active=False)
    fdi_mask = _select(spec, K, rng) if spec.uses_fdi else np.zeros(K, dtype=bool)
    jam_mask = _select(spec, K, rng) if spec.uses_jamming else np.zeros(K, dtype=bool)
    if spec.uses_fdi and fdi_mask.any():
        a[fdi_mask] = _draw(spec.fdi_law, rng, int(fdi_mask.sum()))
    if spec.uses_jamming and jam_mask.any():
        jam[jam_mask] = _draw(spec.jam_law, rng, int(jam_mask.sum()))
    return AttackRealization(a=a, jam_var=jam, active=True)


def apply_attack(model, clean, real, rng):
    """Bias on all lam samples of a meter, then lam fresh normals per
    jammed meter in ascending order, scaled by the jamming deviation."""
    if not real.active:
        return clean
    values = clean + real.a[:, None]
    jammed = np.flatnonzero(real.jam_var > 0)
    if jammed.size:
        noise = rng.standard_normal((jammed.size, model.lam))
        values[jammed] += noise * np.sqrt(real.jam_var[jammed])[:, None]
    return values


def innovation_norm_baseline(model, x0, p0, samples, seed=923_001):
    """mu0 from one trajectory simulated a step at a time; the running total
    is a sequential float sum."""
    rng = np.random.default_rng(seed)
    state = initial_sim_state(model, x0, rng)
    x_hat = np.array(x0, dtype=float)
    total = 0.0
    step = gain = None
    for next_step in islice(kalman.PreSchedule(model, p0), samples):
        if next_step is not step:
            step = next_step
            gain = np.repeat(step.gain / model.lam, model.lam, axis=1)
        state, y = simulate_step(model, state)
        x_pred = model.A @ x_hat
        innovation = y.reshape(-1) - model.H @ x_pred
        x_hat = x_pred + gain @ innovation
        total += math.sqrt(innovation @ innovation)
    return total / samples


def dense_trial(ctx, seed):
    """Replay of one harness trial over its whole horizon on the dense
    filters above, never freezing a covariance.

    Same seed streams and draw order as harness.run_trial, drawn a step at
    a time by the one-trial kernels above; the detector math is the
    production one, on a single trial. Returns the measurement
    hash, the hash after each step (what a trial that stopped early
    reports), the statistic paths keyed like TrialPaths fields (enabled
    detectors only) and the stopping times as first crossings of those
    paths.
    """
    model, cfg, det = ctx.model, ctx.cfg, ctx.det_cfg
    n_meas = model.K * model.lam
    sim_ss, atk_ss, jam_ss, chi2_ss = np.random.SeedSequence(seed).spawn(4)
    sim = initial_sim_state(model, ctx.x0, sim_ss)
    atk_rng, jam_rng = np.random.default_rng(atk_ss), np.random.default_rng(jam_ss)
    window = None
    if ctx.chi2 is not None:
        window = initialize_window(ctx.chi2, n_meas, np.random.default_rng(chi2_ss))
    clean_noise = np.full(n_meas, model.sigma_w2)
    pre = initial_state(ctx.x0, ctx.p0)
    post = copy_state(pre)
    g = S = 0.0
    tau_hat = 1
    hasher = hashlib.sha256()
    hashes = []
    paths = {name: [] for name in ("g", "beta", "tau_hat", "c", "chi", "np_S", "euclid", "cosine")}
    attack = cfg.attack
    for t in range(1, cfg.run.horizon + 1):
        faulted = attack.kind == "topology-fault" and t >= attack.tau
        sim, y = simulate_step(ctx.sim_model_post if faulted else model, sim)
        y = apply_attack(model, y, realize_attack(attack, t, atk_rng, model.K), jam_rng)
        y_flat = y.reshape(-1)
        hasher.update(y_flat.tobytes())
        hashes.append(hasher.hexdigest())

        pre_pred, post_pred = dense_predict(model, pre), dense_predict(model, post)
        rb = detector.residual_block(model, y, post_pred.x, det)
        costs = detector.hypothesis_costs(rb, model, det)
        labels = detector.classify_meters(costs)
        a_hat, sigma_hat = detector.mle_attack_params(rb, labels, det, model)
        pre, factor, r = dense_update(model, pre_pred, y_flat, 0.0, clean_noise)
        inflated = clean_noise + expand(model, sigma_hat)
        post = dense_update(model, post_pred, y_flat, expand(model, a_hat), inflated)[0]
        clean = detector.clean_term(y - (model.meter_rows @ pre.x)[:, None], model)
        beta = detector.gllr(clean, costs)
        g = max(0.0, g + beta)
        if g == 0.0:
            post, tau_hat = copy_state(pre), t

        dist = float(np.linalg.norm(r))
        paths["g"].append(g)
        paths["beta"].append(beta)
        paths["tau_hat"].append(tau_hat)
        if window is not None:
            c = float(r @ cho_solve(factor, r, check_finite=False))
            window, chi = pearson_step(window, c)
            paths["c"].append(c)
            paths["chi"].append(chi)
        if ctx.np_q is not None:
            S = S + dist - ctx.mu0
            S = max(0.0, S) if ctx.np_clamp else S
            paths["np_S"].append(S)
        if ctx.euclid_d is not None:
            paths["euclid"].append(dist)
        if ctx.cosine_d is not None:
            paths["cosine"].append(robust.cosine_similarity(y_flat, y_flat - r))
    paths = {k: np.array(v) for k, v in paths.items() if v}

    stops = path_stops(ctx, paths)
    return {"meas_hash": hasher.hexdigest(), "hashes": hashes, "paths": paths, "stops": stops}


def path_stops(ctx, paths):
    """The stopping time of every enabled detector of ``ctx``: the first
    crossing of its path in ``paths``, one trial's paths keyed like
    TrialPaths fields."""
    rules = {
        "alg1": ("g", ctx.h, +1),
        "shewhart": ("beta", ctx.shewhart.phi if ctx.shewhart else None, +1),
        "chi2": ("chi", ctx.chi2.varphi if ctx.chi2 else None, +1),
        "np_cusum": ("np_S", ctx.np_q, +1),
        "euclidean": ("euclid", ctx.euclid_d, +1),
        "cosine": ("cosine", ctx.cosine_d, -1),
    }
    stops = {}
    for name, (field, threshold, direction) in rules.items():
        if name not in ctx.enabled:
            continue
        path = paths[field]
        hits = np.flatnonzero(path >= threshold if direction > 0 else path <= threshold)
        stops[name] = float(hits[0] + 1) if hits.size else math.inf
    if "alg2" in ctx.enabled:
        stops["alg2"] = min(
            stops["alg1"], stops.get("shewhart", math.inf), stops.get("chi2", math.inf)
        )
    return stops


def sync_cap(stops, steps):
    """How many of a trial's first ``steps`` steps its re-syncs are counted
    over: up to the later of its alg1 and Shewhart stops (``stops`` keyed by
    detector, Shewhart absent when not configured), all of them while
    either has not stopped."""
    closed = max(stops[name] for name in ("alg1", "shewhart") if name in stops)
    return int(min(steps, closed))


def sync_count(ctx, seed, steps):
    """The re-syncs of one trial in its first ``steps`` steps, capped by
    ``sync_cap``, recounted on the dense replay: the steps at which its
    CUSUM was clamped to zero."""
    trial = dense_trial(ctx, seed)
    g = trial["paths"]["g"][: sync_cap(trial["stops"], steps)]
    return sum(1 for value in g if value == 0.0)


# ---------------------------------------------------------------------------
# Algorithm 1 a whole step at a time: both filters, the GLLR and the CUSUM
# in one function, every trial predicted, scored and updated on its post
# filter, and the engine around it reading each step's measurements,
# innovation norm, chi-squared sample and cosine from that step alone. The
# engine runs the pre filter, every statistic on it and the score of the
# pre track a block ahead, and scores and updates per step only the trials
# that need it; each trial must get the same bits.


def algorithm1_step(pre, post, g, model, cfg, y, pre_step):
    """One full detection-and-estimation iteration on the step's schedule
    entry ``pre_step`` from the filtered estimates ``pre`` and ``post``
    (their flags included) and the CUSUM ``g`` of each trial, returning the
    pre filter's filtered estimate, the step and the pre filter's
    innovation y - H x_pre_pred as (B, K, lam)."""
    shares = post.shares
    pre = kalman.kf_predict(model, pre, pre_step)
    post = kalman.kf_predict(model, post, pre_step)

    rb = detector.residual_block(model, y, post.x, cfg)
    costs = detector.hypothesis_costs(rb, model, cfg)
    a_hat, sigma_hat = detector.mle_attack_params(rb, detector.classify_meters(costs), cfg, model)

    pre, pre_innovation = kalman.kf_update_pre_full(model, pre, y, pre_step)
    post = kalman.kf_update_post(model, post, rb.mean, a_hat, sigma_hat, pre_step)

    K, lam, sw2 = model.K, model.lam, model.sigma_w2
    r = (y - matvec(model.meter_rows, pre.x)[..., None]).reshape(len(y), K * lam)
    chosen = costs.min(axis=-2)
    beta = 0.5 * K * lam * math.log(sw2) + 0.5 * vecdot(r, r) / sw2 - 0.5 * chosen.sum(axis=-1)

    stepped = [detector.cusum_step(v, b) for v, b in zip(g, beta.tolist(), strict=True)]
    sync = np.array([flag for _, flag in stepped], dtype=bool)
    # reset coupling: post := pre for the trials whose statistic hit zero
    post = KalmanState(
        np.where(sync[:, None], pre.x, post.x),
        np.where(sync[:, None, None], pre.P, post.P),
        sync | (shares & ~sigma_hat.any(axis=-1)),
    )
    step = detector.Algorithm1Step(post, [v for v, _ in stepped], beta)
    return pre, step, pre_innovation


def pre_half(model, cfg, pre, y, pre_step=None):
    """What ``detector.algorithm1_step`` takes from the pre filter at one
    step from its filtered estimate ``pre``: the schedule entry (computed
    from the filter's own covariance unless given), the filtered state, the
    GLLR's clean term and the GLLR scored on the pre filter's prediction.
    The pre filter's next estimate is ``KalmanState(state, entry.P_upd)``."""
    if pre_step is None:
        own = kalman.kf_predict(model, own_covariance(pre), None)
        pre_step = kalman.pre_gain_step(model, own.P)
    X, _, _ = kalman.pre_filter(model, pre.x, y[:, None], [pre_step])
    clean = detector.clean_term(y - matvec(model.meter_rows, X[:, 0])[..., None], model)
    gllr = detector.score(model, cfg, y, transition(model, pre.x), clean)[2]
    return pre_step, X[:, 0], clean, gllr


def whole_step_run(ctx, seeds):
    """The trials of ``seeds`` in lock-step over the whole horizon, with
    full paths and step logging, on ``algorithm1_step`` above.

    The measurements come from the engine's kernels in blocks of one step,
    with each trial's streams spawned and drawn as the engine does. Returns
    the paths keyed like TrialPaths fields (enabled statistics and the MSE
    paths), each (B, horizon), and per trial its measurement hash after
    every step. tau_hat is recounted here a step at a time: the last step
    at which g was zero, 1 before any.
    """
    model, cfg, attack = ctx.model, ctx.cfg, ctx.cfg.attack
    B, horizon = len(seeds), cfg.run.horizon
    sim_ss, atk_ss, jam_ss, chi2_ss = zip(*(np.random.SeedSequence(s).spawn(4) for s in seeds))
    sim = [np.random.default_rng(ss) for ss in sim_ss]
    atk = [np.random.default_rng(ss) for ss in atk_ss]
    jam = [np.random.default_rng(ss) for ss in jam_ss]
    window = None
    if ctx.chi2 is not None:
        dof = model.K * model.lam
        samples = [np.random.default_rng(ss).chisquare(dof, ctx.chi2.L) for ss in chi2_ss]
        window = robust.Chi2State.from_samples(ctx.chi2, samples)
    x = np.tile(ctx.x0, (B, 1))
    pre = post = kalman.initial_state(x, ctx.p0)
    g = [0.0] * B
    tau_hat = np.ones(B, dtype=np.int64)
    np_S = np.zeros(B)
    hashers = [hashlib.sha256() for _ in seeds]
    hashes = [[] for _ in seeds]
    paths = {}
    for t, pre_step in zip(range(1, horizon + 1), ctx.schedule):
        faulted = attack.kind == "topology-fault" and t >= attack.tau
        X, Y = harness.simulate_step(ctx.sim_model_post if faulted else model, x, sim, 1)
        real = harness.realize_attack(attack, t, 1, atk, model.K)
        Y = harness.apply_attack(model, Y, real, jam)
        x, y = X[:, 0], Y[:, 0]
        for hasher, trail, rows in zip(hashers, hashes, y):
            hasher.update(rows)
            trail.append(hasher.hexdigest())

        pre, step, innovation = algorithm1_step(pre, post, g, model, ctx.det_cfg, y, pre_step)
        post, g = step.post, step.g
        tau_hat = np.where(np.array(g) == 0.0, t, tau_hat)
        r = innovation.reshape(B, -1)
        dist = np.sqrt(vecdot(r, r))
        rows = {
            "g": g, "beta": step.beta, "tau_hat": tau_hat,
            "mse0": np.mean((pre.x - x) ** 2, axis=-1),
            "mse1": np.mean((post.x - x) ** 2, axis=-1),
        }
        if window is not None:
            c = robust.chi2_sample_from_innovation(innovation, pre_step.white, model.sigma_w2)
            window, chi = pearson_step(window, c)
            rows.update(c=c, chi=chi)
        if ctx.np_q is not None:
            np_S = robust.np_cusum_step(np_S, dist, ctx.mu0, ctx.np_clamp)
            rows["np_S"] = np_S
        if ctx.euclid_d is not None:
            rows["euclid"] = dist
        if ctx.cosine_d is not None:
            y_flat = y.reshape(B, -1)
            rows["cosine"] = robust.cosine_similarity(y_flat, y_flat - r)
        for name, values in rows.items():
            dtype = np.int64 if name == "tau_hat" else float
            paths.setdefault(name, np.zeros((B, horizon), dtype=dtype))[:, t - 1] = values
    return paths, hashes


def estimate_delay(stop_times, tau):
    """``harness.estimate_delay`` as the loop over trials it replaced."""
    stop_times = list(stop_times)
    if not stop_times:
        raise ValueError("no trials")
    delays = []
    false_alarms = missed = 0
    for T in stop_times:
        if T == math.inf:
            missed += 1
        elif T < tau:
            false_alarms += 1
        else:
            delays.append(T - tau)
    mean, half = harness._mean_ci(np.array(delays)) if delays else (math.nan, math.nan)
    return harness.DelaySummary(mean, half, len(delays), false_alarms, missed)


def missed_detection_ratio(stop_times, tau, eta):
    """``harness.missed_detection_ratio`` as the loop it replaced."""
    stop_times = list(stop_times)
    if not stop_times:
        raise ValueError("no trials")
    hits = sum(1 for T in stop_times if tau <= T < tau + eta)
    return 1.0 - hits / len(stop_times)


def chi2_cdf_oracle(x, dof):
    """Regularized lower incomplete gamma via mpmath."""
    import mpmath

    return float(mpmath.gammainc(dof / 2.0, 0, x / 2.0, regularized=True))


def kl_quadrature_1d(mu_p, var_p, mu_q, var_q):
    """Numeric integration of KL(p, q) for univariate normals."""

    def logpdf(y, mu, var):
        return -0.5 * (np.log(2 * np.pi * var) + (y - mu) ** 2 / var)

    def integrand(y):
        lp = logpdf(y, mu_p, var_p)
        return np.exp(lp) * (lp - logpdf(y, mu_q, var_q))

    width = 12 * np.sqrt(max(var_p, var_q))
    lo = min(mu_p, mu_q) - width
    hi = max(mu_p, mu_q) + width
    val, _ = quad(integrand, lo, hi, limit=200)
    return val


# ---------------------------------------------------------------------------
# Helpers that only the tests and the oracles above read.


def read_only(a):
    """A read-only copy of a: a kernel that wrote into it would raise."""
    a = np.array(a)
    a.setflags(write=False)
    return a


def copy_state(ks):
    """A KalmanState holding copies of the arrays of ks."""
    return KalmanState(ks.x.copy(), ks.P.copy())


def own_covariance(ks):
    """ks with no flag set: every trial predicts its own covariance."""
    return replace(ks, shares=False)


def expand(model, per_meter):
    """Repeat a K-vector lam times contiguously (H's row-block layout)."""
    return np.repeat(np.asarray(per_meter, dtype=float), model.lam)


def min_eigenvalue_ratio(P):
    """Smallest eigenvalue over trace; PSD health check for tests."""
    eig = np.linalg.eigvalsh(_symmetrize(P))
    tr = np.trace(P)
    return float(eig[0] / tr) if tr > 0 else float(eig[0])


def initialize_window(cfg, dof, rng):
    """A chi-squared window seeded with draws from the chi-squared(dof) null."""
    return robust.Chi2State.from_samples(cfg, rng.chisquare(dof, cfg.L))


def cell_of(cfg, c):
    """Half-open membership: cell j covers [edge_{j-1}, edge_j)."""
    return int(np.searchsorted(cfg.edges, c, side="right"))


def intervals(cfg):
    """Half-open cells [lo, hi) covering [0, inf)."""
    bounds = (0.0,) + cfg.edges + (math.inf,)
    return tuple(zip(bounds[:-1], bounds[1:]))
