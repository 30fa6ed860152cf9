"""Independent brute-force oracles for the closed-form detector math.

Everything here recomputes objectives from raw residual samples and
minimizes by candidate enumeration (coarse grid, 1e-4 refinement around the
best coarse point, plus the analytic interior/boundary points, which are
required to reach 1e-6 cost accuracy at sigma_w2 = 1e-4 scales). None of the
branch logic of the production code is reused.
"""

import hashlib
import math

import numpy as np
from scipy.integrate import quad
from scipy.linalg import cho_factor, cho_solve

from gridwatch import detector, robust
from gridwatch.attacks import apply_attack, realize_attack
from gridwatch.grid_model import initial_sim_state, simulate_step
from gridwatch.kalman import KalmanState, initial_state


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


def dense_predict(model, ks):
    """Covariance prediction A P A^T + sigma_v2 I at the full state size."""
    P_pred = model.A @ ks.P_upd @ model.A.T + model.sigma_v2 * np.eye(model.N)
    return KalmanState(model.A @ ks.x_upd, 0.5 * (P_pred + P_pred.T), ks.x_upd, ks.P_upd)


def dense_update(model, ks, y_flat, bias, noise_diag):
    """Kalman update at the full K*lam measurement size, Joseph form.

    S = H P H^T + diag(noise) is applied through a Cholesky solve. Returns
    (state, factor of S, innovation y - H x_pred - bias).
    """
    H = model.H
    PHt = ks.P_pred @ H.T
    S = H @ PHt
    S.flat[:: S.shape[0] + 1] += noise_diag
    factor = cho_factor(0.5 * (S + S.T), lower=True, check_finite=False)
    G = cho_solve(factor, PHt.T, check_finite=False).T
    innovation = y_flat - H @ ks.x_pred - bias
    x_upd = ks.x_pred + G @ innovation
    IGH = np.eye(model.N) - G @ H
    P_upd = IGH @ ks.P_pred @ IGH.T + (G * noise_diag) @ G.T
    return KalmanState(ks.x_pred, ks.P_pred, x_upd, 0.5 * (P_upd + P_upd.T)), factor, innovation


def chi2_sample(model, pre_filter, y):
    """c_t = r^T Q^{-1} r with Q = H P_pred H^T + sigma_w2 I built in full."""
    r = y.flat - model.H @ pre_filter.x_pred
    Q = model.H @ pre_filter.P_pred @ model.H.T
    Q.flat[:: Q.shape[0] + 1] += model.sigma_w2
    factor = cho_factor(0.5 * (Q + Q.T), lower=True, check_finite=False)
    return float(r @ cho_solve(factor, r, check_finite=False))


def dense_trial(ctx, seed):
    """Replay of one harness trial over its whole horizon on the dense
    filters above, never freezing a covariance.

    Same seed streams and draw order as harness.run_trial; the detector
    math is the production one, on a single trial. Returns the measurement
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
        window = robust.Chi2State.initialize(ctx.chi2, n_meas, np.random.default_rng(chi2_ss))
    clean_noise = np.full(n_meas, model.sigma_w2)
    pre = initial_state(ctx.x0, ctx.p0)
    post = pre.copy()
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
        hasher.update(y.flat.tobytes())
        hashes.append(hasher.hexdigest())

        pre, post = dense_predict(model, pre), dense_predict(model, post)
        rb = detector.residual_block(model, y, post.x_pred, det)
        costs = detector.hypothesis_costs(rb, model, det)
        labels = detector.classify_meters(costs)
        est = detector.mle_attack_params(rb, labels, det, model)
        pre, factor, r = dense_update(model, pre, y.flat, 0.0, clean_noise)
        inflated = clean_noise + model.expand(est.sigma_hat)
        post = dense_update(model, post, y.flat, model.expand(est.a_hat), inflated)[0]
        beta = detector.gllr(y.values - (model.meter_rows @ pre.x_upd)[:, None], costs, labels, model)
        g = max(0.0, g + beta)
        if g == 0.0:
            post, tau_hat = pre.copy(), t

        dist = float(np.linalg.norm(r))
        paths["g"].append(g)
        paths["beta"].append(beta)
        paths["tau_hat"].append(tau_hat)
        if window is not None:
            c = float(r @ cho_solve(factor, r, check_finite=False))
            window, chi = robust.pearson_step(window, c, ctx.chi2)
            paths["c"].append(c)
            paths["chi"].append(chi)
        if ctx.np_q is not None:
            S = S + dist - ctx.mu0
            S = max(0.0, S) if ctx.np_clamp else S
            paths["np_S"].append(S)
        if ctx.euclid_d is not None:
            paths["euclid"].append(dist)
        if ctx.cosine_d is not None:
            paths["cosine"].append(robust.cosine_similarity(y.flat, y.flat - r))
    paths = {k: np.array(v) for k, v in paths.items() if v}

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
    return {"meas_hash": hasher.hexdigest(), "hashes": hashes, "paths": paths, "stops": stops}


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
