"""The benchmark's workloads: one unit of work each, its outputs and checks.

A unit is a fixed set of trials run through the public gridwatch API plus
the post-processing a user would run on them. The same seed always gives
the same unit, so every repetition inside a run must reproduce the first
one exactly, and the outputs can be compared with recorded reference data.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import replace

import numpy as np

from gridwatch import harness

# Relative tolerance for float outputs compared with reference data.
RTOL = 1e-9
# Reference MSE curves are stored as means over blocks of this many steps.
MSE_BLOCK = 10


def with_seed(ctx, seed: int):
    """The same prepared context with another master seed for the trials."""
    cfg = ctx.cfg
    return replace(ctx, cfg=replace(cfg, run=replace(cfg.run, seed=int(seed))))


def _stop(t) -> "int | str":
    return "inf" if t == math.inf else int(t)


def _float(x) -> "float | str":
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def _delay(d) -> dict:
    return {
        "mean": _float(d.mean),
        "ci_half": _float(d.ci_half),
        "n_detected": d.n_detected,
        "n_false_alarm": d.n_false_alarm,
        "n_missed": d.n_missed,
    }


def _fap(s) -> dict:
    return {
        "mean": _float(s.mean),
        "ci_half": _float(s.ci_half),
        "n_runs": s.n_runs,
        "n_censored": s.n_censored,
    }


def run_unit(name: str, ctx):
    """Run one unit; return (results, outputs, (start, end of run_trials, end)).

    ``outputs`` is a JSON-ready dict of everything the unit produces.
    """
    cfg = ctx.cfg
    t0 = time.perf_counter()
    if name == "fdi_detect":
        results = harness.run_trials(ctx, workers=1)
    elif name == "clean_calibrate":
        results = harness.run_trials(ctx, workers=1, full_paths=True)
    else:
        results = harness.run_trials(ctx, workers=1, log_steps=True)
    t1 = time.perf_counter()

    tau, eta, horizon = cfg.run.tau, cfg.run.eta, cfg.run.horizon
    out = {
        "trials": [
            {
                "meas_hash": r.meas_hash,
                "steps_run": r.steps_run,
                "stops": {d: _stop(r.stop(d)) for d in ctx.enabled},
            }
            for r in results
        ]
    }
    if name == "fdi_detect":
        out["delay"] = {}
        out["miss_ratio"] = {}
        for d in ctx.enabled:
            stops = [r.stop(d) for r in results]
            out["delay"][d] = _delay(harness.estimate_delay(stops, tau))
            out["miss_ratio"][d] = harness.missed_detection_ratio(stops, tau, eta)
        out["first_detector"] = harness.first_detector_ratio(results, ctx.enabled, tau)
    elif name == "clean_calibrate":
        target = horizon / 3.0
        out["thresholds"] = {}
        out["calibrated_fap"] = {}
        for d in ctx.enabled:
            if d == "alg2":
                continue
            paths, lengths = harness.detector_paths(results, d)
            thr, summary = harness.calibrate_threshold(
                paths, lengths, horizon, target, harness.PATH_DIRECTION[d]
            )
            out["thresholds"][d] = thr
            out["calibrated_fap"][d] = _fap(summary)
        out["live_fap"] = {
            d: _fap(harness.estimate_false_alarm_period([r.stop(d) for r in results], horizon))
            for d in ctx.enabled
        }
    else:
        m0, m1 = harness.mse_curves(results)
        out["mse0"] = [float(v) for v in m0]
        out["mse1"] = [float(v) for v in m1]
    t2 = time.perf_counter()
    return results, out, (t0, t1, t2)


def digest(outputs: dict) -> str:
    """Exact digest of a unit's outputs (floats by their shortest repr)."""
    text = json.dumps(outputs, sort_keys=True, allow_nan=False)
    return hashlib.sha256(text.encode()).hexdigest()


def _blocks(curve) -> list:
    a = np.asarray(curve, dtype=float)
    n = a.size // MSE_BLOCK * MSE_BLOCK
    return [float(v) for v in a[:n].reshape(-1, MSE_BLOCK).mean(axis=1)]


def reference_entry(outputs: dict) -> dict:
    """What the reference file keeps of a unit's outputs: all of them, with
    trials cut to their hashes and stopping times and MSE curves to blocks."""
    entry = {"digest": digest(outputs)}
    for key, value in outputs.items():
        if key == "trials":
            entry[key] = [{"meas_hash": t["meas_hash"], "stops": t["stops"]} for t in value]
        elif key in ("mse0", "mse1"):
            entry[f"{key}_blocks"] = _blocks(value)
        else:
            entry[key] = value
    return entry


def _match(got, want) -> bool:
    """Same structure; floats equal to RTOL relative, everything else exactly."""
    if isinstance(want, dict):
        return isinstance(got, dict) and sorted(got) == sorted(want) and all(_match(got[k], want[k]) for k in want)
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_match, got, want))
    if isinstance(want, float) and isinstance(got, (int, float)):
        return abs(got - want) <= RTOL * abs(want)
    return got == want


def compare_reference(outputs: dict, ref: dict) -> "tuple[list[bool], list[str]]":
    """Per-trial pass flags and the problems found.

    Measurement hashes and stopping times must match exactly. Every
    post-processing output (delays, miss and first-detector ratios,
    thresholds, false-alarm periods, MSE curves) must match to RTOL
    relative; a mismatch there is a unit-level problem and fails every trial.
    """
    trials = outputs["trials"]
    if len(trials) != len(ref["trials"]):
        return [False] * len(trials), [f"{len(trials)} trials, reference has {len(ref['trials'])}"]
    ok = [
        t["meas_hash"] == r["meas_hash"] and t["stops"] == r["stops"]
        for t, r in zip(trials, ref["trials"])
    ]
    problems = [
        f"trial {i}: measurement hash or stopping times differ from reference"
        for i, good in enumerate(ok)
        if not good
    ]
    unit_problems = []
    for key, want in ref.items():
        if key in ("digest", "trials"):
            continue
        if key.endswith("_blocks"):
            got = _blocks(outputs.get(key[: -len("_blocks")], []))
        else:
            got = outputs.get(key)
        if not _match(got, want):
            unit_problems.append(f"{key} differs from reference")
    if unit_problems:
        ok = [False] * len(ok)
    return ok, problems + unit_problems


def _first(path: np.ndarray, threshold: float, direction: int) -> "int | str":
    hits = np.flatnonzero(path >= threshold if direction > 0 else path <= threshold)
    return int(hits[0]) + 1 if hits.size else "inf"


def self_check(name: str, ctx, results, outputs: dict) -> "list[str]":
    """Checks that hold for any seed, reference or not."""
    problems = []
    horizon = ctx.cfg.run.horizon
    for i, r in enumerate(results):
        if not 1 <= r.steps_run <= horizon:
            problems.append(f"trial {i}: steps_run {r.steps_run} outside [1, {horizon}]")
    if name == "fdi_detect":
        return problems

    # Recorded paths: every stopping time is the first crossing of its path.
    thresholds = {
        "alg1": ctx.h,
        "shewhart": ctx.shewhart.phi if ctx.shewhart is not None else None,
        "chi2": ctx.chi2.varphi if ctx.chi2 is not None else None,
        "np_cusum": ctx.np_q,
        "euclidean": ctx.euclid_d,
        "cosine": ctx.cosine_d,
    }
    for i, r in enumerate(results):
        n = r.steps_run
        for d, thr in thresholds.items():
            if thr is None or d not in ctx.enabled:
                continue
            path = getattr(r.paths, harness.PATH_FIELD[d])[:n]
            want = _first(path, thr, harness.PATH_DIRECTION[d])
            if _stop(r.stop(d)) != want:
                problems.append(f"trial {i}: {d} stop {_stop(r.stop(d))} != first crossing {want}")
        if "alg2" in ctx.enabled:
            want = min(r.stop("alg1"), r.stop("shewhart"), r.stop("chi2"))
            if r.stop("alg2") != want:
                problems.append(f"trial {i}: alg2 stop is not the earliest of its parts")

    if name == "clean_calibrate":
        for d, thr in outputs["thresholds"].items():
            if not math.isfinite(thr):
                problems.append(f"{d}: calibrated threshold {thr} is not finite")
    else:
        m0 = np.asarray(outputs["mse0"])
        m1 = np.asarray(outputs["mse1"])
        if not (np.all(np.isfinite(m0)) and np.all(np.isfinite(m1)) and m0.min() > 0 and m1.min() > 0):
            problems.append("MSE curves must be finite and positive")
        # Recovery: the attack-aware filter tracks the state better than the
        # clean-model filter once the attack is under way.
        window = slice(int(ctx.cfg.run.tau) + 1, horizon)
        if not m1[window].mean() < m0[window].mean():
            problems.append("recovered MSE is not below the non-recovered MSE after onset")
    return problems
