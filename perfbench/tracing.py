"""Span recorder that times gridwatch's layers from outside the program.

Tracing replaces public functions with wrappers at the binding their caller
resolves at call time, records one span per call (name, start, end, parent)
in memory, and restores the originals afterwards. Nothing in the program is
edited. A function that no longer exists is listed as absent instead of
failing the run.
"""

from __future__ import annotations

import importlib
import statistics
import time
from collections import defaultdict

# (span name, module, attribute). Several attributes may feed one span name.
# harness imports simulate_step, realize_attack and apply_attack by name, so
# they are patched on gridwatch.harness, the binding run_trial resolves; the
# rest are looked up on their own module at call time.
TARGETS = (
    ("harness.run_trials", "gridwatch.harness", "run_trials"),
    ("harness.run_trial", "gridwatch.harness", "run_trial"),
    ("harness.innovation_norm_baseline", "gridwatch.harness", "innovation_norm_baseline"),
    ("harness.calibrate_threshold", "gridwatch.harness", "calibrate_threshold"),
    ("grid_model.simulate_step", "gridwatch.harness", "simulate_step"),
    ("attacks.realize_attack", "gridwatch.harness", "realize_attack"),
    ("attacks.apply_attack", "gridwatch.harness", "apply_attack"),
    ("kalman.kf_predict", "gridwatch.kalman", "kf_predict"),
    ("kalman.kf_update_pre", "gridwatch.kalman", "kf_update_pre"),
    ("kalman.kf_update_pre", "gridwatch.kalman", "kf_update_pre_full"),
    ("kalman.kf_update_post", "gridwatch.kalman", "kf_update_post"),
    ("detector.algorithm1_step", "gridwatch.detector", "algorithm1_step"),
    ("detector.residual_block", "gridwatch.detector", "residual_block"),
    ("detector.hypothesis_costs", "gridwatch.detector", "hypothesis_costs"),
    ("detector.classify_meters", "gridwatch.detector", "classify_meters"),
    ("detector.mle_attack_params", "gridwatch.detector", "mle_attack_params"),
    ("detector.gllr", "gridwatch.detector", "gllr"),
    ("detector.cusum_step", "gridwatch.detector", "cusum_step"),
    ("robust.chi2_sample_from_innovation", "gridwatch.robust", "chi2_sample_from_innovation"),
    ("robust.pearson_step", "gridwatch.robust", "pearson_step"),
    ("robust.cosine_similarity", "gridwatch.robust", "cosine_similarity"),
)

# Calls inside these spans belong to set-up: nested wrappers pass straight
# through, so the baseline's simulate_step calls are not trial-loop time.
OPAQUE = frozenset({"harness.innovation_norm_baseline"})

# Layers reported as self time per trial step (simulation and detector steps
# are one to one). The name of the metric is "<span>.us_per_step".
PER_STEP = (
    "grid_model.simulate_step",
    "attacks.realize_attack",
    "attacks.apply_attack",
    "kalman.kf_predict",
    "kalman.kf_update_pre",
    "kalman.kf_update_post",
    "detector.residual_block",
    "detector.hypothesis_costs",
    "detector.classify_meters",
    "detector.mle_attack_params",
    "detector.gllr",
    "detector.cusum_step",
    "robust.chi2_sample_from_innovation",
    "robust.pearson_step",
    "robust.cosine_similarity",
)


def _probe_realize(counts, args, kwargs, out):
    counts["attack.calls"] += 1
    counts["attack.active"] += bool(out.active)


def _probe_post(counts, args, kwargs, out):
    sigma_hat = args[4] if len(args) > 4 else kwargs["sigma_hat"]
    counts["post.calls"] += 1
    counts["post.sigma_nonzero"] += bool(sigma_hat.any())


def _probe_cusum(counts, args, kwargs, out):
    counts["cusum.calls"] += 1
    counts["cusum.sync"] += bool(out[1])


def _probe_classify(counts, args, kwargs, out):
    labels = out.labels
    counts["labels.total"] += int(labels.size)
    counts["labels.nonclean"] += int((labels != 0).sum())


PROBES = {
    "attacks.realize_attack": _probe_realize,
    "kalman.kf_update_post": _probe_post,
    "detector.cusum_step": _probe_cusum,
    "detector.classify_meters": _probe_classify,
}


class Tracer:
    """In-memory spans plus counters read off call arguments and results.

    Single-threaded by design: the benchmark runs trials with one worker.
    """

    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self.absent = []
        self._stack = []
        self._opaque = 0
        self._saved = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        probe = PROBES.get(name)
        opaque = name in OPAQUE

        def wrapper(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            self._opaque += opaque
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._opaque -= opaque
                stack.pop()
                spans[idx] = (name, t0, t1, parent)
            if probe is not None:
                try:
                    probe(self.counts, args, kwargs, out)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.counts["probe_errors"] += 1
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        self.absent = []
        for name, module_name, attr in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def reset(self):
        self.spans.clear()
        self.counts.clear()

    def summary(self):
        """Per span name: call count, total and self seconds, call durations."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = {}
        for i, (name, t0, t1, _) in enumerate(self.spans):
            agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            agg["calls"] += 1
            agg["total_s"] += t1 - t0
            agg["self_s"] += t1 - t0 - child[i]
            agg["durations"].append(t1 - t0)
        return out


def _frac(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer, trial_steps, units, horizon):
    """Per-layer figures from one traced measurement.

    ``trial_steps`` holds steps_run of every trial the traced units ran,
    ``units`` how many units ran and ``horizon`` the configured trial length.
    """
    steps = sum(trial_steps)
    agg = tracer.summary()
    counts = tracer.counts

    def self_s(name):
        return agg[name]["self_s"] if name in agg else 0.0

    def total_s(name):
        return agg[name]["total_s"] if name in agg else 0.0

    m = {}
    for name in PER_STEP:
        m[f"{name}.us_per_step"] = 1e6 * _frac(self_s(name), steps)
    m["detector.algorithm1_step.self_us_per_step"] = 1e6 * _frac(
        self_s("detector.algorithm1_step"), steps
    )
    durs = agg.get("detector.algorithm1_step", {}).get("durations", [0.0])
    m["detector.algorithm1_step.us_p50"] = 1e6 * statistics.median(durs)
    m["detector.algorithm1_step.us_p99"] = 1e6 * (
        statistics.quantiles(durs, n=100)[98] if len(durs) >= 2 else durs[0]
    )
    m["harness.run_trial.self_us_per_step"] = 1e6 * _frac(self_s("harness.run_trial"), steps)

    m["attacks.active_frac"] = _frac(counts["attack.active"], counts["attack.calls"])
    m["kalman.sync_frac"] = _frac(counts["cusum.sync"], counts["cusum.calls"])
    m["kalman.post_sigma_nonzero_frac"] = _frac(counts["post.sigma_nonzero"], counts["post.calls"])
    m["detector.nonclean_label_frac"] = _frac(counts["labels.nonclean"], counts["labels.total"])

    m["harness.calibrate_threshold_s"] = _frac(total_s("harness.calibrate_threshold"), units)
    m["harness.steps_run"] = _frac(steps, units)
    m["harness.trials"] = _frac(len(trial_steps), units)
    m["harness.early_exit_frac"] = _frac(sum(n < horizon for n in trial_steps), len(trial_steps))

    uncovered = self_s("harness.run_trials") + self_s("harness.run_trial")
    loop_s = total_s("harness.run_trials")
    m["trace.span_coverage_frac"] = 1.0 - uncovered / loop_s if loop_s else 0.0
    return m
