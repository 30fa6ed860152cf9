#!/usr/bin/env python3
"""gridwatch benchmark: Monte Carlo detection workloads through the public API.

    python3 perfbench/run.py --workload fdi_detect --seed 1 --seconds 25 --trace 0

Run from the repository root. One process, one worker, one BLAS thread. A
run sets the workload up several times (once in this process, the rest in
fresh interpreters) and reports the median set-up time, then repeats the
workload's unit of trials plus post-processing for --seconds and reports
medians over the repetitions. Times are rescaled to nominal machine speed
by a probe sampled while they run (perfbench/machine.py); the wall-clock
figures are printed too. Every unit's outputs are checked: repetitions
must agree exactly, recorded paths must agree with the stopping times, and
for seeds in perfbench/reference.json the measurement hashes and stopping
times, and every post-processing output, must match the recorded values.

With --trace 1 the run instead alternates untraced units with units whose
layers' public functions are wrapped (perfbench/tracing.py), checks that
both give identical outputs, and reports per-layer metrics in wall-clock
time and the tracing overhead of each traced unit against its untraced
neighbour.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import bootstrap  # noqa: I001  (pins BLAS threads before numpy loads)

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing

# workloads and machine load numpy, so they are imported only after the
# timed set-up has imported gridwatch.

HERE = bootstrap.HERE
ROOT = bootstrap.ROOT
WORK = bootstrap.WORK

# Set-ups per untraced run; setup_s is their median.
SETUP_SAMPLES = 3
REFERENCE = HERE / "reference.json"

END_TO_END_UNITS = {
    "setup_s": "s",
    "steps_per_s": "steps/s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units(name: str) -> str:
    if name.endswith("us_per_step"):
        return "us/step"
    if name.endswith(("us_p50", "us_p99")):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def blas_threads() -> "int | None":
    """Thread count reported by the OpenBLAS library loaded in this process."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower() and "/" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src = hashlib.sha256()
    for path in sorted((bootstrap.SRC / "gridwatch").rglob("*.py")):
        src.update(path.relative_to(bootstrap.SRC).as_posix().encode())
        src.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas_name,
        "blas_threads": blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": src.hexdigest(),
    }


def cold_setup(workload: str, work: Path, i: int) -> dict:
    """One cold set-up in a fresh interpreter; returns its timings."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "bootstrap.py"), workload, str(work / f"mu0_probe{i}.txt")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a fresh interpreter failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Measurement:
    """Repeated units of one workload and the verdict on each."""

    def __init__(self, name, ctx, reference):
        self.name = name
        self.ctx = ctx
        self.reference = reference
        self.units = []  # dicts: trial_steps, loop_s, post_s, digest, slowdown
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self._verdict = {}  # digest -> failed trial count

    def _judge(self, results, outputs, digest):
        import workloads

        if digest in self._verdict:
            return self._verdict[digest]
        problems = workloads.self_check(self.name, self.ctx, results, outputs)
        if self.units and digest != self.units[0]["digest"]:
            problems.append("outputs differ from the first repetition of the same unit")
        ok = [True] * len(outputs["trials"])
        if self.reference is not None:
            ok, ref_problems = workloads.compare_reference(outputs, self.reference)
            self.problems += ref_problems
        if problems:
            ok = [False] * len(ok)
        self.problems += problems
        self._verdict[digest] = ok.count(False)
        return self._verdict[digest]

    def run_one(self, sampler=None):
        """Run the unit once; with a sampler, gauge it. Returns the unit's
        record, or None when it raised, in which case all its trials fail."""
        import workloads

        if sampler is not None:
            sampler.start()
        try:
            unit = workloads.run_unit(self.name, self.ctx)
        except Exception as exc:
            self.attempted += self.ctx.cfg.run.trials
            self.failed += self.ctx.cfg.run.trials
            self.problems.append(f"unit raised {type(exc).__name__}: {exc}")
            return None
        finally:
            samples = sampler.stop() if sampler is not None else []
        return self._record(*unit, samples)

    def _record(self, results, outputs, stamps, samples):
        import machine
        import workloads

        t0, t1, t2 = stamps
        loop_probing, slowdown = machine.window(samples, t0, t1) if samples else (0.0, 1.0)
        post_probing = machine.window(samples, t1, t2)[0] if samples else 0.0
        digest = workloads.digest(outputs)
        self.attempted += len(results)
        self.failed += self._judge(results, outputs, digest)
        self.units.append(
            {
                "trial_steps": [r.steps_run for r in results],
                "loop_s": t1 - t0 - loop_probing,
                "post_s": t2 - t1 - post_probing,
                "digest": digest,
                "slowdown": slowdown,
            }
        )
        return self.units[-1]

    # Medians over units of figures rescaled to nominal machine speed (the
    # raw wall-clock figures with raw=True); zero when every unit raised,
    # in which case all its trials failed.
    def steps_per_s(self, raw=False) -> float:
        rates = [rate(u) * (1 if raw else u["slowdown"]) for u in self.units]
        return statistics.median(rates or [0.0])

    def run_s(self, raw=False) -> float:
        times = [(u["loop_s"] + u["post_s"]) / (1 if raw else u["slowdown"]) for u in self.units]
        return statistics.median(times or [0.0])

    def digests(self) -> set:
        return {u["digest"] for u in self.units}


def rate(unit: dict) -> float:
    """Wall-clock steps per second of one unit's trials."""
    return sum(unit["trial_steps"]) / unit["loop_s"]


def repeat(seconds: float, step) -> None:
    """Call ``step`` until ``seconds`` have passed, at least once. A call is
    not started when it would likely end more than half a call late."""
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        step()
        now = time.perf_counter()
        if now - start + (now - t) / 2 >= seconds:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=bootstrap.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not bootstrap.source_present():
        print(f"gridwatch sources not found under {bootstrap.SRC}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, work: Path) -> int:
    tracer = tracing.Tracer() if args.trace else None
    # Tracing starts once gridwatch is imported and before prepare, so the
    # innovation-norm baseline is recorded as a set-up span. Traced runs
    # report raw wall-clock figures and do not gauge the machine, so that no
    # probe time lands inside a span.
    ctx, timings = bootstrap.setup(
        args.workload,
        work / "mu0.txt",
        before_prepare=tracer.install if tracer else None,
        gauge=not args.trace,
    )
    if tracer is not None:
        tracer.uninstall()
        baseline = tracer.summary().get("harness.innovation_norm_baseline")
        baseline_s = baseline["total_s"] if baseline else 0.0
        tracer.reset()

    import machine
    import workloads

    ctx = workloads.with_seed(ctx, args.seed)
    env = environment(args.workload, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    reference = None
    if REFERENCE.is_file():
        table = json.loads(REFERENCE.read_text())
        reference = table.get(args.workload, {}).get(str(args.seed))

    if not args.trace:
        setups = [timings]
        for i in range(1, SETUP_SAMPLES):
            setups.append(cold_setup(args.workload, work, i))
        raw = ", ".join(f"{t['setup_s']:.4f}" for t in setups)
        print(f"set-up samples, wall clock (s): {raw}")
        slow = ", ".join(f"{t['slowdown']:.3f}" for t in setups)
        print(f"set-up machine slowdown: {slow}")
        m = Measurement(args.workload, ctx, reference)
        sampler = machine.Sampler()
        repeat(args.seconds, lambda: m.run_one(sampler))
        metrics = {
            "setup_s": statistics.median(t["setup_nominal_s"] for t in setups),
            "steps_per_s": m.steps_per_s(),
            "run_s": m.run_s(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
        measured = [m]
        print(f"wall clock: steps_per_s = {m.steps_per_s(raw=True):.6g} steps/s, run_s = {m.run_s(raw=True):.6g} s")
    else:
        # Untraced and traced units alternate, so that each pair sees the
        # same machine load and their ratio is the tracer's own cost.
        plain = Measurement(args.workload, ctx, reference)
        traced = Measurement(args.workload, ctx, reference)
        pairs = []

        def pair():
            a = plain.run_one()
            with tracer:
                b = traced.run_one()
            if a is not None and b is not None:
                pairs.append((a, b))

        repeat(args.seconds, pair)
        if traced.digests() != plain.digests():
            traced.problems.append("traced outputs differ from untraced outputs")
            traced.failed = traced.attempted
        trial_steps = [n for u in traced.units for n in u["trial_steps"]]
        metrics = tracing.layer_metrics(tracer, trial_steps, len(traced.units), ctx.cfg.run.horizon)
        metrics["harness.postprocess_s"] = statistics.median([u["post_s"] for u in traced.units] or [0.0])
        metrics["harness.innovation_norm_baseline_s"] = baseline_s
        metrics["setup.import_s"] = timings["import_s"]
        metrics["trace.overhead_frac"] = 1.0 - statistics.median([rate(b) / rate(a) for a, b in pairs] or [1.0])
        units = {name: per_layer_units(name) for name in metrics}
        measured = [plain, traced]
        if tracer.absent:
            print("absent (not traced): " + ", ".join(tracer.absent))

    attempted = sum(m.attempted for m in measured)
    failed = sum(m.failed for m in measured)
    problems = [p for m in measured for p in m.problems]
    digests = set().union(*(m.digests() for m in measured))
    repeats = sum(len(m.units) for m in measured)
    print(f"units run: {repeats}; output digest: {', '.join(sorted(digests))}")
    for m in measured:
        rates = ", ".join(f"{rate(u):.1f}" for u in m.units)
        print(f"unit steps/s, wall clock: {rates}")
        if not args.trace:
            slow = ", ".join(f"{u['slowdown']:.3f}" for u in m.units)
            print(f"unit machine slowdown: {slow}")
    if reference is None:
        print(f"reference: none for seed {args.seed}")
    else:
        exact = "yes" if digests == {reference["digest"]} else "no"
        print(f"reference: compared; output digest identical to the recorded one: {exact}")
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} trials)")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
