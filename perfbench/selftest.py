#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/selftest.py

Runs every workload briefly, untraced and traced, and checks that each
metric BENCHMARK.json names is printed with its unit and that the outputs
pass. Then checks, in copies of the benchmark, that a tampered reference
measurement hash fails trials and that a directory without the gridwatch
sources gives a non-zero exit and no result. Last, it traces one unit in
this process and checks the spans' nesting and that a missing function is
reported absent. Exits non-zero on the first failed check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )
    return proc


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"benchmark exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(cond: bool, what: str) -> None:
    print(f"{'ok  ' if cond else 'FAIL'} {what}", flush=True)
    if not cond:
        raise SystemExit(1)


def check_spans(work: Path) -> None:
    """Trace one hybrid_recover unit here, with one robust function removed."""
    sys.path.insert(0, str(HERE))
    import bootstrap  # noqa: I001  (pins BLAS threads before numpy loads)

    ctx, _ = bootstrap.setup("hybrid_recover", work / "mu0.txt", gauge=False)
    import tracing
    import workloads
    from gridwatch import robust

    removed = robust.cosine_similarity
    del robust.cosine_similarity  # hybrid_recover never calls it
    tracer = tracing.Tracer()
    try:
        with tracer:
            workloads.run_unit("hybrid_recover", ctx)
    finally:
        robust.cosine_similarity = removed
    spans = tracer.spans
    nested = all(
        p < i and spans[p][1] <= t0 <= t1 <= spans[p][2] if p >= 0 else t0 <= t1
        for i, (_, t0, t1, p) in enumerate(spans)
    )
    names = {s[0] for s in spans}
    check(bool(spans) and nested, "spans nest inside their parents")
    check({"harness.run_trial", "kalman.kf_update_post", "detector.cusum_step"} <= names, "trial-loop layers traced")
    check(tracer.absent == ["gridwatch.robust.cosine_similarity"], "a removed function is reported absent")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="selftest-", dir=scratch))
    try:
        for w in spec["workloads"]:
            for trace in (0, 1):
                args = ["--workload", w["name"], "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
                res = result_of(bench(*args))
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                label = f"{w['name']} trace={trace}"
                check(set(res) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
                check(got == wanted[trace], f"{label}: every metric with its unit")
                check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0, f"{label}: outputs pass")

        name = spec["workloads"][0]["name"]
        args = ["--workload", name, "--seed", str(SEED), "--seconds", "1", "--trace", "0"]
        ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
        tampered = work / "tampered"
        shutil.copytree(HERE, tampered / HERE.name, ignore=ignore)
        shutil.copytree(ROOT / "src", tampered / "src", ignore=ignore)
        ref = tampered / HERE.name / "reference.json"
        table = json.loads(ref.read_text())
        table[name][str(SEED)]["trials"][0]["meas_hash"] = "0" * 64
        ref.write_text(json.dumps(table))
        res = result_of(bench(*args, cwd=tampered, script=tampered / HERE.name / "run.py"))
        check(res["failed"] > 0 and not res["correct"], f"{name}: tampered reference hash fails trials")

        bare = work / "bare"
        shutil.copytree(HERE, bare / HERE.name, ignore=ignore)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench(*args, cwd=bare, script=bare / HERE.name / "run.py")
        last = proc.stdout.strip().splitlines()[-1:] or [""]
        check(proc.returncode != 0 and '"correct"' not in last[0], "no sources: non-zero exit, no result")

        check_spans(work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
