#!/usr/bin/env python3
"""Run the benchmark in a parent tree and a changed tree, in pairs, and
summarize the end-to-end metrics.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W \\
        --seeds A-B [--seconds S] [--out FILE]

For each seed from A to B inclusive, ``perfbench/run.py --workload W
--seed SEED --seconds S --trace 0`` runs once in each tree, one after the
other: the parent first on odd seeds and the change first on even ones, so
neither side always runs on the warmer machine. The run's last line of
standard output is its result; a run that exits non-zero or ends without
one stops the script with status 1, naming the tree, workload, seed and
exit code, followed by the last lines of the run's standard error. The
JSON written to FILE (standard output by default) holds every run, the
machine block of the first run (its ``env`` line) and, for each
end-to-end metric of BENCHMARK.json next to this script, both sides'
medians and inclusive quartiles, the pairs the change won (ties count
for neither side), whether a gain may be claimed (the change won at
least nine in ten pairs, and its median is better than the parent's by
more than the parent's interquartile distance) and a ``no_regression``
verdict against the metric's bound:
"worse" when the change's median is worse than the parent's by more than
bound x |parent median|; else "unresolved" when the parent's
interquartile distance is wider than that margin, unless every run of
the change beats every run of the parent; else "held".
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MACHINE_KEYS = ("nproc", "affinity_cpus", "blas", "blas_threads", "python", "numpy", "scipy")
# the lines of a failed run's standard error that the script's message repeats
STDERR_TAIL = 20


def summarize(parent: "list[float]", change: "list[float]", better: str, bound: float) -> dict:
    """The pairwise summary of one metric: parent[i] and change[i] are the
    runs of pair i, ``better`` is "higher" or "lower" and ``bound`` the
    largest relative worsening of the median that still holds."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two equal-length lists of at least two runs")
    sign = 1.0 if better == "higher" else -1.0
    parent_q = statistics.quantiles(parent, n=4, method="inclusive")
    change_q = statistics.quantiles(change, n=4, method="inclusive")
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    iqr = parent_q[2] - parent_q[0]
    gain = sign * (change_q[1] - parent_q[1])
    margin = bound * abs(parent_q[1])
    beats_all = min(sign * c for c in change) > max(sign * p for p in parent)
    if gain < -margin:
        verdict = "worse"
    elif iqr > margin and not beats_all:
        verdict = "unresolved"
    else:
        verdict = "held"
    return {
        "better": better,
        "parent_median": parent_q[1],
        "change_median": change_q[1],
        "ratio": change_q[1] / parent_q[1] if parent_q[1] else None,
        "parent_quartiles": parent_q,
        "change_quartiles": change_q,
        "parent_iqr": iqr,
        "change_won": f"{wins} of {len(parent)}",
        "gain_holds": 10 * wins >= 9 * len(parent) and gain > iqr,
        "bound": bound,
        "no_regression": verdict,
    }


def seed_range(text: str) -> "list[int]":
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if len(seeds) < 2:
        raise argparse.ArgumentTypeError(f"{text!r}: need at least two seeds, as A-B")
    return seeds


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> "tuple[dict, dict]":
    """One benchmark run in ``tree``: its result and its machine block."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if not isinstance(result, dict):
        tail = "\n".join(proc.stderr.splitlines()[-STDERR_TAIL:])
        raise SystemExit(
            f"{tree}: perfbench/run.py --workload {workload} --seed {seed} exited "
            f"{proc.returncode} without a JSON result; the end of its standard error:\n{tail}"
        )
    env = next(json.loads(line[4:]) for line in lines if line.startswith("env "))
    run = {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }
    return run, {key: env.get(key) for key in MACHINE_KEYS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs, machine = {"parent": [], "change": []}, {}
    for seed in args.seeds:
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        for side in order:
            run, env = run_once(getattr(args, side), args.workload, seed, args.seconds)
            runs[side].append(run)
            machine = machine or env
            print(f"{args.workload} seed {seed} {side}: {run['metrics']}", file=sys.stderr)
    summary = {
        "workload": args.workload,
        "seeds": f"{args.seeds[0]}-{args.seeds[-1]}",
        "seconds": args.seconds,
        "machine": machine,
        "all_correct": all(r["correct"] and r["failed"] == 0 for side in runs.values() for r in side),
        "end_to_end": {
            m["name"]: summarize(
                [r["metrics"][m["name"]] for r in runs["parent"]],
                [r["metrics"][m["name"]] for r in runs["change"]],
                m["better"],
                m["bound"],
            )
            for m in end_to_end
        },
        "runs": runs,
    }
    text = json.dumps(summary, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
