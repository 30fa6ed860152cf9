#!/usr/bin/env python3
"""Record perfbench/reference.json: the outputs of one unit of every workload
for each default seed, as the current sources compute them.

    python3 perfbench/record_reference.py

Run it from the repository root, and only when a change of results has been
reviewed and accepted: later commits are checked against this file.
"""

from __future__ import annotations

import bootstrap  # noqa: I001  (pins BLAS threads before numpy loads)

import json
import shutil
import sys
import tempfile
from pathlib import Path

SEEDS = range(0, 21)


def main() -> int:
    table = {}
    bootstrap.WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="reference-", dir=bootstrap.WORK))
    try:
        for name in bootstrap.WORKLOADS:
            ctx, _ = bootstrap.setup(name, work / f"{name}_mu0.txt", gauge=False)
            import workloads

            table[name] = {}
            for seed in SEEDS:
                seeded = workloads.with_seed(ctx, seed)
                results, outputs, _ = workloads.run_unit(name, seeded)
                problems = workloads.self_check(name, seeded, results, outputs)
                if problems:
                    print(f"{name} seed {seed}: " + "; ".join(problems), file=sys.stderr)
                    return 1
                table[name][str(seed)] = workloads.reference_entry(outputs)
                print(f"{name} seed {seed}: {table[name][str(seed)]['digest']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (bootstrap.HERE / "reference.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
