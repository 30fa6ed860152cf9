#!/usr/bin/env python3
"""Print one sha256 per shipped config over its parsed inputs, then one per
benchmark workload and seed over its trials' results.

    PYTHONPATH=src python3 scripts/path_digest.py [FIRST LAST]

First, each config in configs/ and perfbench/workloads/ gets one line
"<path> parsed <sha256>", the digest taken over the parsed ExperimentConfig,
its loaded topology and its model's fingerprint (see ``parsed_digest``).
Then each config in perfbench/workloads/ is run with full paths, for every master
seed from FIRST to LAST inclusive (default 0 to 20); hybrid_recover's config
also turns on step logging, so its MSE paths are included. A line reads
"<workload> <seed> <sha256>", the digest taken over each trial's
measurement hash, steps run and stopping times and over every TrialPaths
array of it, in trial order. A workload with an np-CUSUM baseline also
gets one line "<workload> mu0 <repr>", printed before its seeds, so the
baseline's bits are compared directly. gridwatch is imported from the
Python path, so the same script run against two source trees shows whether
they parse the same inputs and compute the same baseline, measurements,
stops and paths bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads"


def parsed_digest(cfg_path: Path) -> str:
    """sha256 over the repr of the config ``load_config`` parses, of the
    topology it names, and over the fingerprint of the model built from
    them. The config's paths enter as it names them: relative to its
    directory, or a bundled file by its name; so copies of one config in two
    places, read by two source trees, give one digest."""
    from gridwatch import build_model, load_topology
    from gridwatch.expconfig import load_config

    cfg = load_config(cfg_path)
    m = cfg.model
    topology = load_topology(m.topology_path)
    a = m.a_choice if m.a_choice == "identity" else np.loadtxt(m.a_choice, delimiter=",", ndmin=2)
    model = build_model(topology, m.lam, m.sigma_v2, m.sigma_w2, a)

    def named(p):
        if not isinstance(p, Path):
            return p
        return p.relative_to(cfg_path.parent) if p.is_relative_to(cfg_path.parent) else p.name

    m = dataclasses.replace(m, topology_path=named(m.topology_path), a_choice=named(m.a_choice))
    text = f"{dataclasses.replace(cfg, model=m, source=None)!r}\n{topology!r}\n{model.fingerprint()}"
    return hashlib.sha256(text.encode()).hexdigest()


def paths_digest(results) -> str:
    """sha256 over each trial's meas_hash, steps_run and stops (detector
    names and stopping times in the trial's order), then its TrialPaths
    arrays: field name, dtype, shape and bytes, in field order; a field left
    as None is skipped. Trials are taken in order."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.meas_hash} {r.steps_run} {r.stops!r}\n".encode())
        for f in dataclasses.fields(r.paths):
            a = getattr(r.paths, f.name)
            if a is not None:
                h.update(f"{f.name} {a.dtype} {a.shape}\n".encode())
                h.update(a.tobytes())
    return h.hexdigest()


def main(argv=None) -> int:
    from gridwatch import harness
    from gridwatch.expconfig import load_config

    args = sys.argv[1:] if argv is None else argv
    first, last = (int(a) for a in args) if args else (0, 20)
    for cfg_path in sorted([*(ROOT / "configs").glob("*.cfg"), *WORKLOADS.glob("*.cfg")]):
        print(f"{cfg_path.relative_to(ROOT).as_posix()} parsed {parsed_digest(cfg_path)}", flush=True)
    for cfg_path in sorted(WORKLOADS.glob("*.cfg")):
        ctx = harness.prepare(load_config(cfg_path))
        if ctx.mu0 is not None:
            print(f"{cfg_path.stem} mu0 {ctx.mu0!r}", flush=True)
        for seed in range(first, last + 1):
            results = harness.run_trials(ctx, master_seed=seed, full_paths=True)
            print(f"{cfg_path.stem} {seed} {paths_digest(results)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
