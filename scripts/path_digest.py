#!/usr/bin/env python3
"""Print one sha256 per shipped config over its parsed inputs, then two per
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
array of it, in trial order. It is followed by the line
"<workload> <seed> exits <sha256>" over the same trials run without paths
(step logging off too), so that each trial leaves the batch once its
detectors have all fired: the digest is taken over each trial's
measurement hash, steps run, stopping times, tau_hat and re-sync count.
A workload with an np-CUSUM baseline also gets one line
"<workload> mu0 <repr>", printed before its seeds, so the baseline's bits
are compared directly. gridwatch is imported from the Python path, so the
same script run against two source trees shows whether they parse the
same inputs and compute the same baseline, measurements, stops, exits and
paths bit for bit. tests/golden/path_digest.txt holds the lines for seeds
0 to 1 under a header of ``versions()``, which tier-1 recomputes.
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
    from gridwatch.expconfig import load_config
    from gridwatch.grid_model import build_model, load_topology

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


def exits_digest(results) -> str:
    """sha256 over each trial's meas_hash, steps_run, stops, tau_hat and
    syncs, in trial order."""
    h = hashlib.sha256()
    for r in results:
        h.update(f"{r.meas_hash} {r.steps_run} {r.stops!r} {r.tau_hat} {r.syncs}\n".encode())
    return h.hexdigest()


def versions() -> str:
    """The libraries whose builds the bits depend on: numpy, scipy and the
    BLAS numpy was built with, as one line."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__} scipy {scipy.__version__} blas {blas['name']} {blas['version']}"


def lines(first: int, last: int):
    """The script's output lines for the master seeds first .. last, in
    order, without their newlines."""
    from gridwatch import harness
    from gridwatch.expconfig import load_config

    for cfg_path in sorted([*(ROOT / "configs").glob("*.cfg"), *WORKLOADS.glob("*.cfg")]):
        yield f"{cfg_path.relative_to(ROOT).as_posix()} parsed {parsed_digest(cfg_path)}"
    for cfg_path in sorted(WORKLOADS.glob("*.cfg")):
        ctx = harness.prepare(load_config(cfg_path))
        if ctx.mu0 is not None:
            yield f"{cfg_path.stem} mu0 {ctx.mu0!r}"
        for seed in range(first, last + 1):
            results = harness.run_trials(ctx, master_seed=seed, full_paths=True)
            yield f"{cfg_path.stem} {seed} {paths_digest(results)}"
            quick = harness.run_trials(ctx, master_seed=seed, log_steps=False)
            yield f"{cfg_path.stem} {seed} exits {exits_digest(quick)}"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    first, last = (int(a) for a in args) if args else (0, 20)
    for line in lines(first, last):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
