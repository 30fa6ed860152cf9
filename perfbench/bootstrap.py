"""Timed set-up of one workload: import gridwatch, load its config, prepare.

Imported by run.py before anything loads numpy, so the BLAS thread count is
pinned and the import is timed cold. Run as a script it performs one
set-up in a fresh interpreter and prints its timings as one JSON line:

    python3 perfbench/bootstrap.py <workload> <mu0 cache file>
"""

from __future__ import annotations

import os

# One process, one BLAS thread: worker threads and BLAS threads both measure
# slower on small machines, and the count must be fixed before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
# Scratch space for mu0 cache files and self-test copies; removed after use.
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("fdi_detect", "clean_calibrate", "hybrid_recover")


def source_present() -> bool:
    return (SRC / "gridwatch" / "__init__.py").is_file()


def setup(workload: str, mu0_cache: Path, before_prepare=None, gauge=True):
    """Return (RunContext, timings). The mu0 cache file must not exist yet,
    so the innovation-norm baseline is always computed. ``before_prepare``
    runs untimed between loading the config and preparing the context.

    With ``gauge``, the machine's speed is sampled from the end of the
    import (the probe needs numpy) to the end of prepare, and timings hold
    ``setup_nominal_s``, the set-up time rescaled to nominal speed.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import gridwatch

    t1 = time.perf_counter()
    sampler = None
    if gauge:
        import machine

        sampler = machine.Sampler()
        sampler.start()
    try:
        t1b = time.perf_counter()
        cfg = gridwatch.load_config(HERE / "workloads" / f"{workload}.cfg")
        t2 = time.perf_counter()
        if before_prepare is not None:
            before_prepare()
        t3 = time.perf_counter()
        ctx = gridwatch.harness.prepare(cfg, mu0_cache=str(mu0_cache))
        t4 = time.perf_counter()
    finally:
        samples = sampler.stop() if sampler is not None else []
    probing, slowdown = machine.window(samples, t1b, t4) if samples else (0.0, 1.0)
    timings = {
        "import_s": t1 - t0,
        "config_s": t2 - t1b,
        "prepare_s": t4 - t3,
        "setup_s": (t1 - t0) + (t2 - t1b) + (t4 - t3) - probing,
    }
    timings["slowdown"] = slowdown
    timings["setup_nominal_s"] = timings["setup_s"] / slowdown
    return ctx, timings


if __name__ == "__main__":
    _, timings = setup(sys.argv[1], Path(sys.argv[2]))
    print(json.dumps(timings))
