import importlib.util
from dataclasses import replace
from pathlib import Path

import numpy as np

from gridwatch import harness
from gridwatch.expconfig import load_config

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "path_digest.py"
_spec = importlib.util.spec_from_file_location("path_digest", SCRIPT)
path_digest = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(path_digest)


def test_path_digest_repeats_and_sees_one_bit():
    # hybrid_recover logs steps, so the MSE paths are hashed too
    cfg = load_config(path_digest.WORKLOADS / "hybrid_recover.cfg")
    ctx = harness.prepare(replace(cfg, run=replace(cfg.run, trials=2)))
    first = harness.run_trials(ctx, master_seed=3, full_paths=True)
    again = harness.run_trials(ctx, master_seed=3, full_paths=True)
    digest = path_digest.paths_digest(first)
    assert len(digest) == 64 and path_digest.paths_digest(again) == digest
    mse1 = again[1].paths.mse1
    mse1[-1] = np.nextafter(mse1[-1], np.inf)
    assert path_digest.paths_digest(again) != digest


def test_parsed_digest_sees_a_config_value_and_not_its_place(tmp_path):
    text = (path_digest.WORKLOADS / "fdi_detect.cfg").read_text()
    assert "\nh = " in text
    copies = []
    for name, body in (("a", text), ("b", text), ("c", text.replace("\nh = ", "\nh = 1"))):
        (tmp_path / name).mkdir()
        copies.append(tmp_path / name / "fdi_detect.cfg")
        copies[-1].write_text(body)
    first, moved, changed = (path_digest.parsed_digest(p) for p in copies)
    assert len(first) == 64 and moved == first and changed != first
