import math

import numpy as np
import pytest

from gridwatch.attacks import AttackSpec, MagnitudeLaw
from gridwatch.grid_model import build_model, load_topology
from gridwatch.expconfig import resolve_topology

# Detector constants used throughout the evaluation setup.
GAMMA = 0.022
SIGMA2_MIN = 1e-2
SIGMA_W2 = 1e-4
SIGMA_V2 = 1e-4

TWO_BUS = """\
[buses]
1 ref
2
[branches]
1 2 1 1.0
[meters]
1 flow 1 +
"""

THREE_BUS = """\
[buses]
1 ref
2
3
[branches]
1 2 1 1.0
2 2 3 2.0
[meters]
1 flow 1 +
2 flow 2 +
3 injection 2
"""


def dense_stable_A(n):
    """A stable n x n A with no zero entry: unlike A = I, its products are
    inexact, so a change in how A @ x is computed changes their bits."""
    A = 0.95 * np.eye(n) + 0.004 * np.random.default_rng(5).standard_normal((n, n))
    assert np.abs(np.linalg.eigvals(A)).max() < 1
    return A


@pytest.fixture(scope="session")
def ieee14_path():
    return resolve_topology("ieee14", None)


@pytest.fixture(scope="session")
def ieee14_topology(ieee14_path):
    return load_topology(ieee14_path)


@pytest.fixture(scope="session")
def ieee14_model(ieee14_topology):
    return build_model(ieee14_topology, lam=5, sigma_v2=SIGMA_V2, sigma_w2=SIGMA_W2)


@pytest.fixture()
def two_bus_path(tmp_path):
    p = tmp_path / "two_bus.grid"
    p.write_text(TWO_BUS)
    return p


@pytest.fixture()
def two_bus_model(two_bus_path):
    return build_model(load_topology(two_bus_path), lam=1, sigma_v2=SIGMA_V2, sigma_w2=SIGMA_W2)


@pytest.fixture()
def three_bus_path(tmp_path):
    p = tmp_path / "three_bus.grid"
    p.write_text(THREE_BUS)
    return p


def write_config(tmp_path, text, name="exp.cfg"):
    p = tmp_path / name
    p.write_text(text)
    return p


def attack_grid():
    """Attack programs for the attack-clock tests: every kind, onsets from
    the first step to never, and duty cycles with and without an off
    period. Each carries both magnitude laws, so any of them can be
    realized."""
    yield AttackSpec()
    cycles = ((None, None), (1, 0), (1, 1), (1, 3), (3, 1), (5, 0), (4, 7), (32, 33))
    laws = {"fdi_law": MagnitudeLaw.uniform(-0.02, 0.02), "jam_law": MagnitudeLaw.uniform(2e-4, 4e-4)}
    for kind in ("fdi", "jamming", "hybrid", "topology-fault"):
        for tau in (1, 2, 7, 40, math.inf):
            for t_on, t_off in cycles:
                meters = (3,) if kind == "topology-fault" else ()
                yield AttackSpec(tau=tau, kind=kind, t_on=t_on, t_off=t_off, fault_meters=meters, **laws)
