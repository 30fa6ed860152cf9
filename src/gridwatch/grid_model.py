"""Linear dynamic grid model: topology parsing, measurement matrix, simulation.

The grid is a discrete-time linear dynamic system

    x_t = A x_{t-1} + v_t,        v_t ~ N(0, sigma_v2 * I_N)
    y_t = H x_t + w_t,            w_t ~ N(0, sigma_w2 * I_{K*lam})

where x_t holds the phase angles of the N non-reference buses and y_t stacks
lam samples per meter for each of the K meters. H is built from a DC power
flow description of the network: a flow meter on a branch with susceptance b
contributes +b / -b at the branch endpoints, an injection meter at a bus sums
the flow rows of its incident branches, and every meter row is replicated
lam times contiguously.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np


class TopologyError(ValueError):
    """Raised for unparseable or inconsistent topology files."""


@dataclass(frozen=True)
class Branch:
    branch_id: str
    from_bus: str
    to_bus: str
    susceptance: float


@dataclass(frozen=True)
class Meter:
    meter_id: str
    kind: str  # "flow" or "injection"
    target: str  # branch id for flow, bus id for injection
    direction: int = +1  # +1: declared from->to orientation, -1: reversed


@dataclass(frozen=True)
class GridTopology:
    """Validated bus/branch/meter description of the network.

    ``buses`` keeps declaration order; exactly one bus is the reference and
    carries no state variable. ``angles`` maps bus id to the initial phase
    angle carried by the file (absent buses default to 0).
    """

    buses: tuple
    reference: str
    branches: tuple
    meters: tuple
    angles: dict = field(default_factory=dict)

    @property
    def n_states(self) -> int:
        return len(self.buses) - 1

    @property
    def n_meters(self) -> int:
        return len(self.meters)

    def state_buses(self) -> list:
        """Non-reference buses in declaration order; defines state indexing."""
        return [b for b in self.buses if b != self.reference]

    def initial_state(self) -> np.ndarray:
        """Angle vector for the non-reference buses (radians)."""
        return np.array([self.angles.get(b, 0.0) for b in self.state_buses()])


_SECTIONS = ("buses", "branches", "meters")


def load_topology(path) -> GridTopology:
    """Parse and validate a topology file.

    Format (line oriented, ``#`` starts a comment):

        [buses]
        <id> [angle] [ref]        # at most one bus carries the ref flag
        [branches]
        <id> <from> <to> <susceptance>
        [meters]
        <id> flow <branch> <+|->
        <id> injection <bus>

    Unknown sections are rejected; errors carry the offending line number.
    """
    buses: list = []
    angles: dict = {}
    reference: Optional[str] = None
    branches: list = []
    meters: list = []
    seen_bus, seen_branch, seen_meter = set(), set(), set()
    # (kind, target, direction) so duplicate meter definitions are caught
    # even under distinct ids.
    meter_defs = set()

    section = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip().lower()
                if section not in _SECTIONS:
                    raise TopologyError(f"line {lineno}: unknown section [{section}]")
                continue
            if section is None:
                raise TopologyError(f"line {lineno}: content before any section header")
            tokens = line.split()
            if section == "buses":
                bus = tokens[0]
                if bus in seen_bus:
                    raise TopologyError(f"line {lineno}: duplicate bus {bus}")
                seen_bus.add(bus)
                buses.append(bus)
                for tok in tokens[1:]:
                    if tok.lower() == "ref":
                        if reference is not None:
                            raise TopologyError(
                                f"line {lineno}: second reference bus {bus} "
                                f"(already {reference})"
                            )
                        reference = bus
                    else:
                        try:
                            angles[bus] = float(tok)
                        except ValueError:
                            raise TopologyError(
                                f"line {lineno}: bad bus token {tok!r}"
                            ) from None
            elif section == "branches":
                if len(tokens) != 4:
                    raise TopologyError(
                        f"line {lineno}: branch needs '<id> <from> <to> <susceptance>'"
                    )
                bid, fbus, tbus, sus = tokens
                if bid in seen_branch:
                    raise TopologyError(f"line {lineno}: duplicate branch {bid}")
                seen_branch.add(bid)
                try:
                    b = float(sus)
                except ValueError:
                    raise TopologyError(
                        f"line {lineno}: bad susceptance {sus!r}"
                    ) from None
                branches.append(Branch(bid, fbus, tbus, b))
            elif section == "meters":
                if len(tokens) < 3:
                    raise TopologyError(f"line {lineno}: incomplete meter line")
                mid, kind = tokens[0], tokens[1].lower()
                if mid in seen_meter:
                    raise TopologyError(f"line {lineno}: duplicate meter {mid}")
                seen_meter.add(mid)
                if kind == "flow":
                    if len(tokens) != 4 or tokens[3] not in ("+", "-"):
                        raise TopologyError(
                            f"line {lineno}: flow meter needs '<id> flow <branch> <+|->'"
                        )
                    direction = +1 if tokens[3] == "+" else -1
                    meter = Meter(mid, "flow", tokens[2], direction)
                elif kind == "injection":
                    if len(tokens) != 3:
                        raise TopologyError(
                            f"line {lineno}: injection meter needs '<id> injection <bus>'"
                        )
                    meter = Meter(mid, "injection", tokens[2])
                else:
                    raise TopologyError(f"line {lineno}: unknown meter kind {kind!r}")
                mdef = (meter.kind, meter.target, meter.direction)
                if mdef in meter_defs:
                    raise TopologyError(f"line {lineno}: duplicate meter definition {mid}")
                meter_defs.add(mdef)
                meters.append(meter)

    if reference is None:
        raise TopologyError("no reference bus declared")
    if len(buses) < 2:
        raise TopologyError("need at least two buses")
    bus_set = set(buses)
    branch_ids = {br.branch_id for br in branches}
    for br in branches:
        for end in (br.from_bus, br.to_bus):
            if end not in bus_set:
                raise TopologyError(
                    f"branch {br.branch_id} references undeclared bus {end}"
                )
        if br.from_bus == br.to_bus:
            raise TopologyError(f"branch {br.branch_id} is a self-loop")
        if not br.susceptance > 0:
            raise TopologyError(
                f"branch {br.branch_id} susceptance must be > 0, got {br.susceptance}"
            )
    if not meters:
        raise TopologyError("at least one meter is required")
    for m in meters:
        if m.kind == "flow" and m.target not in branch_ids:
            raise TopologyError(f"meter {m.meter_id} references undeclared branch {m.target}")
        if m.kind == "injection" and m.target not in bus_set:
            raise TopologyError(f"meter {m.meter_id} references undeclared bus {m.target}")

    return GridTopology(
        buses=tuple(buses),
        reference=reference,
        branches=tuple(branches),
        meters=tuple(meters),
        angles=dict(angles),
    )


@dataclass(frozen=True)
class GridModel:
    """Immutable simulation/estimation substrate.

    ``H`` has the block structure H_k = 1_{lam x 1} h_k^T: the lam rows of
    each meter block are identical, meter k occupying rows
    k*lam .. k*lam + lam - 1. ``meter_rows`` keeps the K distinct rows.
    """

    A: np.ndarray
    H: np.ndarray
    meter_rows: np.ndarray
    sigma_v2: float
    sigma_w2: float
    lam: int
    N: int
    K: int

    def __post_init__(self):
        self.A.setflags(write=False)
        self.H.setflags(write=False)
        self.meter_rows.setflags(write=False)

    def expand(self, per_meter: np.ndarray) -> np.ndarray:
        """Repeat a K-vector lam times contiguously (H's row-block layout)."""
        return np.repeat(np.asarray(per_meter, dtype=float), self.lam)

    def fingerprint(self) -> str:
        """Stable hash of everything that determines model statistics."""
        import hashlib

        h = hashlib.sha256()
        for arr in (self.A, self.H):
            h.update(np.ascontiguousarray(arr).tobytes())
        h.update(np.array([self.sigma_v2, self.sigma_w2, self.lam]).tobytes())
        return h.hexdigest()[:16]


def _flow_row(topology: GridTopology, branch: Branch, state_index: dict) -> np.ndarray:
    """Signed DC flow row for a branch in its declared from->to orientation."""
    row = np.zeros(topology.n_states)
    b = branch.susceptance
    if branch.from_bus in state_index:
        row[state_index[branch.from_bus]] += b
    if branch.to_bus in state_index:
        row[state_index[branch.to_bus]] -= b
    return row


def build_model(
    topology: GridTopology,
    lam: int,
    sigma_v2: float,
    sigma_w2: float,
    A: "np.ndarray | str" = "identity",
) -> GridModel:
    """Assemble the state-space model for a validated topology.

    ``A`` is either the string ``"identity"`` or an explicit N x N array.
    """
    if lam < 1:
        raise ValueError(f"lam must be >= 1, got {lam}")
    if not (sigma_v2 > 0 and sigma_w2 > 0):
        raise ValueError("noise variances must be > 0")
    n = topology.n_states
    state_index = {b: i for i, b in enumerate(topology.state_buses())}
    branch_by_id = {br.branch_id: br for br in topology.branches}
    incident: dict = {}
    for br in topology.branches:
        incident.setdefault(br.from_bus, []).append((br, +1))
        incident.setdefault(br.to_bus, []).append((br, -1))

    rows = np.zeros((topology.n_meters, n))
    for k, meter in enumerate(topology.meters):
        if meter.kind == "flow":
            rows[k] = meter.direction * _flow_row(
                topology, branch_by_id[meter.target], state_index
            )
        else:
            # Injection at bus m: sum of flows leaving m over incident branches.
            for br, orientation in incident.get(meter.target, []):
                rows[k] += orientation * _flow_row(topology, br, state_index)

    if isinstance(A, str):
        if A != "identity":
            raise ValueError(f"unknown A choice {A!r}")
        A_mat = np.eye(n)
    else:
        A_mat = np.array(A, dtype=float)
        if A_mat.shape != (n, n):
            raise ValueError(f"A must be {n}x{n}, got {A_mat.shape}")

    H = np.repeat(rows, lam, axis=0)
    return GridModel(
        A=A_mat,
        H=H,
        meter_rows=rows,
        sigma_v2=float(sigma_v2),
        sigma_w2=float(sigma_w2),
        lam=int(lam),
        N=n,
        K=topology.n_meters,
    )


@dataclass
class SimState:
    """One trial's trajectory state and simulation stream; each trial owns
    one and advances it a step at a time with ``simulate_step``."""

    t: int
    x: np.ndarray
    rng: np.random.Generator


@dataclass
class MeasurementBatch:
    """One interval of measurements, addressable as values[k][i].

    ``values`` has shape (K, lam), or (B, K, lam) for B trials at the same
    interval; ``flat`` is the stacked (K*lam,) view matching H's row layout
    (per trial).
    """

    t: int
    values: np.ndarray

    @property
    def flat(self) -> np.ndarray:
        return self.values.reshape(self.values.shape[:-2] + (-1,))

    @classmethod
    def from_flat(cls, t: int, flat: np.ndarray, lam: int) -> "MeasurementBatch":
        flat = np.asarray(flat, dtype=float)
        return cls(t=t, values=flat.reshape(flat.shape[:-1] + (-1, lam)))


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for every vector along the last axis of x.

    numpy runs one BLAS matrix-vector product per vector, so each result
    has the bits of the unbatched A @ x; the matrix product x @ A.T does not.
    """
    return np.matmul(A, x[..., None])[..., 0]


def vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last axis, one BLAS dot product per leading index."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def initial_sim_state(model: GridModel, x0: Sequence[float], seed) -> SimState:
    x = np.array(x0, dtype=float)
    if x.shape != (model.N,):
        raise ValueError(f"x0 must have length {model.N}")
    return SimState(t=0, x=x, rng=np.random.default_rng(seed))


def simulate_step(model: GridModel, state: SimState) -> "tuple[SimState, MeasurementBatch]":
    """Advance one interval; consumes exactly N + K*lam Gaussian draws.

    Draw order is part of the determinism contract: state noise first, then
    measurement noise. Zero variances still consume draws so trajectories
    stay aligned across noise settings.
    """
    v = state.rng.standard_normal(model.N) * np.sqrt(model.sigma_v2)
    x_new = model.A @ state.x + v
    w = state.rng.standard_normal(model.K * model.lam) * np.sqrt(model.sigma_w2)
    y = model.H @ x_new + w
    if not np.all(np.isfinite(x_new)):
        raise FloatingPointError("state diverged; check the model configuration")
    new_state = SimState(t=state.t + 1, x=x_new, rng=state.rng)
    return new_state, MeasurementBatch.from_flat(new_state.t, y, model.lam)
