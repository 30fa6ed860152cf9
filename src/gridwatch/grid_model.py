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

import math
import operator
from dataclasses import dataclass, field
from typing import Optional

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


def finite(text: str) -> float:
    """The number ``text`` names; a ValueError unless it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("must be finite")
    return value


def positive(text: str) -> float:
    """The number ``text`` names; a ValueError unless it is finite and > 0."""
    value = finite(text)
    if not value > 0:
        raise ValueError("must be > 0")
    return value


def read_sections(path, known, error) -> dict:
    """The lines of a sectioned text file: ``{section: [(line number,
    text), ...]}`` for each ``[section]`` header present.

    The file is UTF-8; ``#`` starts a comment, and blank lines and comments
    are dropped. Section names are lower-cased and must be in ``known``.
    Undecodable bytes, an unknown or repeated section and text before the
    first header raise ``error`` naming the line.
    """
    sections: dict = {}
    lines = None
    with open(path, "rb") as fh:
        data = fh.read()
    for lineno, raw in enumerate(data.splitlines(), start=1):
        try:
            line = raw.decode("utf-8").split("#", 1)[0].strip()
        except UnicodeDecodeError:
            raise error(f"line {lineno}: not UTF-8 text") from None
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in known:
                raise error(f"line {lineno}: unknown section [{name}]")
            if name in sections:
                raise error(f"line {lineno}: duplicate section [{name}]")
            lines = sections[name] = []
        elif lines is None:
            raise error(f"line {lineno}: text before any section header")
        else:
            lines.append((lineno, line))
    return sections


def load_topology(path) -> GridTopology:
    """Parse and validate a topology file.

    Format (sectioned text, see ``read_sections``):

        [buses]
        <id> [angle] [ref]        # at most one bus carries the ref flag
        [branches]
        <id> <from> <to> <susceptance>
        [meters]
        <id> flow <branch> <+|->
        <id> injection <bus>

    Angles must be finite and susceptances finite and > 0; errors carry the
    offending line number.
    """
    sections = read_sections(path, ("buses", "branches", "meters"), TopologyError)
    buses: list = []
    angles: dict = {}
    reference: Optional[str] = None
    branches: list = []
    meters: list = []
    seen_bus, seen_branch, seen_meter = set(), set(), set()
    # (kind, target, direction) so duplicate meter definitions are caught
    # even under distinct ids.
    meter_defs = set()

    def number(rule, tok: str, what: str, lineno: int) -> float:
        try:
            return rule(tok)
        except ValueError as exc:
            raise TopologyError(f"line {lineno}: bad {what} {tok!r} ({exc})") from None

    for lineno, line in sections.get("buses", ()):
        bus, *rest = line.split()
        if bus in seen_bus:
            raise TopologyError(f"line {lineno}: duplicate bus {bus}")
        seen_bus.add(bus)
        buses.append(bus)
        for tok in rest:
            if tok.lower() != "ref":
                angles[bus] = number(finite, tok, "bus token", lineno)
            elif reference is not None:
                raise TopologyError(
                    f"line {lineno}: second reference bus {bus} (already {reference})"
                )
            else:
                reference = bus
    for lineno, line in sections.get("branches", ()):
        tokens = line.split()
        if len(tokens) != 4:
            raise TopologyError(
                f"line {lineno}: branch needs '<id> <from> <to> <susceptance>'"
            )
        bid, fbus, tbus, sus = tokens
        if bid in seen_branch:
            raise TopologyError(f"line {lineno}: duplicate branch {bid}")
        seen_branch.add(bid)
        branches.append(Branch(bid, fbus, tbus, number(positive, sus, "susceptance", lineno)))
    for lineno, line in sections.get("meters", ()):
        tokens = line.split()
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


# The most steps the trial engine simulates, attacks and hashes at once, and
# the steps of draws each stream of a batch holds (see Blocks). The
# simulation stream's block holds BLOCK_STEPS * (N + K*lam) doubles per
# trial: 32 KiB on ieee14 at lam = 5.
BLOCK_STEPS = 32


class Blocks:
    """One stream's draws for every trial of a batch, drawn ahead in blocks.

    Trial j draws from ``np.random.default_rng(seeds[j])`` (a Generator is
    used as it is), by its ``method`` ("random" or "standard_normal"), and
    a block holds BLOCK_STEPS steps of ``per_step`` draws, the most a step
    may use, so a whole block of engine steps can be read at once.
    ``values[j, pos[j]:]`` are trial j's next unused draws, in stream
    order. A trial with fewer left than a request may need keeps them,
    moved to the front of its block, and draws the rest of the block in one
    call; numpy's Generator fills any request from one sequence, so the
    values do not depend on how the stream was cut into blocks.
    """

    def __init__(self, seeds, method: str, per_step: int):
        self.rngs = [np.random.default_rng(seed) for seed in seeds]
        self.method = method
        self.per_step = per_step
        self.size = BLOCK_STEPS * per_step
        self.values: Optional[np.ndarray] = None  # allocated at the first draw
        self.pos = np.full(len(self.rngs), self.size)
        self.base = np.arange(len(self.rngs)) * self.size  # flat index of each block

    def __len__(self) -> int:
        return len(self.rngs)

    def ready(self, need: int) -> "tuple[np.ndarray, np.ndarray]":
        """(flat, start): ``flat[start[j] + i]`` is trial j's i-th next
        unused draw, for every i < ``need`` (at most a block). They stay
        unused until ``advance``."""
        if need > self.size:
            raise ValueError(f"{need} draws do not fit a block of {self.size}")
        if self.values is None:
            self.values = np.empty((len(self.rngs), self.size))
        if self.pos.max() > self.size - need:
            for j in np.flatnonzero(self.pos > self.size - need):
                kept = self.size - self.pos[j]
                self.values[j, :kept] = self.values[j, self.pos[j] :]
                getattr(self.rngs[j], self.method)(out=self.values[j, kept:])
                self.pos[j] = 0
        return self.values.reshape(-1), self.base + self.pos

    def advance(self, used) -> None:
        """Mark ``used[j]`` (or ``used``, for every trial) more draws of
        trial j as used."""
        self.pos += used

    def take(self, keep: np.ndarray) -> "Blocks":
        """The trials where the boolean mask ``keep`` is true."""
        out = Blocks([rng for rng, k in zip(self.rngs, keep) if k], self.method, self.per_step)
        out.pos = self.pos[keep]
        if self.values is not None:
            out.values = self.values[keep]
        return out


def matvec(A: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ x for every vector along the last axis of x.

    numpy runs one BLAS matrix-vector product per vector, so each result
    has the bits of the unbatched A @ x; the matrix product x @ A.T does not.
    """
    return np.matmul(A, x[..., None])[..., 0]


def vecdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over the last axis, one BLAS dot product per leading index."""
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _state_noise(model: GridModel, z: np.ndarray) -> np.ndarray:
    """The state noise v of each step's normals z: the first N of them,
    scaled (the draws of a step are state noise first, then measurement
    noise)."""
    return z[..., : model.N] * np.sqrt(model.sigma_v2)


def _measurements(model: GridModel, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """H x + w for every state along the last axis of x, in H's row layout;
    w is the last K*lam normals of the step's z, scaled."""
    return matvec(model.H, x) + z[..., model.N :] * np.sqrt(model.sigma_w2)


def _check_finite(x: np.ndarray) -> None:
    if not np.isfinite(x).all():
        raise FloatingPointError("state diverged; check the model configuration")


def _trajectory(
    model: GridModel, x: np.ndarray, z: np.ndarray, product
) -> "tuple[np.ndarray, np.ndarray]":
    """The states and measurements (in H's row layout) of the steps whose
    normals are z (..., T, N + K*lam), from the state x: each step's state
    is ``product(A, x)`` of the one before plus its state noise.
    Divergence is checked once, over all T steps."""
    V = _state_noise(model, z)
    X = np.empty_like(V)
    states = X.swapaxes(0, -2)  # a view: states[s] is step s
    for s, v in enumerate(V.swapaxes(0, -2)):
        x = states[s] = product(model.A, x) + v
    Y = _measurements(model, X, z)
    _check_finite(X)
    return X, Y


def simulate_step(
    model: GridModel, x: np.ndarray, noise: Blocks, steps: int
) -> "tuple[np.ndarray, np.ndarray]":
    """Advance the (B, N) states x of a batch of B trials ``steps``
    intervals (at most BLOCK_STEPS); return the states as a (B, steps, N)
    array and the measurements as a (B, steps, K, lam) array:
    y[j, s, k, i] is sample i of meter k in trial j at the block's step s,
    so y[j, s].reshape(-1) follows H's row layout.

    Each trial uses the next N + K*lam standard normals of its stream in
    ``noise`` per step. Draw order is part of the determinism contract:
    state noise first, then measurement noise. Zero variances still consume
    draws so trajectories stay aligned across noise settings. The block's
    normals are read from ``noise`` at once, so every step receives exactly
    the values that drawing N and then K*lam normals at that step would
    give. The state advances one A @ x per step (``matvec``) and the
    measurements take one ``matvec`` over the block, so every vector gets
    the bits of its own unbatched product. Divergence is checked once per
    block.
    """
    n = model.N + model.K * model.lam
    flat, start = noise.ready(steps * n)
    z = np.array([flat[i : i + steps * n] for i in start.tolist()]).reshape(len(x), steps, n)
    noise.advance(steps * n)
    X, Y = _trajectory(model, x, z, matvec)
    return X, Y.reshape(*Y.shape[:2], model.K, model.lam)


def simulate_block(
    model: GridModel, x: np.ndarray, rng: np.random.Generator, steps: int
) -> "tuple[np.ndarray, np.ndarray]":
    """The next ``steps`` intervals of one trajectory from state x (N,):
    its states as a (steps, N) array and its measurements as a
    (steps, K*lam) array in H's row layout.

    The block's normals come from one draw of ``rng``, in the draw order of
    ``simulate_step``, so the values equal those of a call of it on a
    one-trial batch with this stream. The state advances one A @ x per
    step (the bits ``matvec`` gives a batch, without its cost on one
    vector); the measurements take one matrix-vector product per row, which
    gives each row the bits of the unbatched H @ x.
    """
    z = rng.standard_normal((steps, model.N + model.K * model.lam))
    return _trajectory(model, x, z, operator.matmul)
