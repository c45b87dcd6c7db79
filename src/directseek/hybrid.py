"""Closed-loop realization of the direct search as a sampled-data automaton.

The controller holds its command constant between measurements: during each
period of length ``tau_star`` the plant is steered through the displacement
``p * delta * v``; at the period boundary the field is measured once and the
controller jumps.  Jumps are classified into five cases:

- ``D1`` — a positive-side probe passed the sufficient-decrease test;
- ``D2`` — a probe failed: reverse direction and schedule a re-measure;
- ``D3`` — re-measure back at the anchor after the first probe failed;
- ``D4`` — a negative-side probe passed the test;
- ``D5`` — the line minimization is over (both sides exhausted, or the
  positive run ended): re-measure at the best point and move to the next
  direction slot — or, at the end of a cycle, rebuild the direction set.

Per line minimization the label sequence is ``(D1+ D2)`` or
``(D2 D3 D4* D2)`` followed by ``D5``: the negative sweep runs only when the
very first positive probe fails (a successful positive run arrives from the
negative side already).

The line-search traversal here is written independently of `directseek.rsp`;
both routes take the run check, the stop rule, the slot map, the
determinant guard, the travel meter and the cycle-close rebuild from
`directseek.core`, and both measure through `core.Meter`, which evaluates
the field once per distinct measured point and draws fresh noise at every
measurement.  `equivalence_check` verifies the two routes measure the field
at identical points.

A run is logged as a `HybridArc`: one fixed-width record per logged hybrid
time ``(t, j)``, packed by `core.record_struct` into a byte buffer as the
loop runs and read as a numpy structured array after it, plus the final
plant and controller states.  No per-row state outlives its jump; the
arc's views build `ArcSample` rows on demand.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum
import itertools
from typing import Callable, Optional

import numpy as np

from .core import (
    AlgorithmConfig,
    Meter,
    StopRule,
    active_slot,
    check_run,
    close_cycle,
    line_end_step,
    line_travel,
    record_struct,
    rho,
    stop_reason,
)
from .plants import PlantState
from .rsp import KINDS

__all__ = [
    "JumpCase",
    "AutomatonError",
    "ControllerState",
    "ArcSample",
    "CASES",
    "row_dtype",
    "HybridArc",
    "classify_jump",
    "jump",
    "make_controller",
    "run_closed_loop",
    "EquivalenceReport",
    "WALKER_CASES",
    "equivalence_check",
]


class AutomatonError(RuntimeError):
    """A controller state outside the reachable set was asked to jump."""


class JumpCase(str, Enum):
    """Jump classification labels."""

    D1 = "D1"
    D2 = "D2"
    D3 = "D3"
    D4 = "D4"
    D5 = "D5"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(slots=True)
class ControllerState:
    """Controller memory between jumps.

    ``deltas``/``dirs`` are the stored per-slot step sizes and directions;
    ``v``/``delta`` the active direction and step; ``lam`` the signed travel
    along ``v`` in the current line minimization; ``alpha`` the cycle
    displacement accumulator and ``alpha_bar`` the scalar travel meter;
    ``p`` the probe sign, ``m`` the pending-re-measure flag, ``q`` the
    line-minimization phase counter, ``k`` the cycle slot counter, ``z`` the
    incumbent measured value, ``phi`` the frame scale.  The controller keeps
    no timer: it jumps at every period boundary, so the jump grid
    ``j * tau_star`` is its clock.

    States are treated as immutable: `jump` returns a new state sharing the
    unchanged arrays with its input.  A `HybridArc` holds no loop state
    past its jump: it keeps packed records plus copies of the last states,
    ``final_plant`` and ``final_controller``.  `copy` is a deep copy.

    The class is slot-only, so a state has no instance dict.  The
    constructor, `make_controller` and `copy` convert ``alpha``, ``v`` and
    ``dirs`` to float64 arrays and ``deltas`` to floats; the jump maps clone
    a state with `_next`, which assigns every field and skips that
    conversion.
    """

    phi: float
    z: float
    lam: float
    alpha: np.ndarray
    alpha_bar: float
    p: int
    m: int
    q: int
    k: int
    v: np.ndarray
    delta: float
    dirs: list[np.ndarray]
    deltas: list[float]

    def __post_init__(self) -> None:
        self.alpha = np.asarray(self.alpha, dtype=float)
        self.v = np.asarray(self.v, dtype=float)
        self.dirs = [np.asarray(d, dtype=float) for d in self.dirs]
        self.deltas = [float(s) for s in self.deltas]

    @property
    def dimension(self) -> int:
        return len(self.dirs)

    def copy(self) -> "ControllerState":
        return replace(self, alpha=self.alpha.copy(), v=self.v.copy(),
                       dirs=[d.copy() for d in self.dirs],
                       deltas=list(self.deltas))


def make_controller(
    dirs: Sequence[np.ndarray],
    deltas: Sequence[float],
    phi: float,
    v=None,
    delta: Optional[float] = None,
    z: float = 0.0,
) -> ControllerState:
    """Fresh-cycle controller state (counter 0, positive probe pending).

    The active direction/step default to the newest slot; published runs
    override them to start on the oldest direction instead.
    """
    dirs = [np.asarray(d, dtype=float) for d in dirs]
    n = len(dirs)
    v = dirs[n - 1].copy() if v is None else np.asarray(v, dtype=float)
    delta = float(deltas[n - 1]) if delta is None else float(delta)
    return ControllerState(
        phi=float(phi),
        z=float(z),
        lam=0.0,
        alpha=np.zeros(n),
        alpha_bar=0.0,
        p=1,
        m=0,
        q=0,
        k=0,
        v=v,
        delta=delta,
        dirs=[d.copy() for d in dirs],
        deltas=[float(s) for s in deltas],
    )


def classify_jump(xc: ControllerState, y: float) -> JumpCase:
    """Classify the jump triggered by measurement ``y``.

    Total over reachable controller states; raises `AutomatonError` for
    state combinations the automaton cannot reach (corrupted state).
    Acceptance ties (``y == z - rho(delta)``) accept.
    """
    if xc.q == 2:
        return JumpCase.D5
    if xc.m == 1:
        if xc.p == -1 and xc.q == 1:
            return JumpCase.D3
        raise AutomatonError(
            f"re-measure flag set with p={xc.p}, q={xc.q}: unreachable state"
        )
    if xc.q not in (0, 1):
        raise AutomatonError(f"phase counter q={xc.q}: unreachable state")
    if y <= xc.z - rho(xc.delta):
        if xc.p == 1:
            return JumpCase.D1
        if xc.q == 1:
            return JumpCase.D4
        raise AutomatonError(
            f"negative probe with q={xc.q}: unreachable state"
        )
    return JumpCase.D2


def _next(xc: ControllerState) -> ControllerState:
    """Shallow clone for a jump map to overwrite: a fresh ``deltas`` list,
    every array shared with ``xc`` (no code mutates one in place).

    Assigns each field of `ControllerState` in turn, which is faster than a
    loop over `dataclasses.fields`; a test checks that every field is copied.
    """
    new = object.__new__(ControllerState)
    new.phi = xc.phi
    new.z = xc.z
    new.lam = xc.lam
    new.alpha = xc.alpha
    new.alpha_bar = xc.alpha_bar
    new.p = xc.p
    new.m = xc.m
    new.q = xc.q
    new.k = xc.k
    new.v = xc.v
    new.delta = xc.delta
    new.dirs = xc.dirs
    new.deltas = list(xc.deltas)
    return new


def _accept(xc: ControllerState, y: float, cfg: AlgorithmConfig) -> ControllerState:
    """Accept on either side (D1, D4): bank the step, expand, enter phase 1
    (a negative-side accept is already in it)."""
    new = _next(xc)
    a = active_slot(xc.k, xc.dimension)
    new.z = y
    new.q = 1
    new.lam = xc.lam + xc.delta * xc.p
    new.delta = min(cfg.gamma * xc.delta, cfg.lambda_t * xc.phi)
    new.deltas[a] = min(cfg.gamma * xc.deltas[a], cfg.lambda_t * xc.phi)
    return new


def _g2(xc: ControllerState, y: float, cfg: AlgorithmConfig) -> ControllerState:
    """Probe failed: flip the probe sign and schedule a re-measure."""
    new = _next(xc)
    new.p = -xc.p
    new.m = 1
    new.q = xc.q + 1
    return new


def _g3(xc: ControllerState, y: float, cfg: AlgorithmConfig) -> ControllerState:
    """Back at the anchor: re-anchor the incumbent and resume probing."""
    new = _next(xc)
    new.z = y
    new.m = 0
    new.lam = 0.0
    return new


def _g5(xc: ControllerState, y: float, cfg: AlgorithmConfig) -> ControllerState:
    """Line minimization over: bank bookkeeping and arm the next slot.

    All right-hand sides read the pre-jump state.  Counter ``k < n`` applies
    the end-of-line step rule to the walked slot and hands the walk to stored
    slot ``k`` with its stored (possibly just contracted) step; counter ``n``
    closes the cycle with `core.close_cycle`.
    """
    n = xc.dimension
    c = xc.k
    new = _next(xc)
    new.z = y
    new.lam = 0.0
    new.p = 1
    new.m = 0
    new.q = 0

    if c < n:
        a = active_slot(c, n)
        new.deltas[a] = line_end_step(xc.lam, xc.deltas[a], xc.phi, cfg)
        new.alpha = xc.alpha + xc.lam * xc.v
        new.alpha_bar = xc.alpha_bar + line_travel(xc.lam, xc.v)
        new.k = c + 1
        new.v = xc.dirs[c]
        new.delta = new.deltas[c]
        return new

    new.dirs, new.deltas, new.phi, _blocked = close_cycle(
        xc.dirs, xc.deltas, xc.phi, xc.alpha, xc.alpha_bar, xc.lam, xc.v, cfg
    )
    new.v = new.dirs[-1]
    new.delta = new.deltas[-1]
    new.alpha = np.zeros(n)
    new.alpha_bar = 0.0
    new.k = 0
    return new


_JUMP_MAPS: dict[JumpCase, Callable] = {
    JumpCase.D1: _accept,
    JumpCase.D2: _g2,
    JumpCase.D3: _g3,
    JumpCase.D4: _accept,
    JumpCase.D5: _g5,
}


def jump(
    xc: ControllerState,
    y: float,
    cfg: AlgorithmConfig,
    case: Optional[JumpCase] = None,
) -> ControllerState:
    """Apply the jump triggered by measurement ``y`` and return the new state.

    ``case`` may be supplied if the caller already classified the jump.
    """
    if case is None:
        case = classify_jump(xc, y)
    return _JUMP_MAPS[case](xc, y, cfg)


@dataclass(slots=True)
class ArcSample:
    """One row of a `HybridArc`, as its views build it.

    Jump rows carry the measured value and the jump case; the initial row
    and intra-period flow rows leave both unset.
    """

    t: float
    j: int
    plant: PlantState
    measured: Optional[float] = None
    case: Optional[JumpCase] = None


# The jump case of each code of the arc's ``case`` column; code 0 marks the
# initial row and the intra-period rows.
CASES: tuple[Optional[JumpCase], ...] = (None, *JumpCase)
_CODES = {c: i for i, c in enumerate(CASES) if c is not None}


def row_dtype(n: int, nz: int) -> np.dtype:
    """The record of one arc row for an ``n``-D position and an
    ``nz``-element internal state: packed, in native byte order, as
    `core.record_struct` packs it."""
    return np.dtype([
        ("t", "f8"), ("j", "i8"), ("case", "i1"),
        ("x", "f8", (n,)), ("zeta", "f8", (nz,)),
        ("f", "f8"), ("z", "f8"), ("phi", "f8"), ("delta", "f8"),
        ("k", "i4"), ("q", "i1"), ("p", "i1"), ("m", "i1"), ("v", "i4"),
    ])


class _Samples(Sequence):
    """`ArcSample` rows of an arc at the given row indices, each built on
    access; a slice is another such view."""

    __slots__ = ("_arc", "_index")

    def __init__(self, arc: "HybridArc", index) -> None:
        self._arc = arc
        self._index = index

    def __len__(self) -> int:
        return len(self._index)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return _Samples(self._arc, self._index[i])
        row = self._arc.rows[self._index[i]]
        code = int(row["case"])
        return ArcSample(
            float(row["t"]), int(row["j"]),
            PlantState(row["x"].copy(), row["zeta"].copy()),
            None if code == 0 else float(row["f"]), CASES[code],
        )


@dataclass
class HybridArc:
    """Closed-loop run log: one `row_dtype` record per logged hybrid time
    ``(t, j)``, for the initial row, the dense intra-period rows and one row
    per jump, plus the final plant and controller states.

    ``rows`` holds ``t``, ``j``, ``case`` (a code into `CASES`), the plant's
    ``x`` and ``zeta``, the measured value ``f`` (NaN off the jump rows) and
    the post-jump controller's ``z``, ``phi``, ``delta``, ``k``, ``q``,
    ``p``, ``m``, with ``v`` the row of ``directions`` (one row per distinct
    direction) that holds its active direction; an intra-period row repeats
    the controller fields of the row before it.  `samples` and `jump_samples` are views that build an
    `ArcSample` per row on access.
    """

    rows: np.ndarray = field(default_factory=lambda: np.empty(0, row_dtype(0, 0)))
    directions: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    final_plant: Optional[PlantState] = None
    final_controller: Optional[ControllerState] = None
    stopped: str = ""

    def jump_rows(self) -> np.ndarray:
        """Indices of the jump rows, in order."""
        return np.flatnonzero(self.rows["case"])

    @property
    def samples(self) -> Sequence[ArcSample]:
        return _Samples(self, range(len(self.rows)))

    def jump_samples(self) -> Sequence[ArcSample]:
        return _Samples(self, self.jump_rows())

    def write_csv(self, fp) -> None:
        """Write the arc as CSV with columns
        ``t, j, case, x0..x{n-1}, f, z, phi, delta, k, q, p, m``.

        Floats are emitted with ``repr`` (the shortest round-trip form) so
        equal runs produce byte-identical files; the case is written as its
        label and, off the jump rows, ``case`` and ``f`` are empty, with no
        quoting.  Rows are formatted `CHUNK_ROWS` records at a time and
        written as they are made.
        """
        n = self.rows.dtype["x"].shape[0]
        header = ["t", "j", "case", *(f"x{i}" for i in range(n)),
                  "f", "z", "phi", "delta", "k", "q", "p", "m"]
        fp.write(",".join(header) + "\n")
        write_lines(fp, _csv_lines(self.rows))


_CASE_TEXT = tuple("" if c is None else c.value for c in CASES)
_CSV_FIELDS = ("t", "j", "case", "x", "f", "z", "phi", "delta", "k", "q", "p", "m")


def _repeats(bits: np.ndarray, back: int, every: int = 1) -> np.ndarray:
    """Whether each row's bits equal those of the row ``back`` rows before
    it, checked at every ``every``-th row from the first (False elsewhere
    and for the first ``back`` rows)."""
    same = np.zeros(len(bits), dtype=bool)
    equal = bits[back::every] == bits[:-back:every]
    same[back::every] = equal.all(axis=1) if equal.ndim == 2 else equal
    return same


def _jump_period(rows: np.ndarray) -> int:
    """The rows from one jump row to the next, one more than the dense rows
    per period: the initial row and the jump rows are every
    ``_jump_period``-th row (1 for an arc with no jump)."""
    jumps = int(rows["j"][-1]) if len(rows) else 0
    return (len(rows) - 1) // jumps if jumps else 1


def _reuse_masks(rows: np.ndarray, period: int) -> tuple[np.ndarray, ...]:
    """The rows of ``rows`` whose ``x``, ``z``, ``phi`` and ``delta`` reuse
    a string already formatted, and those whose ``z`` reuses the row's
    ``f`` string (see `_csv_lines`); ``x`` is compared at every
    ``period``-th row with the row two periods back."""
    def bits(name):
        return rows[name].view(np.int64)

    return (_repeats(bits("x"), 2 * period, period),
            *(_repeats(bits(name), 1) for name in ("z", "phi", "delta")),
            (bits("z") == bits("f")) & (rows["case"] != 0))


def _csv_lines(rows: np.ndarray):
    """Yield the CSV line of each record of ``rows``, reading `CHUNK_ROWS`
    records at a time.

    A value whose bits equal those of one already formatted reuses its
    string: the ``x`` of a jump row when it is the ``x`` two jumps back (a
    re-measure), ``z``, ``phi`` and ``delta`` when they are the row
    before's, and ``z`` when it is the row's ``f``.  Equal bits have equal
    reprs, so ``-0.0`` keeps its sign.  The ``x`` strings of the initial row
    and the jump rows are kept for that reuse; a dense row's are not.
    """
    period = _jump_period(rows)
    reuse = _reuse_masks(rows, period)
    # Whether each row, in turn, is the initial row or a jump row.
    keep_x = itertools.cycle((True, *(False,) * (period - 1)))
    x1 = x2 = z_s = phi_s = delta_s = ""
    for a in range(0, len(rows), CHUNK_ROWS):
        block = slice(a, a + CHUNK_ROWS)
        for (t, j, c, x, f, z, phi, delta, k, q, p, m,
             rx, rz, rphi, rdelta, zf, kx) in zip(
                *(rows[name][block].tolist() for name in _CSV_FIELDS),
                *(mask[block].tolist() for mask in reuse), keep_x):
            f_s = repr(f) if c else ""
            x_s = x2 if rx else ",".join(map(repr, x))
            if kx:
                x2, x1 = x1, x_s
            if not rz:
                z_s = f_s if zf else repr(z)
            if not rphi:
                phi_s = repr(phi)
            if not rdelta:
                delta_s = repr(delta)
            yield (f"{t!r},{j},{_CASE_TEXT[c]},{x_s},{f_s},{z_s},{phi_s},"
                   f"{delta_s},{k},{q},{p},{m}\n")


# Rows per `write_lines` chunk, about 22 KB on a 4-D arc.  Under tracemalloc
# a 20k-row `write_csv` peaked at ~240 KB with 128 rows (most of it the reuse
# masks) and ~1.2 MB with 1024.
CHUNK_ROWS = 128


def write_lines(fp, lines) -> None:
    """Write an iterable of newline-terminated strings to ``fp``, joined
    `CHUNK_ROWS` at a time, so at most one chunk is held in memory."""
    lines = iter(lines)
    while chunk := "".join(itertools.islice(lines, CHUNK_ROWS)):
        fp.write(chunk)


def run_closed_loop(
    plant,
    objective,
    xi0: PlantState,
    xc0: ControllerState,
    cfg: AlgorithmConfig,
    stop: StopRule,
    noise=None,
    flow_samples_per_period: int = 0,
) -> HybridArc:
    """Drive the plant/controller loop until the stop rule fires.

    Each period: steer the plant through ``p * delta * v``, integrate its
    dynamics for exactly ``tau_star``, measure the field once at the period
    boundary (plus noise), classify and apply the jump.  Jump times are exact
    multiples of the period.  One measurement is one jump, so the loop makes
    at most ``stop.measurement_cap`` jumps, and it counts a cycle at each
    cycle-closing D5.  It checks `core.stop_reason` before the first jump,
    after each cycle close (the only jumps that move ``phi``) and at the
    cap, and the arc's ``stopped`` names the stop, as the walker's does.
    ``flow_samples_per_period = F > 0`` also logs
    the plant's dense rows ``i * (rows // (F + 1)) - 1``, ``i = 1..F``: with
    evenly spaced rows (point mass) at ``(j + i / (F + 1)) * tau_star`` in
    period ``j``, each as the plant's ``row_state`` of it (the Dubins
    heading wrapped as at a jump).  Each row is packed as one `row_dtype`
    record, and ``xi0``/``xc0`` are copied once on entry.  Each jump
    measures through one `core.Meter`, whose count is ``j``, so a re-measure
    (D3, D5) at the point measured two jumps back reuses its objective value
    and a non-finite measurement raises `EvaluationError`, as on the walker.

    Raises `core.ConfigError` on inputs that break `core.check_run`, as
    `rsp.run` does; its budgets include ``F``, its scales the start ``phi``,
    the stored steps and the opening ``delta``, and its dimensions the stored
    and active directions, the plant's and the objective's ``dimension`` and
    the start's internal state against ``plant.zeta_dimension``.  Raises
    `ValueError` when the plant emits fewer than ``F + 1`` dense rows a
    period (`ExactPlant` emits one).
    """
    check_run(cfg, stop, xi0.x, xc0.dirs, xc0.deltas, phi=xc0.phi,
              active_step=xc0.delta, dimension=plant.dimension, active=xc0.v,
              zeta=xi0.zeta, zeta_dimension=plant.zeta_dimension,
              objective_dimension=objective.dimension,
              flow_samples_per_period=flow_samples_per_period)

    xi = xi0.copy()
    xc = xc0.copy()
    n, nz = xi.x.shape[0], xi.zeta.shape[0]
    pack = record_struct(row_dtype(n, nz)).pack
    meter = Meter(objective, noise)
    # The active direction and its row in ``directions``, which holds each
    # distinct direction once, keyed by its bytes in insertion order.
    v, vi = xc.v, 0
    directions = {v.tobytes(): vi}
    buf = bytearray(pack(0.0, 0, 0, xi.x.tobytes(), xi.zeta.tobytes(), math.nan,
                         xc.z, xc.phi, xc.delta, xc.k, xc.q, xc.p, xc.m, vi))
    j = cycles = 0
    cap = stop.measurement_cap
    d5 = JumpCase.D5  # read on every jump; a local is cheaper than the class
    stopped = stop_reason(stop, 0, 0, xc.phi)

    while not stopped:
        target = (xc.p * xc.delta) * xc.v
        schedule, _predicted = plant.steer(xi, target, cfg.tau_star)
        collect: Optional[list] = [] if flow_samples_per_period > 0 else None
        xi = plant.integrate(xi, schedule, cfg.tau_star, collect)
        if collect is not None:
            stride = len(collect) // (flow_samples_per_period + 1)
            if stride == 0:
                raise ValueError(
                    f"plant emitted {len(collect)} dense rows in a period; "
                    f"flow_samples_per_period={flow_samples_per_period} needs "
                    f"at least {flow_samples_per_period + 1}"
                )
            for i in range(1, flow_samples_per_period + 1):
                t_rel, y_state = collect[i * stride - 1]
                row = plant.row_state(y_state)
                buf += pack(j * cfg.tau_star + t_rel, j, 0, row.x.tobytes(),
                            row.zeta.tobytes(), math.nan, xc.z, xc.phi,
                            xc.delta, xc.k, xc.q, xc.p, xc.m, vi)

        y = meter.measure(xi.x, xc.delta, xc.v)
        j = meter.count
        case = classify_jump(xc, y)
        xc = jump(xc, y, cfg, case=case)
        if xc.v is not v:
            v = xc.v
            vi = directions.setdefault(v.tobytes(), len(directions))
        buf += pack(j * cfg.tau_star, j, _CODES[case], meter.key1, xi.zeta.tobytes(),
                    y, xc.z, xc.phi, xc.delta, xc.k, xc.q, xc.p, xc.m, vi)
        if case is d5 and xc.k == 0:
            cycles += 1
        elif j != cap:
            continue
        stopped = stop_reason(stop, j, cycles, xc.phi)
    return HybridArc(
        rows=np.frombuffer(buf, row_dtype(n, nz)),
        directions=np.frombuffer(b"".join(directions)).reshape(-1, n),
        final_plant=xi,
        final_controller=xc,
        stopped=stopped,
    )


@dataclass
class EquivalenceReport:
    """Outcome of comparing the two routes probe-for-probe.

    ``ok``, ``first_divergence`` and ``detail`` judge positions only.
    ``first_case_split`` is the index of the first compared measurement
    whose jump case differs from the walker record's (`WALKER_CASES`), or
    None.  The routes can split on acceptance ties once steps reach about
    1e-13 while their positions still agree.
    """

    ok: bool
    compared: int
    max_abs_error: float
    first_divergence: Optional[int] = None
    detail: str = ""
    first_case_split: Optional[int] = None


# The jump case the controller takes for the measurement a walker log record
# ``(kind, accepted)`` describes (``kind`` is one of `rsp.KINDS`).
WALKER_CASES: dict[tuple[str, bool], JumpCase] = {
    ("probe_pos", True): JumpCase.D1,
    ("probe_pos", False): JumpCase.D2,
    ("probe_neg", False): JumpCase.D2,
    ("reanchor", False): JumpCase.D3,
    ("probe_neg", True): JumpCase.D4,
    ("close", False): JumpCase.D5,
}


def equivalence_check(
    arc: HybridArc,
    rsp_log,
    tol: float = 1e-9,
    min_points: int = 1,
) -> EquivalenceReport:
    """Compare closed-loop measurement positions against the discrete log.

    The j-th jump of the arc must measure the field at the same point as the
    j-th record of the discrete route's iterate log (an `rsp.IterateLog`),
    coordinate-wise within ``tol``.  Returns an `EquivalenceReport`; ``ok``
    is False when the routes diverge or fewer than ``min_points``
    measurements can be compared.  Every report also gives
    ``first_case_split``.  Positions and cases are compared column against
    column, in one vectorised pass each: the walker's points are rebuilt by
    `rsp.IterateLog.points` for the compared prefix only, from its derived
    anchors, and no `EvalRecord` is built.
    """
    rows = arc.jump_rows()
    log = rsp_log.rows
    m = min(len(rows), len(log))
    # The case code of each (kind code, accepted) pair of `WALKER_CASES`;
    # -1 for a pair no walker record takes.
    walker_codes = np.full((len(KINDS), 2), -1, dtype=np.int8)
    for (kind, accepted), case in WALKER_CASES.items():
        walker_codes[KINDS.index(kind), int(accepted)] = _CODES[case]
    splits = np.flatnonzero(
        arc.rows["case"][rows[:m]]
        != walker_codes[log["kind"][:m], log["accepted"][:m].astype(np.intp)])
    split = int(splits[0]) if len(splits) else None
    if m < min_points:
        return EquivalenceReport(
            ok=False, compared=m, max_abs_error=math.inf,
            detail=f"only {m} comparable measurements (need >= {min_points})",
            first_case_split=split,
        )
    hybrid_points = arc.rows["x"][rows[:m]]
    rsp_points = rsp_log.points(m)
    errors = np.abs(hybrid_points - rsp_points).max(axis=1, initial=0.0)
    diverged = np.flatnonzero(errors > tol)
    if len(diverged):
        i = int(diverged[0])
        err = float(errors[i])
        return EquivalenceReport(
            ok=False, compared=m, max_abs_error=err, first_divergence=i,
            detail=f"measurement {i}: closed-loop {hybrid_points[i].tolist()} "
            f"vs discrete {rsp_points[i].tolist()} (|err| = {err:.3e} > {tol})",
            first_case_split=split,
        )
    max_err = float(errors.max(initial=0.0))
    return EquivalenceReport(ok=True, compared=m, max_abs_error=max_err,
                             first_case_split=split)
