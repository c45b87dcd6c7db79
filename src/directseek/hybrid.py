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
`directseek.core`.  `equivalence_check` verifies the two routes measure
the field at identical points.  Both evaluate the field once per distinct
measured point: a re-measure that lands bitwise on the point measured two
jumps back reuses its objective value and draws fresh noise.

A run is logged as a `HybridArc`: parallel columns, one row per logged
hybrid time ``(t, j)``, sharing the loop's never-mutated states, and a
re-measure that lands bitwise on the point two jumps back shares its state
or ``x`` array.  Its views build `ArcSample` rows on demand.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from enum import Enum
from itertools import islice
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AlgorithmConfig,
    EvaluationError,
    StopRule,
    active_slot,
    check_run,
    close_cycle,
    line_end_step,
    line_travel,
    rho,
    stop_reason,
)
from .plants import PlantState

__all__ = [
    "JumpCase",
    "AutomatonError",
    "ControllerState",
    "ArcSample",
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
    unchanged arrays with its input, and a `HybridArc` holds the loop's
    states, not copies.  `copy` is a deep copy.

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
    """One row of a `HybridArc`, as its views return it.

    Jump rows carry the measured value and the jump case; the initial row
    and intra-period flow rows leave both unset.
    """

    t: float
    j: int
    plant: PlantState
    controller: ControllerState
    measured: Optional[float] = None
    case: Optional[JumpCase] = None


@dataclass
class HybridArc:
    """Closed-loop run log as parallel columns: the initial row, dense
    intra-period rows and one row per jump (``case``/``measured`` are None
    except on jump rows).  ``plant``/``controller`` hold the loop's
    never-mutated states: a jump row and the next period's intra-period rows
    share one controller state, and a jump row whose ``x`` is bitwise the
    one two jumps back holds that row's ``x`` array (its state, if ``zeta``
    matches too).  `samples` and `jump_samples` are views that
    build `ArcSample` rows on each call; the last row is ``plant[-1]``,
    ``controller[-1]``.
    """

    t: list[float] = field(default_factory=list)
    j: list[int] = field(default_factory=list)
    case: list[Optional[JumpCase]] = field(default_factory=list)
    measured: list[Optional[float]] = field(default_factory=list)
    plant: list[PlantState] = field(default_factory=list)
    controller: list[ControllerState] = field(default_factory=list)
    stopped: str = ""

    def append(self, t, j, plant, controller, measured=None, case=None) -> None:
        """Log one row."""
        self.t.append(t)
        self.j.append(j)
        self.plant.append(plant)
        self.controller.append(controller)
        self.measured.append(measured)
        self.case.append(case)

    def jump_rows(self) -> list[int]:
        """Indices of the jump rows, in order."""
        return [i for i, c in enumerate(self.case) if c is not None]

    @property
    def samples(self) -> list[ArcSample]:
        return list(map(ArcSample, self.t, self.j, self.plant, self.controller,
                        self.measured, self.case))

    def jump_samples(self) -> list[ArcSample]:
        return [s for s in self.samples if s.case is not None]

    def write_csv(self, fp) -> None:
        """Write the arc as CSV with columns
        ``t, j, case, x0..x{n-1}, f, z, phi, delta, k, q, p, m``.

        Floats are emitted with ``repr`` (the shortest round-trip form) so
        equal runs produce byte-identical files; a `JumpCase` is written as
        its value and None as an empty field, with no quoting.  Rows are
        built lazily from the columns, reusing the strings of values that
        recent rows logged, and written `CHUNK_ROWS` at a time.
        """
        n = self.plant[0].x.shape[0] if self.plant else 0
        header = ["t", "j", "case", *(f"x{i}" for i in range(n)),
                  "f", "z", "phi", "delta", "k", "q", "p", "m"]
        fp.write(",".join(header) + "\n")
        write_lines(fp, map(
            "{},{},{},{},{}\n".format,
            map(repr, map(float, self.t)),
            self.j,
            ("" if c is None else c.value for c in self.case),
            _positions(self.plant, self.case),
            _measured_tail(self.measured, self.controller),
        ))


def _positions(plant, case):
    """Yield each row's ``x0..x{n-1}`` fields.

    Over the initial row and the jump rows, a row whose ``x`` is the array
    of the one two back reuses that row's string.  Intra-period rows (no
    case, after the initial row) are formatted on their own and skip that
    memo.
    """
    x1 = x2 = None
    s1 = s2 = ""
    for xi, c in zip(plant, case):
        if c is None and x1 is not None:  # an intra-period row
            yield ",".join(map(repr, xi.x.tolist()))
            continue
        s = s2 if xi.x is x2 else ",".join(map(repr, xi.x.tolist()))
        x2, s2, x1, s1 = x1, s1, xi.x, s
        yield s


def _measured_tail(measured, controller):
    """Yield each row's ``f,z,phi,delta,k,q,p,m`` fields.

    Each float object is formatted once: a ``z``, ``phi`` or ``delta`` that
    is the previous row's object reuses its string, and a ``z`` that is the
    row's measured value reuses the ``f`` string.  Reuse goes by identity
    only, never by equality: ``0.0 == -0.0``, but their reprs differ.
    """
    z = phi = delta = None
    z_s = phi_s = delta_s = ""
    for y, xc in zip(measured, controller):
        f_s = "" if y is None else repr(float(y))
        if xc.z is not z:
            z = xc.z
            z_s = f_s if z is y else repr(float(z))
        if xc.phi is not phi:
            phi = xc.phi
            phi_s = repr(float(phi))
        if xc.delta is not delta:
            delta = xc.delta
            delta_s = repr(float(delta))
        yield f"{f_s},{z_s},{phi_s},{delta_s},{xc.k},{xc.q},{xc.p},{xc.m}"


# Rows per `write_lines` chunk, about 22 KB on a 4-D arc.  Under tracemalloc
# a 20k-row `write_csv` peaked at ~80 KB with 128 rows and ~600 KB with 1024.
CHUNK_ROWS = 128


def write_lines(fp, lines) -> None:
    """Write an iterable of newline-terminated strings to ``fp``, joined
    `CHUNK_ROWS` at a time, so at most one chunk is held in memory."""
    lines = iter(lines)
    while chunk := "".join(islice(lines, CHUNK_ROWS)):
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
    heading wrapped as at a jump).  Each row is appended to the arc's
    columns; rows share the loop's states, and ``xi0``/``xc0`` are copied
    once on entry.  A re-measure (D3, D5) whose ``x`` is bitwise the one
    logged two jumps back logs that state again, or, under a new heading,
    a state sharing its ``x`` array, and reuses that jump's objective value
    (the start is never measured, so a re-measure there calls the
    objective); noise is drawn at every jump.

    Raises `core.ConfigError` on inputs that break `core.check_run`, as
    `rsp.run` does; its budgets include ``F``, its scales the start ``phi``,
    the stored steps and the opening ``delta``, and its dimensions the stored
    and active directions, the plant's and the objective's ``dimension`` and
    the start's internal state against ``plant.zeta_dimension``.  Raises
    `ValueError` when the plant emits fewer than ``F + 1`` dense rows a
    period (`ExactPlant` emits one).  Raises `EvaluationError` when a
    measurement (objective value plus noise) is non-finite, as the walker
    does.
    """
    check_run(cfg, stop, xi0.x, xc0.dirs, xc0.deltas, phi=xc0.phi,
              active_step=xc0.delta, dimension=plant.dimension, active=xc0.v,
              zeta=xi0.zeta, zeta_dimension=plant.zeta_dimension,
              objective_dimension=objective.dimension,
              flow_samples_per_period=flow_samples_per_period)

    xi = xi0.copy()
    xc = xc0.copy()
    arc = HybridArc()
    arc.append(0.0, 0, xi, xc)
    # x bytes of the states logged one and two jumps back, the latter, and
    # their objective values (None for the start, which is not measured).
    key1, key2, back2 = xi.x.tobytes(), None, None
    f1 = f2 = None
    j = cycles = 0
    cap = stop.measurement_cap
    d5 = JumpCase.D5  # read on every jump; a local is cheaper than the class
    stopped = stop_reason(stop, 0, 0, xc.phi)

    while not stopped:
        target = (xc.p * xc.delta) * xc.v
        schedule, _predicted = plant.steer(xi, target, cfg.tau_star)
        collect: Optional[list] = [] if flow_samples_per_period > 0 else None
        last = xi
        xi = plant.integrate(xi, schedule, cfg.tau_star, collect)
        key = xi.x.tobytes()
        if key == key2:  # a re-measure landed on the point two jumps back
            xi = (back2 if xi.zeta.tobytes() == back2.zeta.tobytes()
                  else PlantState(back2.x, xi.zeta))
            f = f2
        else:
            f = None
        back2, key2, key1 = last, key1, key
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
                arc.append(j * cfg.tau_star + t_rel, j, plant.row_state(y_state),
                           xc)

        j += 1
        y = float(objective(xi.x)) if f is None else f
        f2, f1 = f1, y
        if noise is not None:
            y += float(noise.sample(j, xc.delta, xc.v))
        if not math.isfinite(y):
            raise EvaluationError(xi.x, y)
        case = classify_jump(xc, y)
        xc = jump(xc, y, cfg, case=case)
        arc.append(j * cfg.tau_star, j, xi, xc, y, case)
        if case is d5 and xc.k == 0:
            cycles += 1
        elif j != cap:
            continue
        stopped = stop_reason(stop, j, cycles, xc.phi)
    arc.stopped = stopped
    return arc


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
# ``(kind, accepted)`` describes.
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
    j-th record of the discrete route's iterate log, coordinate-wise within
    ``tol``.  Returns an `EquivalenceReport`; ``ok`` is False when the routes
    diverge or fewer than ``min_points`` measurements can be compared.
    Every report also gives ``first_case_split``.
    """
    rows = arc.jump_rows()
    hybrid_points = [arc.plant[i].x for i in rows]
    rsp_points = [r.x for r in rsp_log]
    m = min(len(hybrid_points), len(rsp_points))
    split = next((i for i, (row, r) in enumerate(zip(rows, rsp_log))
                  if arc.case[row] is not WALKER_CASES[(r.kind, r.accepted)]),
                 None)
    if m < min_points:
        return EquivalenceReport(
            ok=False, compared=m, max_abs_error=math.inf,
            detail=f"only {m} comparable measurements (need >= {min_points})",
            first_case_split=split,
        )
    max_err = 0.0
    for i in range(m):
        err = float(np.max(np.abs(hybrid_points[i] - rsp_points[i])))
        if err > tol:
            return EquivalenceReport(
                ok=False, compared=m, max_abs_error=err, first_divergence=i,
                detail=f"measurement {i}: closed-loop {hybrid_points[i].tolist()} "
                f"vs discrete {rsp_points[i].tolist()} (|err| = {err:.3e} > {tol})",
                first_case_split=split,
            )
        max_err = max(max_err, err)
    return EquivalenceReport(ok=True, compared=m, max_abs_error=max_err,
                             first_case_split=split)
