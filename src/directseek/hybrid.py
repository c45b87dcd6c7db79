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
both routes take the slot map, the determinant guard and the cycle-close
rebuild from `directseek.core`.  `equivalence_check` verifies the two routes
measure the field at identical points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AlgorithmConfig,
    ConfigError,
    EvaluationError,
    StopRule,
    active_slot,
    check_robust_start,
    close_cycle,
    line_end_step,
    phi_update,
    rho,
    validate_config,
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
    "phi_update",
    "make_controller",
    "run_closed_loop",
    "EquivalenceReport",
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


@dataclass
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
    unchanged arrays with its input, and `ArcSample`s hold the loop's states,
    not copies.  `copy` is a deep copy.
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
        return ControllerState(
            phi=self.phi,
            z=self.z,
            lam=self.lam,
            alpha=self.alpha.copy(),
            alpha_bar=self.alpha_bar,
            p=self.p,
            m=self.m,
            q=self.q,
            k=self.k,
            v=self.v.copy(),
            delta=self.delta,
            dirs=[d.copy() for d in self.dirs],
            deltas=list(self.deltas),
        )


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
    every array shared with ``xc`` (no code mutates one in place)."""
    new = object.__new__(ControllerState)
    new.__dict__.update(xc.__dict__)
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
        new.alpha_bar = xc.alpha_bar + abs(xc.lam) * float(np.linalg.norm(xc.v))
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


@dataclass
class ArcSample:
    """One logged point of the closed-loop trajectory.

    Jump rows carry the measured value and the jump case; the initial row
    and intra-period flow rows leave both unset.  ``plant``/``controller``
    are the loop's (never mutated) states, not copies: a jump row and the
    next period's intra-period rows share one controller state.
    """

    t: float
    j: int
    plant: PlantState
    controller: ControllerState
    measured: Optional[float] = None
    case: Optional[JumpCase] = None


@dataclass
class HybridArc:
    """Closed-loop run log: the initial row, dense intra-period rows and one
    row per jump (`jump_samples`)."""

    samples: list[ArcSample] = field(default_factory=list)
    stopped: str = ""

    def jump_samples(self) -> list[ArcSample]:
        return [s for s in self.samples if s.case is not None]

    def final_sample(self) -> ArcSample:
        return self.samples[-1]

    def write_csv(self, fp) -> None:
        """Write the arc as CSV with columns
        ``t, j, case, x0..x{n-1}, f, z, phi, delta, k, q, p, m``.

        Floats are emitted with ``repr`` (shortest round-trip form, which is
        how the csv module formats a Python float) so equal runs produce
        byte-identical files.
        """
        import csv

        n = self.samples[0].plant.x.shape[0] if self.samples else 0
        writer = csv.writer(fp, lineterminator="\n")
        writer.writerow(
            ["t", "j", "case"]
            + [f"x{i}" for i in range(n)]
            + ["f", "z", "phi", "delta", "k", "q", "p", "m"]
        )
        writer.writerows(
            [float(s.t), s.j, s.case.value if s.case else "", *s.plant.x.tolist(),
             "" if s.measured is None else float(s.measured),
             float(xc.z), float(xc.phi), float(xc.delta), xc.k, xc.q, xc.p, xc.m]
            for s in self.samples
            for xc in (s.controller,)
        )


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
    multiples of the period.  ``flow_samples_per_period = F > 0`` also logs
    the plant's dense rows ``i * (rows // (F + 1)) - 1``, ``i = 1..F``: with
    evenly spaced rows (point mass) at ``(j + i / (F + 1)) * tau_star`` in
    period ``j``.  Samples share the loop's states; ``xi0``/``xc0`` are
    copied once on entry.

    Raises `ConfigError` on invalid configuration; robust mode
    (``phi_min > 0``) additionally requires the initial direction set to
    clear the determinant safeguard.  Raises `ValueError` when the plant
    emits fewer than ``F + 1`` dense rows a period (`ExactPlant` emits one).
    Raises `EvaluationError` when the objective returns a non-finite value,
    as the walker does.
    """
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    if (
        stop.max_jumps is None
        and stop.max_evaluations is None
        and stop.phi_threshold is None
    ):
        raise ValueError("stop rule has no limits set; the run would never end")
    check_robust_start(xc0.dirs, cfg)

    xi = xi0.copy()
    xc = xc0.copy()
    arc = HybridArc()
    arc.samples.append(ArcSample(t=0.0, j=0, plant=xi, controller=xc))
    j = 0
    max_jumps = stop.max_jumps
    if stop.max_evaluations is not None:
        max_jumps = (
            stop.max_evaluations
            if max_jumps is None
            else min(max_jumps, stop.max_evaluations)
        )

    while True:
        if max_jumps is not None and j >= max_jumps:
            arc.stopped = "max_jumps"
            break
        if stop.phi_threshold is not None and xc.phi < stop.phi_threshold:
            arc.stopped = "phi_threshold"
            break

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
                arc.samples.append(
                    ArcSample(
                        t=j * cfg.tau_star + t_rel,
                        j=j,
                        plant=PlantState(np.array(y_state[: xi.x.shape[0]])),
                        controller=xc,
                    )
                )

        j += 1
        y = float(objective(xi.x))
        if not math.isfinite(y):
            raise EvaluationError(xi.x, y)
        if noise is not None:
            y += float(noise.sample(j, xc.delta, xc.v))
        case = classify_jump(xc, y)
        xc = jump(xc, y, cfg, case=case)
        arc.samples.append(
            ArcSample(
                t=j * cfg.tau_star,
                j=j,
                plant=xi,
                controller=xc,
                measured=y,
                case=case,
            )
        )
    return arc


@dataclass
class EquivalenceReport:
    """Outcome of comparing the two routes probe-for-probe."""

    ok: bool
    compared: int
    max_abs_error: float
    first_divergence: Optional[int] = None
    detail: str = ""


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
    """
    hybrid_points = [s.plant.x for s in arc.jump_samples()]
    rsp_points = [r.x for r in rsp_log]
    m = min(len(hybrid_points), len(rsp_points))
    if m < min_points:
        return EquivalenceReport(
            ok=False,
            compared=m,
            max_abs_error=math.inf,
            first_divergence=None,
            detail=f"only {m} comparable measurements (need >= {min_points})",
        )
    max_err = 0.0
    for i in range(m):
        err = float(np.max(np.abs(hybrid_points[i] - rsp_points[i])))
        if err > tol:
            return EquivalenceReport(
                ok=False,
                compared=m,
                max_abs_error=err,
                first_divergence=i,
                detail=(
                    f"measurement {i}: closed-loop {hybrid_points[i].tolist()} vs "
                    f"discrete {rsp_points[i].tolist()} (|err| = {err:.3e} > {tol})"
                ),
            )
        max_err = max(max_err, err)
    return EquivalenceReport(ok=True, compared=m, max_abs_error=max_err)
