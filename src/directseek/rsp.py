"""Discrete conjugate-direction direct search with adaptive step control.

This is the sequential (non-closed-loop) realization of the search: a walker
that probes the objective along one direction at a time with a
sufficient-decrease acceptance test, expands steps on success, contracts them
on failure, and rebuilds its direction set once per cycle from the
parallel-subspace displacement.  `run` is its one entry point.  Every
objective measurement is logged so the closed-loop realization in
`directseek.hybrid` can be checked against this route probe-for-probe.
The field is evaluated once per distinct measured point: a re-measure that
lands bitwise on the point measured two before reuses its objective value
and draws fresh noise.

A cycle over ``n`` directions runs ``n + 1`` line minimizations: the newest
direction is explored first AND last, and the total displacement accumulated
over the cycle becomes the candidate that replaces the oldest direction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import (
    AlgorithmConfig,
    DirectionSet,
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

__all__ = [
    "StopRule",
    "EvalRecord",
    "EvaluationError",
    "RspState",
    "run",
    "active_slot",
]


@dataclass(slots=True)
class EvalRecord:
    """One objective measurement.

    ``kind`` is one of ``probe_pos`` / ``probe_neg`` (trial points),
    ``reanchor`` (re-measure at the anchor after the first positive probe
    fails), ``close`` (re-measure at the best point that ends a line
    minimization).  ``accepted`` marks probes that passed the
    sufficient-decrease test; ``anchor`` is the best point at the time of the
    measurement; ``index`` is the 1-based global measurement counter.

    ``x`` is the very array the objective was called with, and every record
    of one line minimization shares its ``anchor`` array.  Both are shared
    with the walker and must be treated as read-only.
    """

    index: int
    cycle: int
    slot: int
    step: int
    x: np.ndarray
    measured: float
    kind: str
    accepted: bool
    anchor: np.ndarray
    delta: float


@dataclass
class RspState:
    """Walker state between line minimizations / cycles."""

    x: np.ndarray
    directions: DirectionSet
    phi: float
    z: float
    k: int = 0
    alpha: np.ndarray = None  # type: ignore[assignment]
    alpha_bar: float = 0.0
    cycles: int = 0
    evaluations: int = 0
    blocked_cycles: int = 0
    stopped: str = ""
    iterate_log: list[EvalRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if self.alpha is None:
            self.alpha = np.zeros_like(self.x)

    @property
    def dimension(self) -> int:
        return self.directions.dimension


class _BudgetExhausted(Exception):
    """Internal: the measurement cap was reached mid-stride."""


class _Meter:
    """Counts objective measurements, applies noise, enforces the cap.

    Keeps the field value of the last two measurements under the measured
    point's ``x.tobytes()``.  A measurement whose bytes equal those of the
    measurement two before (a re-measure at the anchor or the best point)
    reuses that value and does not call the objective; noise is still drawn
    at every measurement.  The start is never measured, so it has no slot.
    """

    def __init__(self, objective, noise=None, cap: Optional[int] = None):
        self.objective = objective
        self.noise = noise
        self.cap = cap
        self.count = 0
        self.key1 = self.key2 = None
        self.f1 = self.f2 = 0.0

    def measure(self, x: np.ndarray, delta: float, direction: np.ndarray) -> float:
        if self.cap is not None and self.count >= self.cap:
            raise _BudgetExhausted
        self.count += 1
        key = x.tobytes()
        y = self.f2 if key == self.key2 else float(self.objective(x))
        self.key2, self.f2, self.key1, self.f1 = self.key1, self.f1, key, y
        if self.noise is not None:
            y += float(self.noise.sample(self.count, delta, direction))
        if not math.isfinite(y):
            raise EvaluationError(x, y)
        return y


def _line_minimize(
    meter: _Meter,
    anchor: np.ndarray,
    v: np.ndarray,
    delta: float,
    z: float,
    phi: float,
    cfg: AlgorithmConfig,
    log: list[EvalRecord],
    cycle: int,
    slot: int,
) -> tuple[float, float, float, np.ndarray]:
    """Walk one direction with expanding steps and sufficient decrease.

    Probes the positive side first; only if the very first probe fails does
    the walker re-measure the anchor and sweep the negative side.  Every trial
    point is computed from the anchor as ``anchor + lam * v`` (never
    incrementally), so rejected probes cannot perturb the iterate.  Each log
    record holds the array that was measured and shares ``anchor``; no array
    is modified after it is built.

    Returns ``(lam, delta_final, close_value, best_point)`` where
    ``close_value`` is the re-measurement at the best point that ends the
    line minimization.
    """

    def emit(
        x: np.ndarray,
        y: float,
        kind: str,
        accepted: bool,
        step: int,
        delta_used: float,
    ) -> None:
        log.append(
            EvalRecord(
                meter.count, cycle, slot, step, x, y, kind, accepted, anchor,
                delta_used,
            )
        )

    lam = 0.0
    accepted = 0

    # Positive sweep.
    while True:
        delta_used = delta
        probe = anchor + (lam + delta) * v
        y = meter.measure(probe, delta, v)
        if y <= z - rho(delta):
            lam += delta
            z = y
            delta = min(cfg.gamma * delta, cfg.lambda_t * phi)
            accepted += 1
            emit(probe, y, "probe_pos", True, accepted, delta_used)
            continue
        emit(probe, y, "probe_pos", False, accepted, delta_used)
        break

    if accepted == 0:
        # First probe failed: re-anchor, then sweep the negative side.
        y = meter.measure(anchor, delta, v)
        z = y
        emit(anchor, y, "reanchor", False, 0, delta)
        while True:
            delta_used = delta
            probe = anchor + (lam - delta) * v
            y = meter.measure(probe, delta, v)
            if y <= z - rho(delta):
                lam -= delta
                z = y
                delta = min(cfg.gamma * delta, cfg.lambda_t * phi)
                accepted += 1
                emit(probe, y, "probe_neg", True, accepted, delta_used)
                continue
            emit(probe, y, "probe_neg", False, accepted, delta_used)
            break

    best = anchor + lam * v
    y = meter.measure(best, delta, v)
    emit(best, y, "close", False, accepted, delta)
    return lam, delta, y, best


class _Walker:
    """Mutable cycle-running core of `run`."""

    def __init__(
        self,
        objective,
        state: RspState,
        cfg: AlgorithmConfig,
        noise=None,
        cap: Optional[int] = None,
    ):
        self.cfg = cfg
        self.st = state
        # Log records share the iterate arrays, so none may alias the caller's.
        state.x = state.x.copy()
        self.meter = _Meter(objective, noise, cap)

    # -- one line minimization at the current counter ----------------------

    def run_slot(self) -> None:
        st = self.st
        c = st.k
        a = active_slot(c, st.dimension)
        v = st.directions.directions[a]
        lam, delta_end, z_close, best = _line_minimize(
            self.meter,
            st.x,
            v,
            st.directions.step_sizes[a],
            st.z,
            st.phi,
            self.cfg,
            st.iterate_log,
            st.cycles,
            c,
        )
        st.x = best
        st.z = z_close
        st.evaluations = self.meter.count
        self._close_slot(c, lam, v, delta_end)

    # -- end-of-line bookkeeping (the controller's D5 map) ------------------

    def _close_slot(self, c: int, lam: float, v: np.ndarray, delta_end: float) -> None:
        st, cfg = self.st, self.cfg
        n = st.dimension
        steps = st.directions.step_sizes
        a = active_slot(c, n)
        if c < n:
            steps[a] = line_end_step(lam, delta_end, st.phi, cfg)
            st.alpha = st.alpha + lam * v
            st.alpha_bar += line_travel(lam, v)
            st.k = c + 1
            return

        steps[a] = delta_end
        dirs, steps, st.phi, blocked = close_cycle(
            st.directions.directions, steps, st.phi, st.alpha, st.alpha_bar,
            lam, v, cfg,
        )
        st.directions = DirectionSet(dirs, steps)
        st.blocked_cycles += blocked
        st.alpha = np.zeros(n)
        st.alpha_bar = 0.0
        st.k = 0
        st.cycles += 1

    def run_cycle(self) -> None:
        """The ``n + 1`` line minimizations of one cycle, through its close,
        or up to the measurement cap."""
        st = self.st
        try:
            for _ in range(st.dimension + 1):
                self.run_slot()
        except _BudgetExhausted:
            st.evaluations = self.meter.count


def run(
    objective,
    x0,
    cfg: AlgorithmConfig,
    stop: StopRule,
    directions: Optional[DirectionSet] = None,
    phi0: float = 1.0,
    z0: float = 0.0,
    noise=None,
) -> RspState:
    """Full discrete search from ``x0`` until the stop rule fires.

    ``directions`` defaults to the coordinate axes with unit steps;
    ``z0`` initializes the incumbent measurement (the walker never measures
    the start point before its first probe).  Raises `core.ConfigError` on
    inputs that break `core.check_run`, as `hybrid.run_closed_loop` does.
    The walk makes at most ``stop.measurement_cap`` measurements and checks
    `core.stop_reason` at each cycle boundary; it names the stop in
    ``stopped``.
    """
    x0 = np.asarray(x0, dtype=float)
    if directions is None:
        n = x0.size
        directions = DirectionSet(
            [np.eye(n)[i] for i in range(n)], [1.0] * n
        )
    check_run(cfg, stop, x0, directions.directions, directions.step_sizes,
              phi=phi0, objective_dimension=objective.dimension)
    state = RspState(
        x=x0, directions=directions.copy(), phi=float(phi0), z=float(z0)
    )
    walker = _Walker(objective, state, cfg, noise, stop.measurement_cap)
    while not (reason := stop_reason(stop, state.evaluations, state.cycles,
                                     state.phi)):
        walker.run_cycle()
    state.stopped = reason
    return state

