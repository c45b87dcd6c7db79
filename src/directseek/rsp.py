"""Discrete conjugate-direction direct search with adaptive step control.

This is the sequential (non-closed-loop) realization of the search: a walker
that probes the objective along one direction at a time with a
sufficient-decrease acceptance test, expands steps on success, contracts them
on failure, and rebuilds its direction set once per cycle from the
parallel-subspace displacement.  Every objective measurement is logged so the
closed-loop realization in `directseek.hybrid` can be checked against this
route probe-for-probe.

A cycle over ``n`` directions runs ``n + 1`` line minimizations: the newest
direction is explored first AND last, and the total displacement accumulated
over the cycle becomes the candidate that replaces the oldest direction.

`exact_line_search` / `exact_cycles` swap the discrete probing for closed-form
minimization on quadratics.  The exact-mode candidate drops the opening line
minimization's travel, measuring the displacement between the two minima
found along the re-explored direction — the parallel-subspace construction
that makes accepted candidates mutually conjugate on quadratics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    AlgorithmConfig,
    ConfigError,
    DirectionSet,
    EvaluationError,
    StopRule,
    active_slot,
    check_robust_start,
    close_cycle,
    direction_determinant,
    line_end_step,
    passes_determinant_guard,
    rho,
    validate_config,
)

__all__ = [
    "StopRule",
    "EvalRecord",
    "EvaluationError",
    "LineMinResult",
    "RspState",
    "line_minimize",
    "rsp_cycle",
    "run",
    "exact_line_search",
    "ExactCycleReport",
    "exact_cycles",
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
class LineMinResult:
    """Outcome of one discrete line minimization.

    ``alpha`` is the signed travel along the direction, ``steps_taken`` the
    number of accepted probes, ``final_value`` the re-measured value at the
    best point, ``final_step`` the step size after expansions (before any
    end-of-line contraction).
    """

    alpha: float
    steps_taken: int
    final_value: float
    final_step: float


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
    """Internal: the measurement budget ran out mid-stride."""


class _Meter:
    """Counts objective measurements, applies noise, enforces the budget."""

    def __init__(self, objective, noise=None, max_evaluations: Optional[int] = None):
        self.objective = objective
        self.noise = noise
        self.max_evaluations = max_evaluations
        self.count = 0

    def measure(self, x: np.ndarray, delta: float, direction: np.ndarray) -> float:
        if self.max_evaluations is not None and self.count >= self.max_evaluations:
            raise _BudgetExhausted
        self.count += 1
        y = float(self.objective(x))
        if not math.isfinite(y):
            raise EvaluationError(x, y)
        if self.noise is not None:
            y += float(self.noise.sample(self.count, delta, direction))
        return y


def _line_minimize(
    meter: _Meter,
    anchor: np.ndarray,
    v: np.ndarray,
    delta: float,
    z: float,
    phi: float,
    cfg: AlgorithmConfig,
    log: Optional[list[EvalRecord]] = None,
    cycle: int = 0,
    slot: int = 0,
) -> tuple[float, float, int, float, np.ndarray]:
    """Walk one direction with expanding steps and sufficient decrease.

    Probes the positive side first; only if the very first probe fails does
    the walker re-measure the anchor and sweep the negative side.  Every trial
    point is computed from the anchor as ``anchor + lam * v`` (never
    incrementally), so rejected probes cannot perturb the iterate.  Each log
    record holds the array that was measured and shares ``anchor``; no array
    is modified after it is built.

    Returns ``(lam, delta_final, accepted_count, close_value, best_point)``
    where ``close_value`` is the re-measurement at the best point that ends
    the line minimization.
    """

    def emit(
        x: np.ndarray,
        y: float,
        kind: str,
        accepted: bool,
        step: int,
        delta_used: float,
    ) -> None:
        if log is not None:
            log.append(
                EvalRecord(
                    meter.count, cycle, slot, step, x, y, kind, accepted,
                    anchor, delta_used,
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
    return lam, delta, accepted, y, best


def line_minimize(
    objective,
    x0,
    direction,
    delta: float,
    phi: float,
    cfg: AlgorithmConfig,
    z: Optional[float] = None,
    noise=None,
) -> LineMinResult:
    """One discrete line minimization from ``x0`` along ``direction``.

    When ``z`` is not given the anchor is measured first to initialize the
    incumbent value.  See `_line_minimize` for the probing pattern.
    """
    x0 = np.asarray(x0, dtype=float)
    direction = np.asarray(direction, dtype=float)
    meter = _Meter(objective, noise)
    if z is None:
        z = meter.measure(x0, delta, direction)
    lam, delta_end, steps, z_close, _best = _line_minimize(
        meter, x0, direction, delta, z, phi, cfg
    )
    return LineMinResult(
        alpha=lam, steps_taken=steps, final_value=z_close, final_step=delta_end
    )


class _Walker:
    """Mutable cycle-running core shared by `rsp_cycle` and `run`."""

    def __init__(
        self,
        objective,
        state: RspState,
        cfg: AlgorithmConfig,
        noise=None,
        max_evaluations: Optional[int] = None,
    ):
        self.cfg = cfg
        self.st = state
        # Log records share the iterate arrays, so none may alias the caller's.
        state.x = state.x.copy()
        self.meter = _Meter(objective, noise, max_evaluations)
        self.meter.count = state.evaluations

    # -- one line minimization at the current counter ----------------------

    def run_slot(self, v_override=None, delta_override=None) -> None:
        st, cfg = self.st, self.cfg
        n = st.dimension
        c = st.k
        a = active_slot(c, n)
        v = (
            np.asarray(v_override, dtype=float)
            if v_override is not None
            else st.directions.directions[a]
        )
        delta = (
            float(delta_override)
            if delta_override is not None
            else st.directions.step_sizes[a]
        )
        lam, delta_end, _steps, z_close, best = _line_minimize(
            self.meter,
            st.x,
            v,
            delta,
            st.z,
            st.phi,
            cfg,
            log=st.iterate_log,
            cycle=st.cycles,
            slot=c,
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
            st.alpha_bar += abs(lam) * float(np.linalg.norm(v))
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

    def run_cycle(self, v0=None, delta0=None) -> bool:
        """Line minimizations from the current counter through the cycle
        close; ``v0``/``delta0`` override the counter-0 line only.  Returns
        False, with ``stopped`` set, when the measurement budget ran out."""
        st = self.st
        try:
            for c in range(st.k, st.dimension + 1):
                if c == 0:
                    self.run_slot(v0, delta0)
                else:
                    self.run_slot()
        except _BudgetExhausted:
            st.stopped = "max_evaluations"
            st.evaluations = self.meter.count
            return False
        return True


def rsp_cycle(
    objective,
    state: RspState,
    cfg: AlgorithmConfig,
    noise=None,
    v0=None,
    delta0=None,
    max_evaluations: Optional[int] = None,
) -> RspState:
    """Run one full cycle (``n + 1`` line minimizations) from ``state``.

    ``v0`` / ``delta0`` override the direction and step of the first line
    minimization only (the published runs start their first cycle on the
    OLDEST direction while the bookkeeping slot stays the newest).  The state
    is mutated in place and also returned.
    """
    det = abs(direction_determinant(state.directions))
    if det < cfg.delta_det:
        raise ConfigError(
            [
                "direction set on entry is degenerate: |det(directions)| = "
                f"{det!r} < delta_det = {cfg.delta_det!r}"
            ]
        )
    _Walker(objective, state, cfg, noise, max_evaluations).run_cycle(v0, delta0)
    return state


def run(
    objective,
    x0,
    cfg: AlgorithmConfig,
    stop: StopRule,
    directions: Optional[DirectionSet] = None,
    phi0: float = 1.0,
    z0: float = 0.0,
    noise=None,
    v0=None,
    delta0=None,
) -> RspState:
    """Full discrete search from ``x0`` until the stop rule fires.

    ``directions`` defaults to the coordinate axes with unit steps;
    ``z0`` initializes the incumbent measurement (the walker never measures
    the start point before its first probe).  ``v0`` / ``delta0`` apply to the
    first line minimization of the first cycle only.
    """
    violations = validate_config(cfg)
    if violations:
        raise ConfigError(violations)
    if (
        stop.max_cycles is None
        and stop.phi_threshold is None
        and stop.max_evaluations is None
    ):
        raise ValueError("stop rule has no limits set; the run would never end")
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    if directions is None:
        directions = DirectionSet(
            [np.eye(n)[i] for i in range(n)], [1.0] * n
        )
    check_robust_start(directions, cfg)
    state = RspState(
        x=x0, directions=directions.copy(), phi=float(phi0), z=float(z0)
    )
    walker = _Walker(objective, state, cfg, noise, stop.max_evaluations)
    while True:
        if stop.max_cycles is not None and state.cycles >= stop.max_cycles:
            state.stopped = "max_cycles"
            break
        if stop.phi_threshold is not None and state.phi < stop.phi_threshold:
            state.stopped = "phi_threshold"
            break
        if (
            stop.max_evaluations is not None
            and state.evaluations >= stop.max_evaluations
        ):
            state.stopped = "max_evaluations"
            break
        if not walker.run_cycle(v0, delta0):
            break
        v0 = delta0 = None
    return state


# ---------------------------------------------------------------------------
# Exact line-search mode (quadratics)
# ---------------------------------------------------------------------------


def exact_line_search(objective, x, direction) -> float:
    """Closed-form step to the minimum of a quadratic along a direction.

    ``t* = -grad(x)^T d / (d^T H d)``; requires analytic ``gradient`` and
    ``hessian`` and strict convexity along ``direction``.
    """
    if objective.gradient is None or objective.hessian is None:
        raise ValueError(
            "exact_line_search needs an objective with analytic gradient and hessian"
        )
    x = np.asarray(x, dtype=float)
    d = np.asarray(direction, dtype=float)
    H = np.asarray(objective.hessian(x), dtype=float)
    den = float(d @ H @ d)
    if den <= 0.0:
        raise ValueError(
            f"objective is not strictly convex along the direction (d^T H d = {den})"
        )
    return -float(np.asarray(objective.gradient(x), dtype=float) @ d) / den


@dataclass
class CandidateRecord:
    """One cycle-end direction candidate from the exact-mode walker."""

    cycle: int
    candidate: np.ndarray
    accepted: bool
    re_explored: np.ndarray
    prior_accepted: list[np.ndarray]


@dataclass
class ExactCycleReport:
    """Trace of `exact_cycles`: iterate after each line minimization,
    cycle-end candidates, and the final state."""

    positions: list[np.ndarray]
    candidates: list[CandidateRecord]
    final_x: np.ndarray
    final_directions: list[np.ndarray]
    line_minimizations: int


def exact_cycles(
    objective,
    x0,
    directions: Sequence[np.ndarray],
    cycles: int = 1,
    extra_lms: int = 0,
    delta_det: float = 1e-3,
) -> ExactCycleReport:
    """Run the cycle structure with exact line minimization on a quadratic.

    Same slot pattern and direction update as the discrete walker — newest
    direction first and last, candidate = displacement accumulated from the
    end of the opening line minimization to the end of the closing one —
    with every line minimization solved in closed form.  ``extra_lms`` runs
    that many additional line minimizations into the next cycle.
    """
    x = np.asarray(x0, dtype=float)
    dirs = [np.asarray(d, dtype=float).copy() for d in directions]
    n = len(dirs)
    positions: list[np.ndarray] = []
    candidates: list[CandidateRecord] = []
    accepted_hist: list[np.ndarray] = []
    alpha = np.zeros(n)
    total = cycles * (n + 1) + extra_lms
    lm = 0
    cyc = 0
    while lm < total:
        for c in range(n + 1):
            if lm >= total:
                break
            v = dirs[active_slot(c, n)]
            t = exact_line_search(objective, x, v)
            x = x + t * v
            positions.append(x.copy())
            lm += 1
            if c == 0:
                alpha = np.zeros(n)
            elif c < n:
                alpha = alpha + t * v
            else:
                candidate = alpha + t * v
                accept = passes_determinant_guard(dirs[1:], candidate, delta_det)
                candidates.append(
                    CandidateRecord(
                        cycle=cyc,
                        candidate=candidate.copy(),
                        accepted=accept,
                        re_explored=dirs[n - 1].copy(),
                        prior_accepted=[a.copy() for a in accepted_hist],
                    )
                )
                new_dir = candidate if accept else dirs[0].copy()
                if accept:
                    accepted_hist.append(candidate.copy())
                dirs = [d.copy() for d in dirs[1:]] + [new_dir]
                alpha = np.zeros(n)
        cyc += 1
    return ExactCycleReport(
        positions=positions,
        candidates=candidates,
        final_x=x.copy(),
        final_directions=[d.copy() for d in dirs],
        line_minimizations=lm,
    )
