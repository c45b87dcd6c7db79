"""Discrete conjugate-direction direct search with adaptive step control.

This is the sequential (non-closed-loop) realization of the search: a walker
that probes the objective along one direction at a time with a
sufficient-decrease acceptance test, expands steps on success, contracts them
on failure, and rebuilds its direction set once per cycle from the
parallel-subspace displacement.  `run` is its one entry point.  Every
objective measurement is logged so the closed-loop realization in
`directseek.hybrid` can be checked against this route probe-for-probe.
Both routes measure through `core.Meter`, which evaluates the field once per
distinct measured point and draws fresh noise at every measurement.

The log is an `IterateLog`: one fixed-width `log_dtype` record per
measurement, packed by `core.record_struct` in place into one buffer sized
from the measurement cap, plus the start and the directions walked.  Every
measured point lies on its line, ``anchor + s * v``, so a record keeps the
scalar ``s``, not the point; each line's anchor, each record's line and step,
and the points are derived, bitwise, when first asked for.  No
per-measurement object outlives its measurement; the log builds an
`EvalRecord` per access.

A cycle over ``n`` directions runs ``n + 1`` line minimizations: the newest
direction is explored first AND last, and the total displacement accumulated
over the cycle becomes the candidate that replaces the oldest direction.
"""
from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .core import (
    AlgorithmConfig,
    DirectionSet,
    EvaluationError,
    Meter,
    StopRule,
    _BudgetExhausted,
    active_slot,
    check_run,
    close_cycle,
    line_end_step,
    line_travel,
    record_struct,
    rho,
    stop_reason,
)

__all__ = [
    "StopRule",
    "EvalRecord",
    "EvaluationError",
    "KINDS",
    "log_dtype",
    "IterateLog",
    "RspState",
    "run",
    "active_slot",
]


class EvalRecord:
    """One objective measurement, as `IterateLog` builds it.

    ``kind`` is one of ``probe_pos`` / ``probe_neg`` (trial points),
    ``reanchor`` (re-measure at the anchor after the first positive probe
    fails), ``close`` (re-measure at the best point that ends a line
    minimization).  ``accepted`` marks probes that passed the
    sufficient-decrease test; ``anchor`` is the best point at the time of the
    measurement; ``index`` is the 1-based global measurement counter.

    ``cycle``, ``slot``, ``step``, ``x`` and ``anchor`` are derived on access
    from the tables of ``log``.  ``x`` and ``anchor`` are new arrays with the
    bytes of the measured point (as `IterateLog.points` rebuilds it) and of
    the line's anchor; changing them leaves the log as it was.
    """

    __slots__ = ("log", "index", "s", "measured", "kind", "accepted", "delta")

    def __init__(self, log: IterateLog, index: int, s: float,
                 measured: float, kind: str, accepted: bool, delta: float):
        self.log, self.index, self.s = log, index, s
        self.measured, self.kind, self.accepted, self.delta = (
            measured, kind, accepted, delta)

    @property
    def cycle(self) -> int:
        return int(self.log.lines[self.index - 1]) // (self.log.start.size + 1)

    @property
    def slot(self) -> int:
        return int(self.log.lines[self.index - 1]) % (self.log.start.size + 1)

    @property
    def step(self) -> int:
        return int(self.log.steps[self.index - 1])

    @property
    def anchor(self) -> np.ndarray:
        return self.log.anchors[self.log.lines[self.index - 1]].copy()

    @property
    def x(self) -> np.ndarray:
        if self.kind == "reanchor":
            return self.anchor
        log, line = self.log, self.log.lines[self.index - 1]
        return log.anchors[line] + self.s * log.directions[log.line_directions[line]]


# The measurement kind of each code of the log's ``kind`` column.
KINDS: tuple[str, ...] = ("probe_pos", "probe_neg", "reanchor", "close")
_PROBE_POS, _PROBE_NEG, _REANCHOR, _CLOSE = range(len(KINDS))


def log_dtype(n: int) -> np.dtype:
    """The record of one measurement of an ``n``-D walk, 26 B for every
    ``n``: packed, in native byte order, as `core.record_struct` packs it.
    ``s`` is the scalar the line's direction was multiplied by (a
    re-anchor's point is the anchor itself)."""
    return np.dtype([("s", "f8"), ("measured", "f8"), ("delta", "f8"),
                     ("kind", "i1"), ("accepted", "?")])


class IterateLog(Sequence):
    """The walker's measurements: ``rows`` holds one `log_dtype` record per
    measurement, in order, ``start`` the walk's start and ``directions`` the
    directions walked (the start's ``n``, then the one each cycle close
    adds).

    Nothing derivable is stored: a record's ``index`` is its row number
    plus 1, its ``kind`` a code into `KINDS`, and its line, ``cycle`` (a
    walk runs ``n + 1`` lines per cycle), ``slot``, ``step``, anchor and
    point come from the tables below, each built on first use and kept.
    Indexing builds one `EvalRecord` per access (a slice gives a list of
    them), which reads its ``kind`` and ``accepted`` without a table.
    """

    def __init__(self, rows: np.ndarray, start: np.ndarray,
                 directions: np.ndarray) -> None:
        self.rows, self.start, self.directions = rows, start, directions

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        i = range(len(self))[i]
        s, measured, delta, kind, accepted = self.rows[i].item()
        return EvalRecord(self, i + 1, s, measured, KINDS[kind], accepted, delta)

    @cached_property
    def lines(self) -> np.ndarray:
        """Each record's line minimization: the ``close`` records before it."""
        close = self.rows["kind"] == _CLOSE
        return np.cumsum(close) - close

    @cached_property
    def steps(self) -> np.ndarray:
        """Each record's accepted probes in its line, up to and including it."""
        accepted = np.cumsum(self.rows["accepted"])
        before = np.concatenate(([0], accepted[self.rows["kind"] == _CLOSE]))
        return accepted - before[self.lines]

    @cached_property
    def line_directions(self) -> np.ndarray:
        """The row of ``directions`` each line walked (`core.active_slot`)."""
        n, count = self.start.size, self.lines[-1] + 1 if len(self) else 0
        cycle, counter = np.divmod(np.arange(count), n + 1)
        return cycle + np.array([active_slot(c, n) for c in range(n + 1)])[counter]

    @cached_property
    def anchors(self) -> np.ndarray:
        """Each line's anchor: the start, then the previous one plus its
        close's ``s`` times its direction, in the walker's order (bitwise)."""
        count = len(self.line_directions)
        lam = self.rows["s"][self.rows["kind"] == _CLOSE][:count - 1]
        moves = lam[:, None] * self.directions[self.line_directions[:len(lam)]]
        return np.add.accumulate(np.vstack([self.start, moves]))[:count]

    def points(self, stop: Optional[int] = None) -> np.ndarray:
        """The measured points of the first ``stop`` records (all of them
        by default), one row each.

        Each is ``anchor + s * v`` from its line's anchor and direction, the
        elementwise IEEE operations the walker made, so the rows are bitwise
        the points it measured; a re-anchor's row is its anchor.
        """
        rows, lines = self.rows[:stop], self.lines[:stop]
        anchors, v = self.anchors[lines], self.directions[self.line_directions[lines]]
        points = anchors + rows["s"][:, None] * v
        reanchor = rows["kind"] == _REANCHOR
        points[reanchor] = anchors[reanchor]
        return points


@dataclass
class RspState:
    """Walker state between line minimizations / cycles.

    ``iterate_log`` is set when `run` returns.
    """

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
    iterate_log: Optional[IterateLog] = None

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        if self.alpha is None:
            self.alpha = np.zeros_like(self.x)

    @property
    def dimension(self) -> int:
        return self.directions.dimension


def _line_minimize(
    meter: Meter,
    anchor: np.ndarray,
    v: np.ndarray,
    delta: float,
    z: float,
    phi: float,
    cfg: AlgorithmConfig,
    emit,
) -> tuple[float, float, float, np.ndarray]:
    """Walk one direction with expanding steps and sufficient decrease.

    Probes the positive side first; only if the very first probe fails does
    the walker re-measure the anchor and sweep the negative side.  Every trial
    point is computed from the anchor as ``anchor + lam * v`` (never
    incrementally), so rejected probes cannot perturb the iterate.  Each
    measurement is logged by ``emit(s, measured, delta, kind, accepted)``
    with the scalar ``s`` of its point ``anchor + s * v`` (0.0 for the
    re-anchor, which measures ``anchor`` itself).

    Returns ``(lam, delta_final, close_value, best_point)`` where
    ``close_value`` is the re-measurement at the best point that ends the
    line minimization.
    """

    lam = 0.0
    accepted = 0

    # Positive sweep.
    while True:
        delta_used = delta
        s = lam + delta
        y = meter.measure(anchor + s * v, delta, v)
        if y <= z - rho(delta):
            lam += delta
            z = y
            delta = min(cfg.gamma * delta, cfg.lambda_t * phi)
            accepted += 1
            emit(s, y, delta_used, _PROBE_POS, True)
            continue
        emit(s, y, delta_used, _PROBE_POS, False)
        break

    if accepted == 0:
        # First probe failed: re-anchor, then sweep the negative side.
        y = meter.measure(anchor, delta, v)
        z = y
        emit(0.0, y, delta, _REANCHOR, False)
        while True:
            delta_used = delta
            s = lam - delta
            y = meter.measure(anchor + s * v, delta, v)
            if y <= z - rho(delta):
                lam -= delta
                z = y
                delta = min(cfg.gamma * delta, cfg.lambda_t * phi)
                accepted += 1
                emit(s, y, delta_used, _PROBE_NEG, True)
                continue
            emit(s, y, delta_used, _PROBE_NEG, False)
            break

    best = anchor + lam * v
    y = meter.measure(best, delta, v)
    emit(lam, y, delta, _CLOSE, False)
    return lam, delta, y, best


# The most bytes a walk's first log buffer takes; a walk with no cap, or with
# more records than that holds, doubles its buffer whenever it is full.
_LOG_CEILING = 1 << 19


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
        # The returned state must not alias the caller's start.
        state.x = state.x.copy()
        self.start = state.x.copy()
        self.meter = Meter(objective, noise, cap)
        dtype = log_dtype(state.dimension)
        self.pack_into = record_struct(dtype).pack_into
        # Zeroed by calloc, so its pages stay out of RSS until written.
        self.log = np.zeros(min(self.meter.cap, _LOG_CEILING // dtype.itemsize), dtype)
        # The directions walked: the start's, then one per cycle close, so
        # slot ``a`` of cycle ``c`` is row ``c + a``.
        self.directions = bytearray(
            b"".join(d.tobytes() for d in state.directions.directions))

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
            self.emit,
        )
        st.x = best
        st.z = z_close
        st.evaluations = self.meter.count
        self._close_slot(c, lam, v, delta_end)

    def emit(self, s: float, y: float, delta: float, kind: int, accepted: bool) -> None:
        """Pack the record of the measurement just made at its row,
        doubling the buffer first when it is full."""
        row = self.meter.count - 1
        if row == len(self.log):
            grown = np.zeros(2 * row, self.log.dtype)
            grown[:row] = self.log
            self.log = grown
        self.pack_into(self.log, row * self.log.itemsize, s, y, delta, kind, accepted)

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
        self.directions += st.directions.directions[-1].tobytes()
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

    def iterate_log(self) -> IterateLog:
        """The log of the walk so far: the filled rows of its buffer (a
        numpy view locks the direction ``bytearray`` against resizing)."""
        return IterateLog(self.log[:self.meter.count], self.start,
                          np.frombuffer(self.directions).reshape(-1, self.start.size))


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
    ``stopped``.  Each measurement is packed as one `log_dtype` record, and
    the returned state's ``iterate_log`` is built over those records once.
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
    state.iterate_log = walker.iterate_log()
    return state

