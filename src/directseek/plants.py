"""Vehicle models that carry the probe point between measurements.

Each plant turns a requested displacement into a control schedule that is
feasible within one sampling period (`steer`) and flows its continuous
dynamics along that schedule (`integrate`).  Every segment has a closed-form
flow, which `integrate` evaluates exactly on Python floats read once from
the state.  A plant's ``substeps`` per period only set the spacing of the
dense rows `integrate` can collect; those rows hold the raw flow state
``(x..., zeta...)``, and `row_state` turns one into a `PlantState` as
`integrate` turns the endpoint.  The states the plants return are built
from float64 arrays the plant made itself, without `PlantState`'s
conversion step.  Each plant declares the length of its internal state
``zeta`` as ``zeta_dimension``.  Three models are provided:

- ``PointMassPlant``: velocity-actuated integrator, x' = u.
- ``DubinsPlant``: planar unicycle (x1' = s cos zeta, x2' = s sin zeta,
  zeta' = u) with speed s in [0, V] and turn rate |u| <= u_max; steering
  rotates in place through the shortest wrapped angle, then runs straight.
  Under constant controls every segment is a circular arc or a straight
  line (Dubins 1957), flowed by one chord formula.
- ``ExactPlant``: test mode that lands exactly on the requested target with
  no integration error, for controller-level and equivalence tests.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .core import build_registered, finite_number

__all__ = [
    "PlantState",
    "Segment",
    "SteeringError",
    "IntegrationError",
    "wrap_angle",
    "PointMassPlant",
    "DubinsPlant",
    "ExactPlant",
    "PLANT_BUILDERS",
    "get_plant",
]


class SteeringError(RuntimeError):
    """The requested displacement is infeasible within one period."""


class IntegrationError(RuntimeError):
    """The integrator produced a non-finite state."""


_NO_ZETA = np.zeros(0)
_NO_ZETA.flags.writeable = False


@dataclass(slots=True)
class PlantState:
    """Plant configuration: probe position ``x`` plus internal state ``zeta``
    (empty for plants with no internal state, one read-only array shared by
    all such states; ``[heading]`` for Dubins).

    The constructor and `copy` convert their input to float64 arrays; the
    plants build the states they return with `_state`, which skips that.
    """

    x: np.ndarray
    zeta: np.ndarray = field(default_factory=lambda: _NO_ZETA)

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)

    def copy(self) -> "PlantState":
        return PlantState(self.x.copy(), self.zeta.copy())


def _state(x: np.ndarray, zeta: np.ndarray = _NO_ZETA) -> PlantState:
    """A `PlantState` of float64 arrays the caller built itself, skipping
    `__post_init__`'s conversion."""
    state = object.__new__(PlantState)
    state.x = x
    state.zeta = zeta
    return state


@dataclass
class Segment:
    """One piecewise-constant control segment of a steering schedule.

    ``controls`` is plant-specific: the velocity vector for a point mass,
    ``(speed, turn_rate)`` for Dubins, the displacement array itself for the
    exact plant.
    """

    duration: float
    controls: Sequence[float]


def _check_count(name: str, value) -> None:
    """Reject a ``value`` that is not an integer >= 1; a bool is not."""
    if isinstance(value, bool) or not (isinstance(value, numbers.Integral)
                                       and value >= 1):
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = math.remainder(a, math.tau)
    return math.pi if w <= -math.pi else w


def _dense_rows(
    collect: list,
    flow: Callable[[tuple[float, ...], float], tuple[float, ...]],
    y0: tuple[float, ...],
    end: tuple[float, ...],
    t0: float,
    duration: float,
    nsteps: int,
) -> None:
    """Append ``(t, flow(y0, s))`` after each of ``nsteps`` equal substeps of
    a segment that starts at ``y0`` and time ``t0``.  The last row is
    ``end``, the endpoint the caller already flowed, so collecting never
    changes the result."""
    h = duration / nsteps
    for step in range(1, nsteps):
        collect.append((t0 + step * h, flow(y0, step * h)))
    collect.append((t0 + nsteps * h, end))


def _line_flow(
    u: Sequence[float], y0: tuple[float, ...], s: float
) -> tuple[float, ...]:
    """Point-mass state after time ``s`` at constant velocity ``u``."""
    return tuple([a + s * b for a, b in zip(y0, u)])


def _dubins_flow(
    speed: float, turn: float, y0: tuple[float, ...], s: float
) -> tuple[float, ...]:
    """Unicycle state ``(x1, x2, zeta)`` after time ``s`` at constant
    ``(speed, turn)``, in chord form: the position moves by the chord
    ``speed * s * sin(h) / h`` at the mid-arc heading ``zeta + h``, with
    ``h = turn * s / 2``.  Unlike ``(speed / turn) * (sin(zeta + turn * s) -
    sin zeta)`` it does not cancel as ``turn`` goes to 0, and ``h == 0`` is
    the straight line."""
    x1, x2, zeta = y0
    h = 0.5 * turn * s
    chord = speed * s if h == 0.0 else speed * s * math.sin(h) / h
    mid = zeta + h
    return (x1 + chord * math.cos(mid), x2 + chord * math.sin(mid), zeta + turn * s)


def _check_finite(values: Sequence[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise IntegrationError("integrator produced a non-finite state")


class PointMassPlant:
    """Velocity-actuated point mass, ``x' = u``, any dimension."""

    kind = "point_mass"
    zeta_dimension = 0

    def __init__(self, dimension: int = 2, substeps: int = 100):
        _check_count("dimension", dimension)
        _check_count("substeps", substeps)
        self.dimension = dimension
        self.substeps = substeps

    def initial_state(self, x) -> PlantState:
        return PlantState(np.asarray(x, dtype=float))

    def row_state(self, row: Sequence[float]) -> PlantState:
        """The state of a dense row ``(x1, ..., xn)`` of `integrate`."""
        return _state(np.array(row))

    def steer(
        self, xi: PlantState, target: np.ndarray, tau_star: float
    ) -> tuple[list[Segment], PlantState]:
        """Constant velocity ``target / tau_star`` for the whole period."""
        target = np.asarray(target, dtype=float)
        u = tuple([t / tau_star for t in target.tolist()])
        return [Segment(tau_star, u)], _state(xi.x + target)

    def integrate(
        self,
        xi: PlantState,
        schedule: list[Segment],
        tau_star: float,
        collect: Optional[list] = None,
    ) -> PlantState:
        y = tuple(xi.x.tolist())
        t = 0.0
        for seg in schedule:
            u, d = seg.controls, seg.duration
            end = _line_flow(u, y, d)
            if collect is not None:
                nsteps = max(1, round(self.substeps * d / tau_star))
                _dense_rows(collect, partial(_line_flow, u), y, end, t, d, nsteps)
            y = end
            t += d
        _check_finite(y)
        return self.row_state(y)


class DubinsPlant:
    """Planar unicycle with bounded speed and turn rate.

    State is ``(x1, x2)`` plus heading ``zeta``; controls are piecewise
    constant ``(speed, turn_rate)`` with ``0 <= speed <= v_max`` and
    ``|turn_rate| <= u_max``.  `steer` rotates in place through the wrapped
    shortest angle at full turn rate, then drives straight at the speed that
    lands on the target at the end of the period.
    """

    kind = "dubins"
    dimension = 2
    zeta_dimension = 1

    def __init__(self, v_max: float = 10.0, u_max: float = 20.0, substeps: int = 100):
        for name, value in (("v_max", v_max), ("u_max", u_max)):
            if not (finite_number(value) and value > 0):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")
        _check_count("substeps", substeps)
        self.v_max = v_max
        self.u_max = u_max
        self.substeps = substeps

    def initial_state(self, x, heading: float = 0.0) -> PlantState:
        return PlantState(np.asarray(x, dtype=float), np.array([float(heading)]))

    def row_state(self, row: Sequence[float]) -> PlantState:
        """The state of a dense row ``(x1, x2, heading)`` of `integrate`, the
        heading wrapped into (-pi, pi]."""
        x1, x2, heading = row
        return _state(np.array([x1, x2]), np.array([wrap_angle(heading)]))

    def steer(
        self, xi: PlantState, target: np.ndarray, tau_star: float
    ) -> tuple[list[Segment], PlantState]:
        target = np.asarray(target, dtype=float)
        tx, ty = target.tolist()
        (heading,) = xi.zeta.tolist()
        length = math.hypot(tx, ty)
        if length == 0.0:
            # Hold in place for the period; heading unchanged.
            predicted = _state(xi.x.copy(), xi.zeta.copy())
            return [Segment(tau_star, (0.0, 0.0))], predicted

        bearing = math.atan2(ty, tx)
        dpsi = wrap_angle(bearing - heading)
        t_turn = abs(dpsi) / self.u_max
        if t_turn >= tau_star:
            raise SteeringError(
                f"turning through {dpsi:.6f} rad takes {t_turn:.6f} s at "
                f"turn rate {self.u_max}, which does not fit in the period "
                f"{tau_star} s; increase the turn-rate limit or the period"
            )
        t_run = tau_star - t_turn
        speed = length / t_run
        if speed > self.v_max:
            raise SteeringError(
                f"covering {length:.6f} m in {t_run:.6f} s needs speed "
                f"{speed:.6f} > limit {self.v_max}; reduce the step size or "
                f"increase the period"
            )
        schedule: list[Segment] = []
        if t_turn > 0.0:
            schedule.append(Segment(t_turn, (0.0, math.copysign(self.u_max, dpsi))))
        schedule.append(Segment(t_run, (speed, 0.0)))
        predicted = _state(xi.x + target, np.array([bearing]))
        return schedule, predicted

    def integrate(
        self,
        xi: PlantState,
        schedule: list[Segment],
        tau_star: float,
        collect: Optional[list] = None,
    ) -> PlantState:
        y = (*xi.x.tolist(), *xi.zeta.tolist())
        t = 0.0
        for seg in schedule:
            (speed, turn), d = seg.controls, seg.duration
            end = _dubins_flow(speed, turn, y, d)
            if collect is not None:
                nsteps = max(1, round(self.substeps * d / tau_star))
                _dense_rows(collect, partial(_dubins_flow, speed, turn), y, end,
                            t, d, nsteps)
            y = end
            t += d
        _check_finite(y)
        return self.row_state(y)


class ExactPlant:
    """Test-mode plant that applies the requested displacement exactly.

    No internal state and no integration error; used for controller-level
    tests and the discrete/closed-loop equivalence check.
    """

    kind = "exact"
    zeta_dimension = 0

    def __init__(self, dimension: int = 2):
        _check_count("dimension", dimension)
        self.dimension = dimension

    def initial_state(self, x) -> PlantState:
        return PlantState(np.asarray(x, dtype=float))

    row_state = PointMassPlant.row_state

    def steer(
        self, xi: PlantState, target: np.ndarray, tau_star: float
    ) -> tuple[list[Segment], PlantState]:
        """One segment whose controls are the float ``target`` array itself
        (shared, not copied)."""
        return [Segment(tau_star, target)], _state(xi.x + target)

    def integrate(
        self,
        xi: PlantState,
        schedule: list[Segment],
        tau_star: float,
        collect: Optional[list] = None,
    ) -> PlantState:
        x = xi.x
        t = 0.0
        for seg in schedule:
            x = x + seg.controls
            t += seg.duration
            if collect is not None:
                collect.append((t, x.tolist()))
        _check_finite(x.tolist())
        return _state(x)


PLANT_BUILDERS: dict[str, Callable] = {
    "point_mass": PointMassPlant,
    "dubins": DubinsPlant,
    "exact": ExactPlant,
}


def get_plant(kind: str, **params):
    """Build a registered plant by kind name (see `core.build_registered`)."""
    return build_registered("plant", PLANT_BUILDERS, kind, params)
