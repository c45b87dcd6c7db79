"""Vehicle models that carry the probe point between measurements.

Each plant turns a requested displacement into a control schedule that is
feasible within one sampling period (`steer`) and flows its continuous
dynamics along that schedule (`integrate`).  Every segment `steer` emits has
a closed-form flow, which `integrate` evaluates exactly; fixed-step RK4 is
kept as the reference and integrates the generic Dubins arcs (speed and turn
rate both non-zero) that have none.  A plant's ``substeps`` per period set
the spacing of the dense rows `integrate` can collect and the RK4 resolution.
Three models are provided:

- ``PointMassPlant``: velocity-actuated integrator, x' = u.
- ``DubinsPlant``: planar unicycle (x1' = s cos zeta, x2' = s sin zeta,
  zeta' = u) with speed s in [0, V] and turn rate |u| <= u_max; steering
  rotates in place through the shortest wrapped angle, then runs straight.
- ``ExactPlant``: test mode that lands exactly on the requested target with
  no integration error, for controller-level and equivalence tests.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "PlantState",
    "Segment",
    "SteeringError",
    "IntegrationError",
    "wrap_angle",
    "PointMassPlant",
    "DubinsPlant",
    "ExactPlant",
    "steer",
    "integrate",
    "PLANT_BUILDERS",
    "get_plant",
]


class SteeringError(RuntimeError):
    """The requested displacement is infeasible within one period."""


class IntegrationError(RuntimeError):
    """The integrator produced a non-finite state."""


@dataclass
class PlantState:
    """Plant configuration: probe position ``x`` plus internal state ``zeta``
    (empty for plants with no internal state; ``[heading]`` for Dubins)."""

    x: np.ndarray
    zeta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self) -> None:
        self.x = np.asarray(self.x, dtype=float)
        self.zeta = np.asarray(self.zeta, dtype=float)

    def copy(self) -> "PlantState":
        return PlantState(self.x.copy(), self.zeta.copy())


@dataclass
class Segment:
    """One piecewise-constant control segment of a steering schedule.

    ``controls`` is plant-specific: the velocity vector for a point mass,
    ``(speed, turn_rate)`` for Dubins, the raw displacement for the exact
    plant.
    """

    duration: float
    controls: tuple


def wrap_angle(a: float) -> float:
    """Wrap an angle into (-pi, pi]."""
    w = math.remainder(a, math.tau)
    return math.pi if w <= -math.pi else w


def _rk4_segment(
    deriv: Callable[[tuple[float, ...]], tuple[float, ...]],
    y0: tuple[float, ...],
    duration: float,
    nsteps: int,
    collect: Optional[list] = None,
    t0: float = 0.0,
) -> tuple[float, ...]:
    """Classic fixed-step RK4 over one segment; appends (t, y) to ``collect``
    after every substep when given.  Plain-float arithmetic for speed.

    This is the reference the closed-form flows are checked against, and the
    integrator for generic Dubins arcs, whose flow has no closed form here."""
    h = duration / nsteps
    y = y0
    dim = len(y0)
    idx = range(dim)
    for step in range(nsteps):
        k1 = deriv(y)
        k2 = deriv(tuple(y[i] + 0.5 * h * k1[i] for i in idx))
        k3 = deriv(tuple(y[i] + 0.5 * h * k2[i] for i in idx))
        k4 = deriv(tuple(y[i] + h * k3[i] for i in idx))
        y = tuple(
            y[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in idx
        )
        if collect is not None:
            collect.append((t0 + (step + 1) * h, y))
    return y


def _exact_segment(
    flow: Callable[[tuple[float, ...], float], tuple[float, ...]],
    y0: tuple[float, ...],
    duration: float,
    nsteps: int,
    collect: Optional[list] = None,
    t0: float = 0.0,
) -> tuple[float, ...]:
    """Closed-form flow over one segment, ``flow(y0, s)`` being the state
    after time ``s``.  When ``collect`` is given, appends (t, y) at the same
    substep times as `_rk4_segment`; the last row is the returned endpoint
    itself, so collecting never changes the result."""
    y = flow(y0, duration)
    if collect is not None:
        h = duration / nsteps
        for step in range(1, nsteps):
            collect.append((t0 + step * h, flow(y0, step * h)))
        collect.append((t0 + nsteps * h, y))
    return y


def _check_finite(values: Sequence[float]) -> None:
    for v in values:
        if not math.isfinite(v):
            raise IntegrationError("integrator produced a non-finite state")


class PointMassPlant:
    """Velocity-actuated point mass, ``x' = u``, any dimension."""

    kind = "point_mass"

    def __init__(self, dimension: int = 2, substeps: int = 100):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
        self.dimension = dimension
        self.substeps = substeps

    def initial_state(self, x) -> PlantState:
        return PlantState(np.asarray(x, dtype=float))

    def steer(
        self, xi: PlantState, target: np.ndarray, tau_star: float
    ) -> tuple[list[Segment], PlantState]:
        """Constant velocity ``target / tau_star`` for the whole period."""
        target = np.asarray(target, dtype=float)
        u = tuple(float(t) / tau_star for t in target)
        predicted = PlantState(xi.x + target)
        return [Segment(tau_star, u)], predicted

    def integrate(
        self,
        xi: PlantState,
        schedule: list[Segment],
        tau_star: float,
        collect: Optional[list] = None,
    ) -> PlantState:
        y = tuple(float(v) for v in xi.x)
        t = 0.0
        for seg in schedule:
            nsteps = max(1, round(self.substeps * seg.duration / tau_star))

            def line(y0, s, _u=seg.controls):
                return tuple(a + s * b for a, b in zip(y0, _u))

            y = _exact_segment(line, y, seg.duration, nsteps, collect, t)
            t += seg.duration
        _check_finite(y)
        return PlantState(np.array(y))


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

    def __init__(self, v_max: float = 10.0, u_max: float = 20.0, substeps: int = 100):
        if v_max <= 0 or u_max <= 0:
            raise ValueError("v_max and u_max must be positive")
        if substeps < 1:
            raise ValueError(f"substeps must be >= 1, got {substeps}")
        self.v_max = v_max
        self.u_max = u_max
        self.substeps = substeps

    def initial_state(self, x, heading: float = 0.0) -> PlantState:
        return PlantState(np.asarray(x, dtype=float), np.array([float(heading)]))

    def steer(
        self, xi: PlantState, target: np.ndarray, tau_star: float
    ) -> tuple[list[Segment], PlantState]:
        target = np.asarray(target, dtype=float)
        length = math.hypot(target[0], target[1])
        heading = float(xi.zeta[0])
        if length == 0.0:
            # Hold in place for the period; heading unchanged.
            predicted = PlantState(xi.x.copy(), xi.zeta.copy())
            return [Segment(tau_star, (0.0, 0.0))], predicted

        bearing = math.atan2(float(target[1]), float(target[0]))
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
        predicted = PlantState(xi.x + target, np.array([bearing]))
        return schedule, predicted

    def integrate(
        self,
        xi: PlantState,
        schedule: list[Segment],
        tau_star: float,
        collect: Optional[list] = None,
    ) -> PlantState:
        y = (float(xi.x[0]), float(xi.x[1]), float(xi.zeta[0]))
        t = 0.0
        for seg in schedule:
            speed, turn = seg.controls
            nsteps = max(1, round(self.substeps * seg.duration / tau_star))
            if speed == 0.0 or turn == 0.0:
                # Turn in place or run straight: the heading or the position
                # is constant, so the flow has a closed form.
                cos_h, sin_h = math.cos(y[2]), math.sin(y[2])

                def line(y0, s, _v=speed, _u=turn, _c=cos_h, _s=sin_h):
                    return (y0[0] + _v * s * _c, y0[1] + _v * s * _s, y0[2] + _u * s)

                y = _exact_segment(line, y, seg.duration, nsteps, collect, t)
            else:

                def deriv(s, _v=speed, _u=turn):
                    return (_v * math.cos(s[2]), _v * math.sin(s[2]), _u)

                y = _rk4_segment(deriv, y, seg.duration, nsteps, collect, t)
            t += seg.duration
        _check_finite(y)
        return PlantState(np.array([y[0], y[1]]), np.array([wrap_angle(y[2])]))


class ExactPlant:
    """Test-mode plant that applies the requested displacement exactly.

    No internal state and no integration error; used for controller-level
    tests and the discrete/closed-loop equivalence check.
    """

    kind = "exact"

    def __init__(self, dimension: int = 2):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        self.dimension = dimension

    def initial_state(self, x) -> PlantState:
        return PlantState(np.asarray(x, dtype=float))

    def steer(
        self, xi: PlantState, target: np.ndarray, tau_star: float
    ) -> tuple[list[Segment], PlantState]:
        target = np.asarray(target, dtype=float)
        predicted = PlantState(xi.x + target)
        return [Segment(tau_star, tuple(float(v) for v in target))], predicted

    def integrate(
        self,
        xi: PlantState,
        schedule: list[Segment],
        tau_star: float,
        collect: Optional[list] = None,
    ) -> PlantState:
        x = xi.x.copy()
        t = 0.0
        for seg in schedule:
            x = x + np.asarray(seg.controls, dtype=float)
            t += seg.duration
            if collect is not None:
                collect.append((t, tuple(float(v) for v in x)))
        _check_finite(x)
        return PlantState(x)


def steer(plant, xi: PlantState, target, tau_star: float):
    """Plan a one-period schedule moving the plant by ``target``.

    Returns ``(schedule, predicted_end_state)``.  Raises `SteeringError` with
    actionable advice when the displacement is infeasible in one period.
    """
    return plant.steer(xi, np.asarray(target, dtype=float), tau_star)


def integrate(plant, xi: PlantState, schedule, tau_star: float, collect=None):
    """Flow the plant along a schedule: exactly where the segment's flow has
    a closed form, with fixed-step RK4 otherwise.

    ``collect``, when given, receives ``(t, state_tuple)`` rows after every
    substep and never changes the result.  Returns the final `PlantState`.
    """
    return plant.integrate(xi, schedule, tau_star, collect)


PLANT_BUILDERS: dict[str, Callable] = {
    "point_mass": PointMassPlant,
    "dubins": DubinsPlant,
    "exact": ExactPlant,
}


def get_plant(kind: str, **params):
    """Build a registered plant by kind name."""
    try:
        builder = PLANT_BUILDERS[kind]
    except KeyError:
        raise KeyError(
            f"unknown plant {kind!r}; known: {sorted(PLANT_BUILDERS)}"
        ) from None
    return builder(**params)
