"""Measurement-noise models and adversarial-noise instrumentation.

Models are stateful per-run objects sampled once per objective measurement
(``sample(k, delta, direction)`` with the 1-based measurement index, the step
size that produced the probe, and the active direction).  Besides benign
bounded random noise, two adversarial recursions are provided:

- ``adversarial_jam`` waits until the step size is small enough that its
  accumulating offset stays effective, then inflates every measurement just
  enough to make all probes fail the sufficient-decrease test — freezing the
  iterate where it stands.
- ``adversarial_drag`` runs the negated recursion, deflating probe
  measurements so that EVERY probe is accepted — walking the iterate away
  from the minimizer (and out of any sublevel set, given time).

`jam_demo` wires a jam (optionally followed by further phases) into a
discrete-route run and reports the activation index, whether the iterate was
bit-frozen afterwards, and the per-iteration certificate margins.

`robustness_bound` gives the noise magnitude below which the robust
controller's progress guarantee holds: ``rho(lambda_s * phi_floor) / 2``.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (
    AlgorithmConfig,
    StopRule,
    build_registered,
    rho,
    rho_underflows,
)
from . import rsp

__all__ = [
    "NoiseModel",
    "ZeroNoise",
    "BoundedRandomNoise",
    "AdversarialJamNoise",
    "AdversarialDragNoise",
    "PhasedNoise",
    "robustness_bound",
    "robustness_bound_underflows",
    "initial_sublevel_box",
    "gradient_bound_on_box",
    "JamDemoReport",
    "jam_demo",
    "NOISE_BUILDERS",
    "get_noise",
]


class NoiseModel:
    """Base class: zero noise.  Subclasses override `sample`.

    ``history`` records every emitted value in measurement order so tests and
    reports can reconstruct the sequence n_s(1), n_s(2), ...
    """

    kind = "zero"

    def __init__(self) -> None:
        self.history: list[float] = []

    def sample(self, k: int, delta: float, direction) -> float:
        value = self._value(k, delta, direction)
        self.history.append(value)
        return value

    def _value(self, k: int, delta: float, direction) -> float:
        return 0.0

    def reset(self) -> None:
        self.history = []


class ZeroNoise(NoiseModel):
    """Exactly zero measurement noise."""

    kind = "zero"


# Uniforms `BoundedRandomNoise` draws per call to its generator.
_BLOCK = 1024


class BoundedRandomNoise(NoiseModel):
    """Seeded uniform noise on ``[-bound, bound]``.

    The uniforms are drawn ``_BLOCK`` at a time and handed out one per
    sample.  numpy's sized draw computes each element as the scalar draw
    does, so the values are bitwise those of one
    ``default_rng(seed).uniform(-bound, bound)`` call per sample.
    """

    kind = "bounded_random"

    def __init__(self, bound: float, seed: int = 0):
        super().__init__()
        if bound < 0:
            raise ValueError(f"bound must be >= 0, got {bound}")
        self.bound = float(bound)
        self.seed = int(seed)
        self.reset()

    def _value(self, k: int, delta: float, direction) -> float:
        value = next(self._block, None)
        if value is None:
            self._block = iter(
                self._rng.uniform(-self.bound, self.bound, _BLOCK).tolist()
            )
            value = next(self._block)
        return value

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self.seed)
        self._block = iter(())


class AdversarialJamNoise(NoiseModel):
    """Accumulating offset that stalls the search once it activates.

    Inactive (emitting 0) until the first measurement whose step size
    satisfies ``(grad_bound * delta * dir_bound + rho(delta)) / (1 - theta)
    < bound``; from then on every measurement adds
    ``grad_bound * delta_k * dir_bound + rho(delta_k)`` to the running
    offset — enough to cancel the largest possible true decrease plus the
    acceptance threshold, so no probe is ever accepted again.
    """

    kind = "adversarial_jam"

    def __init__(self, bound: float, grad_bound: float, dir_bound: float, theta: float):
        super().__init__()
        self.bound = float(bound)
        self.grad_bound = float(grad_bound)
        self.dir_bound = float(dir_bound)
        self.theta = float(theta)
        self.activated_at: Optional[int] = None
        self._accum = 0.0

    def _value(self, k: int, delta: float, direction) -> float:
        if self.activated_at is None:
            trigger = (
                self.grad_bound * delta * self.dir_bound + rho(delta)
            ) / (1.0 - self.theta)
            if trigger < self.bound:
                self.activated_at = k
            else:
                return 0.0
        self._accum += self.grad_bound * delta * self.dir_bound + rho(delta)
        return self._accum

    def reset(self) -> None:
        super().reset()
        self.activated_at = None
        self._accum = 0.0


class AdversarialDragNoise(NoiseModel):
    """Negated accumulating offset that makes every probe look good.

    From measurement ``start`` onward, each measurement subtracts
    ``grad_bound * delta_k * dir_bound + rho(delta_k)`` from the running
    offset, so every probe passes the sufficient-decrease test regardless of
    the true field — the iterate is dragged wherever probing leads.
    """

    kind = "adversarial_drag"

    def __init__(self, grad_bound: float, dir_bound: float, start: int = 1):
        super().__init__()
        self.grad_bound = float(grad_bound)
        self.dir_bound = float(dir_bound)
        self.start = int(start)
        self._accum = 0.0

    def _value(self, k: int, delta: float, direction) -> float:
        if k < self.start:
            return 0.0
        self._accum -= self.grad_bound * delta * self.dir_bound + rho(delta)
        return self._accum

    def reset(self) -> None:
        super().reset()
        self._accum = 0.0


class PhasedNoise(NoiseModel):
    """Chains noise models over a switch schedule.

    ``phases`` is a list of ``(model, start_index)`` sorted by start; model
    ``i`` serves measurements with ``start_i <= k < start_{i+1}``.  Each
    model keeps its own accumulator, so the offset resets to its fresh state
    at every switch.  Measurements before the first start get zero noise.
    """

    kind = "phased"

    def __init__(self, phases: Sequence[tuple[NoiseModel, int]]):
        super().__init__()
        self.phases = sorted(phases, key=lambda ms: ms[1])
        starts = [s for _, s in self.phases]
        if len(set(starts)) != len(starts):
            raise ValueError("phase start indices must be distinct")

    def _value(self, k: int, delta: float, direction) -> float:
        active: Optional[NoiseModel] = None
        for model, start in self.phases:
            if k >= start:
                active = model
            else:
                break
        if active is None:
            return 0.0
        return active.sample(k, delta, direction)

    def reset(self) -> None:
        super().reset()
        for model, _start in self.phases:
            model.reset()


def robustness_bound(lambda_s: float, phi_floor: float) -> float:
    """Largest noise magnitude with a progress guarantee in robust mode:
    ``rho(lambda_s * phi_floor) / 2``.

    May underflow to exactly 0.0 for tiny arguments; see
    `robustness_bound_underflows`.
    """
    if lambda_s <= 0 or phi_floor <= 0:
        raise ValueError(
            f"lambda_s and phi_floor must be positive, got {lambda_s}, {phi_floor}"
        )
    return rho(lambda_s * phi_floor) / 2.0


def robustness_bound_underflows(lambda_s: float, phi_floor: float) -> bool:
    """True when `robustness_bound` flushes to 0.0 in floating point."""
    if lambda_s <= 0 or phi_floor <= 0:
        raise ValueError(
            f"lambda_s and phi_floor must be positive, got {lambda_s}, {phi_floor}"
        )
    return rho_underflows(lambda_s * phi_floor)


# ---------------------------------------------------------------------------
# Bound estimation for the adversarial recursions
# ---------------------------------------------------------------------------


def initial_sublevel_box(
    objective,
    x0,
    samples_per_face: int = 9,
    max_doublings: int = 24,
) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned box enclosing the initial sublevel set's component.

    Doubles a box half-width centred on ``x0`` until every sampled point of
    every face lies strictly above ``f(x0)`` (so the connected sublevel
    component through ``x0`` cannot cross the boundary at the sampled
    resolution).  A bound-finding instrument for the adversarial demos, not
    a certified enclosure.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    f0 = float(objective(x0))
    h = 1.0
    rng = np.random.default_rng(0)
    for _ in range(max_doublings):
        lo, hi = x0 - h, x0 + h
        clear = True
        for axis in range(n):
            for side in (lo[axis], hi[axis]):
                if n == 1:
                    pts = [np.array([side])]
                elif n <= 3:
                    grids = [
                        np.linspace(lo[i], hi[i], samples_per_face)
                        for i in range(n)
                        if i != axis
                    ]
                    pts = []
                    for combo in itertools.product(*grids):
                        p = np.empty(n)
                        p[axis] = side
                        rest = [i for i in range(n) if i != axis]
                        for i, val in zip(rest, combo):
                            p[i] = val
                        pts.append(p)
                else:
                    pts = []
                    for _ in range(20 * samples_per_face):
                        p = rng.uniform(lo, hi)
                        p[axis] = side
                        pts.append(p)
                if any(float(objective(p)) <= f0 for p in pts):
                    clear = False
                    break
            if not clear:
                break
        if clear:
            return lo, hi
        h *= 2.0
    raise RuntimeError(
        f"could not enclose the sublevel set of {getattr(objective, 'name', '?')} "
        f"within {max_doublings} doublings"
    )


def gradient_bound_on_box(
    objective,
    lo,
    hi,
    grid: int = 15,
    seed: int = 0,
    fd_step: float = 1e-6,
) -> float:
    """Max gradient norm over a box, on a grid (or seeded samples for n > 3).

    Uses the analytic gradient when the objective registers one, central
    finite differences otherwise.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    n = lo.shape[0]
    if n <= 3:
        axes = [np.linspace(lo[i], hi[i], grid) for i in range(n)]
        points = [np.array(c) for c in itertools.product(*axes)]
    else:
        rng = np.random.default_rng(seed)
        points = [rng.uniform(lo, hi) for _ in range(4096)]

    if objective.gradient is not None:
        grads = (np.asarray(objective.gradient(p), dtype=float) for p in points)
    else:

        def fd(p: np.ndarray) -> np.ndarray:
            g = np.empty(n)
            for i in range(n):
                e = np.zeros(n)
                e[i] = fd_step
                g[i] = (float(objective(p + e)) - float(objective(p - e))) / (
                    2.0 * fd_step
                )
            return g

        grads = (fd(p) for p in points)
    return max(float(np.linalg.norm(g)) for g in grads)


# ---------------------------------------------------------------------------
# Jam / drag demonstration
# ---------------------------------------------------------------------------


@dataclass
class JamDemoReport:
    """Outcome of `jam_demo`.

    ``activation_index`` is the measurement index where the jam switched on
    (None if it never did); ``frozen`` says whether the anchor stayed
    bit-identical and no probe was accepted from activation to the end;
    ``certificate_margins`` holds, for every post-activation probe, the slack
    of the inequality  f(probe) + n_s(k) >= f(anchor) + n_s(k-1) - rho(delta)
    (all must be >= 0 for the stall to be certified); ``escaped`` reports,
    when a drag phase is scheduled, whether any evaluated point from the drag
    phase onward left the initial sublevel set.  (The drag accepts every
    probe, so the line minimization never closes and the stored anchor lags
    behind the marching evaluation points — the evaluated sequence is the
    iterate sequence that escapes.)
    """

    activation_index: Optional[int]
    frozen: bool
    frozen_iterations: int
    frozen_anchor: Optional[np.ndarray]
    certificate_margins: list[float]
    grad_bound: float
    dir_bound: float
    escaped: Optional[bool]
    state: rsp.RspState
    noise: NoiseModel


def jam_demo(
    objective,
    x0,
    cfg: AlgorithmConfig,
    noise_bound: float,
    budget: int = 2000,
    directions=None,
    phi0: float = 1.0,
    drag_start: Optional[int] = None,
) -> JamDemoReport:
    """Run the discrete route under an adversarial jam and certify the stall.

    Gradient/direction bounds are taken over the bounding box of the initial
    sublevel set.  With ``drag_start`` set, a drag phase replaces the jam
    from that measurement index onward (the offset resets at the switch),
    demonstrating guided escape from the sublevel set.
    """
    x0 = np.asarray(x0, dtype=float)
    lo, hi = initial_sublevel_box(objective, x0)
    grad_bound = gradient_bound_on_box(objective, lo, hi)
    dir_bound = float(np.linalg.norm(hi - lo))

    jam = AdversarialJamNoise(noise_bound, grad_bound, dir_bound, cfg.theta)
    model: NoiseModel
    if drag_start is None:
        model = jam
    else:
        drag = AdversarialDragNoise(grad_bound, dir_bound, start=drag_start)
        model = PhasedNoise([(jam, 1), (drag, drag_start)])

    state = rsp.run(
        objective,
        x0,
        cfg,
        StopRule(max_evaluations=budget),
        directions=directions,
        phi0=phi0,
        noise=model,
    )

    k_star = jam.activated_at
    margins: list[float] = []
    frozen = False
    frozen_iterations = 0
    frozen_anchor: Optional[np.ndarray] = None
    history = model.history
    jam_end = budget if drag_start is None else min(budget, drag_start - 1)
    if k_star is not None:
        post = [r for r in state.iterate_log if k_star <= r.index <= jam_end]
        frozen_anchor = next(
            (r.anchor for r in state.iterate_log if r.index >= k_star), None
        )
        frozen = frozen_anchor is not None and all(
            (not r.accepted) and np.array_equal(r.anchor, frozen_anchor)
            for r in post
        )
        frozen_iterations = len(post)
        for r in post:
            if r.kind not in ("probe_pos", "probe_neg"):
                continue
            k = r.index
            n_k = history[k - 1]
            n_prev = history[k - 2] if k >= 2 else 0.0
            margin = (
                float(objective(r.x))
                + n_k
                - (float(objective(r.anchor)) + n_prev - rho(r.delta))
            )
            margins.append(margin)

    escaped: Optional[bool] = None
    if drag_start is not None:
        f0 = float(objective(x0))
        escaped = any(
            float(objective(r.x)) > f0
            for r in state.iterate_log
            if r.index >= drag_start
        )

    return JamDemoReport(
        activation_index=k_star,
        frozen=frozen,
        frozen_iterations=frozen_iterations,
        frozen_anchor=frozen_anchor,
        certificate_margins=margins,
        grad_bound=grad_bound,
        dir_bound=dir_bound,
        escaped=escaped,
        state=state,
        noise=model,
    )


NOISE_BUILDERS: dict[str, Callable[..., NoiseModel]] = {
    "zero": ZeroNoise,
    "bounded_random": lambda bound=0.0, seed=0: BoundedRandomNoise(bound, seed),
    "adversarial_jam": AdversarialJamNoise,
    "adversarial_drag": AdversarialDragNoise,
}


def get_noise(kind: str, **params) -> NoiseModel:
    """Build a registered noise model by kind name (see
    `core.build_registered`); the adversarial kinds need their bound inputs
    supplied."""
    return build_registered("noise model", NOISE_BUILDERS, kind, params)
