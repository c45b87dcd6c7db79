"""Shared numerics for the direct-search package.

Provides the sufficient-decrease threshold ``rho`` with explicit underflow
reporting, small dense linear-algebra helpers for direction sets,
the rules that the walker (`directseek.rsp`) and the controller
(`directseek.hybrid`) share -- the run check, the stop rule, the slot map,
the determinant guard, the cycle-close rebuild, the measurement rule
(`Meter`) and the packing of their log records (`record_struct`) -- and a
registry of benchmark objective functions with optional analytic gradients.
"""
from __future__ import annotations

import math
import numbers
import struct
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "E",
    "rho",
    "rho_underflows",
    "log_rho",
    "DirectionSet",
    "direction_determinant",
    "AlgorithmConfig",
    "validate_config",
    "finite_number",
    "ConfigError",
    "StopRule",
    "budget_violations",
    "dimension_violations",
    "scale_violations",
    "check_run",
    "stop_reason",
    "active_slot",
    "passes_determinant_guard",
    "phi_update",
    "line_end_step",
    "line_travel",
    "close_cycle",
    "ObjectiveFunction",
    "EvaluationError",
    "Meter",
    "record_struct",
    "make_sphere",
    "make_aniso_quadratic",
    "make_rosenbrock",
    "make_random_spd_quadratic",
    "get_objective",
    "OBJECTIVE_BUILDERS",
    "build_registered",
]

E = math.e

# Affine offset that makes the two branches of rho meet at delta = e.
_UPPER_OFFSET = math.e ** (1.0 / math.e) - math.e

# exp(t) underflows past the smallest positive *normal* double; results in
# the subnormal range are flushed to an exact 0.0 and flagged.
_LOG_TINY = math.log(sys.float_info.min)


def rho(delta: float) -> float:
    """Sufficient-decrease threshold.

    Piecewise map: ``delta ** (1 / delta)`` for ``0 < delta <= e`` and the
    affine continuation ``delta + (e**(1/e) - e)`` beyond ``e``; the two
    branches meet continuously at ``delta = e``.  ``rho(0)`` is the
    right-limit value 0.  The lower branch is evaluated in log space as
    ``exp(log(delta) / delta)``; when that exponent drops below the smallest
    positive normal double the function returns exactly 0.0 (see
    `rho_underflows`).

    Parameters
    ----------
    delta : float
        Step size, must be >= 0.

    Returns
    -------
    float
        Threshold value; strictly increasing in ``delta`` wherever it does
        not underflow.
    """
    if delta < 0:
        raise ValueError(f"rho is defined for delta >= 0, got {delta}")
    if delta == 0:
        return 0.0
    if delta > E:
        return delta + _UPPER_OFFSET
    t = math.log(delta) / delta
    if t < _LOG_TINY:
        return 0.0
    return math.exp(t)


def rho_underflows(delta: float) -> bool:
    """True when ``rho(delta)`` flushes to 0.0 because the true value lies
    below the smallest positive normal double."""
    if delta < 0:
        raise ValueError(f"rho is defined for delta >= 0, got {delta}")
    if delta == 0 or delta > E:
        return False
    return math.log(delta) / delta < _LOG_TINY


def log_rho(delta: float) -> float:
    """Natural log of the exact (real-valued) threshold, finite for all
    ``delta > 0`` even where the float value of `rho` underflows.

    Used to check strict monotonicity across the underflow plateau.
    """
    if delta <= 0:
        raise ValueError(f"log_rho is defined for delta > 0, got {delta}")
    if delta > E:
        return math.log(delta + _UPPER_OFFSET)
    return math.log(delta) / delta


# ---------------------------------------------------------------------------
# Direction sets
# ---------------------------------------------------------------------------


@dataclass
class DirectionSet:
    """Ordered list of search directions with their per-slot step sizes.

    Invariants: ``len(directions) == len(step_sizes) == n`` with each
    direction an ``n``-vector; the rows form a nonsingular matrix whenever
    the controller's determinant safeguard is active.
    """

    directions: list[np.ndarray]
    step_sizes: list[float]

    def __post_init__(self) -> None:
        self.directions = [np.asarray(d, dtype=float) for d in self.directions]
        self.step_sizes = [float(s) for s in self.step_sizes]
        n = len(self.directions)
        if len(self.step_sizes) != n:
            raise ValueError(
                f"direction/step count mismatch: {n} directions, "
                f"{len(self.step_sizes)} step sizes"
            )
        for d in self.directions:
            if d.shape != (n,):
                raise ValueError(
                    f"each direction must be a vector of length {n}, "
                    f"got shape {d.shape}"
                )

    @property
    def dimension(self) -> int:
        return len(self.directions)

    def copy(self) -> "DirectionSet":
        return DirectionSet(
            [d.copy() for d in self.directions], list(self.step_sizes)
        )


def direction_determinant(directions) -> float:
    """Determinant of the matrix whose rows are the given directions.

    Accepts a sequence of n-vectors or an (n, n) array.  Computed by LU
    factorization with partial pivoting (``numpy.linalg.det``).  A 1x1 input
    reduces to the scalar itself.
    """
    mat = np.asarray(directions, dtype=float)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square direction matrix, got shape {mat.shape}")
    if mat.shape == (1, 1):
        return float(mat[0, 0])
    return float(np.linalg.det(mat))


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------


class ConfigError(ValueError):
    """Raised when an algorithm or experiment configuration is invalid.

    Carries the full list of violations in ``violations``.
    """

    def __init__(self, violations: Sequence[str]):
        self.violations = list(violations)
        super().__init__("invalid configuration: " + "; ".join(self.violations))


@dataclass
class AlgorithmConfig:
    """Tunable parameters of the search controller.

    Attributes
    ----------
    gamma : float
        Step expansion factor, >= 1 (1 disables expansion).
    theta : float
        Step contraction factor, in (0, 1).
    mu : float
        Frame contraction factor, in (0, 1), with ``mu * lambda_t < 1``.
    lambda_s, lambda_t : float
        Lower/upper step-box factors: every stored step stays inside
        ``[lambda_s * phi, lambda_t * phi]``.  ``0 < lambda_s < 1 < lambda_t``.
    delta_det : float
        Determinant safeguard for accepting a new search direction, > 0.
    tau_star : float
        Sampling period of the closed loop, > 0.
    phi_min : float
        Robust-mode floor on the frame scale ``phi``; 0 disables the floor.
    """

    gamma: float = 1.2
    theta: float = 0.5
    mu: float = 0.15
    lambda_s: float = 0.001
    lambda_t: float = 5.0
    delta_det: float = 0.001
    tau_star: float = 0.1
    phi_min: float = 0.0


# Each algorithm field with the range it must lie in: (rule, holds).
_RANGES = {
    "gamma": (">= 1", lambda x: x >= 1),
    "theta": ("in (0, 1)", lambda x: 0 < x < 1),
    "mu": ("in (0, 1)", lambda x: 0 < x < 1),
    "lambda_s": ("in (0, 1)", lambda x: 0 < x < 1),
    "lambda_t": ("> 1", lambda x: x > 1),
    "delta_det": ("> 0", lambda x: x > 0),
    "tau_star": ("> 0", lambda x: x > 0),
    "phi_min": (">= 0", lambda x: not x < 0),
}


def finite_number(x) -> bool:
    """True when ``x`` is a real number, not a bool, whose float is finite;
    an integer too large for a float is not."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:
        return False


def validate_config(cfg: AlgorithmConfig) -> list[str]:
    """Return a list of human-readable constraint violations (empty if valid).

    Each field must be a real number other than a bool, finite as a float
    (`finite_number`), in its `_RANGES` range, and ``mu * lambda_t < 1``; a
    field that fails one check skips the next.
    """
    v: list[str] = []
    in_range = set()
    for name, (rule, holds) in _RANGES.items():
        x = getattr(cfg, name)
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            v.append(f"{name} must be a number, got {x!r}")
        elif not finite_number(x):
            v.append(f"{name} must be finite (got {x})")
        elif not holds(x):
            v.append(f"{name} must be {rule} (got {x})")
        else:
            in_range.add(name)
    if {"mu", "lambda_t"} <= in_range and not cfg.mu * cfg.lambda_t < 1:
        v.append(
            f"mu * lambda_t must be < 1 (got {cfg.mu} * {cfg.lambda_t} "
            f"= {cfg.mu * cfg.lambda_t})"
        )
    return v


@dataclass
class StopRule:
    """When to stop a run, alike on both routes (`stop_reason`).

    ``max_cycles`` counts completed direction cycles; ``max_jumps`` and
    ``max_evaluations`` both cap the measurements (one measurement is one
    controller jump); ``phi_threshold`` stops once the frame scale drops
    below it.
    """

    max_cycles: Optional[int] = None
    max_jumps: Optional[int] = None
    max_evaluations: Optional[int] = None
    phi_threshold: Optional[float] = None

    @property
    def measurement_cap(self) -> Optional[int]:
        """The lower of ``max_jumps`` and ``max_evaluations``, or None when
        neither is set."""
        limits = [m for m in (self.max_jumps, self.max_evaluations) if m is not None]
        return min(limits) if limits else None


def budget_violations(stop: StopRule, **counts) -> list[str]:
    """Return the violations of a run's budgets (empty if valid).

    Every set limit of ``stop`` and every keyword count (such as a
    closed loop's ``flow_samples_per_period``) must be a non-negative
    integer, not a bool; ``stop.phi_threshold`` must be a positive number.
    """
    values = {f"stop.{k}": x for k, x in vars(stop).items() if x is not None}
    values.update(counts)
    v: list[str] = []
    for name, value in values.items():
        threshold = name == "stop.phi_threshold"
        kind = numbers.Real if threshold else numbers.Integral
        if not (isinstance(value, kind) and not isinstance(value, bool)
                and (value > 0 if threshold else value >= 0)):
            what = "a positive number" if threshold else "a non-negative integer"
            v.append(f"{name} must be {what}, got {value!r}")
    return v


def dimension_violations(
    x0, directions: Sequence, steps: Sequence[float],
    dimension: Optional[int] = None, active=None,
    zeta=None, zeta_dimension: Optional[int] = None,
    objective_dimension: Optional[int] = None,
) -> list[str]:
    """Return the violations of a run's dimensions (empty if they agree).

    With ``n = len(directions)``, the start ``x0``, every direction and a
    given ``active`` direction must be ``n``-vectors, there must be one
    stored step per direction, and a given plant ``dimension`` and
    ``objective_dimension`` must equal ``n``.  A given ``zeta_dimension`` is
    the length of the plant's internal state, and the start's internal state
    ``zeta`` must be a vector of that length.
    """
    n = len(directions)
    v: list[str] = []
    if np.shape(x0) != (n,):
        v.append(f"start has shape {np.shape(x0)}, expected ({n},) "
                 f"for {n} directions")
    for i, d in enumerate(directions):
        if np.shape(d) != (n,):
            v.append(f"direction {i} has shape {np.shape(d)}, expected ({n},)")
    if active is not None and np.shape(active) != (n,):
        v.append(f"active direction has shape {np.shape(active)}, "
                 f"expected ({n},)")
    if len(steps) != n:
        v.append(f"{len(steps)} stored steps for {n} directions")
    if dimension is not None and dimension != n:
        v.append(f"plant dimension {dimension} differs from {n} directions")
    if objective_dimension is not None and objective_dimension != n:
        v.append(f"objective dimension {objective_dimension} differs from "
                 f"{n} directions")
    if zeta_dimension is not None and np.shape(zeta) != (zeta_dimension,):
        v.append(f"plant internal state has shape {np.shape(zeta)}, "
                 f"expected ({zeta_dimension},)")
    return v


def scale_violations(
    phi: Optional[float] = None, steps: Sequence[float] = (),
    active_step: Optional[float] = None,
) -> list[str]:
    """Return the violations of a run's start scales (empty if valid).

    A given start frame scale ``phi``, every stored step and a given
    ``active_step`` must be finite numbers >= 0.  Zero is legal: a zero
    frame stalls the run at its start point.
    """
    named = [("start phi", phi)]
    named += [(f"stored step {i}", s) for i, s in enumerate(steps)]
    named.append(("active step", active_step))
    return [f"{name} must be a finite number >= 0, got {x!r}"
            for name, x in named if x is not None
            and not (finite_number(x) and x >= 0)]


def check_run(
    cfg: AlgorithmConfig, stop: StopRule, x0, directions: Sequence,
    steps: Sequence[float], *, phi: Optional[float] = None,
    active_step: Optional[float] = None, dimension: Optional[int] = None,
    active=None, zeta=None, zeta_dimension: Optional[int] = None,
    objective_dimension: Optional[int] = None, **counts,
) -> None:
    """Raise one `ConfigError` listing every way a run's inputs break
    `validate_config`, `budget_violations` (with ``counts``),
    `dimension_violations` and `scale_violations` (with the start ``phi``
    and ``active_step``), or set no stop limit.  If none do, robust mode
    (``phi_min > 0``) requires the start directions to clear the
    determinant guard; a malformed direction set cannot be factored.
    """
    v = (validate_config(cfg) + budget_violations(stop, **counts)
         + dimension_violations(x0, directions, steps, dimension, active,
                                zeta, zeta_dimension, objective_dimension)
         + scale_violations(phi, steps, active_step))
    if all(limit is None for limit in vars(stop).values()):
        v.append("stop rule has no limits set; the run would never end")
    if not v and cfg.phi_min > 0.0:
        det = abs(direction_determinant(directions))
        if det < cfg.delta_det:
            v.append("robust mode requires |det(directions)| >= delta_det "
                     f"(got {det!r} < {cfg.delta_det!r})")
    if v:
        raise ConfigError(v)


def stop_reason(stop: StopRule, measurements: int, cycles: int, phi: float) -> str:
    """The first `StopRule` field, in declaration order, whose limit is
    reached at these counts and ``phi``, or ``""``.  With measurements
    capped at `StopRule.measurement_cap`, the lower budget names a budget
    stop, and ``max_jumps`` wins a tie.
    """
    if stop.max_cycles is not None and cycles >= stop.max_cycles:
        return "max_cycles"
    if stop.max_jumps is not None and measurements >= stop.max_jumps:
        return "max_jumps"
    if stop.max_evaluations is not None and measurements >= stop.max_evaluations:
        return "max_evaluations"
    if stop.phi_threshold is not None and phi < stop.phi_threshold:
        return "phi_threshold"
    return ""


# ---------------------------------------------------------------------------
# Search rules shared by the walker and the controller
# ---------------------------------------------------------------------------


def active_slot(k: int, n: int) -> int:
    """Stored direction/step slot explored while the cycle counter is ``k``.

    Counter 0 and counter ``n`` both walk the newest slot ``n - 1``; counters
    ``1 .. n-1`` walk slots ``0 .. n-2``.
    """
    if not 0 <= k <= n:
        raise ValueError(f"cycle counter {k} outside 0..{n}")
    return n - 1 if k in (0, n) else k - 1


def passes_determinant_guard(
    trailing: Sequence[np.ndarray], candidate: np.ndarray, delta_det: float
) -> bool:
    """True when the rows ``trailing + [candidate]`` have
    ``|det| >= delta_det`` (equality passes): the cycle-end candidate may
    replace the oldest direction."""
    return abs(direction_determinant([*trailing, candidate])) >= delta_det


def phi_update(
    alpha: np.ndarray,
    beta: np.ndarray,
    trailing_dirs: Sequence[np.ndarray],
    d0: np.ndarray,
    delta_det: float,
) -> np.ndarray:
    """Cycle-end direction candidate acceptance.

    Candidate is ``alpha + beta`` (cycle displacement plus final-line travel).
    It replaces the newest slot when the matrix with rows
    ``trailing_dirs + [candidate]`` has ``|det| >= delta_det`` (equality
    accepts); otherwise the oldest direction ``d0`` is recycled, making the
    whole update a pure rotation of the direction list.
    """
    candidate = np.asarray(alpha, dtype=float) + np.asarray(beta, dtype=float)
    if passes_determinant_guard(trailing_dirs, candidate, delta_det):
        return candidate
    return np.asarray(d0, dtype=float).copy()


def line_end_step(lam: float, step: float, phi: float, cfg: AlgorithmConfig) -> float:
    """Stored step after a line minimization that travelled ``lam``: a
    blocked line (``|lam| <= step / 2``) contracts it by ``theta``, floored
    at ``lambda_s * phi``."""
    if abs(lam) <= step / 2.0:
        return max(cfg.theta * step, cfg.lambda_s * phi)
    return step


def line_travel(lam: float, v: np.ndarray) -> float:
    """Travel-meter increment of a line that moved ``lam`` along ``v``:
    ``|lam| * ||v||``, the norm as numpy's 1-D fast path computes it."""
    return abs(lam) * math.sqrt(v.dot(v))


def close_cycle(
    dirs: list[np.ndarray],
    steps: list[float],
    phi: float,
    alpha: np.ndarray,
    alpha_bar: float,
    lam: float,
    v: np.ndarray,
    cfg: AlgorithmConfig,
) -> tuple[list[np.ndarray], list[float], float, bool]:
    """Cycle-close rebuild: returns ``(dirs, steps, phi, blocked)``.

    Reads the stored slots (the newest step not yet end-of-line contracted),
    the earlier lines' displacement ``alpha`` and travel ``alpha_bar``, and
    the closing line's travel ``lam`` along ``v``.  A blocked cycle contracts
    ``phi`` by ``mu`` (floored at ``phi_min``).  Slots shift down one; the
    newest takes the direction `phi_update` returns for the candidate
    ``alpha + lam * v`` and the largest old step, all steps clipped to the
    box.
    Shares, and never writes to, the input arrays.
    """
    n = len(dirs)
    travel = alpha_bar + line_travel(lam, v)
    blocked = travel <= min(steps) / 2.0
    phi_new = cfg.mu * phi if blocked else phi
    if blocked and cfg.phi_min > 0.0:
        phi_new = max(phi_new, cfg.phi_min)

    new_dir = phi_update(alpha, lam * v, dirs[1:], dirs[0], cfg.delta_det)

    lo, hi = cfg.lambda_s * phi_new, cfg.lambda_t * phi_new

    def clip(s: float) -> float:
        return min(max(s, lo), hi)

    d_last = line_end_step(lam, steps[n - 1], phi, cfg)
    if n >= 2:
        shifted = [clip(s) for s in steps[1 : n - 1]] + [clip(d_last)]
        new_step = clip(max(steps[: n - 1]))
    else:
        shifted = []
        new_step = clip(d_last)
    return dirs[1:] + [new_dir], shifted + [new_step], phi_new, blocked


# ---------------------------------------------------------------------------
# Objective functions
# ---------------------------------------------------------------------------


@dataclass
class ObjectiveFunction:
    """A scalar field on ``R^dimension`` to be minimized.

    ``evaluate`` maps an n-vector to a float and must be a pure function of
    ``x``: both routes measure through a `Meter`, which evaluates it once
    per distinct measured point and adds fresh noise at every measurement,
    and both reject a start whose length is not ``dimension``.  The
    optional analytic ``gradient`` is read by `noise.gradient_bound_on_box`;
    ``known_minimizers`` give the run summary its distance to the minimizer.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_minimizers: Optional[list[np.ndarray]] = None

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float)))


class EvaluationError(RuntimeError):
    """A measurement (objective value plus noise) is non-finite.

    `Meter` checks each measurement once, after adding noise, and raises
    this instead of returning it, so a non-finite objective value and a
    non-finite noise value fail either route alike.  Carries the offending
    ``point`` and the measured ``value``.
    """

    def __init__(self, point, value: float):
        self.point = np.asarray(point, dtype=float).copy()
        self.value = float(value)
        super().__init__(f"non-finite measurement {value!r} at {self.point!r}")


class _BudgetExhausted(Exception):
    """A `Meter` was asked for a measurement past its cap."""


class Meter:
    """The measurement rule of both routes: the field ``objective(x)`` plus
    ``noise.sample(count, delta, direction)`` unless ``noise`` is None.

    ``count`` numbers the measurements from 1, and noise is drawn at each.
    A measurement whose ``x.tobytes()`` equals that of the measurement two
    before reuses that one's field value instead of calling the objective.
    A non-finite measurement raises `EvaluationError`; one past ``cap``
    raises `_BudgetExhausted` uncounted.  ``key1`` is the last point's bytes.
    """

    __slots__ = ("objective", "noise", "cap", "count", "key1", "key2", "f1", "f2")

    def __init__(self, objective, noise=None, cap: Optional[int] = None):
        self.objective = objective
        self.noise = noise
        self.cap = math.inf if cap is None else cap
        self.count = 0
        self.key1 = self.key2 = None
        self.f1 = self.f2 = 0.0

    def measure(self, x: np.ndarray, delta: float, direction: np.ndarray) -> float:
        count = self.count
        if count >= self.cap:
            raise _BudgetExhausted
        self.count = count = count + 1
        key = x.tobytes()
        y = self.f2 if key == self.key2 else float(self.objective(x))
        self.key2, self.key1 = self.key1, key
        self.f2, self.f1 = self.f1, y
        if self.noise is not None:
            y += float(self.noise.sample(count, delta, direction))
        if not math.isfinite(y):
            raise EvaluationError(x, y)
        return y


# The `struct` code of each scalar kind and size; not ``dtype.char``, since
# int64's is ``l``, which ``=l`` packs in 4 B.
_STRUCT_CODES = {"f8": "d", "i8": "q", "i4": "i", "i1": "b", "b1": "?"}


def record_struct(dtype: np.dtype) -> struct.Struct:
    """The packer of one record of the packed structured ``dtype``, in
    native byte order: a sub-array field as its array's bytes."""
    fields = [dtype.fields[name][0] for name in dtype.names]
    return struct.Struct("=" + "".join(
        f"{f.itemsize}s" if f.shape else _STRUCT_CODES[f"{f.kind}{f.itemsize}"]
        for f in fields))


def make_sphere(dimension: int = 2) -> ObjectiveFunction:
    """``f(x) = sum(x_i^2)`` with minimizer at the origin."""

    def f(x: np.ndarray) -> float:
        return float(x.dot(x))

    def g(x: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(x, dtype=float)

    return ObjectiveFunction(
        name="sphere",
        dimension=dimension,
        evaluate=f,
        gradient=g,
        known_minimizers=[np.zeros(dimension)],
    )


def make_aniso_quadratic() -> ObjectiveFunction:
    """Anisotropic 2-D quadratic ``f(x) = x1^2 + 5 x2^2``, minimizer (0, 0)."""

    def f(x: np.ndarray) -> float:
        x0, x1 = x.tolist()
        return x0 * x0 + 5.0 * x1 * x1

    def g(x: np.ndarray) -> np.ndarray:
        return np.array([2.0 * x[0], 10.0 * x[1]])

    return ObjectiveFunction(
        name="aniso_quadratic",
        dimension=2,
        evaluate=f,
        gradient=g,
        known_minimizers=[np.zeros(2)],
    )


def make_rosenbrock() -> ObjectiveFunction:
    """Mildly stiff valley ``f(x) = (1 - x1)^2 + 10 (x2 - x1^2)^2``.

    Coefficient 10 (not the classic 100); unique minimizer (1, 1), f* = 0.
    """

    def f(x: np.ndarray) -> float:
        x0, x1 = x.tolist()
        a = 1.0 - x0
        b = x1 - x0 * x0
        return a * a + 10.0 * b * b

    def g(x: np.ndarray) -> np.ndarray:
        b = x[1] - x[0] * x[0]
        return np.array(
            [-2.0 * (1.0 - x[0]) - 40.0 * x[0] * b, 20.0 * b]
        )

    return ObjectiveFunction(
        name="rosenbrock",
        dimension=2,
        evaluate=f,
        gradient=g,
        known_minimizers=[np.ones(2)],
    )


def make_random_spd_quadratic(
    dimension: int = 2,
    seed: int = 0,
    eig_range: tuple[float, float] = (1.0, 10.0),
) -> ObjectiveFunction:
    """Seeded quadratic ``f(x) = 0.5 (x - x*)^T H (x - x*)`` with SPD ``H``.

    ``H = Q diag(eigs) Q^T`` for a seeded random orthogonal ``Q`` and
    eigenvalues drawn uniformly from ``eig_range``; the minimizer ``x*`` is
    drawn uniformly from ``[-2, 2]^n``.
    """
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dimension, dimension)))
    eigs = rng.uniform(eig_range[0], eig_range[1], size=dimension)
    H = q @ np.diag(eigs) @ q.T
    H = 0.5 * (H + H.T)  # enforce exact symmetry
    x_star = rng.uniform(-2.0, 2.0, size=dimension)

    def f(x: np.ndarray) -> float:
        r = x - x_star
        # Same left-to-right order and the same BLAS calls (dgemv, ddot) as
        # ``0.5 * r @ H @ r``, without the matmul ufunc's dispatch.
        return float((0.5 * r).dot(H).dot(r))

    def g(x: np.ndarray) -> np.ndarray:
        return H @ (np.asarray(x, dtype=float) - x_star)

    return ObjectiveFunction(
        name=f"random_spd_quadratic(n={dimension}, seed={seed})",
        dimension=dimension,
        evaluate=f,
        gradient=g,
        known_minimizers=[x_star.copy()],
    )


def _make_constant(dimension: int = 2, value: float = 0.0) -> ObjectiveFunction:
    """Constant field; every probe fails the sufficient-decrease test."""

    def f(x: np.ndarray) -> float:
        return float(value)

    def g(x: np.ndarray) -> np.ndarray:
        return np.zeros(dimension)

    return ObjectiveFunction(
        name="constant",
        dimension=dimension,
        evaluate=f,
        gradient=g,
    )


OBJECTIVE_BUILDERS: dict[str, Callable[..., ObjectiveFunction]] = {
    "sphere": make_sphere,
    "aniso_quadratic": make_aniso_quadratic,
    "rosenbrock": make_rosenbrock,
    "random_spd_quadratic": make_random_spd_quadratic,
    "constant": _make_constant,
}


def build_registered(what: str, registry: dict, name: str, params: dict):
    """Call ``registry[name](**params)``.

    Raises ``KeyError`` listing the known names for an unknown ``name``, and
    ``ConfigError`` naming the builder when it is missing a required
    parameter, is given one it does not take, or rejects a value
    (``ValueError``).
    """
    try:
        builder = registry[name]
    except KeyError:
        raise KeyError(f"unknown {what} {name!r}; known: {sorted(registry)}") from None
    try:
        return builder(**params)
    except (TypeError, ValueError) as exc:
        raise ConfigError([f"{what} {name!r}: {exc}"]) from None


def get_objective(name: str, **params) -> ObjectiveFunction:
    """Build a registered objective by name (see `build_registered`)."""
    return build_registered("objective", OBJECTIVE_BUILDERS, name, params)
