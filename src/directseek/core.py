"""Shared numerics for the direct-search package.

Provides the sufficient-decrease threshold ``rho`` with explicit underflow
reporting, small dense linear-algebra helpers for direction sets,
configuration validation, the search rules that the walker (`directseek.rsp`)
and the controller (`directseek.hybrid`) share -- the slot map, the
determinant guard and the cycle-close rebuild -- and a registry of benchmark
objective functions with optional analytic derivatives.
"""
from __future__ import annotations

import math
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
    "ConfigError",
    "StopRule",
    "active_slot",
    "passes_determinant_guard",
    "phi_update",
    "check_robust_start",
    "line_end_step",
    "close_cycle",
    "ObjectiveFunction",
    "EvaluationError",
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

    def matrix(self) -> np.ndarray:
        """Directions stacked as rows of an (n, n) matrix."""
        return np.array(self.directions, dtype=float)

    def copy(self) -> "DirectionSet":
        return DirectionSet(
            [d.copy() for d in self.directions], list(self.step_sizes)
        )


def direction_determinant(directions) -> float:
    """Determinant of the matrix whose rows are the given directions.

    Accepts a `DirectionSet`, a sequence of n-vectors, or an (n, n) array.
    Computed by LU factorization with partial pivoting (``numpy.linalg.det``).
    A 1x1 input reduces to the scalar itself.
    """
    if isinstance(directions, DirectionSet):
        mat = directions.matrix()
    else:
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


def validate_config(cfg: AlgorithmConfig) -> list[str]:
    """Return a list of human-readable constraint violations (empty if valid).

    Checks: ``gamma >= 1``, ``0 < theta < 1``, ``0 < mu < 1``,
    ``0 < lambda_s < 1 < lambda_t``, ``mu * lambda_t < 1``,
    ``delta_det > 0``, ``tau_star > 0``, ``phi_min >= 0``.
    """
    v: list[str] = []
    if not cfg.gamma >= 1:
        v.append(f"gamma must be >= 1 (got {cfg.gamma})")
    if not 0 < cfg.theta < 1:
        v.append(f"theta must be in (0, 1) (got {cfg.theta})")
    if not 0 < cfg.mu < 1:
        v.append(f"mu must be in (0, 1) (got {cfg.mu})")
    if not 0 < cfg.lambda_s < 1:
        v.append(f"lambda_s must be in (0, 1) (got {cfg.lambda_s})")
    if not cfg.lambda_t > 1:
        v.append(f"lambda_t must be > 1 (got {cfg.lambda_t})")
    if 0 < cfg.mu < 1 and cfg.lambda_t > 1 and not cfg.mu * cfg.lambda_t < 1:
        v.append(
            f"mu * lambda_t must be < 1 (got {cfg.mu} * {cfg.lambda_t} "
            f"= {cfg.mu * cfg.lambda_t})"
        )
    if not cfg.delta_det > 0:
        v.append(f"delta_det must be > 0 (got {cfg.delta_det})")
    if not cfg.tau_star > 0:
        v.append(f"tau_star must be > 0 (got {cfg.tau_star})")
    if cfg.phi_min < 0:
        v.append(f"phi_min must be >= 0 (got {cfg.phi_min})")
    return v


@dataclass
class StopRule:
    """When to stop a run.  Any subset of limits may be set; the first one
    hit wins.

    ``max_cycles`` counts completed direction cycles (discrete route);
    ``max_jumps`` counts controller jumps (closed-loop route);
    ``max_evaluations`` caps objective measurements (both routes);
    ``phi_threshold`` stops once the frame scale drops below it.
    """

    max_cycles: Optional[int] = None
    max_jumps: Optional[int] = None
    max_evaluations: Optional[int] = None
    phi_threshold: Optional[float] = None


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


def check_robust_start(directions, cfg: AlgorithmConfig) -> None:
    """Robust mode (``phi_min > 0``) needs a starting direction set that
    clears the determinant guard; raises `ConfigError` otherwise."""
    if cfg.phi_min > 0.0:
        det = abs(direction_determinant(directions))
        if det < cfg.delta_det:
            raise ConfigError(
                [
                    "robust mode requires |det(directions)| >= delta_det "
                    f"(got {det!r} < {cfg.delta_det!r})"
                ]
            )


def line_end_step(lam: float, step: float, phi: float, cfg: AlgorithmConfig) -> float:
    """Stored step after a line minimization that travelled ``lam``: a
    blocked line (``|lam| <= step / 2``) contracts it by ``theta``, floored
    at ``lambda_s * phi``."""
    if abs(lam) <= step / 2.0:
        return max(cfg.theta * step, cfg.lambda_s * phi)
    return step


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
    travel = alpha_bar + abs(lam) * float(np.linalg.norm(v))
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
    """A scalar field to be minimized, with optional analytic derivatives.

    ``evaluate`` maps an n-vector to a float.  ``gradient`` and ``hessian``
    are optional callables with matching conventions.  ``known_minimizers``
    and ``known_min_value`` enable error reporting in summaries and tests.
    """

    name: str
    dimension: int
    evaluate: Callable[[np.ndarray], float]
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    hessian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    known_minimizers: Optional[list[np.ndarray]] = None
    known_min_value: Optional[float] = None

    def __call__(self, x) -> float:
        return float(self.evaluate(np.asarray(x, dtype=float)))


class EvaluationError(RuntimeError):
    """The objective returned a non-finite value.

    Both routes check each measurement before adding noise and raise this
    instead of acting on it.  Carries the offending ``point`` and the
    returned ``value``.
    """

    def __init__(self, point, value: float):
        self.point = np.asarray(point, dtype=float).copy()
        self.value = float(value)
        super().__init__(
            f"objective returned non-finite value {value!r} at {self.point!r}"
        )


def make_sphere(dimension: int = 2) -> ObjectiveFunction:
    """``f(x) = sum(x_i^2)`` with minimizer at the origin."""

    def f(x: np.ndarray) -> float:
        return float(np.dot(x, x))

    def g(x: np.ndarray) -> np.ndarray:
        return 2.0 * np.asarray(x, dtype=float)

    def h(x: np.ndarray) -> np.ndarray:
        return 2.0 * np.eye(dimension)

    return ObjectiveFunction(
        name="sphere",
        dimension=dimension,
        evaluate=f,
        gradient=g,
        hessian=h,
        known_minimizers=[np.zeros(dimension)],
        known_min_value=0.0,
    )


def make_aniso_quadratic() -> ObjectiveFunction:
    """Anisotropic 2-D quadratic ``f(x) = x1^2 + 5 x2^2``, minimizer (0, 0)."""
    H = np.diag([2.0, 10.0])

    def f(x: np.ndarray) -> float:
        return float(x[0] * x[0] + 5.0 * x[1] * x[1])

    def g(x: np.ndarray) -> np.ndarray:
        return np.array([2.0 * x[0], 10.0 * x[1]])

    def h(x: np.ndarray) -> np.ndarray:
        return H.copy()

    return ObjectiveFunction(
        name="aniso_quadratic",
        dimension=2,
        evaluate=f,
        gradient=g,
        hessian=h,
        known_minimizers=[np.zeros(2)],
        known_min_value=0.0,
    )


def make_rosenbrock() -> ObjectiveFunction:
    """Mildly stiff valley ``f(x) = (1 - x1)^2 + 10 (x2 - x1^2)^2``.

    Coefficient 10 (not the classic 100); unique minimizer (1, 1), f* = 0.
    """

    def f(x: np.ndarray) -> float:
        a = 1.0 - x[0]
        b = x[1] - x[0] * x[0]
        return float(a * a + 10.0 * b * b)

    def g(x: np.ndarray) -> np.ndarray:
        b = x[1] - x[0] * x[0]
        return np.array(
            [-2.0 * (1.0 - x[0]) - 40.0 * x[0] * b, 20.0 * b]
        )

    def h(x: np.ndarray) -> np.ndarray:
        b = x[1] - x[0] * x[0]
        return np.array(
            [
                [2.0 - 40.0 * b + 80.0 * x[0] * x[0], -40.0 * x[0]],
                [-40.0 * x[0], 20.0],
            ]
        )

    return ObjectiveFunction(
        name="rosenbrock",
        dimension=2,
        evaluate=f,
        gradient=g,
        hessian=h,
        known_minimizers=[np.ones(2)],
        known_min_value=0.0,
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
        r = np.asarray(x, dtype=float) - x_star
        return float(0.5 * r @ H @ r)

    def g(x: np.ndarray) -> np.ndarray:
        return H @ (np.asarray(x, dtype=float) - x_star)

    def h(x: np.ndarray) -> np.ndarray:
        return H.copy()

    return ObjectiveFunction(
        name=f"random_spd_quadratic(n={dimension}, seed={seed})",
        dimension=dimension,
        evaluate=f,
        gradient=g,
        hessian=h,
        known_minimizers=[x_star.copy()],
        known_min_value=0.0,
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
        hessian=lambda x: np.zeros((dimension, dimension)),
        known_minimizers=None,
        known_min_value=value,
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
    ``ConfigError`` when the builder is missing a required parameter or is
    given one it does not take.
    """
    try:
        builder = registry[name]
    except KeyError:
        raise KeyError(f"unknown {what} {name!r}; known: {sorted(registry)}") from None
    try:
        return builder(**params)
    except TypeError as exc:
        raise ConfigError([f"{what} {name!r}: {exc}"]) from None


def get_objective(name: str, **params) -> ObjectiveFunction:
    """Build a registered objective by name (see `build_registered`)."""
    return build_registered("objective", OBJECTIVE_BUILDERS, name, params)
