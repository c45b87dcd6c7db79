"""The three benchmark workloads: their inputs, one repetition each, and the
checks on what a repetition computed.

Each workload puts the work in a different layer of ``directseek``:

- ``fig2_dubins``: the bundled ``fig2_rosenbrock_dubins`` scenario, unchanged.
  RK4 flow of the Dubins plant dominates, so plant changes show here.  The
  seed is ignored: the noise is zero and the start is fixed.
- ``controller_exact_noisy``: the closed loop on the ``exact`` plant under
  bounded random noise.  The plant is almost free, so the controller core
  (classify, jump maps, arc recording) and artifact writing do the work.
- ``walker_noisy``: the discrete walker on the same objective, algorithm and
  noise.  No plant, no arc, no artifacts.

Importing this module puts the checkout's ``src`` first on ``sys.path`` and
refuses to run against any other copy of the program.
"""
from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

if not (SRC / "directseek" / "__init__.py").is_file():
    raise ImportError(f"the program source is missing: no {SRC / 'directseek'}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import directseek  # noqa: E402
from directseek import cli, core, hybrid, noise as noise_mod, plants, rsp  # noqa: E402

if Path(directseek.__file__).resolve().parent != SRC / "directseek":
    raise ImportError(f"imported directseek from {directseek.__file__}, not {SRC}")

# Errors the program raises for a run it cannot complete.  A repetition that
# raises one of these counts as failed; the run goes on.
RUN_ERRORS = (
    plants.SteeringError,
    plants.IntegrationError,
    rsp.EvaluationError,
    core.ConfigError,
    hybrid.AutomatonError,
)

# Seeds with a recorded reference in ``reference.json``: 0 to
# RECORDED_SEEDS - 1, and HELD_OUT_SEED, a seed kept out of tuning on which a
# later performance claim must also hold.  Any other seed is folded onto the
# recorded ones, so every full-budget repetition has a reference to match.
RECORDED_SEEDS = 32
HELD_OUT_SEED = 1000

NOISY_DIMENSION = 4
NOISY_STEPS = 20_000
NOISE_BOUND = 1e-6
FIG2_STEPS = 10_000
FIG2_BALL = 0.3

# Walker log kinds named by the jump case the controller takes for the same
# measurement.
_WALKER_CASES = {
    ("probe_pos", True): "D1",
    ("probe_pos", False): "D2",
    ("probe_neg", False): "D2",
    ("reanchor", False): "D3",
    ("probe_neg", True): "D4",
    ("close", False): "D5",
}

# Artifacts that must be byte-identical for one (config, seed); summary.json
# carries wall-clock time and is left out.
_REPRODUCIBLE = ("arc.csv", "config.json", "noise.csv")


@dataclass
class Outcome:
    """What one repetition computed, reduced to values that must repeat."""

    stopped: str
    steps: int
    cases: dict
    distance: float
    accepted: int
    arc_rows: int = 0
    log_records: int = 0
    artifact_bytes: int = 0
    digests: dict = field(default_factory=dict)
    ball_reached: bool = True
    z_violations: int = 0


def noisy_experiment(seed: int, steps: int = NOISY_STEPS) -> cli.ExperimentConfig:
    """The ``controller_exact_noisy`` experiment for one seed."""
    n = NOISY_DIMENSION
    return cli.ExperimentConfig.from_dict(
        {
            "name": "controller_exact_noisy",
            "objective": {"name": "random_spd_quadratic", "dimension": n, "seed": seed},
            "plant": {"kind": "exact", "dimension": n},
            "algorithm": {"lambda_s": 0.1, "phi_min": 0.001},
            "initial": {
                "x": [0.0] * n,
                "controller": {
                    "dirs": np.eye(n).tolist(),
                    "deltas": [0.5] * n,
                    "phi": 1.0,
                },
            },
            "stop": {"max_jumps": steps},
            "noise": {"kind": "bounded_random", "bound": NOISE_BOUND, "seed": seed},
            "seed": seed,
        }
    )


def _closed_loop_outcome(arc, summary, out_dir) -> Outcome:
    cases = dict(summary.case_counts)
    digests, size = {}, 0
    if out_dir is not None:
        for name in _REPRODUCIBLE:
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                data = Path(path).read_bytes()
                digests[name] = hashlib.sha256(data).hexdigest()
                size += len(data)
    return Outcome(
        stopped=summary.stopped,
        steps=summary.jumps,
        cases=cases,
        distance=float(summary.distance_to_minimizer),
        accepted=cases.get("D1", 0) + cases.get("D4", 0),
        arc_rows=len(arc.samples),
        artifact_bytes=size,
        digests=digests,
        z_violations=summary.z_violations_after_warmup,
    )


def _walker_outcome(state, objective) -> Outcome:
    cases: dict[str, int] = {}
    for record in state.iterate_log:
        case = _WALKER_CASES[(record.kind, record.accepted)]
        cases[case] = cases.get(case, 0) + 1
    return Outcome(
        stopped=state.stopped,
        steps=state.evaluations,
        cases=dict(sorted(cases.items())),
        distance=float(np.linalg.norm(state.x - objective.known_minimizers[0])),
        accepted=cases.get("D1", 0) + cases.get("D4", 0),
        log_records=len(state.iterate_log),
    )


class Fig2Dubins:
    """The bundled Rosenbrock/Dubins scenario; ``seed`` is ignored."""

    name = "fig2_dubins"
    budget = FIG2_STEPS
    stop_reason = "max_jumps"
    writes_artifacts = True

    def __init__(self, seed: int, steps: int = FIG2_STEPS):
        self.seed = seed
        self.steps = steps
        self.config = cli.scenario_config("fig2_rosenbrock_dubins")
        self.config.stop["max_jumps"] = steps

    def run_once(self, out_dir):
        return cli.run_experiment(self.config, out_dir)

    def outcome(self, result, out_dir) -> Outcome:
        arc, summary = result
        outcome = _closed_loop_outcome(arc, summary, out_dir)
        target = np.array([1.0, 1.0])
        closest = min(
            float(np.linalg.norm(s.plant.x - target)) for s in arc.jump_samples()
        )
        outcome.ball_reached = closest <= FIG2_BALL
        return outcome

    def cross_check(self, outcome: Outcome) -> list[str]:
        """Criterion 2: the noiseless reference never rises after warm-up,
        and the full budget reaches the ball around the minimizer."""
        errors = []
        if outcome.z_violations:
            errors.append(f"reference rose {outcome.z_violations} times after warm-up")
        if self.steps == self.budget and not outcome.ball_reached:
            errors.append(f"never entered the {FIG2_BALL}-ball around (1, 1)")
        return errors


class _Noisy:
    """Shared inputs of the two noisy workloads: one seed sets the objective
    and the noise."""

    budget = NOISY_STEPS

    def __init__(self, seed: int, steps: int = NOISY_STEPS):
        self.seed = seed
        self.steps = steps
        self.config = noisy_experiment(seed, steps)
        n = NOISY_DIMENSION
        self.objective = core.get_objective(
            "random_spd_quadratic", dimension=n, seed=seed
        )
        self.algorithm = core.AlgorithmConfig(**self.config.algorithm)
        self.stop = core.StopRule(max_evaluations=steps)
        self.directions = core.DirectionSet(
            [np.eye(n)[i] for i in range(n)], [0.5] * n
        )
        self.noise = noise_mod.BoundedRandomNoise(NOISE_BOUND, seed=seed)

    def walk(self):
        """One walker run from the start of the noise stream; returns the
        final walker state."""
        self.noise.reset()
        return rsp.run(
            self.objective,
            np.zeros(NOISY_DIMENSION),
            self.algorithm,
            self.stop,
            directions=self.directions,
            phi0=1.0,
            noise=self.noise,
        )

    def cross_check(self, outcome: Outcome) -> list[str]:
        """Run the other route once and compare it probe for probe."""
        arc, summary = cli.run_experiment(self.config, None)
        state = self.walk()
        report = hybrid.equivalence_check(
            arc, state.iterate_log, tol=1e-9, min_points=self.steps
        )
        errors = []
        if not report.ok:
            errors.append(f"walker and controller diverge: {report.detail}")
        walker_cases = _walker_outcome(state, self.objective).cases
        if walker_cases != dict(summary.case_counts):
            errors.append(
                f"walker cases {walker_cases} != controller cases "
                f"{dict(summary.case_counts)}"
            )
        return errors


class ControllerExactNoisy(_Noisy):
    name = "controller_exact_noisy"
    stop_reason = "max_jumps"
    writes_artifacts = True

    def run_once(self, out_dir):
        return cli.run_experiment(self.config, out_dir)

    def outcome(self, result, out_dir) -> Outcome:
        return _closed_loop_outcome(*result, out_dir)


class WalkerNoisy(_Noisy):
    name = "walker_noisy"
    stop_reason = "max_evaluations"
    writes_artifacts = False

    def run_once(self, out_dir):
        return self.walk()

    def outcome(self, result, out_dir) -> Outcome:
        return _walker_outcome(result, self.objective)


WORKLOADS = {
    cls.name: cls for cls in (Fig2Dubins, ControllerExactNoisy, WalkerNoisy)
}


def input_seed(seed: int) -> int:
    """The recorded seed that builds the inputs for ``--seed seed``."""
    return seed if seed == HELD_OUT_SEED else seed % RECORDED_SEEDS


def build(name: str, seed: int, steps: int | None = None):
    """Build one workload's inputs from ``input_seed(seed)``; ``steps``
    shrinks the budget for self-tests."""
    cls = WORKLOADS[name]
    seed = input_seed(seed)
    return cls(seed) if steps is None else cls(seed, steps)


def check(workload, outcome: Outcome, reference: dict | None) -> list[str]:
    """Compare one repetition with the recorded reference for its seed.

    Returns the list of mismatches (empty when the repetition is correct).
    """
    errors = []
    if outcome.stopped != workload.stop_reason:
        errors.append(f"stopped {outcome.stopped!r}, expected {workload.stop_reason!r}")
    if outcome.steps != workload.steps:
        errors.append(f"{outcome.steps} steps, expected {workload.steps}")
    if sum(outcome.cases.values()) != outcome.steps:
        errors.append(f"case counts {outcome.cases} do not sum to {outcome.steps}")
    if not math.isfinite(outcome.distance):
        errors.append(f"distance to the minimizer is {outcome.distance}")
    if reference is None:
        if workload.steps == workload.budget:
            errors.append(f"no reference recorded for seed {workload.seed}")
    else:
        for key in ("stopped", "steps", "cases"):
            if getattr(outcome, key) != reference[key]:
                errors.append(
                    f"{key} {getattr(outcome, key)!r} != reference {reference[key]!r}"
                )
        if abs(outcome.distance - reference["distance"]) > 1e-9:
            errors.append(
                f"distance {outcome.distance!r} != reference {reference['distance']!r}"
            )
    return errors
