"""Command-line interface: reproducible experiment runs, benchmark suites,
and a threshold table.

Subcommands
-----------
``run <scenario-or-config.json>``
    Execute a closed-loop experiment from a bundled scenario name or a JSON
    config file; writes ``arc.csv``, ``config.json`` (exact echo),
    ``summary.json`` (and ``noise.csv`` for non-zero noise models) into a
    deterministic output directory.  Identical configs and seeds produce
    byte-identical artifacts (wall-clock time lives only in the summary).

``bench <suite>``
    Run a named benchmark suite (``convergence``, ``robustness``,
    ``adversarial``) and write a CSV of results.

``rho-table --min A --max B --points K``
    Tabulate the sufficient-decrease threshold on a log-spaced grid.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import (
    AlgorithmConfig,
    ConfigError,
    DirectionSet,
    EvaluationError,
    StopRule,
    get_objective,
    log_rho,
    rho,
    rho_underflows,
)
from . import hybrid, noise as noise_mod, plants, rsp

__all__ = [
    "ExperimentConfig",
    "RunSummary",
    "SCENARIOS",
    "scenario_config",
    "run_experiment",
    "rho_table",
    "bench_convergence",
    "bench_robustness",
    "bench_adversarial",
    "main",
]

_C8 = math.cos(math.pi / 8.0)
_S8 = math.sin(math.pi / 8.0)


def _reject_unknown(what: str, data: dict, known: Sequence[str]) -> None:
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(
            [f"unknown {what}(s): {sorted(unknown)} (known: {sorted(known)})"]
        )


@dataclass
class ExperimentConfig:
    """Complete, serializable description of one closed-loop experiment."""

    name: str
    objective: dict
    plant: dict
    algorithm: dict
    initial: dict
    stop: dict
    noise: dict = field(default_factory=lambda: {"kind": "zero"})
    seed: int = 0
    flow_samples_per_period: int = 0
    artifact_choices: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = [f.name for f in dataclasses.fields(cls)]
        _reject_unknown("config field", data, known)
        missing = {"name", "objective", "plant", "algorithm", "initial", "stop"} - set(
            data
        )
        if missing:
            raise ConfigError([f"missing config field(s): {sorted(missing)}"])
        return cls(**data)


@dataclass
class RunSummary:
    """Condensed outcome of a run, serialized to ``summary.json``."""

    scenario: str
    seed: int
    jumps: int
    stopped: str
    final_x: list[float]
    final_f: float
    final_z: float
    final_phi: float
    final_delta: float
    case_counts: dict
    z_violations_after_warmup: int
    distance_to_minimizer: Optional[float]
    wall_clock_seconds: float

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _scenario_fig1() -> dict:
    return {
        "name": "fig1_quadratic_pointmass",
        "objective": {"name": "aniso_quadratic"},
        "plant": {"kind": "point_mass", "dimension": 2, "substeps": 100},
        "algorithm": {
            "gamma": 1.2,
            "theta": 0.5,
            "mu": 0.15,
            "lambda_s": 0.001,
            "lambda_t": 5.0,
            "delta_det": 0.001,
            "tau_star": 0.1,
            "phi_min": 0.0,
        },
        "initial": {
            "x": [1.5, 0.0],
            "controller": {
                "dirs": [[_C8, _S8], [-_S8, _C8]],
                "deltas": [0.01, 0.01],
                "phi": 0.01,
                "v": [_C8, _S8],
                "delta": 0.01,
                "z": 0.0,
            },
        },
        "stop": {"max_jumps": 2000},
        "noise": {"kind": "zero"},
        "seed": 0,
        "flow_samples_per_period": 0,
        "artifact_choices": {
            "tau_star": "sampling period 0.1 s chosen as the artifact default",
            "opening_direction": (
                "the first line minimization walks the OLDEST stored direction "
                "while its bookkeeping slot is the newest, matching the "
                "published initialization"
            ),
        },
    }


def _scenario_fig2() -> dict:
    return {
        "name": "fig2_rosenbrock_dubins",
        "objective": {"name": "rosenbrock"},
        "plant": {"kind": "dubins", "v_max": 10.0, "u_max": 80.0, "substeps": 100},
        "algorithm": {
            "gamma": 1.2,
            "theta": 0.5,
            "mu": 0.15,
            "lambda_s": 0.001,
            "lambda_t": 5.0,
            "delta_det": 0.001,
            "tau_star": 0.1,
            "phi_min": 0.0,
        },
        "initial": {
            "x": [1.5, 0.0],
            "heading": 0.0,
            "controller": {
                "dirs": [[_C8, _S8], [-_S8, _C8]],
                "deltas": [0.05, 0.05],
                "phi": 0.05,
                "v": [_C8, _S8],
                "delta": 0.05,
                "z": 0.0,
            },
        },
        "stop": {"max_jumps": 10000},
        "noise": {"kind": "zero"},
        "seed": 0,
        "flow_samples_per_period": 0,
        "artifact_choices": {
            "scale": (
                "initial step sizes and step-box scale set to 0.05 (keeping "
                "the published delta == phi ratio) so the valley crossing "
                "completes within the 1e4-jump budget; at 0.01 the same "
                "trajectory needs ~1.3e4 jumps to reach the 0.3 ball"
            ),
            "u_max": (
                "turn-rate limit raised to 80 rad/s so a worst-case pi "
                "reversal (pi/80 s) leaves enough of the 0.1 s period to "
                "cover the largest admissible step (lambda_t * phi = 0.25) "
                "at the 10 m/s speed limit"
            ),
            "heading": "initial heading 0 rad (artifact default)",
            "tau_star": "sampling period 0.1 s chosen as the artifact default",
        },
    }


SCENARIOS = {
    "fig1_quadratic_pointmass": _scenario_fig1,
    "fig2_rosenbrock_dubins": _scenario_fig2,
}


def scenario_config(name: str) -> ExperimentConfig:
    """Bundled scenario by name."""
    try:
        return ExperimentConfig.from_dict(SCENARIOS[name]())
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; bundled: {sorted(SCENARIOS)}"
        ) from None


def _build_plant(spec: dict):
    spec = dict(spec)
    kind = spec.pop("kind")
    return plants.get_plant(kind, **spec)


def _build_objective(spec: dict):
    spec = dict(spec)
    name = spec.pop("name")
    return get_objective(name, **spec)


def _build_noise(spec: dict, seed: int):
    spec = dict(spec)
    kind = spec.pop("kind", "zero")
    if kind == "bounded_random":
        spec.setdefault("seed", seed)
    return noise_mod.get_noise(kind, **spec)


_INITIAL_KEYS = ("x", "controller", "heading")  # heading: Dubins only
_CONTROLLER_KEYS = ("dirs", "deltas", "phi", "v", "delta", "z")
_STOP_KEYS = ("max_jumps", "max_evaluations", "phi_threshold")


def _build_controller(spec: dict) -> hybrid.ControllerState:
    _reject_unknown("initial.controller key", spec, _CONTROLLER_KEYS)
    return hybrid.make_controller(
        dirs=[np.asarray(d, dtype=float) for d in spec["dirs"]],
        deltas=[float(s) for s in spec["deltas"]],
        phi=float(spec["phi"]),
        v=spec.get("v"),
        delta=spec.get("delta"),
        z=float(spec.get("z", 0.0)),
    )


def run_experiment(
    config: ExperimentConfig, out_dir: Optional[str] = None
) -> tuple[hybrid.HybridArc, RunSummary]:
    """Execute one closed-loop experiment and (optionally) write artifacts.

    Returns the in-memory arc and the summary.  When ``out_dir`` is given the
    directory receives ``arc.csv``, ``config.json``, ``summary.json`` and,
    for non-zero noise models, ``noise.csv``.  Raises `ConfigError` for an
    invalid algorithm, a key no part of the run reads, or a parameter a
    builder does not take.
    """
    try:
        algo = AlgorithmConfig(**config.algorithm)
    except TypeError as exc:
        raise ConfigError([f"algorithm: {exc}"]) from None
    _reject_unknown("stop key", config.stop, _STOP_KEYS)

    objective = _build_objective(config.objective)
    plant = _build_plant(config.plant)
    model = _build_noise(config.noise, config.seed)
    xc0 = _build_controller(config.initial["controller"])

    _reject_unknown(
        "initial key",
        config.initial,
        _INITIAL_KEYS if plant.kind == "dubins" else _INITIAL_KEYS[:2],
    )
    x0 = np.asarray(config.initial["x"], dtype=float)
    if plant.kind == "dubins":
        xi0 = plant.initial_state(x0, float(config.initial.get("heading", 0.0)))
    else:
        xi0 = plant.initial_state(x0)

    stop = StopRule(**config.stop)

    start = time.perf_counter()
    arc = hybrid.run_closed_loop(
        plant,
        objective,
        xi0,
        xc0,
        algo,
        stop,
        noise=None if model.kind == "zero" else model,
        flow_samples_per_period=config.flow_samples_per_period,
    )
    elapsed = time.perf_counter() - start

    final = arc.final_sample()
    jumps = arc.jump_samples()
    case_counts: dict[str, int] = {}
    for s in jumps:
        case_counts[s.case.value] = case_counts.get(s.case.value, 0) + 1

    warm = [s for s in jumps if s.j >= 3]
    violations_count = sum(
        1
        for a, b in zip(warm, warm[1:])
        if b.controller.z > a.controller.z + 1e-12
    )

    dist: Optional[float] = None
    if objective.known_minimizers:
        dist = min(
            float(np.linalg.norm(final.plant.x - m))
            for m in objective.known_minimizers
        )

    summary = RunSummary(
        scenario=config.name,
        seed=config.seed,
        jumps=len(jumps),
        stopped=arc.stopped,
        final_x=[float(v) for v in final.plant.x],
        final_f=float(objective(final.plant.x)),
        final_z=float(final.controller.z),
        final_phi=float(final.controller.phi),
        final_delta=float(final.controller.delta),
        case_counts=dict(sorted(case_counts.items())),
        z_violations_after_warmup=violations_count,
        distance_to_minimizer=dist,
        wall_clock_seconds=elapsed,
    )

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "arc.csv"), "w", newline="") as fp:
            arc.write_csv(fp)
        with open(os.path.join(out_dir, "config.json"), "w") as fp:
            json.dump(config.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        with open(os.path.join(out_dir, "summary.json"), "w") as fp:
            json.dump(summary.to_dict(), fp, indent=2, sort_keys=True)
            fp.write("\n")
        if model.kind != "zero":
            with open(
                os.path.join(out_dir, "noise.csv"), "w", newline=""
            ) as fp:
                writer = csv.writer(fp, lineterminator="\n")
                writer.writerow(["k", "value"])
                writer.writerows(enumerate(map(float, model.history), start=1))
    return arc, summary


# ---------------------------------------------------------------------------
# rho table
# ---------------------------------------------------------------------------


def rho_table(min_delta: float, max_delta: float, points: int) -> list[dict]:
    """Tabulate the threshold on a log-spaced grid.

    ``min_delta == 0`` is allowed: the first row is the exact limit pair
    (0, 0) flagged ``limit`` and the remaining points are log-spaced ending
    at ``max_delta``.  Raises ``ValueError`` for a degenerate range.
    """
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    if min_delta < 0:
        raise ValueError(f"min must be >= 0, got {min_delta}")
    if not min_delta < max_delta:
        raise ValueError(
            f"min must be strictly below max, got min={min_delta}, max={max_delta}"
        )
    rows: list[dict] = []
    if min_delta == 0.0:
        rows.append({"delta": 0.0, "rho": 0.0, "log_rho": None, "flag": "limit"})
        grid = np.geomspace(max_delta / 10.0**6, max_delta, points - 1)
    else:
        grid = np.geomspace(min_delta, max_delta, points)
    for d in grid:
        d = float(d)
        rows.append(
            {
                "delta": d,
                "rho": rho(d),
                "log_rho": log_rho(d),
                "flag": "underflow" if rho_underflows(d) else "",
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Benchmark suites
# ---------------------------------------------------------------------------


def bench_convergence(seed: int = 0) -> list[dict]:
    """Sphere convergence across dimensions on the discrete route."""
    rows = []
    cfg = AlgorithmConfig()
    rng = np.random.default_rng(seed)
    for n in (1, 2, 3, 5):
        for rep in range(3):
            x0 = rng.uniform(-2.0, 2.0, size=n)
            state = rsp.run(
                get_objective("sphere", dimension=n),
                x0,
                cfg,
                StopRule(phi_threshold=1e-6, max_evaluations=60000),
            )
            rows.append(
                {
                    "dimension": n,
                    "rep": rep,
                    "start_norm": float(np.linalg.norm(x0)),
                    "final_norm": float(np.linalg.norm(state.x)),
                    "evaluations": state.evaluations,
                    "cycles": state.cycles,
                    "stopped": state.stopped,
                }
            )
    return rows


def bench_robustness(seed: int = 0) -> list[dict]:
    """Final error vs robust floor tightness under matched bounded noise."""
    rows = []
    lambda_s = 0.5
    for floor in (0.05, 0.1, 0.2):
        bound = noise_mod.robustness_bound(lambda_s, floor)
        errors = []
        for rep in range(10):
            cfg = AlgorithmConfig(
                lambda_s=lambda_s, lambda_t=5.0, mu=0.15, phi_min=floor
            )
            state = rsp.run(
                get_objective("sphere", dimension=2),
                np.array([2.0, 1.0]),
                cfg,
                StopRule(max_evaluations=3000),
                directions=DirectionSet(
                    [np.array([1.0, 0.0]), np.array([0.0, 1.0])], [0.5, 0.5]
                ),
                phi0=1.0,
                noise=noise_mod.BoundedRandomNoise(bound, seed=seed * 1000 + rep),
            )
            errors.append(float(np.linalg.norm(state.x)))
        rows.append(
            {
                "phi_floor": floor,
                "noise_bound": bound,
                "median_error": float(np.median(errors)),
                "max_error": float(np.max(errors)),
                "reps": len(errors),
            }
        )
    return rows


def bench_adversarial(seed: int = 0) -> list[dict]:
    """Jam certification across seeded starts.

    Uses a slow-contraction configuration (``mu=0.6, lambda_t=1.6``) and a
    budget inside the certified window: with the default contraction rate the
    step sizes shrink so fast that, in double precision, probe measurements
    round onto the stored best value after roughly 220 post-activation
    measurements and the tie-accepting decrease test ends the stall.  Slower
    contraction keeps the certified freeze window comfortably longer than the
    budget, so every row reports a certified stall.
    """
    rows = []
    rng = np.random.default_rng(seed)
    for rep in range(10):
        angle = float(rng.uniform(0.0, 2.0 * math.pi))
        x0 = np.array([1.5 * math.cos(angle), 1.5 * math.sin(angle)])
        report = noise_mod.jam_demo(
            get_objective("sphere", dimension=2),
            x0,
            AlgorithmConfig(mu=0.6, lambda_t=1.6),
            noise_bound=0.5,
            budget=700,
        )
        rows.append(
            {
                "rep": rep,
                "activation_index": report.activation_index,
                "frozen": report.frozen,
                "frozen_iterations": report.frozen_iterations,
                "min_certificate_margin": (
                    float(min(report.certificate_margins))
                    if report.certificate_margins
                    else None
                ),
            }
        )
    return rows


BENCH_SUITES = {
    "convergence": bench_convergence,
    "robustness": bench_robustness,
    "adversarial": bench_adversarial,
}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _default_out_root() -> str:
    return os.environ.get("DIRECTSEEK_OUT", "runs")


def _write_rows_csv(rows: list[dict], fp) -> None:
    if not rows:
        return
    writer = csv.writer(fp, lineterminator="\n")
    keys = list(rows[0].keys())
    writer.writerow(keys)
    for row in rows:
        writer.writerow(
            [
                repr(float(v))
                if isinstance(v, float)
                else ("" if v is None else v)
                for v in (row[k] for k in keys)
            ]
        )


def _cmd_run(args: argparse.Namespace) -> int:
    if args.list:
        for name in sorted(SCENARIOS):
            print(name)
        return 0
    if args.config is None:
        print("error: a scenario name or config path is required", file=sys.stderr)
        return 2
    try:
        if args.config in SCENARIOS:
            config = scenario_config(args.config)
        else:
            if not os.path.exists(args.config):
                print(
                    f"error: {args.config!r} is neither a bundled scenario "
                    f"({sorted(SCENARIOS)}) nor a config file",
                    file=sys.stderr,
                )
                return 2
            with open(args.config) as fp:
                config = ExperimentConfig.from_dict(json.load(fp))
        if args.seed is not None:
            config.seed = args.seed
        if args.max_jumps is not None:
            config.stop["max_jumps"] = args.max_jumps
        out_dir = args.out or os.path.join(
            _default_out_root(), f"{config.name}_seed{config.seed}"
        )
        _arc, summary = run_experiment(config, out_dir)
    except ConfigError as exc:
        print("error: invalid configuration:", file=sys.stderr)
        for v in exc.violations:
            print(f"  - {v}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (
        plants.SteeringError,
        plants.IntegrationError,
        hybrid.AutomatonError,
        EvaluationError,
    ) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {out_dir}")
    for key, value in sorted(summary.to_dict().items()):
        print(f"  {key}: {value}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    suite = BENCH_SUITES.get(args.suite)
    if suite is None:
        print(
            f"error: unknown suite {args.suite!r}; known: {sorted(BENCH_SUITES)}",
            file=sys.stderr,
        )
        return 2
    rows = suite(seed=args.seed)
    out_dir = args.out or _default_out_root()
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"bench_{args.suite}.csv")
    with open(path, "w", newline="") as fp:
        _write_rows_csv(rows, fp)
    for row in rows:
        print("  ".join(f"{k}={v}" for k, v in row.items()))
    print(f"wrote {path}")
    return 0


def _cmd_rho_table(args: argparse.Namespace) -> int:
    try:
        rows = rho_table(args.min, args.max, args.points)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", newline="") as fp:
            _write_rows_csv(rows, fp)
        print(f"wrote {args.out}")
    else:
        _write_rows_csv(rows, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="directseek",
        description="Sampled-data conjugate-direction direct search",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a bundled scenario or a JSON config")
    p_run.add_argument(
        "config", nargs="?", help="bundled scenario name or path to a config JSON"
    )
    p_run.add_argument("--seed", type=int, default=None, help="override the seed")
    p_run.add_argument(
        "--max-jumps", type=int, default=None, help="override the jump budget"
    )
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument(
        "--list", action="store_true", help="list bundled scenarios and exit"
    )
    p_run.set_defaults(func=_cmd_run)

    p_bench = sub.add_parser("bench", help="run a benchmark suite")
    p_bench.add_argument("suite", help=f"one of {sorted(BENCH_SUITES)}")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--out", default=None, help="output directory")
    p_bench.set_defaults(func=_cmd_bench)

    p_rho = sub.add_parser("rho-table", help="tabulate the decrease threshold")
    p_rho.add_argument("--min", type=float, required=True)
    p_rho.add_argument("--max", type=float, required=True)
    p_rho.add_argument("--points", type=int, default=10)
    p_rho.add_argument("--out", default=None, help="output CSV file")
    p_rho.set_defaults(func=_cmd_rho_table)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
