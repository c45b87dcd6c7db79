"""End-to-end acceptance checks, one test per shipping criterion.

Each criterion prints as a single pass/fail line under ``pytest -v``.  The
two bundled scenario arcs are computed once per module and shared between
the criteria that inspect them.
"""

import json
import time

import numpy as np
import pytest

from directseek import cli, core, rsp
from directseek.core import AlgorithmConfig, StopRule
from directseek.hybrid import (
    JumpCase,
    equivalence_check,
    make_controller,
    run_closed_loop,
)
from directseek.noise import BoundedRandomNoise, jam_demo, robustness_bound
from directseek.plants import ExactPlant, PlantState
from exact_mode import exact_cycles, spd_hessian

AXES = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


@pytest.fixture(scope="module")
def fig1_run():
    config = cli.scenario_config("fig1_quadratic_pointmass")
    start = time.perf_counter()
    arc, summary = cli.run_experiment(config, None)
    elapsed = time.perf_counter() - start
    return config, arc, summary, elapsed


@pytest.fixture(scope="module")
def fig2_run():
    config = cli.scenario_config("fig2_rosenbrock_dubins")
    arc, summary = cli.run_experiment(config, None)
    return config, arc, summary


def check_grammar(cases):
    """Assert a jump-case sequence is a chain of complete line
    minimizations -- (D1+ D2 D5) or (D2 D3 D4* D2 D5) -- with at most one
    truncated unit at the end of the run."""
    i, L = 0, len(cases)
    while i < L:
        if cases[i] is JumpCase.D1:
            while i < L and cases[i] is JumpCase.D1:
                i += 1
            if i == L:
                return
            assert cases[i] is JumpCase.D2, f"index {i}: {cases[i]}"
            i += 1
            if i == L:
                return
            assert cases[i] is JumpCase.D5, f"index {i}: {cases[i]}"
            i += 1
        elif cases[i] is JumpCase.D2:
            i += 1
            if i == L:
                return
            assert cases[i] is JumpCase.D3, f"index {i}: {cases[i]}"
            i += 1
            while i < L and cases[i] is JumpCase.D4:
                i += 1
            if i == L:
                return
            assert cases[i] is JumpCase.D2, f"index {i}: {cases[i]}"
            i += 1
            if i == L:
                return
            assert cases[i] is JumpCase.D5, f"index {i}: {cases[i]}"
            i += 1
        else:
            raise AssertionError(
                f"line minimization cannot start with {cases[i]} (index {i})"
            )


def test_criterion_01_quadratic_pointmass_scenario(fig1_run):
    # bundled quadratic/point-mass run converges within its jump budget
    # and completes in interactive time
    _, _, summary, elapsed = fig1_run
    assert elapsed < 5.0
    assert summary.jumps <= 2000
    assert np.linalg.norm(summary.final_x) <= 0.05
    assert summary.final_f <= 5e-3


def test_criterion_02_rosenbrock_dubins_scenario(fig2_run):
    # bundled Rosenbrock/Dubins run enters the 0.3-ball around (1, 1)
    # within its jump budget; the reference never rises after warm-up
    _, arc, summary = fig2_run
    assert summary.jumps <= 10_000
    target = np.array([1.0, 1.0])
    dists = [np.linalg.norm(s.plant.x - target) for s in arc.jump_samples()]
    assert min(dists) <= 0.3
    assert summary.z_violations_after_warmup == 0


def test_criterion_03_decrease_threshold_properties():
    # monotone on a 10^4-point grid, continuous across the branch point,
    # and tangent to zero past fifth order near the origin
    grid = np.geomspace(1e-3, 10.0, 10_000)
    vals = np.array([core.rho(d) for d in grid])
    assert (np.diff(vals) >= 0.0).all()
    positive = vals[vals > 0.0]
    assert (np.diff(positive) > 0.0).all()

    e = float(np.e)
    at = core.rho(e)
    assert abs(at - core.rho(np.nextafter(e, 0.0))) <= 1e-10
    assert abs(core.rho(np.nextafter(e, np.inf)) - at) <= 1e-10

    small = np.append(np.geomspace(1e-8, 0.05, 2_000), 0.05)
    assert max(core.rho(d) / d**5 for d in small) <= 1e-6


def test_criterion_04_exact_conjugate_cycles():
    # 50 seeded SPD quadratics: n(n+1) exact line minimizations reach the
    # minimizer and every accepted direction is conjugate to its partners
    for case_index in range(50):
        n = 2 if case_index < 25 else 3
        objective = core.make_random_spd_quadratic(dimension=n, seed=case_index)
        rng = np.random.default_rng(1000 + case_index)
        x0 = rng.uniform(-2.0, 2.0, size=n)
        H = spd_hessian(n, case_index)
        x_star = objective.known_minimizers[0]
        report = exact_cycles(
            H, x_star, x0, [np.eye(n)[i] for i in range(n)],
            cycles=n, delta_det=1e-12,
        )
        assert report.line_minimizations == n * (n + 1)
        assert np.linalg.norm(report.final_x - x_star) <= 1e-6
        for rec in report.candidates:
            if not rec.accepted:
                continue
            for d in [rec.re_explored] + list(rec.prior_accepted):
                residual = abs(rec.candidate @ H @ d)
                scale = np.linalg.norm(rec.candidate) * np.linalg.norm(H @ d)
                assert residual <= 1e-8 * scale


def test_criterion_05_dual_route_trajectory_equivalence():
    # the controller automaton and the discrete walker visit identical
    # points, checked over 250 noiseless jumps on two objectives
    cfg = AlgorithmConfig()
    for objective in (core.make_aniso_quadratic(), core.make_rosenbrock()):
        x0 = np.array([1.5, 0.0])
        xc0 = make_controller(AXES, [1.0, 1.0], 1.0)
        arc = run_closed_loop(
            ExactPlant(), objective, PlantState(x0.copy()), xc0, cfg,
            StopRule(max_jumps=250),
        )
        state = rsp.run(objective, x0, cfg, StopRule(max_evaluations=250))
        report = equivalence_check(arc, state.iterate_log, tol=1e-9,
                                   min_points=200)
        assert report.ok, report.first_divergence
        assert report.compared >= 200
        assert report.max_abs_error <= 1e-9


def test_criterion_06_jam_freeze_certificate():
    # a matched jam freezes the anchor bit-for-bit for 500+ measurements,
    # with the per-measurement stall inequality certified non-negative
    report = jam_demo(
        core.make_sphere(2), np.array([1.0, 0.0]),
        AlgorithmConfig(mu=0.6, lambda_t=1.6), noise_bound=0.5, budget=600,
    )
    assert report.activation_index is not None
    assert report.frozen
    assert report.frozen_iterations >= 500
    assert report.certificate_margins
    assert all(m >= 0.0 for m in report.certificate_margins)


def test_criterion_07_robust_floor_noise_immunity():
    # with the floor sized to the noise bound, every anchor the controller
    # commits at a close is a true-objective descent (the raw measurements
    # jitter inside the +/- bound band, the committed anchors must not);
    # at ten times the bound the same check must fail for some seed
    objective = core.make_sphere(2)
    cfg = AlgorithmConfig(lambda_s=0.5, phi_min=0.5)
    bound = robustness_bound(0.5, 0.5)

    def violating_seeds(noise_bound):
        bad = 0
        for seed in range(20):
            xc0 = make_controller(AXES, [0.5, 0.5], 1.0)
            arc = run_closed_loop(
                ExactPlant(), objective, PlantState(np.array([1.5, -0.8])),
                xc0, cfg, StopRule(max_jumps=400),
                noise=BoundedRandomNoise(noise_bound, seed=seed),
            )
            anchors = [objective(s.plant.x) for s in arc.jump_samples()
                       if s.case is JumpCase.D5 and s.j >= 3]
            if any(b > a + 1e-12 for a, b in zip(anchors, anchors[1:])):
                bad += 1
        return bad

    assert violating_seeds(bound) == 0
    assert violating_seeds(10 * bound) >= 1


def test_criterion_08_closed_loop_semantics(fig1_run, fig2_run):
    # on both bundled arcs: each period moves the plant by exactly the
    # commanded probe, jumps land on the period grid j * tau_star, and the
    # jump-case sequence parses as complete line minimizations
    for config, arc in ((fig1_run[0], fig1_run[1]), (fig2_run[0], fig2_run[1])):
        cfg = AlgorithmConfig(**config.algorithm)
        jumps = list(arc.jump_samples())
        rows = arc.rows[arc.jump_rows()]
        assert len(rows) == len(jumps)
        for prev, nxt, c in zip(jumps, jumps[1:], rows):
            move = int(c["p"]) * float(c["delta"]) * arc.directions[c["v"]]
            err = np.linalg.norm(nxt.plant.x - prev.plant.x - move)
            assert err <= 1e-6 * max(1.0, float(np.linalg.norm(move)))
        for sample in jumps:
            assert sample.t == sample.j * cfg.tau_star
        check_grammar([s.case for s in jumps])


def test_criterion_09_constant_objective_contraction():
    # on a constant objective every cycle is blocked: the gauge contracts
    # by exactly mu per cycle, the iterate never moves, and the stored
    # steps respect the clip box at every horizon
    objective = core.get_objective("constant", dimension=2)
    cfg = AlgorithmConfig()
    x0 = np.array([0.7, -0.4])
    for cycles in range(1, 5):
        state = rsp.run(objective, x0.copy(), cfg,
                        StopRule(max_cycles=cycles, max_evaluations=10_000))
        assert state.stopped == "max_cycles"
        expected = 1.0
        for _ in range(cycles):
            expected *= cfg.mu
        assert state.phi == expected
        assert (state.x == x0).all()
        lo = cfg.lambda_s * state.phi * (1 - 1e-12)
        hi = cfg.lambda_t * state.phi * (1 + 1e-12)
        for step in state.directions.step_sizes:
            assert lo <= step <= hi


def test_criterion_10_artifact_determinism(tmp_path):
    # identical (config, seed) -> byte-identical arc.csv, config.json and
    # noise.csv; summaries equal except for wall-clock time
    config = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
    config["name"] = "determinism_check"
    config["stop"] = {"max_jumps": 300}
    config["noise"] = {"kind": "bounded_random", "bound": 1e-3}
    config_path = tmp_path / "experiment.json"
    config_path.write_text(json.dumps(config))

    out_dirs = []
    for tag in ("first", "second"):
        out = tmp_path / tag
        assert cli.main(["run", str(config_path), "--out", str(out)]) == 0
        out_dirs.append(out)

    for fname in ("arc.csv", "config.json", "noise.csv"):
        assert (out_dirs[0] / fname).read_bytes() == (
            out_dirs[1] / fname
        ).read_bytes(), fname
    summaries = [json.loads((out / "summary.json").read_text())
                 for out in out_dirs]
    for summary in summaries:
        assert summary.pop("wall_clock_seconds") >= 0.0
    assert summaries[0] == summaries[1]
