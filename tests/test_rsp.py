"""Tests for the discrete-route walker: line minimization with sufficient
decrease, cycle mechanics, step-size laws, the conjugate-direction update,
and the exact-minimization mode used by the quadratic-termination checks."""
import copy
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from directseek import core, rsp
from directseek.core import AlgorithmConfig, DirectionSet, StopRule


def make_parabola():
    return core.ObjectiveFunction(
        "parabola", 1, lambda x: float(x[0] ** 2),
        gradient=lambda x: 2.0 * x,
        hessian=lambda x: np.array([[2.0]]),
        known_minimizers=[np.zeros(1)], known_min_value=0.0,
    )


def rotated_frame(step=0.01):
    a = math.pi / 8
    return DirectionSet(
        [np.array([math.cos(a), math.sin(a)]),
         np.array([-math.sin(a), math.cos(a)])],
        [step, step],
    )


class TestActiveSlot:
    def test_mapping(self):
        # counters 0 and n walk the newest slot n-1; 1..n-1 walk 0..n-2
        assert rsp.active_slot(0, 2) == 1
        assert rsp.active_slot(1, 2) == 0
        assert rsp.active_slot(2, 2) == 1
        assert rsp.active_slot(0, 3) == 2
        assert rsp.active_slot(1, 3) == 0
        assert rsp.active_slot(2, 3) == 1
        assert rsp.active_slot(3, 3) == 2
        assert rsp.active_slot(0, 1) == 0
        assert rsp.active_slot(1, 1) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            rsp.active_slot(3, 2)
        with pytest.raises(ValueError):
            rsp.active_slot(-1, 2)


class TestLineMinimize:
    def test_parabola_reaches_minimizer(self):
        # accepts 0.5 (0.25 <= 1 - rho(0.5) = 0.75), accepts 0.0
        # (0 <= 0.25 - 0.25 is a tie-accept), then both signs fail
        result = rsp.line_minimize(
            make_parabola(), np.array([1.0]), np.array([-1.0]),
            0.5, 1.0, AlgorithmConfig(gamma=1.0),
        )
        assert result.alpha == 1.0
        assert result.steps_taken == 2
        assert result.final_value == 0.0
        assert result.final_step == 0.5

    def test_blocked_at_minimizer(self):
        # from the bottom both signs fail: f(+-0.5) = 0.25 > 0 - 0.25
        result = rsp.line_minimize(
            make_parabola(), np.array([0.0]), np.array([1.0]),
            0.5, 1.0, AlgorithmConfig(gamma=1.0),
        )
        assert result.alpha == 0.0
        assert result.steps_taken == 0
        assert result.final_value == 0.0

    def test_axis_walk_on_quadratic(self):
        # f decreases 2.25 -> 1.0 -> 0.25 -> 0.0 with rho(0.5) = 0.25 margins
        result = rsp.line_minimize(
            core.make_aniso_quadratic(), np.array([1.5, 0.0]),
            np.array([-1.0, 0.0]), 0.5, 1.0, AlgorithmConfig(gamma=1.0),
        )
        assert result.alpha == 1.5
        assert result.steps_taken == 3
        assert result.final_value == 0.0
        assert result.final_step == 0.5

    def test_expansion_and_cap(self):
        # gamma = 1.2, lambda_t * phi = 2.5: steps 1, 1.2, 1.44, 1.728,
        # 2.0736, 2.48832 then the cap pins the step at 2.5
        result = rsp.line_minimize(
            make_parabola(), np.array([10.0]), np.array([-1.0]),
            1.0, 0.5, AlgorithmConfig(gamma=1.2, lambda_t=5.0),
        )
        assert result.steps_taken == 6
        assert_allclose(result.alpha, 9.92992, rtol=1e-12)
        assert_allclose(result.final_value, 0.004911206400000113, rtol=1e-12)
        assert result.final_step == 2.5

    def test_supplied_z_is_honored(self):
        # with a stale, too-good z nothing is accepted
        result = rsp.line_minimize(
            make_parabola(), np.array([1.0]), np.array([-1.0]),
            0.5, 1.0, AlgorithmConfig(gamma=1.0), z=-1.0,
        )
        assert result.alpha == 0.0
        assert result.steps_taken == 0

    def test_non_finite_measurement_raises(self):
        bad = core.ObjectiveFunction("bad", 1, lambda x: float("nan"))
        with pytest.raises(rsp.EvaluationError):
            rsp.line_minimize(bad, np.array([1.0]), np.array([-1.0]),
                              0.5, 1.0, AlgorithmConfig())
        pocket = core.ObjectiveFunction(
            "pocket", 1,
            lambda x: float("inf") if x[0] < 0 else float(x[0] ** 2),
        )
        with pytest.raises(rsp.EvaluationError) as excinfo:
            rsp.line_minimize(pocket, np.array([0.25]), np.array([-1.0]),
                              0.5, 1.0, AlgorithmConfig())
        assert excinfo.value.point[0] < 0


class TestRspCycle:
    def test_quadratic_first_cycle_decreases(self):
        obj = core.make_aniso_quadratic()
        x0 = np.array([1.5, 0.0])
        state = rsp.RspState(x=x0, directions=rotated_frame(), phi=0.01,
                             z=float(obj(x0)))
        state = rsp.rsp_cycle(obj, state, AlgorithmConfig())
        assert state.cycles == 1
        assert state.z < 2.25

    def test_constant_objective_blocks(self):
        obj = core.get_objective("constant", dimension=2)
        x0 = np.array([0.7, -0.3])
        cfg = AlgorithmConfig()
        state = rsp.RspState(x=x0.copy(), directions=rotated_frame(step=1.0),
                             phi=1.0, z=0.0)
        state = rsp.rsp_cycle(obj, state, cfg)
        assert_array_equal(state.x, x0)
        assert state.phi == cfg.mu * 1.0
        assert state.blocked_cycles == 1

    def test_degenerate_directions_rejected(self):
        ds = DirectionSet([np.array([1.0, 0.0]), np.array([2.0, 0.0])],
                          [0.5, 0.5])
        state = rsp.RspState(x=np.zeros(2), directions=ds, phi=1.0, z=0.0)
        with pytest.raises(core.ConfigError):
            rsp.rsp_cycle(core.make_sphere(2), state, AlgorithmConfig())


class TestRun:
    def test_requires_a_stop_limit(self):
        with pytest.raises(ValueError):
            rsp.run(make_parabola(), np.array([1.0]), AlgorithmConfig(),
                    StopRule())

    def test_rejects_invalid_config(self):
        with pytest.raises(core.ConfigError):
            rsp.run(make_parabola(), np.array([1.0]),
                    AlgorithmConfig(theta=1.0), StopRule(max_cycles=1))

    def test_robust_mode_requires_independent_directions(self):
        ds = DirectionSet([np.array([1.0, 0.0]), np.array([2.0, 0.0])],
                          [1.0, 1.0])
        with pytest.raises(core.ConfigError, match="robust"):
            rsp.run(core.make_sphere(2), np.array([1.0, 1.0]),
                    AlgorithmConfig(phi_min=0.1), StopRule(max_cycles=3),
                    directions=ds)

    def test_one_dimensional_parabola(self):
        state = rsp.run(make_parabola(), np.array([1.0]), AlgorithmConfig(),
                        StopRule(phi_threshold=1e-8))
        assert abs(state.x[0]) <= 1e-3
        assert state.stopped == "phi_threshold"

    def test_quadratic_rotated_frame_initialization(self):
        state = rsp.run(
            core.make_aniso_quadratic(), np.array([1.5, 0.0]),
            AlgorithmConfig(), StopRule(phi_threshold=1e-6),
            directions=rotated_frame(), phi0=0.01,
        )
        assert np.linalg.norm(state.x) <= 1e-2

    def test_valley_function_long_run(self):
        state = rsp.run(
            core.make_rosenbrock(), np.array([1.5, 0.0]),
            AlgorithmConfig(), StopRule(max_cycles=5000),
            directions=rotated_frame(), phi0=0.01,
        )
        assert np.linalg.norm(state.x - np.array([1.0, 1.0])) <= 0.3

    def test_evaluation_budget_respected(self):
        state = rsp.run(core.make_sphere(2), np.array([1.0, 1.0]),
                        AlgorithmConfig(), StopRule(max_evaluations=57))
        assert state.evaluations == 57
        assert len(state.iterate_log) == 57
        assert state.stopped == "max_evaluations"

    def test_log_indices_are_consecutive(self):
        state = rsp.run(core.make_sphere(2), np.array([1.0, 1.0]),
                        AlgorithmConfig(), StopRule(max_cycles=4))
        assert [r.index for r in state.iterate_log] == list(
            range(1, len(state.iterate_log) + 1)
        )
        assert state.evaluations == len(state.iterate_log)


def recording_quadratic(seen):
    """The anisotropic quadratic, logging each argument and a copy of it."""
    base = core.make_aniso_quadratic()

    def evaluate(x):
        seen.append((x, x.copy()))
        return base.evaluate(x)

    return core.ObjectiveFunction("recording", 2, evaluate)


def assert_same_records(before, after):
    assert len(after) >= len(before)
    for old, new in zip(before, after):
        assert new.x.tobytes() == old.x.tobytes()
        assert new.anchor.tobytes() == old.anchor.tobytes()
        assert (new.index, new.cycle, new.slot, new.step, new.measured,
                new.kind, new.accepted, new.delta) == (
            old.index, old.cycle, old.slot, old.step, old.measured,
            old.kind, old.accepted, old.delta)


class TestIterateLog:
    AXES = DirectionSet([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        [1.0, 1.0])

    def test_records_hold_the_measured_arrays(self):
        seen = []
        x0 = np.array([1.5, 0.0])
        state = rsp.run(recording_quadratic(seen), x0, AlgorithmConfig(),
                        StopRule(max_evaluations=300), directions=self.AXES)
        log = state.iterate_log
        assert len(log) == len(seen) == 300
        for record, (arg, snapshot) in zip(log, seen):
            assert record.x is arg
            assert record.x.tobytes() == snapshot.tobytes()
            assert record.x is not x0 and record.anchor is not x0
        reanchors = [r for r in log if r.kind == "reanchor"]
        assert reanchors
        assert all(r.x is r.anchor for r in reanchors)
        for prev, record in zip(log, log[1:]):
            if (prev.cycle, prev.slot) == (record.cycle, record.slot):
                assert record.anchor is prev.anchor

    def test_later_cycles_and_the_caller_leave_the_log_unchanged(self):
        obj = core.make_aniso_quadratic()
        cfg = AlgorithmConfig()
        x0 = np.array([1.5, 0.0])
        state = rsp.RspState(x=x0, directions=self.AXES.copy(), phi=1.0,
                             z=0.0)
        for _ in range(2):
            rsp.rsp_cycle(obj, state, cfg)
        mid = copy.deepcopy(state.iterate_log)
        for _ in range(20):
            rsp.rsp_cycle(obj, state, cfg)
        x0[:] = 99.0
        assert len(state.iterate_log) > len(mid)
        assert_same_records(mid, state.iterate_log)

    def test_mutating_the_start_after_run_leaves_the_log_unchanged(self):
        x0 = np.array([1.5, 0.0])
        state = rsp.run(core.make_aniso_quadratic(), x0, AlgorithmConfig(),
                        StopRule(max_evaluations=200), directions=self.AXES)
        before = copy.deepcopy(state.iterate_log)
        x0[:] = 99.0
        assert_same_records(before, state.iterate_log)


class TestSufficientDecreaseLedger:
    def test_every_decision_respects_the_gauge(self):
        # Reconstruct z from the log: accepted probes must clear
        # z - rho(delta) (ties accepted), rejected probes must miss it, and
        # the re-measurements at the anchor must reproduce z exactly in the
        # noiseless route.
        objectives = [core.make_sphere(2), core.make_aniso_quadratic(),
                      core.make_rosenbrock()]
        rng = np.random.default_rng(17)
        for obj in objectives:
            for _ in range(4):
                x0 = rng.uniform(-1.5, 1.5, size=2)
                state = rsp.run(obj, x0, AlgorithmConfig(),
                                StopRule(max_evaluations=400),
                                z0=float(obj(x0)))
                z = float(obj(x0))
                for rec in state.iterate_log:
                    if rec.kind in ("reanchor", "close"):
                        assert_allclose(rec.measured, z, rtol=1e-12)
                        z = rec.measured
                    elif rec.accepted:
                        assert rec.measured <= z - core.rho(rec.delta)
                        z = rec.measured
                    else:
                        assert rec.measured > z - core.rho(rec.delta)

    def test_z_is_nonincreasing_with_truthful_start(self):
        rng = np.random.default_rng(23)
        obj = core.make_sphere(2)
        for _ in range(5):
            x0 = rng.uniform(-2, 2, size=2)
            state = rsp.run(obj, x0, AlgorithmConfig(),
                            StopRule(max_evaluations=300), z0=float(obj(x0)))
            z = float(obj(x0))
            for rec in state.iterate_log:
                if rec.accepted or rec.kind in ("reanchor", "close"):
                    assert rec.measured <= z + 1e-12
                    z = rec.measured


class TestStepSizeLaws:
    def test_global_contraction_is_exact(self):
        # On the constant objective every cycle is blocked and phi contracts
        # by exactly mu each time (same floats as a left-to-right product).
        # Four cycles keep the step cap above the decrease-gauge underflow
        # point, below which equal measurements tie-accept and the walker
        # drifts instead of blocking.
        obj = core.get_objective("constant", dimension=2)
        cfg = AlgorithmConfig()
        x0 = np.array([0.3, 0.4])
        m = 4
        state = rsp.run(obj, x0, cfg,
                        StopRule(max_cycles=m, max_evaluations=10_000),
                        phi0=1.0)
        assert state.stopped == "max_cycles"
        expected = 1.0
        for _ in range(m):
            expected *= cfg.mu
        assert state.phi == expected
        assert state.blocked_cycles == m
        assert_array_equal(state.x, x0)

    def test_steps_stay_in_the_box_after_blocked_cycles(self):
        obj = core.get_objective("constant", dimension=2)
        cfg = AlgorithmConfig()
        state = rsp.RspState(x=np.zeros(2), directions=rotated_frame(step=1.0),
                             phi=1.0, z=0.0)
        for _ in range(4):
            state = rsp.rsp_cycle(obj, state, cfg, max_evaluations=10_000)
            assert state.stopped != "max_evaluations"
            lo = cfg.lambda_s * state.phi
            hi = cfg.lambda_t * state.phi
            for step in state.directions.step_sizes:
                assert lo - 1e-15 <= step <= hi * (1 + 1e-15)

    def test_robust_floor_is_enforced(self):
        obj = core.get_objective("constant", dimension=2)
        cfg = AlgorithmConfig(phi_min=0.05)
        state = rsp.run(obj, np.zeros(2), cfg, StopRule(max_cycles=30),
                        phi0=1.0)
        assert state.phi == 0.05

    def test_nominal_phi_never_increases(self):
        rng = np.random.default_rng(31)
        obj = core.make_aniso_quadratic()
        for _ in range(3):
            x0 = rng.uniform(-2, 2, size=2)
            state = rsp.RspState(x=x0, directions=rotated_frame(step=0.5),
                                 phi=0.5, z=float(obj(x0)))
            cfg = AlgorithmConfig()
            last = state.phi
            for _ in range(20):
                state = rsp.rsp_cycle(obj, state, cfg)
                assert state.phi <= last
                last = state.phi


class TestDirectionUpdate:
    def test_rejected_candidates_retain_directions_bitwise(self):
        # an absurd determinant floor rejects every candidate, so the
        # direction set must remain bit-identical to the initial axes
        state = rsp.run(core.make_sphere(2), np.array([1.0, 0.7]),
                        AlgorithmConfig(delta_det=10.0),
                        StopRule(max_cycles=6))
        assert_array_equal(state.directions.matrix(), np.eye(2))

    def test_accepted_candidate_replaces_oldest(self):
        state = rsp.run(core.make_aniso_quadratic(), np.array([1.5, 1.0]),
                        AlgorithmConfig(), StopRule(max_cycles=1), phi0=1.0)
        assert not np.array_equal(state.directions.matrix(), np.eye(2))


class TestExactLineSearch:
    def test_parabola(self):
        t = rsp.exact_line_search(make_parabola(), np.array([1.0]),
                                  np.array([-1.0]))
        assert_allclose(t, 1.0, rtol=1e-14)

    def test_already_minimal_along_direction(self):
        t = rsp.exact_line_search(core.make_aniso_quadratic(),
                                  np.array([1.5, 0.0]), np.array([0.0, 1.0]))
        assert t == 0.0

    def test_matches_golden_section(self):
        def golden(f, lo, hi):
            # golden-section bracketing down to the comparison floor, then
            # one parabolic fit through three bracketing points (exact for a
            # quadratic section, which lifts the usual sqrt(eps) limit)
            inv = (math.sqrt(5.0) - 1.0) / 2.0
            a, b = lo, hi
            c = b - inv * (b - a)
            d = a + inv * (b - a)
            while abs(b - a) > 1e-6:
                if f(c) < f(d):
                    b, d = d, c
                    c = b - inv * (b - a)
                else:
                    a, c = c, d
                    d = a + inv * (b - a)
            m, h = (a + b) / 2.0, 1e-3
            fl, fm, fr = f(m - h), f(m), f(m + h)
            return m - h * (fr - fl) / (2.0 * (fr - 2.0 * fm + fl))

        rng = np.random.default_rng(41)
        for seed in range(10):
            obj = core.make_random_spd_quadratic(dimension=2, seed=seed)
            x0 = rng.uniform(-2, 2, size=2)
            d = rng.uniform(-1, 1, size=2)
            t = rsp.exact_line_search(obj, x0, d)
            t_ref = golden(lambda s: obj(x0 + s * d), t - 2.0, t + 2.0)
            assert abs(t - t_ref) <= 1e-9

    def test_requires_curvature_oracle(self):
        plain = core.ObjectiveFunction("plain", 1, lambda x: float(x[0] ** 2))
        with pytest.raises(ValueError):
            rsp.exact_line_search(plain, np.array([1.0]), np.array([1.0]))

    def test_rejects_non_convex_direction(self):
        cap = core.ObjectiveFunction(
            "cap", 1, lambda x: -float(x[0] ** 2),
            gradient=lambda x: -2.0 * x,
            hessian=lambda x: np.array([[-2.0]]),
        )
        with pytest.raises(ValueError):
            rsp.exact_line_search(cap, np.array([1.0]), np.array([1.0]))


class TestExactCycles:
    def test_one_cycle_plus_one_minimization_suffices_in_2d(self):
        report = rsp.exact_cycles(
            core.make_aniso_quadratic(), np.array([1.5, 1.0]),
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            cycles=1, extra_lms=1,
        )
        assert report.line_minimizations == 4
        assert np.linalg.norm(report.final_x) <= 1e-8

    def test_candidate_is_the_displacement_between_reexplored_minima(self):
        # the cycle's candidate drops the opening travel: it connects the
        # minimum found after the first walk of the newest direction to the
        # minimum found when that direction is re-explored at the end
        obj = core.make_random_spd_quadratic(dimension=3, seed=2)
        dirs = [np.eye(3)[i] for i in range(3)]
        report = rsp.exact_cycles(obj, np.array([1.0, -1.0, 0.5]), dirs,
                                  cycles=2, delta_det=1e-12)
        n = 3
        for rec in report.candidates:
            first = report.positions[rec.cycle * (n + 1)]
            last = report.positions[rec.cycle * (n + 1) + n]
            assert_allclose(rec.candidate, last - first, atol=1e-14)

    def test_accepted_candidates_are_conjugate(self):
        for seed in (0, 1, 2, 3):
            for n in (2, 3):
                obj = core.make_random_spd_quadratic(dimension=n, seed=seed)
                H = obj.hessian(np.zeros(n))
                rng = np.random.default_rng(100 + seed)
                x0 = rng.uniform(-2, 2, size=n)
                dirs = [np.eye(n)[i] for i in range(n)]
                report = rsp.exact_cycles(obj, x0, dirs, cycles=n,
                                          delta_det=1e-12)
                for rec in report.candidates:
                    if not rec.accepted:
                        continue
                    partners = [rec.re_explored] + list(rec.prior_accepted)
                    for d in partners:
                        resid = abs(rec.candidate @ H @ d)
                        scale = (np.linalg.norm(rec.candidate)
                                 * np.linalg.norm(H @ d))
                        assert resid <= 1e-8 * scale

    def test_quadratic_termination_within_budget(self):
        for seed in (5, 6, 7):
            n = 2
            obj = core.make_random_spd_quadratic(dimension=n, seed=seed)
            rng = np.random.default_rng(200 + seed)
            x0 = rng.uniform(-2, 2, size=n)
            report = rsp.exact_cycles(obj, x0,
                                      [np.eye(n)[i] for i in range(n)],
                                      cycles=n, delta_det=1e-12)
            assert report.line_minimizations == n * (n + 1)
            x_star = obj.known_minimizers[0]
            assert np.linalg.norm(report.final_x - x_star) <= 1e-6

    def test_degenerate_candidate_is_rejected(self):
        # starting on an axis through the minimizer makes the cycle
        # displacement collinear with a retained direction
        report = rsp.exact_cycles(
            core.make_aniso_quadratic(), np.array([1.5, 1.0]),
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            cycles=2,
        )
        assert report.candidates[0].accepted
        assert not report.candidates[1].accepted
