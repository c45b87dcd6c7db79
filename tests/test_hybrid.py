"""Tests for the sampled-data controller: jump classification, the five jump
maps, the direction-update function, the closed loop, and the
probe-for-probe agreement between the two search realizations."""
import copy
import csv
import io
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import directseek
from directseek import core, hybrid, plants, rsp
from directseek.core import AlgorithmConfig, StopRule
from directseek.hybrid import (
    AutomatonError,
    ControllerState,
    JumpCase,
    classify_jump,
    equivalence_check,
    jump,
    make_controller,
    phi_update,
    run_closed_loop,
)
from directseek.noise import (
    AdversarialDragNoise,
    AdversarialJamNoise,
    BoundedRandomNoise,
    PhasedNoise,
)
from directseek.plants import ExactPlant, PlantState


AXES = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]


def controller(**overrides) -> ControllerState:
    base = dict(
        phi=1.0, z=0.0, lam=0.0, alpha=np.zeros(2), alpha_bar=0.0,
        p=1, m=0, q=0, k=0, v=np.array([1.0, 0.0]), delta=0.5,
        dirs=[d.copy() for d in AXES], deltas=[0.5, 0.5],
    )
    base.update(overrides)
    return ControllerState(**base)


class TestClassifyJump:
    def test_positive_accept(self):
        xc = controller(z=1.0, delta=0.5, p=1, q=0, m=0)
        assert classify_jump(xc, 0.7) is JumpCase.D1

    def test_reject(self):
        xc = controller(z=1.0, delta=0.5, q=0, m=0)
        assert classify_jump(xc, 0.9) is JumpCase.D2

    def test_tie_accepts(self):
        # y == z - rho(delta) exactly: the accepting case wins the overlap
        xc = controller(z=1.0, delta=0.5, p=1, q=0, m=0)
        assert classify_jump(xc, 0.75) is JumpCase.D1
        xc = controller(z=1.0, delta=0.5, p=-1, q=1, m=0)
        assert classify_jump(xc, 0.75) is JumpCase.D4

    def test_line_min_over(self):
        xc = controller(q=2, p=-1, m=1)
        assert classify_jump(xc, 123.0) is JumpCase.D5

    def test_re_measure(self):
        xc = controller(m=1, p=-1, q=1)
        assert classify_jump(xc, 0.4) is JumpCase.D3

    def test_negative_accept(self):
        xc = controller(z=1.0, delta=0.5, p=-1, q=1, m=0)
        assert classify_jump(xc, 0.6) is JumpCase.D4

    def test_unreachable_states_raise(self):
        with pytest.raises(AutomatonError):
            classify_jump(controller(m=1, p=1, q=0), 0.0)
        with pytest.raises(AutomatonError):
            classify_jump(controller(m=0, q=3), 0.0)
        with pytest.raises(AutomatonError):
            # accepting measurement on a negative probe in phase 0
            classify_jump(controller(z=1.0, delta=0.5, p=-1, q=0, m=0), 0.1)


class TestJumpMaps:
    def test_accept_expands_active_and_stored_step(self):
        dirs3 = [np.eye(3)[i] for i in range(3)]
        xc = ControllerState(
            phi=1.0, z=1.0, lam=0.3, alpha=np.zeros(3),
            alpha_bar=0.0, p=1, m=0, q=1, k=2, v=dirs3[1].copy(), delta=0.1,
            dirs=dirs3, deltas=[0.2, 0.1, 0.3],
        )
        new = jump(xc, 0.2, AlgorithmConfig(gamma=1.2, lambda_t=5.0))
        assert new.delta == pytest.approx(0.12)
        assert new.deltas[1] == pytest.approx(0.12)
        assert new.z == 0.2
        assert new.lam == pytest.approx(0.4)
        assert new.q == 1

    def test_accept_clips_at_the_step_cap(self):
        xc = controller(z=1.0, phi=0.01, delta=0.1, deltas=[0.1, 0.1],
                        p=1, q=1, k=1, v=np.array([1.0, 0.0]))
        new = jump(xc, 0.2, AlgorithmConfig(gamma=1.2, lambda_t=5.0))
        assert new.delta == pytest.approx(0.05)

    def test_reject_flips_sign_and_schedules_re_measure(self):
        xc = controller(z=1.0, delta=0.5, p=1, m=0, q=0, lam=0.0)
        new = jump(xc, 0.9, AlgorithmConfig())
        assert (new.p, new.m, new.q) == (-1, 1, 1)
        assert new.z == xc.z
        assert new.lam == xc.lam
        assert_array_equal(np.array(new.deltas), np.array(xc.deltas))
        for d_new, d_old in zip(new.dirs, xc.dirs):
            assert_array_equal(d_new, d_old)

    def test_re_measure_re_anchors(self):
        xc = controller(z=5.0, m=1, p=-1, q=1, lam=0.75)
        new = jump(xc, 4.0, AlgorithmConfig())
        assert new.z == 4.0
        assert new.m == 0
        assert new.lam == 0.0
        assert new.p == -1

    def test_negative_accept_walks_backwards(self):
        xc = controller(z=1.0, delta=0.5, p=-1, q=1, m=0, lam=-0.5)
        new = jump(xc, 0.5, AlgorithmConfig(gamma=1.0))
        assert new.lam == -1.0
        assert new.z == 0.5

    def test_cycle_close_contracts_phi_when_blocked(self):
        xc = controller(k=2, q=2, lam=0.0, phi=0.01,
                        deltas=[0.5, 0.5], alpha=np.zeros(2), alpha_bar=0.0)
        new = jump(xc, 0.0, AlgorithmConfig(mu=0.15))
        assert new.phi == pytest.approx(0.0015)
        assert new.k == 0
        assert (new.p, new.m, new.q) == (1, 0, 0)

    def test_cycle_close_respects_robust_floor(self):
        xc = controller(k=2, q=2, lam=0.0, phi=0.01,
                        deltas=[0.5, 0.5], alpha=np.zeros(2), alpha_bar=0.0)
        new = jump(xc, 0.0, AlgorithmConfig(mu=0.15, phi_min=0.002))
        assert new.phi == 0.002

    def test_cycle_close_keeps_phi_when_travel_happened(self):
        xc = controller(k=2, q=2, lam=1.0, phi=0.01,
                        deltas=[0.5, 0.5], alpha=np.array([1.0, 0.0]),
                        alpha_bar=1.0, v=np.array([0.0, 1.0]))
        new = jump(xc, 0.0, AlgorithmConfig(mu=0.15))
        assert new.phi == 0.01

    def test_mid_cycle_close_arms_the_stored_slot(self):
        xc = controller(k=1, q=2, lam=0.8, delta=0.5, deltas=[0.25, 0.5],
                        v=np.array([0.0, 1.0]), alpha=np.zeros(2),
                        alpha_bar=0.0)
        new = jump(xc, 0.3, AlgorithmConfig())
        assert new.k == 2
        assert_array_equal(new.v, xc.dirs[1])
        assert new.delta == 0.5
        assert_allclose(new.alpha, np.array([0.0, 0.8]))
        assert new.alpha_bar == pytest.approx(0.8)
        assert new.z == 0.3

    def test_mid_cycle_blocked_contraction_has_a_floor(self):
        cfg = AlgorithmConfig(theta=0.5, lambda_s=0.001)
        xc = controller(k=1, q=2, lam=0.0, deltas=[0.25, 0.5], phi=1.0)
        new = jump(xc, 0.0, cfg)
        assert new.deltas[0] == max(cfg.theta * 0.25, cfg.lambda_s * 1.0)

    def test_cycle_close_rotates_directions(self):
        xc = controller(k=2, q=2, lam=0.5, delta=0.5, deltas=[0.25, 0.5],
                        v=np.array([0.0, 1.0]), alpha=np.array([1.0, 0.0]),
                        alpha_bar=1.0)
        new = jump(xc, 0.0, AlgorithmConfig())
        assert_array_equal(new.dirs[0], xc.dirs[1])
        assert_allclose(new.dirs[1], np.array([1.0, 0.5]))
        assert_array_equal(new.v, new.dirs[1])
        assert new.delta == new.deltas[1]
        assert_array_equal(new.alpha, np.zeros(2))
        assert new.alpha_bar == 0.0

    @pytest.mark.parametrize("case, xc, y", [
        (JumpCase.D1, controller(z=1.0, p=1, q=0, k=1, lam=0.2,
                                 alpha=np.array([0.3, 0.1])), 0.2),
        (JumpCase.D2, controller(z=1.0, p=1, q=0, k=1), 0.9),
        (JumpCase.D3, controller(z=5.0, m=1, p=-1, q=1, lam=0.75), 4.0),
        (JumpCase.D4, controller(z=1.0, p=-1, q=1, k=2, lam=-0.5,
                                 v=np.array([0.0, 1.0])), 0.5),
        (JumpCase.D5, controller(k=1, q=2, lam=0.1, deltas=[0.25, 0.5],
                                 alpha=np.array([0.3, 0.1]), alpha_bar=0.4),
         0.3),
        (JumpCase.D5, controller(k=2, q=2, lam=0.5, deltas=[0.25, 0.5],
                                 v=np.array([0.0, 1.0]),
                                 alpha=np.array([1.0, 0.0]), alpha_bar=1.0),
         0.0),
    ], ids=["D1", "D2", "D3", "D4", "D5-mid-cycle", "D5-cycle-close"])
    def test_jump_maps_leave_the_input_untouched(self, case, xc, y):
        # The arc shares the returned states and the arrays they inherit, so
        # every jump map must read its input and never write to it.
        before = copy.deepcopy(xc)
        assert classify_jump(xc, y) is case
        new = jump(xc, y, AlgorithmConfig(gamma=1.5))
        assert new is not xc
        assert new.deltas is not xc.deltas
        for name in ("phi", "z", "lam", "alpha_bar", "p", "m", "q", "k",
                     "delta"):
            assert getattr(xc, name) == getattr(before, name), name
        assert_array_equal(xc.alpha, before.alpha)
        assert_array_equal(xc.v, before.v)
        assert len(xc.dirs) == len(before.dirs)
        for d, d_before in zip(xc.dirs, before.dirs):
            assert_array_equal(d, d_before)
        assert xc.deltas == before.deltas


class TestPhiUpdate:
    def test_one_rule_for_both_routes(self):
        # close_cycle (walker and controller) calls the function tested here
        assert phi_update is core.phi_update

    def test_independent_candidate_accepted(self):
        out = phi_update(np.array([0.0, 0.5]), np.array([0.0, 0.5]),
                         [np.array([1.0, 0.0])], np.array([0.0, 1.0]), 0.001)
        assert_array_equal(out, np.array([0.0, 1.0]))

    def test_collinear_candidate_recycles_oldest(self):
        d0 = np.array([0.0, 1.0])
        out = phi_update(np.array([1.0, 0.0]), np.array([1.0, 0.0]),
                         [np.array([1.0, 0.0])], d0, 0.001)
        assert_array_equal(out, d0)
        out[0] = 99.0
        assert d0[0] == 0.0

    def test_barely_independent_candidate_accepted(self):
        out = phi_update(np.array([1e-4, 0.5]), np.array([0.0, 0.5]),
                         [np.array([1.0, 0.0])], np.array([0.0, 1.0]), 0.001)
        assert_array_equal(out, np.array([1e-4, 1.0]))

    def test_equality_with_the_floor_accepts(self):
        out = phi_update(np.array([0.0, 0.001]), np.zeros(2),
                         [np.array([1.0, 0.0])], np.array([0.0, 1.0]), 0.001)
        assert_array_equal(out, np.array([0.0, 0.001]))

    def test_one_dimensional(self):
        out = phi_update(np.array([0.5]), np.array([0.25]), [],
                         np.array([1.0]), 0.001)
        assert_array_equal(out, np.array([0.75]))

    def test_non_square_matrix_rejected(self):
        with pytest.raises(ValueError):
            phi_update(np.zeros(3), np.zeros(3), [np.eye(3)[0]],
                       np.eye(3)[2], 0.001)


class TestMakeController:
    def test_defaults_arm_the_newest_slot(self):
        xc = make_controller(AXES, [0.25, 0.5], phi=1.0)
        assert_array_equal(xc.v, AXES[1])
        assert xc.delta == 0.5
        assert (xc.lam, xc.alpha_bar) == (0.0, 0.0)
        assert (xc.p, xc.m, xc.q, xc.k) == (1, 0, 0, 0)
        assert_array_equal(xc.alpha, np.zeros(2))

    def test_inputs_are_copied(self):
        dirs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        xc = make_controller(dirs, [0.5, 0.5], phi=1.0)
        dirs[0][0] = 77.0
        assert xc.dirs[0][0] == 1.0
        assert xc.v[1] == 1.0

    def test_override_active_direction(self):
        xc = make_controller(AXES, [0.25, 0.5], phi=1.0,
                             v=np.array([1.0, 0.0]), delta=0.25, z=2.0)
        assert_array_equal(xc.v, np.array([1.0, 0.0]))
        assert xc.delta == 0.25
        assert xc.z == 2.0


def closed_loop(objective, x0, max_jumps, cfg=None, deltas=(0.5, 0.5),
                phi=0.5, noise=None, **kwargs):
    cfg = cfg or AlgorithmConfig()
    xc0 = make_controller(AXES, list(deltas), phi)
    return run_closed_loop(
        ExactPlant(), objective, PlantState(np.asarray(x0, dtype=float)),
        xc0, cfg, StopRule(max_jumps=max_jumps), noise=noise, **kwargs
    )


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


class TestClosedLoop:
    def test_requires_a_stop_limit(self):
        xc0 = make_controller(AXES, [0.5, 0.5], 0.5)
        with pytest.raises(ValueError):
            run_closed_loop(ExactPlant(), core.make_sphere(2),
                            PlantState(np.ones(2)), xc0, AlgorithmConfig(),
                            StopRule())

    def test_rejects_invalid_config(self):
        xc0 = make_controller(AXES, [0.5, 0.5], 0.5)
        with pytest.raises(core.ConfigError):
            run_closed_loop(ExactPlant(), core.make_sphere(2),
                            PlantState(np.ones(2)), xc0,
                            AlgorithmConfig(mu=0.3, lambda_t=5.0),
                            StopRule(max_jumps=10))

    def test_robust_mode_requires_independent_directions(self):
        xc0 = make_controller([np.array([1.0, 0.0]), np.array([2.0, 0.0])],
                              [0.5, 0.5], 0.5)
        with pytest.raises(core.ConfigError, match="robust"):
            run_closed_loop(ExactPlant(), core.make_sphere(2),
                            PlantState(np.ones(2)), xc0,
                            AlgorithmConfig(phi_min=0.1),
                            StopRule(max_jumps=10))

    def test_jumps_land_on_the_period_grid(self):
        cfg = AlgorithmConfig()
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 80,
                          cfg=cfg)
        samples = arc.jump_samples()
        assert len(samples) == 80
        for s in samples:
            assert s.t == s.j * cfg.tau_star
        assert [s.j for s in samples] == list(range(1, 81))
        ts = [s.t for s in arc.samples]
        assert all(t2 >= t1 for t1, t2 in zip(ts, ts[1:]))

    def test_plant_moves_by_the_commanded_displacement(self):
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 120)
        for prev, nxt in zip(arc.samples, arc.samples[1:]):
            xc = prev.controller
            want = prev.plant.x + xc.p * xc.delta * xc.v
            assert_allclose(nxt.plant.x, want, atol=1e-9)

    def test_case_sequence_follows_the_line_min_grammar(self):
        for obj, x0 in [
            (core.make_aniso_quadratic(), [1.5, 0.0]),
            (core.make_sphere(2), [-1.0, 2.0]),
            (core.make_rosenbrock(), [1.5, 0.0]),
        ]:
            arc = closed_loop(obj, x0, 300)
            check_grammar([s.case for s in arc.jump_samples()])

    def test_z_nonincreasing_after_warmup(self):
        rng = np.random.default_rng(7)
        objectives = [core.make_sphere(2), core.make_aniso_quadratic(),
                      core.make_rosenbrock()]
        for obj in objectives:
            for _ in range(34):
                x0 = rng.uniform(-2.0, 2.0, size=2)
                arc = closed_loop(obj, x0, 150)
                zs = [s.controller.z for s in arc.jump_samples()
                      if s.j >= 3]
                for z1, z2 in zip(zs, zs[1:]):
                    assert z2 <= z1 + 1e-12

    def test_nominal_phi_never_increases(self):
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 400)
        phis = [s.controller.phi for s in arc.jump_samples()]
        for a, b in zip(phis, phis[1:]):
            assert b <= a

    def test_robust_phi_floor_and_determinant(self):
        cfg = AlgorithmConfig(phi_min=0.05)
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 400,
                          cfg=cfg)
        for s in arc.jump_samples():
            assert s.controller.phi >= cfg.phi_min
            if s.case is JumpCase.D5 and s.controller.k == 0:
                det = abs(np.linalg.det(np.array(s.controller.dirs)))
                assert det >= cfg.delta_det

    def test_zero_frame_stalls_the_plant(self):
        xc0 = make_controller([np.zeros(2), np.zeros(2)], [0.0, 0.0],
                              phi=0.0)
        x0 = np.array([1.0, -1.0])
        arc = run_closed_loop(ExactPlant(), core.make_sphere(2),
                              PlantState(x0.copy()), xc0, AlgorithmConfig(),
                              StopRule(max_jumps=50))
        for s in arc.samples:
            assert_array_equal(s.plant.x, x0)

    def test_quadratic_converges(self):
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 2000,
                          deltas=(0.05, 0.05), phi=0.05)
        final = arc.final_sample().plant.x
        assert np.linalg.norm(final) <= 0.05

    def test_intra_period_samples(self):
        cfg = AlgorithmConfig()
        xc0 = make_controller(AXES, [0.5, 0.5], 0.5)
        plant = plants.get_plant("point_mass")
        arc = run_closed_loop(plant, core.make_sphere(2),
                              PlantState(np.array([1.0, 1.0])), xc0, cfg,
                              StopRule(max_jumps=5),
                              flow_samples_per_period=3)
        rows = arc.samples
        assert len(rows) == 1 + 5 * 4
        for j in range(5):
            start, end = rows[4 * j], rows[4 * j + 4]
            assert end.case is not None and end.j == j + 1
            for i, s in enumerate(rows[4 * j + 1:4 * j + 4], start=1):
                assert s.case is None and s.measured is None and s.j == j
                # Rows at the quarter periods; x' = u is constant over the
                # period, so each lies on the segment from start to end.
                assert abs(s.t - (j + i / 4) * cfg.tau_star) <= 1e-12
                assert_allclose(
                    s.plant.x,
                    start.plant.x + (i / 4) * (end.plant.x - start.plant.x),
                    rtol=0.0, atol=1e-12,
                )

    def test_too_few_dense_rows_raise(self):
        # The exact plant emits one row per period: too few for any sample.
        with pytest.raises(ValueError, match="1 dense rows"):
            closed_loop(core.make_sphere(2), [1.0, 1.0], 5,
                        flow_samples_per_period=1)

    def test_arc_shares_states_but_not_between_jumps(self):
        xi0 = PlantState(np.array([1.5, 0.0]))
        xc0 = make_controller(AXES, [0.5, 0.5], 0.5)
        arc = run_closed_loop(ExactPlant(), core.make_aniso_quadratic(),
                              xi0, xc0, AlgorithmConfig(),
                              StopRule(max_jumps=300))
        jumps = arc.jump_samples()
        assert len(jumps) == 300
        assert len({id(s.controller) for s in jumps}) == 300
        assert len({id(s.plant) for s in jumps}) == 300
        assert arc.samples[0].controller is not xc0
        assert arc.samples[0].plant is not xi0

    def test_classify_and_jump_called_once_per_jump(self, monkeypatch):
        # Layer tracing wraps these module attributes; the loop must call
        # them through the module, once each per jump.
        calls = {"classify_jump": 0, "jump": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(hybrid, name, counting(name, getattr(hybrid, name)))
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 120)
        assert len(arc.jump_samples()) == 120
        assert calls == {"classify_jump": 120, "jump": 120}

    def test_phi_threshold_stop(self):
        arc = closed_loop(core.get_objective("constant", dimension=2),
                          [0.0, 0.0], 40, deltas=(1.0, 1.0), phi=1.0)
        assert arc.stopped == "max_jumps"
        xc0 = make_controller(AXES, [1.0, 1.0], 1.0)
        arc2 = run_closed_loop(
            ExactPlant(), core.get_objective("constant", dimension=2),
            PlantState(np.zeros(2)), xc0, AlgorithmConfig(),
            StopRule(max_jumps=10_000, phi_threshold=0.01),
        )
        assert arc2.stopped == "phi_threshold"
        assert arc2.final_sample().controller.phi < 0.01


class TestArcCsv:
    def test_schema_and_round_trip(self):
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 30)
        buf = io.StringIO()
        arc.write_csv(buf)
        rows = list(csv.reader(io.StringIO(buf.getvalue())))
        assert rows[0] == ["t", "j", "case", "x0", "x1", "f", "z", "phi",
                           "delta", "k", "q", "p", "m"]
        assert len(rows) == len(arc.samples) + 1
        sample = arc.samples[17]
        row = rows[18]
        assert float(row[0]) == sample.t
        assert int(row[1]) == sample.j
        assert row[2] == sample.case.value
        assert float(row[3]) == sample.plant.x[0]
        assert float(row[4]) == sample.plant.x[1]
        assert float(row[5]) == sample.measured
        assert float(row[7]) == sample.controller.phi
        assert rows[1][2] == ""
        assert rows[1][5] == ""


# Walker log kinds named by the jump case the controller takes for the same
# measurement.
WALKER_CASES = {
    ("probe_pos", True): JumpCase.D1,
    ("probe_pos", False): JumpCase.D2,
    ("probe_neg", False): JumpCase.D2,
    ("reanchor", False): JumpCase.D3,
    ("probe_neg", True): JumpCase.D4,
    ("close", False): JumpCase.D5,
}


def jam(bound):
    return AdversarialJamNoise(bound, grad_bound=10.0, dir_bound=3.0,
                               theta=AlgorithmConfig().theta)


# Noise kind -> (fresh model, measurement at which the jam switches on).
NOISE_CASES = {
    "bounded": (lambda: BoundedRandomNoise(1e-2, seed=3), None),
    "jam-1e-3": (lambda: jam(1e-3), 148),
    "jam-1e-2": (lambda: jam(1e-2), 124),
    "drag": (lambda: AdversarialDragNoise(10.0, 3.0, start=100), None),
    "jam-then-drag": (
        lambda: PhasedNoise([
            (jam(1e-3), 1),
            (AdversarialDragNoise(10.0, 3.0, start=300), 300),
        ]),
        148,
    ),
}


class TestEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n", [1, 3])
    def test_random_quadratic_routes_agree(self, n, seed):
        # 100 jumps keeps the steps well above rounding: past about 160 jumps
        # at n = 1 they reach ~1e-13 and the case labels may part on ties.
        obj = core.make_random_spd_quadratic(dimension=n, seed=seed)
        cfg = AlgorithmConfig()
        xc0 = make_controller([np.eye(n)[i] for i in range(n)], [1.0] * n, 1.0)
        arc = run_closed_loop(ExactPlant(n), obj, PlantState(np.zeros(n)), xc0,
                              cfg, StopRule(max_jumps=100))
        state = rsp.run(obj, np.zeros(n), cfg, StopRule(max_evaluations=100))
        report = equivalence_check(arc, state.iterate_log, tol=1e-9,
                                   min_points=100)
        assert report.ok, report.detail
        assert [s.case for s in arc.jump_samples()] == [
            WALKER_CASES[(r.kind, r.accepted)] for r in state.iterate_log
        ]

    def test_quadratic_routes_agree(self):
        obj = core.make_aniso_quadratic()
        x0 = np.array([1.5, 0.0])
        cfg = AlgorithmConfig()
        xc0 = make_controller(AXES, [1.0, 1.0], 1.0)
        arc = run_closed_loop(ExactPlant(), obj, PlantState(x0.copy()), xc0,
                              cfg, StopRule(max_jumps=250))
        state = rsp.run(obj, x0, cfg, StopRule(max_evaluations=250))
        report = equivalence_check(arc, state.iterate_log, tol=1e-9,
                                   min_points=200)
        assert report.ok
        assert report.compared == 250
        assert report.max_abs_error <= 1e-9

    def test_perturbed_expansion_diverges(self):
        obj = core.make_aniso_quadratic()
        x0 = np.array([1.5, 0.0])
        xc0 = make_controller(AXES, [1.0, 1.0], 1.0)
        arc = run_closed_loop(ExactPlant(), obj, PlantState(x0.copy()), xc0,
                              AlgorithmConfig(), StopRule(max_jumps=250))
        state = rsp.run(obj, x0, AlgorithmConfig(gamma=1.3),
                        StopRule(max_evaluations=250))
        report = equivalence_check(arc, state.iterate_log, tol=1e-9,
                                   min_points=1)
        assert not report.ok
        assert report.first_divergence is not None

    def test_constant_objective_routes_stall_together(self):
        obj = core.get_objective("constant", dimension=2)
        x0 = np.array([0.3, 0.4])
        cfg = AlgorithmConfig()
        xc0 = make_controller(AXES, [1.0, 1.0], 1.0)
        arc = run_closed_loop(ExactPlant(), obj, PlantState(x0.copy()), xc0,
                              cfg, StopRule(max_jumps=48))
        state = rsp.run(obj, x0, cfg, StopRule(max_evaluations=48))
        report = equivalence_check(arc, state.iterate_log, tol=1e-9,
                                   min_points=40)
        assert report.ok
        expected = 1.0
        for _ in range(4):
            expected *= cfg.mu
        assert arc.final_sample().controller.phi == expected
        assert state.phi == expected

    @pytest.mark.parametrize("kind", list(NOISE_CASES))
    def test_routes_agree_under_noise(self, kind):
        make_noise, activation = NOISE_CASES[kind]
        obj = core.make_aniso_quadratic()
        x0 = np.array([1.5, 0.0])
        cfg = AlgorithmConfig()
        loop_noise, walker_noise = make_noise(), make_noise()
        arc = run_closed_loop(ExactPlant(), obj, PlantState(x0.copy()),
                              make_controller(AXES, [1.0, 1.0], 1.0), cfg,
                              StopRule(max_jumps=600), noise=loop_noise)
        state = rsp.run(obj, x0, cfg, StopRule(max_evaluations=600),
                        noise=walker_noise)
        report = equivalence_check(arc, state.iterate_log, tol=1e-9,
                                   min_points=600)
        assert report.ok, report.detail
        assert [s.case for s in arc.jump_samples()] == [
            WALKER_CASES[(r.kind, r.accepted)] for r in state.iterate_log
        ]
        assert loop_noise.history == walker_noise.history
        assert len(walker_noise.history) == 600

        def jam_activation(model):
            if isinstance(model, PhasedNoise):
                model = model.phases[0][0]
            return getattr(model, "activated_at", None)

        assert jam_activation(loop_noise) == jam_activation(walker_noise)
        assert jam_activation(walker_noise) == activation


class TestNonFiniteMeasurement:
    def test_both_routes_raise_at_the_same_point(self):
        # inf on x < 0: from 0.25 the probe at 1.25 fails, the walk re-anchors
        # and the negative probe at -0.75 measures inf.
        pocket = core.ObjectiveFunction(
            "pocket", 1,
            lambda x: float("inf") if x[0] < 0 else float(x[0] ** 2),
        )
        x0 = np.array([0.25])
        cfg = AlgorithmConfig()
        with pytest.raises(core.EvaluationError) as walker:
            rsp.run(pocket, x0, cfg, StopRule(max_evaluations=50))
        with pytest.raises(core.EvaluationError) as loop:
            run_closed_loop(ExactPlant(1), pocket, PlantState(x0.copy()),
                            make_controller([np.array([1.0])], [1.0], 1.0),
                            cfg, StopRule(max_jumps=50))
        assert walker.value.value == loop.value.value == math.inf
        assert walker.value.point.tolist() == [-0.75]
        assert_allclose(loop.value.point, walker.value.point, rtol=0,
                        atol=1e-9)

    def test_one_error_class(self):
        assert rsp.EvaluationError is core.EvaluationError
        assert directseek.EvaluationError is core.EvaluationError
