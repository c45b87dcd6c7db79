"""Tests for the sampled-data controller: jump classification, the five jump
maps, the direction-update function, the closed loop, and the
probe-for-probe agreement between the two search realizations."""
import copy
import csv
import gc
import hashlib
import io
import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import directseek
from directseek import core, hybrid, plants, rsp
from directseek.core import AlgorithmConfig, StopRule, phi_update
from directseek.hybrid import (
    AutomatonError,
    ControllerState,
    JumpCase,
    classify_jump,
    equivalence_check,
    jump,
    make_controller,
    run_closed_loop,
)
from directseek.noise import (
    AdversarialDragNoise,
    AdversarialJamNoise,
    BoundedRandomNoise,
    NoiseModel,
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
        # close_cycle (walker and controller) calls the function tested here;
        # it has one home, which the package re-exports
        assert directseek.phi_update is phi_update
        assert not hasattr(hybrid, "phi_update")

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


class TestControllerStateSlots:
    """`ControllerState` is slot-only; `_next` clones it field by field."""

    def test_states_have_no_dict(self, monkeypatch):
        assert not hasattr(controller(), "__dict__")
        jumps = recorded_jumps(monkeypatch)
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 300)
        assert len(jumps) == 300
        for xc in [arc.final_controller, *(new for _, _, new in jumps)]:
            assert type(xc) is ControllerState
            assert not hasattr(xc, "__dict__")

    def test_next_copies_every_field(self):
        # Every field holds its own object, so identity shows which field a
        # clone took its value from.
        xc = controller(phi=0.75, z=1.25, lam=-0.5, alpha=np.array([0.1, 0.2]),
                        alpha_bar=0.3, p=-1, m=1, q=1, k=2,
                        v=np.array([0.0, 1.0]), delta=0.125)
        new = hybrid._next(xc)
        assert type(new) is ControllerState
        for f in fields(ControllerState):
            old, cloned = getattr(xc, f.name), getattr(new, f.name)
            if f.name == "deltas":
                assert cloned == old and cloned is not old
            else:
                assert cloned is old, f.name

    def test_public_construction_converts_its_input(self):
        def assert_converted(xc):
            for a in (xc.alpha, xc.v, *xc.dirs):
                assert type(a) is np.ndarray and a.dtype == np.float64
            assert all(type(s) is float for s in xc.deltas)

        xc = ControllerState(phi=1, z=0, lam=0, alpha=[0, 0], alpha_bar=0,
                             p=1, m=0, q=0, k=0, v=[1, 0],
                             delta=1, dirs=[[1, 0], [0, 1]], deltas=[1, 2])
        assert_converted(xc)
        made = make_controller([[1, 0], [0, 1]], [1, 2], phi=1, v=[1, 0],
                               delta=1, z=0)
        assert_converted(made)
        assert all(type(getattr(made, name)) is float
                   for name in ("phi", "z", "delta"))
        assert_converted(xc.copy())

    def test_copies_and_replace(self):
        xc = controller(alpha=np.array([0.1, 0.2]), deltas=[0.25, 0.5])
        for other in (xc.copy(), copy.deepcopy(xc)):
            assert other.alpha is not xc.alpha and other.deltas is not xc.deltas
            assert all(a is not b for a, b in zip(other.dirs, xc.dirs))
            assert_array_equal(other.alpha, xc.alpha)
            assert other.deltas == xc.deltas
            assert (other.phi, other.delta, other.k) == (xc.phi, xc.delta, xc.k)
        moved = replace(xc, k=1, deltas=[1, 2])
        assert (moved.k, moved.deltas, xc.k) == (1, [1.0, 2.0], 0)
        assert moved.v is xc.v


def closed_loop(objective, x0, max_jumps, cfg=None, deltas=(0.5, 0.5),
                phi=0.5, noise=None, **kwargs):
    cfg = cfg or AlgorithmConfig()
    xc0 = make_controller(AXES, list(deltas), phi)
    return run_closed_loop(
        ExactPlant(), objective, PlantState(np.asarray(x0, dtype=float)),
        xc0, cfg, StopRule(max_jumps=max_jumps), noise=noise, **kwargs
    )


def recorded_jumps(monkeypatch) -> list:
    """Wrap `hybrid.jump`, which the loop calls through the module, so that
    each call appends ``(case, state before, state after)`` to the list
    returned."""
    calls = []
    original = hybrid.jump

    def recording(xc, y, cfg, case=None):
        new = original(xc, y, cfg, case=case)
        calls.append((case, xc, new))
        return new

    monkeypatch.setattr(hybrid, "jump", recording)
    return calls


def jump_cases(arc) -> list:
    """The `JumpCase` of each jump row, in order."""
    return [hybrid.CASES[c] for c in arc.rows["case"][arc.jump_rows()].tolist()]


def shared_rows(arc) -> int:
    """The number of re-measures that land bitwise on the point logged two
    jumps back: over the initial row and the jump rows, the rows whose
    ``x`` bytes equal those of the row two before."""
    x = arc.rows["x"][[0, *arc.jump_rows()]]
    return sum(a.tobytes() == b.tobytes() for a, b in zip(x, x[2:]))


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
        ts = arc.rows["t"].tolist()
        assert all(t2 >= t1 for t1, t2 in zip(ts, ts[1:]))

    def test_plant_moves_by_the_commanded_displacement(self):
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 120)
        rows = arc.rows
        assert len(rows) == 121
        for prev, nxt in zip(rows, rows[1:]):
            v = arc.directions[prev["v"]]
            want = prev["x"] + int(prev["p"]) * float(prev["delta"]) * v
            assert_allclose(nxt["x"], want, atol=1e-9)

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
                jumps = arc.rows[arc.jump_rows()]
                zs = jumps["z"][jumps["j"] >= 3].tolist()
                for z1, z2 in zip(zs, zs[1:]):
                    assert z2 <= z1 + 1e-12

    def test_nominal_phi_never_increases(self):
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 400)
        phis = arc.rows["phi"][arc.jump_rows()].tolist()
        for a, b in zip(phis, phis[1:]):
            assert b <= a

    def test_robust_phi_floor_and_determinant(self, monkeypatch):
        cfg = AlgorithmConfig(phi_min=0.05)
        jumps = recorded_jumps(monkeypatch)
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 400,
                          cfg=cfg)
        rows = arc.rows[arc.jump_rows()]
        assert (rows["phi"] >= cfg.phi_min).all()
        closes = [new for case, _, new in jumps
                  if case is JumpCase.D5 and new.k == 0]
        assert len(closes) == np.count_nonzero(
            (rows["case"] == hybrid.CASES.index(JumpCase.D5)) & (rows["k"] == 0))
        assert closes
        for new in closes:
            assert new.phi >= cfg.phi_min
            det = abs(np.linalg.det(np.array(new.dirs)))
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
        final = arc.final_plant.x
        assert_array_equal(final, arc.rows["x"][-1])
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

    def test_arc_copies_its_start_and_each_jump_makes_a_new_state(
            self, monkeypatch):
        xi0 = PlantState(np.array([1.5, 0.0]))
        xc0 = make_controller(AXES, [0.5, 0.5], 0.5)
        jumps = recorded_jumps(monkeypatch)
        arc = run_closed_loop(ExactPlant(), core.make_aniso_quadratic(),
                              xi0, xc0, AlgorithmConfig(),
                              StopRule(max_jumps=300))
        assert len(arc.jump_samples()) == 300
        assert len({id(new) for _, _, new in jumps}) == 300
        assert jumps[0][1] is not xc0
        assert arc.final_controller is jumps[-1][2]
        assert shared_rows(arc) > 0
        start = run_closed_loop(ExactPlant(), core.make_aniso_quadratic(),
                                xi0, xc0, AlgorithmConfig(),
                                StopRule(max_jumps=0))
        assert start.final_plant is not xi0 and start.final_plant.x is not xi0.x
        assert start.final_controller is not xc0
        assert start.final_controller.v is not xc0.v
        assert start.rows["x"].tobytes() == xi0.x.tobytes()

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

    @pytest.mark.parametrize("stop, samples", [
        (StopRule(max_jumps=-3), 0),
        (StopRule(max_jumps=2.5), 0),
        (StopRule(max_evaluations=False), 0),
        (StopRule(max_jumps=5, phi_threshold=-1.0), 0),
        (StopRule(max_jumps=5), -2),
        (StopRule(max_jumps=5), 1.5),
    ], ids=["jumps-negative", "jumps-float", "evals-bool", "threshold-negative",
            "samples-negative", "samples-float"])
    def test_rejects_bad_budgets(self, stop, samples):
        xc0 = make_controller(AXES, [0.5, 0.5], 0.5)
        with pytest.raises(core.ConfigError) as info:
            run_closed_loop(ExactPlant(), core.make_sphere(2),
                            PlantState(np.ones(2)), xc0, AlgorithmConfig(theta=2.0),
                            stop, flow_samples_per_period=samples)
        # One error per run: the bad algorithm and the bad budget together.
        assert len(info.value.violations) == 2

    @pytest.mark.parametrize("plant, x0, dirs, deltas, expected", [
        (ExactPlant(2), np.ones(4), list(np.eye(4)), [0.5] * 4,
         "plant dimension 2 differs from 4 directions"),
        (plants.PointMassPlant(2), np.ones(4), list(np.eye(4)), [0.5] * 4,
         "plant dimension 2 differs from 4 directions"),
        (ExactPlant(2), np.ones(2), AXES, [0.5] * 3,
         "3 stored steps for 2 directions"),
        (ExactPlant(2), np.ones(3), AXES, [0.5] * 2,
         "start has shape (3,), expected (2,) for 2 directions"),
        (ExactPlant(2), np.ones(2), [np.ones(3), AXES[1]], [0.5] * 2,
         "direction 0 has shape (3,), expected (2,)"),
        (ExactPlant(2), np.ones(2), AXES, [0.5] * 2,
         "active direction has shape (3,), expected (2,)"),
    ], ids=["exact-plant", "point-mass-plant", "steps", "start", "direction",
            "active"])
    def test_rejects_disagreeing_dimensions(self, plant, x0, dirs, deltas,
                                            expected):
        active = np.ones(3) if expected.startswith("active") else None
        xc0 = make_controller(dirs, deltas, 0.5, v=active)
        with pytest.raises(core.ConfigError) as info:
            run_closed_loop(plant, core.make_sphere(len(dirs)), PlantState(x0),
                            xc0, AlgorithmConfig(), StopRule(max_jumps=-1))
        # One error per run: the bad budget and the bad dimension together.
        assert info.value.violations == [
            "stop.max_jumps must be a non-negative integer, got -1", expected]

    @pytest.mark.parametrize("plant, zeta, expected", [
        (plants.DubinsPlant(), [],
         "plant internal state has shape (0,), expected (1,)"),
        (plants.DubinsPlant(), [0.1, 0.2],
         "plant internal state has shape (2,), expected (1,)"),
        (ExactPlant(), [0.3],
         "plant internal state has shape (1,), expected (0,)"),
    ], ids=["dubins-no-heading", "dubins-two-headings", "exact-heading"])
    def test_rejects_a_wrong_internal_state(self, plant, zeta, expected):
        with pytest.raises(core.ConfigError) as info:
            run_closed_loop(plant, core.make_sphere(2),
                            PlantState(np.ones(2), zeta),
                            make_controller(AXES, [0.1, 0.1], 0.5),
                            AlgorithmConfig(), StopRule(max_jumps=3))
        assert info.value.violations == [expected]

    def test_zero_jump_budget_runs(self):
        arc = closed_loop(core.make_sphere(2), [1.0, 1.0], 0)
        assert (len(arc.rows), arc.stopped) == (1, "max_jumps")

    @pytest.mark.parametrize("limits, jumps, stopped", [
        (dict(max_evaluations=30), 30, "max_evaluations"),
        (dict(max_jumps=30), 30, "max_jumps"),
        (dict(max_jumps=30, max_evaluations=30), 30, "max_jumps"),
        (dict(max_jumps=40, max_evaluations=30), 30, "max_evaluations"),
        (dict(max_jumps=20, max_evaluations=30), 20, "max_jumps"),
    ], ids=["evaluations", "jumps", "tie", "evaluations-lower", "jumps-lower"])
    def test_stop_names_the_budget_that_fired(self, limits, jumps, stopped):
        arc = run_closed_loop(ExactPlant(), core.make_sphere(2),
                              PlantState(np.ones(2)),
                              make_controller(AXES, [0.1, 0.1], 0.5),
                              AlgorithmConfig(), StopRule(**limits))
        assert (arc.rows["j"][-1], arc.stopped) == (jumps, stopped)

    @pytest.mark.parametrize("limits, measurements, stopped", [
        (dict(max_evaluations=30), 30, "max_evaluations"),
        (dict(max_evaluations=26, phi_threshold=0.5), 26, "max_evaluations"),
        (dict(max_jumps=30, max_cycles=2), 26, "max_cycles"),
        (dict(max_jumps=10, phi_threshold=1e-3), 10, "max_jumps"),
        (dict(max_cycles=2), 26, "max_cycles"),
        (dict(max_jumps=30), 30, "max_jumps"),
        (dict(max_jumps=30, phi_threshold=2.0), 0, "phi_threshold"),
        (dict(max_cycles=2, max_evaluations=26), 26, "max_cycles"),
    ], ids=["evaluations", "budget-and-phi-at-once", "cycles-before-jumps",
            "jumps-cap-the-walker", "cycles-alone", "jumps-alone",
            "phi-below-at-start", "cycles-budget-tie"])
    def test_stop_rule_means_the_same_on_both_routes(self, limits,
                                                     measurements, stopped):
        # Two cycles from (1.5, 0.5) take 26 measurements, and the second
        # one brings phi from 1 to mu = 0.15.
        stop = StopRule(**limits)
        x0 = np.array([1.5, 0.5])
        arc = run_closed_loop(ExactPlant(), core.make_sphere(2),
                              PlantState(x0.copy()),
                              make_controller(AXES, [1.0, 1.0], 1.0),
                              AlgorithmConfig(), stop)
        state = rsp.run(core.make_sphere(2), x0, AlgorithmConfig(), stop,
                        directions=core.DirectionSet(AXES, [1.0, 1.0]),
                        phi0=1.0)
        assert (arc.rows["j"][-1], arc.stopped) == (measurements, stopped)
        assert (state.evaluations, state.stopped) == (measurements, stopped)
        report = equivalence_check(arc, state.iterate_log,
                                   min_points=measurements)
        assert report.ok, report.detail

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
        assert arc2.final_controller.phi < 0.01
        assert arc2.rows["phi"][-1] == arc2.final_controller.phi


class TestArcRecords:
    """The arc keeps one packed record per row, the table of active
    directions and the final states, and builds no object per row."""

    @pytest.mark.parametrize("n, nz", [(1, 0), (2, 1), (4, 0), (7, 3)])
    def test_the_packer_writes_the_record(self, n, nz):
        dtype = hybrid.row_dtype(n, nz)
        assert core.record_struct(dtype).size == dtype.itemsize

    def test_the_arc_holds_no_per_row_objects(self, monkeypatch):
        gc.collect()
        tracemalloc.start()
        try:
            arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 2000)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            nbytes, rows = arc.rows.nbytes, len(arc.rows)
            itemsize = arc.rows.dtype.itemsize
            directions = arc.directions.nbytes
            built = []
            real = hybrid.ArcSample
            monkeypatch.setattr(hybrid, "ArcSample",
                                lambda *args: built.append(args) or real(*args))
            assert (len(arc.samples), len(arc.jump_samples())) == (2001, 2000)
            assert built == []
            assert arc.samples[-1].plant.x.tolist() == arc.final_plant.x.tolist()
            assert len(built) == 1
            del arc
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert (rows, nbytes) == (2001, 2001 * itemsize)
        # The records, the direction table, the final states and a small
        # slack; a state per row would hold several times the records.
        assert nbytes + directions <= retained <= 2 * nbytes

    def test_directions_hold_each_active_direction(self, monkeypatch):
        jumps = recorded_jumps(monkeypatch)
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 400)
        rows = arc.rows
        active = [xc.v for _, _, xc in jumps]
        assert_array_equal(arc.directions[rows["v"][1:]], active)
        assert_array_equal(arc.directions[rows["v"][0]], AXES[1])
        # One row per distinct direction; the active one moves at D5 only.
        assert len({d.tobytes() for d in arc.directions}) == len(arc.directions)
        assert len(arc.directions) < len(active)
        changed = np.flatnonzero(np.diff(rows["v"])) + 1
        assert len(changed) > 0
        assert (rows["case"][changed] == hybrid.CASES.index(JumpCase.D5)).all()


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
        assert float(row[7]) == arc.rows["phi"][17]
        assert rows[1][2] == ""
        assert rows[1][5] == ""


def csv_module_write(arc, fp) -> None:
    """The oracle for `HybridArc.write_csv`: one `csv.writer` row per arc
    row, read through its `ArcSample` and its record, floats through
    ``float``, a `JumpCase` and None as the csv module writes them."""
    n = arc.rows.dtype["x"].shape[0]
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(["t", "j", "case"] + [f"x{i}" for i in range(n)]
                    + ["f", "z", "phi", "delta", "k", "q", "p", "m"])
    writer.writerows(
        [float(s.t), s.j, s.case, *s.plant.x.tolist(), s.measured,
         float(r["z"]), float(r["phi"]), float(r["delta"]),
         int(r["k"]), int(r["q"]), int(r["p"]), int(r["m"])]
        for s, r in zip(arc.samples, arc.rows)
    )


def assert_writes_like_oracle(arc) -> str:
    got, want = io.StringIO(), io.StringIO()
    arc.write_csv(got)
    csv_module_write(arc, want)
    assert got.getvalue() == want.getvalue()
    return got.getvalue()


def signed_zero_arc() -> hybrid.HybridArc:
    """Rows whose ``x``, ``f``, ``z``, ``phi`` and ``delta`` hold ``0.0``
    and ``-0.0``: equal floats with different reprs, next to each other
    and two rows apart."""
    zero, neg, nan = 0.0, -0.0, math.nan
    d2, d3, d1 = (hybrid.CASES.index(c) for c in (JumpCase.D2, JumpCase.D3,
                                                   JumpCase.D1))
    rows = np.array([
        # t, j, case, x, zeta, f, z, phi, delta, k, q, p, m, v
        (0.0, 0, 0, [0.0, -0.0], [], nan, neg, 1.0, 0.5, 0, 0, 1, 0, 0),
        (0.1, 1, d2, [-0.0, 0.0], [], neg, zero, neg, -0.0, 0, 0, 1, 0, 0),
        (0.15, 1, 0, [-0.0, -0.0], [], nan, zero, neg, -0.0, 0, 0, 1, 0, 0),
        (0.2, 2, d3, [0.0, 0.0], [], neg, neg, neg, 0.0, 0, 0, 1, 0, 0),
        (0.3, 3, d1, [1e-300, -5e-324], [], -0.0, zero, 1.0, 0.0, 0, 0, 1, 0,
         0),
    ], dtype=hybrid.row_dtype(2, 0))
    return hybrid.HybridArc(rows=rows, directions=np.array([[1.0, 0.0]]))


class TestArcCsvOracle:
    def test_point_mass_dense_rows(self):
        plant = plants.get_plant("point_mass", substeps=8)
        xc0 = make_controller(AXES, [0.5, 0.5], 0.5)
        arc = run_closed_loop(
            plant, core.make_aniso_quadratic(), PlantState(np.array([1.5, 0.0])),
            xc0, AlgorithmConfig(), StopRule(max_jumps=40),
            flow_samples_per_period=3,
        )
        # Dense rows repeat the controller fields of the row before them
        # bit for bit and leave f/case empty.
        rows = arc.rows
        dense = np.flatnonzero(rows["case"] == 0)[1:]
        assert len(dense) == 40 * 3
        for i in dense.tolist():
            for name in ("z", "phi", "delta", "k", "q", "p", "m", "v"):
                assert rows[name][i].tobytes() == rows[name][i - 1].tobytes()
        assert np.isnan(rows["f"][dense]).all()
        assert arc.samples[1].case is None and arc.samples[1].measured is None
        text = assert_writes_like_oracle(arc)
        assert text.count("\n") == 1 + 1 + 40 * 4

    def test_one_dimensional(self):
        xc0 = make_controller([np.array([1.0])], [0.5], 0.5)
        arc = run_closed_loop(
            ExactPlant(dimension=1), core.get_objective("sphere", dimension=1),
            PlantState(np.array([1.3])), xc0, AlgorithmConfig(),
            StopRule(max_jumps=60),
        )
        assert assert_writes_like_oracle(arc).startswith(
            "t,j,case,x0,f,z,phi,delta,k,q,p,m\n")

    def test_dubins(self):
        plant = plants.get_plant("dubins", v_max=10.0, u_max=80.0)
        xc0 = make_controller(AXES, [0.05, 0.05], 0.05)
        arc = run_closed_loop(
            plant, core.make_rosenbrock(),
            plant.initial_state(np.array([1.5, 0.0]), 0.3), xc0,
            AlgorithmConfig(), StopRule(max_jumps=50),
        )
        assert_writes_like_oracle(arc)

    def test_signed_zeros_keep_their_sign(self):
        text = assert_writes_like_oracle(signed_zero_arc())
        rows = text.splitlines()
        assert rows[1] == "0.0,0,,0.0,-0.0,,-0.0,1.0,0.5,0,0,1,0"
        assert rows[2] == "0.1,1,D2,-0.0,0.0,-0.0,0.0,-0.0,-0.0,0,0,1,0"
        assert rows[3] == "0.15,1,,-0.0,-0.0,,0.0,-0.0,-0.0,0,0,1,0"

    def test_header_only(self):
        assert assert_writes_like_oracle(hybrid.HybridArc()) == (
            "t,j,case,f,z,phi,delta,k,q,p,m\n")


class _ScriptedPlant:
    """A 1-D plant that lands on the scripted positions in turn, wherever
    it is steered."""

    kind = "scripted"
    dimension = 1
    zeta_dimension = 0

    def __init__(self, positions):
        self.positions = iter(positions)

    def steer(self, xi, target, tau_star):
        return [], None

    def integrate(self, xi, schedule, tau_star, collect=None):
        return PlantState(np.array([next(self.positions)]))


def sharing_arc(kind: str) -> hybrid.HybridArc:
    """A closed-loop arc on which re-measures share states."""
    if kind == "exact":
        return closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 300,
                           noise=BoundedRandomNoise(1e-3, seed=5))
    if kind == "dubins":
        plant = plants.get_plant("dubins", v_max=10.0, u_max=80.0)
        return run_closed_loop(
            plant, core.make_rosenbrock(),
            plant.initial_state(np.array([1.5, 0.0]), 0.3),
            make_controller(AXES, [0.05, 0.05], 0.05), AlgorithmConfig(),
            StopRule(max_jumps=200))
    return run_closed_loop(
        plants.get_plant("point_mass", substeps=8), core.make_aniso_quadratic(),
        PlantState(np.array([1.5, 0.0])), make_controller(AXES, [0.5, 0.5], 0.5),
        AlgorithmConfig(), StopRule(max_jumps=40), flow_samples_per_period=3)


class TestReMeasureSharing:
    @pytest.mark.parametrize("kind", ["exact", "dubins", "point_mass"])
    def test_shared_rows_write_like_the_oracle(self, kind):
        arc = sharing_arc(kind)
        assert shared_rows(arc) > 0
        assert_writes_like_oracle(arc)

    def test_dubins_shares_the_position_under_a_new_heading(self):
        arc = sharing_arc("dubins")
        rows = arc.rows[arc.jump_rows()]
        assert any(b["x"].tobytes() == a["x"].tobytes()
                   and b["zeta"].tobytes() != a["zeta"].tobytes()
                   for a, b in zip(rows, rows[2:]))

    def test_signed_zero_is_not_shared(self):
        arc = run_closed_loop(
            _ScriptedPlant([1.0, -0.0, 1.0, 0.0]), core.make_sphere(1),
            PlantState(np.array([0.0])), make_controller([np.ones(1)], [0.5], 0.5),
            AlgorithmConfig(), StopRule(max_jumps=4))
        x = [row.tobytes() for row in arc.rows["x"]]
        assert x[2] != x[0]
        assert x[3] == x[1]
        assert x[4] != x[2]
        assert shared_rows(arc) == 1
        text = assert_writes_like_oracle(arc)
        assert [row.split(",")[3] for row in text.splitlines()[1:]] == [
            "0.0", "1.0", "-0.0", "1.0", "0.0"]

    def test_dense_rows_keep_the_jump_row_repeats(self):
        # With F = 3 the row two back of a jump row is a dense row: the
        # repeats are counted over the initial and jump rows, and the
        # objective is called once per other jump.
        calls = []
        arc = run_closed_loop(
            plants.get_plant("point_mass", substeps=8),
            counting(core.make_aniso_quadratic(), calls),
            PlantState(np.array([1.5, 0.0])),
            make_controller(AXES, [0.5, 0.5], 0.5), AlgorithmConfig(),
            StopRule(max_jumps=2000), flow_samples_per_period=3)
        assert len(arc.rows) == 1 + 2000 * 4
        assert shared_rows(arc) == 910
        assert len(calls) == 2000 - 910 + 1  # a repeat of the start is measured
        # `write_csv` reuses the string of every one of them, and of no
        # dense row.
        period = hybrid._jump_period(arc.rows)
        reused = np.flatnonzero(hybrid._reuse_masks(arc.rows, period)[0])
        assert (period, len(reused)) == (4, 910)
        assert (arc.rows["case"][reused] != 0).all()
        assert_writes_like_oracle(arc)

    def test_distinct_positions_are_pinned(self):
        # 715 of the 2,000 jump rows land bit for bit on the point two jumps
        # back; one of them is the unmeasured start, so the objective is
        # called 1,286 times.
        calls = []
        arc = closed_loop(counting(core.make_aniso_quadratic(), calls),
                          [1.5, 0.0], 2000,
                          noise=BoundedRandomNoise(1e-3, seed=5))
        assert len(arc.rows) == 2001
        assert shared_rows(arc) == 715
        assert len(calls) == 1286


def counting(objective, calls):
    """``objective``, appending each argument it is called with to ``calls``."""

    def evaluate(x):
        calls.append(x)
        return objective.evaluate(x)

    return core.ObjectiveFunction(objective.name, objective.dimension, evaluate)


def digest(values) -> str:
    """A short digest of a sequence of floats' bytes."""
    return hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest()[:16]


class TestFieldReuse:
    """The loop evaluates the field once per distinct measured point: a jump
    whose ``x`` bytes equal those of the jump two back reuses that jump's
    objective value, and noise is drawn at every jump.  The start is logged,
    not measured, so a re-measure there calls the objective."""

    def test_calls_skip_exactly_the_two_back_repeats(self):
        calls = []
        noise = BoundedRandomNoise(1e-3, seed=5)
        arc = closed_loop(counting(core.make_aniso_quadratic(), calls),
                          [1.5, 0.0], 2000, noise=noise)
        jumps = [x.tobytes() for x in arc.rows["x"][arc.jump_rows()]]
        fresh = [x for j, x in enumerate(jumps) if j < 2 or x != jumps[j - 2]]
        assert (len(jumps), len(fresh)) == (2000, 1286)
        assert [x.tobytes() for x in calls] == fresh

    def test_noise_is_drawn_once_per_measurement(self):
        noise = BoundedRandomNoise(1e-3, seed=5)
        arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 2000,
                          noise=noise)
        f = core.make_aniso_quadratic()
        rows = arc.rows[arc.jump_rows()]
        measured = rows["f"].tolist()
        assert len(noise.history) == 2000
        assert measured == [f(x.copy()) + n
                            for x, n in zip(rows["x"], noise.history)]
        # The noise and the measured values of this run as one objective
        # call per measurement gave them; the walker draws the same noise.
        assert digest(noise.history) == "92e204346d44c05d"
        assert digest(measured) == "64bc31167557e345"

    def test_a_first_line_re_anchor_at_the_start_calls_the_objective(self):
        calls = []
        arc = closed_loop(counting(core.make_aniso_quadratic(), calls),
                          [1.5, 0.0], 2)
        assert jump_cases(arc) == [JumpCase.D2, JumpCase.D3]
        x = [row.tobytes() for row in arc.rows["x"]]
        assert x[2] == x[0]
        assert len(calls) == 2 and calls[1].tobytes() == x[0]
        assert arc.rows["f"][2] == 2.25

    def test_a_re_measure_at_signed_zero_calls_the_objective(self):
        calls = []

        def signed(x):
            calls.append(x)
            return 1.0 + math.copysign(0.5, x[0])

        arc = run_closed_loop(
            _ScriptedPlant([1.0, -0.0, 1.0, 0.0]),
            core.ObjectiveFunction("signed", 1, signed),
            PlantState(np.array([0.0])), make_controller([np.ones(1)], [0.5], 0.5),
            AlgorithmConfig(), StopRule(max_jumps=4))
        assert arc.rows["f"][1:].tolist() == [1.5, 0.5, 1.5, 1.5]
        assert [repr(x.item()) for x in calls] == ["1.0", "-0.0", "0.0"]


class _RecordingSink:
    """A text sink that keeps every string passed to `write`."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_write_csv_streams_in_bounded_writes():
    arc = closed_loop(core.make_aniso_quadratic(), [1.5, 0.0], 19_999,
                      noise=BoundedRandomNoise(1e-3, seed=5))
    assert len(arc.rows) == 20_000
    sink = _RecordingSink()
    arc.write_csv(sink)
    assert max(map(len, sink.writes)) <= 64 * 1024
    want = io.StringIO()
    csv_module_write(arc, want)
    assert "".join(sink.writes) == want.getvalue()


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
        assert report.first_case_split is None

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
        assert arc.final_controller.phi == expected
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
        assert report.first_case_split is None
        assert loop_noise.history == walker_noise.history
        assert len(walker_noise.history) == 600

        def jam_activation(model):
            if isinstance(model, PhasedNoise):
                model = model.phases[0][0]
            return getattr(model, "activated_at", None)

        assert jam_activation(loop_noise) == jam_activation(walker_noise)
        assert jam_activation(walker_noise) == activation


class TestCaseSplit:
    """`EquivalenceReport.first_case_split` compares jump cases with the
    walker's records; positions are judged as before."""

    @staticmethod
    def both_routes(objective, x0, jumps, cfg=None, deltas=1.0, noise=None):
        n = len(x0)
        cfg = cfg or AlgorithmConfig()
        axes = [np.eye(n)[i] for i in range(n)]
        arc = run_closed_loop(
            ExactPlant(n), objective, PlantState(np.array(x0, dtype=float)),
            make_controller(axes, [deltas] * n, 1.0), cfg,
            StopRule(max_jumps=jumps), noise=noise and noise())
        state = rsp.run(objective, np.array(x0, dtype=float), cfg,
                        StopRule(max_evaluations=jumps),
                        directions=core.DirectionSet(axes, [deltas] * n),
                        noise=noise and noise())
        return arc, state.iterate_log

    def test_reports_the_first_mismatched_label(self):
        arc, log = self.both_routes(core.make_aniso_quadratic(), [1.5, 0.0],
                                    100)
        assert equivalence_check(arc, log).first_case_split is None
        for i in (37, 0):
            # A relabel that keeps every record's line (a ``close`` ends
            # one), so the rebuilt positions are those of ``log``.
            record = log[i]
            assert record.kind != "close"
            kind, accepted = (("probe_neg", False) if record.kind == "reanchor"
                              else (record.kind, not record.accepted))
            bad = rsp.IterateLog(log.rows.copy(), log.start, log.directions)
            bad.rows["kind"][i] = rsp.KINDS.index(kind)
            bad.rows["accepted"][i] = accepted
            report = equivalence_check(arc, bad, min_points=100)
            assert (report.ok, report.first_divergence, report.detail) == (
                True, None, "")
            assert report.first_case_split == i

    @pytest.mark.parametrize("objective, x0, jumps, floor", [
        *[(core.make_random_spd_quadratic(dimension=1, seed=s), [0.0], 200,
           160) for s in range(5)],
        (core.make_sphere(2), [1.5, 0.0], 320, 290),
        (core.make_aniso_quadratic(), [1.5, 0.0], 320, 290),
    ], ids=[*(f"spd-1d-seed{s}" for s in range(5)), "sphere", "aniso"])
    def test_nominal_labels_split_only_at_tiny_steps(self, objective, x0,
                                                     jumps, floor):
        # Once the steps reach about 1e-13 the routes may take an acceptance
        # tie differently while positions still agree to 1e-9.
        arc, log = self.both_routes(objective, x0, jumps)
        report = equivalence_check(arc, log, tol=1e-9, min_points=jumps)
        assert report.ok, report.detail
        assert report.first_case_split is not None
        assert report.first_case_split >= floor

    def test_noisy_robust_run_has_no_split(self):
        objective = core.make_random_spd_quadratic(dimension=4, seed=0)
        arc, log = self.both_routes(
            objective, [0.0] * 4, 2000,
            cfg=AlgorithmConfig(lambda_s=0.1, phi_min=0.001), deltas=0.5,
            noise=lambda: BoundedRandomNoise(1e-6, seed=0))
        report = equivalence_check(arc, log, tol=1e-9, min_points=2000)
        assert report.ok, report.detail
        assert report.first_case_split is None


class TestDegenerateStart:
    """The determinant rule of `core.check_run` is the one degenerate-start
    rule of both routes: reject in robust mode, run otherwise."""

    X0 = np.array([1.5, 0.5])
    DIRS = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]  # |det| = 0

    def walk(self, cfg):
        return rsp.run(core.make_aniso_quadratic(), self.X0, cfg,
                       StopRule(max_evaluations=200),
                       directions=core.DirectionSet(self.DIRS, [1.0, 1.0]))

    def loop(self, cfg):
        return run_closed_loop(ExactPlant(), core.make_aniso_quadratic(),
                               PlantState(self.X0.copy()),
                               make_controller(self.DIRS, [1.0, 1.0], 1.0),
                               cfg, StopRule(max_jumps=200))

    def test_robust_mode_rejects_on_both_routes(self):
        cfg = AlgorithmConfig(phi_min=0.05)
        with pytest.raises(core.ConfigError) as walker:
            self.walk(cfg)
        with pytest.raises(core.ConfigError) as loop:
            self.loop(cfg)
        assert walker.value.violations == loop.value.violations

    def test_nominal_mode_runs_both_routes_alike(self):
        state = self.walk(AlgorithmConfig())
        arc = self.loop(AlgorithmConfig())
        assert state.evaluations == 200
        report = equivalence_check(arc, state.iterate_log, tol=1e-9,
                                   min_points=200)
        assert report.ok, report.detail


class TestBadStartScale:
    """`core.check_run` rejects a start frame scale or stored step that is
    negative or not finite on both routes, before the first measurement."""

    X0 = np.array([1.5, 0.5])

    def walk(self, phi, steps):
        return rsp.run(core.make_sphere(2), self.X0, AlgorithmConfig(),
                       StopRule(max_evaluations=200),
                       directions=core.DirectionSet(AXES, steps), phi0=phi)

    def loop(self, phi, steps):
        return run_closed_loop(ExactPlant(), core.make_sphere(2),
                               PlantState(self.X0.copy()),
                               make_controller(AXES, steps, phi),
                               AlgorithmConfig(), StopRule(max_jumps=200))

    @pytest.mark.parametrize("route", ["walk", "loop"])
    @pytest.mark.parametrize("phi, steps, expected", [
        (-1.0, [1.0, 1.0], ["start phi must be a finite number >= 0, got -1.0"]),
        (math.nan, [1.0, 1.0],
         ["start phi must be a finite number >= 0, got nan"]),
        (math.inf, [1.0, -1.0],
         ["start phi must be a finite number >= 0, got inf",
          "stored step 1 must be a finite number >= 0, got -1.0"]),
        (1.0, [math.nan, 1.0],
         ["stored step 0 must be a finite number >= 0, got nan"]),
    ], ids=["phi-negative", "phi-nan", "phi-inf-step-negative", "step-nan"])
    def test_both_routes_reject_alike(self, route, phi, steps, expected):
        if route == "loop" and steps[1] != 1.0:
            # The loop opens on the newest slot's step.
            expected = expected + [
                f"active step must be a finite number >= 0, got {steps[1]!r}"]
        with pytest.raises(core.ConfigError) as info:
            getattr(self, route)(phi, steps)
        assert info.value.violations == expected

    def test_the_loops_opening_step_is_checked(self):
        with pytest.raises(core.ConfigError) as info:
            run_closed_loop(ExactPlant(), core.make_sphere(2),
                            PlantState(self.X0.copy()),
                            make_controller(AXES, [1.0, 1.0], 1.0,
                                            delta=-math.inf),
                            AlgorithmConfig(), StopRule(max_jumps=200))
        assert info.value.violations == [
            "active step must be a finite number >= 0, got -inf"]

    @pytest.mark.parametrize("route", ["walk", "loop"])
    def test_zero_is_legal(self, route):
        getattr(self, route)(0.0, [0.0, 0.0])


class TestObjectiveDimension:
    """`core.check_run` rejects an objective whose dimension differs from
    the directions' on both routes, before the first measurement."""

    @pytest.mark.parametrize("route", ["walk", "loop"])
    @pytest.mark.parametrize("objective, x0, expected", [
        (core.make_sphere(3), [1.5, 0.0],
         "objective dimension 3 differs from 2 directions"),
        (core.make_rosenbrock(), [1.5, 0.0, 0.5],
         "objective dimension 2 differs from 3 directions"),
    ], ids=["sphere-3-from-2d", "rosenbrock-from-3d"])
    def test_both_routes_reject_alike(self, route, objective, x0, expected):
        x0 = np.array(x0)
        n = x0.size
        with pytest.raises(core.ConfigError) as info:
            if route == "walk":
                rsp.run(objective, x0, AlgorithmConfig(),
                        StopRule(max_evaluations=200))
            else:
                run_closed_loop(ExactPlant(n), objective, PlantState(x0),
                                make_controller(list(np.eye(n)), [1.0] * n,
                                                1.0),
                                AlgorithmConfig(), StopRule(max_jumps=200))
        assert info.value.violations == [expected]


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

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_noise_fails_both_routes_at_the_same_point(self, bad):
        class BadAt(NoiseModel):
            kind = "bad_at"

            def _value(self, k, delta, direction):
                return bad if k == 40 else 0.0

        obj = core.make_aniso_quadratic()
        x0 = np.array([1.5, 0.0])
        cfg = AlgorithmConfig()
        walker_noise, loop_noise = BadAt(), BadAt()
        with pytest.raises(core.EvaluationError) as walker:
            rsp.run(obj, x0, cfg, StopRule(max_evaluations=100),
                    noise=walker_noise)
        with pytest.raises(core.EvaluationError) as loop:
            run_closed_loop(ExactPlant(), obj, PlantState(x0.copy()),
                            make_controller(AXES, [1.0, 1.0], 1.0), cfg,
                            StopRule(max_jumps=100), noise=loop_noise)
        assert type(walker.value) is type(loop.value)
        assert len(walker_noise.history) == len(loop_noise.history) == 40
        assert_allclose(loop.value.point, walker.value.point, rtol=0,
                        atol=1e-9)
        if math.isnan(bad):
            assert math.isnan(walker.value.value)
            assert math.isnan(loop.value.value)
        else:
            assert walker.value.value == loop.value.value == bad

    def test_one_error_class(self):
        assert rsp.EvaluationError is core.EvaluationError
        assert directseek.EvaluationError is core.EvaluationError
