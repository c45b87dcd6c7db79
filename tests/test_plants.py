"""Tests for the continuous-time plants: point mass, unicycle (turn-rate
limited), the idealized algebraic plant, and the steering/integration
contracts they share."""
import dataclasses
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from directseek import cli, plants
from directseek.plants import (
    DubinsPlant,
    ExactPlant,
    IntegrationError,
    PlantState,
    PointMassPlant,
    Segment,
    SteeringError,
    get_plant,
    integrate,
    steer,
    wrap_angle,
)

TAU = 0.1


class TestWrapAngle:
    def test_reference_points(self):
        assert wrap_angle(0.0) == 0.0
        assert wrap_angle(math.pi) == math.pi
        # the branch cut maps -pi to +pi so headings live in (-pi, pi]
        assert wrap_angle(-math.pi) == math.pi
        assert_allclose(wrap_angle(3 * math.pi / 2), -math.pi / 2, atol=1e-15)
        assert_allclose(wrap_angle(2 * math.pi), 0.0, atol=1e-15)

    def test_range_and_equivalence(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            a = float(rng.uniform(-50.0, 50.0))
            w = wrap_angle(a)
            assert -math.pi < w <= math.pi
            assert_allclose(math.sin(w), math.sin(a), atol=1e-9)
            assert_allclose(math.cos(w), math.cos(a), atol=1e-9)


class TestPointMass:
    def test_steer_is_constant_velocity(self):
        pm = PointMassPlant(dimension=2)
        xi = PlantState(x=np.array([0.0, 0.0]))
        schedule, predicted = steer(pm, xi, np.array([0.1, 0.0]), 1.0)
        assert len(schedule) == 1
        assert schedule[0].duration == 1.0
        assert_allclose(schedule[0].controls, (0.1, 0.0), rtol=1e-15)
        assert_allclose(predicted.x, [0.1, 0.0], rtol=1e-15)

    def test_integration_is_exact(self):
        # linear dynamics: the flow lands on x + u * tau to rounding
        pm = PointMassPlant(dimension=2)
        rng = np.random.default_rng(3)
        for _ in range(20):
            x0 = rng.uniform(-2, 2, size=2)
            target = rng.uniform(-1, 1, size=2)
            xi = PlantState(x=x0.copy())
            schedule, _ = steer(pm, xi, target, TAU)
            out = integrate(pm, xi, schedule, TAU)
            assert_allclose(out.x, x0 + target, atol=1e-12)

    def test_constant_control_displacement(self):
        pm = PointMassPlant(dimension=3)
        xi = PlantState(x=np.array([1.0, -1.0, 0.5]))
        u = (0.3, 0.1, -0.2)
        out = integrate(pm, xi, [Segment(TAU, u)], TAU)
        assert_allclose(out.x, xi.x + TAU * np.array(u), atol=1e-12)
        assert out.zeta.size == 0

    def test_nan_state_raises(self):
        pm = PointMassPlant(dimension=2)
        xi = PlantState(x=np.array([math.nan, 0.0]))
        with pytest.raises(IntegrationError):
            integrate(pm, xi, [Segment(TAU, (1.0, 0.0))], TAU)


class TestDubinsSteering:
    def test_aligned_target_needs_no_turn(self):
        db = DubinsPlant(v_max=10.0, u_max=20.0)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        schedule, predicted = steer(db, xi, np.array([0.5, 0.0]), TAU)
        turn_time = sum(s.duration for s in schedule if s.controls[1] != 0.0)
        assert turn_time == 0.0
        out = integrate(db, xi, schedule, TAU)
        assert_allclose(out.x, [0.5, 0.0], atol=1e-9)
        assert_allclose(out.zeta[0], 0.0, atol=1e-12)
        assert_allclose(predicted.x, [0.5, 0.0], atol=1e-9)

    def test_quarter_turn_endpoint(self):
        db = DubinsPlant(v_max=10.0, u_max=20.0, substeps=1000)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        schedule, _ = steer(db, xi, np.array([0.0, 0.1]), TAU)
        out = integrate(db, xi, schedule, TAU)
        err = np.linalg.norm(out.x - np.array([0.0, 0.1]))
        assert err <= 1e-6
        assert_allclose(out.zeta[0], math.pi / 2, atol=1e-9)

    def test_schedule_spans_period_and_respects_limits(self):
        # turn rate 80 rad/s turns a full reversal in under 0.04 s, so any
        # heading/bearing combination fits the 0.1 s period
        db = DubinsPlant(v_max=10.0, u_max=80.0)
        rng = np.random.default_rng(5)
        for _ in range(50):
            xi = PlantState(
                x=rng.uniform(-1, 1, size=2),
                zeta=np.array([rng.uniform(-math.pi, math.pi)]),
            )
            target = rng.uniform(-0.04, 0.04, size=2)
            if np.linalg.norm(target) < 1e-6:
                continue
            schedule, _ = steer(db, xi, target, TAU)
            assert_allclose(sum(s.duration for s in schedule), TAU, atol=1e-12)
            for seg in schedule:
                speed, turn = seg.controls
                assert speed >= 0.0
                assert speed <= 10.0 + 1e-9
                assert abs(turn) <= 80.0 + 1e-9

    def test_displacement_contract(self):
        db = DubinsPlant(v_max=10.0, u_max=80.0)
        rng = np.random.default_rng(6)
        for _ in range(50):
            xi = PlantState(
                x=rng.uniform(-1, 1, size=2),
                zeta=np.array([rng.uniform(-math.pi, math.pi)]),
            )
            target = rng.uniform(-0.04, 0.04, size=2)
            if np.linalg.norm(target) < 1e-6:
                continue
            schedule, _ = steer(db, xi, target, TAU)
            out = integrate(db, xi, schedule, TAU)
            err = np.linalg.norm(out.x - xi.x - target)
            assert err <= 1e-6 * max(1.0, float(np.linalg.norm(target)))

    def test_zero_displacement_holds_position(self):
        db = DubinsPlant()
        xi = PlantState(x=np.array([0.3, -0.2]), zeta=np.array([1.0]))
        schedule, predicted = steer(db, xi, np.array([0.0, 0.0]), TAU)
        out = integrate(db, xi, schedule, TAU)
        assert_allclose(out.x, xi.x, atol=1e-12)
        assert_allclose(out.zeta, xi.zeta, atol=1e-12)
        assert_allclose(predicted.x, xi.x, atol=1e-12)

    def test_turn_slower_than_period_rejected(self):
        # a quarter turn at 1 rad/s takes 1.57 s, far beyond the 0.1 s period
        db = DubinsPlant(v_max=10.0, u_max=1.0)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        with pytest.raises(SteeringError, match="turn-rate|period"):
            steer(db, xi, np.array([0.0, 0.1]), TAU)

    def test_speed_above_cap_rejected(self):
        # covering 10 units within 0.1 s needs 100 u/s against a 10 u/s cap
        db = DubinsPlant(v_max=10.0, u_max=20.0)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        with pytest.raises(SteeringError, match="step size|period"):
            steer(db, xi, np.array([10.0, 0.0]), TAU)

    def test_heading_stays_wrapped(self):
        db = DubinsPlant(v_max=10.0, u_max=20.0)
        xi = PlantState(x=np.array([0.0, 0.0]),
                        zeta=np.array([math.pi - 0.01]))
        # target behind and below: forces a turn across the branch cut
        schedule, _ = steer(db, xi, np.array([-0.02, -0.02]), TAU)
        out = integrate(db, xi, schedule, TAU)
        assert -math.pi < out.zeta[0] <= math.pi


class TestDubinsIntegration:
    def test_straight_run(self):
        db = DubinsPlant()
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        out = integrate(db, xi, [Segment(1.0, (1.0, 0.0))], 1.0)
        assert_allclose(out.x, [1.0, 0.0], atol=1e-12)

    def test_circular_arc_against_closed_form(self):
        # speed 1, turn rate 1 for 1 s from the origin: the endpoint is
        # (sin 1, 1 - cos 1) on the unit circle centered at (0, 1).
        db = DubinsPlant(substeps=100)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        out = integrate(db, xi, [Segment(1.0, (1.0, 1.0))], 1.0)
        exact = np.array([math.sin(1.0), 1.0 - math.cos(1.0)])
        assert np.linalg.norm(out.x - exact) <= 1e-9
        assert_allclose(out.zeta[0], 1.0, atol=1e-12)

    def test_integrator_order_on_arc(self):
        # halving the step must shrink the endpoint error at fourth order;
        # assert the conservative 8x reduction.
        exact = np.array([math.sin(1.0), 1.0 - math.cos(1.0)])
        errors = {}
        for n in (100, 200):
            db = DubinsPlant(substeps=n)
            xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
            out = integrate(db, xi, [Segment(1.0, (1.0, 1.0))], 1.0)
            errors[n] = np.linalg.norm(out.x - exact)
        assert errors[100] / errors[200] >= 8.0

    def test_dense_collection(self):
        db = DubinsPlant(substeps=10)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        seen: list = []
        integrate(db, xi, [Segment(1.0, (1.0, 0.0))], 1.0, collect=seen)
        assert len(seen) >= 10
        times = [t for t, _ in seen]
        assert times == sorted(times)
        # each row carries (time, raw state tuple (x0, x1, heading))
        assert_allclose(seen[-1][1][:2], [1.0, 0.0], atol=1e-12)


def rk4_reference(plant, xi, schedule, tau_star):
    """Raw end state of ``schedule`` under `_rk4_segment` at 100 substeps per
    period, whatever flow the plant itself uses."""
    if isinstance(plant, DubinsPlant):
        y = (float(xi.x[0]), float(xi.x[1]), float(xi.zeta[0]))
    else:
        y = tuple(float(v) for v in xi.x)
    for seg in schedule:
        if isinstance(plant, DubinsPlant):
            speed, turn = seg.controls

            def deriv(s, _v=speed, _u=turn):
                return (_v * math.cos(s[2]), _v * math.sin(s[2]), _u)
        else:

            def deriv(s, _u=seg.controls):
                return _u

        nsteps = max(1, round(100 * seg.duration / tau_star))
        y = plants._rk4_segment(deriv, y, seg.duration, nsteps)
    return y


def steered_cases():
    """(plant, start, schedule) triples from the plants' own steering: point
    mass moves, Dubins turn-then-run moves, the Dubins hold and a Dubins turn
    across the +/-pi branch cut."""
    rng = np.random.default_rng(11)
    pm = PointMassPlant(dimension=3)
    db = DubinsPlant(v_max=10.0, u_max=80.0)
    cases = []
    for _ in range(50):
        xi = PlantState(x=rng.uniform(-2, 2, size=3))
        cases.append((pm, xi, steer(pm, xi, rng.uniform(-1, 1, size=3), TAU)[0]))
    for _ in range(50):
        xi = PlantState(x=rng.uniform(-2, 2, size=2),
                        zeta=np.array([rng.uniform(-math.pi, math.pi)]))
        schedule, _ = steer(db, xi, rng.uniform(-0.04, 0.04, size=2), TAU)
        assert len(schedule) == 2
        assert schedule[0].controls[0] == 0.0 and schedule[1].controls[1] == 0.0
        cases.append((db, xi, schedule))
    hold = PlantState(x=np.array([0.3, -0.2]), zeta=np.array([1.0]))
    cases.append((db, hold, steer(db, hold, np.zeros(2), TAU)[0]))
    cut = PlantState(x=np.array([0.1, 0.2]), zeta=np.array([math.pi - 0.01]))
    schedule, _ = steer(db, cut, np.array([-0.02, -0.02]), TAU)
    turn = schedule[0]
    # the turn ends past +pi, so the raw heading leaves (-pi, pi]
    assert math.pi - 0.01 + turn.controls[1] * turn.duration > math.pi
    cases.append((db, cut, schedule))
    return cases


class TestExactFlow:
    def test_agrees_with_rk4_reference(self):
        for plant, xi, schedule in steered_cases():
            out = integrate(plant, xi, schedule, TAU)
            ref = rk4_reference(plant, xi, schedule, TAU)
            n = out.x.shape[0]
            assert_allclose(out.x, ref[:n], rtol=0.0, atol=1e-12)
            if isinstance(plant, DubinsPlant):
                assert abs(wrap_angle(out.zeta[0] - ref[2])) <= 1e-12


class TestCollectInvariance:
    def test_endpoint_unchanged_by_collect(self):
        for plant, xi, schedule in steered_cases():
            plain = integrate(plant, xi, schedule, TAU)
            rows: list = []
            dense = integrate(plant, xi, schedule, TAU, collect=rows)
            assert_array_equal(dense.x, plain.x)
            assert_array_equal(dense.zeta, plain.zeta)
            assert len(rows) == plant.substeps
            times = [t for t, _ in rows]
            assert times == sorted(times)
            assert_allclose(times[-1], TAU, rtol=1e-12)
            last = rows[-1][1]
            n = plain.x.shape[0]
            assert_array_equal(last[:n], plain.x)
            if isinstance(plant, DubinsPlant):
                assert wrap_angle(last[2]) == plain.zeta[0]

    @pytest.mark.parametrize(
        "scenario", ["fig1_quadratic_pointmass", "fig2_rosenbrock_dubins"]
    )
    def test_closed_loop_jumps_unchanged_by_flow_samples(self, scenario):
        base = cli.scenario_config(scenario)
        jumps = {}
        for samples in (0, 3):
            config = dataclasses.replace(
                base, stop={"max_jumps": 300}, flow_samples_per_period=samples
            )
            arc, _ = cli.run_experiment(config, None)
            jumps[samples] = [
                (s.t, s.j, s.case, s.measured, s.plant.x.tobytes(),
                 s.plant.zeta.tobytes())
                for s in arc.jump_samples()
            ]
        assert len(jumps[0]) == 300
        assert jumps[3] == jumps[0]


class TestExactPlant:
    def test_applies_displacement_algebraically(self):
        ep = ExactPlant(dimension=2)
        xi = PlantState(x=np.array([0.25, -0.5]))
        target = np.array([0.125, 0.0625])
        schedule, predicted = steer(ep, xi, target, TAU)
        out = integrate(ep, xi, schedule, TAU)
        # binary-exact displacement: this plant exists so the closed loop
        # can be compared bit-for-bit against the discrete route
        assert_array_equal(out.x, xi.x + target)
        assert_array_equal(predicted.x, xi.x + target)
        assert out.zeta.size == 0

    def test_any_dimension(self):
        ep = ExactPlant(dimension=4)
        xi = PlantState(x=np.zeros(4))
        target = np.array([1.0, 2.0, 3.0, 4.0])
        schedule, _ = steer(ep, xi, target, TAU)
        out = integrate(ep, xi, schedule, TAU)
        assert_array_equal(out.x, target)


class TestRegistry:
    def test_builders(self):
        assert isinstance(get_plant("point_mass", dimension=2), PointMassPlant)
        db = get_plant("dubins", v_max=5.0, u_max=40.0)
        assert isinstance(db, DubinsPlant)
        assert db.v_max == 5.0
        assert db.u_max == 40.0
        assert isinstance(get_plant("exact", dimension=3), ExactPlant)

    def test_unknown_kind_lists_known(self):
        with pytest.raises(KeyError, match="point_mass"):
            get_plant("hovercraft")
