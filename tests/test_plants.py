"""Tests for the continuous-time plants: point mass, unicycle (turn-rate
limited), the idealized algebraic plant, and the steering/integration
contracts they share.  Fixed-step RK4 lives here as the oracle the plants'
closed-form flows are checked against, and `exact_segment` as the oracle of
their dense rows."""
import dataclasses
import math
from functools import partial

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from directseek import cli
from directseek.core import ConfigError
from directseek.plants import (
    DubinsPlant,
    ExactPlant,
    IntegrationError,
    PlantState,
    PointMassPlant,
    Segment,
    SteeringError,
    _dubins_flow,
    get_plant,
    wrap_angle,
)

TAU = 0.1


def rk4_segment(deriv, y0, duration, nsteps):
    """Classic fixed-step RK4 over one segment of constant controls, in
    plain-float arithmetic."""
    h = duration / nsteps
    y = y0
    idx = range(len(y0))
    for _ in range(nsteps):
        k1 = deriv(y)
        k2 = deriv(tuple(y[i] + 0.5 * h * k1[i] for i in idx))
        k3 = deriv(tuple(y[i] + 0.5 * h * k2[i] for i in idx))
        k4 = deriv(tuple(y[i] + h * k3[i] for i in idx))
        y = tuple(
            y[i] + (h / 6.0) * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i])
            for i in idx
        )
    return y


def unicycle(speed, turn):
    """Right-hand side of the unicycle at constant ``(speed, turn)``."""
    return lambda y: (speed * math.cos(y[2]), speed * math.sin(y[2]), turn)


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
        schedule, predicted = pm.steer(xi, np.array([0.1, 0.0]), 1.0)
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
            schedule, _ = pm.steer(xi, target, TAU)
            out = pm.integrate(xi, schedule, TAU)
            assert_allclose(out.x, x0 + target, atol=1e-12)

    def test_constant_control_displacement(self):
        pm = PointMassPlant(dimension=3)
        xi = PlantState(x=np.array([1.0, -1.0, 0.5]))
        u = (0.3, 0.1, -0.2)
        out = pm.integrate(xi, [Segment(TAU, u)], TAU)
        assert_allclose(out.x, xi.x + TAU * np.array(u), atol=1e-12)
        assert out.zeta.size == 0

    def test_nan_state_raises(self):
        pm = PointMassPlant(dimension=2)
        xi = PlantState(x=np.array([math.nan, 0.0]))
        with pytest.raises(IntegrationError):
            pm.integrate(xi, [Segment(TAU, (1.0, 0.0))], TAU)


class TestDubinsSteering:
    def test_aligned_target_needs_no_turn(self):
        db = DubinsPlant(v_max=10.0, u_max=20.0)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        schedule, predicted = db.steer(xi, np.array([0.5, 0.0]), TAU)
        turn_time = sum(s.duration for s in schedule if s.controls[1] != 0.0)
        assert turn_time == 0.0
        out = db.integrate(xi, schedule, TAU)
        assert_allclose(out.x, [0.5, 0.0], atol=1e-9)
        assert_allclose(out.zeta[0], 0.0, atol=1e-12)
        assert_allclose(predicted.x, [0.5, 0.0], atol=1e-9)

    def test_quarter_turn_endpoint(self):
        db = DubinsPlant(v_max=10.0, u_max=20.0, substeps=1000)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        schedule, _ = db.steer(xi, np.array([0.0, 0.1]), TAU)
        out = db.integrate(xi, schedule, TAU)
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
            schedule, _ = db.steer(xi, target, TAU)
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
            schedule, _ = db.steer(xi, target, TAU)
            out = db.integrate(xi, schedule, TAU)
            err = np.linalg.norm(out.x - xi.x - target)
            assert err <= 1e-6 * max(1.0, float(np.linalg.norm(target)))

    def test_zero_displacement_holds_position(self):
        db = DubinsPlant()
        xi = PlantState(x=np.array([0.3, -0.2]), zeta=np.array([1.0]))
        schedule, predicted = db.steer(xi, np.array([0.0, 0.0]), TAU)
        out = db.integrate(xi, schedule, TAU)
        assert_allclose(out.x, xi.x, atol=1e-12)
        assert_allclose(out.zeta, xi.zeta, atol=1e-12)
        assert_allclose(predicted.x, xi.x, atol=1e-12)

    def test_turn_slower_than_period_rejected(self):
        # a quarter turn at 1 rad/s takes 1.57 s, far beyond the 0.1 s period
        db = DubinsPlant(v_max=10.0, u_max=1.0)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        with pytest.raises(SteeringError, match="turn-rate|period"):
            db.steer(xi, np.array([0.0, 0.1]), TAU)

    def test_speed_above_cap_rejected(self):
        # covering 10 units within 0.1 s needs 100 u/s against a 10 u/s cap
        db = DubinsPlant(v_max=10.0, u_max=20.0)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        with pytest.raises(SteeringError, match="step size|period"):
            db.steer(xi, np.array([10.0, 0.0]), TAU)

    def test_heading_stays_wrapped(self):
        db = DubinsPlant(v_max=10.0, u_max=20.0)
        xi = PlantState(x=np.array([0.0, 0.0]),
                        zeta=np.array([math.pi - 0.01]))
        # target behind and below: forces a turn across the branch cut
        schedule, _ = db.steer(xi, np.array([-0.02, -0.02]), TAU)
        out = db.integrate(xi, schedule, TAU)
        assert -math.pi < out.zeta[0] <= math.pi


class TestDubinsIntegration:
    def test_straight_run(self):
        db = DubinsPlant()
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        out = db.integrate(xi, [Segment(1.0, (1.0, 0.0))], 1.0)
        assert_allclose(out.x, [1.0, 0.0], atol=1e-12)

    def test_circular_arc_against_closed_form(self):
        # speed 1, turn rate 1 for 1 s from the origin: the endpoint is
        # (sin 1, 1 - cos 1) on the unit circle centered at (0, 1).
        db = DubinsPlant(substeps=100)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        out = db.integrate(xi, [Segment(1.0, (1.0, 1.0))], 1.0)
        exact = np.array([math.sin(1.0), 1.0 - math.cos(1.0)])
        assert np.linalg.norm(out.x - exact) <= 1e-15
        assert_allclose(out.zeta[0], 1.0, atol=1e-12)

    @pytest.mark.parametrize("turn", [1e-12, 1e-9, 1e-6, 1e-3, 1.0, 80.0])
    def test_chord_flow_against_rk4_oracle(self, turn):
        # the chord form keeps full accuracy as the turn rate goes to 0,
        # where (s/u)(sin(zeta + u t) - sin zeta) cancels: at u = 1e-6 that
        # form is off by 3.5e-11 here, at u = 1e-12 by 8.2e-5
        db = DubinsPlant()
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.7]))
        out = db.integrate(xi, [Segment(TAU, (1.0, turn))], TAU)
        ref = rk4_segment(unicycle(1.0, turn), (0.0, 0.0, 0.7), TAU, 1000)
        assert_allclose(out.x, ref[:2], rtol=0.0, atol=1e-13)
        assert abs(wrap_angle(out.zeta[0] - ref[2])) <= 1e-13

    def test_dense_collection(self):
        db = DubinsPlant(substeps=10)
        xi = PlantState(x=np.array([0.0, 0.0]), zeta=np.array([0.0]))
        seen: list = []
        db.integrate(xi, [Segment(1.0, (1.0, 0.0))], 1.0, collect=seen)
        assert len(seen) >= 10
        times = [t for t, _ in seen]
        assert times == sorted(times)
        # each row carries (time, raw state tuple (x0, x1, heading))
        assert_allclose(seen[-1][1][:2], [1.0, 0.0], atol=1e-12)


class TestRk4Oracle:
    def test_fourth_order_on_arc(self):
        # halving the step must shrink the endpoint error at fourth order;
        # assert the conservative 8x reduction.
        exact = np.array([math.sin(1.0), 1.0 - math.cos(1.0)])
        errors = {}
        for n in (100, 200):
            y = rk4_segment(unicycle(1.0, 1.0), (0.0, 0.0, 0.0), 1.0, n)
            errors[n] = np.linalg.norm(np.array(y[:2]) - exact)
        assert errors[100] / errors[200] >= 8.0


def rk4_reference(plant, xi, schedule, tau_star):
    """Raw end state of ``schedule`` under `rk4_segment` at 100 substeps per
    period, whatever flow the plant itself uses."""
    if isinstance(plant, DubinsPlant):
        y = (float(xi.x[0]), float(xi.x[1]), float(xi.zeta[0]))
    else:
        y = tuple(float(v) for v in xi.x)
    for seg in schedule:
        if isinstance(plant, DubinsPlant):
            deriv = unicycle(*seg.controls)
        else:

            def deriv(s, _u=seg.controls):
                return _u

        nsteps = max(1, round(100 * seg.duration / tau_star))
        y = rk4_segment(deriv, y, seg.duration, nsteps)
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
        cases.append((pm, xi, pm.steer(xi, rng.uniform(-1, 1, size=3), TAU)[0]))
    for _ in range(50):
        xi = PlantState(x=rng.uniform(-2, 2, size=2),
                        zeta=np.array([rng.uniform(-math.pi, math.pi)]))
        schedule, _ = db.steer(xi, rng.uniform(-0.04, 0.04, size=2), TAU)
        assert len(schedule) == 2
        assert schedule[0].controls[0] == 0.0 and schedule[1].controls[1] == 0.0
        cases.append((db, xi, schedule))
    hold = PlantState(x=np.array([0.3, -0.2]), zeta=np.array([1.0]))
    cases.append((db, hold, db.steer(hold, np.zeros(2), TAU)[0]))
    cut = PlantState(x=np.array([0.1, 0.2]), zeta=np.array([math.pi - 0.01]))
    schedule, _ = db.steer(cut, np.array([-0.02, -0.02]), TAU)
    turn = schedule[0]
    # the turn ends past +pi, so the raw heading leaves (-pi, pi]
    assert math.pi - 0.01 + turn.controls[1] * turn.duration > math.pi
    cases.append((db, cut, schedule))
    return cases


class TestExactFlow:
    def test_agrees_with_rk4_reference(self):
        for plant, xi, schedule in steered_cases():
            out = plant.integrate(xi, schedule, TAU)
            ref = rk4_reference(plant, xi, schedule, TAU)
            n = out.x.shape[0]
            assert_allclose(out.x, ref[:n], rtol=0.0, atol=1e-12)
            if isinstance(plant, DubinsPlant):
                assert abs(wrap_angle(out.zeta[0] - ref[2])) <= 1e-12


class TestCollectInvariance:
    def test_endpoint_unchanged_by_collect(self):
        for plant, xi, schedule in steered_cases():
            plain = plant.integrate(xi, schedule, TAU)
            rows: list = []
            dense = plant.integrate(xi, schedule, TAU, collect=rows)
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


def exact_segment(flow, y0, duration, nsteps, collect=None, t0=0.0):
    """Closed-form flow over one segment, ``flow(y0, s)`` being the state
    after time ``s``.  When ``collect`` is given, appends (t, y) after each
    of ``nsteps`` equal substeps; the last row is the returned endpoint
    itself.  The dense-row walk the plants used before they flowed each
    endpoint directly."""
    y = flow(y0, duration)
    if collect is not None:
        h = duration / nsteps
        for step in range(1, nsteps):
            collect.append((t0 + step * h, flow(y0, step * h)))
        collect.append((t0 + nsteps * h, y))
    return y


def oracle_rows(plant, xi, schedule, tau_star):
    """Dense rows and raw endpoint of ``schedule`` through `exact_segment`."""
    dubins = isinstance(plant, DubinsPlant)
    if dubins:
        y = (float(xi.x[0]), float(xi.x[1]), float(xi.zeta[0]))
    else:
        y = tuple(float(v) for v in xi.x)
    rows: list = []
    t = 0.0
    for seg in schedule:
        nsteps = max(1, round(plant.substeps * seg.duration / tau_star))
        if dubins:
            flow = partial(_dubins_flow, *seg.controls)
        else:

            def flow(y0, s, _u=seg.controls):
                return tuple(a + s * b for a, b in zip(y0, _u))

        y = exact_segment(flow, y, seg.duration, nsteps, rows, t)
        t += seg.duration
    return rows, y


def row_bits(rows):
    """Rows with every float as its exact hex form (so -0.0 != 0.0)."""
    return [(t.hex(), tuple(v.hex() for v in y)) for t, y in rows]


class TestDenseRowOracle:
    @pytest.mark.parametrize("substeps", [1, 7, 100])
    def test_rows_match_the_oracle_bitwise(self, substeps):
        # steered_cases builds fresh plants; substeps only space the rows
        for plant, xi, schedule in steered_cases():
            plant.substeps = substeps
            rows: list = []
            out = plant.integrate(xi, schedule, TAU, collect=rows)
            ref_rows, ref_end = oracle_rows(plant, xi, schedule, TAU)
            assert row_bits(rows) == row_bits(ref_rows)
            end = plant.row_state(ref_end)
            assert out.x.tobytes() == end.x.tobytes()
            assert out.zeta.tobytes() == end.zeta.tobytes()


class TestStateConstruction:
    @staticmethod
    def returned_states():
        """Every state `steer` and `integrate` return on the three plants,
        the Dubins hold included."""
        rng = np.random.default_rng(17)
        cases = [(ExactPlant(dimension=3), PlantState(rng.uniform(-1, 1, 3)),
                  rng.uniform(-0.1, 0.1, 3))]
        pm = PointMassPlant(dimension=3)
        cases += [(pm, pm.initial_state(rng.uniform(-1, 1, 3)), target)
                  for target in (rng.uniform(-0.1, 0.1, 3), np.zeros(3))]
        db = DubinsPlant(v_max=10.0, u_max=80.0)
        cases += [(db, db.initial_state([0.3, -0.2], 1.0), target)
                  for target in (np.array([0.02, -0.01]), np.zeros(2))]
        for plant, xi, target in cases:
            schedule, predicted = plant.steer(xi, target, TAU)
            yield plant, predicted
            yield plant, plant.integrate(xi, schedule, TAU)
            yield plant, plant.integrate(xi, schedule, TAU, collect=[])

    def test_states_have_no_dict(self):
        assert not hasattr(PlantState(np.zeros(2)), "__dict__")
        for _, state in self.returned_states():
            assert type(state) is PlantState
            assert not hasattr(state, "__dict__")

    def test_returned_states_hold_float64(self):
        for plant, state in self.returned_states():
            for a in (state.x, state.zeta):
                assert type(a) is np.ndarray and a.dtype == np.float64
            assert state.x.shape == (plant.dimension,)
            assert state.zeta.shape == (plant.zeta_dimension,)

    def test_stateless_plants_share_the_read_only_empty_zeta(self):
        shared = PlantState(np.zeros(2)).zeta
        assert not shared.flags.writeable
        for plant, state in self.returned_states():
            if not isinstance(plant, DubinsPlant):
                assert state.zeta is shared

    def test_outside_input_is_converted(self):
        for state in (PlantState([0, 1]), PlantState([0, 1], [2]),
                      PlantState([0, 1]).copy(),
                      PointMassPlant().initial_state([0, 1]),
                      ExactPlant().initial_state([0, 1]),
                      DubinsPlant().initial_state([0, 1], 2)):
            assert state.x.dtype == np.float64
            assert state.zeta.dtype == np.float64
            assert state.x.tolist() == [0.0, 1.0]


class TestDubinsDenseRows:
    def test_fig2_dense_rows_keep_the_wrapped_heading(self):
        base = cli.scenario_config("fig2_rosenbrock_dubins")
        config = dataclasses.replace(
            base, stop={"max_jumps": 2}, flow_samples_per_period=3)
        arc, _ = cli.run_experiment(config, None)
        plant = get_plant(**config.plant)
        tau = config.algorithm["tau_star"]
        starts = [0, *arc.jump_rows()]
        assert len(starts) == 3
        rows = arc.rows
        for r, next_r in zip(starts, starts[1:]):
            xi = PlantState(rows["x"][r], rows["zeta"][r])
            target = (int(rows["p"][r]) * float(rows["delta"][r])
                      * arc.directions[rows["v"][r]])
            schedule, _ = plant.steer(xi, target, tau)
            raw: list = []
            plant.integrate(xi, schedule, tau, collect=raw)
            stride = len(raw) // 4
            dense = range(r + 1, next_r)
            assert len(dense) == 3
            for i, row in enumerate(dense, start=1):
                x1, x2, heading = raw[i * stride - 1][1]
                assert rows["x"][row].tolist() == [x1, x2]
                assert rows["zeta"][row].tolist() == [wrap_angle(heading)]
                assert -math.pi < rows["zeta"][row][0] <= math.pi
            assert rows["zeta"][next_r].shape == (1,)


class TestExactPlant:
    def test_applies_displacement_algebraically(self):
        ep = ExactPlant(dimension=2)
        xi = PlantState(x=np.array([0.25, -0.5]))
        target = np.array([0.125, 0.0625])
        schedule, predicted = ep.steer(xi, target, TAU)
        out = ep.integrate(xi, schedule, TAU)
        # binary-exact displacement: this plant exists so the closed loop
        # can be compared bit-for-bit against the discrete route
        assert_array_equal(out.x, xi.x + target)
        assert_array_equal(predicted.x, xi.x + target)
        assert out.zeta.size == 0

    def test_any_dimension(self):
        ep = ExactPlant(dimension=4)
        xi = PlantState(x=np.zeros(4))
        target = np.array([1.0, 2.0, 3.0, 4.0])
        schedule, _ = ep.steer(xi, target, TAU)
        out = ep.integrate(xi, schedule, TAU)
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

    @pytest.mark.parametrize("kind, params", [
        ("point_mass", {"substeps": True}),
        ("point_mass", {"dimension": True}),
        ("point_mass", {"substeps": 2.5}),
        ("point_mass", {"substeps": 0}),
        ("dubins", {"substeps": True}),
        ("exact", {"dimension": True}),
        ("exact", {"dimension": 0}),
    ])
    def test_counts_are_integers_of_at_least_one(self, kind, params):
        # A bool is an int, so True passed `>= 1` and ran as 1.
        (name, value), = params.items()
        with pytest.raises(ConfigError) as info:
            get_plant(kind, **params)
        assert info.value.violations == [
            f"plant '{kind}': {name} must be an integer >= 1, got {value!r}"]
