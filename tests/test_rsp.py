"""Tests for the discrete-route walker: line minimization with sufficient
decrease, cycle mechanics, step-size laws, the conjugate-direction update,
and the exact-minimization oracle (`exact_mode`) behind the
quadratic-termination checks."""
import collections
import copy
import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from directseek import core, hybrid, rsp
from directseek.core import AlgorithmConfig, DirectionSet, StopRule
from directseek.rsp import KINDS
from directseek.noise import BoundedRandomNoise, ZeroNoise, jam_demo
from directseek.plants import ExactPlant, PlantState
from exact_mode import exact_cycles, exact_line_search, spd_hessian

# f(x) = x1^2 + 5 x2^2 (`core.make_aniso_quadratic`) as (H, x*).
ANISO = (np.diag([2.0, 10.0]), np.zeros(2))


def make_parabola():
    return core.ObjectiveFunction(
        "parabola", 1, lambda x: float(x[0] ** 2),
        gradient=lambda x: 2.0 * x, known_minimizers=[np.zeros(1)],
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


def first_line(objective, x0, direction, delta, phi, cfg, z0=None):
    """Walk ``direction`` from ``x0`` with step ``delta``: cycle 0, slot 0
    of `rsp.run`, which walks the newest direction first.  ``z0`` defaults
    to the measured start value.  Returns ``(alpha, accepted, final_value,
    final_step)``: the signed travel, the number of accepted probes, and the
    measurement and step of the closing record."""
    x0 = np.asarray(x0, dtype=float)
    n = x0.shape[0]
    dirs = [np.eye(n)[i] for i in range(n - 1)] + [direction]
    state = rsp.run(
        objective, x0, cfg, StopRule(max_cycles=1),
        directions=DirectionSet(dirs, [delta] * n), phi0=phi,
        z0=float(objective(x0)) if z0 is None else z0,
    )
    line = [r for r in state.iterate_log if (r.cycle, r.slot) == (0, 0)]
    close = line[-1]
    assert close.kind == "close"
    alpha = 0.0
    for r in line:
        if r.accepted:
            alpha += r.delta if r.kind == "probe_pos" else -r.delta
    return alpha, close.step, close.measured, close.delta


class TestLineMinimize:
    def test_parabola_reaches_minimizer(self):
        # accepts 0.5 (0.25 <= 1 - rho(0.5) = 0.75), accepts 0.0
        # (0 <= 0.25 - 0.25 is a tie-accept), then both signs fail
        alpha, steps, value, step = first_line(
            make_parabola(), [1.0], np.array([-1.0]), 0.5, 1.0,
            AlgorithmConfig(gamma=1.0),
        )
        assert alpha == 1.0
        assert steps == 2
        assert value == 0.0
        assert step == 0.5

    def test_blocked_at_minimizer(self):
        # from the bottom both signs fail: f(+-0.5) = 0.25 > 0 - 0.25
        alpha, steps, value, _ = first_line(
            make_parabola(), [0.0], np.array([1.0]), 0.5, 1.0,
            AlgorithmConfig(gamma=1.0),
        )
        assert alpha == 0.0
        assert steps == 0
        assert value == 0.0

    def test_axis_walk_on_quadratic(self):
        # f decreases 2.25 -> 1.0 -> 0.25 -> 0.0 with rho(0.5) = 0.25 margins
        alpha, steps, value, step = first_line(
            core.make_aniso_quadratic(), [1.5, 0.0], np.array([-1.0, 0.0]),
            0.5, 1.0, AlgorithmConfig(gamma=1.0),
        )
        assert alpha == 1.5
        assert steps == 3
        assert value == 0.0
        assert step == 0.5

    def test_expansion_and_cap(self):
        # gamma = 1.2, lambda_t * phi = 2.5: steps 1, 1.2, 1.44, 1.728,
        # 2.0736, 2.48832 then the cap pins the step at 2.5
        alpha, steps, value, step = first_line(
            make_parabola(), [10.0], np.array([-1.0]), 1.0, 0.5,
            AlgorithmConfig(gamma=1.2, lambda_t=5.0),
        )
        assert steps == 6
        assert_allclose(alpha, 9.92992, rtol=1e-12)
        assert_allclose(value, 0.004911206400000113, rtol=1e-12)
        assert step == 2.5

    def test_supplied_z_is_honored(self):
        # with a stale, too-good z nothing is accepted
        alpha, steps, _, _ = first_line(
            make_parabola(), [1.0], np.array([-1.0]), 0.5, 1.0,
            AlgorithmConfig(gamma=1.0), z0=-1.0,
        )
        assert alpha == 0.0
        assert steps == 0

    def test_non_finite_measurement_raises(self):
        bad = core.ObjectiveFunction("bad", 1, lambda x: float("nan"))
        with pytest.raises(rsp.EvaluationError):
            first_line(bad, [1.0], np.array([-1.0]), 0.5, 1.0,
                       AlgorithmConfig())
        pocket = core.ObjectiveFunction(
            "pocket", 1,
            lambda x: float("inf") if x[0] < 0 else float(x[0] ** 2),
        )
        with pytest.raises(rsp.EvaluationError) as excinfo:
            first_line(pocket, [0.25], np.array([-1.0]), 0.5, 1.0,
                       AlgorithmConfig())
        assert excinfo.value.point[0] < 0


class TestRspCycle:
    def test_quadratic_first_cycle_decreases(self):
        obj = core.make_aniso_quadratic()
        x0 = np.array([1.5, 0.0])
        state = rsp.run(obj, x0, AlgorithmConfig(), StopRule(max_cycles=1),
                        directions=rotated_frame(), phi0=0.01,
                        z0=float(obj(x0)))
        assert state.cycles == 1
        assert state.z < 2.25

    def test_constant_objective_blocks(self):
        obj = core.get_objective("constant", dimension=2)
        x0 = np.array([0.7, -0.3])
        cfg = AlgorithmConfig()
        state = rsp.run(obj, x0, cfg, StopRule(max_cycles=1),
                        directions=rotated_frame(step=1.0), phi0=1.0)
        assert state.cycles == 1
        assert_array_equal(state.x, x0)
        assert state.phi == cfg.mu * 1.0
        assert state.blocked_cycles == 1


class TestRun:
    def test_requires_a_stop_limit(self):
        with pytest.raises(ValueError):
            rsp.run(make_parabola(), np.array([1.0]), AlgorithmConfig(),
                    StopRule())

    def test_rejects_invalid_config(self):
        with pytest.raises(core.ConfigError):
            rsp.run(make_parabola(), np.array([1.0]),
                    AlgorithmConfig(theta=1.0), StopRule(max_cycles=1))

    @pytest.mark.parametrize("stop", [
        StopRule(max_evaluations=-3),
        StopRule(max_evaluations=2.5),
        StopRule(max_evaluations=True),
        StopRule(max_cycles=-1),
        StopRule(max_cycles=1.0),
        StopRule(max_cycles=1, phi_threshold=0.0),
    ], ids=["evals-negative", "evals-float", "evals-bool", "cycles-negative",
            "cycles-float", "threshold-zero"])
    def test_rejects_bad_budgets(self, stop):
        with pytest.raises(core.ConfigError, match="stop[.]"):
            rsp.run(make_parabola(), np.array([1.0]), AlgorithmConfig(), stop)

    def test_bad_config_and_budget_raise_once(self):
        with pytest.raises(core.ConfigError) as info:
            rsp.run(make_parabola(), np.array([1.0]),
                    AlgorithmConfig(theta=1.0), StopRule(max_evaluations=-3))
        assert len(info.value.violations) == 2

    @pytest.mark.parametrize("case, expected", [
        ("start", "start has shape (3,), expected (2,) for 2 directions"),
        ("direction", "direction 1 has shape (3,), expected (2,)"),
        ("steps", "3 stored steps for 2 directions"),
    ], ids=["start", "direction", "steps"])
    def test_rejects_disagreeing_dimensions(self, case, expected):
        # A DirectionSet checks itself when built; its lists can still be
        # changed afterwards, so the run checks them again.
        ds = DirectionSet([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                          [0.5, 0.5])
        x0 = np.ones(3) if case == "start" else np.ones(2)
        if case == "direction":
            ds.directions[1] = np.ones(3)
        if case == "steps":
            ds.step_sizes.append(0.5)
        with pytest.raises(core.ConfigError) as info:
            rsp.run(core.make_sphere(2), x0, AlgorithmConfig(),
                    StopRule(max_evaluations=-3), directions=ds)
        assert info.value.violations == [
            "stop.max_evaluations must be a non-negative integer, got -3",
            expected]

    def test_zero_budget_runs(self):
        state = rsp.run(make_parabola(), np.array([1.0]), AlgorithmConfig(),
                        StopRule(max_evaluations=0))
        assert (state.evaluations, state.stopped) == (0, "max_evaluations")

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
        assert len(log) == 300
        # The objective is called at exactly the records whose point is not
        # bitwise the one measured two before, with that record's array.
        called = [r for i, r in enumerate(log)
                  if i < 2 or r.x.tobytes() != log[i - 2].x.tobytes()]
        assert len(seen) == len(called)
        for record, (arg, snapshot) in zip(called, seen):
            assert record.x.tobytes() == arg.tobytes()
            assert record.x.tobytes() == snapshot.tobytes()
        for record in log:
            assert record.x is not x0 and record.anchor is not x0
        # Each record's anchor is its derived line's row of the anchor table.
        lines = log.lines
        for record, line in zip(log, lines):
            assert record.anchor.tobytes() == log.anchors[line].tobytes()
        reanchors = [r for r in log if r.kind == "reanchor"]
        assert reanchors
        assert all(r.x.tobytes() == r.anchor.tobytes() for r in reanchors)
        for i, (prev, record) in enumerate(zip(log, log[1:])):
            if (prev.cycle, prev.slot) == (record.cycle, record.slot):
                assert lines[i + 1] == lines[i]
                assert record.anchor.tobytes() == prev.anchor.tobytes()

    def test_later_cycles_and_the_caller_leave_the_log_unchanged(self):
        # a 22-cycle run begins with the same records as a 2-cycle run, so
        # its first two cycles' records must still read as those did
        obj = core.make_aniso_quadratic()
        cfg = AlgorithmConfig()
        x0 = np.array([1.5, 0.0])

        def walk(cycles):
            return rsp.run(obj, x0, cfg, StopRule(max_cycles=cycles),
                           directions=self.AXES).iterate_log

        mid = copy.deepcopy(walk(2))
        log = walk(22)
        x0[:] = 99.0
        assert len(log) > len(mid)
        assert_same_records(mid, log)

    def test_mutating_the_start_after_run_leaves_the_log_unchanged(self):
        x0 = np.array([1.5, 0.0])
        state = rsp.run(core.make_aniso_quadratic(), x0, AlgorithmConfig(),
                        StopRule(max_evaluations=200), directions=self.AXES)
        before = copy.deepcopy(state.iterate_log)
        x0[:] = 99.0
        assert_same_records(before, state.iterate_log)


def noisy_robust_walker(stop, noise=None):
    """The walker of `noisy_robust_walk` under ``stop``: its final state."""
    n = 4
    return rsp.run(core.make_random_spd_quadratic(dimension=n, seed=0),
                   np.zeros(n), AlgorithmConfig(lambda_s=0.1, phi_min=0.001),
                   stop, directions=DirectionSet(list(np.eye(n)), [0.5] * n),
                   noise=BoundedRandomNoise(1e-6, seed=0) if noise is None
                   else noise)


def noisy_robust_walk(jumps=2000, noise=None):
    """Both routes on the 4-D noisy robust quadratic of `walker_noisy`,
    over ``jumps`` measurements: ``(state, arc)``.  ``noise`` is the
    walker's model, a fresh one of that bound and seed if not given."""
    n = 4
    state = noisy_robust_walker(StopRule(max_evaluations=jumps), noise)
    objective = core.make_random_spd_quadratic(dimension=n, seed=0)
    cfg = AlgorithmConfig(lambda_s=0.1, phi_min=0.001)
    axes = [np.eye(n)[i] for i in range(n)]
    arc = hybrid.run_closed_loop(
        ExactPlant(n), objective, PlantState(np.zeros(n)),
        hybrid.make_controller(axes, [0.5] * n, 1.0), cfg,
        StopRule(max_jumps=jumps), noise=BoundedRandomNoise(1e-6, seed=0))
    return state, arc


def counting_records(monkeypatch) -> list:
    """Count the `EvalRecord`s built from here on."""
    built = []
    real = rsp.EvalRecord
    monkeypatch.setattr(rsp, "EvalRecord",
                        lambda log, index, *fields: built.append(index)
                        or real(log, index, *fields))
    return built


class TestWalkerLogRecords:
    """The walker keeps one packed record per measurement, the start and
    the directions walked, and builds no object per measurement."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_the_packer_writes_the_record(self, n):
        # A record keeps its point's line coordinate, not its n coordinates.
        dtype = rsp.log_dtype(n)
        assert core.record_struct(dtype).size == dtype.itemsize == 26

    def test_the_log_holds_no_per_measurement_objects(self, monkeypatch):
        state, arc = noisy_robust_walk()
        gc.collect()
        tracemalloc.start()
        try:
            noise = BoundedRandomNoise(1e-6, seed=0)
            state, _ = noisy_robust_walk(noise=noise)
            log, history = state.iterate_log, noise.history
            del state, noise
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
            rows = log.rows
            nbytes, itemsize = rows.nbytes, rows.dtype.itemsize
            records = len(rows)
            table = log.start.nbytes + log.directions.nbytes
            built = counting_records(monkeypatch)
            assert len(log) == 2000
            assert hybrid.equivalence_check(arc, log, tol=1e-9,
                                            min_points=2000).ok
            assert built == []
            assert log[-1].index == 2000
            assert len(built) == 1
            del log, rows
            gc.collect()
            retained = held - tracemalloc.get_traced_memory()[0]
            samples = len(history)
            del history
            gc.collect()
            history_retained = (held - retained
                                - tracemalloc.get_traced_memory()[0])
        finally:
            tracemalloc.stop()
        assert (records, nbytes) == (2000, 2000 * itemsize)
        # The records, the start, the direction table and its slack; a
        # record object per measurement would hold several times the
        # records.
        assert nbytes + table <= retained <= 2 * nbytes
        # The noise history is 8 B per measurement and the buffer's slack;
        # a list of floats holds about 33 B per measurement.
        assert samples == 2000
        assert 8 * samples <= history_retained <= 12 * samples

    def test_records_are_the_measurements(self, monkeypatch):
        # Each record field for field against what the walk did: the
        # measurement (index, point, value, step size), the line it was
        # made in (cycle, slot, anchor), the probes accepted in that line,
        # and the controller's jump case for that measurement.
        measured, lines = [], []
        run_slot = rsp._Walker.run_slot

        # Built by the walker only, so the closed loop's measurements are
        # not recorded.
        class RecordingMeter(core.Meter):
            __slots__ = ()

            def measure(self, x, delta, direction):
                y = super().measure(x, delta, direction)
                measured.append((self.count, x.tobytes(), delta, y))
                return y

        def recording_run_slot(walker):
            st = walker.st
            lines.append((walker.meter.count, st.cycles, st.k, st.x.tobytes()))
            run_slot(walker)

        monkeypatch.setattr(rsp, "Meter", RecordingMeter)
        monkeypatch.setattr(rsp._Walker, "run_slot", recording_run_slot)
        state, arc = noisy_robust_walk()
        log = state.iterate_log
        assert len(log) == len(measured) == 2000
        cases = [hybrid.CASES[c] for c in arc.rows["case"][arc.jump_rows()]]
        starts = [start for start, *_ in lines]
        step = 0
        for record, (count, x, delta, y), case in zip(log, measured, cases):
            _, cycle, slot, anchor = lines[
                np.searchsorted(starts, record.index, "left") - 1]
            step += record.accepted
            assert (record.index, record.x.tobytes(), record.delta,
                    record.measured) == (count, x, delta, y)
            assert (record.cycle, record.slot,
                    record.anchor.tobytes()) == (cycle, slot, anchor)
            assert record.step == step
            assert hybrid.WALKER_CASES[(record.kind, record.accepted)] is case
            if record.kind == "close":
                step = 0
        assert len(set(starts)) == len(lines) > 400
        # A built record is a copy: changing it leaves the log as it was.
        record = log[5]
        x, anchor = record.x.tobytes(), record.anchor.tobytes()
        record.x[:] = record.anchor[:] = 99.0
        assert (log[5].x.tobytes(), log[5].anchor.tobytes()) == (x, anchor)

    def test_the_jam_audit_builds_no_record(self, monkeypatch):
        built = counting_records(monkeypatch)
        report = jam_demo(core.make_sphere(2), np.array([1.0, 0.0]),
                          AlgorithmConfig(), 0.5, budget=280, drag_start=200)
        assert report.frozen_iterations > 0 and report.escaped is not None
        assert built == []


class TestLogBuffer:
    """The walker packs each record in place at its measurement's row of one
    buffer, first sized for the measurement cap (at most
    `rsp._LOG_CEILING` bytes) and doubled when full; what a record does
    not store is derived only when asked for."""

    def test_an_uncapped_walk_doubles_its_buffer(self, monkeypatch):
        unpatched = noisy_robust_walker(StopRule(max_cycles=60)).iterate_log
        count = len(unpatched)
        first = 64
        monkeypatch.setattr(rsp, "_LOG_CEILING",
                            first * rsp.log_dtype(4).itemsize)
        log = noisy_robust_walker(StopRule(max_cycles=60)).iterate_log
        # Grown from 64 rows by doubling, at least four times.
        assert len(log.rows.base) == first * 2 ** math.ceil(
            math.log2(count / first)) >= 16 * first
        rerun = noisy_robust_walker(StopRule(max_evaluations=count)).iterate_log
        for other in (unpatched, rerun):
            assert log.rows.tobytes() == other.rows.tobytes()
            assert log.points().tobytes() == other.points().tobytes()
            assert log.directions.tobytes() == other.directions.tobytes()

    def test_a_capped_walk_fills_one_buffer(self):
        log = noisy_robust_walker(StopRule(max_evaluations=300)).iterate_log
        assert len(log) == len(log.rows.base) == 300

    def test_a_huge_cap_allocates_at_most_the_ceiling(self):
        gc.collect()
        tracemalloc.start()
        try:
            state = noisy_robust_walker(
                StopRule(max_cycles=1, max_evaluations=10**12))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.stopped == "max_cycles" and len(state.iterate_log) > 5
        assert len(state.iterate_log.rows.base) * 26 <= rsp._LOG_CEILING
        assert peak < 1_000_000

    def test_reading_kinds_builds_no_table(self):
        gc.collect()
        tracemalloc.start()
        try:
            noise = BoundedRandomNoise(1e-6, seed=0)
            log = noisy_robust_walker(StopRule(max_evaluations=20_000),
                                      noise).iterate_log
            gc.collect()
            live = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            cases = collections.Counter((r.kind, r.accepted) for r in log)
            peak = tracemalloc.get_traced_memory()[1] - live
        finally:
            tracemalloc.stop()
        # The walk leaves its records, the start, the direction table and
        # the noise history; the per-line anchors are not kept.
        assert len(log) == sum(cases.values()) == 20_000
        assert live <= 800_000
        # Counting cases builds no point and no derived table.
        assert not {"lines", "steps", "anchors", "line_directions"} & set(
            vars(log))
        assert peak < 64 * 1024
        assert set(cases) == set(hybrid.WALKER_CASES)


def recording_walk(objective, x0, cfg, stop, directions, noise, **kwargs):
    """`rsp.run` with ``objective`` logging, at each call, the measurement's
    row (the noise history holds one value per earlier measurement, since
    noise is drawn after the call) and a copy of the argument:
    ``(state, seen)``."""
    seen = []

    def evaluate(x):
        seen.append((len(noise.history), x.copy()))
        return objective.evaluate(x)

    recorder = core.ObjectiveFunction("recording", objective.dimension,
                                      evaluate)
    state = rsp.run(recorder, x0, cfg, stop, directions=directions,
                    noise=noise, **kwargs)
    return state, seen


def assert_points_are_the_arguments(log, seen):
    """Each rebuilt point and each record's ``x`` is bitwise the argument of
    the objective call its measurement made; a measurement that made no call
    reused the value of the one two before, whose point is bitwise its own."""
    points = log.points()
    called = dict(seen)
    assert len(called) == len(seen)
    assert points.shape == (len(log), log.anchors.shape[1])
    for i, point in enumerate(points):
        expected = called[i] if i in called else points[i - 2]
        assert i in called or i >= 2
        assert point.tobytes() == expected.tobytes()
        assert log[i].x.tobytes() == point.tobytes()
    half = len(log) // 2
    assert log.points(half).tobytes() == points[:half].tobytes()


def rotated_walk(n, budget, cfg=None):
    """A seeded noisy walk of ``n`` dimensions from a random start along a
    random orthonormal frame, its objective's arguments recorded."""
    rng = np.random.default_rng(n)
    frame, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return recording_walk(
        core.make_random_spd_quadratic(dimension=n, seed=n),
        rng.uniform(-1.0, 1.0, n), cfg or AlgorithmConfig(),
        StopRule(max_evaluations=budget),
        DirectionSet(list(frame), [0.5] * n), BoundedRandomNoise(1e-3, seed=n))


class TestRebuiltPoints:
    """A record keeps its point's line coordinate ``s``; `IterateLog.points`
    rebuilds ``anchor + s * v`` bitwise as the walker measured it."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_seeded_noisy_walks(self, n):
        state, seen = rotated_walk(n, 2000)
        log = state.iterate_log
        assert len(log) == 2000 > len(seen)
        assert set(KINDS[k] for k in log.rows["kind"]) == set(KINDS)
        assert_points_are_the_arguments(log, seen)

    def test_the_direction_table_follows_the_slot_map(self):
        n = 2
        state, _ = rotated_walk(n, 500)
        log = state.iterate_log
        # The start's directions, then the one each cycle close added.
        assert len(log.directions) == n + state.cycles
        lines = range(len(log.anchors))
        assert log.line_directions.tolist() == [
            line // (n + 1) + core.active_slot(line % (n + 1), n)
            for line in lines]
        assert log.directions[-n:].tobytes() == np.array(
            state.directions.directions).tobytes()

    def test_a_budget_stop_mid_cycle(self):
        n = 4
        state, seen = rotated_walk(n, 63)
        log = state.iterate_log
        assert state.stopped == "max_evaluations"
        # The budget ends the cycle's closing line between two probes.
        assert (state.k, log[-1].slot, log[-1].kind) == (4, 4, "probe_neg")
        assert_points_are_the_arguments(log, seen)

    def test_a_robust_cycle_that_recycles_the_oldest_direction(self):
        n = 4
        state, seen = rotated_walk(
            n, 2000, AlgorithmConfig(lambda_s=0.1, phi_min=0.001))
        log = state.iterate_log
        table = [row.tobytes() for row in log.directions]
        # The guard rejected the candidate and the close re-appended d0.
        recycled = [c for c in range(state.cycles) if table[n + c] == table[c]]
        assert recycled and recycled[0] + 1 < state.cycles
        assert n + recycled[0] in log.line_directions.tolist()
        assert_points_are_the_arguments(log, seen)

    def test_a_first_line_re_anchor_at_the_start(self):
        # -0.0 + 0.0 * 1.0 would be 0.0: the re-anchor's point is the anchor.
        x0 = np.array([1.5, -0.0])
        state, seen = recording_walk(
            core.make_aniso_quadratic(), x0, AlgorithmConfig(),
            StopRule(max_evaluations=40), TestFieldReuse.AXES, ZeroNoise(),
            phi0=0.5)
        log = state.iterate_log
        assert [r.kind for r in log[:2]] == ["probe_pos", "reanchor"]
        assert log.points()[1].tobytes() == x0.tobytes()
        assert_points_are_the_arguments(log, seen)


def signed_objective(seen):
    """``1 + copysign(0.5, x0)``: tells -0.0 from 0.0.  Logs each argument."""

    def evaluate(x):
        seen.append(x)
        return 1.0 + math.copysign(0.5, x[0])

    return core.ObjectiveFunction("signed", 1, evaluate)


def digest(values) -> str:
    """A short digest of a sequence of floats' bytes."""
    return hashlib.sha256(np.array(values, dtype=float).tobytes()).hexdigest()[:16]


class TestFieldReuse:
    """The walker evaluates the field once per distinct measured point: a
    measurement whose bytes equal those of the measurement two before
    reuses that value, and noise is drawn at every measurement."""

    AXES = DirectionSet([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                        [0.5, 0.5])

    def noisy_walk(self, seen):
        noise = BoundedRandomNoise(1e-3, seed=5)
        state = rsp.run(recording_quadratic(seen), [1.5, 0.0],
                        AlgorithmConfig(), StopRule(max_evaluations=2000),
                        directions=self.AXES, phi0=0.5, noise=noise)
        return state.iterate_log, noise

    def test_calls_skip_exactly_the_two_back_repeats(self):
        seen = []
        log, _ = self.noisy_walk(seen)
        repeats = sum(b.x.tobytes() == a.x.tobytes()
                      for a, b in zip(log, log[2:]))
        assert (len(log), repeats) == (2000, 739)
        assert len(seen) == 2000 - repeats

    def test_noise_is_drawn_once_per_measurement(self):
        log, noise = self.noisy_walk([])
        f = core.make_aniso_quadratic()
        assert len(noise.history) == 2000
        assert [r.measured for r in log] == [
            f(r.x) + n for r, n in zip(log, noise.history)]
        # The noise and the measured values of this run as one objective
        # call per measurement gave them.
        assert digest(noise.history) == "92e204346d44c05d"
        assert digest([r.measured for r in log]) == "9be931a0c601b402"

    def test_a_first_line_re_anchor_at_the_start_calls_the_objective(self):
        # The start is never measured, so the re-measure there is new.
        seen = []
        x0 = np.array([1.5, 0.0])
        log = rsp.run(recording_quadratic(seen), x0, AlgorithmConfig(),
                      StopRule(max_evaluations=2), directions=self.AXES,
                      phi0=0.5).iterate_log
        assert [r.kind for r in log] == ["probe_pos", "reanchor"]
        assert log[1].x.tobytes() == x0.tobytes()
        assert len(seen) == 2 and seen[1][0].tobytes() == log[1].x.tobytes()
        assert log[1].measured == 2.25

    def test_a_re_measure_at_signed_zero_calls_the_objective(self):
        # The line fails on both sides, so it closes at -0.0 + 0.0 * v = 0.0,
        # two measurements after the re-anchor at -0.0.
        seen = []
        log = rsp.run(signed_objective(seen), np.array([-0.0]),
                      AlgorithmConfig(), StopRule(max_evaluations=4),
                      directions=DirectionSet([np.ones(1)], [1.0])).iterate_log
        assert [r.kind for r in log] == [
            "probe_pos", "reanchor", "probe_neg", "close"]
        assert [repr(r.x.item()) for r in log] == ["1.0", "-0.0", "-1.0", "0.0"]
        assert [r.measured for r in log] == [1.5, 0.5, 0.5, 1.5]
        assert len(seen) == 4


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
        for cycles in range(1, 5):
            state = rsp.run(obj, np.zeros(2), cfg,
                            StopRule(max_cycles=cycles, max_evaluations=10_000),
                            directions=rotated_frame(step=1.0), phi0=1.0)
            assert state.stopped == "max_cycles"
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
        cfg = AlgorithmConfig()
        for _ in range(3):
            x0 = rng.uniform(-2, 2, size=2)
            phis = [
                rsp.run(obj, x0, cfg, StopRule(max_cycles=cycles),
                        directions=rotated_frame(step=0.5), phi0=0.5,
                        z0=float(obj(x0))).phi
                for cycles in range(21)
            ]
            assert phis == sorted(phis, reverse=True)


class TestDirectionUpdate:
    def test_rejected_candidates_retain_directions_bitwise(self):
        # an absurd determinant floor rejects every candidate, so the
        # direction set must remain bit-identical to the initial axes
        state = rsp.run(core.make_sphere(2), np.array([1.0, 0.7]),
                        AlgorithmConfig(delta_det=10.0),
                        StopRule(max_cycles=6))
        assert_array_equal(np.array(state.directions.directions), np.eye(2))

    def test_accepted_candidate_replaces_oldest(self):
        state = rsp.run(core.make_aniso_quadratic(), np.array([1.5, 1.0]),
                        AlgorithmConfig(), StopRule(max_cycles=1), phi0=1.0)
        assert not np.array_equal(np.array(state.directions.directions),
                                  np.eye(2))


class TestExactLineSearch:
    def test_parabola(self):
        # f(x) = x^2
        t = exact_line_search(np.array([[2.0]]), np.zeros(1), np.array([1.0]),
                              np.array([-1.0]))
        assert_allclose(t, 1.0, rtol=1e-14)

    def test_already_minimal_along_direction(self):
        t = exact_line_search(*ANISO, np.array([1.5, 0.0]),
                              np.array([0.0, 1.0]))
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
            t = exact_line_search(spd_hessian(2, seed),
                                  obj.known_minimizers[0], x0, d)
            t_ref = golden(lambda s: obj(x0 + s * d), t - 2.0, t + 2.0)
            assert abs(t - t_ref) <= 1e-9

    def test_rejects_non_convex_direction(self):
        # f(x) = -x^2
        with pytest.raises(ValueError):
            exact_line_search(np.array([[-2.0]]), np.zeros(1), np.array([1.0]),
                              np.array([1.0]))


class TestExactCycles:
    def test_one_cycle_plus_one_minimization_suffices_in_2d(self):
        report = exact_cycles(
            *ANISO, np.array([1.5, 1.0]),
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
        report = exact_cycles(spd_hessian(3, 2), obj.known_minimizers[0],
                              np.array([1.0, -1.0, 0.5]), dirs,
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
                H = spd_hessian(n, seed)
                rng = np.random.default_rng(100 + seed)
                x0 = rng.uniform(-2, 2, size=n)
                dirs = [np.eye(n)[i] for i in range(n)]
                report = exact_cycles(H, obj.known_minimizers[0], x0, dirs,
                                      cycles=n, delta_det=1e-12)
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
            x_star = obj.known_minimizers[0]
            report = exact_cycles(spd_hessian(n, seed), x_star, x0,
                                  [np.eye(n)[i] for i in range(n)],
                                  cycles=n, delta_det=1e-12)
            assert report.line_minimizations == n * (n + 1)
            assert np.linalg.norm(report.final_x - x_star) <= 1e-6

    def test_degenerate_candidate_is_rejected(self):
        # starting on an axis through the minimizer makes the cycle
        # displacement collinear with a retained direction
        report = exact_cycles(
            *ANISO, np.array([1.5, 1.0]),
            [np.array([1.0, 0.0]), np.array([0.0, 1.0])],
            cycles=2,
        )
        assert report.candidates[0].accepted
        assert not report.candidates[1].accepted
