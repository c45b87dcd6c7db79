"""Tests for measurement-noise models: the seeded bounded model, the
jamming/dragging adversaries and their activation logic, the robustness
bound calculator, and the jamming demonstration harness."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from directseek import core, noise
from directseek.core import AlgorithmConfig
from directseek.noise import (
    AdversarialDragNoise,
    AdversarialJamNoise,
    BoundedRandomNoise,
    PhasedNoise,
    ZeroNoise,
    get_noise,
    gradient_bound_on_box,
    initial_sublevel_box,
    jam_demo,
    robustness_bound,
    robustness_bound_underflows,
)

D = np.array([1.0, 0.0])


class TestZeroNoise:
    def test_always_zero(self):
        model = ZeroNoise()
        assert all(model.sample(k, 0.5, D) == 0.0 for k in range(1, 20))


class TestBoundedRandomNoise:
    def test_within_bound(self):
        model = BoundedRandomNoise(0.1, seed=3)
        values = [model.sample(k, 0.5, D) for k in range(1, 500)]
        assert max(abs(v) for v in values) <= 0.1
        assert len(set(values)) > 400

    def test_seeded_replay(self):
        a = BoundedRandomNoise(0.25, seed=11)
        b = BoundedRandomNoise(0.25, seed=11)
        seq_a = [a.sample(k, 0.5, D) for k in range(1, 50)]
        seq_b = [b.sample(k, 0.5, D) for k in range(1, 50)]
        assert seq_a == seq_b

    def test_reset_restarts_the_stream(self):
        model = BoundedRandomNoise(0.25, seed=11)
        first = [model.sample(k, 0.5, D) for k in range(1, 50)]
        model.reset()
        second = [model.sample(k, 0.5, D) for k in range(1, 50)]
        assert first == second

    @pytest.mark.parametrize("bound", [0.0, 1e-6, 0.25])
    def test_block_draws_equal_scalar_draws(self, bound):
        # 2500 samples cross two block boundaries; the reset falls mid-block.
        def scalar_draws(count):
            rng = np.random.default_rng(5)
            return [float(rng.uniform(-bound, bound)) for _ in range(count)]

        model = BoundedRandomNoise(bound, seed=5)
        for k in range(1, 701):
            model.sample(k, 0.5, D)
        assert np.array(model.history).tobytes() == np.array(
            scalar_draws(700)).tobytes()
        model.reset()
        for k in range(1, 2501):
            model.sample(k, 0.5, D)
        assert np.array(model.history).tobytes() == np.array(
            scalar_draws(2500)).tobytes()


class TestAdversarialJam:
    def test_recursion_arithmetic(self):
        # gauge underflows at 0.01, so the emission is 3*0.01*1 + 0 + 0.5
        model = AdversarialJamNoise(bound=0.5, grad_bound=3.0,
                                    dir_bound=1.0, theta=0.5)
        model._accum = 0.5
        model.activated_at = 1
        assert model.sample(5, 0.01, D) == 0.53

    def test_activation_waits_for_small_steps(self):
        # with g = d = 1, theta = 0.5, bound 0.5 the sufficient condition
        # (g*delta*d + rho(delta)) / (1 - theta) < bound
        # first holds at delta = 0.2 (0.40064 < 0.5)
        model = AdversarialJamNoise(bound=0.5, grad_bound=1.0,
                                    dir_bound=1.0, theta=0.5)
        outs = [model.sample(k, dl, D)
                for k, dl in enumerate([0.4, 0.3, 0.2, 0.2], start=1)]
        assert model.activated_at == 3
        assert outs[0] == 0.0 and outs[1] == 0.0
        assert_allclose(outs[2], 0.2 + core.rho(0.2), rtol=1e-14)
        assert_allclose(outs[3], 2 * (0.2 + core.rho(0.2)), rtol=1e-14)

    def test_history_records_every_emission(self):
        model = AdversarialJamNoise(bound=0.5, grad_bound=1.0,
                                    dir_bound=1.0, theta=0.5)
        for k in range(1, 6):
            model.sample(k, 0.4, D)
        assert len(model.history) == 5

    def test_reset_clears_activation(self):
        model = AdversarialJamNoise(bound=0.5, grad_bound=1.0,
                                    dir_bound=1.0, theta=0.5)
        first = [model.sample(k, dl, D)
                 for k, dl in enumerate([0.4, 0.2, 0.2], start=1)]
        model.reset()
        second = [model.sample(k, dl, D)
                  for k, dl in enumerate([0.4, 0.2, 0.2], start=1)]
        assert first == second


class TestAdversarialDrag:
    def test_silent_before_start(self):
        model = AdversarialDragNoise(grad_bound=2.0, dir_bound=1.0, start=5)
        outs = [model.sample(k, 0.1, D) for k in range(1, 8)]
        assert outs[:4] == [0.0, 0.0, 0.0, 0.0]
        expected = 0.0
        for i in range(3):
            expected += -(2.0 * 0.1 * 1.0 + core.rho(0.1))
            assert_allclose(outs[4 + i], expected, rtol=1e-14)

    def test_emissions_are_negative_and_growing(self):
        model = AdversarialDragNoise(grad_bound=1.0, dir_bound=1.0)
        outs = [model.sample(k, 0.2, D) for k in range(1, 10)]
        assert all(v < 0 for v in outs)
        assert all(b < a for a, b in zip(outs, outs[1:]))


class TestPhasedNoise:
    def test_switches_at_the_boundaries(self):
        jam = AdversarialJamNoise(bound=0.5, grad_bound=3.0,
                                  dir_bound=1.0, theta=0.5)
        phased = PhasedNoise([(ZeroNoise(), 1), (jam, 4)])
        outs = [phased.sample(k, 0.01, D) for k in range(1, 7)]
        assert outs[:3] == [0.0, 0.0, 0.0]
        # jam activates immediately at delta = 0.01 (underflowed gauge)
        assert_allclose(outs[3], 0.03, rtol=1e-14)
        assert_allclose(outs[5], 0.09, rtol=1e-14)

    def test_before_the_first_start_is_silent(self):
        phased = PhasedNoise([(BoundedRandomNoise(0.5, seed=1), 10)])
        assert all(phased.sample(k, 0.1, D) == 0.0 for k in range(1, 10))
        assert phased.sample(10, 0.1, D) != 0.0

    def test_duplicate_starts_rejected(self):
        with pytest.raises(ValueError):
            PhasedNoise([(ZeroNoise(), 1), (ZeroNoise(), 1)])

    def test_reset_resets_children(self):
        phased = PhasedNoise([(BoundedRandomNoise(0.5, seed=1), 1),
                              (BoundedRandomNoise(0.5, seed=2), 6)])
        first = [phased.sample(k, 0.1, D) for k in range(1, 12)]
        phased.reset()
        second = [phased.sample(k, 0.1, D) for k in range(1, 12)]
        assert first == second


class TestRobustnessBound:
    def test_known_values(self):
        assert robustness_bound(0.5, 1.0) == 0.125
        assert_allclose(robustness_bound(1.0, math.e), 0.722333930504883,
                        rtol=1e-15)

    def test_underflow_is_flagged(self):
        assert robustness_bound(0.001, 1.0) == 0.0
        assert robustness_bound_underflows(0.001, 1.0)
        assert not robustness_bound_underflows(0.5, 1.0)

    def test_rejects_non_positive_inputs(self):
        with pytest.raises(ValueError):
            robustness_bound(0.0, 1.0)
        with pytest.raises(ValueError):
            robustness_bound(0.5, -1.0)

    def test_monotone_in_the_floor(self):
        floors = np.geomspace(0.1, 10.0, 50)
        values = [robustness_bound(0.5, f) for f in floors]
        assert not any(robustness_bound_underflows(0.5, f) for f in floors)
        assert all(b > a for a, b in zip(values, values[1:]))


class TestAdversaryInstruments:
    def test_sublevel_box_contains_the_level_set(self):
        lo, hi = initial_sublevel_box(core.make_sphere(2),
                                      np.array([1.0, 0.0]))
        # {f <= f(x0)} is the unit disk; the box must cover it
        assert np.all(lo <= -1.0) and np.all(hi >= 1.0)

    def test_gradient_bound_covers_the_box(self):
        bound = gradient_bound_on_box(core.make_sphere(2),
                                      np.array([-1.0, -1.0]),
                                      np.array([1.0, 1.0]))
        # true maximum of the gradient norm on the box is 2*sqrt(2)
        assert 2.0 * math.sqrt(2.0) - 1e-6 <= bound <= 4.0


class TestJamDemo:
    def test_freeze_within_the_certificate_window(self):
        report = jam_demo(core.make_sphere(2), np.array([1.0, 0.0]),
                          AlgorithmConfig(), 0.5, budget=280)
        assert report.activation_index == 70
        assert report.frozen
        assert report.frozen_iterations == 211
        assert report.certificate_margins
        assert all(m >= 0.0 for m in report.certificate_margins)
        assert report.escaped is None

    def test_default_contraction_outruns_float_ties(self):
        # far past the activation the accumulated gauge falls below one ulp
        # of the running sum and rejected ties turn into accepted drift, so
        # the freeze certificate must NOT extend to a 2000-measurement budget
        report = jam_demo(core.make_sphere(2), np.array([1.0, 0.0]),
                          AlgorithmConfig(), 0.5, budget=2000)
        assert report.activation_index == 70
        assert not report.frozen

    def test_slow_contraction_extends_the_freeze(self):
        report = jam_demo(core.make_sphere(2), np.array([1.0, 0.0]),
                          AlgorithmConfig(mu=0.6, lambda_t=1.6), 0.5,
                          budget=600)
        assert report.frozen
        assert report.frozen_iterations >= 500
        assert all(m >= 0.0 for m in report.certificate_margins)

    def test_zero_bound_never_activates(self):
        report = jam_demo(core.make_sphere(2), np.array([1.0, 0.0]),
                          AlgorithmConfig(), 0.0, budget=2000)
        assert report.activation_index is None
        assert not report.frozen
        assert np.linalg.norm(report.state.x) <= 1e-2

    def test_robust_floor_defeats_the_adversary(self):
        # floor sizing: with the floor large enough that the tolerated
        # bound exceeds the adversary budget, activation never fires
        cfg = AlgorithmConfig(lambda_s=0.9, phi_min=4.0)
        bound = robustness_bound(0.9, 4.0)
        assert bound > 1.0
        report = jam_demo(core.make_sphere(2), np.array([1.0, 0.0]), cfg,
                          bound, budget=1500, phi0=4.0)
        assert report.activation_index is None
        assert not report.frozen

    def test_drag_phase_escapes_the_sublevel_set(self):
        report = jam_demo(core.make_sphere(2), np.array([1.0, 0.0]),
                          AlgorithmConfig(), 0.5, budget=4000,
                          drag_start=80)
        assert report.escaped is True


class TestRegistry:
    def test_builders(self):
        assert set(noise.NOISE_BUILDERS) == {
            "zero", "bounded_random", "adversarial_jam", "adversarial_drag"
        }
        assert isinstance(get_noise("zero"), ZeroNoise)
        model = get_noise("bounded_random", bound=0.1, seed=3)
        assert isinstance(model, BoundedRandomNoise)

    def test_unknown_kind(self):
        with pytest.raises(KeyError):
            get_noise("pink")

    def test_adversarial_kinds_require_bounds(self):
        with pytest.raises(core.ConfigError):
            get_noise("adversarial_jam")
        with pytest.raises(core.ConfigError):
            get_noise("adversarial_drag")
