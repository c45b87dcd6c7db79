"""Tests for the numeric foundations: the sufficient-decrease gauge,
direction-set containers, configuration validation, and the objective
registry."""
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from directseek import core, hybrid, rsp
from exact_mode import spd_hessian


E = math.e
UPPER_OFFSET = math.exp(1.0 / math.e) - math.e


class TestRho:
    def test_known_values(self):
        assert core.rho(1.0) == 1.0
        assert core.rho(0.5) == 0.25
        assert_allclose(core.rho(E), 1.444667861009766, rtol=1e-15)
        assert_allclose(core.rho(4.0), 2.726386032550721, rtol=1e-15)
        assert_allclose(core.rho(math.sqrt(2.0)), 1.2777037682648325, rtol=1e-15)
        # 0.25 ** 4 up to one rounding of the log-space evaluation
        assert_allclose(core.rho(0.25), 0.25**4, rtol=1e-14)

    def test_zero_is_the_right_limit(self):
        assert core.rho(0.0) == 0.0

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            core.rho(-1.0)
        with pytest.raises(ValueError):
            core.rho(-1e-300)

    def test_upper_branch_is_affine(self):
        # Above the branch point the gauge is delta plus a constant offset.
        for delta in (3.0, 4.0, 7.5, 100.0):
            assert_allclose(core.rho(delta), delta + UPPER_OFFSET, rtol=1e-15)
        assert_allclose(core.rho(5.0) - core.rho(4.0), 1.0, atol=1e-12)

    def test_branch_continuity(self):
        gap = abs(core.rho(E - 1e-12) - core.rho(E + 1e-12))
        assert gap <= 1e-10

    def test_underflow_boundary(self):
        # Below delta ~ 0.00703 the log-space value drops under the smallest
        # positive normal double and the gauge returns exactly zero.
        assert core.rho(0.007) == 0.0
        assert core.rho_underflows(0.007)
        assert core.rho(0.00705) > 0.0
        assert not core.rho_underflows(0.00705)
        assert core.rho(0.0071) > 0.0
        # 0.01 is far from underflow despite being astronomically small.
        assert_allclose(core.rho(0.01), 1e-200, rtol=1e-12)
        assert not core.rho_underflows(0.01)
        assert not core.rho_underflows(1.0)
        assert core.rho_underflows(1e-6)

    def test_little_o_of_delta_fifth(self):
        for delta in np.geomspace(1e-4, 0.05, 200):
            assert core.rho(delta) / delta**5 <= 1e-6
        assert_allclose(core.rho(0.05), 9.536743164062544e-27, rtol=1e-12)
        assert core.rho(0.05) / 0.05**5 <= 1e-6

    def test_monotonicity_on_grid(self):
        # 10^4-point grid over (1e-3, 10].  In float arithmetic the gauge is
        # exactly zero below the underflow threshold, so strictness is
        # asserted through the log-space values everywhere and through the
        # float values wherever neither neighbor underflowed.
        grid = np.geomspace(1e-3, 10.0, 10_000)
        log_values = [core.log_rho(d) for d in grid]
        for a, b in zip(log_values, log_values[1:]):
            assert b > a
        values = [core.rho(d) for d in grid]
        for (da, va), (db, vb) in zip(
            zip(grid, values), zip(grid[1:], values[1:])
        ):
            assert vb >= va
            if not core.rho_underflows(da) and not core.rho_underflows(db):
                assert vb > va

    def test_log_rho_matches_log_of_rho(self):
        for delta in (0.05, 0.5, 1.0, 2.0, E, 4.0, 9.0):
            assert_allclose(core.log_rho(delta), math.log(core.rho(delta)),
                            rtol=1e-12)


class TestDirectionDeterminant:
    def test_rotation_pair(self):
        a = math.pi / 8
        ds = core.DirectionSet(
            [np.array([math.cos(a), math.sin(a)]),
             np.array([-math.sin(a), math.cos(a)])],
            [1.0, 1.0],
        )
        assert_allclose(core.direction_determinant(ds.directions), 1.0,
                        atol=1e-12)

    def test_collinear_rows(self):
        det = core.direction_determinant(
            [np.array([1.0, 0.0]), np.array([2.0, 0.0])]
        )
        assert det == 0.0

    def test_identity_3d(self):
        assert_allclose(core.direction_determinant(np.eye(3)), 1.0, atol=1e-14)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            core.direction_determinant(np.ones((2, 3)))

    def test_rotation_generated_sets(self):
        # Any rotation of the plane produces a unit-determinant frame.
        rng = np.random.default_rng(7)
        for _ in range(200):
            a = rng.uniform(0.0, 2.0 * math.pi)
            ds = core.DirectionSet(
                [np.array([math.cos(a), math.sin(a)]),
                 np.array([-math.sin(a), math.cos(a)])],
                [0.5, 0.5],
            )
            assert abs(core.direction_determinant(ds.directions) - 1.0) <= 1e-12


class TestDirectionSet:
    def test_basic_construction(self):
        ds = core.DirectionSet([np.array([1.0, 0.0]), np.array([0.0, 2.0])],
                               [0.5, 0.25])
        assert ds.dimension == 2
        assert_array_equal(np.array(ds.directions),
                           np.array([[1.0, 0.0], [0.0, 2.0]]))
        assert ds.step_sizes == [0.5, 0.25]

    def test_count_mismatch(self):
        with pytest.raises(ValueError):
            core.DirectionSet([np.array([1.0, 0.0])], [0.5, 0.5])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            core.DirectionSet(
                [np.array([1.0, 0.0]), np.array([0.0, 1.0, 2.0])], [0.5, 0.5]
            )

    def test_copy_is_independent(self):
        ds = core.DirectionSet([np.array([1.0, 0.0]), np.array([0.0, 1.0])],
                               [0.5, 0.5])
        cp = ds.copy()
        cp.directions[0][0] = 99.0
        cp.step_sizes[0] = 99.0
        assert ds.directions[0][0] == 1.0
        assert ds.step_sizes[0] == 0.5


class TestLineTravel:
    def test_bitwise_equal_to_numpy_norm(self):
        # numpy's norm of a 1-D float vector is sqrt(x.dot(x)); the travel
        # meter must read the same bits on every route.
        rng = np.random.default_rng(11)
        for i in range(1000):
            n = 1 + i % 6
            v = rng.standard_normal(n) * 10.0 ** rng.integers(-8, 9)
            lam = float(rng.standard_normal())
            got = core.line_travel(lam, v)
            assert type(got) is float
            assert got == abs(lam) * float(np.linalg.norm(v))

    def test_routes_share_the_rule(self):
        from directseek import hybrid, rsp

        assert hybrid.line_travel is rsp.line_travel is core.line_travel


class TestConfigValidation:
    def test_defaults_are_valid(self):
        assert core.validate_config(core.AlgorithmConfig()) == []

    def test_reference_parameters(self):
        cfg = core.AlgorithmConfig(gamma=1.2, theta=0.5, delta_det=0.001,
                                   mu=0.15, lambda_s=0.001, lambda_t=5.0)
        assert core.validate_config(cfg) == []

    def test_gamma_one_is_legal(self):
        # gamma = 1 disables expansion but satisfies gamma >= 1.
        assert core.validate_config(core.AlgorithmConfig(gamma=1.0)) == []

    def test_mu_lambda_t_product(self):
        v = core.validate_config(core.AlgorithmConfig(mu=0.3, lambda_t=5.0))
        assert len(v) == 1
        assert "mu * lambda_t" in v[0]

    def test_theta_boundary_excluded(self):
        v = core.validate_config(core.AlgorithmConfig(theta=1.0))
        assert len(v) == 1
        assert "theta" in v[0]

    def test_multiple_violations_collected(self):
        v = core.validate_config(
            core.AlgorithmConfig(gamma=0.5, lambda_s=1.5, tau_star=-1.0)
        )
        assert len(v) == 3
        joined = " ".join(v)
        assert "gamma" in joined
        assert "lambda_s" in joined
        assert "tau_star" in joined

    def test_individual_bounds(self):
        assert core.validate_config(core.AlgorithmConfig(delta_det=0.0))
        assert core.validate_config(core.AlgorithmConfig(lambda_t=1.0))
        assert core.validate_config(core.AlgorithmConfig(mu=0.0))
        assert core.validate_config(core.AlgorithmConfig(phi_min=-0.1))
        assert core.validate_config(core.AlgorithmConfig(phi_min=0.5)) == []

    @pytest.mark.parametrize("value", ["1.2", True, None],
                             ids=["str", "bool", "none"])
    def test_non_numbers_are_named_and_skip_their_ranges(self, value):
        v = core.validate_config(core.AlgorithmConfig(gamma=value, mu=value,
                                                      theta=1.0))
        assert v == [f"gamma must be a number, got {value!r}",
                     "theta must be in (0, 1) (got 1.0)",
                     f"mu must be a number, got {value!r}"]

    @pytest.mark.parametrize("name, value", [
        ("phi_min", math.nan), ("tau_star", math.inf), ("delta_det", math.inf),
        ("gamma", -math.inf), ("mu", math.nan),
    ])
    def test_non_finite_fields_are_named_and_skip_their_ranges(self, name,
                                                              value):
        v = core.validate_config(core.AlgorithmConfig(**{name: value}))
        assert v == [f"{name} must be finite (got {value})"]

    def test_an_integer_too_large_for_a_float_is_not_finite(self):
        # math.isfinite raises OverflowError on it.
        v = core.validate_config(core.AlgorithmConfig(gamma=10**400, theta=1))
        assert v == [f"gamma must be finite (got {10**400})",
                     "theta must be in (0, 1) (got 1)"]

    def test_numpy_scalars_are_numbers(self):
        cfg = core.AlgorithmConfig(gamma=np.float64(1.2), mu=np.int64(0))
        assert core.validate_config(cfg) == ["mu must be in (0, 1) (got 0)"]

    def test_config_error_carries_violations(self):
        err = core.ConfigError(["a must hold", "b must hold"])
        assert err.violations == ["a must hold", "b must hold"]
        assert "a must hold" in str(err)


def _finite_difference_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestObjectives:
    def test_registry_contents(self):
        assert set(core.OBJECTIVE_BUILDERS) == {
            "sphere", "aniso_quadratic", "rosenbrock",
            "random_spd_quadratic", "constant",
        }

    def test_unknown_name_lists_known(self):
        with pytest.raises(KeyError, match="sphere"):
            core.get_objective("nope")

    def test_a_rejected_value_names_its_builder(self):
        def build(size):
            if size < 1:
                raise ValueError(f"size must be >= 1, got {size}")
            return size

        registry = {"box": build}
        assert core.build_registered("widget", registry, "box", {"size": 2}) == 2
        with pytest.raises(core.ConfigError) as info:
            core.build_registered("widget", registry, "box", {"size": 0})
        assert info.value.violations == ["widget 'box': size must be >= 1, got 0"]
        # A parameter the builder does not take is reported the same way.
        with pytest.raises(core.ConfigError) as info:
            core.build_registered("widget", registry, "box", {"width": 1})
        [violation] = info.value.violations
        assert violation.startswith("widget 'box': ")
        assert violation.endswith("unexpected keyword argument 'width'")

    def test_sphere(self):
        f = core.make_sphere(3)
        assert f.dimension == 3
        assert f(np.array([1.0, 2.0, 2.0])) == 9.0
        assert_array_equal(f.known_minimizers[0], np.zeros(3))

    def test_aniso_quadratic_values(self):
        f = core.make_aniso_quadratic()
        assert f(np.array([1.5, 0.0])) == 2.25
        assert f(np.array([0.0, 1.0])) == 5.0
        assert f(np.array([0.0, 0.0])) == 0.0

    def test_rosenbrock_values(self):
        f = core.make_rosenbrock()
        assert f(np.array([1.0, 1.0])) == 0.0
        # valley coefficient 10: f(1.5, 0) = 10 * 2.25^2 + 0.25
        assert_allclose(f(np.array([1.5, 0.0])), 50.875, rtol=1e-15)
        assert_array_equal(f.known_minimizers[0], np.array([1.0, 1.0]))

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(11)
        for f in (core.make_sphere(2), core.make_aniso_quadratic(),
                  core.make_rosenbrock(),
                  core.make_random_spd_quadratic(dimension=3, seed=4)):
            for _ in range(10):
                x = rng.uniform(-2.0, 2.0, size=f.dimension)
                g = f.gradient(x)
                fd = _finite_difference_gradient(f, x)
                assert_allclose(g, fd, rtol=1e-5, atol=1e-5)

    def test_random_spd_quadratic(self):
        f = core.make_random_spd_quadratic(dimension=3, seed=5,
                                           eig_range=(1.0, 10.0))
        # H is f's matrix bit for bit (TestObjectiveKernels)
        H = spd_hessian(3, 5)
        assert_allclose(H, H.T, atol=1e-12)
        eigs = np.linalg.eigvalsh(H)
        assert np.all(eigs >= 1.0 - 1e-9)
        assert np.all(eigs <= 10.0 + 1e-9)
        x_star = f.known_minimizers[0]
        assert_allclose(f(x_star), 0.0, atol=1e-14)
        # seeded determinism and seed sensitivity
        points = np.random.default_rng(5).uniform(-2.0, 2.0, (4, 3))
        values = [f(x) for x in points]
        again = core.make_random_spd_quadratic(dimension=3, seed=5)
        assert [again(x) for x in points] == values
        assert_array_equal(again.known_minimizers[0], x_star)
        other = core.make_random_spd_quadratic(dimension=3, seed=6)
        assert [other(x) for x in points] != values

    def test_gradient_is_linear_for_quadratics(self):
        f = core.make_random_spd_quadratic(dimension=2, seed=9)
        H = spd_hessian(2, 9)
        x_star = f.known_minimizers[0]
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = rng.uniform(-2.0, 2.0, size=2)
            assert_allclose(f.gradient(x), H @ (x - x_star), rtol=1e-12)

    def test_constant_objective(self):
        f = core.get_objective("constant", dimension=2)
        rng = np.random.default_rng(0)
        for _ in range(5):
            assert f(rng.uniform(-5, 5, size=2)) == 0.0

    def test_get_objective_passes_params(self):
        f = core.get_objective("sphere", dimension=4)
        assert f.dimension == 4
        g = core.get_objective("random_spd_quadratic", dimension=2, seed=42)
        h = core.make_random_spd_quadratic(dimension=2, seed=42)
        assert_array_equal(g.known_minimizers[0], h.known_minimizers[0])
        x = np.array([0.5, -1.5])
        assert g(x) == h(x)


class TestObjectiveKernels:
    """The quadratic objectives equal their ``@`` / ``np.dot`` forms bit for
    bit (compared as ``float.hex``, so the sign of zero counts), the seeded
    quadratic on the matrix `exact_mode.spd_hessian` rebuilds."""

    @staticmethod
    def points(centre, rng):
        yield centre.copy()
        yield -0.0 * centre
        for _ in range(3):
            u = rng.standard_normal(len(centre))
            u /= np.linalg.norm(u)
            yield rng.uniform(-2.0, 2.0, len(centre))
            yield centre + 1e-8 * u
            yield rng.uniform(0.0, 1e3) * u
            yield 1e3 * u

    @pytest.mark.parametrize("seed", [0, 3, 1000])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_random_spd_quadratic_matches_matmul(self, n, seed):
        f = core.make_random_spd_quadratic(dimension=n, seed=seed)
        H = spd_hessian(n, seed)
        x_star = f.known_minimizers[0]
        rng = np.random.default_rng(seed)
        for x in self.points(x_star, rng):
            r = x - x_star
            want = float(0.5 * r @ H @ r)
            assert f(x).hex() == want.hex()
            assert f.evaluate(x.tolist()).hex() == want.hex()

    def test_random_spd_quadratic_promotes_ints_alike(self):
        # `evaluate` subtracts the minimizer from its input unconverted.
        f = core.make_random_spd_quadratic(dimension=3, seed=0)
        x = np.array([1, -2, 0])
        want = f(x.astype(float)).hex()
        assert f.evaluate(x).hex() == f.evaluate(x.tolist()).hex() == want

    @pytest.mark.parametrize("seed", [0, 3, 1000])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_sphere_matches_dot(self, n, seed):
        f = core.make_sphere(n)
        rng = np.random.default_rng(seed)
        for x in self.points(f.known_minimizers[0], rng):
            assert f(x).hex() == float(np.dot(x, x)).hex()


class TestStopRule:
    def test_defaults_are_open_ended(self):
        s = core.StopRule()
        assert s.max_cycles is None
        assert s.max_jumps is None
        assert s.max_evaluations is None
        assert s.phi_threshold is None

    def test_fields_stick(self):
        s = core.StopRule(max_cycles=5, max_jumps=10, max_evaluations=100,
                          phi_threshold=1e-6)
        assert (s.max_cycles, s.max_jumps, s.max_evaluations,
                s.phi_threshold) == (5, 10, 100, 1e-6)

    def test_set_budgets_must_be_non_negative_integers(self):
        assert core.budget_violations(core.StopRule()) == []
        assert core.budget_violations(
            core.StopRule(max_cycles=0, max_jumps=0, max_evaluations=np.int64(3),
                          phi_threshold=1e-9), flow_samples_per_period=0) == []
        for name in ("max_cycles", "max_jumps", "max_evaluations"):
            for bad in (-3, 2.5, True, "3"):
                (v,) = core.budget_violations(core.StopRule(**{name: bad}))
                assert v == (f"stop.{name} must be a non-negative integer, "
                             f"got {bad!r}")

    def test_threshold_must_be_positive(self):
        for bad in (0.0, -1e-6, math.nan, True, "1e-6"):
            (v,) = core.budget_violations(core.StopRule(phi_threshold=bad))
            assert v.startswith("stop.phi_threshold must be a positive number")

    def test_keyword_counts_are_budgets_too(self):
        assert core.budget_violations(
            core.StopRule(max_jumps=-1), flow_samples_per_period=-2) == [
            "stop.max_jumps must be a non-negative integer, got -1",
            "flow_samples_per_period must be a non-negative integer, got -2",
        ]
        assert core.budget_violations(core.StopRule(),
                                      flow_samples_per_period=None)


class TestDimensionRule:
    AXES = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]

    def test_agreeing_dimensions_pass(self):
        assert core.dimension_violations(np.zeros(2), self.AXES, [0.5, 0.5]) == []
        assert core.dimension_violations(
            np.zeros(2), self.AXES, [0.5, 0.5], dimension=2,
            active=self.AXES[0], zeta=np.zeros(1), zeta_dimension=1,
            objective_dimension=2) == []
        assert core.dimension_violations(
            np.zeros(2), self.AXES, [0.5, 0.5], zeta=np.zeros(0),
            zeta_dimension=0) == []

    def test_each_disagreement_is_named(self):
        axes, steps = self.AXES, [0.5, 0.5]
        assert core.dimension_violations(np.zeros(3), axes, steps) == [
            "start has shape (3,), expected (2,) for 2 directions"]
        assert core.dimension_violations(
            np.zeros(2), [axes[0], np.zeros(3)], steps) == [
            "direction 1 has shape (3,), expected (2,)"]
        assert core.dimension_violations(np.zeros(2), axes, steps * 2) == [
            "4 stored steps for 2 directions"]
        assert core.dimension_violations(
            np.zeros(2), axes, steps, dimension=4) == [
            "plant dimension 4 differs from 2 directions"]
        assert core.dimension_violations(
            np.zeros(2), axes, steps, objective_dimension=3) == [
            "objective dimension 3 differs from 2 directions"]
        assert core.dimension_violations(
            np.zeros(2), axes, steps, active=np.zeros(3)) == [
            "active direction has shape (3,), expected (2,)"]
        assert core.dimension_violations(
            np.zeros(2), axes, steps, zeta=np.zeros(0), zeta_dimension=1) == [
            "plant internal state has shape (0,), expected (1,)"]



class TestRunCheck:
    AXES = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    FLAT = [np.array([1.0, 0.0]), np.array([2.0, 0.0])]  # |det| = 0

    def check(self, cfg=None, stop=None, dirs=None, **kwargs):
        dirs = self.AXES if dirs is None else dirs
        with pytest.raises(core.ConfigError) as info:
            core.check_run(cfg or core.AlgorithmConfig(),
                           stop or core.StopRule(max_cycles=1), np.zeros(2),
                           dirs, [0.5, 0.5], **kwargs)
        return info.value.violations

    def test_a_valid_run_passes(self):
        core.check_run(core.AlgorithmConfig(phi_min=0.1),
                       core.StopRule(max_jumps=0), np.zeros(2), self.AXES,
                       [0.5, 0.5], dimension=2, active=self.AXES[1],
                       zeta=np.zeros(0), zeta_dimension=0,
                       flow_samples_per_period=3)

    def test_no_limits_and_a_bad_config_raise_once(self):
        assert self.check(core.AlgorithmConfig(theta=1.0), core.StopRule()) == [
            "theta must be in (0, 1) (got 1.0)",
            "stop rule has no limits set; the run would never end"]

    def test_no_limits_is_a_value_error(self):
        with pytest.raises(ValueError, match="no limits"):
            core.check_run(core.AlgorithmConfig(), core.StopRule(), np.zeros(2),
                           self.AXES, [0.5, 0.5])

    def test_every_rule_is_listed(self):
        assert self.check(core.AlgorithmConfig(gamma="1.2"),
                          core.StopRule(max_jumps=-1), dimension=3,
                          flow_samples_per_period=1.5) == [
            "gamma must be a number, got '1.2'",
            "stop.max_jumps must be a non-negative integer, got -1",
            "flow_samples_per_period must be a non-negative integer, got 1.5",
            "plant dimension 3 differs from 2 directions"]

    def test_robust_start_text(self):
        assert self.check(core.AlgorithmConfig(phi_min=0.1), dirs=self.FLAT) == [
            "robust mode requires |det(directions)| >= delta_det "
            "(got 0.0 < 0.001)"]

    def test_robust_start_needs_every_other_rule_to_pass(self):
        # A malformed direction set cannot be factored, so the determinant
        # rule waits for the others.
        cfg = core.AlgorithmConfig(phi_min=0.1)
        assert self.check(cfg, dirs=[self.FLAT[0], np.ones(3)]) == [
            "direction 1 has shape (3,), expected (2,)"]
        assert self.check(cfg, core.StopRule(), dirs=self.FLAT) == [
            "stop rule has no limits set; the run would never end"]

    def test_start_scales_are_listed(self):
        assert self.check(core.AlgorithmConfig(tau_star=math.inf),
                          phi=-0.5, active_step=math.nan) == [
            "tau_star must be finite (got inf)",
            "start phi must be a finite number >= 0, got -0.5",
            "active step must be a finite number >= 0, got nan"]

    def test_scale_violations(self):
        assert core.scale_violations() == []
        assert core.scale_violations(0.0, [0.0, np.float64(2.0)], 0.0) == []
        assert core.scale_violations(
            "1", [1.0, -math.inf]) == [
            "start phi must be a finite number >= 0, got '1'",
            "stored step 1 must be a finite number >= 0, got -inf"]
        assert core.scale_violations(10**400) == [
            f"start phi must be a finite number >= 0, got {10**400!r}"]

    def test_nominal_mode_skips_the_determinant(self):
        core.check_run(core.AlgorithmConfig(), core.StopRule(max_cycles=1),
                       np.zeros(2), self.FLAT, [0.5, 0.5])


class TestStopReason:
    ALL = core.StopRule(max_cycles=2, max_jumps=10, max_evaluations=10,
                        phi_threshold=0.5)

    @pytest.mark.parametrize("measurements, cycles, phi, expected", [
        (10, 2, 0.1, "max_cycles"),
        (10, 1, 0.1, "max_jumps"),
        (9, 1, 0.1, "phi_threshold"),
        (9, 1, 0.5, ""),
        (0, 0, 1.0, ""),
    ], ids=["all-at-once", "budgets-tie", "phi", "phi-at-threshold", "none"])
    def test_declaration_order(self, measurements, cycles, phi, expected):
        assert core.stop_reason(self.ALL, measurements, cycles, phi) == expected

    def test_the_lower_budget_names_the_stop(self):
        stop = core.StopRule(max_jumps=12, max_evaluations=10)
        assert stop.measurement_cap == 10
        assert core.stop_reason(stop, 10, 0, 1.0) == "max_evaluations"
        stop = core.StopRule(max_jumps=10, max_evaluations=12)
        assert stop.measurement_cap == 10
        assert core.stop_reason(stop, 10, 0, 1.0) == "max_jumps"

    def test_cap_is_none_without_a_budget(self):
        assert core.StopRule(max_cycles=3, phi_threshold=0.1).measurement_cap is None
        assert core.StopRule(max_evaluations=0).measurement_cap == 0


class _ScriptedNoise:
    """Noise that returns ``values`` in turn and keeps each call's
    arguments."""

    def __init__(self, *values):
        self.values = list(values)
        self.calls = []

    def sample(self, k, delta, direction):
        self.calls.append((k, delta, direction))
        return self.values.pop(0)


class TestMeter:
    """`core.Meter` is the measurement rule of both routes."""

    V = np.array([1.0, 0.0])

    @staticmethod
    def field(calls, value=None):
        """A 1-D objective that keeps each point it is called at and
        returns ``value``, or ``1 + x`` when None."""
        def f(x):
            calls.append(x.copy())
            return 1.0 + x[0] if value is None else value
        return core.ObjectiveFunction("recording", 1, f)

    def test_a_re_measure_two_back_reuses_the_field_value(self):
        calls = []
        meter = core.Meter(self.field(calls))
        points = [0.5, 1.5, 0.5, 1.5, 1.5, -0.0, 2.5, 0.0, 2.5]
        values = [meter.measure(np.array([p]), 0.5, self.V) for p in points]
        assert values == [1.0 + p for p in points]
        # The third, fourth and last land on the point two back; the fifth
        # only on the one before; 0.0 two after -0.0 has other bytes.
        assert [repr(x.item()) for x in calls] == [
            "0.5", "1.5", "1.5", "-0.0", "2.5", "0.0"]
        assert meter.count == len(points)
        assert meter.key1 == np.array([2.5]).tobytes()

    def test_a_re_measure_of_the_unmeasured_start_calls_the_objective(self):
        calls = []
        meter = core.Meter(self.field(calls))
        start = np.array([0.0])
        meter.measure(start + 0.5, 0.5, self.V)
        assert meter.measure(start, 0.5, self.V) == 1.0
        assert [x.item() for x in calls] == [0.5, 0.0]

    def test_noise_is_drawn_at_every_measurement(self):
        calls = []
        noise = _ScriptedNoise(0.25, -0.5, 0.125)
        meter = core.Meter(self.field(calls), noise)
        x = np.array([1.0])
        assert [meter.measure(x, d, self.V) for d in (0.5, 1.0, 2.0)] == [
            2.25, 1.5, 2.125]
        assert [(k, d) for k, d, _ in noise.calls] == [
            (1, 0.5), (2, 1.0), (3, 2.0)]
        assert all(v is self.V for _, _, v in noise.calls)
        # The third measurement is two back from the first.
        assert len(calls) == 2

    def test_the_cap_raises_before_counting(self):
        calls = []
        noise = _ScriptedNoise(0.0, 0.0)
        meter = core.Meter(self.field(calls), noise, cap=2)
        for p in (0.5, 1.5):
            meter.measure(np.array([p]), 0.5, self.V)
        with pytest.raises(core._BudgetExhausted):
            meter.measure(np.array([2.5]), 0.5, self.V)
        assert (meter.count, len(calls), len(noise.calls)) == (2, 2, 2)
        with pytest.raises(core._BudgetExhausted):
            core.Meter(self.field(calls), cap=0).measure(
                np.array([0.5]), 0.5, self.V)

    @pytest.mark.parametrize("value, noise", [
        (math.nan, None), (math.inf, None), (-math.inf, None),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ], ids=["f-nan", "f-inf", "f-minus-inf", "noise-nan", "noise-inf",
            "noise-minus-inf"])
    def test_a_non_finite_measurement_raises(self, value, noise):
        x = np.array([0.75])
        meter = core.Meter(self.field([], value),
                           None if noise is None else _ScriptedNoise(noise))
        with pytest.raises(core.EvaluationError) as info:
            meter.measure(x, 0.5, self.V)
        assert info.value.point.tobytes() == x.tobytes()
        want = value + (0.0 if noise is None else noise)
        assert repr(info.value.value) == repr(want)


_X = np.array([1.5, -0.0, 5e-324])


class TestRecordStruct:
    """`core.record_struct` packs each log record its dtype declares."""

    @pytest.mark.parametrize("dtype, record", [
        (rsp.log_dtype(3),
         (-0.0, 1e300, 5e-324, len(rsp.KINDS) - 1, True)),
        (hybrid.row_dtype(3, 0),
         (0.1 * 2**40, 2**40, len(hybrid.CASES) - 1, _X.tobytes(), b"",
          -0.0, 1e-300, 0.25, 5e-324, 2**31 - 1, 2, -1, 1, 7)),
    ], ids=["walker", "arc"])
    def test_a_record_round_trips(self, dtype, record):
        (row,) = np.frombuffer(core.record_struct(dtype).pack(*record), dtype)
        for name, value in zip(dtype.names, record, strict=True):
            if isinstance(value, bytes):
                assert row[name].tobytes() == value
            else:
                assert repr(row[name].item()) == repr(value)
