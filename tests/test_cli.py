"""Tests for the experiment runner: scenario configs, artifact layout and
determinism, the threshold table, benchmark suites, and exit codes."""
import csv
import json
import math
import os

import numpy as np
import pytest

from directseek import cli, core, noise
from directseek.core import ConfigError


class TestExperimentConfig:
    def test_round_trips_through_json(self):
        config = cli.scenario_config("fig1_quadratic_pointmass")
        data = json.loads(json.dumps(config.to_dict()))
        assert cli.ExperimentConfig.from_dict(data) == config

    def test_unknown_field_rejected(self):
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data["typo_field"] = 1
        with pytest.raises(ConfigError, match="unknown config field"):
            cli.ExperimentConfig.from_dict(data)

    def test_missing_field_rejected(self):
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        del data["objective"]
        with pytest.raises(ConfigError, match="missing config field"):
            cli.ExperimentConfig.from_dict(data)


class TestScenarios:
    def test_bundled_names(self):
        assert sorted(cli.SCENARIOS) == [
            "fig1_quadratic_pointmass",
            "fig2_rosenbrock_dubins",
        ]
        for name in cli.SCENARIOS:
            config = cli.scenario_config(name)
            assert config.name == name
            assert config.noise == {"kind": "zero"}

    def test_unknown_name(self):
        with pytest.raises(KeyError, match="bundled"):
            cli.scenario_config("fig3_does_not_exist")


class TestRunExperiment:
    def test_artifacts_and_determinism(self, tmp_path):
        config = cli.scenario_config("fig1_quadratic_pointmass")
        config.stop["max_jumps"] = 300
        _, s1 = cli.run_experiment(config, str(tmp_path / "a"))
        _, s2 = cli.run_experiment(config, str(tmp_path / "b"))
        assert sorted(os.listdir(tmp_path / "a")) == [
            "arc.csv", "config.json", "summary.json",
        ]
        for name in ("arc.csv", "config.json"):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
        j1 = json.loads((tmp_path / "a" / "summary.json").read_text())
        j2 = json.loads((tmp_path / "b" / "summary.json").read_text())
        j1.pop("wall_clock_seconds")
        j2.pop("wall_clock_seconds")
        assert j1 == j2
        assert j1["jumps"] == 300
        assert j1["z_violations_after_warmup"] == 0
        assert s1.jumps == s2.jumps == 300

    def test_noise_trace_artifact(self, tmp_path):
        config = cli.scenario_config("fig1_quadratic_pointmass")
        config.stop["max_jumps"] = 50
        config.noise = {"kind": "bounded_random", "bound": 1e-6}
        cli.run_experiment(config, str(tmp_path))
        with (tmp_path / "noise.csv").open() as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["k", "value"]
        assert len(rows) == 51
        assert all(abs(float(r[1])) <= 1e-6 for r in rows[1:])

    def test_noise_csv_matches_csv_module(self, tmp_path, monkeypatch):
        values = [-0.0, 5e-324, 1e-05, 1e16]

        class Awkward(noise.NoiseModel):
            kind = "awkward"

            def _value(self, k, delta, direction):
                return values[(k - 1) % len(values)]

        monkeypatch.setitem(noise.NOISE_BUILDERS, "awkward", Awkward)
        config = cli.scenario_config("fig1_quadratic_pointmass")
        config.stop["max_jumps"] = 10
        config.noise = {"kind": "awkward"}
        cli.run_experiment(config, str(tmp_path))
        with open(tmp_path / "want.csv", "w", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(["k", "value"])
            writer.writerows(
                enumerate([values[i % 4] for i in range(10)], start=1))
        got = (tmp_path / "noise.csv").read_bytes()
        assert got == (tmp_path / "want.csv").read_bytes()
        assert got.startswith(b"k,value\n1,-0.0\n2,5e-324\n3,1e-05\n4,1e+16\n")

    def test_echo_only_run(self):
        config = cli.scenario_config("fig1_quadratic_pointmass")
        config.stop["max_jumps"] = 0
        arc, summary = cli.run_experiment(config, None)
        assert summary.jumps == 0
        assert summary.stopped == "max_jumps"
        assert len(arc.samples) == 1

    def test_invalid_algorithm_rejected(self):
        config = cli.scenario_config("fig1_quadratic_pointmass")
        config.algorithm["mu"] = 0.3
        config.algorithm["lambda_t"] = 5.0
        with pytest.raises(ConfigError):
            cli.run_experiment(config, None)

    def test_summary_diagnostics(self):
        config = cli.scenario_config("fig1_quadratic_pointmass")
        config.stop["max_jumps"] = 200
        arc, summary = cli.run_experiment(config, None)
        assert summary.jumps == 200
        assert summary.final_x == [float(v) for v in
                                   arc.final_plant.x]
        assert summary.final_x == arc.rows["x"][-1].tolist()
        assert summary.distance_to_minimizer == pytest.approx(
            float(np.linalg.norm(arc.final_plant.x))
        )
        assert sum(summary.case_counts.values()) == 200


class TestRhoTable:
    def test_three_point_table(self):
        rows = cli.rho_table(0.5, 4.0, 3)
        assert [r["delta"] for r in rows] == pytest.approx(
            [0.5, math.sqrt(2.0), 4.0], rel=1e-12
        )
        assert rows[0]["rho"] == 0.25
        assert rows[1]["rho"] == pytest.approx(1.2777037682648325, rel=1e-12)
        assert rows[2]["rho"] == pytest.approx(2.726386032550721, rel=1e-12)
        assert all(r["flag"] == "" for r in rows)

    def test_zero_min_emits_a_limit_row(self):
        rows = cli.rho_table(0.0, 1.0, 4)
        assert rows[0] == {"delta": 0.0, "rho": 0.0, "log_rho": None,
                           "flag": "limit"}
        assert len(rows) == 4
        assert rows[-1]["delta"] == 1.0

    @pytest.mark.parametrize("max_delta", [1.0, 3.7, 1e-300])
    def test_zero_min_with_two_points_ends_at_max(self, max_delta):
        # One log-spaced point after the limit row: max itself.
        rows = cli.rho_table(0.0, max_delta, 2)
        assert [r["delta"] for r in rows] == [0.0, max_delta]
        assert rows[1]["rho"] == core.rho(max_delta)

    def test_underflow_rows_are_flagged(self):
        rows = cli.rho_table(1e-4, 1e-3, 3)
        assert all(r["flag"] == "underflow" for r in rows)
        assert all(r["rho"] == 0.0 for r in rows)
        assert all(r["log_rho"] < -6000 for r in rows)

    def test_bad_ranges(self):
        with pytest.raises(ValueError):
            cli.rho_table(1.0, 1.0, 5)
        with pytest.raises(ValueError):
            cli.rho_table(-0.5, 1.0, 5)
        with pytest.raises(ValueError):
            cli.rho_table(0.5, 4.0, 1)
        for min_delta in (0.0, 1e-300):
            with pytest.raises(ValueError, match="max must be finite"):
                cli.rho_table(min_delta, math.inf, 3)
        with pytest.raises(ValueError):
            cli.rho_table(0.0, math.nan, 3)


class TestBenchSuites:
    def test_convergence(self):
        rows = cli.bench_convergence(seed=0)
        assert {r["dimension"] for r in rows} == {1, 2, 3, 5}
        assert all(r["final_norm"] <= 1e-2 for r in rows)

    def test_robustness_tradeoff(self):
        rows = cli.bench_robustness(seed=0)
        floors = [r["phi_floor"] for r in rows]
        assert floors == sorted(floors)
        bounds = [r["noise_bound"] for r in rows]
        assert all(b > a for a, b in zip(bounds, bounds[1:]))
        errors = [r["median_error"] for r in rows]
        assert all(b > a for a, b in zip(errors, errors[1:]))

    def test_adversarial_certificates(self):
        rows = cli.bench_adversarial(seed=0)
        assert len(rows) == 10
        assert all(r["frozen"] for r in rows)
        assert all(r["min_certificate_margin"] >= 0.0 for r in rows)
        # The audit bit for bit: activation index, frozen flag, frozen
        # iterations and the smallest certificate margin as ``float.hex``.
        assert [(r["activation_index"], r["frozen"], r["frozen_iterations"],
                 r["min_certificate_margin"].hex()) for r in rows] == [
            (301, True, 400, "0x1.dbd0000000000p-33"),
            (144, True, 557, "0x1.0000000000000p-41"),
            (157, True, 544, "0x1.6800000000000p-40"),
            (127, True, 574, "0x1.ff00000000000p-42"),
            (152, True, 549, "0x1.a500000000000p-38"),
            (136, True, 565, "0x1.b800000000000p-41"),
            (161, True, 540, "0x1.aa00000000000p-38"),
            (144, True, 557, "0x1.1dc0000000000p-36"),
            (127, True, 574, "0x1.b000000000000p-41"),
            (160, True, 541, "0x1.7a00000000000p-43"),
        ]


class TestMain:
    def test_list_scenarios(self, capsys):
        assert cli.main(["run", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig1_quadratic_pointmass" in out
        assert "fig2_rosenbrock_dubins" in out

    def test_unknown_scenario_is_a_usage_error(self, capsys):
        assert cli.main(["run", "fig9_nope"]) == 2
        assert "neither a bundled scenario" in capsys.readouterr().err

    def test_missing_config_is_a_usage_error(self, capsys):
        assert cli.main(["run"]) == 2

    def test_invalid_config_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data["algorithm"]["theta"] = 1.0
        path.write_text(json.dumps(data))
        assert cli.main(["run", str(path)]) == 2
        assert "theta" in capsys.readouterr().err

    _TYPO_CONTROLLER = {"dirs": [[1.0, 0.0], [0.0, 1.0]],
                        "deltas": [0.01, 0.01], "phi": 0.01}

    @pytest.mark.parametrize("section, key, spec", [
        ("algorithm", "gama", {"gama": 1.2}),
        ("plant", "substep", {"kind": "point_mass", "substep": 10}),
        ("noise", "bnd", {"kind": "bounded_random", "bnd": 0.01}),
        ("objective", "dimension", {"name": "aniso_quadratic", "dimension": 2}),
        ("controller", "detla", {"dirs": [[1.0, 0.0], [0.0, 1.0]],
                                 "deltas": [0.01, 0.01], "phi": 0.01,
                                 "detla": 0.01}),
        ("stop", "max_cycles", {"max_jumps": 40, "max_cycles": 5}),
        ("initial", "headng", {"x": [1.5, 0.0], "headng": 0.0,
                               "controller": _TYPO_CONTROLLER}),
        ("initial", "heading", {"x": [1.5, 0.0], "heading": 0.0,
                                "controller": _TYPO_CONTROLLER}),
    ], ids=["algorithm", "plant", "noise", "objective", "controller", "stop",
            "initial", "heading-on-point-mass"])
    def test_config_typo_is_a_usage_error(self, tmp_path, capsys, section,
                                          key, spec):
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        if section == "controller":
            data["initial"]["controller"] = spec
        else:
            data[section] = spec
        path = tmp_path / "typo.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert key in err

    @pytest.mark.parametrize("key, value, field", [
        ("flow_samples_per_period", "3", "flow_samples_per_period"),
        ("flow_samples_per_period", 2.5, "flow_samples_per_period"),
        ("flow_samples_per_period", -2, "flow_samples_per_period"),
        ("stop", {"max_jumps": -3}, "stop.max_jumps"),
        ("stop", {"max_jumps": 40, "phi_threshold": "1e-6"},
         "stop.phi_threshold"),
        ("algorithm", {"gamma": "1.2"}, "gamma must be a number, got '1.2'"),
        ("algorithm", {"tau_star": math.inf}, "tau_star must be finite"),
    ], ids=["samples-str", "samples-float", "samples-negative",
            "max-jumps-negative", "threshold-str", "gamma-str",
            "tau-star-inf"])
    def test_bad_run_shape_is_a_usage_error(self, tmp_path, capsys, key,
                                            value, field):
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data[key] = value
        path = tmp_path / "shape.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert field in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("scenario, edit, expected", [
        ("fig2_rosenbrock_dubins",
         lambda d: d["initial"].update(x=[1.5, 0.0, 0.0]),
         "start has shape (3,), expected (2,) for 2 directions"),
        ("fig1_quadratic_pointmass",
         lambda d: d["initial"]["controller"]["deltas"].append(0.5),
         "3 stored steps for 2 directions"),
        ("fig1_quadratic_pointmass",
         lambda d: d["plant"].update(dimension=3),
         "plant dimension 3 differs from 2 directions"),
        ("fig1_quadratic_pointmass",
         lambda d: d["initial"]["controller"].update(v=[1.0, 0.0, 0.0]),
         "active direction has shape (3,), expected (2,)"),
        ("fig1_quadratic_pointmass",
         lambda d: d.update(objective={"name": "sphere", "dimension": 3}),
         "objective dimension 3 differs from 2 directions"),
    ], ids=["fig2-start", "fig1-steps", "fig1-plant", "fig1-active",
            "fig1-objective"])
    def test_disagreeing_dimensions_are_a_usage_error(self, tmp_path, capsys,
                                                      scenario, edit, expected):
        data = cli.scenario_config(scenario).to_dict()
        edit(data)
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert expected in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("keys, expected", [
        (["x"], ["initial.x"]),
        (["controller"], ["initial.controller"]),
        (["x", "controller.dirs", "controller.phi"],
         ["initial.x", "initial.controller.dirs", "initial.controller.phi"]),
        (["controller.deltas"], ["initial.controller.deltas"]),
    ], ids=["x", "controller", "x-dirs-phi", "deltas"])
    def test_missing_start_keys_are_a_usage_error(self, tmp_path, capsys,
                                                  keys, expected):
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        for key in keys:
            *parents, last = key.split(".")
            section = data["initial"]
            for parent in parents:
                section = section[parent]
            del section[last]
        path = tmp_path / "start.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err
        assert [line.strip() for line in err.splitlines()[1:]] == [
            f"- missing start key {k}" for k in expected]
        assert not out_dir.exists()

    @pytest.mark.parametrize("field, put", [
        ("noise.bound", lambda data, v: data["noise"].update(bound=v)),
        ("algorithm.gamma", lambda data, v: data["algorithm"].update(gamma=v)),
        ("initial.x[0]", lambda data, v: data["initial"]["x"].__setitem__(0, v)),
        ("initial.controller.phi",
         lambda data, v: data["initial"]["controller"].update(phi=v)),
    ], ids=["noise-bound", "gamma", "initial-x", "controller-phi"])
    def test_an_integer_too_large_for_a_float_is_a_usage_error(
            self, tmp_path, capsys, field, put):
        # Converting it raised OverflowError: exit 1 with a traceback.
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data["noise"] = {"kind": "bounded_random", "bound": 0.01, "seed": 1}
        put(data, 10**400)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid configuration:",
            f"  - {field} is an integer too large for a float"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("scenario, put, message", [
        ("fig1_quadratic_pointmass",
         lambda data: data["algorithm"].update(gamma=True),
         "gamma must be a number, got True"),
        ("fig2_rosenbrock_dubins",
         lambda data: data["plant"].update(substeps=True),
         "plant 'dubins': substeps must be an integer >= 1, got True"),
    ], ids=["gamma", "substeps"])
    def test_a_boolean_is_not_a_number(self, tmp_path, capsys, scenario, put,
                                       message):
        # A bool is an int: it was reported as an integer too large for a
        # float, and `substeps: true` ran as one substep.
        data = cli.scenario_config(scenario).to_dict()
        put(data)
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid configuration:", f"  - {message}"]
        assert not out_dir.exists()

    @pytest.mark.parametrize("spec, expected", [
        ({"kind": "adversarial_jam", "bound": 0.5, "grad_bound": 1.0,
          "dir_bound": 1.0, "theta": 1.0}, "theta must be in (0, 1), got 1.0"),
        ({"kind": "bounded_random", "bound": 0.01, "seed": 1.7},
         "seed must be an integer, got 1.7"),
        ({"kind": "bounded_random", "bound": 1e308, "seed": 1},
         "noise model 'bounded_random': bound must be at most "
         "8.988465674311579e+307"),
    ], ids=["jam-theta-1", "seed-float", "bound-overflows"])
    def test_bad_noise_parameter_is_a_usage_error(self, tmp_path, capsys,
                                                  spec, expected):
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data["noise"] = spec
        path = tmp_path / "noise.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        assert expected in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("scenario, section, spec, expected", [
        ("fig1_quadratic_pointmass", "noise",
         {"kind": "adversarial_jam", "bound": 0.5, "grad_bound": 1.0,
          "dir_bound": 1.0, "theta": 1.0},
         "noise model 'adversarial_jam': theta must be in (0, 1), got 1.0"),
        ("fig2_rosenbrock_dubins", "plant",
         {"kind": "dubins", "v_max": -1.0, "u_max": 80.0},
         "plant 'dubins': v_max must be a finite number > 0, got -1.0"),
        # An infinite limit ran to exit 0 (with u_max the plant never
        # turned), and a NaN u_max failed mid-run with IntegrationError.
        ("fig2_rosenbrock_dubins", "plant",
         {"kind": "dubins", "v_max": 10.0, "u_max": math.inf},
         "plant 'dubins': u_max must be a finite number > 0, got inf"),
        ("fig2_rosenbrock_dubins", "plant",
         {"kind": "dubins", "v_max": math.inf, "u_max": 80.0},
         "plant 'dubins': v_max must be a finite number > 0, got inf"),
        ("fig2_rosenbrock_dubins", "plant",
         {"kind": "dubins", "v_max": 10.0, "u_max": math.nan},
         "plant 'dubins': u_max must be a finite number > 0, got nan"),
        ("fig1_quadratic_pointmass", "objective",
         {"name": "random_spd_quadratic", "dimension": 2, "seed": -1},
         "objective 'random_spd_quadratic': expected non-negative integer"),
    ], ids=["noise", "plant", "plant-u-max-inf", "plant-v-max-inf",
            "plant-u-max-nan", "objective"])
    def test_a_rejected_value_names_its_section(self, tmp_path, capsys,
                                                scenario, section, spec,
                                                expected):
        data = cli.scenario_config(scenario).to_dict()
        data[section] = spec
        path = tmp_path / "value.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: invalid configuration:", f"  - {expected}"]
        assert not out_dir.exists()

    def test_config_file_runs(self, tmp_path, capsys):
        path = tmp_path / "quick.json"
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data["stop"] = {"max_jumps": 40}
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 0
        assert sorted(os.listdir(out_dir)) == [
            "arc.csv", "config.json", "summary.json",
        ]

    def test_summary_names_an_evaluation_budget_stop(self, tmp_path):
        path = tmp_path / "budget.json"
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data["stop"] = {"max_evaluations": 25}
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 0
        summary = json.loads((out_dir / "summary.json").read_text())
        assert (summary["jumps"], summary["stopped"]) == (25, "max_evaluations")

    @pytest.mark.parametrize("scenario, plant", [
        ("fig2_rosenbrock_dubins", None),
        ("fig1_quadratic_pointmass", None),
        ("fig1_quadratic_pointmass", {"kind": "exact"}),
    ], ids=["dubins", "point-mass", "exact"])
    def test_initial_state_matches_the_plant(self, tmp_path, scenario, plant):
        # The CLI builds the start with the plant's own `initial_state`, so
        # the internal-state check never rejects it.
        data = cli.scenario_config(scenario).to_dict()
        data["stop"] = {"max_jumps": 5}
        if plant is not None:
            data["plant"] = plant
        path = tmp_path / "start.json"
        path.write_text(json.dumps(data))
        out_dir = tmp_path / "out"
        assert cli.main(["run", str(path), "--out", str(out_dir)]) == 0
        assert json.loads((out_dir / "summary.json").read_text())["jumps"] == 5

    def test_non_finite_objective_is_a_run_error(self, tmp_path, capsys,
                                                 monkeypatch):
        # inf on x < 0: the first negative probe from 0.25 lands at -0.75.
        monkeypatch.setitem(core.OBJECTIVE_BUILDERS, "pocket", lambda: (
            core.ObjectiveFunction(
                "pocket", 1,
                lambda x: float("inf") if x[0] < 0 else float(x[0] ** 2),
            )))
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data.update(
            objective={"name": "pocket"},
            plant={"kind": "exact", "dimension": 1},
            initial={"x": [0.25], "controller": {
                "dirs": [[1.0]], "deltas": [1.0], "phi": 1.0}},
            stop={"max_jumps": 50},
        )
        path = tmp_path / "pocket.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", str(path), "--out",
                         str(tmp_path / "out")]) == 1
        assert "EvaluationError" in capsys.readouterr().err

    def test_non_finite_noise_is_a_run_error(self, tmp_path, capsys,
                                             monkeypatch):
        class NanAt(noise.NoiseModel):
            kind = "nan_at"

            def _value(self, k, delta, direction):
                return math.nan if k == 7 else 0.0

        monkeypatch.setitem(noise.NOISE_BUILDERS, "nan_at", NanAt)
        data = cli.scenario_config("fig1_quadratic_pointmass").to_dict()
        data.update(noise={"kind": "nan_at"}, stop={"max_jumps": 50})
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        assert cli.main(["run", str(path), "--out",
                         str(tmp_path / "out")]) == 1
        assert "EvaluationError" in capsys.readouterr().err

    def test_echo_only_and_seed_override(self, tmp_path, capsys,
                                         monkeypatch):
        monkeypatch.setenv("DIRECTSEEK_OUT", str(tmp_path))
        rc = cli.main(["run", "fig1_quadratic_pointmass", "--max-jumps",
                       "0", "--seed", "7"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "jumps: 0" in out
        run_dir = tmp_path / "fig1_quadratic_pointmass_seed7"
        assert run_dir.is_dir()
        echoed = json.loads((run_dir / "config.json").read_text())
        assert echoed["seed"] == 7
        assert echoed["stop"]["max_jumps"] == 0

    def test_rho_table_csv(self, tmp_path, capsys):
        out = tmp_path / "rho.csv"
        rc = cli.main(["rho-table", "--min", "0.5", "--max", "4",
                       "--points", "3", "--out", str(out)])
        assert rc == 0
        with out.open() as fp:
            rows = list(csv.reader(fp))
        assert rows[0] == ["delta", "rho", "log_rho", "flag"]
        assert len(rows) == 4
        assert float(rows[1][1]) == 0.25

    def test_rho_table_bad_range(self, capsys):
        assert cli.main(["rho-table", "--min", "1", "--max", "1"]) == 2
        assert cli.main(["rho-table", "--min", "1e-300", "--max", "inf",
                         "--points", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.err.endswith("error: max must be finite, got inf\n")
        assert captured.out == ""

    def test_unknown_suite(self, capsys):
        assert cli.main(["bench", "zzz"]) == 2
        assert "convergence" in capsys.readouterr().err

    def test_bench_writes_csv(self, tmp_path, capsys):
        rc = cli.main(["bench", "convergence", "--out", str(tmp_path)])
        assert rc == 0
        with (tmp_path / "bench_convergence.csv").open() as fp:
            rows = list(csv.reader(fp))
        assert rows[0][0] == "dimension"
        assert len(rows) == 13
