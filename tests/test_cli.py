"""Tests for the experiment runner: scenario configs, artifact layout and
determinism, the threshold table, benchmark suites, and exit codes."""
import csv
import json
import math
import os

import numpy as np
import pytest

from directseek import cli, core
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
                                   arc.final_sample().plant.x]
        assert summary.distance_to_minimizer == pytest.approx(
            float(np.linalg.norm(arc.final_sample().plant.x))
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
