"""The behaviour gate: full sha256 digests of the byte-reproducible
artifacts of both bundled scenarios and of the ``controller_exact_noisy``
benchmark run at its held-out seed.  A change that moves one byte of them
changes what the program computes.

The benchmark harness under ``perfbench/`` is imported read-only, for the
noisy experiment's config.
"""
import hashlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from directseek import cli  # noqa: E402

DIGESTS = {
    "fig1_quadratic_pointmass": {
        "arc.csv": "9653f09f10fcdf0433dbc0a589241b3979175d12c62df81370af4e073642daac",
        "config.json": "80976b331d3d7a711f60c216f6d9600e7862ef210e8f45b1cb0e91c0eb9ebf1e",
    },
    "fig2_rosenbrock_dubins": {
        "arc.csv": "a1fd4f32ffeed27753a5caa3edfff66a468841a3a2d64738504225044116f626",
        "config.json": "97b7ebd8b2df2e80c896bb612a31d79053120f73858014c46025abd1fa94a1d5",
    },
    "controller_exact_noisy": {
        "arc.csv": "3493678671d2c574a0a663dafcc034dad67fb07850d967a258d0fb8cc6434d93",
        "config.json": "d03f0d0a4eaa236fc44fc2b8484fce2766ad8a9b00181921f5e8e87e26969559",
        "noise.csv": "6d58de1fcc1476d94ef87553d8cf578d8a34ae891773aab9e0785db75772d1ff",
    },
}


def experiment(name):
    if name == "controller_exact_noisy":
        return workloads.noisy_experiment(workloads.HELD_OUT_SEED)
    return cli.scenario_config(name)


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_artifact_digests(name, tmp_path):
    cli.run_experiment(experiment(name), str(tmp_path))
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
        if path.name != "summary.json"
    }
    assert written == DIGESTS[name]
