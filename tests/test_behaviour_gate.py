"""The behaviour gate: full sha256 digests of the byte-reproducible
artifacts of both bundled scenarios and of the ``controller_exact_noisy``
benchmark run at its held-out seed, of both scenarios' ``arc.csv`` with
dense intra-period rows, and of the ``walker_noisy`` iterate log at the
held-out seed.  A change that moves one byte of them changes what the
program computes.

The noisy runs' bits depend on the OpenBLAS kernel family that numpy's
``DYNAMIC_ARCH`` build picks for the CPU (settable with
``OPENBLAS_CORETYPE``): the families sum the objective's matrix and dot
products in different orders.  Their digests are pinned per family, found
from a fingerprint of that objective's values that the gate computes
itself.
The bundled scenarios' digests do not depend on the kernel.

The benchmark harness under ``perfbench/`` is imported read-only, for the
noisy experiment's config and the walker's inputs.
"""
import hashlib
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import workloads  # noqa: E402
from directseek import cli, core  # noqa: E402

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

# arc.csv digests of the bundled scenarios with dense intra-period rows:
# name -> (flow_samples_per_period, jump budget, digest).  fig1 logs 8,001
# rows and fig2 6,001; neither depends on the kernel.
DENSE_ROW_DIGESTS = {
    "fig1_quadratic_pointmass": (
        3, 2000, "0cda8f48c797b58f7ee0c3297b20a37b22aa76410bb0d1b43f82f35eca63d970"),
    "fig2_rosenbrock_dubins": (
        2, 2000, "cdf400ab58b58fad1617eb153dfeeaba8a83b13a75f802b463f0259c3c17a645"),
}

# Kernel fingerprint -> family.  Recorded with numpy 2.4.6 (OpenBLAS 0.3.31)
# under each OPENBLAS_CORETYPE; the core types named share the fingerprint
# and every digest below.
KERNEL_FAMILIES = {
    "3a5e0fe27ffe2240": "AVX-512",  # SkylakeX, Cooperlake, SapphireRapids
    "6f476c839414e64c": "Haswell",  # Haswell, Zen
    "cde6cd01329e568e": "Sandybridge",  # Sandybridge, Nehalem, Atom
    "c063948c9e5ad7db": "Prescott",  # Prescott, Core2
}

# ``controller_exact_noisy`` digests on the families other than AVX-512,
# whose digests are the ones in DIGESTS.
NOISY_DIGESTS = {
    "Haswell": {
        "arc.csv": "68aa3c4d0ac38540637e2d56ce2b58e78435a4780ef70ed606102c434b15c4a8",
        "config.json": "d03f0d0a4eaa236fc44fc2b8484fce2766ad8a9b00181921f5e8e87e26969559",
        "noise.csv": "6d58de1fcc1476d94ef87553d8cf578d8a34ae891773aab9e0785db75772d1ff",
    },
    "Sandybridge": {
        "arc.csv": "a089701fa1e7b816528cba78b2e42aeab3d74647408ce9ea46871996a363f61b",
        "config.json": "d03f0d0a4eaa236fc44fc2b8484fce2766ad8a9b00181921f5e8e87e26969559",
        "noise.csv": "6d58de1fcc1476d94ef87553d8cf578d8a34ae891773aab9e0785db75772d1ff",
    },
    "Prescott": {
        "arc.csv": "6e1f16f720ad535a22ea19095d327c0368edef45c7744701b0bb882c3f935225",
        "config.json": "d03f0d0a4eaa236fc44fc2b8484fce2766ad8a9b00181921f5e8e87e26969559",
        "noise.csv": "6d58de1fcc1476d94ef87553d8cf578d8a34ae891773aab9e0785db75772d1ff",
    },
}

# ``walker_noisy`` iterate-log digest (`walker_log_digest`) at the held-out
# seed, per family.
WALKER_DIGESTS = {
    "AVX-512": "f3701569567a27e0ec39bf2727fe6ae15fb55365a1802e3157a492fc956ff27b",
    "Haswell": "760ea5585bb00ce4c23b4aca77211bfc17a9d1e048f0ea9e8fbfd56a53406681",
    "Sandybridge": "269460b46dc28b178de02c242982261dc2d4d3b1ad532a8bf490b854f5a2edfa",
    "Prescott": "fd822a0463b3fb6b38ea5840d91a013f51270d29d793be8e16fe1fc072b8b30c",
}


def kernel_fingerprint() -> str:
    """First 16 hex digits of the sha256 of the noisy workload's objective
    ``0.5 * r @ H @ r``, ``r = u - x*`` (as ``float.hex``), at 8 seeded
    points ``u``."""
    objective = core.make_random_spd_quadratic(
        workloads.NOISY_DIMENSION, seed=workloads.HELD_OUT_SEED
    )
    shape = objective.known_minimizers[0].shape
    rng = np.random.default_rng(0)
    values = [objective(rng.uniform(-2.0, 2.0, shape)).hex() for _ in range(8)]
    return hashlib.sha256(",".join(values).encode()).hexdigest()[:16]


def kernel_family(fingerprint: str) -> str:
    """The recorded family of a fingerprint; an unrecorded one fails."""
    if fingerprint not in KERNEL_FAMILIES:
        pytest.fail(
            f"unrecorded OpenBLAS kernel fingerprint {fingerprint}: record "
            f"this kernel family's digests in {Path(__file__).name}"
        )
    return KERNEL_FAMILIES[fingerprint]


def walker_log_digest(log) -> str:
    """sha256 over each record's ``x.tobytes()``, then its ``measured``,
    ``kind``, ``accepted`` and ``delta`` as one line (floats as
    ``float.hex``)."""
    h = hashlib.sha256()
    for r in log:
        h.update(r.x.tobytes())
        h.update(f"{r.measured.hex()},{r.kind},{r.accepted},"
                 f"{r.delta.hex()}\n".encode())
    return h.hexdigest()


def expected_digests(name):
    if name != "controller_exact_noisy":
        return DIGESTS[name]
    family = kernel_family(kernel_fingerprint())
    return DIGESTS[name] if family == "AVX-512" else NOISY_DIGESTS[family]


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
    assert written == expected_digests(name)


@pytest.mark.parametrize("name", sorted(DENSE_ROW_DIGESTS))
def test_dense_row_digests(name, tmp_path):
    samples, jumps, expected = DENSE_ROW_DIGESTS[name]
    config = cli.scenario_config(name)
    config.flow_samples_per_period = samples
    config.stop["max_jumps"] = jumps
    cli.run_experiment(config, str(tmp_path))
    data = (tmp_path / "arc.csv").read_bytes()
    assert data.count(b"\n") == 2 + jumps * (samples + 1)
    assert hashlib.sha256(data).hexdigest() == expected


def test_walker_log_digest():
    walker = workloads.WalkerNoisy(workloads.HELD_OUT_SEED)
    digest = walker_log_digest(walker.walk().iterate_log)
    assert digest == WALKER_DIGESTS[kernel_family(kernel_fingerprint())]


def test_every_family_is_pinned():
    families = sorted(KERNEL_FAMILIES.values())
    assert len(set(families)) == len(families)
    assert sorted(WALKER_DIGESTS) == families
    assert sorted(NOISY_DIGESTS) == sorted(set(families) - {"AVX-512"})


def test_unrecorded_kernel_fails_by_name():
    with pytest.raises(pytest.fail.Exception, match="fingerprint 0123456789abcdef"):
        kernel_family("0123456789abcdef")
