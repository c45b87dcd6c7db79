"""The program API that the benchmark harness under ``perfbench/`` reads.

The harness is imported read-only at module top, so `tracing.ORIGINALS`
holds the program's own callables before any test patches one.  Each
workload runs at a tiny budget, once plain and once under the layer tracer,
with its artifacts in a temporary directory.
"""
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

TINY_STEPS = {"fig2_dubins": 60, "controller_exact_noisy": 300, "walker_noisy": 300}
CLOSED_LOOP = {"fig2_dubins", "controller_exact_noisy"}


@pytest.mark.parametrize("name", sorted(TINY_STEPS))
def test_workload_runs_plain_and_traced(name, tmp_path):
    workload = workloads.build(name, 1, TINY_STEPS[name])
    outcomes = []
    for mode in ("plain", "traced"):
        out_dir = None
        if workload.writes_artifacts:
            out_dir = tmp_path / mode
            out_dir.mkdir()
        if mode == "plain":
            result = workload.run_once(out_dir)
        else:
            with tracing.Tracer() as tracer:
                result = workload.run_once(out_dir)
            if name in CLOSED_LOOP:
                assert tracer.segments > 0
                assert tracer.layers(0)["hybrid.write_csv"]["calls"] == 1
        outcome = workload.outcome(result, out_dir)
        assert workloads.check(workload, outcome, None) == []
        outcomes.append(outcome)
    assert tracing.patched() == []
    assert outcomes[0] == outcomes[1]
    assert workload.cross_check(outcomes[0]) == []
