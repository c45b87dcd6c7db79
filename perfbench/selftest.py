"""Self-test of the benchmark at a tiny budget.

    python3 perfbench/selftest.py

Runs every workload through both passes (timed and traced) and checks that
each metric ``BENCHMARK.json`` names is emitted with its unit and nothing
else, that the output checks pass, and that afterwards every attribute the
tracer replaces is its original object again and the speed sampler's timer
is off.  It also checks that the output check rejects an outcome that
differs from its reference or has none, and that every seed folds onto one
with a recorded reference.  Exits 1 on a problem.
"""
import json
import signal
import sys

import run
import tracing
import workloads

TINY_STEPS = {"fig2_dubins": 60, "controller_exact_noisy": 300, "walker_noisy": 300}


def check_rejects_mismatch() -> list[str]:
    workload = workloads.build("walker_noisy", 1, TINY_STEPS["walker_noisy"])
    outcome = workload.outcome(workload.run_once(None), None)
    reference = {
        "stopped": outcome.stopped,
        "steps": outcome.steps,
        "cases": dict(outcome.cases),
        "distance": outcome.distance,
    }
    problems = []
    if workloads.check(workload, outcome, reference):
        problems.append("output check rejects an outcome equal to its reference")
    wrong = {
        "distance": outcome.distance + 1e-8,
        "cases": {**outcome.cases, "D1": outcome.cases["D1"] + 1},
        "steps": outcome.steps + 1,
    }
    for key, value in wrong.items():
        if not workloads.check(workload, outcome, {**reference, key: value}):
            problems.append(f"output check accepts a wrong {key}")
    full = workloads.build("walker_noisy", 1)
    if not any("no reference" in p for p in workloads.check(full, outcome, None)):
        problems.append("output check accepts a full-budget run without a reference")
    return problems


def check_reference_covers_seeds() -> list[str]:
    """Every seed folds onto an input seed that has a recorded reference."""
    recorded = run.load_reference()
    problems = []
    for name in ("controller_exact_noisy", "walker_noisy"):
        for seed in (*range(-1, 2 * workloads.RECORDED_SEEDS), workloads.HELD_OUT_SEED):
            if str(workloads.input_seed(seed)) not in recorded[name]:
                problems.append(f"{name}: no reference for --seed {seed}")
    return problems


def main() -> int:
    spec = json.loads((run.HERE.parent / "BENCHMARK.json").read_text())
    problems = check_rejects_mismatch() + check_reference_covers_seeds()
    for name, steps in TINY_STEPS.items():
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.benchmark(name, 1, 0.2, trace, steps)
            expected = {m["name"]: m["unit"] for m in spec[section]}
            emitted = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if emitted != expected:
                problems.append(f"{tag}: emitted {emitted}, BENCHMARK.json names {expected}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: {result['details']['errors']}")
            installed = tracing.patched()
            if installed:
                problems.append(f"{tag}: wrappers still installed: {installed}")
            if signal.getitimer(signal.ITIMER_REAL) != (0.0, 0.0) or (
                signal.getsignal(signal.SIGALRM) is not signal.SIG_DFL
            ):
                problems.append(f"{tag}: the speed sampler's timer is still set")
            print(f"{tag}: {len(emitted)} metrics, attempted {result['attempted']}")
    for problem in problems:
        print("FAIL", problem)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
