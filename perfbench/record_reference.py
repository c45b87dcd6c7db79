"""Record the outcomes that ``run.py`` checks every repetition against.

    python3 perfbench/record_reference.py

Runs each workload once per recorded seed at its full budget and writes
``perfbench/reference.json``.  ``fig2_dubins`` ignores the seed and has one
entry.  The seeds are ``workloads.RECORDED_SEEDS`` and the held-out seed
``workloads.HELD_OUT_SEED``.  Re-record only for a change that is meant to
alter what the search computes.
"""
import json
from pathlib import Path

import workloads


def entry(name: str, seed: int) -> dict:
    workload = workloads.build(name, seed)
    outcome = workload.outcome(workload.run_once(None), None)
    return {
        "stopped": outcome.stopped,
        "steps": outcome.steps,
        "cases": outcome.cases,
        "distance": outcome.distance,
    }


def main() -> None:
    seeds = [*range(workloads.RECORDED_SEEDS), workloads.HELD_OUT_SEED]
    reference = {
        "held_out_seed": workloads.HELD_OUT_SEED,
        "fig2_dubins": entry("fig2_dubins", 0),
        **{
            name: {str(seed): entry(name, seed) for seed in seeds}
            for name in ("controller_exact_noisy", "walker_noisy")
        },
    }
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
