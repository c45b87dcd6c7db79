"""Run-to-run spread of the end-to-end metrics over ten seeds.

    python3 perfbench/spread.py

Runs ``run.py`` once per (seed, workload) for seeds 0 to 9 and every workload
in ``BENCHMARK.json``, at its ``run_seconds``, one run at a time, alternating
the workload order from seed to seed.  For every end-to-end metric it prints
the median of the runs, and the distance between the first and third
quartiles as a share of the median, next to the metric's bound.  A spread at
or above a third of its bound is flagged (``setup_s`` is exempt from the
spread rule) and makes the exit code 1.  Raw results go to
``perfbench/out/spread.json``.
"""
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(10)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    values: dict = {name: {} for name in names}
    runs = []
    for i, seed in enumerate(SEEDS):
        for name in names if i % 2 == 0 else names[::-1]:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True,
            )
            elapsed = time.perf_counter() - start
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "elapsed_s": elapsed, **result})
            print(name, seed, f"{elapsed:.1f}s", result["correct"], result["attempted"],
                  result["failed"],
                  {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
            for metric, entry in result["metrics"].items():
                values[name].setdefault(metric, []).append(entry["value"])
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / "spread.json").write_text(json.dumps(runs, indent=1) + "\n")

    flagged = 0
    for name in names:
        for metric in spec["end_to_end"]:
            series = values[name][metric["name"]]
            median = statistics.median(series)
            q1, _, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            steady = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            flagged += not steady
            print(f"{name:24s} {metric['name']:12s} median {median:.6g} "
                  f"spread {spread:.3f} bound {metric['bound']} {'' if steady else 'UNSTEADY'}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
