"""directseek benchmark: one workload, timed from outside the program.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``workloads.py``): ``fig2_dubins``, ``controller_exact_noisy``
and ``walker_noisy``.  Run from the repository root; the program is imported
from ``src/`` of the same checkout.

A run measures set-up in fresh child processes, then repeats the workload
through its public entry point for ``--seconds`` seconds (at least
``MIN_REPETITIONS`` times), checking every repetition against the recorded
reference for its input seed (``workloads.input_seed``) and against the
other repetitions.  With ``--trace 1`` it then repeats the workload with
layer wrappers installed and reports per-layer numbers instead of the
end-to-end ones.

``setup_s`` and the run times are wall times scaled to a reference machine
speed, which a fixed kernel samples during each timed repetition and right
after each set-up probe (see ``SpeedSampler``).  Per-layer times are raw
wall times, and the traced pass takes no samples.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before it
holds the details: every scaled and raw repetition time, the kernel times,
errors, machine load, and the tail ``run_s.tail`` with its percentile.  The
tail is not an end-to-end metric because its run-to-run spread on a shared
2-core machine (0.27 to 0.31 of its median over ten seeds, unscaled)
exceeded the largest bound a metric may have.
Spans of a traced run go to ``perfbench/out/<workload>.spans.csv``.

One process, one thread: BLAS threading is pinned to 1 before numpy loads,
and the set-up probes run one at a time.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

try:
    import workloads  # noqa: E402
except ImportError as exc:
    sys.exit(f"perfbench: cannot load the program: {exc}")

import numpy as np  # noqa: E402

import tracing  # noqa: E402

SETUP_PROBES = 5
MIN_REPETITIONS = 3
MAX_TRACED_REPETITIONS = 3

# Machine-speed reference.  The benchmark was defined on a shared 2-vCPU VM
# whose speed drifted by up to 1.7x within a quarter of an hour, and the same
# code's wall times then spread by 0.2 to 0.4 of their median over ten runs:
# more than any bound a metric may have.  So every timed interval is scaled
# by (KERNEL_REFERENCE_S / k) ** KERNEL_ELASTICITY, with k the median time of
# a fixed kernel sampled during it.  A scaled time reads as the wall time on
# a machine where the kernel takes KERNEL_REFERENCE_S, about its time on that
# VM.  The workloads slow down less than the kernel: fitted over ten runs of
# each, their wall times moved as k to a power of 0.6 to 0.85, and 0.75 kept
# the run-to-run spread small on all three.  The raw wall times and kernel
# times stay in the details line.
SAMPLE_PERIOD_S = 0.02
MIN_SAMPLES = 32
KERNEL_REFERENCE_S = 0.0004
KERNEL_ELASTICITY = 0.75


def load_reference() -> dict:
    return json.loads((HERE / "reference.json").read_text())


def reference_for(reference: dict, workload) -> dict | None:
    """Recorded outcome for this workload and its input seed, if there is one.

    Only full-budget runs have references; ``fig2_dubins`` has one for every
    seed because it ignores the seed.  A full-budget run without one fails
    its output check.
    """
    if workload.steps != workload.budget:
        return None
    table = reference[workload.name]
    if workload.name == "fig2_dubins":
        return table
    return table.get(str(workload.seed))


def probe_setup(name: str, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter until it has imported the
    program and built the workload's inputs, as ``(wall, scaled)``.  This
    process only waits meanwhile, so its speed samples do not delay the
    child and are not taken off the interval."""
    sampler = SpeedSampler()
    start = time.perf_counter()
    with sampler, subprocess.Popen(
        [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
        stdout=subprocess.PIPE,
        text=True,
    ) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed, elapsed * sampler.scale()


def _kernel() -> float:
    """A fraction of a millisecond of interpreter and small-array numpy work,
    like the workloads' mix.  It calls no program code and allocates nothing
    the cyclic GC tracks, so it does not move the program's collections."""
    x0, x1, x2, acc = 0.1, 0.2, 0.3, 0.0
    a, b = np.array([0.1, 0.2, 0.3]), np.array([0.3, -0.1, 0.2])
    for i in range(100):
        x0, x1, x2 = x1, x2, math.sin(x0) + 0.5 * x1
        acc += x2
        a = a + 0.01 * (b - 0.5 * a)
        if i % 4 == 0:
            b = np.sin(a) * 0.5
    return acc + float(a.sum())


class SpeedSampler:
    """Machine speed during a timed interval.

    Inside ``with sampler:`` an interval timer (SIGALRM) runs `_kernel` every
    ``SAMPLE_PERIOD_S``; ``busy_s`` is the time those samples took, to be
    taken off the interval.  `scale` tops the samples up to ``MIN_SAMPLES``
    after the interval and returns the factor that turns the interval into
    reference-speed seconds.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0

    def _sample(self, *_signal) -> None:
        start = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.busy_s = sum(self.samples)

    def scale(self) -> float:
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        kernel_s = statistics.median(self.samples)
        return (KERNEL_REFERENCE_S / kernel_s) ** KERNEL_ELASTICITY


def _rss_mb() -> float:
    with open("/proc/self/statm") as fp:
        return int(fp.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 1e6


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def repetition(workload, tmp_root: Path, sampler: SpeedSampler | None):
    """One call of the workload's entry point in a fresh output directory.

    Returns ``(seconds, outcome, error)``; ``outcome`` is None when the
    program raised one of its run errors.  Only the entry-point call is
    timed, less the time ``sampler`` (if any) spent sampling during it.
    """
    gc.collect()
    out_dir = tempfile.mkdtemp(dir=tmp_root) if workload.writes_artifacts else None
    error = None
    try:
        start = time.perf_counter()
        with sampler or contextlib.nullcontext():
            try:
                result = workload.run_once(out_dir)
            except workloads.RUN_ERRORS as exc:
                error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start - (sampler.busy_s if sampler else 0.0)
        if error:
            return elapsed, None, error
        return elapsed, workload.outcome(result, out_dir), None
    finally:
        if out_dir is not None:
            shutil.rmtree(out_dir)


def tail(values: list[float]) -> tuple[float, float, int]:
    """The tail of the repetition times as ``(value, percentile, beyond)``.

    The highest percentile that has at least ten repetitions beyond it, but
    never below the 90th: with fewer than 100 repetitions the 90th
    percentile (nearest rank) is taken and ``beyond`` says how many
    repetitions lie above it.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(n - 10, math.ceil(0.9 * n))
    return ordered[rank - 1], 100.0 * rank / n, n - rank


class Run:
    """Repetitions of one workload, their checks, and the counts behind
    ``attempted``/``failed``."""

    def __init__(self, workload, reference: dict | None, tmp_root: Path):
        self.workload = workload
        self.reference = reference
        self.tmp_root = tmp_root
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.first = None

    def once(self, sampler: SpeedSampler | None = None):
        """Run and check one repetition; returns ``(seconds, outcome)`` with
        ``outcome`` None when the repetition failed."""
        self.attempted += 1
        elapsed, outcome, error = repetition(self.workload, self.tmp_root, sampler)
        problems = [error] if error else workloads.check(
            self.workload, outcome, self.reference
        )
        if outcome is not None and not problems:
            if self.first is None:
                self.first = outcome
            elif outcome != self.first:
                problems = ["outcome differs from the first repetition"]
        if problems:
            self.failed += 1
            self.errors.extend(f"repetition {self.attempted}: {p}" for p in problems)
            return elapsed, None
        return elapsed, outcome


def measure(
    workload, seconds: float, trace: bool, reference: dict | None, tmp_root: Path
) -> dict:
    """Time the workload for ``seconds`` and, when ``trace``, trace it.

    Repetitions write their artifacts under ``tmp_root``.  Returns the
    result object (``correct``, ``attempted``, ``failed``, ``metrics``) plus
    a ``details`` entry.
    """
    run = Run(workload, reference, tmp_root)

    times: list[float] = []
    scaled: list[float] = []
    kernel: list[float] = []
    peak_mem_mb = None
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_REPETITIONS or time.perf_counter() < deadline:
        if run.failed >= MIN_REPETITIONS and not times:
            break
        installed = tracing.patched()
        if installed:
            raise RuntimeError(f"wrappers installed during timing: {installed}")
        rss_before = _rss_mb() if peak_mem_mb is None else None
        sampler = SpeedSampler()
        elapsed, outcome = run.once(sampler)
        if outcome is None:
            continue
        if peak_mem_mb is None:
            peak_mem_mb = _peak_rss_mb() - rss_before
        scale = sampler.scale()
        times.append(elapsed)
        scaled.append(elapsed * scale)
        kernel.append(statistics.median(sampler.samples))
    if not times:
        raise RuntimeError(f"every repetition failed: {run.errors}")

    checks = workload.cross_check(run.first)
    run_p50 = statistics.median(scaled)
    tail_s, tail_pct, tail_beyond = tail(scaled)
    details = {
        "workload": workload.name,
        "input_seed": workload.seed,
        "steps": workload.steps,
        "reference": "recorded" if reference is not None else "none",
        "samples": len(times),
        "run_s": scaled,
        "run_s.wall": times,
        "run_s.wall.p50": statistics.median(times),
        "kernel_s": kernel,
        "run_s.tail": {
            "value": tail_s,
            "unit": "s",
            "percentile": tail_pct,
            "beyond": tail_beyond,
        },
    }

    if not trace:
        metrics = {
            "run_s.p50": (run_p50, "s"),
            "step_us.p50": (run_p50 / workload.steps * 1e6, "us"),
            "peak_mem_mb": (peak_mem_mb, "MB"),
        }
    else:
        metrics = traced(run, seconds, statistics.median(times))

    run.errors.extend(checks)
    details["errors"] = run.errors
    return {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
        "details": details,
    }


def traced(run: Run, seconds: float, untraced_p50: float) -> dict:
    """Repeat the workload with layer wrappers installed; per-layer metrics."""
    workload, outcome = run.workload, run.first
    reps: list[tuple[float, dict, int]] = []
    spent = 0.0
    with tracing.Tracer() as tracer:
        while not reps or (
            len(reps) < MAX_TRACED_REPETITIONS and spent < seconds / 4
        ):
            tracer.repetition = len(reps)
            tracer.segments = 0
            elapsed, rep_outcome = run.once()
            spent += elapsed
            if rep_outcome is not None:
                reps.append((elapsed, tracer.layers(tracer.repetition), tracer.segments))
    if tracing.patched():
        raise RuntimeError(f"wrappers left installed: {tracing.patched()}")
    tracer.write(OUT / f"{workload.name}.spans.csv")
    if not reps:
        raise RuntimeError(f"every traced repetition failed: {run.errors}")

    first_layers, segments = reps[0][1], reps[0][2]
    if any(
        {k: v["calls"] for k, v in layers.items()}
        != {k: v["calls"] for k, v in first_layers.items()}
        for _, layers, _ in reps
    ):
        run.errors.append("traced repetitions made different numbers of calls")

    def self_s(name: str) -> tuple[float, str]:
        return statistics.median(layers[name]["self_s"] for _, layers, _ in reps), "s"

    def calls(name: str) -> tuple[int, str]:
        return first_layers[name]["calls"], "count"

    closed_loop = outcome.arc_rows > 0
    ratio = outcome.accepted / outcome.steps
    metrics = {
        "plants.steer.calls": calls("plants.steer"),
        "plants.steer.self_s": self_s("plants.steer"),
        "plants.integrate.calls": calls("plants.integrate"),
        "plants.integrate.self_s": self_s("plants.integrate"),
        "plants.segments": (segments, "count"),
        "core.objective.calls": calls("core.objective"),
        "core.objective.self_s": self_s("core.objective"),
        "noise.sample.calls": calls("noise.sample"),
        "noise.sample.self_s": self_s("noise.sample"),
        "hybrid.classify_jump.calls": calls("hybrid.classify_jump"),
        "hybrid.classify_jump.self_s": self_s("hybrid.classify_jump"),
        "hybrid.jump.calls": calls("hybrid.jump"),
        "hybrid.jump.self_s": self_s("hybrid.jump"),
        "hybrid.loop.calls": calls("hybrid.loop"),
        "hybrid.loop.self_s": self_s("hybrid.loop"),
        "hybrid.write_csv.self_s": self_s("hybrid.write_csv"),
        "hybrid.arc.rows": (outcome.arc_rows, "count"),
        "hybrid.accept_ratio": (ratio if closed_loop else 0.0, "ratio"),
        "rsp.run.calls": calls("rsp.run"),
        "rsp.run.self_s": self_s("rsp.run"),
        "rsp.log.records": (outcome.log_records, "count"),
        "rsp.accept_ratio": (0.0 if closed_loop else ratio, "ratio"),
        "cli.run_experiment.self_s": self_s("cli.run_experiment"),
        "cli.artifact_bytes": (outcome.artifact_bytes, "B"),
        "steps": (outcome.steps, "count"),
        **{
            f"cases.{case}": (outcome.cases.get(case, 0), "count")
            for case in ("D1", "D2", "D3", "D4", "D5")
        },
        "trace.overhead_s": (
            statistics.median(t for t, _, _ in reps) - untraced_p50,
            "s",
        ),
    }
    return metrics


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": list(os.getloadavg()),
    }


def benchmark(name: str, seed: int, seconds: float, trace: bool, steps=None) -> dict:
    """Set-up probes, then `measure`; returns the result object with its
    ``details``.  ``steps`` shrinks the workload for self-tests."""
    env_before = environment()
    probes = [] if trace else [probe_setup(name, seed) for _ in range(SETUP_PROBES)]
    workload = workloads.build(name, seed, steps)
    reference = reference_for(load_reference(), workload)
    OUT.mkdir(exist_ok=True)
    tmp_root = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT))
    try:
        result = measure(workload, seconds, trace, reference, tmp_root)
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    if not trace:
        result["metrics"] = {
            "setup_s": (statistics.median(scaled for _, scaled in probes), "s"),
            **result["metrics"],
        }
    result["metrics"] = {
        metric: {"value": value, "unit": unit}
        for metric, (value, unit) in result["metrics"].items()
    }
    result["details"].update(
        {
            "seed": seed,
            "setup_s": [scaled for _, scaled in probes],
            "setup_s.wall": [wall for wall, _ in probes],
            "environment": [env_before, environment()],
        }
    )
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be > 0")

    result = benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    details = json.dumps(result.pop("details"))
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        details + "\n"
    )
    print(details)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
