"""Layer spans recorded from outside the program.

`Tracer` replaces public callables of ``directseek`` with timing wrappers,
keeps one span per call in memory, and puts the original objects back.  The
program itself is not changed.  Self time of a span is its duration minus
the durations of its direct child spans.
"""
from __future__ import annotations

import csv
import time
from collections import defaultdict

from workloads import cli, core, hybrid, noise_mod, plants, rsp

# (owner, attribute, span name).  Module attributes are looked up at call time
# by the program (``hybrid.run_closed_loop`` calls ``classify_jump`` and
# ``jump`` through its module globals, ``cli.run_experiment`` calls
# ``hybrid.run_closed_loop``), so replacing them there is enough.
TARGETS = [
    *(
        (cls, attr, f"plants.{attr}")
        for cls in dict.fromkeys(plants.PLANT_BUILDERS.values())
        for attr in ("steer", "integrate")
    ),
    (core.ObjectiveFunction, "__call__", "core.objective"),
    (noise_mod.NoiseModel, "sample", "noise.sample"),
    (hybrid, "classify_jump", "hybrid.classify_jump"),
    (hybrid, "jump", "hybrid.jump"),
    (hybrid, "run_closed_loop", "hybrid.loop"),
    (hybrid.HybridArc, "write_csv", "hybrid.write_csv"),
    (rsp, "run", "rsp.run"),
    (cli, "run_experiment", "cli.run_experiment"),
]

SPAN_NAMES = list(dict.fromkeys(name for _, _, name in TARGETS))

# The originals, captured when this module is first imported, before any
# wrapper can be installed.
ORIGINALS = {(owner, attr): owner.__dict__[attr] for owner, attr, _ in TARGETS}


def patched() -> list[str]:
    """Targets that are not their original object (empty when none is wrapped)."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for (owner, attr), original in ORIGINALS.items()
        if owner.__dict__[attr] is not original
    ]


class Tracer:
    """Context manager that installs the wrappers and removes them on exit.

    ``spans`` holds ``(name, start, end, parent, repetition)`` tuples, with
    ``parent`` the index of the enclosing span or -1.  ``segments`` counts
    the schedule segments that ``steer`` returned.
    """

    def __init__(self) -> None:
        self.spans: list = []
        self.repetition = 0
        self.segments = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        is_steer = name == "plants.steer"

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.repetition)
            if is_steer:
                self.segments += len(result[0])
            return result

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, name in TARGETS:
            setattr(owner, attr, self._wrap(name, ORIGINALS[(owner, attr)]))
        return self

    def __exit__(self, *exc) -> None:
        for (owner, attr), original in ORIGINALS.items():
            setattr(owner, attr, original)

    def layers(self, repetition: int) -> dict[str, dict[str, float]]:
        """Calls and self time per span name for one repetition."""
        child_time: dict[int, float] = defaultdict(float)
        mine = [
            (i, span)
            for i, span in enumerate(self.spans)
            if span is not None and span[4] == repetition
        ]
        for _, (_, start, end, parent, _) in mine:
            if parent >= 0:
                child_time[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _, _) in mine:
            out[name]["calls"] += 1
            out[name]["self_s"] += end - start - child_time[i]
        return out

    def write(self, path) -> None:
        """Write every span as CSV, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fp:
            writer = csv.writer(fp, lineterminator="\n")
            writer.writerow(["repetition", "name", "start_s", "end_s", "parent"])
            for name, start, end, parent, rep in self.spans:
                writer.writerow(
                    [rep, name, f"{start - origin:.9f}", f"{end - origin:.9f}", parent]
                )
