"""Child process of the set-up measurement in ``run.py``.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Imports the program, builds the workload's inputs, prints ``ready`` and exits.
"""
import sys

import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
