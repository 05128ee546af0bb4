"""Set up one workload in a fresh interpreter and report when it is ready.

Usage: ``python3 perfbench/setup_probe.py <workload> <seed> <workdir>``.
The parent times from process start to the ``ready`` line, which is the
benchmark's ``setup_s``: interpreter start, ``import netstrength`` and
building the workload's inputs, exactly what precedes the first timed op.
"""

import sys
from pathlib import Path

import workloads

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](seed, workdir)
    print("ready", flush=True)
