"""Set-up as a user pays it: a fresh interpreter imports ``qmeas.cli`` and
writes the workload's input files, then prints ``ready``.

Usage: ``python3 bench/setup_probe.py WORKLOAD SEED`` from an empty working
directory, with the checkout's ``src`` on ``PYTHONPATH``.
"""

import sys

import qmeas.cli  # noqa: F401  (the import is what is being timed)
import workloads

workloads.build(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
