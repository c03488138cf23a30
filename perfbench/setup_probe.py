"""One set-up sample: a fresh interpreter imports the library and generates
a workload's inputs, then prints the seconds since the parent stamped
``START_NS`` on the shared monotonic clock just before starting it.

    python3 perfbench/setup_probe.py WORKLOAD SEED START_NS
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workload, seed, start_ns = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    workloads.WORKLOADS[workload].make_items(seed)
    print((time.monotonic_ns() - start_ns) / 1e9)
