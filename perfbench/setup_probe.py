"""One timed set-up, in a fresh process: import numpy and ldplab, then
write a workload's generated inputs.  Prints the elapsed seconds.

    python3 perfbench/setup_probe.py <workload> <seed> <directory>
"""

import time

START = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main():
    workload, seed, directory = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    import run
    run.pin_threads()
    run.use_source_tree()
    import workloads
    workloads.build(workload, seed, directory)
    print(time.perf_counter() - START)


if __name__ == "__main__":
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    main()
