"""Set-up probe: import logcrit, build one workload's inputs, print the time.

    python3 bench/probe.py <workload> <seed> <workdir>

Prints time.monotonic() at the moment the first operation could begin.
run.py starts this process several times and subtracts its own
time.monotonic() reading from just before each start.
"""

import sys
import time
from pathlib import Path


def main():
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import workloads

    workdir.mkdir(parents=True)
    workloads.WORKLOADS[name].build(seed, str(workdir))
    print(time.monotonic())


if __name__ == "__main__":
    main()
