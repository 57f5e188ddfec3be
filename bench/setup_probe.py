"""Set-up time of one workload in a fresh process.

    python3 bench/setup_probe.py <root> <workload> <seed> <workdir>

Times importing finslergeo, loading the workload's inputs (already written
to <workdir>) and the first ``hh_curvature`` call, and prints the seconds.
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> None:
    root, name, seed, workdir = sys.argv[1:]
    sys.path.insert(0, str(Path(root) / "src"))
    import workloads

    wl = workloads.WORKLOADS[name](Path(root), int(seed), Path(workdir))
    wl.load()
    print(time.perf_counter() - T0)


if __name__ == "__main__":
    main()
