"""One set-up of a workload's unit in a fresh interpreter, for ``setup_s``.

    python3 perfbench/setup_probe.py WORKLOAD SEED DATA_DIR

Prints the seconds from before the import of qprune to the creation of the
unit's first optimizer: the import, dataset parsing and network build.
"""

import sys
import time
from pathlib import Path


def main() -> None:
    started = time.perf_counter()
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qprune.cli  # noqa: F401  (imports numpy and every qprune module)

    import hooks
    import units
    from workloads import WORKLOADS

    name, seed, data_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    samples = hooks.Samples()
    units.Bench(WORKLOADS[name], seed, data_dir, scratch=None).probe_setup(samples, started)
    print(samples.setup_s[0])


if __name__ == "__main__":
    main()
