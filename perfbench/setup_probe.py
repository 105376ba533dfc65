"""Set-up probe: a fresh interpreter runs a workload's unit up to its
first ``Simulation.run`` (or ``run_service``) call, prints the
``time.monotonic()`` reading at that call, and stops.

``run.py`` starts this script several times and reports the median of
(reading - the parent's ``time.monotonic()`` just before the start) as
``setup_s``: interpreter start, imports, and building the machine,
fabric and first ``Simulation``.  The unit runs with ``jobs=1`` so the
first simulation is built in this process.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


class Reached(Exception):
    """Raised at the first simulated run to end the probe."""


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    from workloads import WORKLOADS

    from repro.service import driver
    from repro.simmpi.simulation import Simulation
    from tracing import Patcher

    def stop(*_args, **_kwargs):
        raise Reached

    patcher = Patcher()
    patcher.set(Simulation, "run", stop)
    patcher.everywhere(driver.run_service, stop)
    try:
        WORKLOADS[name].run(seed, jobs=1)
    except Reached:
        print(repr(time.monotonic()), flush=True)
        return 0
    print(f"{name}: no simulation started", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
