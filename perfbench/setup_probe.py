"""Time a fresh interpreter's path to the first simulated event.

Run as ``python3 perfbench/setup_probe.py SRC_DIR SEED`` in a new
process: it imports ``repro`` from ``SRC_DIR``, builds the first
:class:`~repro.hybrid.system.HybridSystem` (paper configuration,
queue-length routing) and dispatches one event, with a reference gauge
running beside it (see :mod:`reference`).  It prints one JSON line with
the two raw CPU durations and the gauge's mean chunk time.
"""

import json
import sys
import time

import reference


def main(src: str, seed: int) -> None:
    sys.path.insert(0, src)
    clock = time.thread_time
    with reference.Gauge() as gauge:
        began = clock()
        from repro.core import STRATEGIES
        from repro.hybrid.config import paper_config
        from repro.hybrid.system import HybridSystem
        imported = clock()
        config = paper_config(total_rate=18.0, seed=seed)
        system = HybridSystem(config, STRATEGIES["queue-length"](config))
        system.env.step()
        built = clock()
    print(json.dumps({"import_s": imported - began,
                      "build_s": built - imported,
                      "chunk_s": gauge.chunk_s}))


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
