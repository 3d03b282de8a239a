"""Cold-start probe: ``python -B perfbench/probe.py WORKLOAD SCALE CACHE_DIR``.

Runs a sweep workload's set-up in a fresh interpreter, then prints
``ready <time.perf_counter()>``; the monotonic clock is shared across
processes, so the parent measures spawn-to-ready from it.
"""

from __future__ import annotations

import pathlib
import sys
import time

import common

if __name__ == "__main__":
    common.bootstrap()
    import sweeps

    sweeps.setup(sys.argv[1], sys.argv[2], pathlib.Path(sys.argv[3]))
    print(f"ready {time.perf_counter()!r}", flush=True)
