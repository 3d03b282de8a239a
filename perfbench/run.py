"""The repository benchmark.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sweep-report --seed 1 --seconds 30 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``sweep-report``   -- report-level exhibits fig3 + fig9, inline trials;
* ``sweep-marginal`` -- fast-mode exhibits table1 + fig8 + fig10 at paper
  scale on a two-worker pool;
* ``serve-mixed``    -- three live ``ldprecover serve`` processes under bulk
  ingest, then open-loop reads while a collector keeps posting.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with every layer wrapped (see
``tracing.py``) and prints the per-layer metrics.  Every run also checks
the program's outputs; the last stdout line is the JSON result, and the
exit code is non-zero when a check fails.  ``--scale tiny`` is the smoke
test's size.
"""

from __future__ import annotations

import argparse
import signal
import sys
from typing import Any

import common

WORKLOADS = ("sweep-report", "sweep-marginal", "serve-mixed")


def _terminate(signum: int, frame: Any) -> None:
    # Unwind once through the ``finally`` blocks that stop the servers and
    # remove the work directory; a second signal must not cut that short.
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(128 + signum)


def main(argv: list[str]) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    # A shell starts background jobs with SIGINT ignored, and servers would
    # inherit that; they are stopped with SIGINT, so restore its handler.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = parser.parse_args(argv)
    common.bootstrap()
    if args.workload == "serve-mixed":
        import serve_mixed as workload
    else:
        import sweeps as workload
    return workload.run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
