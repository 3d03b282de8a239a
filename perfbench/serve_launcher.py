"""Traced server: ``python -B perfbench/serve_launcher.py SPANS_OUT serve ...``.

Installs the layer wrappers of :mod:`tracing`, then runs
``repro.cli.main`` with the remaining arguments.  When the server is
interrupted, its spans are written to ``SPANS_OUT`` as JSON.
"""

from __future__ import annotations

import json
import pathlib
import sys

import common

if __name__ == "__main__":
    common.bootstrap()
    import repro.cli
    import tracing

    recorder = tracing.Recorder()
    tracing.install(recorder)
    try:
        code = repro.cli.main(sys.argv[2:])
    finally:
        rows = [
            [s.layer, s.op, s.start, s.end, s.parent, s.counts] for s in recorder.spans
        ]
        pathlib.Path(sys.argv[1]).write_text(json.dumps(rows), encoding="utf-8")
    sys.exit(code)
