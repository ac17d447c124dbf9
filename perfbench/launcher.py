"""Run the ``graphint`` CLI in a subprocess, optionally with tracing installed.

Usage::

    python3 perfbench/launcher.py [--trace-out FILE] -- <graphint arguments>

With ``--trace-out`` the benchmark's wrappers (:mod:`spans`) are installed
before the CLI entry point runs, and every record is written to FILE when
the command returns (``serve`` and ``worker`` return on SIGINT).
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    trace_out = None
    if argv and argv[0] == "--trace-out":
        trace_out, argv = argv[1], argv[2:]
    if argv and argv[0] == "--":
        argv = argv[1:]
    from repro.viz.cli import main as cli_main

    if trace_out is None:
        return cli_main(argv)
    import spans

    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        return cli_main(argv)
    finally:
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
