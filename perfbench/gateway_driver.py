"""Run ``repro serve`` in this process, optionally with layer tracing.

Usage: ``python3 perfbench/gateway_driver.py [--trace-out FILE] -- ARGS``
where ``ARGS`` are the ``repro`` command line (``serve MODEL --port 0``).
With ``--trace-out`` the layer wrappers of :mod:`tracing` are installed
before the server starts, and the recorded spans are written to ``FILE``
after the server has drained (on SIGTERM).
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("program", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    program = args.program
    if program and program[0] == "--":
        program = program[1:]
    from repro.cli import main as repro_main

    if args.trace_out is None:
        return repro_main(program)
    import tracing

    recorder = tracing.Recorder()
    tracing.install_gateway(recorder)
    try:
        return repro_main(program)
    finally:
        recorder.dump(args.trace_out)


if __name__ == "__main__":
    raise SystemExit(main())
