"""Child-process entry points of the benchmark.

``setup --engine E``
    The simulation workloads' set-up: import the program, build the three
    modelled topologies and one node and MPI world on each, then print
    ``ready``. The parent times launch until that line.

``daemon [--trace-out PATH] -- <serve start arguments>``
    Run ``repro serve start`` in this process. With ``--trace-out`` the
    benchmark's tracer is installed first (before any node is built) and
    its spans are written to PATH when the daemon exits.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))


def setup(engine: str) -> None:
    from repro.exec.worker import get_topology
    from repro.mpi import World
    from repro.node import Node
    from repro.options import RunOptions

    from points import SYSTEMS

    for system in SYSTEMS:
        node = Node(get_topology(system),
                    options=RunOptions(data_movement=False, engine=engine))
        World(node, 32)
    print("ready", flush=True)


def daemon(trace_out: str | None, serve_args: "list[str]") -> int:
    tracer = None
    if trace_out:
        from tracer import Tracer, instrument
        tracer = Tracer()
        instrument(tracer)
        tracer.start()
    from repro.cli import main
    try:
        return main(["serve", "start", *serve_args])
    finally:
        if tracer is not None:
            tmp = trace_out + ".tmp"
            with open(tmp, "w") as fh:
                json.dump(tracer.dump(), fh)
            os.replace(tmp, trace_out)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="cmd", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--engine", choices=("event", "array"), required=True)
    p = sub.add_parser("daemon")
    p.add_argument("--trace-out", default=None)
    p.add_argument("serve_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.cmd == "setup":
        setup(args.engine)
        return 0
    serve_args = args.serve_args
    if serve_args and serve_args[0] == "--":
        serve_args = serve_args[1:]
    return daemon(args.trace_out, serve_args)


if __name__ == "__main__":
    sys.exit(main())
