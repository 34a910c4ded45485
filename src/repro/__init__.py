"""Reproduction of "A framework for hierarchical single-copy MPI
collectives on multicore nodes" (Katevenis, Ploumidis, Marazakis —
IEEE CLUSTER 2022) on a deterministic multicore-node simulator.

Front-door API::

    from repro import Node, World, Xhc, get_system

    node = Node(get_system("epyc-2p"))
    world = World(node, 64)
    comm = world.communicator(Xhc())

Sweeps go through the shared executor::

    from repro import Executor, RunRequest, run_many

    reqs = [RunRequest("epyc-1p", "bcast", size, 32) for size in sizes]
    with Executor(workers=4, cache="results/cache") as ex:
        results = ex.run_many(reqs)

or are served by the long-lived sweep daemon (``python -m repro serve
start``; see docs/serving.md)::

    from repro.serve import ServeClient

    with ServeClient() as client:
        done = client.submit([r.payload() for r in reqs], tenant="alice")

``__all__`` below is the supported public surface; everything else may
move between minor versions (docs/api.md documents the deprecation
policy). See README.md for the architecture overview, DESIGN.md for the
experiment index, and EXPERIMENTS.md for paper-vs-measured results.
"""

from .options import RunOptions
from .node import Node
from .topology import get_system, build_symmetric
from .mpi import World
from .xhc import Xhc, XhcConfig
from .exec import (Executor, ResultCache, RunRequest, RunResult, run,
                   run_inline, run_many, using_executor)
from . import bench
from . import check
from . import exec  # noqa: A004 - module re-export  # pylint: disable=W0622
from . import obs
from . import serve
from . import tune

__version__ = "2.0.0"

__all__ = [
    # core objects
    "Node",
    "RunOptions",
    "World",
    "Xhc",
    "XhcConfig",
    "get_system",
    "build_symmetric",
    # the run API
    "Executor",
    "ResultCache",
    "RunRequest",
    "RunResult",
    "run",
    "run_inline",
    "run_many",
    "using_executor",
    # subsystem modules
    "bench",
    "check",
    "exec",
    "obs",
    "serve",
    "tune",
    "__version__",
]
