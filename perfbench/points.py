"""Seeded workload inputs. The program only ever sees the ``RunRequest``s
built here; the same seed always gives the same requests."""

from __future__ import annotations

import glob
import json
import os
import random

from repro.bench.components import component_names
from repro.exec import RunRequest
from repro.options import RunOptions

GOLDEN_DIR = os.path.join("tests", "golden")

#: (system, ranks) pairs of the pipeline space; Epyc-1P has 32 cores.
PIPELINE_MACHINES = (("epyc-1p", 32), ("epyc-2p", 32), ("epyc-2p", 64),
                     ("arm-n1", 32), ("arm-n1", 64))
PIPELINE_COMPONENTS = ("xhc-tree", "xhc-flat")
PIPELINE_KINDS = ("bcast", "allreduce")
#: Size bands of the pipelined regime, as [low, high) byte ranges. Each
#: stratum gets one band, in a fixed rotation, so every seed prices the
#: same mix of large and small messages; the seed picks the size within
#: the band. No band holds a power of two: crossing one changes a point's
#: cost in a step (1 MiB + 32 KiB needs 8 MB more than 1 MiB - 32 KiB),
#: and powers of two are the golden anchors' sizes.
PIPELINE_BANDS = ((65 << 10, 72 << 10), (112 << 10, 128 << 10),
                  (224 << 10, 256 << 10), (448 << 10, 512 << 10),
                  (896 << 10, 1 << 20))

SYSTEMS = ("epyc-1p", "epyc-2p", "arm-n1")
KINDS = ("bcast", "allreduce")
#: Rank counts of the served spaces. Cheap on purpose: the serve
#: workload is about protocol, queue and store costs, and 64-rank
#: baseline allreduces cost seconds each (``tuned`` at 1 MiB on 160
#: ranks takes ~49 s), which would turn it into a simulation benchmark.
SERVE_RANKS = (4, 8, 16)
#: Sizes of a stored sweep (one warm job replays one sweep).
SWEEP_SIZES = (4, 16, 64, 256, 1024, 4096, 16384, 65536)
STORE_ITERS = (1, 2, 3)
JOB_REQUESTS = len(SWEEP_SIZES)
JOBS_PER_TENANT = 8


def options(engine: str) -> RunOptions:
    return RunOptions(data_movement=False, engine=engine)


def anchors(engine: str) -> "list[tuple[RunRequest, str]]":
    """The golden anchor grid: (request, expected float.hex) pairs."""
    prefix = "latency_array_" if engine == "array" else "latency_"
    out = []
    for path in sorted(glob.glob(os.path.join(GOLDEN_DIR, prefix + "*"))):
        if engine == "event" and os.path.basename(path).startswith(
                "latency_array_"):
            continue
        with open(path) as fh:
            fix = json.load(fh)
        for kind, by_size in sorted(fix["latencies"].items()):
            for size, want in sorted(by_size.items(),
                                     key=lambda kv: int(kv[0])):
                out.append((RunRequest(
                    fix["system"], kind, int(size), fix["nranks"],
                    component=fix["component"], warmup=fix["warmup"],
                    iters=fix["iters"], modify=fix["modify"],
                    mapping=fix["mapping"], options=options(engine)),
                    want))
    return out


def pipeline_points(seed: int, engine: str) -> "list[RunRequest]":
    """One point per (machine, component, collective) stratum."""
    rng = random.Random(f"pipeline-{seed}")
    out = []
    strata = [(m, c, k) for m in PIPELINE_MACHINES
              for c in PIPELINE_COMPONENTS for k in PIPELINE_KINDS]
    for i, ((system, nranks), component, kind) in enumerate(strata):
        low, high = PIPELINE_BANDS[i % len(PIPELINE_BANDS)]
        size = rng.randrange(low, high, 1024)
        out.append(RunRequest(system, kind, size, nranks,
                              component=component, warmup=1, iters=2,
                              options=options(engine)))
    return out


def _served_spaces():
    """(system, collective, component) triples valid for serving: every
    registered component, the baselines included."""
    for system in SYSTEMS:
        for kind in KINDS:
            for component in component_names(kind, system) + ["xhc-tuned"]:
                yield system, kind, component


def stored_sweeps() -> "list[list[RunRequest]]":
    """The store's population, independent of the seed: one sweep of
    ``SWEEP_SIZES`` per (system, collective, component, ranks, iters)."""
    return [[RunRequest(system, kind, size, nranks, component=component,
                        warmup=1, iters=iters, options=options("event"))
             for size in SWEEP_SIZES]
            for system, kind, component in _served_spaces()
            for nranks in SERVE_RANKS for iters in STORE_ITERS]


class ColdPoints:
    """Fresh cheap points (4 B - 64 KiB) that no store entry and no
    earlier cold job has. Points cycle through every (system, collective,
    component, ranks) stratum in a seeded order, so every seed asks for
    the same mix of work; the seed draws each point's size, and a size
    that collides is drawn again."""

    def __init__(self, seed: int, used: "set[str]") -> None:
        self.rng = random.Random(f"cold-{seed}")
        self.strata = [(space, nranks) for space in _served_spaces()
                       for nranks in SERVE_RANKS]
        self.todo: list = []
        self.used = used

    def point(self) -> RunRequest:
        if not self.todo:
            self.todo = list(self.strata)
            self.rng.shuffle(self.todo)
        (system, kind, component), nranks = self.todo.pop()
        while True:
            size = int(4 * 2 ** (self.rng.random() * 14))
            req = RunRequest(system, kind, size, nranks,
                             component=component, warmup=1, iters=2,
                             options=options("event"))
            if req.key() not in self.used:
                self.used.add(req.key())
                return req

    def job(self) -> "list[RunRequest]":
        return [self.point() for _ in range(JOB_REQUESTS)]


#: Which of a tenant's eight jobs per round are cold. Fixed, so that
#: every seed has the same traffic mix and the tenants' cold jobs do
#: not line up.
COLD_SLOTS = {"tenant-a": (1, 5), "tenant-b": (3, 7)}


def serve_rounds(seed: int, sweeps: "list[list[RunRequest]]",
                 used: "set[str]"):
    """Endless generator of rounds: ``{tenant: [(kind, requests)]}``.

    Per tenant and round, two of eight jobs are cold (fresh points, at
    :data:`COLD_SLOTS`), the rest warm replays of stored sweeps, drawn
    without replacement until the population is used up, so warm reads
    go to disk, not to the daemon's in-memory entries.
    """
    rng = random.Random(f"serve-{seed}")
    cold = ColdPoints(seed, used)
    order: list[int] = []
    while True:
        rnd = {}
        for tenant, cold_slots in COLD_SLOTS.items():
            jobs = []
            for slot in range(JOBS_PER_TENANT):
                if slot in cold_slots:
                    jobs.append(("cold", cold.job()))
                    continue
                if not order:
                    order = list(range(len(sweeps)))
                    rng.shuffle(order)
                jobs.append(("warm", sweeps[order.pop()]))
            rnd[tenant] = jobs
        yield rnd
