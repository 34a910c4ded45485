"""The ``xhc-pipeline`` and ``xhc-pipeline-array`` workloads.

Both run the same seeded point set inline (``workers=0``): the 30-point
golden anchor grid plus one point per (machine, component, collective)
stratum of the pipelined regime. Every pass uses a fresh ``Executor``,
so its in-memory result cache never answers a point, and the executor
builds a fresh ``Node`` per point. Each pass visits the points in its own
seeded order, so a burst of load from other tenants of the host lands on
different points in different passes. A point's time is the median over
passes of its host seconds over the host factor around it (README.md,
"Steadiness").
"""

from __future__ import annotations

import dataclasses
import gc
import random
import subprocess
import sys
import time
from statistics import median

from common import (HERE, child_env, host_factor, log, quantile,
                    self_peak_rss_mb)
from points import SYSTEMS, anchors, options, pipeline_points

#: Set-up launches per run; the reported ``setup_s`` is their median.
SETUP_REPEATS = 7
#: Every point is timed at least this often, whatever ``--seconds`` says.
MIN_PASSES = 3


def measure_setup(engine: str, repeats: int) -> "list[list[float]]":
    """Launch-until-ready of a fresh interpreter: imports plus topology
    build (``launcher.py setup``), ``repeats`` times; returns (host
    seconds, host factor around the launch) pairs."""
    samples = []
    for _ in range(repeats):
        before = host_factor()
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, f"{HERE}/launcher.py", "setup",
             "--engine", engine],
            stdout=subprocess.PIPE, env=child_env(), text=True)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup probe failed (exit {code})")
        samples.append([elapsed, (before + host_factor()) / 2])
    return samples


def _run_pass(points, order, tracer=None, factors=None) -> "tuple[list, list]":
    """Run every point once, in ``order``, through a fresh inline
    Executor; returns per-point wall times and latencies by point index.
    With ``factors``, each point's host factor goes there, also by point
    index: the mean of the factors measured right before and right after
    it, since the host can change speed during a point."""
    from repro.exec import Executor

    walls: list = [None] * len(points)
    lats: list = [None] * len(points)
    executor = Executor(workers=0)
    before = host_factor() if factors is not None else None
    if tracer is not None:
        tracer.enter("bench.pass")
    try:
        for i in order:
            req = points[i]
            if tracer is not None:
                tracer.enter("bench.point", req.key()[:16])
            t0 = time.perf_counter()
            result = executor.run(req)
            walls[i] = time.perf_counter() - t0
            if tracer is not None:
                tracer.exit()
            lats[i] = result.latency_s
            # Untimed: each point starts from a collected heap, so no
            # point pays for, or keeps resident, an earlier one's garbage.
            gc.collect()
            if factors is not None:
                after = host_factor()
                factors[i] = (before + after) / 2
                before = after
    finally:
        if tracer is not None:
            tracer.exit()
        executor.close()
    return walls, lats


def _hexes(lats) -> "list[str]":
    return [float.hex(x) if isinstance(x, float) else repr(x) for x in lats]


def _check_pass(points, wants, lats, first, failures) -> int:
    """Anchors must equal their golden float.hex; every other point must
    repeat the first pass's latency bit for bit. Returns the failures."""
    failed = 0
    for req, want, got, again in zip(points, wants, _hexes(lats), first):
        expect = want if want is not None else again
        if got != expect:
            failed += 1
            failures.append(f"{req.system}/{req.collective}/{req.size}/"
                            f"{req.nranks}/{req.component}: {got} != "
                            f"{expect}")
    return failed


def _event_reference(points, wants) -> "list[float]":
    """Event-engine latency of each array point: the event goldens for
    the anchor grid, one untimed event run for the seeded points."""
    from repro.exec import execute

    golden = {(r.system, r.collective, r.size): float.fromhex(h)
              for r, h in anchors("event")}
    out = []
    for req, want in zip(points, wants):
        if want is not None:
            out.append(golden[(req.system, req.collective, req.size)])
        else:
            ref = dataclasses.replace(req, options=options("event"))
            out.append(execute(ref).latency_s)
    return out


def _traced_setup(tracer, engine: str) -> None:
    """The set-up sequence in this process, traced: topology builds (the
    worker's topology memo is emptied first), nodes and MPI worlds."""
    from repro.exec import worker
    from repro.mpi import World
    from repro.node import Node

    worker._TOPO_MEMO.clear()
    tracer.enter("bench.setup")
    try:
        for system in SYSTEMS:
            World(Node(worker.get_topology(system),
                       options=options(engine)), 32)
    finally:
        tracer.exit()


def run(engine: str, seed: int, seconds: float, trace: bool,
        tracer_factory=None, tamper=None, tiny: bool = False) -> dict:
    """One benchmark invocation; see run.py for the result schema."""
    grid = anchors(engine)
    seeded = pipeline_points(seed, engine)
    if tiny:
        grid, seeded = grid[:3], seeded[:3]
    points = [r for r, _w in grid] + seeded
    wants = [w for _r, w in grid] + [None] * len(seeded)
    if tamper == "anchor-hex":
        wants[0] = float.hex(float.fromhex(wants[0]) * (1 + 2 ** -40))
    failures: list[str] = []
    reference = (_event_reference(points, wants) if engine == "array"
                 else None)
    setup: list[list[float]] = []
    setup_repeats = 0 if trace else 3 if tiny else SETUP_REPEATS
    rng = random.Random(f"order-{seed}")
    passes: list[list[float]] = []
    first: list[str] = []
    attempted = failed = 0
    per_layer = None

    def one_pass(tracer=None, factors=None):
        nonlocal first, attempted, failed
        order = list(range(len(points)))
        rng.shuffle(order)
        walls, lats = _run_pass(points, order, tracer, factors)
        first = first or _hexes(lats)
        failed += _check_pass(points, wants, lats, first, failures)
        attempted += len(points)
        return walls, lats

    factors: list[list[float]] = []
    named: dict = {}
    t_start = time.perf_counter()
    if not trace:
        # Passes continue while the next one is expected to end within
        # ``seconds``; the first MIN_PASSES always run.
        while (len(passes) < MIN_PASSES
               or (time.perf_counter() - t_start) * (len(passes) + 1)
               / len(passes) <= seconds):
            # Set-up launches are spread over the first passes, so that
            # their median is not taken in one burst of host load.
            want = -(-setup_repeats * (len(passes) + 1) // MIN_PASSES)
            setup += measure_setup(engine,
                                   min(want, setup_repeats) - len(setup))
            pass_factors: list = [None] * len(points)
            walls, lats = one_pass(factors=pass_factors)
            passes.append(walls)
            factors.append(pass_factors)
            log(f"  pass {len(passes)}: {sum(walls):.3f} s, host factor "
                f"{median(pass_factors):.3f}")
        # A point's time in reference seconds: each pass's wall time over
        # the host factor around it, median over passes.
        point = [median(w / f for w, f in zip(ws, fs))
                 for ws, fs in zip(zip(*passes), zip(*factors))]
        sweep = sum(point)
        named = {
            "setup_s": (median(w / f for w, f in setup), "s"),
            "sweep_wall_s": (sweep, "s"),
            "served_requests_per_s": (len(points) / sweep, "1/s"),
            "job_p50_s": (quantile(point, 0.5), "s"),
            "job_p90_s": (quantile(point, 0.9), "s"),
            "peak_rss_mb": (self_peak_rss_mb(), "MB"),
            "host_factor": (median(f for fs in factors for f in fs),
                            "ratio"),
            "setup_raw_s": (median(w for w, _f in setup), "s"),
            "sweep_wall_raw_s": (sum(median(ws) for ws in zip(*passes)),
                                 "s"),
        }
    else:
        # One untraced pass, then the wrappers go in (before the traced
        # pass builds its nodes) and one traced pass of the same points.
        walls, lats = one_pass()
        passes.append(walls)
        tracer = tracer_factory()
        tracer.start()
        _traced_setup(tracer, engine)
        traced, lats = one_pass(tracer)
        tracer.stop()
        per_layer = {"tracer": tracer, "untraced_wall_s": sum(walls),
                     "traced_wall_s": sum(traced)}

    if reference is not None:
        devs = [abs(a - e) / e for a, e in zip(lats, reference)]
        named["array_rel_dev_max"] = (max(devs), "ratio")
        named["array_rel_dev_p50"] = (quantile(devs, 0.5), "ratio")
    return {
        "named": named,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "per_layer": per_layer,
        "inputs": {
            "points": len(points), "anchor_points": len(grid),
            "seeded_points": [[r.system, r.collective, r.size, r.nranks,
                               r.component] for r in seeded],
            "engine": engine, "passes": len(passes),
        },
        "samples": {"setup_s_and_factor": setup,
                    "pass_point_wall_s": passes,
                    "pass_point_host_factor": factors},
    }
