"""Span tracer for the benchmark's traced runs.

The benchmark measures the program from outside: :func:`instrument`
replaces functions of ``repro.topology``, ``repro.exec`` (executor,
worker, result cache and its sharded store), ``repro.node``,
``repro.memory.cache``, ``repro.sim``, ``repro.shmem``, ``repro.mpi`` and
``repro.xhc`` with thin wrappers that open a span on entry and close it
on return. Nothing under ``src/`` changes. It must run before any
``Node`` is built, because ``Engine`` binds ``pricer.plan_copy_span``
when it is constructed.

Every span has a name, start, end, parent and a request id shared by the
spans of one request. Spans are kept per thread on a stack, so a span's
self time (its duration minus the time its children cover) is exact.
Totals per name are always kept; individual spans are retained in memory
for the coarse layers and for the first ``FINE_KEEP`` calls of each fine
one, and written once at the end as a Perfetto document.
"""

from __future__ import annotations

import functools
import threading
import time

#: Fine-grained spans (per priced transfer, per generator resume) are
#: counted in full but only this many per name and thread are retained
#: for the Perfetto document; a traced event pass makes millions.
FINE_KEEP = 64

#: Span names kept individually in the Perfetto document.
COARSE = frozenset((
    "topology.get_system", "node.init", "mpi.world.init",
    "exec.run_many", "exec.worker.execute", "exec.cache.save",
    "exec.store.read", "exec.store.write", "exec.store.save_ledger",
    "exec.store.scan_digests", "exec.store.scan",
    "sim.engine.run", "sim.array_engine.run",
    "bench.pass", "bench.point", "bench.setup", "serve.client.submit",
))


class _Thread:
    __slots__ = ("stack", "aggs", "spans", "kept", "tid", "name", "root_s")

    def __init__(self, tid: int, name: str) -> None:
        self.stack: list = []        # [name, start, child_s, span_id, rid]
        self.aggs: dict = {}         # name -> [calls, total_s, self_s]
        self.spans: list = []        # (id, name, start, end, parent, rid)
        self.kept: dict = {}         # fine name -> spans retained
        self.tid = tid
        self.name = name
        self.root_s = 0.0            # wall covered by top-level spans


class Tracer:
    """Per-thread span stacks, per-name totals and counters."""

    def __init__(self) -> None:
        self.enabled = False
        self.t0 = time.perf_counter()
        self._local = threading.local()
        self._threads: list[_Thread] = []
        self._lock = threading.Lock()
        self._ids = iter(range(1, 1 << 62))
        self.counters: dict[str, int] = {}
        self.wall_s = 0.0
        self._on_since: float | None = None

    # -- switching ----------------------------------------------------------

    def start(self) -> None:
        self.enabled = True
        self._on_since = time.perf_counter()

    def stop(self) -> None:
        if self._on_since is not None:
            self.wall_s += time.perf_counter() - self._on_since
            self._on_since = None
        self.enabled = False

    # -- recording ----------------------------------------------------------

    def _thread(self) -> _Thread:
        th = getattr(self._local, "th", None)
        if th is None:
            with self._lock:
                cur = threading.current_thread()
                th = _Thread(len(self._threads) + 1, cur.name)
                self._threads.append(th)
            self._local.th = th
        return th

    def enter(self, name: str, rid: str | None = None) -> None:
        th = self._thread()
        stack = th.stack
        if rid is None:
            rid = stack[-1][4] if stack else ""
        stack.append([name, time.perf_counter(), 0.0, next(self._ids), rid])

    def exit(self) -> None:
        end = time.perf_counter()
        th = self._local.th
        stack = th.stack
        name, start, child, sid, rid = stack.pop()
        dur = end - start
        agg = th.aggs.get(name)
        if agg is None:
            agg = th.aggs[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[2] += dur
        else:
            th.root_s += dur
        if name in COARSE:
            th.spans.append((sid, name, start, end,
                             parent[3] if parent else None, rid))
        else:
            kept = th.kept.get(name, 0)
            if kept < FINE_KEEP:
                th.kept[name] = kept + 1
                th.spans.append((sid, name, start, end,
                                 parent[3] if parent else None, rid))

    def count(self, name: str, n: int = 1) -> None:
        # Counters are bumped from the simulating thread only; the
        # daemon's event-loop thread runs no instrumented simulation.
        self.counters[name] = self.counters.get(name, 0) + n

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """``{name: {"calls", "total_s", "self_s"}}`` over all threads."""
        out: dict[str, dict] = {}
        for th in self._threads:
            for name, (calls, total, self_s) in th.aggs.items():
                agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0})
                agg["calls"] += calls
                agg["total_s"] += total
                agg["self_s"] += self_s
        return out

    def root_s(self) -> float:
        """Wall time covered by top-level spans (summed over threads)."""
        return sum(th.root_s for th in self._threads)

    def dump(self) -> dict:
        """JSON-safe snapshot: totals, counters, wall and retained spans."""
        self.stop()
        return {
            "wall_s": self.wall_s,
            "root_s": self.root_s(),
            "span_threads": sum(1 for th in self._threads if th.aggs),
            "totals": self.totals(),
            "counters": dict(self.counters),
            "threads": [
                {"tid": th.tid, "name": th.name,
                 "spans": [[sid, name, start - self.t0, end - self.t0,
                            parent, rid]
                           for sid, name, start, end, parent, rid
                           in th.spans]}
                for th in self._threads],
        }


def _span(tracer: Tracer, name: str, fn, rid_of=None):
    """Wrap a plain function in a span (passthrough when disabled)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        tracer.enter(name, rid_of(*args, **kwargs) if rid_of else None)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.exit()
    return wrapper


def _resumes(tracer: Tracer, name: str, gen):
    """Delegate to ``gen``, timing every resume as one ``name`` span."""
    value = None
    while True:
        if tracer.enabled:
            tracer.enter(name)
            try:
                item = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                tracer.exit()
        else:
            try:
                item = gen.send(value)
            except StopIteration as stop:
                return stop.value
        value = yield item


def _generator_span(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return _resumes(tracer, name, fn(*args, **kwargs))
    return wrapper


def _counted(tracer: Tracer, name: str, fn, outcome=None):
    """Count calls (and, with ``outcome``, true/false results)."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.enabled:
            tracer.count(name + ".calls")
            if outcome is not None and outcome(result):
                tracer.count(name + ".true")
        return result
    return wrapper


_COLLECTIVES = ("bcast", "allreduce", "reduce", "barrier", "gather",
                "scatter", "allgather", "alltoall", "reduce_scatter_block")


def instrument(tracer: Tracer) -> None:
    """Install the wrappers; once per process, before any node is
    built."""
    from repro import topology
    from repro.exec import cache as exec_cache
    from repro.exec import executor as exec_executor
    from repro.exec import store as exec_store
    from repro.exec import worker as exec_worker
    from repro.memory.cache import CacheSystem
    from repro.mpi import colls, world
    from repro.node import Node
    from repro.shmem.regcache import RegistrationCache
    from repro.shmem.smsc import SmscEndpoint
    from repro.sim.array_engine import ArrayEngine
    from repro.sim.engine import Engine
    from repro.sim.resources import Resource
    from repro.xhc import Xhc

    def patch(owner, attr, make):
        setattr(owner, attr, make(getattr(owner, attr)))

    def span(name, rid_of=None):
        return lambda fn: _span(tracer, name, fn, rid_of)

    # setup: topology build, node construction, MPI world construction
    patch(topology, "get_system", span("topology.get_system"))
    patch(Node, "__init__", span("node.init"))
    patch(world.World, "__init__", span("mpi.world.init"))

    # exec: executor, worker, result cache and its sharded store
    exec_key = exec_cache.cache_key

    def rid_request(request, *a, **k):
        return request.key()[:16]

    def rid_payload(_self, payload, *a, **k):
        return exec_key(payload)[:16]

    def rid_digest(_self, _version, digest, *a, **k):
        return digest[:16]

    patch(exec_executor.Executor, "run_many", span("exec.run_many"))
    execute = _span(tracer, "exec.worker.execute", exec_worker.execute,
                    rid_request)
    exec_worker.execute = execute
    exec_executor.execute = execute
    patch(exec_cache.ResultCache, "save", span("exec.cache.save"))
    patch(exec_store.ShardedStore, "read",
          span("exec.store.read", rid_digest))
    patch(exec_store.ShardedStore, "write",
          span("exec.store.write", rid_digest))
    patch(exec_store.ShardedStore, "save_ledger",
          span("exec.store.save_ledger"))
    patch(exec_store.ShardedStore, "_scan_digests",
          span("exec.store.scan_digests"))
    patch(exec_store.ShardedStore, "scan", span("exec.store.scan"))

    get = exec_cache.ResultCache.get

    @functools.wraps(get)
    def cache_get(self, payload):
        if not tracer.enabled:
            return get(self, payload)
        tracer.enter("exec.cache.get", rid_payload(self, payload))
        try:
            value = get(self, payload)
        finally:
            tracer.exit()
        tracer.count("exec.cache.get.hits" if value is not None
                     else "exec.cache.get.misses")
        return value
    exec_cache.ResultCache.get = cache_get

    # sim: the two engines' run loops, plus events processed
    for cls, name in ((Engine, "sim.engine.run"),
                      (ArrayEngine, "sim.array_engine.run")):
        run = span(name)(cls.run)

        def counted_run(self, *a, _run=run, _name=name, **k):
            before = self.events_processed
            try:
                return _run(self, *a, **k)
            finally:
                if tracer.enabled:
                    tracer.count(_name + ".events",
                                 self.events_processed - before)
        cls.run = functools.wraps(cls.run)(counted_run)
    patch(Resource, "arr_sample", span("sim.resources.arr_sample"))

    # node: transfer pricing
    for attr in ("plan_copy_span", "plan_reduce", "line_read", "atomic_cost",
                 "arr_line_read"):
        patch(Node, attr, span("node." + attr))

    # memory.cache: the cache-state model
    for attr in ("record_read", "record_write"):
        patch(CacheSystem, attr, span("memory.cache." + attr))

    # shmem: single-copy pulls, lowerability decisions, registration cache
    patch(SmscEndpoint, "copy_from",
          lambda fn: _counted(tracer, "shmem.smsc.copy_from", fn))
    patch(SmscEndpoint, "copy_from_steps",
          lambda fn: _counted(tracer, "shmem.smsc.copy_from", fn))
    for attr in ("chunk_run_lowerable", "reduce_run_lowerable"):
        patch(SmscEndpoint, attr,
              lambda fn: _counted(tracer, "shmem.smsc.lowerable", fn,
                                  outcome=bool))
    patch(RegistrationCache, "lookup",
          lambda fn: _counted(tracer, "shmem.regcache.lookup", fn,
                              outcome=bool))

    # component schedule code: every resume of a component generator
    baselines = (colls.SmColl, colls.Smhc, colls.Tuned, colls.TunedXhc,
                 colls.Ucc, colls.Xbrc)
    for cls, name in [(Xhc, "xhc.resume")] + [
            (c, "mpi.colls.resume") for c in baselines]:
        for attr in _COLLECTIVES:
            if attr in vars(cls):
                patch(cls, attr,
                      lambda fn, _n=name: _generator_span(tracer, _n, fn))
