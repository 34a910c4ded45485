"""Per-layer metrics, the self-time account and the Perfetto document of
a traced run."""

from __future__ import annotations

from common import quantile

#: Span-name prefix -> layer, for the self-time account.
LAYERS = (
    ("topology.", "setup"), ("node.init", "setup"),
    ("mpi.world.", "setup"),
    ("exec.store.", "exec.store"), ("exec.", "exec"),
    ("sim.array_engine.", "sim.array_engine"),
    ("sim.resources.", "sim.array_engine"),
    ("sim.engine.", "sim.engine"), ("node.", "node"),
    ("memory.cache.", "memory.cache"), ("xhc.", "xhc"),
    ("mpi.colls.", "mpi.colls"), ("bench.", "benchmark"),
    ("serve.client.", "serve client"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def merge(dumps: "list[dict]") -> "tuple[dict, dict]":
    """Sum the per-name totals and counters of several tracer dumps."""
    totals: dict[str, dict] = {}
    counters: dict[str, int] = {}
    for dump in dumps:
        for name, agg in dump["totals"].items():
            out = totals.setdefault(name, {"calls": 0, "total_s": 0.0,
                                           "self_s": 0.0})
            for key in out:
                out[key] += agg[key]
        for name, value in dump["counters"].items():
            counters[name] = counters.get(name, 0) + value
    return totals, counters


def layer_metrics(dumps: "list[dict]", overhead: float,
                  serve: "dict | None", wanted: "list[dict]") -> dict:
    """``{name: (value, unit)}`` for every per-layer metric in ``wanted``
    (BENCHMARK.json's ``per_layer``). ``<span>.calls`` is a span's call
    count and ``<span>.s`` its summed self time; the rest are derived
    below. A layer the workload never enters reads 0."""
    totals, counters = merge(dumps)
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return totals.get(name, zero)

    def ratio(prefix):
        return _ratio(counters.get(prefix + ".true", 0),
                      counters.get(prefix + ".calls", 0))

    hits = counters.get("exec.cache.get.hits", 0)
    events = (counters.get("sim.engine.run.events", 0)
              + counters.get("sim.array_engine.run.events", 0))
    snap = serve["metrics"] if serve else {}

    def p50(metric):
        return float((snap.get(metric) or {}).get("p50") or 0.0)

    derived = {
        "exec.cache.hit_ratio": _ratio(
            hits, hits + counters.get("exec.cache.get.misses", 0)),
        "sim.engine.events": events,
        "sim.engine.host_s_per_event": _ratio(
            span("sim.engine.run")["total_s"]
            + span("sim.array_engine.run")["total_s"], events),
        "shmem.smsc.lowerable_ratio": ratio("shmem.smsc.lowerable"),
        "shmem.smsc.copy_from.calls": counters.get(
            "shmem.smsc.copy_from.calls", 0),
        "shmem.regcache.hit_ratio": ratio("shmem.regcache.lookup"),
        "trace.overhead_ratio": overhead,
        "serve.queue_wait_s.p50": p50("serve.job.queue_wait_seconds"),
        "serve.chunk_execute_s.p50": p50("serve.chunk.execute_seconds"),
        "serve.job_s.p50": p50("serve.job.latency_seconds"),
        "serve.wire_s.p50": quantile(serve["wire"], 0.5) if serve else 0.0,
        "serve.worker_busy_ratio": serve["busy_ratio"] if serve else 0.0,
    }
    out = {}
    for metric in wanted:
        name = metric["name"]
        if name in derived:
            value = derived[name]
        else:
            base, _, field = name.rpartition(".")
            if field not in ("calls", "s"):
                raise KeyError(f"no rule computes per-layer metric {name}")
            value = span(base)["calls" if field == "calls" else "self_s"]
        out[name] = (value, metric["unit"])
    return out


def account(dump: dict) -> "tuple[list, dict]":
    """Self time by layer for one traced process, plus the untraced
    remainder; the rows add up to the traced wall time. Threads that
    record spans run side by side (the two tenants; the daemon's event
    loop and its executor thread), so the base is thread-seconds: the
    traced wall times the number of such threads."""
    by_layer: dict[str, float] = {}
    for name, agg in dump["totals"].items():
        layer = next((lay for prefix, lay in LAYERS
                      if name.startswith(prefix)), name)
        by_layer[layer] = by_layer.get(layer, 0.0) + agg["self_s"]
    self_sum = sum(by_layer.values())
    base = dump["wall_s"] * max(1, dump["span_threads"])
    remainder = base - dump["root_s"]
    rows = sorted(by_layer.items(), key=lambda kv: -kv[1])
    rows.append(("(untraced remainder)", remainder))
    check = {"wall_s": dump["wall_s"], "threads": dump["span_threads"],
             "base_s": base, "self_sum_s": self_sum,
             "root_s": dump["root_s"], "remainder_s": remainder,
             "closes": (abs(self_sum - dump["root_s"])
                        <= 1e-6 + 1e-9 * base
                        and remainder >= -1e-6)}
    return rows, check


def perfetto(dumps: "list[tuple[str, dict]]") -> dict:
    """One Trace Event document: a process per traced program, a thread
    per traced thread, the request id and parent on every span."""
    from repro.obs.export import spans_to_chrome_trace
    from repro.obs.spans import SpanRecord

    spans, threads, processes = [], {}, {}
    for pid, (label, dump) in enumerate(dumps, start=1):
        processes[pid] = label
        base = pid << 40        # span ids are unique per process only
        for th in dump["threads"]:
            track = pid * 1000 + th["tid"]
            threads[track] = (pid, th["name"])
            for sid, name, start, end, parent, rid in th["spans"]:
                parent = base + parent if parent else None
                spans.append(SpanRecord(
                    base + sid, name, name.split(".")[0], track, start,
                    end, parent, {"rid": rid, "parent": parent or 0}))
    return spans_to_chrome_trace(
        spans, thread_names=threads, process_names=processes,
        other_data={"time_base": "seconds since each process's tracer "
                                 "was created"})
