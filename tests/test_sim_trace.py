"""Trace analysis utilities."""

from repro.mpi import World
from repro.node import Node
from repro.options import RunOptions
from repro.sim.stats import collect_stats
from repro.sim.trace import (count_message_distances, messages,
                             resource_report)
from repro.xhc import Xhc

from conftest import small_topo


def run_bcast(nranks=8, size=4096, observe=None):
    node = Node(small_topo(),
                options=RunOptions(data_movement=False, observe=observe))
    world = World(node, nranks)
    comm = world.communicator(Xhc())

    def program(comm_, ctx):
        buf = ctx.alloc("b", size)
        yield from comm_.bcast(ctx, buf.whole(), 0)
    comm.run(program)
    return node


def test_messages_and_matrix():
    node = run_bcast()
    msgs = messages(node.engine)
    assert len(msgs) == 7          # one pull edge per non-root rank
    edges = {(m["src_rank"], m["dst_rank"]) for m in msgs}
    assert len(edges) == 7
    assert all(src != dst for src, dst in edges)


def test_count_message_distances_matches_hierarchy():
    node = run_bcast()
    counts = count_message_distances(node)
    # mini topo (2 sockets x 2 numa x 4): L0 = 4 numa groups of 2 ranks?
    # With 8 ranks on cores 0-7 (socket 0): 2 numa groups of 4, socket
    # level collapses -> edges: 6 intra-numa + 1 inter-numa.
    assert sum(counts.values()) == 7
    assert counts["inter-socket"] == 0
    assert counts["inter-numa"] == 1
    assert counts["intra-numa"] == 6


def test_bytes_by_distance():
    node = run_bcast(size=1000, observe="spans")
    by = {m.name: m.value for m in node.obs.metrics
          if m.name.startswith("message.bytes.")}
    assert sum(by.values()) == 7 * 1000


def test_wait_report():
    node = run_bcast(size=100_000)
    stats = collect_stats(node)
    assert stats.wait_breakdown, "ranks must have waited on something"
    # Fan-out progress waits dominate a broadcast.
    assert any(t.startswith("flag xhc") for t in stats.wait_breakdown)
    assert "blocked time by wait family" in stats.render()


def test_wait_time_accounted_per_process():
    node = run_bcast(size=100_000)
    leaves = [p for p in node.engine.processes if p.name.startswith("rank")
              and p.name != "rank0"]
    assert any(p.wait_time > 0 for p in leaves)
    for p in leaves:
        assert abs(sum(p.wait_breakdown.values()) - p.wait_time) < 1e-12


def test_resource_report_sorted():
    node = run_bcast(size=200_000)
    report = resource_report(node)
    assert report, "some resource must have served bytes"
    served = [r["bytes_served"] for r in report]
    assert served == sorted(served, reverse=True)
    assert all(r["peak_active"] >= 0 for r in report)


def test_observe_full_records_copies_as_spans_only():
    # Per-copy records are observer spans; engine.trace carries only the
    # Trace annotations, on any observe mode.
    node = run_bcast(size=100_000, observe=True)
    assert any(s.cat == "copy" for s in node.obs.spans)
    assert {label for _t, label, _m in node.engine.trace} == {"message"}
