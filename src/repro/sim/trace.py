"""Trace analysis: message accounting and resource utilization.

The engine records zero-cost :class:`~repro.sim.primitives.Trace` events
(collectives emit one ``"message"`` per logical transfer). This module
turns those records into the reports the paper's methodology needs:

* :func:`messages` / :func:`count_message_distances` — the Table II
  analysis, for any run;
* :func:`resource_report` — peak concurrency and bytes served per
  contention point (which link actually bottlenecked).

Per-copy activity and blocked time live elsewhere: ``observe="full"``
observer spans (:mod:`repro.obs`) and
:attr:`repro.sim.stats.RunStats.wait_breakdown`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING

from ..topology.distance import message_distance_label

if TYPE_CHECKING:  # pragma: no cover
    from ..node import Node
    from .engine import Engine


def messages(engine: "Engine") -> list[dict]:
    """All logical-message records of a run."""
    return [meta for _t, label, meta in engine.trace if label == "message"]


def count_message_distances(node: "Node",
                            unique_edges: bool = True) -> dict[str, int]:
    """Table II's classification: message counts per distance class.

    ``unique_edges`` counts each (src, dst) pair once (the paper counts
    tree edges, not per-segment traffic).
    """
    topo = node.topo
    counts: Counter = Counter({"intra-numa": 0, "inter-numa": 0,
                               "inter-socket": 0})
    seen: set = set()
    for meta in messages(node.engine):
        key = (meta["src_rank"], meta["dst_rank"])
        if unique_edges:
            if key in seen:
                continue
            seen.add(key)
        counts[message_distance_label(topo, meta["src"], meta["dst"])] += 1
    return dict(counts)


def resource_report(node: "Node") -> list[dict]:
    """Peak concurrency + bytes served for every contention resource."""
    out = []
    for res in node.resources.all_resources():
        if res.peak_active or res.bytes_served:
            out.append({
                "name": res.name,
                "bw": res.bw,
                "peak_active": res.peak_active,
                "bytes_served": res.bytes_served,
            })
    out.sort(key=lambda r: -r["bytes_served"])
    return out
