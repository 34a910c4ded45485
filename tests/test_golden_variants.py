"""Golden latencies for XHC variants the 30-point goldens do not reach.

``tests/golden/latency_*.json`` pin ``xhc-tree`` with the single flag
layout, the registration cache on and XPMEM. The pipelined fan-out,
reducer and monitor loops also run under the Fig. 10 flag layouts, with
the registration cache off (every chunk takes the slow attach path),
with CMA, with per-level chunk sizes, for a reduce rooted away from
rank 0, for sizes that are not a multiple of the chunk, and as
multi-chunk CICO streams. This fixture pins one latency per such point
on **both** engines, as ``float.hex``, so a refactor of those loops must
keep every simulated time bit-identical.

Configurations that rightly fail (a per-level chunk tuple longer than the
hierarchy the topology builds) are recorded as the expected exception
name instead of a latency.

Regenerate with ``PYTHONPATH=src python tests/test_golden_variants.py``
— a deliberate act, like the other goldens: it means simulated semantics
changed, which also requires a SIM_VERSION bump.
"""

import json
from pathlib import Path

import pytest

from repro.bench.osu import run_collective
from repro.errors import ConfigError
from repro.options import RunOptions
from repro.shmem.smsc import SmscConfig
from repro.xhc import Xhc
from repro.xhc.config import XhcConfig

# Named outside the ``latency_*`` pattern: the benchmark's anchor grid
# (perfbench/points.py) reads every file that matches it.
FIXTURE = Path(__file__).parent / "golden" / "variant_latencies.json"

SYSTEMS = ("epyc-1p", "epyc-2p", "arm-n1")
ENGINES = ("event", "array")

# 16 ranks round-robin over NUMA nodes: three hierarchy levels on epyc-2p
# and arm-n1 (two on epyc-1p), and two-member NUMA groups, so a leader
# with a single child occurs under the multi-flag layouts.
NRANKS = 16
MAPPING = "numa"
WARMUP = 1
ITERS = 2

CONFIGS = {
    "tree": {},
    "flat": {"hierarchy": "flat"},
    "multi-shared": {"flag_layout": "multi-shared"},
    "multi-separate": {"hierarchy": "flat", "flag_layout": "multi-separate"},
    # Three levels: a ConfigError on epyc-1p, whose hierarchy has two.
    "per-level": {"chunk_size": (8192, 32768, 65536)},
    # Chunks below the CICO threshold: multi-chunk CICO streams.
    "cico-chunked": {"chunk_size": 256},
}

SMSC = {
    "xpmem": SmscConfig(),
    "xpmem-norc": SmscConfig(use_regcache=False),
    "cma": SmscConfig(mechanism="cma"),
}

# (collective, root); CMA cannot reduce from peer buffers, so it only
# runs the broadcast.
COLLS = (("bcast", 0), ("allreduce", 0), ("reduce", 1))


def grid() -> list[tuple[str, str, str, str, int, int]]:
    """Every (system, config, smsc, collective, root, size) point."""
    points = []
    for system in SYSTEMS:
        for cfg in CONFIGS:
            for smsc in SMSC:
                for kind, root in COLLS:
                    if smsc == "cma" and kind != "bcast":
                        continue
                    if cfg == "cico-chunked":
                        sizes = (1000,)
                    else:
                        # 100000 B is not a multiple of any chunk size.
                        sizes = (100000,)
                        if cfg == "tree" and (smsc == "xpmem" or (
                                smsc == "xpmem-norc" and kind == "allreduce")):
                            sizes = (100000, 1 << 20)
                    for size in sizes:
                        points.append((system, cfg, smsc, kind, root, size))
    return points


def key(system, cfg, smsc, kind, root, size) -> str:
    return f"{system}/{cfg}/{smsc}/{kind}/root{root}/{size}"


def measure(system, cfg, smsc, kind, root, size, engine) -> str:
    """The point's latency as ``float.hex``, or the expected exception's
    class name."""
    try:
        latency = run_collective(
            kind, system, NRANKS, lambda: Xhc(XhcConfig(**CONFIGS[cfg])),
            size, warmup=WARMUP, iters=ITERS, mapping=MAPPING, root=root,
            smsc=SMSC[smsc], options=RunOptions(engine=engine))
    except ConfigError:
        return "ConfigError"
    return float.hex(latency)


def _fixture() -> dict:
    with open(FIXTURE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def test_fixture_covers_the_grid():
    fix = _fixture()
    assert (fix["nranks"], fix["mapping"], fix["warmup"], fix["iters"]) == (
        NRANKS, MAPPING, WARMUP, ITERS)
    assert set(fix["points"]) == {key(*p) for p in grid()}
    for entry in fix["points"].values():
        assert set(entry) == set(ENGINES)


@pytest.mark.parametrize("cfg", sorted(CONFIGS))
@pytest.mark.parametrize("system", SYSTEMS)
def test_variant_latencies(system, cfg):
    expected = _fixture()["points"]
    for point in grid():
        if point[:2] != (system, cfg):
            continue
        want = expected[key(*point)]
        for engine in ENGINES:
            got = measure(*point, engine)
            assert got == want[engine], (
                f"{key(*point)} [{engine}]: simulated latency drifted "
                f"({got} != golden {want[engine]})")


def _record() -> None:
    points = {}
    for point in grid():
        points[key(*point)] = {e: measure(*point, e) for e in ENGINES}
    fix = {"nranks": NRANKS, "mapping": MAPPING, "warmup": WARMUP,
           "iters": ITERS, "points": points}
    with open(FIXTURE, "w", encoding="utf-8") as fh:
        json.dump(fix, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(points)} points to {FIXTURE}")


if __name__ == "__main__":
    _record()
