"""Array-mode engine unit tests: gating, determinism, vectorization.

Complements tests/test_engine_parity.py (which pins latencies and
event-vs-array deltas): this file covers the opt-in surface itself —
numpy gating, instrumentation incompatibility, run(until=...) refusal,
bit-stable determinism, the scalar/vector sweep equivalence that makes
``ARRAY_VEC_MIN`` a pure performance knob, and the engine's own
chunk-run lowering decision.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro import compat
from repro.bench.osu import run_collective
from repro.errors import ConfigError, SimulationError
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.syncobj import Flag
from repro.topology import get_system
from repro.xhc.component import Xhc

SRC = str(Path(__file__).resolve().parent.parent / "src")


def _bcast_latency(size=65536, **opt_kw):
    return run_collective(
        "bcast", "epyc-1p", 32, Xhc, size, warmup=1, iters=2,
        options=RunOptions(engine="array", **opt_kw))


def test_array_engine_requires_numpy(monkeypatch):
    """engine="array" without numpy is a ConfigError naming the perf
    extra, raised at Node construction — not an ImportError mid-run."""
    monkeypatch.setattr(compat, "_NUMPY", None)
    monkeypatch.setattr(compat, "_NUMPY_CHECKED", True)
    with pytest.raises(ConfigError, match=r"repro\[perf\]"):
        Node(get_system("epyc-1p"),
             options=RunOptions(engine="array", data_movement=False))


@pytest.mark.parametrize("kw", [
    {"observe": True},
    {"check": True},
    {"observe": "spans"},
])
def test_array_engine_rejects_instrumentation(kw):
    """Observation/checking walk per-event state the batched pricer
    never materializes; the combination is refused up front."""
    pytest.importorskip("numpy")
    with pytest.raises(ConfigError, match="instrumented|observe|check"):
        Node(get_system("epyc-1p"),
             options=RunOptions(engine="array", **kw))


def test_array_engine_rejects_run_until():
    pytest.importorskip("numpy")
    node = Node(get_system("epyc-1p"), options=RunOptions(engine="array"))
    with pytest.raises(SimulationError, match="until"):
        node.engine.run(until=1.0)


def test_unknown_engine_name():
    with pytest.raises(ConfigError, match="unknown engine"):
        RunOptions(engine="warp")


def test_array_engine_deterministic():
    """Two identical runs agree to the bit (float.hex), including all
    heap/dict iteration inside the batched pricer."""
    pytest.importorskip("numpy")
    a = _bcast_latency()
    b = _bcast_latency()
    assert float.hex(a) == float.hex(b)


def test_scalar_and_vector_sweeps_agree():
    """ARRAY_VEC_MIN only selects an implementation: forcing every run
    through the scalar sweep (threshold above any run length) or through
    the vector sweep (threshold 1) yields bit-identical latencies. The
    span endpoints and pricing expressions are deliberately written with
    identical FP operation order in both paths; this is the guard."""
    pytest.importorskip("numpy")
    from repro.sim.array_engine import ArrayEngine
    baseline = _bcast_latency()
    results = {}
    saved = ArrayEngine.ARRAY_VEC_MIN
    try:
        for label, threshold in (("scalar", 1 << 30), ("vector", 1)):
            ArrayEngine.ARRAY_VEC_MIN = threshold
            results[label] = _bcast_latency()
    finally:
        ArrayEngine.ARRAY_VEC_MIN = saved
    assert float.hex(results["scalar"]) == float.hex(baseline)
    assert float.hex(results["vector"]) == float.hex(baseline)


def test_array_engine_handles_small_and_large_sizes():
    """Smoke both regimes: tiny messages (no lowerable runs — pure
    event-equivalent walking) and large ones (ChunkRun sweeps park and
    resume processes across stalls) complete and return positive time."""
    pytest.importorskip("numpy")
    for size in (64, 512, 1 << 20):
        lat = _bcast_latency(size=size)
        assert lat > 0.0


class _Endpoint:
    """A single-copy endpoint stub that records what the engine maps."""

    def __init__(self, lowerable):
        self.lowerable = lowerable
        self.mapped = []

    def chunk_run_lowerable(self, src):
        return self.lowerable

    def map_peer(self, view):
        self.mapped.append(view)
        yield P.Syscall("xpmem_attach")

    def chunk_run_account(self, src, nchunks, nbytes):
        return 1e-9 * nchunks

    def copy_from_steps(self, src, dst):
        return (P.Copy(src=src, dst=dst),)

    def copy_from(self, src, dst):  # pragma: no cover - never declines
        yield P.Copy(src=src, dst=dst)


def test_array_engine_owns_the_lowering_decision():
    """A lowerable run maps its peer once and is yielded whole with the
    bulk per-chunk cost; otherwise it expands per chunk from chunk 0,
    re-waiting the chunk the caller already waited on; a run without an
    endpoint is yielded as it is."""
    pytest.importorskip("numpy")
    node = Node(get_system("epyc-1p"),
                options=RunOptions(engine="array", data_movement=False))
    sp = node.new_address_space(0, 0)
    src = sp.alloc("src", 32).whole()
    dst = sp.alloc("dst", 32).whole()
    avail = Flag("avail", owner_core=1)
    run = P.ChunkRun(start=0, stop=32, chunk=16,
                     waits=((avail, 0, 0, 32),), copy=(src, dst))
    engine = node.engine

    ep = _Endpoint(lowerable=True)
    got = list(engine.chunk_run(run, ep, gated=1))
    assert ep.mapped == [src]
    assert got == [P.Syscall("xpmem_attach"),
                   P.ChunkRun(start=0, stop=32, chunk=16,
                              waits=run.waits, copy=run.copy,
                              const_cost=2e-9)]

    ep = _Endpoint(lowerable=False)
    assert list(engine.chunk_run(run, ep, gated=1)) == [
        P.WaitFlag(avail, 16), P.Copy(src=src.sub(0, 16), dst=dst.sub(0, 16)),
        P.WaitFlag(avail, 32), P.Copy(src=src.sub(16, 16),
                                      dst=dst.sub(16, 16)),
    ]
    assert ep.mapped == []

    assert list(engine.chunk_run(run)) == [run]


def test_event_engine_never_imports_numpy():
    """The default engine must stay stdlib-pure: a fresh interpreter
    that builds a Node, runs a collective, and touches the result cache
    with engine="event" may not have numpy in sys.modules."""
    code = (
        "import sys\n"
        "from repro.bench.osu import run_collective\n"
        "from repro.xhc.component import Xhc\n"
        "from repro.options import RunOptions\n"
        "lat = run_collective('bcast', 'epyc-1p', 8, Xhc, 4096,\n"
        "    warmup=0, iters=1,\n"
        "    options=RunOptions(engine='event', data_movement=False))\n"
        "assert lat > 0.0\n"
        "bad = [m for m in sys.modules if m.split('.')[0] == 'numpy']\n"
        "assert not bad, f'event engine pulled in {bad}'\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_engine_name_in_cache_key():
    """Array results must never satisfy an event-engine cache lookup:
    the engine name is part of the request payload the cache keys on."""
    from repro.exec.request import RunRequest
    ev = RunRequest(system="epyc-1p", collective="bcast", size=4096,
                    nranks=8, options=RunOptions(engine="event",
                                                 data_movement=False))
    ar = RunRequest(system="epyc-1p", collective="bcast", size=4096,
                    nranks=8, options=RunOptions(engine="array",
                                                 data_movement=False))
    assert ev.payload() != ar.payload()
    assert "array" in str(ar.payload())
