"""Property/fuzz tests across subsystem boundaries."""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.mpi import FLOAT, SUM, World
from repro.mpi.colls import Tuned
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.xhc import Xhc

from conftest import small_topo

FUZZ = settings(max_examples=15, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


@FUZZ
@given(sizes=st.lists(st.integers(1, 120_000), min_size=1, max_size=6),
       data=st.data())
def test_p2p_random_message_streams(sizes, data):
    """Random sizes across the eager/rendezvous boundary, multiple tags."""
    node = Node(small_topo())
    world = World(node, 2)
    comm = world.communicator(Tuned())
    tags = [data.draw(st.integers(0, 2)) for _ in sizes]
    received = []

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        for i, (size, tag) in enumerate(zip(sizes, tags)):
            buf = ctx.alloc(f"b{i}", size)
            if me == 0:
                buf.data[:] = (i * 37 + 11) % 251
                yield from comm_.send(ctx, buf.whole(), 1, tag)
            else:
                yield from comm_.recv(ctx, buf.whole(), 0, tag)
                received.append(int(buf.data[0]))
    comm.run(program)
    assert received == [(i * 37 + 11) % 251 for i in range(len(sizes))]


@FUZZ
@given(
    writes=st.lists(
        st.tuples(st.integers(0, 15),            # writer core
                  st.integers(1, 1 << 18)),      # prefix extent
        min_size=1, max_size=12),
)
def test_cache_directory_consistency(writes):
    """After arbitrary read/write traffic, the holders directory agrees
    with per-cache contents and totals never exceed capacity."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    sp = node.new_address_space(0, 0)
    bufs = [sp.alloc(f"b{i}", 1 << 18) for i in range(3)]
    caches = node.caches
    for i, (core, upto) in enumerate(writes):
        buf = bufs[i % 3]
        if i % 2:
            caches.record_write(core, buf, upto)
        else:
            caches.record_read(core, buf, upto)
    for buf in bufs:
        for level in caches.holders_of(buf):
            assert level.high_water(buf) > 0
    for level in caches._all_levels():
        assert 0 <= level.used
        for buf in bufs:
            if level.high_water(buf) > 0:
                assert level in caches.holders_of(buf)


@FUZZ
@given(nranks=st.integers(2, 16),
       size=st.integers(4, 50_000).map(lambda v: v - v % 4),
       chunk=st.sampled_from([512, 4096, 16384]),
       threshold=st.sampled_from([0, 256, 8192]),
       ring=st.sampled_from([2, 4]))
def test_xhc_config_space_correctness(nranks, size, chunk, threshold, ring):
    """Any point in XHC's configuration space gives correct allreduce."""
    size = max(size, 4)
    node = Node(small_topo())
    world = World(node, nranks)
    comm = world.communicator(Xhc(chunk_size=chunk,
                                  cico_threshold=threshold,
                                  cico_ring=ring))

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        s = ctx.alloc("s", size)
        r = ctx.alloc("r", size)
        s.view().as_dtype(np.float32)[:] = me + 1
        yield from comm_.allreduce(ctx, s.whole(), r.whole(), SUM, FLOAT)
        assert np.all(r.view().as_dtype(np.float32)
                      == sum(range(1, nranks + 1)))
    comm.run(program)


@FUZZ
@given(delays=st.lists(st.integers(0, 200), min_size=4, max_size=4))
def test_barrier_under_arbitrary_skew(delays):
    """No arrival pattern lets a rank escape a barrier early."""
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    world = World(node, 4)
    comm = world.communicator(Xhc())
    after = {}

    def program(comm_, ctx):
        me = comm_.rank_of(ctx)
        yield P.Compute(delays[me] * 1e-6 + 1e-9)
        yield from comm_.barrier(ctx)
        after[me] = ctx.now
    comm.run(program)
    slowest_arrival = max(delays) * 1e-6
    assert min(after.values()) >= slowest_arrival
