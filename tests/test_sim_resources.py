"""Bandwidth resources and contention accounting."""

import pytest

from repro.errors import SimulationError
from repro.memory.model import model_for
from repro.node import Node
from repro.options import RunOptions
from repro.sim import primitives as P
from repro.sim.resources import Resource, ResourcePool
from repro.topology import get_system

from conftest import small_topo


def test_acquire_release_and_peak():
    res = Resource("r", 1e9)
    res.acquire(); res.acquire()
    assert res.active == 2 and res.peak_active == 2
    res.release()
    assert res.active == 1
    assert res.effective_bw() == pytest.approx(1e9)
    res.release()
    with pytest.raises(SimulationError):
        res.release()


def test_zero_bandwidth_rejected():
    with pytest.raises(SimulationError):
        Resource("bad", 0)


def test_pool_structure_epyc():
    topo = get_system("epyc-2p")
    pool = ResourcePool(topo, model_for(topo))
    assert len(pool.dram) == 8
    assert len(pool.llc_port) == 16
    assert len(pool.fabric) == 2
    assert not pool.slc
    assert pool.xlink.bw > 0


def test_pool_structure_arm():
    topo = get_system("arm-n1")
    pool = ResourcePool(topo, model_for(topo))
    assert not pool.llc_port
    assert len(pool.slc) == 2
    assert len(pool.dram) == 8


def test_contention_slows_concurrent_readers():
    """Many readers of one source take longer per-reader than one reader."""
    def read_time(n_readers):
        node = Node(small_topo(), options=RunOptions(data_movement=False))
        src_space = node.new_address_space(0, 0)
        src = src_space.alloc("src", 1 << 20)
        times = {}
        def prog(r):
            sp = node.new_address_space(r, r)
            dst = sp.alloc("dst", 1 << 20)
            t0 = node.engine.now
            yield P.Copy(src=src.whole(), dst=dst.whole())
            times[r] = node.engine.now - t0
        for r in range(1, n_readers + 1):
            node.engine.spawn(prog(r), core=r)
        node.engine.run()
        return max(times.values())
    assert read_time(8) > read_time(1) * 1.5


def test_bytes_served_accounting():
    node = Node(small_topo(), options=RunOptions(data_movement=False))
    sp0 = node.new_address_space(0, 0)
    sp1 = node.new_address_space(1, 4)  # a different NUMA node
    src = sp0.alloc("src", 1 << 16)
    dst = sp1.alloc("dst", 1 << 16)
    def prog():
        yield P.Copy(src=src.whole(), dst=dst.whole())
    node.engine.spawn(prog(), core=4)
    node.engine.run()
    assert node.resources.dram[0].bytes_served == 1 << 16


def test_reset_stats():
    topo = small_topo()
    pool = ResourcePool(topo, model_for(topo))
    pool.dram[0].acquire()
    pool.dram[0].bytes_served = 10
    pool.reset_stats()
    assert pool.dram[0].peak_active == 0
    assert pool.dram[0].bytes_served == 0
