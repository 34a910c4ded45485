"""SMSC endpoint: mechanism behaviours and the Fig. 3 cost relationships."""

import numpy as np
import pytest

from repro.errors import ShmemError
from repro.node import Node
from repro.shmem.smsc import SmscConfig, SmscEndpoint

from conftest import small_topo


def setup(mechanism="xpmem", use_regcache=True, size=256 * 1024):
    node = Node(small_topo())
    owner = node.new_address_space(0, 0)
    peer = node.new_address_space(1, 2)
    src = owner.alloc("src", size)
    dst = peer.alloc("dst", size)
    src.fill(9)
    ep = SmscEndpoint(node, 1, SmscConfig(mechanism=mechanism,
                                          use_regcache=use_regcache))
    return node, ep, src, dst


def drive(node, gen, core=2):
    node.engine.spawn(gen, core=core)
    t0 = node.engine.now
    node.engine.run()
    return node.engine.now - t0


def expose(node, buf):
    node.engine.spawn(node.xpmem.expose(buf), core=buf.owner_core)
    node.engine.run()


def test_bad_mechanism_rejected():
    with pytest.raises(ShmemError):
        SmscConfig(mechanism="rdma")


def test_disabled_smsc_refuses():
    node, ep, src, dst = setup(mechanism=None)
    assert not ep.enabled
    with pytest.raises(ShmemError):
        next(iter(ep.copy_from(src.whole(), dst.whole())))


def test_xpmem_copy_moves_data_and_caches_mapping():
    node, ep, src, dst = setup()
    expose(node, src)
    t_first = drive(node, ep.copy_from(src.whole(), dst.whole()))
    assert np.all(dst.data == 9)
    assert ep.regcache.misses == 1
    t_second = drive(node, ep.copy_from(src.whole(), dst.whole()))
    assert ep.regcache.hits == 1
    # First transfer paid attach + page faults; later ones don't.
    assert t_first > t_second


def test_xpmem_without_regcache_repays_attach_every_time():
    node, ep, src, dst = setup(use_regcache=False)
    expose(node, src)
    t1 = drive(node, ep.copy_from(src.whole(), dst.whole()))
    t2 = drive(node, ep.copy_from(src.whole(), dst.whole()))
    # Cost stays high: attach + faults + detach on every operation (the
    # dashed-outline series of Fig. 3). Only the cold-cache part of the
    # first transfer is saved on repeats.
    assert t2 > t1 * 0.6
    node_c, ep_c, src_c, dst_c = setup(use_regcache=True)
    expose(node_c, src_c)
    drive(node_c, ep_c.copy_from(src_c.whole(), dst_c.whole()))
    t_cached = drive(node_c, ep_c.copy_from(src_c.whole(), dst_c.whole()))
    assert t2 > t_cached * 2


def test_mechanism_steady_state_ordering():
    """Fig. 3: xpmem < knem < cma in steady state."""
    results = {}
    for mech in ("xpmem", "knem", "cma"):
        node, ep, src, dst = setup(mechanism=mech)
        expose(node, src)
        drive(node, ep.copy_from(src.whole(), dst.whole()))  # warm
        results[mech] = drive(node, ep.copy_from(src.whole(), dst.whole()))
    assert results["xpmem"] < results["knem"] < results["cma"]


def test_kernel_mechanisms_cannot_reduce():
    node, ep, src, dst = setup(mechanism="cma")
    assert not ep.can_reduce
    with pytest.raises(ShmemError):
        next(iter(ep.reduce_from([src.whole()], dst.whole())))


def test_xpmem_direct_reduce():
    node, ep, src, dst = setup()
    owner2 = node.new_address_space(2, 4)
    src2 = owner2.alloc("src2", src.size)
    expose(node, src)
    expose(node, src2)
    src.view().as_dtype(np.float32)[:] = 2.0
    src2.view().as_dtype(np.float32)[:] = 3.0
    drive(node, ep.reduce_from([src.whole(), src2.whole()], dst.whole(),
                               op=np.add, dtype=np.float32))
    assert np.all(dst.view().as_dtype(np.float32) == 5.0)


def test_local_and_shared_buffers_skip_mapping():
    node, ep, src, dst = setup()
    # dst belongs to the endpoint's own rank: no attach needed.
    shared = node.new_address_space(3, 6).alloc("seg", 1024, shared=True)
    t = drive(node, ep.copy_from(shared.view(0, 256), dst.view(0, 256)))
    assert ep.regcache.misses == 0
