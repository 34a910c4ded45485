"""Differential tests of the per-copy pricing fast paths.

``Node._cache_source_span`` (cache-source selection) and
``CacheSystem.record_read`` / ``record_write`` (cache-state bookkeeping)
run on every simulated copy, so they are written for speed: inlined
coverage arithmetic, a per-core distance memo, an early return on the
reader's own cache, and inlined invalidate/insert/evict bodies. Each of
those is only admissible if it decides exactly what the plain
formulation decides. These tests keep the plain formulation here as the
reference and compare the two under seeded random traffic on every
modeled system (seeded ``random.Random``, not hypothesis, so the test
also runs where only pytest is installed).
"""

import random

import pytest

from repro.memory.address_space import AddressSpace
from repro.memory.cache import CacheKind, CacheSystem
from repro.memory.model import model_for
from repro.node import Node
from repro.options import RunOptions
from repro.topology import Distance, get_system

SYSTEMS = ("epyc-1p", "epyc-2p", "arm-n1")
KIB = 1024


def reference_cache_source_span(self, core, buf, off, length):
    """The selection as it was first written: ``hit_bytes`` per holder,
    a ``home_cores`` scan and a ``distance()`` lookup per visit."""
    private = self.caches.private[core]
    best = None
    best_dist = None
    best_hit = 0
    hit = private.hit_bytes(buf, off, length)
    if hit > 0:
        best, best_dist, best_hit = private, Distance.SELF, hit
    for level in self.caches.holders_of(buf):
        if level is private:
            continue
        hit = level.hit_bytes(buf, off, length)
        if hit <= 0:
            continue
        if core in level.home_cores:
            dist = (Distance.SELF if level.kind is CacheKind.PRIVATE
                    else Distance.CACHE_LOCAL)
        else:
            dist = self.distance(core, level.home_cores[0])
        better = (
            best is None
            or hit > best_hit
            or (hit == best_hit and dist < best_dist)
        )
        # Prefer the nearest source unless a farther one covers more.
        if best is not None and dist > best_dist and hit <= best_hit:
            better = False
        if better:
            best, best_dist, best_hit = level, dist, hit
            if best_hit >= length and best_dist <= Distance.CACHE_LOCAL:
                # A full-coverage local source cannot be beaten.
                break
    return best, best_hit


def reference_record_read(caches, core, buf, upto):
    caches.private[core].insert(buf, upto, caches)
    shared = caches.shared_cache_of(core)
    if shared is not None:
        shared.insert(buf, upto, caches)


def reference_record_write(caches, core, buf, upto):
    writer_private = caches.private[core]
    writer_shared = caches.shared_cache_of(core)
    stale = [level for level in caches.holders_of(buf)
             if level is not writer_private and level is not writer_shared]
    for level in stale:
        level.invalidate(buf, caches)
    writer_private.insert(buf, upto, caches)
    if writer_shared is not None:
        writer_shared.insert(buf, upto, caches)


def _node(system):
    return Node(get_system(system), options=RunOptions(data_movement=False))


def _buffers(sizes, home_numa=0):
    space = AddressSpace(0, 0, home_numa, data_movement=False)
    return [space.alloc(f"b{i}", size) for i, size in enumerate(sizes)]


def _core_pool(topo):
    """Cores that share CCXs, NUMA nodes and sockets with each other, so
    ties, local sources and far sources all occur."""
    n = len(topo.cores)
    return sorted({0, 1, 2, 3, 4, 5, 8, n // 4, n // 4 + 1, n // 2,
                   n // 2 + 1, n - 1})


def _selection_agrees(node, core, buf, off, length):
    got = node._cache_source_span(core, buf, off, length)
    want = reference_cache_source_span(node, core, buf, off, length)
    assert got[0] is want[0] and got[1] == want[1], (
        f"core {core} span [{off}, {off + length}) of {buf.name}: "
        f"fast {got} != reference {want}")
    return got


# -- source selection: the named cases ----------------------------------------

@pytest.mark.parametrize("system", SYSTEMS)
def test_own_private_and_shared_both_full(system):
    node = _node(system)
    buf, = _buffers([64 * KIB])
    node.caches.record_read(0, buf, buf.size)
    shared = node.caches.shared_cache_of(0)
    assert shared.hit_bytes(buf, 0, buf.size) == buf.size
    level, hit = _selection_agrees(node, 0, buf, 0, buf.size)
    assert level is node.caches.private[0] and hit == buf.size


def test_same_ccx_private_ties_with_group_cache():
    """Core 1 reads what core 0 pulled: core 0's private cache and the
    CCX's group cache both cover the span at CACHE_LOCAL, so holder
    insertion order decides — the private cache was inserted first."""
    node = _node("epyc-1p")
    buf, = _buffers([64 * KIB])
    node.caches.record_read(0, buf, buf.size)
    group = node.caches.shared_cache_of(1)
    assert group is node.caches.shared_cache_of(0)
    assert node.distance(1, 0) is Distance.CACHE_LOCAL
    level, hit = _selection_agrees(node, 1, buf, 0, buf.size)
    assert level is node.caches.private[0] and hit == buf.size
    # With core 0's copy gone the group cache is the only local source.
    node.caches.private[0].invalidate(buf, node.caches)
    level, _ = _selection_agrees(node, 1, buf, 0, buf.size)
    assert level is group


@pytest.mark.parametrize("system", SYSTEMS)
def test_partial_coverage(system):
    node = _node(system)
    buf, = _buffers([256 * KIB])
    far = len(node.topo.cores) - 1
    node.caches.record_write(far, buf, 96 * KIB)
    level, hit = _selection_agrees(node, 0, buf, 64 * KIB, 64 * KIB)
    assert level is not None and hit == 32 * KIB
    # The reader's own partial copy still loses to a fuller remote one.
    node.caches.record_read(0, buf, 80 * KIB)
    node.caches.record_write(far, buf, 128 * KIB)
    level, hit = _selection_agrees(node, 0, buf, 64 * KIB, 64 * KIB)
    assert hit == 64 * KIB


@pytest.mark.parametrize("system", SYSTEMS)
def test_no_holders(system):
    node = _node(system)
    buf, other = _buffers([64 * KIB, 64 * KIB])
    assert _selection_agrees(node, 0, buf, 0, buf.size) == (None, 0)
    node.caches.record_read(0, other, other.size)
    assert _selection_agrees(node, 0, buf, 0, buf.size) == (None, 0)
    # A span past every holder's high water, and an empty span.
    node.caches.record_read(0, buf, 16 * KIB)
    assert _selection_agrees(node, 0, buf, 32 * KIB, 16 * KIB) == (None, 0)
    assert _selection_agrees(node, 0, buf, 0, 0) == (None, 0)


# -- source selection: seeded random traffic ----------------------------------

@pytest.mark.parametrize("seed", (1, 2))
@pytest.mark.parametrize("system", SYSTEMS)
def test_selection_matches_reference_under_random_traffic(system, seed):
    rng = random.Random(f"{system}/{seed}")
    node = _node(system)
    caches = node.caches
    pool = _core_pool(node.topo)
    l2 = caches.private[0].capacity
    numas = len({node._numa_of[c] for c in pool})
    bufs = _buffers([16 * KIB, 64 * KIB, 256 * KIB, l2, 2 * l2],
                    home_numa=rng.randrange(numas))
    grain = 16 * KIB
    seen = {"none": 0, "partial": 0, "full": 0}
    for _ in range(400):
        buf = rng.choice(bufs)
        core = rng.choice(pool)
        upto = rng.randrange(1, buf.size // grain + 1) * grain
        if rng.random() < 0.3:
            caches.record_write(core, buf, upto)
        else:
            caches.record_read(core, buf, upto)
        for _ in range(6):
            buf = rng.choice(bufs)
            off = rng.randrange(0, buf.size // grain) * grain
            length = rng.randrange(0, (buf.size - off) // grain + 1) * grain
            if rng.random() < 0.2:  # unaligned spans
                off += rng.randrange(grain)
                length = rng.randrange(buf.size - off + 1)
            level, hit = _selection_agrees(node, rng.choice(pool), buf,
                                           off, length)
            if level is None:
                seen["none"] += 1
            elif hit < length:
                seen["partial"] += 1
            else:
                seen["full"] += 1
    assert all(seen.values()), seen


# -- cache-state bookkeeping: inlined record_* vs insert/invalidate -----------

def _state(caches):
    """Every piece of cache state whose order or value is semantic: each
    level's LRU items in order and its total, and the holders directory
    in insertion order (levels named by position, not by global id)."""
    levels = list(caches._all_levels())
    pos = {level.id: i for i, level in enumerate(levels)}
    per_level = [(list(level._hw.items()), level._total) for level in levels]
    directory = [(buf_id, [pos[level_id] for level_id in holders])
                 for buf_id, holders in caches._holders.items()]
    return per_level, directory


@pytest.mark.parametrize("system", SYSTEMS)
def test_record_write_and_read_match_reference(system, monkeypatch):
    topo = get_system(system)
    model = model_for(topo)
    fast = CacheSystem(topo, model)
    ref = CacheSystem(topo, model)
    rng = random.Random(system)
    pool = _core_pool(topo)
    l2 = model.l2_size
    shared_cap = fast.shared_cache_of(0).capacity
    # Many small buffers plus a few near or past each capacity, so both
    # one-victim and multi-victim evictions happen at every level.
    sizes = ([rng.randrange(1, 64) * 4 * KIB for _ in range(12)]
             + [l2 // 2, l2, 3 * l2, shared_cap // 2, shared_cap + l2])
    bufs = _buffers(sizes)
    fallback = []
    evict = type(fast.private[0])._evict

    def counting_evict(level, system_, keep):
        if system_ is fast:
            fallback.append(level.id)
        return evict(level, system_, keep)
    monkeypatch.setattr(type(fast.private[0]), "_evict", counting_evict)

    for step in range(1500):
        core = rng.choice(pool)
        buf = rng.choice(bufs)
        upto = rng.choice((rng.randrange(1, buf.size + 1), buf.size,
                           0, 2 * buf.size))
        if rng.random() < 0.4:
            fast.record_write(core, buf, upto)
            reference_record_write(ref, core, buf, upto)
        else:
            fast.record_read(core, buf, upto)
            reference_record_read(ref, core, buf, upto)
        if step % 10 == 0:
            assert _state(fast) == _state(ref), f"diverged at step {step}"
    assert _state(fast) == _state(ref)
    assert fallback, "no multi-victim eviction was exercised"
