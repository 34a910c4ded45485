"""SMSC — the shared-memory-single-copy component.

Mirrors OpenMPI's smsc framework: a per-process endpoint that performs
single-copy transfers from (or reductions over) peer buffers, using one of
the configured mechanisms:

* ``"xpmem"``  — attach once (cached by the registration cache unless
  disabled), then plain-load copies and direct reductions.
* ``"cma"`` / ``"knem"`` — per-operation kernel copy; no reuse, kernel-lock
  contention, and **no** direct reduction (copy-only semantics, SSII-B).
* ``None`` — SMSC disabled; callers must fall back to copy-in-copy-out.

All methods are generators to be driven with ``yield from`` inside a
simulated process.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from ..errors import ShmemError
from ..sim import primitives as P
from .regcache import RegistrationCache

if TYPE_CHECKING:  # pragma: no cover
    from ..memory.address_space import BufView
    from ..node import Node
    from .xpmem import XpmemService

MECHANISMS = ("xpmem", "cma", "knem", None)


@dataclass(frozen=True)
class SmscConfig:
    mechanism: str | None = "xpmem"
    use_regcache: bool = True
    regcache_capacity: int | None = None

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ShmemError(
                f"unknown smsc mechanism {self.mechanism!r}; "
                f"choose from {MECHANISMS}"
            )


class SmscEndpoint:
    """Per-process single-copy service."""

    def __init__(self, node: "Node", rank: int,
                 config: SmscConfig | None = None) -> None:
        self.node = node
        self.rank = rank
        self.config = config or SmscConfig()
        metrics = node.engine.obs.metrics
        self.regcache = RegistrationCache(self.config.regcache_capacity,
                                          metrics=metrics)
        self._m_copies = metrics.counter(
            "smsc.copies", "single-copy transfers issued")
        self._m_bytes = metrics.counter(
            "smsc.bytes", "bytes moved by single-copy transfers")
        self._m_reduces = metrics.counter(
            "smsc.reduces", "direct reductions over peer buffers")
        # Hoisted hot-loop constants: the mechanism never changes after
        # construction, and the regcache-hit Compute primitive is frozen,
        # so one shared instance serves every pipelined chunk.
        self._mech = self.config.mechanism
        self._lookup_prim = P.Compute(node.model.regcache_lookup_cost)

    @property
    def xpmem(self) -> "XpmemService":
        return self.node.xpmem

    @property
    def enabled(self) -> bool:
        return self.config.mechanism is not None

    @property
    def can_reduce(self) -> bool:
        """Only XPMEM permits reducing directly from peers' buffers."""
        return self.config.mechanism == "xpmem"

    # -- mapping ------------------------------------------------------------

    def map_peer(self, view: "BufView") -> Iterator:
        """Ensure ``view.buf`` is addressable; pays XPMEM attach on miss."""
        mech = self.config.mechanism
        if mech != "xpmem":
            return  # CMA/KNEM need no mapping; CICO segments are pre-mapped.
        buf = view.buf
        if buf.owner_rank == self.rank or buf.shared:
            return
        if self.config.use_regcache:
            if not self.regcache.lookup(buf):
                yield from self.xpmem.attach(buf)
                self.regcache.insert(buf)
            else:
                yield P.Compute(self.node.model.regcache_lookup_cost)
        else:
            yield from self.xpmem.attach(buf)

    def _unmap_if_uncached(self, view: "BufView") -> Iterator:
        if (self.config.mechanism == "xpmem"
                and not self.config.use_regcache
                and view.buf.owner_rank != self.rank
                and not view.buf.shared):
            yield from self.xpmem.detach(view.buf)

    # -- transfers -----------------------------------------------------------

    def copy_from_steps(self, src: "BufView",
                        dst: "BufView") -> "tuple | None":
        """The pull as a tuple of primitives, when no kernel transition is
        needed — the peer buffer is our own, pre-mapped shared memory, or
        an attachment already in the registration cache.

        Emits exactly what :meth:`copy_from` would yield in those cases
        (so callers may splice the steps into a
        :class:`~repro.sim.primitives.CopyBatch` without changing the
        simulated timeline); returns None — with **no** side effects —
        whenever the slow generator path (attach/detach, kernel copy)
        must run instead.
        """
        if self._mech != "xpmem":
            return None
        buf = src.buf
        if buf.owner_rank == self.rank or buf.shared:
            self._m_copies.inc()
            self._m_bytes.inc(src.length)
            return (P.Copy(src=src, dst=dst),)
        if self.config.use_regcache and self.regcache.contains(buf):
            self.regcache.lookup(buf)  # accounted hit + LRU refresh
            self._m_copies.inc()
            self._m_bytes.inc(src.length)
            return (self._lookup_prim, P.Copy(src=src, dst=dst))
        return None

    # -- chunk-run lowering (ArrayEngine.chunk_run) -------------------------

    def chunk_run_lowerable(self, src: "BufView") -> bool:
        """True when *every* chunk of a pipelined pull from ``src`` would
        take the spliceable fast path — own/pre-mapped shared memory, or
        XPMEM with the registration cache on (one attach up front via
        :meth:`map_peer`, then per-chunk cache hits). Kernel-assisted
        mechanisms re-enter the kernel per chunk and stay un-lowered."""
        if self._mech != "xpmem":
            return False
        buf = src.buf
        return (buf.owner_rank == self.rank or buf.shared
                or self.config.use_regcache)

    def chunk_run_account(self, src: "BufView", nchunks: int,
                          nbytes: int) -> float:
        """Bulk accounting for a lowered ``nchunks``-chunk pull: the
        metric counts :meth:`copy_from_steps` would have accumulated, one
        LRU refresh for the whole run, and the per-chunk fixed CPU cost
        (the registration-cache lookup every chunk of the event flow
        pays) for the :class:`~repro.sim.primitives.ChunkRun` to charge.
        Call only after :meth:`map_peer` ensured the attachment."""
        self._m_copies.inc(nchunks)
        self._m_bytes.inc(nbytes)
        buf = src.buf
        if buf.owner_rank == self.rank or buf.shared:
            return 0.0
        if self.config.use_regcache:
            self.regcache.lookup(buf)
            return self.node.model.regcache_lookup_cost
        return 0.0

    def reduce_run_lowerable(self, srcs: Sequence["BufView"],
                             dst: "BufView") -> bool:
        """:meth:`chunk_run_lowerable` for a direct-reduction run — every
        operand (sources and destination) must stay on the fast path."""
        if self._mech != "xpmem":
            return False
        rank = self.rank
        if self.config.use_regcache:
            return True
        for view in srcs:
            buf = view.buf
            if not (buf.owner_rank == rank or buf.shared):
                return False
        buf = dst.buf
        return buf.owner_rank == rank or buf.shared

    def reduce_run_account(self, srcs: Sequence["BufView"], dst: "BufView",
                           nchunks: int) -> float:
        """Bulk accounting for a lowered reduction run; returns the
        per-chunk fixed CPU cost (one regcache lookup per foreign
        operand, exactly what :meth:`reduce_from_steps` charges)."""
        self._m_reduces.inc(nchunks)
        lookups = 0
        rank = self.rank
        regcache = self.regcache
        for view in srcs:
            buf = view.buf
            if not (buf.owner_rank == rank or buf.shared):
                regcache.lookup(buf)
                lookups += 1
        buf = dst.buf
        if not (buf.owner_rank == rank or buf.shared):
            regcache.lookup(buf)
            lookups += 1
        return lookups * self.node.model.regcache_lookup_cost

    def reduce_from_steps(self, srcs: Sequence["BufView"], dst: "BufView",
                          op: Callable[..., Any] | None = None,
                          dtype: Any = None,
                          accumulate: bool = False) -> "tuple | None":
        """The direct reduction as a tuple of primitives, when every
        operand is already addressable (own/shared memory or a cached
        attachment) — the batch-spliceable analogue of
        :meth:`reduce_from`, mirroring :meth:`copy_from_steps`. Returns
        None with no side effects when any operand would need the slow
        attach path."""
        if self._mech != "xpmem":
            return None
        rank = self.rank
        use_rc = self.config.use_regcache
        regcache = self.regcache
        lookups = 0
        for view in srcs:
            buf = view.buf
            if buf.owner_rank == rank or buf.shared:
                continue
            if use_rc and regcache.contains(buf):
                lookups += 1
                continue
            return None
        buf = dst.buf
        if not (buf.owner_rank == rank or buf.shared):
            if use_rc and regcache.contains(buf):
                lookups += 1
            else:
                return None
        # Commit: account the hits exactly as map_peer would have.
        for view in srcs:
            buf = view.buf
            if not (buf.owner_rank == rank or buf.shared):
                regcache.lookup(buf)
        buf = dst.buf
        if not (buf.owner_rank == rank or buf.shared):
            regcache.lookup(buf)
        self._m_reduces.inc()
        reduce = P.Reduce(srcs=tuple(srcs), dst=dst, op=op, dtype=dtype,
                          accumulate=accumulate)
        if lookups == 0:
            return (reduce,)
        return (self._lookup_prim,) * lookups + (reduce,)

    def copy_from(self, src: "BufView", dst: "BufView") -> Iterator:
        """Single-copy ``src`` (a peer's buffer) into local ``dst``."""
        mech = self.config.mechanism
        if mech is None:
            raise ShmemError("SMSC disabled; use a CICO path instead")
        self._m_copies.inc()
        self._m_bytes.inc(src.length)
        if mech == "xpmem":
            buf = src.buf
            if buf.owner_rank == self.rank or buf.shared:
                # Pre-mapped: no attach, no detach — skip the generator
                # delegation entirely (hot on every pipelined pull).
                yield P.Copy(src=src, dst=dst)
                return
            yield from self.map_peer(src)
            yield P.Copy(src=src, dst=dst)
            yield from self._unmap_if_uncached(src)
        elif mech == "cma":
            yield P.Syscall("cma")
            yield P.Copy(src=src, dst=dst,
                         bw_factor=self.node.model.cma_bw_factor,
                         in_kernel=True)
        elif mech == "knem":
            yield P.Syscall("knem")
            yield P.Copy(src=src, dst=dst,
                         bw_factor=self.node.model.knem_bw_factor,
                         in_kernel=True)

    def copy_to(self, src: "BufView", dst: "BufView") -> Iterator:
        """Single-copy local ``src`` into a peer's ``dst`` (write-side)."""
        mech = self.config.mechanism
        if mech is None:
            raise ShmemError("SMSC disabled; use a CICO path instead")
        if mech == "xpmem":
            self._m_copies.inc()
            self._m_bytes.inc(src.length)
            yield from self.map_peer(dst)
            yield P.Copy(src=src, dst=dst)
            yield from self._unmap_if_uncached(dst)
        else:
            yield from self.copy_from(src, dst)  # kernel copies are symmetric

    def reduce_from(
        self,
        srcs: Sequence["BufView"],
        dst: "BufView",
        op: Callable[..., Any] | None = None,
        dtype: Any = None,
        accumulate: bool = False,
    ) -> Iterator:
        """Reduce peers' buffers directly into ``dst`` (XPMEM only)."""
        if not self.can_reduce:
            raise ShmemError(
                f"direct reduction requires xpmem, not "
                f"{self.config.mechanism!r}; copy-in first"
            )
        self._m_reduces.inc()
        for src in srcs:
            yield from self.map_peer(src)
        yield from self.map_peer(dst)
        yield P.Reduce(srcs=tuple(srcs), dst=dst, op=op, dtype=dtype,
                       accumulate=accumulate)
