"""Content-addressed cache of simulation results, shared by every sweep
entry point (bench, figures, tune, check, obs, serve).

Every measurement is keyed by a digest of *everything that determines it*:
system, collective, message size, rank count, iteration counts, the full
component/config description, and a simulator version tag. Re-running any
sweep with a warm cache therefore performs zero new simulations, and any
change to the inputs (or a bump of ``SIM_VERSION`` when the simulator's
pricing changes) misses cleanly instead of serving stale numbers.

The digest is taken over the canonical JSON form (sorted keys, no
whitespace), so it is stable across dict insertion orders and across
process boundaries — a worker process and the coordinating process always
agree on the key of a request.

Persistence is a sharded, one-file-per-entry store
(:class:`~repro.exec.store.ShardedStore`) under the cache *root*
directory; a ``*.json`` path names its containing directory
(:func:`store_layout`).
Corrupt or truncated entries are quarantined with a warning and treated
as misses; writes are atomic (``*.tmp`` + ``os.replace``); the store can
be size-bounded with LRU eviction (see docs/serving.md).

Persisting has two halves. :meth:`ResultCache.flush` writes the dirty
entries and, if it wrote any, evicts down to the bounds; its cost
follows the entries written, so a long-lived caller (the serve daemon,
after every chunk) can run it often. :meth:`ResultCache.save` flushes
and then derives the store ledger from a full scan; one-shot sweeps and
``Executor.close()`` call it once at the end.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os

from .store import ShardedStore

# Bump when simulator pricing changes invalidate cached latencies.
# Lint rule RC105 (repro.check.lint) enforces this: it fingerprints the
# sim-semantics sources and fails when they change without a bump here.
# After bumping, run `python -m repro check --update-fingerprint`.
# 2: scatter gathers all ranks' acks at the root (release-protocol fix).
# 3: the array engine (RunOptions.engine="array") joins the result cache:
#    its latencies differ from the event engine by the documented
#    approximations (docs/performance.md), so the engine name entered
#    RunRequest.payload() and cached entries must not survive the key
#    change. Event-engine semantics are unchanged — the latency goldens
#    were re-recorded verbatim under the new version.
SIM_VERSION = 3

#: Where the shared store lives unless a caller says otherwise. This is
#: the store *root* directory; entries live in sharded per-entry files
#: underneath it (``objects/v<SIM_VERSION>/<2-hex>/<digest>.json``).
DEFAULT_CACHE_PATH = os.path.join("results", "cache")


def default_cache_path() -> str:
    """The conventional location of the shared result store."""
    return DEFAULT_CACHE_PATH


def cache_key(payload: dict) -> str:
    """SHA-256 over the canonical JSON form of the measurement request."""
    canon = json.dumps({**payload, "sim_version": SIM_VERSION},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def store_layout(path: str) -> str:
    """Resolve a cache path to its store root.

    Directory paths are store roots; a ``*.json`` path maps to its
    containing directory, so ``results/tuned/cache.json`` and
    ``results/tuned`` name the same store.
    """
    if path.endswith(".json"):
        return os.path.dirname(path) or "."
    return path


@dataclasses.dataclass(frozen=True)
class CacheStats:
    """One coherent snapshot of a :class:`ResultCache`'s accounting —
    what the serve daemon scrapes into its telemetry after every chunk
    (hit/miss totals from this process, eviction/quarantine totals from
    the backing store's lifetime counters)."""

    hits: int
    misses: int
    entries: int
    evictions: int
    quarantined: int

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict:
        return {**dataclasses.asdict(self),
                "hit_rate": round(self.hit_rate, 6)}


class ResultCache:
    """A persistent {digest: latency} store with hit/miss accounting.

    ``get``/``put`` by payload; ``flush()`` persists the new entries,
    ``save()`` also derives the store ledger. ``len()``
    and lookups cover the *current* ``SIM_VERSION`` generation only;
    stale generations are invisible (and reclaimed by eviction).
    """

    def __init__(self, path: str | os.PathLike | None = None, *,
                 max_entries: int | None = None,
                 max_bytes: int | None = None) -> None:
        self.path = os.fspath(path) if path is not None else None
        self.entries: dict[str, dict] = {}
        self._dirty: set[str] = set()
        self.hits = 0
        self.misses = 0
        self.store: ShardedStore | None = None
        if self.path:
            self.store = ShardedStore(store_layout(self.path),
                                      max_entries=max_entries,
                                      max_bytes=max_bytes)

    def __len__(self) -> int:
        if self.store is None:
            return len(self.entries)
        return len(self.store.digests(SIM_VERSION)
                   | self._dirty | set(self.entries))

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def get(self, payload: dict) -> float | None:
        digest = cache_key(payload)
        entry = self.entries.get(digest)
        if entry is None and self.store is not None:
            entry = self.store.read(SIM_VERSION, digest)
            if entry is not None:
                if entry.get("sim_version", SIM_VERSION) != SIM_VERSION:
                    entry = None  # stale generation; never serve it
                else:
                    self.entries[digest] = entry
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        return entry["latency_s"]

    def put(self, payload: dict, latency_s: float) -> None:
        digest = cache_key(payload)
        self.entries[digest] = {
            "latency_s": latency_s,
            # The request itself is stored alongside for auditability;
            # the digest alone would be write-only.
            "request": payload,
            "sim_version": SIM_VERSION,
        }
        self._dirty.add(digest)

    def flush(self) -> int:
        """Write dirty entries to the sharded store and, if any were
        written, evict down to the bounds; returns how many were
        written. Never derives the ledger, so a call that has nothing to
        write touches no file. A no-op without a backing path."""
        if self.store is None or not self._dirty:
            return 0
        for digest in sorted(self._dirty):
            self.store.write(SIM_VERSION, digest, self.entries[digest])
        written = len(self._dirty)
        self._dirty.clear()
        self.store.evict()
        return written

    def save(self) -> None:
        """Flush, run eviction, and derive the ledger from a scan of the
        store. A no-op without a backing path."""
        if self.store is None:
            return
        if not self.flush():
            self.store.evict()
        self.store.save_ledger()

    def stats(self) -> CacheStats:
        """Cheap accounting snapshot (no filesystem walk; ``entries``
        counts the current ``SIM_VERSION`` generation)."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            entries=len(self),
            evictions=(self.store.evictions_total
                       if self.store is not None else 0),
            quarantined=(self.store.quarantined_total
                         if self.store is not None else 0),
        )

    def store_info(self) -> dict | None:
        """Totals + policy of the backing store (``None`` if in-memory)."""
        if self.store is None:
            return None
        count, size = self.store.totals()
        return {
            "root": self.store.root,
            "entries": count,
            "bytes": size,
            "current_version_entries": self.store.count(SIM_VERSION),
            "max_entries": self.store.max_entries,
            "max_bytes": self.store.max_bytes,
            "sim_version": SIM_VERSION,
        }
